"""Exception types shared across the package."""


class TorusDomError(Exception):
    """Base class for all library errors."""


class InvalidDimensionsError(TorusDomError):
    """Grid dimensions outside the supported range."""


class OutOfRangeError(TorusDomError):
    """Vertex or column index outside the grid."""


class CongruenceError(TorusDomError):
    """Construction requested for an inapplicable residue class."""


class ConstructionInvalidError(TorusDomError):
    """A transcribed pattern failed its own validation contract."""


class UnsupportedClassError(TorusDomError):
    """No built-in construction covers the requested instance."""


class InvalidInputError(TorusDomError):
    """An operation received input that violates its precondition."""


class InstanceTooLargeError(TorusDomError):
    """Instance exceeds a solver's configured cap."""


class CertificateError(TorusDomError):
    """Malformed or inconsistent certificate, read from a file or computed."""
