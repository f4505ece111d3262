"""Closed-form domination numbers and the upper-bound catalog.

Exact values exist for width 3, width 4 (either orientation) and for
grids with both sides divisible by 4.  For everything else
`class_bound` is the one map from a residue class to its pattern
family's claimed size and tag; the construct module builds that family
and `_finish` refuses it at any other size, and audits compare bounds
against exact solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import CertificateError, InvalidDimensionsError, InvalidInputError
from .validate import DominationKind


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class BoundReport:
    """Lower and upper bounds for one instance and kind."""

    kind: DominationKind
    exact: Optional[int]
    lower_bound: int
    upper_bounds: tuple[tuple[int, str], ...]

    def best_upper(self) -> int:
        return min(v for v, _ in self.upper_bounds)


def _check_side(n: int) -> None:
    if n < 3:
        raise InvalidDimensionsError(f"side must be >= 3, got {n}")


def gamma_t_m3(n: int) -> int:
    """Minimum total dominating set size of the width-3 grid."""
    _check_side(n)
    return _ceil_div(4 * n, 5)


def gamma_p_m3(n: int) -> int:
    """Minimum paired dominating set size of the width-3 grid."""
    _check_side(n)
    bump = 1 if n % 5 in (1, 3) else 0
    return _ceil_div(4 * n, 5) + bump


def gamma_tp_m4(n: int) -> int:
    """Total and paired domination number of the width-4 grid (they agree)."""
    _check_side(n)
    return n + (0, 1, 2, 1)[n % 4]


def known_value(n: int, m: int, kind: DominationKind) -> Optional[int]:
    """Exact value when a closed form covers (n, m, kind); None otherwise."""
    _check_side(n)
    _check_side(m)
    if kind not in (DominationKind.TOTAL, DominationKind.PAIRED):
        return None
    if m == 3 or n == 3:
        length = n if m == 3 else m
        return gamma_t_m3(length) if kind is DominationKind.TOTAL else gamma_p_m3(length)
    if m == 4 or n == 4:
        return gamma_tp_m4(n if m == 4 else m)
    if n % 4 == 0 and m % 4 == 0:
        return n * m // 4
    return None


def lower_bound_regular(n: int, m: int) -> int:
    """Degree bound for total domination: each vertex covers its 4 neighbours."""
    _check_side(n)
    _check_side(m)
    return _ceil_div(n * m, 4)


def lower_bound_paired(n: int, m: int) -> int:
    """The degree bound rounded up to even, since paired sets have even size."""
    lo = lower_bound_regular(n, m)
    return lo + lo % 2


def class_bound(n: int, m: int, paired: bool) -> Optional[tuple[int, str]]:
    """The claimed bound and family tag of width m's residue class, or None."""
    a, b = m % 4, n % 4
    bump = int(paired)  # a corner family's paired set takes one cell more
    if (a, b) == (0, 1):
        return (n + 1) * m // 4, "upper:row-extended"
    if (a, b) == (1, 1):
        return (n + 1) * (m + 1) // 4 + bump, "upper:corner-extended"
    if (a, b) == (1, 3):
        return (n + 1) * (m + 1) // 4 - 3 + bump, "upper:corner-trimmed"
    if (a, b) == (1, 2):
        return (n + 2) * (m + 1) // 4 - 3 + bump, "upper:corner-trimmed-projected"
    if (a, b) == (2, 2):
        return (n + 2) * (m + 2) // 4 - 6, "upper:wrap-braided"
    return None


def upper_bounds(n: int, m: int, kind: DominationKind) -> BoundReport:
    """All applicable claimed bounds, sorted ascending, plus a degree bound.

    The rounded-tiling bound applies to every grid; the class-specific
    entries require both sides >= 5 and are evaluated in both
    orientations.  Plain requests reuse the total catalog (any total
    dominating set dominates) over the closed-neighborhood lower bound.
    """
    _check_side(n)
    _check_side(m)
    if kind not in (DominationKind.PLAIN, DominationKind.TOTAL, DominationKind.PAIRED):
        raise InvalidInputError(f"bounds cover plain, total or paired, got {kind!r}")
    paired = kind is DominationKind.PAIRED
    witness_kind = DominationKind.PAIRED if paired else DominationKind.TOTAL

    bounds: list[tuple[int, str]] = []
    closed_form = known_value(n, m, witness_kind)
    if closed_form is not None:
        bounds.append((closed_form, "upper:closed-form"))
    bounds.append((4 * _ceil_div(n, 4) * _ceil_div(m, 4), "upper:rounded-tiling"))
    if n >= 5 and m >= 5:
        for bound in (class_bound(n, m, paired), class_bound(m, n, paired)):
            if bound is not None:
                bounds.append(bound)

    if kind is DominationKind.PLAIN:
        lower = _ceil_div(n * m, 5)
    else:
        lower = lower_bound_regular(n, m)
    exact = known_value(n, m, kind)
    report = BoundReport(kind, exact, lower, tuple(sorted(set(bounds))))
    if report.lower_bound > report.best_upper():
        raise CertificateError(
            f"{kind.value} lower bound {lower} on {n}x{m} exceeds the best upper bound"
        )
    return report
