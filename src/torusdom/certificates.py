"""Certificate files and the persistent result cache.

A certificate is a small JSON document naming the grid, the claimed
domination kind and cardinality, the vertex list in slot order, and a
free-form provenance label.  Serialization is canonical: fixed key
order, two-space indent, trailing newline.  Parsing re-serializes and
compares bytes, so any normalization drift or hand edit is rejected
rather than silently accepted; `Certificate.vertex_set` is the one
structural gate (vertices on the grid, distinct, in slot order, as many
as claimed), so each set has exactly one accepted byte form and digest.

The cache is one JSON file, `results.json`, mapping "NxM:kind:method"
to the computed value plus the certificate digest and the tool version;
entries from other versions are ignored on load and rewritten on store.
Each certificate is kept beside it by content, as `<digest>.json`,
written before its entry and under the same lock (`ResultCache.put`).  `solve` answers from the cache only when
`ResultCache.certificate` accepts the stored file: its bytes hash to
the entry's digest, it parses (canonical form), it names the requested
grid and kind, holds as many vertices as the stored value, credits a
solver, and passes `Certificate.check`.  Anything else is a miss, and
the request is solved as if nothing were cached.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Optional

from . import __version__ as TOOL_VERSION
from .errors import CertificateError, InstanceTooLargeError, InvalidDimensionsError
from .torus import TorusDims, VertexSet, make_torus
from .validate import DominationKind, satisfies

SCHEMA_VERSION = 1
_DIGEST = re.compile("[0-9a-f]{64}")


@dataclass(frozen=True)
class Certificate:
    """A claimed dominating set of one grid.  `vertex_set` checks its
    structure and `check` adds the domination check; `verify`, `solve`
    and `construct` all go through them."""

    n: int
    m: int
    kind: DominationKind
    cardinality: int
    vertices: tuple[tuple[int, int], ...]
    provenance: str

    @classmethod
    def from_vertex_set(
        cls, vs: VertexSet, kind: DominationKind, provenance: str
    ) -> "Certificate":
        verts = tuple((v.i, v.j) for v in vs)
        return cls(vs.dims.n, vs.dims.m, kind, len(vs), verts, provenance)

    def vertex_set(self) -> VertexSet:
        """The certified set, once the structure holds: vertices on the
        grid, distinct, in slot order and as many as `cardinality`.

        Raises CertificateError otherwise; a grid above the order cap
        raises InstanceTooLargeError, as TorusDims does everywhere.
        """
        n, m = self.n, self.m
        try:
            dims = TorusDims(n, m)
        except InvalidDimensionsError as exc:
            raise CertificateError(f"bad dimensions or vertices: {exc}") from exc
        slots = []
        for i, j in self.vertices:
            if not (1 <= i <= n and 1 <= j <= m):
                raise CertificateError(
                    f"bad dimensions or vertices: vertex {(i, j)} outside {n}x{m} grid"
                )
            slots.append((i - 1) * m + j - 1)
        if any(a >= b for a, b in zip(slots, slots[1:])):
            raise CertificateError("vertices must be distinct and in slot order")
        if self.cardinality != len(slots):
            raise CertificateError(
                f"cardinality {self.cardinality} != vertex count {len(slots)}"
            )
        return VertexSet.from_slots(dims, slots)

    def to_json(self) -> str:
        verts = json.dumps([[i, j] for i, j in self.vertices])
        lines = [
            "{",
            f'  "schema_version": {SCHEMA_VERSION},',
            f'  "n": {self.n},',
            f'  "m": {self.m},',
            f'  "kind": {json.dumps(self.kind.value)},',
            f'  "cardinality": {self.cardinality},',
            f'  "vertices": {verts},',
            f'  "provenance": {json.dumps(self.provenance)}',
            "}",
        ]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
            raise CertificateError(f"not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise CertificateError("certificate document must be an object")
        expected = {
            "schema_version", "n", "m", "kind", "cardinality", "vertices", "provenance",
        }
        if set(doc) != expected:
            raise CertificateError(f"certificate keys {sorted(doc)} != {sorted(expected)}")
        if doc["schema_version"] != SCHEMA_VERSION:
            raise CertificateError(f"unsupported schema_version {doc['schema_version']!r}")
        try:
            kind = DominationKind(doc["kind"])
        except ValueError as exc:
            raise CertificateError(f"unknown kind {doc['kind']!r}") from exc
        raw = doc["vertices"]
        # JSON yields exact types only, so `type(...) is int` refuses
        # bools and floats alike
        if type(raw) is not list or any(
            type(p) is not list or len(p) != 2 or type(p[0]) is not int or type(p[1]) is not int
            for p in raw
        ):
            raise CertificateError("vertices must be a list of [i, j] integer pairs")
        for field in ("n", "m", "cardinality"):
            if type(doc[field]) is not int:
                raise CertificateError(f"{field} must be an integer")
        if type(doc["provenance"]) is not str:
            raise CertificateError("provenance must be a string")
        cert = cls(
            doc["n"], doc["m"], kind, doc["cardinality"],
            tuple(map(tuple, raw)), doc["provenance"],
        )
        if cert.to_json() != text:
            raise CertificateError("certificate is not in canonical form")
        return cert

    def check(self) -> None:
        """Raise CertificateError unless the structure holds and the vertex
        set validates under the claimed kind."""
        vs = self.vertex_set()
        if not satisfies(make_torus(self.n, self.m), vs, self.kind):
            raise CertificateError(
                f"vertex set fails {self.kind.value} validation on {self.n}x{self.m}"
            )

    def save(self, path: Path | str) -> None:
        Path(path).write_text(self.to_json())


def load_certificate(path: Path | str) -> Certificate:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CertificateError(f"cannot read {path}: {exc}") from exc
    return Certificate.from_json(text)


def default_cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "torusdom"


def _replace(path: Path, text: str) -> None:
    """Write `text` to `path` through a temporary sibling and `os.replace`,
    so a reader sees the old file or the new one, never a part."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """Single-file store of solved values keyed by instance and method,
    with each value's certificate stored by content beside it."""

    def __init__(self, directory: Optional[Path | str] = None):
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.path = self.directory / "results.json"

    @staticmethod
    def key(n: int, m: int, kind: DominationKind, method: str) -> str:
        return f"{n}x{m}:{kind.value}:{method}"

    def _read(self) -> dict:
        """`results.json` as stored, every entry kept, or {} when unreadable."""
        try:
            doc = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError):
            return {}
        return doc if isinstance(doc, dict) else {}

    @staticmethod
    def _live(doc: dict) -> dict[str, dict]:
        """The entries of a read `results.json` that this tool version wrote."""
        return {
            key: entry
            for key, entry in doc.items()
            if isinstance(entry, dict)
            and entry.get("version") == TOOL_VERSION
            and isinstance(entry.get("value"), int)
            and isinstance(entry.get("digest"), str)
        }

    def get(self, n: int, m: int, kind: DominationKind, method: str) -> Optional[tuple[int, str]]:
        entry = self._live(self._read()).get(self.key(n, m, kind, method))
        if entry is None:
            return None
        return entry["value"], entry["digest"]

    def certificate(
        self,
        n: int,
        m: int,
        kind: DominationKind,
        value: int,
        digest: str,
        provenances: Collection[str],
    ) -> Optional[Certificate]:
        """The certificate stored as `<digest>.json`, when it answers an
        entry of `value` for n x m and kind: its bytes hash to `digest`, it
        is in canonical form, it names n, m and kind, its cardinality is
        `value`, its provenance is one of `provenances`, and it passes
        `Certificate.check`.  None otherwise."""
        if not _DIGEST.fullmatch(digest):
            return None
        try:
            data = (self.directory / f"{digest}.json").read_bytes()
        except OSError:
            return None
        if hashlib.sha256(data).hexdigest() != digest:
            return None
        try:
            cert = Certificate.from_json(data.decode())
            if (
                (cert.n, cert.m, cert.kind, cert.cardinality) != (n, m, kind, value)
                or cert.provenance not in provenances
            ):
                return None
            cert.check()
        except (UnicodeDecodeError, CertificateError, InstanceTooLargeError):
            return None
        return cert

    def put(self, cert: Certificate, method: str) -> str:
        """Store `cert` as `<digest>.json` and the entry naming it under its
        grid, kind, `method` and cardinality; return the digest.  An
        exclusive lock on a sibling file spans the certificate write and the
        whole read-modify-write of `results.json`, so concurrent writers
        lose no entries and none removes a certificate another has just
        written.

        The certificate of a replaced entry, or of an entry another tool
        version wrote, is removed once no entry names it; a reader that
        then finds it missing has an ordinary miss."""
        text = cert.to_json()
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.directory / "results.json.lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            _replace(self.directory / f"{digest}.json", text)
            doc = self._read()
            entries = self._live(doc)
            key = self.key(cert.n, cert.m, cert.kind, method)
            entries[key] = {"value": cert.cardinality, "digest": digest, "version": TOOL_VERSION}
            _replace(self.path, json.dumps(entries, indent=2, sort_keys=True) + "\n")
            named = {e["digest"] for e in entries.values()}
            for entry in doc.values():
                old = entry.get("digest") if isinstance(entry, dict) else None
                if isinstance(old, str) and _DIGEST.fullmatch(old) and old not in named:
                    (self.directory / f"{old}.json").unlink(missing_ok=True)
        return digest
