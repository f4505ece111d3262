"""Explicit dominating-set patterns, keyed by congruence class.

Each builder assembles a pattern from closed-form index ranges, and
`_finish` re-validates it against the domination kind and the size it
must have before returning.  A residue-class family's size and name
come from `formulas.class_bound`: its builder gives only cells, and
`construct_bound_pattern` holds them to the catalog's size.  A pattern
that fails its own contract raises ConstructionInvalidError; nothing is
silently patched.  A builder or transformation that breaks its own
invariant (overlapping parts, a projection that loses domination)
raises CertificateError, which best_upper_witness does not catch, also
under python -O.  best_upper_witness builds each applicable family,
once each, and keeps the smallest one that validates for the process.

Also provides the set transformation used to move witnesses between
grid sizes: single-row projection (with matching repair for paired sets,
on the induced subgraph that `validate` builds for its own
perfect-matching check).  The projection cascade carries the block
tiling rounded up to sides = 0 (mod 4) down to the requested grid a row
at a time.  Each step is kept for the life of the process, keyed by the
set it projects and the kind, so grids that round up to one tiling, as
most cells of one `table` do, share their common steps; a step that
raises is not kept, so it raises again.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import (
    CertificateError,
    CongruenceError,
    ConstructionInvalidError,
    InstanceTooLargeError,
    InvalidDimensionsError,
    InvalidInputError,
)
from .formulas import class_bound, gamma_p_m3, gamma_t_m3, gamma_tp_m4
from .matching import maximum_matching
from .torus import TorusDims, TorusGraph, VertexSet, make_torus
from .validate import DominationKind, _induced_adj, is_dominating, is_total_dominating, satisfies


@dataclass(frozen=True)
class ConstructionResult:
    """A validated pattern together with its kind and origin."""

    vertex_set: VertexSet
    kind: DominationKind
    provenance: str

    @property
    def claimed_cardinality(self) -> int:
        return len(self.vertex_set)


def _finish(
    dims: TorusDims,
    vertices: Iterable[tuple[int, int]],
    claimed: int,
    kind: DominationKind,
    provenance: str,
) -> ConstructionResult:
    """Assemble, then enforce the claimed cardinality and kind."""
    listed = list(vertices)
    vset = VertexSet.from_vertices(dims, listed)
    # a collision between pattern parts is a builder bug, not bad input
    if len(vset) != len(listed):
        raise CertificateError(f"{provenance}: overlapping pattern parts")
    if len(vset) != claimed:
        raise ConstructionInvalidError(
            f"{provenance} on {dims.n}x{dims.m}: built {len(vset)} vertices, claimed {claimed}"
        )
    g = make_torus(dims.n, dims.m)
    if not satisfies(g, vset, kind):
        raise ConstructionInvalidError(
            f"{provenance} on {dims.n}x{dims.m}: set fails {kind.value} validation"
        )
    return ConstructionResult(vset, kind, provenance)


def _block_tiling(n: int, m: int) -> list[tuple[int, int]]:
    verts = []
    for i in range(1, n + 1, 4):
        for j in range(1, m + 1, 4):
            verts += [(i, j), (i, j + 1), (i + 2, j + 2), (i + 2, j + 3)]
    return verts


def construct_mod4(n: int, m: int) -> ConstructionResult:
    """Block tiling for doubly mod-4 grids; size nm/4, meets the degree bound."""
    if n % 4 or m % 4:
        raise CongruenceError(f"block tiling needs both sides = 0 (mod 4), got {n}x{m}")
    return _finish(
        TorusDims(n, m), _block_tiling(n, m), n * m // 4, DominationKind.PAIRED, "block-tiling"
    )


def _m3_band(n: int) -> list[tuple[int, int]]:
    verts = [(i, 2) for i in range(1, n + 1) if i % 5 in (1, 2)]
    for j in range(1, n + 1):
        if j % 5 == 4:
            verts += [(j, 1), (j, 3)]
    return verts


def construct_m3(n: int, kind: DominationKind) -> ConstructionResult:
    """Width-3 band pattern whose size meets the width-3 closed forms."""
    if n < 3:
        raise InvalidDimensionsError(f"need n >= 3, got {n}")
    dims = TorusDims(n, 3)
    verts = _m3_band(n)
    if kind is DominationKind.TOTAL:
        if n % 5 == 3:
            verts.append((n, 2))
        return _finish(dims, verts, gamma_t_m3(n), kind, "band-m3-total")
    if kind is DominationKind.PAIRED:
        if n % 5 == 1:
            verts.append((n, 1))
        elif n % 5 == 3:
            verts += [(n, 1), (n, 2)]
        return _finish(dims, verts, gamma_p_m3(n), kind, "band-m3-paired")
    raise InvalidInputError(f"no width-3 pattern for kind {kind.value}")


def construct_m4(n: int) -> ConstructionResult:
    """Width-4 rail pattern whose size meets the width-4 closed form."""
    if n < 3:
        raise InvalidDimensionsError(f"need n >= 3, got {n}")
    dims = TorusDims(n, 4)

    def blocks(rows: Iterable[int]) -> list[tuple[int, int]]:
        out = []
        for i in rows:
            out += [(i, 1), (i, 2), (i + 2, 3), (i + 2, 4)]
        return out

    r = n % 4
    if r == 0:
        verts = blocks(range(1, n + 1, 4))
    elif r == 1:
        verts = blocks(i for i in range(1, n + 1, 4) if i != n)
        verts += [(n, 1), (n, 2)]
    elif r == 2:
        verts = blocks(range(1, n - 1, 4))
        verts += [(n - 1, 1), (n - 1, 2), (n, 1), (n, 2)]
    else:
        verts = blocks(range(1, n + 1, 4))
    return _finish(dims, verts, gamma_tp_m4(n), DominationKind.PAIRED, "rail-m4")


def construct_base_tile(n: int, m: int) -> VertexSet:
    """Open-ended block tiling on the flat part of the grid.

    Blocks start at rows and rungs = 1 (mod 4) up to side - 2; the last
    block's far rungs may wrap when m = 3 (mod 4).  Not a dominating set
    by itself in general.
    """
    if n < 5 or m < 5:
        raise InvalidDimensionsError(f"base tile needs both sides >= 5, got {n}x{m}")
    dims = TorusDims(n, m)
    verts = []
    for i in range(1, n - 1, 4):
        for j in range(1, m - 1, 4):
            verts += [(i, j), (i, j + 1), tuple(dims.wrap(i + 2, j + 2)), tuple(dims.wrap(i + 2, j + 3))]
    vset = VertexSet.from_vertices(dims, verts)
    if len(vset) != len(verts):
        raise CertificateError("base tile blocks overlap")
    return vset


def _row_extended(n: int, m: int, kind: DominationKind):
    # applies when m = 0, n = 1 (mod 4)
    verts = construct_base_tile(n, m).pairs()
    for j in range(1, m - 1, 4):
        verts += [(n, j), (n, j + 1)]
    return verts, (), "row-extended"


def _corner_rail(n: int, m: int) -> list[tuple[int, int]]:
    out = []
    for i in range(1, n - 1, 4):
        out += [(i + 1, m - 1), (i + 2, m)]
    return out


# 8x8 efficient tiling mixing horizontal and vertical pairs, as
# 0-based (row, rung) offsets modulo 8
_MIXED_TILE = frozenset({
    (0, 1), (0, 2), (1, 4), (1, 7), (2, 4), (2, 7), (3, 1), (3, 2),
    (4, 5), (4, 6), (5, 0), (5, 3), (6, 0), (6, 3), (7, 5), (7, 6),
})


def _corner_extended(n: int, m: int, kind: DominationKind):
    # applies when m = 1, n = 1 (mod 4)
    if kind is DominationKind.PAIRED:
        # mixed tiling on the first n - 1 rows and m - 1 rungs, pairs at
        # 2, 3 (mod 4) along the last row and rung, two corner cells
        verts = [
            (i, j)
            for i in range(1, n)
            for j in range(1, m)
            if ((i - 1) % 8, (j - 1) % 8) in _MIXED_TILE
        ]
        verts += [(i, m) for i in range(1, n) if i % 4 in (2, 3)]
        verts += [(n, j) for j in range(1, m) if j % 4 in (2, 3)]
        verts += [(n - 4, m), (n - 1, m)]
        return verts, (), "corner-extended-paired"
    # the row-extended pattern, a rail of diagonal cells down the last
    # two rungs and the corner
    verts = _row_extended(n, m, kind)[0] + _corner_rail(n, m) + [(n, m)]
    return verts, (), "corner-extended-total"


def _corner_trimmed(n: int, m: int, kind: DominationKind):
    # applies when m = 1, n = 3 (mod 4)
    if kind is DominationKind.PAIRED:
        # vertical-pair block tiling on n + 1 rows and the first m - 1
        # rungs, pairs at rows 1, 2 (mod 4) of the last rung; row n - 2
        # is cut out, and row n - 3 gains cells at rungs 5, 9, ..., m - 4
        tall = [
            (i, j)
            for i in range(1, n + 2)
            for j in range(1, m)
            if (i % 4, j % 4) in ((1, 1), (2, 1), (3, 3), (0, 3))
        ]
        tall += [(i, m) for i in range(1, n + 2) if i % 4 in (1, 2)]
        verts = [(i - (i > n - 2), j) for i, j in tall if i != n - 2]
        verts += [(n - 3, j) for j in range(5, m - 3, 4)]
        return verts, (), "corner-trimmed-paired"
    # horizontal block tiling and the corner rail, trimmed at three cells
    verts = construct_base_tile(n, m).pairs() + _corner_rail(n, m)
    return verts, ((n, m - 2), (n, m), (2, m - 1)), "corner-trimmed-total"


def _wrap_braided(n: int, m: int, kind: DominationKind):
    # applies when m = 2, n = 2 (mod 4)
    verts = construct_base_tile(n, m).pairs()
    for i in range(1, n - 1, 4):
        verts += [(i, m - 2), (i, m - 1), (i + 2, m - 1), (i + 2, m)]
    for j in range(1, m - 1, 4):
        verts += [(n - 1, j), (n - 1, j + 1), (n, j + 2), (n, j + 3)]
    verts.append((n, m - 1))
    return verts, ((1, m - 2), (1, m - 1), (n, m - 3)), "wrap-braided"


def _corner_trimmed_projected(n: int, m: int, kind: DominationKind):
    # applies when m = 1, n = 2 (mod 4): the corner-trimmed pattern on
    # n + 1 rows with its last row projected away
    d = _kept_projection(construct_bound_pattern(n + 1, m, kind).vertex_set, kind)
    return d.pairs(), (), "corner-trimmed-projected"


# catalog tag -> builder of (cells, removed cells, provenance) on the
# orientation that `class_bound` names
_PATTERN_TABLE: dict[str, Callable] = {
    "upper:row-extended": _row_extended,
    "upper:corner-extended": _corner_extended,
    "upper:corner-trimmed-projected": _corner_trimmed_projected,
    "upper:corner-trimmed": _corner_trimmed,
    "upper:wrap-braided": _wrap_braided,
}


def _projection_cascade(n: int, m: int, kind: DominationKind) -> ConstructionResult:
    """Project the rounded-up block tiling down to n rows, then, on the
    transpose, down to m columns, one `_kept_projection` per row.  The
    tiling is checked once per kind: by the first step's input check, or
    by `_finish` when the cascade has no step."""
    big_n, big_m = 4 * ((n + 3) // 4), 4 * ((m + 3) // 4)
    d = VertexSet.from_vertices(TorusDims(big_n, big_m), _block_tiling(big_n, big_m))
    for _ in range(big_n - n):
        d = _kept_projection(d, kind)
    d = d.transposed()
    for _ in range(big_m - m):
        d = _kept_projection(d, kind)
    d = d.transposed()
    return _finish(d.dims, d.pairs(), len(d), kind, "projection-cascade")


@functools.lru_cache(maxsize=None)
def _kept_projection(d: VertexSet, kind: DominationKind) -> VertexSet:
    """`project_column` on d's own grid, kept for the process; keyed by
    the set (whose dims name the grid) and the kind, since `TorusGraph`
    hashes by identity."""
    return project_column(make_torus(d.dims.n, d.dims.m), d, kind)[0]


def construct_bound_pattern(n: int, m: int, kind: DominationKind) -> ConstructionResult:
    """Best covering pattern for grids with both sides >= 5: the block
    tiling when both are 0 (mod 4), else the residue-class family that
    `class_bound` names for the stated orientation or the transpose,
    built, stripped of its removed cells, turned back if transposed and
    held to the catalog's size.  A class with no family raises
    CongruenceError, as `construct_mod4` does outside its class.
    """
    if n < 5 or m < 5:
        raise InvalidDimensionsError(f"bound patterns need both sides >= 5, got {n}x{m}")
    if kind not in (DominationKind.TOTAL, DominationKind.PAIRED):
        raise InvalidInputError(f"no bound pattern for kind {kind.value}")
    if n % 4 == 0 and m % 4 == 0:
        base = construct_mod4(n, m)
        if kind is base.kind:
            return base
        return dataclasses.replace(base, kind=kind)

    for rows, cols in ((n, m), (m, n)):
        bound = class_bound(rows, cols, kind is DominationKind.PAIRED)
        if bound is None:
            continue
        size, tag = bound
        verts, removed, prov = _PATTERN_TABLE[tag](rows, cols, kind)
        kept = set(verts)
        if len(kept) != len(verts):
            raise CertificateError(f"{prov}: overlapping pattern parts")
        for v in removed:
            if v not in kept:
                raise ConstructionInvalidError(f"{prov} removal {v} absent on {rows}x{cols}")
            kept.discard(v)
        if rows != n:
            kept = {(j, i) for i, j in kept}
        return _finish(TorusDims(n, m), kept, size, kind, prov)
    raise CongruenceError(f"no {kind.value} pattern family for {n}x{m}")


def _transposed(res: ConstructionResult) -> ConstructionResult:
    moved = res.vertex_set.transposed()
    return _finish(moved.dims, moved.pairs(), len(moved), res.kind, res.provenance)


def _repair_matching(
    g: TorusGraph, d: VertexSet, budget: int
) -> tuple[VertexSet, VertexSet]:
    """Repair d until its induced subgraph has a perfect matching.

    Every unmatched member either gains a partner (the least free slot
    next to an exposed member, while budget lasts) or, once the budget
    is spent, the first exposed member whose coverage is redundant is
    dropped instead, which both shrinks the deficiency and buys one
    addition back.  Each step reduces the number of exposed members, so
    the loop terminates.
    """
    mask, added = d.mask, 0
    while True:
        slots, adj = _induced_adj(g, VertexSet(g.dims, mask))
        exposed = [s for s, mate in zip(slots, maximum_matching(adj)) if mate == -1]
        if not exposed:
            return VertexSet(g.dims, mask), VertexSet(g.dims, added)
        if budget > 0:
            free = [t for s in exposed for t in g.around(s) if not mask >> t & 1]
            if free:
                t = min(free)
                mask |= 1 << t
                added |= 1 << t
                budget -= 1
                continue
        for s in exposed:
            if is_dominating(g, VertexSet(g.dims, mask ^ 1 << s)):
                mask ^= 1 << s
                budget += 1
                break
        else:
            raise ConstructionInvalidError(
                "matching repair stuck: no addable partner and no droppable member"
            )


def project_column(
    g_big: TorusGraph, d: VertexSet, kind: DominationKind
) -> tuple[VertexSet, VertexSet]:
    """Collapse the last row of the grid, pushing its members inward.

    Members of the removed row move onto the row below (or, where that
    row is already occupied at the same rung, one row further).  The
    result dominates the smaller grid totally and never exceeds the
    input's size; for paired inputs the matching is then repaired,
    spending the size saved by the collapse on new partners and trading
    away redundant unmatched members when nothing is left to spend.
    Returns the projected set and the members the repair added (empty
    for total projections and for an empty last row).
    """
    if kind not in (DominationKind.TOTAL, DominationKind.PAIRED):
        raise InvalidInputError(f"projection handles total or paired, got {kind.value}")
    n1, m = g_big.dims.n, g_big.dims.m
    if n1 < 4:
        raise InvalidDimensionsError("projection needs at least 4 rows to start")
    if not satisfies(g_big, d, kind):
        raise InvalidInputError(f"input is not a {kind.value} dominating set")

    n = n1 - 1
    g = make_torus(n, m)
    # bit rows of the removed row and the row below it
    low = d.mask & ((1 << n * m) - 1)
    a, b = d.mask >> n * m, low >> (n - 1) * m
    if not a:
        small = VertexSet(g.dims, low)
        if not satisfies(g, small, kind):
            raise CertificateError(f"projection to {n}x{m} lost {kind.value} domination")
        return small, VertexSet(g.dims)

    small = VertexSet(g.dims, low | (a & ~b) << (n - 1) * m | (a & b) << (n - 2) * m)
    if len(small) > len(d) or not is_total_dominating(g, small):
        raise CertificateError(f"projection to {n}x{m} grew or lost total domination")

    if kind is DominationKind.TOTAL:
        return small, VertexSet(g.dims)

    repaired, added = _repair_matching(g, small, len(d) - len(small))
    if len(repaired) > len(d) or not satisfies(g, repaired, DominationKind.PAIRED):
        raise CertificateError(f"matching repair on {n}x{m} grew or lost paired domination")
    return repaired, added


@functools.lru_cache(maxsize=None)
def best_upper_witness(n: int, m: int, kind: DominationKind) -> ConstructionResult:
    """Smallest validated pattern covering (n, m) for the given kind.

    Builds each applicable family once, skipping those whose builder
    rejects its set (each validates through `_finish`), names no family
    for the grid's class or needs a grid above the order cap, and keeps
    the smallest survivor (ties broken by provenance name) for the
    process.  With both sides 0 (mod 4) the bound pattern is the block
    tiling, and the cascade's zero-step copy of it loses the name tie,
    so only the block tiling is built.
    """
    if kind not in (DominationKind.TOTAL, DominationKind.PAIRED):
        raise InvalidInputError(f"no witness catalog for kind {kind.value}")
    TorusDims(n, m)  # a grid above the order cap is refused before any family
    found: list[ConstructionResult] = []

    def attempt(build: Callable[..., ConstructionResult], *args) -> None:
        try:
            res = build(*args)
        except (ConstructionInvalidError, CongruenceError, InstanceTooLargeError):
            # a family that passes through a grid above the order cap, such
            # as the projection cascade's round-up to sides = 0 (mod 4), is
            # skipped like one that fails
            return
        found.append(dataclasses.replace(res, kind=kind))

    if m == 3:
        attempt(construct_m3, n, kind)
    if n == 3 and m != 3:
        attempt(lambda: _transposed(construct_m3(m, kind)))
    if m == 4:
        attempt(construct_m4, n)
    if n == 4 and m != 4:
        attempt(lambda: _transposed(construct_m4(m)))
    if n % 4 == 0 and m % 4 == 0:
        attempt(construct_mod4, n, m)
    elif n >= 5 and m >= 5:
        attempt(construct_bound_pattern, n, m, kind)
        attempt(_projection_cascade, n, m, kind)
    if not found:
        raise ConstructionInvalidError(f"no valid {kind.value} pattern covers {n}x{m}")
    return min(found, key=lambda res: (res.claimed_cardinality, res.provenance))
