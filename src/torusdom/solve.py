"""Exact solvers for plain, total and paired domination on toroidal meshes.

Four engines, each certifying optimality a different way:

* an enumeration oracle for tiny grids (every candidate of each size in
  slot order, so minimality is exhaustive and certificates canonical);
* the cyclic row-sweep dynamic program of `rowsweep` for plain, total
  and paired sets, within a width cap (`_check_dp_width`) and bounded by
  the catalog's best upper bound (`formulas.upper_bounds`), so no
  witness is built for it; bounded at nm/4 total members, it also finds
  the efficient total dominating sets (`find_efficient_tds`);
* a branch-and-bound over disjoint adjacent pairs for paired sets on
  grids too wide for the DP, with iterative deepening from the
  parity-rounded degree bound so exhaustion below the answer is the
  optimality proof.  Each node walks candidate edges precomputed per
  vertex and tests the coverage bound before it recurses, and fails when
  its undominated vertices hold a packing of more vertices, pairwise at
  distance 4 or more, than pairs left; the root bans every image of a
  failed edge under the automorphisms fixing slot 0.  Neither prune
  moves its certificates;
* a sandwich shortcut when the catalog's bound meets the degree bound,
  which certifies with the validated pattern and no search.

A catalog witness is built only where its set may be the answer: as the
sandwich certificate and as the pair search's incumbent; the process
keeps it (`best_upper_witness`), so `audit` builds each one once.

Every certificate an engine builds, the row sweep's included, is checked
by `_result` before it is returned, and so is the rotated set that
`canonical` picks for `solve --canonical`.  The auto order is written
once, in `_auto`: `solve`, `solve_paired` and `solve_within_reach`
(which keeps `table` and `audit` within their limits) enter it.  No
engine reads a clock: `cli.cmd_solve` times each request itself.

All engines are deterministic: ties break toward the first candidate
in sorted order, and repeated runs return identical certificates.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .construct import best_upper_witness
from .errors import CertificateError, InstanceTooLargeError, InvalidInputError
from .formulas import lower_bound_paired, lower_bound_regular, upper_bounds
from .rowsweep import _row_sweep
from .torus import TorusDims, TorusGraph, VertexSet, make_torus, set_slots
from .validate import DominationKind, is_efficient_total, is_paired_dominating, satisfies

ORACLE_CAP = 24
ORACLE_AUTO_CAP = 20
PROFILE_WIDTH_CAP = 8
PAIRED_WIDTH_CAP = 6
# how far `solve_within_reach` lets the DP and the pair search run
REACH_DP_WIDTH = 5
REACH_PAIRED_ORDER = 36


class SolveMethod(enum.Enum):
    ORACLE = "oracle"
    PROFILE_DP = "profile-dp"
    PAIRED_SEARCH = "paired-search"
    SANDWICH = "sandwich"


@dataclass(frozen=True)
class SolveResult:
    value: int
    certificate: VertexSet
    kind: DominationKind
    method: SolveMethod


def _result(
    g: TorusGraph, value: int, certificate: VertexSet, kind: DominationKind, method: SolveMethod
) -> SolveResult:
    if len(certificate) != value or not satisfies(g, certificate, kind):
        raise CertificateError(f"{method.value} {kind.value} certificate of value {value} is invalid")
    return SolveResult(value, certificate, kind, method)


def _check_kind(kind: DominationKind) -> None:
    if kind not in (DominationKind.PLAIN, DominationKind.TOTAL, DominationKind.PAIRED):
        raise InvalidInputError(f"solvers accept plain, total or paired, got {kind!r}")


def solve_oracle(n: int, m: int, kind: DominationKind) -> SolveResult:
    """Exact minimum by subset enumeration, nondecreasing in cardinality.

    A rotation maps some member of any optimum onto slot 0, so only
    candidate sets containing slot 0 are enumerated; within one
    cardinality candidates appear in lexicographic slot order and the
    first valid one is returned, which makes the certificate the
    lexicographically least optimum overall.
    """
    _check_kind(kind)
    g = make_torus(n, m)
    order = g.dims.order
    if order > ORACLE_CAP:
        raise InstanceTooLargeError(f"oracle cap is {ORACLE_CAP} vertices, got {order}")

    total = kind is DominationKind.TOTAL
    paired = kind is DominationKind.PAIRED
    per_pick = 4 if total else 5
    nbrs = [g.neighbourhood(1 << s) for s in range(order)]
    cover = [mask if total else mask | (1 << s) for s, mask in enumerate(nbrs)]
    full = g.full_mask

    def search(cursor: int, left: int, covered: int, chosen: list[int]) -> Optional[list[int]]:
        if left == 0:
            if covered != full:
                return None
            if paired and not is_paired_dominating(g, VertexSet.from_slots(g.dims, chosen)):
                return None
            return list(chosen)
        uncovered = full & ~covered
        if uncovered.bit_count() > left * per_pick:
            return None
        future = full & ~((1 << cursor) - 1)
        if uncovered:
            low = (uncovered & -uncovered).bit_length() - 1
            if not cover[low] & future:
                return None
        if paired:
            chosen_mask = 0
            for s in chosen:
                chosen_mask |= 1 << s
            for s in chosen:
                nb = nbrs[s]
                if not nb & chosen_mask and not nb & future:
                    return None
        for s in range(cursor, order - left + 1):
            hit = search(s + 1, left - 1, covered | cover[s], chosen + [s])
            if hit is not None:
                return hit
        return None

    start = 2 if paired else 1
    step = 2 if paired else 1
    for k in range(start, order + 1, step):
        found = search(1, k - 1, cover[0], [0])
        if found is not None:
            cert = VertexSet.from_slots(g.dims, found)
            return _result(g, k, cert, kind, SolveMethod.ORACLE)
    raise InvalidInputError(f"no {kind.value} dominating set exists on {n}x{m}")


def _check_dp_width(n: int, m: int, kind: DominationKind) -> None:
    cap = PAIRED_WIDTH_CAP if kind is DominationKind.PAIRED else PROFILE_WIDTH_CAP
    if min(n, m) > cap:
        engine = "paired DP" if kind is DominationKind.PAIRED else "profile DP"
        raise InstanceTooLargeError(f"{engine} width cap is {cap}, got {min(n, m)}")


def _dp(n: int, m: int, kind: DominationKind) -> SolveResult:
    """The row sweep within the DP's width cap and the order cap, bounded
    by the catalog's best upper bound, which it must reach."""
    _check_dp_width(n, m, kind)
    TorusDims(n, m)  # the order cap, before any row is swept
    ub = upper_bounds(n, m, kind).best_upper()
    found = _row_sweep(n, m, kind, ub)
    if found is None:
        raise CertificateError(f"no {kind.value} set on {n}x{m} within the catalog bound {ub}")
    return _result(make_torus(n, m), *found, kind, SolveMethod.PROFILE_DP)


def solve_profile_dp(n: int, m: int, kind: DominationKind) -> SolveResult:
    """Exact plain or total minimum via the row-sweep DP
    (`rowsweep._row_sweep`), bounded by the total catalog's number."""
    if kind not in (DominationKind.PLAIN, DominationKind.TOTAL):
        raise InvalidInputError(f"profile DP handles plain or total, got {kind.value}")
    return _dp(n, m, kind)


def solve_paired_dp(n: int, m: int) -> SolveResult:
    """Exact paired minimum via the row-sweep DP (`rowsweep._row_sweep`)."""
    return _dp(n, m, DominationKind.PAIRED)


def _root_maps(n: int, m: int) -> list[list[int]]:
    """Slot permutations of the torus automorphisms that fix slot 0: the
    identity and the reflections i -> -i, j -> -j and their product, and
    when n = m their transposes as well (4 or 8 maps)."""
    coords = [(s // m, s % m) for s in range(n * m)]
    maps = [[a * i % n * m + b * j % m for i, j in coords] for a in (1, -1) for b in (1, -1)]
    if n == m:
        maps += [[p[j * m + i] for i, j in coords] for p in maps]
    return maps


def _pair_tables(n: int, m: int) -> tuple[list[list[tuple[int, int, int, int]]], list[int]]:
    """The pair search's tables, built once per instance.

    near[v]: every edge touching N[v], in edge order, each as (its bit, its
    endpoints, the vertices it dominates, the bits of its images under the
    root maps).  reach[v]: every vertex that some edge in near[v] dominates,
    which is the ball of radius 3 about v.
    """
    g = make_torus(n, m)
    order = g.dims.order
    edges = g.edges()
    index = {edge: e for e, edge in enumerate(edges)}
    maps = _root_maps(n, m)
    closed = [g.neighbourhood(1 << s) | (1 << s) for s in range(order)]
    entries = []
    by_vertex: list[list[int]] = [[] for _ in range(order)]
    for e, (a, b) in enumerate(edges):
        images = sum({1 << index[tuple(sorted((p[a], p[b])))] for p in maps})
        entries.append((1 << e, (1 << a) | (1 << b), closed[a] | closed[b], images))
        by_vertex[a].append(e)
        by_vertex[b].append(e)
    near = [
        [entries[e] for e in sorted({e for s in (v, *g.around(v)) for e in by_vertex[s]})]
        for v in range(order)
    ]
    reach = [functools.reduce(int.__or__, (entry[2] for entry in row)) for row in near]
    return near, reach


def _packing_exceeds(uncovered: int, reach: list[int], left: int) -> bool:
    """True when more than `left` vertices of `uncovered` lie pairwise
    outside each other's reach, picked greedily from the lowest slot up;
    then no `left` pairs dominate `uncovered` (`_paired_search`)."""
    while uncovered:
        if not left:
            return True
        left -= 1
        uncovered &= ~reach[(uncovered & -uncovered).bit_length() - 1]
    return False


def _paired_search(n: int, m: int, incumbent: VertexSet) -> SolveResult:
    """Branch-and-bound over disjoint adjacent pairs, deepening from the
    parity-rounded degree bound; exhausting a level proves absence.

    Each node branches, in edge order, on the unused edges that touch the
    closed neighbourhood of the lowest vertex not yet dominated (near[v],
    `_pair_tables`), and bans each edge whose branch fails for its later
    siblings.  A child whose undominated vertices exceed 8 per pair left
    fails without a call and is banned the same way.  Every smaller level
    failed, so no fewer pairs dominate, and a level's solutions are exactly
    the sets of k disjoint edges that dominate the torus.

    A node fails on entry when its undominated vertices hold a packing of
    more picks than pairs left (`_packing_exceeds`): take the lowest
    undominated v, strike reach[v], and repeat.  This cuts no solution.  A
    pair that dominates v touches N[v], so it is in near[v] and dominates
    only vertices in reach[v].  Each pick lies outside the reach of every
    earlier pick, so no one pair dominates two picks, and the picks need
    distinct pairs.  Picks lie at distance 4 or more from each other, and
    a pair dominates only vertices within distance 3 of each other.

    At the root nothing is chosen and v is slot 0.  When the branch on an
    edge e fails there, every image of e under the automorphisms fixing
    slot 0 (`_root_maps`) is banned too.  Neither the packing cut nor the
    root bans can move the certificate: a failed root branch proves that
    no solution contains e, since the edges already banned lie in no
    solution (by induction); so no solution contains an image of e either;
    and cutting subtrees that hold no solution leaves the depth-first
    search meeting the same first solution.
    """
    g = make_torus(n, m)
    near, reach = _pair_tables(n, m)

    def rec(uncovered: int, used: int, left: int, banned: int, root: bool) -> Optional[int]:
        """The first set of `left` more pairs, avoiding `used` and the
        `banned` edge bits, that dominates `uncovered`, joined to `used`."""
        if not uncovered:
            return used if left == 0 else None
        if _packing_exceeds(uncovered, reach, left):
            return None
        left -= 1
        room = 8 * left
        for bit, pair, cover, images in near[(uncovered & -uncovered).bit_length() - 1]:
            if banned & bit or pair & used:
                continue
            rest = uncovered & ~cover
            if rest.bit_count() <= room:
                hit = rec(rest, used | pair, left, banned, False)
                if hit is not None:
                    return hit
            banned |= images if root else bit
        return None

    hi = len(incumbent)
    if hi % 2:
        raise CertificateError(f"paired incumbent on {n}x{m} has odd size {hi}")
    for k in range(lower_bound_paired(n, m), hi, 2):
        found = rec(g.full_mask, 0, k // 2, 0, True)
        if found is not None:
            cert = VertexSet(g.dims, found)
            return _result(g, k, cert, DominationKind.PAIRED, SolveMethod.PAIRED_SEARCH)
    return _result(g, hi, incumbent, DominationKind.PAIRED, SolveMethod.PAIRED_SEARCH)


def solve_paired(n: int, m: int) -> SolveResult:
    """Exact paired minimum in the auto order (`_auto`)."""
    return _auto(n, m, DominationKind.PAIRED, reach=False)


def find_efficient_tds(n: int, m: int) -> Optional[VertexSet]:
    """An efficient total dominating set, or None when none exists.

    A total dominating set of nm/4 members dominates every vertex exactly
    once, since each member dominates four; so this is the row sweep
    bounded at nm/4, within the DP's width cap.
    """
    TorusDims(n, m)  # sides and order are checked before any row is swept
    if (n * m) % 4:
        return None
    _check_dp_width(n, m, DominationKind.TOTAL)
    found = _row_sweep(n, m, DominationKind.TOTAL, n * m // 4)
    if found is None:
        return None
    g = make_torus(n, m)
    cert = _result(g, *found, DominationKind.TOTAL, SolveMethod.PROFILE_DP).certificate
    if not is_efficient_total(g, cert):
        raise CertificateError(f"row sweep on {n}x{m} built a set that is not efficient")
    return cert


def enumerate_total_dominating_sets(n: int, m: int, max_size: int) -> Iterator[VertexSet]:
    """Every total dominating set of size at most max_size, each exactly once.

    Walks a canonical decision tree: repeatedly take the lowest slot
    not yet dominated and branch on its lowest admissible dominator,
    banning skipped alternatives so each set is reached by one path;
    completed cores are then padded with every admissible subset of
    free vertices.
    """
    g = make_torus(n, m)
    full = g.full_mask
    nbrs = [g.neighbourhood(1 << s) for s in range(g.dims.order)]

    def rec(chosen: int, banned: int, covered: int, size: int) -> Iterator[int]:
        uncovered = full & ~covered
        if not uncovered:
            free = set_slots(full & ~chosen & ~banned)
            for extra in range(max_size - size + 1):
                for combo in itertools.combinations(free, extra):
                    mask = chosen
                    for s in combo:
                        mask |= 1 << s
                    yield mask
            return
        if uncovered.bit_count() > (max_size - size) * 4:
            return
        v = (uncovered & -uncovered).bit_length() - 1
        bans = banned
        for u in set_slots(nbrs[v] & ~banned):
            yield from rec(chosen | 1 << u, bans, covered | nbrs[u], size + 1)
            bans |= 1 << u

    for mask in rec(0, 0, 0, 0):
        yield VertexSet(g.dims, mask)


def _auto(n: int, m: int, kind: DominationKind, reach: bool) -> SolveResult:
    """The one auto order, for every kind: the oracle for plain and total
    sets up to ORACLE_AUTO_CAP vertices; the sandwich for total and paired
    sets, when the catalog's bound meets the degree bound; the oracle for
    paired sets up to ORACLE_AUTO_CAP vertices; then the pair search for
    paired sets, with the catalog witness as its incumbent, or the DP,
    bounded by the catalog's number.

    With `reach`, the DP runs only up to width REACH_DP_WIDTH and the pair
    search only up to REACH_PAIRED_ORDER vertices, the limits `table` and
    `audit` keep; both contain the oracle's range.  A step beyond its
    limit raises InstanceTooLargeError naming it, before any witness is
    built for it.
    """
    _check_kind(kind)
    order = TorusDims(n, m).order  # the order cap, before any torus is built
    paired = kind is DominationKind.PAIRED
    if not paired and order <= ORACLE_AUTO_CAP:
        return solve_oracle(n, m, kind)
    # the sandwich: a catalog set at the degree bound (even when paired) is optimal
    lo = lower_bound_paired(n, m) if paired else lower_bound_regular(n, m)
    if kind is not DominationKind.PLAIN and upper_bounds(n, m, kind).best_upper() == lo:
        witness = best_upper_witness(n, m, kind).vertex_set
        return _result(make_torus(n, m), lo, witness, kind, SolveMethod.SANDWICH)
    if paired and order <= ORACLE_AUTO_CAP:
        return solve_oracle(n, m, kind)
    if paired:
        if reach and order > REACH_PAIRED_ORDER:
            raise InstanceTooLargeError(
                f"pair-search limit is {REACH_PAIRED_ORDER} vertices, got {order}"
            )
        return _paired_search(n, m, best_upper_witness(n, m, kind).vertex_set)
    if reach and min(n, m) > REACH_DP_WIDTH:
        raise InstanceTooLargeError(f"DP width limit is {REACH_DP_WIDTH}, got {min(n, m)}")
    return _dp(n, m, kind)


def solve(
    n: int, m: int, kind: DominationKind, method: str = "auto"
) -> SolveResult:
    """Front door: pick the cheapest certifying engine for the instance.

    method "oracle" and "dp" force those engines; "auto" walks the auto
    order (`_auto`).
    """
    _check_kind(kind)
    if method == "oracle":
        return solve_oracle(n, m, kind)
    if method == "dp":
        paired = kind is DominationKind.PAIRED
        return solve_paired_dp(n, m) if paired else solve_profile_dp(n, m, kind)
    if method != "auto":
        raise InvalidInputError(f"unknown method {method!r}")
    return _auto(n, m, kind, reach=False)


def solve_within_reach(n: int, m: int, kind: DominationKind) -> SolveResult:
    """`solve(n, m, kind)` within the limits that `table` and `audit` keep
    (`_auto` with its reach checked)."""
    return _auto(n, m, kind, reach=True)


def canonical(res: SolveResult) -> SolveResult:
    """The result whose certificate `solve --canonical` emits: the
    oracle's, which is the lexicographically least optimum, up to
    ORACLE_CAP vertices (`res` itself when the oracle built it); beyond,
    the least member of the rotation orbit of `res`'s certificate,
    checked by `_result` like every engine's set."""
    dims = res.certificate.dims
    if res.method is SolveMethod.ORACLE:
        return res
    if dims.order <= ORACLE_CAP:
        return solve_oracle(dims.n, dims.m, res.kind)
    # every least slot list starts at slot 0, so only the rotations that
    # take a member there compete
    rotations = (res.certificate.rotated(1 - v.i, 1 - v.j) for v in res.certificate)
    least = min(rotations, key=lambda d: set_slots(d.mask))
    return _result(make_torus(dims.n, dims.m), res.value, least, res.kind, res.method)
