"""Exact solvers for plain, total and paired domination on toroidal meshes.

Four engines, each certifying optimality a different way:

* an enumeration oracle for tiny grids (every candidate of each size in
  slot order, so minimality is exhaustive and certificates canonical);
* one cyclic row-sweep dynamic program for plain, total and paired
  sets, carrying per-row membership, outstanding-domination and
  unmatched-member masks (the last always empty unless paired), with
  wraparound closed by boundary seeds.  Its setup is built once per
  width and kind: numbered states, one move table (next states as a mask
  per member count, for the sweep and its bound alike), each level of
  the bound, the ring's images, the seeds and their closing masks.  A
  layer is a mask per cost, so one OR moves a group of states.  Three
  prunes leave its values and certificates unchanged: one seed per orbit
  of the width ring's rotations and reflections, costs bounded by the
  best set found so far, and a backward lower bound on the cost of the
  rows still to come.  Bounded at nm/4 total members, it also finds the
  efficient total dominating sets (`find_efficient_tds`);
* a branch-and-bound over disjoint adjacent pairs for paired sets on
  grids too wide for the DP, with iterative deepening from the
  parity-rounded degree bound so exhaustion below the answer is the
  optimality proof.  Each node walks candidate edges precomputed per
  vertex and tests the coverage bound before it recurses, and fails when
  its undominated vertices hold a packing of more vertices, pairwise at
  distance 4 or more, than pairs left; the root bans every image of a
  failed edge under the automorphisms fixing slot 0.  Neither prune
  moves its certificates;
* a sandwich shortcut when a validated pattern meets the degree bound,
  which certifies without any search.

The auto order is written once, in `_auto`: `solve`, `solve_paired` and
`solve_within_reach` (which keeps `table` and `audit` within their limits)
enter it, and `canonical` picks the certificate `solve --canonical` emits.

All engines are deterministic: ties break toward the first candidate
in sorted order, and repeated runs return identical certificates.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
import time
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .construct import best_upper_witness
from .errors import CertificateError, InstanceTooLargeError, InvalidInputError
from .formulas import lower_bound_paired, lower_bound_regular
from .torus import TorusDims, TorusGraph, VertexSet, make_torus, set_slots
from .validate import DominationKind, has_perfect_matching, is_efficient_total, satisfies

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
    elapsed: float


def _result(
    g: TorusGraph,
    value: int,
    certificate: VertexSet,
    kind: DominationKind,
    method: SolveMethod,
    t0: float,
) -> SolveResult:
    if len(certificate) != value or not satisfies(g, certificate, kind):
        raise CertificateError(f"{method.value} {kind.value} certificate of value {value} is invalid")
    return SolveResult(value, certificate, kind, method, time.perf_counter() - t0)


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
    t0 = time.perf_counter()
    _check_kind(kind)
    g = make_torus(n, m)
    order = g.dims.order
    if order > ORACLE_CAP:
        raise InstanceTooLargeError(f"oracle cap is {ORACLE_CAP} vertices, got {order}")

    total = kind is DominationKind.TOTAL
    paired = kind is DominationKind.PAIRED
    per_pick = 4 if total else 5
    cover = [
        mask if total else mask | (1 << s) for s, mask in enumerate(g.nbr_masks)
    ]
    full = g.full_mask

    def search(cursor: int, left: int, covered: int, chosen: list[int]) -> Optional[list[int]]:
        if left == 0:
            if covered != full:
                return None
            if paired and has_perfect_matching(g, VertexSet.from_slots(g.dims, chosen)) is None:
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
                nb = g.nbr_masks[s]
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
            return _result(g, k, cert, kind, SolveMethod.ORACLE, t0)
    raise InvalidInputError(f"no {kind.value} dominating set exists on {n}x{m}")


def _orient(n: int, m: int) -> tuple[int, int, bool]:
    """(length, width, transposed) with width = the smaller side."""
    if m <= n:
        return n, m, False
    return m, n, True


def _subsets(mask: int) -> list[int]:
    """Every submask of mask, in ascending order."""
    out = [0]
    sub = 0
    while sub != mask:
        sub = (sub - mask) & mask
        out.append(sub)
    return out


def _rows_to_set(rows: list[int], length: int, width: int, transposed: bool) -> VertexSet:
    """The set with member mask rows[i - 1] on row i, in the caller's orientation."""
    found = VertexSet(TorusDims(length, width), sum(c << i * width for i, c in enumerate(rows)))
    return found.transposed() if transposed else found


def _witness_upper(n: int, m: int, kind: DominationKind) -> VertexSet:
    catalog_kind = DominationKind.PAIRED if kind is DominationKind.PAIRED else DominationKind.TOTAL
    return best_upper_witness(n, m, catalog_kind).vertex_set


@functools.lru_cache(maxsize=None)
def _ring_images(width: int) -> tuple[tuple[int, ...], ...]:
    """images[2r + (s < 0)][c]: ring mask c under j -> r + s*j (mod width)."""
    return tuple(
        tuple(sum(1 << (r + s * j) % width for j in range(width) if c >> j & 1) for c in range(1 << width))
        for r in range(width)
        for s in (1, -1)
    )


@functools.lru_cache(maxsize=None)
def _cycle_leftovers(w: int) -> tuple[tuple[int, ...], ...]:
    """For each member mask of a width-w ring: leftover masks reachable by
    matching some members along in-row ring edges (wrap included)."""
    full = (1 << w) - 1

    @functools.lru_cache(maxsize=None)
    def rec(mask: int) -> frozenset[int]:
        if not mask:
            return frozenset((0,))
        j = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << j)
        out = set(l | (1 << j) for l in rec(rest))
        for k in ((j - 1) % w, (j + 1) % w):
            if k != j and rest >> k & 1:
                out |= rec(rest ^ (1 << k))
        return frozenset(out)

    return tuple(tuple(sorted(rec(mask))) for mask in range(full + 1))


@functools.lru_cache(maxsize=None)
def _row_tables(width: int, kind: DominationKind) -> tuple[tuple, ...]:
    """The row sweep's transition tables for one ring width and kind, from
    which `_row_moves` builds its move table and `_row_seeds` its seeds.

    need[c]: the vertices of a row with members c that no member of that
    row dominates; pop[c]: the members of c; supersets[u]: every row
    membership containing u, fewest members first; leftovers[c]: the
    unmatched masks a row's fresh members c may leave (always (0,) unless
    paired).
    """
    full = (1 << width) - 1
    total = kind is DominationKind.TOTAL
    ring = [(c << 1 | c >> 1 | c << width - 1 | c >> width - 1) & full for c in range(full + 1)]
    need = tuple((full if total else full & ~c) & ~ring[c] for c in range(full + 1))
    pop = tuple(c.bit_count() for c in range(full + 1))
    supersets = tuple(
        tuple(sorted((u | s for s in _subsets(full & ~u)), key=pop.__getitem__))
        for u in range(full + 1)
    )
    leftovers = _cycle_leftovers(width) if kind is DominationKind.PAIRED else ((0,),) * (full + 1)
    return need, pop, supersets, leftovers


@functools.lru_cache(maxsize=None)
def _row_moves(width: int, kind: DominationKind) -> tuple[tuple, tuple]:
    """The row sweep's states, numbered once, and its one move table.

    states: every (membership c, pending u, unmatched w) with u a submask
    of need[c] and w a submask of c (0 unless paired), in ascending tuple
    order, which holds every state a transition can reach.  moves[i]: the
    (members of the next row, mask of the numbers of the next states with
    that many members) pairs of state i, fewest members first.
    """
    need, pop, supersets, leftovers = _row_tables(width, kind)
    states = tuple(
        (c, u, w)
        for c in range(len(need))
        for u in _subsets(need[c])
        for w in (_subsets(c) if kind is DominationKind.PAIRED else (0,))
    )
    # state (c, u, w) is numbered first[(c, u)] plus the rank of w among the
    # submasks of c, so spots[c][x] marks the states of leftovers[x] by rank
    first: dict[tuple[int, int], int] = {}
    for i, (c, u, _) in enumerate(states):
        first.setdefault((c, u), i)
    ranks = [{w: r for r, w in enumerate(_subsets(c))} for c in range(len(need))]
    spots = [{x: sum(1 << rank[w] for w in leftovers[x]) for x in rank} for rank in ranks]
    moves = []
    for c, u, w in states:
        groups: dict[int, int] = {}
        for c2 in supersets[u | w]:
            bits = spots[c2][c2 & ~w] << first[(c2, need[c2] & ~c)]
            groups[pop[c2]] = groups.get(pop[c2], 0) | bits
        moves.append(tuple(groups.items()))
    return states, tuple(moves)


@functools.lru_cache(maxsize=None)
def _row_within(width: int, kind: DominationKind, k: int) -> tuple[tuple[int, ...], int]:
    """(within[k], floor): within[k][r] is the mask of the row-sweep state
    numbers (`_row_moves`) whose least cost of k more rows, with the
    wraparound closure ignored, is at most r, for r = 0..width*k since k
    full rows always extend, and floor is the least r with a state.  One
    backward min-plus step from within[k - 1] over the kernel's move table.
    """
    moves = _row_moves(width, kind)[1]
    if not k:
        return ((1 << len(moves)) - 1,), 0
    prev, floor = _row_within(width, kind, k - 1)
    levels = [0] * (width * k + 1)
    for i, row in enumerate(moves):
        least = width * k
        for step, mask in row:
            if step + floor >= least:
                break
            r = floor
            while step + r < least and not mask & prev[r]:
                r += 1
            least = min(least, step + r)
        levels[least] |= 1 << i
    within = tuple(itertools.accumulate(levels, int.__or__))
    return within, next(r for r, mask in enumerate(within) if mask)


def _row_bounds(width: int, kind: DominationKind, rows: int) -> list[list[int]]:
    """within[k] of `_row_within` for k = 0..rows, as lists."""
    return [list(_row_within(width, kind, k)[0]) for k in range(rows + 1)]


@functools.lru_cache(maxsize=None)
def _row_seeds(width: int, kind: DominationKind, cap: int) -> tuple[tuple[int, int, int, int], ...]:
    """The row sweep's seeds (c1, u1, x1, w1) with at most `cap` first-row
    members, in lexicographic order, each least in its orbit (`_row_sweep`)."""
    need, pop, _, leftovers = _row_tables(width, kind)
    images = _ring_images(width)
    return tuple(
        (c1, u1, x1, w1)
        for c1 in range(1 << width) if pop[c1] <= cap
        for u1 in _subsets(need[c1])
        for x1 in (_subsets(c1) if kind is DominationKind.PAIRED else (0,))
        for w1 in leftovers[c1 & ~x1]
        if all((im[c1], im[u1], im[x1], im[w1]) >= (c1, u1, x1, w1) for im in images)
    )


@functools.lru_cache(maxsize=None)
def _closing(width: int, kind: DominationKind, c1: int, r1: int, x1: int) -> int:
    """The mask of the row-sweep states that close with a seed's first row
    (members c1, needs r1 left to the last row, partners x1 claimed from
    it): their pending needs met by c1, r1 by their members, x1 unmatched."""
    states = _row_moves(width, kind)[0]
    return sum(1 << j for j, (c, u, w) in enumerate(states) if not u & ~c1 and not r1 & ~c and w == x1)


def _check_dp_width(n: int, m: int, kind: DominationKind) -> None:
    cap = PAIRED_WIDTH_CAP if kind is DominationKind.PAIRED else PROFILE_WIDTH_CAP
    if min(n, m) > cap:
        engine = "paired DP" if kind is DominationKind.PAIRED else "profile DP"
        raise InstanceTooLargeError(f"{engine} width cap is {cap}, got {min(n, m)}")


def _row_sweep(
    n: int, m: int, kind: DominationKind, bound: int, t0: float
) -> Optional[SolveResult]:
    """The least plain, total or paired set of at most `bound` members, via
    a cyclic row-sweep DP, or None when no set fits the bound.

    The state after each row is (membership mask, mask of that row's
    vertices still needing a dominator from the next row, mask of members
    still awaiting a partner from the same rung of the next row).  Fresh
    paired members may also pair along their own row's ring edges; plain
    and paired members need no outside dominator, and for plain and total
    sets the unmatched mask stays 0.  Wraparound is closed by boundary
    seeds: the first row's membership, a guess of which of its needs the
    second row meets (the last row must meet the rest), and for paired
    sets the first-row members the last row claims as partners.  Some
    rotation of any set within the bound has at most floor(bound / rows)
    members in its first row, so seeds are capped there.  The caller
    chooses the bound (a witness's size, or nm/4 for an efficient set) and
    checks the width cap (`_check_dp_width`).

    What depends only on the width and kind is built once per process: the
    states, numbered in ascending tuple order, with one move table
    (`_row_moves`), each level of the backward bound (`_row_within`), the
    seeds under each cap (`_row_seeds`) and each seed's closing mask
    (`_closing`).  A layer maps each cost, ascending, to the mask of the
    states whose least cost it is: one OR moves every next state a state
    reaches with the same number of members.  The last layer holds only
    states that close with the seed.  No back-pointers are kept: a state
    at cost d with p members follows the least state number at cost d - p
    in the layer before that reaches it.

    Three prunes leave every value and certificate as they would be
    without them.  Seeds run in lexicographic order, and the best set
    changes only on a strict improvement, so the certificate comes from
    the first seed s* that reaches the optimum.

    * Symmetry: a seed is run only if it is the least of its orbit under
      the ring's w rotations and w reflections, applied to all four seed
      masks at once.  Each such map, applied to every row, is a torus
      automorphism, so every image of s* reaches the optimum too, and s*
      is kept.
    * Incumbent: the bound starts at `bound` and becomes one less than
      each best set found.
    * Lower bound: a state with k rows after it is dropped when its cost
      plus its least cost of k more rows (`_row_bounds`, closure ignored)
      exceeds the bound, one AND per level.  Moves are tried with the
      fewest members first, so a move that the least such cost of the
      next layer already rules out ends the loop.

    Why the certificate cannot move: call a state's cost without these
    prunes d.  A state with d + lb <= bound is kept at cost d, and so is
    each predecessor at cost d - p, whose lb is at most p + lb of the
    state; so the least of them is the same.  Each state on a closing path
    of s* at the optimum has d + lb <= optimum <= bound, since every seed
    before s* found more than the optimum, and its last state closes, so
    it is kept; a seed's least closing cost, and its least state there,
    are found exactly when that cost is within the bound, so the bound
    moves as it would without the prunes.
    """
    length, width, transposed = _orient(n, m)
    need, pop = _row_tables(width, kind)[:2]
    states, moves = _row_moves(width, kind)
    bounds = [_row_within(width, kind, k) for k in range(length - 1)]
    best: Optional[tuple[int, list[int]]] = None
    for c1, u1, x1, w1 in _row_seeds(width, kind, bound // length):
        closing = _closing(width, kind, c1, need[c1] & ~u1, x1)
        layers = [{pop[c1]: 1 << bisect.bisect_left(states, (c1, u1, w1))}]
        for k in range(length - 2, -1, -1):  # k rows after the next one
            within, floor = bounds[k]
            room = bound - floor
            reached = [0] * (room + 1)
            for cost, mask in layers[-1].items():
                for i in set_slots(mask):
                    for members, nexts in moves[i]:
                        if cost + members > room:
                            break
                        reached[cost + members] |= nexts
            layer = {}
            seen = 0
            for cost, nexts in enumerate(reached):
                fresh = nexts & ~seen
                seen |= nexts
                fresh &= within[min(bound - cost, len(within) - 1)] if k else closing
                if fresh:
                    layer[cost] = fresh
            layers.append(layer)
        if layer:
            bound = at = min(layer)
            cur = set_slots(layer[at])[0]
            rows = [states[cur][0]]
            for layer in layers[-2::-1]:
                members = pop[rows[-1]]
                at -= members
                cur = next(i for i in set_slots(layer[at]) if dict(moves[i]).get(members, 0) >> cur & 1)
                rows.append(states[cur][0])
            best = (bound, rows[::-1])
            bound -= 1

    if best is None:
        return None
    value, rows = best
    cert = _rows_to_set(rows, length, width, transposed)
    return _result(make_torus(n, m), value, cert, kind, SolveMethod.PROFILE_DP, t0)


def _dp(
    n: int, m: int, kind: DominationKind, t0: float, witness: Optional[VertexSet] = None
) -> SolveResult:
    """The row sweep within the DP's width cap, bounded by the catalog
    witness (built here, after the cap is checked, unless given), which it
    must reach."""
    _check_dp_width(n, m, kind)
    ub = len(_witness_upper(n, m, kind) if witness is None else witness)
    found = _row_sweep(n, m, kind, ub, t0)
    if found is None:
        raise CertificateError(f"no {kind.value} set on {n}x{m} within the witness size {ub}")
    return found


def solve_profile_dp(
    n: int, m: int, kind: DominationKind, witness: Optional[VertexSet] = None
) -> SolveResult:
    """Exact plain or total minimum via the row-sweep DP (`_row_sweep`),
    bounded by the total catalog witness (built unless given)."""
    if kind not in (DominationKind.PLAIN, DominationKind.TOTAL):
        raise InvalidInputError(f"profile DP handles plain or total, got {kind.value}")
    return _dp(n, m, kind, time.perf_counter(), witness)


def solve_paired_dp(n: int, m: int) -> SolveResult:
    """Exact paired minimum via the row-sweep DP (`_row_sweep`)."""
    return _dp(n, m, DominationKind.PAIRED, time.perf_counter())


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
    closed = [g.nbr_masks[s] | (1 << s) for s in range(order)]
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


def _paired_search(n: int, m: int, incumbent: VertexSet, t0: float) -> SolveResult:
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
            return _result(g, k, cert, DominationKind.PAIRED, SolveMethod.PAIRED_SEARCH, t0)
    return _result(g, hi, incumbent, DominationKind.PAIRED, SolveMethod.PAIRED_SEARCH, t0)


def solve_paired(n: int, m: int) -> SolveResult:
    """Exact paired minimum in the auto order (`_auto`)."""
    return _auto(n, m, DominationKind.PAIRED, reach=False)


def find_efficient_tds(n: int, m: int) -> Optional[VertexSet]:
    """An efficient total dominating set, or None when none exists.

    A total dominating set of nm/4 members dominates every vertex exactly
    once, since each member dominates four; so this is the row sweep
    bounded at nm/4, within the DP's width cap.
    """
    t0 = time.perf_counter()
    TorusDims(n, m)  # sides and order are checked before any row is swept
    if (n * m) % 4:
        return None
    _check_dp_width(n, m, DominationKind.TOTAL)
    found = _row_sweep(n, m, DominationKind.TOTAL, n * m // 4, t0)
    if found is None:
        return None
    if not is_efficient_total(make_torus(n, m), found.certificate):
        raise CertificateError(f"row sweep on {n}x{m} built a set that is not efficient")
    return found.certificate


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
    order = g.dims.order

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
        for u in set_slots(g.nbr_masks[v] & ~banned):
            yield from rec(chosen | 1 << u, bans, covered | g.nbr_masks[u], size + 1)
            bans |= 1 << u

    for mask in rec(0, 0, 0, 0):
        yield VertexSet(g.dims, mask)


def _auto(
    n: int, m: int, kind: DominationKind, reach: bool, witness: Optional[VertexSet] = None
) -> SolveResult:
    """The one auto order.  Plain and total sets: the oracle up to
    ORACLE_AUTO_CAP vertices, then the sandwich certificate (total only),
    then the DP.  Paired sets: the sandwich, then the oracle, then the
    pair search.  The catalog witness (the total one for plain sets) is
    built at most once, unless the caller gives it, and bounds whichever
    engine runs.

    With `reach`, the DP runs only up to width REACH_DP_WIDTH and the pair
    search only up to REACH_PAIRED_ORDER vertices, the limits `table` and
    `audit` keep; both contain the oracle's range.  A step beyond its
    limit raises InstanceTooLargeError naming it, for plain sets before
    any witness is built.
    """
    _check_kind(kind)
    t0 = time.perf_counter()
    g = make_torus(n, m)
    order = g.dims.order
    paired = kind is DominationKind.PAIRED
    if paired:
        beyond = reach and order > REACH_PAIRED_ORDER
        limit = f"pair-search limit is {REACH_PAIRED_ORDER} vertices, got {order}"
    else:
        beyond = reach and min(n, m) > REACH_DP_WIDTH
        limit = f"DP width limit is {REACH_DP_WIDTH}, got {min(n, m)}"
    if not paired and order <= ORACLE_AUTO_CAP:
        return solve_oracle(n, m, kind)
    if kind is DominationKind.PLAIN:
        if beyond:
            raise InstanceTooLargeError(limit)
        return solve_profile_dp(n, m, kind, witness)
    if witness is None:
        witness = _witness_upper(n, m, kind)
    # the sandwich: a witness at the degree bound (even when paired) is optimal
    lo = lower_bound_paired(n, m) if paired else lower_bound_regular(n, m)
    if len(witness) == lo:
        return _result(g, lo, witness, kind, SolveMethod.SANDWICH, t0)
    if paired and order <= ORACLE_AUTO_CAP:
        return solve_oracle(n, m, kind)
    if beyond:
        raise InstanceTooLargeError(limit)
    if paired:
        return _paired_search(n, m, witness, t0)
    return _dp(n, m, kind, t0, witness)


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


def solve_within_reach(
    n: int, m: int, kind: DominationKind, witness: Optional[VertexSet] = None
) -> SolveResult:
    """`solve(n, m, kind)` within the limits that `table` and `audit` keep
    (`_auto` with its reach checked), bounded by `witness` when given: the
    catalog witness of (n, m), total for plain and total sets."""
    return _auto(n, m, kind, reach=True, witness=witness)


def canonical(res: SolveResult) -> SolveResult:
    """The result whose certificate `solve --canonical` emits: the
    oracle's, which is the lexicographically least optimum, up to
    ORACLE_CAP vertices (`res` itself when the oracle built it); beyond,
    the least member of the rotation orbit of `res`'s certificate."""
    dims = res.certificate.dims
    if res.method is SolveMethod.ORACLE:
        return res
    if dims.order <= ORACLE_CAP:
        return solve_oracle(dims.n, dims.m, res.kind)
    rotations = (res.certificate.rotated(di, dj) for di in range(dims.n) for dj in range(dims.m))
    least = min(rotations, key=lambda d: [s for s in range(dims.order) if d.mask >> s & 1])
    return replace(res, certificate=least)
