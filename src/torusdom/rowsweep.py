"""The cyclic row-sweep dynamic program for plain, total and paired sets.

The sweep carries per-row membership, outstanding-domination and
unmatched-member masks (the last always empty unless paired), with
wraparound closed by boundary seeds.  Its setup is built once per width
and kind and kept for the process: numbered states, one move table (one
integer word per state, holding its next states as one mask per member
count, side by side, for the sweep and its bound alike), each level of
the bound, the ring's images, the seeds and their closing masks.  A
finished sweep is kept too, keyed by its oriented grid, kind and bound,
so n x m and m x n cost one sweep per process.  A layer is a mask per
cost: the words of its states are ORed in C, and one shift per member
count moves every next state at that count.  Four prunes leave
its values and certificates unchanged: one seed per orbit of the width
ring's rotations and reflections, costs bounded by the best set found
so far, a backward lower bound on the cost of the rows still to come,
and the members the seed forces into the last row added to the bound
one row shorter.  A seed ends at its first empty layer, and its closing
mask is built only when it reaches the last row.

This module is the kernel only: `_row_sweep` returns a value and a set,
and `solve` checks the set and decides when the sweep runs.  It imports
neither `solve` nor `construct`, so either may use the move table.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from typing import Optional

from .torus import TorusDims, VertexSet, set_slots
from .validate import DominationKind

# a mask's binary digits, least first, as bytes 0 and 1: selectors for
# itertools.compress that pick the move words of the states in the mask
_DIGITS = bytes.maketrans(b"01", b"\0\1")


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


def _rows_to_set(rows: tuple[int, ...], length: int, width: int, transposed: bool) -> VertexSet:
    """The set with member mask rows[i - 1] on row i, in the caller's orientation."""
    found = VertexSet(TorusDims(length, width), sum(c << i * width for i, c in enumerate(rows)))
    return found.transposed() if transposed else found


@functools.lru_cache(maxsize=None)
def _ring_images(width: int) -> tuple[tuple[int, ...], ...]:
    """images[2r + (s < 0)][c]: ring mask c under j -> r + s*j (mod width).
    A rotation by r shifts the mask; j -> r - j reverses its bits, then
    rotates by r + 1."""
    full = (1 << width) - 1
    flipped = [int(format(c, f"0{width}b")[::-1], 2) for c in range(full + 1)]
    return tuple(
        tuple((c << t | c >> width - t) & full for c in masks)
        for r in range(width)
        for masks, t in ((range(full + 1), r), (flipped, r + 1))
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
    membership containing u; leftovers[c]: the unmatched masks a row's
    fresh members c may leave (always (0,) unless paired).
    """
    full = (1 << width) - 1
    total = kind is DominationKind.TOTAL
    ring = [(c << 1 | c >> 1 | c << width - 1 | c >> width - 1) & full for c in range(full + 1)]
    need = tuple((full if total else full & ~c) & ~ring[c] for c in range(full + 1))
    pop = tuple(c.bit_count() for c in range(full + 1))
    supersets = tuple(tuple(u | s for s in _subsets(full & ~u)) for u in range(full + 1))
    leftovers = _cycle_leftovers(width) if kind is DominationKind.PAIRED else ((0,),) * (full + 1)
    return need, pop, supersets, leftovers


@functools.lru_cache(maxsize=None)
def _row_moves(width: int, kind: DominationKind) -> tuple[tuple, tuple]:
    """The row sweep's states, numbered once, and its one move table.

    states: every (membership c, pending u, unmatched w) with u a submask
    of need[c] and w a submask of c (0 unless paired), in ascending tuple
    order, which holds every state a transition can reach.  moves[i]: one
    word per state, the sum over p = 0..width of (mask of the numbers of
    the next states of state i whose row has p members) << p*S, S the
    number of states; bit p*S + j is set when state i moves to state j
    with p members.
    """
    need, pop, supersets, leftovers = _row_tables(width, kind)
    unmatched = [_subsets(c) if kind is DominationKind.PAIRED else (0,) for c in range(len(need))]
    states = tuple((c, u, w) for c in range(len(need)) for u in _subsets(need[c]) for w in unmatched[c])
    size = len(states)
    # state (c, u, w) is numbered first[c][u] plus the rank of w among
    # unmatched[c]; spots[c2][w] marks by rank the states of row c2 that
    # leftovers[c2 & ~w] reach.  Next states through different rows c2
    # differ, so a word is the plain sum of each row's shifted spots
    first: list[dict[int, int]] = [{} for _ in need]
    for i, (c, u, _) in enumerate(states):
        first[c].setdefault(u, i)
    ranks = [{w: r for r, w in enumerate(ws)} for ws in unmatched]
    spots = [
        {w: sum(1 << rank[x] for x in leftovers[c2 & ~w]) for w in rank} for c2, rank in enumerate(ranks)
    ]
    moves = []
    for c in range(len(need)):
        at = [starts[x & ~c] + p * size for starts, x, p in zip(first, need, pop)]
        shifted = {w: [spot.get(w, 0) << a for spot, a in zip(spots, at)] for w in unmatched[c]}
        moves.extend(
            sum(map(shifted[w].__getitem__, supersets[u | w])) for u in first[c] for w in unmatched[c]
        )
    return states, tuple(moves)


@functools.lru_cache(maxsize=None)
def _row_within(width: int, kind: DominationKind, k: int) -> tuple[tuple[int, ...], int]:
    """(within[k], floor): within[k][r] is the mask of the row-sweep state
    numbers (`_row_moves`) whose least cost of k more rows, with the
    wraparound closure ignored, is at most r, for r = 0..width*k since k
    full rows always extend, and floor is the least r with a state.

    One backward min-plus step from within[k - 1] over the kernel's move
    table: reach[t] has bit p*S + j set when p + (state j's least cost of
    k - 1 more rows) <= t, so a state's least cost is the first t whose
    reach meets its move word.  That cost is never below the state's least
    cost of k - 1 rows, so the search for each state starts there.
    """
    moves = _row_moves(width, kind)[1]
    size = len(moves)
    everything = (1 << size) - 1
    if not k:
        return (everything,), 0
    prev = _row_within(width, kind, k - 1)[0]
    fields = (1 << (width + 1) * size) - 1
    reach = [prev[0]]
    for t in range(1, width * k + 1):
        reach.append((reach[-1] << size & fields) | (prev[t] if t < len(prev) else everything))
    levels = [0] * (width * k + 1)
    seen = 0
    for r, mask in enumerate(prev):
        for i in set_slots(mask & ~seen):
            word, t = moves[i], r
            while not word & reach[t]:
                t += 1
            levels[t] |= 1 << i
        seen = mask
    within = tuple(itertools.accumulate(levels, int.__or__))
    return within, next(r for r, mask in enumerate(within) if mask)


@functools.lru_cache(maxsize=None)
def _row_seeds(width: int, kind: DominationKind, cap: int) -> tuple[tuple[int, int, int, int], ...]:
    """The row sweep's seeds (c1, u1, x1, w1) with at most `cap` first-row
    members, in lexicographic order, each least in its orbit (`_sweep`)."""
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
    it): their pending needs met by c1, r1 by their members, x1 unmatched.

    Built per membership c from the numbering (`_row_moves`), which is
    u-major and w-minor within c: (c, u, x1) comes rank(u) blocks after
    (c, 0, x1), a block being the 2^|c| states of one u when paired and 1
    otherwise, and a submask's rank among its mask's submasks is its bits
    read at that mask's positions.  So the mask of c starts at (c, 0, x1)
    and doubles once per bit of need[c] inside c1."""
    states = _row_moves(width, kind)[0]
    need, pop = _row_tables(width, kind)[:2]
    paired = kind is DominationKind.PAIRED
    mask = 0
    for c in range(len(need)):
        if (r1 | x1) & ~c:
            continue
        stride = 1 << pop[c] if paired else 1
        block = 1 << bisect.bisect_left(states, (c, 0, x1))
        for rank, j in enumerate(j for j in range(width) if need[c] >> j & 1):
            if c1 >> j & 1:
                block |= block << (stride << rank)
        mask |= block
    return mask


def _row_sweep(n: int, m: int, kind: DominationKind, bound: int) -> Optional[tuple[int, VertexSet]]:
    """(value, set) of the least plain, total or paired set of at most
    `bound` members on n x m, via a cyclic row-sweep DP (`_sweep`), or
    None when no set fits the bound.  The set is on the n x m grid; the
    sweep runs along the longer side, so n x m and m x n share one sweep
    and get the same set, transposed."""
    length, width, transposed = _orient(n, m)
    found = _sweep(length, width, kind, bound)
    if found is None:
        return None
    value, rows = found
    return value, _rows_to_set(rows, length, width, transposed)


@functools.lru_cache(maxsize=None)
def _sweep(length: int, width: int, kind: DominationKind, bound: int) -> Optional[tuple[int, tuple[int, ...]]]:
    """(value, member mask of each row) of the least set of at most
    `bound` members on the length x width grid (width <= length), or None.
    The sweep is a function of its four arguments alone, so a finished
    sweep is kept for the process.

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
    chooses the bound (a witness's size, or nm/4 for an efficient set),
    keeps the width within its cap and checks the set it gets back.

    What depends only on the width and kind is built once per process: the
    states, numbered in ascending tuple order, with one move table
    (`_row_moves`), each level of the backward bound (`_row_within`), the
    seeds under each cap (`_row_seeds`) and each seed's closing mask
    (`_closing`), built when the seed first reaches the last row.  A layer
    maps each cost, ascending, to the mask of the states whose least cost
    it is.  The move words of a cost's states are ORed into one word, and
    the field of p members, shifted down, is ORed into the next layer at
    that cost plus p.  The last layer holds only states that close with
    the seed, and a seed ends at its first empty layer.  No back-pointers
    are kept: a state at cost d with p members follows the least state
    number at cost d - p in the layer before that reaches it.

    Four prunes leave every value and certificate as they would be
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
      plus its least cost of k more rows (`_row_within`, closure ignored)
      exceeds the bound, one AND per level.  A cost's word is spread
      only over the member counts that keep it within the bound less the
      least such cost of the next layer.
    * Closing row: the seed's closing test makes the last row hold
      r1 | x1, the first row's needs the second row leaves (r1 = need[c1]
      & ~u1) and the partners it claims, so a state with k >= 1 rows
      after it is charged max(lb_k, lb_{k-1} + |r1 | x1|), one more AND
      per level; the room is sized by the floors of both levels alike.

    Why the certificate cannot move: call a state's cost without these
    prunes d.  A state with d + lb <= bound is kept at cost d, and so is
    each predecessor at cost d - p, whose lb is at most p + lb of the
    state; so the least of them is the same.  Each state on a closing path
    of s* at the optimum has d + lb <= optimum <= bound, since every seed
    before s* found more than the optimum, and its last state closes, so
    it is kept; a seed's least closing cost, and its least state there,
    are found exactly when that cost is within the bound, so the bound
    moves as it would without the prunes.

    The same holds with lb = max(lb_k, lb_{k-1} + |r1 | x1|).  It is
    admissible on closing paths: of the k rows left, the first k - 1 cost
    at least lb_{k-1} and the last at least |r1 | x1|.  It is consistent:
    a move with p members to a state with k - 1 rows left has lb_k <= p +
    lb_{k-1} of the next state and lb_{k-1} <= p + lb_{k-2} of it, and at
    k = 1 the next state is in the last layer, so it closes and holds
    r1 | x1, so |r1 | x1| <= p.  The larger of two consistent, admissible
    bounds is both, so each step above carries over.
    """
    need, pop = _row_tables(width, kind)[:2]
    states, moves = _row_moves(width, kind)
    size = len(states)
    everything = (1 << size) - 1
    bounds = [_row_within(width, kind, k) for k in range(length - 1)]
    best: Optional[tuple[int, list[int]]] = None
    for c1, u1, x1, w1 in _row_seeds(width, kind, bound // length):
        r1 = need[c1] & ~u1  # needs of the first row left to the last
        last = pop[r1 | x1]  # members the closing row must hold
        layers = [{pop[c1]: 1 << bisect.bisect_left(states, (c1, u1, w1))}]
        for k in range(length - 2, -1, -1):  # k rows after the next one
            if k:
                within, floor = bounds[k]
                shorter, low = bounds[k - 1]
                room = bound - max(floor, low + last)
            else:
                closing = _closing(width, kind, c1, r1, x1)
                room = bound
            reached = [0] * (room + 1)
            for cost, mask in layers[-1].items():
                picked = itertools.compress(moves, bin(mask)[:1:-1].encode().translate(_DIGITS))
                word = functools.reduce(operator.or_, picked)
                for members in range(min(width, room - cost) + 1):
                    reached[cost + members] |= word >> members * size & everything
            layer = {}
            seen = 0
            for cost, nexts in enumerate(reached):
                fresh = nexts & ~seen
                seen |= nexts
                if k:
                    fresh &= within[min(bound - cost, len(within) - 1)]
                    fresh &= shorter[min(bound - cost - last, len(shorter) - 1)]
                else:
                    fresh &= closing
                if fresh:
                    layer[cost] = fresh
            if not layer:
                break
            layers.append(layer)
        if layer:
            bound = at = min(layer)
            cur = set_slots(layer[at])[0]
            rows = [states[cur][0]]
            for layer in layers[-2::-1]:
                members = pop[rows[-1]]
                at -= members
                cur = next(i for i in set_slots(layer[at]) if moves[i] >> members * size + cur & 1)
                rows.append(states[cur][0])
            best = (bound, rows[::-1])
            bound -= 1

    if best is None:
        return None
    value, rows = best
    return value, tuple(rows)
