"""Checks that a vertex set dominates a toroidal mesh in a given sense.

Four variants are supported.  A plain dominating set leaves no outside
vertex without a neighbour inside.  A total dominating set gives every
vertex of the graph, members included, a neighbour inside.  A paired
dominating set is a dominating set whose induced subgraph has a perfect
matching.  An efficient total dominating set hits every closed demand
exactly once: each vertex of the graph has exactly one neighbour in the
set.

No check builds a mask per vertex.  Plain and total domination run in
time linear in the grid's order: they compare the set's neighbourhood,
the union of its four images (`TorusGraph.images`, whole-mask shifts),
with the full grid.  The paired check peels the forced pairs at mask
level (`_peel`): a member with one neighbour left in the set must be
matched to it, so each round takes all such leaves and their partners
from the images of the members left, in a few dozen whole-mask
operations, until no leaf is left or a member has no partner.  Only the
core that is left, every member of it with two or more neighbours in
it, goes to the blossom matcher.

The subgraph a set induces is built for the blossom matcher in one
place, `_induced_adj`, on member slots: `has_perfect_matching` (which
the paired check asks of a core) and the matching repair of
`construct.project_column` both use it, and only `has_perfect_matching`
turns the matched pairs into coordinates.  It walks the subgraph's
components: it stops at the first of odd order, matches an isolated edge
directly, and runs the matcher on each other component alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .errors import CertificateError, InvalidInputError
from .matching import maximum_matching
from .torus import TorusGraph, VertexId, VertexSet, set_slots


class DominationKind(enum.Enum):
    PLAIN = "plain"
    TOTAL = "total"
    PAIRED = "paired"
    EFFICIENT_TOTAL = "efficient-total"


@dataclass(frozen=True)
class MatchingWitness:
    """A perfect matching of an induced subgraph, as vertex pairs."""

    pairs: tuple[tuple[VertexId, VertexId], ...]

    def check(self, g: TorusGraph, d: VertexSet) -> bool:
        """True iff the pairs are disjoint grid edges inside d covering all of d."""
        seen: set[int] = set()
        for a, b in self.pairs:
            sa, sb = g.dims.slot(a), g.dims.slot(b)
            if sb not in g.around(sa):
                return False
            if sa in seen or sb in seen:
                return False
            seen.update((sa, sb))
        return seen == set(set_slots(d.mask))


@dataclass(frozen=True)
class ColumnProfile:
    """Per-row membership counts of a set on a width-3 grid.

    ``alpha[k]`` counts rows containing exactly ``k`` members.  The two
    inequality flags mirror counting arguments that hold for minimum
    total dominating sets on width-3 grids whose rows carry at most two
    members; they are reported, not enforced.
    """

    alpha: tuple[int, ...]
    applicable: bool
    identity_ok: bool
    surplus_ok: Optional[bool]
    demand_ok: Optional[bool]


def _check_pair(g: TorusGraph, d: VertexSet) -> None:
    if d.dims != g.dims:
        raise InvalidInputError("set belongs to a different grid")


def domination_multiplicity(g: TorusGraph, d: VertexSet) -> list[int]:
    """For each slot, how many of its neighbours lie in d.

    One pass over four rotations of the membership bytes: the grid a row
    up and a row down, and each row a column either way with its end
    column wrapped round.
    """
    _check_pair(g, d)
    m, order = g.dims.m, g.dims.order
    inside = bytearray(order)
    for s in set_slots(d.mask):
        inside[s] = 1
    rows = range(0, order, m)
    above = inside[-m:] + inside[:-m]
    below = inside[m:] + inside[:m]
    before = b"".join(inside[r + m - 1 : r + m] + inside[r : r + m - 1] for r in rows)
    after = b"".join(inside[r + 1 : r + m] + inside[r : r + 1] for r in rows)
    return [a + b + c + e for a, b, c, e in zip(above, below, before, after)]


def is_dominating(g: TorusGraph, d: VertexSet) -> bool:
    _check_pair(g, d)
    return d.mask | g.neighbourhood(d.mask) == g.full_mask


def is_total_dominating(g: TorusGraph, d: VertexSet) -> bool:
    _check_pair(g, d)
    return g.neighbourhood(d.mask) == g.full_mask


def _induced_adj(g: TorusGraph, d: VertexSet) -> tuple[list[int], list[list[int]]]:
    """The member slots of d in ascending order, and the adjacency lists
    of the subgraph they induce, indexed by position in that order."""
    slots = set_slots(d.mask)
    index = {s: k for k, s in enumerate(slots)}
    around = g.around
    adj = [[index[t] for t in around(s) if t in index] for s in slots]
    return slots, adj


def has_perfect_matching(g: TorusGraph, d: VertexSet) -> Optional[MatchingWitness]:
    """A perfect matching of the subgraph induced by d, or None.

    Decided one connected component at a time, in order of lowest member.
    A component of odd order ends the check, and an isolated edge is
    matched directly; any other runs the blossom matcher on its members
    in ascending order.  A search never leaves its root's component, so
    the pairs are those of one matcher run over the whole subgraph.
    """
    _check_pair(g, d)
    if len(d) % 2:
        return None
    slots, adj = _induced_adj(g, d)
    mate = [-1] * len(slots)
    seen = bytearray(len(slots))
    for root in range(len(slots)):
        if seen[root]:
            continue
        seen[root] = 1
        comp = [root]
        for v in comp:
            for t in adj[v]:
                if not seen[t]:
                    seen[t] = 1
                    comp.append(t)
        if len(comp) % 2:
            return None
        if len(comp) == 2:
            a, b = comp
            mate[a], mate[b] = b, a
            continue
        comp.sort()
        local = {v: k for k, v in enumerate(comp)}
        sub = maximum_matching([[local[t] for t in adj[v]] for v in comp])
        if -1 in sub:
            return None
        for v, k in zip(comp, sub):
            mate[v] = comp[k]
    vertex = g.dims.vertex
    pairs = tuple(
        (vertex(slots[k]), vertex(slots[mate[k]])) for k in range(len(slots)) if k < mate[k]
    )
    witness = MatchingWitness(pairs)
    if not witness.check(g, d):
        raise CertificateError("matcher output is not a perfect matching of the set")
    return witness


def _two_or_more(a: int, b: int, c: int, e: int) -> int:
    """The bits set in at least two of the four masks."""
    return a & b | c & e | (a | b) & (c | e)


def _peel(g: TorusGraph, mask: int) -> Optional[int]:
    """The core left once the forced pairs of the subgraph induced by the
    mask are matched, or None when the subgraph has no perfect matching.

    A member with one neighbour left among the members, a leaf, must be
    matched to it (the degree-one rule of Karp and Sipser).  Each round
    takes every leaf at once from the four images of the members,
    answers None if a member has no neighbour left or two leaves claim
    one partner, and removes the leaves and their partners.  The core
    left when no leaf is, every member with two or more neighbours in
    it, has a perfect matching iff the mask has.  The peeled pairs are
    kept as h, the left ends of row pairs, and v, the top ends of column
    pairs, and checked to cover the peeled members exactly once.
    """
    images = g.images
    rest = mask
    h = v = 0
    while True:
        up, down, west, east = (x & rest for x in images(rest))
        if rest & ~(up | down | west | east):
            return None
        leaves = (up ^ down ^ west ^ east) & ~_two_or_more(up, down, west, east)
        if not leaves:
            break
        # each member next to a leaf is that leaf's partner: `below` holds
        # the members a row below a leaf, `after` those a column right
        below, above, after, before = (x & rest for x in images(leaves))
        if _two_or_more(below, above, after, before):
            return None
        h |= leaves & east | before
        v |= leaves & down | above
        rest &= ~(leaves | below | above | after | before)
    right, lower = images(h)[2], images(v)[0]
    peeled = h | right | v | lower
    counts = h.bit_count() + right.bit_count() + v.bit_count() + lower.bit_count()
    if peeled != mask & ~rest or counts != peeled.bit_count():
        raise CertificateError("peeled pairs do not match the peeled members once each")
    return rest


def _perfectly_matchable(g: TorusGraph, d: VertexSet) -> bool:
    """True iff the subgraph induced by d has a perfect matching: the
    forced pairs are peeled at mask level and only the core left goes to
    `has_perfect_matching`."""
    core = _peel(g, d.mask)
    if core is None:
        return False
    return not core or has_perfect_matching(g, VertexSet(g.dims, core)) is not None


def is_paired_dominating(g: TorusGraph, d: VertexSet) -> bool:
    """Even size, then domination, then a perfect matching of the
    subgraph d induces (`_perfectly_matchable`)."""
    _check_pair(g, d)
    return len(d) % 2 == 0 and is_dominating(g, d) and _perfectly_matchable(g, d)


def is_efficient_total(g: TorusGraph, d: VertexSet) -> bool:
    """True iff every vertex has exactly one neighbour in d.

    When that holds, the members pair up perfectly (so the set has even
    size and is paired dominating) and the open neighbourhoods of the
    members partition the vertex set; both consequences are checked, and
    a failure raises CertificateError.
    """
    _check_pair(g, d)
    counts = domination_multiplicity(g, d)
    if any(c != 1 for c in counts):
        return False
    if len(d) % 2:
        raise CertificateError(f"efficient total set of odd size {len(d)}")
    if not _perfectly_matchable(g, d):
        raise CertificateError("efficient total set without a perfect matching")
    # the members' neighbourhoods, four distinct slots each, partition the
    # grid iff they cover it and their sizes add up to its order
    if g.neighbourhood(d.mask) != g.full_mask or 4 * len(d) != g.dims.order:
        raise CertificateError("efficient total set neighbourhoods do not partition the grid")
    return True


def column_profile(g: TorusGraph, d: VertexSet) -> ColumnProfile:
    """Row-load profile of a set on a width-3 grid."""
    _check_pair(g, d)
    n, m = g.dims.n, g.dims.m
    loads = [0] * (n + 1)
    for v in d:
        loads[v.i] += 1
    counts = [0] * (m + 1)
    for i in range(1, n + 1):
        counts[loads[i]] += 1
    alpha = tuple(counts)
    applicable = m == 3 and all(load <= 2 for load in loads[1:])
    identity_ok = sum(alpha) == n
    if not applicable:
        return ColumnProfile(alpha, False, identity_ok, None, None)
    surplus_ok = 2 * alpha[2] - alpha[0] >= 0
    demand_ok = 4 * alpha[1] + 7 * alpha[2] >= 3 * n
    return ColumnProfile(alpha, True, identity_ok, surplus_ok, demand_ok)


def satisfies(g: TorusGraph, d: VertexSet, kind: DominationKind) -> bool:
    if kind is DominationKind.PLAIN:
        return is_dominating(g, d)
    if kind is DominationKind.TOTAL:
        return is_total_dominating(g, d)
    if kind is DominationKind.PAIRED:
        return is_paired_dominating(g, d)
    if kind is DominationKind.EFFICIENT_TOTAL:
        return is_efficient_total(g, d)
    raise InvalidInputError(f"unknown domination kind: {kind!r}")
