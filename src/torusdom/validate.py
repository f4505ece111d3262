"""Checks that a vertex set dominates a toroidal mesh in a given sense.

Four variants are supported.  A plain dominating set leaves no outside
vertex without a neighbour inside.  A total dominating set gives every
vertex of the graph, members included, a neighbour inside.  A paired
dominating set is a dominating set whose induced subgraph has a perfect
matching.  An efficient total dominating set hits every closed demand
exactly once: each vertex of the graph has exactly one neighbour in the
set.

No check builds a mask per vertex: each works on whole masks, the four
images of the set (`TorusGraph.images`, whole-mask shifts), in time
linear in the grid's order.  Plain and total domination compare their
union, the set's neighbourhood, with the full grid.  Every count of
neighbours comes from one bit-sliced counter, `_exactly`, which turns
four images into the slots with exactly 0, 1, 2, 3 and 4 of them: the
efficient check, the multiplicity histogram and per-slot counts read it,
and so does the paired check's peel.

The paired check (`_matching`) peels the forced pairs at mask level: a
member with one neighbour left in the set must be matched to it, so each
round takes all such leaves and their partners at once, until no leaf
is left or a member has no partner.  Only the core left, every member of
it with two or more neighbours in it, goes to the blossom matcher, whole
and once, on the subgraph `_induced_adj` builds on member slots (the
matching repair of `construct.project_column` uses it too).  The pairs
are kept as two masks, the left ends of row pairs and the top ends of
column pairs, and one mask check raises unless they cover the set once
each.
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


def _exactly(a: int, b: int, c: int, e: int) -> tuple[int, int, int, int, int]:
    """The bits set in exactly 0, 1, 2, 3 and 4 of the four masks.

    The sum of the four bits is ``ones + 2 twos + 4 fours``, each term
    one mask of bits.  The bits set in none come as a complement, a
    negative int: intersect it with a domain before counting its bits.
    """
    ones = a ^ b ^ c ^ e
    twos = (a & b) ^ (c & e) | (a ^ b) & (c ^ e)
    fours = a & b & c & e
    return ~(ones | twos | fours), ones & ~twos, twos & ~ones, ones & twos, fours


def domination_multiplicity(g: TorusGraph, d: VertexSet) -> list[int]:
    """For each slot, how many of its neighbours lie in d."""
    _check_pair(g, d)
    counts = [0] * g.dims.order
    for k, exact in enumerate(_exactly(*g.images(d.mask))[1:], 1):
        for s in set_slots(exact):
            counts[s] = k
    return counts


def multiplicity_histogram(g: TorusGraph, d: VertexSet) -> list[int]:
    """How many slots have exactly 0, 1, 2, 3 and 4 neighbours in d."""
    _check_pair(g, d)
    none, *more = _exactly(*g.images(d.mask))
    return [(none & g.full_mask).bit_count()] + [x.bit_count() for x in more]


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


def _matching(g: TorusGraph, mask: int) -> Optional[tuple[int, int]]:
    """A perfect matching of the subgraph the mask induces, as h, the left
    ends of its row pairs, and v, the top ends of its column pairs; or
    None when it has none.

    A member with one neighbour left among the members, a leaf, must be
    matched to it (the degree-one rule of Karp and Sipser).  Each round
    takes every leaf at once from the four images of the members,
    answers None if a member has no neighbour left or two leaves claim
    one partner, and removes the leaves and their partners.  The core
    left when no leaf is, every member with two or more neighbours in
    it, has a perfect matching iff the mask has; the blossom matcher
    decides it in one run.  The pairs, peeled and matched, must cover
    the mask once each, or CertificateError is raised.
    """
    images = g.images
    rest, h, v = mask, 0, 0
    while True:
        up, down, west, east = images(rest)
        none, leaves = _exactly(up, down, west, east)[:2]
        if rest & none:
            return None
        leaves &= rest
        if not leaves:
            break
        # each member next to a leaf is that leaf's partner: `below` holds
        # the members a row below a leaf, `after` those a column right
        below, above, after, before = (x & rest for x in images(leaves))
        if any(_exactly(below, above, after, before)[2:]):
            return None
        h |= leaves & east | before
        v |= leaves & down | above
        rest &= ~(leaves | below | above | after | before)
    if rest:
        slots, adj = _induced_adj(g, VertexSet(g.dims, rest))
        mate = maximum_matching(adj)
        if -1 in mate:
            return None
        m, order = g.dims.m, g.dims.order
        for a, k in zip(slots, mate):
            if slots[k] == (a + 1 if (a + 1) % m else a + 1 - m):
                h |= 1 << a
            elif slots[k] == (a + m) % order:
                v |= 1 << a
    right, lower = images(h)[2], images(v)[0]
    if not _exactly(h, right, v, lower)[1] == mask == h | right | v | lower:
        raise CertificateError("matched pairs do not cover the set once each")
    return h, v


def has_perfect_matching(g: TorusGraph, d: VertexSet) -> Optional[MatchingWitness]:
    """A perfect matching of the subgraph induced by d, or None: the pairs
    of `_matching`, each ordered by slot, in ascending order."""
    _check_pair(g, d)
    found = _matching(g, d.mask)
    if found is None:
        return None
    h, v = found
    m, order, vertex = g.dims.m, g.dims.order, g.dims.vertex
    pairs = [tuple(sorted((s, s + 1 if (s + 1) % m else s + 1 - m))) for s in set_slots(h)]
    pairs += [tuple(sorted((s, (s + m) % order))) for s in set_slots(v)]
    return MatchingWitness(tuple((vertex(a), vertex(b)) for a, b in sorted(pairs)))


def is_paired_dominating(g: TorusGraph, d: VertexSet) -> bool:
    """Even size, then domination, then a perfect matching of the
    subgraph d induces (`_matching`)."""
    _check_pair(g, d)
    return len(d) % 2 == 0 and is_dominating(g, d) and _matching(g, d.mask) is not None


def is_efficient_total(g: TorusGraph, d: VertexSet) -> bool:
    """True iff every vertex has exactly one neighbour in d.

    When that holds, the members pair up perfectly (so the set has even
    size and is paired dominating) and the open neighbourhoods of the
    members partition the vertex set; both consequences are checked, and
    a failure raises CertificateError.
    """
    _check_pair(g, d)
    if _exactly(*g.images(d.mask))[1] != g.full_mask:
        return False
    if len(d) % 2:
        raise CertificateError(f"efficient total set of odd size {len(d)}")
    if _matching(g, d.mask) is None:
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
    loads = [(d.mask >> r * m & (1 << m) - 1).bit_count() for r in range(n)]
    alpha = tuple(loads.count(k) for k in range(m + 1))
    applicable = m == 3 and max(loads) <= 2
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
