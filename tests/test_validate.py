import hashlib
import importlib
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from torusdom.certificates import Certificate
from torusdom.construct import best_upper_witness, construct_bound_pattern
from torusdom.errors import CertificateError, InvalidInputError
from torusdom.matching import maximum_matching
from torusdom.torus import TorusDims, TorusGraph, VertexId, VertexSet, make_torus, set_slots
from torusdom.validate import (
    DominationKind,
    MatchingWitness,
    column_profile,
    domination_multiplicity,
    has_perfect_matching,
    is_dominating,
    is_efficient_total,
    is_paired_dominating,
    is_total_dominating,
    satisfies,
    _induced_adj,
)

# every grid the kernel reference tests compare on
SMALL_GRIDS = [(n, m) for n in range(3, 10) for m in range(3, 10)]


def _vs(g, pairs):
    return VertexSet.from_vertices(g.dims, pairs)


def test_single_row_dominates_three_row_torus():
    g = make_torus(3, 3)
    d = _vs(g, [(1, 1), (1, 2), (1, 3)])
    assert is_dominating(g, d)
    assert is_total_dominating(g, d)
    assert not is_paired_dominating(g, d)  # odd size


def test_single_vertex_dominates_only_its_ball():
    g = make_torus(3, 3)
    d = _vs(g, [(2, 2)])
    assert not is_dominating(g, d)
    assert not is_total_dominating(g, d)


def test_dominating_but_not_total():
    # Slope-two diagonal on the 5x5 grid: a perfect code, so it
    # dominates, but every member has an empty open neighbourhood
    # inside the set.
    g = make_torus(5, 5)
    d = _vs(g, [(i, (2 * i - 1) % 5 + 1) for i in range(1, 6)])
    assert is_dominating(g, d)
    assert not is_total_dominating(g, d)


def test_empty_set_dominates_nothing():
    g = make_torus(3, 3)
    d = VertexSet(g.dims)
    assert not is_dominating(g, d)
    assert not is_total_dominating(g, d)
    assert not is_paired_dominating(g, d)
    assert not is_efficient_total(g, d)


def test_full_vertex_set_is_paired_on_even_order():
    g = make_torus(4, 4)
    d = VertexSet.from_slots(g.dims, range(16))
    assert is_paired_dominating(g, d)


def test_multiplicity_counts_and_handshake():
    g = make_torus(3, 3)
    d = _vs(g, [(1, 1), (1, 2), (1, 3)])
    counts = domination_multiplicity(g, d)
    assert counts[g.dims.slot(VertexId(1, 1))] == 2
    assert counts[g.dims.slot(VertexId(2, 2))] == 1
    assert counts[g.dims.slot(VertexId(2, 1))] == 1
    assert sum(counts) == 4 * len(d)


def test_foreign_set_is_rejected():
    g = make_torus(3, 3)
    d = VertexSet.from_vertices(TorusDims(3, 4), [(1, 1)])
    with pytest.raises(InvalidInputError):
        is_dominating(g, d)
    with pytest.raises(InvalidInputError):
        domination_multiplicity(g, d)


def _probe_sets(g, seed):
    """The empty and full sets, every single vertex, and 20 seeded random
    sets of densities 1/2, 1/4 and 1/8."""
    rng = random.Random(seed)
    order = g.dims.order
    masks = [0, g.full_mask] + [1 << s for s in range(order)]
    for k in range(20):
        mask = rng.getrandbits(order)
        for _ in range(k % 3):
            mask &= rng.getrandbits(order)
        masks.append(mask)
    return [VertexSet(g.dims, mask) for mask in masks]


def test_validators_match_the_per_member_loops():
    verdicts = set()
    for n, m in SMALL_GRIDS:
        g = make_torus(n, m)
        per_slot = [sum(1 << t for t in g.around(s)) for s in range(g.dims.order)]
        for d in _probe_sets(g, f"{n}x{m}"):
            covered = 0
            for s in range(g.dims.order):
                if d.mask >> s & 1:
                    covered |= per_slot[s]
            total = covered == g.full_mask
            plain = covered | d.mask == g.full_mask
            assert is_total_dominating(g, d) == total, (n, m, d.pairs())
            assert is_dominating(g, d) == plain, (n, m, d.pairs())
            assert domination_multiplicity(g, d) == [
                (mask & d.mask).bit_count() for mask in per_slot
            ], (n, m, d.pairs())
            verdicts.add((plain, total))
    assert verdicts == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("n,m", [(3, 3), (3, 8), (9, 3), (4, 7), (5, 12), (13, 6), (61, 61)])
def test_multiplicity_counts_the_members_around_each_slot(n, m):
    g = make_torus(n, m)
    for d in _probe_sets(g, f"{n}x{m} around")[-20:] + [VertexSet(g.dims, g.full_mask)]:
        inside = [d.mask >> s & 1 for s in range(g.dims.order)]
        assert domination_multiplicity(g, d) == [
            sum(inside[t] for t in g.around(s)) for s in range(g.dims.order)
        ], (n, m, d.pairs())


def test_induced_adjacency_keeps_the_edge_append_order():
    for n, m in SMALL_GRIDS:
        g = make_torus(n, m)
        for d in _probe_sets(g, f"{n}x{m}"):
            members = [s for s in range(g.dims.order) if d.mask >> s & 1]
            index = {s: k for k, s in enumerate(members)}
            adj = [[] for _ in members]
            for s in range(g.dims.order):
                for t in g.around(s):
                    if s < t and d.mask >> s & 1 and d.mask >> t & 1:
                        adj[index[s]].append(index[t])
                        adj[index[t]].append(index[s])
            assert _induced_adj(g, d) == (members, adj), (n, m, d.pairs())


def test_induced_adj_small_case():
    # (1,1)-(1,2) and (1,1)-(2,1) are the only edges; (3,3) is isolated
    g = make_torus(3, 4)
    d = VertexSet.from_vertices(g.dims, [(1, 1), (1, 2), (2, 1), (3, 3)])
    assert _induced_adj(g, d) == ([0, 1, 4, 10], [[1, 2], [0], [0], []])


def test_large_grid_validation_stays_linear_in_memory():
    # construct's 201x201 total set is this pattern's; a table of one mask
    # per vertex would take about 116 MB here
    d = construct_bound_pattern(201, 201, DominationKind.TOTAL).vertex_set
    tracemalloc.start()
    try:
        assert is_total_dominating(TorusGraph(TorusDims(201, 201)), d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_witness_and_certificate_check_build_no_per_vertex_masks():
    res = best_upper_witness(101, 101, DominationKind.TOTAL)
    Certificate.from_vertex_set(res.vertex_set, DominationKind.TOTAL, res.provenance).check()
    g = make_torus(101, 101)
    assert not [v for v in vars(g).values() if isinstance(v, (list, tuple)) and len(v) == g.dims.order]


def test_perfect_matching_witness_on_an_edge():
    g = make_torus(4, 4)
    w = has_perfect_matching(g, _vs(g, [(1, 1), (1, 2)]))
    assert w is not None
    assert w.pairs == ((VertexId(1, 1), VertexId(1, 2)),)


def test_perfect_matching_absent_cases():
    g = make_torus(4, 4)
    assert has_perfect_matching(g, _vs(g, [(1, 1), (2, 2)])) is None
    assert has_perfect_matching(g, _vs(g, [(1, 1), (1, 2), (1, 3)])) is None
    # Three mutually close vertices plus one isolated one.
    assert has_perfect_matching(g, _vs(g, [(1, 1), (1, 2), (2, 1), (3, 3)])) is None


def test_perfect_matching_of_empty_set():
    g = make_torus(3, 3)
    w = has_perfect_matching(g, VertexSet(g.dims))
    assert w is not None and w.pairs == ()


def test_matching_witness_check_rejects_bad_witnesses():
    g = make_torus(4, 4)
    d = _vs(g, [(1, 1), (1, 2), (2, 1), (2, 2)])
    good = MatchingWitness(((VertexId(1, 1), VertexId(1, 2)),
                            (VertexId(2, 1), VertexId(2, 2))))
    assert good.check(g, d)
    non_edge = MatchingWitness(((VertexId(1, 1), VertexId(2, 2)),
                                (VertexId(1, 2), VertexId(2, 1))))
    assert not non_edge.check(g, d)
    overlap = MatchingWitness(((VertexId(1, 1), VertexId(1, 2)),
                               (VertexId(1, 2), VertexId(2, 2))))
    assert not overlap.check(g, d)
    partial = MatchingWitness(((VertexId(1, 1), VertexId(1, 2)),))
    assert not partial.check(g, d)


def test_failed_matching_witness_raises(monkeypatch):
    # the check must raise, not assert, so that it also runs under python -O
    monkeypatch.setattr(MatchingWitness, "check", lambda self, g, d: False)
    g = make_torus(4, 4)
    with pytest.raises(CertificateError):
        has_perfect_matching(g, _vs(g, [(1, 1), (1, 2)]))


def _whole_subgraph_pairs(g, d):
    """The pairs of one matcher run over the whole induced subgraph, or None."""
    slots, adj = _induced_adj(g, d)
    mate = maximum_matching(adj)
    if -1 in mate:
        return None
    return tuple(
        (g.dims.vertex(slots[k]), g.dims.vertex(slots[mate[k]]))
        for k in range(len(slots)) if k < mate[k]
    )


def test_component_matching_pairs_equal_one_whole_subgraph_run():
    path = Path(__file__).parent / "data" / "witnesses.json"
    rng = random.Random("component matching")
    outcomes = set()
    for n, m, kind, _, size, digest in json.loads(path.read_text()):
        if size % 2:
            continue
        d = best_upper_witness(n, m, DominationKind(kind)).vertex_set
        assert hashlib.sha256(format(d.mask, "x").encode()).hexdigest() == digest, (n, m, kind)
        g = make_torus(n, m)
        members = set_slots(d.mask)
        probes = [d] + [
            VertexSet(g.dims, d.mask & ~sum(1 << s for s in rng.sample(members, 2)))
            for _ in range(3)
        ]
        for probe in probes:
            w = has_perfect_matching(g, probe)
            expected = _whole_subgraph_pairs(g, probe)
            assert (None if w is None else w.pairs) == expected, (n, m, kind, probe.pairs())
            outcomes.add(w is None)
    assert outcomes == {True, False}


def _counting_matcher(monkeypatch):
    module = importlib.import_module("torusdom.validate")
    calls = []

    def counting(adj):
        calls.append(len(adj))
        return maximum_matching(adj)

    monkeypatch.setattr(module, "maximum_matching", counting)
    return calls


def test_odd_component_ends_the_check_before_any_matcher_call(monkeypatch):
    calls = _counting_matcher(monkeypatch)
    g = make_torus(8, 8)
    # a path of three, then a four-cycle that would need the matcher, then
    # an isolated vertex: even in all, but the lowest component is odd
    d = _vs(g, [(1, 1), (1, 2), (1, 3), (3, 1), (3, 2), (4, 1), (4, 2), (6, 6)])
    assert has_perfect_matching(g, d) is None
    assert calls == []


def test_isolated_edges_match_without_the_matcher(monkeypatch):
    calls = _counting_matcher(monkeypatch)
    g = make_torus(8, 8)
    d = _vs(g, [(1, 1), (1, 2), (3, 4), (4, 4), (6, 8), (6, 1)])
    w = has_perfect_matching(g, d)
    assert w is not None and w.check(g, d)
    assert w.pairs == _whole_subgraph_pairs(g, d)
    assert calls == []


def test_even_component_without_perfect_matching(monkeypatch):
    calls = _counting_matcher(monkeypatch)
    g = make_torus(6, 6)
    # K_{1,3}: a centre with three of its neighbours
    d = _vs(g, [(1, 2), (2, 1), (2, 2), (2, 3)])
    assert has_perfect_matching(g, d) is None
    assert calls == [4]


def test_efficient_total_on_the_four_by_four_tile():
    g = make_torus(4, 4)
    d = _vs(g, [(1, 1), (1, 2), (3, 3), (3, 4)])
    assert is_efficient_total(g, d)
    assert is_paired_dominating(g, d)


def test_efficient_total_rejects_overdomination():
    g = make_torus(3, 3)
    d = _vs(g, [(1, 1), (1, 2), (1, 3)])
    assert not is_efficient_total(g, d)  # (1,1) has two set neighbours


def test_column_profile_counts_row_loads():
    g = make_torus(7, 3)
    d = _vs(g, [(1, 2), (2, 2), (4, 1), (4, 3), (6, 2), (7, 2)])
    prof = column_profile(g, d)
    assert prof.alpha == (2, 4, 1, 0)
    assert prof.applicable
    assert prof.identity_ok
    assert prof.surplus_ok
    assert prof.demand_ok


def test_column_profile_inapplicable_off_width_three():
    g = make_torus(3, 5)
    d = _vs(g, [(1, 1), (2, 3)])
    prof = column_profile(g, d)
    assert not prof.applicable
    assert prof.surplus_ok is None and prof.demand_ok is None
    assert sum(prof.alpha) == 3


def test_column_profile_inapplicable_when_a_row_is_full():
    g = make_torus(5, 3)
    d = _vs(g, [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (4, 3)])
    prof = column_profile(g, d)
    assert not prof.applicable
    assert prof.alpha == (3, 0, 0, 2)


def test_satisfies_dispatches_each_kind():
    g = make_torus(4, 4)
    tile = _vs(g, [(1, 1), (1, 2), (3, 3), (3, 4)])
    for kind in DominationKind:
        assert satisfies(g, tile, kind)
    spread = _vs(g, [(1, 1), (2, 3), (3, 1), (4, 3)])
    assert satisfies(g, spread, DominationKind.PLAIN)
    assert not satisfies(g, spread, DominationKind.TOTAL)
    assert not satisfies(g, spread, DominationKind.PAIRED)


def test_satisfies_rejects_unknown_kind():
    g = make_torus(3, 3)
    with pytest.raises(InvalidInputError):
        satisfies(g, VertexSet(g.dims), "total")
