import hashlib
import importlib
import json
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from torusdom import cli
from torusdom.certificates import Certificate, load_certificate
from torusdom.construct import best_upper_witness, construct_bound_pattern
from torusdom.errors import CertificateError, InvalidInputError
from torusdom.matching import maximum_matching
from torusdom.solve import find_efficient_tds
from torusdom.torus import TorusDims, TorusGraph, VertexId, VertexSet, make_torus, set_slots
from torusdom.validate import (
    DominationKind,
    column_profile,
    domination_multiplicity,
    has_perfect_matching,
    is_dominating,
    is_efficient_total,
    is_paired_dominating,
    is_total_dominating,
    satisfies,
    _exactly,
    _induced_adj,
    _matching,
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


def _exact_by_slot(g, mask):
    """The slots with exactly 0..4 neighbours in the mask, counted one
    slot at a time through `TorusGraph.around`."""
    exact = [0] * 5
    for s in range(g.dims.order):
        exact[sum(mask >> t & 1 for t in g.around(s))] |= 1 << s
    return exact


def _exact_masks(g, mask):
    none, *more = _exactly(*g.images(mask))
    return [none & g.full_mask] + more


@pytest.mark.parametrize("n,m", [(3, 3), (3, 4), (4, 4)])
def test_counter_matches_per_slot_counts_on_every_subset(n, m):
    g = make_torus(n, m)
    for mask in range(1 << g.dims.order):
        assert _exact_masks(g, mask) == _exact_by_slot(g, mask), (n, m, mask)


def test_counter_matches_per_slot_counts_on_random_sets():
    rng = random.Random("counter")
    for n in range(5, 10):
        for m in range(5, 10):
            g = make_torus(n, m)
            for k in range(200):
                mask = rng.getrandbits(g.dims.order)
                for _ in range(k % 3):
                    mask &= rng.getrandbits(g.dims.order)
                assert _exact_masks(g, mask) == _exact_by_slot(g, mask), (n, m, mask)


def test_verify_histogram_equals_the_per_slot_counts(tmp_path, capsys):
    certs = Path(__file__).resolve().parents[1] / "bench" / "data" / "certs"
    efficient = tmp_path / "efficient.json"
    Certificate.from_vertex_set(find_efficient_tds(8, 8), DominationKind.TOTAL, "handmade").save(
        efficient
    )
    for path in sorted(certs.glob("*.json")) + [efficient]:
        cert = load_certificate(path)
        counts = Counter(domination_multiplicity(make_torus(cert.n, cert.m), cert.vertex_set()))
        expected = ", ".join(f"{k}x{counts[k]}" for k in sorted(counts))
        assert cli.main(["verify", str(path)]) == 0
        assert f"  multiplicity histogram (dominators x vertices): {expected}\n" in (
            capsys.readouterr().out
        ), path.name


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


def _pairs_cover(g, d, pairs):
    """True iff the pairs are disjoint grid edges, each ordered by slot and
    all in ascending order, whose ends are exactly the members of d."""
    ends = []
    for a, b in pairs:
        sa, sb = g.dims.slot(a), g.dims.slot(b)
        if sa >= sb or sb not in g.around(sa):
            return False
        ends += [sa, sb]
    return list(pairs) == sorted(pairs) and sorted(ends) == set_slots(d.mask)


def _check_pairs(g, d):
    """Check the pairs of `has_perfect_matching` independently and its
    verdict against one matcher run over the whole subgraph; the pairs."""
    w = has_perfect_matching(g, d)
    assert (w is None) == (_whole_subgraph_pairs(g, d) is None), (g.dims, d.pairs())
    assert w is None or _pairs_cover(g, d, w.pairs), (g.dims, d.pairs(), w.pairs)
    return None if w is None else w.pairs


def _dominoes(g, rng, count):
    """Up to ``count`` disjoint random grid edges, any of them across the
    wrap, as one mask."""
    mask = 0
    for _ in range(count):
        s = rng.randrange(g.dims.order)
        t = rng.choice(g.around(s))
        if not mask >> s & 1 and not mask >> t & 1:
            mask |= 1 << s | 1 << t
    return mask


def test_matching_pairs_cover_random_sets_across_the_wrap():
    rng = random.Random("matching pairs")
    outcomes, wraps = set(), set()
    for n in range(3, 9):
        for m in range(3, 9):
            g = make_torus(n, m)
            for k in range(40):
                mask = _dominoes(g, rng, 1 + k % (g.dims.order // 3))
                if k % 4 == 1:
                    mask |= rng.getrandbits(g.dims.order)
                elif k % 4 == 2:
                    mask ^= 1 << rng.randrange(g.dims.order)
                pairs = _check_pairs(g, VertexSet(g.dims, mask))
                outcomes.add(pairs is None)
                # a pair across the wrap joins the first and last column or row
                wraps.update("row" for a, b in pairs or () if b.j - a.j == m - 1)
                wraps.update("column" for a, b in pairs or () if b.i - a.i == n - 1)
    assert outcomes == {True, False}
    assert wraps == {"row", "column"}


def test_failed_matching_witness_raises(monkeypatch):
    # rows 1 and 3 of the 4x4 torus dominate it and induce two 4-cycles,
    # so the whole set is the core the matcher gets; the check must
    # raise, not assert, so that it also runs under python -O
    g = make_torus(4, 4)
    d = _vs(g, [(i, j) for i in (1, 3) for j in range(1, 5)])
    assert is_paired_dominating(g, d)
    validate = importlib.import_module("torusdom.validate")
    for bad in (
        # a non-edge: (1,1) with (1,3) and (1,2) with (1,4)
        [2, 3, 0, 1, 5, 4, 7, 6],
        # (1,2) in two pairs: (1,1)-(1,2) and (1,2)-(1,3)
        [1, 2, 1, 0, 5, 4, 7, 6],
        # (3,3) and (3,4) matched to themselves: the pairs miss them
        [1, 0, 3, 2, 5, 4, 6, 7],
    ):
        monkeypatch.setattr(validate, "maximum_matching", lambda adj: list(bad))
        with pytest.raises(CertificateError):
            is_paired_dominating(g, d)


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
    # an isolated vertex: even in all, but the peel refuses the isolated one
    d = _vs(g, [(1, 1), (1, 2), (1, 3), (3, 1), (3, 2), (4, 1), (4, 2), (6, 6)])
    assert has_perfect_matching(g, d) is None
    assert calls == []


def test_isolated_edges_match_without_the_matcher(monkeypatch):
    calls = _counting_matcher(monkeypatch)
    g = make_torus(8, 8)
    d = _vs(g, [(1, 1), (1, 2), (3, 4), (4, 4), (6, 8), (6, 1)])
    w = has_perfect_matching(g, d)
    assert w.pairs == _whole_subgraph_pairs(g, d)
    assert calls == []


def test_even_component_without_perfect_matching(monkeypatch):
    calls = _counting_matcher(monkeypatch)
    g = make_torus(6, 6)
    # K_{1,3}: a centre with three of its neighbours, three leaves on one partner
    d = _vs(g, [(1, 2), (2, 1), (2, 2), (2, 3)])
    assert has_perfect_matching(g, d) is None
    assert calls == []


def _witness_probes(name):
    """Each even witness of tests/data/witnesses.json, checked against its
    digest, and three copies with two members removed, with their grid."""
    path = Path(__file__).parent / "data" / "witnesses.json"
    rng = random.Random(name)
    for n, m, kind, _, size, digest in json.loads(path.read_text()):
        if size % 2:
            continue
        d = best_upper_witness(n, m, DominationKind(kind)).vertex_set
        assert hashlib.sha256(format(d.mask, "x").encode()).hexdigest() == digest, (n, m, kind)
        g = make_torus(n, m)
        members = set_slots(d.mask)
        yield g, d
        for _ in range(3):
            yield g, VertexSet(g.dims, d.mask & ~sum(1 << s for s in rng.sample(members, 2)))


def test_peel_verdict_equals_the_matcher_on_witnesses_and_probes():
    outcomes = set()
    for g, probe in _witness_probes("peel"):
        outcomes.add(_check_pairs(g, probe) is None)
    assert outcomes == {True, False}


def test_peel_verdict_equals_the_matcher_on_every_even_set_of_the_four_by_four_torus(monkeypatch):
    calls = _counting_matcher(monkeypatch)
    g = make_torus(4, 4)
    outcomes = set()
    for mask in range(1 << 16):
        if mask.bit_count() % 2:
            continue
        calls.clear()
        found = _matching(g, mask)
        assert (found is None) == (_whole_subgraph_pairs(g, VertexSet(g.dims, mask)) is None), mask
        outcomes.add((found is None, calls != []))
    # refused by the peel, matched by it alone, and a core left to the matcher
    assert {(True, False), (False, False), (False, True)} <= outcomes


def test_peel_refuses_two_leaves_on_one_partner(monkeypatch):
    calls = _counting_matcher(monkeypatch)
    g = make_torus(6, 6)
    # (2,1) and (2,3) hang off (2,2); the path (3,2)-(4,2)-(5,2) would peel
    d = _vs(g, [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2), (5, 2)])
    assert _matching(g, d.mask) is None
    assert calls == []


def test_peel_refuses_an_isolated_member(monkeypatch):
    calls = _counting_matcher(monkeypatch)
    g = make_torus(6, 6)
    d = _vs(g, [(1, 1), (1, 2), (4, 4), (4, 6)])
    assert _matching(g, d.mask) is None
    # two paths of five: the first round peels their ends' pairs and
    # leaves each middle member with no neighbour
    paths = _vs(g, [(i, j) for i in (2, 5) for j in range(1, 6)])
    assert _matching(g, paths.mask) is None
    assert calls == []


def test_peel_matches_a_path_across_the_wrap_whole(monkeypatch):
    calls = _counting_matcher(monkeypatch)
    g = make_torus(6, 6)
    # h holds the left ends of the row pairs, v the top ends of the column pairs
    row = _vs(g, [(1, 5), (1, 6), (1, 1), (1, 2)])
    assert _matching(g, row.mask) == (_vs(g, [(1, 5), (1, 1)]).mask, 0)
    column = _vs(g, [(5, 3), (6, 3), (1, 3), (2, 3)])
    assert _matching(g, column.mask) == (0, _vs(g, [(5, 3), (1, 3)]).mask)
    assert calls == []


def test_peel_leaves_an_even_cycle_whole(monkeypatch):
    calls = _counting_matcher(monkeypatch)
    g = make_torus(6, 6)
    for cycle in ([(1, j) for j in range(1, 7)], [(3, 3), (3, 4), (4, 3), (4, 4)]):
        calls.clear()
        d = _vs(g, cycle)
        assert _matching(g, d.mask) is not None
        assert calls == [len(d)]


@pytest.mark.parametrize("target,bad", [
    # the leaves' column images swapped: each leaf claims the wrong partner
    ([(1, 1), (1, 4)], lambda mask, up, down, west, east: (up, down, east, west)),
    # the right partners of H come back with H in them: the ends overlap
    ([(1, 1), (1, 3)], lambda mask, up, down, west, east: (up, down, west | mask, east)),
    # the right partners of H come back two columns off: the ends miss a member
    ([(1, 1), (1, 3)], lambda mask, up, down, west, east: (up, down, west << 2, east)),
    # the right partners of H come back with (6,6) in them: an end leaves the set
    ([(1, 1), (1, 3)], lambda mask, up, down, west, east: (up, down, west | 1 << 35, east)),
])
def test_peel_raises_when_a_partner_mask_is_wrong(monkeypatch, target, bad):
    g = make_torus(6, 6)
    path = _vs(g, [(1, 1), (1, 2), (1, 3), (1, 4)])
    target_mask = _vs(g, target).mask
    real = TorusGraph.images

    def images(self, mask):
        found = real(self, mask)
        return bad(mask, *found) if mask == target_mask else found

    monkeypatch.setattr(TorusGraph, "images", images)
    with pytest.raises(CertificateError):
        _matching(g, path.mask)


@pytest.mark.parametrize("name,matched", [("63x61-paired", 0), ("61x61-paired", 92)])
def test_verify_matches_only_the_core(monkeypatch, name, matched):
    calls = _counting_matcher(monkeypatch)
    path = Path(__file__).resolve().parents[1] / "bench" / "data" / "certs" / f"{name}.json"
    assert cli.main(["verify", str(path)]) == 0
    # the matcher sees the whole core once and nothing else
    assert calls == ([matched] if matched else [])


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
