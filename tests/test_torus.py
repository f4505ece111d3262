import importlib
import random
import tracemalloc

import pytest

from torusdom.construct import best_upper_witness
from torusdom.errors import (
    InstanceTooLargeError,
    InvalidDimensionsError,
    InvalidInputError,
    OutOfRangeError,
)
from torusdom.torus import (
    MIN_SIDE,
    BlockRange,
    TorusDims,
    TorusGraph,
    VertexId,
    VertexSet,
    excise_block,
    make_torus,
    map_set,
    set_slots,
)
from torusdom.validate import DominationKind, satisfies

# the grids the kernel reference tests compare on (the neighbour table
# test also takes larger sides)
SMALL_GRIDS = [(n, m) for n in range(3, 10) for m in range(3, 10)]


def _reference_nbr_slots(dims):
    """The neighbour table built vertex by vertex from wrapped coordinates."""
    out = []
    for s in range(dims.order):
        i, j = s // dims.m + 1, s % dims.m + 1
        around = ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
        out.append(tuple(sorted(dims.slot(dims.wrap(a, b)) for a, b in around)))
    return tuple(out)


def _probe_masks(dims, seed):
    """The empty and full masks, every single slot, and 20 seeded random
    masks of densities 1/2, 1/4 and 1/8."""
    rng = random.Random(seed)
    masks = [0, (1 << dims.order) - 1] + [1 << s for s in range(dims.order)]
    for k in range(20):
        mask = rng.getrandbits(dims.order)
        for _ in range(k % 3):
            mask &= rng.getrandbits(dims.order)
        masks.append(mask)
    return masks


def test_dims_rejects_thin_grids():
    for n, m in [(2, 3), (3, 2), (1, 1), (0, 5), (-3, 4)]:
        with pytest.raises(InvalidDimensionsError):
            TorusDims(n, m)


def test_dims_refuse_grids_above_the_order_cap(monkeypatch):
    torus_module = importlib.import_module("torusdom.torus")
    assert TorusDims(201, 201).order <= torus_module.MAX_ORDER
    monkeypatch.setattr(torus_module, "MAX_ORDER", 100)
    TorusDims(10, 10)
    for n, m in [(11, 10), (10, 11), (3, 34)]:
        with pytest.raises(InstanceTooLargeError, match="above the cap of 100"):
            TorusDims(n, m)


def test_dims_order_and_slot_roundtrip():
    dims = TorusDims(5, 4)
    assert dims.order == 20
    seen = set()
    for s in range(dims.order):
        v = dims.vertex(s)
        assert dims.slot(v) == s
        seen.add(v)
    assert len(seen) == 20
    assert dims.vertex(0) == VertexId(1, 1)
    assert dims.vertex(19) == VertexId(5, 4)


def test_dims_wrap_is_cyclic():
    dims = TorusDims(5, 3)
    assert dims.wrap(0, 1) == VertexId(5, 1)
    assert dims.wrap(6, 1) == VertexId(1, 1)
    assert dims.wrap(2, 0) == VertexId(2, 3)
    assert dims.wrap(2, 4) == VertexId(2, 1)
    assert dims.wrap(-4, 7) == VertexId(1, 1)


def test_dims_slot_checks_range():
    dims = TorusDims(4, 4)
    for bad in [VertexId(0, 1), VertexId(5, 1), VertexId(1, 0), VertexId(1, 5)]:
        with pytest.raises(OutOfRangeError):
            dims.slot(bad)


def test_dims_transposed():
    dims = TorusDims(7, 3)
    assert dims.transposed() == TorusDims(3, 7)


def test_vertex_set_basic_ops():
    dims = TorusDims(4, 5)
    d = VertexSet.from_vertices(dims, [(2, 3), (1, 1), (2, 3)])
    assert len(d) == 2
    assert (2, 3) in d and (1, 1) in d and (4, 4) not in d
    assert bool(d)
    assert not VertexSet(dims)
    assert list(d) == [VertexId(1, 1), VertexId(2, 3)]
    assert d.pairs() == [(1, 1), (2, 3)]


def test_vertex_set_from_vertices_checks_range():
    dims = TorusDims(4, 4)
    with pytest.raises(OutOfRangeError):
        VertexSet.from_vertices(dims, [(1, 1), (5, 2)])


def test_from_vertices_names_the_first_vertex_off_the_grid():
    dims = TorusDims(4, 6)
    for bad in [(0, 1), (5, 1), (1, 0), (1, 7)]:
        with pytest.raises(OutOfRangeError) as info:
            VertexSet.from_vertices(dims, [(4, 6), bad, (9, 9)])
        assert str(info.value) == f"vertex {bad} outside 4x6 grid"


def test_vertex_set_rotation_is_a_bijection():
    dims = TorusDims(4, 5)
    d = VertexSet.from_vertices(dims, [(1, 1), (2, 3), (4, 5)])
    r = d.rotated(1, 2)
    assert len(r) == 3
    assert (2, 3) in r and (3, 5) in r and (1, 2) in r
    assert d.rotated(4, 5) == d
    assert d.rotated(1, 2).rotated(-1, -2) == d


def test_vertex_set_transposed_involution():
    dims = TorusDims(3, 5)
    d = VertexSet.from_vertices(dims, [(1, 4), (3, 2)])
    t = d.transposed()
    assert t.dims == TorusDims(5, 3)
    assert t.pairs() == [(2, 3), (4, 1)]
    assert t.transposed() == d


def test_transposed_is_the_coordinate_transpose():
    for n in range(3, 10):
        for m in range(3, 10):
            dims = TorusDims(n, m)
            for mask in _probe_masks(dims, f"transpose {n}x{m}"):
                d = VertexSet(dims, mask)
                t = d.transposed()
                assert t.dims == dims.transposed()
                assert t.pairs() == sorted((j, i) for i, j in d.pairs()), (n, m, bin(mask))
                assert t.transposed() == d


def test_graph_is_four_regular():
    for n, m in [(3, 3), (3, 4), (5, 7), (4, 4)]:
        g = make_torus(n, m)
        assert len(g.edges()) == 2 * n * m
        for s in range(n * m):
            assert len(g.around(s)) == 4
            assert len(set(g.around(s))) == 4


def test_neighbour_tables_match_the_coordinate_construction():
    for n in range(3, 14):
        for m in range(3, 14):
            g = TorusGraph(TorusDims(n, m))
            reference = _reference_nbr_slots(g.dims)
            assert tuple(map(g.around, range(n * m))) == reference, (n, m)


def test_neighbourhood_is_the_union_of_per_slot_masks():
    for n, m in SMALL_GRIDS:
        g = make_torus(n, m)
        per_slot = [sum(1 << t for t in around) for around in _reference_nbr_slots(g.dims)]
        for mask in _probe_masks(g.dims, f"{n}x{m}"):
            expected = 0
            for s in range(g.dims.order):
                if mask >> s & 1:
                    expected |= per_slot[s]
            assert g.neighbourhood(mask) == expected, (n, m, bin(mask))


def test_set_bits_and_slots_round_trip():
    for n, m in SMALL_GRIDS:
        dims = TorusDims(n, m)
        for mask in _probe_masks(dims, f"{n}x{m}"):
            slots = [s for s in range(dims.order) if mask >> s & 1]
            assert set_slots(mask) == slots
            d = VertexSet.from_slots(dims, slots)
            assert d.mask == mask
            assert list(d) == [dims.vertex(s) for s in slots]
            assert VertexSet.from_vertices(dims, d.pairs()) == d
        for bad in (-1, dims.order):
            with pytest.raises(OutOfRangeError):
                VertexSet.from_slots(dims, [0, bad])


def test_graph_edges_are_symmetric():
    g = make_torus(5, 3)
    for s in range(g.dims.order):
        for t in g.around(s):
            assert s in g.around(t)


def test_make_torus_is_cached():
    assert make_torus(6, 4) is make_torus(6, 4)


def test_cached_tori_hold_no_per_slot_table():
    tracemalloc.start()
    try:
        TorusGraph(TorusDims(204, 204))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10
    res = best_upper_witness(23, 21, DominationKind.PAIRED)
    g = make_torus(23, 21)
    assert satisfies(g, res.vertex_set, DominationKind.PAIRED)
    held = vars(g)
    assert not [
        k for k, v in held.items() if isinstance(v, (list, tuple)) and len(v) == g.dims.order
    ]


def test_excise_block_produces_smaller_torus():
    g = make_torus(7, 4)
    small, ring_map = excise_block(g, BlockRange(3, 4))
    assert small.dims == TorusDims(3, 4)
    assert ring_map == {7: 1, 1: 2, 2: 3}


def test_excise_block_wrapping_block():
    g = make_torus(6, 3)
    small, ring_map = excise_block(g, BlockRange(5, 2))
    assert small.dims == TorusDims(4, 3)
    assert ring_map == {1: 1, 2: 2, 3: 3, 4: 4}


def test_excise_block_range_checks():
    g = make_torus(6, 3)
    with pytest.raises(OutOfRangeError):
        excise_block(g, BlockRange(0, 2))
    with pytest.raises(OutOfRangeError):
        excise_block(g, BlockRange(7, 2))
    with pytest.raises(InvalidInputError):
        excise_block(g, BlockRange(1, 4))
    with pytest.raises(InvalidInputError):
        excise_block(g, BlockRange(1, 0))


def test_map_set_carries_vertices_across_excision():
    g = make_torus(7, 4)
    small, ring_map = excise_block(g, BlockRange(3, 4))
    d = VertexSet.from_vertices(g.dims, [(7, 2), (1, 1), (2, 4)])
    moved = map_set(d, small, ring_map)
    assert moved.pairs() == [(1, 2), (2, 1), (3, 4)]


def test_map_set_rejects_removed_rows():
    g = make_torus(7, 4)
    small, ring_map = excise_block(g, BlockRange(3, 4))
    d = VertexSet.from_vertices(g.dims, [(4, 1)])
    with pytest.raises(InvalidInputError):
        map_set(d, small, ring_map)


def test_excision_round_survives_random_blocks():
    rng = random.Random(20260814)
    for _ in range(40):
        n = rng.randrange(MIN_SIDE + 1, 10)
        m = rng.randrange(MIN_SIDE, 7)
        width = rng.randrange(1, n - MIN_SIDE + 1)
        start = rng.randrange(1, n + 1)
        small, ring_map = excise_block(make_torus(n, m), BlockRange(start, width))
        assert small.dims.n == n - width
        assert sorted(ring_map.values()) == list(range(1, n - width + 1))
