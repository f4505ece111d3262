import importlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from torusdom import rowsweep
from torusdom.construct import best_upper_witness
from torusdom.errors import CertificateError, InstanceTooLargeError, InvalidInputError
from torusdom.formulas import (
    gamma_p_m3,
    gamma_t_m3,
    gamma_tp_m4,
    lower_bound_paired,
    lower_bound_regular,
    upper_bounds,
)
from torusdom.solve import (
    ORACLE_AUTO_CAP,
    ORACLE_CAP,
    SolveMethod,
    canonical,
    enumerate_total_dominating_sets,
    find_efficient_tds,
    solve,
    solve_oracle,
    solve_paired,
    solve_paired_dp,
    solve_profile_dp,
    solve_within_reach,
)
from torusdom.torus import VertexSet, make_torus
from torusdom.validate import (
    DominationKind,
    is_efficient_total,
    is_total_dominating,
    satisfies,
)

PLAIN = DominationKind.PLAIN
TOTAL = DominationKind.TOTAL
PAIRED = DominationKind.PAIRED


def _brute_minimum(n, m, kind):
    """First minimum set in lexicographic slot order, by full enumeration."""
    g = make_torus(n, m)
    order = g.dims.order
    start = step = 2 if kind is PAIRED else 1
    for k in range(start, order + 1, step):
        for combo in itertools.combinations(range(order), k):
            d = VertexSet.from_slots(g.dims, combo)
            if satisfies(g, d, kind):
                return k, list(combo)
    raise AssertionError("no dominating set at all")


@pytest.mark.parametrize(
    "n,m,kind,value",
    [
        (3, 3, PLAIN, 3),
        (3, 3, TOTAL, 3),
        (3, 3, PAIRED, 4),
        (3, 4, PLAIN, 3),
        (3, 4, TOTAL, 4),
        (3, 4, PAIRED, 4),
        (4, 4, TOTAL, 4),
        (4, 4, PAIRED, 4),
    ],
)
def test_oracle_agrees_with_full_enumeration(n, m, kind, value):
    res = solve_oracle(n, m, kind)
    size, slots = _brute_minimum(n, m, kind)
    assert res.value == size == value
    got = [g for g in range(n * m) if res.certificate.mask >> g & 1]
    assert got == slots  # lexicographically least optimum


def test_oracle_certificate_is_valid():
    res = solve_oracle(4, 5, PAIRED)
    g = make_torus(4, 5)
    assert len(res.certificate) == res.value
    assert satisfies(g, res.certificate, PAIRED)
    assert res.method is SolveMethod.ORACLE


def test_oracle_respects_size_cap():
    with pytest.raises(InstanceTooLargeError):
        solve_oracle(5, 5, TOTAL)


def test_oracle_rejects_efficient_kind():
    with pytest.raises(InvalidInputError):
        solve_oracle(3, 3, DominationKind.EFFICIENT_TOTAL)


def test_engines_agree_on_all_small_grids():
    for n in range(3, 7):
        for m in range(3, 7):
            if n * m > ORACLE_AUTO_CAP:
                continue
            for kind in (PLAIN, TOTAL):
                a = solve_oracle(n, m, kind)
                b = solve_profile_dp(n, m, kind)
                assert a.value == b.value, (n, m, kind)
                assert a.value >= (n * m + 4) // 5
            a = solve_oracle(n, m, PAIRED)
            b = solve_paired_dp(n, m)
            assert a.value == b.value, (n, m)
            assert a.value % 2 == 0
            assert a.value >= lower_bound_regular(n, m)


def test_profile_dp_matches_closed_forms():
    assert solve_profile_dp(13, 3, TOTAL).value == gamma_t_m3(13) == 11
    assert solve_profile_dp(6, 4, TOTAL).value == gamma_tp_m4(6) == 8
    assert solve_profile_dp(10, 4, TOTAL).value == gamma_tp_m4(10) == 12


def test_profile_dp_certificates_validate():
    for n, m, kind in [(9, 3, TOTAL), (7, 4, TOTAL), (8, 5, PLAIN)]:
        res = solve_profile_dp(n, m, kind)
        g = make_torus(n, m)
        assert satisfies(g, res.certificate, kind)
        assert len(res.certificate) == res.value
        assert res.method is SolveMethod.PROFILE_DP


def test_profile_dp_orientation_is_transparent():
    a = solve_profile_dp(10, 3, TOTAL)
    b = solve_profile_dp(3, 10, TOTAL)
    assert a.value == b.value == 8
    assert a.certificate.dims.n == 10 and a.certificate.dims.m == 3
    assert b.certificate.dims.n == 3 and b.certificate.dims.m == 10


def test_profile_dp_kind_and_width_checks():
    with pytest.raises(InvalidInputError):
        solve_profile_dp(6, 4, PAIRED)
    with pytest.raises(InstanceTooLargeError):
        solve_profile_dp(9, 9, TOTAL)


def test_paired_dp_matches_closed_forms():
    assert solve_paired_dp(5, 3).value == gamma_p_m3(5) == 4
    assert solve_paired_dp(13, 3).value == gamma_p_m3(13) == 12
    assert solve_paired_dp(6, 4).value == gamma_tp_m4(6) == 8
    res = solve_paired_dp(9, 4)
    assert res.value == 10
    assert satisfies(make_torus(9, 4), res.certificate, PAIRED)


def test_paired_dp_width_cap():
    with pytest.raises(InstanceTooLargeError):
        solve_paired_dp(7, 7)


def test_paired_front_door_values():
    # Sides of five: no closed form, certified by search or sandwich.
    assert solve_paired(5, 5).value == 8
    assert solve_paired(6, 5).value == 8
    assert solve_paired(6, 6).value == 10


def test_paired_search_certificate():
    # the 7x5 pattern meets the parity-rounded degree bound, so no search
    res = solve_paired(7, 5)
    assert (res.value, res.method) == (10, SolveMethod.SANDWICH)
    assert satisfies(make_torus(7, 5), res.certificate, PAIRED)
    res = solve_paired(6, 5)
    assert (res.value, res.method) == (8, SolveMethod.PAIRED_SEARCH)
    assert satisfies(make_torus(6, 5), res.certificate, PAIRED)


def test_solve_dispatch_methods():
    assert solve(4, 4, TOTAL).method is SolveMethod.ORACLE
    assert solve(6, 4, TOTAL).method is SolveMethod.PROFILE_DP
    r88 = solve(8, 8, TOTAL)
    assert (r88.value, r88.method) == (16, SolveMethod.SANDWICH)
    p88 = solve(8, 8, PAIRED)
    assert (p88.value, p88.method) == (16, SolveMethod.SANDWICH)
    p74 = solve(7, 4, PAIRED)
    assert (p74.value, p74.method) == (8, SolveMethod.SANDWICH)
    p123 = solve(12, 3, PAIRED)
    assert (p123.value, p123.method) == (10, SolveMethod.SANDWICH)
    p55 = solve(5, 5, PAIRED)
    assert (p55.value, p55.method) == (8, SolveMethod.PAIRED_SEARCH)


def test_solve_forced_methods():
    assert solve(4, 4, TOTAL, method="oracle").method is SolveMethod.ORACLE
    assert solve(4, 4, TOTAL, method="dp").method is SolveMethod.PROFILE_DP
    assert solve(4, 4, PAIRED, method="dp").method is SolveMethod.PROFILE_DP
    with pytest.raises(InvalidInputError):
        solve(4, 4, TOTAL, method="bogus")
    with pytest.raises(InvalidInputError):
        solve(4, 4, DominationKind.EFFICIENT_TOTAL)


def test_solve_plain_on_five_by_five():
    res = solve(5, 5, PLAIN)
    assert res.value == 5
    assert satisfies(make_torus(5, 5), res.certificate, PLAIN)


def test_solutions_are_deterministic():
    a = solve_profile_dp(10, 4, TOTAL)
    b = solve_profile_dp(10, 4, TOTAL)
    assert a.certificate == b.certificate
    c = solve_paired_dp(9, 3)
    d = solve_paired_dp(9, 3)
    assert c.certificate == d.certificate
    e = solve_oracle(4, 4, PAIRED)
    f = solve_oracle(4, 4, PAIRED)
    assert e.certificate == f.certificate


# (value, certificate mask) of the row-sweep DP.  The first six were recorded
# before its plain, total and paired variants shared one kernel, the next
# eight before it ran one seed per symmetry orbit and pruned against the best
# set found, the last two before it pruned by its backward lower bound; ties
# must still break alike.
@pytest.mark.parametrize(
    "n,m,kind,value,mask",
    [
        (8, 5, PLAIN, 10, 0xE049012060),
        (10, 4, TOTAL, 12, 0xF0C030C030),
        (3, 10, TOTAL, 8, 0x210840C6),
        (9, 6, PLAIN, 13, 0x180B0101602901),
        (9, 4, PAIRED, 10, 0xC030C0330),
        (7, 5, PAIRED, 10, 0x781121220),
        (10, 5, TOTAL, 13, 0x3801A10342060),
        (13, 5, TOTAL, 17, 0x1C00D081A10342060),
        (12, 5, PLAIN, 13, 0x605028102814081),
        (13, 5, PLAIN, 15, 0x1C092024049012060),
        (10, 6, PLAIN, 14, 0xE801500A8090140),
        (9, 6, TOTAL, 15, 0x380924074101C0),
        (5, 7, PAIRED, 10, 0x528132012),
        (6, 6, PAIRED, 10, 0xF000D80C0),
        (10, 7, TOTAL, 18, 0x122402640A44804C81),
        (8, 8, TOTAL, 16, 0xCC003300CC003300),
    ],
)
def test_dp_certificates_are_pinned(n, m, kind, value, mask):
    res = solve_paired_dp(n, m) if kind is PAIRED else solve_profile_dp(n, m, kind)
    assert (res.value, res.certificate.mask) == (value, mask)


def test_dp_certificates_match_recorded():
    # [n, m, kind, value, hex mask] of 126 row-sweep DP solves, recorded before
    # the kernel pruned by its backward lower bound: plain and total with n in
    # 3..13 and m in 3..5, every paired grid of at most 45 vertices, and a few
    # width-6 and width-8 grids
    path = Path(__file__).parent / "data" / "dp_certificates.json"
    for n, m, kind, value, mask in json.loads(path.read_text()):
        kind = DominationKind(kind)
        res = solve_paired_dp(n, m) if kind is PAIRED else solve_profile_dp(n, m, kind)
        assert (res.value, hex(res.certificate.mask)) == (value, mask), (n, m, kind)


def _clear_row_sweep_setup():
    """Empty the caches that carry the row sweep's setup and its finished
    sweeps from call to call."""
    for cached in (
        rowsweep._ring_images, rowsweep._row_tables, rowsweep._row_moves, rowsweep._row_within,
        rowsweep._row_seeds, rowsweep._closing, rowsweep._sweep,
    ):
        cached.cache_clear()


def test_dp_certificates_do_not_depend_on_call_order():
    # the row sweep's bounds, seeds and closing masks outlive a call, so
    # solve the recorded entries from cold caches in the reverse order
    path = Path(__file__).parent / "data" / "dp_certificates.json"
    entries = json.loads(path.read_text())
    assert len(entries) == 126
    _clear_row_sweep_setup()
    for n, m, kind, value, mask in reversed(entries):
        kind = DominationKind(kind)
        res = solve_paired_dp(n, m) if kind is PAIRED else solve_profile_dp(n, m, kind)
        assert (res.value, hex(res.certificate.mask)) == (value, mask), (n, m, kind)


@pytest.mark.parametrize("n, m, kind", [(6, 4, TOTAL), (7, 5, PLAIN), (5, 8, PAIRED)])
def test_a_transposed_sweep_reads_the_kept_sweep(n, m, kind):
    # m x n after n x m reuses the finished sweep, and must return the
    # set a cold call on m x n builds: the first set, transposed
    bound = upper_bounds(n, m, kind).best_upper()
    _clear_row_sweep_setup()
    cold = rowsweep._row_sweep(m, n, kind, bound)
    _clear_row_sweep_setup()
    first = rowsweep._row_sweep(n, m, kind, bound)
    hits = rowsweep._sweep.cache_info().hits
    warm = rowsweep._row_sweep(m, n, kind, bound)
    assert rowsweep._sweep.cache_info().hits == hits + 1
    assert warm == cold
    assert warm[1] == first[1].transposed()


def test_paired_search_certificates_match_recorded():
    # [n, m, value, hex mask] of 15 pair searches, recorded before the search
    # walked precomputed candidates and banned root-edge orbits; 8x7, 7x8 and
    # 8x9 prove absence below their witness, 9x9 at two levels
    solve_module = importlib.import_module("torusdom.solve")
    path = Path(__file__).parent / "data" / "paired_search_certificates.json"
    for n, m, value, mask in json.loads(path.read_text()):
        witness = best_upper_witness(n, m, PAIRED).vertex_set
        res = solve_module._paired_search(n, m, witness)
        assert (res.value, hex(res.certificate.mask)) == (value, mask), (n, m)


def test_paired_search_agrees_with_paired_dp():
    solve_module = importlib.import_module("torusdom.solve")
    absent = []
    for n, m in itertools.product(range(5, 9), repeat=2):
        if min(n, m) > 6:
            continue
        witness = best_upper_witness(n, m, PAIRED).vertex_set
        found = solve_module._paired_search(n, m, witness).value
        assert found == solve_paired_dp(n, m).value, (n, m)
        if found > lower_bound_paired(n, m):
            absent.append((n, m))
    # the search must have proved absence at the degree bound somewhere
    assert {(5, 8), (8, 6)} <= set(absent)


def _fewest_pairs(g, uncovered):
    """The fewest disjoint edges of g that dominate every vertex of
    `uncovered`, by iterative deepening over the edges that dominate its
    lowest vertex."""
    closed = [sum(1 << t for t in g.around(s)) | 1 << s for s in range(g.dims.order)]
    edges = [(1 << a | 1 << b, closed[a] | closed[b]) for a, b in g.edges()]

    def fits(rest, used, k):
        if not rest:
            return True
        if not k:
            return False
        low = rest & -rest
        return any(
            fits(rest & ~cover, used | pair, k - 1)
            for pair, cover in edges
            if cover & low and not pair & used
        )

    return next(k for k in itertools.count() if fits(uncovered, 0, k))


@pytest.mark.parametrize("n,m", list(itertools.product(range(3, 6), repeat=2)))
def test_pair_packing_bound_is_admissible(n, m):
    solve_module = importlib.import_module("torusdom.solve")
    g = make_torus(n, m)
    order = g.dims.order
    _, reach = solve_module._pair_tables(n, m)
    for v in range(order):
        ball, ring = 1 << v, 1 << v
        for _ in range(3):
            ring = g.neighbourhood(ring) & ~ball
            ball |= ring
        assert reach[v] == ball, (n, m, v)
    rng = random.Random(f"{n}x{m}")
    tight = 0
    for k in range(40):
        uncovered = g.full_mask if k == 0 else rng.getrandbits(order)
        for _ in range(k % 3):
            uncovered &= rng.getrandbits(order)
        fewest = _fewest_pairs(g, uncovered)
        # the packing never asks for more pairs than the fewest that dominate
        assert not solve_module._packing_exceeds(uncovered, reach, fewest), (n, m, hex(uncovered))
        tight += fewest > 0 and solve_module._packing_exceeds(uncovered, reach, fewest - 1)
    assert tight


@pytest.mark.parametrize("n,m", [(5, 5), (7, 7), (8, 6), (9, 10)])
def test_root_maps_are_automorphisms_fixing_slot_zero(n, m):
    maps = importlib.import_module("torusdom.solve")._root_maps(n, m)
    edges = set(make_torus(n, m).edges())
    assert len(maps) == (8 if n == m else 4)
    assert len({tuple(p) for p in maps}) == len(maps)
    for p in maps:
        assert sorted(p) == list(range(n * m))
        assert p[0] == 0
        assert {tuple(sorted((p[a], p[b]))) for a, b in edges} == edges


def _least_extension(width, kind, state, k, budget):
    """The fewest members in k rows below a row-sweep state (c, u, w), or
    budget + 1 if every extension has more, found by enumerating the rows'
    masks.  Domination and pairing are checked on the rows themselves:
    row 1 must meet u, rows 1..k-1 must be dominated, and the members of w
    and of rows 1..k-1 must pair along grid edges, each member of w with the
    vertex below it.  The last row's needs and partners are left open."""
    full = (1 << width) - 1
    c, u, w = state

    def ring(x):
        return ((x << 1) | (x >> (width - 1)) | (x >> 1) | (x << (width - 1))) & full

    def pairs_up(rows):
        free = {(0, j) for j in range(width) if w >> j & 1}
        free |= {(r, j) for r in range(1, k + 1) for j in range(width) if rows[r] >> j & 1}
        must = sorted(v for v in free if v[0] < k)

        def match(free):
            todo = [v for v in must if v in free]
            if not todo:
                return True
            r, j = v = todo[0]
            near = [(r + 1, j)]
            if r:  # a member of w, on row 0, pairs only downward
                near += [(r - 1, j), (r, (j - 1) % width), (r, (j + 1) % width)]
            return any(match(free - {v, p}) for p in near if p in free)

        return match(free)

    masks = sorted(range(full + 1), key=int.bit_count)
    rows = [c]
    best = budget + 1

    def extend(cost):
        nonlocal best
        r = len(rows) - 1
        if r == 1 and (u | w) & ~rows[1]:
            return
        if r >= 2:
            needs = full if kind is TOTAL else full & ~rows[r - 1]
            if needs & ~(ring(rows[r - 1]) | rows[r - 2] | rows[r]):
                return
        if r == k:
            if kind is not PAIRED or pairs_up(rows):
                best = cost
            return
        for x in masks:
            if cost + x.bit_count() >= best:
                break
            rows.append(x)
            extend(cost + x.bit_count())
            rows.pop()

    extend(0)
    return best


@pytest.mark.parametrize("kind", [PLAIN, TOTAL, PAIRED])
@pytest.mark.parametrize("width", [3, 4, 5])
def test_row_bounds_are_admissible_and_tight(width, kind):
    states = rowsweep._row_moves(width, kind)[0]
    within = [rowsweep._row_within(width, kind, k)[0] for k in range(4)]
    everything = (1 << len(states)) - 1
    assert within[0] == (everything,)
    for k in (1, 2, 3):
        # within[k][r]: the states whose bound is at most r, up to k full rows
        assert len(within[k]) == width * k + 1 and within[k][-1] == everything
        assert all(not lo & ~hi for lo, hi in zip(within[k], within[k][1:]))
        for i, state in enumerate(states):
            bound = next(r for r, mask in enumerate(within[k]) if mask >> i & 1)
            assert _least_extension(width, kind, state, k, bound) == bound, (k, state)


@pytest.mark.parametrize("kind", [PLAIN, TOTAL, PAIRED])
@pytest.mark.parametrize("width", [3, 4, 5, 6])
def test_row_bounds_read_short_after_long_equal_a_fresh_build(width, kind):
    _clear_row_sweep_setup()
    rowsweep._row_within(width, kind, 9)
    short = [rowsweep._row_within(width, kind, k) for k in range(5)]
    _clear_row_sweep_setup()
    fresh = [rowsweep._row_within(width, kind, k) for k in range(5)]
    for k, (cached, (built, floor)) in enumerate(zip(short, fresh)):
        assert cached == (built, floor), k
        # the floor kept beside each level is its least nonempty bound
        assert floor == next(r for r, mask in enumerate(built) if mask), k


@pytest.mark.parametrize(
    "width,kind",
    [(w, kind) for w in (3, 4, 5, 6) for kind in (PLAIN, TOTAL)] + [(w, PAIRED) for w in (3, 4, 5)],
)
def test_row_moves_match_the_row_tables(width, kind):
    need, pop, supersets, leftovers = rowsweep._row_tables(width, kind)
    states, moves = rowsweep._row_moves(width, kind)
    full = (1 << width) - 1
    everything = [
        (c, u, w)
        for c in range(full + 1)
        for u in range(full + 1) if not u & ~need[c]
        for w in range(full + 1) if not w & ~c and (kind is PAIRED or not w)
    ]
    # numbering in ascending tuple order: the DP's tie rule and so its
    # certificates rest on it
    assert list(states) == sorted(everything)
    assert len(moves) == len(states)
    size = len(states)
    for (c, u, w), word in zip(states, moves):
        expected = [
            (pop[c2], states.index((c2, need[c2] & ~c, w2)))
            for c2 in supersets[u | w]
            for w2 in leftovers[c2 & ~w]
        ]
        # bit p*size + j is set exactly for the expected moves (p, j), each
        # expected once, and no bit lies beyond field `width`
        assert len(set(expected)) == len(expected), (c, u, w)
        assert word >> (width + 1) * size == 0, (c, u, w)
        got = [divmod(b, size) for b in range(word.bit_length()) if word >> b & 1]
        assert sorted(got) == sorted(expected), (c, u, w)
        # every row meeting the pending needs and partners
        assert {states[j][0] for _, j in got} == {c2 for c2 in range(full + 1) if not (u | w) & ~c2}


@pytest.mark.parametrize("width", range(3, 9))
def test_ring_images_map_each_bit(width):
    images = rowsweep._ring_images(width)
    assert len(images) == 2 * width
    for r in range(width):
        for s in (1, -1):
            image = images[2 * r + (s < 0)]
            assert len(image) == 1 << width
            for c in range(1 << width):
                bits = [j for j in range(width) if c >> j & 1]
                assert image[c] == sum(1 << (r + s * j) % width for j in bits), (r, s, c)


def _seed_sweep(length, width, kind, seed):
    """(closing, layers) of one seed (c1, u1, x1, w1) swept without prunes
    over `length` rows: layers[i] maps each state number reached after row
    i + 1 to (its least cost, the least predecessor number at that cost),
    and closing lists (cost, number) of the last layer's states that close
    with the seed, ascending."""
    need, pop, supersets, leftovers = rowsweep._row_tables(width, kind)
    states = rowsweep._row_moves(width, kind)[0]
    number = {state: i for i, state in enumerate(states)}
    c1, u1, x1, w1 = seed
    layers = [{number[(c1, u1, w1)]: (pop[c1], None)}]
    for _ in range(length - 1):
        nxt = {}
        for i, (cost, _) in sorted(layers[-1].items()):
            c, u, w = states[i]
            for c2 in supersets[u | w]:
                for w2 in leftovers[c2 & ~w]:
                    j = number[(c2, need[c2] & ~c, w2)]
                    if j not in nxt or cost + pop[c2] < nxt[j][0]:
                        nxt[j] = (cost + pop[c2], i)
        layers.append(nxt)
    r1 = need[c1] & ~u1
    closing = sorted(
        (cost, j)
        for j, (cost, _) in layers[-1].items()
        if not states[j][1] & ~c1 and not r1 & ~states[j][0] and states[j][2] == x1
    )
    return closing, layers


def _reference_sweep(n, m, kind, bound):
    """(value, certificate mask) of the row sweep without its four prunes,
    or None: every seed under the same cap, in the same order, each state
    at its least cost with the least predecessor in number order, and the
    best set replaced only by a strictly smaller one within the bound."""
    length, width, transposed = rowsweep._orient(n, m)
    need, pop, _, leftovers = rowsweep._row_tables(width, kind)
    states = rowsweep._row_moves(width, kind)[0]
    best = None
    cap = bound // length  # members of the first row, fixed by the first bound
    for c1 in range(1 << width):
        if pop[c1] > cap:
            continue
        for u1 in rowsweep._subsets(need[c1]):
            for x1 in rowsweep._subsets(c1) if kind is PAIRED else (0,):
                for w1 in leftovers[c1 & ~x1]:
                    closing, layers = _seed_sweep(length, width, kind, (c1, u1, x1, w1))
                    if not closing or closing[0][0] > bound:
                        continue
                    cost, cur = closing[0]
                    rows = []
                    for layer in layers[::-1]:
                        rows.append(states[cur][0])
                        cur = layer[cur][1]
                    best = (cost, rowsweep._rows_to_set(rows[::-1], length, width, transposed).mask)
                    bound = cost - 1
    return best


@pytest.mark.parametrize("kind", [PLAIN, TOTAL, PAIRED])
@pytest.mark.parametrize("width", [3, 4, 5])
def test_closing_row_bound_is_admissible(width, kind):
    # a seed's state, k rows before the end, is charged its members plus
    # max(lb_k, lb_{k-1} + the members the closing row must hold), which
    # may not exceed the least cost at which the seed closes
    need, pop = rowsweep._row_tables(width, kind)[:2]
    states = rowsweep._row_moves(width, kind)[0]
    decided = 0
    for length in range(width, 8):
        k = length - 1
        levels = [rowsweep._row_within(width, kind, j)[0] for j in (k, k - 1)]
        for seed in rowsweep._row_seeds(width, kind, width):
            c1, u1, x1, w1 = seed
            i = states.index((c1, u1, w1))
            lb, shorter = (next(r for r, mask in enumerate(level) if mask >> i & 1) for level in levels)
            charged = pop[c1] + max(lb, shorter + pop[need[c1] & ~u1 | x1])
            closing = _seed_sweep(length, width, kind, seed)[0]
            assert not closing or charged <= closing[0][0], (length, seed)
            decided += charged > pop[c1] + lb
    # the closing row's term is larger than the bound alone on some seed
    assert decided


@pytest.mark.parametrize(
    "width,kind",
    [(w, kind) for w in (3, 4, 5, 6) for kind in (PLAIN, TOTAL)] + [(w, PAIRED) for w in (3, 4, 5)],
)
def test_closing_masks_match_the_per_state_definition(width, kind):
    need = rowsweep._row_tables(width, kind)[0]
    states = rowsweep._row_moves(width, kind)[0]
    for c1, u1, x1, _ in rowsweep._row_seeds(width, kind, width):
        r1 = need[c1] & ~u1
        expected = sum(
            1 << j for j, (c, u, w) in enumerate(states) if not u & ~c1 and not r1 & ~c and w == x1
        )
        assert rowsweep._closing(width, kind, c1, r1, x1) == expected, (c1, u1, x1)


@pytest.mark.parametrize("kind", [PLAIN, TOTAL, PAIRED])
@pytest.mark.parametrize("width", [3, 4, 5])
def test_row_sweep_matches_a_prune_free_sweep(width, kind):
    longest = 10 if width < 5 else 8 if kind is not PAIRED else 6
    for length in range(width, longest + 1):
        n, m = (length, width) if length % 2 else (width, length)
        bound = upper_bounds(n, m, kind).best_upper()
        value, found = rowsweep._row_sweep(n, m, kind, bound)
        assert satisfies(make_torus(n, m), found, kind), (n, m)
        assert (value, found.mask) == _reference_sweep(n, m, kind, bound), (n, m)
        assert rowsweep._row_sweep(n, m, kind, value - 1) is None
        assert _reference_sweep(n, m, kind, value - 1) is None


def test_row_sweep_imports_neither_solve_nor_construct():
    # the kernel sits below both, so construct can use its move table
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = (
        "import sys, torusdom.rowsweep; "
        "print(sorted({'torusdom.solve', 'torusdom.construct'} & sys.modules.keys()))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    ).stdout
    assert out == "[]\n"


def test_dp_rejects_invalid_certificate(monkeypatch):
    # the check must raise, not assert, so that it also runs under python -O
    module = importlib.import_module("torusdom.solve")
    monkeypatch.setattr(module, "satisfies", lambda g, d, kind: False)
    with pytest.raises(CertificateError):
        solve_profile_dp(6, 4, TOTAL)
    with pytest.raises(CertificateError):
        solve_paired_dp(6, 4)


def test_efficient_sets_exist_exactly_when_expected():
    for n, m in [(4, 4), (4, 8), (8, 8), (12, 4)]:
        found = find_efficient_tds(n, m)
        assert found is not None
        assert len(found) == n * m // 4
        assert is_efficient_total(make_torus(n, m), found)
    for n, m in [(5, 4), (3, 3), (6, 6), (7, 4), (5, 5)]:
        assert find_efficient_tds(n, m) is None


def test_efficient_march_width_cap():
    with pytest.raises(InstanceTooLargeError):
        find_efficient_tds(12, 9)


def test_efficient_sets_on_every_side_from_3_to_12():
    # the answers of the former row march, which looked for these sets alone
    for n in range(3, 13):
        for m in range(3, 13):
            if (n * m) % 4 == 0 and min(n, m) > 8:
                with pytest.raises(InstanceTooLargeError):
                    find_efficient_tds(n, m)
                continue
            found = find_efficient_tds(n, m)
            if n % 4 == 0 and m % 4 == 0:
                assert found is not None, (n, m)
                assert len(found) == n * m // 4
                assert is_efficient_total(make_torus(n, m), found)
            else:
                assert found is None, (n, m)


def test_solve_within_reach_answers_as_solve_does():
    answered = 0
    for kind in (PLAIN, TOTAL, PAIRED):
        for n in range(3, 13):
            for m in range(3, 9):
                try:
                    bounded = solve_within_reach(n, m, kind)
                except InstanceTooLargeError:
                    continue
                answered += 1
                res = solve(n, m, kind)
                expected = (res.value, res.method, res.certificate.mask)
                assert (bounded.value, bounded.method, bounded.certificate.mask) == expected
    assert answered == 180 - 65  # table leaves 65 of these cells blank


def test_the_catalog_witness_has_the_catalogs_size_on_the_dps_domain():
    # the sandwich is decided by the catalog's number and certified by the
    # witness, and the DP's seeds are capped by that number, so the two must
    # agree wherever the DP runs
    for kind, widest in ((TOTAL, 8), (PAIRED, 6)):
        for width in range(3, widest + 1):
            for length in range(3, 31):
                for n, m in ((length, width), (width, length)):
                    built = len(best_upper_witness(n, m, kind).vertex_set)
                    assert built == upper_bounds(n, m, kind).best_upper(), (n, m, kind)


def test_a_witness_is_built_only_where_its_set_may_be_the_answer(monkeypatch):
    def refuse(n, m, kind):
        raise RuntimeError(f"witness built for {kind.value} {n}x{m}")

    monkeypatch.setattr(importlib.import_module("torusdom.solve"), "best_upper_witness", refuse)
    assert solve(12, 5, PLAIN).method is SolveMethod.PROFILE_DP
    assert solve(12, 5, TOTAL).method is SolveMethod.PROFILE_DP
    assert solve(7, 5, PAIRED, "dp").method is SolveMethod.PROFILE_DP
    with pytest.raises(InstanceTooLargeError, match="DP width limit"):
        solve_within_reach(8, 6, TOTAL)
    # the sandwich certificate and the pair search's incumbent are witnesses
    for n, m, kind in ((8, 8, TOTAL), (7, 7, PAIRED)):
        with pytest.raises(RuntimeError, match=f"witness built for {kind.value} {n}x{m}"):
            solve(n, m, kind)


def _brute_total_sets(n, m, max_size):
    g = make_torus(n, m)
    out = set()
    for k in range(1, max_size + 1):
        for combo in itertools.combinations(range(g.dims.order), k):
            d = VertexSet.from_slots(g.dims, combo)
            if is_total_dominating(g, d):
                out.add(d.mask)
    return out


@pytest.mark.parametrize("n,m,cap", [(3, 3, 5), (3, 4, 5)])
def test_enumeration_is_complete_and_duplicate_free(n, m, cap):
    got = list(enumerate_total_dominating_sets(n, m, cap))
    masks = [d.mask for d in got]
    assert len(masks) == len(set(masks))
    assert set(masks) == _brute_total_sets(n, m, cap)
    g = make_torus(n, m)
    for d in got:
        assert is_total_dominating(g, d)
        assert len(d) <= cap


def test_enumeration_below_minimum_is_empty():
    assert list(enumerate_total_dominating_sets(3, 3, 2)) == []


def test_block_excision_property_on_eight_rows():
    # Every total dominating set of size <= 9 meets each band of four
    # consecutive rows in at least 4 vertices; bands whose vertices are
    # all dominated exactly once can be excised without losing totality.
    from torusdom.torus import BlockRange, excise_block, map_set
    from torusdom.validate import domination_multiplicity

    g = make_torus(8, 4)
    dims = g.dims
    band = {
        i: [dims.slot(dims.wrap(i + di, j)) for di in range(4) for j in range(1, 5)]
        for i in range(1, 9)
    }
    excisions = {i: excise_block(g, BlockRange(i, 4)) for i in range(1, 9)}
    sets = applicable = 0
    for d in enumerate_total_dominating_sets(8, 4, 9):
        sets += 1
        counts = domination_multiplicity(g, d)
        for i in range(1, 9):
            inside = sum(1 for s in band[i] if d.mask >> s & 1)
            assert inside >= 4, (i, d.pairs())
            if all(counts[s] == 1 for s in band[i]):
                applicable += 1
                small, ring_map = excisions[i]
                mask = 0
                for s in band[i]:
                    mask |= 1 << s
                moved = map_set(VertexSet(dims, d.mask & ~mask), small, ring_map)
                assert is_total_dominating(small, moved), (i, d.pairs())
    assert sets == 656
    assert applicable == 896


def _least_rotation_vertex_by_vertex(res):
    """The rotation `canonical` picks, as first written: every rotation
    built vertex by vertex and keyed by its slot list."""
    vs = res.certificate
    dims = vs.dims
    rotations = (
        VertexSet.from_vertices(dims, (tuple(dims.wrap(v.i + di, v.j + dj)) for v in vs))
        for di in range(dims.n)
        for dj in range(dims.m)
    )
    return min(rotations, key=lambda d: [s for s in range(dims.order) if d.mask >> s & 1])


@pytest.mark.parametrize(
    "n, m, kind", [(7, 4, PAIRED), (12, 8, TOTAL), (8, 12, TOTAL), (9, 7, PLAIN)]
)
def test_canonical_rotation_matches_the_vertex_by_vertex_choice(n, m, kind):
    res = solve(n, m, kind)
    assert res.certificate.dims.order > ORACLE_CAP  # so a rotation is chosen
    assert canonical(res).certificate == _least_rotation_vertex_by_vertex(res)


def test_canonical_checks_the_rotation_it_picks(monkeypatch):
    res = solve(7, 4, PAIRED)
    monkeypatch.setattr(VertexSet, "rotated", lambda self, di, dj: VertexSet(self.dims, 1))
    with pytest.raises(CertificateError, match="paired certificate"):
        canonical(res)


def test_canonical_rotation_of_a_large_grid_takes_under_a_second():
    res = solve(64, 64, TOTAL)
    t0 = time.perf_counter()
    least = canonical(res).certificate
    assert time.perf_counter() - t0 < 1.0
    assert least.mask & 1 and len(least) == res.value
    assert satisfies(make_torus(64, 64), least, TOTAL)
