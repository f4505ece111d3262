import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from torusdom.cli import main
from torusdom.construct import (
    best_upper_witness,
    construct_base_tile,
    construct_bound_pattern,
    construct_m3,
    construct_m4,
    construct_mod4,
    project_column,
)
from torusdom.errors import (
    CertificateError,
    CongruenceError,
    ConstructionInvalidError,
    InvalidDimensionsError,
    InvalidInputError,
)
from torusdom.formulas import gamma_p_m3, gamma_t_m3, gamma_tp_m4, upper_bounds
from torusdom.torus import VertexSet, make_torus
from torusdom.validate import (
    DominationKind,
    is_total_dominating,
    satisfies,
)

TOTAL = DominationKind.TOTAL
PAIRED = DominationKind.PAIRED


def _valid(res):
    g = make_torus(res.vertex_set.dims.n, res.vertex_set.dims.m)
    assert len(res.vertex_set) == res.claimed_cardinality
    assert satisfies(g, res.vertex_set, res.kind)
    return res


def test_block_tiling_eight_by_four():
    res = _valid(construct_mod4(8, 4))
    assert res.vertex_set.pairs() == [
        (1, 1), (1, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 3), (7, 4),
    ]
    assert res.claimed_cardinality == 8
    assert res.provenance == "block-tiling"


def test_block_tiling_needs_both_sides_mod_four():
    for n, m in [(5, 4), (4, 5), (6, 8), (12, 13)]:
        with pytest.raises(CongruenceError):
            construct_mod4(n, m)


def test_block_tiling_sweep_meets_degree_bound():
    for n in (4, 8, 12, 16):
        for m in (4, 8, 12):
            res = _valid(construct_mod4(n, m))
            assert res.claimed_cardinality == n * m // 4


def test_width3_band_nine_rows():
    res = _valid(construct_m3(9, TOTAL))
    assert res.vertex_set.pairs() == [
        (1, 2), (2, 2), (4, 1), (4, 3), (6, 2), (7, 2), (9, 1), (9, 3),
    ]
    assert construct_m3(9, PAIRED).vertex_set == res.vertex_set


def test_width3_band_sweep_matches_closed_forms():
    for n in range(3, 22):
        t = _valid(construct_m3(n, TOTAL))
        assert t.claimed_cardinality == gamma_t_m3(n)
        assert t.provenance == "band-m3-total"
        p = _valid(construct_m3(n, PAIRED))
        assert p.claimed_cardinality == gamma_p_m3(n)
        assert p.provenance == "band-m3-paired"


def test_width3_band_rejects_plain_kind():
    with pytest.raises(InvalidInputError):
        construct_m3(7, DominationKind.PLAIN)


def test_width4_rail_seven_rows():
    res = _valid(construct_m4(7))
    assert res.vertex_set.pairs() == [
        (1, 1), (1, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 3), (7, 4),
    ]
    assert res.claimed_cardinality == 8
    assert res.kind is PAIRED


def test_width4_rail_sweep_matches_closed_form():
    for n in range(3, 22):
        res = _valid(construct_m4(n))
        assert res.claimed_cardinality == gamma_tp_m4(n)
        g = make_torus(n, 4)
        assert is_total_dominating(g, res.vertex_set)


def test_base_tile_five_by_five():
    tile = construct_base_tile(5, 5)
    assert tile.pairs() == [(1, 1), (1, 2), (3, 3), (3, 4)]


def test_base_tile_nine_by_five():
    tile = construct_base_tile(9, 5)
    assert tile.pairs() == [
        (1, 1), (1, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 3), (7, 4),
    ]


def test_base_tile_wraps_on_narrow_remainder():
    tile = construct_base_tile(5, 7)
    assert tile.pairs() == [
        (1, 1), (1, 2), (1, 5), (1, 6), (3, 1), (3, 3), (3, 4), (3, 7),
    ]


def test_base_tile_needs_sides_of_five():
    with pytest.raises(InvalidDimensionsError):
        construct_base_tile(4, 5)
    with pytest.raises(InvalidDimensionsError):
        construct_base_tile(5, 4)


def test_row_extended_pattern():
    for kind in (TOTAL, PAIRED):
        res = _valid(construct_bound_pattern(5, 8, kind))
        assert res.claimed_cardinality == 12
        assert res.provenance == "row-extended"
    flipped = _valid(construct_bound_pattern(8, 5, PAIRED))
    assert flipped.claimed_cardinality == 12
    assert flipped.provenance == "row-extended"


def test_corner_extended_total_but_not_paired():
    res = _valid(construct_bound_pattern(5, 5, TOTAL))
    assert res.claimed_cardinality == 9
    assert res.provenance == "corner-extended-total"
    paired = _valid(construct_bound_pattern(5, 5, PAIRED))
    assert paired.claimed_cardinality == 10
    assert paired.provenance == "corner-extended-paired"


def test_corner_trimmed_total_but_not_paired():
    res = _valid(construct_bound_pattern(7, 5, TOTAL))
    assert res.claimed_cardinality == 9
    assert res.provenance == "corner-trimmed-total"
    paired = _valid(construct_bound_pattern(7, 5, PAIRED))
    assert paired.claimed_cardinality == 10
    assert paired.provenance == "corner-trimmed-paired"


def test_projected_corner_pattern():
    res = _valid(construct_bound_pattern(6, 5, TOTAL))
    assert res.claimed_cardinality == 9
    assert res.provenance == "corner-trimmed-projected"
    paired = _valid(construct_bound_pattern(6, 5, PAIRED))
    assert paired.claimed_cardinality == 10
    assert paired.provenance == "corner-trimmed-projected"


@pytest.mark.parametrize("kind", [TOTAL, PAIRED])
@pytest.mark.parametrize("n, m", [(22, 21), (26, 25)])
def test_projected_corner_pattern_folds_to_its_transpose(n, m, kind):
    # one (1, 2)-class entry serves both orientations, beyond the witness
    # pin's sides 3..20
    res, flipped = construct_bound_pattern(n, m, kind), construct_bound_pattern(m, n, kind)
    assert res.provenance == "corner-trimmed-projected"
    assert flipped.vertex_set == res.vertex_set.transposed()
    assert (flipped.provenance, flipped.claimed_cardinality, len(flipped.vertex_set)) == (
        res.provenance, res.claimed_cardinality, len(res.vertex_set),
    )


# residues {n % 4, m % 4} -> (paired family, its catalog tag)
_CORNER_PAIRED = {
    frozenset({1}): ("corner-extended-paired", "upper:corner-extended"),
    frozenset({1, 3}): ("corner-trimmed-paired", "upper:corner-trimmed"),
    frozenset({1, 2}): ("corner-trimmed-projected", "upper:corner-trimmed-projected"),
}


def test_corner_paired_families_meet_catalog_bounds():
    # beyond the acceptance sweep's sides, and held to the catalog's
    # numbers rather than to each builder's own claim
    checked = 0
    for n in range(22, 42):
        for m in range(22, 42):
            family = _CORNER_PAIRED.get(frozenset({n % 4, m % 4}))
            if family is None:
                continue
            prov, tag = family
            catalog = {t: v for v, t in upper_bounds(n, m, PAIRED).upper_bounds}
            res = construct_bound_pattern(n, m, PAIRED)
            assert res.provenance == prov, f"{n}x{m}"
            assert len(res.vertex_set) == catalog[tag], f"{n}x{m}"
            assert satisfies(make_torus(n, m), res.vertex_set, PAIRED), f"{n}x{m}"
            checked += 1
    assert checked == 125


def test_wrap_braided_pattern():
    res = _valid(construct_bound_pattern(6, 6, PAIRED))
    assert res.claimed_cardinality == 10
    assert res.provenance == "wrap-braided"
    assert _valid(construct_bound_pattern(6, 6, TOTAL)).claimed_cardinality == 10
    big = _valid(construct_bound_pattern(10, 10, PAIRED))
    assert big.claimed_cardinality == 30


def test_bound_pattern_mod4_shortcut_rebadges_kind():
    res = _valid(construct_bound_pattern(8, 8, TOTAL))
    assert res.provenance == "block-tiling"
    assert res.kind is TOTAL
    assert res.claimed_cardinality == 16


def test_bound_pattern_falls_back_to_cascade():
    res = _valid(construct_bound_pattern(6, 7, PAIRED))
    assert res.provenance == "projection-cascade"
    assert res.claimed_cardinality <= 4 * 2 * 2


def test_bound_pattern_input_checks():
    with pytest.raises(InvalidDimensionsError):
        construct_bound_pattern(4, 6, TOTAL)
    with pytest.raises(InvalidInputError):
        construct_bound_pattern(6, 6, DominationKind.PLAIN)


def test_bound_pattern_cascade_bound_sweep():
    for n in range(5, 14):
        for m in range(5, 14):
            for kind in (TOTAL, PAIRED):
                try:
                    res = _valid(construct_bound_pattern(n, m, kind))
                except ConstructionInvalidError:
                    continue
                quota = 4 * ((n + 3) // 4) * ((m + 3) // 4)
                assert res.claimed_cardinality <= quota


def _last_two_rows(d):
    """The rungs of d's members in its grid's last row (A), the row a
    projection removes, and in the row above it (B)."""
    n = d.dims.n
    return frozenset(v.j for v in d if v.i == n), frozenset(v.j for v in d if v.i == n - 1)


def test_projection_moves_last_row_inward():
    src = construct_m4(7).vertex_set
    out, added = project_column(make_torus(7, 4), src, PAIRED)
    assert out.pairs() == [
        (1, 1), (1, 2), (3, 3), (3, 4), (5, 1), (5, 2), (6, 3), (6, 4),
    ]
    assert _last_two_rows(src) == (frozenset({3, 4}), frozenset())
    assert not added
    assert satisfies(make_torus(6, 4), out, PAIRED)


def _clear_cascade_steps():
    """Empty the cache that keeps projection steps from call to call, so
    the next cascade or corner projection builds each of its steps afresh."""
    importlib.import_module("torusdom.construct")._kept_projection.cache_clear()


def test_projection_checks_raise_certificate_errors(monkeypatch):
    # a projection that loses domination is a bug: it raises CertificateError,
    # which best_upper_witness does not swallow, and not an assert
    module = importlib.import_module("torusdom.construct")
    _clear_cascade_steps()
    monkeypatch.setattr(module, "is_total_dominating", lambda g, d: False)
    with pytest.raises(CertificateError, match="projection to 6x4"):
        project_column(make_torus(7, 4), construct_m4(7).vertex_set, PAIRED)
    _clear_cascade_steps()
    monkeypatch.setattr(module, "satisfies", lambda g, d, kind: g.dims.n == 8)
    with pytest.raises(CertificateError, match="projection to 7x8"):
        best_upper_witness(7, 8, TOTAL)


def test_a_step_that_raises_is_not_kept(monkeypatch):
    # the step from 8x8 to 7x8 fails its output check on every call until
    # the check is mended, and then builds what a cold cascade builds
    module = importlib.import_module("torusdom.construct")
    _clear_cascade_steps()
    monkeypatch.setattr(module, "satisfies", lambda g, d, kind: g.dims.n == 8)
    for _ in range(2):
        with pytest.raises(CertificateError, match="projection to 7x8"):
            best_upper_witness(7, 8, TOTAL)
    monkeypatch.undo()
    res = best_upper_witness(7, 8, TOTAL)
    assert res.provenance == "projection-cascade"
    assert res.vertex_set == _cold_cascade(7, 8, TOTAL)


def _cold_cascade(n, m, kind):
    """The cascade's set built step by step with no kept steps: the block
    tiling rounded up to sides = 0 (mod 4), projected a row at a time to n
    rows, transposed, projected to m columns and transposed back."""
    big_n, big_m = 4 * ((n + 3) // 4), 4 * ((m + 3) // 4)
    d = construct_mod4(big_n, big_m).vertex_set
    for k in range(big_n, n, -1):
        d, _ = project_column(make_torus(k, big_m), d, kind)
    d = d.transposed()
    for k in range(big_m, m, -1):
        d, _ = project_column(make_torus(k, n), d, kind)
    return d.transposed()


@pytest.mark.parametrize("step", [1, -1], ids=["ascending", "descending"])
def test_kept_cascade_steps_build_what_a_cold_cascade_builds(step):
    # grids that round up to one tiling share steps; walking them both ways
    # reads each shared prefix from either side
    module = importlib.import_module("torusdom.construct")
    grids = [(n, m) for n in range(5, 17) for m in range(5, 17)][::step]
    _clear_cascade_steps()
    for n, m in grids:
        for kind in (TOTAL, PAIRED):
            res = module._projection_cascade(n, m, kind)
            assert res.vertex_set == _cold_cascade(n, m, kind), (n, m, kind)
    assert module._kept_projection.cache_info().hits > 0


def test_a_table_shares_cascade_steps_across_its_cells(monkeypatch, capsys):
    # 3..12 x 3..8 rounds its 30 cascade cells up to 8x8 and 12x8, which
    # share their steps: 33 projections where one cascade per cell made 100.
    # The 6x5 and 5x6 cells share one projection of the corner-trimmed 7x5
    # pattern to 6x5, so no projection repeats
    module = importlib.import_module("torusdom.construct")
    real, steps = module.project_column, []

    def counting(g, d, kind):
        steps.append((g.dims, d.mask, kind))
        return real(g, d, kind)

    monkeypatch.setattr(module, "project_column", counting)
    _clear_cascade_steps()
    assert main(["table", "--n", "3..12", "--m", "3..8", "--kind", "paired"]) == 0
    capsys.readouterr()
    assert (len(steps), len(set(steps))) == (33, 33)


def test_construction_checks_run_under_optimize(tmp_path):
    # python -O strips asserts; the projection check must still stop construct
    code = (
        "import sys, torusdom.construct as c\n"
        "from torusdom.cli import main\n"
        "c.satisfies = lambda g, d, kind: g.dims.n == 8\n"
        "sys.exit(main(['construct', '--n', '7', '--m', '8', '--kind', 'total']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1
    assert "projection to 7x8 lost total domination" in run.stderr


def test_projection_with_empty_last_row_is_identity():
    g = make_torus(6, 3)
    d = VertexSet.from_vertices(
        g.dims, [(1, 1), (1, 2), (1, 3), (4, 1), (4, 2), (4, 3)]
    )
    out, added = project_column(g, d, TOTAL)
    assert out.pairs() == d.pairs()
    assert _last_two_rows(d)[0] == frozenset()
    assert not added


def test_projection_chain_from_block_tiling():
    d = construct_mod4(8, 8).vertex_set
    d1, _ = project_column(make_torus(8, 8), d, PAIRED)
    assert len(d1) == 16 and _last_two_rows(d)[0] == frozenset()
    d2, _ = project_column(make_torus(7, 8), d1, PAIRED)
    assert _last_two_rows(d1)[0] == frozenset({3, 4, 7, 8})
    assert len(d2) == 16
    assert satisfies(make_torus(6, 8), d2, PAIRED)


def test_projection_input_checks():
    g = make_torus(6, 4)
    with pytest.raises(InvalidInputError):
        project_column(g, VertexSet(g.dims), TOTAL)
    with pytest.raises(InvalidInputError):
        project_column(g, construct_m4(6).vertex_set, DominationKind.PLAIN)
    g3 = make_torus(3, 5)
    full = VertexSet.from_slots(g3.dims, range(15))
    with pytest.raises(InvalidDimensionsError):
        project_column(g3, full, TOTAL)


def _random_valid_set(rng, g, kind):
    order = g.dims.order
    while True:
        k = rng.randrange(order * 2 // 3, order + 1)
        if kind is PAIRED and k % 2:
            k = k - 1 if k > 1 else k + 1
        d = VertexSet.from_slots(g.dims, rng.sample(range(order), min(k, order)))
        if satisfies(g, d, kind):
            return d


def test_projection_preserves_kind_on_random_inputs():
    rng = random.Random(90125)
    for n1, m in [(6, 3), (7, 3), (6, 4)]:
        g = make_torus(n1, m)
        small_g = make_torus(n1 - 1, m)
        for kind in (TOTAL, PAIRED):
            for _ in range(25):
                d = _random_valid_set(rng, g, kind)
                out, _ = project_column(g, d, kind)
                assert satisfies(small_g, out, kind)
                assert len(out) <= len(d)


def test_projection_moves_the_last_row_like_the_coordinate_rule(monkeypatch):
    # the mask move step against the rule written on coordinates: members of
    # the removed row go to the row below, or one further where it is taken;
    # a paired projection's moved set is what reaches the matching repair
    module = importlib.import_module("torusdom.construct")
    real, repaired = module._repair_matching, []

    def spy(g, d, budget):
        repaired.append(d)
        return real(g, d, budget)

    monkeypatch.setattr(module, "_repair_matching", spy)
    rng = random.Random(1965)
    for n1 in range(6, 10):
        for m in range(3, 8):
            g = make_torus(n1, m)
            n = n1 - 1
            for kind in (TOTAL, PAIRED):
                for _ in range(6):
                    d = _random_valid_set(rng, g, kind)
                    A, B = _last_two_rows(d)
                    moved = {tuple(v) for v in d if v.i <= n}
                    moved |= {(n - 1, j) for j in A & B} | {(n, j) for j in A - B}
                    expect = VertexSet.from_vertices(make_torus(n, m).dims, moved)
                    repaired.clear()
                    out, _ = project_column(g, d, kind)
                    if kind is PAIRED and A:
                        assert repaired == [expect], (n1, m, d.pairs())
                    else:
                        assert (out, repaired) == (expect, []), (n1, m, kind, d.pairs())


def test_projection_repair_stays_within_collapsed_budget():
    # On pattern inputs the repair never needs more vertices than the
    # removed row contained.
    for n1 in range(4, 14):
        d = construct_m3(n1, PAIRED).vertex_set
        _, added = project_column(make_torus(n1, 3), d, PAIRED)
        assert len(added) <= len(_last_two_rows(d)[0])
        d = construct_m4(n1).vertex_set
        _, added = project_column(make_torus(n1, 4), d, PAIRED)
        assert len(added) <= len(_last_two_rows(d)[0])


def test_best_upper_witness_catalog():
    expect = {
        (5, 5, TOTAL): (9, "corner-extended-total"),
        (5, 5, PAIRED): (10, "corner-extended-paired"),
        (6, 6, PAIRED): (10, "wrap-braided"),
        (10, 3, PAIRED): (8, "band-m3-paired"),
        (3, 10, PAIRED): (8, "band-m3-paired"),
        (7, 5, TOTAL): (9, "corner-trimmed-total"),
        (6, 5, TOTAL): (9, "corner-trimmed-projected"),
        (12, 4, TOTAL): (12, "block-tiling"),
    }
    for (n, m, kind), (size, prov) in expect.items():
        res = best_upper_witness(n, m, kind)
        assert (res.claimed_cardinality, res.provenance) == (size, prov)
        assert res.kind is kind
        assert satisfies(make_torus(n, m), res.vertex_set, kind)


def test_best_upper_witness_always_validates():
    for n in range(3, 10):
        for m in range(3, 10):
            for kind in (TOTAL, PAIRED):
                res = best_upper_witness(n, m, kind)
                assert satisfies(make_torus(n, m), res.vertex_set, kind)
                assert len(res.vertex_set) == res.claimed_cardinality


def test_best_upper_witness_matches_the_recorded_witnesses():
    # [n, m, kind, provenance, size, sha256 of the hex mask] for every n, m in
    # 3..20, recorded before the projection step moved to slot masks
    path = Path(__file__).parent / "data" / "witnesses.json"
    for n, m, kind, provenance, size, digest in json.loads(path.read_text()):
        res = best_upper_witness(n, m, DominationKind(kind))
        got = hashlib.sha256(format(res.vertex_set.mask, "x").encode()).hexdigest()
        assert (res.provenance, res.claimed_cardinality, got) == (provenance, size, digest), (
            n, m, kind,
        )


FAMILY_BUILDERS = (
    "construct_m3", "construct_m4", "construct_mod4", "construct_bound_pattern",
    "_projection_cascade",
)


def test_best_upper_witness_builds_each_family_once(monkeypatch):
    module = importlib.import_module("torusdom.construct")
    calls = []

    def counting(name, real):
        def build(*args):
            calls.append((name, args))
            return real(*args)
        return build

    for name in FAMILY_BUILDERS:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for n in range(3, 17):
        for m in range(3, 17):
            for kind in (TOTAL, PAIRED):
                calls.clear()
                best_upper_witness(n, m, kind)
                assert len(calls) == len(set(calls)), (n, m, kind, calls)


def test_best_upper_witness_is_the_least_family_built_directly():
    module = importlib.import_module("torusdom.construct")
    for n in range(3, 17):
        for m in range(3, 17):
            for kind in (TOTAL, PAIRED):
                builds = []
                if m == 3:
                    builds.append(lambda: construct_m3(n, kind))
                if n == 3:
                    builds.append(lambda: module._transposed(construct_m3(m, kind)))
                if m == 4:
                    builds.append(lambda: construct_m4(n))
                if n == 4:
                    builds.append(lambda: module._transposed(construct_m4(m)))
                if n % 4 == 0 and m % 4 == 0:
                    builds.append(lambda: construct_mod4(n, m))
                if n >= 5 and m >= 5:
                    builds.append(lambda: construct_bound_pattern(n, m, kind))
                    builds.append(lambda: module._projection_cascade(n, m, kind))
                direct = []
                for build in builds:
                    try:
                        res = build()
                    except ConstructionInvalidError:
                        continue
                    direct.append((res.claimed_cardinality, res.provenance, res.vertex_set))
                got = best_upper_witness(n, m, kind)
                assert got.kind is kind
                assert (got.claimed_cardinality, got.provenance, got.vertex_set) == min(
                    direct, key=lambda t: t[:2]
                ), (n, m, kind)


def test_best_upper_witness_rejects_plain():
    with pytest.raises(InvalidInputError):
        best_upper_witness(5, 5, DominationKind.PLAIN)
