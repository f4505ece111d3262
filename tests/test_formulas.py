import pytest

from torusdom.errors import InvalidDimensionsError, InvalidInputError
from torusdom.formulas import (
    gamma_p_m3,
    gamma_t_m3,
    gamma_tp_m4,
    known_value,
    lower_bound_paired,
    lower_bound_regular,
    upper_bounds,
)
from torusdom.validate import DominationKind

PLAIN = DominationKind.PLAIN
TOTAL = DominationKind.TOTAL
PAIRED = DominationKind.PAIRED

# Exhaustive-search values for width-3 and width-4 grids (small lengths
# re-derived independently in test_solve).
M3_TOTAL = {3: 3, 4: 4, 5: 4, 6: 5, 7: 6, 8: 7, 9: 8, 10: 8, 11: 9, 12: 10, 13: 11}
M3_PAIRED = {3: 4, 4: 4, 5: 4, 6: 6, 7: 6, 8: 8, 9: 8, 10: 8, 11: 10, 12: 10, 13: 12}
M4_BOTH = {3: 4, 4: 4, 5: 6, 6: 8, 7: 8, 8: 8, 9: 10, 10: 12}


def test_width3_total_table():
    for n, value in M3_TOTAL.items():
        assert gamma_t_m3(n) == value


def test_width3_paired_table():
    for n, value in M3_PAIRED.items():
        assert gamma_p_m3(n) == value


def test_width4_table():
    for n, value in M4_BOTH.items():
        assert gamma_tp_m4(n) == value


def test_formulas_reject_thin_sides():
    for f in (gamma_t_m3, gamma_p_m3, gamma_tp_m4):
        with pytest.raises(InvalidDimensionsError):
            f(2)


def test_paired_values_are_even():
    for n in range(3, 41):
        assert gamma_p_m3(n) % 2 == 0
        assert gamma_tp_m4(n) % 2 == 0


def test_paired_never_below_total():
    for n in range(3, 41):
        assert gamma_p_m3(n) >= gamma_t_m3(n)


def test_known_value_closed_forms():
    assert known_value(7, 4, TOTAL) == 8
    assert known_value(3, 9, PAIRED) == 8
    assert known_value(4, 8, TOTAL) == 8
    assert known_value(8, 8, PAIRED) == 16
    assert known_value(12, 16, TOTAL) == 48
    assert known_value(3, 3, TOTAL) == 3
    assert known_value(3, 4, TOTAL) == 4


def test_known_value_gaps():
    assert known_value(5, 5, TOTAL) is None
    assert known_value(6, 7, PAIRED) is None
    assert known_value(5, 5, PLAIN) is None
    assert known_value(8, 4, PLAIN) is None


def test_known_value_is_symmetric():
    for n, m in [(3, 7), (4, 9), (8, 12), (3, 4)]:
        for kind in (TOTAL, PAIRED):
            assert known_value(n, m, kind) == known_value(m, n, kind)


def test_lower_bound_examples():
    assert lower_bound_regular(8, 4) == 8
    assert lower_bound_regular(3, 3) == 3
    assert lower_bound_regular(5, 5) == 7
    assert lower_bound_regular(7, 5) == 9


def test_paired_lower_bound_rounds_up_to_even():
    for n in range(3, 12):
        for m in range(3, 12):
            lo = lower_bound_regular(n, m)
            assert lower_bound_paired(n, m) == lo + lo % 2
    assert lower_bound_paired(5, 5) == 8
    assert lower_bound_paired(8, 4) == 8


def test_upper_bounds_five_by_five_paired():
    report = upper_bounds(5, 5, PAIRED)
    assert report.lower_bound == 7
    assert report.exact is None
    assert (10, "upper:corner-extended") in report.upper_bounds
    assert (16, "upper:rounded-tiling") in report.upper_bounds
    assert report.best_upper() == 10


def test_upper_bounds_corner_trimmed_class():
    report = upper_bounds(7, 5, TOTAL)
    assert (9, "upper:corner-trimmed") in report.upper_bounds
    assert report.best_upper() == 9
    paired = upper_bounds(7, 5, PAIRED)
    assert (10, "upper:corner-trimmed") in paired.upper_bounds


def test_upper_bounds_projected_class():
    report = upper_bounds(6, 5, PAIRED)
    assert (10, "upper:corner-trimmed-projected") in report.upper_bounds
    assert report.best_upper() == 10


def test_upper_bounds_wrap_braided_class():
    report = upper_bounds(6, 6, PAIRED)
    assert (10, "upper:wrap-braided") in report.upper_bounds
    assert report.best_upper() == 10


def test_upper_bounds_closed_form_dominates():
    report = upper_bounds(10, 3, PAIRED)
    assert report.exact == 8
    assert (8, "upper:closed-form") in report.upper_bounds
    assert report.best_upper() == 8


def test_upper_bounds_plain_uses_fifth_lower_bound():
    report = upper_bounds(5, 5, PLAIN)
    assert report.lower_bound == 5
    assert report.exact is None
    assert report.best_upper() == 9


def test_upper_bounds_reject_bad_kind():
    with pytest.raises(InvalidInputError):
        upper_bounds(5, 5, "paired")


def test_upper_bounds_sweep_is_coherent():
    for n in range(3, 13):
        for m in range(3, 13):
            for kind in (PLAIN, TOTAL, PAIRED):
                report = upper_bounds(n, m, kind)
                values = [v for v, _ in report.upper_bounds]
                assert values == sorted(values)
                assert report.lower_bound <= report.best_upper()
                assert all(tag.startswith("upper:") for _, tag in report.upper_bounds)
                if report.exact is not None:
                    assert report.lower_bound <= report.exact <= report.best_upper()
