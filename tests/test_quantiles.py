import itertools

import pytest
from hypothesis import example, given, strategies as st

import corpus
import oracles
from refclass.contingency import portfolio_pool
from refclass.errors import EmptyClassError
from refclass.reference_class import (
    QuantileMethod,
    ReferenceClass,
    default_probability_grid,
    empirical_quantile,
    required_certainty,
    uplift,
    uplift_curve,
)

INF = QuantileMethod.INF
INTERP = QuantileMethod.INTERPOLATED

SORTED_18 = tuple(sorted(corpus.TABLE2_VALUES))


def ecdf_scan(values, p):
    """Independent oracle: smallest sample value whose ECDF reaches p."""

    ordered = sorted(values)
    n = len(ordered)
    for k, x in enumerate(ordered, start=1):
        if k / n >= p:
            return x
    return ordered[-1]


@example(n=340, p=0.55)  # 340 * 0.55 rounds up to 187.00000000000003
@given(
    n=st.integers(1, 5000),
    p=st.integers(1, 100).map(lambda k: k / 100)
    | st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
def test_inf_direct_index_matches_scan(n, p):
    values = tuple(range(n))
    assert empirical_quantile(values, p, INF) == oracles.empirical_quantile_scan(values, p, INF)


def test_interpolated_median_of_18():
    assert empirical_quantile(SORTED_18, 0.5, INTERP) == pytest.approx(0.16)


def test_interpolated_p80_of_18():
    # h = 17 * 0.8 + 1 = 14.6, between order statistics +0.43 and +0.47
    assert empirical_quantile(SORTED_18, 0.8, INTERP) == pytest.approx(0.454)


def test_inf_p80_of_18_is_sample_member():
    result = empirical_quantile(SORTED_18, 0.8, INF)
    assert result == 0.47
    assert result in SORTED_18


def test_inf_median_of_18():
    assert empirical_quantile(SORTED_18, 0.5, INF) == 0.14


def test_single_value_any_p():
    for p in (0.01, 0.5, 0.8, 1.0):
        assert empirical_quantile((0.1,), p, INF) == 0.1
        assert empirical_quantile((0.1,), p, INTERP) == 0.1


def test_empty_sample_rejected():
    with pytest.raises(EmptyClassError):
        empirical_quantile((), 0.5, INF)


def test_every_uplift_of_an_empty_class_is_refused():
    # rank_position refuses n = 0, and every quantile is read where it says.
    empty = ReferenceClass.from_values([])
    for read in (
        lambda: uplift(empty, 0.5),
        lambda: required_certainty(empty, 0.1),
        lambda: uplift_curve(empty, default_probability_grid()),
        lambda: portfolio_pool([100], empty, 0.5, 0.8),
    ):
        with pytest.raises(EmptyClassError):
            read()


@pytest.mark.parametrize("p", [0.0, -0.2, 1.0001])
def test_out_of_range_p_rejected(p):
    with pytest.raises(ValueError):
        empirical_quantile((1.0, 2.0), p, INTERP)


def test_inf_matches_ecdf_scan_on_small_subsets():
    pool = (-0.52, -0.33, -0.07, 0.01, 0.14, 0.18, 0.31, 0.43, 0.52, 0.68)
    grid = [round(0.05 * i, 2) for i in range(1, 21)]
    for size in range(1, 5):
        for subset in itertools.combinations(pool, size):
            ordered = sorted(subset)
            for p in grid:
                assert empirical_quantile(ordered, p, INF) == ecdf_scan(subset, p)


@given(
    values=st.lists(st.floats(min_value=-0.9, max_value=5, allow_nan=False), min_size=1, max_size=30),
    p=st.floats(min_value=0.001, max_value=1.0),
)
def test_interpolated_stays_inside_range(values, p):
    ordered = sorted(values)
    result = empirical_quantile(ordered, p, INTERP)
    assert ordered[0] <= result <= ordered[-1]


@given(
    values=st.lists(st.floats(min_value=-0.9, max_value=5, allow_nan=False), min_size=1, max_size=30),
)
def test_both_methods_monotone_in_p(values):
    ordered = sorted(values)
    grid = [i / 20 for i in range(1, 21)]
    for method in (INF, INTERP):
        outputs = [empirical_quantile(ordered, p, method) for p in grid]
        assert all(a <= b for a, b in zip(outputs, outputs[1:]))


@given(
    values=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=15
    ),
    a=st.floats(min_value=0.01, max_value=50),
    b=st.floats(min_value=-100, max_value=100),
    p=st.floats(min_value=0.01, max_value=1.0),
)
def test_affine_equivariance(values, a, b, p):
    ordered = sorted(values)
    mapped = sorted(a * v + b for v in values)
    for method in (INF, INTERP):
        direct = empirical_quantile(mapped, p, method)
        pushed = a * empirical_quantile(ordered, p, method) + b
        assert direct == pytest.approx(pushed, rel=1e-9, abs=1e-9)


def test_uplift_leave_out_6736(table2_class):
    values = [v for i, v in zip(corpus.TABLE2_IDS, corpus.TABLE2_VALUES) if i != "6736"]
    reduced = ReferenceClass.from_values(values)
    assert uplift(reduced, 0.5) == pytest.approx(0.18)


def test_uplift_leave_out_6757_p80():
    values = [v for i, v in zip(corpus.TABLE2_IDS, corpus.TABLE2_VALUES) if i != "6757"]
    reduced = ReferenceClass.from_values(values)
    assert uplift(reduced, 0.8) == pytest.approx(0.408)


def test_uplift_of_identical_values():
    reference = ReferenceClass.from_values([0.25] * 7)
    for p in (0.05, 0.5, 0.95, 1.0):
        assert uplift(reference, p, INF) == 0.25
        assert uplift(reference, p, INTERP) == 0.25


def test_required_certainty_at_maximum(table2_class):
    assert required_certainty(table2_class, max(corpus.TABLE2_VALUES)) == 1.0


def test_required_certainty_below_minimum(table2_class):
    assert required_certainty(table2_class, -0.99) == 0.0


def test_required_certainty_inverts_median(table2_class):
    assert required_certainty(table2_class, 0.16) == pytest.approx(0.50)


def test_curve_matches_pointwise_uplift(table2_class):
    curve = uplift_curve(table2_class, (0.5, 0.8), INTERP)
    assert curve.points[0] == (0.5, pytest.approx(0.16))
    assert curve.points[1] == (0.8, pytest.approx(0.454))
    for p, value in curve.points:
        assert value == uplift(table2_class, p, INTERP)


def test_curve_single_point_class_is_constant():
    reference = ReferenceClass.from_values([0.3])
    curve = uplift_curve(reference, default_probability_grid(), INTERP)
    assert all(value == 0.3 for _, value in curve.points)


def test_curve_at_p1_is_maximum(table2_class):
    curve = uplift_curve(table2_class, (1.0,), INF)
    assert curve.points == ((1.0, max(corpus.TABLE2_VALUES)),)


def test_default_grid_shape():
    grid = default_probability_grid()
    assert len(grid) == 100
    assert grid[0] == pytest.approx(0.01)
    assert grid[-2] == pytest.approx(0.99)
    assert grid[-1] == 1.0
    coarse = default_probability_grid(0.25)
    assert coarse == (0.25, 0.5, 0.75, 1.0)
