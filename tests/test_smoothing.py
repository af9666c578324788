import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from refclass import smoothing
from refclass.smoothing import loess_smooth, pool_adjacent_violators


def isotonic_minimax(values):
    """Independent oracle: x*_i = max_{j<=i} min_{k>=i} mean(values[j..k])."""

    n = len(values)
    out = []
    for i in range(n):
        best = -np.inf
        for j in range(i + 1):
            inner = min(
                sum(values[j : k + 1]) / (k + 1 - j) for k in range(i, n)
            )
            best = max(best, inner)
        out.append(best)
    return out


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("span", [0.3, 0.5, 0.75, 1.0])
def test_loess_exact_on_line(degree, span):
    xs = [0.0, 0.7, 1.1, 2.4, 3.0, 4.2, 5.5, 6.1, 7.8, 9.0]
    points = [(x, 2 * x + 1) for x in xs]
    for x, fit, lo, hi in loess_smooth(points, span=span, degree=degree):
        assert fit == pytest.approx(2 * x + 1, abs=1e-9)
        assert lo <= fit <= hi


@pytest.mark.parametrize("span", [0.4, 0.75, 1.0])
def test_loess_exact_on_quadratic(span):
    points = [(float(x), float(x * x)) for x in range(11)]
    for x, fit, lo, hi in loess_smooth(points, span=span, degree=2):
        assert fit == pytest.approx(x * x, abs=1e-9)


def test_loess_constant_data_zero_width_band():
    points = [(float(x), 3.5) for x in range(8)]
    for x, fit, lo, hi in loess_smooth(points, degree=1):
        assert fit == pytest.approx(3.5, abs=1e-12)
        assert hi - lo == pytest.approx(0.0, abs=1e-9)


def test_loess_degenerate_window_falls_back_to_mean():
    points = [(1.0, 0.0), (1.0, 1.0), (1.0, 2.0), (1.0, 3.0)]
    for _, fit, _, _ in loess_smooth(points, degree=1, span=1.0):
        assert fit == pytest.approx(1.5)


def test_loess_output_sorted_regardless_of_input_order():
    points = [(3.0, 9.0), (0.0, 0.0), (2.0, 4.0), (4.0, 16.0), (1.0, 1.0)]
    result = loess_smooth(points, span=1.0, degree=2)
    assert [x for x, *_ in result] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_loess_parameter_validation():
    from refclass.errors import InsufficientDataError

    points = [(float(x), float(x)) for x in range(6)]
    with pytest.raises(ValueError):
        loess_smooth(points, degree=3)
    with pytest.raises(ValueError):
        loess_smooth(points, span=0.0)
    with pytest.raises(ValueError):
        loess_smooth(points, span=1.2)
    with pytest.raises(InsufficientDataError):
        loess_smooth(points[:3], degree=2)


# Reference dates drawn from a few days, so x repeats heavily and windows
# often end inside a run of equal x.
tied_points = st.integers(1, 8).flatmap(
    lambda days: st.lists(
        st.tuples(
            st.integers(0, days).map(lambda day: 1990.0 + day / 365.0),
            st.floats(min_value=-1.0, max_value=3.0),
        ),
        min_size=4,
        max_size=60,
    )
)
spans = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
degrees = st.sampled_from([1, 2])


@settings(deadline=None)
@given(points=tied_points, span=spans, degree=degrees)
def test_loess_windows_match_stable_argsort(points, span, degree):
    x = sorted(px for px, _ in points)
    size = min(len(x), max(math.ceil(span * len(x)), degree + 2))
    expected = oracles.loess_windows(x, size)
    bounds, _ = smoothing._windows(x, range(len(x)), size)
    windows = [frozenset(row.tolist()) for row in smoothing._window_index(bounds, size)]
    assert windows == expected
    # Scanning only the first point of each run of equal x finds the same windows.
    heads = [i for i in range(len(x)) if i == 0 or x[i] != x[i - 1]]
    bounds, _ = smoothing._windows(x, heads, size)
    windows = [frozenset(row.tolist()) for row in smoothing._window_index(bounds, size)]
    assert windows == [expected[i] for i in heads]


@settings(deadline=None)
@given(points=tied_points, span=spans, degree=degrees)
def test_loess_power_sums_match_dense_hat_oracle(points, span, degree):
    expected = oracles.loess_smooth(points, span=span, degree=degree)
    with mock.patch.object(smoothing, "_DIRECT_MAX_POINTS", 0):
        result = loess_smooth(points, span=span, degree=degree)
    assert len(result) == len(expected)
    for row, want in zip(result, expected):
        assert row == pytest.approx(want, rel=1e-9, abs=1e-9)


@settings(deadline=None)
@given(points=tied_points, span=spans, degree=degrees)
def test_loess_direct_path_is_bit_identical_to_dense_hat_oracle(points, span, degree):
    assert loess_smooth(points, span=span, degree=degree) == oracles.loess_smooth(
        points, span=span, degree=degree
    )


@settings(deadline=None)
@given(points=tied_points, span=spans, degree=degrees)
def test_loess_one_fit_per_distinct_x_is_bit_identical_to_per_point_fits(points, span, degree):
    with mock.patch.object(smoothing, "_DIRECT_MAX_POINTS", 0):
        result = loess_smooth(points, span=span, degree=degree)
    assert result == oracles.loess_smooth_per_point(points, span=span, degree=degree)


# Classes above the direct path's size, dated on a few hundred days.
dated_points = st.integers(1, 400).flatmap(
    lambda days: st.lists(
        st.tuples(
            st.integers(0, days).map(lambda day: 1990.0 + day / 365.0),
            st.floats(min_value=-1.0, max_value=3.0),
        ),
        min_size=smoothing._DIRECT_MAX_POINTS + 1,
        max_size=400,
    )
)
# 150 equal x then 59 spread: the tie block outgrows the window (d_max = 0,
# and the points past the window get hat diagonal 0).
_LONG_TIE_BLOCK = [(1990.0, float(i % 7)) for i in range(150)] + [
    (1990.5 + i / 20.0, float(i)) for i in range(59)
]
_ALL_DISTINCT = [(1990.0 + i / 365.0, math.sin(i)) for i in range(200)]


@settings(deadline=None)
@given(points=dated_points, span=spans, degree=degrees)
@example(points=_LONG_TIE_BLOCK, span=0.05, degree=2)
@example(points=_LONG_TIE_BLOCK, span=0.3, degree=1)
@example(points=_ALL_DISTINCT, span=0.3, degree=2)
def test_loess_large_dated_classes_are_bit_identical_to_per_point_fits(points, span, degree):
    assert loess_smooth(points, span=span, degree=degree) == oracles.loess_smooth_per_point(
        points, span=span, degree=degree
    )


def test_loess_rank_deficient_windows_take_pinv_fallback():
    # Only the points sharing x_i have positive weight (the other x sits at
    # the window's edge distance), so no window supports a quadratic.
    points = [(0.0, float(i)) for i in range(5)] + [(1.0, float(i * i)) for i in range(5)]
    x = np.array(sorted(px for px, _ in points))
    rows = np.arange(len(points))
    bounds, reach = smoothing._windows(x.tolist(), rows, len(points))
    *_, solved = smoothing._power_sum_fits(x, x, rows, bounds, reach, len(points), 2)
    assert not solved.any()
    with mock.patch.object(smoothing, "_DIRECT_MAX_POINTS", 0):
        result = loess_smooth(points, span=1.0, degree=2)
    assert result == oracles.loess_smooth(points, span=1.0, degree=2)


def test_loess_memory_stays_linear_in_points():
    # A dense n x n hat matrix, and its elementwise square, would need
    # 2 * 5000^2 * 8 bytes = 400 MB.
    rng = np.random.default_rng(11)
    points = list(zip(rng.uniform(1989, 1997, 5000).tolist(), rng.normal(0, 0.3, 5000).tolist()))
    tracemalloc.start()
    try:
        loess_smooth(points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_pav_pools_single_violation():
    assert pool_adjacent_violators([1.0, 3.0, 2.0]) == pytest.approx([1.0, 2.5, 2.5])


def test_pav_decreasing_collapses_to_mean():
    assert pool_adjacent_violators([3.0, 2.0, 1.0]) == pytest.approx([2.0, 2.0, 2.0])


def test_pav_monotone_input_unchanged():
    values = [-0.5, -0.1, 0.0, 0.0, 0.3, 1.2]
    assert pool_adjacent_violators(values) == pytest.approx(values)


def test_pav_respects_weights():
    result = pool_adjacent_violators([3.0, 1.0], weights=[1.0, 3.0])
    assert result == pytest.approx([1.5, 1.5])


def test_pav_matches_minimax_formula_on_seeded_sequences():
    rng = np.random.default_rng(4711)
    for _ in range(20):
        values = rng.normal(0, 1, size=6).tolist()
        assert pool_adjacent_violators(values) == pytest.approx(
            isotonic_minimax(values), abs=1e-6
        )


@given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=25))
def test_pav_output_non_decreasing_and_mean_preserving(values):
    result = pool_adjacent_violators(values)
    assert all(a <= b + 1e-12 for a, b in zip(result, result[1:]))
    assert sum(result) == pytest.approx(sum(values), rel=1e-9, abs=1e-9)


@given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=25))
def test_pav_idempotent(values):
    once = pool_adjacent_violators(values)
    twice = pool_adjacent_violators(once)
    assert twice == pytest.approx(once, rel=1e-12, abs=1e-12)
