import math
import random
import threading
import tracemalloc
from datetime import date, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from refclass import smoothing
from refclass.normalization import OverrunObservation
from refclass.reference_class import trend_by_date
from refclass.registry import Metric, Stage
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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("axis", [0, 1])
def test_loess_rejects_non_finite_points(bad, axis):
    # Unchecked, one inf y makes every band NaN: 0 weight times inf is NaN.
    points = [(float(i), float(i % 3)) for i in range(200)]
    points[50] = (bad, 1.0) if axis == 0 else (50.0, bad)
    with pytest.raises(ValueError, match="finite"):
        loess_smooth(points, span=0.3)


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


@pytest.mark.parametrize("degree", [1.0, 2.0, True])
def test_loess_rejects_a_float_degree(degree):
    from refclass.reference_class import QuantileMethod, UpliftCurve, smooth_curve

    points = [(x / 10, float(x)) for x in range(1, 7)]
    message = f"degree must be 1 or 2, got {degree}"
    with pytest.raises(ValueError, match=message):
        loess_smooth(points, degree=degree)
    with pytest.raises(ValueError, match=message):
        smooth_curve(UpliftCurve(points=tuple(points), method=QuantileMethod.INTERPOLATED), degree=degree)


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


@given(points=tied_points, span=spans, degree=degrees)
def test_loess_windows_match_stable_argsort(points, span, degree):
    x = np.array(sorted(px for px, _ in points))
    size = min(len(x), max(math.ceil(span * len(x)), degree + 2))
    expected = oracles.loess_windows(x, size)
    heads = [i for i in range(len(x)) if i == 0 or x[i] != x[i - 1]]
    # Every point's row, and the rows of only the first point of each run of
    # equal x, hold the points of its window nearer than the reach, at the
    # same offsets, and fill the rest of the row with points at the reach
    # (so as many as the window has), which carry weight 0.
    for rows in (range(len(x)), heads):
        starts, reach = smoothing._windows(x.tolist(), rows, size)
        for i, start, d in zip(rows, starts, reach):
            distance = np.abs(x - x[i])
            window = sorted(expected[i])
            row = range(start, start + size)
            assert 0 <= start and start + size <= len(x)
            assert d == distance[window].max()
            assert [(k, j) for k, j in enumerate(row) if distance[j] < d] == [
                (k, j) for k, j in enumerate(window) if distance[j] < d
            ]
            assert all(distance[j] == d for j in row if not distance[j] < d)


@given(points=tied_points, span=spans, degree=degrees)
def test_loess_power_sums_match_dense_hat_oracle(points, span, degree):
    expected = oracles.loess_smooth(points, span=span, degree=degree)
    with mock.patch.object(smoothing, "_DIRECT_MAX_POINTS", 0):
        result = loess_smooth(points, span=span, degree=degree)
    assert len(result) == len(expected)
    for row, want in zip(result, expected):
        assert row == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(points=tied_points, span=spans, degree=degrees)
def test_loess_direct_path_is_bit_identical_to_dense_hat_oracle(points, span, degree):
    assert loess_smooth(points, span=span, degree=degree) == oracles.loess_smooth(
        points, span=span, degree=degree
    )


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


@given(points=dated_points, span=spans, degree=degrees)
@example(points=_LONG_TIE_BLOCK, span=0.05, degree=2)
@example(points=_LONG_TIE_BLOCK, span=0.3, degree=1)
@example(points=_ALL_DISTINCT, span=0.3, degree=2)
def test_loess_large_dated_classes_are_bit_identical_to_per_point_fits(points, span, degree):
    assert loess_smooth(points, span=span, degree=degree) == oracles.loess_smooth_per_point(
        points, span=span, degree=degree
    )


# Dates spread over up to 60 days, so most fits have enough distinct x to
# fill several blocks of a few rows.
spread_points = st.integers(10, 60).flatmap(
    lambda days: st.lists(
        st.tuples(
            st.integers(0, days).map(lambda day: 1990.0 + day / 365.0),
            st.floats(min_value=-1.0, max_value=3.0),
        ),
        min_size=4,
        max_size=80,
    )
)


# One row per block, and a few rows per block (windows here hold at most 80 points).
@pytest.mark.parametrize("block_entries", [1, 1 << 9])
@given(points=spread_points, span=spans, degree=degrees)
@example(points=_ALL_DISTINCT, span=0.3, degree=2)
@example(points=_LONG_TIE_BLOCK, span=0.05, degree=2)
def test_loess_block_boundaries_leave_fits_bit_identical(block_entries, points, span, degree):
    expected = oracles.loess_smooth_per_point(points, span=span, degree=degree)
    with mock.patch.multiple(smoothing, _DIRECT_MAX_POINTS=0, _BLOCK_ENTRIES=block_entries):
        assert loess_smooth(points, span=span, degree=degree) == expected


def test_large_fits_start_no_thread():
    rng = random.Random(5)
    observations = [
        OverrunObservation(
            project_id=f"p{i:04d}",
            stage=Stage.C,
            metric=Metric.COST,
            value=rng.gauss(0.2, 0.3),
            reference_date=date(1989, 1, 1) + timedelta(days=rng.randrange(8 * 365)),
            pre_era=False,
            outturn_nominal=500_000,
        )
        for i in range(1200)
    ]
    with mock.patch.object(threading.Thread, "start", side_effect=AssertionError("thread started")):
        trend, _ = trend_by_date(observations)
    assert len(trend) == len(observations)


def test_trend_year_fractions_match_per_date_conversion():
    first, last = date(1899, 1, 1), date(2101, 12, 31)
    days = [first + timedelta(days=k) for k in range((last - first).days + 1)]
    observations = [
        OverrunObservation(f"p{k:05d}", Stage.C, Metric.COST, 0.0, day, False, 500_000)
        for k, day in enumerate(days)
    ]
    seen = []

    def fit(x, y, span, degree):
        seen.extend(x)
        return np.zeros(len(x)), np.zeros(len(x)), np.zeros(len(x))

    with mock.patch.object(smoothing, "_loess_sorted", side_effect=fit):
        trend_by_date(observations)
    assert seen == [oracles._year_fraction(day) for day in days]


# Observations over 1 to 400 days from late 1991, so the dates cross into a
# leap year, with the cutoff anywhere from the first day to just past the
# last. Up to 400 observations: the direct fit and the power sums.
_TREND_START = date(1991, 11, 15)
dated_observations = st.integers(1, 400).flatmap(
    lambda days: st.tuples(
        st.lists(
            st.tuples(
                st.integers(0, days),
                st.integers(-5, 5).map(lambda k: k / 10) | st.floats(min_value=-0.9, max_value=3.0),
            ),
            min_size=4,
            max_size=400,
        ),
        st.integers(0, days + 1).map(lambda day: _TREND_START + timedelta(days=day)),
    )
)


# 300 observations on 200 days, split at day 100 and at the first day.
_TREND_TIES = [((37 * k) % 200, (k % 11) / 10) for k in range(300)]


@given(drawn=dated_observations, span=spans, degree=degrees)
@example(drawn=(_TREND_TIES, _TREND_START + timedelta(days=100)), span=0.3, degree=2)
@example(drawn=(_TREND_TIES, _TREND_START), span=0.75, degree=1)
def test_trend_by_date_equals_public_loess_path(drawn, span, degree):
    offsets, cutoff = drawn
    # Ids out of input order, so same-day observations are reordered. The
    # era flags follow the dates, so the flag split is the date split.
    observations = []
    for k, (day, value) in enumerate(offsets):
        reference_date = _TREND_START + timedelta(days=day)
        observations.append(OverrunObservation(f"p{(7 * k) % 401:03d}", Stage.C, Metric.COST, value,
                                               reference_date, reference_date < cutoff, 500_000))
    assert trend_by_date(observations, span, degree) == oracles.trend_by_date(
        observations, cutoff, span, degree
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
