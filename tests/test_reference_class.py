import dataclasses
import logging
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import corpus
from conftest import make_observations
from refclass.contingency import DEFAULT_TIER_SCHEME, tier_allocation
from refclass.errors import InsufficientDataError, NonMonotoneCurveError
from refclass.normalization import DEFAULT_ERA_CUTOFF, derive_all_observations
from refclass.reference_class import (
    ClassFilter,
    QuantileMethod,
    ReferenceClass,
    UpliftCurve,
    build_class,
    default_probability_grid,
    isotonic_adjust,
    require_monotone,
    smooth_curve,
    trend_by_date,
    uplift_curve,
)
from refclass.registry import MAX_GRID_STEP, Metric, Stage, parse_deflator_series, parse_project_records


def test_build_class_table2_size(table2_class):
    assert table2_class.n == 18
    assert table2_class.values == tuple(sorted(corpus.TABLE2_VALUES))
    assert [o.project_id for o in table2_class.entries] == list(corpus.TABLE2_IDS)


def test_build_class_filters_stage():
    observations = (
        make_observations([0.1, 0.2], stage=Stage.A)
        + make_observations([0.9], stage=Stage.B)
    )
    cls = build_class(observations, ClassFilter(stage=Stage.A, metric=Metric.COST))
    assert cls.values == (0.1, 0.2)


def test_build_class_outturn_threshold_is_inclusive():
    observations = make_observations([0.1], outturn=100_000) + make_observations(
        [0.9], ids=["small"], outturn=99_999
    )
    cls = build_class(observations, ClassFilter(stage=Stage.C, metric=Metric.COST))
    assert cls.values == (0.1,)


def test_build_class_pre_era_excluded_by_default():
    observations = make_observations([0.1]) + make_observations(
        [0.9], ids=["old"], pre_era=True
    )
    default_filter = ClassFilter(stage=Stage.C, metric=Metric.COST)
    assert build_class(observations, default_filter).values == (0.1,)
    keep_all = ClassFilter(stage=Stage.C, metric=Metric.COST, exclude_pre_era=False)
    assert build_class(observations, keep_all).values == (0.1, 0.9)


def test_build_class_empty_is_flagged(caplog):
    observations = make_observations([0.5], pre_era=True)
    with caplog.at_level(logging.WARNING):
        cls = build_class(observations, ClassFilter(stage=Stage.C, metric=Metric.COST))
    assert cls.is_empty
    assert any("empty" in message for message in caplog.messages)


def test_smooth_curve_attaches_band(table2_class):
    raw = uplift_curve(table2_class, default_probability_grid(), QuantileMethod.INTERPOLATED)
    smoothed = smooth_curve(raw)
    assert smoothed.smoothed is not None
    assert len(smoothed.smoothed) == len(raw.points)
    for (_, fit, lo, hi) in smoothed.smoothed:
        assert lo <= fit <= hi
    assert smoothed.monotone  # default span keeps the fit ordered on this data


def test_smooth_curve_can_go_non_monotone_and_adjustment_repairs_it():
    reference = ReferenceClass.from_values([0.0, 0.0, 0.0, 0.0, 0.0, 2.0])
    raw = uplift_curve(reference, default_probability_grid(), QuantileMethod.INTERPOLATED)
    wiggly = smooth_curve(raw, span=0.2, degree=2)
    assert not wiggly.monotone
    with pytest.raises(NonMonotoneCurveError):
        require_monotone(wiggly)

    repaired = isotonic_adjust(wiggly)
    assert repaired.monotone
    require_monotone(repaired)
    fits = [fit for _, fit, _, _ in repaired.smoothed]
    assert all(a <= b + 1e-12 for a, b in zip(fits, fits[1:]))
    for (_, fit, lo, hi) in repaired.smoothed:
        assert lo <= fit <= hi


def test_monotone_is_read_from_the_served_series():
    # Built without a flag, a decreasing curve once claimed to be monotone
    # and tier_allocation handed out a negative tranche.
    points = ((0.55, 0.4), (0.6, 0.2), (0.8, 0.3))
    decreasing = UpliftCurve(points=points, method=QuantileMethod.INTERPOLATED)
    assert not decreasing.monotone
    with pytest.raises(NonMonotoneCurveError):
        tier_allocation(100, decreasing, DEFAULT_TIER_SCHEME)
    with pytest.raises(TypeError):
        UpliftCurve(points=points, method=QuantileMethod.INTERPOLATED, monotone=True)
    # A fit, when there is one, is what is served.
    ordered_fit = tuple((p, 0.1 * i, 0.0, 1.0) for i, (p, _) in enumerate(points))
    assert dataclasses.replace(decreasing, smoothed=ordered_fit).monotone
    assert isotonic_adjust(smooth_curve(decreasing, span=1.0, degree=1)).monotone


@given(
    values=st.lists(st.floats(min_value=-0.9, max_value=5, allow_nan=False), min_size=1, max_size=40),
    step=st.floats(min_value=0.001, max_value=MAX_GRID_STEP),
    method=st.sampled_from(QuantileMethod),
)
def test_raw_uplift_curve_is_monotone(values, step, method):
    curve = uplift_curve(ReferenceClass.from_values(values), default_probability_grid(step), method)
    assert curve.monotone


def test_value_at_the_lower_edge_of_the_domain_returns_the_first_point():
    curve = UpliftCurve(points=((0.3, 0.1), (0.5, 0.2)), method=QuantileMethod.INTERPOLATED)
    p = 0.3 - 1e-9
    assert 0.3 - p > 1e-9  # inside the domain, yet no tolerance match
    assert curve.value_at(p) == 0.1


def test_isotonic_adjust_keeps_monotone_fit(table2_class):
    raw = uplift_curve(table2_class, default_probability_grid(), QuantileMethod.INTERPOLATED)
    smoothed = smooth_curve(raw)
    adjusted = isotonic_adjust(smoothed)
    before = [fit for _, fit, _, _ in smoothed.smoothed]
    after = [fit for _, fit, _, _ in adjusted.smoothed]
    assert after == pytest.approx(before, abs=1e-12)


def test_value_at_nodes_and_between(table2_class):
    raw = uplift_curve(table2_class, (0.5, 0.8), QuantileMethod.INTERPOLATED)
    assert raw.value_at(0.5) == pytest.approx(0.16)
    assert raw.value_at(0.8) == pytest.approx(0.454)
    midway = raw.value_at(0.65)
    assert midway == pytest.approx((0.16 + 0.454) / 2)
    with pytest.raises(ValueError):
        raw.value_at(0.2)
    with pytest.raises(ValueError):
        raw.value_at(0.95)


def test_trend_constant_observations_is_flat():
    dated = [
        dataclasses.replace(
            make_observations([0.25], ids=[f"c{i}"])[0],
            reference_date=date(1990 + i, 1, 1),
            pre_era=date(1990 + i, 1, 1) < DEFAULT_ERA_CUTOFF,
        )
        for i in range(8)
    ]
    trend, shift = trend_by_date(dated)
    for point in trend:
        assert point.fit == pytest.approx(0.25, abs=1e-9)
    assert shift.mean_before == pytest.approx(0.25)
    assert shift.mean_after == pytest.approx(0.25)


def test_trend_step_change_detected():
    observations = []
    for value, first, prefix in ((0.5, date(1988, 1, 1), "b"), (0.0, date(1995, 1, 1), "a")):
        for i in range(10):
            (obs,) = make_observations([value], ids=[f"{prefix}{i}"])
            reference_date = first + timedelta(days=120 * i)
            observations.append(dataclasses.replace(
                obs, reference_date=reference_date, pre_era=reference_date < DEFAULT_ERA_CUTOFF
            ))
    trend, shift = trend_by_date(observations)
    assert shift.n_before == 10
    assert shift.n_after == 10
    assert shift.mean_before == pytest.approx(0.5)
    assert shift.mean_after == pytest.approx(0.0)
    assert shift.test is not None
    assert shift.test.p_value < 0.01
    assert len(trend) == 20


def test_trend_splits_on_the_era_flag_the_class_filter_reads():
    # On the shipped data, 3 B/cost projects are pre-era by their Category C
    # date, though only 1 has its B estimate dated before the cutoff.
    data = Path(__file__).resolve().parent.parent / "data"
    with open(data / "projects.csv", newline="") as projects, open(data / "deflators.csv", newline="") as deflators:
        observations = derive_all_observations(parse_project_records(projects), parse_deflator_series(deflators))
    reference = build_class(observations, ClassFilter(Stage.B, Metric.COST, exclude_pre_era=False))
    _, shift = trend_by_date(reference.entries)
    pre_era = sum(o.pre_era for o in reference.entries)
    assert (shift.n_before, shift.n_after) == (pre_era, reference.n - pre_era) == (3, 19)


def test_trend_requires_four_observations():
    observations = make_observations([0.1, 0.2, 0.3])
    with pytest.raises(InsufficientDataError):
        trend_by_date(observations)
