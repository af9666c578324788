import io
import math
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from refclass.errors import DeflatorCoverageError
from refclass.normalization import (
    DISBURSEMENT_PROFILE_PERCENTS,
    cost_overrun,
    derive_all_observations,
    derive_observations,
    disbursement_profile,
    renormalize_profile,
    schedule_overrun,
    spread_outturn,
    to_constant_prices,
)
from refclass.registry import (
    DeflatorSeries,
    Metric,
    ProjectRecord,
    Stage,
    StageEstimate,
    construction_period,
    has_cost_data,
    parse_deflator_series,
    stage_availability,
)

# The published yearly spending shares, as integer percentages. Rows for
# 4- and 6-year projects sum to 101 and the 10-year row to 99; they are
# stored verbatim and renormalized only at the point of use.
PUBLISHED_PROFILES = {
    1: (100,),
    2: (49, 51),
    3: (17, 65, 18),
    4: (9, 40, 42, 10),
    5: (6, 22, 43, 23, 6),
    6: (4, 13, 32, 33, 14, 5),
    7: (3, 8, 21, 32, 23, 9, 4),
    8: (3, 4, 10, 20, 25, 20, 11, 7),
    9: (3, 4, 10, 20, 25, 20, 11, 4, 3),
    10: (2, 3, 7, 14, 21, 22, 15, 8, 4, 3),
}


def flat_series(start=1995, end=2005):
    text = "year,index\n" + "".join(f"{y},100\n" for y in range(start, end + 1))
    return parse_deflator_series(io.StringIO(text))


def test_profile_constants_are_bit_exact():
    assert DISBURSEMENT_PROFILE_PERCENTS == PUBLISHED_PROFILES


def test_profile_row_sums():
    for years, shares in DISBURSEMENT_PROFILE_PERCENTS.items():
        expected = {4: 101, 6: 101, 10: 99}.get(years, 100)
        assert sum(shares) == expected


@pytest.mark.parametrize(
    "years, expected",
    [(3, (17.0, 65.0, 18.0)), (1, (100.0,)), (5, (6.0, 22.0, 43.0, 23.0, 6.0))],
)
def test_profile_lookup(years, expected):
    profile = disbursement_profile(years)
    assert profile.duration_years == years
    assert profile.shares == expected


@pytest.mark.parametrize("years", [0, 11, -3])
def test_profile_lookup_out_of_range(years):
    with pytest.raises(ValueError):
        disbursement_profile(years)


def test_renormalize_exact_row_unchanged():
    profile = renormalize_profile(disbursement_profile(3))
    assert profile.shares == pytest.approx((0.17, 0.65, 0.18), abs=1e-12)
    assert profile.is_normalized


@pytest.mark.parametrize("years, published_sum", [(4, 101), (10, 99)])
def test_renormalize_scales_off_sum_rows(years, published_sum):
    raw = disbursement_profile(years)
    scaled = renormalize_profile(raw)
    for raw_share, share in zip(raw.shares, scaled.shares):
        assert share == pytest.approx(raw_share / published_sum, rel=1e-12)
    assert math.fsum(scaled.shares) == pytest.approx(1.0, abs=1e-9)


def test_renormalize_rejects_zero_profile():
    from refclass.normalization import DisbursementProfile

    with pytest.raises(ValueError):
        renormalize_profile(DisbursementProfile(2, (0.0, 0.0)))


def test_spread_single_year():
    profile = renormalize_profile(disbursement_profile(1))
    assert spread_outturn(100, 2000, profile) == {2000: pytest.approx(100.0)}


def test_spread_three_year_row():
    profile = renormalize_profile(disbursement_profile(3))
    spread = spread_outturn(100, 2000, profile)
    assert spread == {
        2000: pytest.approx(17.0),
        2001: pytest.approx(65.0),
        2002: pytest.approx(18.0),
    }


def test_spread_two_year_row():
    profile = renormalize_profile(disbursement_profile(2))
    spread = spread_outturn(200, 1999, profile)
    assert spread == {1999: pytest.approx(98.0), 2000: pytest.approx(102.0)}


def test_spread_requires_normalized_profile():
    with pytest.raises(ValueError):
        spread_outturn(100, 2000, disbursement_profile(3))


@given(
    total=st.floats(min_value=1, max_value=1e9),
    years=st.integers(min_value=1, max_value=10),
)
def test_spread_conserves_total(total, years):
    profile = renormalize_profile(disbursement_profile(years))
    spread = spread_outturn(total, 2000, profile)
    assert len(spread) == years
    assert math.fsum(spread.values()) == pytest.approx(total, rel=1e-9)


def test_constant_prices_flat_series_is_identity():
    series = flat_series()
    amounts = {1999: 40.0, 2000: 35.0, 2001: 25.0}
    assert to_constant_prices(amounts, series, 2000) == pytest.approx(100.0)


def test_constant_prices_single_term():
    series = parse_deflator_series(io.StringIO("year,index\n1999,0.5\n2000,1.0\n"))
    assert to_constant_prices({2000: 100.0}, series, 1999) == pytest.approx(50.0)


def test_constant_prices_two_terms():
    series = parse_deflator_series(io.StringIO("year,index\n2000,1.0\n2001,1.1\n"))
    result = to_constant_prices({2000: 100.0, 2001: 100.0}, series, 2000)
    assert result == pytest.approx(100.0 + 100.0 / 1.1)


def test_constant_prices_uncovered_year():
    series = flat_series(2000, 2002)
    with pytest.raises(DeflatorCoverageError, match="1998"):
        to_constant_prices({1998: 5.0}, series, 2000)


@given(
    amounts=st.dictionaries(
        st.integers(min_value=1995, max_value=2005),
        st.floats(min_value=0, max_value=1e6),
        min_size=1,
    ),
    scale=st.floats(min_value=0.01, max_value=100),
    target=st.integers(min_value=1995, max_value=2005),
)
def test_constant_prices_invariant_under_index_scaling(amounts, scale, target):
    rates = {y: 1.0 + 0.03 * (y - 1995) for y in range(1995, 2006)}
    base = DeflatorSeries.from_pairs(list(rates.items()))
    scaled = DeflatorSeries.from_pairs([(y, v * scale) for y, v in rates.items()])
    a = to_constant_prices(amounts, base, target)
    b = to_constant_prices(amounts, scaled, target)
    assert b == pytest.approx(a, rel=1e-9)


def test_cost_overrun_examples():
    assert cost_overrun(100, 100) == 0.0
    assert cost_overrun(153, 100) == pytest.approx(0.53)
    assert cost_overrun(100, 200) == pytest.approx(-0.5)


def test_cost_overrun_rejects_non_positive():
    with pytest.raises(ValueError):
        cost_overrun(100, 0)
    with pytest.raises(ValueError):
        cost_overrun(-1, 100)


def test_schedule_overrun_examples():
    assert schedule_overrun(date(2000, 1, 1), date(2001, 1, 1), date(2001, 1, 1)) == 0.0
    assert schedule_overrun(
        date(1990, 1, 1), date(1995, 1, 1), date(1997, 7, 2)
    ) == pytest.approx(0.50, abs=1e-12)
    assert schedule_overrun(
        date(2000, 1, 1), date(2002, 1, 1), date(2001, 1, 1)
    ) == pytest.approx(-0.50, abs=1e-3)


def test_schedule_overrun_rejects_non_positive_durations():
    with pytest.raises(ValueError):
        schedule_overrun(date(2000, 1, 1), date(2000, 1, 1), date(2001, 1, 1))
    with pytest.raises(ValueError):
        schedule_overrun(date(2000, 1, 1), date(2001, 1, 1), date(1999, 1, 1))


def _record_single_stage(stage: Stage, base=100, outturn=113, price_year=2000):
    return ProjectRecord(
        id="n1",
        stages={
            stage: StageEstimate(
                upgrade_date=date(2000, 1, 1),
                base=base,
                contingency=0,
                approved=base,
                price_level_year=price_year,
            )
        },
        construction_start=date(2000, 3, 1),
        actual_completion=date(2001, 9, 30),
        outturn_nominal=outturn,
        disbursements={2001: outturn},
    )


def test_derive_only_stage_a_yields_one_cost_observation():
    record = _record_single_stage(Stage.A)
    observations = derive_observations(record, flat_series())
    cost = [o for o in observations if o.metric is Metric.COST]
    assert len(cost) == 1
    assert cost[0].stage is Stage.A


def test_derive_flat_deflators_gives_plain_ratio():
    record = _record_single_stage(Stage.C, base=100, outturn=113)
    observations = derive_observations(record, flat_series())
    cost = [o for o in observations if o.metric is Metric.COST]
    assert len(cost) == 1
    assert cost[0].value == pytest.approx(0.13)
    assert cost[0].reference_date == date(2000, 1, 1)
    assert not cost[0].pre_era


def test_derive_marks_pre_era():
    record = ProjectRecord(
        id="n2",
        stages={
            Stage.C: StageEstimate(
                upgrade_date=date(1991, 5, 1),
                base=100,
                contingency=0,
                approved=100,
                price_level_year=1995,
            )
        },
        construction_start=date(1995, 3, 1),
        actual_completion=date(1996, 9, 30),
        outturn_nominal=120,
        disbursements={1996: 120},
    )
    observations = derive_observations(record, flat_series(1990, 2000))
    assert observations and all(o.pre_era for o in observations)


def test_derive_uses_profile_when_disbursements_missing():
    # Two construction years; without recorded disbursements the outturn is
    # spread 49/51, and a rising deflator then shifts the constant-price sum.
    record = ProjectRecord(
        id="n3",
        stages={
            Stage.C: StageEstimate(
                upgrade_date=date(2000, 1, 1),
                base=100,
                contingency=0,
                approved=100,
                price_level_year=2000,
            )
        },
        construction_start=date(2001, 1, 1),
        actual_completion=date(2002, 12, 20),
        outturn_nominal=200,
        disbursements=None,
    )
    series = parse_deflator_series(
        io.StringIO("year,index\n2000,1.0\n2001,1.0\n2002,2.0\n")
    )
    observations = derive_observations(record, series)
    cost = [o for o in observations if o.metric is Metric.COST]
    assert len(cost) == 1
    expected_constant = 200 * 0.49 / 1.0 + 200 * 0.51 / 2.0
    assert cost[0].value == pytest.approx(expected_constant / 100 - 1)


def test_derive_skips_stages_without_data():
    record = ProjectRecord(
        id="n4",
        stages={Stage.B: StageEstimate(upgrade_date=date(2000, 1, 1))},
        construction_start=None,
        actual_completion=date(2001, 1, 1),
        outturn_nominal=100,
        disbursements=None,
    )
    assert derive_observations(record, flat_series()) == []


def test_zero_length_construction_has_no_cost_data():
    # No disbursements, and construction ends the day it starts: there is no
    # period to spread the outturn over, so no stage counts as having cost data.
    record = ProjectRecord(
        id="n5",
        stages={
            Stage.C: StageEstimate(
                upgrade_date=date(2000, 1, 1), base=100, contingency=0, approved=100, price_level_year=2000
            )
        },
        construction_start=date(2001, 6, 1),
        actual_completion=date(2001, 6, 1),
        outturn_nominal=120,
        disbursements=None,
    )
    assert construction_period(record) is None
    assert not has_cost_data(record, Stage.C)
    assert stage_availability([record])[(Stage.C, Metric.COST)] == 0
    assert [o for o in derive_observations(record, flat_series()) if o.metric is Metric.COST] == []


# Dates drawn from a few fixed days as well, so that equal start and
# completion dates turn up.
_days = st.sampled_from([date(1996, 1, 1), date(1998, 7, 1), date(2000, 1, 1), date(2003, 6, 30)]) | st.dates(
    date(1995, 1, 1), date(2004, 12, 31)
)
_amounts = st.none() | st.integers(min_value=-5, max_value=10**6)
_price_years = st.integers(min_value=1995, max_value=2005)
_registry_records = st.builds(
    ProjectRecord,
    id=st.just("r"),
    stages=st.fixed_dictionaries(
        {
            stage: st.builds(
                StageEstimate,
                upgrade_date=st.none() | _days,
                base=_amounts,
                planned_completion=st.none() | _days,
                price_level_year=st.none() | _price_years,
            )
            for stage in Stage
        }
    ),
    construction_start=st.none() | _days,
    actual_completion=st.none() | _days,
    outturn_nominal=_amounts,
    disbursements=st.none() | st.dictionaries(_price_years, st.integers(min_value=1, max_value=10**6), min_size=1),
)


@settings(deadline=None)
@given(st.lists(_registry_records, max_size=6))
def test_stage_availability_counts_what_derive_emits(records):
    # The series covers every year a record can spend in: 2004 plus the
    # ten years of the longest disbursement profile.
    observations = derive_all_observations(records, flat_series(1990, 2015))
    emitted = {key: 0 for key in stage_availability([])}
    for o in observations:
        emitted[(o.stage, o.metric)] += 1
    assert stage_availability(records) == emitted
