import dataclasses
import io
import math
from datetime import date, timedelta
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import oracles
from refclass import normalization
from refclass.errors import DataFormatError, DeflatorCoverageError
from refclass.normalization import (
    DISBURSEMENT_PROFILE_PERCENTS,
    DISBURSEMENT_SHARES,
    construction_period,
    cost_overrun,
    derive_all_observations,
    derive_observations,
    has_cost_data,
    schedule_overrun,
    spread_outturn,
    to_constant_prices,
)
from refclass.registry import (
    DAYS_PER_YEAR,
    DeflatorSeries,
    Metric,
    ProjectRecord,
    Stage,
    StageEstimate,
    parse_deflator_series,
)

# The published yearly spending shares, as integer percentages. Rows for
# 4- and 6-year projects sum to 101 and the 10-year row to 99; they are
# stored verbatim and normalized once, into DISBURSEMENT_SHARES.
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
    # These rows sum to 100, so each share is its percentage over 100.
    assert DISBURSEMENT_PROFILE_PERCENTS[years] == expected
    assert DISBURSEMENT_SHARES[years] == tuple(p / 100 for p in expected)


@pytest.mark.parametrize("years", [0, 11, -3])
def test_profile_lookup_out_of_range(years):
    with pytest.raises(ValueError):
        spread_outturn(100, 2000, years)


@pytest.mark.parametrize("years", [True, 3.0, 1.0])
def test_spread_rejects_a_non_int_duration(years):
    with pytest.raises(ValueError, match=f"no disbursement profile for {years} years"):
        spread_outturn(100, 2000, years)


def test_renormalize_exact_row_unchanged():
    shares = DISBURSEMENT_SHARES[3]
    assert shares == pytest.approx((0.17, 0.65, 0.18), abs=1e-12)
    assert math.fsum(shares) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("years, published_sum", [(4, 101), (10, 99)])
def test_renormalize_scales_off_sum_rows(years, published_sum):
    shares = DISBURSEMENT_SHARES[years]
    for percent, share in zip(DISBURSEMENT_PROFILE_PERCENTS[years], shares, strict=True):
        assert share == pytest.approx(percent / published_sum, rel=1e-12)
    assert math.fsum(shares) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("years", range(1, 11))
def test_shares_match_the_per_call_renormalization(years):
    assert DISBURSEMENT_SHARES[years] == oracles.disbursement_shares(years)


def test_spread_single_year():
    assert spread_outturn(100, 2000, 1) == {2000: pytest.approx(100.0)}


def test_spread_three_year_row():
    spread = spread_outturn(100, 2000, 3)
    assert spread == {
        2000: pytest.approx(17.0),
        2001: pytest.approx(65.0),
        2002: pytest.approx(18.0),
    }


def test_spread_two_year_row():
    spread = spread_outturn(200, 1999, 2)
    assert spread == {1999: pytest.approx(98.0), 2000: pytest.approx(102.0)}


@given(
    total=st.floats(min_value=1, max_value=1e9),
    years=st.integers(min_value=1, max_value=10),
)
def test_spread_conserves_total(total, years):
    spread = spread_outturn(total, 2000, years)
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


@pytest.mark.parametrize(
    "disbursements",
    [
        {2001: 10**9},  # 1e9 / 1e-300 overflows to inf
        {2001: 10**8, 2002: 10**8},  # two finite terms of 1e308 sum past the float range
    ],
)
def test_derive_rejects_a_cost_overrun_no_float_holds(disbursements):
    series = DeflatorSeries.from_pairs([(2000, 1.0), (2001, 1e-300), (2002, 1e-300)])
    record = _record_single_stage(Stage.B, outturn=sum(disbursements.values()))
    record = dataclasses.replace(record, disbursements=disbursements)
    with pytest.raises(DataFormatError, match="^project n1, stage B: the cost overrun overflows to inf"):
        derive_observations(record, series)


@pytest.mark.parametrize("year", [2001, 2002])  # the overrun rounds to -1; the outturn underflows to 0
def test_derive_rejects_a_cost_overrun_that_rounds_to_total_loss(year):
    series = DeflatorSeries.from_pairs([(1999, 1.0), (2000, 1e-300), (2001, 1.0), (2002, 1e300)])
    record = dataclasses.replace(_record_single_stage(Stage.B, outturn=10**6), disbursements={year: 10**6})
    with pytest.raises(DataFormatError, match="^project n1, stage B: the cost overrun underflows to -1"):
        derive_observations(record, series)


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


def _spread_record(record, start, years, outturn):
    completion = start + timedelta(days=round(years * DAYS_PER_YEAR))
    return dataclasses.replace(
        record, construction_start=start, actual_completion=completion, outturn_nominal=outturn, disbursements=None
    )


# The same records with no disbursements, a positive outturn and 1 to 10
# years of construction, so that a stage with cost data has its outturn
# spread by profile. Few records drawn from _registry_records alone take
# that path.
_spread_records = st.builds(
    _spread_record, _registry_records, _days, st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=10**6),
)


@given(st.lists(_registry_records | _spread_records, max_size=6))
def test_derive_matches_a_derive_spreading_through_the_oracle(records):
    # A rising series, so each year's share of the outturn is weighed apart.
    series = DeflatorSeries.from_pairs([(year, 1.0 + 0.03 * (year - 1990)) for year in range(1990, 2016)])
    derived = derive_all_observations(records, series)
    with mock.patch.object(normalization, "spread_outturn", oracles.spread_outturn):
        assert derive_all_observations(records, series) == derived
