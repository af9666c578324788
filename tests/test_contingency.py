import io
import json

import numpy as np
import pytest

from refclass.contingency import (
    DEFAULT_TIER_SCHEME,
    PortfolioPool,
    TierScheme,
    allocation_as_dict,
    debias_estimate,
    portfolio_pool,
    tier_allocation,
    write_allocation_json,
)
from refclass.errors import NonMonotoneCurveError
from refclass.formatting import round_half_away
from refclass.reference_class import QuantileMethod, ReferenceClass, UpliftCurve

ILLUSTRATION_CURVE = UpliftCurve(
    points=((0.55, 0.10), (0.60, 0.20), (0.80, 0.40)),
    method=QuantileMethod.INTERPOLATED,
)


def _class(values):
    return ReferenceClass.from_values(values)


def test_debias_examples(table2_class):
    skewed = _class([0.13, 0.13, 0.13, 0.44, 0.44])
    assert debias_estimate(100, skewed, 0.8) == 144
    assert debias_estimate(100, skewed, 0.5) == 113
    assert debias_estimate(100, _class([0.0] * 4), 0.8) == 100
    assert debias_estimate(100, table2_class, 0.5) == 116
    assert debias_estimate(100, table2_class, 0.5, QuantileMethod.INF) == 114


def test_debias_rejects_non_positive_base(table2_class):
    with pytest.raises(ValueError):
        debias_estimate(0, table2_class, 0.5)
    with pytest.raises(ValueError):
        debias_estimate(-100, table2_class, 0.5)


def test_three_tier_illustration():
    allocation = tier_allocation(100, ILLUSTRATION_CURVE, DEFAULT_TIER_SCHEME)
    assert [t.name for t in allocation.tranches] == ["contract", "project", "portfolio"]
    assert [t.certainty for t in allocation.tranches] == [0.55, 0.60, 0.80]
    assert [t.tranche_amount for t in allocation.tranches] == [10, 10, 20]
    assert [t.cumulative_contingency for t in allocation.tranches] == [10, 20, 40]
    assert allocation.total_funded == 140
    assert allocation.total_contingency == 40
    assert allocation.note == DEFAULT_TIER_SCHEME.note


def test_single_tier_scheme():
    scheme = TierScheme(tiers=(("all", 0.80),))
    allocation = tier_allocation(100, ILLUSTRATION_CURVE, scheme)
    (tranche,) = allocation.tranches
    assert tranche.tranche_amount == 40
    assert allocation.total_funded == 140


def test_flat_curve_segment_gives_zero_tranche():
    curve = UpliftCurve(
        points=((0.55, 0.10), (0.60, 0.10), (0.80, 0.40)),
        method=QuantileMethod.INTERPOLATED,
    )
    allocation = tier_allocation(100, curve, DEFAULT_TIER_SCHEME)
    assert [t.tranche_amount for t in allocation.tranches] == [10, 0, 30]


def test_rounding_happens_at_tier_boundaries():
    curve = UpliftCurve(
        points=((0.55, 0.1234), (0.60, 0.2), (0.80, 0.2)),
        method=QuantileMethod.INTERPOLATED,
    )
    allocation = tier_allocation(1000, curve, DEFAULT_TIER_SCHEME)
    assert [t.cumulative_contingency for t in allocation.tranches] == [123, 200, 200]
    assert [t.tranche_amount for t in allocation.tranches] == [123, 77, 0]
    assert allocation.total_funded == 1200


def test_non_monotone_curve_rejected():
    bad = UpliftCurve(
        points=((0.55, 0.4), (0.60, 0.2), (0.80, 0.3)),
        method=QuantileMethod.INTERPOLATED,
    )
    with pytest.raises(NonMonotoneCurveError):
        tier_allocation(100, bad, DEFAULT_TIER_SCHEME)


def test_tier_allocation_rejects_non_positive_base():
    with pytest.raises(ValueError):
        tier_allocation(0, ILLUSTRATION_CURVE, DEFAULT_TIER_SCHEME)


def test_scheme_validation():
    with pytest.raises(ValueError):
        TierScheme(tiers=())
    with pytest.raises(ValueError):
        TierScheme(tiers=(("a", 0.6), ("b", 0.6)))
    with pytest.raises(ValueError):
        TierScheme(tiers=(("a", 0.8), ("b", 0.6)))
    with pytest.raises(ValueError):
        TierScheme(tiers=(("a", 0.0),))
    with pytest.raises(ValueError):
        TierScheme(tiers=(("a", 1.2),))
    with pytest.raises(ValueError):
        TierScheme(tiers=(("", 0.5),))
    with pytest.raises(ValueError, match="^tier 'a': names must be unique$"):
        TierScheme(tiers=(("a", 0.5), ("b", 0.55), ("a", 0.6)))
    TierScheme(tiers=(("a", 1.0),))


def test_tranches_conserve_total_on_random_curves():
    rng = np.random.default_rng(4242)
    for _ in range(100):
        lifts = np.sort(rng.uniform(0.0, 1.5, size=3))
        base = int(rng.integers(1, 1_000_000))
        curve = UpliftCurve(
            points=(
                (0.55, float(lifts[0])),
                (0.60, float(lifts[1])),
                (0.80, float(lifts[2])),
            ),
            method=QuantileMethod.INTERPOLATED,
        )
        allocation = tier_allocation(base, curve, DEFAULT_TIER_SCHEME)
        assert all(t.tranche_amount >= 0 for t in allocation.tranches)
        assert sum(t.tranche_amount for t in allocation.tranches) == allocation.total_contingency
        assert allocation.total_funded == base + round_half_away(base * float(lifts[2]))


def test_portfolio_pool_example():
    reference = _class([0.13, 0.13, 0.13, 0.44, 0.44])
    pool = portfolio_pool([100, 100], reference, 0.5, 0.8)
    assert pool.per_project_funded == (113, 113)
    assert pool.pooled_reserve == 62
    assert pool.total_funded == 288
    assert pool.total_funded == sum(debias_estimate(b, reference, 0.8) for b in (100, 100))


def test_portfolio_pool_zero_gap():
    reference = _class([0.13, 0.13, 0.13, 0.44, 0.44])
    pool = portfolio_pool([100, 250], reference, 0.8, 0.8)
    assert pool.pooled_reserve == 0


def test_portfolio_pool_additivity_for_identical_bases(table2_class):
    single = portfolio_pool([100], table2_class, 0.5, 0.8)
    many = portfolio_pool([100] * 7, table2_class, 0.5, 0.8)
    assert many.pooled_reserve == 7 * single.pooled_reserve
    assert many.per_project_funded == single.per_project_funded * 7


def test_portfolio_pool_validation(table2_class):
    with pytest.raises(ValueError):
        portfolio_pool([], table2_class, 0.5, 0.8)
    with pytest.raises(ValueError):
        portfolio_pool([100], table2_class, 0.8, 0.5)


def test_allocation_dict_and_json():
    allocation = tier_allocation(100, ILLUSTRATION_CURVE, DEFAULT_TIER_SCHEME)
    payload = allocation_as_dict(allocation)
    assert payload["base_estimate"] == 100
    assert payload["total_funded"] == 140
    assert payload["total_contingency"] == 40
    assert [tier["tranche_amount"] for tier in payload["tiers"]] == [10, 10, 20]
    assert [tier["name"] for tier in payload["tiers"]] == ["contract", "project", "portfolio"]

    buffer = io.StringIO()
    write_allocation_json(allocation, buffer)
    assert json.loads(buffer.getvalue()) == payload
    again = io.StringIO()
    write_allocation_json(allocation, again)
    assert again.getvalue() == buffer.getvalue()


def test_pool_dataclass_total():
    pool = PortfolioPool(
        project_certainty=0.5,
        portfolio_certainty=0.8,
        per_project_funded=(113, 113),
        pooled_reserve=62,
    )
    assert pool.total_funded == 288
