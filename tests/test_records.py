import copy
import dataclasses
import importlib
import io
import pickle
import pkgutil

import pytest

import corpus
import refclass
from refclass.benchmarking import benchmark_report, phase_breakdown
from refclass.contingency import DEFAULT_TIER_SCHEME, portfolio_pool, tier_allocation
from refclass.normalization import derive_all_observations
from refclass.reference_class import ClassFilter, build_class, trend_by_date, uplift_curve
from refclass.registry import Metric, Stage, Violation, parse_deflator_series
from refclass.stats import descriptive_stats
from refclass.validation import leave_one_out, loov_summary


def _declared_records() -> set[type]:
    """Every dataclass a refclass module defines."""

    declared = set()
    for info in pkgutil.iter_modules(refclass.__path__):
        module = importlib.import_module(f"refclass.{info.name}")
        declared.update(
            value for value in vars(module).values()
            if isinstance(value, type) and dataclasses.is_dataclass(value)
            and value.__module__ == module.__name__
        )
    return declared


def _one_of_each() -> list:
    """One instance of every record type, from the demo registry."""

    records = corpus.demo_records()
    series = parse_deflator_series(io.StringIO(corpus.demo_deflator_csv()))
    observations = derive_all_observations(records, series)
    reference = build_class(observations, ClassFilter(Stage.C, Metric.COST, exclude_pre_era=False))
    curve = uplift_curve(reference)
    trend, shift = trend_by_date(reference.entries)
    rows = leave_one_out(reference)
    report = benchmark_report({(Stage.C, Metric.COST): reference}, constants=corpus.ROADS,
                              raw_benchmark={Metric.COST: [0.1, 0.3, -0.05, 0.2]})
    phases, aggregate = phase_breakdown(records)
    allocation = tier_allocation(1000, curve, DEFAULT_TIER_SCHEME)
    return [
        records[0].stages[Stage.C], records[0], Violation("code", "message"), series,
        corpus.ROADS, observations[0], reference.filter,
        reference, curve, trend[0], shift, descriptive_stats(reference.values), shift.test,
        rows[0], loov_summary(rows, 0.5), report.rows[0], report, phases[0], aggregate,
        DEFAULT_TIER_SCHEME, allocation.tranches[0], allocation,
        portfolio_pool([1000, 2000], reference, 0.5, 0.8),
    ]


INSTANCES = _one_of_each()


def test_every_record_type_is_covered():
    assert {type(instance) for instance in INSTANCES} == _declared_records()


@pytest.mark.parametrize("instance", INSTANCES, ids=lambda instance: type(instance).__name__)
def test_record_types_are_frozen_slotted_and_round_trip(instance):
    params = type(instance).__dataclass_params__
    assert params.frozen
    assert not hasattr(instance, "__dict__")
    assert pickle.loads(pickle.dumps(instance)) == instance
    assert copy.deepcopy(instance) == instance
