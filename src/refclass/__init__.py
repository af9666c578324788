"""Reference-class forecasting for capital project cost and schedule risk.

The package turns a registry of completed projects into empirical
overrun distributions, reads required uplifts off those distributions
at chosen certainty levels, validates the uplifts by leave-one-out
replay, compares the registry against externally published benchmark
statistics, and splits the implied contingency into delegation tiers.

Each public name is imported from its module on first use (PEP 562), so
``import refclass`` loads no module, and numpy loads only with the
smoothing module.
"""

import importlib

__version__ = "0.1.0"

#: Each public name, keyed to the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "benchmarking": "BenchmarkReport BenchmarkRow PhaseAggregate PhaseBreakdown benchmark_report "
        "phase_breakdown write_benchmark_csv write_benchmark_json",
        "contingency": "DEFAULT_TIER_SCHEME PortfolioPool TierAllocation TierScheme TierTranche "
        "debias_estimate portfolio_pool tier_allocation write_allocation_json",
        "errors": "DataFormatError DeflatorCoverageError EmptyClassError InsufficientDataError "
        "NonMonotoneCurveError RecordConsistencyError RefclassError",
        "normalization": "OverrunObservation cost_overrun derive_all_observations "
        "derive_observations schedule_overrun spread_outturn stage_availability to_constant_prices",
        "reference_class": "ClassFilter ReferenceClass TrendShift "
        "UpliftCurve build_class default_probability_grid empirical_quantile isotonic_adjust "
        "required_certainty smooth_curve trend_by_date uplift uplift_curve",
        "registry": "DEFAULT_ERA_CUTOFF DEFAULT_MIN_OUTTURN BenchmarkConstants DeflatorSeries "
        "INTERNATIONAL_ROADS Metric ProjectRecord QuantileMethod Stage StageEstimate Violation "
        "parse_benchmark_constants parse_deflator_series parse_project_records "
        "parse_project_records_lenient validate_record write_project_records",
        "smoothing": "loess_smooth pool_adjacent_violators",
        "stats": "DescriptiveStats TestResult descriptive_stats mann_whitney_u proportion_test",
        "validation": "LoovRow LoovSummary leave_one_out loov_summary write_loov_csv",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
