"""Reference-class forecasting for capital project cost and schedule risk.

The package turns a registry of completed projects into empirical
overrun distributions, reads required uplifts off those distributions
at chosen certainty levels, validates the uplifts by leave-one-out
replay, compares the registry against externally published benchmark
statistics, and splits the implied contingency into delegation tiers.
"""

import logging

from .benchmarking import (
    BenchmarkReport,
    BenchmarkRow,
    PhaseAggregate,
    PhaseBreakdown,
    benchmark_report,
    phase_breakdown,
    write_benchmark_csv,
    write_benchmark_json,
)
from .contingency import (
    DEFAULT_TIER_SCHEME,
    PortfolioPool,
    TierAllocation,
    TierScheme,
    TierTranche,
    debias_estimate,
    portfolio_pool,
    tier_allocation,
    write_allocation_json,
)
from .errors import (
    DataFormatError,
    DeflatorCoverageError,
    EmptyClassError,
    InsufficientDataError,
    NonMonotoneCurveError,
    RecordConsistencyError,
    RefclassError,
)
from .normalization import (
    DEFAULT_ERA_CUTOFF,
    OverrunObservation,
    cost_overrun,
    derive_all_observations,
    derive_observations,
    disbursement_profile,
    schedule_overrun,
    spread_outturn,
    to_constant_prices,
)
from .reference_class import (
    DEFAULT_MIN_OUTTURN,
    ClassFilter,
    QuantileMethod,
    ReferenceClass,
    TrendShift,
    UpliftCurve,
    build_class,
    default_probability_grid,
    empirical_quantile,
    isotonic_adjust,
    required_certainty,
    smooth_curve,
    trend_by_date,
    uplift,
    uplift_curve,
)
from .registry import (
    BenchmarkConstants,
    DeflatorSeries,
    INTERNATIONAL_ROADS,
    Metric,
    ProjectRecord,
    Stage,
    StageEstimate,
    Violation,
    parse_benchmark_constants,
    parse_deflator_series,
    parse_project_records,
    parse_project_records_lenient,
    stage_availability,
    validate_record,
    write_project_records,
)
from .stats import DescriptiveStats, TestResult, descriptive_stats, mann_whitney_u, proportion_test
from .validation import LoovRow, LoovSummary, leave_one_out, loov_summary, write_loov_csv

__version__ = "0.1.0"

# Logging output is the application's choice. Without a handler here, a
# warning would reach stderr through logging's last-resort handler.
logging.getLogger(__name__).addHandler(logging.NullHandler())


def __getattr__(name: str):
    # The smoothing module imports numpy, so it is loaded on first use of
    # its exports rather than with the package; commands that never fit
    # loess start without numpy.
    if name in ("loess_smooth", "pool_adjacent_violators"):
        from . import smoothing

        return getattr(smoothing, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BenchmarkConstants",
    "BenchmarkReport",
    "BenchmarkRow",
    "ClassFilter",
    "DEFAULT_ERA_CUTOFF",
    "DEFAULT_MIN_OUTTURN",
    "DEFAULT_TIER_SCHEME",
    "DataFormatError",
    "DeflatorCoverageError",
    "DeflatorSeries",
    "DescriptiveStats",
    "EmptyClassError",
    "INTERNATIONAL_ROADS",
    "InsufficientDataError",
    "LoovRow",
    "LoovSummary",
    "Metric",
    "NonMonotoneCurveError",
    "OverrunObservation",
    "PhaseAggregate",
    "PhaseBreakdown",
    "PortfolioPool",
    "ProjectRecord",
    "QuantileMethod",
    "RecordConsistencyError",
    "RefclassError",
    "ReferenceClass",
    "Stage",
    "StageEstimate",
    "TestResult",
    "TierAllocation",
    "TierScheme",
    "TierTranche",
    "TrendShift",
    "UpliftCurve",
    "Violation",
    "benchmark_report",
    "build_class",
    "cost_overrun",
    "debias_estimate",
    "default_probability_grid",
    "derive_all_observations",
    "derive_observations",
    "descriptive_stats",
    "disbursement_profile",
    "empirical_quantile",
    "isotonic_adjust",
    "leave_one_out",
    "loess_smooth",
    "loov_summary",
    "mann_whitney_u",
    "parse_benchmark_constants",
    "parse_deflator_series",
    "parse_project_records",
    "parse_project_records_lenient",
    "phase_breakdown",
    "pool_adjacent_violators",
    "portfolio_pool",
    "proportion_test",
    "required_certainty",
    "schedule_overrun",
    "smooth_curve",
    "spread_outturn",
    "stage_availability",
    "tier_allocation",
    "to_constant_prices",
    "trend_by_date",
    "uplift",
    "uplift_curve",
    "validate_record",
    "write_allocation_json",
    "write_benchmark_csv",
    "write_benchmark_json",
    "write_loov_csv",
    "write_project_records",
]
