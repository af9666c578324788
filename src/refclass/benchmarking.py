"""Compare reference classes against an external benchmark, and break
project histories into phases.

The external anchor is usually published summary constants only. In that
case the report stays descriptive and marks p-values unavailable; tests run
only when a raw benchmark sample is supplied. Only the earliest-stage
(Category C) estimate is flagged directly comparable to a decision-to-build
baseline; later stages are shown for context.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from typing import IO, Mapping, Sequence

from .errors import EmptyClassError
from .reference_class import ReferenceClass
from .registry import DAYS_PER_YEAR, BenchmarkConstants, Metric, ProjectRecord, Stage
from .stats import TEST_NAMES, DescriptiveStats, TestResult, descriptive_stats, mann_whitney_u, proportion_test

DEFAULT_MAPPING_NOTE = (
    "decision-to-build baseline taken as the Category C upgrade; "
    "only Category C rows are directly comparable to the benchmark"
)


@dataclass(frozen=True, slots=True)
class BenchmarkRow:
    stage: Stage
    metric: Metric
    stats: DescriptiveStats
    comparable: bool
    mean_test: TestResult | None = None
    frequency_test: TestResult | None = None


@dataclass(frozen=True, slots=True)
class BenchmarkReport:
    rows: tuple[BenchmarkRow, ...]
    constants: BenchmarkConstants | None
    mean_duration_years: float | None = None

    def row(self, stage: Stage, metric: Metric) -> BenchmarkRow | None:
        for row in self.rows:
            if row.stage is stage and row.metric is metric:
                return row
        return None


def benchmark_report(
    classes: Mapping[tuple[Stage, Metric], ReferenceClass],
    constants: BenchmarkConstants | None = None,
    raw_benchmark: Mapping[Metric, Sequence[float]] | None = None,
    durations_years: Sequence[float] | None = None,
) -> BenchmarkReport:
    """Summarize each non-empty class and, where a raw benchmark sample
    exists, test it against the benchmark (rank test for the mean, exact
    test for the overrun frequency). EmptyClassError if every class is empty."""

    rows: list[BenchmarkRow] = []
    for stage, metric in sorted(classes, key=lambda key: (key[0], key[1].value)):
        values = classes[(stage, metric)].values
        if not values:
            continue
        stats = descriptive_stats(values)
        mean_test = None
        frequency_test = None
        sample = None if raw_benchmark is None else raw_benchmark.get(metric)
        if sample:
            mean_test = mann_whitney_u(values, sample)
            class_positives = sum(1 for v in values if v > 0)
            sample_positives = sum(1 for v in sample if v > 0)
            p = proportion_test(class_positives, stats.n, sample_positives, len(sample))
            frequency_test = TestResult(TEST_NAMES["frequency"], float(class_positives), p)
        rows.append(
            BenchmarkRow(
                stage=stage,
                metric=metric,
                stats=stats,
                comparable=stage is Stage.C,
                mean_test=mean_test,
                frequency_test=frequency_test,
            )
        )
    if not rows:
        raise EmptyClassError("no reference class has any observations")

    mean_duration = None
    if durations_years:
        mean_duration = sum(durations_years) / len(durations_years)

    return BenchmarkReport(
        rows=tuple(rows),
        constants=constants,
        mean_duration_years=mean_duration,
    )


#: The comparison table's rows, in order: (row name, metric, DescriptiveStats
#: field, BenchmarkConstants field, the Category C row's test, if any).
_MEASURES = (
    ("average_cost_overrun", Metric.COST, "mean", "mean_cost_overrun", "mean_test"),
    ("frequency_of_cost_overruns", Metric.COST, "overrun_frequency", "cost_overrun_frequency", "frequency_test"),
    ("sd_of_cost_overrun", Metric.COST, "sd", "cost_overrun_sd", None),
    ("average_schedule_overrun", Metric.SCHEDULE, "mean", "mean_schedule_overrun", "mean_test"),
    ("frequency_of_schedule_overruns", Metric.SCHEDULE, "overrun_frequency", "schedule_overrun_frequency",
     "frequency_test"),
    ("sd_of_schedule_overrun", Metric.SCHEDULE, "sd", "schedule_overrun_sd", None),
)


def write_benchmark_csv(report: BenchmarkReport, sink: IO[str]) -> None:
    """Emit the comparison the way the summary table is usually laid out:
    one measure per row, benchmark column first, then stages C, B, A.

    p-value and test columns are filled only where a test actually ran;
    constants-only benchmarks leave them blank (unavailable, not 1.0). A
    one-member class leaves its SD cell blank too (undefined, not 0).
    """

    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["measure", "benchmark", "cat_c", "cat_b", "cat_a", "p_value", "test"])
    c = report.constants
    for name, metric, field, constant_field, test_field in _MEASURES:
        rows = [report.row(stage, metric) for stage in Stage]
        cells = ["" if row is None or (field == "sd" and not row.stats.sd_defined)
                 else f"{getattr(row.stats, field):.4f}" for row in rows]
        test = None if rows[0] is None or test_field is None else getattr(rows[0], test_field)
        writer.writerow([
            name,
            "" if c is None else f"{getattr(c, constant_field):.4f}",
            *cells,
            *(("", "") if test is None else (f"{test.p_value:.6f}", test.name)),
        ])
    duration = report.mean_duration_years
    writer.writerow([
        "average_duration_years",
        "" if c is None else f"{c.mean_duration_years:.2f}",
        "" if duration is None else f"{duration:.2f}",
        *[""] * 4,
    ])


def benchmark_report_as_dict(report: BenchmarkReport) -> dict:
    def test_dict(test: TestResult | None):
        return None if test is None else asdict(test)

    return {
        "mapping_note": DEFAULT_MAPPING_NOTE,
        "test_names": TEST_NAMES,
        "benchmark": None if report.constants is None else asdict(report.constants),
        "mean_duration_years": report.mean_duration_years,
        "rows": [
            {
                "stage": str(row.stage),
                "metric": str(row.metric),
                **asdict(row.stats),
                "comparable": row.comparable,
                "mean_test": test_dict(row.mean_test),
                "frequency_test": test_dict(row.frequency_test),
            }
            for row in report.rows
        ],
    }


def write_benchmark_json(report: BenchmarkReport, sink: IO[str]) -> None:
    json.dump(benchmark_report_as_dict(report), sink, indent=2, sort_keys=True)
    sink.write("\n")


@dataclass(frozen=True, slots=True)
class PhaseBreakdown:
    """Calendar phases of one project, in fractional years.

    When the construction start is unrecorded the tail phase runs from the
    Category A upgrade straight to completion (``a_to_completion``) and the
    preconstruction share is unavailable.
    """

    project_id: str
    c_to_b: float | None
    b_to_a: float | None
    a_to_construction: float | None
    construction_to_completion: float | None
    a_to_completion: float | None
    total_years: float
    preconstruction_share: float | None


@dataclass(frozen=True, slots=True)
class PhaseAggregate:
    n: int
    mean_total_years: float
    mean_preconstruction_share: float | None
    skipped: tuple[str, ...]


def phase_breakdown(
    records: Sequence[ProjectRecord],
) -> tuple[list[PhaseBreakdown], PhaseAggregate]:
    """Split each project's history into phases from the Category C upgrade
    to completion. Records without both endpoints are skipped and flagged."""

    def years(d0, d1) -> float:
        return (d1 - d0).days / DAYS_PER_YEAR

    rows: list[PhaseBreakdown] = []
    skipped: list[str] = []
    for record in records:
        date_c = record.stages[Stage.C].upgrade_date
        date_b = record.stages[Stage.B].upgrade_date
        date_a = record.stages[Stage.A].upgrade_date
        start = record.construction_start
        done = record.actual_completion
        if date_c is None or done is None:
            skipped.append(record.id)
            continue
        total = years(date_c, done)
        share = None
        if start is not None and total > 0:
            share = years(date_c, start) / total
        rows.append(
            PhaseBreakdown(
                project_id=record.id,
                c_to_b=years(date_c, date_b) if date_b is not None else None,
                b_to_a=years(date_b, date_a) if date_b is not None and date_a is not None else None,
                a_to_construction=years(date_a, start) if date_a is not None and start is not None else None,
                construction_to_completion=years(start, done) if start is not None else None,
                a_to_completion=years(date_a, done) if date_a is not None and start is None else None,
                total_years=total,
                preconstruction_share=share,
            )
        )

    if rows:
        mean_total = sum(r.total_years for r in rows) / len(rows)
        shares = [r.preconstruction_share for r in rows if r.preconstruction_share is not None]
        mean_share = sum(shares) / len(shares) if shares else None
    else:
        mean_total = 0.0
        mean_share = None
    aggregate = PhaseAggregate(
        n=len(rows),
        mean_total_years=mean_total,
        mean_preconstruction_share=mean_share,
        skipped=tuple(skipped),
    )
    return rows, aggregate
