"""Shared fixture corpora.

Two corpora live here. `demo_records` is a hand-shaped 25-project registry
with ragged stage coverage (not every project carries every estimate) and
a mean start-to-finish duration of 8.9 years. `table2_corpus_rows` is an
18-project registry engineered so that the Category C cost observations
come out exactly at the 18 reference values used across the test suite:
flat deflators and single-year disbursements make outturn/base - 1 exact.
"""

from __future__ import annotations

from datetime import date, timedelta

from refclass.registry import (
    ProjectRecord,
    Stage,
    StageEstimate,
    write_project_records,
)

# Values a hand-edited file might hold in place of a good one.
HOSTILE_VALUES = [
    "", " ", "x", "-1", "0", "1.5", "1e309", "-1e309", "nan", "inf", "-inf",
    "99999999999999999999999", "2000-13-01", "1993-02-30", "0001-01-01", "9999-12-31",
    "1997:", ":5", "1997:1;1997:2", "1997:-5", "a;b", "é", "\x00", "\ufeff", "0x10",
    "1_000", "+5", "--help", "=", "1e-300", "9" * 400,
]

# The 18 Category C cost observations (project id, actual overrun fraction)
# used by the golden leave-one-out tests.
TABLE2_IDS = (
    "6736", "6757", "6365", "6553", "6580", "6718", "6731", "6759", "6384",
    "642", "6577", "6706", "6541", "6721", "6323", "6694", "6695", "6645",
)
TABLE2_VALUES = (
    -0.47, 0.47, 0.32, 0.62, -0.37, -0.33, -0.32, -0.07, 0.52,
    0.14, 0.01, -0.52, 0.68, 0.43, 0.29, 0.31, 0.01, 0.18,
)

# Printed golden rows: (p50 uplift %, p80 uplift %, p50 prevented, p80 prevented)
TABLE2_PRINTED = {
    "6736": (18, 46, True, True),
    "6757": (14, 41, False, False),
    "6365": (14, 46, False, True),
    "6553": (14, 41, False, False),
    "6580": (18, 46, True, True),
    "6718": (18, 46, True, True),
    "6731": (18, 46, True, True),
    "6759": (18, 46, True, True),
    "6384": (14, 41, False, False),
    "642": (18, 46, True, True),
    "6577": (18, 46, True, True),
    "6706": (18, 46, True, True),
    "6541": (14, 41, False, False),
    "6721": (14, 44, False, True),
    "6323": (14, 46, False, True),
    "6694": (14, 46, False, True),
    "6695": (18, 46, True, True),
    "6645": (14, 46, False, True),
}

TABLE2_BASE = 1_000_000  # HKD thousands; large enough to clear the outturn floor


def table2_records() -> list[ProjectRecord]:
    records = []
    for pid, value in zip(TABLE2_IDS, TABLE2_VALUES):
        outturn = round(TABLE2_BASE * (1 + value))
        records.append(
            ProjectRecord(
                id=pid,
                stages={
                    Stage.C: StageEstimate(
                        upgrade_date=date(2000, 1, 1),
                        base=TABLE2_BASE,
                        contingency=0,
                        approved=TABLE2_BASE,
                        price_level_year=2000,
                    )
                },
                construction_start=date(2000, 2, 1),
                actual_completion=date(2001, 6, 30),
                outturn_nominal=outturn,
                disbursements={2001: outturn},
            )
        )
    return records


def flat_deflator_csv(start=1998, end=2005) -> str:
    lines = ["year,index"] + [f"{y},100.0" for y in range(start, end + 1)]
    return "\n".join(lines) + "\n"


BENCHMARK_JSON = """{
  "international-roads": {
    "n_projects": 863,
    "mean_cost_overrun": 0.20,
    "cost_overrun_frequency": 0.9,
    "cost_overrun_sd": 0.30,
    "mean_schedule_overrun": 0.38,
    "schedule_overrun_frequency": 0.6,
    "schedule_overrun_sd": 0.85,
    "mean_duration_years": 5.5
  }
}
"""


def write_table2_corpus(directory) -> dict[str, str]:
    """Write projects/deflators/benchmark files; returns paths as strings."""

    paths = {
        "projects": str(directory / "projects.csv"),
        "deflators": str(directory / "deflators.csv"),
        "benchmark": str(directory / "benchmark.json"),
    }
    with open(paths["projects"], "w", newline="") as handle:
        write_project_records(table2_records(), handle)
    with open(paths["deflators"], "w") as handle:
        handle.write(flat_deflator_csv())
    with open(paths["benchmark"], "w") as handle:
        handle.write(BENCHMARK_JSON)
    return paths


# ---------------------------------------------------------------------------
# 25-project demo registry.
#
# Column meaning: id, category C date, total duration in years, base at C
# (HKD thousands), nominal overrun fraction vs the C base, planned/actual
# duration ratios at C/B/A (None = that planned completion is not recorded),
# and which stage estimates are recorded at all.

_DEMO_ROWS = [
    # id     date_c        total  base_c   ov     f_c    f_b    f_a   has_c  has_b  has_a
    ("6801", (1991, 3, 15), 8.0, 180_000, 0.24, 0.88, 0.92, 0.95, True, True, True),
    ("6802", (1994, 5, 2), 9.5, 240_000, 0.41, 0.80, 0.85, 0.90, True, True, False),
    ("6803", (1995, 9, 18), 7.2, 150_000, -0.12, 0.95, 1.05, 1.00, False, True, True),
    ("6804", (1993, 10, 7), 10.4, 420_000, 0.55, 0.70, 0.78, 0.82, True, True, True),
    ("6805", (1996, 2, 26), 8.8, 310_000, 0.08, None, 0.90, 0.96, True, True, True),
    ("6806", (1992, 11, 5), 10.6, 560_000, 0.67, 0.72, 0.80, 0.85, True, True, True),
    ("6807", (1994, 8, 21), 6.9, 130_000, -0.25, 1.10, 1.00, 1.02, True, False, True),
    ("6808", (1995, 1, 9), 9.1, 350_000, 0.19, 0.85, None, 0.92, True, True, True),
    ("6809", (1993, 12, 2), 8.3, 270_000, 0.33, 0.82, 0.88, 0.93, True, True, False),
    ("6810", (1996, 6, 14), 11.2, 610_000, 0.48, 0.75, 0.80, 0.86, True, True, True),
    ("6811", (1994, 3, 30), 7.7, 205_000, -0.05, None, 0.98, 1.04, True, True, True),
    ("6812", (1995, 11, 23), 9.8, 330_000, 0.28, 0.84, 0.90, 0.94, True, False, True),
    ("6813", (1993, 8, 16), 8.6, 125_000, 0.12, 0.90, 0.94, 0.98, True, True, True),
    ("6814", (1996, 10, 3), 9.9, 480_000, 0.60, 0.74, 0.79, 0.84, True, True, False),
    ("6815", (1989, 6, 20), 6.4, 160_000, -0.18, 1.05, 1.08, 1.01, True, True, True),
    ("6816", (1994, 12, 11), 9.3, 290_000, 0.22, 0.86, None, 0.91, True, True, True),
    ("6817", (1995, 4, 7), 8.1, 215_000, 0.03, 0.96, 0.99, 1.00, False, True, True),
    ("6818", (1993, 9, 28), 11.2, 520_000, 0.52, 0.73, 0.81, 0.87, True, True, True),
    ("6819", (1996, 1, 19), 7.4, 175_000, -0.08, 1.02, 1.04, 1.03, True, True, False),
    ("6820", (1994, 7, 5), 10.1, 390_000, 0.37, 0.79, 0.84, 0.89, True, True, True),
    ("6821", (1995, 6, 27), 8.9, 260_000, 0.15, 0.89, 0.93, 0.97, True, False, True),
    ("6822", (1993, 11, 12), 9.6, 445_000, 0.44, 0.77, 0.83, 0.88, True, True, True),
    ("6823", (1996, 4, 22), 7.9, 140_000, -0.02, None, 1.00, 1.02, True, True, True),
    ("6824", (1994, 10, 16), 9.6, 370_000, 0.31, 0.81, 0.87, 0.92, True, True, False),
    ("6825", (1995, 2, 8), 8.0, 230_000, 0.10, 0.91, 0.95, 0.99, True, True, True),
]

# Fractions of the total duration spent reaching each milestone.
_PHASE_B = 0.30
_PHASE_A = 0.52
_PHASE_START = 0.58


def _stage_estimate(upgrade, base, planned, price_year):
    contingency = round(base * 0.15)
    return StageEstimate(
        upgrade_date=upgrade,
        base=base,
        contingency=contingency,
        approved=base + contingency,
        planned_completion=planned,
        price_level_year=price_year,
    )


def demo_records() -> list[ProjectRecord]:
    records = []
    for pid, (yy, mm, dd), total, base_c, ov, f_c, f_b, f_a, has_c, has_b, has_a in _DEMO_ROWS:
        date_c = date(yy, mm, dd)
        total_days = round(total * 365.25)
        date_b = date_c + timedelta(days=round(_PHASE_B * total_days))
        date_a = date_c + timedelta(days=round(_PHASE_A * total_days))
        start = date_c + timedelta(days=round(_PHASE_START * total_days))
        completion = date_c + timedelta(days=total_days)

        def planned(ref, ratio):
            if ratio is None:
                return None
            actual_days = (completion - ref).days
            return ref + timedelta(days=max(1, round(actual_days * ratio)))

        base_b = round(base_c * 1.08)
        base_a = round(base_b * 1.06)
        outturn = round(base_c * (1 + ov))

        stages = {}
        if has_c:
            stages[Stage.C] = _stage_estimate(date_c, base_c, planned(date_c, f_c), yy)
        else:
            stages[Stage.C] = StageEstimate(
                upgrade_date=date_c, planned_completion=planned(date_c, f_c)
            )
        if has_b:
            stages[Stage.B] = _stage_estimate(date_b, base_b, planned(date_b, f_b), date_b.year)
        else:
            stages[Stage.B] = StageEstimate(
                upgrade_date=date_b, planned_completion=planned(date_b, f_b)
            )
        if has_a:
            stages[Stage.A] = _stage_estimate(date_a, base_a, planned(date_a, f_a), date_a.year)
        else:
            stages[Stage.A] = StageEstimate(
                upgrade_date=date_a, planned_completion=planned(date_a, f_a)
            )

        final_year = completion.year
        first = round(outturn * 0.30)
        second = round(outturn * 0.45)
        disbursements = {
            final_year - 2: first,
            final_year - 1: second,
            final_year: outturn - first - second,
        }
        records.append(
            ProjectRecord(
                id=pid,
                stages=stages,
                construction_start=start,
                actual_completion=completion,
                outturn_nominal=outturn,
                disbursements=disbursements,
            )
        )
    return records


def demo_deflator_csv(start=1986, end=2008) -> str:
    lines = ["year,index"]
    for year in range(start, end + 1):
        lines.append(f"{year},{100.0 * 1.03 ** (year - start):.2f}")
    return "\n".join(lines) + "\n"


def write_demo_corpus(directory) -> dict[str, str]:
    paths = {
        "projects": str(directory / "projects.csv"),
        "deflators": str(directory / "deflators.csv"),
        "benchmark": str(directory / "benchmark.json"),
    }
    with open(paths["projects"], "w", newline="") as handle:
        write_project_records(demo_records(), handle)
    with open(paths["deflators"], "w") as handle:
        handle.write(demo_deflator_csv())
    with open(paths["benchmark"], "w") as handle:
        handle.write(BENCHMARK_JSON)
    return paths


def synthetic_records(n: int = 30, seed: int = 20260822) -> list[ProjectRecord]:
    """Randomized but seed-stable registry for end-to-end runs."""

    import numpy as np

    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        date_c = date(1994, 1, 1) + timedelta(days=int(rng.integers(0, 1460)))
        total_days = int(rng.integers(round(5.0 * 365.25), round(11.0 * 365.25)))
        date_b = date_c + timedelta(days=round(0.30 * total_days))
        date_a = date_c + timedelta(days=round(0.55 * total_days))
        start = date_c + timedelta(days=round(0.60 * total_days))
        completion = date_c + timedelta(days=total_days)

        base_c = int(rng.integers(120, 700)) * 1_000
        overrun = float(np.clip(rng.normal(0.15, 0.30), -0.55, 1.6))
        outturn = round(base_c * (1 + overrun))

        schedule_ratio = float(np.clip(rng.normal(0.85, 0.12), 0.55, 1.25))

        def planned(ref):
            actual_days = (completion - ref).days
            return ref + timedelta(days=max(1, round(actual_days * schedule_ratio)))

        base_b = round(base_c * float(rng.uniform(1.02, 1.12)))
        base_a = round(base_b * float(rng.uniform(1.01, 1.10)))
        stages = {
            Stage.C: _stage_estimate(date_c, base_c, planned(date_c), date_c.year),
            Stage.B: _stage_estimate(date_b, base_b, planned(date_b), date_b.year),
            Stage.A: _stage_estimate(date_a, base_a, planned(date_a), date_a.year),
        }
        final_year = completion.year
        first = round(outturn * 0.30)
        second = round(outturn * 0.45)
        records.append(
            ProjectRecord(
                id=f"s{i + 1:03d}",
                stages=stages,
                construction_start=start,
                actual_completion=completion,
                outturn_nominal=outturn,
                disbursements={
                    final_year - 2: first,
                    final_year - 1: second,
                    final_year: outturn - first - second,
                },
            )
        )
    return records


def write_synthetic_corpus(directory, n: int = 30, seed: int = 20260822) -> dict[str, str]:
    paths = {
        "projects": str(directory / "projects.csv"),
        "deflators": str(directory / "deflators.csv"),
        "benchmark": str(directory / "benchmark.json"),
    }
    with open(paths["projects"], "w", newline="") as handle:
        write_project_records(synthetic_records(n, seed), handle)
    with open(paths["deflators"], "w") as handle:
        handle.write(demo_deflator_csv(1990, 2012))
    with open(paths["benchmark"], "w") as handle:
        handle.write(BENCHMARK_JSON)
    return paths
