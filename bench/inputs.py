"""Seeded inputs for the benchmark, generated without refclass or the tests.

The generator owns its column layout and its value distributions, so an
edit to a test fixture, to the shipped data or to refclass cannot silently
change what the benchmark feeds the program. The same (size, seed) always
gives the same bytes: only the stdlib ``random.Random`` is used, seeded with
a string.

The mix of record shapes follows the registry the repository ships
(``data/projects.csv``, 25 projects): its Category C dates span 1989-1996,
3 of its 25 projects predate the 1993-07-01 era cutoff, 1 has an outturn
below the 100 000 class threshold, and 15 have exactly one blank field
group: a stage without a cost estimate (2 at C, 3 at B, 5 at A) or without a
planned completion (3 at C, 2 at B). No shipped project lacks its yearly
disbursements; here 30% do, so the standard-profile spread path runs.

Each property is assigned to an exact number of projects, chosen at random
positions, so class sizes and the amount of work per operation do not drift
between seeds.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from datetime import date, timedelta

ERA_CUTOFF = date(1993, 7, 1)
MIN_OUTTURN = 100_000  # HKD thousands, the refclass default class threshold

_FIRST_C_DATE = date(1989, 1, 1)
_LAST_C_DATE = date(1996, 12, 31)

PRE_ERA_SHARE = 3 / 25
BELOW_MIN_OUTTURN_SHARE = 1 / 25
NO_DISBURSEMENT_SHARE = 0.30
# (blank field group, stage): share. One blank group per project at most,
# as in the shipped registry.
BLANK_SHAPES = {
    ("estimate", "c"): 2 / 25,
    ("estimate", "b"): 3 / 25,
    ("estimate", "a"): 5 / 25,
    ("planned", "c"): 3 / 25,
    ("planned", "b"): 2 / 25,
}

COLUMNS = (
    "id",
    "date_c", "date_b", "date_a",
    "base_c", "cont_c", "approved_c", "planned_completion_c",
    "base_b", "cont_b", "approved_b", "planned_completion_b",
    "base_a", "cont_a", "approved_a", "planned_completion_a",
    "price_level_year_c", "price_level_year_b", "price_level_year_a",
    "construction_start", "actual_completion", "outturn_nominal", "disbursements",
)

# Published international road-project constants; the value the CLI's
# benchmark command compares against. The same figures as
# data/benchmark.json, kept here so that an edit to the shipped file does
# not change the benchmark's inputs.
BENCHMARK_JSON = json.dumps(
    {
        "international-roads": {
            "n_projects": 863,
            "mean_cost_overrun": 0.20,
            "cost_overrun_frequency": 0.9,
            "cost_overrun_sd": 0.30,
            "mean_schedule_overrun": 0.38,
            "schedule_overrun_frequency": 0.6,
            "schedule_overrun_sd": 0.85,
            "mean_duration_years": 5.5,
        }
    },
    indent=2,
    sort_keys=True,
) + "\n"


@dataclass(frozen=True)
class Registry:
    """A generated registry: file contents plus the counts of each property."""

    projects_csv: str
    deflators_csv: str
    properties: dict[str, int]


def _exact_subset(rng: random.Random, n: int, share: float) -> set[int]:
    return set(rng.sample(range(n), round(share * n)))


def blank_shape_name(shape: tuple[str, str]) -> str:
    return f"blank_{shape[0]}_{shape[1]}"


def _blank_shapes(rng: random.Random, n: int) -> dict[int, tuple[str, str]]:
    """Project index -> its one blank shape, for exact, disjoint shares."""

    order = rng.sample(range(n), n)
    shapes, at = {}, 0
    for shape, share in BLANK_SHAPES.items():
        size = round(share * n)
        shapes.update((i, shape) for i in order[at:at + size])
        at += size
    return shapes


def _clip(value: float, low: float, high: float) -> float:
    return min(high, max(low, value))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, date):
        return value.isoformat()
    return str(value)


def _estimate(upgrade: date, base: int, planned: date, blank: str | None) -> list:
    """One stage's fields; ``blank`` is "estimate", "planned" or None."""

    if blank == "estimate":
        return [upgrade, None, None, None, planned, None]
    contingency = round(base * 0.15)
    planned_or_blank = None if blank == "planned" else planned
    return [upgrade, base, contingency, base + contingency, planned_or_blank, upgrade.year]


def _split(rng: random.Random, total: int, years: range) -> str:
    weights = [rng.uniform(0.5, 1.5) for _ in years]
    scale = sum(weights)
    amounts = [max(1, math.floor(total * w / scale)) for w in weights[:-1]]
    amounts.append(total - sum(amounts))
    return ";".join(f"{year}:{amount}" for year, amount in zip(years, amounts))


def registry(n: int, seed: int) -> Registry:
    """A valid n-project registry with every property above at its share."""

    rng = random.Random(f"registry/{n}/{seed}")
    pre_era = _exact_subset(rng, n, PRE_ERA_SHARE)
    no_disbursements = _exact_subset(rng, n, NO_DISBURSEMENT_SHARE)
    below_min = _exact_subset(rng, n, BELOW_MIN_OUTTURN_SHARE)
    shapes = _blank_shapes(rng, n)

    first_year, last_year = 9999, 0
    rows = []
    for i in range(n):
        if i in pre_era:
            date_c = _FIRST_C_DATE + timedelta(days=rng.randrange((ERA_CUTOFF - _FIRST_C_DATE).days))
        else:
            date_c = ERA_CUTOFF + timedelta(days=rng.randrange((_LAST_C_DATE - ERA_CUTOFF).days))
        total_days = rng.randint(5 * 365, 11 * 365)
        date_b = date_c + timedelta(days=round(0.30 * total_days))
        date_a = date_c + timedelta(days=round(0.55 * total_days))
        start = date_c + timedelta(days=round(0.60 * total_days))
        completion = date_c + timedelta(days=total_days)

        if i in below_min:
            outturn = rng.randint(20_000, 95_000)
        else:
            outturn = round(math.exp(rng.uniform(math.log(110_000), math.log(3_000_000))))
        overrun = _clip(rng.gauss(0.15, 0.30), -0.55, 1.6)
        base_c = max(1, round(outturn / (1.0 + overrun)))
        base_b = round(base_c * rng.uniform(1.02, 1.12))
        base_a = round(base_b * rng.uniform(1.01, 1.10))
        ratio = _clip(rng.gauss(0.85, 0.12), 0.55, 1.25)

        def planned(ref: date) -> date:
            return ref + timedelta(days=max(1, round((completion - ref).days * ratio)))

        blank, blank_stage = shapes.get(i, (None, None))
        stage_c = _estimate(date_c, base_c, planned(date_c), blank if blank_stage == "c" else None)
        stage_b = _estimate(date_b, base_b, planned(date_b), blank if blank_stage == "b" else None)
        stage_a = _estimate(date_a, base_a, planned(date_a), blank if blank_stage == "a" else None)
        disbursements = None
        if i not in no_disbursements:
            disbursements = _split(rng, outturn, range(start.year, completion.year + 1))

        first_year = min(first_year, date_c.year)
        # Spreading a missing disbursement record may reach one year past
        # completion (durations round to whole years).
        last_year = max(last_year, completion.year + 1)
        rows.append(
            [f"p{i + 1:05d}", stage_c[0], stage_b[0], stage_a[0]]
            + stage_c[1:5] + stage_b[1:5] + stage_a[1:5]
            + [stage_c[5], stage_b[5], stage_a[5], start, completion, outturn, disbursements]
        )

    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow([_cell(v) for v in row])

    deflator_first, deflator_last = first_year - 1, last_year + 1
    index = 100.0
    lines = ["year,index"]
    for year in range(deflator_first, deflator_last + 1):
        lines.append(f"{year},{index:.4f}")
        index *= 1.0 + _clip(rng.gauss(0.03, 0.01), 0.0, 0.08)

    properties = {
        "projects": n,
        "pre_era": len(pre_era),
        "no_disbursements": len(no_disbursements),
        **{blank_shape_name(shape): sum(1 for s in shapes.values() if s == shape) for shape in BLANK_SHAPES},
        "below_min_outturn": len(below_min),
        "at_or_above_min_outturn": n - len(below_min),
        "years_used_first": first_year,
        "years_used_last": last_year,
        "deflator_first": deflator_first,
        "deflator_last": deflator_last,
    }
    return Registry(sink.getvalue(), "\n".join(lines) + "\n", properties)


def raw_benchmark_sample(seed: int, n: int = 863) -> dict[str, list[float]]:
    """Raw external samples per metric, sized like the published group."""

    rng = random.Random(f"raw-benchmark/{n}/{seed}")
    return {
        "cost": [round(max(-0.9, rng.gauss(0.20, 0.30)), 6) for _ in range(n)],
        "schedule": [round(max(-0.9, rng.gauss(0.38, 0.85)), 6) for _ in range(n)],
    }


def class_sizes(count: int, smallest: int, largest: int) -> list[int]:
    """Log-uniform sizes from smallest to largest, at fixed quantiles, so the
    total work is the same for every seed; the seed only shuffles them."""

    span = math.log(largest / smallest)
    return [round(smallest * math.exp(span * (k + 0.5) / count)) for k in range(count)]


def small_classes(seed: int, count: int, smallest: int, largest: int) -> list[list[float]]:
    """Overrun fractions for many classes; three decimals, so ties occur."""

    rng = random.Random(f"classes/{count}/{smallest}/{largest}/{seed}")
    sizes = class_sizes(count, smallest, largest)
    rng.shuffle(sizes)
    return [
        [round(max(-0.9, rng.gauss(0.15, 0.30)), 3) for _ in range(size)]
        for size in sizes
    ]


def base_estimates(seed: int, count: int) -> list[int]:
    rng = random.Random(f"bases/{count}/{seed}")
    return [rng.randint(50_000, 2_000_000) for _ in range(count)]
