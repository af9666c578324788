"""Turn registry records into comparable overrun observations.

Cost overruns compare the nominal outturn, converted to the price level of
the estimate under test, against the base estimate (contingencies excluded).
Schedule overruns compare planned with actual calendar days, both measured
from the date the estimate was approved.

When a project has no recorded yearly disbursements, the outturn is spread
over the construction years with a standard disbursement profile chosen by
construction duration; the published rows are normalized once, here.

The rules for whether a record yields an observation at a stage live here
too, beside the derivation they gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Mapping, Sequence

from .errors import DataFormatError, DeflatorCoverageError
from .registry import _STAGES, DAYS_PER_YEAR, DEFAULT_ERA_CUTOFF, MAX_MONEY
from .registry import DeflatorSeries, Metric, ProjectRecord, Stage

# Standard disbursement profiles, percent of outturn per project year,
# keyed by construction duration. Stored verbatim as published: the 4-, 6-
# and 10-year rows sum to 101, 101 and 99.
DISBURSEMENT_PROFILE_PERCENTS: dict[int, tuple[int, ...]] = {
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

#: The same rows as shares summing to one. Each is the correctly rounded
#: quotient of two integers, so no row needs renormalizing at the point of use.
DISBURSEMENT_SHARES: dict[int, tuple[float, ...]] = {
    years: tuple(p / sum(row) for p in row) for years, row in DISBURSEMENT_PROFILE_PERCENTS.items()
}


@dataclass(frozen=True, slots=True)
class OverrunObservation:
    """One normalized outcome: how far a stage estimate missed reality.

    ``value`` is a fraction (+0.25 means 25 percent over). ``pre_era``
    marks projects whose Category C upgrade predates the procedure cutoff.
    ``outturn_nominal`` travels with the observation so class filters can
    apply a size threshold without going back to the registry.
    """

    project_id: str
    stage: Stage
    metric: Metric
    value: float
    reference_date: date
    pre_era: bool
    outturn_nominal: int

    def __post_init__(self) -> None:
        if not self.value > -1.0:
            raise ValueError(
                f"{self.project_id}: overrun must exceed -1 (total loss), got {self.value}"
            )


def spread_outturn(total_nominal: float, first_year: int, duration_years: int) -> dict[int, float]:
    """Spread a nominal total across consecutive years by the profile for
    a whole-year duration (1-10)."""

    # True == 1 and 3.0 == 3 would pass the lookup alone.
    whole = isinstance(duration_years, int) and not isinstance(duration_years, bool)
    shares = DISBURSEMENT_SHARES.get(duration_years) if whole else None
    if shares is None:
        raise ValueError(f"no disbursement profile for {duration_years} years (1-10 supported)")
    return {first_year + offset: total_nominal * share for offset, share in enumerate(shares)}


def to_constant_prices(
    yearly_nominal: Mapping[int, float], deflators: DeflatorSeries, target_year: int
) -> float:
    """Re-express year-of-expenditure money at the target year's price level.

    Only index ratios enter, so rescaling the whole series is a no-op.
    """

    target_index = deflators.index(target_year)
    return math.fsum(
        amount * target_index / deflators.index(year)
        for year, amount in sorted(yearly_nominal.items())
    )


def cost_overrun(actual_constant: float, estimate_constant: float) -> float:
    """Fractional cost overrun of actual against estimate, same price level."""

    if estimate_constant <= 0:
        raise ValueError(f"estimate must be positive, got {estimate_constant}")
    if actual_constant <= 0:
        raise ValueError(f"actual cost must be positive, got {actual_constant}")
    return (actual_constant - estimate_constant) / estimate_constant


def schedule_overrun(reference: date, planned_completion: date, actual_completion: date) -> float:
    """Fractional schedule overrun in calendar days, both durations measured
    from the reference (estimate) date."""

    planned_days = (planned_completion - reference).days
    actual_days = (actual_completion - reference).days
    if planned_days <= 0:
        raise ValueError(
            f"planned completion {planned_completion.isoformat()} does not follow "
            f"reference date {reference.isoformat()}"
        )
    if actual_days <= 0:
        raise ValueError(
            f"actual completion {actual_completion.isoformat()} does not follow "
            f"reference date {reference.isoformat()}"
        )
    return (actual_days - planned_days) / planned_days


def construction_period(record: ProjectRecord) -> tuple[int, int] | None:
    """The first construction year and the construction duration to the
    nearest whole year, clamped to the 1-10 range the disbursement profiles
    cover: the years a record's outturn is spread over when it has no
    recorded disbursements.

    Falls back to the Category A upgrade date when no construction start is
    recorded. None when no positive duration can be established.
    """

    start = record.construction_start or record.stages[Stage.A].upgrade_date
    if start is None or record.actual_completion is None:
        return None
    days = (record.actual_completion - start).days
    if days <= 0:
        return None
    return start.year, min(10, max(1, round(days / DAYS_PER_YEAR)))


def has_cost_data(record: ProjectRecord, stage: Stage) -> bool:
    """True when a cost overrun at this stage is computable from the record
    alone (deflator coverage is checked later, at derivation time)."""

    est = record.stages[stage]
    if est.upgrade_date is None or est.base is None or est.base <= 0:
        return False
    if est.price_level_year is None:
        return False
    if record.outturn_nominal is None or record.outturn_nominal <= 0:
        return False
    if record.disbursements is not None:
        return True
    # Without actual disbursements the outturn is spread over construction
    # years, which needs a construction period of positive length.
    return construction_period(record) is not None


def has_schedule_data(record: ProjectRecord, stage: Stage) -> bool:
    est = record.stages[stage]
    if est.upgrade_date is None or est.planned_completion is None:
        return False
    if record.actual_completion is None:
        return False
    return est.planned_completion > est.upgrade_date and record.actual_completion > est.upgrade_date


def _yearly_spending(record: ProjectRecord) -> dict[int, float]:
    """Nominal spending per year: the recorded disbursements, else the
    outturn spread over the construction period (which ``has_cost_data``
    has checked exists)."""

    if record.disbursements is not None:
        return {year: float(amount) for year, amount in record.disbursements.items()}
    return spread_outturn(float(record.outturn_nominal), *construction_period(record))


def derive_observations(
    record: ProjectRecord,
    deflators: DeflatorSeries,
    era_cutoff: date = DEFAULT_ERA_CUTOFF,
) -> list[OverrunObservation]:
    """Emit every computable overrun observation for one record.

    Stages lacking the needed fields are skipped silently; a deflator gap is
    an error, naming the project and stage, because the data claims more than
    the series can support.
    """

    date_c = record.stages[Stage.C].upgrade_date
    pre_era = date_c is not None and date_c < era_cutoff

    observations: list[OverrunObservation] = []
    yearly = None  # the same for every stage, so spread at most once
    for stage in _STAGES:
        est = record.stages[stage]
        if has_cost_data(record, stage):
            if yearly is None:
                yearly = _yearly_spending(record)
            try:
                outturn_constant = to_constant_prices(yearly, deflators, est.price_level_year)
            except OverflowError:  # math.fsum's, when finite terms sum past the float range
                outturn_constant = math.inf
            except DeflatorCoverageError as exc:
                raise DeflatorCoverageError(f"project {record.id}, stage {stage}: {exc}") from None
            # Index ratios far apart can take the outturn past the float range or
            # the bound every money cell has, or so far below the estimate that
            # the overrun rounds to -1.
            value = cost_overrun(outturn_constant, float(est.base)) if outturn_constant > 0 else -1.0
            if not -1 < value < math.inf or outturn_constant > MAX_MONEY:
                problem, ratios = (
                    ("the cost overrun underflows to -1", "small") if value <= -1
                    else ("the cost overrun overflows to inf", "large") if value == math.inf
                    else (f"the outturn at {est.price_level_year} prices exceeds {MAX_MONEY}", "large")
                )
                raise DataFormatError(
                    f"project {record.id}, stage {stage}: {problem} (deflator index ratios too {ratios})"
                )
            observations.append(
                OverrunObservation(
                    project_id=record.id,
                    stage=stage,
                    metric=Metric.COST,
                    value=value,
                    reference_date=est.upgrade_date,
                    pre_era=pre_era,
                    outturn_nominal=record.outturn_nominal,
                )
            )
        if has_schedule_data(record, stage):
            value = schedule_overrun(est.upgrade_date, est.planned_completion, record.actual_completion)
            observations.append(
                OverrunObservation(
                    project_id=record.id,
                    stage=stage,
                    metric=Metric.SCHEDULE,
                    value=value,
                    reference_date=est.upgrade_date,
                    pre_era=pre_era,
                    outturn_nominal=record.outturn_nominal if record.outturn_nominal is not None else 0,
                )
            )
    return observations


def derive_all_observations(
    records: Sequence[ProjectRecord],
    deflators: DeflatorSeries,
    era_cutoff: date = DEFAULT_ERA_CUTOFF,
) -> list[OverrunObservation]:
    observations: list[OverrunObservation] = []
    for record in records:
        observations.extend(derive_observations(record, deflators, era_cutoff))
    return observations
