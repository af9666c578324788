"""Turn registry records into comparable overrun observations.

Cost overruns compare the nominal outturn, converted to the price level of
the estimate under test, against the base estimate (contingencies excluded).
Schedule overruns compare planned with actual calendar days, both measured
from the date the estimate was approved.

When a project has no recorded yearly disbursements, the outturn is spread
over the construction years with a standard disbursement profile chosen by
construction duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Mapping, Sequence

from .errors import DataFormatError
from .registry import (
    DEFAULT_ERA_CUTOFF,
    DeflatorSeries,
    Metric,
    ProjectRecord,
    Stage,
    construction_period,
    has_cost_data,
    has_schedule_data,
)

# Standard disbursement profiles, percent of outturn per project year,
# keyed by construction duration. Stored verbatim as published: the 4-, 6-
# and 10-year rows sum to 101, 101 and 99, so renormalize before spreading.
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

_NORMALIZED_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True, slots=True)
class DisbursementProfile:
    """Share of spending per project year.

    ``shares`` holds the published integer percentages until
    :func:`renormalize_profile` rescales them to fractions summing to one.
    """

    duration_years: int
    shares: tuple[float, ...]

    @property
    def is_normalized(self) -> bool:
        return abs(math.fsum(self.shares) - 1.0) <= _NORMALIZED_SUM_TOLERANCE


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


def disbursement_profile(duration_years: int) -> DisbursementProfile:
    """Return the published profile row for a whole-year duration, verbatim."""

    if duration_years not in DISBURSEMENT_PROFILE_PERCENTS:
        raise ValueError(f"no disbursement profile for {duration_years} years (1-10 supported)")
    row = DISBURSEMENT_PROFILE_PERCENTS[duration_years]
    return DisbursementProfile(duration_years, tuple(float(p) for p in row))


def renormalize_profile(profile: DisbursementProfile) -> DisbursementProfile:
    """Rescale shares to sum to one; published rows may sum to 99 or 101."""

    if any(s < 0 for s in profile.shares):
        raise ValueError("profile shares must be non-negative")
    total = math.fsum(profile.shares)
    if total <= 0:
        raise ValueError("profile shares sum to zero, cannot renormalize")
    return DisbursementProfile(profile.duration_years, tuple(s / total for s in profile.shares))


def spread_outturn(
    total_nominal: float, first_year: int, profile: DisbursementProfile
) -> dict[int, float]:
    """Spread a nominal total across consecutive years by profile share."""

    if not profile.is_normalized:
        raise ValueError("profile must be renormalized before spreading")
    return {
        first_year + offset: total_nominal * share
        for offset, share in enumerate(profile.shares)
    }


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


def _yearly_spending(record: ProjectRecord) -> dict[int, float]:
    """Nominal spending per year: the recorded disbursements, else the
    outturn spread over the construction period (which ``has_cost_data``
    has checked exists)."""

    if record.disbursements is not None:
        return {year: float(amount) for year, amount in record.disbursements.items()}
    first_year, duration = construction_period(record)
    profile = renormalize_profile(disbursement_profile(duration))
    return spread_outturn(float(record.outturn_nominal), first_year, profile)


def derive_observations(
    record: ProjectRecord,
    deflators: DeflatorSeries,
    era_cutoff: date = DEFAULT_ERA_CUTOFF,
) -> list[OverrunObservation]:
    """Emit every computable overrun observation for one record.

    Stages lacking the needed fields are skipped silently; a deflator gap is
    an error because the data claims more than the series can support.
    """

    date_c = record.stages[Stage.C].upgrade_date
    pre_era = date_c is not None and date_c < era_cutoff

    observations: list[OverrunObservation] = []
    yearly = None  # the same for every stage, so spread at most once
    for stage in Stage:
        est = record.stages[stage]
        if has_cost_data(record, stage):
            if yearly is None:
                yearly = _yearly_spending(record)
            try:
                outturn_constant = to_constant_prices(yearly, deflators, est.price_level_year)
            except OverflowError:  # math.fsum's, when finite terms sum past the float range
                outturn_constant = math.inf
            # Index ratios far apart can take the outturn past the float range,
            # or so far below the estimate that the overrun rounds to -1.
            value = cost_overrun(outturn_constant, float(est.base)) if outturn_constant > 0 else -1.0
            if not -1 < value < math.inf:
                bound, ratios = ("overflows to inf", "large") if value > 0 else ("underflows to -1", "small")
                raise DataFormatError(
                    f"project {record.id}, stage {stage}: the cost overrun {bound} "
                    f"(deflator index ratios too {ratios})"
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
