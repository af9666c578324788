"""Turn uplift curves into funded contingencies.

A tier scheme names who holds how much certainty: the delegated contract
tier first, a project-level reserve above it, and a pooled portfolio tier on
top. Tranche money is the difference between consecutive cumulative
uplifts, rounded to whole HKD thousands at each tier boundary so the
tranches always reconcile exactly with the total funded amount.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import IO, Sequence

from .errors import NonMonotoneCurveError, shortened
from .formatting import round_half_away
from .reference_class import QuantileMethod, ReferenceClass, UpliftCurve, uplift
from .registry import DEFAULT_METHOD, DEFAULT_TIERS


@dataclass(frozen=True, slots=True)
class TierScheme:
    """Ordered (name, certainty) tiers, strictly increasing in certainty."""

    tiers: tuple[tuple[str, float], ...]
    note: str = ""

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("a tier scheme needs at least one tier")
        previous = 0.0
        named = set()
        for name, certainty in self.tiers:
            if not name:
                raise ValueError("tier names must be non-empty")
            if name in named:
                raise ValueError(f"tier {shortened(name)}: names must be unique")
            named.add(name)
            if not 0.0 < certainty <= 1.0:
                raise ValueError(f"tier {shortened(name)}: certainty must lie in (0, 1], got {certainty}")
            if certainty <= previous:
                raise ValueError(f"tier {shortened(name)}: certainties must be strictly increasing")
            previous = certainty


SCHEME_NOTE = "contract tier pinned at P55, the top of the P50-P55 delegation range"

DEFAULT_TIER_SCHEME = TierScheme(tiers=DEFAULT_TIERS, note=SCHEME_NOTE)


@dataclass(frozen=True, slots=True)
class TierTranche:
    name: str
    certainty: float
    cumulative_uplift: float
    cumulative_contingency: int
    tranche_amount: int


@dataclass(frozen=True, slots=True)
class TierAllocation:
    base_estimate: int
    tranches: tuple[TierTranche, ...]
    total_funded: int
    note: str = ""

    @property
    def total_contingency(self) -> int:
        return self.total_funded - self.base_estimate


def tier_allocation(base_estimate: int, curve: UpliftCurve, scheme: TierScheme) -> TierAllocation:
    """Allocate contingency tranches along a monotone uplift curve.

    Cumulative contingency is rounded at every tier boundary, so the
    tranches are non-negative (for curves with non-negative uplifts) and
    conserve the top-tier total exactly.
    """

    if base_estimate <= 0:
        raise ValueError(f"base estimate must be positive, got {base_estimate}")
    if not curve.monotone:
        raise NonMonotoneCurveError(
            "uplift curve is not monotone; apply isotonic adjustment before allocating from it"
        )

    tranches: list[TierTranche] = []
    previous_cumulative = 0
    for name, certainty in scheme.tiers:
        lift = curve.value_at(certainty)
        cumulative = round_half_away(base_estimate * lift)
        tranches.append(
            TierTranche(
                name=name,
                certainty=certainty,
                cumulative_uplift=lift,
                cumulative_contingency=cumulative,
                tranche_amount=cumulative - previous_cumulative,
            )
        )
        previous_cumulative = cumulative
    return TierAllocation(
        base_estimate=base_estimate,
        tranches=tuple(tranches),
        total_funded=base_estimate + previous_cumulative,
        note=scheme.note,
    )


@dataclass(frozen=True, slots=True)
class PortfolioPool:
    """Per-project funding at the project tier plus one shared reserve that
    tops the whole portfolio up to the portfolio tier."""

    project_certainty: float
    portfolio_certainty: float
    per_project_funded: tuple[int, ...]
    pooled_reserve: int

    @property
    def total_funded(self) -> int:
        return sum(self.per_project_funded) + self.pooled_reserve


def portfolio_pool(
    base_estimates: Sequence[int],
    reference: ReferenceClass,
    project_p: float,
    portfolio_p: float,
    method: QuantileMethod = DEFAULT_METHOD,
) -> PortfolioPool:
    """Fund each project at project_p and hold the gap up to portfolio_p
    centrally. A plain sum of gaps: no portfolio diversification is
    assumed, which keeps the pool conservative."""

    if not base_estimates:
        raise ValueError("at least one base estimate is required")
    if portfolio_p < project_p:
        raise ValueError(
            f"portfolio certainty {portfolio_p} must not be below project certainty {project_p}"
        )
    # Refused in the order of a pass per base: the first base, the class, the rest.
    lift = None
    for base in base_estimates:
        if base <= 0:
            raise ValueError(f"base estimate must be positive, got {base}")
        if lift is None:
            lift = uplift(reference, project_p, method)
    ceiling_lift = uplift(reference, portfolio_p, method)
    funded = tuple(round_half_away(b * (1.0 + lift)) for b in base_estimates)
    ceiling = tuple(round_half_away(b * (1.0 + ceiling_lift)) for b in base_estimates)
    pool = sum(c - f for c, f in zip(ceiling, funded))
    return PortfolioPool(
        project_certainty=project_p,
        portfolio_certainty=portfolio_p,
        per_project_funded=funded,
        pooled_reserve=pool,
    )


def write_allocation_json(allocation: TierAllocation, sink: IO[str]) -> None:
    payload = {
        "base_estimate": allocation.base_estimate,
        "total_funded": allocation.total_funded,
        "total_contingency": allocation.total_contingency,
        "note": allocation.note,
        "tiers": [asdict(tranche) for tranche in allocation.tranches],
    }
    json.dump(payload, sink, indent=2, sort_keys=True)
    sink.write("\n")
