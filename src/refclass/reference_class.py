"""Reference classes and de-biasing uplift curves.

A reference class is the empirical outcome distribution of comparable
completed projects. The uplift at certainty p is the p-quantile of that
distribution: add it to a new estimate and the chance of still overrunning
is 1 - p.

Two quantile conventions are supported. ``inf`` takes the smallest sample
value whose empirical distribution function reaches p, so the answer is
always an observed outcome. ``interp`` interpolates linearly between order
statistics (rank position h = (n - 1) p + 1), which is the default because
published uplift tables round to it. ``QuantileMethod`` (from ``registry``)
names them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from datetime import date
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import EmptyClassError, InsufficientDataError, NonMonotoneCurveError
from .normalization import OverrunObservation
from .registry import DEFAULT_DEGREE, DEFAULT_GRID_STEP, DEFAULT_METHOD, DEFAULT_MIN_OUTTURN
from .registry import DEFAULT_SPAN, MAX_GRID_STEP, MIN_GRID_STEP, Metric, QuantileMethod, Stage

if TYPE_CHECKING:
    from .stats import TestResult

# The loess fit and the isotonic repair import .smoothing, and numpy with
# it, where they run, so a command that never smooths starts without numpy;
# the date trend imports .stats the same way for its rank test. Only an
# empty class logs, so logging too is imported where that warning is made.

_GRID_EPS = 1e-9


def rank_position(n: int, p: float, method: QuantileMethod) -> tuple[int, float]:
    """Where the p-quantile of ``n`` sorted values sits: the 0-based order
    statistic ``i`` it starts at, and the fraction ``frac`` of the way to the
    next one (0.0 means the value at ``i`` alone).

    With INF, i + 1 is the smallest k with k / n >= p, so the quantile is the
    smallest value x with (count of values <= x) / n >= p. With INTERPOLATED
    the rank position h = (n - 1) p + 1, counted from 1, is interpolated
    linearly between its two neighbours.
    """

    if n == 0:
        raise EmptyClassError("cannot take a quantile of an empty sample")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")

    if method is QuantileMethod.INF:
        # ceil(n p), in [1, n] as 0 < n * p <= n, is the answer up to float
        # noise in n * p; step it to the smallest k whose k / n, the quotient
        # the definition compares, reaches p (k / n only grows with k, and
        # n / n = 1 >= p).
        k = math.ceil(n * p)
        while k > 1 and (k - 1) / n >= p:
            k -= 1
        while k / n < p:
            k += 1
        return k - 1, 0.0

    h = (n - 1) * p + 1.0  # in [1, n], as (n - 1) * p is in [0, n - 1]
    low = math.floor(h)
    return low - 1, h - low


def empirical_quantile(values: Sequence[float], p: float, method: QuantileMethod) -> float:
    """Quantile of an ascending sample, read where ``rank_position`` says."""

    i, frac = rank_position(len(values), p, method)
    if frac == 0.0:
        return values[i]
    return values[i] + frac * (values[i + 1] - values[i])


@dataclass(frozen=True, slots=True)
class ClassFilter:
    """Membership rule for a reference class."""

    stage: Stage
    metric: Metric
    min_outturn: int = DEFAULT_MIN_OUTTURN
    exclude_pre_era: bool = True


@dataclass(frozen=True, slots=True)
class ReferenceClass:
    """A filtered set of overrun observations.

    ``entries`` keeps the order the observations arrived in (leave-one-out
    reports follow it). ``order`` lists the entry indices sorted ascending
    by value (a stable sort, so ties keep their entry order), and
    ``values`` holds the outcome fractions in that order. Every quantile is
    read off ``values`` at the positions ``rank_position`` gives.
    """

    entries: tuple[OverrunObservation, ...]
    order: tuple[int, ...] = field(init=False, repr=False, compare=False)
    values: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        order = tuple(sorted(range(len(self.entries)), key=lambda i: self.entries[i].value))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "values", tuple(self.entries[i].value for i in order))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "ReferenceClass":
        """Build a Category C cost class directly from outcome fractions
        (mainly for studies and tests); synthesizes observation metadata."""

        entries = tuple(
            OverrunObservation(
                project_id=f"v{i + 1:03d}",
                stage=Stage.C,
                metric=Metric.COST,
                value=value,
                reference_date=date(2000, 1, 1),
                pre_era=False,
                outturn_nominal=DEFAULT_MIN_OUTTURN,
            )
            for i, value in enumerate(values)
        )
        return cls(entries=entries)


def build_class(
    observations: Iterable[OverrunObservation], class_filter: ClassFilter
) -> ReferenceClass:
    """Select the observations matching a filter.

    An empty result is legal (the caller may simply have no comparable
    projects) but is worth noticing, so it is logged.
    """

    kept = tuple(
        o
        for o in observations
        if o.stage is class_filter.stage
        and o.metric is class_filter.metric
        and o.outturn_nominal >= class_filter.min_outturn
        and not (class_filter.exclude_pre_era and o.pre_era)
    )
    if not kept:
        import logging

        # Logging output is the application's choice. Without a handler on
        # the package's logger, a warning would reach stderr through
        # logging's last-resort handler.
        package_logger = logging.getLogger(__package__)
        if not package_logger.handlers:
            package_logger.addHandler(logging.NullHandler())
        logging.getLogger(__name__).warning(
            "reference class is empty: stage %s, metric %s, min outturn %d",
            class_filter.stage,
            class_filter.metric,
            class_filter.min_outturn,
        )
    return ReferenceClass(entries=kept)


def uplift(
    reference: ReferenceClass,
    p: float,
    method: QuantileMethod = DEFAULT_METHOD,
) -> float:
    """Uplift at certainty p: accept a 1 - p chance of still overrunning."""

    return empirical_quantile(reference.values, p, method)


def required_certainty(
    reference: ReferenceClass,
    uplift_value: float,
    method: QuantileMethod = DEFAULT_METHOD,
) -> float:
    """Largest certainty on the default probability grid a given uplift already buys.

    Zero when the uplift sits below the whole distribution. A small
    absolute tolerance absorbs float noise at grid boundaries.
    """

    best = 0.0
    for p in default_probability_grid():
        if uplift(reference, p, method) <= uplift_value + _GRID_EPS:
            best = p
    return best


def default_probability_grid(step: float = DEFAULT_GRID_STEP) -> tuple[float, ...]:
    """Certainty grid for curve export: step increments up to MAX_GRID_STEP, plus 1."""

    if not MIN_GRID_STEP <= step <= MAX_GRID_STEP:
        raise ValueError(f"grid step must lie in [{MIN_GRID_STEP}, {MAX_GRID_STEP}], got {step}")
    grid: list[float] = []
    i = 1
    while True:
        p = round(i * step, 10)
        if p > MAX_GRID_STEP + _GRID_EPS:
            break
        grid.append(p)
        i += 1
    grid.append(1.0)
    return tuple(grid)


@dataclass(frozen=True, slots=True)
class UpliftCurve:
    """Uplift as a function of certainty.

    ``points`` holds the raw quantiles per grid certainty. ``smoothed``
    (optional) holds (p, fit, ci_low, ci_high). The effective series is the
    fit when there is one, else the raw quantiles.
    """

    points: tuple[tuple[float, float], ...]
    method: QuantileMethod
    smoothed: tuple[tuple[float, float, float, float], ...] | None = None

    @property
    def effective_points(self) -> tuple[tuple[float, float], ...]:
        if self.smoothed is not None:
            return tuple((p, fit) for p, fit, _, _ in self.smoothed)
        return self.points

    @property
    def monotone(self) -> bool:
        """Whether the effective series never decreases (raw quantiles never do)."""

        values = [v for _, v in self.effective_points]
        return all(a <= b for a, b in zip(values, values[1:]))

    def value_at(self, p: float) -> float:
        """Linear interpolation on the effective series; exact at grid nodes."""

        pts = self.effective_points
        grid = [q for q, _ in pts]
        if not grid[0] - _GRID_EPS <= p <= grid[-1] + _GRID_EPS:
            raise ValueError(f"certainty {p} outside curve domain {grid[0]}-{grid[-1]}")
        i = bisect_left(grid, p)
        if i < len(grid) and abs(grid[i] - p) <= _GRID_EPS:
            return pts[i][1]
        if i == 0:
            # Inside the domain, yet grid[0] - p rounded past _GRID_EPS (p = 0.3 - 1e-9).
            return pts[0][1]
        if i >= len(grid):
            return pts[-1][1]
        (p0, v0), (p1, v1) = pts[i - 1], pts[i]
        return v0 + (p - p0) / (p1 - p0) * (v1 - v0)


def uplift_curve(
    reference: ReferenceClass,
    grid: Sequence[float] | None = None,
    method: QuantileMethod = DEFAULT_METHOD,
) -> UpliftCurve:
    if grid is None:
        grid = default_probability_grid()
    if not grid:
        raise ValueError("probability grid is empty")
    ordered = sorted(grid)
    values = reference.values
    points = tuple((p, empirical_quantile(values, p, method)) for p in ordered)
    return UpliftCurve(points=points, method=method)


def smooth_curve(curve: UpliftCurve, span: float = DEFAULT_SPAN, degree: int = DEFAULT_DEGREE) -> UpliftCurve:
    """Attach a loess fit over the raw quantile points.

    The fit is not forced monotone here; run :func:`isotonic_adjust` before
    any consumer that requires monotonicity.
    """

    from .smoothing import loess_smooth

    smoothed = tuple(loess_smooth(curve.points, span=span, degree=degree))
    return replace(curve, smoothed=smoothed)


def isotonic_adjust(curve: UpliftCurve) -> UpliftCurve:
    """Project the smoothed fit onto non-decreasing sequences.

    Confidence bounds are widened where the projection moves the fit past
    them, preserving ci_low <= fit <= ci_high.
    """

    if curve.smoothed is None:
        raise ValueError("curve has no smoothed series to adjust")
    from .smoothing import pool_adjacent_violators

    fits = [f for _, f, _, _ in curve.smoothed]
    adjusted = pool_adjacent_violators(fits)
    smoothed = tuple(
        (p, fit, min(lo, fit), max(hi, fit))
        for (p, _, lo, hi), fit in zip(curve.smoothed, adjusted)
    )
    return replace(curve, smoothed=smoothed)


def require_monotone(curve: UpliftCurve) -> None:
    if not curve.monotone:
        raise NonMonotoneCurveError(
            "uplift curve is not monotone; apply isotonic adjustment before allocating from it"
        )


@dataclass(frozen=True, slots=True)
class TrendPoint:
    reference_date: date
    fit: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True, slots=True)
class TrendShift:
    """Comparison of the pre-era overruns (``pre_era``, the flag the class
    filter reads) with the rest."""

    n_before: int
    n_after: int
    mean_before: float | None
    mean_after: float | None
    test: TestResult | None


def trend_by_date(
    observations: Iterable[OverrunObservation],
    span: float = DEFAULT_SPAN,
    degree: int = DEFAULT_DEGREE,
) -> tuple[list[TrendPoint], TrendShift]:
    """Loess trend of overruns over their reference dates, plus a
    rank-tested comparison of the pre-era observations with the rest."""

    from operator import attrgetter

    dated = sorted(observations, key=attrgetter("reference_date", "project_id"))
    if len(dated) < 4:
        raise InsufficientDataError(
            f"trend needs at least 4 dated observations, got {len(dated)}"
        )
    from .smoothing import _loess_sorted
    from .stats import mann_whitney_u

    # Each date as a year plus the fraction of that year gone by. Fractions
    # grow strictly with the date, so the dated order is the fit's x order.
    x = []
    year = None
    for o in dated:
        d = o.reference_date
        if d.year != year:
            year = d.year
            start = date(year, 1, 1).toordinal()
            days = date(year + 1, 1, 1).toordinal() - start
        x.append(year + (d.toordinal() - start) / days)
    values = [o.value for o in dated]
    fits, lows, highs = _loess_sorted(x, values, span, degree)
    trend = [
        TrendPoint(o.reference_date, fit, low, high)
        for o, fit, low, high in zip(dated, fits.tolist(), lows.tolist(), highs.tolist())
    ]

    before = [o.value for o in dated if o.pre_era]
    after = [o.value for o in dated if not o.pre_era]
    shift = TrendShift(
        n_before=len(before),
        n_after=len(after),
        mean_before=math.fsum(before) / len(before) if before else None,
        mean_after=math.fsum(after) / len(after) if after else None,
        test=mann_whitney_u(before, after) if before and after else None,
    )
    return trend, shift
