"""Slow reference implementations kept as test oracles.

Each function is the straightforward version the package used before its
fast path: leave-one-out re-sorts the other n - 1 values per held-out
project, loess argsorts every distance row and takes a pseudo-inverse per
point while filling a dense n x n hat matrix (and its power-sum form solves
every point, tied x included, with fresh work arrays per block, sums
every power of every term, and gathers each window through indices filled
row by row), Fisher's test builds a Fraction per table, the rank-sum
test ranks through an argsort and a scan for ties (and counts its exact
tail by dynamic programming, where the package enumerates rank sets), the
date trend converts each observation's date on its own, hands loess
unsorted points and splits at a date, not on the era flag, the registry
parse makes a new object for every cell and keeps every record's report,
and the outturn spread renormalizes the published profile row on every
call. Most are quadratic or worse, so tests call them on small inputs
only.
"""

from __future__ import annotations

import math
from datetime import date
from fractions import Fraction
from typing import IO, Iterable, Sequence

import numpy as np

from refclass import registry, smoothing, stats
from refclass.errors import DataFormatError, InsufficientDataError, RecordConsistencyError, shortened
from refclass.normalization import DISBURSEMENT_PROFILE_PERCENTS, OverrunObservation
from refclass.reference_class import QuantileMethod, ReferenceClass, TrendPoint, TrendShift
from refclass.stats import TestResult
from refclass.validation import LoovRow

_Z_95 = 1.96


def empirical_quantile_scan(values: Sequence[float], p: float, method: QuantileMethod) -> float:
    """Quantile of a sorted sample, with the INF convention found by a
    linear scan for the smallest k with k / n >= p."""

    n = len(values)
    if method is QuantileMethod.INF:
        for k in range(1, n + 1):
            if k / n >= p:
                return values[k - 1]
        return values[-1]

    h = (n - 1) * p + 1.0
    h = min(max(h, 1.0), float(n))
    low = int(math.floor(h))
    if low >= n:
        return values[n - 1]
    frac = h - low
    if frac == 0.0:
        return values[low - 1]
    return values[low - 1] + frac * (values[low] - values[low - 1])


def leave_one_out(
    reference: ReferenceClass,
    p_levels: Sequence[float],
    method: QuantileMethod = QuantileMethod.INTERPOLATED,
) -> list[LoovRow]:
    """One row per class member: re-sort the rest of the class each time."""

    levels = sorted(set(p_levels))
    values = [o.value for o in reference.entries]
    rows: list[LoovRow] = []
    for i, held_out in enumerate(reference.entries):
        rest = sorted(values[:i] + values[i + 1 :])
        uplifts = {p: empirical_quantile_scan(rest, p, method) for p in levels}
        prevented = {p: held_out.value <= uplifts[p] for p in levels}
        rows.append(
            LoovRow(
                project_id=held_out.project_id,
                uplift_at=uplifts,
                actual=held_out.value,
                prevented_at=prevented,
            )
        )
    return rows


def loess_windows(x: Sequence[float], window_size: int) -> list[frozenset[int]]:
    """Index set of each point's window over ascending ``x``: the
    ``window_size`` smallest distances, ties taken lowest index first."""

    x = np.asarray(x, dtype=float)
    return [
        frozenset(np.argsort(np.abs(x - x[i]), kind="stable")[:window_size].tolist())
        for i in range(len(x))
    ]


def loess_smooth(
    points: Sequence[tuple[float, float]],
    span: float = 0.75,
    degree: int = 2,
) -> list[tuple[float, float, float, float]]:
    """Tricube local polynomial with a pseudo-inverse per point and the dense
    hat matrix."""

    n = len(points)
    if n < degree + 2:
        raise InsufficientDataError(
            f"loess needs at least {degree + 2} points for degree {degree}, got {n}"
        )

    order = sorted(range(n), key=lambda i: (points[i][0], i))
    x = np.array([points[i][0] for i in order], dtype=float)
    y = np.array([points[i][1] for i in order], dtype=float)

    window_size = min(n, max(math.ceil(span * n), degree + 2))

    fits = np.empty(n)
    hat = np.zeros((n, n))
    for i in range(n):
        distance = np.abs(x - x[i])
        window = np.argsort(distance, kind="stable")[:window_size]
        d_max = float(distance[window].max())
        if d_max == 0.0:
            fits[i] = float(np.mean(y[window]))
            hat[i, window] = 1.0 / window_size
            continue
        u = distance[window] / d_max
        weights = np.clip((1.0 - u**3) ** 3, 0.0, None)
        sqrt_w = np.sqrt(weights)
        design = np.vander(x[window] - x[i], degree + 1, increasing=True)
        pseudo = np.linalg.pinv(design * sqrt_w[:, None])
        fits[i] = float(pseudo[0] @ (y[window] * sqrt_w))
        hat[i, window] = pseudo[0] * sqrt_w

    residuals = y - fits
    effective_df = float(np.trace(hat))
    denom = max(float(n) - effective_df, 1.0)
    sigma2 = float(residuals @ residuals) / denom
    se = np.sqrt(sigma2 * np.sum(hat * hat, axis=1))

    return [
        (float(x[i]), float(fits[i]), float(fits[i] - _Z_95 * se[i]), float(fits[i] + _Z_95 * se[i]))
        for i in range(n)
    ]


def loess_smooth_per_point(
    points: Sequence[tuple[float, float]],
    span: float = 0.75,
    degree: int = 2,
) -> list[tuple[float, float, float, float]]:
    """The power-sum loess with one window and one local solve per point,
    tied x included, and fresh block temporaries; each window is gathered by
    a stable argsort of the distances (``loess_windows``), in index order.
    Windows the power sums cannot solve go through ``smoothing._direct_fit``
    as in the package."""

    order = sorted(range(len(points)), key=lambda i: (points[i][0], i))
    x = np.array([points[i][0] for i in order], dtype=float)
    y = np.array([points[i][1] for i in order], dtype=float)
    n = len(x)
    size = min(n, max(math.ceil(span * n), degree + 2))
    windows = np.array([sorted(window) for window in loess_windows(x, size)])
    reach = np.abs(x[windows] - x[:, None]).max(axis=1)

    sums = np.empty((3, n, 2 * degree + 1))
    block = max(1, smoothing._BLOCK_ENTRIES // size)
    for start in range(0, n, block):
        rows = np.arange(start, min(n, start + block))
        index = windows[rows]
        t = (x[index] - x[rows, None]) / np.where(reach[rows] > 0.0, reach[rows], 1.0)[:, None]
        weights = 1.0 - np.abs(t * t * t)
        weights *= weights * weights
        terms = np.stack([weights, weights * weights, weights * y[index]])
        for k in range(2 * degree + 1):
            sums[:, rows, k] = terms.sum(axis=-1)
            terms *= t

    pairs = np.add.outer(np.arange(degree + 1), np.arange(degree + 1))
    system = sums[0][:, pairs]
    eigenvalues = np.linalg.eigvalsh(system)
    solved = (reach > 0.0) & (eigenvalues[:, 0] * smoothing._MAX_CONDITION > eigenvalues[:, -1])
    system[~solved] = np.eye(degree + 1)
    unit = np.zeros((n, degree + 1, 1))
    unit[:, 0] = 1.0
    c = np.linalg.solve(system, unit)[..., 0]
    fits = np.einsum("ik,ik->i", c, sums[2][:, : degree + 1])
    hat_diagonal = c[:, 0].copy()
    hat_row_ss = np.einsum("ik,ikl,il->i", c, sums[1][:, pairs], c)
    for i in np.flatnonzero(~solved):
        fits[i], window, hat_row = smoothing._direct_fit(x, y, i, size, degree)
        hat_diagonal[i] = hat_row[window == i].sum()
        hat_row_ss[i] = hat_row @ hat_row

    residuals = y - fits
    sigma2 = float(residuals @ residuals) / max(float(n) - float(hat_diagonal.sum()), 1.0)
    se = np.sqrt(sigma2 * hat_row_ss)
    return [
        (float(x[i]), float(fits[i]), float(fits[i] - _Z_95 * se[i]), float(fits[i] + _Z_95 * se[i]))
        for i in range(n)
    ]


def proportion_test(k1: int, n1: int, k2: int, n2: int) -> float:
    """Fisher's exact two-sided p with one Fraction per table."""

    k = k1 + k2
    total = n1 + n2
    denominator = math.comb(total, k)
    observed = Fraction(math.comb(n1, k1) * math.comb(n2, k - k1), denominator)
    p = Fraction(0)
    for x in range(max(0, k - n2), min(n1, k) + 1):
        table = Fraction(math.comb(n1, x) * math.comb(n2, k - x), denominator)
        if table <= observed:
            p += table
    return float(min(p, Fraction(1)))


def _midranks(values: Sequence[float]) -> tuple[list[float], list[int]]:
    """Ranks 1..n with ties averaged; also returns the tie-group sizes."""

    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    tie_sizes: list[int] = []
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        # positions i..j (0-based) share ranks i+1..j+1
        mean_rank = (i + 1 + j + 1) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        tie_sizes.append(j - i + 1)
        i = j + 1
    return ranks, tie_sizes


def rank_sum_counts(k: int, n: int) -> list[int]:
    """counts[s] = number of k-subsets of {1..n} whose ranks sum to s, by
    dynamic programming over the ranks (the package enumerates the subsets)."""

    max_sum = k * (2 * n - k + 1) // 2
    counts = [[0] * (max_sum + 1) for _ in range(k + 1)]
    counts[0][0] = 1
    for m in range(1, n + 1):
        for j in range(min(m, k), 0, -1):
            row, prev = counts[j], counts[j - 1]
            for s in range(max_sum, m - 1, -1):
                if prev[s - m]:
                    row[s] += prev[s - m]
    return counts[k]


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """The rank-sum test with a rank per pooled value from ``_midranks``."""

    n_a, n_b = len(a), len(b)
    ranks, tie_sizes = _midranks(list(a) + list(b))
    rank_sum_a = math.fsum(ranks[:n_a])
    u_a = rank_sum_a - n_a * (n_a + 1) / 2.0
    u_b = n_a * n_b - u_a
    has_ties = any(t > 1 for t in tie_sizes)
    n = n_a + n_b

    if not has_ties and n <= stats.EXACT_RANK_TEST_LIMIT:
        u_small = min(u_a, u_b)
        offset = n_a * (n_a + 1) // 2
        counts = rank_sum_counts(n_a, n)
        limit = int(round(u_small)) + offset
        tail = sum(counts[s] for s in range(offset, min(limit, len(counts) - 1) + 1))
        p = min(1.0, float(2 * Fraction(tail, math.comb(n, n_a))))
        return TestResult("mann-whitney-u", u_a, p)

    tie_term = math.fsum(t**3 - t for t in tie_sizes)
    variance = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0:
        return TestResult("mann-whitney-u", u_a, 1.0)
    mean_u = n_a * n_b / 2.0
    z = max(0.0, abs(u_a - mean_u) - 0.5) / math.sqrt(variance)
    p = min(1.0, 2.0 * stats._normal_sf(z))
    return TestResult("mann-whitney-u", u_a, p)


def _year_fraction(d: date) -> float:
    year_start = date(d.year, 1, 1)
    year_days = (date(d.year + 1, 1, 1) - year_start).days
    return d.year + (d - year_start).days / year_days


def trend_by_date(
    observations: Iterable[OverrunObservation],
    cutoff: date,
    span: float = 0.75,
    degree: int = 2,
) -> tuple[list[TrendPoint], TrendShift]:
    """The date trend through the public ``loess_smooth``: one
    ``_year_fraction`` per observation, the points sorted again by loess,
    and each side of the cutoff date gathered by its own scan. It equals
    the package's split on ``pre_era`` when the flags follow the dates."""

    dated = sorted(observations, key=lambda o: (o.reference_date, o.project_id))
    points = [(_year_fraction(o.reference_date), o.value) for o in dated]
    smoothed = smoothing.loess_smooth(points, span=span, degree=degree)
    trend = [
        TrendPoint(o.reference_date, fit, lo, hi) for o, (_, fit, lo, hi) in zip(dated, smoothed)
    ]
    before = [o.value for o in dated if o.reference_date < cutoff]
    after = [o.value for o in dated if o.reference_date >= cutoff]
    shift = TrendShift(
        n_before=len(before),
        n_after=len(after),
        mean_before=math.fsum(before) / len(before) if before else None,
        mean_after=math.fsum(after) / len(after) if after else None,
        test=mann_whitney_u(before, after) if before and after else None,
    )
    return trend, shift


def _row_to_record(row: Sequence[str], row_number: int) -> registry.ProjectRecord:
    record_fields: dict[str, object] = {}
    stage_fields: dict[registry.Stage, dict[str, object]] = {stage: {} for stage in registry.Stage}
    for column, cell in zip(registry._COLUMNS, row):
        text = cell.strip()
        if text == "":
            if column.attribute == "id":
                raise DataFormatError(f"row {row_number}, column {column.name!r}: project id is missing")
            continue
        try:
            value = column.parse(text, {})  # a dict of its own: nothing is shared
        except ValueError as exc:
            raise DataFormatError(f"row {row_number}, column {column.name!r}: {exc}") from None
        owner = record_fields if column.stage is None else stage_fields[column.stage]
        owner[column.attribute] = value
    stages = {stage: registry.StageEstimate(**values) for stage, values in stage_fields.items()}
    return registry.ProjectRecord(stages=stages, **record_fields)


def parse_project_records_lenient(
    source: Iterable[str] | IO[str],
) -> tuple[list[registry.ProjectRecord], dict[str, list[registry.Violation]]]:
    """The lenient parse with a new object for every cell, and every
    record's report, keyed by id, doubling as the duplicate check."""

    records: list[registry.ProjectRecord] = []
    reports: dict[str, list[registry.Violation]] = {}
    for row_number, row in registry._table_rows(source, "projects", registry.PROJECT_COLUMNS):
        record = _row_to_record(row, row_number)
        if record.id in reports:
            raise DataFormatError(f"row {row_number}: duplicate project id {shortened(record.id)}")
        records.append(record)
        reports[record.id] = registry.validate_record(record)
    return records, reports


def parse_project_records(source: Iterable[str] | IO[str]) -> list[registry.ProjectRecord]:
    """The strict parse through the lenient one's full report table."""

    records, reports = parse_project_records_lenient(source)
    for record in records:
        problems = reports[record.id]
        if problems:
            raise RecordConsistencyError("; ".join(v.message for v in problems))
    return records


def disbursement_shares(duration_years: int) -> tuple[float, ...]:
    """The published row for a duration, renormalized: the row as floats,
    each divided by their fsum."""

    row = [float(p) for p in DISBURSEMENT_PROFILE_PERCENTS[duration_years]]
    total = math.fsum(row)
    return tuple(p / total for p in row)


def spread_outturn(total_nominal: float, first_year: int, duration_years: int) -> dict[int, float]:
    """The outturn spread by a row renormalized for this call."""

    shares = disbursement_shares(duration_years)
    return {first_year + offset: total_nominal * share for offset, share in enumerate(shares)}
