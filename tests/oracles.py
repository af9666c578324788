"""Slow reference implementations kept as test oracles.

Each function is the straightforward version the package used before its
fast path: leave-one-out re-sorts the other n - 1 values per held-out
project, loess argsorts every distance row and takes a pseudo-inverse per
point while filling a dense n x n hat matrix (and its power-sum form solves
every point, tied x included, with fresh work arrays per block), and
Fisher's test builds a Fraction per table. They are quadratic or worse, so tests call them on
small inputs only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from refclass import smoothing
from refclass.errors import InsufficientDataError
from refclass.reference_class import QuantileMethod, ReferenceClass
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
    tied x included, and fresh block temporaries; windows the power sums
    cannot solve go through ``smoothing._direct_fit`` as in the package."""

    order = sorted(range(len(points)), key=lambda i: (points[i][0], i))
    x = np.array([points[i][0] for i in order], dtype=float)
    y = np.array([points[i][1] for i in order], dtype=float)
    n = len(x)
    size = min(n, max(math.ceil(span * n), degree + 2))
    bounds, reach = smoothing._windows(x.tolist(), range(n), size)

    sums = np.empty((3, n, 2 * degree + 1))
    block = max(1, smoothing._BLOCK_ENTRIES // size)
    for start in range(0, n, block):
        rows = np.arange(start, min(n, start + block))
        index = smoothing._window_index(bounds[:, rows], size)
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
