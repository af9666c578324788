"""Local regression and monotone projection for uplift curves and trends.

loess_smooth fits a tricube-weighted local polynomial (degree 1 or 2) at
every input x. Point i's window holds the ceil(span * n) points nearest to
it, never fewer than degree + 2; at the window's edge distance, tied points
are taken lowest index (in ascending x order) first, so with repeated x a
window can skip part of a tie block. Because x is sorted, a two-pointer
scan finds every window in one pass. x and y must be finite. The date
trend skips that sort: its points arrive sorted by date, and a date's year
fraction grows strictly with the date, so they are already in x order.

The fit at each point is a linear map of the responses: its hat vector
h_j = w_j * sum_k c_k t_j^k, where t = (x - x_i) / d_max scales the window
into [-1, 1], w is the tricube weight and c solves the small centred system
M c = e_0 with M_kl = sum w t^(k+l). So the fit, the hat diagonal (c_0) and
the hat row's sum of squares (c' M2 c, M2_kl = sum w^2 t^(k+l)) all follow
from weighted power sums: those of w and w^2 up to t^(2 degree), those of
w y up to t^degree. They are computed for blocks of points at a time in
work arrays allocated once per fit, each window read as one strided row of
the sorted x (and y); no n x n matrix is formed, so memory stays linear in
n. Every sum is taken in the same order whatever the block, so the fits do
not depend on the block size. Where the window skips part of a tie block at
its edge distance, the row holds the ties next to the nearer points rather
than the lowest-index ones the window takes. Either way they sit at t = -1
with weight exactly 0, so for finite y they change no sum, except that a
fit of exactly zero may change its sign (0 * y is -0.0 for negative y).

Points with equal x (reference dates repeat) have the same distances to
every point, so the same window, local system and fit: the power sums are
taken once per distinct x and copied to the rest of its run. The hat
diagonal is shared too: when the window's reach d_max is positive, every
point tied with x_i lies strictly inside it, at t = 0 with w = 1, so its
diagonal is the same c_0. A window whose system is singular or
ill-conditioned (too few distinct x with positive weight) is solved
directly, per point, by a pseudo-inverse, and one whose x values all
coincide (d_max = 0) takes the local mean; a point of a tie run longer than
the window may then lie outside its own window, with hat diagonal 0.

Fits of at most 128 points, such as an uplift curve on the default grid
(100 points), solve every point directly and keep the dense n x n hat
matrix (at most 128 KiB), so their output is the same to the last bit. A
grid step of at most 0.99 / 128 takes the power-sum path: 0.0077 gives 129
points, 0.005 gives 199 and 0.0001 gives 9,901. The pointwise standard
error is sqrt(sigma^2 * sum_j h_j^2), with the residual variance sigma^2
estimated globally; the 95 percent band is fit +/- 1.96 * SE.

pool_adjacent_violators is the least-squares projection onto non-decreasing
sequences: scan forward, merge adjacent blocks whose means are out of order,
and write each block's mean back over its span.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientDataError
from .registry import DEFAULT_DEGREE, DEFAULT_SPAN, LOESS_MIN_POINTS

_Z_95 = 1.96

#: Entries per (points x window) work array; a fit holds four (512 KiB) and
#: one block of gathered window rows at a time. Larger blocks take fewer
#: numpy calls per point, but past 2^14 no faster fit shows. On a 2-core
#: host, the loess fit of a class with 1,087 distinct dates (1,768 points)
#: took a median of 21.9 ms at 2^14 entries and 22.8 ms at 2^15, quartiles
#: 21.4-25.2 and 21.2-24.7 ms, over 12 alternated rounds of best of 8;
#: 2^14 was slower in 7 of them, by a median of 0.25 ms. An earlier
#: measurement gave 28-43 ms at 2^13 and 26-30 ms at 2^16.
_BLOCK_ENTRIES = 1 << 14

#: Local systems with a larger condition number are solved by pseudo-inverse.
_MAX_CONDITION = 1e8

#: Fits of at most this many points (an uplift curve on a grid step above
#: 0.99 / 128) solve each point directly into a dense hat matrix, which
#: is cheap at this size and keeps the printed full-precision uplifts
#: identical to the last bit.
_DIRECT_MAX_POINTS = 128


def loess_smooth(
    points: Sequence[tuple[float, float]],
    span: float = DEFAULT_SPAN,
    degree: int = DEFAULT_DEGREE,
) -> list[tuple[float, float, float, float]]:
    """Smooth (x, y) points, returning (x, fit, ci_low, ci_high) per point
    in ascending x order.

    Exactly reproduces polynomial data of the fitted degree. A window whose
    x values have collapsed to a single point degenerates to the local mean.
    """

    order = sorted(range(len(points)), key=lambda i: (points[i][0], i))
    x = np.array([points[i][0] for i in order], dtype=float)
    y = np.array([points[i][1] for i in order], dtype=float)
    fits, low, high = _loess_sorted(x, y, span, degree)
    return list(zip(x.tolist(), fits.tolist(), low.tolist(), high.tolist()))


def _loess_sorted(
    x: Sequence[float], y: Sequence[float], span: float, degree: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fit and the low and high ends of its 95 percent band at each
    point of ascending ``x``: ``loess_smooth`` after its sort."""

    # 1.0 == 1 and True == 1 would pass the lookup alone; 1.0 then fails
    # inside np.vander, and True fits a line.
    if isinstance(degree, bool) or not isinstance(degree, (int, np.integer)) or degree not in LOESS_MIN_POINTS:
        raise ValueError(f"degree must be {' or '.join(map(str, LOESS_MIN_POINTS))}, got {degree}")
    if not 0.0 < span <= 1.0:
        raise ValueError(f"span must lie in (0, 1], got {span}")
    n = len(x)
    fewest = LOESS_MIN_POINTS[degree]
    if n < fewest:
        raise InsufficientDataError(
            f"loess needs at least {fewest} points for degree {degree}, got {n}"
        )
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("loess needs finite x and y")

    window_size = min(n, max(math.ceil(span * n), fewest))
    if n <= _DIRECT_MAX_POINTS:
        fits = np.empty(n)
        hat = np.zeros((n, n))
        for i in range(n):
            fits[i], window, hat_row = _direct_fit(x, y, i, window_size, degree)
            hat[i, window] = hat_row
        hat_diagonal = np.diagonal(hat)
        hat_row_ss = np.sum(hat * hat, axis=1)
    else:
        # Tied x share their window and fit: solve each run's first point.
        heads = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
        run_lengths = np.diff(np.r_[heads, n])
        starts, reach = _windows(x.tolist(), heads.tolist(), window_size)
        per_head = _power_sum_fits(x, y, heads, starts, reach, window_size, degree)
        fits, hat_diagonal, hat_row_ss, solved = (np.repeat(a, run_lengths) for a in per_head)
        for i in np.flatnonzero(~solved):
            fits[i], window, hat_row = _direct_fit(x, y, i, window_size, degree)
            hat_diagonal[i] = hat_row[window == i].sum()
            hat_row_ss[i] = hat_row @ hat_row

    residuals = y - fits
    effective_df = float(hat_diagonal.sum())
    denom = max(float(n) - effective_df, 1.0)
    sigma2 = float(residuals @ residuals) / denom
    band = _Z_95 * np.sqrt(sigma2 * hat_row_ss)
    return fits, fits - band, fits + band


def _power_sum_fits(
    x: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    starts: np.ndarray,
    reach: np.ndarray,
    size: int,
    degree: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fit, hat diagonal and hat-row sum of squares at the points ``rows``
    (with their windows' ``starts`` and ``reach``) from the windows'
    weighted power sums, plus a mask of the rows this solved; the rest have
    singular or ill-conditioned local systems."""

    n = len(rows)
    sums = _power_sums(x, y, rows, starts, reach, size, degree)
    pairs = np.add.outer(np.arange(degree + 1), np.arange(degree + 1))
    system = sums[0][:, pairs]
    eigenvalues = np.linalg.eigvalsh(system)
    solved = (reach > 0.0) & (eigenvalues[:, 0] * _MAX_CONDITION > eigenvalues[:, -1])
    system[~solved] = np.eye(degree + 1)
    # c = M^-1 e_0, the intercept row of M^-1 (M is symmetric). At x_i, t = 0
    # and w = 1, so the hat diagonal is c_0.
    unit = np.zeros((n, degree + 1, 1))
    unit[:, 0] = 1.0
    c = np.linalg.solve(system, unit)[..., 0]
    fits = np.einsum("ik,ik->i", c, sums[2][:, : degree + 1])
    hat_row_ss = np.einsum("ik,ikl,il->i", c, sums[1][:, pairs], c)
    return fits, c[:, 0], hat_row_ss, solved


def _power_sums(
    x: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    starts: np.ndarray,
    reach: np.ndarray,
    size: int,
    degree: int,
) -> np.ndarray:
    """The weighted power sums of the windows of ``rows``, taken a block of
    rows at a time: sums[m, r, k] = sum over row r's window of m t^k, for m
    = w, w^2 and w y. The w y sums are filled (and read) only up to k =
    degree. Each row's sums are the same whatever rows share its block."""

    sums = np.empty((3, len(rows), 2 * degree + 1))
    scale = np.where(reach > 0.0, reach, 1.0)
    block = max(1, _BLOCK_ENTRIES // size)
    # One set of work arrays for every block: t, and the terms w, w^2 and
    # w y, multiplied by t once per power.
    buffers = np.empty((block, size)), np.empty((3, block, size))
    x_windows, y_windows = (np.lib.stride_tricks.sliding_window_view(v, size) for v in (x, y))
    for start in range(0, len(rows), block):
        stop = min(len(rows), start + block)
        t, terms = (buffer[..., : stop - start, :] for buffer in buffers)
        part = starts[start:stop]
        np.subtract(x_windows[part], x[rows[start:stop], None], out=t)
        t /= scale[start:stop, None]
        # Tricube weights; |t| <= 1 inside the window, so none is negative.
        weights = terms[0]
        np.multiply(t, t, out=weights)
        weights *= t
        np.abs(weights, out=weights)
        np.subtract(1.0, weights, out=weights)
        # terms[1] holds (1 - |t|^3)^2 until it takes w^2.
        np.multiply(weights, weights, out=terms[1])
        weights *= terms[1]
        np.multiply(weights, weights, out=terms[1])
        np.multiply(y_windows[part], weights, out=terms[2])
        for k in range(2 * degree + 1):
            # The fits read w y t^k only up to k = degree.
            live = terms[: 3 if k <= degree else 2]
            if k:
                live *= t
            np.add.reduce(live, axis=-1, out=sums[: len(live), start:stop, k])
    return sums


def _windows(
    x: list[float], rows: Iterable[int], size: int
) -> tuple[np.ndarray, np.ndarray]:
    """The window of each point in ``rows`` (ascending) over ascending ``x``.

    The window is the ``size`` points nearest x_i, ties at distance reach
    taken lowest index first. Returns starts, the first index of each
    window's row [start, start + size) of x, and reach, the largest
    distance in each window. The row holds the window's points, except that
    where the window skips part of a tie block on the left, it holds the
    ties next to the nearer points instead of the lowest-index ones; the
    nearer points sit at the same offsets either way. Distances are always
    |x_j - x_i| as computed, never compared through x_i - reach, which
    would round differently.
    """

    n = len(x)
    starts: list[int] = []
    reach: list[float] = []
    lo = 0
    for i in rows:
        xi = x[i]
        # [lo, lo + size) slides right while the next point beyond it is no
        # farther than its left end; stopping at lo = i keeps i inside.
        while lo < i and lo + size < n and abs(x[lo + size] - xi) <= abs(x[lo] - xi):
            lo += 1
        d = max(abs(x[lo] - xi), abs(x[lo + size - 1] - xi))
        reach.append(d)
        if d == 0.0:
            # Every point at distance 0 shares x_i; take the first of them.
            starts.append(bisect_left(x, xi))
            continue
        # Points nearer than d end at index far, and those at d on the left
        # start at index edge. The row ends at far if [edge, far] fills it;
        # otherwise it starts at edge and takes the rest from the points at
        # d right of far. Equal x share a distance, so each step skips a
        # whole run of equal x.
        far = lo + size - 1
        while abs(x[far] - xi) >= d:
            far = bisect_left(x, x[far]) - 1
        edge = lo
        while edge > 0 and abs(x[edge - 1] - xi) <= d:
            edge = bisect_left(x, x[edge - 1])
        starts.append(max(edge, far + 1 - size))
    return np.array(starts, dtype=np.intp), np.array(reach)


def _direct_fit(
    x: np.ndarray, y: np.ndarray, i: int, size: int, degree: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Fit at point i, its window and the window's hat values, solved
    directly: the window by a stable argsort of the distances, then the
    local mean where every window point shares x_i, else a pseudo-inverse."""

    distance = np.abs(x - x[i])
    window = np.argsort(distance, kind="stable")[:size]
    d_max = float(distance[window].max())
    if d_max == 0.0:
        # All window points share this x: the local design is degenerate, so
        # fall back to their plain mean.
        return float(np.mean(y[window])), window, np.full(size, 1.0 / size)
    u = distance[window] / d_max
    sqrt_w = np.sqrt(np.clip((1.0 - u**3) ** 3, 0.0, None))
    design = np.vander(x[window] - x[i], degree + 1, increasing=True)
    # beta = pinv(sqrt(W) X) sqrt(W) y; row 0 of the pseudo-inverse gives the
    # hat vector for the centred intercept, i.e. the fit at x[i].
    pseudo = np.linalg.pinv(design * sqrt_w[:, None])
    return float(pseudo[0] @ (y[window] * sqrt_w)), window, pseudo[0] * sqrt_w


def pool_adjacent_violators(values: Sequence[float]) -> list[float]:
    """Least-squares non-decreasing fit to ``values``.

    The result is flat over each pooled block, taking the block's mean;
    already-monotone input comes back unchanged.
    """

    if len(values) == 0:
        raise ValueError("cannot project an empty sequence")

    # Each block is [mean, count]; merge while out of order.
    blocks: list[list[float]] = []
    for value in values:
        blocks.append([float(value), 1])
        while len(blocks) >= 2 and blocks[-2][0] > blocks[-1][0]:
            mean_b, c_b = blocks.pop()
            mean_a, c_a = blocks.pop()
            c = c_a + c_b
            blocks.append([(mean_a * c_a + mean_b * c_b) / c, c])

    result: list[float] = []
    for mean, count in blocks:
        result.extend([mean] * count)
    return result
