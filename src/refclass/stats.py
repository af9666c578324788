"""Distribution-free comparison tests and descriptive summaries.

The rank-sum test uses midranks for ties, all taken from one sort of the
pooled samples. For small untied samples (combined size at most 14) the
two-sided p-value is exact, from the full null distribution of the U
statistic; otherwise a normal approximation with tie correction and
continuity correction applies.

The two-proportion test is Fisher's exact test on the 2x2 table, two-sided
by summing every table whose probability does not exceed the observed one.
All hypergeometric arithmetic is exact: integer table counts, one rational
at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

#: Largest combined sample size for which the exact U null distribution is
#: enumerated; beyond this the normal approximation takes over.
EXACT_RANK_TEST_LIMIT = 14


@dataclass(frozen=True, slots=True)
class DescriptiveStats:
    """Sample summary: size, mean, sample standard deviation, and the share
    of strictly positive values (the overrun frequency)."""

    n: int
    mean: float
    sd: float
    overrun_frequency: float
    sd_defined: bool = True


@dataclass(frozen=True, slots=True)
class TestResult:
    name: str
    statistic: float
    p_value: float


def descriptive_stats(values: Sequence[float]) -> DescriptiveStats:
    n = len(values)
    if n == 0:
        raise ValueError("descriptive_stats needs at least one value")
    mean = math.fsum(values) / n
    if n >= 2:
        variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        sd = math.sqrt(variance)
        sd_defined = True
    else:
        sd = 0.0
        sd_defined = False
    positive = sum(1 for v in values if v > 0)
    return DescriptiveStats(
        n=n, mean=mean, sd=sd, overrun_frequency=positive / n, sd_defined=sd_defined
    )


def _rank_sum_counts(k: int, n: int) -> list[int]:
    """counts[s] = number of k-subsets of {1..n} whose ranks sum to s."""

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


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Two-sided rank-sum comparison of two independent samples.

    The statistic reported is U for the first sample; U_a + U_b = n_a * n_b
    holds identically, ties included.
    """

    n_a, n_b = len(a), len(b)
    if n_a == 0 or n_b == 0:
        raise ValueError("both samples must be non-empty")

    from collections import Counter

    # Counted from one sort, the distinct values come out ascending; a run of
    # t equal values from 0-based position i shares the ranks i+1..i+t.
    counts = Counter(sorted([*a, *b]))
    midrank = {}
    position = 0
    for value, t in counts.items():
        midrank[value] = (2 * position + t + 1) / 2.0
        position += t
    # fsum is exactly rounded, so the order of its terms cannot matter.
    rank_sum_a = math.fsum([midrank[v] for v in a])
    u_a = rank_sum_a - n_a * (n_a + 1) / 2.0
    u_b = n_a * n_b - u_a
    n = n_a + n_b
    has_ties = len(counts) < n

    if not has_ties and n <= EXACT_RANK_TEST_LIMIT:
        # Exact tail of the symmetric null distribution, doubled and capped.
        u_small = min(u_a, u_b)
        offset = n_a * (n_a + 1) // 2
        counts = _rank_sum_counts(n_a, n)
        limit = int(round(u_small)) + offset
        tail = sum(counts[s] for s in range(offset, min(limit, len(counts) - 1) + 1))
        p = min(1.0, float(2 * Fraction(tail, math.comb(n, n_a))))
        return TestResult("mann-whitney-u", u_a, p)

    tie_term = math.fsum(t**3 - t for t in counts.values())
    variance = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0:
        # Every value tied with every other: no evidence of any difference.
        return TestResult("mann-whitney-u", u_a, 1.0)
    mean_u = n_a * n_b / 2.0
    z = max(0.0, abs(u_a - mean_u) - 0.5) / math.sqrt(variance)
    p = min(1.0, 2.0 * _normal_sf(z))
    return TestResult("mann-whitney-u", u_a, p)


def proportion_test(k1: int, n1: int, k2: int, n2: int) -> float:
    """Fisher's exact two-sided p for k1/n1 successes against k2/n2.

    Sums the probability of every table (with the same margins) that is no
    more likely than the observed one; exact integer arithmetic throughout.
    """

    for label, k, n in (("first", k1, n1), ("second", k2, n2)):
        if n < 1:
            raise ValueError(f"{label} sample size must be at least 1, got {n}")
        if not 0 <= k <= n:
            raise ValueError(f"{label} success count {k} outside 0..{n}")

    # Every table shares the denominator C(n1 + n2, k), so tables compare and
    # add as their integer numerators C(n1, x) C(n2, k - x). Each numerator
    # follows from the previous one by an exact integer ratio.
    k = k1 + k2
    observed = math.comb(n1, k1) * math.comb(n2, k2)
    low = max(0, k - n2)
    table = math.comb(n1, low) * math.comb(n2, k - low)
    total = 0
    for x in range(low, min(n1, k) + 1):
        if table <= observed:
            total += table
        table = table * (n1 - x) * (k - x) // ((x + 1) * (n2 - k + x + 1))
    p = Fraction(total, math.comb(n1 + n2, k))
    return float(min(p, Fraction(1)))
