import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import corpus
import oracles
from refclass.stats import descriptive_stats, mann_whitney_u, proportion_test


def u_statistic(a, b):
    """Pair-count U for sample a (ties weighted half)."""

    total = 0.0
    for x in a:
        for y in b:
            if x > y:
                total += 1.0
            elif x == y:
                total += 0.5
    return total


def brute_force_mwu_p(a, b):
    """Oracle: exact two-sided p over every labeling of the pooled sample."""

    pooled = list(a) + list(b)
    n_a = len(a)
    u_small = min(u_statistic(a, b), u_statistic(b, a))
    tail = 0
    total = 0
    for combo in itertools.combinations(range(len(pooled)), n_a):
        chosen = set(combo)
        aa = [pooled[i] for i in combo]
        bb = [pooled[i] for i in range(len(pooled)) if i not in chosen]
        total += 1
        if u_statistic(aa, bb) <= u_small + 1e-9:
            tail += 1
    return min(1.0, 2.0 * tail / total)


def test_descriptive_all_zero():
    stats = descriptive_stats([0.0, 0.0, 0.0])
    assert stats.mean == 0.0
    assert stats.sd == 0.0
    assert stats.overrun_frequency == 0.0


def test_descriptive_two_values():
    stats = descriptive_stats([0.2, -0.2])
    assert stats.mean == pytest.approx(0.0)
    assert stats.sd == pytest.approx(0.2 * math.sqrt(2), abs=1e-4)
    assert stats.overrun_frequency == 0.5


def test_descriptive_table2_frequency():
    # Counting the strictly positive entries among the 18 reference values
    # gives 12 (six are negative, none zero).
    stats = descriptive_stats(corpus.TABLE2_VALUES)
    assert sum(1 for v in corpus.TABLE2_VALUES if v > 0) == 12
    assert stats.overrun_frequency == pytest.approx(12 / 18)
    assert stats.mean == pytest.approx(0.1056, abs=1e-4)


def test_descriptive_single_value_flags_sd():
    stats = descriptive_stats([0.4])
    assert stats.sd == 0.0
    assert not stats.sd_defined


def test_descriptive_empty_rejected():
    with pytest.raises(ValueError):
        descriptive_stats([])


@given(
    # Subnormal values are outside the domain: 0.5 * 5e-324 underflows to 0,
    # which changes the sign count in floating point.
    values=st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False, allow_subnormal=False),
        min_size=2,
        max_size=20,
    ),
    scale=st.floats(min_value=0.01, max_value=20),
)
def test_descriptive_scaling_behaviour(values, scale):
    base = descriptive_stats(values)
    scaled = descriptive_stats([scale * v for v in values])
    assert scaled.overrun_frequency == base.overrun_frequency
    assert scaled.mean == pytest.approx(scale * base.mean, rel=1e-9, abs=1e-9)
    assert scaled.sd == pytest.approx(scale * base.sd, rel=1e-9, abs=1e-7)


def test_mwu_separated_samples():
    result = mann_whitney_u([1, 2, 3], [4, 5, 6])
    assert result.name == "mann-whitney-u"
    assert result.statistic == 0.0
    assert result.p_value == pytest.approx(0.1)


def test_mwu_swap_symmetry():
    forward = mann_whitney_u([1, 2, 3], [4, 5, 6])
    backward = mann_whitney_u([4, 5, 6], [1, 2, 3])
    assert backward.p_value == pytest.approx(forward.p_value)
    assert backward.statistic == 9.0 - forward.statistic


def test_mwu_identical_samples_midranks():
    result = mann_whitney_u([1, 2, 3], [1, 2, 3])
    assert result.statistic == pytest.approx(4.5)
    assert result.p_value >= 0.99


def test_mwu_exact_matches_brute_force_enumeration():
    pool = [0.3, -1.2, 2.5, 1.1, -0.4, 0.9, 3.3, -2.1, 1.7, 0.05]
    for n_a in range(1, 5):
        for n_b in range(1, 6 - n_a + 1):
            a = pool[:n_a]
            b = pool[n_a : n_a + n_b]
            ours = mann_whitney_u(a, b)
            assert ours.p_value == pytest.approx(brute_force_mwu_p(a, b), abs=1e-12)


@given(
    a=st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=12),
    b=st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=12),
)
def test_mwu_u_parts_sum_even_with_ties(a, b):
    forward = mann_whitney_u(a, b)
    backward = mann_whitney_u(b, a)
    assert forward.statistic + backward.statistic == pytest.approx(len(a) * len(b))


# Small ints tie often; the floats hold both zeros and a tiny positive value.
_rank_ints = st.integers(-5, 5)
_rank_floats = st.sampled_from([0.0, -0.0, 1e-300]) | st.floats(allow_nan=False)
# Up to 60 values in all: the exact branch (untied, at most 14) and the normal one.
_rank_samples = (
    st.lists(_rank_ints, min_size=1, max_size=30)
    | st.lists(_rank_floats, min_size=1, max_size=30)
    | st.lists(_rank_ints | _rank_floats, min_size=1, max_size=30)
)


@example(a=[0.0, 1e-300], b=[-0.0, 0])
@example(a=[0.5, 3, -2.0], b=[1, 2.5])
@given(a=_rank_samples, b=_rank_samples)
def test_mwu_from_one_sort_equals_midrank_oracle(a, b):
    assert mann_whitney_u(a, b) == oracles.mann_whitney_u(a, b)


def test_mwu_exact_agrees_with_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    a = [1.2, 3.4, -0.5, 2.2]
    b = [0.1, 4.4, 5.1, -1.3, 2.9]
    ours = mann_whitney_u(a, b)
    reference = scipy_stats.mannwhitneyu(a, b, alternative="two-sided", method="exact")
    assert ours.statistic == pytest.approx(reference.statistic)
    assert ours.p_value == pytest.approx(reference.pvalue, abs=1e-12)


def test_mwu_normal_approximation_agrees_with_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(99)
    a = np.round(rng.normal(0.0, 1.0, size=12), 1).tolist()
    b = np.round(rng.normal(0.6, 1.0, size=14), 1).tolist()
    ours = mann_whitney_u(a, b)
    reference = scipy_stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
    assert ours.p_value == pytest.approx(reference.pvalue, abs=1e-9)


def test_fisher_textbook_table():
    assert proportion_test(0, 5, 5, 5) == pytest.approx(2 / 252, abs=1e-12)


def test_fisher_equal_proportions():
    assert proportion_test(3, 6, 3, 6) == pytest.approx(1.0)
    assert proportion_test(1, 10, 1, 10) == pytest.approx(1.0)


def test_fisher_symmetries_on_seeded_tables():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n1 = int(rng.integers(1, 12))
        n2 = int(rng.integers(1, 12))
        k1 = int(rng.integers(0, n1 + 1))
        k2 = int(rng.integers(0, n2 + 1))
        p = proportion_test(k1, n1, k2, n2)
        assert 0.0 < p <= 1.0
        assert proportion_test(k2, n2, k1, n1) == pytest.approx(p, abs=1e-12)
        assert proportion_test(n1 - k1, n1, n2 - k2, n2) == pytest.approx(p, abs=1e-12)
        assert p == pytest.approx(oracles.proportion_test(k1, n1, k2, n2), abs=1e-12)


def test_fisher_agrees_with_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    for k1, n1, k2, n2 in [(0, 5, 5, 5), (2, 7, 6, 9), (4, 4, 1, 8), (3, 11, 3, 5)]:
        table = [[k1, n1 - k1], [k2, n2 - k2]]
        _, expected = scipy_stats.fisher_exact(table, alternative="two-sided")
        assert proportion_test(k1, n1, k2, n2) == pytest.approx(expected, abs=1e-9)


@given(
    sizes=st.tuples(st.integers(1, 120), st.integers(1, 120)),
    data=st.data(),
)
def test_proportion_test_matches_fraction_per_table_oracle(sizes, data):
    n1, n2 = sizes
    k1 = data.draw(st.integers(0, n1))
    k2 = data.draw(st.integers(0, n2))
    assert proportion_test(k1, n1, k2, n2) == oracles.proportion_test(k1, n1, k2, n2)
