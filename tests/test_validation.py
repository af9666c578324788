import io
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import corpus
import oracles
from conftest import make_class
from refclass.errors import InsufficientDataError
from refclass.formatting import round_half_away
from refclass.reference_class import QuantileMethod, ReferenceClass
from refclass.validation import leave_one_out, loov_summary, write_loov_csv

GOLDEN_CSV = """\
project,p50_uplift,p80_uplift,actual,p50_prevented,p80_prevented
6736,+18%,+46%,-47%,yes,yes
6757,+14%,+41%,+47%,no,no
6365,+14%,+46%,+32%,no,yes
6553,+14%,+41%,+62%,no,no
6580,+18%,+46%,-37%,yes,yes
6718,+18%,+46%,-33%,yes,yes
6731,+18%,+46%,-32%,yes,yes
6759,+18%,+46%,-7%,yes,yes
6384,+14%,+41%,+52%,no,no
642,+18%,+46%,+14%,yes,yes
6577,+18%,+46%,+1%,yes,yes
6706,+18%,+46%,-52%,yes,yes
6541,+14%,+41%,+68%,no,no
6721,+14%,+44%,+43%,no,yes
6323,+14%,+46%,+29%,no,yes
6694,+14%,+46%,+31%,no,yes
6695,+18%,+46%,+1%,yes,yes
6645,+14%,+46%,+18%,no,yes
"""


def test_golden_rows_match_published_table(table2_class):
    rows = leave_one_out(table2_class, (0.5, 0.8))
    assert [row.project_id for row in rows] == list(corpus.TABLE2_IDS)
    for row in rows:
        expected_p50, expected_p80, prevented_50, prevented_80 = corpus.TABLE2_PRINTED[
            row.project_id
        ]
        assert round_half_away(row.uplift_at[0.5] * 100) == expected_p50
        assert round_half_away(row.uplift_at[0.8] * 100) == expected_p80
        assert row.prevented_at[0.5] is prevented_50
        assert row.prevented_at[0.8] is prevented_80


def test_golden_summaries(table2_class):
    rows = leave_one_out(table2_class, (0.5, 0.8))
    at_50 = loov_summary(rows, 0.5)
    at_80 = loov_summary(rows, 0.8)
    assert (at_50.hits, at_50.n) == (9, 18)
    assert (at_80.hits, at_80.n) == (14, 18)
    assert at_50.rate == pytest.approx(0.5)
    assert at_80.rate == pytest.approx(14 / 18)


def test_golden_csv_bytes(table2_class):
    rows = leave_one_out(table2_class, (0.5, 0.8))
    buffer = io.StringIO()
    write_loov_csv(rows, buffer)
    assert buffer.getvalue() == GOLDEN_CSV


def test_two_point_class():
    reference = ReferenceClass.from_values([-0.1, 0.1])
    rows = leave_one_out(reference, (0.5, 0.8))
    dropped_low, dropped_high = rows
    assert dropped_low.uplift_at[0.5] == pytest.approx(0.1)
    assert dropped_low.prevented_at[0.5]
    assert dropped_high.uplift_at[0.5] == pytest.approx(-0.1)
    assert not dropped_high.prevented_at[0.5]


def test_all_zero_class_prevents_everywhere():
    reference = ReferenceClass.from_values([0.0] * 5)
    rows = leave_one_out(reference, (0.5, 0.8))
    for row in rows:
        assert row.actual == 0.0
        assert all(value == 0.0 for value in row.uplift_at.values())
        assert all(row.prevented_at.values())


def test_single_observation_rejected():
    reference = ReferenceClass.from_values([0.2])
    with pytest.raises(InsufficientDataError):
        leave_one_out(reference, (0.5,))


@pytest.mark.parametrize("method", list(QuantileMethod))
@pytest.mark.parametrize("p", [0.0, 1.5, math.nan])
def test_certainty_outside_unit_interval_rejected(p, method):
    reference = ReferenceClass.from_values([0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="p must lie in"):
        leave_one_out(reference, (0.5, p), method)


def test_levels_are_deduplicated():
    reference = ReferenceClass.from_values([0.0, 0.1, 0.2])
    rows = leave_one_out(reference, (0.8, 0.5, 0.5))
    assert set(rows[0].uplift_at) == {0.5, 0.8}


def test_determinism(table2_class):
    first = leave_one_out(table2_class, (0.5, 0.8))
    second = leave_one_out(table2_class, (0.5, 0.8))
    assert first == second


def test_seeded_normal_classes_match_resorting_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        values = rng.normal(0.1, 0.3, size=200).tolist()
        reference = ReferenceClass.from_values(values)
        for method in QuantileMethod:
            rows = leave_one_out(reference, (0.5, 0.8), method)
            assert rows == oracles.leave_one_out(reference, (0.5, 0.8), method), (seed, method)


def test_each_row_owns_its_dicts(table2_class):
    rows = leave_one_out(table2_class)
    dicts = [d for row in rows for d in (row.uplift_at, row.prevented_at)]
    assert len({id(d) for d in dicts}) == len(dicts)


def test_mixed_stage_class_order(table2_class):
    # Row order must follow the order observations entered the class,
    # not the sorted value order used for quantiles.
    rows = leave_one_out(table2_class, (0.5,))
    assert [row.actual for row in rows] == list(corpus.TABLE2_VALUES)


# n - 1 = 340 and 340 * 0.55 rounds up to 187.00000000000003.
@example(values=[k / 100 for k in range(341)], levels=[0.55], method=QuantileMethod.INF)
@example(values=[0.1] * 7, levels=[0.5, 1.0], method=QuantileMethod.INTERPOLATED)
@given(
    # Tenths from a narrow range give many ties; free floats give none.
    values=st.lists(
        st.integers(-5, 5).map(lambda k: k / 10) | st.floats(min_value=-0.9, max_value=3.0),
        min_size=2,
        max_size=40,
    ),
    levels=st.lists(
        st.integers(1, 100).map(lambda k: k / 100)
        | st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        min_size=1,
        max_size=4,
    ),
    method=st.sampled_from(QuantileMethod),
)
def test_leave_one_out_matches_resorting_oracle(values, levels, method):
    reference = ReferenceClass.from_values(values)
    assert leave_one_out(reference, levels, method) == oracles.leave_one_out(
        reference, levels, method
    )


@given(
    values=st.lists(st.floats(min_value=-0.9, max_value=3.0), min_size=2, max_size=60, unique=True),
    p=st.integers(1, 100).map(lambda k: k / 100) | st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
def test_distinct_values_fix_the_hit_count(values, p):
    n = len(values)
    reference = ReferenceClass.from_values(values)

    # The comparison empirical_quantile makes, so float noise in (n - 1) p
    # cannot move the answer.
    inf_hits = loov_summary(leave_one_out(reference, (p,), QuantileMethod.INF), p).hits
    assert inf_hits == next(k for k in range(1, n) if k / (n - 1) >= p)

    h = (n - 2) * p + 1
    interp_rows = leave_one_out(reference, (p,), QuantileMethod.INTERPOLATED)
    assert loov_summary(interp_rows, p).hits in (math.floor(h), math.floor(h) + 1)
