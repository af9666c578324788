import io
import json
import string
from datetime import date

import pytest
from hypothesis import given, strategies as st

import corpus
from refclass.errors import DataFormatError, DeflatorCoverageError, RecordConsistencyError
from refclass.registry import (
    INTERNATIONAL_ROADS,
    Metric,
    PROJECT_COLUMNS,
    ProjectRecord,
    Stage,
    StageEstimate,
    parse_benchmark_constants,
    parse_deflator_series,
    parse_project_records,
    parse_project_records_lenient,
    stage_availability,
    validate_record,
    write_project_records,
)

HEADER = ",".join(PROJECT_COLUMNS)


def parse_text(text: str):
    return parse_project_records(io.StringIO(text))


def test_roundtrip_demo_corpus(demo_records):
    buffer = io.StringIO()
    write_project_records(demo_records, buffer)
    reparsed = parse_project_records(io.StringIO(buffer.getvalue()))
    assert reparsed == demo_records

    again = io.StringIO()
    write_project_records(reparsed, again)
    assert again.getvalue() == buffer.getvalue()


_dates = st.none() | st.dates()
_money = st.none() | st.integers(min_value=-10**12, max_value=10**12)
_years = st.integers(min_value=1000, max_value=9999)
_stage_estimates = st.builds(
    StageEstimate,
    upgrade_date=_dates,
    base=_money,
    contingency=_money,
    approved=_money,
    planned_completion=_dates,
    price_level_year=st.none() | _years,
)
_records = st.builds(
    ProjectRecord,
    id=st.text(string.ascii_letters + string.digits + "_.-", min_size=1, max_size=8),
    stages=st.fixed_dictionaries({stage: _stage_estimates for stage in Stage}),
    construction_start=_dates,
    actual_completion=_dates,
    outturn_nominal=_money,
    disbursements=st.none()
    | st.dictionaries(_years, st.integers(min_value=-10**9, max_value=10**9), min_size=1),
)


@given(st.lists(_records, max_size=5, unique_by=lambda record: record.id))
def test_write_then_parse_roundtrips_any_records(records):
    buffer = io.StringIO()
    write_project_records(records, buffer)
    reparsed, _ = parse_project_records_lenient(io.StringIO(buffer.getvalue()))
    assert reparsed == records

    again = io.StringIO()
    write_project_records(reparsed, again)
    assert again.getvalue() == buffer.getvalue()


def test_parse_single_stage_row():
    text = (
        HEADER + "\n"
        "6736,1998-03-01,,,100000,15000,115000,,,,,,,,,,1998,,,1999-01-01,"
        "2001-06-30,153000,2000:80000;2001:73000\n"
    )
    (record,) = parse_text(text)
    assert record.id == "6736"
    assert not record.stages[Stage.C].is_blank
    assert record.stages[Stage.B].is_blank
    assert record.stages[Stage.A].is_blank
    assert record.stages[Stage.C].base == 100000
    assert record.disbursements == {2000: 80000, 2001: 73000}


def test_header_only_file_is_empty():
    assert parse_text(HEADER + "\n") == []


def test_wrong_header_rejected():
    with pytest.raises(DataFormatError, match="header"):
        parse_text("id,stuff\n1,2\n")


def test_inconsistent_approved_estimate_names_stage():
    text = (
        HEADER + "\n"
        "p1,1998-03-01,,,100,10,120,,,,,,,,,,1998,,,,2001-06-30,100,\n"
    )
    with pytest.raises(RecordConsistencyError, match="Category C"):
        parse_text(text)
    records, reports = parse_project_records_lenient(io.StringIO(text))
    codes = [v.code for v in reports["p1"]]
    assert "estimate-consistency" in codes
    violation = next(v for v in reports["p1"] if v.code == "estimate-consistency")
    assert violation.stage is Stage.C


def test_malformed_cell_reports_row_and_column():
    text = HEADER + "\np1,not-a-date,,,,,,,,,,,,,,,,,,,2001-06-30,100,\n"
    with pytest.raises(DataFormatError, match=r"row 2.*date_c"):
        parse_text(text)


def test_duplicate_id_rejected():
    row = "p1,,,,,,,,,,,,,,,,,,,,2001-06-30,100,\n"
    with pytest.raises(DataFormatError, match="duplicate project id"):
        parse_text(HEADER + "\n" + row + row)


def test_money_cells_must_be_plain_integers():
    text = HEADER + "\np1,,,,,,,,,,,,,,,,,,,,2001-06-30,1_0,\n"
    with pytest.raises(DataFormatError, match="outturn_nominal"):
        parse_text(text)


def test_validate_record_consistent_is_clean(demo_records):
    for record in demo_records:
        assert validate_record(record) == []


def _bare_record(**kwargs) -> ProjectRecord:
    defaults = dict(
        id="t1",
        stages={},
        construction_start=None,
        actual_completion=date(2001, 6, 30),
        outturn_nominal=100,
        disbursements=None,
    )
    defaults.update(kwargs)
    return ProjectRecord(**defaults)


def test_validate_record_stage_order():
    record = _bare_record(
        stages={
            Stage.C: StageEstimate(upgrade_date=date(1999, 1, 1)),
            Stage.A: StageEstimate(upgrade_date=date(1997, 1, 1)),
        }
    )
    codes = [v.code for v in validate_record(record)]
    assert "stage-order" in codes


def test_validate_record_disbursement_sum_mismatch():
    record = _bare_record(disbursements={2000: 90})
    codes = [v.code for v in validate_record(record)]
    assert "disbursement-sum" in codes


def test_validate_record_total_on_garbage():
    record = _bare_record(
        outturn_nominal=-5,
        actual_completion=None,
        stages={Stage.B: StageEstimate(upgrade_date=date(2000, 1, 1), base=-1)},
        disbursements={1999: -2},
    )
    report = validate_record(record)
    codes = {v.code for v in report}
    assert {"non-positive-outturn", "missing-completion", "non-positive-money",
            "non-positive-disbursement"} <= codes


def test_deflators_flat_series_normalizes_to_one():
    text = "year,index\n" + "".join(f"{y},100\n" for y in range(1990, 1996))
    series = parse_deflator_series(io.StringIO(text), base_year=1990)
    for year in range(1990, 1996):
        assert series.index(year) == pytest.approx(1.0)


def test_deflators_ratio():
    series = parse_deflator_series(io.StringIO("year,index\n1990,100\n1991,110\n"), base_year=1990)
    assert series.index(1991) == pytest.approx(1.10)


def test_deflators_gap_rejected():
    text = "year,index\n1990,100\n1991,101\n1993,103\n"
    with pytest.raises(DataFormatError, match="1992"):
        parse_deflator_series(io.StringIO(text))


def test_deflators_out_of_range_lookup_names_year():
    series = parse_deflator_series(io.StringIO("year,index\n1990,100\n1991,110\n"))
    with pytest.raises(DeflatorCoverageError, match="1989"):
        series.index(1989)


def test_stage_availability_demo_counts(demo_records):
    counts = stage_availability(demo_records)
    assert [counts[(s, Metric.COST)] for s in Stage] == [23, 22, 20]
    assert [counts[(s, Metric.SCHEDULE)] for s in Stage] == [22, 23, 25]


def test_stage_availability_empty_corpus():
    counts = stage_availability([])
    assert all(v == 0 for v in counts.values())


@given(st.sets(st.integers(min_value=0, max_value=24)))
def test_stage_availability_monotone_under_deletion(kept):
    records = corpus.demo_records()
    full = stage_availability(records)
    subset = stage_availability([records[i] for i in sorted(kept)])
    for key in full:
        assert subset[key] <= full[key]


def test_benchmark_constants_parse_matches_builtin():
    parsed = parse_benchmark_constants(corpus.BENCHMARK_JSON)
    assert parsed["international-roads"] == INTERNATIONAL_ROADS


def test_benchmark_constants_missing_field():
    with pytest.raises(DataFormatError, match="mean_duration_years"):
        parse_benchmark_constants('{"x": {"n_projects": 3}}')


def test_benchmark_float_fields_take_json_integers_as_floats():
    payload = json.loads(corpus.BENCHMARK_JSON)
    payload["international-roads"]["mean_duration_years"] = 5
    parsed = parse_benchmark_constants(json.dumps(payload))["international-roads"]
    assert parsed.mean_duration_years == 5.0
    assert type(parsed.mean_duration_years) is float
