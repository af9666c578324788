import csv
import io
import json
import math
import string
from dataclasses import fields
from datetime import date

import pytest
from hypothesis import example, given, strategies as st

import corpus
import oracles
from refclass.errors import DataFormatError, DeflatorCoverageError, RecordConsistencyError
from refclass.normalization import derive_all_observations
from refclass.registry import (
    MAX_MONEY,
    BenchmarkConstants,
    Metric,
    PROJECT_COLUMNS,
    ProjectRecord,
    Stage,
    StageEstimate,
    parse_benchmark_constants,
    parse_deflator_series,
    parse_project_records,
    parse_project_records_lenient,
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
    assert record.stages[Stage.C] != StageEstimate()
    assert record.stages[Stage.B] == StageEstimate()
    assert record.stages[Stage.A] == StageEstimate()
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
    for changes, message in [
        (dict(id="a b"), "id': invalid project id 'a b'"),
        (dict(disbursements="1990:5;;1991:6"), "disbursements': empty disbursement entry"),
        (dict(disbursements="1990-5"), "disbursements': disbursement entry '1990-5' is not year:amount"),
        (dict(disbursements="1990:5;1990:6"), "disbursements': duplicate disbursement year 1990"),
    ]:
        with pytest.raises(DataFormatError, match=f"^row 2, column '{message}$"):
            parse_text(_registry_text(changes))


def test_duplicate_id_rejected():
    row = "p1,,,,,,,,,,,,,,,,,,,,2001-06-30,100,\n"
    with pytest.raises(DataFormatError, match="duplicate project id"):
        parse_text(HEADER + "\n" + row + row)


# One consistent project; the tests below vary its cells. Its planned and
# actual completion are the same date, and its first disbursement year is
# its price-level year.
_GOOD_ROW = dict.fromkeys(PROJECT_COLUMNS, "") | dict(
    id="p1", date_c="1998-03-01", base_c="100000", cont_c="15000", approved_c="115000",
    planned_completion_c="2001-06-30", price_level_year_c="1998", construction_start="1999-01-01",
    actual_completion="2001-06-30", outturn_nominal="153000", disbursements="1998:80000;2001:73000",
)


def _registry_text(*rows: dict) -> str:
    """A registry whose rows are ``_GOOD_ROW`` with each dict's cells changed."""

    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(PROJECT_COLUMNS)
    for changes in rows:
        writer.writerow((_GOOD_ROW | changes).values())
    return sink.getvalue()


# Each CSV input: its parse, its header, one good row, and a column of that
# row with the column's refusal of the cell " x ".
_CSV_INPUTS = {
    "projects": (parse_project_records, HEADER, ",".join(_GOOD_ROW.values()), "outturn_nominal",
                 "invalid money amount 'x' (integer HKD thousands expected)"),
    "deflators": (parse_deflator_series, "year,index", "1990,100", "index", "invalid number 'x'"),
}


@pytest.mark.parametrize("what", sorted(_CSV_INPUTS))
def test_both_csv_inputs_share_one_contract(what):
    parse, header, row, column, refusal = _CSV_INPUTS[what]
    names = header.split(",")

    def refused(text: str) -> str:
        with pytest.raises(DataFormatError) as excinfo:
            parse(io.StringIO(text))
        return str(excinfo.value)

    assert refused("") == f"{what} file is empty (header row required)"
    assert refused(f"{header},extra\n{row}\n") == f"unexpected {what} header: expected exactly {header}"
    assert refused(f"{header}\n{row},\n") == f"row 2: expected {len(names)} columns, got {len(names) + 1}"
    # Blank rows (no cells, empty cells, a space) are skipped, but counted.
    blanks = "\n" + "," * (len(names) - 1) + "\n \n"
    assert parse(io.StringIO(f"{header}\n{blanks}{row}\n")) == parse(io.StringIO(f"{header}\n{row}\n"))
    cells = row.split(",")
    cells[names.index(column)] = " x "
    assert refused(f"{header}\n{blanks}{','.join(cells)}\n") == f"row 5, column {column!r}: {refusal}"


def test_one_parse_keeps_one_object_per_distinct_date_and_year():
    text = _registry_text({}, {"id": "p2"})
    first, second = parse_text(text)
    c1, c2 = first.stages[Stage.C], second.stages[Stage.C]
    assert c1.upgrade_date == c2.upgrade_date and c1.upgrade_date is c2.upgrade_date
    assert first.actual_completion is c1.planned_completion is c2.planned_completion
    assert c1.price_level_year is c2.price_level_year
    # A disbursement year is the same object as an equal price-level year.
    assert [year for year in first.disbursements if year == 1998][0] is c1.price_level_year
    assert list(first.disbursements)[1] is list(second.disbursements)[1]

    # Nothing is kept from one parse for the next.
    (again, _), _ = parse_project_records_lenient(io.StringIO(text))
    assert again == first
    assert again.stages[Stage.C].upgrade_date is not c1.upgrade_date
    assert again.actual_completion is not first.actual_completion
    assert again.stages[Stage.C].price_level_year is not c1.price_level_year


def test_strict_parse_reads_the_whole_file_before_it_reports_a_record():
    inconsistent = {"approved_c": "120000"}
    # A structural error in row 5 wins over an inconsistent record in row 2.
    text = _registry_text(inconsistent, {"id": "p2"}, {"id": "p3"}, {"id": "p4", "date_c": "1998-02-30"})
    with pytest.raises(DataFormatError) as excinfo:
        parse_text(text)
    assert type(excinfo.value) is DataFormatError
    assert str(excinfo.value) == "row 5, column 'date_c': invalid ISO date '1998-02-30'"

    # Of two inconsistent records, the first one's violations are raised.
    text = _registry_text(inconsistent, {"id": "p2", "approved_c": "130000"})
    (first, _), reports = parse_project_records_lenient(io.StringIO(text))
    with pytest.raises(RecordConsistencyError) as excinfo:
        parse_text(text)
    assert str(excinfo.value) == "; ".join(v.message for v in reports["p1"])
    assert str(excinfo.value).startswith("p1: Category C approved estimate 120000")

    # A duplicate id after an inconsistent record is the duplicate-id error.
    text = _registry_text(inconsistent, {"id": "p2"}, {"id": "p1"})
    with pytest.raises(DataFormatError) as excinfo:
        parse_text(text)
    assert type(excinfo.value) is DataFormatError
    assert str(excinfo.value) == "row 4: duplicate project id 'p1'"


def _parse_outcome(parse, text: str):
    """What ``parse`` returns on ``text``, or its exception's type and message."""

    try:
        return parse(io.StringIO(text))
    except Exception as exc:  # the oracle must raise the same, whatever it is
        return type(exc), str(exc)


# Cell texts for generated registries: few enough that they repeat, and
# mostly consistent, so that many records pass the strict parse.
_STAGE_DATES = {"c": ["1995-07-01", "1996-03-15"], "b": ["1996-03-15", "1997-01-01"],
                "a": ["1997-01-01", "1998-02-01", ""]}
_CELL_TEXTS = {
    **{f"date_{stage}": dates for stage, dates in _STAGE_DATES.items()},
    **{f"{kind}_{stage}": [text, ""] for stage in "cba"
       for kind, text in (("base", "100"), ("cont", "10"), ("approved", "110"))},
    **{f"planned_completion_{stage}": ["2003-06-30", "2004-01-01"] for stage in "cba"},
    **{f"price_level_year_{stage}": ["1995", "1996", ""] for stage in "cba"},
    "construction_start": ["1998-02-01", "1999-01-01", ""],
    "actual_completion": ["2004-01-01", "2005-12-31"],
    "outturn_nominal": ["150"],
    "disbursements": ["", "2001:150", "2000:100;2001:50"],
}


def _columns(*prefixes: str) -> list[int]:
    return [i for i, name in enumerate(PROJECT_COLUMNS) if name.startswith(prefixes)]


def _texts(*columns: str) -> list[str]:
    return sorted({text for column in columns for text in _CELL_TEXTS[column] if text})


# A corrupted cell holds a hostile value or an id, or a year's text in a
# date column, or a date's text in a year column: texts that valid cells
# of the other kind hold too (2001 is a disbursement year).
_corruptions = st.one_of(
    st.tuples(st.integers(0, len(PROJECT_COLUMNS) - 1),
              st.sampled_from(corpus.HOSTILE_VALUES + ["p0", "p1", "19950701", "1995-07"])),
    st.tuples(st.sampled_from(_columns("date_", "planned_", "construction_", "actual_")),
              st.sampled_from(_texts("price_level_year_c") + ["2001"])),
    st.tuples(st.sampled_from(_columns("price_level_year_")),
              st.sampled_from(_texts("date_c", "date_b", "date_a", "actual_completion"))),
)


@st.composite
def _generated_registries(draw) -> str:
    rows = [
        [f"p{i}"] + [draw(st.sampled_from(_CELL_TEXTS[name])) for name in PROJECT_COLUMNS[1:]]
        for i in range(draw(st.integers(0, 5)))
    ]
    if rows:
        for _ in range(draw(st.integers(0, 3))):
            column, text = draw(_corruptions)
            rows[draw(st.integers(0, len(rows) - 1))][column] = text
    sink = io.StringIO()
    csv.writer(sink, lineterminator="\n").writerows([PROJECT_COLUMNS, *rows])
    return sink.getvalue()


# Valid cells, then the same text in a column of the other kind.
@example(_registry_text({}, {"id": "p2", "date_c": "1998"}))
@example(_registry_text({}, {"id": "p2", "price_level_year_c": "1998-03-01"}))
@example(_registry_text({"price_level_year_b": "2001-06-30"}))
@example(_registry_text({"construction_start": "1998"}))
@given(_generated_registries())
def test_parse_matches_the_parse_without_shared_values(text):
    assert _parse_outcome(parse_project_records_lenient, text) == _parse_outcome(
        oracles.parse_project_records_lenient, text
    )
    assert _parse_outcome(parse_project_records, text) == _parse_outcome(oracles.parse_project_records, text)


def test_money_cells_must_be_plain_integers():
    text = HEADER + "\np1,,,,,,,,,,,,,,,,,,,,2001-06-30,1_0,\n"
    with pytest.raises(DataFormatError, match="outturn_nominal"):
        parse_text(text)


@pytest.mark.parametrize("sign", ["", "-", "+"])
def test_money_magnitude_is_capped_where_floats_stay_exact(sign):
    row = "p1,,,,,,,,,,,,,,,,,,,,2001-06-30,{},\n"
    text = HEADER + "\n" + row.format(sign + "000" + str(MAX_MONEY))
    (record,), _ = parse_project_records_lenient(io.StringIO(text))
    assert abs(record.outturn_nominal) == MAX_MONEY
    for amount in (str(MAX_MONEY + 1), "9" * 5000):
        with pytest.raises(DataFormatError, match=r"outturn_nominal.*exceeds 9007199254740992"):
            parse_text(HEADER + "\n" + row.format(sign + amount))


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


@pytest.mark.parametrize(
    "fields, expected",
    [
        (dict(actual_completion=None),
         ("missing-completion", "t1: actual completion date is missing", None)),
        (dict(outturn_nominal=None),
         ("missing-outturn", "t1: nominal outturn is missing", None)),
        (dict(outturn_nominal=0),
         ("non-positive-outturn", "t1: outturn must be positive, got 0", None)),
        (dict(stages={Stage.C: StageEstimate(upgrade_date=date(1999, 1, 1)),
                      Stage.B: StageEstimate(upgrade_date=date(1998, 1, 1))}),
         ("stage-order", "t1: B upgrade (1998-01-01) precedes C upgrade (1999-01-01)", Stage.B)),
        (dict(stages={Stage.A: StageEstimate(contingency=-1)}),
         ("non-positive-money", "t1: contingency at Category A must be at least 0, got -1", Stage.A)),
        (dict(stages={Stage.B: StageEstimate(base=10, price_level_year=2000, approved=0)}),
         ("non-positive-money", "t1: approved at Category B must be at least 1, got 0", Stage.B)),
        (dict(stages={Stage.C: StageEstimate(base=10)}),
         ("missing-price-year", "t1: base estimate at Category C has no price-level year", Stage.C)),
        (dict(stages={Stage.C: StageEstimate(base=100, contingency=10, approved=120, price_level_year=2000)}),
         ("estimate-consistency", "t1: Category C approved estimate 120 differs from "
          "base + contingency = 110 by more than 0.5%", Stage.C)),
        (dict(stages={Stage.A: StageEstimate(upgrade_date=date(2002, 1, 1))}),
         ("completion-before-upgrade", "t1: actual completion 2001-06-30 precedes "
          "Category A upgrade 2002-01-01", Stage.A)),
        (dict(stages={Stage.B: StageEstimate(upgrade_date=date(1999, 1, 1),
                                             planned_completion=date(1999, 1, 1))}),
         ("non-positive-planned-duration", "t1: Category B planned completion 1999-01-01 "
          "does not follow the upgrade date 1999-01-01", Stage.B)),
        (dict(disbursements={1999: 0, 2000: 100}),
         ("non-positive-disbursement", "t1: disbursement for 1999 must be positive, got 0", None)),
        (dict(disbursements={2000: 90}),
         ("disbursement-sum", "t1: disbursements sum to 90, outturn is 100 (difference exceeds 0.5%)", None)),
    ],
)
def test_validate_record_reports_each_code_exactly(fields, expected):
    report = validate_record(_bare_record(**fields))
    assert [(v.code, v.message, v.stage) for v in report] == [expected]


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
    series = parse_deflator_series(io.StringIO(text))
    for year in range(1990, 1996):
        assert series.index(year) == pytest.approx(1.0)


def test_deflators_ratio():
    series = parse_deflator_series(io.StringIO("year,index\n1990,100\n1991,110\n"))
    assert series.index(1991) == pytest.approx(1.10)


@pytest.mark.parametrize(
    "indexes, got",
    [((1e300, 1e-300), "0.0"), ((1e-300, 1e300), "inf")],  # the ratio under- and overflows
)
def test_deflators_reject_a_ratio_no_float_holds(indexes, got):
    with pytest.raises(DataFormatError, match=f"^deflator index for 1991 over base year 1990 .* got {got}$"):
        parse_deflator_series(io.StringIO("year,index\n1990,{}\n1991,{}\n".format(*indexes)))


def test_deflators_gap_rejected():
    text = "year,index\n1990,100\n1991,101\n1993,103\n"
    with pytest.raises(DataFormatError, match="1992"):
        parse_deflator_series(io.StringIO(text))
    text = "year,index\n1990,100\n1991,101\n1991,102\n1992,103\n"
    with pytest.raises(DataFormatError, match="^duplicate deflator year 1991$"):
        parse_deflator_series(io.StringIO(text))
    with pytest.raises(DataFormatError, match="^deflator series is empty$"):
        parse_deflator_series(io.StringIO("year,index\n"))


def test_deflators_out_of_range_lookup_names_year():
    series = parse_deflator_series(io.StringIO("year,index\n1990,100\n1991,110\n"))
    with pytest.raises(DeflatorCoverageError, match="1989"):
        series.index(1989)


def test_stage_availability_demo_counts(demo_records):
    # What derive yields is the count of what the registry makes available.
    series = parse_deflator_series(io.StringIO(corpus.demo_deflator_csv()))
    observations = derive_all_observations(demo_records, series)
    counts = {metric: [sum(o.stage is s and o.metric is metric for o in observations) for s in Stage]
              for metric in Metric}
    assert counts == {Metric.COST: [23, 22, 20], Metric.SCHEDULE: [22, 23, 25]}


def test_benchmark_constants_missing_field():
    with pytest.raises(DataFormatError, match="mean_duration_years"):
        parse_benchmark_constants('{"x": {"n_projects": 3}}')
    with pytest.raises(DataFormatError, match="^benchmark file must hold an object keyed by label$"):
        parse_benchmark_constants("[]")
    with pytest.raises(DataFormatError, match="^benchmark 'x': entry must be an object$"):
        parse_benchmark_constants('{"x": 3}')
    payload = json.loads(corpus.BENCHMARK_JSON)
    payload["international-roads"]["mean_cost_overrun"] = int("9" * 400)
    with pytest.raises(
        DataFormatError,
        match="^benchmark 'international-roads': mean_cost_overrun: int too large to convert to float$",
    ):
        parse_benchmark_constants(json.dumps(payload))


def test_every_benchmark_constant_states_its_kind_and_range():
    label, *numeric = fields(BenchmarkConstants)
    assert (label.name, label.type) == ("label", "str")
    for f in numeric:
        assert f.metadata["kind"] == {"int": "an integer", "float": "a number"}[f.type], f.name
        assert f.metadata["rule"] and not f.metadata["holds"](math.nan), f.name


def test_benchmark_float_fields_take_json_integers_as_floats():
    payload = json.loads(corpus.BENCHMARK_JSON)
    payload["international-roads"]["mean_duration_years"] = 5
    parsed = parse_benchmark_constants(json.dumps(payload))["international-roads"]
    assert parsed.mean_duration_years == 5.0
    assert type(parsed.mean_duration_years) is float
