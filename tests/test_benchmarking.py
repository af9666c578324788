import io
import json
from datetime import date, timedelta
from pathlib import Path

import pytest

import corpus
from refclass.benchmarking import (
    DEFAULT_MAPPING_NOTE,
    TEST_NAMES,
    benchmark_report,
    benchmark_report_as_dict,
    phase_breakdown,
    write_benchmark_csv,
    write_benchmark_json,
)
from refclass.reference_class import ReferenceClass
from refclass.errors import EmptyClassError
from refclass.registry import Metric, ProjectRecord, Stage, StageEstimate, parse_benchmark_constants

GOLDEN_CSV = """\
measure,benchmark,cat_c,cat_b,cat_a,p_value,test
average_cost_overrun,0.2000,0.2000,,,,
frequency_of_cost_overruns,0.9000,0.7500,,,,
sd_of_cost_overrun,0.3000,0.2582,,,,
average_schedule_overrun,0.3800,,,,,
frequency_of_schedule_overruns,0.6000,,,,,
sd_of_schedule_overrun,0.8500,,,,,
average_duration_years,5.50,9.00,,,,
"""


def _record(record_id="p1", **dates) -> ProjectRecord:
    stages = {}
    for stage in Stage:
        upgrade = dates.get(f"date_{stage.name.lower()}")
        if upgrade is not None:
            stages[stage] = StageEstimate(upgrade_date=upgrade)
    return ProjectRecord(
        id=record_id,
        stages=stages,
        construction_start=dates.get("start"),
        actual_completion=dates.get("done"),
        outturn_nominal=None,
        disbursements=None,
    )


def _classes(values_by_key):
    return {key: ReferenceClass.from_values(values) for key, values in values_by_key.items()}


def test_shipped_benchmark_constants():
    shipped = (Path(__file__).resolve().parents[1] / "data" / "benchmark.json").read_text()
    c = parse_benchmark_constants(shipped)["international-roads"]
    assert c == corpus.ROADS
    assert c.label == "international-roads"
    assert c.n_projects == 863
    assert (c.mean_cost_overrun, c.cost_overrun_frequency, c.cost_overrun_sd) == (0.20, 0.9, 0.30)
    assert (c.mean_schedule_overrun, c.schedule_overrun_frequency, c.schedule_overrun_sd) == (
        0.38,
        0.6,
        0.85,
    )
    assert c.mean_duration_years == 5.5


def test_report_rows_sorted_and_flagged():
    classes = _classes({
        (Stage.B, Metric.COST): [0.1, 0.2],
        (Stage.C, Metric.SCHEDULE): [0.0, 0.4],
        (Stage.C, Metric.COST): [0.3, 0.5],
    })
    report = benchmark_report(classes, constants=corpus.ROADS)
    keys = [(row.stage, row.metric) for row in report.rows]
    assert keys == [
        (Stage.C, Metric.COST),
        (Stage.C, Metric.SCHEDULE),
        (Stage.B, Metric.COST),
    ]
    for row in report.rows:
        assert row.comparable is (row.stage is Stage.C)
        assert row.mean_test is None
        assert row.frequency_test is None
    assert benchmark_report_as_dict(report)["mapping_note"] == DEFAULT_MAPPING_NOTE
    assert report.row(Stage.A, Metric.COST) is None


def test_reference_class_inputs_match_plain_values(table2_class):
    by_class = benchmark_report({(Stage.C, Metric.COST): table2_class})
    by_values = benchmark_report(_classes({(Stage.C, Metric.COST): table2_class.values}))
    assert by_class.rows[0].stats == by_values.rows[0].stats
    assert by_class.rows[0].stats.mean == pytest.approx(0.1056, abs=5e-5)


def test_raw_sample_turns_tests_on():
    classes = _classes({
        (Stage.C, Metric.COST): [0.3, 0.4, 0.5],
        (Stage.B, Metric.COST): [0.2, 0.6],
        (Stage.C, Metric.SCHEDULE): [0.1, 0.2],
    })
    sample = [-0.2, -0.1, 0.0, 0.1, 0.2]
    report = benchmark_report(classes, raw_benchmark={Metric.COST: sample})
    for row in report.rows:
        if row.metric is Metric.COST:
            assert row.mean_test is not None
            assert row.mean_test.name == TEST_NAMES["mean"] == "mann-whitney-u"
            assert 0.0 < row.mean_test.p_value <= 1.0
            assert row.frequency_test is not None
            assert row.frequency_test.name == TEST_NAMES["frequency"] == "fisher-exact"
            assert 0.0 < row.frequency_test.p_value <= 1.0
        else:
            assert row.mean_test is None
            assert row.frequency_test is None
    c_cost = report.row(Stage.C, Metric.COST)
    assert c_cost.frequency_test.statistic == 3.0
    sink = io.StringIO()
    write_benchmark_csv(report, sink)
    assert sink.getvalue() == RAW_SAMPLE_CSV


RAW_SAMPLE_CSV = """\
measure,benchmark,cat_c,cat_b,cat_a,p_value,test
average_cost_overrun,,0.4000,0.4000,,0.035714,mann-whitney-u
frequency_of_cost_overruns,,1.0000,1.0000,,0.196429,fisher-exact
sd_of_cost_overrun,,0.1000,0.2828,,,
average_schedule_overrun,,0.1500,,,,
frequency_of_schedule_overruns,,1.0000,,,,
sd_of_schedule_overrun,,0.0707,,,,
average_duration_years,,,,,,
"""


def test_empty_inputs_rejected():
    with pytest.raises(EmptyClassError, match="^no reference class has any observations$"):
        benchmark_report({})
    with pytest.raises(EmptyClassError, match="^no reference class has any observations$"):
        benchmark_report(_classes({(Stage.C, Metric.COST): []}))


def test_empty_class_dropped_but_rest_kept():
    report = benchmark_report(
        _classes({(Stage.C, Metric.COST): [0.1], (Stage.B, Metric.COST): []})
    )
    assert [(row.stage, row.metric) for row in report.rows] == [(Stage.C, Metric.COST)]


def test_csv_layout_frozen():
    report = benchmark_report(
        _classes({(Stage.C, Metric.COST): [0.1, 0.3, -0.1, 0.5]}),
        constants=corpus.ROADS,
        durations_years=[8.0, 10.0],
    )
    assert report.mean_duration_years == pytest.approx(9.0)
    buffer = io.StringIO()
    write_benchmark_csv(report, buffer)
    assert buffer.getvalue() == GOLDEN_CSV

    again = io.StringIO()
    write_benchmark_csv(report, again)
    assert again.getvalue() == buffer.getvalue()


def test_csv_without_constants_leaves_benchmark_blank():
    report = benchmark_report(_classes({(Stage.C, Metric.COST): [0.1, 0.3]}))
    buffer = io.StringIO()
    write_benchmark_csv(report, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[1].startswith("average_cost_overrun,,")
    assert lines[-1] == "average_duration_years,,,,,,"


def test_json_round_trips():
    report = benchmark_report(
        _classes({(Stage.C, Metric.COST): [0.1, 0.3, -0.1, 0.5]}),
        constants=corpus.ROADS,
        durations_years=[8.0, 10.0],
    )
    buffer = io.StringIO()
    write_benchmark_json(report, buffer)
    payload = json.loads(buffer.getvalue())
    assert payload["benchmark"]["label"] == "international-roads"
    assert payload["benchmark"]["n_projects"] == 863
    assert payload["mean_duration_years"] == pytest.approx(9.0)
    (row,) = payload["rows"]
    assert row["comparable"] is True
    assert row["n"] == 4
    assert row["mean"] == pytest.approx(0.2)
    assert row["mean_test"] is None

    again = io.StringIO()
    write_benchmark_json(report, again)
    assert again.getvalue() == buffer.getvalue()


def test_phase_breakdown_full_history():
    c = date(1990, 1, 1)
    record = _record(
        date_c=c,
        date_b=c + timedelta(days=400),
        date_a=c + timedelta(days=1100),
        start=c + timedelta(days=1826),
        done=c + timedelta(days=3287),
    )
    rows, aggregate = phase_breakdown([record])
    (row,) = rows
    assert row.total_years == pytest.approx(3287 / 365.25)
    assert row.c_to_b == pytest.approx(400 / 365.25)
    assert row.b_to_a == pytest.approx(700 / 365.25)
    assert row.a_to_construction == pytest.approx(726 / 365.25)
    assert row.construction_to_completion == pytest.approx(1461 / 365.25)
    assert row.a_to_completion is None
    assert row.preconstruction_share == pytest.approx(1826 / 3287)
    phase_sum = row.c_to_b + row.b_to_a + row.a_to_construction + row.construction_to_completion
    assert phase_sum == pytest.approx(row.total_years)
    assert aggregate.n == 1
    assert aggregate.skipped == ()


def test_phase_breakdown_without_construction_start():
    c = date(1990, 1, 1)
    record = _record(
        date_c=c,
        date_a=c + timedelta(days=1000),
        done=c + timedelta(days=3000),
    )
    (row,), aggregate = phase_breakdown([record])
    assert row.construction_to_completion is None
    assert row.a_to_completion == pytest.approx(2000 / 365.25)
    assert row.preconstruction_share is None
    assert aggregate.mean_preconstruction_share is None


def test_phase_breakdown_skips_incomplete_records():
    good = _record("ok", date_c=date(1990, 1, 1), done=date(1999, 1, 1))
    no_anchor = _record("no-c", date_b=date(1991, 1, 1), done=date(1999, 1, 1))
    unfinished = _record("open", date_c=date(1990, 1, 1))
    rows, aggregate = phase_breakdown([good, no_anchor, unfinished])
    assert [row.project_id for row in rows] == ["ok"]
    assert aggregate.skipped == ("no-c", "open")
    assert aggregate.n == 1


def test_phase_breakdown_empty():
    rows, aggregate = phase_breakdown([])
    assert rows == []
    assert aggregate.n == 0
    assert aggregate.mean_total_years == 0.0
    assert aggregate.mean_preconstruction_share is None


def test_demo_corpus_duration_profile(demo_records):
    rows, aggregate = phase_breakdown(demo_records)
    assert aggregate.n == len(demo_records) == 25
    assert aggregate.mean_total_years == pytest.approx(8.9, abs=0.02)
    assert aggregate.mean_preconstruction_share == pytest.approx(0.58, abs=0.02)
    assert aggregate.mean_preconstruction_share > 0.5
