import contextlib
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from datetime import date
from hashlib import sha256
from importlib import import_module
from pathlib import Path

import click
import pytest
from hypothesis import given, settings, strategies as st

import corpus
import refclass
from refclass.cli import _SETTINGS, _parse_p_list, _parse_scheme, cli, main
from refclass.contingency import TierScheme
from refclass.reference_class import default_probability_grid, rank_position
from refclass.registry import (
    DEFAULT_DEGREE,
    DEFAULT_SPAN,
    LOESS_MIN_POINTS,
    MAX_GRID_STEP,
    MIN_GRID_STEP,
    ProjectRecord,
    QuantileMethod,
    Stage,
    StageEstimate,
    parse_project_records,
    write_project_records,
)
from refclass.smoothing import _loess_sorted
from test_validation import GOLDEN_CSV as GOLDEN_LOOV_CSV

GOLDEN_UPLIFT_BOTH = """\
p,uplift_interp,uplift_inf
0.50,0.160000,0.140000
0.80,0.454000,0.470000
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def base_args(paths, out_dir):
    return [
        "--projects",
        paths["projects"],
        "--deflators",
        paths["deflators"],
        "--out",
        str(out_dir),
    ]


def write_wild_corpus(directory) -> dict[str, str]:
    """Six projects whose overruns are 0,0,0,0,0,+2.0: a raw quantile
    staircase steep enough that an unadjusted narrow-span fit dips."""

    records = []
    for i, value in enumerate([0.0, 0.0, 0.0, 0.0, 0.0, 2.0]):
        outturn = round(1_000_000 * (1 + value))
        records.append(
            ProjectRecord(
                id=f"w{i + 1}",
                stages={
                    Stage.C: StageEstimate(
                        upgrade_date=date(2000, 1, 1),
                        base=1_000_000,
                        contingency=0,
                        approved=1_000_000,
                        price_level_year=2000,
                    )
                },
                construction_start=date(2000, 2, 1),
                actual_completion=date(2001, 6, 30),
                outturn_nominal=outturn,
                disbursements={2001: outturn},
            )
        )
    paths = {
        "projects": str(directory / "projects.csv"),
        "deflators": str(directory / "deflators.csv"),
    }
    with open(paths["projects"], "w", newline="") as handle:
        write_project_records(records, handle)
    with open(paths["deflators"], "w") as handle:
        handle.write(corpus.flat_deflator_csv())
    return paths


def test_uplift_golden_both_methods(table2_paths, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run(
        capsys,
        "uplift",
        *base_args(table2_paths, out),
        "--stage",
        "C",
        "--metric",
        "cost",
        "--method",
        "both",
    )
    assert code == 0
    assert stdout == GOLDEN_UPLIFT_BOTH
    assert (out / "uplift_C_cost.csv").read_text() == GOLDEN_UPLIFT_BOTH


def test_validate_golden_stdout(table2_paths, tmp_path, capsys):
    code, stdout, _ = run(
        capsys,
        "validate",
        *base_args(table2_paths, tmp_path / "out"),
        "--stage",
        "C",
        "--metric",
        "cost",
    )
    assert code == 0
    expected = GOLDEN_LOOV_CSV + "# p50: 9/18 prevented (50%)\n# p80: 14/18 prevented (78%)\n"
    assert stdout == expected
    assert (tmp_path / "out" / "loov_C_cost.csv").read_text() == GOLDEN_LOOV_CSV


def test_overruns_rows_match_registry(table2_paths, tmp_path, capsys):
    code, stdout, _ = run(
        capsys,
        "overruns",
        *base_args(table2_paths, tmp_path / "out"),
        "--stage",
        "C",
        "--metric",
        "cost",
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "project,stage,metric,value,reference_date,pre_era,outturn_nominal"
    assert len(lines) == 1 + len(corpus.TABLE2_IDS)
    for line, pid, value in zip(lines[1:], corpus.TABLE2_IDS, corpus.TABLE2_VALUES):
        cells = line.split(",")
        assert cells[0] == pid
        assert float(cells[3]) == pytest.approx(value, abs=5e-7)
        assert cells[4] == "2000-01-01"
        assert cells[5] == "no"
        assert int(cells[6]) == round(corpus.TABLE2_BASE * (1 + value))


def test_outputs_are_deterministic(table2_paths, tmp_path, capsys):
    args = ["uplift", "--stage", "C", "--metric", "cost", "--smooth"]
    first = run(capsys, *args, *base_args(table2_paths, tmp_path / "a"))
    second = run(capsys, *args, *base_args(table2_paths, tmp_path / "b"))
    assert first == second
    assert (tmp_path / "a" / "uplift_C_cost.csv").read_bytes() == (
        tmp_path / "b" / "uplift_C_cost.csv"
    ).read_bytes()


def test_curve_csv_and_svg(table2_paths, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run(
        capsys,
        "curve",
        *base_args(table2_paths, out),
        "--stage",
        "C",
        "--metric",
        "cost",
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "p,uplift_raw,uplift_smoothed,ci_low,ci_high"
    assert len(lines) == 1 + 100
    assert lines[1].startswith("0.01,")
    assert lines[-1].startswith("1.00,")
    smoothed = [float(line.split(",")[2]) for line in lines[1:]]
    assert smoothed == sorted(smoothed)
    assert (out / "curve_C_cost.csv").read_text() == stdout
    svg = (out / "curve_C_cost.svg").read_text()
    assert svg.lstrip().startswith("<svg")
    assert "P50 +16%" in svg
    assert "P80 +45%" in svg
    assert "polyline" in svg


def test_tiers_json_output(table2_paths, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run(
        capsys,
        "tiers",
        *base_args(table2_paths, out),
        "--stage",
        "C",
        "--metric",
        "cost",
        "--base",
        "100000",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["base_estimate"] == 100000
    assert [tier["name"] for tier in payload["tiers"]] == ["contract", "project", "portfolio"]
    assert payload["total_funded"] == 100000 + payload["total_contingency"]
    assert sum(t["tranche_amount"] for t in payload["tiers"]) == payload["total_contingency"]
    assert (out / "tiers_C_cost.json").read_text() == stdout


def test_tiers_custom_scheme(table2_paths, tmp_path, capsys):
    code, stdout, _ = run(
        capsys,
        "tiers",
        *base_args(table2_paths, tmp_path / "out"),
        "--stage",
        "C",
        "--metric",
        "cost",
        "--base",
        "1000",
        "--scheme",
        "low:0.5,high:0.9",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert [tier["certainty"] for tier in payload["tiers"]] == [0.5, 0.9]


def test_benchmark_command(demo_paths, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run(
        capsys,
        "benchmark",
        "--benchmark",
        demo_paths["benchmark"],
        *base_args(demo_paths, out),
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "measure,benchmark,cat_c,cat_b,cat_a,p_value,test"
    assert lines[1].startswith("average_cost_overrun,0.2000,")
    assert lines[-1].startswith("average_duration_years,5.50,8.90,")
    payload = json.loads((out / "benchmark.json").read_text())
    assert payload["benchmark"]["label"] == "international-roads"
    assert len(payload["rows"]) == 6
    assert (out / "benchmark.csv").read_text() == stdout


def test_benchmark_label_names_an_entry_or_exits_1(demo_paths, tmp_path, capsys):
    roads = json.loads(corpus.BENCHMARK_JSON)["international-roads"]
    files = {}
    for name, labels in {"empty": [], "two": ["aaa", "international-roads"], "other": ["zeta", "alpha"]}.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps({label: {**roads, "n_projects": i + 1} for i, label in enumerate(labels)}))

    def chosen(*argv):
        out = tmp_path / "out"
        code, _, err = run(capsys, "benchmark", *base_args(demo_paths, out), *argv)
        assert code == 0, err
        return json.loads((out / "benchmark.json").read_text())["benchmark"]

    # Without a label: international-roads where the file has it, else the first label in sorted order.
    assert chosen("--benchmark", str(files["two"]))["label"] == "international-roads"
    assert chosen("--benchmark", str(files["other"])) == {**roads, "label": "alpha", "n_projects": 2}
    assert chosen("--benchmark", str(files["two"]), "--benchmark-label", "aaa") == {
        **roads, "label": "aaa", "n_projects": 1}
    assert chosen("--benchmark", str(files["empty"])) is None

    # A label that names no entry is a usage error, whatever the file holds.
    for given, message in [
        ([], "no benchmark file given (use --benchmark or a config file)"),
        (["--benchmark", str(files["empty"])], "label 'nosuch' not in benchmark file (has: no labels)"),
        (["--benchmark", str(files["other"])], "label 'nosuch' not in benchmark file (has: alpha, zeta)"),
    ]:
        code, stdout, err = run(capsys, "benchmark", *base_args(demo_paths, tmp_path / "out"), *given,
                                "--benchmark-label", "nosuch")
        assert (code, stdout) == (1, ""), given
        assert err.splitlines()[-1] == f"Error: {message}"

    # A missing input file comes first, then the label, then the registry.
    bad_registry = tmp_path / "bad.csv"
    bad_registry.write_text("bogus,header\n")
    bad_benchmark = tmp_path / "bad.json"
    bad_benchmark.write_text('{"x": 1')
    deflators = ["--deflators", demo_paths["deflators"], "--out", str(tmp_path / "out")]
    for given, expected_code, last_line in [
        (["--projects", str(bad_registry), "--benchmark", str(files["other"]), "--benchmark-label", "nosuch"],
         1, "Error: label 'nosuch' not in benchmark file (has: alpha, zeta)"),
        (["--benchmark", str(bad_benchmark)],
         1, "Error: no projects file given (use --projects or a config file)"),
        (["--projects", str(bad_registry), "--benchmark", str(bad_benchmark)],
         2, "error: benchmark file is not valid JSON"),
    ]:
        code, stdout, err = run(capsys, "benchmark", *deflators, *given)
        assert (code, stdout) == (expected_code, ""), given
        assert err.splitlines()[-1].startswith(last_line), given


def test_check_clean_registry(table2_paths, tmp_path, capsys):
    code, stdout, _ = run(capsys, "check", "--projects", table2_paths["projects"])
    assert code == 0
    assert stdout == "registry OK (18 records)\n"


def test_check_reports_violations(table2_paths, tmp_path, capsys):
    with open(table2_paths["projects"], newline="") as handle:
        records = parse_project_records(handle)
    broken = [dataclasses.replace(records[0], actual_completion=None)] + records[1:]
    bad_path = tmp_path / "broken.csv"
    with open(bad_path, "w", newline="") as handle:
        write_project_records(broken, handle)
    code, stdout, _ = run(capsys, "check", "--projects", str(bad_path))
    assert code == 2
    assert "missing-completion" in stdout
    assert "violation(s) in 18 record(s)" in stdout


def test_usage_errors_exit_1(table2_paths, tmp_path, capsys):
    args = base_args(table2_paths, tmp_path / "out")

    code, _, err = run(capsys, "uplift", *args, "--metric", "cost")
    assert code == 1
    assert "--stage" in err

    code, _, err = run(
        capsys, "uplift", *args, "--stage", "C", "--metric", "cost", "--p", "nope"
    )
    assert code == 1

    code, _, err = run(
        capsys, "curve", *args, "--stage", "C", "--metric", "cost", "--method", "both"
    )
    assert code == 1
    assert "'both' is not one of 'inf', 'interp'" in err

    config = tmp_path / "bad.conf"
    config.write_text("bogus = 1\n")
    code, _, err = run(
        capsys, "uplift", *args, "--stage", "C", "--metric", "cost", "--config", str(config)
    )
    assert code == 1
    assert "bogus" in err

    code, _, err = run(capsys, "uplift", "--stage", "C", "--metric", "cost")
    assert code == 1

    no_equals = tmp_path / "no_equals.conf"
    no_equals.write_text("# a comment\nspan\n")
    for bad, message in (
        (["uplift", "--config", str(no_equals)], "config line 2: expected key = value"),
        (["tiers", "--base", "100", "--scheme", "a0.5"], "tier 'a0.5' is not name:certainty"),
        (["tiers", "--base", "100", "--scheme", "a:x"], "tier 'a:x' has a non-numeric certainty"),
    ):
        code, stdout, err = run(capsys, bad[0], *args, "--stage", "C", "--metric", "cost", *bad[1:])
        assert (code, stdout) == (1, ""), bad
        assert err.count("Error") == 1 and err.splitlines()[-1] == f"Error: {message}", bad

    span_zero = tmp_path / "span.conf"
    span_zero.write_text("span = 0\n")
    steps = {}
    for step in ("nan", "1e-300", "0.00009"):
        steps[step] = tmp_path / f"step_{step}.conf"
        steps[step].write_text(f"grid_step = {step}\n")
    for bad in (
        ["curve", "--grid-step", "0"],
        ["curve", "--grid-step", "2"],
        ["curve", "--span", "0"],
        ["curve", "--span", "1.5"],
        ["curve", "--config", str(span_zero)],
        ["curve", "--span", "nan"],
        ["curve", "--grid-step", "nan"],
        ["curve", "--config", str(steps["nan"])],
        # A step below the floor is refused before a grid is built.
        *([*command, *given] for step in ("1e-300", "0.00009")
          for command in (["curve"], ["tiers", "--base", "100"], ["uplift", "--smooth"])
          for given in (["--grid-step", step], ["--config", str(steps[step])])),
        ["uplift", "--smooth", "--p", "0.005"],
        ["tiers", "--base", "100", "--scheme", "a:0.005"],
        ["curve", "--grid-step", "0.5"],
        ["curve", "--grid-step", "0.5", "--degree", "1"],
        ["uplift", "--smooth", "--grid-step", "0.5", "--p", "0.5"],
        ["tiers", "--base", "100", "--grid-step", "0.5", "--scheme", "a:0.5"],
        ["tiers", "--base", "0"],
        ["tiers", "--base", "9" * 400],
        ["tiers", "--base", "9" * 400 + "x"],
        ["uplift", "--min-outturn", "9" * 400],
        ["uplift", "--min-outturn", str(2**53 + 1)],
        ["uplift", "--era-cutoff", "9" * 400],
        ["uplift", "--p", "9" * 400 + "x"],
        ["tiers", "--base", "100", "--scheme", "b:0.5," + "x" * 400 + ":0.4"],
        ["tiers", "--base", "100", "--scheme", "a:0.5,a:0.6"],
        ["tiers", "--base", "100", "--scheme", "x" * 400 + ":0.5," + "x" * 400 + ":0.6"],
        ["uplift", "--config", "x" * 400],
        *([command, flag, "x" * 400] for command in ("uplift", "curve")
          for flag in ("--span", "--grid-step", "--degree", "--stage", "--metric", "--method")),
    ):
        # The bad value comes last, so that it wins over --stage C and --metric cost.
        code, _, err = run(capsys, bad[0], *args, "--stage", "C", "--metric", "cost", *bad[1:])
        assert code == 1, bad
        assert "Traceback" not in err
        assert "Error:" in err
        assert max(len(line) for line in err.splitlines()) < 200, bad

    # Each option type rejects a value as its first 40 characters and what it expects.
    head = f"{'x' * 40!r}... (400 characters) is not"
    for flag, expects in [
        ("--span", "a number in the range 0<x<=1"),
        ("--degree", "an integer in the range 1<=x<=2"),
        ("--stage", "one of 'C', 'B', 'A'."),
    ]:
        code, _, err = run(capsys, "curve", *args, "--stage", "C", "--metric", "cost", flag, "x" * 400)
        assert code == 1
        assert err.splitlines()[-1] == f"Error: Invalid value for '{flag}': {head} {expects}"

    # A negative smallest outturn admits every project.
    code, _, _ = run(capsys, "uplift", *args, "--stage", "C", "--metric", "cost",
                     "--min-outturn", "-5")
    assert code == 0

    latin1 = tmp_path / "latin1.conf"
    latin1.write_bytes(b"# caf\xe9\nspan = 0.5\n")
    code, _, err = run(capsys, "curve", *args, "--stage", "C", "--metric", "cost",
                       "--config", str(latin1))
    assert code == 1
    assert "Traceback" not in err
    assert "is not UTF-8 text" in err
    deep = tmp_path / ("d" * 200) / ("e" * 200)
    deep.mkdir(parents=True)
    long_config = str(deep / "latin1.conf")
    Path(long_config).write_bytes(latin1.read_bytes())
    code, _, err = run(capsys, "curve", *args, "--stage", "C", "--metric", "cost", "--config", long_config)
    assert code == 1
    assert err.splitlines()[-1] == (
        f"Error: config file {long_config[:40]!r}... ({len(long_config)} characters) is not UTF-8 text"
    )
    assert max(len(line) for line in err.splitlines()) < 200

    a_file = tmp_path / "a_file"
    a_file.write_text("")
    out_conf = tmp_path / "out.conf"
    out_conf.write_text(f"out = {a_file}\n")
    inputs = ["--projects", table2_paths["projects"], "--deflators", table2_paths["deflators"]]
    for out in (["--out", str(a_file)], ["--config", str(out_conf)]):
        code, _, err = run(capsys, "overruns", *inputs, *out, "--stage", "C", "--metric", "cost")
        assert code == 1, out
        assert "'--out'" in err


def test_distinct_certainties_get_distinct_labels(tmp_path, capsys):
    args = [
        "--projects",
        str(SHIPPED_DATA / "projects.csv"),
        "--deflators",
        str(SHIPPED_DATA / "deflators.csv"),
        "--out",
        str(tmp_path / "out"),
        "--stage",
        "C",
        "--metric",
        "cost",
        "--p",
        "0.5,0.501,0.005",
    ]
    code, stdout, _ = run(capsys, "uplift", *args)
    assert code == 0
    assert [line.split(",")[0] for line in stdout.splitlines()] == ["p", "0.50", "0.501", "0.005"]
    code, stdout, _ = run(capsys, "validate", *args)
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == (
        "project,p0.5_uplift,p50_uplift,p50.1_uplift,actual,"
        "p0.5_prevented,p50_prevented,p50.1_prevented"
    )
    assert [line.split(":")[0] for line in lines if line.startswith("#")] == [
        "# p0.5",
        "# p50",
        "# p50.1",
    ]


def test_method_is_case_insensitive_in_flags_and_config(table2_paths, tmp_path, capsys):
    args = [*base_args(table2_paths, tmp_path / "out"), "--stage", "C", "--metric", "cost"]
    code, lower, _ = run(capsys, "uplift", *args, "--method", "inf")
    assert code == 0
    code, upper, _ = run(capsys, "uplift", *args, "--method", "INF")
    assert code == 0
    assert upper == lower
    config = tmp_path / "method.conf"
    config.write_text("method = INF\n")
    code, stdout, _ = run(capsys, "uplift", *args, "--config", str(config))
    assert code == 0
    assert stdout == lower


def test_empty_class_error_is_one_stderr_line(table2_paths, tmp_path):
    # A real process: pytest's own log handlers hide a stray warning in-process.
    done = subprocess.run(
        [
            sys.executable,
            "-m",
            "refclass",
            "uplift",
            *base_args(table2_paths, tmp_path / "out"),
            "--stage",
            "C",
            "--metric",
            "cost",
            "--min-outturn",
            "99999999",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(refclass.__file__).parent.parent)},
    )
    assert done.returncode == 3
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error:")


# Run each command in its own fresh interpreter (pytest's own process has
# every module loaded) and report which modules it loaded.
_LOADED_MODULES_PROBE = """
import json, sys
from refclass.cli import main

code = main(sys.argv[1:])
prefixes = ("refclass.", "numpy", "concurrent.", "logging")
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith(prefixes))]))
"""

# check runs only the registry parser. No command needs a thread pool
# (concurrent.futures); the probe keeps it as a guard against one. Only an
# empty reference class logs, and only benchmark uses refclass.stats.
_OPTIONAL_MODULES = {"refclass.normalization", "refclass.reference_class", "refclass.stats",
                     "refclass.benchmarking", "refclass.contingency", "refclass.validation",
                     "refclass.plot", "refclass.smoothing", "numpy", "concurrent.futures", "logging"}


_CLASS = ["--stage", "C", "--metric", "cost"]
_RUNS_CLASSES = {"refclass.normalization", "refclass.reference_class"}
_SMOOTHS = {"refclass.smoothing", "numpy"}
# Per command: its arguments, and which of the optional modules it loads.
_COMMAND_MODULES = {
    "check": (["check"], set()),
    "overruns": (["overruns", *_CLASS], {"refclass.normalization"}),
    "uplift": (["uplift", *_CLASS], _RUNS_CLASSES),
    "uplift-smooth": (["uplift", *_CLASS, "--smooth"], _RUNS_CLASSES | _SMOOTHS),
    "validate": (["validate", *_CLASS], _RUNS_CLASSES | {"refclass.validation"}),
    "benchmark": (["benchmark"], _RUNS_CLASSES | {"refclass.benchmarking", "refclass.stats"}),
    "curve": (["curve", *_CLASS], _RUNS_CLASSES | _SMOOTHS | {"refclass.plot"}),
    "tiers": (["tiers", *_CLASS, "--base", "100000"], _RUNS_CLASSES | _SMOOTHS | {"refclass.contingency"}),
}


_SHIPPED_FILES = ["--projects", "data/projects.csv", "--deflators", "data/deflators.csv",
                  "--benchmark", "data/benchmark.json"]
# A fresh interpreter's environment, run from the repository root.
_CHILD_ENV = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": "src", "LC_ALL": "C.UTF-8"}


def _run_child(args, out, env=_CHILD_ENV):
    return subprocess.run(
        [sys.executable, *args, *_SHIPPED_FILES, "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=SHIPPED_DATA.parent,
        env=env,
    )


def _loaded_optional_modules(argv, out):
    done = _run_child(["-c", _LOADED_MODULES_PROBE, *argv], out)
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    return code, set(modules) & _OPTIONAL_MODULES


@pytest.mark.parametrize("command", sorted(_COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_runs(command, tmp_path):
    argv, loaded = _COMMAND_MODULES[command]
    assert _loaded_optional_modules(argv, tmp_path / "out") == (0, loaded)


def test_an_empty_class_loads_logging(tmp_path):
    argv = ["uplift", *_CLASS, "--min-outturn", "99999999"]
    assert _loaded_optional_modules(argv, tmp_path / "out") == (3, _RUNS_CLASSES | {"logging"})


def _blas_env(threads):
    """The child environment, with numpy's OpenBLAS thread count set (None
    leaves it unset). OpenBLAS reads it when numpy is imported."""

    return _CHILD_ENV if threads is None else {**_CHILD_ENV, "OPENBLAS_NUM_THREADS": threads}


# The argument lists above, plus a curve fine enough for the large-fit
# loess path.
_BLAS_RUNS = {**{name: argv for name, (argv, _) in _COMMAND_MODULES.items()},
              "curve-fine": ["curve", *_CLASS, "--grid-step", "0.001"]}


@pytest.mark.parametrize("command", sorted(_BLAS_RUNS))
def test_blas_thread_count_changes_no_output_byte(command, tmp_path):
    outputs = []
    for threads in (None, "1", "2"):
        out = tmp_path / f"out-{threads}"
        done = _run_child(["-m", "refclass", *_BLAS_RUNS[command]], out, _blas_env(threads))
        assert done.returncode == 0, done.stderr
        written = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
        outputs.append((done.stdout, written))
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


# Runs tiers through entrypoint, as the console script and python -m do,
# then reports the BLAS setting and, on Linux, the process's thread count.
_ENTRYPOINT_PROBE = """
import json, os, re, sys
from refclass.cli import entrypoint

try:
    entrypoint()
except SystemExit as exc:
    assert exc.code == 0, exc.code
threads = None
if sys.platform.startswith("linux"):
    with open("/proc/self/status") as status:
        threads = int(re.search(r"^Threads:\\s+(\\d+)", status.read(), re.M)[1])
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


@pytest.mark.parametrize("given, used", [(None, "1"), ("3", "3")])
def test_entrypoint_runs_on_one_blas_thread_unless_told(given, used, tmp_path):
    argv = _COMMAND_MODULES["tiers"][0]
    done = _run_child(["-c", _ENTRYPOINT_PROBE, *argv], tmp_path / "out", _blas_env(given))
    assert done.returncode == 0, done.stderr
    blas, threads = json.loads(done.stdout.splitlines()[-1])
    assert blas == used
    if given is None and threads is not None:
        assert threads == 1


# The settings each command reads. Every command also takes the four file
# settings, so one config file serves them all, and an analysis setting it
# does not read is no option of that command.
_FILE_SETTINGS = {"projects", "deflators", "benchmark", "out"}
_ANALYSIS = set(_SETTINGS) - _FILE_SETTINGS
_READS = {
    "check": {"projects", "deflators", "benchmark"},
    "overruns": {"projects", "deflators", "era_cutoff", "out"},
    "validate": {"projects", "deflators", "era_cutoff", "min_outturn", "method", "out"},
    "benchmark": {"projects", "deflators", "benchmark", "era_cutoff", "min_outturn", "out"},
    "uplift": set(_SETTINGS) - {"benchmark"},
    "curve": set(_SETTINGS) - {"benchmark"},
    "tiers": set(_SETTINGS) - {"benchmark"},
}


@pytest.mark.parametrize("command", sorted(_READS))
def test_each_command_takes_only_the_settings_it_reads(command, tmp_path, capsys):
    reads = _READS[command]
    flag = {key: "--" + key.replace("_", "-") for key in _SETTINGS}
    assert set(inspect.signature(cli.commands[command].callback).parameters) & set(_SETTINGS) == reads
    code, help_text, _ = run(capsys, command, "--help")
    assert code == 0
    offered = {key for key in _SETTINGS if re.search(rf"^\s+{flag[key]}\s", help_text, re.M)}
    assert offered == _FILE_SETTINGS | reads

    argv = _COMMAND_MODULES[command][0]
    files = {"projects": SHIPPED_DATA / "projects.csv", "deflators": SHIPPED_DATA / "deflators.csv",
             "benchmark": SHIPPED_DATA / "benchmark.json", "out": tmp_path / "out"}
    file_flags = [text for key, path in files.items() for text in (flag[key], str(path))]
    defaults = {key: str(_SETTINGS[key]["default"]) for key in _ANALYSIS}
    code, stdout, _ = run(capsys, *argv, *file_flags)
    assert code == 0
    for key in sorted(_ANALYSIS - reads):
        code, _, err = run(capsys, *argv, *file_flags, flag[key], defaults[key])
        assert code == 1, key
        assert f"No such option '{flag[key]}'" in err
        # An unread config value is not parsed, even one no setting accepts.
        unread = tmp_path / f"{key}.conf"
        unread.write_text(f"{key} = nan\n")
        assert run(capsys, *argv, *file_flags, "--config", str(unread))[:2] == (0, stdout), key
    if "out" not in reads:
        # An unread file setting is not parsed either: an existing file is no
        # output directory, but a command that writes nothing takes it.
        inputs = [text for key, path in files.items() if key != "out" for text in (flag[key], str(path))]
        out_conf = tmp_path / "out.conf"
        out_conf.write_text(f"out = {files['projects']}\n")
        for given in ([flag["out"], str(files["projects"])], ["--config", str(out_conf)]):
            assert run(capsys, *argv, *inputs, *given)[:2] == (0, stdout), given
    if "method" in reads:
        code, _, err = run(capsys, *argv, *file_flags, "--method", "both")
        assert code == (0 if command == "uplift" else 1), err

    # Every key at its default (the file settings as the flags give them)
    # changes nothing, whether the command reads the key or not.
    config = tmp_path / "defaults.conf"
    config.write_text("".join(f"{key} = {value}\n" for key, value in {**files, **defaults}.items()))
    assert run(capsys, *argv, "--config", str(config))[:2] == (0, stdout)


# Per analysis setting: the registry default it must equal, the names of
# the library parameters that apply it, and the public functions that take
# one of those parameters with a default.
_LIBRARY_DEFAULTS = {
    "era_cutoff": ("DEFAULT_ERA_CUTOFF", {"era_cutoff", "cutoff"}, {
        "normalization.derive_observations", "normalization.derive_all_observations",
        "reference_class.trend_by_date"}),
    "min_outturn": ("DEFAULT_MIN_OUTTURN", {"min_outturn"}, {"reference_class.ClassFilter"}),
    "method": ("DEFAULT_METHOD", {"method"}, {
        "reference_class.uplift", "reference_class.required_certainty", "reference_class.uplift_curve",
        "validation.leave_one_out", "contingency.debias_estimate", "contingency.portfolio_pool"}),
    "span": ("DEFAULT_SPAN", {"span"}, {
        "reference_class.smooth_curve", "reference_class.trend_by_date", "smoothing.loess_smooth"}),
    "degree": ("DEFAULT_DEGREE", {"degree"}, {
        "reference_class.smooth_curve", "reference_class.trend_by_date", "smoothing.loess_smooth"}),
    "grid_step": ("DEFAULT_GRID_STEP", {"step"}, {"reference_class.default_probability_grid"}),
}


@pytest.mark.parametrize("key", sorted(_LIBRARY_DEFAULTS))
def test_cli_and_library_defaults_agree(key):
    assert set(_LIBRARY_DEFAULTS) == _ANALYSIS
    constant, parameter_names, expected = _LIBRARY_DEFAULTS[key]
    default = getattr(import_module("refclass.registry"), constant)
    setting = _SETTINGS[key]
    assert setting["type"].convert(setting["default"], None, None) == default
    applied = set()
    for module_name in ("reference_class", "smoothing", "validation", "contingency", "normalization"):
        module = import_module(f"refclass.{module_name}")
        for name, value in vars(module).items():
            if name.startswith("_") or not callable(value) or value.__module__ != module.__name__:
                continue
            for parameter in inspect.signature(value).parameters.values():
                if parameter.name in parameter_names and parameter.default is not parameter.empty:
                    assert parameter.default == default, (name, parameter.name)
                    applied.add(f"{module_name}.{name}")
    assert applied == expected


def _accepts(check, value) -> bool:
    try:
        check(value)
    except (click.UsageError, ValueError):
        return False
    return True


def _probes(*bounds):
    """Each bound and the next floats either side of it (for an integer
    bound, also the next integers), then 0, a negative value, NaN and both
    infinities."""

    probes = [0, -1, math.nan, math.inf, -math.inf]
    for bound in bounds:
        probes += [bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
        if isinstance(bound, int):
            probes += [bound - 1, bound + 1]
    return probes


def _option_type(key):
    return lambda value: _SETTINGS[key]["type"].convert(value, None, None)


def _loess_on_six_points(span=DEFAULT_SPAN, degree=DEFAULT_DEGREE):
    _loess_sorted(range(6), [0.0, 1.0, 0.0, 2.0, 1.0, 3.0], span, degree)


# Per range: its probes, then the command line's checks and the library's.
# Span and certainty are (0, 1] by definition, so their bounds are written
# here; the degrees and the grid step's range are the registry's.
_RANGES = {
    "span": (_probes(0.0, 1.0), [_option_type("span")], [lambda span: _loess_on_six_points(span=span)]),
    "degree": ([*_probes(min(LOESS_MIN_POINTS), max(LOESS_MIN_POINTS)), True], [_option_type("degree")],
               [lambda degree: _loess_on_six_points(degree=degree)]),
    "grid_step": (_probes(MIN_GRID_STEP, MAX_GRID_STEP), [_option_type("grid_step")], [default_probability_grid]),
    "certainty": (
        _probes(0.0, 1.0),
        [lambda p: _parse_p_list(None, None, p), lambda p: _parse_scheme(None, None, f"tier:{p}")],
        [*(lambda p, method=method: rank_position(5, p, method) for method in QuantileMethod),
         lambda p: TierScheme(tiers=(("tier", p),))],
    ),
}


@pytest.mark.parametrize("key", sorted(_RANGES))
def test_cli_and_library_ranges_agree(key):
    probes, cli_checks, library_checks = _RANGES[key]
    accepted = []
    for probe in probes:
        # The command line reads a flag and a config value alike, as text.
        verdicts = {_accepts(check, str(probe)) for check in cli_checks}
        verdicts |= {_accepts(check, probe) for check in library_checks}
        assert len(verdicts) == 1, (key, probe, verdicts)
        if verdicts == {True}:
            accepted.append(probe)
    assert accepted, key


def test_lazy_exports_resolve_to_their_modules():
    for name in refclass.__all__:
        module = import_module("refclass." + refclass._EXPORTS[name])
        value = getattr(refclass, name)
        assert value is getattr(module, name), name
        if callable(value):
            assert value.__module__ == module.__name__, name  # the defining module
    assert refclass.__all__ == sorted(refclass.__all__)
    assert {*refclass.__all__, "__version__"} <= set(dir(refclass))
    namespace: dict = {}
    exec("from refclass import *", namespace)
    assert all(namespace[name] is getattr(refclass, name) for name in refclass.__all__)
    with pytest.raises(AttributeError):
        refclass.no_such_name


def test_data_errors_exit_2(table2_paths, tmp_path, capsys, monkeypatch):
    code, _, err = run(
        capsys,
        "uplift",
        "--projects",
        str(tmp_path / "missing.csv"),
        "--deflators",
        table2_paths["deflators"],
        "--stage",
        "C",
        "--metric",
        "cost",
    )
    assert code == 2
    assert err.startswith("error:")

    gap = tmp_path / "gap.csv"
    gap.write_text("year,index\n1998,100\n1999,100\n2000,100\n2002,100\n")
    code, _, err = run(
        capsys,
        "uplift",
        "--projects",
        table2_paths["projects"],
        "--deflators",
        str(gap),
        "--stage",
        "C",
        "--metric",
        "cost",
    )
    assert code == 2
    assert "2001" in err

    not_utf8 = tmp_path / "not_utf8.csv"
    not_utf8.write_bytes(b"year,index\n\xff\n")
    deep = tmp_path / ("d" * 200) / ("e" * 200)
    deep.mkdir(parents=True)
    long_path = str(deep / "not_utf8.csv")
    Path(long_path).write_bytes(not_utf8.read_bytes())
    projects, deflators = table2_paths["projects"], table2_paths["deflators"]
    # A short path prints as it is; a long one shows its first 40 characters and its length.
    monkeypatch.chdir(tmp_path)
    for path, shown in [("not_utf8.csv", "not_utf8.csv"),
                        (long_path, f"{long_path[:40]!r}... ({len(long_path)} characters)")]:
        for files in (
            ["--projects", path, "--deflators", deflators],
            ["--projects", projects, "--deflators", path],
            ["--projects", projects, "--deflators", deflators, "--benchmark", path],
        ):
            for command in ("benchmark", "check"):
                code, _, err = run(capsys, command, *files, "--out", str(tmp_path / "out"))
                assert code == 2, (command, files)
                assert err == f"error: {shown} is not UTF-8 text\n"
                assert len(err) < 200

    # A non-finite deflator index, in the base year or any other.
    for year in (1998, 2001):
        inf_index = tmp_path / f"inf_{year}.csv"
        inf_index.write_text(corpus.flat_deflator_csv().replace(f"{year},100.0", f"{year},inf"))
        files = ["--projects", projects, "--deflators", str(inf_index), "--out", str(tmp_path / "out")]
        for command in ("uplift", "curve", "validate", "benchmark", "check"):
            extra = ["--stage", "C", "--metric", "cost"] if command in ("uplift", "curve", "validate") else []
            code, _, err = run(capsys, command, *files, *extra)
            assert code == 2, (command, year)
            assert err == f"error: deflator index for {year} must be a positive finite number, got inf\n"

    # The shipped series with indexes whose ratios no float holds: one
    # underflows to 0, one overflows to inf, or every index is finite but an
    # outturn's conversion overflows, or underflows so far that the overrun
    # rounds to -1 (check reads only the series).
    shipped = [line.split(",") for line in (SHIPPED_DATA / "deflators.csv").read_text().splitlines()]
    too_wide = "deflator index for 1987 over base year 1986 must be a positive finite ratio, got"
    for index, message, check_code in [
        (lambda year: 1e300 if year == 1986 else 1e-300, f"{too_wide} 0.0", 2),
        (lambda year: 1e-300 if year == 1986 else 1e300, f"{too_wide} inf", 2),
        (lambda year: 1e300 if 1989 <= year <= 1993 else 1e-8,
         "project 6801, stage C: the cost overrun overflows to inf (deflator index ratios too large)", 0),
        (lambda year: 1e-300 if 1989 <= year <= 1993 else 1,
         "project 6801, stage C: the cost overrun underflows to -1 (deflator index ratios too small)", 0),
    ]:
        wide = tmp_path / "wide.csv"
        wide.write_text("year,index\n" + "".join(f"{year},{index(int(year))}\n" for year, _ in shipped[1:]))
        files = ["--projects", str(SHIPPED_DATA / "projects.csv"), "--deflators", str(wide),
                 "--out", str(tmp_path / "out")]
        for command in (["uplift", *_CLASS, "--p", "0.5,1.0"], ["overruns", *_CLASS], ["validate", *_CLASS],
                        ["curve", *_CLASS], ["tiers", *_CLASS, "--base", "1000", "--scheme", "a:0.5,b:1.0"],
                        ["benchmark"], ["check"]):
            code, _, err = run(capsys, *command, *files)
            if command == ["check"] and check_code == 0:
                assert (code, err) == (0, ""), message
            else:
                assert (code, err) == (2, f"error: {message}\n"), (command, message)

    # Non-finite benchmark constants, values of the wrong JSON kind, and a
    # range error that names its label once.
    good = json.loads(corpus.BENCHMARK_JSON)["international-roads"]
    for name, value, message in [
        ("n_projects", float("inf"), "n_projects must be an integer, got Infinity"),
        ("n_projects", 863.7, "n_projects must be an integer, got 863.7"),
        ("n_projects", True, "n_projects must be an integer, got true"),
        ("n_projects", 0, "n_projects must be >= 1, got 0"),
        ("cost_overrun_frequency", False, "cost_overrun_frequency must be a number, got false"),
        ("mean_cost_overrun", "0.2", 'mean_cost_overrun must be a number, got "0.2"'),
        ("mean_cost_overrun", float("nan"), "mean_cost_overrun must be finite, got nan"),
        ("mean_schedule_overrun", float("inf"), "mean_schedule_overrun must be finite, got inf"),
        ("cost_overrun_sd", float("nan"), "cost_overrun_sd must be a non-negative finite number, got nan"),
        ("schedule_overrun_sd", float("inf"), "schedule_overrun_sd must be a non-negative finite number, got inf"),
        ("mean_duration_years", float("inf"), "mean_duration_years must be a positive finite number, got inf"),
        ("cost_overrun_frequency", 2.0, "cost_overrun_frequency must lie in [0, 1], got 2.0"),
    ]:
        bad = tmp_path / f"benchmark_{name}_{value}.json"
        bad.write_text(json.dumps({"international-roads": {**good, name: value}}))
        for command in ("benchmark", "check"):
            code, _, err = run(
                capsys, command, "--projects", projects, "--deflators", deflators,
                "--benchmark", str(bad), "--out", str(tmp_path / "out"),
            )
            assert code == 2, (command, name)
            assert err == f"error: benchmark 'international-roads': {message}\n"

    # A money amount too large for a float to hold, in any money column.
    with open(projects, newline="") as handle:
        rows = list(csv.reader(handle))
    for column in ("outturn_nominal", "base_c", "disbursements"):
        j = rows[0].index(column)
        huge = [list(row) for row in rows]
        huge[1][j] = "2001:" + "9" * 400 if column == "disbursements" else "9" * 400
        path = tmp_path / f"huge_{column}.csv"
        with open(path, "w", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(huge)
        for command in (["check"], ["overruns", "--stage", "C", "--metric", "cost"]):
            code, _, err = run(capsys, *command, "--projects", str(path), "--deflators", deflators,
                               "--out", str(tmp_path / "out"))
            assert code == 2, (command, column)
            assert err == (f"error: row 2, column {column!r}: "
                           "money amount exceeds 9007199254740992 in magnitude\n")

    # A long cell that is no amount at all is echoed shortened.
    j = rows[0].index("outturn_nominal")
    garbled = [list(row) for row in rows]
    garbled[1][j] = "9" * 400 + "x"
    path = tmp_path / "garbled.csv"
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(garbled)
    code, _, err = run(capsys, "check", "--projects", str(path))
    assert code == 2
    assert err == ("error: row 2, column 'outturn_nominal': invalid money amount "
                   f"'{'9' * 40}'... (401 characters) (integer HKD thousands expected)\n")

    # A data error echoes a long file name, benchmark label, JSON value of
    # the wrong kind or duplicate project id shortened; short ones in full.
    id_column = rows[0].index("id")
    twice = [rows[0], *([*rows[1][:id_column], "x" * 400, *rows[1][id_column + 1:]] for _ in range(2))]
    duplicates = tmp_path / "duplicates.csv"
    with open(duplicates, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(twice)
    long_label = tmp_path / "long_label.json"
    long_label.write_text(json.dumps({"x" * 400: {**good, "n_projects": 0}}))
    long_value = tmp_path / "long_value.json"
    long_value.write_text(json.dumps({"international-roads": {**good, "n_projects": "y" * 400}}))
    short_value = tmp_path / "short_value.json"
    short_value.write_text(json.dumps({"international-roads": {**good, "n_projects": "y"}}))
    for files, message in [
        (["--projects", "x" * 400], None),
        (["--projects", str(duplicates)], None),
        (["--benchmark", str(long_label)], None),
        (["--benchmark", str(long_value)], None),
        (["--projects", "missing.csv"], "[Errno 2] No such file or directory: 'missing.csv'"),
        (["--benchmark", str(short_value)], "benchmark 'international-roads': n_projects must be an integer, got \"y\""),
    ]:
        code, _, err = run(capsys, "check", "--projects", projects, "--deflators", deflators, *files)
        assert code == 2, files
        assert len(err.splitlines()) == 1 and len(err) < 200, files
        if message is not None:
            assert err == f"error: {message}\n"



def test_empty_class_exits_3(table2_paths, tmp_path, capsys):
    args = base_args(table2_paths, tmp_path / "out")

    code, _, err = run(
        capsys,
        "uplift",
        *args,
        "--stage",
        "C",
        "--metric",
        "cost",
        "--min-outturn",
        "99999999",
    )
    assert code == 3
    assert err.startswith("error:")

    code, _, err = run(capsys, "uplift", *args, "--stage", "B", "--metric", "cost")
    assert code == 3

    code, stdout, err = run(capsys, "benchmark", *args, "--min-outturn", "99999999")
    assert (code, stdout) == (3, "")
    assert err == "error: no reference class has any observations\n"


def test_non_monotone_curve_exits_4(tmp_path, capsys):
    paths = write_wild_corpus(tmp_path)
    args = [
        "tiers",
        *base_args(paths, tmp_path / "out"),
        "--stage",
        "C",
        "--metric",
        "cost",
        "--base",
        "100",
        "--span",
        "0.2",
    ]
    code, _, err = run(capsys, *args, "--no-isotonic")
    assert code == 4
    assert err.startswith("error:")

    code, _, _ = run(capsys, *args)
    assert code == 0


def test_config_file_and_flag_precedence(table2_paths, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(
        "# run settings\n"
        f"projects = {table2_paths['projects']}\n"
        f"deflators = {table2_paths['deflators']}\n"
        "min_outturn = 99999999\n"
        f"out = {tmp_path / 'out'}\n"
    )
    code, _, _ = run(
        capsys, "uplift", "--config", str(config), "--stage", "C", "--metric", "cost"
    )
    assert code == 3

    code, stdout, _ = run(
        capsys,
        "uplift",
        "--config",
        str(config),
        "--stage",
        "C",
        "--metric",
        "cost",
        "--min-outturn",
        "1",
    )
    assert code == 0
    assert "0.50,0.160000" in stdout


def test_era_cutoff_changes_pre_era_flags(demo_paths, tmp_path, capsys):
    args = [
        "overruns",
        *base_args(demo_paths, tmp_path / "out"),
        "--stage",
        "C",
        "--metric",
        "cost",
    ]
    code, stdout, _ = run(capsys, *args)
    assert code == 0
    flagged = [line.split(",")[0] for line in stdout.splitlines()[1:] if ",yes," in line]
    assert flagged == ["6801", "6806", "6815"]

    code, stdout, _ = run(capsys, *args, "--era-cutoff", "1985-01-01")
    assert code == 0
    assert all(",yes," not in line for line in stdout.splitlines()[1:])


def test_out_directory_created_on_demand(table2_paths, tmp_path, capsys):
    nested = tmp_path / "deep" / "nested" / "out"
    code, _, _ = run(
        capsys,
        "overruns",
        *base_args(table2_paths, nested),
        "--stage",
        "C",
        "--metric",
        "cost",
    )
    assert code == 0
    assert (nested / "overruns_C_cost.csv").exists()


def test_console_help_runs(capsys):
    code, stdout, _ = run(capsys, "--help")
    assert code == 0
    for name in ("overruns", "uplift", "validate", "benchmark", "curve", "tiers", "check"):
        assert name in stdout


SHIPPED_DATA = Path(__file__).resolve().parent.parent / "data"

# Exit code, sha256 of stdout and sha256 of every file written under --out,
# per command, on the registry shipped in data/. These bytes are the
# byte-stable output contract; a change to any of them is a behaviour change.
SHIPPED_GOLDEN = {
    "check": (
        ["check"],
        "4d4d1dc5d3d3d7e010a3aefea226247f4d1f47a1447793e4c9f261a183a7174c",
        {},
    ),
    "overruns": (
        ["overruns", "--stage", "C", "--metric", "cost"],
        "d896e4113b7c6b464e7f72b5cd993122c96e7f5eace8dfe3f566d0b9cccedacc",
        {"overruns_C_cost.csv": "d896e4113b7c6b464e7f72b5cd993122c96e7f5eace8dfe3f566d0b9cccedacc"},
    ),
    "uplift": (
        ["uplift", "--stage", "C", "--metric", "cost", "--method", "both", "--smooth"],
        "3c0c69100ea7e77755f41bef5a77bdd7cb0fdae6fc594bd17f57c547871be32b",
        {"uplift_C_cost.csv": "3c0c69100ea7e77755f41bef5a77bdd7cb0fdae6fc594bd17f57c547871be32b"},
    ),
    "validate": (
        ["validate", "--stage", "C", "--metric", "cost"],
        "a5680785a0137bd30c231cd0870f56ff80ccc0c5b4a086ec707b6ca5fbe0092b",
        {"loov_C_cost.csv": "55f88099f9e7e1e25eb93ef8cae8ee570871652b4f31c1b9668bd2c98897ada2"},
    ),
    "benchmark": (
        ["benchmark", "--benchmark", str(SHIPPED_DATA / "benchmark.json")],
        "b58c664c1e5c4f8e091e553ef15c03ba057357f8e5933561cf97995de387a9d5",
        {
            "benchmark.csv": "b58c664c1e5c4f8e091e553ef15c03ba057357f8e5933561cf97995de387a9d5",
            "benchmark.json": "fdc1a4bebd4b865368ca1a4352c576a68edabe55f227028d63e0ebadd6b33aa5",
        },
    ),
    "curve": (
        ["curve", "--stage", "C", "--metric", "cost"],
        "5395cd70eea0be6774332f0e94c9f3aa041cf3fd3e98f1d30e5d5c37efeb4090",
        {
            "curve_C_cost.csv": "5395cd70eea0be6774332f0e94c9f3aa041cf3fd3e98f1d30e5d5c37efeb4090",
            "curve_C_cost.svg": "b571602e6a7b70605214eb367fb9d2b4ac965f4cb2094ed44d07fc050977e7d6",
        },
    ),
    "tiers": (
        ["tiers", "--stage", "C", "--metric", "cost", "--base", "100000"],
        "333e65b608fea2ca737f5638d94b35f9d46fe4c3dd762afa276b3f2e7f422353",
        {"tiers_C_cost.json": "333e65b608fea2ca737f5638d94b35f9d46fe4c3dd762afa276b3f2e7f422353"},
    ),
}


@pytest.mark.parametrize("command", sorted(SHIPPED_GOLDEN))
def test_shipped_data_outputs_are_byte_stable(command, tmp_path, capsys):
    argv, stdout_digest, file_digests = SHIPPED_GOLDEN[command]
    out = tmp_path / "out"
    code, stdout, _ = run(
        capsys,
        *argv,
        "--projects",
        str(SHIPPED_DATA / "projects.csv"),
        "--deflators",
        str(SHIPPED_DATA / "deflators.csv"),
        "--out",
        str(out),
    )
    assert code == 0
    assert sha256(stdout.encode()).hexdigest() == stdout_digest
    written = sorted(out.iterdir()) if out.exists() else []
    assert {p.name: sha256(p.read_bytes()).hexdigest() for p in written} == file_digests


@pytest.mark.parametrize("command", ["overruns", "uplift", "benchmark"])
def test_a_deflator_gap_names_the_project_and_stage(command, tmp_path, capsys):
    cut = tmp_path / "deflators.csv"  # the shipped series up to 1994
    cut.write_text("".join((SHIPPED_DATA / "deflators.csv").read_text().splitlines(keepends=True)[:10]))
    code, stdout, err = run(
        capsys, command, *([] if command == "benchmark" else _CLASS),
        "--projects", str(SHIPPED_DATA / "projects.csv"), "--deflators", str(cut), "--out", str(tmp_path / "out"),
    )
    assert (code, stdout) == (2, "")
    assert err == "error: project 6801, stage C: year 1997 outside deflator coverage 1986-1994\n"


def test_a_one_member_class_leaves_its_sd_cell_blank(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run(
        capsys, "benchmark", "--min-outturn", "800000", "--projects", str(SHIPPED_DATA / "projects.csv"),
        "--deflators", str(SHIPPED_DATA / "deflators.csv"), "--out", str(out),
    )
    assert code == 0
    cells = {row[0]: row[2:5] for row in csv.reader(io.StringIO(stdout))}
    assert cells["average_cost_overrun"] == ["0.1031", "0.1161", "0.1506"]
    assert cells["sd_of_cost_overrun"] == cells["sd_of_schedule_overrun"] == ["", "", ""]
    payload = json.loads((out / "benchmark.json").read_text())
    assert [(row["n"], row["sd"], row["sd_defined"]) for row in payload["rows"]] == [(1, 0.0, False)] * 6


_hostile = st.one_of(st.sampled_from(corpus.HOSTILE_VALUES), st.text(max_size=6))
# JSON tokens for one benchmark constant.
_HOSTILE_JSON = ["null", "true", "false", '"0.2"', "-1", "0", "1e999", "-1e999", "NaN",
                 "Infinity", "1.5", "863.5", "[]", "{}", "1e-400", "99999999999999999999999",
                 "1e300", "9" * 5000, "[" * 5000 + "]" * 5000]
# --out takes only names inside the example's own directory, so no run
# writes anywhere else.
_HOSTILE_OUT = ["", " ", "projects.csv", "projects.csv/sub", "\x00", "é", "a" * 300]


def _shipped_rows(name):
    with open(SHIPPED_DATA / name, newline="") as handle:
        return list(csv.reader(handle))


def _cells(name, max_size):
    """Cells of a shipped CSV file (header row included) and their new values."""

    rows = _shipped_rows(name)
    cell = st.tuples(st.integers(0, len(rows) - 1), st.integers(0, len(rows[0]) - 1), _hostile)
    return st.tuples(st.just(name), st.lists(cell, min_size=1, max_size=max_size))


_BENCHMARK_FIELDS = sorted(json.loads((SHIPPED_DATA / "benchmark.json").read_text())["international-roads"])
# One or two cells of the registry, one deflator cell, one benchmark
# constant, or one config-file setting.
_corruptions = st.one_of(
    _cells("projects.csv", 2),
    _cells("deflators.csv", 1),
    st.tuples(st.just("benchmark.json"),
              st.tuples(st.sampled_from(_BENCHMARK_FIELDS), st.sampled_from(_HOSTILE_JSON))),
    st.tuples(st.just("config"),
              st.one_of(st.tuples(st.sampled_from(sorted(set(_SETTINGS) - {"out"})), _hostile),
                        st.tuples(st.just("out"), st.sampled_from(_HOSTILE_OUT)))),
)


def _write_corrupted(directory: Path, target: str, change) -> None:
    for name in ("projects.csv", "deflators.csv", "benchmark.json"):
        shutil.copy(SHIPPED_DATA / name, directory / name)
    config = {"projects": "projects.csv", "deflators": "deflators.csv",
              "benchmark": "benchmark.json", "out": "out"}
    if target.endswith(".csv"):
        rows = _shipped_rows(target)
        for row, column, value in change:
            rows[row][column] = value
        with open(directory / target, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
    elif target == "benchmark.json":
        field, token = change
        text = (SHIPPED_DATA / target).read_text()
        (directory / target).write_text(re.sub(rf'("{field}": )[^,\n]+', rf"\g<1>{token}", text))
    else:
        key, value = change
        config[key] = value
    (directory / "run.conf").write_text(
        "".join(f"{key} = {value}\n" for key, value in config.items()), encoding="utf-8"
    )


@settings(derandomize=True, max_examples=50)
@given(corruption=_corruptions)
def test_corrupted_inputs_never_end_in_a_traceback(corruption):
    with tempfile.TemporaryDirectory() as directory:
        _write_corrupted(Path(directory), *corruption)
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            for argv, _ in _COMMAND_MODULES.values():
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main([*argv, "--config", "run.conf"])
                out, err = stdout.getvalue(), stderr.getvalue()
                assert code in {0, 1, 2, 3, 4}, (argv, code, err)
                assert "Traceback" not in out + err, argv
                if argv == ["check"] and code == 2 and not err:
                    # check lists violations on stdout, then their count.
                    assert re.fullmatch(r"\d+ violation\(s\) in \d+ record\(s\)", out.splitlines()[-1])
                elif code in {2, 3, 4}:
                    assert len(err.splitlines()) == 1 and err.startswith("error:"), (argv, err)
        finally:
            os.chdir(cwd)



# Inputs past a limit of the csv or json module or of the money range, each
# with the commands that refuse it; the other commands do not read it. The
# 1e300 series passes check: every index is finite and so is every ratio to
# the base year, but an outturn spent after 1996 converts to 1e300 times
# itself at the price level of an estimate from 1996 or before.
_OVER_LIMIT_INPUTS = {
    "projects-long-cell": (("projects.csv", [(1, 1, "9" * 131_073)]), set(_COMMAND_MODULES)),
    "deflators-long-cell": (("deflators.csv", [(1, 1, "9" * 131_073)]), set(_COMMAND_MODULES)),
    "benchmark-deep-array": (("benchmark.json", ("n_projects", "[" * 100_000 + "]" * 100_000)),
                             {"check", "benchmark"}),
    "benchmark-long-integer": (("benchmark.json", ("n_projects", "9" * 5000)), {"check", "benchmark"}),
    "deflators-1e300": (("deflators.csv", [(row, 1, "1e300" if int(year) <= 1996 else "1")
                                           for row, (year, _) in enumerate(_shipped_rows("deflators.csv")[1:], 1)]),
                        set(_COMMAND_MODULES) - {"check"}),
}


@pytest.mark.parametrize("name", sorted(_OVER_LIMIT_INPUTS))
def test_inputs_past_a_limit_exit_2_with_one_line(name, tmp_path, capsys, monkeypatch):
    corruption, refused = _OVER_LIMIT_INPUTS[name]
    _write_corrupted(tmp_path, *corruption)
    monkeypatch.chdir(tmp_path)
    for command, (argv, _) in sorted(_COMMAND_MODULES.items()):
        code, out, err = run(capsys, *argv, "--config", "run.conf")
        assert "Traceback" not in out + err, command
        if command in refused:
            assert (code, len(err.splitlines())) == (2, 1), (command, code, err)
            assert err.startswith("error: "), command
        else:
            assert (code, err) == (0, ""), command
