"""The four benchmark workloads: inputs, one operation, and output oracles.

Every workload is a closed loop with one client and one operation in
flight. An operation calls refclass only through its public functions or,
for ``cli-small``, through ``python -m refclass`` in a child process. Each
call into a layer is wrapped in a span named ``<layer>.<step>``; the span
names are the per-layer metric names without their unit suffix.

Oracles: every operation must reproduce the first warm-up's output digest
byte for byte, and the last timed operation (a traced round, when tracing)
is checked in full against independent computations (numpy quantiles, a
brute-force leave-one-out re-sort, a strict re-parse of the written
registry, the CLI's in-process output).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from refclass import (
    DEFAULT_TIER_SCHEME,
    ClassFilter,
    Metric,
    QuantileMethod,
    ReferenceClass,
    Stage,
    benchmark_report,
    build_class,
    default_probability_grid,
    derive_all_observations,
    isotonic_adjust,
    leave_one_out,
    loov_summary,
    parse_benchmark_constants,
    parse_deflator_series,
    parse_project_records,
    parse_project_records_lenient,
    phase_breakdown,
    portfolio_pool,
    required_certainty,
    smooth_curve,
    tier_allocation,
    trend_by_date,
    uplift_curve,
    write_project_records,
)
from refclass.benchmarking import write_benchmark_csv
from refclass.cli import main as cli_main
from refclass.plot import curve_svg

import inputs
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent

GRID = default_probability_grid()
P_LEVELS = (0.5, 0.8)
INTERP = QuantileMethod.INTERPOLATED
INF = QuantileMethod.INF
# Quantile evaluations one required_certainty call makes (its 0.01 grid).
CERTAINTY_GRID_POINTS = 100
# numpy's inverted_cdf takes ceil(n * p), which rounds up where n * p lands
# a hair above a whole number (340 * 0.55 == 187.00000000000003); refclass
# compares k / n >= p and is exact there. The oracle therefore asks numpy
# for the quantile just below p. On a 0.01 grid n * p is otherwise at least
# 0.01 away from a whole number, so the nudge changes no other answer.
INF_NUDGE = 1e-9
# numpy's linear method interpolates from the upper neighbour when the
# fraction is at least one half, so the two can differ in the last bits.
LINEAR_REL_TOL = 1e-12
LOO_SAMPLES = 24


@dataclass(frozen=True)
class Workload:
    name: str
    items: str  # what items_per_s counts
    prepare: Callable  # (seed, workdir, tiny) -> state
    op: Callable  # (state, tracer) -> outputs
    digest: Callable  # (state, outputs) -> str, cheap, run on every operation
    verify: Callable  # (state, outputs) -> list of problems; warm-up and traced rounds
    items_per_op: Callable  # (state) -> int
    probe: Callable | None = None  # (state, tracer) -> None, traced runs only
    child_rusage: bool = False  # peak memory is that of child processes


def _sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _oracle_quantiles(sorted_values, ps, method: QuantileMethod) -> list[float]:
    values = np.asarray(sorted_values, dtype=float)
    if method is INF:
        return [float(q) for q in np.quantile(values, np.asarray(ps) - INF_NUDGE, method="inverted_cdf")]
    return [float(q) for q in np.quantile(values, ps, method="linear")]


def _same(got: float, want: float, method: QuantileMethod) -> bool:
    if method is INF:
        return got == want
    return math.isclose(got, want, rel_tol=LINEAR_REL_TOL, abs_tol=LINEAR_REL_TOL)


def _curve_problems(label: str, reference: ReferenceClass, curve) -> list[str]:
    ps = [p for p, _ in curve.points]
    want = _oracle_quantiles(reference.values, ps, curve.method)
    bad = [p for (p, got), w in zip(curve.points, want) if not _same(got, w, curve.method)]
    return [f"{label}: {curve.method} uplift differs from numpy at p={bad[0]}"] if bad else []


def _certainty_problems(label, reference, target, certainty, method) -> list[str]:
    ps = [i / 100 for i in range(1, CERTAINTY_GRID_POINTS + 1)]
    quantiles = _oracle_quantiles(reference.values, ps, method)
    want = max((p for p, q in zip(ps, quantiles) if q <= target + 1e-9), default=0.0)
    return [] if certainty == want else [f"{label}: required_certainty {certainty} != {want}"]


def _loo_problems(label, reference, rows, method, rng) -> list[str]:
    entries = reference.entries
    if len(rows) != len(entries):
        return [f"{label}: {len(rows)} LOO rows for {len(entries)} members"]
    values = [o.value for o in entries]
    for i in sorted(rng.sample(range(len(entries)), min(LOO_SAMPLES, len(entries)))):
        rest = sorted(values[:i] + values[i + 1:])
        row = rows[i]
        want = dict(zip(P_LEVELS, _oracle_quantiles(rest, P_LEVELS, method)))
        if row.project_id != entries[i].project_id or row.actual != values[i]:
            return [f"{label}: LOO row {i} is not member {entries[i].project_id}"]
        for p in P_LEVELS:
            if not _same(row.uplift_at[p], want[p], method):
                return [f"{label}: LOO uplift of member {i} at p={p} differs from a re-sort"]
            if row.prevented_at[p] != (values[i] <= row.uplift_at[p]):
                return [f"{label}: LOO prevented flag of member {i} at p={p} is wrong"]
    return []


def _smoothed_problems(label, curve) -> list[str]:
    fits = [fit for _, fit, _, _ in curve.smoothed]
    if any(b < a for a, b in zip(fits, fits[1:])):
        return [f"{label}: isotonic fit is not monotone"]
    if any(not lo <= fit <= hi for _, fit, lo, hi in curve.smoothed):
        return [f"{label}: smoothed fit leaves its band"]
    return []


def _report_problems(label, report, classes) -> list[str]:
    problems = []
    for row in report.rows:
        values = classes[(row.stage, row.metric)].values
        n = len(values)
        if row.stats.n != n or not math.isclose(row.stats.mean, math.fsum(values) / n, rel_tol=1e-12):
            problems.append(f"{label}: {row.stage}/{row.metric} summary does not match the class")
        if row.stats.overrun_frequency != sum(1 for v in values if v > 0) / n:
            problems.append(f"{label}: {row.stage}/{row.metric} overrun frequency is wrong")
    return problems


# --------------------------------------------------------------------------
# registry-bulk: one full pass over a 10k-project registry through the linear
# layers. The registry is both read and written; no quadratic layer runs.


@dataclass
class BulkState:
    projects: Path
    written: Path
    expected_csv: str
    deflators: object
    constants: object
    properties: dict
    base: int


def _bulk_prepare(seed: int, workdir: Path, tiny: bool) -> BulkState:
    generated = inputs.registry(300 if tiny else 10_000, seed)
    projects = _write(workdir / "projects.csv", generated.projects_csv)
    deflators = _write(workdir / "deflators.csv", generated.deflators_csv)
    benchmark = _write(workdir / "benchmark.json", inputs.BENCHMARK_JSON)
    with open(deflators, newline="") as handle:
        series = parse_deflator_series(handle)
    with open(benchmark) as handle:
        constants = parse_benchmark_constants(handle)["international-roads"]
    return BulkState(
        projects, workdir / "written.csv", generated.projects_csv, series, constants,
        generated.properties, inputs.base_estimates(seed, 1)[0],
    )


@dataclass
class ClassOutputs:
    reference: ReferenceClass
    interp: object
    inf: object
    target: float
    certainty: float
    smoothed: object
    allocation: object
    svg: str


def _bulk_op(st: BulkState, tr: Tracer):
    with tr.span("registry.parse"):
        with open(st.projects, newline="") as handle:
            records = parse_project_records(handle)
    with tr.span("registry.parse_lenient"):
        with open(st.projects, newline="") as handle:
            lenient, reports = parse_project_records_lenient(handle)
    with tr.span("registry.write"):
        with open(st.written, "w", newline="") as handle:
            write_project_records(records, handle)
    with tr.span("normalization.derive"):
        observations = derive_all_observations(records, st.deflators)
    classes = {}
    for stage in Stage:
        for metric in Metric:
            with tr.span("reference_class.build"):
                classes[(stage, metric)] = build_class(observations, ClassFilter(stage, metric))
    per_class = {}
    for (stage, metric), reference in classes.items():
        with tr.span("reference_class.curve"):
            interp = uplift_curve(reference, GRID, INTERP)
        with tr.span("reference_class.curve"):
            inf = uplift_curve(reference, GRID, INF)
        target = interp.value_at(0.8)
        with tr.span("reference_class.required_certainty"):
            certainty = required_certainty(reference, target, INTERP)
        with tr.span("smoothing.curve_smooth"):
            smoothed = isotonic_adjust(smooth_curve(interp))
        with tr.span("contingency.tiers"):
            allocation = tier_allocation(st.base, smoothed, DEFAULT_TIER_SCHEME)
        with tr.span("plot.svg"):
            svg = curve_svg(smoothed, markers=(0.5, 0.8), title=f"uplift curve: Category {stage}, {metric}")
        per_class[(stage, metric)] = ClassOutputs(
            reference, interp, inf, target, certainty, smoothed, allocation, svg
        )
    with tr.span("benchmarking.phase"):
        phases, aggregate = phase_breakdown(records)
    with tr.span("benchmarking.report"):
        report = benchmark_report(
            classes, constants=st.constants, durations_years=[row.total_years for row in phases]
        )
    tr.count("registry.rows", len(records))
    tr.count("registry.bytes", len(st.expected_csv))
    tr.count("normalization.observations", len(observations))
    tr.count("normalization.profile_spread_projects", sum(1 for r in records if r.disbursements is None))
    tr.count("reference_class.uplift_calls", len(classes) * (2 * len(GRID) + CERTAINTY_GRID_POINTS))
    tr.count("reference_class.class_n", statistics.median(c.n for c in classes.values()))
    return records, lenient, reports, observations, per_class, phases, aggregate, report


def _report_csv(report) -> str:
    sink = io.StringIO()
    write_benchmark_csv(report, sink)
    return sink.getvalue()


def _bulk_digest(st: BulkState, out) -> str:
    records, lenient, reports, observations, per_class, phases, aggregate, report = out
    return _sha(
        st.written.read_bytes(),
        [o.value for o in observations],
        [
            (c.interp.points, c.inf.points, c.certainty, c.smoothed.smoothed, c.allocation, c.svg)
            for c in per_class.values()
        ],
        aggregate,
        _report_csv(report),
    )


def _bulk_verify(st: BulkState, out) -> list[str]:
    records, lenient, reports, observations, per_class, phases, aggregate, report = out
    props = st.properties
    problems = []
    if len(records) != props["projects"] or lenient != records:
        problems.append("registry: strict and lenient parses disagree")
    if any(reports.values()):
        problems.append("registry: lenient parse reports violations in a valid registry")
    with open(st.written, newline="") as handle:
        if parse_project_records(handle) != records:
            problems.append("registry: strict parse of the written registry differs")
    if st.written.read_text() != st.expected_csv:
        problems.append("registry: write-back does not reproduce the input bytes")
    # Every stage of every project gives a cost and a schedule observation,
    # except the one its blank field group removes.
    want = 6 * props["projects"] - sum(props[inputs.blank_shape_name(s)] for s in inputs.BLANK_SHAPES)
    if len(observations) != want:
        problems.append(f"normalization: {len(observations)} observations, expected {want}")
    for (stage, metric), c in per_class.items():
        label = f"class {stage}/{metric}"
        problems += _curve_problems(label, c.reference, c.interp)
        problems += _curve_problems(label, c.reference, c.inf)
        problems += _certainty_problems(label, c.reference, c.target, c.certainty, INTERP)
        problems += _smoothed_problems(label, c.smoothed)
        tranches = sum(t.tranche_amount for t in c.allocation.tranches)
        if tranches != c.allocation.total_funded - st.base:
            problems.append(f"{label}: tranches do not sum to the contingency")
        if not (c.svg.startswith("<svg") and c.svg.endswith("</svg>\n")):
            problems.append(f"{label}: SVG is not one complete document")
    if aggregate.n + len(aggregate.skipped) != len(records) or aggregate.n != len(phases):
        problems.append("benchmarking: phase breakdown loses projects")
    problems += _report_problems("benchmarking", report, {k: c.reference for k, c in per_class.items()})
    return problems


# --------------------------------------------------------------------------
# class-large: the superlinear layers on one ~1.9k class: leave-one-out
# re-sorts the class once per member, the date trend fills a dense n x n hat
# matrix, and the tested report runs the exact tests. Set-up derives the class.


@dataclass
class LargeState:
    cost_class: ReferenceClass
    tested_classes: dict
    raw: dict
    constants: object
    properties: dict


def _large_prepare(seed: int, workdir: Path, tiny: bool) -> LargeState:
    generated = inputs.registry(200 if tiny else 2_000, seed)
    projects = _write(workdir / "projects.csv", generated.projects_csv)
    deflators = _write(workdir / "deflators.csv", generated.deflators_csv)
    with open(projects, newline="") as handle:
        records = parse_project_records(handle)
    with open(deflators, newline="") as handle:
        series = parse_deflator_series(handle)
    observations = derive_all_observations(records, series)
    # Pre-era projects stay in, so the trend crosses the era cutoff.
    tested = {
        (Stage.C, metric): build_class(observations, ClassFilter(Stage.C, metric, exclude_pre_era=False))
        for metric in Metric
    }
    raw = inputs.raw_benchmark_sample(seed)
    cost_class = tested[(Stage.C, Metric.COST)]
    properties = dict(
        generated.properties,
        class_n=cost_class.n,
        class_pre_era=sum(1 for o in cost_class.entries if o.pre_era),
    )
    return LargeState(
        cost_class,
        tested,
        {Metric.COST: raw["cost"], Metric.SCHEDULE: raw["schedule"]},
        parse_benchmark_constants(inputs.BENCHMARK_JSON)["international-roads"],
        properties,
    )


def _large_op(st: LargeState, tr: Tracer):
    with tr.span("validation.loo"):
        rows = leave_one_out(st.cost_class, P_LEVELS, INTERP)
    with tr.span("smoothing.trend"):
        trend, shift = trend_by_date(st.cost_class.entries)
    with tr.span("benchmarking.tested_report"):
        report = benchmark_report(st.tested_classes, constants=st.constants, raw_benchmark=st.raw)
    tr.count("validation.loo_rows", len(rows))
    tr.count("reference_class.class_n", st.cost_class.n)
    return rows, trend, shift, report


def _large_digest(st: LargeState, out) -> str:
    rows, trend, shift, report = out
    return _sha(
        [(r.project_id, r.uplift_at, r.prevented_at) for r in rows],
        [(t.fit, t.ci_low, t.ci_high) for t in trend],
        shift,
        _report_csv(report),
    )


def _u_statistic(a, b) -> float:
    ordered = np.sort(np.asarray(b, dtype=float))
    a = np.asarray(a, dtype=float)
    below = np.searchsorted(ordered, a, side="left")
    at_or_below = np.searchsorted(ordered, a, side="right")
    return float(np.sum(below) + 0.5 * np.sum(at_or_below - below))


def _large_verify(st: LargeState, out) -> list[str]:
    rows, trend, shift, report = out
    reference = st.cost_class
    problems = _loo_problems("class C/cost", reference, rows, INTERP, random.Random(len(rows)))
    cutoff = inputs.ERA_CUTOFF
    before = [o.value for o in reference.entries if o.reference_date < cutoff]
    after = [o.value for o in reference.entries if o.reference_date >= cutoff]
    if len(trend) != reference.n:
        problems.append("smoothing: trend has the wrong number of points")
    if (shift.n_before, shift.n_after) != (len(before), len(after)) or not before or shift.test is None:
        problems.append("smoothing: the trend's before/after split is wrong or untested")
    elif not math.isclose(shift.mean_before, math.fsum(before) / len(before), rel_tol=1e-12):
        problems.append("smoothing: mean before the cutoff is wrong")
    problems += _report_problems("benchmarking", report, st.tested_classes)
    for row in report.rows:
        sample = st.raw[row.metric]
        values = st.tested_classes[(row.stage, row.metric)].values
        mean, freq = row.mean_test, row.frequency_test
        if mean is None or freq is None:
            problems.append(f"benchmarking: {row.stage}/{row.metric} ran no test")
        elif not math.isclose(mean.statistic, _u_statistic(values, sample), rel_tol=1e-12):
            problems.append(f"benchmarking: {row.stage}/{row.metric} U statistic is wrong")
        elif not (0.0 <= mean.p_value <= 1.0 and 0.0 <= freq.p_value <= 1.0):
            problems.append(f"benchmarking: {row.stage}/{row.metric} p-value outside [0, 1]")
    return problems


# --------------------------------------------------------------------------
# class-many-small: the same calls as class-large on 200 classes of 18 (the
# published class size) to 300 values, where per-call overhead dominates: a
# path that wins at n = 2000 but loses at n = 18 shows here. It also times the
# inf method, whose leave-one-out is too slow to run at class-large's size.


@dataclass
class SmallState:
    classes: list[list[float]]
    bases: list[int]
    properties: dict


def _method_for(k: int) -> QuantileMethod:
    return INF if k % 2 == 0 else INTERP


def _small_prepare(seed: int, workdir: Path, tiny: bool) -> SmallState:
    # 18 is the published class size.
    count, largest = (10, 60) if tiny else (200, 300)
    classes = inputs.small_classes(seed, count, 18, largest)
    sizes = [len(values) for values in classes]
    properties = {"classes": count, "smallest": min(sizes), "largest": max(sizes), "values": sum(sizes)}
    return SmallState(classes, inputs.base_estimates(seed, 5), properties)


def _small_op(st: SmallState, tr: Tracer):
    results = []
    for k, values in enumerate(st.classes):
        method = _method_for(k)
        with tr.span("reference_class.build"):
            reference = ReferenceClass.from_values(values)
        with tr.span("validation.loo"):
            rows = leave_one_out(reference, P_LEVELS, method)
        with tr.span("validation.loov_summary"):
            summaries = [loov_summary(rows, p) for p in P_LEVELS]
        with tr.span("reference_class.curve"):
            curve = uplift_curve(reference, GRID, method)
        target = curve.value_at(0.8)
        with tr.span("reference_class.required_certainty"):
            certainty = required_certainty(reference, target, method)
        with tr.span("contingency.pool"):
            pool = portfolio_pool(st.bases, reference, 0.6, 0.8, method)
        results.append((reference, rows, summaries, curve, target, certainty, pool))
    tr.count("validation.loo_rows", sum(len(r[1]) for r in results))
    tr.count("reference_class.uplift_calls", len(results) * (len(GRID) + CERTAINTY_GRID_POINTS))
    tr.count("reference_class.class_n", statistics.median(len(v) for v in st.classes))
    return results


def _small_digest(st: SmallState, out) -> str:
    return _sha([
        ([(r.uplift_at, r.prevented_at) for r in rows], summaries, curve.points, certainty, pool)
        for _, rows, summaries, curve, _, certainty, pool in out
    ])


def _small_verify(st: SmallState, out) -> list[str]:
    problems = []
    rng = random.Random(len(out))
    for k, (reference, rows, summaries, curve, target, certainty, pool) in enumerate(out):
        label = f"class {k} (n={reference.n}, {curve.method})"
        problems += _loo_problems(label, reference, rows, curve.method, rng)
        for summary in summaries:
            if summary.hits != sum(1 for r in rows if r.prevented_at[summary.p_level]):
                problems.append(f"{label}: LOO summary miscounts hits")
        problems += _curve_problems(label, reference, curve)
        problems += _certainty_problems(label, reference, target, certainty, curve.method)
        if pool.pooled_reserve < 0 or len(pool.per_project_funded) != len(st.bases):
            problems.append(f"{label}: portfolio pool is inconsistent")
    return problems


# --------------------------------------------------------------------------
# cli-small: what an analyst at a terminal waits for: each command is a fresh
# interpreter on a 30-project registry, so start-up dominates. One operation
# runs all seven commands: on a shared two-core host the median of single
# commands moved by 30% between runs, the median of whole rounds by 8%.

COMMANDS = (
    ("check", ["check"], None),
    ("overruns", ["overruns", "--stage", "C", "--metric", "cost"], "overruns_C_cost.csv"),
    ("uplift", ["uplift", "--stage", "C", "--metric", "cost", "--smooth"], "uplift_C_cost.csv"),
    ("validate", ["validate", "--stage", "C", "--metric", "cost"], "loov_C_cost.csv"),
    ("benchmark", ["benchmark"], "benchmark.csv"),
    ("curve", ["curve", "--stage", "C", "--metric", "cost"], "curve_C_cost.csv"),
    ("tiers", ["tiers", "--stage", "C", "--metric", "cost", "--base", "500000"], "tiers_C_cost.json"),
)
CLI_PROBE_REPEATS = 3
CHILD_TIMEOUT_S = 60


def child_env() -> dict[str, str]:
    """The pinned environment of every child interpreter. refclass is run
    from the source tree, so PYTHONPATH names it; the bytecode-cache setting
    of the parent is passed through explicitly, since it changes start-up."""

    env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": "src", "LC_ALL": "C.UTF-8"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


@dataclass
class CliState:
    files: list[str]
    out: Path
    inproc_out: Path
    env: dict
    properties: dict


def _cli_prepare(seed: int, workdir: Path, tiny: bool) -> CliState:
    generated = inputs.registry(30, seed)
    projects = _write(workdir / "projects.csv", generated.projects_csv)
    deflators = _write(workdir / "deflators.csv", generated.deflators_csv)
    benchmark = _write(workdir / "benchmark.json", inputs.BENCHMARK_JSON)
    files = ["--projects", str(projects), "--deflators", str(deflators), "--benchmark", str(benchmark)]
    return CliState(files, workdir / "out", workdir / "out-inproc", child_env(), generated.properties)


def _argv(st: CliState, k: int, out: Path) -> list[str]:
    return COMMANDS[k][1] + st.files + ["--out", str(out)]


def _run_child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S
    )


def _cli_op(st: CliState, tr: Tracer):
    # Each operation starts without --out files, so a command that stops
    # writing its file fails instead of passing on an older one.
    shutil.rmtree(st.out, ignore_errors=True)
    results = []
    for k, (name, _, filename) in enumerate(COMMANDS):
        with tr.span(f"cli.{name}"):
            done = _run_child(["-m", "refclass", *_argv(st, k, st.out)], st.env)
        written = None if filename is None else (st.out / filename).read_text()
        results.append((done.returncode, done.stdout.decode(), done.stderr.decode(), written))
    return results


def _cli_digest(st: CliState, out) -> str:
    return _sha([(code, stdout, written) for code, stdout, _, written in out])


def _inproc(st: CliState, k: int) -> tuple[int, str]:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(_argv(st, k, st.inproc_out))
    return code, captured.getvalue()


def _cli_verify(st: CliState, out) -> list[str]:
    problems = []
    for k, (code, stdout, stderr, written) in enumerate(out):
        name = COMMANDS[k][0]
        if code != 0:
            problems.append(f"cli {name}: exit code {code}: {stderr.strip()[-200:]}")
            continue
        if written is not None:
            # validate appends '# pNN: ...' summary lines after the CSV it writes.
            tail = stdout[len(written):] if stdout.startswith(written) else None
            if tail is None or any(not line.startswith("# p") for line in tail.splitlines()):
                problems.append(f"cli {name}: stdout differs from the file written under --out")
        if _inproc(st, k) != (0, stdout):
            problems.append(f"cli {name}: stdout differs from the in-process main(argv) output")
    return problems


def _cli_probe(st: CliState, tr: Tracer) -> None:
    """Start-up cost apart from the work: a bare interpreter, the import of
    refclass.cli, and each command run in-process after the import."""

    op = tr.op
    for repeat in range(CLI_PROBE_REPEATS):
        tr.op = f"{op}-{repeat}"
        with tr.span("cli.interpreter"):
            _run_child(["-c", "pass"], st.env).check_returncode()
        with tr.span("cli.startup"):
            _run_child(["-c", "import refclass.cli"], st.env).check_returncode()
        for k, (name, _, _) in enumerate(COMMANDS):
            with tr.span(f"cli.{name}_inproc"):
                _inproc(st, k)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli-small",
            "commands", _cli_prepare, _cli_op, _cli_digest, _cli_verify, lambda st: len(COMMANDS),
            probe=_cli_probe, child_rusage=True,
        ),
        Workload(
            "registry-bulk",
            "projects", _bulk_prepare, _bulk_op, _bulk_digest, _bulk_verify,
            lambda st: st.properties["projects"],
        ),
        Workload(
            "class-large",
            "class observations", _large_prepare, _large_op, _large_digest, _large_verify,
            lambda st: st.cost_class.n,
        ),
        Workload(
            "class-many-small",
            "classes", _small_prepare, _small_op, _small_digest, _small_verify,
            lambda st: len(st.classes),
        ),
    )
}
