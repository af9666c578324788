"""Measurement of one workload in one process: set-up, the timed closed
loop, the oracles, and the metrics printed with their units.

refclass must be importable before this module is imported; bench/run.py
makes sure it is imported from the checkout's ``src/``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from importlib import metadata
from pathlib import Path

import workloads as w
from spans import OPERATION, Tracer, per_op

ROOT = Path(__file__).resolve().parent.parent
TRACE_OUT = ROOT / ".bench_out"

# Set-up is repeated and its median taken, so one slow repetition (a cold
# file cache, another tenant) does not decide setup_s: the import is timed in
# IMPORT_REPEATS fresh interpreters, and input preparation plus the warm-up
# operation SETUP_REPEATS times.
IMPORT_REPEATS = 3
SETUP_REPEATS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import refclass.cli; print(time.perf_counter() - t)"
TAIL_MIN_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# The metrics a bounded comparison can use: present in every run and never
# zero. op_tail_ms needs at least 20 operations, which not every run
# reaches, and fail_ratio is zero whenever the program is right; both are
# printed beside them, and failures also reach the result's "failed".
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

COMMAND_NAMES = [name for name, _, _ in w.COMMANDS]
PER_LAYER = {
    "registry.parse_ms": "ms",
    "registry.parse_lenient_ms": "ms",
    "registry.write_ms": "ms",
    "registry.rows": "count",
    "registry.bytes": "bytes",
    "registry.parse_peak_mb": "MB",
    "normalization.derive_ms": "ms",
    "normalization.observations": "count",
    "normalization.profile_spread_projects": "count",
    "reference_class.build_ms": "ms",
    "reference_class.curve_ms": "ms",
    "reference_class.required_certainty_ms": "ms",
    "reference_class.uplift_calls": "count",
    "reference_class.class_n": "count",
    "validation.loo_ms": "ms",
    "validation.loo_rows": "count",
    "validation.loo_peak_mb": "MB",
    "smoothing.trend_ms": "ms",
    "smoothing.trend_peak_mb": "MB",
    "smoothing.curve_smooth_ms": "ms",
    "benchmarking.tested_report_ms": "ms",
    "benchmarking.report_ms": "ms",
    "benchmarking.phase_ms": "ms",
    "contingency.tiers_ms": "ms",
    "contingency.pool_ms": "ms",
    "plot.svg_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.startup_ms": "ms",
    **{f"cli.{name}_ms": "ms" for name in COMMAND_NAMES},
    **{f"cli.{name}_inproc_ms": "ms" for name in COMMAND_NAMES},
    **{
        f"{layer}.self_ms": "ms"
        for layer in (
            "registry", "normalization", "reference_class", "validation", "smoothing",
            "benchmarking", "contingency", "plot", "cli", "bench",
        )
    },
    "trace.overhead_ms": "ms",
}


def say(line: str = "") -> None:
    print(line, flush=True)


def git_commit() -> str:
    # Only this checkout's own repository: git would otherwise report an
    # enclosing one.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def import_seconds(repeats: int) -> list[float]:
    """Time ``import refclass.cli`` in fresh interpreters with the CLI's
    child environment. For cli-small these children also count towards the
    children's peak memory; each imports exactly what every command imports
    first, so they cannot raise it."""

    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=w.child_env(),
            capture_output=True, text=True, timeout=w.CHILD_TIMEOUT_S, check=True,
        )
        times.append(float(done.stdout))
    return times


def tail_latency(samples: list[float]) -> tuple[float, float, int] | None:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, milliseconds, samples beyond), or None for short runs."""

    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = max(1, math.ceil(q / 100 * n))  # nearest-rank percentile
        beyond = n - rank
        if beyond >= TAIL_MIN_BEYOND:
            return q, ordered[rank - 1] * 1e3, beyond
    return None


class Run:
    """One workload in one process: set-up, warm-up, timed loops, oracles."""

    def __init__(self, workload, args, workdir: Path) -> None:
        self.wl = workload
        self.args = args
        self.tiny = args.size == "tiny"
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.expected = ""  # digest of the first warm-up's outputs

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems:
            print(f"FAIL {self.wl.name}: {problem}", file=sys.stderr, flush=True)

    def attempt(self, workload, state, tracer):
        """Run one operation; returns (seconds, outputs, problem or None)."""

        start = time.perf_counter()
        try:
            with tracer.span(OPERATION):
                out = workload.op(state, tracer)
        except Exception:
            seconds = time.perf_counter() - start
            return seconds, None, "operation raised:\n" + traceback.format_exc()
        return time.perf_counter() - start, out, None

    def check(self, workload, state, out, error) -> bool:
        """Count one attempted operation and check it in full; failures are
        reported and counted."""

        self.attempted += 1
        problems = [error] if error else workload.verify(state, out)
        if problems:
            self.fail(problems)
        return not problems

    def setup(self, repeats: int):
        """Generate, write and load fresh inputs, then run the warm-up
        operation on them, ``repeats`` times. Every warm-up and every later
        operation must reproduce the first warm-up's output digest; the last
        timed operation is then checked in full (see verify_last). Returns
        the last state and the seconds of each preparation and warm-up."""

        state = None
        prepare_s, warm_s = [], []
        for k in range(repeats):
            state = None  # free the last preparation before the next
            start = time.perf_counter()
            state = self.wl.prepare(self.args.seed, self.workdir / "inputs", self.tiny)
            prepare_s.append(time.perf_counter() - start)
            took, out, error = self.attempt(self.wl, state, Tracer(False))
            warm_s.append(took)
            if not error and not self.expected:
                self.expected = self.wl.digest(state, out)
            self.same_as_warm_up(state, out, error, f"warm-up {k + 1}")
            del out
        return state, prepare_s, warm_s

    def same_as_warm_up(self, state, out, error, label: str) -> bool:
        """Count one attempted operation; it passes when its outputs have
        the digest of the first warm-up."""

        self.attempted += 1
        if error:
            self.fail([error])
        elif self.wl.digest(state, out) != self.expected:
            self.fail([f"{label}: outputs differ from the first warm-up"])
        else:
            return True
        return False

    def loop(self, state, seconds: float, tracer, label: str):
        """Time operations for ``seconds``; returns their times and the
        outputs of the last one."""

        samples = []
        start = time.perf_counter()
        while True:
            out = None  # so this operation's peak memory does not include the last one's outputs
            tracer.op = f"{self.wl.name}:{label}{len(samples)}"
            took, out, error = self.attempt(self.wl, state, tracer)
            samples.append(took)
            if self.same_as_warm_up(state, out, error, f"operation {len(samples)}"):
                self.items += self.wl.items_per_op(state)
            if time.perf_counter() - start >= seconds:
                return samples, out

    def verify_last(self, state, out) -> None:
        """Check the last timed operation in full against the oracles. Every
        operation that passed had the same output digest, so a fault found
        here is theirs too, and all of them count as failed. An operation
        that failed its digest is already counted."""

        if out is None or self.wl.digest(state, out) != self.expected:
            return
        problems = self.wl.verify(state, out)
        if problems:
            self.fail(problems)
            self.failed = self.attempted

    def traced_round(self, workload, state, tracer) -> None:
        """One operation timed with spans and checked in full, the probe if
        any, then the same operation under tracemalloc for the memory peaks,
        unless the work runs in child processes, which tracemalloc cannot
        see."""

        tracer.op = f"{workload.name}:round"
        _, out, error = self.attempt(workload, state, tracer)
        self.check(workload, state, out, error)
        if workload.probe is not None:
            tracer.op = f"{workload.name}:probe"
            workload.probe(state, tracer)
        if not workload.child_rusage:
            tracer.op = f"{workload.name}:memory"
            tracemalloc.start()
            try:
                self.attempt(workload, state, tracer)
            finally:
                tracemalloc.stop()

    def sweep(self, tracer) -> list[str]:
        """A traced round of every other workload, checked in full, so that
        the traced run reports every layer."""

        names = []
        for other in w.WORKLOADS.values():
            if other is not self.wl:
                state = other.prepare(self.args.seed, self.workdir / f"sweep-{other.name}", self.tiny)
                self.traced_round(other, state, tracer)
                names.append(other.name)
        return names


def print_header(args, state) -> None:
    env = w.child_env()
    say(f"# refclass benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    say(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={metadata.version('numpy')} click={metadata.version('click')} "
        f"commit={git_commit()} seed={args.seed}")
    shown = " ".join(f"{k}={v}" for k, v in sorted(env.items()) if k != "PATH")
    if "PYTHONDONTWRITEBYTECODE" not in env:
        shown += " PYTHONDONTWRITEBYTECODE=(unset)"
    say(f"# child env: {shown} PATH=(inherited)")
    props = " ".join(f"{k}={v}" for k, v in state.properties.items())
    say(f"# inputs: {props}")


def seconds_list(values: list[float]) -> str:
    return ", ".join(f"{v:.3f}" for v in values)


def measure(args, workdir: Path) -> int:
    wl = w.WORKLOADS[args.workload]
    run = Run(wl, args, workdir)
    # setup_s is an end-to-end metric; traced runs set up once.
    imports, repeats = (IMPORT_REPEATS, SETUP_REPEATS) if args.trace == 0 else (1, 1)
    import_s = import_seconds(imports)
    state, prepare_s, warm_s = run.setup(repeats)
    setups = [p + q for p, q in zip(prepare_s, warm_s)]
    setup_s = statistics.median(import_s) + statistics.median(setups)
    print_header(args, state)
    say(f"# outputs_sha256: {run.expected}")
    say(f"# setup: median of {len(import_s)} imports in fresh interpreters ({seconds_list(import_s)} s) "
        f"+ median of {len(setups)} set-ups ({seconds_list(setups)} s), each generating, writing and "
        f"loading the inputs ({seconds_list(prepare_s)} s) and running the warm-up op ({seconds_list(warm_s)} s)")

    if args.trace == 0:
        samples, last = run.loop(state, args.seconds, Tracer(False), "")
        # Peak memory before the oracles run, so that it is the program's.
        who = resource.RUSAGE_CHILDREN if wl.child_rusage else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        run.verify_last(state, last)
        del last
        metrics = {
            "setup_s": setup_s,
            "op_p50_ms": statistics.median(samples) * 1e3,
            "items_per_s": run.items / sum(samples),
            "peak_rss_mb": peak_rss_mb,
        }
        n = len(samples)
        notes = {
            "setup_s": f"median of {IMPORT_REPEATS} imports + median of {SETUP_REPEATS} set-ups with warm-up",
            "op_p50_ms": f"n={n} ops",
            "items_per_s": f"{wl.items}/s over n={n} ops",
            "peak_rss_mb": "peak of child processes" if wl.child_rusage else "peak of this process",
        }
        for name, value in metrics.items():
            say(f"{name:<16} {value:14.4f} {END_TO_END[name]:<6} ({notes[name]})")
        say(f"# op_ms samples: {' '.join(f'{x * 1e3:.1f}' for x in samples)}")
        tail = tail_latency(samples)
        if tail is None:
            say(f"{'op_tail_ms':<16} {'omitted':>14} {'ms':<6} (n={n} ops; at least "
                f"{2 * TAIL_MIN_BEYOND} needed for {TAIL_MIN_BEYOND} beyond p50)")
        else:
            q, ms, beyond = tail
            say(f"{'op_tail_ms':<16} {ms:14.4f} {'ms':<6} (p{q:g}, n={n} ops, {beyond} beyond)")
        units = END_TO_END
    else:
        metrics, units = traced(run, state, args)

    say(f"{'fail_ratio':<16} {run.failed / run.attempted:14.4f} {'ratio':<6} "
        f"({run.failed} of {run.attempted} ops failed, warm-ups included)")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    say(json.dumps(result))
    return 0


def traced(run: Run, state, args):
    half = args.seconds / 2
    untraced, _ = run.loop(state, half, Tracer(False), "untraced-")
    tracer = Tracer(True)
    samples, _ = run.loop(state, half, tracer, "")
    run.traced_round(run.wl, state, tracer)
    swept = run.sweep(tracer)

    own_ops = {s.op for s in tracer.spans if s.op.startswith(run.wl.name + ":")}
    found = {name: (value, run.wl.name) for name, value in per_op(tracer, own_ops).items()}
    for name in swept:
        ops = {s.op for s in tracer.spans if s.op.startswith(name + ":")}
        for metric, value in per_op(tracer, ops).items():
            found.setdefault(metric, (value, name))
    traced_p50 = statistics.median(samples) * 1e3
    untraced_p50 = statistics.median(untraced) * 1e3
    found["trace.overhead_ms"] = (traced_p50 - untraced_p50, run.wl.name)

    say(f"# traced: {len(samples)} traced and {len(untraced)} untraced ops of {run.wl.name}, "
        f"then one op under tracemalloc; one traced round each of {', '.join(swept)}")
    say(f"# trace.overhead_ms = traced op_p50 {traced_p50:.3f} ms - untraced op_p50 {untraced_p50:.3f} ms")
    for name in sorted(found):
        if name not in PER_LAYER:
            value, source = found[name]
            say(f"#   {name:<40} {value:14.4f}   (from {source}; not a reported metric)")
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name not in found:
            run.fail([f"traced run produced no {name}"])
            continue
        value, source = found[name]
        metrics[name] = value
        say(f"{name:<40} {value:14.4f} {unit:<6} (from {source})")
    TRACE_OUT.mkdir(exist_ok=True)
    path = TRACE_OUT / f"spans-{run.wl.name}-seed{args.seed}.json"
    tracer.write(path)
    say(f"# spans written to {path.relative_to(ROOT)}")
    return metrics, PER_LAYER
