"""Layered benchmark for refclass, run from the root of a source checkout.

    python3 bench/run.py --workload registry-bulk --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50   # every workload
    python3 bench/run.py --self-check                           # tiny sizes

One run generates its inputs from --seed, imports refclass from ``src/``,
sets up (input generation, files, warm-up; three times untraced, for a
median), then runs one workload in a closed loop, one operation in flight,
for --seconds. It prints the machine, the input properties, an output
digest and every metric with its unit and sample count; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
metrics instead: it runs half the time untraced and half with spans, and
reports the difference in median operation time as the tracing overhead.
One more round under tracemalloc gives each span's memory peak. Then one
traced round of every other workload follows, so that every layer's metric
is present; each metric says which workload it came from. The spans are
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"

# BENCHMARK.json lists only cli-small and class-large, which between them
# run every layer. On a shared two-core host whose speed drifts by up to 3x
# within minutes, only runs of about 50 s gave medians steady enough between
# runs, and runs that long fit the time given to all runs of the benchmark
# for two workloads only. registry-bulk and class-many-small still run by
# name, in --workload all, in --self-check and in every traced run.
WORKLOAD_NAMES = ("cli-small", "registry-bulk", "class-large", "class-many-small")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input; used by --self-check")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at tiny sizes and check the output contract")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def say(line: str = "") -> None:
    print(line, flush=True)


def run_one(args) -> int:
    src = ROOT / "src" / "refclass"
    if not (src / "__init__.py").is_file():
        print(f"error: no refclass sources under {src.parent}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import refclass
    if Path(refclass.__file__).resolve().parent != src.resolve():
        print(f"error: imported refclass from {refclass.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return harness.measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass


def child_run(args, workload: str, trace: int, seconds: float, size: str):
    """Run one workload in a fresh interpreter; returns (stdout, result)."""

    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace), "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    result = None
    if done.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if result is None:
        sys.stderr.write(done.stderr)
    return done.stdout, result


def run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        out, result = child_run(args, name, args.trace, args.seconds, args.size)
        say(out.rstrip())
        say()
        results[name] = result
    say(json.dumps(results))
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def self_check(args) -> int:
    """Every workload at tiny sizes, untraced and traced: each prints the
    metrics BENCHMARK.json names, with their units, and every oracle passes."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if not {x["name"] for x in spec["workloads"]} <= set(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json names a workload run.py does not have")
    for name in WORKLOAD_NAMES:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{name} trace={trace}"
            found = []
            out, result = child_run(args, name, trace, 1.0, "tiny")
            if result is None:
                found.append("no result line")
            else:
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    found.append(f"oracle failures ({result['failed']} of {result['attempted']})")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                expected = {m["name"]: m["unit"] for m in spec[kind]}
                if got != expected:
                    found.append(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(expected.items()))}")
                if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                    found.append("a metric is not a finite number")
                wanted = ["# machine:", "# child env:", "# inputs:", "# outputs_sha256:", "fail_ratio"]
                wanted += ["op_tail_ms"] if trace == 0 else ["# trace.overhead_ms"]
                found += [f"no '{line}' line" for line in wanted if line not in out]
            say(f"self-check {label}: {'ok' if not found else 'FAILED'}")
            problems += [f"{label}: {problem}" for problem in found]
    for problem in problems:
        say(f"PROBLEM: {problem}")
    say("self-check passed" if not problems else f"self-check failed: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.self_check:
        return self_check(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
