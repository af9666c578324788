"""End-to-end acceptance gate.

Each test covers one shipping criterion and prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them). The numeric
tolerances quoted in each test are part of the contract, not suggestions.
"""

import itertools
import json
import math
import time

import numpy as np

import corpus
from conftest import make_class
from refclass.cli import main
from refclass.contingency import DEFAULT_TIER_SCHEME, tier_allocation
from refclass.formatting import round_half_away
from refclass.normalization import DISBURSEMENT_PROFILE_PERCENTS, DISBURSEMENT_SHARES, spread_outturn
from refclass.reference_class import (
    QuantileMethod,
    UpliftCurve,
    empirical_quantile,
    uplift,
)
from refclass.smoothing import loess_smooth, pool_adjacent_violators
from refclass.stats import mann_whitney_u, proportion_test
from refclass.validation import leave_one_out, loov_summary
from test_normalization import PUBLISHED_PROFILES
from test_quantiles import ecdf_scan
from test_smoothing import isotonic_minimax
from test_stats import brute_force_mwu_p

INTERP = QuantileMethod.INTERPOLATED
INF = QuantileMethod.INF


def conclude(number: int, description: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    detail = f" [{'; '.join(failures)}]" if failures else ""
    print(f"[{status}] criterion {number}: {description}{detail}")
    assert not failures, f"criterion {number}: {failures}"


def test_criterion_01_published_loov_table(table2_class):
    failures = []
    started = time.perf_counter()
    rows = leave_one_out(table2_class, (0.5, 0.8))
    elapsed = time.perf_counter() - started

    for row in rows:
        expected_p50, expected_p80, flag_50, flag_80 = corpus.TABLE2_PRINTED[row.project_id]
        if abs(row.uplift_at[0.5] * 100 - expected_p50) > 1.0:
            failures.append(f"{row.project_id} p50 uplift {row.uplift_at[0.5]:.4f}")
        if abs(row.uplift_at[0.8] * 100 - expected_p80) > 1.0:
            failures.append(f"{row.project_id} p80 uplift {row.uplift_at[0.8]:.4f}")
        if row.prevented_at[0.5] is not flag_50 or row.prevented_at[0.8] is not flag_80:
            failures.append(f"{row.project_id} flags")
    s50, s80 = loov_summary(rows, 0.5), loov_summary(rows, 0.8)
    if (s50.hits, s50.n) != (9, 18):
        failures.append(f"p50 summary {s50.hits}/{s50.n}")
    if (s80.hits, s80.n) != (14, 18):
        failures.append(f"p80 summary {s80.hits}/{s80.n}")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s")
    conclude(1, "leave-one-out reproduces the published 18-project table in <1s", failures)


def test_criterion_02_headline_uplifts(table2_class, table2_paths, tmp_path, capsys):
    failures = []
    checks = [
        (uplift(table2_class, 0.5, INTERP), 0.160, "interp p50"),
        (uplift(table2_class, 0.8, INTERP), 0.454, "interp p80"),
        (uplift(table2_class, 0.5, INF), 0.140, "inf p50"),
        (uplift(table2_class, 0.8, INF), 0.470, "inf p80"),
    ]
    for got, expected, label in checks:
        if abs(got - expected) > 1e-9:
            failures.append(f"{label} {got:.6f} != {expected}")

    code = main(
        [
            "uplift",
            "--projects",
            table2_paths["projects"],
            "--deflators",
            table2_paths["deflators"],
            "--out",
            str(tmp_path / "out"),
            "--stage",
            "C",
            "--metric",
            "cost",
            "--smooth",
        ]
    )
    stdout = capsys.readouterr().out
    if code != 0:
        failures.append(f"uplift --smooth exited {code}")
    else:
        smoothed = {}
        for line in stdout.splitlines()[1:]:
            cells = line.split(",")
            smoothed[float(cells[0])] = float(cells[-1])
        residual_50 = smoothed[0.5] - 0.13
        residual_80 = smoothed[0.8] - 0.44
        if abs(residual_50) > 0.05:
            failures.append(f"smoothed p50 {smoothed[0.5]:.4f} vs 0.13")
        if abs(residual_80) > 0.05:
            failures.append(f"smoothed p80 {smoothed[0.8]:.4f} vs 0.44")
    conclude(
        2,
        "headline uplifts: raw +16.0/+45.4 (interp), +14/+47 (inf); "
        "smoothed within 5pp of +13/+44",
        failures,
    )


def test_criterion_03_disbursement_profiles():
    failures = []
    if DISBURSEMENT_PROFILE_PERCENTS != PUBLISHED_PROFILES:
        failures.append("profile table differs from the published rows")
    expected_sums = {4: 101, 6: 101, 10: 99}
    for duration, row in DISBURSEMENT_PROFILE_PERCENTS.items():
        if sum(row) != expected_sums.get(duration, 100):
            failures.append(f"row {duration} sums to {sum(row)}")
    for duration in range(1, 11):
        if abs(math.fsum(DISBURSEMENT_SHARES[duration]) - 1.0) > 1e-9:
            failures.append(f"normalized row {duration} sum")
        spread = spread_outturn(100.0, 2000, duration)
        if abs(math.fsum(spread.values()) - 100.0) > 1e-9:
            failures.append(f"spread row {duration} total")
        if len(spread) != duration:
            failures.append(f"spread row {duration} length")
    conclude(3, "disbursement profiles verbatim; normalized rows and spreads conserve to 1e-9", failures)


def test_criterion_04_quantile_conventions():
    failures = []
    pool = (-0.52, -0.33, -0.07, 0.01, 0.14, 0.18, 0.31, 0.43, 0.52, 0.68)
    grid = [round(0.05 * i, 2) for i in range(1, 21)]
    started = time.perf_counter()
    for size in range(1, 9):
        for subset in itertools.combinations(pool, size):
            ordered = sorted(subset)
            previous_inf = -math.inf
            previous_interp = -math.inf
            for p in grid:
                inf_value = empirical_quantile(ordered, p, INF)
                if inf_value != ecdf_scan(subset, p):
                    failures.append(f"inf mismatch n={size} p={p}")
                interp_value = empirical_quantile(ordered, p, INTERP)
                if not ordered[0] <= interp_value <= ordered[-1]:
                    failures.append(f"interp out of range n={size} p={p}")
                if inf_value < previous_inf or interp_value < previous_interp:
                    failures.append(f"non-monotone n={size} p={p}")
                previous_inf, previous_interp = inf_value, interp_value
            if failures:
                break
        if failures:
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s")
    conclude(
        4,
        "both quantile conventions check out on every subset of the 10-value pool (<5s)",
        failures,
    )


def test_criterion_05_rank_test_exactness():
    failures = []
    rng = np.random.default_rng(505)
    for n_a in range(1, 10):
        for n_b in range(1, 10):
            if n_a + n_b > 10:
                continue
            for _ in range(3):
                combined = rng.permutation(np.arange(1.0, n_a + n_b + 1.0))
                a, b = list(combined[:n_a]), list(combined[n_a:])
                exact = mann_whitney_u(a, b).p_value
                brute = brute_force_mwu_p(a, b)
                if abs(exact - brute) > 1e-12:
                    failures.append(f"n_a={n_a} n_b={n_b}: {exact} vs {brute}")
    for _ in range(50):
        n_a = int(rng.integers(1, 15))
        n_b = int(rng.integers(1, 15))
        a = list(rng.integers(0, 4, size=n_a).astype(float))
        b = list(rng.integers(0, 4, size=n_b).astype(float))
        if mann_whitney_u(a, b).statistic + mann_whitney_u(b, a).statistic != n_a * n_b:
            failures.append(f"U sum broken for n_a={n_a} n_b={n_b}")
    conclude(
        5,
        "rank test p equals full enumeration for all n_a+n_b<=10; U_a+U_b=n_a*n_b with ties",
        failures,
    )


def test_criterion_06_frequency_test():
    failures = []
    p = proportion_test(0, 5, 5, 5)
    if abs(p - 2 / 252) > 1e-12:
        failures.append(f"(0/5 vs 5/5) gave {p:.6f}")
    rng = np.random.default_rng(606)
    for _ in range(100):
        n_a = int(rng.integers(1, 12))
        n_b = int(rng.integers(1, 12))
        k_a = int(rng.integers(0, n_a + 1))
        k_b = int(rng.integers(0, n_b + 1))
        forward = proportion_test(k_a, n_a, k_b, n_b)
        backward = proportion_test(k_b, n_b, k_a, n_a)
        if abs(forward - backward) > 1e-12:
            failures.append(f"asymmetric at {k_a}/{n_a} vs {k_b}/{n_b}")
    conclude(6, "exact frequency test: 0/5 vs 5/5 -> 0.0079; symmetric on 100 random tables", failures)


def test_criterion_07_loess_polynomial_exactness():
    failures = []
    xs = np.linspace(0.0, 1.0, 25)
    polys = {1: lambda x: 3.0 * x - 0.7, 2: lambda x: 1.5 * x * x - 2.0 * x + 0.3}
    for degree, poly in polys.items():
        for span in (0.3, 0.5, 0.75, 1.0):
            points = [(float(x), float(poly(x))) for x in xs]
            for x, fit, _, _ in loess_smooth(points, span=span, degree=degree):
                if abs(fit - poly(x)) > 1e-9:
                    failures.append(f"degree {degree} span {span} at x={x:.3f}")
                    break
    conclude(7, "loess reproduces degree-1 and degree-2 polynomials exactly at any span", failures)


def test_criterion_08_isotonic_regression():
    failures = []
    rng = np.random.default_rng(808)
    for trial in range(20):
        values = list(rng.normal(0.0, 1.0, size=6))
        fitted = pool_adjacent_violators(values)
        oracle = isotonic_minimax(values)
        if any(abs(f - o) > 1e-6 for f, o in zip(fitted, oracle)):
            failures.append(f"trial {trial}")
    conclude(8, "pooled isotonic fit matches the minimax formula on 20 random sequences", failures)


def test_criterion_09_tiered_contingency():
    failures = []
    illustration = UpliftCurve(
        points=((0.55, 0.10), (0.60, 0.20), (0.80, 0.40)),
        method=INTERP,
    )
    allocation = tier_allocation(100, illustration, DEFAULT_TIER_SCHEME)
    if [t.tranche_amount for t in allocation.tranches] != [10, 10, 20]:
        failures.append(f"tranches {[t.tranche_amount for t in allocation.tranches]}")
    if allocation.total_funded != 140:
        failures.append(f"total {allocation.total_funded}")

    rng = np.random.default_rng(909)
    for _ in range(100):
        lifts = np.sort(rng.uniform(0.0, 1.2, size=3))
        base = int(rng.integers(1, 500_000))
        curve = UpliftCurve(
            points=tuple(zip((0.55, 0.60, 0.80), map(float, lifts))),
            method=INTERP,
        )
        result = tier_allocation(base, curve, DEFAULT_TIER_SCHEME)
        if any(t.tranche_amount < 0 for t in result.tranches):
            failures.append("negative tranche")
        if sum(t.tranche_amount for t in result.tranches) != result.total_contingency:
            failures.append("tranches do not reconcile")
        if result.total_funded != base + round_half_away(base * float(lifts[2])):
            failures.append("top tier total broken")
    conclude(9, "tier scheme splits base 100 into 10/10/20 (total 140); conservation holds", failures)


def test_criterion_10_synthetic_end_to_end(tmp_path, capsys):
    failures = []
    paths = corpus.write_synthetic_corpus(tmp_path)
    out = str(tmp_path / "out")
    shared = [
        "--projects",
        paths["projects"],
        "--deflators",
        paths["deflators"],
        "--out",
        out,
    ]
    selector = ["--stage", "C", "--metric", "cost"]
    commands = [
        ["check", "--projects", paths["projects"]],
        ["overruns", *shared, *selector],
        ["uplift", *shared, *selector],
        ["validate", *shared, *selector],
        ["benchmark", *shared, "--benchmark", paths["benchmark"]],
        ["curve", *shared, *selector],
        ["tiers", *shared, *selector, "--base", "100000"],
    ]
    validate_stdout = ""
    for argv in commands:
        code = main(argv)
        captured = capsys.readouterr()
        if code != 0:
            failures.append(f"{argv[0]} exited {code}: {captured.err.strip()}")
        if argv[0] == "validate":
            validate_stdout = captured.out

    hits = {}
    for line in validate_stdout.splitlines():
        if line.startswith("# p"):
            level = int(line.split(":")[0][3:]) / 100
            fraction = line.split(":")[1].split()[0]
            numerator, denominator = fraction.split("/")
            hits[level] = int(numerator) / int(denominator)
    for p in (0.5, 0.8):
        if p not in hits:
            failures.append(f"no LOOV summary for p={p}")
        elif abs(hits[p] - p) > 0.15:
            failures.append(f"LOOV rate at p={p} is {hits[p]:.3f}")

    payload = json.loads((tmp_path / "out" / "tiers_C_cost.json").read_text())
    if payload["total_funded"] != 100000 + payload["total_contingency"]:
        failures.append("tiers output inconsistent")
    conclude(
        10,
        "synthetic 30-project registry runs end to end; LOOV rates within 0.15 of p",
        failures,
    )
