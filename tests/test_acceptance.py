"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from helpers import random_instance, solve
from test_solver import check_table_orderings

from secquery import (
    NumericMode,
    ProblemSpec,
    SimConfig,
    classical_threshold,
    compute_tables,
    exact_success_probability,
    exhaustive_optimal,
    extract_thresholds,
    monte_carlo,
    random_exact_model,
    symmetric_binary_model,
    verify_lemma1,
    verify_lemma2,
)
from secquery.cli import table2_csv

RATIONAL = NumericMode.EXACT_RATIONAL
FLOAT = NumericMode.FLOAT64
GOLDEN = Path(__file__).parent / "golden" / "table2.csv"


@contextmanager
def criterion(name: str):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE FAIL: {name}")
        raise
    print(f"\nACCEPTANCE PASS: {name} ({time.time() - start:.1f}s)")


def test_table2_reproduction_exact():
    with criterion("Table 2 reproduction (exact, all 8 rows)"):
        start = time.time()
        produced = table2_csv(FLOAT)
        elapsed = time.time() - start
        golden = GOLDEN.read_text()
        assert produced == golden
        expected_p = ["0.3710", "0.3952", "0.4568", "0.5548", "0.7055", "0.8173", "0.9095", "0.9983"]
        got_p = [line.rsplit(",", 1)[1] for line in produced.strip().splitlines()[1:]]
        assert got_p == expected_p
        assert elapsed < 1.0, f"table2 took {elapsed:.2f}s"


def test_classical_baseline():
    with criterion("Classical baseline n=100: r_f=38, success 0.37104"):
        r_f, success = classical_threshold(100)
        assert r_f == 38
        assert abs(success - 0.37104) <= 5e-6


def test_oracle_equivalence_exact():
    with criterion("Oracle equivalence: enumeration == A[0][0] exactly, 20 models, n<=6, K<=3"):
        start = time.time()
        rng = random.Random(20260809)
        models = [random_exact_model(rng, 2) for _ in range(10)] + [
            random_exact_model(rng, 3) for _ in range(10)
        ]
        instances = 0
        for model in models:
            for n in range(1, 7):
                for K in range(0, min(3, n) + 1):
                    spec = ProblemSpec(n, K, model)
                    tables = compute_tables(spec, RATIONAL)
                    ts = extract_thresholds(tables)
                    assert exact_success_probability(spec, ts) == tables.a(0, 0), (
                        n, K, model,
                    )
                    instances += 1
        elapsed = time.time() - start
        assert instances == 20 * (2 + 3 + 4 + 4 + 4 + 4)
        assert elapsed < 60, f"oracle equivalence took {elapsed:.1f}s"


def test_optimality_check_exhaustive():
    with criterion("Optimality: exhaustive history search == A[0][0], n<=4, K<=2, M=2, 10 models"):
        start = time.time()
        rng = random.Random(31415)
        for model in (random_exact_model(rng, 2) for _ in range(10)):
            for n in range(1, 5):
                for K in range(0, min(2, n) + 1):
                    spec = ProblemSpec(n, K, model)
                    tables = compute_tables(spec, RATIONAL)
                    assert exhaustive_optimal(spec) == tables.a(0, 0), (n, K, model)
        elapsed = time.time() - start
        assert elapsed < 300, f"optimality check took {elapsed:.1f}s"


def test_identity_suites():
    with criterion("Identity suites: verify_lemma1 n<=6, verify_lemma2 n<=5 x 10 models"):
        for n in range(2, 7):
            report = verify_lemma1(n)
            assert report.passed, [c.failures for c in report.checks]
            assert all(c.worst_deviation == 0 for c in report.checks)
        rng = random.Random(987)
        models = [random_exact_model(rng, 2) for _ in range(5)] + [
            random_exact_model(rng, 3) for _ in range(5)
        ]
        for model in models:
            report = verify_lemma2(5, model)
            assert report.passed, [c.failures for c in report.checks]
            assert all(c.worst_deviation == 0 for c in report.checks)


def test_table_ordering_suite_200_instances():
    with criterion("Value-table orderings: 200 random instances, zero float violations"):
        rng = random.Random(0xBEEF)
        for _ in range(200):
            spec = random_instance(rng, 50, 10, 4)
            check_table_orderings(compute_tables(spec, FLOAT), spec)


def test_budget_stationarity_n100():
    with criterion("Stationarity: tail-aligned thresholds across budgets K=1..10, r_f=38"):
        suite = [symmetric_binary_model(0.9), symmetric_binary_model(0.7)]
        suite.append(random_exact_model(random.Random(55), 3))
        for model in suite:
            solved = {K: solve(100, K, model)[1] for K in range(1, 11)}
            for K in range(1, 11):
                assert solved[K].r_f == 38
                for Kp in range(1, K):
                    for j in range(Kp):
                        assert solved[K].r[K - 1 - j] == solved[Kp].r[Kp - 1 - j]
                        assert solved[K].s[K - 1 - j] == solved[Kp].s[Kp - 1 - j]


def test_degeneracy_and_symmetry():
    with criterion("Degeneracy: uniform == classical for K=0..10; p <-> 1-p symmetry"):
        base = classical_threshold(100)[1]
        uniform = symmetric_binary_model(0.5)
        for K in range(0, 11):
            tables, _ = solve(100, K, uniform)
            assert abs(tables.a(0, 0) - base) <= 1e-12
        for p_num in (6, 7, 8, 9):
            p = Fraction(p_num, 10)
            _, ts = solve(100, 10, symmetric_binary_model(p), RATIONAL)
            _, ts_c = solve(100, 10, symmetric_binary_model(1 - p), RATIONAL)
            assert ts.success_probability == ts_c.success_probability
            assert ts.r == ts_c.r and ts.r_f == ts_c.r_f
            assert all(a == (b[1], b[0]) for a, b in zip(ts_c.s, ts.s))


def test_monte_carlo_consistency():
    with criterion("Monte Carlo: 1e6 trials within 4 sigma for p in {0.5, 0.9, 1.0}; parallel determinism"):
        start = time.time()
        for p, seed in ((0.5, 101), (0.9, 102), (1.0, 103)):
            model = symmetric_binary_model(p)
            spec = ProblemSpec(100, 10, model)
            tables, ts = solve(100, 10, model)
            res = monte_carlo(spec, ts, SimConfig(trials=1_000_000, seed=seed))
            assert abs(res.estimate - tables.a(0, 0)) <= 4 * res.stderr, (p, res)
            assert res.mean_queries <= 10
        model = symmetric_binary_model(0.9)
        spec = ProblemSpec(100, 10, model)
        _, ts = solve(100, 10, model)
        r1 = monte_carlo(spec, ts, SimConfig(trials=1_000_000, seed=102, parallelism=1))
        r8 = monte_carlo(spec, ts, SimConfig(trials=1_000_000, seed=102, parallelism=8))
        assert r1 == r8
        elapsed = time.time() - start
        assert elapsed < 120, f"Monte Carlo consistency took {elapsed:.1f}s"


def test_sweep_curve_properties():
    with criterion("Sweep: nondecreasing in K, shared K=0 point, saturation below 1 for p<1"):
        classical = classical_threshold(100)[1]
        endpoints = {0.5: 0.3710, 0.9: 0.7055, 1.0: 0.9983}
        for p in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98, 1.0):
            values = [solve(100, K, symmetric_binary_model(p))[0].a(0, 0) for K in range(11)]
            assert abs(values[0] - classical) <= 1e-12
            assert all(b >= a for a, b in zip(values, values[1:]))
            if p < 1.0:
                assert values[10] < 1.0
            if p in endpoints:
                assert abs(values[10] - endpoints[p]) < 5e-5
