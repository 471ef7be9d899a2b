import random
from fractions import Fraction

import pytest
from helpers import as_float_model, random_dyadic_model, random_instance

from secquery import (
    NumericMode,
    ProblemSpec,
    ValidationError,
    classical_threshold,
    compute_tables,
    exact_success_probability,
    extract_thresholds,
    pre_query_stop_thresholds,
    symmetric_binary_model,
    tables_to_csv,
    thresholds_to_json,
    validate_model,
)

RATIONAL = NumericMode.EXACT_RATIONAL
FLOAT = NumericMode.FLOAT64


def solve(n, K, model, mode=FLOAT):
    tables = compute_tables(ProblemSpec(n, K, model), mode)
    return tables, extract_thresholds(tables)


def test_single_candidate_is_certain():
    tables, ts = solve(1, 0, symmetric_binary_model(Fraction(1, 2)), RATIONAL)
    assert tables.a(0, 0) == 1
    assert ts.r_f == 1 and ts.success_probability == 1


def test_initialization_rows():
    tables, _ = solve(7, 2, symmetric_binary_model(0.8))
    n, K = 7, 2
    assert all(tables.a(k, n) == 0 for k in range(K + 1))
    assert all(tables.u(K + 1, t) == t / n for t in range(n + 1))


def test_classical_baseline_n100():
    r_f, success = classical_threshold(100)
    assert r_f == 38
    assert abs(success - 0.37104) <= 5e-6


def test_classical_trivial():
    assert classical_threshold(1) == (1, 1.0)


def test_classical_matches_k0_solve():
    for n in (1, 2, 7, 40):
        _, ts = solve(n, 0, symmetric_binary_model(0.7))
        assert (ts.r_f, ts.success_probability) == classical_threshold(n)


# Reference grid rows (n=100, K=10 symmetric models).
def test_thresholds_p05():
    _, ts = solve(100, 10, symmetric_binary_model(0.5))
    assert ts.r_f == 38
    assert ts.r == (1,) * 10
    assert all(row == (38, 38) for row in ts.s)
    assert abs(float(ts.success_probability) - 0.3710) < 5e-5


def test_thresholds_p09():
    _, ts = solve(100, 10, symmetric_binary_model(0.9))
    assert ts.r == (8, 8, 8, 8, 9, 9, 10, 12, 16, 23)
    assert abs(float(ts.success_probability) - 0.7055) < 5e-5


def test_thresholds_infallible():
    tables, ts = solve(100, 10, symmetric_binary_model(1.0))
    assert ts.r[9] == 23 and ts.r_f == 38
    assert all(row == (1, 100) for row in ts.s)
    assert all(row == (1, 100) for row in pre_query_stop_thresholds(tables))
    assert abs(float(ts.success_probability) - 0.9983) < 5e-5


def test_threshold_bounds_are_guaranteed(rng):
    for _ in range(25):
        spec = random_instance(rng, 12, 6, 3)
        tables = compute_tables(spec, FLOAT)
        ts = extract_thresholds(tables)
        assert 1 <= ts.r_f <= spec.n
        assert all(1 <= v <= spec.n for v in ts.r)
        assert all(1 <= v <= spec.n for row in ts.s for v in row)


def test_solver_matches_enumeration_oracle():
    model = validate_model(2, (Fraction(4, 5), Fraction(1, 5)), (Fraction(1, 5), Fraction(4, 5)))
    spec = ProblemSpec(5, 2, model)
    tables = compute_tables(spec, RATIONAL)
    ts = extract_thresholds(tables)
    assert exact_success_probability(spec, ts) == tables.a(0, 0)
    ftables = compute_tables(spec, FLOAT)
    fts = extract_thresholds(ftables)
    assert float(ftables.a(0, 0)) == pytest.approx(
        float(exact_success_probability(spec, fts)), abs=1e-12
    )


def test_rational_mode_requires_exact_entries():
    with pytest.raises(ValidationError):
        compute_tables(ProblemSpec(5, 1, symmetric_binary_model(0.9)), RATIONAL)


def test_float_and_rational_thresholds_agree(rng):
    for _ in range(30):
        n = rng.randint(2, 30)
        K = rng.randint(0, min(10, n))
        model = random_dyadic_model(rng, rng.randint(2, 3))
        exact_ts = extract_thresholds(compute_tables(ProblemSpec(n, K, model), RATIONAL))
        float_ts = extract_thresholds(
            compute_tables(ProblemSpec(n, K, as_float_model(model)), FLOAT)
        )
        assert (exact_ts.r_f, exact_ts.r, exact_ts.s) == (float_ts.r_f, float_ts.r, float_ts.s)


def check_table_orderings(tables, spec):
    n, K = spec.n, spec.K
    for t in range(n + 1):
        for k in range(1, K + 1):  # decreasing in k
            assert tables.a(k, t) <= tables.a(k - 1, t)
        for k in range(2, K + 2):
            assert tables.u(k, t) <= tables.u(k - 1, t)
        for k in range(1, K + 1):  # U dominates A stage by stage
            assert tables.u(k, t) >= tables.a(k, t)
    for k in range(K + 1):
        for t in range(1, n + 1):  # A falls, U rises along t
            assert tables.a(k, t - 1) >= tables.a(k, t)
            assert tables.u(k + 1, t - 1) <= tables.u(k + 1, t)
        assert tables.a(k, n) <= tables.u(k + 1, n)
        assert tables.a(k, 0) >= tables.u(k + 1, 0)


def test_each_threshold_is_least_time_of_its_inequality(rng):
    # Every threshold recomputed from its defining inequality on the tables,
    # including the pre-query stop rule on asymmetric and float instances.
    for mode in (RATIONAL, FLOAT):
        for _ in range(20):
            spec = random_instance(rng, 40, 8, 4)
            if mode is FLOAT:
                spec = ProblemSpec(spec.n, spec.K, as_float_model(spec.model))
            tables = compute_tables(spec, mode)
            ts = extract_thresholds(tables)
            n, K, p, q = spec.n, spec.K, spec.model.p, spec.model.q

            def ratio(t):
                return Fraction(t, n) if mode is RATIONAL else t / n

            def least(pred):
                return min(t for t in range(1, n + 1) if pred(t))

            def stops(lag):
                return tuple(
                    tuple(
                        least(lambda t: p[m] * ratio(t) >= q[m] * tables.a(k - lag, t))
                        for m in range(spec.model.M)
                    )
                    for k in range(1, K + 1)
                )

            assert ts.r_f == least(lambda t: ratio(t) >= tables.a(K, t))
            assert ts.r == tuple(
                least(lambda t: tables.u(k, t) >= tables.a(k - 1, t)) for k in range(1, K + 1)
            )
            assert ts.s == stops(0)
            assert pre_query_stop_thresholds(tables) == stops(1)


def test_table_ordering_properties_sample(rng):
    for _ in range(25):
        spec = random_instance(rng, 30, 8, 4)
        check_table_orderings(compute_tables(spec, FLOAT), spec)


def test_budget_stationarity():
    # Tail-aligned thresholds agree across budgets; r_f is the classical one.
    model = symmetric_binary_model(0.9)
    solved = {K: solve(100, K, model)[1] for K in range(0, 11)}
    classical_rf = classical_threshold(100)[0]
    for K in range(1, 11):
        assert solved[K].r_f == classical_rf == 38
        for Kp in range(1, K):
            for j in range(Kp):
                assert solved[K].r[K - 1 - j] == solved[Kp].r[Kp - 1 - j]
                assert solved[K].s[K - 1 - j] == solved[Kp].s[Kp - 1 - j]


def test_uniform_model_collapses_to_classical():
    base = classical_threshold(60)[1]
    uniform = validate_model(3, (0.25, 0.25, 0.5), (0.25, 0.25, 0.5))
    for K in (0, 1, 4, 9):
        tables, _ = solve(60, K, uniform)
        assert tables.a(0, 0) == pytest.approx(base, abs=1e-12)


def test_reliability_complement_symmetry():
    # p and 1-p give the same tables up to swapping the two response levels.
    for p in (Fraction(3, 5), Fraction(4, 5)):
        _, ts = solve(100, 10, symmetric_binary_model(p), RATIONAL)
        _, ts_c = solve(100, 10, symmetric_binary_model(1 - p), RATIONAL)
        assert ts.success_probability == ts_c.success_probability
        assert ts.r == ts_c.r and ts.r_f == ts_c.r_f
        assert all(a == (b[1], b[0]) for a, b in zip(ts_c.s, ts.s))


def test_success_monotone_in_budget():
    model = symmetric_binary_model(0.9)
    values = [solve(100, K, model)[0].a(0, 0) for K in range(0, 11)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_tables_csv_export():
    tables, _ = solve(4, 1, symmetric_binary_model(0.8))
    lines = tables_to_csv(tables).strip().splitlines()
    assert lines[0] == "k,t,A,U"
    assert len(lines) == 1 + 3 * 5  # k in 0..K+1, t in 0..n
    k0 = dict(zip(("k", "t", "A", "U"), lines[1].split(",")))
    assert k0["U"] == ""  # no U row at k=0
    last = lines[-1].split(",")
    assert last[2] == "" and last[3] == "1"  # k=K+1 has U=t/n only


def test_thresholds_json_export():
    import json

    _, ts = solve(100, 10, symmetric_binary_model(0.9))
    doc = json.loads(thresholds_to_json(ts))
    assert set(doc) == {"r_f", "r", "s", "success_probability"}
    assert doc["r_f"] == 38
    assert doc["r"] == [8, 8, 8, 8, 9, 9, 10, 12, 16, 23]
    assert len(doc["s"]) == 10 and len(doc["s"][0]) == 2
    assert doc["success_probability"] == pytest.approx(0.7055, abs=5e-5)
