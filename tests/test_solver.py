import io
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from helpers import as_float_model, random_dyadic_model, random_instance, solve

from secquery import (
    NumericMode,
    ProblemSpec,
    ResponseModel,
    ThresholdSet,
    ValidationError,
    classical_threshold,
    compute_tables,
    exact_success_probability,
    exhaustive_optimal,
    extract_thresholds,
    pre_query_stop_thresholds,
    random_exact_model,
    symmetric_binary_model,
)
from secquery.cli import tables_to_csv, thresholds_to_json
from secquery.solver import Stage, _exact_a_step, read_stages

RATIONAL = NumericMode.EXACT_RATIONAL
FLOAT = NumericMode.FLOAT64


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


def test_threshold_set_is_validated_on_construction():
    ok = ThresholdSet(5, 2, 3, (4, 2), ((5, 1), (2, 5)), 0)
    bad = [
        # r_f = 0: monte_carlo gave 0.0, exact_success_probability 1/6 (as at r_f = 1)
        lambda: ThresholdSet(6, 2, 0, (), (), 0),
        lambda: ThresholdSet(6, 2, 7, (), (), 0),
        lambda: ThresholdSet(5, 2, 3, (4, 2), ((5, 1), (2,)), 0),  # ragged s
        lambda: ThresholdSet(5, 2, 3, (4, 2), ((5, 1),), 0),  # K - 1 rows
        lambda: ThresholdSet(5, 2, 3, (4, 2), ((5, 1), (2, 5), (1, 1)), 0),  # K + 1 rows
        lambda: replace(ok, r=(4, 6)),
        lambda: replace(ok, s=((5, 0), (2, 5))),
    ]
    for build in bad:
        with pytest.raises(ValidationError):
            build()


def test_solver_matches_enumeration_oracle():
    model = ResponseModel(2, (Fraction(4, 5), Fraction(1, 5)), (Fraction(1, 5), Fraction(4, 5)))
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
    uniform = ResponseModel(3, (0.25, 0.25, 0.5), (0.25, 0.25, 0.5))
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
    out = io.StringIO()
    tables_to_csv(tables, out)
    lines = out.getvalue().strip().splitlines()
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


def test_smaller_budget_tables_are_tail_rows_of_larger(rng):
    # Each stage depends only on the queries left, so budget K's A and U tables
    # are exactly the last K+1 rows of budget hi's; sweep relies on it.
    for mode in (FLOAT, RATIONAL):
        for _ in range(12):
            n = rng.randint(1, 60)
            hi = rng.randint(0, min(8, n))
            M = rng.randint(1, 4)
            if mode is RATIONAL:
                model = random_dyadic_model(rng, M)
            else:  # rounded, non-dyadic entries
                p = [rng.random() + 1e-3 for _ in range(M)]
                q = [rng.random() + 1e-3 for _ in range(M)]
                model = ResponseModel(M, [x / sum(p) for x in p], [x / sum(q) for x in q])
            big = compute_tables(ProblemSpec(n, hi, model), mode)
            for K in range(hi + 1):
                tables = compute_tables(ProblemSpec(n, K, model), mode)
                assert tables.A == big.A[hi - K :]
                assert tables.U == big.U[hi - K :]


def test_table_cell_cap_is_exact(monkeypatch):
    from secquery import solver

    model = symmetric_binary_model(Fraction(9, 10))
    # n=9, K=2: (2K+3)(n+1) = 70 cells.
    monkeypatch.setattr(solver, "MAX_TABLE_CELLS", 70)
    for mode in (FLOAT, RATIONAL):
        assert compute_tables(ProblemSpec(9, 2, model), mode).spec.n == 9
        with pytest.raises(ValidationError, match="MAX_TABLE_CELLS"):
            compute_tables(ProblemSpec(10, 2, model), mode)
    with pytest.raises(ValidationError, match="MAX_TABLE_CELLS"):
        classical_threshold(69)


def _literal_tables(spec):
    """The module docstring's recursion transcribed as written, in Fractions."""
    n, K = spec.n, spec.K
    p = [Fraction(x) for x in spec.model.p]
    q = [Fraction(x) for x in spec.model.q]
    A = [[Fraction(0)] * (n + 1) for _ in range(K + 1)]
    U = {K + 1: [Fraction(t, n) for t in range(n + 1)]}
    for k in range(K, -1, -1):
        for t in range(n, 0, -1):
            step = Fraction(1, t)
            A[k][t - 1] = A[k][t] * (1 - step) + max(U[k + 1][t], A[k][t]) * step
        if k >= 1:
            U[k] = [
                sum((max(pm * Fraction(t, n), qm * A[k][t]) for pm, qm in zip(p, q)), Fraction(0))
                for t in range(n + 1)
            ]
    return tuple(map(tuple, A)), tuple(tuple(U[k]) for k in range(1, K + 2))


def test_exact_tables_are_the_literal_recursion(rng):
    for i in range(40):
        n = rng.randint(2, 60)
        K = rng.randint(0, min(8, n))
        M = rng.choice((2, 3, 4))
        if i % 2:
            model = random_dyadic_model(rng, M)
        else:
            model = random_exact_model(rng, M, denominator=rng.randint(2, 40))
        spec = ProblemSpec(n, K, model)
        tables = compute_tables(spec, RATIONAL)
        assert (tables.A, tables.U) == _literal_tables(spec), (n, K, model)
        check_table_orderings(tables, spec)


def test_full_tables_are_built_on_the_first_read_only():
    model = symmetric_binary_model(Fraction(9, 10))
    for mode in (RATIONAL, FLOAT):
        tables, _ = solve(30, 3, model, mode)
        assert tables.A is tables.A and tables.U is tables.U


def test_exact_gate_decides_float_ties_exactly():
    # U = (0, U[1], 2/3, 1) gives A[2] = 1/3 and A[1] = 1/2.  U[1] lies
    # 2**-100 below, then above, A[1], below one ulp, so their floats tie;
    # the A step compares integer numerators and reads the sign exactly.
    n, tiny = 3, Fraction(1, 2**100)
    spec = ProblemSpec(n, 0, ResponseModel(1, (1,), (1,)))
    den = 6 * 2**100
    a1 = Fraction(1, 2)
    for sign, gate in ((1, 2), (-1, 1)):
        U = (Fraction(0), a1 - sign * tiny, Fraction(2, 3), Fraction(1))
        assert float(a1) == float(U[1])
        u = [int(x * den) for x in U]
        assert _exact_a_step(u) == gate
        A = (max(U[1], a1), a1, Fraction(1, 3), Fraction(0))
        assert u == [int(x * den) for x in A]
        ts, _ = read_stages(spec, [Stage(tuple(u), None, den, gate, (2,))])
        assert ts.r_f == gate
        assert ts.success_probability == A[0]


def _fraction_a_row(U):
    """A[k] from U[k+1] by the module docstring's A step, in Fractions."""
    A = [Fraction(0)] * len(U)
    for t in range(len(U) - 1, 0, -1):
        step = Fraction(1, t)
        A[t - 1] = A[t] * (1 - step) + max(U[t], A[t]) * step
    return A


def test_exact_a_row_refuses_u_minus_a_changing_sign_twice(rng):
    # Solver rows are multiples of L = lcm(1..n) and rise along t, so U - A
    # changes sign at most once and every division by t is exact.  The A
    # step overwrites its argument with A and returns the gate.
    for _ in range(40):
        n = rng.randint(2, 12)
        L = lcm(*range(1, n + 1))
        u = sorted(rng.randint(0, 3) * L for _ in range(n + 1))
        a = list(u)
        gate = _exact_a_step(a)
        assert [Fraction(x, L) for x in a] == _fraction_a_row([Fraction(x, L) for x in u])
        assert gate == min(t for t in range(1, n + 1) if u[t] >= a[t])
    # A tie opens the gate: U = (0, 0, 6, 18) meets A = (6, 6, 6, 0) at t = 2.
    a = [0, 0, 6, 18]
    assert _exact_a_step(a) == 2 and a == [6, 6, 6, 0]
    # U = (0, 0, 1, 0, 1) over L = 12: U - A is + at t = 4, - at t = 3 and
    # + at t = 2, and A[1] = 5/8 is not a multiple of 1/12.  The row is
    # refused, not rounded.
    with pytest.raises(ValidationError, match="t=2"):
        _exact_a_step([0, 0, 12, 0, 12])


def _misreads_are_ties(n, got, want, margin, tol):
    """got equals want, or every exact margin that got reads the other way is within tol."""
    return all(abs(margin(t)) <= tol for t in range(min(got, want), max(got, want)))


def test_float_and_rational_agree_at_n1000(rng):
    # A float threshold may differ from the exact one only where every exact
    # margin it misreads is below n rounding steps of values in [0, 1].
    for n, K, M in ((1000, 10, 2), (997, 4, 3), (1024, 3, 4)):
        model = random_dyadic_model(rng, M, bits=8)
        spec = ProblemSpec(n, K, model)
        exact = compute_tables(spec, RATIONAL)
        approx = compute_tables(ProblemSpec(n, K, as_float_model(model)), FLOAT)
        for exact_row, float_row in zip(exact.A + exact.U, approx.A + approx.U):
            assert max(abs(float(e) - f) for e, f in zip(exact_row, float_row)) <= 1e-12
        ets, fts = extract_thresholds(exact), extract_thresholds(approx)
        tol = n * 2.0**-52
        p, q = model.p, model.q

        def decide(k):
            return lambda t: exact.u(k, t) - exact.a(k - 1, t)

        def stop(k, m):
            return lambda t: p[m] * Fraction(t, n) - q[m] * exact.a(k, t)

        assert _misreads_are_ties(n, fts.r_f, ets.r_f, decide(K + 1), tol)
        for k in range(1, K + 1):
            assert _misreads_are_ties(n, fts.r[k - 1], ets.r[k - 1], decide(k), tol)
            for m in range(M):
                assert _misreads_are_ties(n, fts.s[k - 1][m], ets.s[k - 1][m], stop(k, m), tol)


def test_rational_work_cap_is_exact(monkeypatch):
    from secquery import solver

    model = symmetric_binary_model(Fraction(9, 10))
    # n=9, K=2: (2K+3)(n+1) * n = 630.
    monkeypatch.setattr(solver, "MAX_RATIONAL_WORK", 630)
    assert compute_tables(ProblemSpec(9, 2, model), RATIONAL).spec.n == 9
    with pytest.raises(ValidationError, match="MAX_RATIONAL_WORK"):
        compute_tables(ProblemSpec(10, 2, model), RATIONAL)
    assert compute_tables(ProblemSpec(10, 2, model), FLOAT).spec.n == 10


def test_pre_query_stop_rows_lose_value_at_a_reachable_time():
    # README's note on table2: on an asymmetric model the grid's pre-query
    # stop rows can differ from ThresholdSet.s where a query can happen, and
    # then playing them is strictly worse.
    F = Fraction
    model = ResponseModel(3, (F(0), F(2, 3), F(1, 3)), (F(3, 4), F(0), F(1, 4)))
    spec = ProblemSpec(6, 2, model)
    tables, ts = solve(6, 2, model, RATIONAL)
    grid = pre_query_stop_thresholds(tables)
    assert ts.r == (1, 2)
    assert ts.s == ((6, 1, 3), (6, 1, 2))
    assert grid == ((6, 1, 3), (6, 1, 3))
    # The one difference: response 3 to query 2 at t = 2 = r_2, a reachable time.
    assert ts.s[1][2] == ts.r[1] == 2
    best = F(697, 960)
    assert ts.success_probability == tables.a(0, 0) == exhaustive_optimal(spec) == best
    played = exact_success_probability(spec, replace(ts, s=grid))
    assert played == F(139, 192)
    assert best - played == F(1, 480)
