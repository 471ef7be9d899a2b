import itertools
import random
import tracemalloc
from fractions import Fraction
from math import factorial, prod

import pytest
from helpers import solve

from secquery import (
    BudgetExceeded,
    HorizonMismatch,
    NumericMode,
    ProblemSpec,
    ResponseModel,
    classical_threshold,
    compute_tables,
    exact_success_probability,
    exhaustive_optimal,
    extract_thresholds,
    random_exact_model,
    symmetric_binary_model,
    verify_lemma1,
    verify_lemma2,
)
from secquery import oracle
from secquery.oracle import IdentityCheck
from secquery.solver import ThresholdSet

RATIONAL = NumericMode.EXACT_RATIONAL

INFALLIBLE = ResponseModel(2, (1, 0), (0, 1))
UNIFORM = ResponseModel(2, (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
THREE = ResponseModel(
    3,
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
    (Fraction(1, 8), Fraction(3, 8), Fraction(1, 2)),
)
TWO = ResponseModel(2, (Fraction(5, 7), Fraction(2, 7)), (Fraction(1, 6), Fraction(5, 6)))
FLOAT09 = symmetric_binary_model(0.9)  # float entries: exact denominators are powers of two


def test_exact_success_single_candidate():
    for K, model in ((0, UNIFORM), (1, INFALLIBLE)):
        tables, ts = solve(1, K, model, RATIONAL)
        assert exact_success_probability(ProblemSpec(1, K, model), ts) == 1


def test_exact_success_matches_classical_k0():
    tables, ts = solve(4, 0, UNIFORM, RATIONAL)
    value = exact_success_probability(ProblemSpec(4, 0, UNIFORM), ts)
    assert value == classical_threshold(4, RATIONAL)[1] == tables.a(0, 0)


def test_exact_success_symmetric_08():
    model = symmetric_binary_model(Fraction(4, 5))
    spec = ProblemSpec(5, 2, model)
    tables, ts = solve(5, 2, model, RATIONAL)
    assert exact_success_probability(spec, ts) == tables.a(0, 0)


def test_exact_success_horizon_mismatch():
    nine = symmetric_binary_model(Fraction(9, 10))
    # (thresholds solved for, spec run under, field named in the error)
    cases = [
        ((6, 1, nine), (5, 1, nine), "n"),
        # without the K check this runs to a value (1143/1600), not an error
        ((6, 3, nine), (6, 2, nine), "K"),
        ((6, 1, nine), (6, 1, THREE), "M"),
        ((6, 1, THREE), (6, 1, nine), "M"),
    ]
    for solved_for, run_under, field in cases:
        _, ts = solve(*solved_for, RATIONAL)
        with pytest.raises(HorizonMismatch, match=f"{field}="):
            exact_success_probability(ProblemSpec(*run_under), ts)


def test_exact_success_budget():
    model = symmetric_binary_model(Fraction(4, 5))
    with pytest.raises(BudgetExceeded):
        exact_success_probability(
            ProblemSpec(12, 0, model),
            extract_thresholds(compute_tables(ProblemSpec(12, 0, model), RATIONAL)),
        )


def test_exhaustive_matches_classical_n3():
    assert exhaustive_optimal(ProblemSpec(3, 0, UNIFORM)) == classical_threshold(3, RATIONAL)[1]


def test_exhaustive_infallible_n4_k1():
    spec = ProblemSpec(4, 1, INFALLIBLE)
    tables, _ = solve(4, 1, INFALLIBLE, RATIONAL)
    assert exhaustive_optimal(spec) == tables.a(0, 0)


def test_exhaustive_uniform_collapses_to_classical():
    spec = ProblemSpec(4, 1, UNIFORM)
    assert exhaustive_optimal(spec) == classical_threshold(4, RATIONAL)[1]


def test_exhaustive_matches_classical_n5_k0():
    assert exhaustive_optimal(ProblemSpec(5, 0, UNIFORM)) == classical_threshold(5, RATIONAL)[1]


def test_exhaustive_budget_guard(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_ENUMERATION_STATES", 10)
    with pytest.raises(BudgetExceeded):
        exhaustive_optimal(ProblemSpec(4, 1, INFALLIBLE))


def test_oracle_agreement_random_suite(rng):
    for _ in range(8):
        model = random_exact_model(rng, rng.choice([2, 3]))
        for n in (2, 4, 5):
            for K in (0, 1, min(2, n)):
                spec = ProblemSpec(n, K, model)
                tables = compute_tables(spec, RATIONAL)
                ts = extract_thresholds(tables)
                assert exact_success_probability(spec, ts) == tables.a(0, 0)


def test_exhaustive_never_below_threshold_family(rng):
    for _ in range(6):
        model = random_exact_model(rng, 2)
        spec = ProblemSpec(4, 1, model)
        tables = compute_tables(spec, RATIONAL)
        assert exhaustive_optimal(spec) == tables.a(0, 0)


def test_exhaustive_at_practical_limit(rng):
    # n=5, K=2, M=2 is the practical ceiling for the history search.
    for _ in range(3):
        model = random_exact_model(rng, 2)
        spec = ProblemSpec(5, 2, model)
        tables = compute_tables(spec, RATIONAL)
        assert exhaustive_optimal(spec) == tables.a(0, 0)


def test_perturbed_thresholds_never_improve(rng):
    from dataclasses import replace

    model = random_exact_model(rng, 2)
    spec = ProblemSpec(5, 2, model)
    tables = compute_tables(spec, RATIONAL)
    ts = extract_thresholds(tables)
    optimal = tables.a(0, 0)
    variants = []
    for delta in (-1, 1):
        v = min(max(ts.r_f + delta, 1), 5)
        variants.append(replace(ts, r_f=v))
        for j in range(2):
            r = list(ts.r)
            r[j] = min(max(r[j] + delta, 1), 5)
            variants.append(replace(ts, r=tuple(r)))
            for m in range(2):
                s = [list(row) for row in ts.s]
                s[j][m] = min(max(s[j][m] + delta, 1), 5)
                variants.append(replace(ts, s=tuple(tuple(row) for row in s)))
    for variant in variants:
        assert exact_success_probability(spec, variant) <= optimal


# -- verify_lemma1 --------------------------------------------------------------


def test_lemma1_exact_small():
    for n in (2, 3, 4):
        report = verify_lemma1(n)
        assert report.passed, [c.failures for c in report.checks]
        assert all(c.worst_deviation == 0 for c in report.checks)


def test_lemma1_prefix_instance():
    # P(z-prefix (1,2,1)) at t=3 must be 1/3! regardless of n.
    n = 5
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        z = [1 + sum(1 for l in range(i) if perm[l] < perm[i]) for i in range(3)]
        if z == [1, 2, 1]:
            count += 1
    assert Fraction(count, factorial(n)) == Fraction(1, 6)


def test_lemma1_joint_best_earlier_instance():
    # n=5: P(value-1 at time 2 and prefix (1,1,2,2)) = 1/(3! * 5) = 1/30.
    n = 5
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        z = [1 + sum(1 for l in range(i) if perm[l] < perm[i]) for i in range(4)]
        if z == [1, 1, 2, 2] and perm[1] == 1:
            count += 1
    assert Fraction(count, factorial(n)) == Fraction(1, 30)


def test_lemma1_budget():
    with pytest.raises(BudgetExceeded):
        verify_lemma1(12)


# -- verify_lemma2 --------------------------------------------------------------


def test_lemma2_small_models():
    for model in (INFALLIBLE, UNIFORM, symmetric_binary_model(Fraction(4, 5))):
        report = verify_lemma2(4, model)
        assert report.passed, [c.failures for c in report.checks]


def test_lemma2_infallible_posterior_is_certain():
    # After a level-1 response from the infallible expert the posterior is 1.
    n, tk = 4, 2
    num = Fraction(0)
    den = Fraction(0)
    for perm in itertools.permutations(range(1, n + 1)):
        z2 = 1 + (1 if perm[0] < perm[1] else 0)
        if z2 != 1:
            continue
        best_at_tk = perm[tk - 1] == 1
        w = Fraction(1, factorial(n)) * (1 if best_at_tk else 0)  # p(1)=1, q(1)=0
        # condition on rank prefix (1, 1)
        if perm[tk - 1] == min(perm[:tk]):
            den += w
            if best_at_tk:
                num += w
    assert num / den == 1


def test_lemma2_posterior_instance_8_11():
    # symmetric p=4/5, query at t=2 of n=5 with response level 1:
    # posterior = (0.8*2)/(0.8*2 + 0.2*3) = 8/11, confirmed by enumeration.
    model = symmetric_binary_model(Fraction(4, 5))
    n, tk = 5, 2
    expected = Fraction(Fraction(4, 5) * 2, Fraction(4, 5) * 2 + Fraction(1, 5) * 3)
    assert expected == Fraction(8, 11)
    num = Fraction(0)
    den = Fraction(0)
    for perm in itertools.permutations(range(1, n + 1)):
        if perm[1] != min(perm[:2]):  # need z_2 = 1
            continue
        is_best = perm[1] == 1
        w = Fraction(1, factorial(n)) * (model.p[0] if is_best else model.q[0])
        den += w
        if is_best:
            num += w
    assert num / den == expected


def test_lemma2_uniform_next_record_is_uniform():
    # p = q kills the correction term: P(z_t = 1 | ...) = 1/t everywhere.
    report = verify_lemma2(4, UNIFORM)
    assert report.passed
    n, tk, t = 4, 1, 3
    num = Fraction(0)
    den = Fraction(0)
    for perm in itertools.permutations(range(1, n + 1)):
        for zeta in (1, 2):
            w = Fraction(1, factorial(n) * 2)  # uniform response either way
            z = [1 + sum(1 for l in range(i) if perm[l] < perm[i]) for i in range(t)]
            den += w
            if z[t - 1] == 1:
                num += w
    assert num / den == Fraction(1, t)


def test_lemma2_budget():
    with pytest.raises(BudgetExceeded):
        verify_lemma2(9, UNIFORM)


def test_lemma2_branch_budget(monkeypatch):
    # 7! * 3^7 = 11 022 480 branches: refused up front under the default cap.
    with pytest.raises(BudgetExceeded):
        verify_lemma2(7, THREE)
    # n=4 with three levels: four query times give 4! * 3^4 keys at t = n.
    monkeypatch.setattr(oracle, "MAX_ENUMERATION_STATES", 24 * 81)
    assert verify_lemma2(4, THREE).passed
    monkeypatch.setattr(oracle, "MAX_ENUMERATION_STATES", 24 * 81 - 1)
    with pytest.raises(BudgetExceeded):
        verify_lemma2(4, THREE)


# -- the suites can fail ----------------------------------------------------------


def _failing_checks(*reports):
    """name -> (worst deviation, first failure) of every check that failed."""
    return {
        c.name: (c.worst_deviation, c.failures[0])
        for report in reports
        for c in report.checks
        if c.failures
    }


def test_lemma_suites_catch_a_corrupted_enumeration(monkeypatch):
    # Every other lemma test asserts `passed`; this one shows the suites fail.
    # The last permutation of n=4 is (4, 3, 2, 1): ranks (1, 1, 1, 1), best at 4.
    real = oracle._enumerate
    assert real(4)[-1] == ((1, 1, 1, 1), 4)

    monkeypatch.setattr(oracle, "_enumerate", lambda n: real(n)[:-1])
    assert _failing_checks(verify_lemma1(4), verify_lemma2(4, TWO)) == {
        "rank-prefix-probability": (Fraction(1, 24), "t=1 prefix=(1,): expected 1, got 23/24"),
        "next-rank-uniform": (Fraction(1, 12), "t=1 prefix=(1,): expected 1, got 23/24"),
        "record-posterior": (Fraction(1, 4), "tq=(1,) zeta=(1,) t=2: expected 1/2, got 6/11"),
        "queried-sample-posterior": (
            Fraction(35, 71),
            "tq=(1,) zeta=(1,): expected 10/17, got 180/299",
        ),
        "response-marginal": (
            Fraction(23, 168),
            "tq=(1,) zeta_prefix=() m=1: expected 17/56, got 13/42",
        ),
        "next-record-probability": (
            Fraction(35, 71),
            "tq=(1,) zeta=(1,) t=2: expected 14/51, got 77/299",
        ),
    }

    # Keep every rank stream but move that stream's best from time 4 to 3.
    monkeypatch.setattr(oracle, "_enumerate", lambda n: [*real(n)[:-1], ((1, 1, 1, 1), 3)])
    assert _failing_checks(verify_lemma1(4)) == {
        "joint-best-now": (Fraction(1, 24), "t=3 t1=3 prefix=(1, 1, 1): expected 1/8, got 1/6"),
        "joint-best-earlier": (
            Fraction(1, 24),
            "t=4 t1=3 prefix=(1, 1, 1, 1): expected 0, got 1/24",
        ),
    }


def test_lemma2_reports_a_key_the_formula_leaves_undefined(monkeypatch):
    # With the best of (1, 1, 1, 1) moved to time 3, the infallible expert
    # answers 2 at a record at t = 4 = n, where p(2)t + q(2)(n-t) = 0: no
    # posterior is defined for that key, and the suite must say so, not crash.
    real = oracle._enumerate
    monkeypatch.setattr(oracle, "_enumerate", lambda n: [*real(n)[:-1], ((1, 1, 1, 1), 3)])
    report = verify_lemma2(4, INFALLIBLE)
    assert not report.passed
    check = next(c for c in report.checks if c.name == "queried-sample-posterior")
    assert check.failures[0] == "tq=(4,) zeta=(2,): expected no weight on this key, got some"


# -- integer comparison path ------------------------------------------------------


def test_record_ratio_matches_record():
    rng = random.Random(20261018)
    by_ratio = IdentityCheck("ratio")
    failures, deviations = [], []
    for i in range(200):
        den = rng.randint(1, 10**6)
        num = rng.randint(0, den)
        expected = Fraction(rng.randint(0, 50), rng.randint(1, 50))
        actual = Fraction(num, den)
        if expected == actual:
            continue
        by_ratio.record_ratio(lambda: f"case {i}", expected, num, den)
        failures.append(f"case {i}: expected {expected}, got {actual}")
        deviations.append(abs(actual - expected))
    assert by_ratio.cases == len(failures) > 100
    assert by_ratio.failures == failures[:5] and len(by_ratio.failures) == 5
    assert type(by_ratio.worst_deviation) is Fraction
    assert by_ratio.worst_deviation == max(deviations) > 0

    matching = IdentityCheck("matching")
    for _ in range(200):
        expected = Fraction(rng.randint(0, 50), rng.randint(1, 50))
        scale = rng.randint(1, 10**9)
        num, den = expected.numerator * scale, expected.denominator * scale
        matching.record_ratio(lambda: "never built", expected, num, den)
    assert matching.cases == 200 and matching.passed
    assert matching.worst_deviation == 0


# -- return types and values of the strategy oracles ------------------------------
#
# The expected values were computed by the earlier enumeration that carried
# every branch weight as a Fraction; the integer-weight one must match them.


def test_exact_success_probability_values_and_type():
    def optimal(n, K, model, mode=RATIONAL):
        return extract_thresholds(compute_tables(ProblemSpec(n, K, model), mode))

    cases = [
        (1, 0, UNIFORM, optimal(1, 0, UNIFORM), "1"),
        (1, 1, INFALLIBLE, optimal(1, 1, INFALLIBLE), "1"),
        (4, 1, INFALLIBLE, optimal(4, 1, INFALLIBLE), "17/24"),
        (
            5, 2, FLOAT09, optimal(5, 2, FLOAT09, NumericMode.FLOAT64),
            "7381985799345062277707783911338151/9735556609752801803494680617287680",
        ),
        (5, 2, THREE, optimal(5, 2, THREE), "709/1280"),
        (6, 3, TWO, optimal(6, 3, TWO), "32717/54432"),
        # hand-made, non-monotone thresholds
        (5, 2, TWO, ThresholdSet(5, 2, 3, (4, 2), ((5, 1), (2, 5)), 0), "181/840"),
    ]
    for n, K, model, ts, value in cases:
        got = exact_success_probability(ProblemSpec(n, K, model), ts)
        assert type(got) is Fraction and got == Fraction(value), (n, K, model)


def test_exhaustive_optimal_values_and_type():
    cases = [
        (1, 0, UNIFORM, "1"),
        (4, 1, FLOAT09, "139611588448485379/216172782113783808"),
        (4, 2, TWO, "3905/6048"),
        (4, 1, THREE, "101/192"),
        (5, 1, TWO, "941/1680"),
    ]
    for n, K, model, value in cases:
        got = exhaustive_optimal(ProblemSpec(n, K, model))
        assert type(got) is Fraction and got == Fraction(value), (n, K, model)


# -- lemma 2 summed per query hit equals the branch-by-branch walk ----------------


def _literal_conditional(check, rows, expected, describe):
    """P(event | key) for every key of (key, weight, event) rows, by first-seen prefix, then combo."""
    den, num = {}, {}
    for key, w, event in rows:
        den[key] = den.get(key, 0) + w
        if event:
            num[key] = num.get(key, 0) + w
    first = {prefix: i for i, prefix in enumerate(dict.fromkeys(key[0] for key in den))}
    for key, d in sorted(den.items(), key=lambda item: (first[item[0][0]], item[0][1:])):
        want = expected(key)
        if want is None:
            check.fail(f"{describe(key)}: expected no weight on this key, got some")
        else:
            check.record_ratio(lambda: describe(key), want, num.get(key, 0), d)


def _literal_verify_lemma2(n, model):
    """``verify_lemma2`` as a list of every (permutation, response combo) branch.

    Each tuple of query times lists all n!*M^k weighted branches and sums
    them key by key.  ``oracle.verify_lemma2`` sums permutation counts per
    query hit instead; both must report the same cases, failures and worst
    deviations.
    """
    data = oracle._enumerate(n)
    M = model.M
    D, P, Q = model.integer_weights()
    zero = Fraction(0)
    cur_posterior = IdentityCheck("record-posterior")
    query_posterior = IdentityCheck("queried-sample-posterior")
    response_marginal = IdentityCheck("response-marginal")
    next_record = IdentityCheck("next-record-probability")
    for k in range(1, n + 1):
        weighted = [
            [
                (zeta, w)
                for zeta in itertools.product(range(1, M + 1), repeat=k)
                if (w := prod(P[m - 1] if i == j else Q[m - 1] for i, m in enumerate(zeta)))
            ]
            for j in range(k + 1)
        ]
        for tq in itertools.combinations(range(1, n + 1), k):
            tk = tq[-1]
            master = [
                (z, best, zeta, w)
                for z, best in data
                for zeta, w in weighted[tq.index(best) if best in tq else k]
            ]
            at_tk = [row for row in master if row[0][tk - 1] == 1]
            for t in range(tk, n + 1):
                levels = zip(P, Q) if t == tk else [(1, 1)] * M
                posterior = [
                    Fraction(Pm * t, Pm * t + Qm * (n - t)) if Pm * t + Qm * (n - t) else None
                    for Pm, Qm in levels
                ]
                _literal_conditional(
                    query_posterior if t == tk else cur_posterior,
                    (((z[:t], zeta), w, best == t) for z, best, zeta, w in master),
                    lambda key: posterior[key[1][-1] - 1] if key[0][t - 1] == 1 else zero,
                    lambda key: f"tq={tq} zeta={key[1]}" + (f" t={t}" if t > tk else ""),
                )
            marginal = [Fraction(Pm * tk + Qm * (n - tk), D * n) for Pm, Qm in zip(P, Q)]
            _literal_conditional(
                response_marginal,
                (
                    ((z[:tk], zeta[:-1], m), w, zeta[-1] == m)
                    for z, _, zeta, w in at_tk
                    for m in range(1, M + 1)
                ),
                lambda key: marginal[key[2] - 1],
                lambda key: f"tq={tq} zeta_prefix={key[1]} m={key[2]}",
            )
            for t in range(tk + 1, n + 1):
                uncorrected = Fraction(1, t)
                corrected = [
                    Fraction(Qm * n, t * (Pm * (t - 1) + Qm * (n - t + 1))) if Pm or Qm else None
                    for Pm, Qm in zip(P, Q)
                ]
                _literal_conditional(
                    next_record,
                    (((z[: t - 1], zeta), w, z[t - 1] == 1) for z, _, zeta, w in at_tk),
                    lambda key: corrected[key[1][-1] - 1]
                    if all(key[0][l] > 1 for l in range(tk, t - 1))
                    else uncorrected,
                    lambda key: f"tq={tq} zeta={key[1]} t={t}",
                )
    return [cur_posterior, query_posterior, response_marginal, next_record]


def _per_check(checks):
    return [(c.name, c.cases, c.failures, c.worst_deviation) for c in checks]


def _lemma2_instances(rng):
    """(n, model) pairs: fixed models at n = 4 and seeded random ones at n = 2..4.

    A level with p(m) = 0 or q(m) = 0 gives combos weight under some query
    hits and not others, so a prefix meets its keys over several rows; the
    best never answers 1 in ``one_unheard``, and random denominators 4 and
    24 give more such levels.
    """
    one_unheard = ResponseModel(2, (0, 1), (Fraction(2, 3), Fraction(1, 3)))
    instances = [(4, model) for model in (INFALLIBLE, UNIFORM, THREE, TWO, one_unheard)]
    for n in (2, 3, 4):
        for M in (2, 3):
            for denominator in (4, 24):
                instances.append((n, random_exact_model(rng, M, denominator)))
    return instances


def test_lemma2_equals_the_branch_by_branch_reference(rng):
    instances = _lemma2_instances(rng)
    assert any(0 in model.p + model.q for _, model in instances)
    for n, model in instances:
        report = verify_lemma2(n, model)
        assert report.passed, (n, model)
        assert _per_check(report.checks) == _per_check(_literal_verify_lemma2(n, model)), (n, model)


def test_lemma2_equals_the_reference_on_a_corrupted_enumeration(monkeypatch, rng):
    # The two corruptions of test_lemma_suites_catch_a_corrupted_enumeration.
    # Failure texts must come in the reference's order, zero-weight levels too.
    real = oracle._enumerate
    corruptions = (
        lambda n: real(n)[:-1],
        lambda n: [*real(n)[:-1], ((1,) * n, n - 1)],
    )
    instances = _lemma2_instances(rng)
    for corrupted in corruptions:
        monkeypatch.setattr(oracle, "_enumerate", corrupted)
        for n, model in instances:
            report = verify_lemma2(n, model)
            assert _per_check(report.checks) == _per_check(_literal_verify_lemma2(n, model)), (n, model)
            if n == 4:
                assert not report.passed, model


def test_lemma2_holds_no_list_of_branches():
    # 5! * 3^5 = 29 160 branches at five query times; the branch-by-branch
    # walk peaked at 7.4 MB traced, the per-hit counts at 0.27 MB.
    verify_lemma2(3, THREE)  # warm-up: caches and interned tuples
    tracemalloc.start()
    try:
        assert verify_lemma2(5, THREE).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_lemma2_decides_each_key_class_once(monkeypatch):
    # The branch walk made one record_ratio call per case; prefixes that share
    # their class and counts share one decision, made without that call.
    calls = 0
    record_ratio = IdentityCheck.record_ratio

    def counted(self, describe, expected, num, den):
        nonlocal calls
        calls += 1
        record_ratio(self, describe, expected, num, den)

    monkeypatch.setattr(IdentityCheck, "record_ratio", counted)
    report = verify_lemma2(5, THREE)
    assert report.passed
    assert sum(c.cases for c in report.checks) == 150_909
    assert calls < 150_909 // 100, calls


def test_enumeration_is_built_once_per_n():
    first = oracle._enumerate(4)
    assert type(first) is tuple and len(first) == 24
    assert oracle._enumerate(4) is first
