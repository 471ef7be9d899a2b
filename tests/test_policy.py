import itertools
from fractions import Fraction

import pytest
from helpers import random_dyadic_model

from secquery import (
    GenieExhausted,
    HorizonMismatch,
    NotAPermutation,
    NumericMode,
    ProblemSpec,
    RankStream,
    ScriptedGenie,
    classical_threshold,
    compute_tables,
    extract_thresholds,
    hindsight_best,
    relative_ranks,
    run_strategy,
    symmetric_binary_model,
)


def solve(n, K, model):
    tables = compute_tables(ProblemSpec(n, K, model), NumericMode.FLOAT64)
    return tables, extract_thresholds(tables)


def test_relative_ranks_examples():
    assert relative_ranks((3, 1, 2)).z == (1, 1, 2)
    assert relative_ranks(tuple(range(1, 7))).z == (1, 2, 3, 4, 5, 6)
    assert relative_ranks((5, 4, 3, 2, 1)).z == (1, 1, 1, 1, 1)


def test_relative_ranks_rejects_non_permutation():
    with pytest.raises(NotAPermutation):
        relative_ranks((1, 2, 2))
    with pytest.raises(NotAPermutation):
        relative_ranks((0, 1, 2))
    with pytest.raises(NotAPermutation):
        relative_ranks(())


def test_rank_stream_validation():
    with pytest.raises(ValueError):
        RankStream(3, (1, 3, 1))  # z_2 > 2
    with pytest.raises(ValueError):
        RankStream(2, (2, 1))  # z_1 must be 1
    for z in ((1, 1), (1, 2, 1, 1)):
        with pytest.raises(ValueError, match="rank stream needs exactly n=3 entries"):
            RankStream(3, z)


def test_best_time_is_last_record():
    assert relative_ranks((3, 1, 2)).best_time == 2
    assert relative_ranks((2, 3, 1)).best_time == 3


def test_hindsight_best_examples():
    assert hindsight_best((3, 1, 2)) == 2
    assert hindsight_best((1, 2, 3)) == 1
    assert hindsight_best((2, 3, 1)) == 3


def test_run_strategy_classical_example():
    # n=4, K=0: r_f = classical_threshold(4) = 2; permutation (2,1,3,4) has
    # z = (1,1,2,2), so the first record at t >= 2 is t=2, which holds value 1.
    _, ts = solve(4, 0, symmetric_binary_model(0.5))
    assert ts.r_f == classical_threshold(4)[0] == 2
    outcome = run_strategy(ts, relative_ranks((2, 1, 3, 4)), ScriptedGenie([]))
    assert outcome.selected == 2
    assert outcome.success and not outcome.stopped_at_query
    assert outcome.queries_used == ()


def test_no_selection_is_failure_not_error():
    _, ts = solve(4, 0, symmetric_binary_model(0.5))
    # (1,2,3,4) has its only record at t=1 < r_f=2: no stop ever fires.
    outcome = run_strategy(ts, relative_ranks((1, 2, 3, 4)), ScriptedGenie([]))
    assert outcome.selected is None and not outcome.success


def test_horizon_mismatch():
    _, ts = solve(5, 1, symmetric_binary_model(0.8))
    with pytest.raises(HorizonMismatch):
        run_strategy(ts, relative_ranks((2, 1, 3)), ScriptedGenie([1]))


def test_scripted_genie_exhaustion():
    _, ts = solve(6, 2, symmetric_binary_model(0.8))
    stream = relative_ranks((6, 5, 4, 3, 2, 1))  # record at every t
    with pytest.raises(GenieExhausted):
        run_strategy(ts, stream, ScriptedGenie([]))


@pytest.mark.parametrize("level", [0, 3])
def test_genie_response_outside_levels_is_refused(level):
    _, ts = solve(6, 2, symmetric_binary_model(0.8))
    stream = relative_ranks((6, 5, 4, 3, 2, 1))  # record at every t
    with pytest.raises(ValueError, match=f"genie response {level} outside 1..2"):
        run_strategy(ts, stream, ScriptedGenie([level]))


def test_infallible_query_stop_iff_level_one(rng):
    # With p=(1,0), q=(0,1): s = (1, n), so a query stops iff the response is
    # level 1, and level 1 occurs iff the sample is the best: every query-stop
    # is a success.
    _, ts = solve(12, 3, symmetric_binary_model(1.0))
    genie = lambda t, is_best: 1 if is_best else 2
    for _ in range(300):
        perm = list(range(1, 13))
        rng.shuffle(perm)
        outcome = run_strategy(ts, relative_ranks(perm), genie)
        not_stopping = (
            outcome.queries_used[:-1] if outcome.stopped_at_query else outcome.queries_used
        )
        if outcome.stopped_at_query:
            assert outcome.queries_used[-1][1] == 1
            assert outcome.success
        assert all(level == 2 for _, level in not_stopping)


def test_query_times_increasing_gated_and_records_only(rng):
    model = random_dyadic_model(rng, 3)
    _, ts = solve(15, 4, model)
    for trial in range(200):
        perm = list(range(1, 16))
        rng.shuffle(perm)
        stream = relative_ranks(perm)
        responses = [rng.randint(1, 3) for _ in range(4)]
        outcome = run_strategy(ts, stream, ScriptedGenie(responses))
        times = [t for t, _ in outcome.queries_used]
        assert times == sorted(set(times))
        assert len(times) <= 4
        for j, t in enumerate(times, start=1):
            assert stream.z[t - 1] == 1
            assert t >= ts.r[j - 1]


def test_decision_rule_matches_value_tables(rng):
    # t >= s_k(m) must agree with p(m)*t/n >= q(m)*A[k][t] at every query event.
    model = random_dyadic_model(rng, 3)
    spec = ProblemSpec(15, 4, model)
    tables = compute_tables(spec, NumericMode.FLOAT64)
    ts = extract_thresholds(tables)
    p = [float(x) for x in model.p]
    q = [float(x) for x in model.q]
    events = 0
    for trial in range(300):
        perm = list(range(1, 16))
        rng.shuffle(perm)
        stream = relative_ranks(perm)
        responses = [rng.randint(1, 3) for _ in range(4)]
        outcome = run_strategy(ts, stream, ScriptedGenie(responses))
        for j, (t, m) in enumerate(outcome.queries_used, start=1):
            by_threshold = t >= ts.s[j - 1][m - 1]
            by_tables = p[m - 1] * t / 15 >= q[m - 1] * tables.a(j, t)
            assert by_threshold == by_tables
            events += 1
    assert events > 100


def test_stop_at_horizon_record_always_succeeds(rng):
    # s_k(m) <= n and r_f <= n, so a record at t=n stops any reached rule, and
    # z_n = 1 means the sample is globally best.
    model = random_dyadic_model(rng, 2)
    _, ts = solve(8, 2, model)
    for trial in range(200):
        perm = list(range(1, 9))
        rng.shuffle(perm)
        stream = relative_ranks(perm)
        if stream.z[-1] != 1:
            continue
        responses = [rng.randint(1, 2) for _ in range(2)]
        outcome = run_strategy(ts, stream, ScriptedGenie(responses))
        if outcome.selected == 8:
            assert outcome.success


def test_exhaustive_walk_agreement_with_oracle_enumeration(rng):
    # Replay every (permutation, scripted responses) pair through run_strategy
    # and aggregate by hand; must equal the oracle's branch-weighted value.
    from secquery import exact_success_probability

    model = random_dyadic_model(rng, 2, bits=4)
    spec = ProblemSpec(5, 2, model)
    tables = compute_tables(spec, NumericMode.EXACT_RATIONAL)
    ts = extract_thresholds(tables)
    total = Fraction(0)
    for perm in itertools.permutations(range(1, 6)):
        stream = relative_ranks(perm)
        best = hindsight_best(perm)
        for responses in itertools.product((1, 2), repeat=2):
            outcome = run_strategy(ts, stream, ScriptedGenie(list(responses)))
            w = Fraction(1, 120)
            for t, m in outcome.queries_used:
                dist = model.p if t == best else model.q
                w *= dist[m - 1]
            # scripted suffixes beyond the queries actually made replay the
            # same episode 2^unused times; split the weight evenly
            w /= 2 ** (2 - len(outcome.queries_used))
            total += w * (1 if outcome.success else 0)
    assert total == exact_success_probability(spec, ts)
