import math
import os
import random
import re
import signal
import statistics
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from helpers import solve

from secquery import (
    HorizonMismatch,
    NumericMode,
    ProblemSpec,
    ResponseModel,
    SimConfig,
    ValidationError,
    compute_tables,
    exact_success_probability,
    extract_thresholds,
    monte_carlo,
    relative_ranks,
    run_strategy,
    symmetric_binary_model,
)
from secquery import sim
from secquery.sim import BLOCK_TRIALS, _block_rng, _next_record


def test_next_record_tail_law():
    # P(first record after pos exceeds x) = pos/x; past n the draw reads n + 1.
    rng = _block_rng(17, 0)
    draws = 200_000
    for pos, x, n in ((1, 2, 10**6), (1, 10, 10**6), (5, 7, 7), (50, 200, 10**6), (999, 1000, 1000)):
        nxt = _next_record(rng, np.full(draws, pos), n)
        assert nxt.min() > pos and nxt.max() <= n + 1
        beyond = int(np.count_nonzero(nxt > x))
        sigma = math.sqrt(draws * (pos / x) * (1 - pos / x))
        assert abs(beyond - draws * pos / x) <= 4 * sigma, (pos, x, beyond)


def test_next_record_extreme_uniforms():
    class Fixed:
        def __init__(self, value):
            self.value = value

        def random(self, size):
            return np.full(size, self.value)

    pos = np.array([0, 1, 10**6])
    # U = 1 puts the next record right after pos.
    assert _next_record(Fixed(0.0), pos, 10**7).tolist() == [1, 2, 10**6 + 1]
    # U = 2**-53: 10**6 / U is past the int64 range, and no record is left up to n.
    assert _next_record(Fixed(1 - 2**-53), pos, 10**7).tolist() == [1, 10**7 + 1, 10**7 + 1]


def test_sim_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(trials=0, seed=1)
    with pytest.raises(ValidationError):
        SimConfig(trials=10, seed=1, parallelism=0)


def test_monte_carlo_horizon_mismatch():
    two = symmetric_binary_model(0.8)
    three = ResponseModel(3, (0.5, 0.25, 0.25), (0.25, 0.25, 0.5))
    cfg = SimConfig(trials=10, seed=1)
    # (thresholds solved for, spec run under, field named in the error)
    cases = [
        ((6, 1, two), (7, 1, two), "n"),
        ((6, 1, two), (6, 2, two), "K"),
        ((6, 1, two), (6, 1, three), "M"),
        # without the K check this runs to an estimate, not an error
        ((50, 3, two), (50, 2, three), "K"),
        ((50, 2, three), (50, 2, two), "M"),
    ]
    for solved_for, run_under, field in cases:
        _, ts = solve(*solved_for)
        with pytest.raises(HorizonMismatch, match=f"{field}="):
            monte_carlo(ProblemSpec(*run_under), ts, cfg)


def test_monte_carlo_parallelism_invariance():
    model = symmetric_binary_model(0.8)
    spec = ProblemSpec(20, 3, model)
    _, ts = solve(20, 3, model)
    cfg1 = SimConfig(trials=50_000, seed=77, parallelism=1)
    cfg8 = SimConfig(trials=50_000, seed=77, parallelism=8)
    r1, r8 = monte_carlo(spec, ts, cfg1), monte_carlo(spec, ts, cfg8)
    assert r1 == r8
    assert r1 == monte_carlo(spec, ts, cfg1)  # repeatable


def test_monte_carlo_pool_capped_by_cpus_and_blocks(monkeypatch):
    pool_sizes = []

    def serial_pool(run_block, blocks, workers):
        pool_sizes.append(workers)
        return [run_block(b) for b in blocks]

    monkeypatch.setattr(sim, "_fork_workers", serial_pool)
    model = symmetric_binary_model(0.8)
    spec = ProblemSpec(20, 3, model)
    _, ts = solve(20, 3, model)
    serial = monte_carlo(spec, ts, SimConfig(trials=3 * BLOCK_TRIALS, seed=5))
    huge = SimConfig(trials=3 * BLOCK_TRIALS, seed=5, parallelism=10_000)
    for cpus in (2, 64, None):
        if cpus is None:  # no affinity call on this platform, and no CPU count
            monkeypatch.delattr(sim.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(sim.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(
                sim.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
            )
        assert monte_carlo(spec, ts, huge) == serial
    # 2 CPUs cap the pool at 2, 64 CPUs at the 3 blocks; an unknown count runs in process.
    assert pool_sizes == [2, 3]


def test_monte_carlo_without_fork_runs_in_process(monkeypatch):
    monkeypatch.delattr(sim.os, "fork")
    model = symmetric_binary_model(0.8)
    spec = ProblemSpec(20, 3, model)
    _, ts = solve(20, 3, model)
    cfg = SimConfig(trials=3 * BLOCK_TRIALS, seed=5, parallelism=2)
    assert monte_carlo(spec, ts, cfg) == monte_carlo(spec, ts, SimConfig(cfg.trials, cfg.seed))


@pytest.mark.parametrize(
    "failure, message",
    [
        ("raise", "exited with status 1"),
        ("kill", f"was killed by signal {signal.SIGKILL.value}"),
        ("malformed", "exited with status 1"),
    ],
)
def test_monte_carlo_worker_failure(monkeypatch, capfd, failure, message):
    parent = os.getpid()

    def failing_block(*args):
        if os.getpid() == parent:
            raise AssertionError("a block ran in the parent process")
        if failure == "raise":
            raise RuntimeError("block failed in the worker")
        if failure == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        return (-1, 0)

    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sim, "_simulate_block", failing_block)
    model = symmetric_binary_model(0.8)
    spec = ProblemSpec(20, 3, model)
    _, ts = solve(20, 3, model)
    cfg = SimConfig(trials=4 * BLOCK_TRIALS, seed=5, parallelism=2)
    with pytest.raises(ChildProcessError, match=re.escape(message)):
        monte_carlo(spec, ts, cfg)
    # Every child was reaped before the error was raised.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    err = capfd.readouterr().err
    assert ("RuntimeError: block failed in the worker" in err) == (failure == "raise")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("failure", [None, "raise", "kill", "malformed"])
def test_forked_run_leaves_parent_fds_as_they_were(monkeypatch, failure):
    simulate_block = sim._simulate_block

    def block(*args):
        if failure == "raise":
            raise RuntimeError("block failed in the worker")
        if failure == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if failure == "malformed":
            return (-1, 0)
        return simulate_block(*args)

    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sim, "_simulate_block", block)
    model = symmetric_binary_model(0.8)
    spec = ProblemSpec(20, 3, model)
    _, ts = solve(20, 3, model)
    cfg = SimConfig(trials=4 * BLOCK_TRIALS, seed=5, parallelism=2)
    before = sorted(os.listdir("/proc/self/fd"))
    if failure is None:
        assert monte_carlo(spec, ts, cfg).trials == cfg.trials
    else:
        with pytest.raises(ChildProcessError):
            monte_carlo(spec, ts, cfg)
    assert sorted(os.listdir("/proc/self/fd")) == before


def test_forked_workers_flush_no_inherited_stdout():
    # Text buffered in the parent before the fork is written once, by the parent.
    code = (
        "import sys, secquery.sim as sim\n"
        "from secquery import ProblemSpec, SimConfig, symmetric_binary_model\n"
        "from secquery import compute_tables, extract_thresholds\n"
        "sim.os.sched_getaffinity = lambda pid: {0, 1}\n"
        "spec = ProblemSpec(20, 3, symmetric_binary_model(0.8))\n"
        "ts = extract_thresholds(compute_tables(spec))\n"
        "sys.stdout.write('buffered;')\n"
        "cfg = SimConfig(trials=2 * sim.BLOCK_TRIALS, seed=5, parallelism=2)\n"
        "print(sim.monte_carlo(spec, ts, cfg).trials)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (out.returncode, out.stdout, out.stderr) == (0, f"buffered;{2 * BLOCK_TRIALS}\n", "")


def test_monte_carlo_query_accounting():
    model = symmetric_binary_model(0.7)
    for K in (0, 2):
        spec = ProblemSpec(15, K, model)
        _, ts = solve(15, K, model)
        res = monte_carlo(spec, ts, SimConfig(trials=20_000, seed=3))
        assert res.mean_queries <= K
        if K == 0:
            assert res.mean_queries == 0.0
        assert 0 <= res.estimate <= 1 and res.stderr >= 0


def test_monte_carlo_matches_exact_enumeration_asymmetric():
    # Cross-validates the vectorized walker against the exact branch-weighted
    # value on a lopsided 3-level model.
    model = ResponseModel(
        3, (Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)), (Fraction(1, 10), Fraction(2, 5), Fraction(1, 2))
    )
    spec = ProblemSpec(6, 2, model)
    tables = compute_tables(spec, NumericMode.EXACT_RATIONAL)
    ts = extract_thresholds(tables)
    truth = float(exact_success_probability(spec, ts))
    res = monte_carlo(spec, ts, SimConfig(trials=400_000, seed=11))
    assert abs(res.estimate - truth) <= 4 * res.stderr


def test_monte_carlo_matches_permutation_reference():
    # The record-jump sampler against run_strategy on whole random permutations.
    # Here r_2 > r_1, so continuing after a query can jump past the drawn record.
    model = ResponseModel(
        3, (Fraction(3, 5), Fraction(1, 4), Fraction(3, 20)), (Fraction(1, 10), Fraction(3, 10), Fraction(3, 5))
    )
    spec = ProblemSpec(30, 2, model)
    _, ts = solve(30, 2, model)
    assert ts.r[1] > ts.r[0]
    rng = random.Random(2024)
    p, q = [float(x) for x in model.p], [float(x) for x in model.q]

    def genie(t, is_best):
        return rng.choices((1, 2, 3), weights=p if is_best else q)[0]

    episodes = 20_000
    perm = list(range(1, 31))
    wins, used = 0, []
    for _ in range(episodes):
        rng.shuffle(perm)
        outcome = run_strategy(ts, relative_ranks(perm), genie)
        wins += outcome.success
        used.append(len(outcome.queries_used))
    res = monte_carlo(spec, ts, SimConfig(trials=400_000, seed=8))
    # Under the null hypothesis both samples share one variance.
    scale = math.sqrt(1 / episodes + 1 / res.trials)
    ref = wins / episodes
    assert abs(res.estimate - ref) <= 4 * math.sqrt(ref * (1 - ref)) * scale
    assert abs(res.mean_queries - statistics.fmean(used)) <= 4 * statistics.pstdev(used) * scale


def test_monte_carlo_classical_baseline_million():
    model = symmetric_binary_model(0.5)
    spec = ProblemSpec(100, 0, model)
    _, ts = solve(100, 0, model)
    res = monte_carlo(spec, ts, SimConfig(trials=1_000_000, seed=271828))
    assert abs(res.estimate - 0.37104) <= 4 * res.stderr
    assert res.mean_queries == 0.0


def test_monte_carlo_small_instance_vs_exact_million():
    model = ResponseModel(
        2, (Fraction(4, 5), Fraction(1, 5)), (Fraction(1, 5), Fraction(4, 5))
    )
    spec = ProblemSpec(5, 1, model)
    tables = compute_tables(spec, NumericMode.EXACT_RATIONAL)
    ts = extract_thresholds(tables)
    truth = float(exact_success_probability(spec, ts))
    res = monte_carlo(spec, ts, SimConfig(trials=1_000_000, seed=31337))
    assert abs(res.estimate - truth) <= 4 * res.stderr


def test_monte_carlo_seed_sweep_coverage():
    # |estimate - A00| <= 4*stderr for (at least) 49 of 50 seeds at 1e5 trials.
    model = symmetric_binary_model(0.9)
    spec = ProblemSpec(100, 10, model)
    tables, ts = solve(100, 10, model)
    a00 = float(tables.a(0, 0))
    hits = 0
    for seed in range(50):
        res = monte_carlo(spec, ts, SimConfig(trials=100_000, seed=seed))
        if abs(res.estimate - a00) <= 4 * res.stderr:
            hits += 1
    assert hits >= 49
