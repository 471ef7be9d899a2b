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
from secquery.sim import BLOCK_TRIALS, GAMMA, _block_rng, _mix64, _next_record


def _reference_uniforms(seed, block_index, count):
    """The block's stream from its definition, in Python ints mod 2**64."""

    def mix64(z):
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
        return z ^ z >> 31

    key = mix64((mix64(seed % 2**64) + (block_index + 1) * GAMMA) % 2**64)
    return [(mix64((key + j * GAMMA) % 2**64) >> 11) * 2**-53 for j in range(count)]


def test_mix64_is_splitmix64():
    # SplitMix64's published first outputs from state 1234567: output i is
    # mix64(state + i * gamma).
    z = np.uint64(1234567) + np.arange(1, 6, dtype=np.uint64) * np.uint64(GAMMA)
    assert _mix64(z).tolist() == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821,
    ]


@pytest.mark.parametrize(
    "seed, block_index, bits",
    [
        (0, 0, [0x9043044DFE79A, 0x14E0DBA5E9A32F, 0x16705460BE8829, 0xC63522A9F757E]),
        (42, 3, [0xB0042C3E590C6, 0x1EE554E56A00F7, 0x9BD49BB9A2D04, 0x7116D0DCB4157]),
        (-7, 0, [0xDE122BF8C214D, 0x1CC97B152BEE66, 0x1479B4F185EE62, 0x11ACC5615CA0D9]),
        (2**63 + 11, 1, [0x8E8C6FD7A9DF4, 0x1735AC93023EA9, 0xE860BBA1B288C, 0xBB3C302DC24DF]),
    ],
)
def test_block_stream_known_answers(seed, block_index, bits):
    # The 53 bits of each of the first uniforms, pinned: any change of the
    # stream changes every seeded simulate output.
    u = _block_rng(seed, block_index).random(4)
    assert u.dtype == np.float64
    assert [int(x * 2**53) for x in u] == bits
    # A seed is read mod 2**64.
    assert _block_rng(seed + 2**64, block_index).random(4).tolist() == u.tolist()


def test_block_stream_does_not_depend_on_call_sizes():
    # The j-th draw is stream value j, across chunk refills and empty calls.
    sizes = (1, 2, 0, 8188, 1, 3, 20_000, 8192, 0, 5, 16_384)
    whole = _block_rng(-1, 9).random(sum(sizes))
    rng = _block_rng(-1, 9)
    parts = np.concatenate([rng.random(size) for size in sizes])
    assert parts.tolist() == whole.tolist()
    assert whole.tolist() == _reference_uniforms(-1, 9, whole.size)


def test_block_stream_wraps_without_warnings():
    # Warnings are errors here (pyproject.toml) and in CI: a wrap-around on a
    # numpy integer scalar would warn.
    for seed, block_index in ((2**64 - 1, 0), (-(2**63), 2**40), (2**70 + 3, 2**62)):
        u = _block_rng(seed, block_index).random(10_000)
        assert u.tolist()[:3] == _reference_uniforms(seed, block_index, 3)
        assert 0 <= u.min() and u.max() < 1


def test_block_stream_is_uniform():
    # Chi-square over 64 equal bins; 63 degrees of freedom put P(chi2 > 120) near 1e-5.
    draws = 1 << 18
    for seed, block_index in ((0, 0), (12345, 77)):
        counts = np.bincount((_block_rng(seed, block_index).random(draws) * 64).astype(np.int64), minlength=64)
        expected = draws / 64
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert counts.size == 64 and chi2 < 120, (seed, block_index, chi2)


def test_adjacent_blocks_and_seeds_share_no_values():
    draws = 1 << 16
    base = _block_rng(5, 10).random(draws)
    for seed, block_index in ((5, 11), (5, 9), (6, 10), (4, 10)):
        other = _block_rng(seed, block_index).random(draws)
        assert not set(base.tolist()) & set(other.tolist()), (seed, block_index)
        # |r| of two independent samples has standard deviation 1/sqrt(draws).
        r = float(np.corrcoef(base, other)[0, 1])
        assert abs(r) < 5 / math.sqrt(draws), (seed, block_index, r)


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
