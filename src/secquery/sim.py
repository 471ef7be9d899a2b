"""Seeded Monte Carlo estimation of the strategy's success probability.

Every decision happens at a record, and under a uniform random order the
record indicators are independent with P(record at t) = 1/t (Renyi's record
theorem).  So an episode is sampled record by record, never as a permutation:
it jumps to the first record at or past its stage threshold, and a record is
the overall best iff the next record after it lies past n.  A block takes at
most K + 1 vectorized rounds and O(block size) memory, whatever n is.

Trials are grouped into fixed-size blocks, and block b draws all its
randomness from one counter-based stream (Salmon et al., SC 2011) built on
SplitMix64's mixer mix64 (Steele, Lea & Flood, OOPSLA 2014), with
gamma = 0x9E3779B97F4A7C15 and all arithmetic mod 2**64:

    key(seed, b) = mix64(mix64(seed mod 2**64) + (b + 1) * gamma)
    u_j          = (mix64(key + j * gamma) >> 11) * 2**-53,  j = 0, 1, ...

So the block keys of a seed are the SplitMix64 outputs from state
mix64(seed), and the j-th uniform a block draws is u_j, however its draws
are split into calls.  Because the block layout depends only on the trial
count, results are a pure function of (spec, thresholds, trials, seed) at any
parallelism level, and aggregation is exact integer addition.

Parallel runs fork their workers directly: each child inherits the spec and
thresholds, runs its share of the blocks and stores two integers in its slot
of a shared page, which the parent reads only after the child has exited 0.
Nothing is pickled, and neither a pool module nor numpy.random is imported.

The walk shares no code with the other two walkers of a ``ThresholdSet``
(``policy.run_strategy`` and ``oracle.exact_success_probability``) and imports
neither; thresholds that do not fit the spec are refused by
``ThresholdSet.check_fits``.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .model import ProblemSpec, ValidationError
from .solver import ThresholdSet

BLOCK_TRIALS = 8192

# Largest trial count a run accepts: about 4–6 minutes on one core, which runs
# 2.9–4.3·10⁶ trials/s at n = 1000, K = 10, p = 9/10 on a 2-vCPU VM.  The block
# list is built up front, so a far larger count would run out of memory
# before the first block.
MAX_TRIALS = 10**9

# SplitMix64's increment, the odd integer nearest 2**64 / golden ratio.
# Wrapping arithmetic runs on uint64 arrays only, with np.uint64 operands:
# numpy warns when an integer scalar overflows, and it promotes a Python int
# operand differently in numpy 1 and 2.  Scalars are reduced mod 2**64 as ints.
GAMMA = 0x9E3779B97F4A7C15
# Least number of uniforms a stream makes at once: enough that numpy's
# per-call cost is small against the per-value cost.
_CHUNK = 8192

# A forked worker's (successes, queries), stored in its slot of the shared page.
_SLOT = struct.Struct("=QQ")


@dataclass(frozen=True)
class SimConfig:
    trials: int
    seed: int
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if self.trials > MAX_TRIALS:
            raise ValidationError(f"trials={self.trials} is above MAX_TRIALS={MAX_TRIALS}")
        if self.parallelism < 1:
            raise ValidationError(f"parallelism must be >= 1, got {self.parallelism}")


@dataclass(frozen=True)
class SimResult:
    estimate: float
    stderr: float
    trials: int
    mean_queries: float


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output mixer, applied in place to a uint64 array."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


@cache
def _steps() -> np.ndarray:
    """j * gamma for j < _CHUNK, read-only.  Made on first use: making it at
    import raised the peak RSS of every command by about 0.2 MB."""
    steps = np.arange(_CHUNK, dtype=np.uint64) * np.uint64(GAMMA)
    steps.flags.writeable = False
    return steps


class _Stream:
    """The uniforms u_0, u_1, ... of one block, served through ``random(size)``.

    Values are made in whole chunks of ``_CHUNK``.  A call is served from the
    rest of the current chunk and, when that runs short, from the chunks that
    follow it, so the j-th value served is u_j however the calls are sized.
    A call may return a view of a chunk; no value in it is served again.
    """

    def __init__(self, key: int) -> None:
        self._key = key
        self._made = 0  # values made so far: the next chunk starts at u_made
        self._chunk = np.empty(0)
        self._used = 0

    def random(self, size: int) -> np.ndarray:
        rest = self._chunk[self._used :]
        if size <= rest.size:
            self._used += size
            return rest[:size]
        need = size - rest.size
        starts = range(self._made, self._made + need, _CHUNK)
        bases = np.array([(self._key + j * GAMMA) % 2**64 for j in starts], dtype=np.uint64)
        z = (bases[:, None] + _steps()).ravel()  # key + j * gamma for each j made now
        _mix64(z)
        z >>= np.uint64(11)
        self._chunk, self._used = z * 2.0**-53, need
        self._made += z.size
        return np.concatenate((rest, self._chunk[:need]))


def _block_rng(seed: int, block_index: int) -> _Stream:
    """The stream of block ``block_index`` in a run seeded ``seed``."""
    state = _mix64(np.array([seed % 2**64], dtype=np.uint64))
    key = _mix64(state + np.uint64((block_index + 1) * GAMMA % 2**64))
    return _Stream(int(key[0]))


def _next_record(rng: _Stream, pos: np.ndarray, n: int) -> np.ndarray:
    """First record after each time in pos, or n + 1 if there is none up to n.

    P(no record in pos+1..x) = pos/x, the law of floor(pos/U) + 1 for U uniform
    on (0, 1].  The quotient is compared with n as a float: a tiny U overflows int64.
    """
    x = pos / (1.0 - rng.random(pos.size))
    return np.where(x < n, np.floor(x), n).astype(np.int64) + 1


def _simulate_block(
    spec: ProblemSpec, thresholds: ThresholdSet, seed: int, block: tuple[int, int]
) -> tuple[int, int]:
    """(successes, queries) of one block of episodes."""
    block_index, block_size = block
    n, K, M = spec.n, spec.K, spec.model.M
    rng = _block_rng(seed, block_index)
    gate = np.array(thresholds.gates, dtype=np.int64)
    s_arr = np.asarray(thresholds.s, dtype=np.int64).reshape(K, M)
    p, q = spec.model.float_weights()
    cp, cq = np.cumsum(p), np.cumsum(q)

    # cand: the record each live episode acts on at stage k (query k, or the
    # final stop at k = K+1).  Every live episode is at the same stage.
    cand = _next_record(rng, np.full(block_size, gate[0] - 1), n)
    successes = queries = 0
    for k in range(1, K + 2):
        cand = cand[cand <= n]
        if not cand.size:
            break
        after = _next_record(rng, cand, n)
        is_best = after > n  # the overall best is the last record
        if k > K:
            successes += int(np.count_nonzero(is_best))
            break
        u = rng.random(cand.size)
        lev = np.where(is_best, cp.searchsorted(u, "right"), cq.searchsorted(u, "right"))
        np.clip(lev, 0, M - 1, out=lev)
        stop = cand >= s_arr[k - 1, lev]
        successes += int(np.count_nonzero(stop & is_best))
        queries += int(cand.size)
        # The record after cand is already drawn: it is the next candidate when
        # it is at or past the next gate.  Otherwise that draw says nothing
        # about times at or past the gate, so the candidate is a fresh draw.
        cand = after[~stop]
        early = cand < gate[k]
        cand[early] = _next_record(rng, np.full(int(np.count_nonzero(early)), gate[k] - 1), n)
    return successes, queries


def _fork_workers(
    run_block: Callable[..., tuple[int, int]], blocks: list[tuple[int, int]], workers: int
) -> list[tuple[int, int]]:
    """(successes, queries) summed over each of ``workers`` forked children.

    The results come back through one shared anonymous page of ``workers``
    slots.  Child w runs blocks w, w + workers, w + 2*workers, ... and stores
    its two sums in slot w.  It leaves by os._exit, so it never returns into
    the caller's code and flushes no buffer it inherited; a child that raises
    (a count that does not fit its unsigned slot raises struct.error) writes
    its traceback to fd 2 and exits with status 1.  The parent runs no block.
    It reaps every child before it raises anything: ChildProcessError for a
    child that exits nonzero or is killed by a signal.  A slot is read only
    once every child has exited 0.

    Forking is safe only while the caller has one thread.  numpy's OpenBLAS
    pool stops its threads in its own fork handler; a caller that runs
    threads of its own gets Python's fork warning (3.12+).
    """
    import mmap  # only a forked run needs it

    with mmap.mmap(-1, _SLOT.size * workers) as sums:
        pids = []
        try:
            for w in range(workers):
                pid = os.fork()
                if pid == 0:
                    _child(run_block, blocks[w::workers], sums, w)
                pids.append(pid)
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        for pid, code in zip(pids, codes):
            if code < 0:
                raise ChildProcessError(f"Monte Carlo worker {pid} was killed by signal {-code}")
            if code > 0:
                raise ChildProcessError(f"Monte Carlo worker {pid} exited with status {code}")
        return list(_SLOT.iter_unpack(sums))


def _child(
    run_block: Callable[..., tuple[int, int]],
    blocks: list[tuple[int, int]],
    sums: mmap.mmap,
    slot: int,
) -> None:
    """Body of a forked worker: run the blocks, store their two sums in a slot of sums, exit."""
    status = 1
    try:
        results = [run_block(b) for b in blocks]
        successes, queries = sum(r[0] for r in results), sum(r[1] for r in results)
        _SLOT.pack_into(sums, _SLOT.size * slot, successes, queries)
        status = 0
    except BaseException:  # whatever the child raised, it must not return into the caller
        import traceback  # only a failing child needs it; no command imports it otherwise

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def monte_carlo(spec: ProblemSpec, thresholds: ThresholdSet, cfg: SimConfig) -> SimResult:
    """Estimate the success probability over cfg.trials independent episodes.

    Blocks run on min(cfg.parallelism, usable CPUs, blocks) workers, where
    usable CPUs are those this process may run on.  With one worker, or where
    os.fork does not exist, every block runs in this process; otherwise each
    worker is a forked child (see _fork_workers) and this process only adds
    their integer sums, so the result does not depend on the worker count.
    A failed worker raises ChildProcessError.
    """
    thresholds.check_fits(spec)
    run_block = partial(_simulate_block, spec, thresholds, cfg.seed)
    blocks = [
        (i // BLOCK_TRIALS, min(BLOCK_TRIALS, cfg.trials - i))
        for i in range(0, cfg.trials, BLOCK_TRIALS)
    ]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cfg.parallelism, cpus or 1, len(blocks)) if hasattr(os, "fork") else 1
    if workers == 1:
        results = [run_block(b) for b in blocks]
    else:
        results = _fork_workers(run_block, blocks, workers)
    successes = sum(r[0] for r in results)
    queries = sum(r[1] for r in results)
    estimate = successes / cfg.trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / cfg.trials)
    return SimResult(
        estimate=estimate,
        stderr=stderr,
        trials=cfg.trials,
        mean_queries=queries / cfg.trials,
    )
