"""In-process half of the secquery benchmark.

``run.py`` starts this file in a child interpreter with ``PYTHONPATH=src``, so
that the benchmark process itself never imports the package or numpy.  Every
subcommand writes one JSON document to the path given as its last argument
(``block`` prints its estimate instead; its parent reads the memory use).

    refs JOBS OUT            exact references for the output gates
    trace PLAN OUT           traced and untraced in-process passes of cli.main
    probe SEED TINY OUT      per-layer probes: solver grid, Monte Carlo, policy
    block N SEED             one 8192-trial Monte Carlo block at horizon N
    numpy-loaded CONFIG OUT  whether an in-process solve leaves numpy loaded
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

# Only cli is imported up front: ``numpy-loaded`` must see what cli alone loads.
from secquery import cli

BLOCK_TRIALS = 8192  # trials per Monte Carlo block: the unit of sim.blocks and the probes


def _dump(doc: dict, path: str) -> None:
    Path(path).write_text(json.dumps(doc))


# -- references --------------------------------------------------------------


def _tie_range(n: int, first: int, margin, tol: float) -> list[int]:
    """Times a float threshold may take when it differs from the exact one.

    ``first`` is the exact least time with ``margin(t) >= 0``.  A float
    threshold f < first reads the times f..first-1 as satisfied, and f > first
    reads first..f-1 as not satisfied; either is a tie within rounding when
    every exact margin it misreads is at most ``tol`` in size.
    """
    lo = first
    while lo > 1 and abs(margin(lo - 1)) <= tol:
        lo -= 1
    hi = first
    while hi < n and abs(margin(hi)) <= tol:
        hi += 1
    return [lo, hi]


def _solve_reference(path: str) -> dict:
    from secquery import NumericMode, compute_tables, extract_thresholds, read_config

    spec = read_config(path, NumericMode.EXACT_RATIONAL)
    tables = compute_tables(spec, NumericMode.EXACT_RATIONAL)
    ts = extract_thresholds(tables)
    n, K, M = spec.n, spec.K, spec.model.M
    p, q = spec.model.p, spec.model.q
    tol = n * 2.0**-52  # n rounding steps of values in [0, 1]

    def x(t: int) -> Fraction:
        return Fraction(t, n)

    return {
        "n": n,
        "K": K,
        "M": M,
        "r_f": _tie_range(n, ts.r_f, lambda t: x(t) - tables.a(K, t), tol),
        "r": [
            _tie_range(n, ts.r[k - 1], lambda t, k=k: tables.u(k, t) - tables.a(k - 1, t), tol)
            for k in range(1, K + 1)
        ],
        "s": [
            [
                _tie_range(
                    n,
                    ts.s[k - 1][m],
                    lambda t, k=k, m=m: Fraction(p[m]) * x(t) - Fraction(q[m]) * tables.a(k, t),
                    tol,
                )
                for m in range(M)
            ]
            for k in range(1, K + 1)
        ],
        "exact": [ts.r_f, list(ts.r), [list(row) for row in ts.s]],
        "success_probability": float(ts.success_probability),
    }


def cmd_refs(jobs_path: str, out: str) -> None:
    from secquery import NumericMode
    from secquery.solver import classical_threshold

    jobs = json.loads(Path(jobs_path).read_text())
    _dump(
        {
            "solve": {path: _solve_reference(path) for path in jobs["solve"]},
            "classical": {
                str(n): float(classical_threshold(n, NumericMode.EXACT_RATIONAL)[1])
                for n in jobs["classical"]
            },
        },
        out,
    )


# -- traced run --------------------------------------------------------------


class Tracer:
    """Records spans {id, name, start, end, parent, invocation} in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = {"solver.cells": 0, "sim.blocks": 0, "oracle.identity_cases": 0}
        self.invocation = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append([sid, name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                               self.invocation])
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid][2:4] = [start, end]
            self._count(name, args, result)
            return result

        return traced

    def _count(self, name: str, args: tuple, result) -> None:
        if name == "compute_tables":
            spec = args[0]
            self.counts["solver.cells"] += (spec.K + 1) * (spec.n + 1)
        elif name == "monte_carlo":
            self.counts["sim.blocks"] += math.ceil(args[2].trials / BLOCK_TRIALS)
        elif name in ("verify_lemma1", "verify_lemma2"):
            self.counts["oracle.identity_cases"] += sum(c.cases for c in result.checks)


def _invoke(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception:  # the pass must go on; the parent gates rc
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()[-2000:]


def _run_pass(invocations: list[list[str]], names: list[str], tracer: Tracer | None) -> dict:
    """Run the invocations once in process.

    With a tracer, each of ``names`` that cli still imports is wrapped in a
    span named after it, and so is cli.main, as ``main``.
    """
    originals = {name: getattr(cli, name) for name in names if hasattr(cli, name)}
    main = cli.main
    if tracer is not None:
        main = tracer.wrap("main", main)
        for name, fn in originals.items():
            if name != "main":
                setattr(cli, name, tracer.wrap(name, fn))
    outputs = []
    start = time.perf_counter()
    try:
        for i, argv in enumerate(invocations):
            if tracer is not None:
                tracer.invocation = i
            outputs.append(_invoke(main, argv))
    finally:
        wall = time.perf_counter() - start
        for name, fn in originals.items():
            setattr(cli, name, fn)
    doc = {"wall": wall, "outputs": outputs}
    if tracer is not None:
        checks = sum(
            len(json.loads(out)["checks"])
            for argv, (rc, out, _) in zip(invocations, outputs)
            if argv[0] == "verify" and rc in (0, 2)
        )
        doc.update(spans=tracer.spans, counts={**tracer.counts, "oracle.checks": checks})
    return doc


def cmd_trace(plan_path: str, out: str) -> None:
    """Alternate traced and untraced passes over the plan until time is up.

    With ``seconds`` 0 only one traced pass runs, to count work.  Only the
    first traced pass keeps its outputs, for the parent's gates.
    """
    plan = json.loads(Path(plan_path).read_text())
    deadline = time.perf_counter() + plan["seconds"]
    traced, untraced = [], []
    while not traced or time.perf_counter() < deadline:
        done = _run_pass(plan["invocations"], plan["traced"], Tracer())
        if traced:
            del done["outputs"]
        traced.append(done)
        if plan["seconds"]:
            untraced.append(_run_pass(plan["invocations"], [], None)["wall"])
    _dump({"traced": traced, "untraced_walls": untraced}, out)


# -- probes ------------------------------------------------------------------


def _median_time(fn, budget_s: float = 0.3, max_reps: int = 7) -> float:
    """Median wall time of fn() over repetitions that fit in about budget_s."""
    times: list[float] = []
    spent = 0.0
    while not times or (spent < budget_s and len(times) < max_reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return statistics.median(times)


def _thresholds(n: int, K: int):
    """Spec and optimal float thresholds of the fixed probe model.

    The probe model is the symmetric two-level expert with reliability 9/10.
    """
    import secquery as sq

    spec = sq.ProblemSpec(n, K, sq.symmetric_binary_model(0.9))
    return spec, sq.extract_thresholds(sq.compute_tables(spec))


def _solver_grid(tiny: bool) -> dict:
    import secquery as sq

    grid = {
        "solver.tables_float.n100_k10_s": (100, 10, False),
        "solver.tables_float.n1000_k10_s": (1000, 10, False),
        "solver.tables_float.n1000_k100_s": (1000, 100, False),
        "solver.tables_float.n10000_k10_s": (10000, 10, False),
        "solver.tables_rational.n100_k10_s": (100, 10, True),
        "solver.tables_rational.n1000_k10_s": (1000, 10, True),
    }
    result = {}
    for name, (n, K, exact) in grid.items():
        if tiny:
            n, K = min(n, 60), min(K, 5)
        mode = sq.NumericMode.EXACT_RATIONAL if exact else sq.NumericMode.FLOAT64
        p = Fraction(9, 10) if exact else 0.9
        spec = sq.ProblemSpec(n, K, sq.symmetric_binary_model(p))
        result[name] = _median_time(lambda: sq.compute_tables(spec, mode))
    return result


def _sim_probe(seed: int, tiny: bool) -> dict:
    import secquery as sq

    def rate(n: int, blocks: int, parallelism: int) -> float:
        spec, ts = _thresholds(n, 10)
        cfg = sq.SimConfig(trials=blocks * BLOCK_TRIALS, seed=seed, parallelism=parallelism)
        start = time.perf_counter()
        sq.monte_carlo(spec, ts, cfg)
        return cfg.trials / (time.perf_counter() - start)

    big = 200 if tiny else 1000
    serial = rate(big, 2, 1)
    parallel = rate(big, 2, 2)
    return {
        "sim.trials_per_s.n100": rate(100, 1 if tiny else 4, 1),
        "sim.trials_per_s.n1000": serial,
        "sim.parallel_efficiency": parallel / (2 * serial),
    }


def _policy_probe(seed: int, tiny: bool) -> dict:
    import secquery as sq

    rng = random.Random(seed)
    _, ts = _thresholds(100, 10)

    def genie(t: int, is_best: bool) -> int:
        """Level 1 ("best") with probability 9/10 when right, 1/10 when wrong."""
        return 1 if rng.random() < (0.9 if is_best else 0.1) else 2

    def shuffled(n: int) -> list[int]:
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        return perm

    episodes = 50 if tiny else 400
    streams = [sq.relative_ranks(shuffled(100)) for _ in range(episodes)]
    start = time.perf_counter()
    for stream in streams:
        sq.run_strategy(ts, stream, genie)
    rate = episodes / (time.perf_counter() - start)
    big = shuffled(200 if tiny else 1000)
    return {
        "policy.run_strategy_episodes_per_s": rate,
        "policy.relative_ranks_s": _median_time(lambda: sq.relative_ranks(big), budget_s=0.2),
    }


def cmd_probe(seed: str, tiny: str, out: str) -> None:
    small = tiny == "1"
    _dump(
        {
            **_solver_grid(small),
            **_sim_probe(int(seed), small),
            **_policy_probe(int(seed), small),
        },
        out,
    )


def cmd_block(n: str, seed: str) -> None:
    import secquery as sq

    spec, ts = _thresholds(int(n), 10)
    print(sq.monte_carlo(spec, ts, sq.SimConfig(trials=BLOCK_TRIALS, seed=int(seed))).estimate)


def cmd_numpy_loaded(config: str, out: str) -> None:
    _invoke(cli.main, ["solve", "--config", config])
    _dump({"import.numpy_loaded": int("numpy" in sys.modules)}, out)


COMMANDS = {
    "refs": cmd_refs,
    "trace": cmd_trace,
    "probe": cmd_probe,
    "block": cmd_block,
    "numpy-loaded": cmd_numpy_loaded,
}

if __name__ == "__main__":
    COMMANDS[sys.argv[1]](*sys.argv[2:])
