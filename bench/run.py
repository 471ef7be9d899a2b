#!/usr/bin/env python3
"""Benchmark of the secquery command line, end to end and layer by layer.

Run from the root of a checkout (stdlib only; the package is run from src/):

    python3 bench/run.py --workload cli-small --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: it runs a fixed cycle of
``python -m secquery ...`` invocations, one at a time, and starts the next
only after the previous one has exited.  Whole cycles repeat until
``--seconds`` have passed, so every run has the same mix of commands.  Every
output is checked; a failed or wrong invocation counts in ``failed`` and
takes the child time-out as its time.  All inputs come from ``--seed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints per-layer
metrics instead: self times from a traced in-process run of the first cycle
for half of ``--seconds`` (plus one small call of each command, so every layer
has spans on every workload), and probes of single layers.  The last stdout line is the JSON
result; a fuller result file (invocations, spans, work counts, machine facts)
goes to ``.bench_run/results/``.  ``--tiny`` shrinks every size for the smoke
test; its numbers are not comparable with full runs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib.metadata import version
from pathlib import Path
from typing import Callable

ROOT = Path.cwd()
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "table2.csv"
CHILD = Path(__file__).resolve().parent / "child.py"
RUN_DIR = ROOT / ".bench_run"

MEMORY_CEILING = 3 << 30  # bytes of address space per child; n=10^4 blocks need ~1.5 GB
CHILD_TIMEOUT_S = 40.0
LOOP_OVERRUN_S = 30.0  # stop mid-cycle once the loop is this far past --seconds
SETUP_REPEATS = 3
# Cycles of fresh inputs per run, which the loop takes in turn.  Where one
# input's cost varies a lot (verify's random models), more of them are averaged.
VARIANTS = {"cli-small": 4, "solve-large": 4, "simulate": 8, "verify": 24}
IMPORT_REPEATS = 5
GAP_LIMIT = 6.0  # |gap_stderr_units| bound of the simulate CLI tests
PARALLELISM = min(2, os.cpu_count() or 1)

END_TO_END_UNITS = {"setup_s": "s", "cmd_p50_s": "s", "solves_per_s": "1/s", "peak_rss_mb": "MB"}
# Traced function -> per-layer metric of its self time.  Except for cli.main,
# these are the names cli imports from the other modules.
SPAN_METRICS = {
    "main": "cli.self_s",
    "read_config": "model.read_config_s",
    "compute_tables": "solver.compute_tables_s",
    "extract_thresholds": "solver.extract_thresholds_s",
    "pre_query_stop_thresholds": "solver.pre_query_stop_thresholds_s",
    "classical_threshold": "solver.classical_threshold_s",
    "thresholds_to_json": "solver.export_s",
    "tables_to_csv": "solver.export_s",
    "monte_carlo": "sim.monte_carlo_s",
    "verify_lemma1": "oracle.verify_lemma1_s",
    "verify_lemma2": "oracle.verify_lemma2_s",
    "exact_success_probability": "oracle.exact_success_probability_s",
    "exhaustive_optimal": "oracle.exhaustive_optimal_s",
}


PER_LAYER_UNITS = {
    **dict.fromkeys(SPAN_METRICS.values(), "s"),
    "import.python_startup_s": "s",
    "import.secquery_s": "s",
    "import.numpy_s": "s",
    "import.numpy_loaded": "bool",
    "solver.tables_float.n100_k10_s": "s",
    "solver.tables_float.n1000_k10_s": "s",
    "solver.tables_float.n1000_k100_s": "s",
    "solver.tables_float.n10000_k10_s": "s",
    "solver.tables_rational.n100_k10_s": "s",
    "solver.tables_rational.n1000_k10_s": "s",
    "solver.cells": "count",
    "solver.cells_per_s": "1/s",
    "sim.trials_per_s.n100": "1/s",
    "sim.trials_per_s.n1000": "1/s",
    "sim.blocks": "count",
    "sim.parallel_efficiency": "ratio",
    "sim.block_peak_rss_mb.n1000": "MB",
    "sim.block_peak_rss_mb.n10000": "MB",
    "policy.run_strategy_episodes_per_s": "1/s",
    "policy.relative_ranks_s": "s",
    "oracle.identity_cases": "count",
    "oracle.checks": "count",
    "trace.overhead_s": "s",
}


# -- children ----------------------------------------------------------------


@dataclass
class Child:
    rc: int
    wall_s: float
    rss_mb: float
    out: str
    err: str


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING, MEMORY_CEILING))


def spawn(argv: list[str], work: Path, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run argv to exit under the memory ceiling; time it from spawn to exit.

    The peak RSS comes from os.wait4, so it covers the child and the workers
    it waited for.  A child that outlives ``timeout`` is killed and gets rc -9.
    """
    out_path, err_path = work / "child.out", work / "child.err"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=env, cwd=ROOT, preexec_fn=_limit_memory
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], timeout)
        finally:
            os.close(pidfd)
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        rc=proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024,
        out=out_path.read_text(errors="replace"),
        err=err_path.read_text(errors="replace")[-2000:],
    )


def secquery(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "secquery", *args]


def child(args: list[str]) -> list[str]:
    return [sys.executable, str(CHILD), *args]


# -- output gates ------------------------------------------------------------


@dataclass
class Verdict:
    ok: bool
    solves: int = 0
    trials: int = 0
    ties: int = 0  # float thresholds off the exact ones by a tie within rounding
    why: str = ""


Gate = Callable[[str, dict], Verdict]


def _well_formed(doc: dict, n: int, K: int, M: int) -> str:
    def times(xs: list) -> bool:
        return all(isinstance(t, int) and 1 <= t <= n for t in xs)

    if not times([doc["r_f"]]) or len(doc["r"]) != K or not times(doc["r"]):
        return "r_f or r malformed"
    if len(doc["s"]) != K or any(len(row) != M or not times(row) for row in doc["s"]):
        return "s malformed"
    if not 0.0 <= doc["success_probability"] <= 1.0:
        return "success probability outside [0, 1]"
    return ""


def solve_gate(config: str, n: int, K: int, M: int, exact: bool) -> Gate:
    """Thresholds in range; with ``exact``, equal to the rational reference.

    A float threshold may sit elsewhere in the reference's tie range: there
    every exact margin it reads the other way is below float resolution.
    """

    def check(out: str, refs: dict) -> Verdict:
        doc = json.loads(out)
        why = _well_formed(doc, n, K, M)
        if why or not exact:
            return Verdict(not why, solves=1, why=why)
        ref = refs["solve"][config]
        got = [doc["r_f"], *doc["r"], *(t for row in doc["s"] for t in row)]
        want = [ref["r_f"], *ref["r"], *(r for row in ref["s"] for r in row)]
        exact_ts = [ref["exact"][0], *ref["exact"][1], *(t for row in ref["exact"][2] for t in row)]
        if any(not lo <= t <= hi for t, (lo, hi) in zip(got, want)):
            return Verdict(False, why=f"thresholds {got} outside reference ranges {want}")
        if abs(doc["success_probability"] - ref["success_probability"]) > 1e-9:
            return Verdict(False, why="success probability differs from the exact value")
        return Verdict(True, solves=1, ties=sum(t != e for t, e in zip(got, exact_ts)))

    return check


def table2_gate(out: str, refs: dict) -> Verdict:
    ok = out == GOLDEN.read_text()
    return Verdict(ok, solves=8, why="" if ok else "differs from tests/golden")


def sweep_gate(n: int, p_values: list[str], k_hi: int) -> Gate:
    """Rows in order, success in [0, 1], non-decreasing in K, K=0 exact."""
    ks = range(0, k_hi + 1)
    expected = [(p, K) for p in sorted(p_values, key=float) for K in ks]

    def check(out: str, refs: dict) -> Verdict:
        lines = out.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if lines[:1] != ["p,K,success"] or [(p, int(K)) for p, K, _ in rows] != expected:
            return Verdict(False, why="unexpected header or rows")
        values = [float(v) for _, _, v in rows]
        base = refs["classical"][str(n)]
        for i in range(0, len(values), len(ks)):
            curve = values[i : i + len(ks)]
            if abs(curve[0] - base) > 1e-9 or not all(0 <= v <= 1 for v in curve):
                return Verdict(False, why="K=0 point differs from the exact classical value")
            if any(b < a for a, b in zip(curve, curve[1:])):
                return Verdict(False, why="success decreases with K")
        return Verdict(True, solves=len(rows))

    return check


def simulate_gate(trials: int, seed: int) -> Gate:
    def check(out: str, refs: dict) -> Verdict:
        doc = json.loads(out)
        estimate, stderr = doc["estimate"], doc["stderr"]
        if doc["trials"] != trials or doc["seed"] != seed or not 0 < estimate < 1:
            return Verdict(False, why="trials, seed or estimate wrong")
        if not math.isclose(stderr, math.sqrt(estimate * (1 - estimate) / trials), rel_tol=1e-9):
            return Verdict(False, why="stderr does not match the estimate")
        gap = (estimate - doc["solver_value"]) / stderr
        if not abs(gap) < GAP_LIMIT or not math.isclose(gap, doc["gap_stderr_units"], abs_tol=1e-9):
            return Verdict(False, why=f"gap {gap} stderr units, reported {doc['gap_stderr_units']}")
        return Verdict(True, solves=1, trials=trials)

    return check


def verify_gate(out: str, refs: dict) -> Verdict:
    doc = json.loads(out)
    solves = sum(1 for c in doc["checks"] if not c["name"].startswith("lemma"))
    return Verdict(doc["passed"] is True, solves=solves, why="" if doc["passed"] else "failed")


# -- workloads ---------------------------------------------------------------


@dataclass
class Call:
    args: list[str]  # after `python -m secquery`
    gate: Gate


@dataclass
class Workload:
    cycles: list[list[Call]]  # the same mix of commands, each cycle on fresh inputs
    solve_refs: list[str] = field(default_factory=list)  # configs with exact references
    classical: list[int] = field(default_factory=list)  # horizons of sweep K=0 references


def _dyadic(rng: random.Random, M: int, denominator: int = 256) -> list[str]:
    """A random distribution over M levels with dyadic entries, as 'a/b' strings.

    Dyadic entries are exact in float, so float and rational solves see the
    same model.
    """
    cuts = sorted(rng.randint(0, denominator) for _ in range(M - 1))
    bounds = [0, *cuts, denominator]
    return [str(Fraction(bounds[i + 1] - bounds[i], denominator)) for i in range(M)]


def write_config(work: Path, name: str, rng: random.Random, n: int, K: int, M: int) -> str:
    path = work / f"{name}.json"
    doc = {"n": n, "K": K, "M": M, "p": _dyadic(rng, M), "q": _dyadic(rng, M)}
    path.write_text(json.dumps(doc))
    return str(path.relative_to(ROOT))


def _p_values(rng: random.Random) -> list[str]:
    return [f"{v / 100:.2f}" for v in rng.sample(range(50, 101), 3)]


def _sweep(n: int, p_values: list[str], k_hi: int) -> Call:
    args = ["sweep", "--n", str(n), "--k-range", f"0:{k_hi}", "--p-values", ",".join(p_values)]
    return Call(args, sweep_gate(n, p_values, k_hi))


def _solve(config: str, n: int, K: int, M: int, mode: str, exact_ref: bool) -> Call:
    return Call(["solve", "--config", config, "--mode", mode], solve_gate(config, n, K, M, exact_ref))


def cli_small(rng: random.Random, work: Path, variants: int, tiny: bool) -> Workload:
    """Start-up bound: the solver is a few ms of a ~0.3 s command."""
    cycles, refs = [], []
    for c in range(variants):
        cycle = []
        for i in range(2 if tiny else 5):
            n = rng.randint(10, 40) if tiny else rng.randint(20, 200)
            K, M = rng.randint(0, min(10, n)), rng.choice((2, 3))
            config = write_config(work, f"solve{c}-{i}", rng, n, K, M)
            cycle.append(_solve(config, n, K, M, "float", exact_ref=True))
            refs.append(config)
        cycle.append(Call(["table2", "--mode", "float"], table2_gate))
        cycle.append(_sweep(100, _p_values(rng), 10))
        cycles.append(cycle)
    return Workload(cycles, refs, [100])


def solve_large(rng: random.Random, work: Path, variants: int, tiny: bool) -> Workload:
    """compute_tables bound: large n stresses the t-loop, large K the k-loop.

    M is fixed per slot: it scales the cost of a solve, and a seeded M would
    make the run-to-run spread that of M rather than that of the program.
    The rational solve uses one fixed model, the symmetric expert with
    reliability 9/10: its cost depends on the model (0.9 to 2.2 s over seeded
    dyadic models at n=1000, K=10), far more than the float solves' does.
    """
    scale = 10 if tiny else 1
    n, K = 1000 // scale, 10 // scale
    exact = work / "exact.json"
    exact.write_text(json.dumps({"n": n, "K": K, "M": 2, "p": ["9/10", "1/10"], "q": ["1/10", "9/10"]}))
    exact_call = _solve(str(exact.relative_to(ROOT)), n, K, 2, "rational", exact_ref=False)
    cycles = []
    for c in range(variants):
        cycle = []
        for name, n, K, M in (("long", 10000, 10, 2), ("deep", 1000, 100, 3)):
            n, K = n // scale, K // scale
            config = write_config(work, f"{name}{c}", rng, n, K, M)
            cycle.append(_solve(config, n, K, M, "float", exact_ref=False))
        cycle.append(exact_call)
        cycle.append(Call(["table2", "--mode", "rational"], table2_gate))
        cycle.append(_sweep(1000 // scale, _p_values(rng), 10))
        cycles.append(cycle)
    return Workload(cycles, [], [1000 // scale])


def simulate(rng: random.Random, work: Path, variants: int, tiny: bool) -> Workload:
    """Monte Carlo bound; the only workload that runs sim."""
    n, trials = (100, 2 * 8192) if tiny else (1000, 4 * 8192)
    cycles = []
    for c in range(variants):
        config = write_config(work, f"sim{c}", rng, n, rng.randint(0, 10), rng.choice((2, 3)))
        seed = rng.randrange(2**31)
        args = ["simulate", "--config", config, "--trials", str(trials), "--seed", str(seed)]
        cycles.append(
            [Call([*args, "--parallelism", str(PARALLELISM)], simulate_gate(trials, seed))]
        )
    return Workload(cycles)


def verify(rng: random.Random, work: Path, variants: int, tiny: bool) -> Workload:
    """Exact-Fraction oracle work; each call draws its own random models."""
    max_n = "3" if tiny else "4"
    cycles = [
        [Call(["verify", "--max-n", max_n, "--models", "4", "--seed", str(rng.randrange(2**31))],
              verify_gate)]
        for _ in range(variants)
    ]
    return Workload(cycles)


WORKLOADS = {"cli-small": cli_small, "solve-large": solve_large, "simulate": simulate, "verify": verify}


def coverage_cycle(rng: random.Random, work: Path) -> list[Call]:
    """One small call of each command, appended to every traced pass."""
    config = write_config(work, "cover", rng, 60, 3, 2)
    seed = rng.randrange(2**31)
    tables = str((work / "cover_tables.csv").relative_to(ROOT))
    return [
        Call(["solve", "--config", config, "--tables", tables], solve_gate(config, 60, 3, 2, False)),
        Call(["table2"], table2_gate),
        Call(["simulate", "--config", config, "--trials", "2000", "--seed", str(seed)],
             simulate_gate(2000, seed)),
        Call(["verify", "--max-n", "3", "--models", "2", "--seed", str(seed)], verify_gate),
    ]


# -- running -----------------------------------------------------------------


@dataclass
class Tally:
    """Invocations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    ties: int = 0

    def record(self, what: str, rc: int, verdict: Verdict | None, err: str = "") -> bool:
        self.attempted += 1
        if rc != 0:
            ceiling = " (memory ceiling)" if "MemoryError" in err else ""
            self.failures.append(f"{what}: exit {rc}{ceiling}: {err[-300:]}")
            return False
        if verdict is not None and not verdict.ok:
            self.failures.append(f"{what}: wrong output: {verdict.why}")
            return False
        if verdict is not None:
            self.ties += verdict.ties
        return True


def judge(call: Call, rc: int, out: str, err: str, refs: dict, tally: Tally) -> Verdict | None:
    verdict = None
    if rc == 0:
        try:
            verdict = call.gate(out, refs)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            verdict = Verdict(False, why=f"unreadable output: {exc!r}")
    ok = tally.record(" ".join(call.args), rc, verdict, err)
    return verdict if ok else None


def set_up(name: str, seed: int, work: Path, tiny: bool, tally: Tally) -> tuple[Workload, dict]:
    """Generate inputs, compute references, run each distinct command once.

    The warm-up of a command is its first call in the first cycle, untimed but
    checked.
    """
    rng = random.Random(f"{name}/{seed}")
    workload = WORKLOADS[name](rng, work, 1 if tiny else VARIANTS[name], tiny)
    refs: dict = {}
    if workload.solve_refs or workload.classical:
        jobs, out = work / "jobs.json", work / "refs.json"
        jobs.write_text(json.dumps({"solve": workload.solve_refs, "classical": workload.classical}))
        done = spawn(child(["refs", str(jobs), str(out)]), work, timeout=120)
        if tally.record("refs", done.rc, None, done.err):
            refs = json.loads(out.read_text())
    warmed = set()
    for call in workload.cycles[0]:
        if call.args[0] not in warmed:
            warmed.add(call.args[0])
            warm = spawn(secquery(call.args), work)
            judge(call, warm.rc, warm.out, warm.err, refs, tally)
    return workload, refs


@dataclass
class Sample:
    args: list[str]
    wall_s: float
    rss_mb: float
    verdict: Verdict | None
    out: str


def closed_loop(cycles: list[list[Call]], refs: dict, seconds: float, work: Path,
                tally: Tally) -> list[Sample]:
    """Run whole cycles, in turn, until ``seconds`` have passed."""
    samples = []
    start = time.perf_counter()
    for i in itertools.count():
        for call in cycles[i % len(cycles)]:
            if time.perf_counter() - start > seconds + LOOP_OVERRUN_S:
                return samples
            done = spawn(secquery(call.args), work)
            verdict = judge(call, done.rc, done.out, done.err, refs, tally)
            samples.append(Sample(call.args, done.wall_s, done.rss_mb, verdict, done.out))
        if time.perf_counter() - start >= seconds:
            return samples


def check_parallelism_invariance(samples: list[Sample], work: Path, tally: Tally) -> None:
    """Re-run the first passing simulate at parallelism 1; the estimate must not move."""
    first = next((s for s in samples if s.args[0] == "simulate" and s.verdict), None)
    if first is None:
        return
    args = [*first.args[:-1], "1"]  # the last argument is the parallelism
    again = spawn(secquery(args), work)
    same = again.rc == 0 and json.loads(again.out) == json.loads(first.out)
    tally.record(
        "parallelism 1 vs 2", again.rc,
        Verdict(same, why="estimate differs between parallelism 1 and 2"), again.err,
    )


def percentile_tail(times: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 20:
        return None
    pct = int(100 * (1 - 10 / n))
    return pct, statistics.quantiles(times, n=100, method="inclusive")[pct - 1]


def end_to_end(samples: list[Sample], setup_times: list[float]) -> tuple[dict, dict]:
    times = [s.wall_s if s.verdict else max(s.wall_s, CHILD_TIMEOUT_S) for s in samples]
    wall = sum(s.wall_s for s in samples)
    solves = sum(s.verdict.solves for s in samples if s.verdict)
    trials = sum(s.verdict.trials for s in samples if s.verdict)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "cmd_p50_s": statistics.median(times),
        "solves_per_s": solves / wall,
        "peak_rss_mb": max(s.rss_mb for s in samples),
    }
    extra = {"invocations": len(samples), "setup_runs": setup_times}
    tail = percentile_tail(times)
    if tail:
        extra["cmd_tail_s"] = {"percentile": tail[0], "value": tail[1]}
    if trials:
        extra["mc_trials_per_s"] = trials / sum(s.wall_s for s in samples if s.args[0] == "simulate")
    return metrics, extra


def self_times(spans: list[list]) -> tuple[dict[str, float], float]:
    """Per-metric self time of one traced pass, and its total invocation time.

    A span's self time is its duration minus the durations of its direct
    children; the spans of one thread nest, so children never overlap.
    """
    child_time: dict[int, float] = {}
    for sid, name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
    totals = dict.fromkeys(SPAN_METRICS.values(), 0.0)
    invocations = 0.0
    for sid, name, start, end, parent, _ in spans:
        totals[SPAN_METRICS[name]] += end - start - child_time.get(sid, 0.0)
        if parent is None:
            invocations += end - start
    return totals, invocations


def import_probe(work: Path, repeats: int, tally: Tally) -> dict:
    """Interpreter start-up (control) interleaved with -X importtime children."""
    startup, package, numpy = [], [], []
    for _ in range(repeats):
        bare = spawn([sys.executable, "-c", "pass"], work)
        tally.record("python -c pass", bare.rc, None, bare.err)
        startup.append(bare.wall_s)
        timed = spawn([sys.executable, "-X", "importtime", "-c", "import secquery, numpy"], work)
        if tally.record("import secquery", timed.rc, None, timed.err):
            cumulative = {}
            for line in timed.err.splitlines():
                fields = line.split("|")
                if line.startswith("import time:") and fields[1].strip().isdigit():
                    cumulative[fields[2].strip()] = int(fields[1]) / 1e6
            package.append(cumulative["secquery"])
            numpy.append(cumulative["numpy"])
    return {
        "import.python_startup_s": statistics.median(startup),
        "import.secquery_s": statistics.median(package) if package else 0.0,
        "import.numpy_s": statistics.median(numpy) if numpy else 0.0,
    }


def layer_probes(seed: int, work: Path, tiny: bool, config: str, tally: Tally) -> dict:
    metrics = import_probe(work, 1 if tiny else IMPORT_REPEATS, tally)
    for args in (["numpy-loaded", config], ["probe", str(seed), str(int(tiny))]):
        out = work / "probe.json"
        done = spawn(child([*args, str(out)]), work, timeout=120)
        if tally.record(args[0], done.rc, None, done.err):
            metrics.update(json.loads(out.read_text()))
    for n in (1000, 10000):
        done = spawn(child(["block", str(n // 5 if tiny else n), str(seed)]), work)
        tally.record(f"block n={n}", done.rc, None, done.err)
        metrics[f"sim.block_peak_rss_mb.n{n}"] = done.rss_mb
    return metrics


def traced_run(calls: list[Call], refs: dict, seconds: float, work: Path, tally: Tally) -> dict:
    """Run the calls in process under the tracer; gate the first traced pass."""
    plan, out = work / "plan.json", work / "trace.json"
    plan.write_text(json.dumps(
        {"invocations": [c.args for c in calls], "seconds": seconds, "traced": list(SPAN_METRICS)}
    ))
    done = spawn(child(["trace", str(plan), str(out)]), work, timeout=seconds + 120)
    if not tally.record("traced run", done.rc, None, done.err):
        return {"traced": [], "untraced_walls": []}
    result = json.loads(out.read_text())
    for call, (rc, stdout, err) in zip(calls, result["traced"][0]["outputs"]):
        judge(call, rc, stdout, err, refs, tally)
    return result


def span_metrics(result: dict, invocations: int, tally: Tally) -> dict:
    """Median per-pass self times, the work counts, and the tracing overhead."""
    passes = result["traced"]
    per_pass = []
    for traced in passes:
        totals, total = self_times(traced["spans"])
        if abs(sum(totals.values()) - total) > 1e-6 * max(1.0, total):
            tally.failures.append("self times do not sum to the traced invocation time")
        if traced["counts"] != passes[0]["counts"]:
            tally.failures.append("work counts differ between traced passes")
        per_pass.append(totals)
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics.update(passes[0]["counts"])
    compute = metrics["solver.compute_tables_s"]
    metrics["solver.cells_per_s"] = metrics["solver.cells"] / compute if compute else 0.0
    traced_wall = statistics.median(p["wall"] for p in passes)
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(result["untraced_walls"])) / invocations
    return metrics


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else None
    return ref


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every size (smoke test)")
    args = parser.parse_args()
    missing = [p for p in (SRC / "secquery" / "__init__.py", GOLDEN) if not p.is_file()]
    if missing:
        print(f"error: run from the repository root; missing {missing}", file=sys.stderr)
        return 2

    work = RUN_DIR / "work" / f"{args.workload}-{args.seed}-{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    setup_times = []
    for _ in range(1 if args.tiny or args.trace else SETUP_REPEATS):
        start = time.perf_counter()
        workload, refs = set_up(args.workload, args.seed, work, args.tiny, tally)
        setup_times.append(time.perf_counter() - start)

    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "platform": platform.platform(),
            "git_commit": git_commit(),
        },
        "cycles": [[c.args for c in cycle] for cycle in workload.cycles],
    }
    # The traced pass is the first cycle plus one small call of each command.
    cover = coverage_cycle(random.Random(f"cover/{args.seed}"), work)
    traced_calls = workload.cycles[0] + cover
    if args.trace == 0:
        samples = closed_loop(workload.cycles, refs, args.seconds, work, tally)
        if args.workload == "simulate":
            check_parallelism_invariance(samples, work, tally)
        metrics, extra = end_to_end(samples, setup_times)
        units = END_TO_END_UNITS
        record["invocations"] = [
            {"args": s.args, "wall_s": s.wall_s, "rss_mb": s.rss_mb, "ok": s.verdict is not None}
            for s in samples
        ]
        # One untimed traced pass, for the exact work counts.
        traced = traced_run(traced_calls, refs, 0, work, tally)
    else:
        # Half the run: the layer probes that follow take about ten seconds more.
        traced = traced_run(traced_calls, refs, args.seconds / 2, work, tally)
        metrics = span_metrics(traced, len(traced_calls), tally) if traced["traced"] else {}
        config = cover[0].args[2]  # the coverage solve's config
        metrics.update(layer_probes(args.seed, work, args.tiny, config, tally))
        units = PER_LAYER_UNITS
        extra = {}
    if traced["traced"]:
        record["counts"] = traced["traced"][0]["counts"]
        record["spans"] = traced["traced"][0]["spans"]
    extra["float_threshold_ties"] = tally.ties
    extra["fail_ratio"] = len(tally.failures) / tally.attempted
    record.update(metrics=metrics, extra=extra, failures=tally.failures)
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  -> {path.relative_to(ROOT)}")
    for name in sorted(units):
        print(f"  {name:40s} {metrics.get(name, float('nan')):.6g} {units[name]}")
    for name, value in sorted(extra.items()):
        if name != "setup_runs":
            print(f"  {name:40s} {value}")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
