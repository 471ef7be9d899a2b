"""Command-line front end: solve, table2, sweep, simulate, verify.

All machine output is JSON or CSV, written to stdout or --out.  Exit codes:
0 success, 1 validation/usage error, 2 verification failure, 3 enumeration
budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from itertools import repeat
from math import factorial
from pathlib import Path
from typing import TextIO

from .model import (
    Number,
    NumericMode,
    ProblemSpec,
    ValidationError,
    parse_prob,
    read_config,
    symmetric_binary_model,
)
from .oracle import (
    MAX_ENUMERATION_N,
    BudgetExceeded,
    LemmaReport,
    exact_success_probability,
    exhaustive_optimal,
    random_exact_model,
    verify_lemma1,
    verify_lemma2,
)
from .sim import SimConfig, monte_carlo
from .solver import (
    ThresholdSet,
    ValueTables,
    classical_threshold,
    compute_tables,
    extract_thresholds,
    read_stages,
    solve,
    stages,
)

TABLE2_P_VALUES = ("0.50", "0.60", "0.70", "0.80", "0.90", "0.95", "0.98", "1.00")
TABLE2_N = 100
TABLE2_K = 10

# Largest --models for verify; the default suite has 4 random models.
MAX_VERIFY_MODELS = 1000
# Largest verify run, counted before any enumeration as the branches of its
# lemma-2 checks: n!·M^n for each random model, n = min(--max-n, 5).  They set
# most of a model's cost.  On a 2-vCPU VM a model's lemma-2 checks take
# 15–21 ms at n = 5 (about 0.7 µs a branch at M = 3 and 4 µs at M = 2, where
# fixed costs weigh more) and 2.6–3.7 ms at n = 4.  Runs at the cap take 3 s
# or less: 121 models take 1.6–2.0 s at --max-n 5 and 2.1–2.9 s at
# --max-n 7.  All 1000 models take 3.2–4.0 s at --max-n 4, with 1.2·10⁶
# branches: there MAX_VERIFY_MODELS binds, and per-model costs outweigh
# branches.
MAX_VERIFY_BRANCHES = 2 * 10**6


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValidationError(message)


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _fmt(x: Number) -> str:
    return f"{float(x):.10g}"


def tables_to_csv(tables: ValueTables, out: TextIO) -> None:
    """Write a dense CSV dump row by row: header k,t,A,U; U blank at k=0, A at k=K+1."""
    K, n = tables.spec.K, tables.spec.n
    kept = tables.kept
    out.write("k,t,A,U\n")
    for k in range(K + 2):
        a = map(_fmt, kept[k].floats(kept[k].A)) if k <= K else repeat("")
        u = map(_fmt, kept[k - 1].floats(kept[k - 1].U)) if k >= 1 else repeat("")
        for t, x, y in zip(range(n + 1), a, u):
            out.write(f"{k},{t},{x},{y}\n")


def thresholds_to_json(ts: ThresholdSet) -> str:
    return json.dumps(
        {
            "r_f": ts.r_f,
            "r": list(ts.r),
            "s": [list(row) for row in ts.s],
            "success_probability": float(_fmt(ts.success_probability)),
        },
        indent=2,
    )


def table2_csv(mode: NumericMode = NumericMode.FLOAT64) -> str:
    """The reference threshold grid: n=100, K=10, symmetric two-level models.

    The decision columns follow the reference grid's convention (stop
    thresholds against the pre-query value row); at every reachable time they
    agree with the executable ThresholdSet.  See README for the distinction.
    """
    K = TABLE2_K
    header = (
        ["p", "r_f"]
        + [f"r_{k}" for k in range(1, K + 1)]
        + [f"s_{k}({m})" for m in (1, 2) for k in range(1, K + 1)]
        + ["P_succ"]
    )
    lines = [",".join(header)]
    for literal in TABLE2_P_VALUES:
        spec = ProblemSpec(TABLE2_N, K, symmetric_binary_model(parse_prob(literal, mode)))
        ts, grid = read_stages(spec, stages(spec, mode))
        cells = (
            [literal, str(ts.r_f)]
            + [str(v) for v in ts.r]
            + [str(row[m]) for m in (0, 1) for row in grid]
            + [f"{float(ts.success_probability):.4f}"]
        )
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cmd_solve(args: argparse.Namespace) -> int:
    spec = read_config(args.config, args.mode)
    if args.tables:
        tables = compute_tables(spec, args.mode)
        ts = extract_thresholds(tables)
        with open(args.tables, "w") as out:
            tables_to_csv(tables, out)
    else:
        ts = solve(spec, args.mode)
    _emit(thresholds_to_json(ts), args.out)
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    _emit(table2_csv(args.mode), args.out)
    return 0


def _parse_k_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(part) for part in text.split(":"))
    except ValueError:
        raise ValidationError(f"--k-range must look like A:B, got {text!r}") from None
    if not 0 <= lo <= hi:
        raise ValidationError(f"--k-range must have 0 <= A <= B, got {text!r}")
    return lo, hi


def _cmd_sweep(args: argparse.Namespace) -> int:
    lo, hi = _parse_k_range(args.k_range)
    p_literals = [tok.strip() for tok in args.p_values.split(",") if tok.strip()]
    if not p_literals:
        raise ValidationError("--p-values is empty")
    points = [(parse_prob(literal, args.mode), literal) for literal in p_literals]
    lines = ["p,K,success"]
    for p, literal in sorted(points, key=lambda point: float(point[0])):
        # Budget K's stages are the last K+1 of budget hi's, so one solve per
        # model gives every K: values[K] is A[hi-K][0], with K queries left.
        # The spec and the solve's size caps refuse a bad n or hi before
        # anything of size hi is built.
        spec = ProblemSpec(args.n, hi, symmetric_binary_model(p))
        # map, unlike a comprehension, holds no stage while the next is built.
        values = list(map(lambda stage: stage.value(stage.A[0]), stages(spec, args.mode)))
        for K in sorted({0, *range(lo, hi + 1)}):  # K=0 baseline always included
            lines.append(f"{literal},{K},{_fmt(values[K])}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = read_config(args.config, args.mode)
    cfg = SimConfig(trials=args.trials, seed=args.seed, parallelism=args.parallelism)
    ts = solve(spec, args.mode)
    result = monte_carlo(spec, ts, cfg)
    solver_value = float(ts.success_probability)
    gap = (result.estimate - solver_value) / result.stderr if result.stderr > 0 else 0.0
    doc = {
        "estimate": result.estimate,
        "stderr": result.stderr,
        "trials": result.trials,
        "mean_queries": result.mean_queries,
        "seed": args.seed,
        "solver_value": solver_value,
        "gap_stderr_units": gap,
    }
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def _check(name: str, instance: str, expected: object, actual: object) -> dict:
    return {
        "name": name,
        "instance": instance,
        "expected": str(expected),
        "actual": str(actual),
        "pass": actual == expected,
    }


def _lemma_checks(report: LemmaReport, instance: str) -> list[dict]:
    return [
        {
            "name": f"{report.lemma}/{check.name}",
            "instance": instance,
            "expected": "exact identity (0 deviation)",
            "actual": (
                f"worst deviation {float(check.worst_deviation):.3e}"
                + ("" if check.passed else f"; e.g. {check.failures[0]}")
            ),
            "pass": check.passed,
        }
        for check in report.checks
    ]


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n < 1 or not 0 <= args.models <= MAX_VERIFY_MODELS:
        raise ValidationError(
            f"need --max-n >= 1 and 0 <= --models <= MAX_VERIFY_MODELS={MAX_VERIFY_MODELS},"
            f" got {args.max_n}, {args.models}"
        )
    if args.max_n > MAX_ENUMERATION_N:
        raise BudgetExceeded(f"--max-n {args.max_n} is above MAX_ENUMERATION_N={MAX_ENUMERATION_N}")
    levels = ([2, 3] * args.models)[: args.models]
    lemma2_n = min(args.max_n, 5)
    branches = factorial(lemma2_n) * sum(M**lemma2_n for M in levels)
    if branches > MAX_VERIFY_BRANCHES:
        raise BudgetExceeded(
            f"--max-n {args.max_n} --models {args.models} enumerates {branches} branches,"
            f" above MAX_VERIFY_BRANCHES={MAX_VERIFY_BRANCHES}"
        )
    rng = random.Random(args.seed)
    suite = [random_exact_model(rng, M) for M in levels]
    checks: list[dict] = []

    for n in range(2, args.max_n + 1):
        checks.extend(_lemma_checks(verify_lemma1(n), f"n={n}"))

    for i, model in enumerate(suite):
        report = verify_lemma2(lemma2_n, model)
        checks.extend(_lemma_checks(report, f"n={lemma2_n} model#{i}"))

    mode = NumericMode.EXACT_RATIONAL
    name = "strategy-enumeration-matches-solver"
    for i, model in enumerate(suite):
        for n in range(2, min(args.max_n, 6) + 1):
            for K in range(0, min(3, n) + 1):
                spec = ProblemSpec(n, K, model)
                ts = solve(spec, mode)
                value = exact_success_probability(spec, ts)
                checks.append(_check(name, f"n={n} K={K} model#{i}", ts.success_probability, value))

    name = "exhaustive-policy-search-matches-solver"
    for i, model in enumerate(m for m in suite if m.M == 2):
        for n in range(2, min(args.max_n, 4) + 1):
            for K in range(0, min(2, n) + 1):
                spec = ProblemSpec(n, K, model)
                value = solve(spec, mode).success_probability
                best = exhaustive_optimal(spec)
                checks.append(_check(name, f"n={n} K={K} model2#{i}", value, best))

    name = "uninformative-model-collapses-to-classical"
    uniform = symmetric_binary_model(Fraction(1, 2))
    n = min(args.max_n, 6)
    base = classical_threshold(n, mode)[1]
    for K in range(0, min(3, n) + 1):
        value = solve(ProblemSpec(n, K, uniform), mode).success_probability
        checks.append(_check(name, f"n={n} K={K}", base, value))

    passed = all(c["pass"] for c in checks)
    _emit(json.dumps({"passed": passed, "checks": checks}, indent=2), args.out)
    return 0 if passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="secquery", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute thresholds for a config")
    solve.set_defaults(run=_cmd_solve)
    solve.add_argument("--config", required=True)
    solve.add_argument("--mode", type=NumericMode, default=NumericMode.FLOAT64)
    solve.add_argument("--tables", help="also write full value tables as CSV")
    solve.add_argument("--out")

    table2 = sub.add_parser("table2", help="reproduce the reference threshold grid")
    table2.set_defaults(run=_cmd_table2)
    table2.add_argument("--mode", type=NumericMode, default=NumericMode.FLOAT64)
    table2.add_argument("--out")

    sweep = sub.add_parser("sweep", help="success probability over a (p, K) grid")
    sweep.set_defaults(run=_cmd_sweep)
    sweep.add_argument("--n", type=int, required=True)
    sweep.add_argument("--k-range", default="0:10")
    sweep.add_argument("--p-values", required=True, help="comma-separated reliabilities")
    sweep.add_argument("--mode", type=NumericMode, default=NumericMode.FLOAT64)
    sweep.add_argument("--out")

    simulate = sub.add_parser("simulate", help="Monte Carlo check of the solved strategy")
    simulate.set_defaults(run=_cmd_simulate)
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--trials", type=int, default=100_000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--parallelism", type=int, default=1)
    simulate.add_argument("--mode", type=NumericMode, default=NumericMode.FLOAT64)
    simulate.add_argument("--out")

    verify = sub.add_parser("verify", help="run the exact verification suite")
    verify.set_defaults(run=_cmd_verify)
    verify.add_argument("--max-n", type=int, default=5)
    verify.add_argument("--models", type=int, default=4)
    verify.add_argument("--seed", type=int, default=7)
    verify.add_argument("--out")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except (ValidationError, OSError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetExceeded) else 1
