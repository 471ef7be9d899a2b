"""The float solve has the bits of the plain cell-by-cell loop.

``solver._float_rows`` stops at the first stage that repeats and builds U
one stretch of winning levels at a time.  ``_literal_float_stages`` is the
float twin of ``test_solver._literal_tables``: the slack-form recursion
with its three ratchets, written cell by cell with the levels in m order
and no shortcut.  Every stage must match it bit for bit.
"""

import json
import random
import struct

from secquery import ProblemSpec, ResponseModel, compute_tables, extract_thresholds
from secquery.cli import main
from secquery.solver import solve, stages


def _literal_float_stages(spec):
    """Every stage (A[k], U[k+1]), k = K..0, of the float recursion as written per cell."""
    n, K = spec.n, spec.K
    p, q = spec.model.float_weights()
    sum_p = sum_q = 0.0
    for pm, qm in zip(p, q):
        sum_p += pm
        sum_q += qm
    ratio = [t / n for t in range(n + 1)]
    up, after, out = ratio, None, []
    for k in range(K, -1, -1):
        A = [0.0] * (n + 1)
        for t in range(n, 1, -1):
            gain = up[t] - A[t]
            A[t - 1] = A[t] + gain / t if gain > 0.0 else A[t]
        A[0] = max(up[1], A[1])
        if after is not None:
            A = [max(a, b) for a, b in zip(A, after)]
        out.append((A, up))
        if k >= 1:
            U = [0.0] * (n + 1)
            for t in range(n + 1):
                extra, won = 0.0, True
                for pm, qm in zip(p, q):
                    d = pm * ratio[t] - qm * A[t]
                    if d > 0.0:
                        extra += d
                    else:
                        won = False
                c = ratio[t] * sum_p if won else A[t] * sum_q + extra
                U[t] = max(max(c, A[t]), up[t])
            U[0] = A[0]
            up = U
        after = A
    return out


def _bits(row) -> bytes:
    return struct.pack(f"{len(row)}d", *row)


def _distribution(rng: random.Random, M: int) -> tuple[float, ...]:
    """M dyadic weights summing to exactly 1.0, often with zero levels."""
    whole = 1 << rng.randint(1, 20)
    cuts = sorted(
        rng.choice((0, whole)) if rng.random() < 0.3 else rng.randint(0, whole)
        for _ in range(M - 1)
    )
    edges = [0, *cuts, whole]
    return tuple((b - a) / whole for a, b in zip(edges, edges[1:]))


def _instances(rng: random.Random) -> list[ProblemSpec]:
    specs = []
    for _ in range(300):
        n, M = rng.randint(1, 400), rng.randint(1, 5)
        model = ResponseModel(M, _distribution(rng, M), _distribution(rng, M))
        specs.append(ProblemSpec(n, rng.randint(0, n), model))
    for M, p, q in (
        (1, (1.0,), (1.0,)),  # one level: no information
        (2, (1.0, 0.0), (0.0, 1.0)),  # infallible expert
        (2, (0.0, 1.0), (1.0, 0.0)),  # reversed expert
        (2, (0.5, 0.5), (0.5, 0.5)),  # uninformative expert
    ):
        for n in (1, 2, 3, 40):
            specs += [ProblemSpec(n, K, ResponseModel(M, p, q)) for K in sorted({0, 1, n // 2, n})]
    return specs


def test_float_stages_have_the_bits_of_the_cell_by_cell_loop():
    repeated = 0
    specs = _instances(random.Random(19))
    for spec in specs:
        got = list(stages(spec))
        want = _literal_float_stages(spec)
        assert len(got) == len(want) == spec.K + 1
        for k, (stage, (A, U)) in enumerate(zip(got, want)):
            assert stage.den is None
            assert _bits(stage.A) == _bits(A) and _bits(stage.U) == _bits(U), (spec, spec.K - k)
        repeated += len({id(stage) for stage in got}) < len(got)
    # The instances must exercise the fixed-point return, not only the U step.
    assert repeated > len(specs) // 2, (repeated, len(specs))


def test_budget_past_the_fixed_point_repeats_one_stage(tmp_path):
    # At n = 1000, p = 9/10 the 26th stage equals the 25th, so a budget of
    # 100 keeps 25 distinct stages.
    spec = ProblemSpec(1000, 100, ResponseModel(2, (0.9, 0.1), (0.1, 0.9)))
    tables = compute_tables(spec)
    assert len({id(stage) for stage in tables.kept}) < 30
    assert solve(spec) == extract_thresholds(tables)

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 1000, "K": 100, "M": 2, "p": [0.9, 0.1], "q": [0.1, 0.9]}))
    streamed, stored = tmp_path / "streamed.json", tmp_path / "stored.json"
    argv = ["solve", "--config", str(config), "--out"]
    assert main([*argv, str(streamed)]) == 0
    assert main([*argv, str(stored), "--tables", str(tmp_path / "tables.csv")]) == 0
    assert streamed.read_bytes() == stored.read_bytes()
    ts = json.loads(streamed.read_text())
    assert ts["r"] == list(extract_thresholds(tables).r)
