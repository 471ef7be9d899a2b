"""A solve read stage by stage equals one read from kept tables, in less memory.

``solve``, ``table2``, ``sweep``, ``simulate`` and ``verify`` read the
thresholds off ``solver.stages`` as each stage finishes; only
``solve --tables`` keeps the tables.  Both paths must give the same bits,
and the streamed one must not hold more rows as the budget K grows.
"""

import json
import sys
import tracemalloc
from fractions import Fraction

from table_digests import corpus

from secquery import (
    NumericMode,
    ProblemSpec,
    ResponseModel,
    compute_tables,
    extract_thresholds,
    pre_query_stop_thresholds,
    symmetric_binary_model,
)
from secquery import solver
from secquery.cli import main
from secquery.solver import read_stages, solve, stages

FLOAT = NumericMode.FLOAT64


def test_streamed_thresholds_equal_stored_on_digest_corpus():
    # Exact instances are also solved in float: their models are exact
    # rationals, which float mode reads as doubles.
    solves = corpus()
    solves += [(name, spec, FLOAT) for name, spec, mode in solves if mode is not FLOAT]
    for name, spec, mode in solves:
        tables = compute_tables(spec, mode)
        stored = extract_thresholds(tables), pre_query_stop_thresholds(tables)
        streamed = read_stages(spec, stages(spec, mode))
        assert streamed == stored, (name, mode)
        value = streamed[0].success_probability
        assert repr(value) == repr(stored[0].success_probability) == repr(tables.a(0, 0))
        assert solve(spec, mode) == stored[0]


def _solve_peak_bytes(tmp_path, mode: str, n: int, K: int) -> int:
    """Peak traced allocation of one in-process `solve` of a p = 9/10 symmetric config."""
    config = tmp_path / f"{mode}-{n}-{K}.json"
    model = {"M": 2, "p": ["9/10", "1/10"], "q": ["1/10", "9/10"]}
    config.write_text(json.dumps({"n": n, "K": K, **model}))
    argv = ["solve", "--config", str(config), "--mode", mode, "--out", str(tmp_path / "out.json")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solve_memory_does_not_grow_with_budget(tmp_path):
    # Kept tables grow linearly in K: when every solve kept them, the larger
    # budget peaked at 7.3x (float) and 8.3x (rational) the smaller.
    _solve_peak_bytes(tmp_path, "float", 30, 3)  # warm-up: imports and caches
    for mode, n, small, large in (("float", 300, 6, 60), ("rational", 100, 3, 30)):
        peaks = [_solve_peak_bytes(tmp_path, mode, n, K) for K in (small, large)]
        assert peaks[1] < 2 * peaks[0], (mode, peaks)


def _row_bytes(mode: str, n: int, K: int) -> int:
    """Bytes of one row of that solve: the tuple of its last A row plus its cells."""
    exact = mode == "rational"
    model = symmetric_binary_model(Fraction(9, 10) if exact else 0.9)
    *_, stage = stages(ProblemSpec(n, K, model), NumericMode.EXACT_RATIONAL if exact else FLOAT)
    return sys.getsizeof(stage.A) + sum(map(sys.getsizeof, stage.A))


def test_streamed_solve_holds_two_exact_rows(tmp_path):
    # The peak of `solve` in rows.  When the reader kept the stage it had
    # read and each loop the stage before, exact n = 1000, K = 10 read 3.8
    # rows and float n = 2*10**4, K = 3 read 5.6.  Dropping each row once no
    # later stage reads it leaves 2.0 and 4.3: two exact rows, and in float
    # the t/n row, A[k], U[k+1] and the row being built.
    _solve_peak_bytes(tmp_path, "float", 30, 3)  # warm-up: imports and caches
    for mode, n, K, bound in (("rational", 1000, 10, 2.5), ("float", 20_000, 3, 5.0)):
        rows = _solve_peak_bytes(tmp_path, mode, n, K) / _row_bytes(mode, n, K)
        assert rows <= bound, (mode, rows)


def test_streamed_exact_solve_holds_one_row(tmp_path):
    # The A step builds A[k] in U[k+1]'s list and the U step U[k] in A[k]'s,
    # and a streamed exact stage carries no U row.  Holding U[k+1] beside
    # A[k] read 2.0 rows at n = 1000, K = 10; one list reads about 1.4.
    _solve_peak_bytes(tmp_path, "float", 30, 3)  # warm-up: imports and caches
    rows = _solve_peak_bytes(tmp_path, "rational", 1000, 10) / _row_bytes("rational", 1000, 10)
    assert rows <= 1.6, rows


def test_exact_solve_reads_the_integer_weights_once_per_pass(monkeypatch):
    # Each call builds Fractions and an lcm, and every stage of one solve
    # uses the same weights, which only _exact_rows reads.
    calls = []
    integer_weights = ResponseModel.integer_weights

    def counted(model):
        calls.append(model)
        return integer_weights(model)

    monkeypatch.setattr(ResponseModel, "integer_weights", counted)
    spec = ProblemSpec(100, 10, symmetric_binary_model(Fraction(9, 10)))
    solve(spec, NumericMode.EXACT_RATIONAL)
    assert len(calls) == 1


def test_float_solve_past_the_fixed_point_reads_each_stage_once(monkeypatch):
    # At n = 1000, p = 9/10 the stages repeat from about k = K - 25, and the
    # repeated stage is one object whose stop row was bisected as it was
    # built.  Bisecting every stage it read, read_stages made 2002 calls at
    # K = 1000 against 202 at K = 100.
    calls = 0
    least = solver._least

    def counted(n, holds):
        nonlocal calls
        calls += 1
        return least(n, holds)

    monkeypatch.setattr(solver, "_least", counted)
    model = symmetric_binary_model(0.9)
    counts = []
    for K in (100, 1000):
        calls = 0
        solve(ProblemSpec(1000, K, model))
        counts.append(calls)
    assert counts[0] == counts[1], counts
