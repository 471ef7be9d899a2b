"""A solve read stage by stage equals one read from kept tables, in less memory.

``solve``, ``table2``, ``sweep``, ``simulate`` and ``verify`` read the
thresholds off ``solver.stages`` as each stage finishes; only
``solve --tables`` keeps the tables.  Both paths must give the same bits,
and the streamed one must not hold more rows as the budget K grows.
"""

import json
import tracemalloc

from table_digests import corpus

from secquery import NumericMode, compute_tables, extract_thresholds, pre_query_stop_thresholds
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
