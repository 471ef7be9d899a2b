"""Exact solves beyond the digest corpus, pinned to recorded values.

The digest corpus stops at n <= 200; these instances reach the sizes the
rational mode is meant for (n = 1000 at K = 10, n = 4000 at K = 2, n = 390
at K = 60).  For each, ``golden/exact_large.json`` holds ``repr`` of the
exact value A[0][0], the thresholds and the pre-query stop rows.

Run as a script to print the records as that file's JSON:

    PYTHONPATH=src python tests/test_exact_large.py | diff - tests/golden/exact_large.json
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from secquery import NumericMode, ProblemSpec, ResponseModel, symmetric_binary_model
from secquery.solver import read_stages, stages

GOLDEN = Path(__file__).resolve().parent / "golden" / "exact_large.json"
RATIONAL = NumericMode.EXACT_RATIONAL

_F = Fraction
_DYADIC = ResponseModel(3, (_F(5, 8), _F(1, 4), _F(1, 8)), (_F(1, 16), _F(5, 16), _F(5, 8)))
_EXPERT = symmetric_binary_model(_F(9, 10))

INSTANCES = {
    "n=1000 K=10 p=9/10": ProblemSpec(1000, 10, _EXPERT),
    "n=1000 K=10 M=3 dyadic": ProblemSpec(1000, 10, _DYADIC),
    "n=4000 K=2 p=9/10": ProblemSpec(4000, 2, _EXPERT),
    "n=390 K=60 p=9/10": ProblemSpec(390, 60, _EXPERT),
}


def record(spec: ProblemSpec) -> dict:
    ts, grid = read_stages(spec, stages(spec, RATIONAL))
    return {
        "success_probability": repr(ts.success_probability),
        "r_f": ts.r_f,
        "r": list(ts.r),
        "s": [list(row) for row in ts.s],
        "pre_query_s": [list(row) for row in grid],
    }


def records() -> dict[str, dict]:
    return {name: record(spec) for name, spec in INSTANCES.items()}


def test_exact_large_solves_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert list(golden) == list(INSTANCES)
    for name, spec in INSTANCES.items():
        assert record(spec) == golden[name], name


if __name__ == "__main__":
    json.dump(records(), sys.stdout, indent=1)
    sys.stdout.write("\n")
