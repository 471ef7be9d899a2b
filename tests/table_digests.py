"""Seeded corpus of solves and the sha256 of each solve's raw table bits.

Each instance's digest covers its A and U tables, ``extract_thresholds`` and
``pre_query_stop_thresholds``: floats as their IEEE-754 bytes
(``struct.pack``), exact rationals as their ``repr``.  So any change of a
single bit in a table, or of a threshold, changes that instance's digest.
``test_table_digests.py`` checks them against ``golden/table_digests.json``.

Run as a script to print the digests as that file's JSON, for example to
check another interpreter against the golden file:

    PYTHONPATH=src python tests/table_digests.py | diff - tests/golden/table_digests.json
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
import sys
from fractions import Fraction

from secquery import (
    NumericMode,
    ProblemSpec,
    ResponseModel,
    compute_tables,
    extract_thresholds,
    pre_query_stop_thresholds,
    random_exact_model,
    symmetric_binary_model,
)

SEED = 20211


def _float_model(model: ResponseModel) -> ResponseModel:
    return ResponseModel(model.M, [float(x) for x in model.p], [float(x) for x in model.q])


def corpus() -> list[tuple[str, ProblemSpec, NumericMode]]:
    """Named instances: float solves of dyadic and two-decimal models with
    n <= 1000, three float solves at n = 10**4, exact solves with n <= 200,
    a model whose p does not sum to 1.0 in floats, and the table2 instance."""
    rng = random.Random(SEED)
    instances = []

    def add(kind: str, spec: ProblemSpec, mode: NumericMode) -> None:
        name = f"{len(instances):03d}-{kind} n={spec.n} K={spec.K} M={spec.model.M}"
        instances.append((name, spec, mode))

    for kind, denominator in (("dyadic", 1 << 20), ("decimal", 100)) * 50:
        n = int(2 ** rng.uniform(1, 10))
        K = rng.randint(0, min(12, n))
        model = _float_model(random_exact_model(rng, rng.randint(2, 4), denominator))
        add(kind, ProblemSpec(n, K, model), NumericMode.FLOAT64)
    for K, M in ((10, 2), (3, 3), (1, 4)):
        model = _float_model(random_exact_model(rng, M, 100))
        add("decimal", ProblemSpec(10_000, K, model), NumericMode.FLOAT64)
    for kind, denominator in (("dyadic", 1 << 10), ("decimal", 100)) * 10:
        n = rng.randint(2, 200)
        K = rng.randint(0, min(6, n))
        model = random_exact_model(rng, rng.randint(2, 3), denominator)
        add(f"exact-{kind}", ProblemSpec(n, K, model), NumericMode.EXACT_RATIONAL)
    # Summed left to right in floats, 0.56 + 0.34 + 0.1 = 1.0000000000000002;
    # a compensated sum gives 1.0.
    inexact = ResponseModel(3, (0.56, 0.34, 0.1), (0.1, 0.3, 0.6))
    add("inexact-sum", ProblemSpec(1000, 8, inexact), NumericMode.FLOAT64)
    add("table2", ProblemSpec(100, 10, symmetric_binary_model(0.9)), NumericMode.FLOAT64)
    exact_table2 = ProblemSpec(100, 10, symmetric_binary_model(Fraction(9, 10)))
    add("exact-table2", exact_table2, NumericMode.EXACT_RATIONAL)
    return instances


def _encode(values) -> bytes:
    values = tuple(values)
    if values and all(isinstance(x, float) for x in values):
        return struct.pack(f"<{len(values)}d", *values)
    return repr(values).encode()


def digest(spec: ProblemSpec, mode: NumericMode) -> str:
    tables = compute_tables(spec, mode)
    ts = extract_thresholds(tables)
    h = hashlib.sha256()
    for row in (*tables.A, *tables.U):
        h.update(_encode(row))
    h.update(_encode([ts.success_probability]))
    h.update(repr((ts.r_f, ts.r, ts.s, pre_query_stop_thresholds(tables))).encode())
    return h.hexdigest()


def digests() -> dict[str, str]:
    return {name: digest(spec, mode) for name, spec, mode in corpus()}


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1)
    sys.stdout.write("\n")
