#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, both trace modes, tiny sizes.

Run from the repository root:

    python3 bench/smoke.py

Each run must exit 0, pass its output checks, and print as its last line a
result whose metric names and units are exactly those BENCHMARK.json lists
for that trace mode.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
            label = f"{workload} trace {trace}"
            if done.returncode != 0:
                print(f"FAIL {label}: exit {done.returncode}\n{done.stderr[-2000:]}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"checks: {done.stdout[-2000:]}")
            if units != declared[trace]:
                problems.append(f"metrics {sorted(set(units) ^ set(declared[trace]))} or units differ")
            if problems:
                print(f"FAIL {label}: " + "; ".join(problems))
                return 1
            print(f"ok   {label}: {len(units)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
