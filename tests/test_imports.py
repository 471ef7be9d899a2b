"""Every import in the package and in the tests is used, and the three
strategy walkers (policy, sim, oracle) do not import one another."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read, as "line:name"."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}:{name}" for name, line in bound.items() if name not in read]


def test_unused_imports_are_found():
    source = "import os, os.path\nimport numpy as np\nfrom typing import Any, Callable\nnp.ones(Any)\n"
    assert unused_imports(source) == ["1:os", "3:Callable"]


def test_no_unused_imports():
    # The package's __init__ imports names to re-export them.
    files = [
        *(p for p in (ROOT / "src" / "secquery").glob("*.py") if p.name != "__init__.py"),
        *(ROOT / "tests").glob("*.py"),
    ]
    assert len(files) > 10
    unused = [
        f"{path.relative_to(ROOT)}:{entry}"
        for path in sorted(files)
        for entry in unused_imports(path.read_text())
    ]
    assert unused == []


WALKERS = ("policy", "sim", "oracle")


def walker_imports(source: str) -> list[str]:
    """Walker modules a source imports, relatively or by package name, as "line:module"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [(node.level, f"{base}.{alias.name}".lstrip(".")) for alias in node.names]
        else:
            continue
        for level, name in names:
            parts = name.split(".")
            if level == 0 and parts[0] == "secquery":
                parts = parts[1:]
            elif level == 0:
                continue
            if parts and parts[0] in WALKERS:
                found.append(f"{node.lineno}:{parts[0]}")
    return found


def test_walker_imports_are_found():
    source = (
        "from .policy import HorizonMismatch\n"
        "from . import sim\n"
        "import secquery.oracle\n"
        "from secquery import policy\n"
        "from .solver import ThresholdSet\n"
        "from numpy import random\n"
    )
    assert walker_imports(source) == ["1:policy", "2:sim", "3:oracle", "4:policy"]


def test_walkers_do_not_import_each_other():
    # The walkers are checked against one another, so they share no code.
    package = ROOT / "src" / "secquery"
    found = {name: walker_imports((package / f"{name}.py").read_text()) for name in WALKERS}
    assert found == {name: [] for name in WALKERS}


def test_cli_import_does_not_load_the_process_pool():
    # Importing cli loads no pool module, and neither does a pooled monte_carlo,
    # whose workers are forked directly.  No Monte Carlo run, serial or forked,
    # loads numpy.random: each block draws from sim's own stream.
    code = (
        "import sys, secquery.cli, secquery.sim as sim\n"
        "from secquery import ProblemSpec, SimConfig, symmetric_binary_model\n"
        "from secquery import compute_tables, extract_thresholds\n"
        "unloaded = ('concurrent.futures', 'multiprocessing', 'numpy.random')\n"
        "print([m for m in unloaded if m in sys.modules])\n"
        "sim.os.sched_getaffinity = lambda pid: {0, 1}\n"
        "spec = ProblemSpec(20, 3, symmetric_binary_model(0.8))\n"
        "ts = extract_thresholds(compute_tables(spec))\n"
        "for workers in (2, 1):\n"
        "    cfg = SimConfig(trials=2 * sim.BLOCK_TRIALS, seed=5, parallelism=workers)\n"
        "    sim.monte_carlo(spec, ts, cfg)\n"
        "    print([m for m in unloaded if m in sys.modules])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n[]\n[]\n"


@pytest.mark.parametrize("setting", [None, "3"])
def test_import_starts_no_blas_thread(setting):
    # No command calls a BLAS routine, so sim imports numpy with one OpenBLAS
    # thread and then restores the environment; a caller's setting wins.
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task to count threads in")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    code = (
        "import os, secquery\n"
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    cp = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    threads, value = cp.stdout.split()
    if setting is None:
        assert (threads, value) == ("1", "None")
    else:
        assert value == setting
