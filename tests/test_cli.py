import json
import os
import resource
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "table2.csv"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "secquery", *args], capture_output=True, text=True
    )


def write_config(tmp_path: Path, n=100, K=10, p="0.95") -> Path:
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "n": n,
                "K": K,
                "M": 2,
                "p": [p, _complement(p)],
                "q": [_complement(p), p],
            }
        )
    )
    return path


def _complement(literal: str) -> str:
    from fractions import Fraction

    return str(1 - Fraction(literal))


def test_solve_reference_095(tmp_path):
    cp = run_cli("solve", "--config", str(write_config(tmp_path, p="0.95")))
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    assert doc["r_f"] == 38
    assert abs(doc["success_probability"] - 0.8173) < 5e-5


def test_solve_reference_060_rational(tmp_path):
    cp = run_cli(
        "solve", "--config", str(write_config(tmp_path, p="0.60")), "--mode", "rational"
    )
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    assert doc["r"] == [27] * 9 + [29]
    assert [row[1] for row in doc["s"]] == [52] * 10


def test_solve_single_candidate(tmp_path):
    cp = run_cli("solve", "--config", str(write_config(tmp_path, n=1, K=0, p="0.5")))
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["success_probability"] == 1


def test_solve_writes_tables_and_out(tmp_path):
    out = tmp_path / "thresholds.json"
    tables = tmp_path / "tables.csv"
    cp = run_cli(
        "solve",
        "--config",
        str(write_config(tmp_path, n=20, K=2, p="0.8")),
        "--tables",
        str(tables),
        "--out",
        str(out),
    )
    assert cp.returncode == 0, cp.stderr
    assert json.loads(out.read_text())["r_f"] >= 1
    assert tables.read_text().startswith("k,t,A,U\n")


def test_solve_invalid_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 5, "K": 9, "M": 2, "p": [1, 0], "q": [0, 1]}')
    cp = run_cli("solve", "--config", str(bad))
    assert cp.returncode == 1
    assert "error" in cp.stderr


def test_solve_missing_file_exit_code(tmp_path):
    cp = run_cli("solve", "--config", str(tmp_path / "nope.json"))
    assert cp.returncode == 1


def test_table2_matches_golden():
    cp = run_cli("table2")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == GOLDEN.read_text()


def test_table2_rational_matches_golden():
    cp = run_cli("table2", "--mode", "rational")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == GOLDEN.read_text()


def test_commands_are_byte_deterministic(tmp_path):
    config = write_config(tmp_path, n=30, K=3, p="0.9")
    for args in (
        ("table2",),
        ("sweep", "--n", "30", "--k-range", "0:3", "--p-values", "0.6,0.9"),
        ("simulate", "--config", str(config), "--trials", "2000", "--seed", "5"),
    ):
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def test_sweep_uniform_row_is_flat():
    cp = run_cli("sweep", "--n", "100", "--k-range", "0:10", "--p-values", "0.5")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "p,K,success"
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert len(values) == 11
    assert all(abs(v - 0.37104) < 5e-6 for v in values)


def test_sweep_shared_k0_point_and_monotone():
    cp = run_cli("sweep", "--n", "100", "--k-range", "0:10", "--p-values", "0.9,0.7")
    lines = cp.stdout.strip().splitlines()[1:]
    by_p: dict = {}
    for line in lines:
        p, K, success = line.split(",")
        by_p.setdefault(p, []).append((int(K), float(success)))
    for p, rows in by_p.items():
        rows.sort()
        assert abs(rows[0][1] - 0.37104) < 5e-6  # all curves share the K=0 point
        values = [v for _, v in rows]
        assert all(b >= a for a, b in zip(values, values[1:]))
    assert abs(dict(by_p["0.9"])[10] - 0.7055) < 5e-5


def test_sweep_k_range_is_validated():
    cp = run_cli("sweep", "--n", "10", "--k-range", "0:20", "--p-values", "0.9")
    assert cp.returncode == 1


def test_sweep_reads_fraction_literals_like_decimals():
    rows = {}
    for literals in ("0.9,0.6", "9/10,3/5"):
        cp = run_cli("sweep", "--n", "30", "--k-range", "0:3", "--p-values", literals)
        assert cp.returncode == 0, cp.stderr
        rows[literals] = [line.split(",")[1:] for line in cp.stdout.splitlines()[1:]]
    assert rows["0.9,0.6"] == rows["9/10,3/5"]  # sorted by value, same K, success


def test_bad_probability_literals_exit_1_without_traceback(tmp_path):
    for mode in ("float", "rational"):
        cp = run_cli("sweep", "--n", "10", "--p-values", "0.9,abc", "--mode", mode)
        assert cp.returncode == 1 and cp.stderr.startswith("error:")
        assert "Traceback" not in cp.stderr
        for bad in ("abc", "1/0", "nan"):
            config = write_config(tmp_path, n=10, K=1, p="1/2")
            doc = json.loads(config.read_text())
            doc["p"][0] = bad
            config.write_text(json.dumps(doc))
            cp = run_cli("solve", "--config", str(config), "--mode", mode)
            assert cp.returncode == 1 and cp.stderr.startswith("error:")
            assert "Traceback" not in cp.stderr


def test_simulate_json_shape(tmp_path):
    config = write_config(tmp_path, n=50, K=5, p="0.9")
    cp = run_cli(
        "simulate", "--config", str(config), "--trials", "20000", "--seed", "42",
        "--parallelism", "2",
    )
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    assert set(doc) == {
        "estimate", "stderr", "trials", "mean_queries", "seed", "solver_value",
        "gap_stderr_units",
    }
    assert doc["trials"] == 20000 and doc["seed"] == 42
    assert abs(doc["gap_stderr_units"]) < 6


def test_simulate_large_n_in_bounded_memory(tmp_path):
    # Sampling must not grow with n: a block of 8192 permutations of 10**5
    # would need 6.1 GiB of int64, far past this 1 GiB address-space limit.
    config = write_config(tmp_path, n=100_000, K=3, p="0.9")
    limit = 1 << 30

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    cp = subprocess.run(
        [sys.executable, "-m", "secquery", "simulate", "--config", str(config),
         "--trials", "20000", "--seed", "9"],
        capture_output=True, text=True, timeout=300, preexec_fn=limit_address_space,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert cp.returncode == 0, cp.stderr[-2000:]
    assert abs(json.loads(cp.stdout)["gap_stderr_units"]) < 6


def test_simulate_zero_trials_is_usage_error(tmp_path):
    config = write_config(tmp_path, n=10, K=1, p="0.8")
    cp = run_cli("simulate", "--config", str(config), "--trials", "0")
    assert cp.returncode == 1


def test_verify_default_suite_passes():
    cp = run_cli("verify", "--max-n", "4", "--models", "2")
    assert cp.returncode == 0, cp.stderr[-2000:]
    doc = json.loads(cp.stdout)
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert any(n.startswith("lemma1/") for n in names)
    assert any(n.startswith("lemma2/") for n in names)
    assert "strategy-enumeration-matches-solver" in names
    assert "exhaustive-policy-search-matches-solver" in names
    assert all(c["pass"] for c in doc["checks"])


def test_verify_default_suite_at_max_n5():
    cp = run_cli("verify", "--max-n", "5")
    assert cp.returncode == 0, cp.stderr[-2000:]
    doc = json.loads(cp.stdout)
    assert doc["passed"] is True
    assert any(c["name"] == "uninformative-model-collapses-to-classical" for c in doc["checks"])


def test_verify_rejects_bad_sizes():
    for args in (("--max-n", "0"), ("--max-n", "-3"), ("--models", "-2")):
        cp = run_cli("verify", *args)
        assert cp.returncode == 1 and cp.stderr.startswith("error:"), args
        assert "Traceback" not in cp.stderr
    cp = run_cli("verify", "--max-n", "1", "--models", "0")
    assert cp.returncode == 0, cp.stderr[-2000:]
    assert json.loads(cp.stdout)["passed"] is True


def test_verify_budget_exceeded_exit_code():
    cp = run_cli("verify", "--max-n", "12")
    assert cp.returncode == 3


def test_usage_error_unknown_flag():
    cp = run_cli("solve", "--nonsense")
    assert cp.returncode == 1
