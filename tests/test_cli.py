import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "table2.csv"
SWEEP_GOLDEN = Path(__file__).parent / "golden" / "sweep.csv"
VERIFY_GOLDEN = Path(__file__).parent / "golden" / "verify.json"
SIMULATE_GOLDEN_DIR = Path(__file__).parent / "golden"
# An asymmetric dyadic model with three response levels.
SIMULATE_M3_CONFIG = {
    "n": 200, "K": 4, "M": 3, "p": ["1/8", "1/4", "5/8"], "q": ["1/2", "3/8", "1/8"]
}


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "secquery", *args], capture_output=True, text=True
    )


def run_cli_in_1gib(*args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """run_cli under a 1 GiB address-space limit."""
    limit = 1 << 30

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "secquery", *args],
        capture_output=True, text=True, timeout=timeout, preexec_fn=limit_address_space,
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


def test_solve_tables_bytes(tmp_path):
    # The CSV is rebuilt here from the tables, not through tables_to_csv.
    from secquery import NumericMode, compute_tables, read_config

    def fmt(x):
        return f"{float(x):.10g}"

    for p, mode in (("0.8", "float"), ("4/5", "rational")):
        config = write_config(tmp_path, n=12, K=3, p=p)
        out = tmp_path / f"tables_{mode}.csv"
        cp = run_cli("solve", "--config", str(config), "--tables", str(out), "--mode", mode)
        assert cp.returncode == 0, cp.stderr
        tables = compute_tables(read_config(config, NumericMode(mode)), NumericMode(mode))
        K, n = tables.spec.K, tables.spec.n
        rows = ["k,t,A,U"] + [
            f"{k},{t},{fmt(tables.a(k, t)) if k <= K else ''},{fmt(tables.u(k, t)) if k else ''}"
            for k in range(K + 2)
            for t in range(n + 1)
        ]
        assert out.read_bytes() == ("\n".join(rows) + "\n").encode()


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
    # A second run gives the same stdout, and --out gets those same bytes.
    config = str(write_config(tmp_path, n=30, K=3, p="0.9"))
    out = tmp_path / "out"
    for args in (
        ("solve", "--config", config),
        ("table2",),
        ("sweep", "--n", "30", "--k-range", "0:3", "--p-values", "0.6,0.9"),
        ("simulate", "--config", config, "--trials", "2000", "--seed", "5"),
        ("verify", "--max-n", "3", "--models", "1"),
    ):
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == second.returncode == 0, args
        assert first.stdout == second.stdout, args
        to_file = run_cli(*args, "--out", str(out))
        assert to_file.returncode == 0 and to_file.stdout == "", args
        assert out.read_bytes() == first.stdout.encode(), args


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


def test_sweep_matches_golden():
    golden = SWEEP_GOLDEN.read_text()
    # A range that starts above 0 keeps the K=0 baseline and the same values.
    partial = "".join(
        line
        for line in golden.splitlines(keepends=True)
        if line.split(",")[1] in {"K", "0", "4", "5", "6", "7"}
    )
    p_values = ("--p-values", "0.50,0.60,0.70,0.80,0.90,0.95,0.98,1.00")
    for mode in ("float", "rational"):
        cp = run_cli("sweep", "--n", "100", "--k-range", "0:10", *p_values, "--mode", mode)
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == golden
        cp = run_cli("sweep", "--n", "100", "--k-range", "4:7", *p_values, "--mode", mode)
        assert cp.stdout == partial


def test_sweep_k_range_is_validated():
    cp = run_cli("sweep", "--n", "10", "--k-range", "0:20", "--p-values", "0.9")
    assert cp.returncode == 1
    for n, k_range in (("10", "-1:3"), ("10", "3:2"), ("10", "0:11"), ("0", "0:10")):
        cp = run_cli("sweep", "--n", n, f"--k-range={k_range}", "--p-values", "0.9")
        assert cp.returncode == 1, (n, k_range, cp.stderr)
        assert cp.stderr.startswith("error:") and "Traceback" not in cp.stderr
        assert cp.stdout == ""
    # A huge range is refused before the list of budgets is built.
    for n, k_range in (("10", "0:1000000000"), ("0", "0:100000000000")):
        cp = run_cli_in_1gib("sweep", "--n", n, f"--k-range={k_range}", "--p-values", "0.9")
        assert cp.returncode == 1, (n, k_range, cp.stderr[-2000:])
        assert cp.stderr.startswith("error:") and "Traceback" not in cp.stderr


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


def test_huge_literal_exponent_exits_1_quickly(tmp_path):
    # Read exactly, 1e-30000000 would build 10**30000000 (about a minute).
    config = tmp_path / "config.json"
    for p in ('"1e-30000000"', "1e-30000000"):
        config.write_text('{"n": 3, "K": 1, "M": 2, "p": [%s, 1], "q": [0.5, 0.5]}' % p)
        for mode in ("float", "rational"):
            cp = subprocess.run(
                [sys.executable, "-m", "secquery", "solve", "--config", str(config),
                 "--mode", mode],
                capture_output=True, text=True, timeout=10,
            )
            assert cp.returncode == 1 and cp.stderr.startswith("error:")
            assert "Traceback" not in cp.stderr


def test_overlong_integer_in_config_exits_1(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"n": %s, "K": 1, "M": 1, "p": [1], "q": [1]}' % ("9" * 5001))
    cp = run_cli("solve", "--config", str(config))
    assert cp.returncode == 1 and cp.stderr.startswith("error:")
    assert "Traceback" not in cp.stderr


def test_bad_mode_is_usage_error(tmp_path):
    config = str(write_config(tmp_path, n=10, K=1, p="0.9"))
    for args in (
        ("solve", "--config", config),
        ("table2",),
        ("sweep", "--n", "10", "--p-values", "0.9"),
        ("simulate", "--config", config, "--trials", "10"),
    ):
        cp = run_cli(*args, "--mode", "bogus")
        assert cp.returncode == 1 and cp.stderr.startswith("error:"), args
        assert "Traceback" not in cp.stderr and cp.stdout == ""


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
    cp = run_cli_in_1gib(
        "simulate", "--config", str(config), "--trials", "20000", "--seed", "9", timeout=300
    )
    assert cp.returncode == 0, cp.stderr[-2000:]
    assert abs(json.loads(cp.stdout)["gap_stderr_units"]) < 6


def test_simulate_zero_trials_is_usage_error(tmp_path):
    config = write_config(tmp_path, n=10, K=1, p="0.8")
    cp = run_cli("simulate", "--config", str(config), "--trials", "0")
    assert cp.returncode == 1


@pytest.mark.parametrize(
    "golden, config, trials, seed, workers",
    [
        # The CI and benchmark config: 13 blocks, the last of 1696 trials.
        (
            "simulate_n1000.json",
            {"n": 1000, "K": 10, "M": 2, "p": ["9/10", "1/10"], "q": ["1/10", "9/10"]},
            100_000, 42, (1, 2),
        ),
        ("simulate_m3.json", SIMULATE_M3_CONFIG, 20_000, 7, (1,)),
        # No queries, a one-trial last block and a negative seed.
        (
            "simulate_k0.json",
            {"n": 50, "K": 0, "M": 2, "p": ["3/4", "1/4"], "q": ["1/4", "3/4"]},
            8193, -1, (1,),
        ),
    ],
    ids=["n1000", "m3", "k0"],
)
def test_simulate_matches_golden(tmp_path, golden, config, trials, seed, workers):
    # Every byte of a seeded run: a walk that reads its uniforms in another
    # order changes these outputs.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    for w in workers:
        cp = run_cli(
            "simulate", "--config", str(path), "--trials", str(trials), "--seed", str(seed),
            "--parallelism", str(w),
        )
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == (SIMULATE_GOLDEN_DIR / golden).read_text(), w


def test_simulate_rational_mode_runs_the_exact_solve(tmp_path):
    # The m3 config's float and exact thresholds agree, so a rational run walks
    # the float golden's strategy over the same uniforms.  Only solver_value
    # differs: the exact value rounded once reads ...447, the float solve ...448.
    from secquery import NumericMode, read_config
    from secquery.solver import solve

    path = tmp_path / "config.json"
    path.write_text(json.dumps(SIMULATE_M3_CONFIG))
    cp = run_cli(
        "simulate", "--config", str(path), "--trials", "20000", "--seed", "7",
        "--mode", "rational",
    )
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    float_run = json.loads((SIMULATE_GOLDEN_DIR / "simulate_m3.json").read_text())
    walk = ("estimate", "stderr", "trials", "mean_queries", "seed")
    assert {key: doc[key] for key in walk} == {key: float_run[key] for key in walk}
    exact = solve(read_config(path, NumericMode.EXACT_RATIONAL), NumericMode.EXACT_RATIONAL)
    assert doc["solver_value"] == float(exact.success_probability) == 0.5251445753250447
    assert doc["solver_value"] != float_run["solver_value"]


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


def test_verify_matches_golden():
    # Every byte of a seeded report at the default --max-n: the lemma-2 checks
    # at n = 5 on two M = 2 and two M = 3 models, and every other suite.
    cp = run_cli("verify", "--max-n", "5", "--models", "4", "--seed", "1")
    assert cp.returncode == 0, cp.stderr[-2000:]
    assert cp.stdout == VERIFY_GOLDEN.read_text()


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
    for args in (("solve", "--nonsense"), ()):
        cp = run_cli(*args)
        assert cp.returncode == 1 and cp.stderr.startswith("error:"), args
        assert "Traceback" not in cp.stderr and cp.stdout == "", args


def test_config_that_is_not_utf8_exits_1(tmp_path):
    config = write_config(tmp_path, n=10, K=1, p="0.9")
    latin1 = config.read_text().replace('"0.9"', '"0.9\u00e9"', 1).encode("latin-1")
    for raw in (b"\xff\xfe{", latin1):
        config.write_bytes(raw)
        cp = run_cli("solve", "--config", str(config))
        assert cp.returncode == 1 and cp.stderr.startswith("error:"), raw
        assert "Traceback" not in cp.stderr and cp.stdout == "", raw


def test_deeply_nested_config_exits_1(tmp_path):
    # json.loads gives up on deep nesting with a RecursionError, not a ValueError.
    config = tmp_path / "config.json"
    config.write_text("[" * 200_000)
    for command in ("solve", "simulate"):
        cp = run_cli(command, "--config", str(config))
        assert cp.returncode == 1 and cp.stderr.startswith("error:"), command
        assert "Traceback" not in cp.stderr and cp.stdout == "", command


def test_config_longer_than_the_cap_exits_1(tmp_path):
    # Read whole, /dev/zero used up the address space and ended in a
    # MemoryError traceback.  A valid config padded one byte past the cap is
    # refused too; padded to the cap it still parses.
    from secquery.model import MAX_CONFIG_BYTES, read_config

    doc = write_config(tmp_path, n=10, K=1, p="0.8").read_bytes()
    at_cap, over = tmp_path / "at_cap.json", tmp_path / "over.json"
    at_cap.write_bytes(doc.ljust(MAX_CONFIG_BYTES))
    over.write_bytes(doc.ljust(MAX_CONFIG_BYTES + 1))
    assert read_config(at_cap).n == 10
    for config in ("/dev/zero", str(over)):
        for command in ("solve", "simulate"):
            cp = run_cli_in_1gib(command, "--config", config)
            assert cp.returncode == 1, (command, config, cp.stderr[-2000:])
            assert cp.stderr.startswith("error:") and "MAX_CONFIG_BYTES" in cp.stderr
            assert "Traceback" not in cp.stderr and cp.stdout == ""


def test_config_fifo_with_no_writer_exits_1(tmp_path):
    # Opened blocking, a FIFO with no writer hung the run before the size
    # cap could apply.  With no writer the read is an empty config.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    cp = subprocess.run(
        [sys.executable, "-m", "secquery", "solve", "--config", str(fifo)],
        capture_output=True, text=True, timeout=10,
    )
    assert cp.returncode == 1 and cp.stderr.startswith("error:"), cp.stderr[-2000:]
    assert "Traceback" not in cp.stderr and cp.stdout == ""


def test_config_piped_to_dev_stdin_solves(tmp_path):
    config = write_config(tmp_path, n=10, K=1, p="0.8")
    cp = subprocess.run(
        [sys.executable, "-m", "secquery", "solve", "--config", "/dev/stdin"],
        input=config.read_text(), capture_output=True, text=True, timeout=60,
    )
    assert cp.returncode == 0, cp.stderr[-2000:]
    assert cp.stdout == run_cli("solve", "--config", str(config)).stdout


def test_config_is_read_where_os_has_no_nonblocking_open(tmp_path, monkeypatch, capsys):
    # os.O_NONBLOCK and os.set_blocking are Unix-only; without them (as on
    # Windows) a config is opened plainly instead of dying with AttributeError.
    from secquery import cli
    from secquery.model import read_config

    config = str(write_config(tmp_path, n=10, K=1, p="0.8"))
    expected = run_cli("solve", "--config", config).stdout
    monkeypatch.delattr(os, "O_NONBLOCK")
    monkeypatch.delattr(os, "set_blocking")
    assert read_config(config).n == 10
    assert cli.main(["solve", "--config", config]) == 0
    assert capsys.readouterr().out == expected


def test_oversized_solve_is_refused_before_allocating(tmp_path):
    # (2K+3)(n+1) cells of 10**8 x 2 would need several GB; the cap refuses
    # the instance well inside this 1 GiB address-space limit.
    config = write_config(tmp_path, n=10**8, K=2, p="0.9")
    for args in (
        ("solve", "--config", str(config)),
        ("simulate", "--config", str(config), "--trials", "10"),
        ("sweep", "--n", str(10**8), "--k-range", "0:2", "--p-values", "0.9"),
    ):
        cp = run_cli_in_1gib(*args)
        assert cp.returncode == 1, (args, cp.stderr[-2000:])
        assert cp.stderr.startswith("error:") and "MAX_TABLE_CELLS" in cp.stderr, args
        assert "Traceback" not in cp.stderr and cp.stdout == ""


def test_oversized_trial_count_is_refused_before_allocating(tmp_path):
    # 10**13 trials would build about 1.2e9 block tuples before the first
    # block ran; the MAX_TRIALS cap refuses the count first.
    config = write_config(tmp_path, n=10, K=1, p="0.8")
    cp = run_cli_in_1gib("simulate", "--config", str(config), "--trials", str(10**13))
    assert cp.returncode == 1, cp.stderr[-2000:]
    assert cp.stderr.startswith("error:") and "MAX_TRIALS" in cp.stderr
    assert "Traceback" not in cp.stderr and cp.stdout == ""


def test_trial_cap_boundary(tmp_path, monkeypatch, capsys):
    from secquery import cli, sim

    config = str(write_config(tmp_path, n=10, K=1, p="0.8"))
    monkeypatch.setattr(sim, "MAX_TRIALS", 3)
    assert cli.main(["simulate", "--config", config, "--trials", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 3
    assert cli.main(["simulate", "--config", config, "--trials", "4"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:") and "MAX_TRIALS=3" in out.err


def test_simulate_worker_failure_exits_1(tmp_path, monkeypatch, capsys):
    import signal

    from secquery import cli, sim

    parent = os.getpid()

    def killed_block(*args):
        if os.getpid() == parent:
            raise AssertionError("a block ran in the parent process")
        os.kill(os.getpid(), signal.SIGKILL)

    config = str(write_config(tmp_path, n=10, K=1, p="0.8"))
    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sim, "_simulate_block", killed_block)
    trials = str(2 * sim.BLOCK_TRIALS)
    assert cli.main(["simulate", "--config", config, "--trials", trials, "--parallelism", "2"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: Monte Carlo worker")
    assert f"killed by signal {signal.SIGKILL.value}" in out.err


def test_oversized_model_count_is_refused_before_allocating():
    # [2, 3] * 10**12 alone would need terabytes; the MAX_VERIFY_MODELS cap
    # refuses the count first.
    cp = run_cli_in_1gib("verify", "--models", str(10**12))
    assert cp.returncode == 1, cp.stderr[-2000:]
    assert cp.stderr.startswith("error:") and "MAX_VERIFY_MODELS" in cp.stderr
    assert "Traceback" not in cp.stderr and cp.stdout == ""


def test_verify_model_cap_boundary(monkeypatch, capsys):
    from secquery import cli

    monkeypatch.setattr(cli, "MAX_VERIFY_MODELS", 2)
    assert cli.main(["verify", "--max-n", "2", "--models", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert cli.main(["verify", "--max-n", "2", "--models", "3"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:") and "MAX_VERIFY_MODELS=2" in out.err


def test_oversized_verify_is_refused_at_once(capsys):
    from secquery import cli

    # About 0.2 s a model at --max-n 7, so minutes of enumeration if it ran.
    start = time.perf_counter()
    assert cli.main(["verify", "--max-n", "7", "--models", "1000"]) == 3
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:") and "MAX_VERIFY_BRANCHES" in out.err


def test_verify_branch_cap_boundary(monkeypatch, capsys):
    from secquery import cli

    # --max-n 3 --models 2: lemma-2 branches 3!·(2^3 + 3^3) = 210.
    monkeypatch.setattr(cli, "MAX_VERIFY_BRANCHES", 210)
    assert cli.main(["verify", "--max-n", "3", "--models", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    monkeypatch.setattr(cli, "MAX_VERIFY_BRANCHES", 209)
    assert cli.main(["verify", "--max-n", "3", "--models", "2"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "210 branches" in out.err


def test_verify_failure_exits_2_with_exact_deviation(monkeypatch, capsys):
    from fractions import Fraction

    from secquery import cli
    from secquery.oracle import IdentityCheck, LemmaReport

    def failing_lemma2(n, model):
        check = IdentityCheck("record-posterior")
        check.record_ratio(lambda: "tq=(1,) zeta=(2,) t=3", Fraction(3, 4), 2, 3)
        return LemmaReport("lemma2", [check])

    monkeypatch.setattr(cli, "verify_lemma2", failing_lemma2)
    assert cli.main(["verify", "--max-n", "3", "--models", "1"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    failed = [c for c in doc["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["lemma2/record-posterior"]
    assert failed[0]["actual"] == (
        "worst deviation 8.333e-02; e.g. tq=(1,) zeta=(2,) t=3: expected 3/4, got 2/3"
    )


def test_oversized_rational_solve_is_refused_at_once(tmp_path):
    # An exact solve at n = 20000, K = 2 would run for minutes; the
    # MAX_RATIONAL_WORK cap refuses it before any table is built.
    config = str(write_config(tmp_path, n=20_000, K=2, p="9/10"))
    for args in (
        ("solve", "--config", config),
        ("simulate", "--config", config, "--trials", "10"),
        ("sweep", "--n", "20000", "--k-range", "0:2", "--p-values", "0.9"),
    ):
        cp = subprocess.run(
            [sys.executable, "-m", "secquery", *args, "--mode", "rational"],
            capture_output=True, text=True, timeout=30,
        )
        assert cp.returncode == 1, (args, cp.stderr[-2000:])
        assert cp.stderr.startswith("error:") and "MAX_RATIONAL_WORK" in cp.stderr, args
        assert "Traceback" not in cp.stderr and cp.stdout == ""


def test_only_the_process_entry_freezes_the_collector():
    # `python -m secquery` freezes the objects its imports made; importing the
    # package or calling cli.main in process leaves the caller's collector alone.
    in_process = (
        "import contextlib, gc, io\n"
        "from secquery import cli\n"
        "before = gc.get_freeze_count()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['sweep', '--n', '10', '--k-range', '0:1', '--p-values', '0.9'])\n"
        "print(before, code, gc.get_freeze_count())\n"
    )
    cp = subprocess.run([sys.executable, "-c", in_process], capture_output=True, text=True)
    assert cp.stdout == "0 0 0\n", cp.stderr[-2000:]
    entry = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
        "sys.argv = ['secquery', 'sweep', '--n', '10', '--k-range', '0:1', '--p-values', '0.9']\n"
        "runpy.run_module('secquery', run_name='__main__', alter_sys=True)\n"
    )
    cp = subprocess.run([sys.executable, "-c", entry], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr[-2000:]
    assert cp.stdout.startswith("p,K,success\n")
    label, count = cp.stderr.split()
    assert label == "frozen" and int(count) > 0
