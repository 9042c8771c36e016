"""Tests for the command-line interface: output formats and exit codes."""

import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

import ordlift
from ordlift import laws, steinhaus
from ordlift.cli import main
from oracles import order_mod_prime
from reference_grid import ALPHA_GRID


def run_cli(*argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_eval_alpha():
    code, out, _ = run_cli("eval", "alpha", "2", "11")
    assert code == 0 and out.strip() == "10"
    code, out, _ = run_cli("eval", "alpha", "2", "1")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli("eval", "alpha", "6", "10")
    assert code == 0 and out.strip() == "0"


def test_eval_order_and_proj_order():
    code, out, _ = run_cli("eval", "order", "7", "24")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli("eval", "proj-order", "2", "5")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli("eval", "beta", "2", "27")
    assert code == 0 and out.strip() == "1"
    # 2129 * 3061: both primes meet at one step of the first rho walk.
    code, out, err = run_cli("eval", "order", "2", "6516869")
    assert code == 0 and err == ""
    assert out == f"{math.lcm(order_mod_prime(2, 2129), order_mod_prime(2, 3061))}\n"


def test_eval_negative_base():
    # -2 = 9 mod 11, and alpha(9, 11) = 5
    code, out, _ = run_cli("eval", "alpha", "--", "-2", "11")
    assert code == 0 and out.strip() == "5"


def test_eval_noncoprime_order_is_domain_error():
    code, out, err = run_cli("eval", "order", "6", "10")
    assert code == 1
    assert out == ""
    assert "gcd" in err


def test_eval_arithmetic_failures_exit_1():
    # The primes of 60 and 61 bits that random_prime draws from Random(1):
    # Hart's pass, Pollard rho and ECM run out of budget.
    t0 = time.perf_counter()
    code, out, err = run_cli("eval", "order", "2", "1631903435575911832850657892379182733")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Pollard rho" in err
    assert time.perf_counter() - t0 < 5.0
    # A strong pseudoprime to the bases 2..41 that the strong Lucas test
    # rejects: split into its two primes, it gives the true order.
    primes = (1287836182261, 2575672364521)
    code, out, err = run_cli("eval", "order", "43", str(math.prod(primes)))
    assert code == 0 and err == ""
    assert out == f"{math.lcm(*(order_mod_prime(43, p) for p in primes))}\n"


def test_eval_order_past_psi12():
    # p = 108 * psi_12 + 1 is prime, and p - 1 has the factor psi_12, which
    # passes the twelve bases 2..37: the thirteenth base exposes it, so the
    # true order is printed, not a multiple of it.
    code, out, _ = run_cli(
        "eval", "order", "20108120060913217696369370", "34415912646075364326085789"
    )
    assert code == 0 and out == "7184975223969\n"
    code, out, _ = run_cli("eval", "order", "41", "318665857834031151167461")
    assert code == 0 and out == "798330580440\n"


def test_eval_usage_errors_exit_2():
    code, _, _ = run_cli("eval", "gamma", "2", "11")
    assert code == 2
    code, _, _ = run_cli("eval", "alpha", "2", "0")
    assert code == 2
    code, _, _ = run_cli("eval", "alpha", "x", "11")
    assert code == 2
    code, _, _ = run_cli("nosuchcommand")
    assert code == 2


def test_table_text_aligned():
    code, out, _ = run_cli("table", "--n-min", "1", "--n-max", "1",
                           "--a-min", "1", "--a-max", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n\\a", "1", "2", "3", "4", "5"]
    assert lines[1].split() == ["1", "1", "1", "1", "1", "1"]


def test_table_csv_matches_reference_grid():
    code, out, _ = run_cli("table", "--function", "alpha", "--format", "csv",
                           "--n-min", "1", "--n-max", "20",
                           "--a-min", "1", "--a-max", "20")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n\\a," + ",".join(str(a) for a in range(1, 21))
    assert len(lines) == 21
    for row_index, line in enumerate(lines[1:], start=1):
        cells = [int(x) for x in line.split(",")]
        assert cells[0] == row_index
        assert cells[1:] == ALPHA_GRID[row_index]


def test_table_csv_round_trips():
    code, out, _ = run_cli("table", "--function", "order", "--format", "csv",
                           "--n-min", "9", "--n-max", "9",
                           "--a-min", "2", "--a-max", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["n\\a,2", "9,6"]


def test_table_json():
    code, out, _ = run_cli("table", "--function", "beta", "--format", "json",
                           "--n-min", "3", "--n-max", "5",
                           "--a-min", "1", "--a-max", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["function"] == "beta"
    assert doc["n_range"] == [3, 5]
    assert doc["a_range"] == [1, 4]
    assert doc["rows"] == [
        [ordlift.beta(a, n) for a in range(1, 5)] for n in range(3, 6)
    ]


def test_table_includes_noncoprime_zeros_for_order():
    code, out, _ = run_cli("table", "--function", "order", "--format", "csv",
                           "--n-min", "10", "--n-max", "10",
                           "--a-min", "1", "--a-max", "6")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row == ["10", "1", "0", "4", "0", "0", "0"]


def test_table_empty_range_is_usage_error():
    code, _, err = run_cli("table", "--n-min", "5", "--n-max", "3")
    assert code == 2
    assert "empty" in err


def test_verify_passes_and_exits_zero():
    code, out, _ = run_cli("verify", "40", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert "0 failures" in lines[-1]


def test_verify_with_workers():
    code, out, _ = run_cli("verify", "40", "6", "--workers", "2")
    assert code == 0
    assert "0 failures" in out


def test_verify_reports_failures_and_exits_one(monkeypatch):
    real = laws.lift_order

    def lift_order(pair, a):  # off by one at 7 | n1, a = 3
        return real(pair, a) + (pair.n1 % 7 == 0 and a == 3)

    monkeypatch.setattr(laws, "lift_order", lift_order)
    code, out, _ = run_cli("verify", "60", "6")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL order-lift-exact (8 of 293 checks failed)"
    assert lines[1] == "  first counterexample: n1=7 n2=7 a=3: lifted 7 != direct 6"
    assert all(line.startswith("PASS ") for line in lines[2:-1])
    assert len(lines) == 17
    assert lines[-1] == "FAIL: 15 laws, 5001 checks, 8 failures"


def test_steinhaus_triangle_output():
    code, out, _ = run_cli("steinhaus", "triangle", "5", "2,2,3,3")
    assert code == 0
    assert out.strip() == "balanced: true; counts: 0:2 1:2 2:2 3:2 4:2"
    code, out, _ = run_cli("steinhaus", "triangle", "3", "1,1")
    assert code == 0
    assert out.strip() == "balanced: false; counts: 0:0 1:2 2:1"
    # A list that starts with a negative residue is no option.
    for argv in (["-1,-2,-3"], ["-1, -2,-3"], ["1,-2,-3"], ["--", "-1,-2,-3"]):
        code, out, _ = run_cli("steinhaus", "triangle", "3", *argv)
        assert code == 0, argv
        assert out.strip() == "balanced: false; counts: 0:2 1:3 2:1", argv
    # A malformed list is reported as one, also when it starts with "-".
    for seq in ("-1,x", "-1,", "1,x"):
        code, out, err = run_cli("steinhaus", "triangle", "3", seq)
        assert code == 2 and out == "", seq
        assert f"expected comma-separated integers, got '{seq}'" in err, seq


def test_steinhaus_triangle_huge_modulus_exits_1(monkeypatch):
    # No list of 10**15 counts can be allocated, so this fails at once, also
    # for a progression mod odd n and for a search at an admissible length,
    # before any row-class table is built.
    def no_tables(*args):
        raise AssertionError("row-class table built")

    monkeypatch.setattr(steinhaus, "_row_class", no_tables)
    for argv in (
        ("triangle", str(10**15), "1,2"),
        ("triangle", str(10**15 + 1), "1,2,3"),
        ("search", str(10**20 + 1), str(10**20)),
        ("search", str(10**15 + 1), str(10**15)),
    ):
        t0 = time.perf_counter()
        code, out, err = run_cli("steinhaus", *argv)
        assert time.perf_counter() - t0 < 5.0
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "too large" in err
        assert len(err.strip().splitlines()) == 1


def test_steinhaus_search_output():
    code, out, _ = run_cli("steinhaus", "search", "3", "3")
    assert code == 0 and out.strip() == "(1,2)"
    code, out, _ = run_cli("steinhaus", "search", "5", "3")
    assert code == 0 and out.strip() == "none"


def test_steinhaus_search_huge_length_is_fast():
    # Rows i and i + k*N of a row class repeat their runs, so the tables
    # cost O(k*N) rows, not one per row of a 10**20-row triangle.
    t0 = time.perf_counter()
    code, out, err = run_cli("steinhaus", "search", "3", "99999999999999999999")
    assert time.perf_counter() - t0 < 5.0
    assert code == 0 and out.strip() == "(1,2)" and err == ""


def test_steinhaus_search_past_the_step_bound_exits_1(monkeypatch):
    # 19 has no balanced progression of length 19, and its full scan adds
    # 3420 table entries.
    monkeypatch.setattr(steinhaus, "_MAX_SEARCH_STEPS", 3419)
    code, out, err = run_cli("steinhaus", "search", "19", "19")
    assert code == 1 and out == ""
    assert err.startswith("error: search is too long")
    assert len(err.strip().splitlines()) == 1


def test_steinhaus_search_even_modulus_is_domain_error():
    code, _, err = run_cli("steinhaus", "search", "4", "4")
    assert code == 1
    assert "odd" in err


def test_steinhaus_bad_sequence_is_usage_error():
    code, _, _ = run_cli("steinhaus", "triangle", "5", "2,x,3")
    assert code == 2


def test_module_entry_point():
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(ordlift.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run(
        [sys.executable, "-m", "ordlift", "eval", "alpha", "2", "19"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "18"
