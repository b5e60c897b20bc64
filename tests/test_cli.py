"""Command-line behavior: outputs, exit codes, determinism."""

import contextlib
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fatpoints
from conftest import (DELETE, NON_SPECIAL_REMOVALS, json_values, mutant, packaged_csv,
                      positions)
from fatpoints import cli, degeneration, neg_curves, oracle, tables
from fatpoints.cli import build_parser, main
from fatpoints.core import parse_system


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def captured(argv):
    """``main(argv)`` with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def fresh_process(argv):
    """``python -m fatpoints ARGV`` in a new interpreter: (exit code, stdout, stderr)."""
    src = str(Path(fatpoints.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "fatpoints", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


class TestVdim:
    def test_table_row(self, capsys):
        code, out, _ = run(capsys, "vdim", "L(24,16,6^9)")
        assert code == 0
        assert "v: -1" in out and "e: -1" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "--json", "vdim", "L(14,0,6^5)")
        assert json.loads(out) == {"system": "L(14,0,6^5)", "v": 14, "e": 14}


class TestDim:
    def test_special(self, capsys):
        code, out, _ = run(capsys, "dim", "L(10,2,6^3)")
        assert code == 0
        assert "status: special_known" in out and "ell: 2" in out

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "--json", "dim", "L(0)")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "regular" and doc["ell"] == 0

    def test_unknown_exit_code(self, capsys, monkeypatch):
        # L(150,10,6^120) is regular (8900) unless the node budget runs out
        monkeypatch.setattr(degeneration, "_MAX_NODES", 3)
        code, out, _ = run(capsys, "--json", "dim", "L(150,10,6^120)")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "unknown" and doc["trace"]["reason"] == "budget exhausted"

    @pytest.mark.parametrize("system", ["L(5,2,6^3)", "L(19,0,6^10)"])
    @pytest.mark.parametrize("flag,value,message", [
        ("--prime", "4", "4 is not prime"),
        ("--prime", str(1 << 23), "outside the accepted range"),
        ("--trials", "0", "trials must be in 1..16, got 0"),
        ("--trials", "17", "trials must be in 1..16, got 17"),
    ])
    def test_bad_oracle_field_exits_2_before_any_node(self, capsys, monkeypatch, system, flag,
                                                      value, message):
        # L(5,2,6^3) needs no oracle, and L(19,0,6^10) reaches it only after its scan
        solved = []
        fresh = degeneration._solve_fresh
        monkeypatch.setattr(degeneration, "_solve_fresh",
                            lambda S, ctx: solved.append(S) or fresh(S, ctx))
        code, out, err = run(capsys, "dim", system, flag, value)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
        assert solved == []

    def test_budget_flag_is_gone(self, capsys):
        code, out, err = run(capsys, "dim", "L(12,3,6^4)", "--budget", "2")
        assert code == 2 and out == ""
        assert err.startswith("usage: ") and "--budget" in err


def _package_functions() -> set[str]:
    modules = ["cli", "core", "cremona", "degeneration", "neg_curves", "oracle", "tables",
               "verdict"]
    return {name for mod in modules
            for name, _ in inspect.getmembers(importlib.import_module(f"fatpoints.{mod}"),
                                              inspect.isfunction)}


class TestRegimeErrors:
    @pytest.mark.parametrize("command", ["classify", "dim"])
    def test_tail_over_six_names_the_system(self, capsys, command):
        code, out, err = run(capsys, command, "L(9,1,7^3)")
        assert code == 2 and out == ""
        assert "L(9,1,7^3)" in err and "tail multiplicity" in err
        assert not set(re.findall(r"\w+", err)) & _package_functions()


class TestParseErrors:
    def test_caret(self, capsys):
        code, _, err = run(capsys, "vdim", "L(22,7,^12)")
        assert code == 2
        assert "position 7" in err
        lines = err.splitlines()
        assert lines[-1].index("^") == 7

    @pytest.mark.parametrize("argv", [["vdim", "L({})"], ["dim", "L({},0,6^3)"],
                                      ["degen", "L({},0,6^3)", "5", "1"]],
                             ids=["vdim", "dim", "degen"])
    def test_integer_too_long(self, capsys, argv):
        # one digit over the parser's bound, refused before any number is printed
        system = argv[1].format("7" * 2001)
        code, out, err = run(capsys, argv[0], system, *argv[2:])
        assert code == 2 and out == ""
        assert "integer too long at position 2" in err
        assert err.splitlines()[-1].index("^") == 2

    def test_integer_of_2000_digits(self, capsys):
        code, out, _ = run(capsys, "vdim", "L(" + "7" * 2000 + ")")
        assert code == 0 and "v: " in out

    def test_integer_too_long_in_a_certificate(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({"system": "L(" + "7" * 2001 + ")", "status": "regular",
                                    "ell": 0, "trace": {}}))
        code, out, err = run(capsys, "check-certificate", str(path))
        assert code == 1 and out == ""
        assert err.startswith("certificate INVALID: malformed system: integer too long")


class TestClassify:
    def test_witness_output(self, capsys):
        code, out, _ = run(capsys, "--json", "classify", "L(10,2,6^3)")
        doc = json.loads(out)
        assert doc["special"] and doc["ell"] == 2
        assert doc["witness"]["residual"] == "L(4,2,2^3)"

    def test_splittings_listing(self, capsys):
        code, out, _ = run(capsys, "--json", "classify", "L(14,0,6^5)", "--splittings")
        doc = json.loads(out)
        assert {"curve": "L(2,0,1^5)", "intersection": -2} in doc["splittings"]

    @pytest.mark.parametrize("flag", [[], ["--json"]])
    def test_split_chain_built_once(self, capsys, monkeypatch, flag):
        calls = []
        chain = neg_curves._split_chain

        def counted(*args, **kwargs):
            calls.append(args)
            return chain(*args, **kwargs)
        monkeypatch.setattr(neg_curves, "_split_chain", counted)
        code, out, _ = run(capsys, *flag, "classify", "L(10,2,6^3)")
        assert code == 0 and len(calls) == 1
        assert "L(4,2,2^3)" in out

    def test_text_witness(self, capsys):
        code, out, _ = run(capsys, "classify", "L(10,2,6^3)")
        assert code == 0
        assert out.splitlines() == [
            "system: L(10,2,6^3)", "(-1)-special: True", "ell: 2", "splits:",
            "  2 x L(1,0,1^2,0)", "  2 x L(1,0,1,0,1)", "  2 x L(1,0,0,1^2)",
            "residual: L(4,2,2^3) (v = 2)"]

    @pytest.mark.parametrize("system", ["L(30,20,6^30)", "L(3,0,6^10000)"])
    def test_oversized_splitting_listing_refused(self, capsys, system):
        code, out, err = run(capsys, "classify", system, "--splittings")
        assert code == 2 and out == ""
        assert "refusing to list" in err


def _no_reduction(system):
    raise AssertionError(f"{system} was reduced")


class TestCremonaCommand:
    def test_single_move(self, capsys):
        code, out, _ = run(capsys, "--json", "cremona", "L(14,5,6^5)",
                           "--slots", "1", "2", "3")
        doc = json.loads(out)
        assert doc["result"] == "L(10,5,2^3,6^2)"

    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "--json", "cremona", "L(10,8,6^2)")
        doc = json.loads(out)
        assert doc["final"].startswith("L(0,")
        assert all(m["move"] == "line" for m in doc["moves"])

    @pytest.mark.parametrize("system,code", [
        ("L(100000000000000000000,99999999999999999999,99999999999999999999)", 2),
        ("L(10001)", 2), ("L(10000)", 0)])
    def test_reduce_refuses_a_degree_above_the_cap(self, capsys, monkeypatch, system, code):
        # a reduction takes up to degree + 1 moves, each one line of output
        if code == 2:
            monkeypatch.setattr(cli, "standard_reduce", _no_reduction)
        got, out, err = run(capsys, "cremona", system)
        assert got == code
        if code == 2:
            assert out == "" and err == "error: refusing to reduce a system of degree above 10000\n"
        else:
            assert out == "final: L(10000)  (e = 50015000)\n" and err == ""

    def test_single_move_has_no_degree_cap(self, capsys):
        code, out, _ = run(capsys, "cremona", "L(100000000000000000000,1,1,1)",
                           "--slots", "0", "1", "2")
        assert (code, out) == (0, "L(100000000000000000000,1,1^2) -> L(199999999999999999997,"
                                  "99999999999999999998,99999999999999999998^2)\n")


# ``fatpoints cremona SYSTEM`` as it printed while each move of a reduction
# recorded the systems before and after it; L(21,0,6^10) is already standard.
CREMONA_OUTPUT = {
    "L(14,0,6^6)": (
        '{"move":"cremona","slots":[1,2,3],"before":"L(14,0,6^6)","after":"L(10,0,6^3,2^3)"}\n'
        '{"move":"line","slots":[1,2],"before":"L(10,0,6^3,2^3)","after":"L(9,0,6,5^2,2^3)"}\n'
        '{"move":"line","slots":[1,2],"before":"L(9,0,6,5^2,2^3)","after":"L(8,0,5^2,4,2^3)"}\n'
        '{"move":"line","slots":[1,2],"before":"L(8,0,5^2,4,2^3)","after":"L(7,0,4^3,2^3)"}\n'
        '{"move":"line","slots":[1,2],"before":"L(7,0,4^3,2^3)","after":"L(6,0,4,3^2,2^3)"}\n'
        '{"move":"line","slots":[1,2],"before":"L(6,0,4,3^2,2^3)","after":"L(5,0,3^2,2^4)"}\n'
        '{"move":"line","slots":[1,2],"before":"L(5,0,3^2,2^4)","after":"L(4,0,2^6)"}\n'
        '{"move":"cremona","slots":[1,2,3],"before":"L(4,0,2^6)","after":"L(2,0,2^3)"}\n'
        '{"move":"line","slots":[1,2],"before":"L(2,0,2^3)","after":"L(1,0,2,1^2)"}\n'
        'final: L(1,0,2,1^2)  (e = -1)\n'
    ),
    "L(20,18,6^5)": (
        '{"move":"line","slots":[0,1],"before":"L(20,18,6^5)","after":"L(19,17,6^4,5)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(19,17,6^4,5)","after":"L(18,16,6^3,5^2)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(18,16,6^3,5^2)","after":"L(17,15,6^2,5^3)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(17,15,6^2,5^3)","after":"L(16,14,6,5^4)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(16,14,6,5^4)","after":"L(15,13,5^5)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(15,13,5^5)","after":"L(14,12,5^4,4)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(14,12,5^4,4)","after":"L(13,11,5^3,4^2)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(13,11,5^3,4^2)","after":"L(12,10,5^2,4^3)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(12,10,5^2,4^3)","after":"L(11,9,5,4^4)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(11,9,5,4^4)","after":"L(10,8,4^5)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(10,8,4^5)","after":"L(9,7,4^4,3)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(9,7,4^4,3)","after":"L(8,6,4^3,3^2)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(8,6,4^3,3^2)","after":"L(7,5,4^2,3^3)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(7,5,4^2,3^3)","after":"L(6,4,4,3^4)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(6,4,4,3^4)","after":"L(5,3,3^5)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(5,3,3^5)","after":"L(4,2,3^4,2)"}\n'
        '{"move":"line","slots":[1,2],"before":"L(4,2,3^4,2)","after":"L(3,2,3^2,2^3)"}\n'
        '{"move":"line","slots":[1,2],"before":"L(3,2,3^2,2^3)","after":"L(2,2,2^5)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(2,2,2^5)","after":"L(1,1,2^4,1)"}\n'
        'final: L(1,1,2^4,1)  (e = -1)\n'
    ),
    "L(46,36,6^22)": (
        '{"move":"cremona","slots":[0,1,2],"before":"L(46,36,6^22)","after":"L(44,34,6^20,4^2)"}\n'
        '{"move":"cremona","slots":[0,1,2],"before":"L(44,34,6^20,4^2)"'
        ',"after":"L(42,32,6^18,4^4)"}\n'
        '{"move":"cremona","slots":[0,1,2],"before":"L(42,32,6^18,4^4)"'
        ',"after":"L(40,30,6^16,4^6)"}\n'
        '{"move":"cremona","slots":[0,1,2],"before":"L(40,30,6^16,4^6)"'
        ',"after":"L(38,28,6^14,4^8)"}\n'
        '{"move":"cremona","slots":[0,1,2],"before":"L(38,28,6^14,4^8)"'
        ',"after":"L(36,26,6^12,4^10)"}\n'
        '{"move":"cremona","slots":[0,1,2],"before":"L(36,26,6^12,4^10)"'
        ',"after":"L(34,24,6^10,4^12)"}\n'
        '{"move":"cremona","slots":[0,1,2],"before":"L(34,24,6^10,4^12)"'
        ',"after":"L(32,22,6^8,4^14)"}\n'
        '{"move":"cremona","slots":[0,1,2],"before":"L(32,22,6^8,4^14)"'
        ',"after":"L(30,20,6^6,4^16)"}\n'
        '{"move":"cremona","slots":[0,1,2],"before":"L(30,20,6^6,4^16)"'
        ',"after":"L(28,18,6^4,4^18)"}\n'
        '{"move":"cremona","slots":[0,1,2],"before":"L(28,18,6^4,4^18)"'
        ',"after":"L(26,16,6^2,4^20)"}\n'
        '{"move":"cremona","slots":[0,1,2],"before":"L(26,16,6^2,4^20)","after":"L(24,14,4^22)"}\n'
        'final: L(24,14,4^22)  (e = -1)\n'
    ),
    "L(6,6,6)": (
        '{"move":"line","slots":[0,1],"before":"L(6,6,6)","after":"L(5,5,5)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(5,5,5)","after":"L(4,4,4)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(4,4,4)","after":"L(3,3,3)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(3,3,3)","after":"L(2,2,2)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(2,2,2)","after":"L(1,1,1)"}\n'
        '{"move":"line","slots":[0,1],"before":"L(1,1,1)","after":"L(0,0)"}\n'
        'final: L(0,0)  (e = 0)\n'
    ),
    "L(21,0,6^10)": (
        'final: L(21,0,6^10)  (e = 42)\n'
    ),
}


class TestCremonaOutputPinned:
    """Moves print the systems around them, byte for byte as recorded above."""

    @pytest.mark.parametrize("name", CREMONA_OUTPUT)
    def test_text(self, capsys, name):
        assert run(capsys, "cremona", name) == (0, CREMONA_OUTPUT[name], "")

    @pytest.mark.parametrize("name", CREMONA_OUTPUT)
    def test_json(self, capsys, name):
        *moves, final = CREMONA_OUTPUT[name].splitlines()
        doc = {"system": name, "final": final.split()[1],
               "moves": [json.loads(line) for line in moves]}
        assert run(capsys, "--json", "cremona", name) == (0, json.dumps(doc, indent=2) + "\n", "")


class TestDegenCommand:
    def test_split(self, capsys):
        code, out, _ = run(capsys, "--json", "degen", "L(14,0,6^6)", "5", "3")
        doc = json.loads(out)
        assert doc["plane"] == "L(9,0,6^3)" and doc["ruled_kernel"] == "L(14,10,6^3)"

    def test_text_exact(self, capsys):
        code, out, _ = run(capsys, "degen", "L(14,0,6^6)", "5", "3")
        assert code == 0
        assert out == ("plane:         L(9,0,6^3)  (v = -9)\n"
                       "ruled:         L(14,9,6^3)  (v = 11)\n"
                       "plane kernel:  L(8,0,6^3)  (v = -19)\n"
                       "ruled kernel:  L(14,10,6^3)  (v = 1)\n")

    def test_json_exact(self, capsys):
        code, out, _ = run(capsys, "--json", "degen", "L(14,0,6^6)", "5", "3")
        assert code == 0
        assert list(json.loads(out).items()) == [
            ("system", "L(14,0,6^6)"), ("k", 5), ("b", 3),
            ("plane", "L(9,0,6^3)"), ("ruled", "L(14,9,6^3)"),
            ("plane_kernel", "L(8,0,6^3)"), ("ruled_kernel", "L(14,10,6^3)"),
            ("v_plane", -9), ("v_ruled", 11), ("v_plane_kernel", -19), ("v_ruled_kernel", 1)]
        assert out.startswith('{\n  "system": "L(14,0,6^6)",\n  "k": 5,\n')


class TestHardCasesCommand:
    def test_prints_the_packaged_csv(self, capsys):
        code, out, _ = run(capsys, "hard-cases")
        assert code == 0
        assert out == packaged_csv("hard_cases.csv")

    def test_json_lists_the_rows(self, capsys):
        code, out, _ = run(capsys, "hard-cases", "--json")
        rows = json.loads(out)
        assert code == 0 and len(rows) == len(tables.known_hard_cases()) == 81
        assert rows[0] == {"d_minus_m0": 8, "system": "L(8,0,6^3)", "status": "empty",
                           "method": "three-point base case"}


class TestOracleCommand:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "oracle", "--system", "L(10,2,6^3)",
                           "--prime", "32003", "--seed", "42", "--trials", "3")
        doc = json.loads(out)
        assert doc["ell"] == 2 and doc["prime"] == 32003 and doc["seed"] == 42
        assert doc["certified_regular"] is False

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, "oracle", "L(12,4,6^4)", "--seed", "7")
        _, b, _ = run(capsys, "oracle", "L(12,4,6^4)", "--seed", "7")
        assert a == b

    def test_missing_system(self, capsys):
        code, _, err = run(capsys, "oracle")
        assert code == 2

    def test_system_given_twice(self, capsys):
        code, out, err = run(capsys, "oracle", "L(4,2)", "--system", "L(5)")
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("trials", ["0", "17"])
    def test_trials_out_of_bounds(self, capsys, trials):
        code, out, err = run(capsys, "oracle", "L(10,2,6^3)", "--trials", trials)
        assert code == 2 and out == ""
        assert "error:" in err and "trials" in err

    @pytest.mark.parametrize("prime", ["32004", "4294967311"])
    def test_bad_prime(self, capsys, prime):
        code, out, err = run(capsys, "oracle", "--system", "L(4,2,2)", "--prime", prime)
        assert code == 2 and out == ""
        assert "error:" in err and prime in err

    def test_over_the_column_cap(self, capsys, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("points were sampled")

        monkeypatch.setattr(oracle, "_sample_points", no_sampling)
        code, out, err = run(capsys, "oracle", "--system", "L(101,1)")  # 5253 monomials
        assert code == 2 and out == ""
        assert "error:" in err and "5151" in err

    def test_over_the_entry_cap(self, capsys, monkeypatch):
        def no_matrix(*args, **kwargs):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(oracle, "_sample_points", no_matrix)
        monkeypatch.setattr(oracle, "build_matrix", no_matrix)
        code, out, err = run(capsys, "oracle", "L(100,0,6^10000)")  # 210000 x 5151
        assert code == 2 and out == ""
        assert err == ("error: L(100,0,6^10000) has a 210000 x 5151 matrix, over the "
                       "oracle's cap of 26532801 entries\n")

    def test_python_dash_m(self):
        code, out, err = fresh_process(["oracle", "--system", "L(4,2)", "--json"])
        assert code == 0, err
        assert json.loads(out)["ell"] == 11


class TestTableCommand:
    def test_generate_matches_golden(self, capsys):
        code, out, _ = run(capsys, "table", "generate", "--e-max", "4")
        assert code == 0
        assert out == packaged_csv("classification_table.csv")

    def test_generate_json_flag_prints_the_table_json(self, capsys):
        doc = tables.classification_to_json(tables.classification_table(4))
        expected = json.dumps(doc, indent=2) + "\n"
        assert run(capsys, "table", "generate", "--json") == (0, expected, "")

    def test_generate_has_no_format_option(self, capsys):
        # --json prints what --format json printed
        code, out, err = run(capsys, "table", "generate", "--format", "json")
        assert code == 2 and out == "" and "unrecognized arguments: --format" in err

    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, "--json", "table", "verify", "--mode", "formula",
                           "--e-max", "2", "--max-degree", "25")
        doc = json.loads(out)
        assert code == 0 and doc["ok"] is True
        assert all(set(row) == {"system", "passed", "checks"} for row in doc["rows"])
        checks = [c for row in doc["rows"] for c in row["checks"]]
        assert checks and all(c["passed"] for c in checks)
        assert set(checks[0]) == {"system", "passed", "expected", "got", "command"}

    def test_verify_json_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(tables, "virtual_dim", lambda system: 10 ** 6)
        code, out, _ = run(capsys, "table", "verify", "--max-degree", "12", "--json")
        doc = json.loads(out)
        assert code == 1 and doc["ok"] is False
        assert any(c["got"] == "1000000" and not c["passed"]
                   for row in doc["rows"] for c in row["checks"])

    def test_verify_formula(self, capsys):
        code, out, _ = run(capsys, "table", "verify", "--mode", "formula",
                           "--e-max", "2", "--max-degree", "25")
        assert code == 0
        assert "all rows pass" in out

    def test_verify_skips_rows_without_instances(self, capsys):
        code, out, _ = run(capsys, "table", "verify", "--mode", "formula",
                           "--max-degree", "6")
        lines = out.splitlines()
        assert code == 0 and lines[-1] == "all rows pass"
        skipped = [line for line in lines[:-1] if line.startswith("skip  ")]
        assert len(skipped) == 40 and len(lines) == 47
        assert all(line.endswith("[0 instances]") for line in skipped)
        assert all(line.startswith("ok  ") for line in lines[:-1] if line not in skipped)

    @pytest.mark.parametrize("setting", [["--trials", "99"], ["--prime", "4"]])
    @pytest.mark.parametrize("max_degree", ["0", "8"])
    def test_verify_oracle_settings_refused_before_any_row(self, capsys, setting, max_degree):
        code, out, err = run(capsys, "table", "verify", "--mode", "oracle",
                             "--max-degree", max_degree, *setting)
        assert code == 2 and out == ""
        assert "error:" in err

    @pytest.mark.parametrize("argv, reason", [
        (["--max-degree", "301"], "d_cap must be <= 300"),
        (["--mode", "oracle", "--max-degree", "-1"], "d_cap must be >= 0"),
        (["--mode", "oracle", "--max-degree", "100"],
         "L(100,100,6^5) has a 5155 x 5151 matrix, over the oracle's cap"),
        # every row's instances have degree 6 or more: a check of none would pass
        (["--max-degree", "5"], "no instance has degree <= d_cap (5)"),
    ], ids=["degree-cap", "negative-degree-cap", "oracle-size", "no-instance"])
    def test_verify_bounds_refused_before_any_row(self, capsys, monkeypatch, argv, reason):
        def no_instance(*args, **kwargs):
            raise AssertionError("an instance was checked")
        monkeypatch.setattr(tables, "_check_instance", no_instance)
        code, out, err = run(capsys, "table", "verify", *argv)
        assert code == 2 and out == ""
        assert f"error: {reason}" in err

    @pytest.mark.parametrize("action", ["generate", "verify"])
    def test_e_max_over_the_bound_refused_before_any_work(self, capsys, monkeypatch, action):
        def no_classifier(L):
            raise AssertionError("the classifier was called")
        monkeypatch.setattr(neg_curves, "hh_dimension", no_classifier)
        monkeypatch.setattr(neg_curves, "hh_prediction", no_classifier)
        code, out, err = run(capsys, "table", action, "--e-max", "27")
        assert code == 2 and out == ""
        assert "error:" in err and "e_max must be <= 26" in err


class TestCertificateFlow:
    def test_dump_and_check(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "dim", "L(14,0,6^6)", "--certificate", str(path))
        assert code == 0
        code, out, _ = run(capsys, "check-certificate", str(path))
        assert code == 0 and "certificate OK" in out

    def test_long_transcript_round_trip(self, capsys, tmp_path):
        # the reduction records 4400 moves on a vector of 3001 slots, so a replay
        # that did O(n) work per move would take seconds here
        path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "dim", "L(10000,9995,6^3000)", "--certificate", str(path))
        assert code == 0 and json.loads(path.read_text())["status"] == "empty"
        code, out, _ = run(capsys, "check-certificate", str(path))
        assert code == 0 and "certificate OK" in out

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "dim", "L(14,0,6^6)", "--certificate", str(path))
        code, out, err = run(capsys, "check-certificate", str(path), "--json")
        assert code == 0 and err == ""
        assert json.loads(out) == {"system": "L(14,0,6^6)", "status": "empty", "ell": -1,
                                   "valid": True}
        doc = json.loads(path.read_text())
        doc["ell"], doc["status"] = 3, "regular"
        path.write_text(json.dumps(doc))
        _, _, text_err = run(capsys, "check-certificate", str(path))
        code, out, err = run(capsys, "--json", "check-certificate", str(path))
        assert code == 1 and err == ""
        report = json.loads(out)
        assert report["valid"] is False and list(report) == ["valid", "reason"]
        assert text_err == f"certificate INVALID: {report['reason']}\n"

    def test_tampered(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "dim", "L(14,0,6^6)", "--certificate", str(path))
        doc = json.loads(path.read_text())
        doc["ell"] = 3
        doc["status"] = "regular"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check-certificate", str(path))
        assert code == 1 and "INVALID" in err

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"system": 5},
        {"system": "L(19,5,6^9)", "status": "regular", "ell": 5,
         "trace": {"kind": "rank_oracle", "system": "L(19,5,6^9)", "prime": 32003,
                   "seed": 0, "trials": "x", "ell": 5, "expected": 5}},
        {"system": "L(14,0,6^6)", "status": "empty", "ell": -1,
         "trace": {"kind": "cremona_reduction", "system": "L(14,0,6^6)", "moves": 5,
                   "final": "L(0)", "leaf": {}}},
    ], ids=["list", "int-system", "string-trials", "int-moves"])
    def test_badly_shaped_json(self, capsys, tmp_path, doc):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check-certificate", str(path))
        assert code == 1 and out == ""
        assert err.startswith("certificate INVALID: ")

    @pytest.mark.parametrize("system,edit", [
        ("L(10,2,6^3)", lambda doc: doc.pop("ell")),
        ("L(14,0,6^6)", lambda doc: doc["trace"]["moves"][0].pop("slots")),
        ("L(21,0,6^10)", lambda doc: doc["trace"].update(k=0)),
        ("L(21,0,6^10)", lambda doc: doc["trace"].update(b=11)),
    ], ids=["no-ell", "no-slots", "k-out-of-range", "b-out-of-range"])
    def test_invalid_certificate_exits_1(self, capsys, tmp_path, system, edit):
        path = tmp_path / "cert.json"
        run(capsys, "dim", system, "--certificate", str(path))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check-certificate", str(path))
        assert code == 1 and out == ""
        assert err.startswith("certificate INVALID: ")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_integer_too_long_to_read_exits_1(self, capsys, tmp_path, json_flag):
        # valid JSON that proves nothing: past the interpreter's 4300-digit limit
        path = tmp_path / "cert.json"
        ell = "9" * 5000
        path.write_text(f'{{"system": "L(14,0,6^6)", "status": "empty", "ell": {ell}, '
                        f'"trace": {{"kind": "no_conditions", "system": "L(14,0,6^6)", '
                        f'"ell": {ell}}}}}')
        code, out, err = run(capsys, *json_flag, "check-certificate", str(path))
        reason = "an integer is too long to read"
        assert code == 1
        if json_flag:
            assert err == "" and json.loads(out) == {"valid": False, "reason": reason}
        else:
            assert out == "" and err == f"certificate INVALID: {reason}\n"

    def test_certificate_of_a_2000_digit_degree(self, capsys, tmp_path):
        # its ell has 4000 digits, within what the interpreter reads
        path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "dim", "L(" + "9" * 2000 + ")", "--certificate", str(path))
        assert code == 0 and len(str(json.loads(path.read_text())["ell"])) == 4000
        code, out, _ = run(capsys, "check-certificate", str(path))
        assert code == 0 and out.startswith("certificate OK: ")

    def test_too_deeply_nested_json_exits_2(self, capsys, tmp_path):
        depth = sys.getrecursionlimit() + 200
        path = tmp_path / "cert.json"
        path.write_text("[" * depth + "]" * depth)
        code, out, err = run(capsys, "check-certificate", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name", NON_SPECIAL_REMOVALS)
    def test_non_special_removal_exits_1(self, capsys, tmp_path, name):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(NON_SPECIAL_REMOVALS[name]))
        code, out, err = run(capsys, "check-certificate", str(path))
        assert code == 1 and out == ""
        assert err.startswith("certificate INVALID: ")

    def test_oracle_leaf_over_the_entry_cap_exits_1(self, capsys, tmp_path, monkeypatch):
        def no_matrix(*args, **kwargs):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(oracle, "_sample_points", no_matrix)
        monkeypatch.setattr(oracle, "build_matrix", no_matrix)
        leaf = {"kind": "rank_oracle", "system": "L(100,0,6^10000)", "prime": 32003,
                "seed": 0, "trials": 3, "ell": -1, "expected": -1}
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({"system": leaf["system"], "status": "empty", "ell": -1,
                                    "trace": leaf}))
        code, out, err = run(capsys, "check-certificate", str(path))
        assert code == 1 and out == ""
        assert err.startswith("certificate INVALID: rank oracle leaf: ") and "entries" in err

    def test_forged_curve_exits_1(self, capsys, tmp_path):
        # L(2,1,1) has dimension 3; L(1,3) is no (-1)-curve
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({
            "system": "L(2,1,1)", "status": "empty", "ell": -1,
            "trace": {"kind": "fixed_part_removal", "system": "L(2,1,1)", "steps": [],
                      "rejected": {"curve": "L(1,3)", "n": 1}, "ell": -1}}))
        code, out, err = run(capsys, "check-certificate", str(path))
        assert code == 1 and out == ""
        assert "not a (-1)-curve" in err

    def test_oracle_replay_flag_is_gone(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "dim", "L(19,5,6^9)", "--certificate", str(path))
        code, out, err = run(capsys, "check-certificate", str(path), "--no-oracle-replay")
        assert code == 2 and out == ""
        assert err.startswith("usage: ") and "--no-oracle-replay" in err


# each subcommand with the positionals it needs, and each global flag with its
# destination, its default and the values given before and after the subcommand
SUBCOMMANDS = {"vdim": ["L(5)"], "dim": ["L(5)"], "classify": ["L(5)"], "cremona": ["L(5)"],
               "degen": ["L(5)", "1", "1"], "oracle": ["L(5)"], "table": ["generate"],
               "hard-cases": [], "check-certificate": ["cert.json"]}
GLOBAL_FLAGS = {"--prime": ("prime", 32003, 7, 11), "--seed": ("seed", 0, 5, 9),
                "--trials": ("trials", 3, 2, 4), "--json": ("json", False, True, True)}


class TestGlobalFlags:
    """A global flag is accepted before and after the subcommand; the value after
    it wins, and a flag given nowhere takes its default."""

    def test_every_subcommand_is_listed(self):
        [sub] = [action for action in build_parser()._actions if action.dest == "command"]
        assert list(sub.choices) == list(SUBCOMMANDS)

    @pytest.mark.parametrize("position", ["before", "after", "both"])
    @pytest.mark.parametrize("flag", GLOBAL_FLAGS)
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_parsed_value(self, command, flag, position):
        def given(value):
            return [flag] if value is True else [flag, str(value)]

        dest, _, before, after = GLOBAL_FLAGS[flag]
        argv = [command, *SUBCOMMANDS[command]]
        if position != "after":
            argv = given(before) + argv
        if position != "before":
            argv = argv + given(after)
        args = vars(build_parser().parse_args(argv))
        expected = {name: default for name, default, _, _ in GLOBAL_FLAGS.values()}
        expected[dest] = before if position == "before" else after
        assert {name: args[name] for name in expected} == expected


REUSE_SYSTEM = "L(4,2,2)"


class TestParserReuse:
    """``main`` builds its parser once per process, and no call sees another's flags."""

    @pytest.mark.parametrize("calls,codes,last_ok", [
        ([["--seed", "5", "oracle", REUSE_SYSTEM, "--json"], ["oracle", REUSE_SYSTEM, "--json"]],
         [0, 0], lambda out: json.loads(out)["seed"] == 0),
        ([["--json", "vdim", REUSE_SYSTEM], ["vdim", REUSE_SYSTEM]],
         [0, 0], lambda out: out.startswith(f"system: {REUSE_SYSTEM}\n")),
        ([["dim", REUSE_SYSTEM, "--budget", "2"], ["vdim", REUSE_SYSTEM]],
         [2, 0], lambda out: "v: " in out),
        ([["dim"], ["--help"], ["vdim", REUSE_SYSTEM]],
         [2, 0, 0], lambda out: "v: " in out),
    ], ids=["seed", "json", "usage-error", "missing-argument-and-help"])
    def test_calls_in_one_process_match_fresh_processes(self, monkeypatch, calls, codes,
                                                         last_ok):
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
        build_parser.cache_clear()
        results = [captured(argv) for argv in calls]
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(calls) - 1)
        assert [code for code, _, _ in results] == codes and last_ok(results[-1][1])
        assert results == [fresh_process(argv) for argv in calls]


class TestOversizedSystem:
    def test_million_multiplicities_exit_2(self, capsys):
        code, out, err = run(capsys, "vdim", "L(5" + ",1^10000" * 100 + ")")
        assert code == 2 and out == ""
        assert "more than 10001 multiplicities" in err


# -- shape fuzz: malformed input of any shape ends in exit 1 or 2, never a traceback

FUZZ_PROOFS = {"L(10,2,6^3)": degeneration.recursive_dim,   # special: a fixed-part removal
               "L(14,0,6^6)": degeneration.recursive_dim,   # empty: a Cremona reduction
               "L(21,0,6^10)": degeneration.recursive_dim,  # regular: a degeneration
               "L(6,6,6^2)": neg_curves.hh_dimension}       # empty: a rejected split


@pytest.fixture(scope="module")
def fuzz_certificates():
    return {name: json.loads(prove(parse_system(name)).dumps())
            for name, prove in FUZZ_PROOFS.items()}


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cert.json"


class TestShapeFuzz:
    @pytest.mark.parametrize("name", FUZZ_PROOFS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_certificate(self, fuzz_file, fuzz_certificates, name, data):
        original = fuzz_certificates[name]
        fields = list(positions(original))
        path = data.draw(st.sampled_from([path for path, _ in fields]), label="path")
        texts = sorted({value for _, value in fields if isinstance(value, str)})
        value = DELETE if data.draw(st.booleans(), label="delete") else \
            data.draw(json_values(texts), label="value")
        cert = mutant(original, path, value)
        fuzz_file.write_text(json.dumps(cert))
        code, out, err = captured(["check-certificate", str(fuzz_file)])
        if code == 0:
            assert out.endswith(f"(ell = {original['ell']})\n"), (path, cert)
        else:
            assert code in (1, 2) and out == "" and err, (path, cert)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(["L", "(", ")", ",", "^", " ", "0", "1", "6", "12",
                                     "10000", "-", "²", "x"]), max_size=14).map("".join)
           | st.builds(lambda d, groups: f"L({d}" + "".join(f",{m}^{c}" for m, c in groups)
                       + ")", st.integers(0, 60),
                       st.lists(st.tuples(st.integers(0, 9), st.integers(0, 12000)),
                                max_size=3)))
    def test_random_system_string(self, text):
        code, out, err = captured(["vdim", text])
        assert code in (0, 2)
        assert (out.startswith("system: ") and err == "") if code == 0 else (out == "" and err)
