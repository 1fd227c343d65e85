"""Command-line contract: output bytes, exit codes, budget handling."""

import hashlib
import json
import os
from pathlib import Path

import pytest

from confalg import suites
from confalg.cli import main
from confalg.conformal import build_algebra
from confalg.dsl import elaborate, parse
from confalg.errors import RewriteBudgetExceeded
from confalg.observables import Observables
from confalg.suites import Identity
from test_acceptance import REPORT_SHA256

_REVERSED_WORD = "C[3]*C[2]*C[1]*C[0]*J[2,3]*J[1,3]*J[1,2]*J[0,3]*J[0,2]*J[0,1]*D"


# ---------------------------------------------------------------------------
# expression commands
# ---------------------------------------------------------------------------

def test_normalize_byte_contract(capsys):
    assert main(["normalize", "C[0]*D"]) == 0
    assert capsys.readouterr().out == "D*C[0] + C[0]\n"


def test_bracket_output(capsys):
    assert main(["bracket", "D", "P[0]"]) == 0
    assert capsys.readouterr().out == "P[0]\n"


def test_normalize_rejects_bad_expression(capsys):
    assert main(["normalize", "Q"]) == 2
    err = capsys.readouterr().err
    assert "UnknownSymbol" in err
    # '²' passes str.isdigit() but is no ASCII digit, so it is no integer
    for text in ("P[0] +", "D^²", "²*D"):
        assert main(["normalize", text]) == 2
        assert "DslSyntaxError" in capsys.readouterr().err


def test_engine_error_exits_three(capsys):
    assert main(["normalize", _REVERSED_WORD, "--budget", "1000"]) == 3
    assert "RewriteBudgetExceeded" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, cost",
    [
        # D^k is built as k - 1 products, the last of which costs k + 1
        (["normalize", "D^4000"], 1001),
        # the operands fit, the top-level bracket of the command does not
        (["bracket", "D^600", "D^600"], 1201),
    ],
)
def test_budget_error_names_cost_and_budget(capsys, argv, cost):
    assert main([*argv, "--budget", "1000"]) == 3
    assert capsys.readouterr().err == (
        "confalg: RewriteBudgetExceeded: "
        f"operation cost {cost} exceeds the rewrite budget of 1000\n"
    )


def test_skipped_operand_spends_no_fuel(capsys):
    # a zero left factor skips an operand that can raise nothing but the
    # budget error, so the word's rewriting is never run
    assert main(["normalize", f"0*({_REVERSED_WORD})", "--budget", "1000"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_budget_verdict_does_not_depend_on_history():
    # a private algebra leaves the shared context, and with it the attempt
    # order the exit-code tests rely on, untouched
    obs = Observables(build_algebra())
    ast = parse(_REVERSED_WORD)
    outcomes = []
    for _ in range(5):
        try:
            elaborate(ast, {}, obs, 1000)
            outcomes.append("ok")
        except RewriteBudgetExceeded:
            outcomes.append("exceeded")
    assert len(set(outcomes)) == 1, outcomes


@pytest.mark.parametrize("text", ["C[0]*D^1200", "C[0]^40*D^40", "D^1200*P[0]"])
def test_deep_recursion_exits_three(capsys, text):
    # each fits the default budget, but sorting the word (or moving P[0]
    # through it) recurses deeper than the interpreter allows
    assert main(["normalize", text]) == 3
    err = capsys.readouterr().err
    assert err.startswith("confalg: RecursionError: ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# run command
# ---------------------------------------------------------------------------

def test_run_single_identity(capsys):
    assert main(["run", "--identity", "position-definition"]) == 0
    out = capsys.readouterr().out
    assert "ok   position-definition" in out
    assert "overall: pass" in out


def test_run_single_assignment(capsys):
    rc = main(
        ["run", "--identity", "position-definition", "--assignment", "mu=2"]
    )
    assert rc == 0
    assert "[1 assignment," in capsys.readouterr().out


def test_run_structure_suite_json(capsys):
    assert main(["run", "--suite", "structure", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "structure"
    assert payload["pass"] is True
    assert [r["id"] for r in payload["identities"]] == [
        "jacobi-sweep",
        "matrix-oracle",
        "table-antisymmetry",
        "vector-field-oracle",
    ]


def test_run_usage_errors(capsys):
    cases = [
        ["run", "--suite", "structure", "--identity", "jacobi-sweep"],
        ["run", "--assignment", "mu=1"],
        ["run", "--suite", "spectroscopy"],
        ["run", "--identity", "no-such-identity"],
        ["run", "--identity", "position-definition", "--assignment", "mu=9"],
        ["run", "--identity", "position-definition", "--assignment", "mu"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("confalg: "), argv
    # there is one sequential runner; argparse rejects a thread count
    with pytest.raises(SystemExit) as exc:
        main(["run", "--threads", "2"])
    assert exc.value.code == 2


def test_run_reports_failure_with_exit_one(monkeypatch, capsys):
    bogus = Identity(
        id="bogus-check",
        tag="structure",
        describe="deliberately false",
        statement="D = M",
        free=(),
        lhs_ast=parse("D"),
        rhs_ast=parse("M"),
    )
    monkeypatch.setattr(suites, "find_identity", lambda _ident_id: bogus)
    assert main(["run", "--identity", "bogus-check"]) == 1
    out = capsys.readouterr().out
    assert "FAIL bogus-check" in out
    assert "overall: FAIL" in out


def test_run_canonical_within_min_budget(run_cli):
    # each bracket is one budgeted operation; the costliest of the canonical
    # suite (96) fits the smallest budget the command line accepts
    r = run_cli("run", "--suite", "canonical", "--budget", "1000")
    assert r.returncode == 0, r.stderr
    assert "overall: pass" in r.stdout


def test_run_all_json_within_min_budget(run_cli):
    # the smallest budget the command line accepts changes no report byte
    r = run_cli("run", "--suite", "all", "--format", "json", "--budget", "1000")
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == REPORT_SHA256


def test_run_position_spin_alone_within_min_budget(run_cli):
    # run alone, with cold memos, this identity gets the verdict it gets in
    # the suite run above: an operation's cost does not read the memos
    r = run_cli(
        "run", "--identity", "canonical-position-spin", "--budget", "1000"
    )
    assert r.returncode == 0, r.stderr
    assert "overall: pass" in r.stdout


@pytest.mark.parametrize(
    "ident_id", ["canonical-position-commutators", "canonical-position-spin"]
)
def test_single_assignments_within_min_budget(ident_id):
    # each assignment alone, on cold memos, as `run --assignment` runs it
    ident = suites.find_identity(ident_id)
    for assignment in suites.identity_assignments(ident):
        if assignment["i"] == assignment["j"]:
            continue
        alg = build_algebra()
        ctx = suites.Context(alg, Observables(alg), 1000)
        assert suites.run_identity(ident, ctx, assignment=assignment).passed


# ---------------------------------------------------------------------------
# list command
# ---------------------------------------------------------------------------

def test_list_all_suites(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for tag in ("structure", "localisation", "conformal-factor", "canonical"):
        assert f"suite {tag}" in out
    assert "jacobi-sweep  [3375 assignments]" in out


def test_list_one_suite(capsys):
    assert main(["list", "--suite", "canonical"]) == 0
    out = capsys.readouterr().out
    assert "suite canonical" in out
    assert "suite structure" not in out
    assert main(["list", "--suite", "bogus"]) == 2


# ---------------------------------------------------------------------------
# budget configuration
# ---------------------------------------------------------------------------

def test_budget_flag_lower_bound(capsys):
    assert main(["normalize", "D", "--budget", "10"]) == 2
    assert "at least 1000" in capsys.readouterr().err


def test_budget_env_variable(monkeypatch, capsys):
    monkeypatch.setenv("CONFALG_REWRITE_BUDGET", "banana")
    assert main(["normalize", "D"]) == 2
    assert "must be an integer" in capsys.readouterr().err
    monkeypatch.setenv("CONFALG_REWRITE_BUDGET", "10")
    assert main(["normalize", "D"]) == 2
    capsys.readouterr()
    # an explicit flag wins over the environment
    assert main(["normalize", "D", "--budget", "2000"]) == 0
    assert capsys.readouterr().out == "D\n"


def test_budget_env_exhaustion(monkeypatch, capsys):
    monkeypatch.setenv("CONFALG_REWRITE_BUDGET", "1000")
    assert main(["normalize", _REVERSED_WORD]) == 3
    assert "RewriteBudgetExceeded" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# installed entry point and cross-process determinism
# ---------------------------------------------------------------------------

# what the console script generated from [project.scripts] does: import the
# module, take the attribute, call it with no arguments and exit with its value
_CONSOLE_SCRIPT = """\
import importlib, sys
module = importlib.import_module(sys.argv.pop(1))
func = getattr(module, sys.argv.pop(1))
sys.argv[0] = "confalg"
sys.exit(func())
"""


def test_console_script_runs(run_cli):
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["confalg"]
    module, attr = target.split(":")
    r = run_cli(
        "normalize", "C[0]*D", launcher=("-c", _CONSOLE_SCRIPT, module, attr)
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == "D*C[0] + C[0]\n"


def test_json_bytes_identical_across_processes(run_cli):
    # the JSON report must not depend on the process, its hash seed included
    argv = ("run", "--suite", "structure", "--format", "json")
    a = run_cli(*argv, env={"PYTHONHASHSEED": "1"})
    b = run_cli(*argv, env={"PYTHONHASHSEED": "2"})
    assert a.returncode == 0 and b.returncode == 0, a.stderr + b.stderr
    assert a.stdout == b.stdout


def test_closed_stdout_pipe_is_no_failure(run_cli):
    # the reader of the pipe is gone before the first line is written, as
    # when `head -1` has exited: the first write fails, whether it happens
    # mid-command (list overflows the buffer) or at the final flush (run)
    for argv in (("list",), ("run", "--suite", "structure", "--format", "json")):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            r = run_cli(*argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert r.returncode == 141, (argv, r.stderr)
        assert r.stderr == "", argv
