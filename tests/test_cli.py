"""Command line entry points: running programs under every semantics,
typechecking, normal-form translation, and the suite runner."""

import json
import os
import subprocess
import sys

import pytest

import bigstop.cli as cli
import bigstop.harness as harness
from bigstop import Failure, PropertyReport, Zero, check_derivation, derivation_to_json_str
from test_acceptance import _twenty_mutations


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as ex:
        code = ex.code
    out, err = capsys.readouterr()
    return code, out, err


### functional semantics

def test_bigstop_prints_expr_and_trace(capsys):
    code, out, _ = run(capsys, "pcf", "run", "--sem", "bigstop", "--budget", "0", "-e", "z")
    assert code == 0
    assert out == "z | 1\n"


def test_multi_collects_labels(capsys):
    code, out, _ = run(
        capsys, "pcf", "run", "--sem", "multi", "--budget", "8", "-e", "eff[a] eff[b] z"
    )
    assert (code, out) == (0, "z | a·b\n")


def test_multi_trace_prints_each_configuration(capsys):
    code, out, _ = run(
        capsys, "pcf", "run", "--sem", "multi", "--trace", "--budget", "8", "-e", "eff[a] z"
    )
    assert code == 0
    assert out == "eff[a] z\nz\nz | a\n"


def test_running_out_of_budget_is_still_an_answer(capsys):
    code, out, _ = run(
        capsys, "pcf", "run", "--sem", "multi", "--budget", "2", "-e", "(fun f(x) => f x) z"
    )
    assert code == 0
    assert out == "(fun f(x) => f x) z | 1\n"


def test_small_runs_to_completion(capsys):
    code, out, _ = run(capsys, "pcf", "run", "--sem", "small", "-e", "(fun f(x) => x) z")
    assert (code, out) == (0, "z | 1\n")


def test_big_fuel_exhaustion_is_an_error(capsys):
    code, _, err = run(
        capsys, "pcf", "run", "--sem", "big", "--fuel", "2", "-e", "(fun f(x) => f x) z"
    )
    assert code == 1
    assert "fuel" in err


def test_stuck_terms_exit_nonzero(capsys):
    code, _, err = run(capsys, "pcf", "run", "--sem", "small", "-e", "z z")
    assert code == 1
    assert "stuck" in err


@pytest.mark.parametrize("sem", cli._PCF_SEMS)
def test_open_programs_exit_one_with_a_one_line_error(capsys, sem):
    # the free x rides into a substitution inside the function value
    code, out, err = run(capsys, "pcf", "run", "--sem", sem, "-e", "(fun f(y) => x) z")
    assert (code, out) == (1, "")
    assert err == "error: open program: substituting non-closed-value for f: fun f(y) => x\n"


@pytest.mark.parametrize("sem", ["mnf", "bigstop"])
def test_open_terms_are_stuck_with_one_stuck_prefix(capsys, sem):
    code, out, err = run(capsys, "pcf", "run", "--sem", sem, "-e", "x z")
    stuck_at = {"mnf": "x z", "bigstop": "x"}[sem]
    assert (code, out, err) == (1, "", f"error: stuck at {stuck_at}\n")


@pytest.mark.parametrize("sem, code", [
    ("bigstop", 1), ("annihilator", 1), ("mnf", 1), ("big", 1),
    ("small", 0), ("multi", 0), ("ec", 0), ("kmachine", 0),
])
def test_a_run_too_deep_for_the_interpreter_exits_one_with_one_error_line(
    capsys, at_recursion_limit_1000, sem, code
):
    # omega at 5,000 contractions: the recursive evaluators overflow the
    # default limit, the loops finish
    argv = ("pcf", "run", "--sem", sem, "--budget", "5000", "-e", "(fun f(x) => f x) z")
    got, out, err = at_recursion_limit_1000(run=lambda: run(capsys, *argv))["run"]
    assert got == code
    if code:
        assert out == ""
        assert err.startswith("error: run too deep") and err.count("\n") == 1
    else:
        assert err == ""


def test_annihilator_marks_the_cut(capsys):
    code, out, _ = run(
        capsys, "pcf", "run", "--sem", "annihilator", "--budget", "1",
        "-e", "eff[a] ((fun f(x) => f x) z)",
    )
    assert (code, out) == (0, "z | a·0\n")


def test_ec_and_mnf_semantics(capsys):
    code, out, _ = run(
        capsys, "pcf", "run", "--sem", "ec", "--budget", "2", "-e", "s((fun f(x) => x) z)"
    )
    assert (code, out) == (0, "s(z) | 1\n")
    code, out, _ = run(
        capsys, "pcf", "run", "--sem", "mnf", "--budget", "4",
        "-e", "let t = (fun f(x) => x) z in s(t)",
    )
    assert (code, out) == (0, "s(z) | 1\n")


def test_kmachine_trace_shows_configurations(capsys):
    code, out, _ = run(
        capsys, "pcf", "run", "--sem", "kmachine", "--trace", "--budget", "64", "-e", "s(z)"
    )
    assert code == 0
    assert out == "ε ▷ s(z)\nε;s(-) ▷ z\nε;s(-) ◁ z\nε ◁ s(z)\ns(z) | 1\n"


### typecheck and mnf subcommands

def test_typecheck_prints_the_type(capsys):
    code, out, _ = run(capsys, "pcf", "typecheck", "-e", "fun f(x) => x")
    assert (code, out) == (0, "nat -> nat\n")


def test_typecheck_rejects_ill_typed_terms(capsys):
    code, _, err = run(capsys, "pcf", "typecheck", "-e", "z z")
    assert code == 1
    assert "type" in err


def test_mnf_subcommand_translates(capsys):
    code, out, _ = run(capsys, "pcf", "mnf", "-e", "s((fun f(x) => x) z)")
    assert (code, out) == (0, "let t0 = (fun f(x) => x) z in s(t0)\n")


### program input handling

def test_programs_load_from_files(capsys, tmp_path):
    prog = tmp_path / "prog.pcf"
    prog.write_text("-- a comment\neff[a] z\n")
    code, out, _ = run(capsys, "pcf", "run", "--sem", "multi", "--budget", "4", str(prog))
    assert (code, out) == (0, "z | a\n")


@pytest.mark.parametrize("cmd", [("pcf", "run"), ("pcf", "typecheck"), ("imp", "run")])
def test_a_file_that_is_not_utf8_exits_two_with_one_error_line(capsys, tmp_path, cmd):
    prog = tmp_path / "prog.txt"
    prog.write_bytes(b"\xff\xfe z")
    code, out, err = run(capsys, *cmd, str(prog))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {prog}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("cmd,src", [
    (("pcf", "run"), "s(" * 60_000 + "z" + ")" * 60_000),
    (("pcf", "typecheck"), "(" * 60_000 + "z" + ")" * 60_000),
    (("imp", "run"), "x := " + "(" * 60_000 + "1" + ")" * 60_000),
], ids=["pcf-run", "pcf-typecheck", "imp-run"])
def test_programs_nested_too_deeply_to_parse_exit_two(capsys, cmd, src):
    code, out, err = run(capsys, *cmd, "-e", src)
    assert (code, out, err) == (2, "", "error: parse: program nested too deeply\n")


def test_python_dash_m_runs_the_dispatcher():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for module in ("bigstop", "bigstop.cli"):
        r = subprocess.run(
            [sys.executable, "-m", module, "pcf", "run", "-e", "eff[a] s(z)"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (r.returncode, r.stdout) == (0, "s(z) | a\n"), (module, r.stderr)


def test_parse_errors_are_usage_errors(capsys):
    code, _, err = run(capsys, "pcf", "run", "--sem", "small", "-e", "((((")
    assert code == 2
    assert "parse" in err


def test_unknown_semantics_is_a_usage_error(capsys):
    code, _, _ = run(capsys, "pcf", "run", "--sem", "nope", "-e", "z")
    assert code == 2


def test_reserved_label_is_a_usage_error(capsys):
    code, out, err = run(capsys, "pcf", "run", "--budget", "1", "-e", "eff[0] z")
    assert (code, out) == (2, "")
    assert "label" in err


def test_negative_budget_is_a_usage_error(capsys):
    code, out, err = run(capsys, "pcf", "run", "--sem", "bigstop", "--budget", "-1", "-e", "z")
    assert (code, out) == (2, "")
    assert "--budget" in err


def test_negative_multi_budget_is_a_usage_error(capsys):
    # a negative budget never equals the step count, so it must not reach the run
    code, out, err = run(
        capsys, "pcf", "run", "--sem", "multi", "--budget", "-1", "-e", "(fun f(x) => f x) z"
    )
    assert (code, out) == (2, "")
    assert "--budget" in err


def test_negative_fuel_is_a_usage_error(capsys):
    code, out, err = run(capsys, "pcf", "run", "--sem", "big", "--fuel", "-1", "-e", "z")
    assert (code, out) == (2, "")
    assert "--fuel" in err


### derivation output

def test_derivation_file_holds_valid_json(capsys, tmp_path):
    dv = tmp_path / "d.json"
    code, out, _ = run(
        capsys, "pcf", "run", "--sem", "bigstop", "--budget", "2",
        "--derivation", str(dv), "-e", "eff[a] z",
    )
    assert (code, out) == (0, "z | a\n")
    obj = json.loads(dv.read_text())
    assert sorted(obj.keys()) == ["format", "labels", "nodes", "terms"]
    assert obj["format"] == 2
    assert obj["nodes"][0] == ["StE-Eff", 0, 1, 0, 1, 1]
    assert (obj["terms"], obj["labels"]) == (["eff[a] z", "z"], ["a"])


def test_annihilated_derivations_serialise_the_marker(capsys, tmp_path):
    dv = tmp_path / "d.json"
    run(
        capsys, "pcf", "run", "--sem", "annihilator", "--budget", "1",
        "--derivation", str(dv), "-e", "eff[a] ((fun f(x) => f x) z)",
    )
    obj = json.loads(dv.read_text())
    assert obj["labels"] == ["a"]
    rule, _, _, start, end, cut, n = obj["nodes"][0]
    assert (rule, obj["labels"][start:end], cut, n) == ("StA-Eff", ["a"], True, 1)


def test_derivation_flag_requires_a_deriving_semantics(capsys, tmp_path):
    code, _, err = run(
        capsys, "pcf", "run", "--sem", "multi",
        "--derivation", str(tmp_path / "d.json"), "-e", "z",
    )
    assert code == 2
    assert "--derivation" in err


def test_an_unwritable_derivation_file_exits_two_with_one_error_line(capsys, tmp_path):
    dv = tmp_path / "missing" / "d.json"
    code, out, err = run(
        capsys, "pcf", "run", "--sem", "bigstop", "--derivation", str(dv), "-e", "z",
    )
    assert code == 2
    assert out == "z | 1\n"
    assert err.startswith("error: cannot write ")
    assert err.count("\n") == 1
    assert not dv.exists()


### checking derivation files

@pytest.mark.parametrize("sem, dialect", [
    ("bigstop", "plain"), ("mnf", "mnf"), ("ec", "ec"), ("annihilator", "annihilator"),
])
def test_check_accepts_what_run_writes(capsys, tmp_path, sem, dialect):
    dv = tmp_path / "d.json"
    code, _, _ = run(
        capsys, "pcf", "run", "--sem", sem, "--budget", "40",
        "--derivation", str(dv), "-e", "(fun f(x) => eff[t] f x) z",
    )
    assert code == 0
    code, _, err = run(capsys, "pcf", "check", "--dialect", dialect, str(dv))
    assert (code, err) == (0, "")


def test_check_defaults_to_the_plain_dialect(capsys, tmp_path):
    dv = tmp_path / "d.json"
    run(capsys, "pcf", "run", "--sem", "ec", "--budget", "2", "--derivation", str(dv), "-e", "s(z)")
    code, _, err = run(capsys, "pcf", "check", str(dv))
    assert (code, err) == (1, "at root: unknown rule 'EC-Val' for the plain dialect\n")


def test_check_rejects_each_forgery_where_the_checker_does(capsys, tmp_path):
    dv = tmp_path / "d.json"
    for name, dialect, d in _twenty_mutations():
        dv.write_text(derivation_to_json_str(d))
        code, _, err = run(capsys, "pcf", "check", "--dialect", dialect, str(dv))
        v = check_derivation(d, dialect)
        assert (code, err) == (1, f"{v}\n"), name
        assert err.startswith("at root: "), name


@pytest.mark.parametrize("content", [b"{}", b"", b"\xff\xfe", b'{"format": 2, "terms": [], "labels": [], "nodes": []}'])
def test_check_on_a_file_that_is_no_derivation_exits_two(capsys, tmp_path, content):
    dv = tmp_path / "d.json"
    dv.write_bytes(content)
    code, out, err = run(capsys, "pcf", "check", str(dv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_check_on_json_nested_past_the_c_stack_exits_two(tmp_path):
    # the JSON decoder would recurse 99,000 deep: in a child process, so a
    # crash fails the test instead of ending the run
    dv = tmp_path / "deep.json"
    dv.write_text("[" * 99_000)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    r = subprocess.run(
        [sys.executable, "-m", "bigstop", "pcf", "check", str(dv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


def test_check_on_a_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "pcf", "check", str(tmp_path / "nope.json"))
    assert code == 2
    assert err.startswith("error: cannot read ")


### imperative commands

COUNTDOWN = ("--init", "x=2", "-e", "while x do { x := x - 1 }")


def test_imp_bigstop_prefix(capsys):
    code, out, _ = run(capsys, "imp", "run", "--sem", "bigstop", "--budget", "3", *COUNTDOWN)
    assert (code, out) == (0, "while x do { x := x - 1 } | {x=1}\n")


def test_imp_multi(capsys):
    code, out, _ = run(capsys, "imp", "run", "--sem", "multi", "--budget", "2", *COUNTDOWN)
    assert (code, out) == (0, "skip ; while x do { x := x - 1 } | {x=1}\n")


def test_imp_big(capsys):
    code, out, _ = run(capsys, "imp", "run", "--sem", "big", "--budget", "9", *COUNTDOWN)
    assert (code, out) == (0, "skip | {x=0}\n")


def test_imp_negative_budget_is_a_usage_error(capsys):
    code, out, err = run(capsys, "imp", "run", "--sem", "bigstop", "--budget", "-1", *COUNTDOWN)
    assert (code, out) == (2, "")
    assert "--budget" in err


def test_imp_freeze_reports_both_outcomes(capsys):
    code, out, _ = run(capsys, "imp", "run", "--sem", "freeze", "--budget", "3", *COUNTDOWN)
    assert (code, out) == (0, "{x=1} | frozen\n")
    code, out, _ = run(capsys, "imp", "run", "--sem", "freeze", "--budget", "9", *COUNTDOWN)
    assert (code, out) == (0, "{x=0} | finished\n")


@pytest.mark.parametrize("init", ["x y=2", "while=3", "=4", "x=1,x=2", "1x=1", "x-y=1"])
def test_imp_init_names_a_program_cannot_use_are_usage_errors(capsys, init):
    code, out, err = run(capsys, "imp", "run", "--init", init, "-e", "skip")
    assert (code, out) == (2, "")
    assert err.startswith("error: parse: ")


### fuzz command

def test_fuzz_passing_suite(capsys):
    code, out, _ = run(capsys, "fuzz", "--suite", "stop-multi", "--max-size", "3", "--max-budget", "2")
    assert code == 0
    assert "result:   PASS" in out
    assert "trials:   81" in out


def test_fuzz_json_output(capsys):
    code, out, _ = run(
        capsys, "fuzz", "--suite", "stop-multi", "--max-size", "3", "--max-budget", "2", "--json"
    )
    assert code == 0
    assert sorted(json.loads(out).keys()) == ["failures", "property", "seed", "trials"]


def test_fuzz_max_size_below_one_is_a_usage_error(capsys):
    for size in ("0", "-2"):
        code, out, err = run(capsys, "fuzz", "--suite", "stop-multi", "--max-size", size)
        assert (code, out) == (2, "")
        assert "--max-size" in err


def test_fuzz_vacuous_runs_are_usage_errors(capsys):
    # a negative --max-budget used to run no trial and report PASS
    for flag, value in (("--max-budget", "-1"), ("--trials", "0"), ("--trials", "-5")):
        code, out, err = run(capsys, "fuzz", "--suite", "stop-multi", flag, value)
        assert (code, out) == (2, "")
        assert flag in err


def test_fuzz_unknown_suite(capsys):
    code, _, err = run(capsys, "fuzz", "--suite", "nope")
    assert code == 2
    assert "unknown suite" in err


def test_fuzz_lets_a_key_error_inside_a_suite_propagate(monkeypatch):
    def suite(cfg, trials, max_budget):
        def mismatch(e, b):
            raise KeyError("inside the check")
        return [(Zero(), 0)], mismatch, None

    monkeypatch.setitem(harness._SUITES, "stop-multi", suite)
    with pytest.raises(KeyError, match="inside the check"):
        cli.main(["fuzz", "--suite", "stop-multi"])


def test_fuzz_failures_exit_three(capsys, monkeypatch):
    forged = PropertyReport(
        property="stop-multi",
        trials=1,
        failures=(Failure(Zero(), 0, "a", "b"),),
        seed=0,
    )
    monkeypatch.setattr(cli, "run_property_suite", lambda *a, **k: forged)
    code, out, _ = run(capsys, "fuzz", "--suite", "stop-multi")
    assert code == 3
    assert "FAIL" in out
