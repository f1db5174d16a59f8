"""Command line entry points: running programs under every semantics,
typechecking, normal-form translation, and the suite runner."""

import ast
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bigstop
import bigstop.cli as cli
import bigstop.harness as harness
import bigstop.kmachine as kmachine
import bigstop.smallstep as smallstep
from bigstop import (
    Failure,
    PropertyReport,
    Zero,
    check_derivation,
    derivation_to_json_str,
    enumerate_exprs,
    enumerate_stmts,
    print_expr,
    print_stmt,
)
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
    # a stuck run prints its points, then one stuck line
    code, out, err = run(capsys, "pcf", "run", "--sem", "multi", "--trace", "-e", "s(eff[a] z z)")
    assert (code, out, err) == (1, "s(eff[a] z z)\ns(z z)\n", "error: stuck at s(z z)\n")
    code, out, err = run(capsys, "pcf", "run", "--sem", "multi", "--trace", "-e", "z z")
    assert (code, out, err) == (1, "z z\n", "error: stuck at z z\n")
    # out of budget: budget + 1 points, then the answer
    omega = "(fun f(x) => eff[t] f x) z"
    code, out, _ = run(capsys, "pcf", "run", "--sem", "multi", "--trace", "--budget", "2", "-e", omega)
    assert (code, out) == (0, f"{omega}\neff[t] {omega}\n{omega}\n{omega} | t\n")
    # an open program prints the points it reached before the step that fails
    code, out, err = run(capsys, "pcf", "run", "--sem", "multi", "--trace", "-e",
                         "case z { z => (fun f(y) => x) z | s(n) => z }")
    assert (code, out) == (1, "case z { z => (fun f(y) => x) z | s(n) => z }\n(fun f(y) => x) z\n")
    assert err == "error: open program: substituting non-closed-value for f: fun f(y) => x\n"


@pytest.mark.parametrize("src, budget, points", [
    ("(fun f(x) => f x) z", 4, 5),  # each step gives back its own term object
    ("(fun f(x) => eff[t] f x) z", 10, 11),
    ("case s(s(z)) { z => z | s(n) => eff[a] n }", 10, 3),
    ("s(eff[a] z z)", 10, 2),
])
def test_multi_trace_takes_each_step_once(capsys, monkeypatch, src, budget, points):
    # every printed point after the first is one step of the multi row, and
    # the answer is read off the last point, not run again from the start
    steps = contractions = 0
    real_multi, real_step = harness.multi_step, smallstep._step

    def counted_multi(e, b):
        nonlocal steps
        r = real_multi(e, b)
        steps += r.steps
        return r

    def counted_step(e):
        nonlocal contractions
        r = real_step(e)
        contractions += r is not None
        return r

    monkeypatch.setattr(harness, "multi_step", counted_multi)
    monkeypatch.setattr(smallstep, "_step", counted_step)
    code, out, _ = run(capsys, "pcf", "run", "--sem", "multi", "--trace", "--budget", str(budget), "-e", src)
    printed = out.splitlines()[:-1 if code == 0 else None]  # the answer line follows the points
    assert len(printed) == points
    assert steps == contractions == points - 1


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
        capsys, "pcf", "run", "--sem", "big", "--budget", "2", "-e", "(fun f(x) => f x) z"
    )
    assert code == 1
    assert "fuel" in err


@pytest.mark.parametrize("sem", cli._PCF_SEMS)
def test_a_stuck_run_prints_one_stuck_line_under_every_semantics(capsys, sem):
    code, out, err = run(capsys, "pcf", "run", "--sem", sem, "-e", "z z")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: stuck at ")


@pytest.mark.parametrize("sem", ["small", "big"])
def test_a_value_is_its_own_answer(capsys, sem):
    code, out, err = run(capsys, "pcf", "run", "--sem", sem, "-e", "s(z)")
    assert (code, out, err) == (0, "s(z) | 1\n", "")


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
    ("bigstop", 0), ("annihilator", 0), ("mnf", 0),
    ("small", 0), ("multi", 0), ("ec", 0), ("kmachine", 0), ("big", 1),
])
def test_a_run_too_deep_for_the_interpreter_exits_one_with_one_error_line(
    capsys, at_recursion_limit_1000, sem, code
):
    # omega at 5,000 contractions: every engine is a loop and finishes;
    # big_step finishes out of fuel.  The name is older than the loops and
    # kept so that the test ids stay stable; a run too deep for the
    # interpreter is test_a_term_too_deep_to_translate_exits_one_with_one_error_line
    argv = ("pcf", "run", "--sem", sem, "--budget", "5000", "-e", "(fun f(x) => f x) z")
    got, out, err = at_recursion_limit_1000(run=lambda: run(capsys, *argv))["run"]
    assert got == code
    if sem == "big":
        assert (out, err) == ("", "error: no value within fuel 5000\n")
    else:
        assert err == ""
    if sem in ("bigstop", "mnf"):
        assert out == "(fun f(x) => f x) z | 1\n"
    elif sem == "annihilator":
        assert out == "z | 0\n"


def test_a_term_too_deep_to_translate_exits_one_with_one_error_line(capsys, at_recursion_limit_1000):
    # to_mnf still recurses once per level of the term (ROADMAP item 15)
    src = "s(" * 3000 + "(fun f(x) => x) z" + ")" * 3000
    argv = ("pcf", "run", "--sem", "mnf", "--budget", "2", "-e", src)
    got, out, err = at_recursion_limit_1000(run=lambda: run(capsys, *argv))["run"]
    assert (got, out) == (1, "")
    assert err.startswith("error: run too deep") and err.count("\n") == 1


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
    assert (code, out) == (0, "ε ▷ s(z)\nε ◁ s(z)\ns(z) | 1\n")
    code, out, _ = run(
        capsys, "pcf", "run", "--sem", "kmachine", "--trace", "--budget", "64", "-e", "s(eff[a] z)"
    )
    assert code == 0
    assert out == "ε ▷ s(eff[a] z)\nε;s(-) ▷ eff[a] z\nε;s(-) ▷ z\nε;s(-) ◁ z\nε ◁ s(z)\ns(z) | a\n"


@pytest.mark.parametrize("src, budget", [
    ("(fun f(x) => eff[t] f x) z", 60),
    ("case s(z) { z => z | s(n) => n }", 64),
    ("(fun f(x) => x z) z", 64),
])
def test_kmachine_trace_runs_the_machine_once(capsys, monkeypatch, src, budget):
    # omega out of budget, a run that halts, and one that gets stuck
    argv = ("pcf", "run", "--sem", "kmachine", "--budget", str(budget), "-e", src)
    plain = run(capsys, *argv)
    moves = 0
    real = cli.k_run

    def counted(state, budget):
        # the transitions the machine made, and the one a stuck run tried
        nonlocal moves
        r = real(state, budget)
        moves += r.steps + (r.status is kmachine.KStatus.STUCK)
        return r

    monkeypatch.setattr(cli, "k_run", counted)
    code, out, err = run(capsys, *argv, "--trace")
    # the same exit code, error and answer line, after the states
    assert (code, err) == (plain[0], plain[2]) and out.endswith(plain[1])
    states = out[:len(out) - len(plain[1])].splitlines()
    # the first state is loaded, each other one is reached by one move, and
    # a stuck run makes one more move that reaches nothing
    assert moves == len(states) - 1 + (code != 0)


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
    (("pcf", "run"), "(" * 60_000 + "z" + ")" * 60_000),
    (("pcf", "typecheck"), "(" * 60_000 + "z" + ")" * 60_000),
    (("imp", "run"), "x := " + "(" * 60_000 + "1" + ")" * 60_000),
], ids=["pcf-run", "pcf-typecheck", "imp-run"])
def test_programs_nested_too_deeply_to_parse_exit_two(capsys, cmd, src):
    code, out, err = run(capsys, *cmd, "-e", src)
    assert (code, out, err) == (2, "", "error: parse: program nested too deeply\n")


def test_a_numeral_deeper_than_the_parser_nests_runs(capsys):
    num = "s(" * 60_000 + "z" + ")" * 60_000
    code, out, err = run(capsys, "pcf", "run", "-e", num)
    assert (code, out == num + " | 1\n", err) == (0, True, "")


@pytest.mark.parametrize("argv, err", [
    ((), "error: usage: {pcf|imp|fuzz} ...\n"),
    (("lisp", "run"), "error: unknown command 'lisp'; expected pcf, imp, or fuzz\n"),
])
def test_a_missing_or_unknown_command_is_a_usage_error(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


@pytest.mark.parametrize("entry, argv, first_line", [
    (cli.pcf_entry, ["run", "-e", "eff[a] z"], "z | a"),
    (cli.imp_entry, ["run", "--init", "x=2", "-e", "x := x - 1"], "skip | {x=1}"),
    (cli.fuzz_entry, ["--suite", "stop-multi", "--max-size", "2", "--max-budget", "1"],
     "property: stop-multi"),
])
def test_console_scripts_prefix_their_command(capsys, monkeypatch, entry, argv, first_line):
    monkeypatch.setattr(sys, "argv", [entry.__name__, *argv])
    with pytest.raises(SystemExit) as ex:
        entry()
    assert ex.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == first_line


def test_python_dash_m_runs_the_dispatcher():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for module in ("bigstop", "bigstop.cli"):
        r = subprocess.run(
            [sys.executable, "-m", module, "pcf", "run", "-e", "eff[a] s(z)"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (r.returncode, r.stdout) == (0, "s(z) | a\n"), (module, r.stderr)


def test_a_closed_stdout_exits_with_its_code_and_no_traceback():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run(
            [sys.executable, "-m", "bigstop", "pcf", "run", "-e", "z"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
    finally:
        os.close(write_end)
    assert r.returncode == cli.STDOUT_CLOSED == 141
    assert "Traceback" not in r.stderr


def _documented_command_lines():
    """README's "Command line" block, then the cli docstring's examples,
    as (line, answer): answer is the README comment when the line's
    output is one line, which the comment then gives."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("### Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        cmd, _, comment = line.partition("  #")
        yield cmd, comment.strip()
    for line in cli.__doc__.splitlines():
        if line.startswith("    "):
            yield re.sub(r"\s+--\s.*$", "", line), ""


def test_every_documented_command_line_runs(capsys, monkeypatch, tmp_path):
    # one directory for all, so the docstring's `pcf check d.json` reads
    # the file README's `--derivation d.json` line wrote
    monkeypatch.chdir(tmp_path)
    answered = 0
    for line, answer in _documented_command_lines():
        code, out, err = run(capsys, *shlex.split(line))
        assert code == 0, (line, err)
        if answer and len(out.splitlines()) == 1:
            assert out == answer + "\n", line
            answered += 1
    assert answered == 5


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


def test_a_budget_that_is_no_integer_is_a_usage_error(capsys):
    code, out, err = run(capsys, "pcf", "run", "--budget", "two", "-e", "z")
    assert (code, out) == (2, "")
    assert err == "error: argument --budget: expected an integer >= 0, got 'two'\n"


def test_budget_help_says_what_it_counts(capsys):
    code, out, _ = run(capsys, "pcf", "run", "--help")
    assert code == 0
    assert "contractions" in out and "transitions" in out
    code, out, _ = run(capsys, "imp", "run", "--help")
    assert code == 0
    assert "steps" in out


def test_negative_multi_budget_is_a_usage_error(capsys):
    # a negative budget never equals the step count, so it must not reach the run
    code, out, err = run(
        capsys, "pcf", "run", "--sem", "multi", "--budget", "-1", "-e", "(fun f(x) => f x) z"
    )
    assert (code, out) == (2, "")
    assert "--budget" in err


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
    assert obj["format"] == 3
    assert obj["nodes"][0] == ["StE-Eff", 0, 1, 0, 1, 1]
    assert (obj["terms"], obj["labels"]) == (["eff[a] z", "z"], ["a"])


def test_annihilated_derivations_serialise_the_marker(capsys, tmp_path):
    dv = tmp_path / "d.json"
    run(
        capsys, "pcf", "run", "--sem", "annihilator", "--budget", "1",
        "--derivation", str(dv), "-e", "eff[a] ((fun f(x) => f x) z)",
    )
    obj = json.loads(dv.read_text())
    assert obj["labels"] == ["a", "0"]
    assert {len(row) for row in obj["nodes"]} == {6}
    rule, _, _, start, end, n = obj["nodes"][0]
    assert (rule, obj["labels"][start:end], n) == ("StA-Eff", ["a", "0"], 1)


def test_derivation_flag_requires_a_deriving_semantics(capsys, tmp_path):
    code, _, err = run(
        capsys, "pcf", "run", "--sem", "multi",
        "--derivation", str(tmp_path / "d.json"), "-e", "z",
    )
    assert code == 2
    assert "--derivation" in err


@pytest.mark.parametrize("sem", ["small", "big", "bigstop", "annihilator", "mnf", "ec"])
def test_trace_flag_requires_a_semantics_that_prints_a_trajectory(capsys, sem):
    code, out, err = run(capsys, "pcf", "run", "--sem", sem, "--trace", "-e", "s(z)")
    assert (code, out, err) == (2, "", "error: --trace needs --sem multi or kmachine\n")


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


def test_imp_small_takes_one_step(capsys):
    code, out, _ = run(capsys, "imp", "run", "--sem", "small", *COUNTDOWN)
    assert (code, out) == (0, "x := x - 1 ; while x do { x := x - 1 } | {x=2}\n")


@pytest.mark.parametrize("head", [
    ("pcf", "run"), ("imp", "run", "--init", ""), ("imp", "run", "--init", "x=2,y=0"),
], ids=["pcf", "imp-empty-store", "imp-x2-y0"])
def test_small_is_multi_at_budget_one(capsys, head):
    # typed, stuck and open terms, and every small statement: the same exit
    # code, stdout and stderr
    if head[0] == "pcf":
        programs = [print_expr(e) for e in enumerate_exprs(5)]
        programs += ["z z", "x", "(fun f(y) => x) z", "z (eff[a] z)"]
    else:
        programs = [print_stmt(s) for s in enumerate_stmts(4)]
    for program in programs:
        small = run(capsys, *head, "--sem", "small", "-e", program)
        multi = run(capsys, *head, "--sem", "multi", "--budget", "1", "-e", program)
        assert small == multi and small[0] != cli.USAGE_ERROR, program


def test_imp_big_out_of_fuel_is_an_error(capsys):
    code, out, err = run(capsys, "imp", "run", "--sem", "big", "--budget", "2", *COUNTDOWN)
    assert (code, out, err) == (1, "", "error: no finish within fuel 2\n")


def test_imp_prints_a_store_int_of_any_size_in_full(capsys):
    # x is 2^(2^17) after 52 steps: 39,457 digits, past the 4,300 that str
    # converts under the interpreter's default limit, which the run leaves alone
    limit = sys.get_int_max_str_digits()
    code, out, err = run(
        capsys, "imp", "run", "--sem", "bigstop", "--budget", "52",
        "--init", "x=2", "-e", "while x do { x := x * x }",
    )
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        want = f"x := x * x ; while x do {{ x := x * x }} | {{x={2 ** 2 ** 17}}}\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out, err) == (0, want, "")


def test_imp_negative_budget_is_a_usage_error(capsys):
    code, out, err = run(capsys, "imp", "run", "--sem", "bigstop", "--budget", "-1", *COUNTDOWN)
    assert (code, out) == (2, "")
    assert "--budget" in err


def test_imp_freeze_reports_both_outcomes(capsys):
    code, out, _ = run(capsys, "imp", "run", "--sem", "freeze", "--budget", "3", *COUNTDOWN)
    assert (code, out) == (0, "{x=1} | frozen\n")
    code, out, _ = run(capsys, "imp", "run", "--sem", "freeze", "--budget", "9", *COUNTDOWN)
    assert (code, out) == (0, "{x=0} | finished\n")


@pytest.mark.parametrize("init", ["x y=2", "while=3", "=4", "x=1,x=2", "1x=1", "x-y=1", "x=٣"])
def test_imp_init_names_a_program_cannot_use_are_usage_errors(capsys, init):
    code, out, err = run(capsys, "imp", "run", "--init", init, "-e", "skip")
    assert (code, out) == (2, "")
    assert err.startswith("error: parse: ")


@pytest.mark.parametrize("src, at", [
    ("then := 1 ; do := 2", "1:1: expected a statement, found 'then'"),
    ("é := 1 ; x := é", "1:1: unexpected character 'é'"),
    ("x := 1 ;\ny := do", "2:6: expected an expression, found 'do'"),
    ("x := é", "1:6: unexpected character 'é'"),
    ("x := ٣٣ + 1", "1:6: unexpected character '٣'"),   # digits are ASCII, as names are
])
def test_imp_programs_use_only_the_names_init_accepts(capsys, src, at):
    code, out, err = run(capsys, "imp", "run", "-e", src)
    assert (code, out, err) == (2, "", f"error: parse: {at}\n")


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


### what the front end and the package import

# every engine's entry point; the CLI runs the machine itself, and reaches
# every other engine, a traced multi-step run included, through the answer
# tables
_ENGINES = {
    "small_step", "multi_step", "step_trace", "big_step", "bigstop_eval", "ec_bigstop_eval",
    "annihilator_eval", "annihilator_derivation", "mnf_small_step", "mnf_multi_step", "mnf_bigstop_eval",
    "compile", "k_step", "k_run", "unwind", "imp_small_step", "imp_multi_step", "imp_bigstep",
    "imp_bigstop", "imp_bigstop_freeze",
}


def test_the_cli_imports_no_private_name_and_only_the_machine():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("bigstop") for a in node.names), ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("bigstop")):
            module = importlib.import_module(".".join(filter(None, ("bigstop" if node.level else "", node.module))))
            for a in node.names:
                assert not a.name.startswith("_"), ast.unparse(node)
                # a module would reach its engines past this check
                assert not isinstance(getattr(module, a.name), types.ModuleType), ast.unparse(node)
                imported.append(a.name)
    assert "PCF_ENGINES" in imported and "IMP_ENGINES" in imported
    assert _ENGINES.intersection(imported) == {"compile", "k_run", "unwind"}


def test_importing_the_package_leaves_no_stray_name():
    assert "sys" not in vars(bigstop)
