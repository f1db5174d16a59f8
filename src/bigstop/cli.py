"""Command line front end.

Three console scripts share one dispatcher:

    pcf run --sem bigstop --budget 4 'eff[a] s(z)'
    pcf typecheck 'fun f(x) => x'
    pcf mnf '(fun f(x) => x) s(z)'       -- application is juxtaposition
    pcf check --dialect plain d.json     -- a file that pcf run --derivation wrote
    imp run --sem freeze --budget 3 --init x=2 'while x do { x := x - 1 }'
    fuzz --suite stop-multi --max-size 5

Exit codes: 0 success, 1 evaluation stuck, open program, type error, a
`--sem big` run out of fuel, a run too deep for the interpreter's recursion
limit, or a derivation that `pcf check` rejects, 2 usage or parse error (a
program nested too deeply to parse included), a program file that cannot be
read as UTF-8 text, a --derivation file that cannot be written, or a
`pcf check` file that cannot be read or is not a derivation file, 3
property-suite failure, 141 stdout closed before the output was written
(the code a shell reports for a process that SIGPIPE ends; nothing is
printed).
`python -m bigstop` takes the same arguments as the dispatcher:
`python -m bigstop pcf run -e z`.

`pcf run` and `imp run` look each --sem up in the answer tables of
bigstop.harness, the ones the property suites read, and print the answer;
only the machine, which counts transitions, is run here.
"""

import argparse
import os
import sys

from .bigstop import (
    DIALECTS,
    DerivationFormatError,
    StuckError,
    check_derivation,
    derivation_from_json,
    derivation_to_json_str,
)
from .harness import IMP_ENGINES, PCF_ENGINES, GenConfig, run_property_suite, suite_names
from .imp import ImpConfig, ImpStatus, parse_init, parse_stmt, print_config, print_state
from .kmachine import KStatus, compile as k_compile, k_run, show_state, unwind
from .mnf import NotMNF, to_mnf
from .smallstep import RunStatus
from .syntax import ParseError, SubstOpenValue, parse_expr, print_expr
from .traces import format_trace
from .typecheck import TypeFailure, infer_type, print_type

OK, EVAL_ERROR, USAGE_ERROR, SUITE_FAILED = 0, 1, 2, 3
STDOUT_CLOSED = 141


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise _Usage(f"cannot read {path}: {getattr(err, 'strerror', None) or err}")


def _load(parse, ns):
    """The program ns names (a file, unless -e), parsed."""
    text = ns.program if ns.literal or not os.path.isfile(ns.program) else _read_text(ns.program)
    try:
        return parse(text)
    except RecursionError:
        raise _Usage("parse: program nested too deeply") from None


class _Parser(argparse.ArgumentParser):
    # argparse wants to kill the process on bad flags; we want the exit code
    def error(self, message):
        raise _Usage(message)


class _Usage(Exception):
    pass


def _at_least(least: int):
    """An argparse type: an integer no smaller than least."""

    def parse(text: str) -> int:
        try:
            n = int(text)
            if n >= least:
                return n
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")

    return parse


# every failure a command raises: its type -> (exit code, head of its error line)
_FAILURES = {
    _Usage: (USAGE_ERROR, ""),
    ParseError: (USAGE_ERROR, "parse: "),
    DerivationFormatError: (USAGE_ERROR, ""),
    TypeFailure: (EVAL_ERROR, "type: "),
    StuckError: (EVAL_ERROR, ""),
    NotMNF: (EVAL_ERROR, ""),
    SubstOpenValue: (EVAL_ERROR, "open program: "),
    RecursionError: (EVAL_ERROR, "run too deep for the interpreter: "),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: what is left goes to devnull, so the flush at
        # exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return STDOUT_CLOSED


def _dispatch(argv) -> int:
    try:
        if not argv:
            raise _Usage("usage: {pcf|imp|fuzz} ...")
        command = _COMMANDS.get(argv[0])
        if command is None:
            raise _Usage(f"unknown command {argv[0]!r}; expected pcf, imp, or fuzz")
        return command(argv[1:])
    except tuple(_FAILURES) as failure:
        code, head = next(_FAILURES[k] for k in type(failure).__mro__ if k in _FAILURES)
        _err(f"{head}{failure}")
        return code


def pcf_entry():
    sys.exit(main(["pcf"] + sys.argv[1:]))


def imp_entry():
    sys.exit(main(["imp"] + sys.argv[1:]))


def fuzz_entry():
    sys.exit(main(["fuzz"] + sys.argv[1:]))


### pcf


# small is multi at budget 1; the machine, which counts transitions, has no row
_PCF_SEMS = ("small", *PCF_ENGINES, "kmachine")
_DERIVING = ("bigstop", "annihilator", "mnf", "ec")  # the rows that carry a derivation


def _pcf(args) -> int:
    p = _Parser(prog="pcf")
    sub = p.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run")
    run.add_argument("--sem", choices=_PCF_SEMS, default="bigstop")
    run.add_argument("--budget", type=_at_least(0), default=256,
                     help="contractions to run; machine transitions under --sem kmachine; "
                     "--sem small is multi at budget 1: one step, whatever this says")
    run.add_argument("--trace", action="store_true", help="print the trajectory")
    run.add_argument("--derivation", metavar="FILE", default=None)
    run.add_argument("-e", action="store_true", dest="literal",
                     help="PROGRAM is source text even if a file of that name exists")
    run.add_argument("program")

    tc = sub.add_parser("typecheck")
    tc.add_argument("-e", action="store_true", dest="literal")
    tc.add_argument("program")

    mn = sub.add_parser("mnf")
    mn.add_argument("-e", action="store_true", dest="literal")
    mn.add_argument("program")

    ck = sub.add_parser("check")
    ck.add_argument("--dialect", choices=DIALECTS, default="plain")
    ck.add_argument("file")

    ns = p.parse_args(args)
    if ns.cmd == "check":
        return _pcf_check(ns.file, ns.dialect)
    expr = _load(parse_expr, ns)
    if ns.cmd == "typecheck":
        print(print_type(infer_type(expr)))
    elif ns.cmd == "mnf":
        print(print_expr(to_mnf(expr)))
    else:
        return _pcf_run(ns, expr)
    return OK


def _pcf_check(path: str, dialect: str) -> int:
    violation = check_derivation(derivation_from_json(_read_text(path)), dialect)
    if violation is not None:
        print(violation, file=sys.stderr)
        return EVAL_ERROR
    print(f"valid {dialect} derivation")
    return OK


def _pcf_run(ns, expr) -> int:
    if ns.trace and ns.sem not in ("multi", "kmachine"):
        raise _Usage("--trace needs --sem multi or kmachine")
    if ns.derivation is not None and ns.sem not in _DERIVING:
        raise _Usage(f"--derivation needs one of --sem {', '.join(_DERIVING)}")
    sem, budget = ("multi", 1) if ns.sem == "small" else (ns.sem, ns.budget)  # small: one multi step

    if sem == "kmachine":  # traced, one transition per k_run call, each state printed
        st, trace = k_compile(expr), []
        if ns.trace:
            print(show_state(st))
        per_call, calls = (1, budget) if ns.trace else (budget, 1)
        for _ in range(calls):
            r = k_run(st, per_call)
            if r.status == KStatus.STUCK:
                raise StuckError(unwind(r.state))
            if r.steps == 0:  # halted, or no budget
                break
            st = r.state
            trace += r.trace
            if ns.trace:
                print(show_state(st))
        stop = unwind(st)
    else:
        a = PCF_ENGINES[sem](expr, 0 if ns.trace else budget)
        trace = a.trace
        if ns.trace:  # multi: the row a step at a time, each point printed before any error
            print(print_expr(expr))
            trace = []
            for _ in range(budget):
                point, a = a.term, PCF_ENGINES[sem](a.term, 1)
                if a.status is RunStatus.STUCK or a.status is RunStatus.REACHED_VALUE and a.term is point:
                    break  # no step taken; a self-loop may step to its own term object
                trace += a.trace
                print(print_expr(a.term))
        if a.status is RunStatus.STUCK:
            raise StuckError(a.term)
        if a.term is None:  # big-step out of fuel
            _err(f"no value within fuel {budget}")
            return EVAL_ERROR
        stop = a.term

    print(f"{print_expr(stop)} | {format_trace(trace)}")
    if ns.derivation is not None:
        try:
            with open(ns.derivation, "w") as fh:
                print(derivation_to_json_str(a.derivation), file=fh)
        except OSError as err:
            raise _Usage(f"cannot write {ns.derivation}: {err.strerror or err}")
    return OK


### imp


_IMP_SEMS = ("small", *IMP_ENGINES)


def _imp(args) -> int:
    p = _Parser(prog="imp")
    sub = p.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--sem", choices=_IMP_SEMS, default="bigstop")
    run.add_argument("--budget", type=_at_least(0), default=256,
                     help="steps to run; --sem small is multi at budget 1: one step, whatever this says")
    run.add_argument("--init", default="", metavar="x=v,...")
    run.add_argument("-e", action="store_true", dest="literal")
    run.add_argument("program")
    ns = p.parse_args(args)
    cfg = ImpConfig(_load(parse_stmt, ns), parse_init(ns.init))
    a = IMP_ENGINES["multi"](cfg, 1) if ns.sem == "small" else IMP_ENGINES[ns.sem](cfg, ns.budget)
    if a.trace is None:  # big-step out of fuel
        _err(f"no finish within fuel {ns.budget}")
        return EVAL_ERROR
    if a.term is None:  # freeze: the store alone
        print(f"{print_state(a.trace)} | {'frozen' if a.status is ImpStatus.OUT_OF_BUDGET else 'finished'}")
    else:
        print(print_config(ImpConfig(a.term, a.trace)))
    return OK


### fuzz


def _fuzz(args) -> int:
    p = _Parser(prog="fuzz")
    p.add_argument("--suite", required=True)
    p.add_argument("--trials", type=_at_least(1), default=None)
    p.add_argument("--max-size", type=_at_least(1), default=GenConfig.max_size,
                   help="largest program in nodes: generated pcf terms take it as given, enumerated "
                   "pcf suites cap it at 7 (so 8 enumerates size 7) and imp's enumeration at 6; "
                   "generated imp programs ignore it and draw their own size, 1 to 12")
    p.add_argument("--max-budget", type=_at_least(0), default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    ns = p.parse_args(args)
    if ns.suite not in suite_names():
        raise _Usage(f"unknown suite {ns.suite!r}; have: {', '.join(suite_names())}")

    cfg = GenConfig(seed=ns.seed, max_size=ns.max_size)
    report = run_property_suite(ns.suite, cfg, ns.trials, ns.max_budget)
    print(report.to_json_str() if ns.json else report.to_text())
    return OK if report.ok else SUITE_FAILED


_COMMANDS = {"pcf": _pcf, "imp": _imp, "fuzz": _fuzz}


if __name__ == "__main__":
    sys.exit(main())
