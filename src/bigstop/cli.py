"""Command line front end.

Three console scripts share one dispatcher:

    pcf run --sem bigstop --budget 4 'eff[a] s(z)'
    pcf typecheck 'fun f(x) => x'
    pcf mnf '(fun f(x) => x) (s z)'      -- oops: application is juxtaposition
    pcf check --dialect plain d.json     -- a file that pcf run --derivation wrote
    imp run --sem freeze --budget 3 --init x=2 'while x do { x := x - 1 }'
    fuzz --suite stop-multi --max-size 5

Exit codes: 0 success, 1 evaluation stuck, open program, type error, a run
too deep for the interpreter's recursion limit, or a derivation that
`pcf check` rejects, 2 usage or parse error (a program nested too deeply to
parse included), a program file that cannot be read as UTF-8 text, a
--derivation file that cannot be written, or a `pcf check` file that cannot
be read or is not a derivation file, 3 property-suite failure.
`python -m bigstop` takes the same arguments as the dispatcher:
`python -m bigstop pcf run -e z`.
"""

import argparse
import os
import sys

from . import imp
from .bigstep import FuelExhausted, Stuck, Value, big_step
from .bigstop import (
    DIALECTS,
    DerivationFormatError,
    StuckError,
    annihilator_derivation,
    bigstop_eval,
    check_derivation,
    derivation_from_json,
    derivation_to_json_str,
    ec_bigstop_eval,
)
from .harness import GenConfig, run_property_suite, suite_names
from .kmachine import KStatus, compile as k_compile, k_run, k_step, show_state, unwind
from .mnf import NotMNF, mnf_bigstop_eval, to_mnf
from .smallstep import RunStatus, multi_step, small_step, step_trace
from .syntax import ParseError, SubstOpenValue, is_value, parse_expr, print_expr
from .traces import AnnTrace, format_trace
from .typecheck import TypeFailure, infer_type, print_type

OK, EVAL_ERROR, USAGE_ERROR, SUITE_FAILED = 0, 1, 2, 3


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
    imp.ImpParseError: (USAGE_ERROR, "parse: "),
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


# the semantics that build a derivation: --sem -> (term, budget) -> derivation
_DERIVING = {
    "bigstop": lambda e, b: bigstop_eval(e, b).derivation,
    "annihilator": annihilator_derivation,
    "mnf": lambda e, b: mnf_bigstop_eval(to_mnf(e), b).derivation,
    "ec": lambda e, b: ec_bigstop_eval(e, b).derivation,
}

_PCF_SEMS = ("small", "multi", "big", *_DERIVING, "kmachine")


def _pcf(args) -> int:
    p = _Parser(prog="pcf")
    sub = p.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run")
    run.add_argument("--sem", choices=_PCF_SEMS, default="bigstop")
    run.add_argument("--budget", type=_at_least(0), default=256)
    run.add_argument("--fuel", type=_at_least(0), default=None)
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
    budget = ns.budget
    if ns.sem in _DERIVING:
        d = _DERIVING[ns.sem](expr, budget)
        t = d.trace
        print(f"{print_expr(d.rhs)} | {t if type(t) is AnnTrace else format_trace(t)}")
        if ns.derivation is not None:
            try:
                with open(ns.derivation, "w") as fh:
                    print(derivation_to_json_str(d), file=fh)
            except OSError as err:
                raise _Usage(f"cannot write {ns.derivation}: {err.strerror or err}")
        return OK
    if ns.derivation is not None:
        raise _Usage(f"--derivation needs one of --sem {', '.join(_DERIVING)}")

    if ns.sem == "small":
        step = small_step(expr)
        if step is not None:
            print(f"{print_expr(step.expr)} | {format_trace(step.trace)}")
        elif is_value(expr):
            print(f"{print_expr(expr)} | 1")
        else:
            raise StuckError(expr)
        return OK

    if ns.sem == "multi":
        if ns.trace:
            for mid in step_trace(expr, budget):
                print(print_expr(mid))
        r = multi_step(expr, budget)
        print(f"{print_expr(r.final)} | {format_trace(r.trace)}")
        if r.status == RunStatus.STUCK:
            raise StuckError(r.final)
        return OK

    if ns.sem == "big":
        fuel = budget if ns.fuel is None else ns.fuel
        match big_step(expr, fuel):
            case Value(v, tr):
                print(f"{print_expr(v)} | {format_trace(tr)}")
            case Stuck(at):
                raise StuckError(at)
            case FuelExhausted():
                _err(f"no value within fuel {fuel}")
                return EVAL_ERROR
        return OK

    # kmachine
    st = k_compile(expr)
    r = k_run(st, budget)
    if ns.trace:
        cur = st
        print(show_state(cur))
        for _ in range(r.steps):
            cur = k_step(cur)[0]
            print(show_state(cur))
    if r.status == KStatus.STUCK:
        _err(f"stuck machine state: {show_state(r.state)}")
        return EVAL_ERROR
    print(f"{print_expr(unwind(r.state))} | {format_trace(r.trace)}")
    return OK


### imp


_IMP_SEMS = ("small", "multi", "big", "bigstop", "freeze")


def _imp(args) -> int:
    p = _Parser(prog="imp")
    sub = p.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--sem", choices=_IMP_SEMS, default="bigstop")
    run.add_argument("--budget", type=_at_least(0), default=256)
    run.add_argument("--init", default="", metavar="x=v,...")
    run.add_argument("-e", action="store_true", dest="literal")
    run.add_argument("program")
    ns = p.parse_args(args)
    cfg = imp.ImpConfig(_load(imp.parse_stmt, ns), imp.parse_init(ns.init))

    if ns.sem == "small":
        nxt = imp.imp_small_step(cfg)
        print(imp.print_config(cfg if nxt is None else nxt))
        return OK
    if ns.sem == "multi":
        r = imp.imp_multi_step(cfg, ns.budget)
        print(imp.print_config(r.config))
        return OK
    if ns.sem == "big":
        out = imp.imp_bigstep(cfg, ns.budget)
        if isinstance(out, imp.ImpFuelExhausted):
            _err(f"no finish within fuel {ns.budget}")
            return EVAL_ERROR
        print(imp.print_config(imp.ImpConfig(imp.Skip(), out.state)))
        return OK
    if ns.sem == "bigstop":
        print(imp.print_config(imp.imp_bigstop(cfg, ns.budget)))
        return OK
    # freeze
    fz = imp.imp_bigstop_freeze(cfg, ns.budget)
    print(f"{imp.print_state(fz.state)} | {'frozen' if fz.frozen else 'finished'}")
    return OK


### fuzz


def _fuzz(args) -> int:
    p = _Parser(prog="fuzz")
    p.add_argument("--suite", required=True)
    p.add_argument("--trials", type=_at_least(1), default=None)
    p.add_argument("--max-size", type=_at_least(1), default=GenConfig.max_size)
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
