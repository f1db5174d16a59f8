"""Command line front end.

Three console scripts share one dispatcher:

    pcf run --sem bigstop --budget 4 'eff[a] s(z)'
    pcf typecheck 'fun f(x) => x'
    pcf mnf '(fun f(x) => x) (s z)'      -- oops: application is juxtaposition
    pcf check --dialect plain d.json     -- a file that pcf run --derivation wrote
    imp run --sem freeze --budget 3 --init x=2 'while x do { x := x - 1 }'
    fuzz --suite stop-multi --max-size 5

Exit codes: 0 success, 1 evaluation stuck, open program, type error or a
derivation that `pcf check` rejects, 2 usage or parse error (a program
nested too deeply to parse included), a program file that cannot be read as
UTF-8 text, a --derivation file that cannot be written, or a `pcf check`
file that cannot be read or is not a derivation file, 3 property-suite
failure.  `python -m bigstop` takes the same arguments as the dispatcher:
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
from .traces import format_trace
from .typecheck import TypeFailure, infer_type, print_type

OK, EVAL_ERROR, USAGE_ERROR, SUITE_FAILED = 0, 1, 2, 3


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


_TOO_DEEP = "parse: program nested too deeply"


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise _Usage(f"cannot read {path}: {getattr(err, 'strerror', None) or err}")


def _read_program(arg: str, force_literal: bool) -> str:
    if not force_literal and os.path.isfile(arg):
        return _read_text(arg)
    return arg


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


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        _err("usage: {pcf|imp|fuzz} ...")
        return USAGE_ERROR
    head, rest = argv[0], argv[1:]
    try:
        if head == "pcf":
            return _pcf(rest)
        if head == "imp":
            return _imp(rest)
        if head == "fuzz":
            return _fuzz(rest)
    except _Usage as u:
        _err(str(u))
        return USAGE_ERROR
    _err(f"unknown command {head!r}; expected pcf, imp, or fuzz")
    return USAGE_ERROR


def pcf_entry():
    sys.exit(main(["pcf"] + sys.argv[1:]))


def imp_entry():
    sys.exit(main(["imp"] + sys.argv[1:]))


def fuzz_entry():
    sys.exit(main(["fuzz"] + sys.argv[1:]))


### pcf


_PCF_SEMS = ("small", "multi", "big", "bigstop", "annihilator", "mnf", "ec", "kmachine")


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
    try:
        expr = parse_expr(_read_program(ns.program, ns.literal))
    except ParseError as pe:
        _err(f"parse: {pe}")
        return USAGE_ERROR
    except RecursionError:
        _err(_TOO_DEEP)
        return USAGE_ERROR

    if ns.cmd == "typecheck":
        try:
            print(print_type(infer_type(expr)))
        except TypeFailure as tf:
            _err(f"type: {tf}")
            return EVAL_ERROR
        return OK

    if ns.cmd == "mnf":
        print(print_expr(to_mnf(expr)))
        return OK

    return _pcf_run(ns, expr)


_DERIVING_SEMS = ("bigstop", "annihilator", "mnf", "ec")


def _pcf_check(path: str, dialect: str) -> int:
    text = _read_text(path)
    try:
        d = derivation_from_json(text)
    except DerivationFormatError as err:
        raise _Usage(f"{path}: {err}")
    violation = check_derivation(d, dialect)
    if violation is not None:
        print(violation, file=sys.stderr)
        return EVAL_ERROR
    print(f"valid {dialect} derivation")
    return OK


def _pcf_run(ns, expr) -> int:
    budget = ns.budget
    fuel = ns.fuel if ns.fuel is not None else budget
    if ns.derivation is not None and ns.sem not in _DERIVING_SEMS:
        _err("--derivation needs --sem bigstop, annihilator, mnf, or ec")
        return USAGE_ERROR
    derivation = None
    try:
        if ns.sem == "small":
            step = small_step(expr)
            if step is None:
                if is_value(expr):
                    print(f"{print_expr(expr)} | 1")
                    return OK
                _err(f"stuck: {print_expr(expr)}")
                return EVAL_ERROR
            print(f"{print_expr(step.expr)} | {format_trace(step.trace)}")
            return OK

        if ns.sem == "multi":
            if ns.trace:
                for mid in step_trace(expr, budget):
                    print(print_expr(mid))
            r = multi_step(expr, budget)
            print(f"{print_expr(r.final)} | {format_trace(r.trace)}")
            if r.status == RunStatus.STUCK:
                _err(f"stuck: {print_expr(r.final)}")
                return EVAL_ERROR
            return OK

        if ns.sem == "big":
            out = big_step(expr, fuel)
            match out:
                case Value(v, tr):
                    print(f"{print_expr(v)} | {format_trace(tr)}")
                    return OK
                case FuelExhausted():
                    _err(f"no value within fuel {fuel}")
                    return EVAL_ERROR
                case Stuck(at):
                    _err(f"stuck: {print_expr(at)}")
                    return EVAL_ERROR

        if ns.sem == "bigstop":
            r = bigstop_eval(expr, budget)
            derivation = r.derivation
            print(f"{print_expr(r.stopped)} | {format_trace(r.trace)}")

        elif ns.sem == "annihilator":
            d = annihilator_derivation(expr, budget)
            derivation = d
            print(f"{print_expr(d.rhs)} | {d.trace}")

        elif ns.sem == "mnf":
            m = to_mnf(expr)
            r = mnf_bigstop_eval(m, budget)
            derivation = r.derivation
            print(f"{print_expr(r.stopped)} | {format_trace(r.trace)}")

        elif ns.sem == "ec":
            r = ec_bigstop_eval(expr, budget)
            derivation = r.derivation
            print(f"{print_expr(r.stopped)} | {format_trace(r.trace)}")

        elif ns.sem == "kmachine":
            st = k_compile(expr)
            r = k_run(st, budget)
            if ns.trace:
                cur, emitted = st, 0
                print(show_state(cur))
                while emitted < r.steps:
                    cur, _ = k_step(cur)
                    emitted += 1
                    print(show_state(cur))
            if r.status == KStatus.STUCK:
                _err(f"stuck machine state: {show_state(r.state)}")
                return EVAL_ERROR
            print(f"{print_expr(unwind(r.state))} | {format_trace(r.trace)}")
            return OK
    except StuckError as se:
        _err(f"stuck: {se}")
        return EVAL_ERROR
    except NotMNF as nm:
        _err(f"not in monadic normal form: {nm}")
        return EVAL_ERROR
    except SubstOpenValue as so:
        _err(f"open program: {so}")
        return EVAL_ERROR

    if ns.derivation is not None:
        try:
            with open(ns.derivation, "w") as fh:
                fh.write(derivation_to_json_str(derivation))
                fh.write("\n")
        except OSError as err:
            _err(f"cannot write {ns.derivation}: {err.strerror or err}")
            return USAGE_ERROR
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

    try:
        stmt = imp.parse_stmt(_read_program(ns.program, ns.literal))
        state = imp.parse_init(ns.init)
    except (imp.ImpParseError, ValueError) as pe:
        _err(f"parse: {pe}")
        return USAGE_ERROR
    except RecursionError:
        _err(_TOO_DEEP)
        return USAGE_ERROR
    cfg = imp.ImpConfig(stmt, state)

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

    cfg = GenConfig(seed=ns.seed, max_size=ns.max_size)
    try:
        report = run_property_suite(ns.suite, cfg, ns.trials, ns.max_budget)
    except KeyError:
        _err(f"unknown suite {ns.suite!r}; have: {', '.join(suite_names())}")
        return USAGE_ERROR
    print(report.to_json_str() if ns.json else report.to_text())
    return OK if report.ok else SUITE_FAILED


if __name__ == "__main__":
    sys.exit(main())
