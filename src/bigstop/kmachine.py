"""A stack machine for the same language.

The machine threads a stack of pending frames instead of walking the term
on every step: it is either evaluating some subterm or returning a value
to the innermost frame.  Effects emit their label the moment the eff node
is entered.  unwind() reads the whole configuration back into a term, so
machine runs can be compared position-for-position with the tree engines.
"""

import enum
from dataclasses import dataclass

from .budget import check_budget
from .syntax import (
    App, Case, Eff, Expr, Lam, Succ, Zero,
    expr_depth, expr_size, is_value, print_expr, subst,
)
from .traces import Trace, format_trace


@dataclass(frozen=True)
class SuccF:
    pass


@dataclass(frozen=True)
class CaseF:
    zero_branch: Expr
    succ_var: str
    succ_branch: Expr


@dataclass(frozen=True)
class FunF:
    arg: Expr  # not yet evaluated


@dataclass(frozen=True)
class ArgF:
    fn_value: Expr  # must be a value


Frame = SuccF | CaseF | FunF | ArgF
Stack = tuple


class Mode(enum.Enum):
    EVAL = "▷"
    RETURN = "◁"


@dataclass(frozen=True)
class MachineState:
    mode: Mode
    stack: Stack
    expr: Expr


class StuckState(Exception):
    def __init__(self, state):
        super().__init__(f"machine stuck at {show_state(state)}")
        self.state = state


def compile(e: Expr) -> MachineState:  # noqa: A001 - the load step is called compile
    return MachineState(Mode.EVAL, (), e)


def halted(s: MachineState) -> bool:
    return s.mode is Mode.RETURN and not s.stack


_SUCC = SuccF()


def _move(mode: Mode, stack: list, e: Expr):
    """One transition on a list stack, updated in place: (mode, expr, label).

    label is None when the transition emits nothing.  Returns None, with the
    stack untouched, when the machine is stuck.
    """
    if mode is Mode.EVAL:
        match e:
            case Zero() | Lam():
                return Mode.RETURN, e, None
            case Succ(b):
                stack.append(_SUCC)
                return Mode.EVAL, b, None
            case Case(zb, xv, sb, sc):
                stack.append(CaseF(zb, xv, sb))
                return Mode.EVAL, sc, None
            case App(f, a):
                stack.append(FunF(a))
                return Mode.EVAL, f, None
            case Eff(l, b):
                return Mode.EVAL, b, l
        return None
    # returning e (a value) to the innermost frame
    match stack[-1]:
        case SuccF():
            stack.pop()
            return Mode.RETURN, Succ(e), None
        case CaseF(zb, xv, sb):
            if isinstance(e, Zero):
                stack.pop()
                return Mode.EVAL, zb, None
            if isinstance(e, Succ):
                stack.pop()
                return Mode.EVAL, subst(sb, {xv: e.body}), None
        case FunF(a):
            stack[-1] = ArgF(e)
            return Mode.EVAL, a, None
        case ArgF(f):
            if isinstance(f, Lam):
                stack.pop()
                return Mode.EVAL, subst(f.body, {f.self_var: f, f.param: e}), None
    return None


def k_step(s: MachineState):
    """One machine transition: (state, trace).  None when halted."""
    if halted(s):
        return None
    stack = list(s.stack)
    nxt = _move(s.mode, stack, s.expr)
    if nxt is None:
        raise StuckState(s)
    mode, e, label = nxt
    return MachineState(mode, tuple(stack), e), () if label is None else (label,)


class KStatus(enum.Enum):
    FINAL = "Final"
    OUT_OF_BUDGET = "OutOfBudget"
    STUCK = "Stuck"


@dataclass(frozen=True)
class KRunResult:
    state: MachineState
    trace: Trace
    steps: int
    status: KStatus


def k_run(state: MachineState, budget: int) -> KRunResult:
    """Run the machine for at most budget transitions.

    The budget counts transitions, exactly as repeated k_step would.  A
    numeral value s^j(v), v being z or a function, is evaluated by 2j+1
    transitions that push j successor frames and pop them again; they are
    counted one by one but taken in one move, so each transition costs O(1)
    whatever the depth of the stack or the size of the numeral.
    """
    check_budget(budget)
    mode, stack, e = state.mode, list(state.stack), state.expr
    labels: list = []
    steps = 0
    status = KStatus.OUT_OF_BUDGET
    while True:
        if mode is Mode.RETURN and not stack:
            status = KStatus.FINAL
            break
        if steps == budget:
            break
        if mode is Mode.EVAL and isinstance(e, Succ):
            # walk the s(...) spine: on a value it is 2j+1 moves back to an
            # equal term, otherwise j pushes down to the non-value at its end
            j, end = 0, e
            while isinstance(end, Succ):
                j, end = j + 1, end.body
            value = isinstance(end, (Zero, Lam))
            moves = 2 * j + 1 if value else j
            left = budget - steps
            if moves <= left:
                steps += moves
                if value:
                    mode = Mode.RETURN
                else:
                    stack.extend([_SUCC] * j)
                    e = end
                continue
            # the budget runs out inside the walk, while pushing frames or
            # (past the first j+1 moves) while popping them back
            if left <= j:
                depth = left
            else:
                mode, depth = Mode.RETURN, moves - left
            stack.extend([_SUCC] * depth)
            for _ in range(depth):
                e = e.body
            steps = budget
            break
        nxt = _move(mode, stack, e)
        if nxt is None:
            status = KStatus.STUCK
            break
        mode, e, label = nxt
        if label is not None:
            labels.append(label)
        steps += 1
    return KRunResult(MachineState(mode, tuple(stack), e), tuple(labels), steps, status)


def unwind(s: MachineState) -> Expr:
    """Read the machine configuration back as the term it is computing."""
    e = s.expr
    for frame in reversed(s.stack):
        match frame:
            case SuccF():
                e = Succ(e)
            case CaseF(zb, xv, sb):
                e = Case(zb, xv, sb, e)
            case FunF(a):
                e = App(e, a)
            case ArgF(f):
                e = App(f, e)
    return e


def validate_state(s: MachineState):
    """None if the state respects the machine invariants, else a reason.

    ArgF frames may only hold values (they are produced by returning a
    function value), and return mode only ever carries values.
    """
    for i, frame in enumerate(s.stack):
        if isinstance(frame, ArgF) and not is_value(frame.fn_value):
            return f"frame {i}: ArgF holds a non-value {print_expr(frame.fn_value)}"
    if s.mode is Mode.RETURN and not is_value(s.expr):
        return f"return mode with non-value {print_expr(s.expr)}"
    return None


def show_frame(f: Frame) -> str:
    match f:
        case SuccF():
            return "s(-)"
        case CaseF(zb, xv, sb):
            return f"case(-){{z=>{print_expr(zb)}|s({xv})=>{print_expr(sb)}}}"
        case FunF(a):
            return f"(- {print_expr(a)})"
        case ArgF(v):
            return f"({print_expr(v)} -)"
    raise TypeError(f"not a frame: {f!r}")


def show_state(s: MachineState) -> str:
    stack = ";".join(["ε"] + [show_frame(f) for f in s.stack])
    return f"{stack} {s.mode.value} {print_expr(s.expr)}"


### differential checks against the tree engines


@dataclass(frozen=True)
class Report:
    ok: bool
    detail: str


def _margins(e: Expr):
    # per-contraction machine overhead is bounded by the nesting depth the
    # machine has to descend through; these are empirical safety margins,
    # generous for the bounded-growth terms the checks run on
    return expr_depth(e) + 4, expr_size(e) + 8


def soundness_check(e: Expr, budget: int) -> Report:
    """Machine runs are reflected by the tree semantics."""
    from .bigstop import bigstop_eval

    mrun = k_run(compile(e), budget)
    if mrun.status is KStatus.FINAL:
        r = bigstop_eval(e, budget)
        if r.stopped == mrun.state.expr and r.trace == mrun.trace:
            return Report(True, f"converged both ways in <= {budget} steps")
        return Report(
            False,
            f"machine got {print_expr(mrun.state.expr)} | {format_trace(mrun.trace)}, "
            f"tree got {print_expr(r.stopped)} | {format_trace(r.trace)}",
        )
    k, c = _margins(e)
    for n in range(budget + 1):
        want = k_run(compile(e), n).trace
        have = bigstop_eval(e, k * n + c).trace
        if want != have[: len(want)]:
            return Report(False, f"machine trace at {n} steps is not reflected")
    return Report(True, f"trace prefixes agree out to {budget} machine steps")


def completeness_check(e: Expr, budget: int) -> Report:
    """Tree runs are simulated by the machine."""
    from .bigstop import bigstop_eval

    k, c = _margins(e)
    r = bigstop_eval(e, budget)
    if is_value(r.stopped):
        mrun = k_run(compile(e), k * budget + c)
        if (
            mrun.status is KStatus.FINAL
            and mrun.state.expr == r.stopped
            and mrun.trace == r.trace
        ):
            return Report(True, f"machine reproduced the value within {k}*n+{c} steps")
        return Report(False, "machine failed to reproduce a converging run")
    for n in range(budget + 1):
        want = bigstop_eval(e, n).trace
        have = k_run(compile(e), k * n + c).trace
        if want != have[: len(want)]:
            return Report(False, f"tree trace at budget {n} is not simulated")
    return Report(True, f"trace prefixes agree out to budget {budget}")
