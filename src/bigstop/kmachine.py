"""A stack machine for the same language.

The machine threads a stack of pending frames instead of walking the term
on every step: it is either evaluating some subterm or returning a value
to the innermost frame.  A value in focus, a numeral of any size included,
is returned in one transition; only a successor that is no value pushes a
frame and evaluates its body.  Effects emit their label the moment the eff
node is entered.  unwind() reads the whole configuration back into a term,
so machine runs can be compared position-for-position with the tree
engines: correspondence_check() holds the machine to the step relation
exactly, contraction by contraction.
"""

import enum

from .budget import check_budget
from .record import record
from .syntax import (
    App, Case, Eff, Expr, Lam, Succ, Zero,
    beta, is_value, print_expr, subst,
)
from .traces import Trace, format_trace


@record
class SuccF:
    pass


@record
class CaseF:
    zero_branch: Expr
    succ_var: str
    succ_branch: Expr


@record
class FunF:
    arg: Expr  # not yet evaluated


@record
class ArgF:
    fn_value: Expr  # must be a value


Frame = SuccF | CaseF | FunF | ArgF
Stack = tuple


class Mode(enum.Enum):
    EVAL = "▷"
    RETURN = "◁"


@record
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


class KStatus(enum.Enum):
    FINAL = "Final"
    OUT_OF_BUDGET = "OutOfBudget"
    STUCK = "Stuck"


@record
class KRunResult:
    state: MachineState
    trace: Trace
    steps: int
    status: KStatus


# hand-written frames, not read off the syntax table: engines stay independent
def k_run(state: MachineState, budget: int) -> KRunResult:
    """Run the machine for at most budget transitions, each O(1) whatever
    the depth of the stack; a transition that would get stuck ends it.
    This loop is the only writing of the transitions: k_step and
    correspondence_check take them one at a time through it."""
    check_budget(budget)
    ret, stack, e = state.mode is Mode.RETURN, list(state.stack), state.expr
    labels: list = []
    steps = 0
    while steps < budget:
        if ret:  # returning e (a value) to the innermost frame
            if not stack:
                break
            top = stack[-1]
            c = type(top)
            if c is FunF:
                stack[-1] = ArgF(e)
                e, ret = top.arg, False
            elif c is SuccF:
                stack.pop()
                e = Succ(e)
            else:  # a contraction, or stuck
                if c is ArgF and type(top.fn_value) is Lam:
                    e = beta(top.fn_value, e)
                elif c is CaseF and type(e) is Zero:
                    e = top.zero_branch
                elif c is CaseF and type(e) is Succ:
                    e = subst(top.succ_branch, {top.succ_var: e.body})
                else:
                    break
                stack.pop()
                ret = False
        else:
            c = type(e)
            if c is App:
                stack.append(FunF(e.arg))
                e = e.fn
            elif c is Eff:
                labels.append(e.label)
                e = e.body
            elif c is Case:
                stack.append(CaseF(e.zero_branch, e.succ_var, e.succ_branch))
                e = e.scrutinee
            elif c is Succ and not e._spine:
                stack.append(_SUCC)
                e = e.body
            elif c is Zero or c is Lam or c is Succ:  # a numeral value returns whole
                ret = True
            else:
                break
        steps += 1
    status = (KStatus.FINAL if ret and not stack
              else KStatus.OUT_OF_BUDGET if steps == budget else KStatus.STUCK)
    mode = Mode.RETURN if ret else Mode.EVAL
    return KRunResult(MachineState(mode, tuple(stack), e), tuple(labels), steps, status)


def k_step(s: MachineState):
    """k_run's first transition: (state, trace), None when halted, StuckState when stuck."""
    r = k_run(s, 1)
    if r.status is KStatus.STUCK:
        raise StuckState(s)
    return None if r.steps == 0 else (r.state, r.trace)


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


### exact correspondence with the step relation


@record
class Report:
    ok: bool
    detail: str


def correspondence_check(e: Expr, budget: int) -> Report:
    """The machine after n contractions is small_step taken n times.

    Contractions are the moves that enter an eff node and the returns into
    a CaseF or an ArgF frame, read off the state before the move; every
    other move is free and leaves unwind() unchanged.  The machine is
    driven once, by k_run one transition at a time, with small_step in
    lockstep: after each contraction n <= budget the unwound state must
    equal the stepped term and the labels its moves emitted the step's
    label, and the two must halt or get stuck at the same n.  The end is
    compared once with bigstop_eval(e, budget), and k_run given all the
    moves in one call must end in the state the single moves reached, with
    the same trace.  Each move and contraction copies or unwinds the whole
    configuration: linear in the budget while the stack stays bounded,
    quadratic on a growing context, as the step relation is.  A failure
    names the first contraction that differs.
    """
    from .bigstop import StuckError, bigstop_eval
    from .smallstep import small_step

    check_budget(budget)
    state, term, labels = compile(e), e, []
    n, moves, end = 0, 0, "out of budget"
    while n < budget:
        step = small_step(term)
        emitted = ()
        # free moves up to the next contraction, then the contraction
        while True:
            contraction = (type(state.expr) is Eff if state.mode is Mode.EVAL
                           else not halted(state) and type(state.stack[-1]) in (CaseF, ArgF))
            r = k_run(state, 1)
            if r.steps == 0:
                end = "halted" if r.status is KStatus.FINAL else "stuck"
                break
            state, emitted, moves = r.state, emitted + r.trace, moves + 1
            if contraction:
                break
        here = unwind(state)
        if end != "out of budget":
            tree = "halted" if is_value(term) else "stuck" if step is None else "steps on"
            if end != tree or here != term:
                return Report(False, f"contraction {n}: machine {end} at {print_expr(here)}, "
                                     f"step relation {tree} at {print_expr(term)}")
            break
        n += 1
        if step is None or here != step.expr or emitted != step.trace:
            tree = (f"no step from {print_expr(term)}" if step is None
                    else _shown(step.expr, (*labels, *step.trace)))
            return Report(False, f"contraction {n}: machine at "
                                 f"{_shown(here, (*labels, *emitted))}, step relation at {tree}")
        term = step.expr
        labels += emitted
    k = k_run(compile(e), moves)
    if k.state != state or k.trace != tuple(labels):
        return Report(False, f"k_run for {moves} moves: {show_state(k.state)} | "
                             f"{format_trace(k.trace)}, driven to {show_state(state)}")
    try:
        r = bigstop_eval(e, budget)
        agree = end != "stuck" and r.stopped == term and r.trace == tuple(labels)
        tree = _shown(r.stopped, r.trace)
    except StuckError as err:
        agree, tree = end == "stuck", str(err)
    if not agree:
        return Report(False, f"big-stop at budget {budget}: {tree}, "
                             f"step relation at {_shown(term, labels)}")
    return Report(True, f"agree at every contraction up to {n} ({moves} moves), "
                        f"where both are {end}")


def _shown(e: Expr, labels) -> str:
    return f"{print_expr(e)} | {format_trace(labels)}"
