"""A stack machine for the same language.

The machine threads a stack of pending frames instead of walking the term
on every step: it is either evaluating some subterm or returning a value
to the innermost frame.  Effects emit their label the moment the eff node
is entered.  unwind() reads the whole configuration back into a term, so
machine runs can be compared position-for-position with the tree engines:
correspondence_check() holds the machine to the step relation exactly,
contraction by contraction.
"""

import enum

from .budget import check_budget
from .record import record
from .syntax import (
    App, Case, Eff, Expr, Lam, Succ, Zero,
    is_value, print_expr, subst,
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


# hand-written frames, not read off the syntax table: engines stay independent
def _move(mode: Mode, stack: list, e: Expr):
    """One transition on a list stack, updated in place: (mode, expr, label).

    label is None when the transition emits nothing.  Returns None, with the
    stack untouched, when the machine is stuck.
    """
    if mode is Mode.EVAL:
        c = type(e)
        if c is App:
            stack.append(FunF(e.arg))
            return Mode.EVAL, e.fn, None
        if c is Zero or c is Lam:
            return Mode.RETURN, e, None
        if c is Succ:
            stack.append(_SUCC)
            return Mode.EVAL, e.body, None
        if c is Eff:
            return Mode.EVAL, e.body, e.label
        if c is Case:
            stack.append(CaseF(e.zero_branch, e.succ_var, e.succ_branch))
            return Mode.EVAL, e.scrutinee, None
        return None
    # returning e (a value) to the innermost frame
    top = stack[-1]
    c = type(top)
    if c is FunF:
        stack[-1] = ArgF(e)
        return Mode.EVAL, top.arg, None
    if c is ArgF:
        f = top.fn_value
        if type(f) is Lam:
            stack.pop()
            return Mode.EVAL, subst(f.body, {f.self_var: f, f.param: e}), None
    elif c is SuccF:
        stack.pop()
        return Mode.RETURN, Succ(e), None
    elif c is CaseF:
        if type(e) is Zero:
            stack.pop()
            return Mode.EVAL, top.zero_branch, None
        if type(e) is Succ:
            stack.pop()
            return Mode.EVAL, subst(top.succ_branch, {top.succ_var: e.body}), None
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


@record
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
    counted one by one but taken in one move, which reads j and whether the
    numeral is a value from the successor's stored spine, so evaluating a
    numeral value costs O(1) whatever its size, and every other transition
    O(1) whatever the depth of the stack.
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
        if mode is Mode.EVAL and type(e) is Succ:
            # the s(...) spine: on a value it is 2j+1 moves back to an equal
            # term, otherwise j pushes down to the non-value at its end
            value, j = e._spine > 0, abs(e._spine)
            moves = 2 * j + 1 if value else j
            left = budget - steps
            if moves <= left:
                steps += moves
                if value:
                    mode = Mode.RETURN
                else:
                    stack.extend([_SUCC] * j)
                    for _ in range(j):
                        e = e.body
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


### exact correspondence with the step relation


@record
class Report:
    ok: bool
    detail: str


def correspondence_check(e: Expr, budget: int) -> Report:
    """The machine after n contractions is small_step taken n times.

    Contractions are the moves that enter an eff node and the returns into
    a CaseF or an ArgF frame; every other move is free and leaves unwind()
    unchanged.  The machine is driven once, one move at a time, with
    small_step in lockstep: after each contraction n <= budget the unwound
    state must equal the stepped term and the label it emitted the step's
    label, and the two must halt or get stuck at the same n.  The end is
    compared once with bigstop_eval(e, budget), and k_run given exactly the
    moves driven must end in the same state with the same trace, so its
    numeral shortcut is held to single moves.  Linear in the budget; a
    failure names the first contraction at which the two sides differ.
    """
    from .bigstop import StuckError, bigstop_eval
    from .smallstep import small_step

    check_budget(budget)
    mode, stack, cur = Mode.EVAL, [], e
    term, labels = e, []
    n, moves, end = 0, 0, "out of budget"
    while n < budget:
        step = small_step(term)
        # free moves up to the next contraction, then the contraction
        while True:
            if mode is Mode.RETURN and not stack:
                end = "halted"
                break
            if mode is Mode.EVAL:
                contraction = isinstance(cur, Eff)
            else:
                contraction = isinstance(stack[-1], (CaseF, ArgF))
            nxt = _move(mode, stack, cur)
            if nxt is None:
                end = "stuck"
                break
            mode, cur, label = nxt
            moves += 1
            if contraction:
                break
        here = unwind(MachineState(mode, tuple(stack), cur))
        if end != "out of budget":
            tree = "halted" if is_value(term) else "stuck" if step is None else "steps on"
            if end != tree or here != term:
                return Report(False, f"contraction {n}: machine {end} at {print_expr(here)}, "
                                     f"step relation {tree} at {print_expr(term)}")
            break
        n += 1
        emitted = () if label is None else (label,)
        if step is None or here != step.expr or emitted != step.trace:
            tree = (f"no step from {print_expr(term)}" if step is None
                    else _shown(step.expr, (*labels, *step.trace)))
            return Report(False, f"contraction {n}: machine at "
                                 f"{_shown(here, (*labels, *emitted))}, step relation at {tree}")
        term = step.expr
        labels += emitted
    driven, k = MachineState(mode, tuple(stack), cur), k_run(compile(e), moves)
    if k.state != driven or k.trace != tuple(labels):
        return Report(False, f"k_run for {moves} moves: {show_state(k.state)} | "
                             f"{format_trace(k.trace)}, driven to {show_state(driven)}")
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
