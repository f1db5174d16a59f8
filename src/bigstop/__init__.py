"""Budgeted operational semantics for a small recursive language.

The package answers one question several independent ways - "where is this
program after n units of work, and what did it emit along the way?" - and
ships the machinery to prove the answers agree: a small-step engine, a
fuelled big-step engine, a budgeted big-step (big-stop) engine that returns
checkable derivation trees, a stack machine, three derivation dialects, an
imperative sibling language, and differential test suites over all of them.
"""

import sys

# the term walkers of ROADMAP item 15 (to_mnf, let_erase, typing,
# substitution into an open term, ==) recurse once per level of a term
sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))
del sys  # the package's names are its own

from .bigstep import FuelExhausted, Stuck, Value, big_step
from .bigstop import (
    AnnTrace,
    BigStopResult,
    ComposeMismatch,
    Derivation,
    DerivationFormatError,
    RuleViolation,
    StuckError,
    annihilator_derivation,
    annihilator_eval,
    bigstop_eval,
    check_derivation,
    compose,
    derivation_from_json,
    derivation_to_json,
    derivation_to_json_str,
    ec_bigstop_eval,
    is_progressing,
)
from .harness import (
    Failure,
    GenConfig,
    GenerationExhausted,
    PropertyReport,
    corpus,
    corpus_term,
    enumerate_exprs,
    enumerate_stmts,
    gen_typed_expr,
    run_property_suite,
    suite_names,
)
from .imp import (
    Add,
    Assign,
    FreezeResult,
    If,
    ImpConfig,
    ImpDone,
    ImpFuelExhausted,
    ImpMultiResult,
    ImpParseError,
    ImpStatus,
    Lit,
    Mul,
    Ref,
    SeqS,
    Skip,
    Sub,
    While,
    aeval,
    config,
    imp_bigstep,
    imp_bigstop,
    imp_bigstop_freeze,
    imp_multi_step,
    imp_small_step,
    make_state,
    parse_init,
    parse_stmt,
    print_config,
    print_state,
    print_stmt,
    state_get,
    state_set,
)
from .kmachine import (
    KRunResult,
    KStatus,
    MachineState,
    StuckState,
    compile,  # noqa: A004 - loading a term into the machine is called compile
    correspondence_check,
    halted,
    k_run,
    k_step,
    show_state,
    unwind,
    validate_state,
)
from .mnf import NotMNF, let_erase, mnf_bigstop_eval, mnf_multi_step, mnf_small_step, to_mnf
from .smallstep import (
    MultiResult,
    RunStatus,
    StepResult,
    contract,
    decompose,
    multi_step,
    plug,
    small_step,
    step_trace,
)
from .syntax import (
    App,
    Case,
    Eff,
    Expr,
    Lam,
    Let,
    ParseError,
    Succ,
    Var,
    Zero,
    alpha_eq,
    check_mnf,
    expr_size,
    free_vars,
    is_mnf_value,
    is_value,
    numeral,
    parse_expr,
    print_expr,
    subst,
)
from .traces import format_trace
from .typecheck import (
    ArrowT,
    NatT,
    TypeFailure,
    infer_type,
    principal_type,
    print_type,
    types_unifiable,
    well_typed,
)
