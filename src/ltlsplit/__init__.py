"""Decomposition of LTL reactive-synthesis specs into independent variable blocks."""

from .formula import (
    Always,
    And,
    Atom,
    Eventually,
    FALSE,
    Formula,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TRUE,
    Until,
    atoms,
    dependence_query,
    lock_conjunct,
    print_formula,
    rename_projection,
    unprime,
)
from .parser import Spec, SpecError, make_spec, parse_formula, parse_spec
from .traces import (
    LassoTrace,
    compute_z,
    eval_formula,
    format_trace,
    lasso,
    parse_trace,
    project_trace,
    state,
    strip_primes,
)
from .engine import (
    EngineLimitError,
    ExternalSolver,
    ExternalSolverError,
    InternalSolver,
    SatResult,
    UNSAT,
    WitnessSoundnessError,
    build_gba,
    find_accepting_lasso,
    ltl_sat,
    to_nnf,
)
from .decompose import (
    Block,
    InvariantViolation,
    PartitionResult,
    check_independent,
    partition,
    verify_partition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
