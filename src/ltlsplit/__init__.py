"""Decomposition of LTL reactive-synthesis specs into independent variable blocks."""

from .formula import (
    Always, And, Atom, Eventually, FALSE, Formula, Iff, Implies, Next, Not, Or, Release, TRUE,
    Until, atoms, dependence_query, lock_conjunct, print_formula, rename_projection,
)
from .parser import Spec, SpecError, make_spec, parse_formula, parse_spec
from .traces import LassoTrace, compute_z, eval_formula, format_trace, parse_trace, state
from .engine import (
    EngineLimitError, ExternalSolverError, InternalSolver, SatResult, UNSAT,
    WitnessSoundnessError, build_gba, find_accepting_lasso, ltl_sat, to_nnf,
)
from .decompose import (
    Block, InvariantViolation, PartitionResult, check_independent, partition, verify_partition,
)

__all__ = [
    # formula
    "Always", "And", "Atom", "Eventually", "FALSE", "Formula", "Iff", "Implies",
    "Next", "Not", "Or", "Release", "TRUE", "Until",
    "atoms", "dependence_query", "lock_conjunct", "print_formula", "rename_projection",
    # parser
    "Spec", "SpecError", "make_spec", "parse_formula", "parse_spec",
    # traces
    "LassoTrace", "compute_z", "eval_formula", "format_trace", "parse_trace", "state",
    # engine
    "EngineLimitError", "ExternalSolverError", "InternalSolver",
    "SatResult", "UNSAT", "WitnessSoundnessError",
    "build_gba", "find_accepting_lasso", "ltl_sat", "to_nnf",
    # decompose
    "Block", "InvariantViolation", "PartitionResult",
    "check_independent", "partition", "verify_partition",
    # external, imported on first use by __getattr__ below
    "ExternalSolver",
]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "ExternalSolver":    # imported on first use: its module loads subprocess
        from .external import ExternalSolver
        return ExternalSolver
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
