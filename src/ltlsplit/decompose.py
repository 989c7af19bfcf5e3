"""Partitioning the system variables of a spec into minimal independent blocks.

The core loop asks the satisfiability oracle for models of projection
queries; a Sat witness pinpoints (via the primed/unprimed disagreement
set Z) candidate variables the current block depends on, which are then
confirmed one at a time by locking them and re-solving.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain, combinations

from .engine import InternalSolver, SatResult
from .formula import Formula, dependence_query, lock_conjunct
from .parser import Spec
from .traces import LassoTrace, compute_z

class InvariantViolation(Exception):
    """A Sat witness yielded an empty disagreement set; engine soundness bug."""


@dataclass
class QueryRecord:
    formula: Formula
    verdict: str                       # "SAT" or "UNSAT"
    witness: LassoTrace | None
    millis: float


@dataclass(frozen=True)
class Block:
    vars: tuple[str, ...]
    certificate: Formula


@dataclass
class PartitionResult:
    blocks: list[Block]
    query_log: list[QueryRecord]

    @property
    def query_count(self) -> int:
        return len(self.query_log)

    def block_sets(self) -> set[frozenset[str]]:
        return {frozenset(b.vars) for b in self.blocks}


def _ordered(names, order: str) -> tuple[str, ...]:
    names = tuple(names)
    if order == "lex":
        return tuple(sorted(names))
    if order == "decl":
        return names
    raise ValueError(f"unknown ordering policy {order!r}")


class _Session:
    def __init__(self, solver):
        self.solver = solver
        self.log: list[QueryRecord] = []

    def solve(self, f: Formula) -> SatResult:
        start = time.perf_counter()
        result = self.solver.solve(f)
        millis = (time.perf_counter() - start) * 1000.0
        self.log.append(QueryRecord(f, "SAT" if result.is_sat else "UNSAT",
                                    result.witness, millis))
        return result


def check_independent(phi: Formula, w, s, solver=None) -> tuple[bool, LassoTrace | None]:
    """Single-query independence test for ``w`` within system variables ``s``.

    Returns (independent, witness); the witness is a dependence
    counterexample when the query is satisfiable.
    """
    solver = solver or InternalSolver()
    w = tuple(w)
    rest = tuple(v for v in s if v not in set(w))
    result = solver.solve(dependence_query(phi, w, rest))
    return (not result.is_sat, result.witness)


def _disagreement(witness: LassoTrace, y) -> tuple[str, ...]:
    """Disagreement set of a Sat witness over ``y``; empty means an engine fault."""
    z_set = compute_z(witness, y)
    if not z_set:
        raise InvariantViolation("Sat witness produced an empty disagreement set")
    return z_set


def look_for_dependent_variables(phi: Formula, query: Formula,
                                 z_set, w, y, session: _Session) -> tuple[str, ...]:
    """Grow the dependent block ``w`` one confirmed variable at a time.

    Precondition: the last solve of ``query`` was Sat and ``z_set`` is the
    (nonempty) disagreement set of that witness over ``y``.  Locks
    candidates from ``z_set`` until the query goes Unsat, commits the last
    locked variable, rebuilds the query from ``phi`` alone and repeats
    while models remain.
    """
    w = tuple(w)
    y = tuple(y)
    z_set = tuple(z_set)
    while True:
        locked_query = query
        while True:
            z = z_set[0]
            locked_query = lock_conjunct(locked_query, z)
            result = session.solve(locked_query)
            if not result.is_sat:
                break
            z_set = _disagreement(result.witness, y)
        w = w + (z,)
        y = tuple(v for v in y if v != z)
        query = dependence_query(phi, w, y)
        result = session.solve(query)
        if not result.is_sat:
            return w
        z_set = _disagreement(result.witness, y)


def partition(spec: Spec, solver=None, order: str = "decl") -> PartitionResult:
    """Split the system variables into minimal independent blocks."""
    session = _Session(solver or InternalSolver())
    phi = spec.formula
    full_sys = _ordered(spec.sys, order)
    sys_vars = full_sys
    blocks: list[Block] = []
    while sys_vars:
        if len(sys_vars) == 1:
            # A single remaining variable is independent; no solver call needed.
            w = sys_vars
            certificate = dependence_query(
                phi, w, tuple(v for v in full_sys if v not in w))
        else:
            x, others = sys_vars[0], sys_vars[1:]
            query = dependence_query(phi, (x,), others)
            result = session.solve(query)
            if not result.is_sat:
                w, certificate = (x,), query
            else:
                w = look_for_dependent_variables(
                    phi, query, _disagreement(result.witness, others),
                    (x,), others, session)
                certificate = session.log[-1].formula
        blocks.append(Block(w, certificate))
        sys_vars = tuple(v for v in sys_vars if v not in w)
    covered = list(chain.from_iterable(b.vars for b in blocks))
    assert sorted(covered) == sorted(spec.sys), "blocks must partition sys exactly"
    assert len(covered) == len(set(covered)), "blocks must be pairwise disjoint"
    return PartitionResult(blocks, session.log)


@dataclass
class SubsetAudit:
    subset: tuple[str, ...]
    dependent: bool
    witness: LassoTrace | None


@dataclass
class BlockAudit:
    vars: tuple[str, ...]
    sound: bool
    witness: LassoTrace | None = None
    minimality: list[SubsetAudit] = field(default_factory=list)
    minimality_skipped: bool = False


@dataclass
class VerificationReport:
    block_audits: list[BlockAudit]

    @property
    def ok(self) -> bool:
        return all(audit.sound and all(sub.dependent for sub in audit.minimality)
                   for audit in self.block_audits)


def verify_partition(spec: Spec, result: PartitionResult, solver=None,
                     minimality: bool = False,
                     max_minimality_block: int = 6) -> VerificationReport:
    """Re-derive every block's independence; optionally audit minimality.

    The minimality audit solves one dependence query per nonempty proper
    subset, so it is exponential in block size and is skipped for blocks
    larger than ``max_minimality_block``.  A solver that runs out of budget
    raises ``EngineLimitError`` out of the audit, as in ``partition``; no
    partial report is returned.
    """
    solver = solver or InternalSolver()
    phi = spec.formula
    audits = []
    for block in result.blocks:
        audit = BlockAudit(block.vars, *check_independent(phi, block.vars, spec.sys, solver))
        if minimality:
            if len(block.vars) > max_minimality_block:
                audit.minimality_skipped = True
            else:
                for size in range(1, len(block.vars)):
                    for subset in combinations(block.vars, size):
                        independent, witness = check_independent(
                            phi, subset, spec.sys, solver)
                        audit.minimality.append(
                            SubsetAudit(subset, not independent, witness))
        audits.append(audit)
    return VerificationReport(audits)
