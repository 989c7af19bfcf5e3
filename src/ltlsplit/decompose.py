"""Partitioning the system variables of a spec into minimal independent blocks.

The core loop asks the satisfiability oracle for models of projection
queries; a Sat witness pinpoints (via the primed/unprimed disagreement
set Z) candidate variables the current block depends on, which are then
confirmed one at a time by locking them and re-solving.
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import combinations

from .engine import UNSAT, InternalSolver, SatResult
from .formula import Formula, Record, dependence_query, lock_conjunct
from .parser import Spec
from .traces import LassoTrace, compute_z

class InvariantViolation(Exception):
    """A Sat witness yielded an empty disagreement set; engine soundness bug."""


class QueryRecord(Record):
    formula: Formula
    verdict: str                       # "SAT" or "UNSAT"
    witness: LassoTrace | None
    millis: float


class Block(Record):
    vars: tuple[str, ...]


class PartitionResult(Record):
    blocks: list[Block]
    query_log: list[QueryRecord]

    @property
    def query_count(self) -> int:
        return len(self.query_log)

    def block_sets(self) -> set[frozenset[str]]:
        return {frozenset(b.vars) for b in self.blocks}


def check_independent(phi: Formula, w, s, solver=None) -> tuple[bool, LassoTrace | None]:
    """Single-query independence test for ``w`` within system variables ``s``.

    Returns (independent, witness); the witness is a dependence
    counterexample when the query is satisfiable.
    """
    solver = solver or InternalSolver()
    w = tuple(w)
    taken = set(w)
    rest = tuple(v for v in s if v not in taken)
    result = solver.solve(dependence_query(phi, w, rest))
    return (not result.is_sat, result.witness)


def _check_partition(blocks, sys_vars) -> None:
    """``ValueError`` unless every system variable lies in exactly one block."""
    counts = Counter(v for b in blocks for v in b.vars)
    faults = {"missing": [v for v in sys_vars if v not in counts],
              "repeated": [v for v, n in counts.items() if n > 1],
              "outside sys": [v for v in counts if v not in sys_vars]}
    found = "; ".join(f"{kind} {', '.join(names)}" for kind, names in faults.items() if names)
    if found:
        raise ValueError(f"blocks do not partition sys: {found}")


def partition(spec: Spec, solver=None) -> PartitionResult:
    """Split the system variables into minimal independent blocks.

    The block ``w`` starts as the first variable left and ``y`` holds the
    rest.  While the dependence query of ``w`` against ``y`` has a model,
    the witness's first disagreeing variable of ``y`` is locked, each lock
    building on the latest query; at the first Unsat the last locked
    variable moves into ``w`` and the query is rebuilt from ``phi``.  A
    lone last variable is independent and takes no solver call.
    """
    solver = solver or InternalSolver()
    phi = spec.formula
    log: list[QueryRecord] = []

    def solve(f: Formula) -> SatResult:
        start = time.perf_counter()
        result = solver.solve(f)
        millis = (time.perf_counter() - start) * 1000.0
        log.append(QueryRecord(f, "SAT" if result.is_sat else "UNSAT",
                               result.witness, millis))
        return result

    blocks: list[Block] = []
    left = tuple(spec.sys)
    while left:
        w, y = left[:1], left[1:]
        result = UNSAT
        if y:
            query = dependence_query(phi, w, y)
            result = solve(query)
        while result.is_sat:
            z = compute_z(result.witness, y)[:1]
            if not z:
                raise InvariantViolation("Sat witness produced an empty disagreement set")
            query = lock_conjunct(query, *z)
            result = solve(query)
            if not result.is_sat:   # the last variable locked joins w
                w, y = w + z, tuple(v for v in y if v not in z)
                query = dependence_query(phi, w, y)
                result = solve(query)
        blocks.append(Block(w))
        left = y
    _check_partition(blocks, spec.sys)
    return PartitionResult(blocks, log)


class SubsetAudit(Record):
    subset: tuple[str, ...]
    dependent: bool
    witness: LassoTrace | None


class BlockAudit(Record):
    vars: tuple[str, ...]
    sound: bool
    witness: LassoTrace | None
    minimality: list[SubsetAudit]


class VerificationReport(Record):
    block_audits: list[BlockAudit]

    @property
    def ok(self) -> bool:
        return all(audit.sound and all(sub.dependent for sub in audit.minimality)
                   for audit in self.block_audits)


def verify_partition(spec: Spec, result: PartitionResult, solver=None,
                     minimality: bool = False) -> VerificationReport:
    """Re-derive every block's independence; optionally audit minimality.

    Raises ``ValueError`` if the blocks do not partition ``spec.sys``.  The
    minimality audit solves one dependence query per nonempty proper subset
    of each block, 2^k - 2 queries for a k-variable block, with no size cap.
    A solver that runs out of budget raises ``EngineLimitError`` out of the
    audit, as in ``partition``; no partial report is returned.
    """
    _check_partition(result.blocks, spec.sys)
    solver = solver or InternalSolver()
    phi = spec.formula
    audits = []
    for block in result.blocks:
        audit = BlockAudit(block.vars, *check_independent(phi, block.vars, spec.sys, solver), [])
        if minimality:
            for size in range(1, len(block.vars)):
                for subset in combinations(block.vars, size):
                    independent, witness = check_independent(
                        phi, subset, spec.sys, solver)
                    audit.minimality.append(
                        SubsetAudit(subset, not independent, witness))
        audits.append(audit)
    return VerificationReport(audits)
