"""Per-layer tracing from outside the program.

``TracedSolver`` answers a query by calling, one after the other, the same
public steps that ``ltl_sat`` runs (``to_nnf`` -> ``build_gba`` ->
``find_accepting_lasso`` -> ``eval_formula``) and times each of them.  It
passes the same state cap and raises on a failed witness self-check exactly
as ``ltl_sat`` does, so a traced run must reach the same blocks, verdicts and
query counts as an untraced one.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from ltlsplit.engine import (
    EngineLimitError,
    WitnessSoundnessError,
    build_gba,
    find_accepting_lasso,
    to_nnf,
)
from ltlsplit.formula import print_formula
from ltlsplit.traces import eval_formula


@dataclass
class QueryTrace:
    formula: object
    verdict: str            # "SAT", "UNSAT" or "LIMIT"
    nnf_ms: float
    tableau_ms: float
    emptiness_ms: float
    witness_ms: float
    solve_ms: float         # wall time of the whole solve call
    states: int
    edges: int


class TracedSolver:
    """Drop-in for ``InternalSolver`` that records one ``QueryTrace`` per query."""

    def __init__(self, state_cap: int):
        self.state_cap = state_cap
        self.queries: list[QueryTrace] = []

    def solve(self, f):
        t0 = perf_counter()
        nnf = to_nnf(f)
        t1 = perf_counter()
        try:
            gba = build_gba(nnf, self.state_cap)
        except EngineLimitError:
            t2 = perf_counter()
            self.queries.append(QueryTrace(f, "LIMIT", (t1 - t0) * 1e3, (t2 - t1) * 1e3,
                                           0.0, 0.0, (t2 - t0) * 1e3, 0, 0))
            raise
        t2 = perf_counter()
        result = find_accepting_lasso(gba)
        t3 = perf_counter()
        t4 = t3
        if result.is_sat:
            ok = eval_formula(result.witness, f, 0)
            t4 = perf_counter()
            if not ok:
                raise WitnessSoundnessError(
                    f"internal witness fails self-check for {print_formula(f)}")
        edges = sum(len(s.succ) for s in gba.states)
        self.queries.append(QueryTrace(
            f, "SAT" if result.is_sat else "UNSAT",
            (t1 - t0) * 1e3, (t2 - t1) * 1e3, (t3 - t2) * 1e3, (t4 - t3) * 1e3,
            (perf_counter() - t0) * 1e3, len(gba.states), edges))
        return result
