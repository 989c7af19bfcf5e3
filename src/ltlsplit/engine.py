"""LTL satisfiability with lasso witnesses.

Pipeline: negation normal form -> generalized Buchi automaton (tableau
over closure subsets) -> SCC-based emptiness check -> accepting lasso
read back as a trace.  The tableau registers only the initial states and
successors of registered states, so every automaton state is reachable
and emptiness needs no separate reachability pass.  Every Sat answer is
self-checked against the queried formula before it is returned; a
failure here is an engine bug, never a caller error.
"""

from __future__ import annotations

import shlex
import subprocess
from dataclasses import dataclass

from .formula import (
    FALSE,
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    FalseF,
    Formula,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TrueF,
    Until,
    print_formula,
)
from .traces import LassoTrace, eval_formula, format_trace, parse_trace

DEFAULT_STATE_CAP = 200_000


class EngineLimitError(Exception):
    """The configured state cap was exceeded; distinct from Unsat."""


class WitnessSoundnessError(Exception):
    """A Sat witness failed the eval self-check; a hard engine fault."""


class ExternalSolverError(Exception):
    """The external solver child failed or produced an unusable answer."""


@dataclass(frozen=True)
class SatResult:
    """Either Unsat, or Sat carrying a lasso model of the queried formula."""

    witness: LassoTrace | None = None

    @property
    def is_sat(self) -> bool:
        return self.witness is not None


UNSAT = SatResult()


def to_nnf(f: Formula) -> Formula:
    """Push negation to atoms; desugar ->, <->, F, G into |, &, U, R."""
    if isinstance(f, (TrueF, FalseF, Atom)):
        return f
    if isinstance(f, And):
        return And(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Or):
        return Or(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Implies):
        return Or(to_nnf(Not(f.left)), to_nnf(f.right))
    if isinstance(f, Iff):
        return Or(And(to_nnf(f.left), to_nnf(f.right)),
                  And(to_nnf(Not(f.left)), to_nnf(Not(f.right))))
    if isinstance(f, Next):
        return Next(to_nnf(f.arg))
    if isinstance(f, Eventually):
        return Until(TRUE, to_nnf(f.arg))
    if isinstance(f, Always):
        return Release(FALSE, to_nnf(f.arg))
    if isinstance(f, Until):
        return Until(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Release):
        return Release(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Not):
        g = f.arg
        if isinstance(g, TrueF):
            return FALSE
        if isinstance(g, FalseF):
            return TRUE
        if isinstance(g, Atom):
            return f
        if isinstance(g, Not):
            return to_nnf(g.arg)
        if isinstance(g, And):
            return Or(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
        if isinstance(g, Or):
            return And(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
        if isinstance(g, Implies):
            return And(to_nnf(g.left), to_nnf(Not(g.right)))
        if isinstance(g, Iff):
            return Or(And(to_nnf(g.left), to_nnf(Not(g.right))),
                      And(to_nnf(Not(g.left)), to_nnf(g.right)))
        if isinstance(g, Next):
            return Next(to_nnf(Not(g.arg)))
        if isinstance(g, Eventually):
            return Release(FALSE, to_nnf(Not(g.arg)))
        if isinstance(g, Always):
            return Until(TRUE, to_nnf(Not(g.arg)))
        if isinstance(g, Until):
            return Release(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
        if isinstance(g, Release):
            return Until(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
    raise TypeError(f"unknown formula node {f!r}")


@dataclass
class GbaState:
    pos: tuple[Atom, ...]
    neg: tuple[Atom, ...]
    succ: list[int]


@dataclass
class Gba:
    """Generalized Buchi automaton with guards on states.

    A run q0 q1 ... reads the word whose letter i satisfies q_i's guard
    (``pos`` atoms true, ``neg`` atoms false, the rest unconstrained).
    Acceptance carries one state set per Until subformula.  Every state
    is reachable from ``initial``: ``build_gba`` registers only initial
    states and successors of registered states.
    """

    states: list[GbaState]
    initial: tuple[int, ...]
    acceptance: tuple[frozenset[int], ...]


class _Arena:
    """Interns NNF subformulas as dense integers so tableau sets are int sets."""

    # kind codes
    TRUE, FALSE, LIT, AND, OR, NEXT, UNTIL, RELEASE = range(8)

    def __init__(self):
        self.ids: dict[Formula, int] = {}
        self.kind: list[int] = []
        self.left: list[int] = []       # child id, or atom slot for literals
        self.right: list[int] = []      # second child id, or literal polarity
        self.comp: list[int] = []       # complementary literal id, or -1
        self.formulas: list[Formula] = []

    def intern(self, f: Formula) -> int:
        fid = self.ids.get(f)
        if fid is not None:
            return fid
        if isinstance(f, TrueF):
            kind, a, b = self.TRUE, -1, -1
        elif isinstance(f, FalseF):
            kind, a, b = self.FALSE, -1, -1
        elif isinstance(f, Atom):
            kind, a, b = self.LIT, -1, 1
        elif isinstance(f, Not):
            if not isinstance(f.arg, Atom):
                raise ValueError("negation on a non-atom: formula not in NNF")
            kind, a, b = self.LIT, -1, 0
        elif isinstance(f, Next):
            kind, a, b = self.NEXT, self.intern(f.arg), -1
        elif isinstance(f, (And, Or, Until, Release)):
            kind = {And: self.AND, Or: self.OR,
                    Until: self.UNTIL, Release: self.RELEASE}[type(f)]
            a, b = self.intern(f.left), self.intern(f.right)
        else:
            raise ValueError(f"unexpected node in NNF formula: {f!r}")
        fid = len(self.kind)
        self.ids[f] = fid
        self.kind.append(kind)
        self.left.append(a)
        self.right.append(b)
        self.comp.append(-1)
        self.formulas.append(f)
        if kind == self.LIT:
            other = self.ids.get(f.arg if b == 0 else Not(f))
            if other is not None:
                self.comp[fid], self.comp[other] = other, fid
        return fid


class _Node:
    __slots__ = ("incoming", "new", "old", "next")

    def __init__(self, incoming, new, old, next_):
        self.incoming = incoming    # set of node ids; -1 marks "initial"
        self.new = new              # list of formula ids, used as a stack
        self.old = old              # set of processed formula ids
        self.next = next_           # set of obligations for the successor


def build_gba(f: Formula, state_cap: int = DEFAULT_STATE_CAP) -> Gba:
    """Tableau construction; ``f`` must be in negation normal form.

    Raises ``ValueError`` (from interning) on a formula outside NNF.
    """
    arena = _Arena()
    root = arena.intern(f)
    kind, left, right, comp = arena.kind, arena.left, arena.right, arena.comp
    LIT, AND, OR, NEXT = _Arena.LIT, _Arena.AND, _Arena.OR, _Arena.NEXT
    UNTIL, RELEASE = _Arena.UNTIL, _Arena.RELEASE

    covers: dict[frozenset, list[tuple[frozenset, frozenset]]] = {}

    def cover(obligations: frozenset) -> list[tuple[frozenset, frozenset]]:
        """All (old, next) expansions of the obligation set, memoized.

        A state's successor set depends only on its next-obligations, so
        sharing these expansions collapses most of the tableau work.
        """
        cached = covers.get(obligations)
        if cached is not None:
            return cached
        results: list[tuple[frozenset, frozenset]] = []
        seen: set[tuple[frozenset, frozenset]] = set()
        pending = [_Node(None, sorted(obligations), set(), set())]
        while pending:
            node = pending.pop()
            while node is not None and node.new:
                g = node.new.pop()
                k = kind[g]
                if g in node.old or k == _Arena.TRUE:
                    continue
                if k == _Arena.FALSE:
                    node = None
                elif k == LIT:
                    if comp[g] in node.old:
                        node = None
                    else:
                        node.old.add(g)
                elif k == AND:
                    node.old.add(g)
                    node.new.append(left[g])
                    node.new.append(right[g])
                elif k == NEXT:
                    node.old.add(g)
                    node.next.add(left[g])
                else:  # OR, UNTIL, RELEASE split into two branches
                    old2 = node.old.copy()
                    old2.add(g)
                    next2 = node.next.copy()
                    node.old.add(g)
                    if k == OR:
                        branch = _Node(None, node.new + [right[g]], old2, next2)
                        node.new.append(left[g])
                    elif k == UNTIL:  # a U b == b | (a & X(a U b))
                        branch = _Node(None, node.new + [right[g]], old2, next2)
                        node.new.append(left[g])
                        node.next.add(g)
                    else:  # a R b == b & (a | X(a R b))
                        branch = _Node(None, node.new + [left[g], right[g]],
                                       old2, next2)
                        node.new.append(right[g])
                        node.next.add(g)
                    pending.append(branch)
            if node is None:
                continue
            key = (frozenset(node.old), frozenset(node.next))
            if key not in seen:
                seen.add(key)
                results.append(key)
        covers[obligations] = results
        return results

    ids: dict[tuple[frozenset, frozenset], int] = {}
    order: list[tuple[frozenset, frozenset]] = []

    def state_id(key: tuple[frozenset, frozenset]) -> int:
        idx = ids.get(key)
        if idx is None:
            if len(order) >= state_cap:
                raise EngineLimitError(
                    f"tableau exceeded the state cap of {state_cap}")
            idx = ids[key] = len(order)
            order.append(key)
        return idx

    initial = tuple(state_id(key) for key in cover(frozenset((root,))))
    succs: list[list[int]] = []
    while len(succs) < len(order):
        succs.append(sorted({state_id(k) for k in cover(order[len(succs)][1])}))

    formulas = arena.formulas
    atom_of = lambda fid: formulas[fid] if right[fid] else formulas[fid].arg
    states: list[GbaState] = []
    for (old, _), succ in zip(order, succs):
        literals = sorted((x for x in old if kind[x] == LIT),
                          key=lambda x: (atom_of(x).base, atom_of(x).primed))
        states.append(GbaState(tuple(formulas[x] for x in literals if right[x]),
                               tuple(formulas[x].arg for x in literals if not right[x]),
                               succ))

    untils = sorted(fid for fid in range(len(kind)) if kind[fid] == UNTIL)
    acceptance = tuple(
        frozenset(idx for idx, key in enumerate(order)
                  if g not in key[0] or right[g] in key[0])
        for g in untils)
    return Gba(states, initial, acceptance)


def _sccs(gba: Gba) -> list[list[int]]:
    """Tarjan's algorithm, iterative, over all states."""
    n = len(gba.states)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            succ = gba.states[v].succ
            while pi < len(succ):
                w = succ[pi]
                pi += 1
                if index[w] < 0:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return sccs


def _bfs_path(gba: Gba, sources, targets: set[int], restrict: set[int] | None,
              min_edges: int = 0) -> list[int] | None:
    """Shortest path (as a node list incl. source and target) in succ order."""
    starts = list(sources)
    if min_edges == 0:
        for s in starts:
            if s in targets:
                return [s]
    parent: dict[int, int | None] = {s: None for s in starts}
    frontier = starts
    while frontier:
        nxt = []
        for v in frontier:
            for w in gba.states[v].succ:
                if restrict is not None and w not in restrict:
                    continue
                if w in targets:
                    path = [w, v]
                    u = parent[v]
                    while u is not None:
                        path.append(u)
                        u = parent[u]
                    path.reverse()
                    return path
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    return None


def find_accepting_lasso(gba: Gba) -> SatResult:
    """Unsat iff no cycle visits every acceptance set.

    Otherwise returns a lasso trace read off the guards of an accepting
    cycle; unconstrained atoms in a guard default to false.  Relies on
    the ``Gba`` invariant that every state is reachable from ``initial``.
    """
    if not gba.initial:
        return UNSAT
    target_scc = None
    for comp in _sccs(gba):
        comp_set = set(comp)
        has_edge = any(w in comp_set for v in comp for w in gba.states[v].succ)
        if not has_edge:
            continue
        if all(comp_set & acc for acc in gba.acceptance):
            target_scc = comp_set
            break
    if target_scc is None:
        return UNSAT

    entry_path = _bfs_path(gba, sorted(gba.initial), target_scc, None)
    assert entry_path is not None
    s = entry_path[-1]
    prefix_nodes = entry_path[:-1]

    cycle = [s]
    cur = s
    for acc in gba.acceptance:
        if any(v in acc for v in cycle):
            continue
        path = _bfs_path(gba, [cur], set(acc) & target_scc, target_scc)
        assert path is not None
        cycle.extend(path[1:])
        cur = cycle[-1]
    closing = _bfs_path(gba, [cur], {s}, target_scc, min_edges=1)
    assert closing is not None
    cycle.extend(closing[1:-1])

    def guard_state(idx: int) -> frozenset[Atom]:
        return frozenset(gba.states[idx].pos)

    trace = LassoTrace(tuple(guard_state(i) for i in prefix_nodes),
                       tuple(guard_state(i) for i in cycle))
    return SatResult(trace)


def ltl_sat(f: Formula, state_cap: int = DEFAULT_STATE_CAP) -> SatResult:
    """Decide satisfiability of ``f`` and produce a self-checked witness."""
    result = find_accepting_lasso(build_gba(to_nnf(f), state_cap))
    if result.is_sat and not eval_formula(result.witness, f, 0):
        raise WitnessSoundnessError(
            f"internal witness fails self-check for {print_formula(f)}")
    return result


class InternalSolver:
    """The oracle boundary over the built-in engine; one automaton per query."""

    def __init__(self, state_cap: int = DEFAULT_STATE_CAP):
        self.state_cap = state_cap

    def solve(self, f: Formula) -> SatResult:
        return ltl_sat(f, self.state_cap)


class ExternalSolver:
    """Subprocess adapter speaking the one-line query protocol.

    Request: the formula in surface grammar plus a newline on stdin.
    Response: ``UNSAT`` or ``SAT`` followed by one serialized trace line.
    External witnesses must pass the eval self-check before acceptance.
    """

    def __init__(self, command: str | list[str]):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        if not self.command:
            raise ValueError("external solver command must be nonempty")

    def solve(self, f: Formula) -> SatResult:
        try:
            proc = subprocess.run(self.command, input=print_formula(f) + "\n",
                                  capture_output=True, text=True, timeout=300)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise ExternalSolverError(f"external solver failed to run: {exc}") from exc
        if proc.returncode != 0:
            raise ExternalSolverError(
                f"external solver exited with {proc.returncode}: {proc.stderr.strip()}")
        lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
        if not lines:
            raise ExternalSolverError("external solver produced no output")
        verdict = lines[0].strip()
        if verdict == "UNSAT":
            return UNSAT
        if verdict != "SAT":
            raise ExternalSolverError(f"malformed verdict line {verdict!r}")
        if len(lines) < 2:
            raise ExternalSolverError("SAT answer missing its witness line")
        try:
            witness = parse_trace(lines[1])
        except ValueError as exc:
            raise ExternalSolverError(f"malformed witness: {exc}") from exc
        if not eval_formula(witness, f, 0):
            raise ExternalSolverError(
                f"external witness {format_trace(witness)} does not satisfy the query")
        return SatResult(witness)


def serve_stdin_queries(stdin, stdout, state_cap: int = DEFAULT_STATE_CAP) -> None:
    """Answer one protocol query per input line; used to self-host the adapter."""
    from .parser import parse_formula

    for line in stdin:
        line = line.strip()
        if not line:
            continue
        result = ltl_sat(parse_formula(line), state_cap)
        if result.is_sat:
            stdout.write("SAT\n" + format_trace(result.witness) + "\n")
        else:
            stdout.write("UNSAT\n")
        stdout.flush()
