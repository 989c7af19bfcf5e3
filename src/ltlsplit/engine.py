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
    postorder,
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


_DUAL = {And: Or, Or: And, Until: Release, Release: Until}


def to_nnf(f: Formula) -> Formula:
    """Push negation to atoms; desugar ->, <->, F, G into |, &, U, R.

    One pass over ``postorder(f)`` maps each node g to (nnf(g), nnf(!g));
    a node whose children are already in NNF is reused.
    """
    nnf: dict[int, tuple[Formula, Formula]] = {}
    for g in postorder(f):
        cls = g.__class__
        if cls is Atom:
            pair = g, Not(g)
        elif cls in _DUAL:
            lp, ln = nnf[id(g.left)]
            rp, rn = nnf[id(g.right)]
            same = lp is g.left and rp is g.right
            pair = g if same else cls(lp, rp), _DUAL[cls](ln, rn)
        elif cls is Not:
            p, n = nnf[id(g.arg)]
            pair = n, p
        elif cls is Next:
            p, n = nnf[id(g.arg)]
            pair = g if p is g.arg else Next(p), Next(n)
        elif cls is Eventually:
            p, n = nnf[id(g.arg)]
            pair = Until(TRUE, p), Release(FALSE, n)
        elif cls is Always:
            p, n = nnf[id(g.arg)]
            pair = Release(FALSE, p), Until(TRUE, n)
        elif cls is Implies:
            lp, ln = nnf[id(g.left)]
            rp, rn = nnf[id(g.right)]
            pair = Or(ln, rp), And(lp, rn)
        elif cls is Iff:
            lp, ln = nnf[id(g.left)]
            rp, rn = nnf[id(g.right)]
            pair = Or(And(lp, rp), And(ln, rn)), Or(And(lp, rn), And(ln, rp))
        elif cls is TrueF or cls is FalseF:
            pair = (TRUE, FALSE) if cls is TrueF else (FALSE, TRUE)
        else:
            raise TypeError(f"unknown formula node {g!r}")
        nnf[id(g)] = pair
    return nnf[id(f)][0]


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
    """Interns NNF subformulas as dense integers so tableau sets are int sets.

    Nodes are keyed by kind and child ids, literals by atom and polarity,
    so equal subformulas share an id without hashing a formula tree.  Ids
    follow first occurrence in post-order.  The atom under a negative
    literal gets a positive id too, used or not; where literal ids fall
    among the others does not change the automaton, because a literal
    never branches the tableau and the order of the other ids is fixed.
    """

    # kind codes
    TRUE, FALSE, LIT, AND, OR, NEXT, UNTIL, RELEASE = range(8)

    def __init__(self):
        self.ids: dict[tuple, int] = {}
        self.kind: list[int] = []
        self.left: list[int] = []       # first child id, or -1
        self.right: list[int] = []      # second child id, or literal polarity
        self.comp: list[int] = []       # complementary literal id, or -1
        self.atom: list[Atom | None] = []   # a literal's atom

    def _add(self, kind: int, a, b: int) -> int:
        """The id of node (kind, a, b); ``a`` is a literal's atom, else a child id."""
        key = (kind, a, b)
        fid = self.ids.get(key)
        if fid is None:
            fid = self.ids[key] = len(self.kind)
            lit = kind == self.LIT
            self.kind.append(kind)
            self.left.append(-1 if lit else a)
            self.right.append(b)
            self.atom.append(a if lit else None)
            other = self.ids.get((kind, a, 1 - b), -1) if lit else -1
            self.comp.append(other)
            if other >= 0:
                self.comp[other] = fid
        return fid

    def intern(self, f: Formula) -> int:
        """Intern ``f`` and its subformulas; return the id of ``f``."""
        fids: dict[int, int] = {}
        for g in postorder(f):
            cls = g.__class__
            if cls is Atom:
                fid = self._add(self.LIT, g, 1)
            elif cls is Not:
                if g.arg.__class__ is not Atom:
                    raise ValueError("negation on a non-atom: formula not in NNF")
                fid = self._add(self.LIT, g.arg, 0)
            elif cls in _KIND:
                fid = self._add(_KIND[cls], fids[id(g.left)], fids[id(g.right)])
            elif cls is Next:
                fid = self._add(self.NEXT, fids[id(g.arg)], -1)
            elif cls is TrueF:
                fid = self._add(self.TRUE, -1, -1)
            elif cls is FalseF:
                fid = self._add(self.FALSE, -1, -1)
            else:
                raise ValueError(f"unexpected node in NNF formula: {g!r}")
            fids[id(g)] = fid
        return fids[id(f)]


_KIND = {And: _Arena.AND, Or: _Arena.OR, Until: _Arena.UNTIL, Release: _Arena.RELEASE}


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

    atom = arena.atom
    states: list[GbaState] = []
    for (old, _), succ in zip(order, succs):
        literals = sorted((x for x in old if kind[x] == LIT),
                          key=lambda x: (atom[x].base, atom[x].primed))
        states.append(GbaState(tuple(atom[x] for x in literals if right[x]),
                               tuple(atom[x] for x in literals if not right[x]),
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
