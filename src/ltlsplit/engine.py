"""LTL satisfiability with lasso witnesses.

Pipeline: negation normal form -> generalized Buchi automaton (tableau
over closure subsets as rank bitmasks) -> SCC-based emptiness check ->
accepting lasso read back as a trace.  The tableau registers only the
initial states and successors of registered states, so every automaton
state is reachable and emptiness needs no separate reachability pass.
It never builds a side of a split whose must-hold literals clash
(``FALSE``, or an atom and its negation), as no leaf of it lives, and
expands each distinct next-obligation set once: states that share the set
share one successor list.  Every Sat answer is self-checked against the
queried formula before it is returned; a failure here is an engine bug,
never a caller error.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
import threading
import weakref
from collections.abc import Iterator
from contextlib import AbstractContextManager, suppress
from dataclasses import dataclass
from operator import attrgetter

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
REPLY_TIMEOUT_S = 300       # an external child that takes longer over one query is killed


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
_ATOM_ORDER = attrgetter("base", "primed")


def to_nnf(f: Formula) -> Formula:
    """Push negation to atoms; desugar ->, <->, F, G into |, &, U, R.

    One pass over ``postorder(f)`` maps each node g to (nnf(g), nnf(!g));
    the unique table hands back a node whose children are already in NNF.
    """
    nnf: dict[Formula, tuple[Formula, Formula]] = {}
    for g in postorder(f):
        cls = g.__class__
        if cls is Atom:
            pair = g, Not(g)
        elif cls in _DUAL:
            lp, ln = nnf[g.left]
            rp, rn = nnf[g.right]
            pair = cls(lp, rp), _DUAL[cls](ln, rn)
        elif cls is Not:
            p, n = nnf[g.arg]
            pair = n, p
        elif cls is Next:
            p, n = nnf[g.arg]
            pair = Next(p), Next(n)
        elif cls is Eventually:
            p, n = nnf[g.arg]
            pair = Until(TRUE, p), Release(FALSE, n)
        elif cls is Always:
            p, n = nnf[g.arg]
            pair = Release(FALSE, p), Until(TRUE, n)
        elif cls is Implies:
            lp, ln = nnf[g.left]
            rp, rn = nnf[g.right]
            pair = Or(ln, rp), And(lp, rn)
        elif cls is Iff:
            lp, ln = nnf[g.left]
            rp, rn = nnf[g.right]
            pair = Or(And(lp, rp), And(ln, rn)), Or(And(lp, rn), And(ln, rp))
        elif cls is TrueF or cls is FalseF:
            pair = (TRUE, FALSE) if cls is TrueF else (FALSE, TRUE)
        else:
            raise TypeError(f"unknown formula node {g!r}")
        nnf[g] = pair
    return nnf[f][0]


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
    states and successors of registered states.  States with the same
    next-obligation set share one ``succ`` list object; callers must not
    mutate it.
    """

    states: list[GbaState]
    initial: tuple[int, ...]
    acceptance: tuple[frozenset[int], ...]


def _ids(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def build_gba(f: Formula, state_cap: int = DEFAULT_STATE_CAP) -> Gba:
    """Tableau construction; ``f`` must be in negation normal form.

    Subformulas are numbered by their rank in ``postorder(f)`` (the atom
    under a negative literal just before it), and obligation sets are int
    bitmasks over ranks.  The numbering loop also gives each node ``must``,
    the literal bits that every expansion of it puts into ``old``, and
    ``bad``, the atoms negated in ``must``.  A literal's ``must`` is its own
    bit, as is ``FALSE``'s, which is also its ``bad``; ``&`` takes the union,
    ``R`` its right side's, ``|`` and ``U`` the intersection, or the other
    side's when one side is dead (``must & bad`` nonzero).  ``cover`` never
    builds a dead side, and each distinct next-obligation set is expanded
    once into one ``succ`` list shared by every state with that set; neither
    changes the automaton.  Raises ``EngineLimitError`` once more than
    ``state_cap`` states would be registered, already while one expansion
    alone yields more, and ``ValueError`` on a formula outside NNF.
    """
    nodes = postorder(f)
    rank = {g: i for i, g in enumerate(nodes)}
    kind = [g.__class__ for g in nodes]
    left = [-1] * len(nodes)        # first child id, or -1
    right = [-1] * len(nodes)       # second child id, or -1
    must = [0] * len(nodes)         # literal bits every expansion puts into old
    bad = [0] * len(nodes)          # atom bits whose negation is in must
    literals = 0                    # bits of the Atom and Not nodes
    for i, g in enumerate(nodes):
        k = kind[i]
        if k is Not and g.arg.__class__ is not Atom:
            raise ValueError("negation on a non-atom: formula not in NNF")
        if k is Atom or k is Not:
            literals |= 1 << i
            must[i], bad[i] = 1 << i, (1 << rank[g.arg] if k is Not else 0)
        elif k is And or k is Or or k is Until or k is Release:
            a = left[i] = rank[g.left]
            b = right[i] = rank[g.right]
            if k is And:
                must[i], bad[i] = must[a] | must[b], bad[a] | bad[b]
            elif k is Release or must[a] & bad[a]:     # b holds now, or a is dead
                must[i], bad[i] = must[b], bad[b]
            elif must[b] & bad[b]:
                must[i], bad[i] = must[a], bad[a]
            else:   # an atom has one Not node, so bad[a] & bad[b] matches must[a] & must[b]
                must[i], bad[i] = must[a] & must[b], bad[a] & bad[b]
        elif k is Next:
            left[i] = rank[g.arg]
        elif k is FalseF:
            must[i] = bad[i] = 1 << i
        elif k is not TrueF:
            raise ValueError(f"unexpected node in NNF formula: {g!r}")

    too_many = f"tableau exceeded the state cap of {state_cap}"

    def cover(obligations: int) -> dict[tuple[int, int], None]:
        """All distinct (old, next) expansions of the obligation set, in order.

        A pending side is (new, old, next, need, forbid): an id stack, and
        bitmasks where ``need`` ORs the ``must`` and ``forbid`` the ``bad`` of
        every obligation pushed.  Every leaf of the side holds ``need``, so a
        side whose ``need`` meets ``forbid`` has no leaf that lives and is not
        built.  The live sides keep their depth-first order, so results do too.
        """
        results: dict[tuple[int, int], None] = {}
        new = _ids(obligations)
        need = forbid = 0
        for g in new:
            need, forbid = need | must[g], forbid | bad[g]
        pending = [] if need & forbid else [(new, 0, 0, need, forbid)]
        while pending:
            new, old, nxt, need, forbid = pending.pop()
            while new:
                g = new.pop()
                bit = 1 << g
                k = kind[g]
                if old & bit or k is TrueF:
                    continue
                old |= bit
                if k is And:
                    new.append(left[g])
                    new.append(right[g])
                elif k is Next:
                    nxt |= 1 << left[g]
                elif k is Release:  # a R b == b & (a | X(a R b)); b is in need
                    a, b = left[g], right[g]
                    side_need, side_forbid = need | must[a], forbid | bad[a]
                    if not side_need & side_forbid:
                        pending.append((new + [a, b], old, nxt, side_need, side_forbid))
                    new.append(b)
                    nxt |= bit
                elif k is Or or k is Until:  # a | b, and a U b == b | (a & X(a U b))
                    a, b = left[g], right[g]
                    side_need, side_forbid = need | must[b], forbid | bad[b]
                    if not side_need & side_forbid:
                        pending.append((new + [b], old, nxt, side_need, side_forbid))
                    need, forbid = need | must[a], forbid | bad[a]
                    if need & forbid:
                        break
                    new.append(a)
                    if k is Until:
                        nxt |= bit
            else:
                key = (old, nxt)
                if key not in results:
                    results[key] = None
                    if len(results) > state_cap:    # each result becomes a distinct state
                        raise EngineLimitError(too_many)
        return results

    ids: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []

    def state_id(key: tuple[int, int]) -> int:
        idx = ids.get(key)
        if idx is None:
            if len(order) >= state_cap:
                raise EngineLimitError(too_many)
            idx = ids[key] = len(order)
            order.append(key)
        return idx

    # A state's successors depend only on its next-obligations: one shared
    # list per distinct set, computed where the set first occurs.
    initial = tuple(state_id(key) for key in cover(1 << len(nodes) - 1))
    succ_of: dict[int, list[int]] = {}
    succs: list[list[int]] = []
    while len(succs) < len(order):
        nxt = order[len(succs)][1]
        succ = succ_of.get(nxt)
        if succ is None:
            succ = succ_of[nxt] = sorted({state_id(k) for k in cover(nxt)})
        succs.append(succ)

    guards: dict[int, tuple] = {}   # one (pos, neg) per set of literals in ``old``
    states: list[GbaState] = []
    for (old, _), succ in zip(order, succs):
        held = old & literals
        if held not in guards:
            lits = [nodes[x] for x in _ids(held)]
            pos = sorted((g for g in lits if g.__class__ is Atom), key=_ATOM_ORDER)
            neg = sorted((g.arg for g in lits if g.__class__ is Not), key=_ATOM_ORDER)
            guards[held] = tuple(pos), tuple(neg)
        states.append(GbaState(*guards[held], succ))

    untils = [g for g in range(len(kind)) if kind[g] is Until]
    acceptance = tuple(
        frozenset(idx for idx, (old, _) in enumerate(order)
                  if not old >> g & 1 or old >> right[g] & 1)
        for g in untils)
    return Gba(states, initial, acceptance)


def _sccs(gba: Gba) -> Iterator[list[int]]:
    """Tarjan's algorithm, iterative, over all states; each SCC as it closes."""
    n = len(gba.states)
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    counter = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, None)]
        while work:
            v, succ = work[-1]
            if succ is None:            # first visit: number v, then walk its edges
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                succ = iter(gba.states[v].succ)
                work[-1] = v, succ
            for w in succ:
                if index[w] < 0:
                    work.append((w, None))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = n    # off the stack: edges to w no longer lower low
                        comp.append(w)
                        if w == v:
                            break
                    yield comp
                if work:
                    u, _ = work[-1]
                    if low[v] < low[u]:
                        low[u] = low[v]


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
    for comp in _sccs(gba):
        target_scc = set(comp)
        if (any(w in target_scc for v in comp for w in gba.states[v].succ)
                and all(target_scc & acc for acc in gba.acceptance)):
            break
    else:
        return UNSAT

    entry_path = _bfs_path(gba, gba.initial, target_scc, None)
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

    def letters(path: list[int]) -> tuple[frozenset[Atom], ...]:
        return tuple(frozenset(gba.states[i].pos) for i in path)

    return SatResult(LassoTrace(letters(prefix_nodes), letters(cycle)))


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


def _end_child(proc: subprocess.Popen, stderr) -> tuple[int, str]:
    """EOF on the child's stdin, then reap it (killed after 5 s); its exit code and stderr."""
    with suppress(OSError):
        proc.stdin.close()
    with suppress(subprocess.TimeoutExpired):
        proc.wait(timeout=5)
    proc.kill()     # a no-op once the child has been reaped
    proc.stdout.close()
    with stderr:
        stderr.seek(0)
        return proc.wait(), stderr.read().decode("utf-8", "replace")


class ExternalSolver(AbstractContextManager):
    """Subprocess adapter speaking the line query protocol to one child per run.

    Request: the formula in surface grammar plus a newline on stdin.
    Response: ``UNSAT``, ``SAT`` followed by one serialized trace line, or
    ``LIMIT`` (budget ran out: ``EngineLimitError``) or ``ERROR`` (no answer:
    ``ExternalSolverError``) followed by one message line.  A child that ends
    before it answers is reported by its last stderr line; one silent for
    ``REPLY_TIMEOUT_S`` is killed.  External witnesses must pass the eval
    self-check before acceptance.  The child starts at the first ``solve``;
    ``close()``, leaving a ``with`` block, any ``ExternalSolverError``,
    garbage collection and interpreter exit end it.
    """

    def __init__(self, command: str | list[str]):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        if not self.command:
            raise ValueError("external solver command must be nonempty")
        self._child: tuple[subprocess.Popen, weakref.finalize] | None = None

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> tuple[int, str]:
        """End the child, if one runs; its exit code and stderr."""
        child, self._child = self._child, None
        return child[1]() if child else (0, "")

    def solve(self, f: Formula) -> SatResult:
        if self._child is None:
            stderr = tempfile.TemporaryFile()   # a pipe that nobody drains could fill up
            try:
                proc = subprocess.Popen(self.command, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, stderr=stderr, encoding="utf-8")
            except OSError as exc:
                stderr.close()
                raise ExternalSolverError(f"external solver: failed to run: {exc}") from exc
            self._child = proc, weakref.finalize(self, _end_child, proc, stderr)
        proc = self._child[0]
        expired = threading.Event()
        timer = threading.Timer(REPLY_TIMEOUT_S, lambda: (expired.set(), proc.kill()))
        timer.start()
        lines: list[str] = []   # the reply's nonblank lines: two after SAT, LIMIT or ERROR
        try:
            with suppress(BrokenPipeError):     # a child that has ended reads as EOF below
                proc.stdin.write(print_formula(f) + "\n")
                proc.stdin.flush()
            for line in filter(None, map(str.strip, proc.stdout)):
                lines.append(line)
                if len(lines) == 2 or line not in ("SAT", "LIMIT", "ERROR"):
                    break
            else:   # EOF: the child ended before a whole reply
                code, stderr = self.close()
                if expired.is_set():
                    raise ExternalSolverError(
                        f"external solver: no answer within {REPLY_TIMEOUT_S} s")
                if code:
                    last = [ln.strip() for ln in stderr.splitlines() if ln.strip()][-1:]
                    raise ExternalSolverError(
                        ": ".join([f"external solver: exited with {code}", *last]))
            if not lines:
                raise ExternalSolverError("external solver: no output")
            verdict = lines[0]
            if verdict == "UNSAT":
                return UNSAT
            if verdict == "LIMIT" or verdict == "ERROR":
                detail = lines[1] if len(lines) > 1 else f"{verdict} without a message"
                error = EngineLimitError if verdict == "LIMIT" else ExternalSolverError
                raise error(f"external solver: {detail}")
            if verdict != "SAT":
                raise ExternalSolverError(f"external solver: malformed verdict line {verdict!r}")
            if len(lines) < 2:
                raise ExternalSolverError("external solver: SAT answer missing its witness line")
            try:
                witness = parse_trace(lines[1])
            except ValueError as exc:
                raise ExternalSolverError(f"external solver: malformed witness: {exc}") from exc
            if not eval_formula(witness, f, 0):
                raise ExternalSolverError(
                    f"external solver: witness {format_trace(witness)} does not satisfy the query")
            return SatResult(witness)
        except UnicodeDecodeError as exc:
            self.close()
            raise ExternalSolverError(f"external solver: output is not UTF-8: {exc}") from exc
        except ExternalSolverError:
            self.close()
            raise
        finally:
            timer.cancel()


def serve_stdin_queries(stdin, stdout, state_cap: int = DEFAULT_STATE_CAP) -> None:
    """Answer one protocol query per input line; used to self-host the adapter.

    A query that exhausts ``state_cap`` is answered ``LIMIT``, and a line
    that does not parse or a witness that fails its self-check ``ERROR``,
    each plus one message line; serving goes on with the next line.
    """
    from .parser import SpecError, parse_formula

    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            result = ltl_sat(parse_formula(line), state_cap)
        except EngineLimitError as exc:
            stdout.write(f"LIMIT\n{exc}\n")
        except (SpecError, WitnessSoundnessError) as exc:
            stdout.write(f"ERROR\n{exc}\n")
        else:
            stdout.write(f"SAT\n{format_trace(result.witness)}\n" if result.is_sat
                         else "UNSAT\n")
        stdout.flush()
