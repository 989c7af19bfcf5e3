"""LTL satisfiability with lasso witnesses.

Pipeline: negation normal form, one children-first pass that builds each
node in both polarities, reads ``x -> x`` and ``x <-> x`` as ``TRUE`` and
carries ``TRUE`` and ``FALSE`` through the nodes it builds (each conjunct
!g of the query first drops the conjuncts of g that the query asserts;
``FALSE``, answered Unsat with no automaton, when none is left) ->
transition-based generalized Buchi automaton over next-obligation classes
(``Gba``, a tableau over closure subsets as rank bitmasks) -> Couvreur's
on-the-fly emptiness check -> accepting lasso read back as a trace.  A
class is one distinct next-obligation set, named by its bitmask; its
transitions are the tableau's (old, next) expansions of the set, each
into the class ``next``.  Classes are found only from the root class,
the root formula's set, along transitions, so every class is reachable
and emptiness needs no separate reachability pass.  A class is expanded
only as far as the emptiness walk reads it: ``Gba.cover`` yields each
transition as it builds it, and the walk keeps each class's suspended
expansion on its stack.  The walk stops at the first accepting partial
SCC, and the lasso reads only transitions the walk read, so nothing else
is built; ``Gba.explored`` is the one record of the built transitions.
The tableau takes on each node's deterministic closure, all it forces
without a split, in one step, so a side pops only the nodes it splits
on.  It builds no side whose must-hold literals clash (``FALSE``, or an
atom and its negation: one test on one literal mask), or whose next
obligations' do, as no leaf of it leads to a class with a transition,
and never splits a node whose branch the side already holds (syntactic
implication, Daniele, Giunchiglia & Vardi, CAV 1999).  Dropping a
transition into a class with none moves no other, so the walk, the
lasso and every witness stay.  The state cap counts the tableau sides
made per query.  Every Sat answer is self-checked against the queried
formula before it is returned; a failure here is an engine bug, never a
caller error.  The query protocol's server (``serve_stdin_queries``) and
its errors live here; its client, ``ExternalSolver``, lives in
``ltlsplit.external``, the one module that starts processes.
"""

from __future__ import annotations

from collections.abc import Iterator
from types import SimpleNamespace

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
    Record,
    Release,
    TrueF,
    Until,
    map_atoms,
    postorder,
    print_formula,
)
from .parser import SpecError, parse_formula
from .traces import LassoTrace, eval_formula, format_trace

DEFAULT_STATE_CAP = 200_000


class EngineLimitError(Exception):
    """The configured state cap was exceeded; distinct from Unsat."""


class WitnessSoundnessError(Exception):
    """A Sat witness failed the eval self-check; a hard engine fault."""


class ExternalSolverError(Exception):
    """The external solver child failed or produced an unusable answer."""


class SatResult(Record):
    """Either Unsat, or Sat carrying a lasso model of the queried formula."""

    witness: LassoTrace | None

    @property
    def is_sat(self) -> bool:
        return self.witness is not None


UNSAT = SatResult(None)


_DUAL = {And: Or, Or: And, Until: Release, Release: Until}


def _conjuncts(f: Formula, splits: dict | None = None) -> list[Formula]:
    """The top-level conjuncts of ``f``, with ``G`` distributed over ``&``;
    each node split on the way goes into ``splits``, if given, with its two parts."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if g.__class__ is And:
            parts = g.left, g.right
        elif g.__class__ is Always and g.arg.__class__ is And:
            parts = Always(g.arg.left), Always(g.arg.right)
        else:
            out.append(g)
            continue
        stack += parts
        if splits is not None:
            splits[g] = parts
    return out


def _rebuilt(f: Formula, image: dict) -> Formula | None:
    """``f`` with each of its conjuncts c replaced in place by ``image.get(c, c)``,
    None dropping it, and None if all are; the rest kept as is."""
    splits = {}
    _conjuncts(f, splits)
    done = dict(image)
    for g, parts in reversed(splits.items()):     # each node after its parts
        x, y = (done.get(p, p) for p in parts)
        done[g] = g if (x, y) == parts else y if x is None else x if y is None else And(x, y)
    return done.get(f, f)


def _sliced(f: Formula) -> Formula:
    """``f`` with each conjunct ``!g`` made ``!rest`` in place, rest being g less f's conjuncts,
    with z' read as z where a conjunct ``G(z <-> z')`` locks z; ``FALSE`` if some rest is empty."""
    conj = seen = _conjuncts(f)
    locked = {c.arg.left.base for c in conj if c.__class__ is Always
              and c.arg.__class__ is Iff and c.arg.left.__class__ is Atom
              and c.arg is Iff(Atom(c.arg.left.base), Atom(c.arg.left.base, True))}
    if locked:
        seen = _conjuncts(map_atoms(f, lambda a: Atom(a.base) if a.base in locked else a))
    have = set(seen)
    image = {}
    for c, s in zip(conj, seen):
        if s.__class__ is Not:
            read = _conjuncts(s.arg)
            if have.issuperset(read):
                return FALSE
            drop = [p for p, q in zip(_conjuncts(c.arg) if locked else read, read) if q in have]
            if drop:
                image[c] = Not(_rebuilt(c.arg, dict.fromkeys(drop)))
    return _rebuilt(f, image) if image else f


_UNIT = {And: TRUE, Or: FALSE, Until: FALSE, Release: TRUE}     # cls(unit, b) is b


def _node(cls, a: Formula, b: Formula) -> Formula:
    """``cls(a, b)`` for ``&``, ``|``, ``U`` or ``R``, with ``x op x`` read as x
    and ``TRUE`` and ``FALSE`` carried through."""
    if cls is And or cls is Or:
        if a is TRUE or a is FALSE:
            a, b = b, a
        if b is _UNIT[cls]:
            return a
        if b is TRUE or b is FALSE:
            return b
    elif a is _UNIT[cls] or b is TRUE or b is FALSE:
        return b
    return a if a is b else cls(a, b)


def to_nnf(f: Formula) -> Formula:
    """Push negation to atoms; desugar ->, <->, F, G into |, &, U, R.

    ``FALSE`` when ``_sliced(f)`` is; otherwise one pass over its postorder,
    children first, maps each node g to the pair (nnf(g), nnf(!g)), built
    from its children's pairs; ``x & x``, ``x | x``, ``x U x`` and ``x R x``
    are x, ``x -> x`` and ``x <-> x`` are ``TRUE``, and every node built
    carries ``TRUE`` and ``FALSE`` through (``_node``).  The unique table
    hands back a node whose children are in NNF.
    """
    f = _sliced(f)
    if f is FALSE:
        return f
    nnf: dict[Formula, tuple[Formula, Formula]] = {}
    for g in postorder(f):
        cls = g.__class__
        if cls is Atom:
            nnf[g] = g, Not(g)
        elif cls is TrueF:
            nnf[g] = TRUE, FALSE
        elif cls is FalseF:
            nnf[g] = FALSE, TRUE
        elif cls is Not:
            a, na = nnf[g.arg]
            nnf[g] = na, a
        elif cls is Next:
            a, na = nnf[g.arg]
            nnf[g] = (a, na) if a is TRUE or a is FALSE else (Next(a), Next(na))
        elif cls is Eventually:
            a, na = nnf[g.arg]
            nnf[g] = _node(Until, TRUE, a), _node(Release, FALSE, na)
        elif cls is Always:
            a, na = nnf[g.arg]
            nnf[g] = _node(Release, FALSE, a), _node(Until, TRUE, na)
        elif cls in _DUAL:
            (a, na), (b, nb) = nnf[g.left], nnf[g.right]
            nnf[g] = _node(cls, a, b), _node(_DUAL[cls], na, nb)
        elif cls is Implies or cls is Iff:
            (a, na), (b, nb) = nnf[g.left], nnf[g.right]
            if a is b:
                nnf[g] = TRUE, FALSE
            elif cls is Implies:
                nnf[g] = _node(Or, na, b), _node(And, a, nb)
            else:
                nnf[g] = (_node(Or, _node(And, a, b), _node(And, na, nb)),
                          _node(Or, _node(And, a, nb), _node(And, na, b)))
        else:
            raise TypeError(f"unknown formula node {g!r}")
    return nnf[f][0]


class Gba:
    """Transition-based generalized Buchi automaton of ``f``, which must be in
    negation normal form (``ValueError`` otherwise), over next-obligation
    classes, each expanded only when first asked for.

    Subformulas are numbered by their rank in ``postorder(f)`` (the atom
    under a negative literal just before it): ``nodes[i]`` is guard bit i,
    and obligation sets are int bitmasks over ranks.  ``kind``, ``left``
    and ``right`` give each rank its node class and child ranks (-1 for
    none), ``literal_bits`` the bits of the ``Atom`` and ``Not`` nodes, and
    ``untils`` each Until's bit with its right side's, but for ``x U true``,
    which holds at once.  ``must`` gives each node one literal mask, the
    literals every expansion of it puts into ``old``: over the ``width`` = m
    ``Atom`` and ``FalseF`` nodes, numbered 0..m-1 by rank, ``!x`` is bit
    idx(x), ``x`` bit idx(x) + m and ``FALSE`` both bits of its index, so a
    mask is dead iff ``mask >> m & mask``.  ``&`` takes the union, ``R`` its
    right side's, ``|`` and ``U`` the intersection, or the other side's
    when one side is dead.  ``cover`` builds no dead side, nor a transition
    into a class whose obligations are dead together: such a class has no
    transition and lies on no run.  ``closures`` holds each rank's
    deterministic closure (``_close``), made on its first use by ``cover``.

    A class is one distinct next-obligation set, named by its bitmask;
    ``root`` is the set of the root formula alone.  ``cover(v)`` expands
    class v lazily: each tableau expansion (old, next) of it is one
    transition ``(guard, acc, target)``, the literal bits of ``old``
    (``literals`` decodes them), acceptance bit j set iff the j-th Until of
    ``untils`` is not in ``old`` or its right side is (``accs`` keeps them
    by the bits of ``old`` in ``watch``), and ``next`` itself as the target.
    ``succ(v)`` expands v in full.  A run from ``root`` reads, at step i, a
    letter where the ``Atom`` literals of its transition's guard hold and
    the ``Not`` literals fail; it accepts iff every bit of ``full`` recurs
    infinitely often.  ``explored``, the one record of the built
    transitions, maps each class whose expansion has begun to its
    transitions so far, in expansion order; ``states`` is a view of it.
    ``pairs`` holds each distinct (old, next) expansion met so far with its
    transition, shared by every class that has it.  ``sides`` counts the
    ``cover`` sides made; ``EngineLimitError`` is raised once it would pass
    ``state_cap``, even inside one expansion, leaving it at the cap.
    """

    def __init__(self, f: Formula, state_cap: int = DEFAULT_STATE_CAP):
        nodes = self.nodes = postorder(f)
        rank = {g: i for i, g in enumerate(nodes)}
        kind = self.kind = [g.__class__ for g in nodes]
        left = self.left = [-1] * len(nodes)
        right = self.right = [-1] * len(nodes)
        index = {g: j for j, g in enumerate(g for g in nodes if g.__class__ in (Atom, FalseF))}
        m = self.width = len(index)
        must = self.must = [0] * len(nodes)
        literals = 0
        for i, g in enumerate(nodes):
            k = kind[i]
            if k is Not and g.arg.__class__ is not Atom:
                raise ValueError("negation on a non-atom: formula not in NNF")
            if k is Atom or k is Not:
                literals |= 1 << i
                must[i] = 1 << index[g] + m if k is Atom else 1 << index[g.arg]
            elif k is And or k is Or or k is Until or k is Release:
                a = left[i] = rank[g.left]
                b = right[i] = rank[g.right]
                if k is And:
                    must[i] = must[a] | must[b]
                elif k is Release or must[a] >> m & must[a]:     # b holds now, or a is dead
                    must[i] = must[b]
                elif must[b] >> m & must[b]:
                    must[i] = must[a]
                else:
                    must[i] = must[a] & must[b]
            elif k is Next:
                left[i] = rank[g.arg]
            elif k is FalseF:
                must[i] = (1 << m | 1) << index[g]
            elif k is not TrueF:
                raise ValueError(f"unexpected node in NNF formula: {g!r}")
        self.literal_bits = literals
        self.untils = [(1 << g, 1 << right[g]) for g, k in enumerate(kind)
                       if k is Until and kind[right[g]] is not TrueF]
        self.full = (1 << len(self.untils)) - 1
        self.watch = sum({bit for pair in self.untils for bit in pair})     # OR of their bits
        self.accs: dict[int, int] = {}      # old & watch -> acceptance bits
        self.state_cap = state_cap
        self.root = 1 << len(nodes) - 1         # the class of the root obligation
        self.explored: dict[int, list] = {}     # class -> its transitions built so far
        self.pairs: dict[tuple[int, int], tuple[int, int, int]] = {}
        self.closures: list[tuple | None] = [None] * len(nodes)
        self.sides = 0

    @property
    def states(self) -> list[SimpleNamespace]:
        """The expanded classes in expansion order, each with its transitions as ``succ``."""
        return [SimpleNamespace(succ=out) for out in self.explored.values()]

    def literals(self, guard: int) -> list[Formula]:
        """The ``Atom`` and ``Not`` nodes of a guard, by rank."""
        return [self.nodes[i] for i in _ids(guard)]

    def succ(self, v: int) -> list[tuple[int, int, int]]:
        """The transitions of class v, in ``cover`` order: v expanded in full,
        from the start, whatever of it was built before."""
        return list(self.cover(v))

    def _close(self, g: int) -> tuple[int, int, int, list[int]]:
        """The deterministic closure of rank g, made on first use: the bits g
        forces into ``old`` (the splitters it leaves among them: ``|``, ``U``
        and an ``R`` with a live left side) and ``next`` without a split, the
        ``later`` mask of the latter, and those splitters in push order, right
        child last.  ``&``, ``X``, literals and ``G x`` (``false R x``) fold
        in, ``true`` leaves nothing, and a hand-built ``x op x`` is x."""
        kind, left, right, must, m = self.kind, self.left, self.right, self.must, self.width
        old, nxt, later, split, stack = 0, 0, 0, [], [g]
        while stack:
            h = stack.pop()
            k, a, b = kind[h], left[h], right[h]
            if not (old >> h & 1 or k is TrueF):
                old |= 1 << h
                if a == b >= 0:         # x op x is x
                    stack.append(a)
                elif k is Or or k is Until or k is Release and not must[a] >> m & must[a]:
                    split.append(h)
                elif k is And:
                    stack += a, b
                elif k is Next:
                    nxt, later = nxt | 1 << a, later | must[a]
                elif k is Release:      # a is dead: a R b == b & X(a R b)
                    nxt, later = nxt | 1 << h, later | must[h]
                    stack.append(b)
        closure = self.closures[g] = old, nxt, later, split[::-1]
        return closure

    def cover(self, v: int) -> Iterator[tuple[int, int, int]]:
        """Expand class v lazily: make its transitions, one per distinct (old,
        next) expansion of its obligations, in order, each appended to
        ``explored[v]`` and yielded, so a caller that stops reading builds no
        more of v.

        A pending side is (new, old, done, next, need, later, push): a linked
        stack of splitters only, ``(top, rest)`` or ``()``, shared with the
        side it forked from; the splitters it expanded; literal masks, ``need``
        the ``must`` of every obligation taken on and ``later`` that of every
        obligation put into ``next``; and the splitters still to push.  The
        root class and each branch of a split take on their nodes'
        deterministic closures (``_close``) at once.  Every leaf holds
        ``need``, so a side whose ``need`` clashes has no leaf that lives and
        is not built; nor is one whose ``later`` clashes, as its ``next``
        fails this very check.  A branch is held when its node is in ``old``,
        which has all a taken-on closure forces and every splitter pushed; the
        literals in ``need`` are not held, as a node's own are among them.  An
        ``Or`` with a held branch, or an ``Until`` with a held right side, is
        not split, and a ``Release`` with a held left side is its right side
        alone.  Each skip rests on a strict subformula that the side asserts,
        so skips cannot justify each other in a loop.  The live sides keep
        their depth-first order, so results do too.  A side counts toward
        ``state_cap`` when it is made, so the cap bounds the sides pending in
        suspended expansions; an expansion run to its end pops all it makes.
        """
        kind, left, right, must, m = self.kind, self.left, self.right, self.must, self.width
        closures, close, cap, pairs, accs = self.closures, self._close, self.state_cap, self.pairs, self.accs
        out = self.explored[v] = []
        seen: set[tuple[int, int]] = set()     # the (old, next) pairs of v so far
        push, old, nxt, need, later = [], 0, 0, 0, 0
        for g in _ids(v):
            o, x, l, s = closures[g] or close(g)
            push += s
            old, nxt, need, later = old | o, nxt | x, need | must[g], later | l
        pending = [] if need >> m & need or later >> m & later else [((), old, 0, nxt, need, later, push)]
        sides = self.sides + len(pending)
        while pending:
            if sides > cap:
                self.sides = cap
                raise EngineLimitError(f"tableau exceeded the state cap of {cap}")
            new, old, done, nxt, need, later, s = pending.pop()
            while True:
                for g in s:
                    new = g, new
                if not new:
                    key = old, nxt
                    if key not in seen and sides <= cap:    # else the pop above raises
                        seen.add(key)
                        t = pairs.get(key)
                        if t is None:   # guard and acceptance bits once per distinct pair
                            w = old & self.watch
                            acc = accs.get(w)
                            if acc is None:     # acceptance bits once per state of the Untils
                                acc = accs[w] = sum(1 << j for j, (u, f) in enumerate(self.untils)
                                                    if not w & u or w & f)
                            t = pairs[key] = old & self.literal_bits, acc, nxt
                        out.append(t)
                        self.sides = sides
                        yield t
                        sides = self.sides      # other expansions ran meanwhile
                    break
                g, new = new
                s, bit = (), 1 << g
                if done & bit:
                    continue
                done |= bit
                a, b, k = left[g], right[g], kind[g]
                if k is Release:  # a R b == b & (a | X(a R b)), a live
                    o, x, l, s = closures[b] or close(b)
                    if not old >> a & 1:    # a held: a R b is b here
                        oa, xa, la, sa = closures[a] or close(a)
                        side, fork = need | must[a], later | la | l
                        if not (side >> m & side or fork >> m & fork):
                            pending.append((new, old | oa | o, done, nxt | xa | x, side, fork, sa + s))
                            sides += 1
                        nxt, later = nxt | bit, later | must[g]
                else:   # a | b, and a U b == b | (a & X(a U b))
                    if old >> b & 1 or k is Or and old >> a & 1:
                        continue    # a held branch: g holds with it, unsplit
                    ob, xb, lb, sb = closures[b] or close(b)
                    side, fork = need | must[b], later | lb
                    if not (side >> m & side or fork >> m & fork):
                        pending.append((new, old | ob, done, nxt | xb, side, fork, sb))
                        sides += 1
                    need |= must[a]
                    if k is Until:
                        nxt, later = nxt | bit, later | must[g]
                    o, x, l, s = closures[a] or close(a)
                old, nxt, later = old | o, nxt | x, later | l
                if need >> m & need or later >> m & later:
                    break
        self.sides = sides


def _ids(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


build_gba = Gba     # the automaton of an NNF formula, no class expanded yet


def _accepting_component(gba: Gba) -> tuple[set[int], dict[int, int]] | None:
    """Couvreur's walk, iterative, from the root class, reading each class it
    reaches from its ``cover`` only as far as it goes: a stack of SCC roots,
    each with its live-stack position, the acceptance bits of the transition
    into it and those of its partial SCC's internal transitions.  A transition
    to a live class merges the roots above that class into the one below;
    once that root's internal bits are ``full``, returns its open component
    (the live stack from it up) and every visited class (mapped to its live
    position, -1 once its SCC closed).  None if no SCC accepts.  The
    suspended expansions refer to ``gba`` but live only on the walk's stack,
    so every exit drops them and no cycle keeps ``gba`` alive."""
    pos = {gba.root: 0}
    live = [gba.root]
    roots = [[0, 0, 0]]     # [position on live, bits of the transition in, internal bits]
    work = [(gba.root, gba.cover(gba.root))]
    while work:
        v, succ = work[-1]
        for _, acc, w in succ:
            i = pos.get(w)
            if i is None:
                pos[w] = len(live)
                roots.append([len(live), acc, 0])
                live.append(w)
                work.append((w, gba.cover(w)))
                break
            if i >= 0:      # w is live: the roots above it join its component
                while roots[-1][0] > i:
                    _, arc, bits = roots.pop()
                    acc |= arc | bits
                roots[-1][2] |= acc
                if roots[-1][2] == gba.full:
                    return set(live[roots[-1][0]:]), pos
        else:
            work.pop()
            r = pos[v]
            if roots[-1][0] == r:   # v's SCC is closed and does not accept
                roots.pop()
                for w in live[r:]:
                    pos[w] = -1
                del live[r:]
    return None


def _bfs(gba: Gba, start: int, inside, goal) -> list[tuple[int, int, int]]:
    """A shortest path of one or more built transitions from class ``start``
    to one that meets ``goal``, every transition ending in ``inside``; ties go
    by ``explored`` order.  It builds nothing."""
    parent: dict[int, tuple | None] = {start: None}     # class -> (class, transition) into it
    frontier = [start]
    while frontier:
        reached = []
        for v in frontier:
            for t in gba.explored[v]:
                w = t[2]
                if w not in inside:
                    continue
                if goal(t):
                    path = [t]
                    while parent[v] is not None:
                        v, t = parent[v]
                        path.append(t)
                    path.reverse()
                    return path
                if w not in parent:
                    parent[w] = v, t
                    reached.append(w)
        frontier = reached
    raise AssertionError("an accepting SCC has no path to its transition")


def find_accepting_lasso(gba: Gba) -> SatResult:
    """Unsat iff no SCC has internal transitions whose acceptance bits
    together are ``full`` (at least one transition, even when ``full`` is 0).

    Otherwise a lasso read off the guards of a path from the root class,
    through classes the walk visited, into the component that
    ``_accepting_component`` stops at, and of a cycle inside it through every
    acceptance bit; atoms a guard leaves free are false.  Both are read from
    the transitions the walk built, and such paths exist: the walk's
    depth-first path from the root reaches the component's root; Couvreur's
    partial SCC is strongly connected through transitions the walk read; and
    those transitions carry every bit of ``full``, as the walk found the bits
    on them.  So the lasso builds nothing.  Raises ``EngineLimitError`` once
    the walk's sides pass the state cap.
    """
    found = _accepting_component(gba)
    if found is None:
        return UNSAT
    inside, visited = found
    prefix = [] if gba.root in inside else _bfs(gba, gba.root, visited, lambda t: t[2] in inside)
    start = cur = prefix[-1][2] if prefix else gba.root
    cycle: list[tuple[int, int, int]] = []
    missing = gba.full
    while missing:
        bit = missing & -missing
        path = _bfs(gba, cur, inside, lambda t: t[1] & bit)
        for _, acc, cur in path:
            missing &= ~acc
        cycle += path
    if cur != start or not cycle:
        cycle += _bfs(gba, cur, inside, lambda t: t[2] == start)

    letters = [frozenset(g for g in gba.literals(guard) if g.__class__ is Atom)
               for guard, _, _ in prefix + cycle]
    return SatResult(LassoTrace(tuple(letters[:len(prefix)]), tuple(letters[len(prefix):])))


def ltl_sat(f: Formula, state_cap: int = DEFAULT_STATE_CAP) -> SatResult:
    """Decide satisfiability of ``f`` and produce a self-checked witness; Unsat
    at once when ``to_nnf`` refutes ``f``, with no automaton built."""
    nnf = to_nnf(f)
    if nnf is FALSE:
        return UNSAT
    result = find_accepting_lasso(build_gba(nnf, state_cap))
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


def serve_stdin_queries(stdin, stdout, state_cap: int = DEFAULT_STATE_CAP) -> None:
    """Answer one protocol query per input line; used to self-host the adapter.

    A query that exhausts ``state_cap`` is answered ``LIMIT``, and a line
    that does not parse or a witness that fails its self-check ``ERROR``,
    each plus one message line; serving goes on with the next line.
    """
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
