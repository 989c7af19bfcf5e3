"""Satisfiability engine: NNF, automaton construction, emptiness, oracles."""

import gc
import hashlib
import io
import os
import random
import subprocess
import sys
import time
import weakref
from functools import reduce

import pytest

from ltlsplit import (
    FALSE,
    TRUE,
    Always,
    And,
    Atom,
    EngineLimitError,
    Eventually,
    ExternalSolver,
    ExternalSolverError,
    InternalSolver,
    Next,
    Not,
    Or,
    SatResult,
    UNSAT,
    atoms,
    build_gba,
    dependence_query,
    eval_formula,
    find_accepting_lasso,
    format_trace,
    lock_conjunct,
    ltl_sat,
    make_spec,
    parse_formula,
    partition,
    print_formula,
    state,
    to_nnf,
    verify_partition,
)
from ltlsplit import engine
from ltlsplit.engine import serve_stdin_queries
from ltlsplit.formula import Release, Until, map_atoms, postorder
from brute import bounded_sat
from helpers import FIXTURES, fixture_spec, lasso, random_formula, random_spec, small_formula

INTRO_PHI = parse_formula(
    "G((p -> X(v & !t)) & (!p -> X(!v & t)) & "
    "(v -> X(!w & z)) & (!v -> X(w & !z)))")


# SHA-256 of ``print_formula(to_nnf(f))``, one line per formula, over the
# formulas of ``TestNnf.test_output_is_pinned``.  It moves when ``to_nnf``
# slices, folds or desugars some formula otherwise, and when the partition
# queries of the fixtures or ``chain3``, which it also hashes, change.
NNF_DIGEST = "9cd9b32e0f25ac7ffbccc981748900d1f84f2ccc12f020cba347894ed599796a"


class TestNnf:
    def test_not_always(self):
        assert to_nnf(parse_formula("!G a")) == parse_formula("true U !a")

    def test_not_until(self):
        assert to_nnf(parse_formula("!(a U b)")) == parse_formula("!a R !b")

    def test_not_iff(self):
        got = to_nnf(parse_formula("!(p <-> q)"))
        assert got == parse_formula("(p & !q) | (!p & q)")

    def test_eventually_desugars(self):
        assert to_nnf(parse_formula("F a")) == parse_formula("true U a")

    def test_always_desugars(self):
        assert to_nnf(parse_formula("G a")) == parse_formula("false R a")

    def test_double_negation(self):
        assert to_nnf(parse_formula("!!a")) == parse_formula("a")

    @pytest.mark.parametrize("op", ["&", "|", "U", "R"])
    def test_binary_node_of_one_child_is_that_child(self, op):
        """``x & x``, ``x | x``, ``x U x`` and ``x R x`` are x, and their
        negations are !x, so the tableau never splits such a node."""
        x = parse_formula("p -> X q")
        twice = parse_formula(f"(p -> X q) {op} (p -> X q)")
        assert to_nnf(twice) == to_nnf(x)
        assert to_nnf(Not(twice)) == to_nnf(Not(x))

    @pytest.mark.parametrize("text,want", [
        ("(a -> a) & b", "b"), ("!(X b <-> X b) | b", "b"), ("F (a -> a)", "true"),
        ("G !(a <-> a)", "false"), ("X (a -> a) | b", "true"), ("(a -> a) R b", "b"),
        ("!(a -> a) U b", "b"), ("b U (a <-> a)", "true"), ("(a -> a) U b", "true U b"),
        ("!(a -> a) R b", "false R b"), ("(a -> a) -> b", "b"), ("b <-> !(a -> a)", "!b")])
    def test_tautologies_fold_and_constants_carry(self, text, want):
        """``x -> x`` and ``x <-> x`` are ``TRUE``, and the nodes built around a
        constant read as what they mean; ``true U b`` and ``false R b`` stay."""
        assert to_nnf(parse_formula(text)) is to_nnf(parse_formula(want))

    def test_constants_are_carried_through(self):
        """Over seeded draws with ``true``, ``false``, ``x -> x`` and
        ``x <-> x`` among the leaves, ``to_nnf`` keeps every model, and a
        constant is left only as the whole formula or as the left side of
        ``true U x`` and ``false R x``."""
        rng = random.Random(27)
        leaves = {"t": TRUE, "f": FALSE, "i": parse_formula("q -> q"),
                  "e": parse_formula("X p <-> X p")}
        traces = [lasso([], [state("p")]), lasso([state("q")], [state("p", "q"), state()]),
                  lasso([state()], [state("q")])]
        for _ in range(400):
            f = map_atoms(random_formula(rng, ["p", "q", "t", "f", "i", "e"], rng.randint(1, 5)),
                          lambda a: leaves.get(a.base, a))
            g = to_nnf(f)
            for tau in traces:
                assert eval_formula(tau, f, 0) == eval_formula(tau, g, 0), print_formula(f)
            for n in postorder(g):
                cls = n.__class__
                if cls is Next:
                    assert n.arg not in (TRUE, FALSE), print_formula(g)
                elif cls in (And, Or, Until, Release):
                    kept = {Until: TRUE, Release: FALSE}.get(cls)   # true U x is F x, false R x G x
                    assert n.right not in (TRUE, FALSE), print_formula(g)
                    assert n.left is kept or n.left not in (TRUE, FALSE), print_formula(g)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            f = small_formula(rng, ["p", "q", "r"], 6)
            assert to_nnf(to_nnf(f)) == to_nnf(f)

    def test_preserves_models(self):
        rng = random.Random(8)
        traces = [lasso([], [state("p")]),
                  lasso([state("q")], [state("p", "r"), state()]),
                  lasso([state()], [state("q")])]
        for _ in range(100):
            f = small_formula(rng, ["p", "q", "r"], 6)
            g = to_nnf(f)
            for tau in traces:
                assert eval_formula(tau, f, 0) == eval_formula(tau, g, 0)

    def test_output_is_pinned(self):
        """``to_nnf`` gives the same formula it always has, over 3,000 seeded
        draws (atoms ``t`` and ``f`` read as ``true`` and ``false``) and every
        partition query of the fixtures and ``chain3``."""
        rng = random.Random(17)
        constants = {"t": TRUE, "f": FALSE}
        formulas = [map_atoms(random_formula(rng, ["p", "q", "a", "b", "t", "f"],
                                             rng.randint(1, 6)),
                              lambda a: constants.get(a.base, a))
                    for _ in range(3000)]
        for spec in [*map(fixture_spec, sorted(FIXTURES)), *_pinned_specs("chain3")]:
            formulas += [q.formula for q in partition(spec).query_log]
        digest = hashlib.sha256()
        for f in formulas:
            digest.update(f"{print_formula(to_nnf(f))}\n".encode())
        assert digest.hexdigest() == NNF_DIGEST


def _resp(n):
    """``n`` disjoint responses ``G(p_i -> X a_i)``; every block is a singleton."""
    return make_spec([f"p{i}" for i in range(n)], [f"a{i}" for i in range(n)],
                     parse_formula(" & ".join(f"G(p{i} -> X a{i})" for i in range(n))))


class TestRefutation:
    """``to_nnf`` gives ``FALSE`` for a conjunction that holds some !g next to
    every conjunct of g, once each locked ``z'`` reads as z."""

    def test_refuted_queries_are_unsat(self):
        """Every refuted query of random specs, W/Y splits and lock sets is
        Unsat to the engine without the check (an ``Or`` at the top hides the
        conjuncts) and has no lasso of a small shape to the brute oracle."""
        rng = random.Random(16)
        refuted = 0
        for _ in range(250):
            spec = random_spec(rng)
            names = list(spec.sys)
            rng.shuffle(names)
            cut = rng.randint(0, len(names))
            q = dependence_query(spec.formula, names[:cut], names[cut:])
            for z in rng.choices(spec.sys, k=rng.randint(0, 3)):    # repeats lock twice
                q = lock_conjunct(q, z)
            if to_nnf(q) is not FALSE:
                continue
            refuted += 1
            assert not ltl_sat(Or(q, FALSE)).is_sat, print_formula(q)
            for shape in [(0, 1), (1, 1), (0, 2), (1, 2), (2, 1)]:
                if len(atoms(q)) * sum(shape) <= 16:    # at most 2^16 candidate lassos
                    assert not bounded_sat(q, *shape).is_sat, (shape, print_formula(q))
        assert refuted >= 200

    @pytest.mark.parametrize("text,sat", [("G(a' <-> a') & a' & !a", True),
                                          ("G(a' <-> a) & a' & !a", False)],
                             ids=["both-primed", "primed-left"])
    def test_only_unprimed_left_locks(self, text, sat):
        """Neither conjunct is a lock, so no ``a'`` reads as ``a``; the
        tableau decides the query."""
        f = parse_formula(text)
        assert to_nnf(f) is not FALSE
        assert ltl_sat(f).is_sat == sat

    def test_locked_prime_reads_as_unprimed(self):
        assert to_nnf(parse_formula("a' & G(a <-> a') & !a")) is FALSE

    def test_always_distributes_over_and(self):
        assert to_nnf(parse_formula("G(a & b) & !G a")) is FALSE

    def test_refuted_query_builds_no_automaton(self, monkeypatch):
        monkeypatch.setattr(engine, "build_gba", None)
        assert ltl_sat(parse_formula("G(a & b) & !G a")) is UNSAT

    @pytest.mark.parametrize("text", ["G a & !G(a & b)", "G(a | b) & !G a"])
    def test_missing_conjunct_is_not_refuted(self, text):
        """``G`` distributes over ``&`` only, and g's every conjunct must be there."""
        f = parse_formula(text)
        assert to_nnf(f) is not FALSE
        res = ltl_sat(f)
        assert res.is_sat
        assert eval_formula(res.witness, f, 0)

    def test_sliced_queries_keep_their_verdict(self):
        """Each conjunct !g drops the conjuncts of g that the query asserts:
        over random conjunctions, some under one ``G``, W/Y splits and lock
        sets, a sliced or refuted query has the verdict of the unsliced one
        (an ``Or`` at the top hides the conjuncts), and where the engine finds
        no model of a sliced one, the brute oracle finds no lasso of a small
        shape either.  A query that runs out of budget is left out."""
        rng = random.Random(25)
        sliced = sat = capped = 0
        for _ in range(600):
            env, sys_ = ["p0", "p1"][:rng.randint(1, 2)], ["a0", "a1", "a2"][:rng.randint(2, 3)]
            phi = reduce(And, [random_formula(rng, env + sys_, rng.randint(1, 3))
                               for _ in range(rng.randint(2, 4))])
            phi = Always(phi) if rng.random() < 0.3 else phi
            names = list(sys_)
            rng.shuffle(names)
            cut = rng.randint(1, len(names) - 1)
            q = dependence_query(phi, names[:cut], names[cut:])
            for z in rng.choices(names[cut:], k=rng.randint(0, 2)):    # repeats lock twice
                q = lock_conjunct(q, z)
            if engine._sliced(q) is q:
                continue
            try:    # each witness is checked against q itself
                result, unsliced = ltl_sat(q, 30_000), ltl_sat(Or(q, FALSE), 30_000)
            except EngineLimitError:
                capped += 1
                continue
            assert result.is_sat == unsliced.is_sat, print_formula(q)
            if engine._sliced(q) is FALSE:
                continue
            sliced += 1
            sat += result.is_sat
            for shape in [(0, 1), (1, 1), (0, 2), (1, 2), (2, 1)]:
                if not result.is_sat and len(atoms(q)) * sum(shape) <= 16:
                    assert not bounded_sat(q, *shape).is_sat, (shape, print_formula(q))
        assert sliced >= 60 and capped <= 2 and 10 < sat < sliced - 10

    def test_query_with_tautologies_is_decided(self):
        """A dependence query with ``a1 <-> a1`` and ``F (a1 -> a1)`` in it is
        Unsat within the default cap; read as written, its tableau ran past
        1,000,000 sides."""
        phi = parse_formula("G ((((a0 -> (F a1 R p0)) & ((a1 <-> a1) & (a2 U a1))) & "
                            "(F (a1 -> a1) | (G a2 & G a1))) & F a2)")
        assert ltl_sat(dependence_query(phi, ["a0"], ["a2", "a1"])) is UNSAT

    def test_deep_conjunctions_are_sliced_without_recursion(self):
        """``a & X a & a & ...``, 1,500 deep: its dependence query is refuted,
        and next to a mixed conjunct ``a <-> b`` the whole chain is dropped
        from the negated copy.  In ``a & (a | b) & a & ...`` only the 750
        mixed conjuncts stay, still nested as in phi."""
        chain = parse_formula(" & ".join(["a", "X a"] * 750))
        assert to_nnf(dependence_query(chain, ["a"], ["b"])) is FALSE
        phi = And(chain, parse_formula("a <-> b"))
        q = dependence_query(phi, ["a"], ["b"])
        assert engine._sliced(q) == And(q.left, And(q.right.left, parse_formula("!(a <-> b)")))
        assert not ltl_sat(q).is_sat
        q = dependence_query(parse_formula(" & ".join(["a", "(a | b)"] * 750)), ["a"], ["b"])
        rest = parse_formula(" & ".join(["(a | b)"] * 750))
        assert engine._sliced(q) == And(q.left, And(q.right.left, Not(rest)))
        assert to_nnf(q).right.right is to_nnf(Not(rest))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_responses_split_into_singletons(self, n):
        """Each ``resp_n`` query holds every conjunct of phi next to !phi, so
        it is decided under the default cap, and so are the audit's queries."""
        spec = _resp(n)
        result = partition(spec)
        assert result.block_sets() == {frozenset([a]) for a in spec.sys}
        assert result.query_count == n - 1
        assert verify_partition(spec, result, minimality=True).ok


def _explored(gba):
    """``gba``, fresh from ``build_gba``, with every class expanded
    breadth-first from ``gba.root`` in the order the classes are found, so
    ``gba.explored`` and ``gba.states`` list the classes in that order."""
    found, queue = {gba.root}, [gba.root]
    for v in queue:
        for _, _, w in _succ(gba, v):
            if w not in found:
                found.add(w)
                queue.append(w)
    return gba


def _succ(gba, v):
    """The transitions of class v, in ``cover`` order: v expanded in full,
    from the start, whatever of it was built before."""
    return list(gba.cover(v))


def _guards(gba):
    """The (true atoms, false atoms) of every transition's guard."""
    for cls in _explored(gba).states:
        for guard, _, _ in cls.succ:
            lits = gba.literals(guard)
            yield ({g for g in lits if isinstance(g, Atom)},
                   {g.arg for g in lits if isinstance(g, Not)})


class TestBuildGba:
    """A state of the automaton is a class, one distinct next-obligation set;
    its transitions are the tableau's (old, next) expansions of the set.
    ``build_gba`` expands no class; these tests expand all of them."""

    def test_requires_nnf(self):
        with pytest.raises(ValueError):
            build_gba(parse_formula("!(a & b)"))

    @pytest.mark.parametrize("text", ["a -> b", "a <-> b", "F a", "G a"])
    def test_rejects_each_desugared_connective(self, text):
        with pytest.raises(ValueError, match="^unexpected node in NNF formula: "):
            build_gba(parse_formula(text))

    def test_always_a_single_looping_state(self):
        gba = _explored(build_gba(to_nnf(parse_formula("G a"))))
        assert list(gba.explored) == [gba.root]
        [(guard, acc, target)] = gba.explored[gba.root]
        assert gba.literals(guard) == [parse_formula("a")]
        assert (acc, target, gba.full, len(gba.pairs)) == (0, gba.root, 0, 1)

    def test_eventually_marks_the_fulfilling_transition(self):
        """``F a``: waiting loops on the root class unmarked; reading ``a`` is
        marked and leads to the empty class, which loops marked."""
        gba = _explored(build_gba(to_nnf(parse_formula("F a"))))
        assert gba.full == 1
        root, empty = gba.explored
        assert (root, empty) == (gba.root, 0)
        assert [[(gba.literals(g), acc, w) for g, acc, w in cls.succ] for cls in gba.states] == [
            [([], 0, root), ([parse_formula("a")], 1, empty)], [([], 1, empty)]]

    def test_contradiction_has_no_states(self):
        gba = _explored(build_gba(to_nnf(parse_formula("a & !a"))))
        assert [cls.succ for cls in gba.states] == [[]]
        assert (len(gba.pairs), gba.sides) == (0, 0)

    @pytest.mark.parametrize("text", ["b & (a U b)", "a & (a | b)", "a & (a R b)"])
    def test_held_branch_is_not_split(self, text):
        """A node whose branch the side already holds is not split: ``a U b``
        next to ``b`` and ``a | b`` next to ``a`` need no second side, and
        ``a R b`` next to ``a`` is ``b`` with no ``X``."""
        gba = build_gba(to_nnf(parse_formula(text)))
        assert len(_succ(gba, gba.root)) == 1
        assert find_accepting_lasso(gba).is_sat

    def test_own_must_is_not_held(self):
        """The literals that ``X(a | a)`` must hold at position 1 do not count
        as held there, or ``a | a`` would keep neither branch and leave ``a``
        out of the guard; the tableau reads a hand-built ``a | a`` as a."""
        f = parse_formula("X(a | a)")      # in NNF already; ``to_nnf`` would make it X a
        result = find_accepting_lasso(build_gba(f))
        assert result.is_sat and eval_formula(result.witness, f, 0)
        assert Atom("a") in result.witness.state_at(1)

    def test_own_must_of_a_split_is_not_held(self):
        """``X(a | (a & b))`` must hold ``a`` at position 1, as both branches
        do; that literal does not count as held there, or the split would
        keep neither branch and leave ``a`` out of the guard."""
        f = parse_formula("X(a | (a & b))")
        result = find_accepting_lasso(build_gba(f))
        assert result.is_sat and eval_formula(result.witness, f, 0)
        assert Atom("a") in result.witness.state_at(1)

    def test_guards_consistent(self):
        gba = build_gba(to_nnf(parse_formula("(a U !b) & (b R (a | c))")))
        for pos, neg in _guards(gba):
            assert not pos & neg

    def test_one_acceptance_set_per_until(self):
        f = to_nnf(parse_formula("(a U b) & F c & G d"))
        untils = {n for n in postorder(f) if isinstance(n, Until)}
        gba = build_gba(f)
        assert len(untils) == 2
        assert gba.full == 0b11

    def test_state_cap(self):
        """``a | b`` takes three tableau sides: two for the split of the root
        class and one for the empty class both lead to."""
        f = to_nnf(parse_formula("a | b"))
        for cap in (1, 2):
            gba = build_gba(f, state_cap=cap)
            with pytest.raises(EngineLimitError, match=f"state cap of {cap}$"):
                find_accepting_lasso(gba)
            assert gba.sides == cap
        assert find_accepting_lasso(build_gba(f, state_cap=3)).is_sat

    def test_state_cap_stops_an_expansion_that_cannot_fit(self):
        """The 2**18 expansions of this chain's root are not all made under cap 5.

        Making all of them before the first pair is refused took about
        5 s; the cap counts tableau sides, so the sixth side stops the
        expansion, and ``sides`` reads the five expanded.
        """
        f = parse_formula(" & ".join(f"(a{i} | b{i})" for i in range(18)))
        start = time.perf_counter()
        gba = build_gba(to_nnf(f), state_cap=5)
        with pytest.raises(EngineLimitError, match="state cap of 5$"):
            find_accepting_lasso(gba)
        assert time.perf_counter() - start < 1.0
        assert gba.sides == 5

    def test_state_cap_is_exact(self):
        """A query whose exploration expands n tableau sides is decided under
        cap n, with the same answer, and refused under n - 1; so is the
        expansion of its whole automaton, where each distinct (old, next)
        pair is one transition shared by every class that has it."""
        rng = random.Random(12)
        for _ in range(50):
            f = to_nnf(small_formula(rng, ["p", "q", "r"], 6))
            gba = build_gba(f)
            result = find_accepting_lasso(gba)
            n = gba.sides
            assert find_accepting_lasso(build_gba(f, state_cap=n)) == result
            full = _explored(build_gba(f))
            m = full.sides
            assert len(full.pairs) == len({id(t) for cls in full.states for t in cls.succ})
            assert _explored(build_gba(f, state_cap=m)).pairs == full.pairs
            assert n <= m
            if n:
                with pytest.raises(EngineLimitError):
                    find_accepting_lasso(build_gba(f, state_cap=n - 1))
                with pytest.raises(EngineLimitError):
                    _explored(build_gba(f, state_cap=m - 1))

    def test_every_state_reachable_from_initial(self):
        """The premise of the lasso's prefix search, which keeps to the keys of
        ``explored``: after each of 50 lasso searches, of seeded f and of the
        Unsat ``f & !F f`` in turn, a walk from ``gba.root`` over the built
        transitions that enters only keys of ``gba.explored`` reaches every
        key."""
        rng = random.Random(11)
        verdicts = []
        for i in range(50):
            f = small_formula(rng, ["p", "q", "r"], 6)
            gba = build_gba(to_nnf(And(f, Not(Eventually(f))) if i % 2 else f))
            verdicts.append(find_accepting_lasso(gba).is_sat)
            seen = {gba.root}
            frontier = [gba.root]
            while frontier:
                for _, _, w in gba.explored[frontier.pop()]:
                    if w in gba.explored and w not in seen:
                        seen.add(w)
                        frontier.append(w)
            assert seen == set(gba.explored)
        assert verdicts[1::2] == [False] * 25 and all(verdicts[::2])

    def test_no_state_guard_holds_an_atom_and_its_negation(self):
        rng = random.Random(13)
        for _ in range(200):
            for pos, neg in _guards(build_gba(to_nnf(small_formula(rng, ["p", "q", "r"], 8)))):
                assert not pos & neg

    def test_inconsistent_obligations_yield_no_state(self):
        """FALSE, or x with !x (also nested under &), kills the whole obligation
        set, and so does each of them under ``X``: every side of the root
        class asks for it next.  Built in NNF by hand, as ``to_nnf`` would
        fold ``g & false`` to ``false`` before the tableau sees it."""
        rng = random.Random(14)
        names = ["p", "q", "r"]
        for _ in range(200):
            g = to_nnf(small_formula(rng, names, 6))
            h = to_nnf(small_formula(rng, names, 4))
            x = Atom(rng.choice(names))
            for dead in (FALSE, And(x, Not(x)), And(Not(x), And(h, x))):
                for f in (And(g, dead), And(g, Next(dead))):
                    assert [cls.succ for cls in _explored(build_gba(f)).states] == [[]]

    def test_clashing_next_obligations_give_no_transition(self):
        """``X a & X !a``: the root class's closure puts both literals into
        ``next``, so its one side is never built and the root has no
        transition."""
        gba = build_gba(to_nnf(parse_formula("X a & X !a")))
        assert _succ(gba, gba.root) == []
        assert gba.sides == 0
        assert find_accepting_lasso(gba) is UNSAT

    def test_no_transition_leads_to_a_dead_class(self):
        """Over seeded random formulas, some of them ``f & X g`` with g a
        negated subformula of f, no transition of the whole automaton leads
        to a class whose obligations' ``must`` bits clash, and the
        engine agrees with the brute oracle: Sat wherever a lasso of at most
        2 + 2 positions is a model, and every witness a model."""
        rng = random.Random(27)
        shapes = [(p, l) for p in range(3) for l in range(1, 3)]
        mismatches = unsound = sat = targets = 0
        for _ in range(300):
            f = small_formula(rng, ["p", "q", "r"], 7)
            for h in (f, And(f, Next(Not(rng.choice(postorder(f)))))):
                gba = _explored(build_gba(to_nnf(h)))
                for cls in gba.states:
                    for _, _, w in cls.succ:
                        need = 0
                        for g in engine._ids(w):
                            need |= gba.must[g]
                        assert not need >> gba.width & need, print_formula(h)
                        targets += 1
                result = find_accepting_lasso(gba)
                sat += result.is_sat
                unsound += result.is_sat and not eval_formula(result.witness, h, 0)
                hit = next((r for r in (bounded_sat(h, *s) for s in shapes) if r.is_sat), None)
                mismatches += hit is not None and not result.is_sat
        assert (mismatches, unsound) == (0, 0)
        assert 300 < sat < 590 and targets > 1000

    def test_deterministic_construction(self):
        f = to_nnf(dependence_query(INTRO_PHI, ["w"], ["t", "v", "z"]))
        g1, g2 = _explored(build_gba(f)), _explored(build_gba(f))
        assert [c.succ for c in g1.states] == [c.succ for c in g2.states]
        assert (g1.nodes, g1.full, g1.pairs, g1.sides) == (g2.nodes, g2.full, g2.pairs, g2.sides)


# SHA-256, per spec, of every automaton ``partition`` builds for it, with
# every class expanded in full (``_DigestingSolver``).  It holds across a
# change of the tableau's representation that keeps every class and
# transition, and moves when a tableau rule adds or drops a transition, or
# when a witness leads ``partition`` to other queries.
AUTOMATON_DIGESTS = {
    "chain3": "32e4e6db86f4fd98f80c4d6a20a2a8773defecda983bf7d831a1a206b6ff05fc",
    "corpus": "7a929ada32dd5af1549b74ebd9c541bd2f02977dc12f8746e67c13e8293fba3c",
    "intro": "a501e239b2810e8fb4d8e1fc8bc6882daac0b8d2dff660b5a48ff1496eedd97e",
    "not_ind": "5af63872e6e86451cb45119ba733c9fcfcd05bbd003cae5eed4e4261fce8bf6e",
    "pair": "fc1b6bb31301697ba9fd7e689d07dba915b8766a395b1d0505c7e3ad5e080065",
    "resp3": "efb91cb03adf3e39942e7f60195f35aa8ed255eda45cdc44f41273b9f65414ce",
    "surprise": "72d20a82dff3b0e39b9a97522cbc258d123ad46a8e2e0d5a9b127ae7743db1ed",
    "tail": "24036498a4579f9480a22c7efd6c4161c942227252de391c852f2eeddd9bd287",
    "triple": "2de5f54ed07633badaa405ab20515b7601d837c4aeabbf62aee0958b6d0e163b",
}


class _DigestingSolver:
    """Answers each query from its automaton and hashes every class transition,
    each target as its class's position in ``gba.explored``."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def solve(self, f):
        gba = _explored(build_gba(to_nnf(f)))
        position = {v: i for i, v in enumerate(gba.explored)}
        for cls in gba.states:
            self.digest.update(repr([([print_formula(g) for g in gba.literals(guard)], acc,
                                      position[w]) for guard, acc, w in cls.succ]).encode())
        self.digest.update(repr((gba.full, len(gba.pairs))).encode())
        result = find_accepting_lasso(gba)
        assert not result.is_sat or eval_formula(result.witness, f, 0)
        return result


# Specs beyond the fixtures: a response chain, and three disjoint responses.
EXTRA_SPECS = {
    "chain3": (["p"], ["a0", "a1", "a2"],
               "G((p -> X a0) & (a0 -> X a1) & (a1 -> X a2))"),
    "resp3": (["p0", "p1", "p2"], ["a0", "a1", "a2"],
              "G(p0 -> X a0) & G(p1 -> X a1) & G(p2 -> X a2)"),
}


# Raw draws of ``random_spec(random.Random(20240817))``, numbered as in
# ``bench/specs.py``, pinned as one digest.  Draws 51, 52, 17, 54 and 98
# have the most tableau sides that can only die (their partitions expand
# 148,004 to 20,286 sides without the literal clash check); draw 99 is
# pinned as well.  None of them reaches the 30,000-state cap.
CORPUS_DRAWS = (17, 51, 52, 54, 98, 99)


def _pinned_specs(name):
    if name == "corpus":
        rng = random.Random(20240817)
        draws = [random_spec(rng) for _ in range(max(CORPUS_DRAWS) + 1)]
        return [draws[i] for i in CORPUS_DRAWS]
    if name in EXTRA_SPECS:
        env, sys_, formula = EXTRA_SPECS[name]
        return [make_spec(env, sys_, parse_formula(formula))]
    return [fixture_spec(name)]


@pytest.mark.parametrize("name", [*sorted(FIXTURES), *EXTRA_SPECS, "corpus"])
def test_partition_automata_are_pinned(name):
    """The tableau of every partition query is the one it has always been.

    Speed-ups of the tableau must keep every automaton identical: with
    every class expanded breadth-first from the root, classes in the same
    order, with the same transitions (guard, acceptance bits, target as a
    position in that order) and the same
    number of distinct (old, next) pairs.  A change meant to alter automata
    updates these digests and names, in CHANGES.md, the witnesses that
    changed.
    """
    solver = _DigestingSolver()
    for spec in _pinned_specs(name):
        partition(spec, solver)
    assert solver.digest.hexdigest() == AUTOMATON_DIGESTS[name]


# SHA-256 of the printed query log and verdicts of every ``partition`` run
# over the fixtures, the extra specs and the pinned corpus draws.
# It reads no automaton and no witness, so it holds across changes of the
# engine's representation that keep every query and verdict.
QUERY_LOG_DIGEST = "5e785d1605a744bd8138696be09ca80abd6ecbab0a8fcca0ffcd7599ca05f6d7"


def test_partition_query_logs_are_pinned():
    digest = hashlib.sha256()
    for name in [*sorted(FIXTURES), *EXTRA_SPECS, "corpus"]:
        for spec in _pinned_specs(name):
            for q in partition(spec).query_log:
                digest.update(f"{q.verdict} {print_formula(q.formula)}\n".encode())
    assert digest.hexdigest() == QUERY_LOG_DIGEST


# SHA-256 of the blocks, in order, and the printed query log and verdicts of
# ``partition`` at cap 30,000 for all 201 raw draws of the corpus seeds
# 20240817 and 7; a draw that runs out of budget (draw 93 of the first seed)
# is one ``LIMIT`` line.  A witness with another first disagreeing variable
# moves it, as the block then grows in another order, through other queries.
WHOLE_CORPUS_DIGEST = "699a7e6ac5998248c0863e752aa14ef3a23d2cf29eb7216a3da5033947213ea2"


def test_whole_corpus_partitions_are_pinned():
    """A change of the engine that keeps every verdict and every first
    disagreeing variable keeps the blocks and the query sequence of every
    corpus draw."""
    digest = hashlib.sha256()
    solver = InternalSolver(30_000)
    for seed in (20240817, 7):
        rng = random.Random(seed)
        for i in range(201):
            spec = random_spec(rng)
            try:
                result = partition(spec, solver)
            except EngineLimitError:
                digest.update(f"{seed} {i} LIMIT\n".encode())
                continue
            digest.update(f"{seed} {i} {[b.vars for b in result.blocks]}\n".encode())
            for q in result.query_log:
                digest.update(f"{q.verdict} {print_formula(q.formula)}\n".encode())
    assert digest.hexdigest() == WHOLE_CORPUS_DIGEST


# Tableau sides of the on-demand walks, summed over every ``partition`` query
# of each spec: the fixtures, chain3, chain4 and resp3 at the default cap, and
# the decided raw draws of each corpus seed at cap 30,000 (draw 93 of seed
# 20240817 ends at the cap and is left out); and the SHA-256 of every witness
# of those queries as ``format_trace`` text, in query order.  Sides are
# exact and do not depend on the host, so the totals measure the tableau's
# work: a change that prunes sides, or lets the walk read other ones, moves
# them, and one that moves a witness moves the digest.
SIDE_TOTALS = {
    "intro": 824, "pair": 6, "triple": 54, "tail": 1_028, "not_ind": 32,
    "surprise": 68, "chain3": 781, "chain4": 5_064, "resp3": 0,
    20240817: 16_021, 7: 3_845,
}
WITNESS_DIGEST = "9848f23f9ffbb83a6e39e5f748bb3e87ff88e780309e5e9d3c6561e4cabee1cb"


class _CountingSolver:
    """Answers each query as ``ltl_sat`` does, counting the sides of its walk
    and keeping each witness's ``format_trace`` text."""

    def __init__(self, state_cap):
        self.state_cap, self.sides, self.witnesses = state_cap, 0, []

    def solve(self, f):
        nnf = to_nnf(f)
        if nnf is FALSE:
            return UNSAT
        gba = build_gba(nnf, self.state_cap)
        result = find_accepting_lasso(gba)
        self.sides += gba.sides
        if result.is_sat:
            assert eval_formula(result.witness, f, 0)
            self.witnesses.append(format_trace(result.witness))
        return result


def test_tableau_sides_and_witnesses_are_pinned():
    """A change of the tableau's representation that keeps its automata
    keeps the work of every walk and every witness."""
    chain4 = make_spec(["p"], ["a0", "a1", "a2", "a3"], parse_formula(
        "G((p -> X a0) & (a0 -> X a1) & (a1 -> X a2) & (a2 -> X a3))"))
    runs = {name: (_pinned_specs(name), engine.DEFAULT_STATE_CAP)
            for name in [*sorted(FIXTURES), *EXTRA_SPECS]}
    runs["chain4"] = [chain4], engine.DEFAULT_STATE_CAP
    for seed in (20240817, 7):
        rng = random.Random(seed)
        runs[seed] = [random_spec(rng) for _ in range(201)], 30_000
    digest = hashlib.sha256()
    totals = {}
    for name, (specs, cap) in runs.items():
        totals[name] = 0
        for spec in specs:
            solver = _CountingSolver(cap)
            try:
                partition(spec, solver)
            except EngineLimitError:
                continue
            totals[name] += solver.sides
            digest.update("".join(f"{w}\n" for w in solver.witnesses).encode())
    assert totals == SIDE_TOTALS
    assert digest.hexdigest() == WITNESS_DIGEST


def test_corpus_draw_93_exceeds_the_corpus_cap():
    """The one raw corpus draw that runs out of budget at 30,000 still does,
    and soon: the cap counts tableau sides, about 0.1 s of work here, where
    a cap on distinct (old, next) pairs let the on-demand walk run for
    several times longer."""
    rng = random.Random(20240817)
    draw = [random_spec(rng) for _ in range(94)][93]
    start = time.perf_counter()
    with pytest.raises(EngineLimitError, match="state cap of 30000$"):
        partition(draw, InternalSolver(30_000))
    assert time.perf_counter() - start < 0.6


def _whole_automaton_accepts(gba):
    """Whether ``gba``, expanded in full, has a class on a cycle whose SCC's
    internal transitions carry every bit of ``full``: per-class reachability
    sets, apart from the engine's walk."""
    reach = {}
    for v in gba.explored:
        seen, stack = set(), [v]
        while stack:
            for _, _, w in gba.explored[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach[v] = seen     # classes reached by one or more transitions
    for v in gba.explored:
        component = {w for w in reach[v] if v in reach[w]}
        bits = 0
        for u in component:
            for _, acc, w in gba.explored[u]:
                bits |= acc if w in component else 0
        if component and bits == gba.full:
            return True
    return False


def test_on_the_fly_answers_match_the_whole_automaton():
    """Building classes only as far as the walk reads them gives the verdict
    of the fully expanded automaton, found apart from the walk, over 500
    seeded random formulas and every partition query of the fixtures; every
    witness satisfies its formula, and the walk often leaves classes unbuilt.
    A witness may differ from a lasso of the whole automaton, as it keeps to
    the transitions the walk built."""
    rng = random.Random(18)
    formulas = [random_formula(rng, ["p", "q", "r"], 4) for _ in range(500)]
    formulas += [q.formula for name in sorted(FIXTURES)
                 for q in partition(fixture_spec(name)).query_log]
    fewer = 0
    for f in formulas:
        nnf = to_nnf(f)
        lazy, full = build_gba(nnf), _explored(build_gba(nnf))
        got = find_accepting_lasso(lazy)
        assert got.is_sat == _whole_automaton_accepts(full), print_formula(f)
        assert not got.is_sat or eval_formula(got.witness, f, 0)
        fewer += len(lazy.states) < len(full.states)
    assert fewer > 50


def test_held_branches_agree_with_the_brute_oracle():
    """Criterion 7's rule on formulas whose tableau sides hold branches: over
    500 seeded draws of f and a subformula g of f, in ``f & g``, ``g | f``,
    ``G(g | f) & F !g`` and ``g U (f & g)``, the engine is Sat wherever a
    lasso of at most 3 + 3 positions is a model, and every witness, the
    engine's or the oracle's, satisfies its formula."""
    rng = random.Random(19)
    shapes = [(p, l) for p in range(4) for l in range(1, 4)]
    mismatches = unsound = sat = 0
    for _ in range(500):
        f = small_formula(rng, ["p", "q", "r"], 6)
        g = rng.choice(postorder(f))
        for h in (And(f, g), Or(g, f), And(Always(Or(g, f)), Eventually(Not(g))),
                  Until(g, And(f, g))):
            engine_result = find_accepting_lasso(build_gba(to_nnf(h)))
            sat += engine_result.is_sat
            unsound += engine_result.is_sat and not eval_formula(engine_result.witness, h, 0)
            hit = next((r for r in (bounded_sat(h, *s) for s in shapes) if r.is_sat), None)
            if hit is not None:
                unsound += not eval_formula(hit.witness, h, 0)
                mismatches += not engine_result.is_sat
    assert (mismatches, unsound) == (0, 0)
    assert 500 < sat < 1900


def test_branches_held_by_a_closure_agree_with_the_brute_oracle():
    """A branch that a pending ``&`` forces counts as held at once: over 300
    seeded draws of f in NNF, g a node of f and h another formula, in
    ``f & (g | h)``, ``f & (h | g)``, ``f & (g U h)`` or ``f & (h U g)``
    built by hand, the engine is Sat wherever a lasso of at most 3 + 3
    positions is a model, and every witness satisfies its formula."""
    rng = random.Random(29)
    shapes = [(p, l) for p in range(4) for l in range(1, 4)]
    mismatches = unsound = sat = 0
    for _ in range(300):
        f = to_nnf(small_formula(rng, ["p", "q", "r"], 7))
        g = rng.choice(postorder(f))
        h = to_nnf(small_formula(rng, ["p", "q", "r"], 4))
        pair = (g, h) if rng.random() < 0.5 else (h, g)
        q = And(f, rng.choice((Or, Until))(*pair))
        result = find_accepting_lasso(build_gba(q))
        sat += result.is_sat
        unsound += result.is_sat and not eval_formula(result.witness, q, 0)
        hit = next((r for r in (bounded_sat(q, *s) for s in shapes) if r.is_sat), None)
        mismatches += hit is not None and not result.is_sat
    assert (mismatches, unsound) == (0, 0)
    assert 100 < sat < 300


@pytest.mark.parametrize("op", [Or, Until, Release, And])
def test_hand_built_x_op_x_is_x(op):
    """``x | x``, ``x U x``, ``x R x`` and ``x & x``, which ``to_nnf`` never
    builds, are read as x when built by hand, not split into two equal sides:
    over 100 seeded NNF formulas x, the root class of ``x op x`` takes as
    many sides and transitions as x's, and in ``x op x``, ``G(p U (x op x))``
    and ``G F (x op x)`` the engine gives the verdict of the same formula
    with x, is Sat wherever a lasso of at most 3 + 3 positions is a model,
    and every witness satisfies its formula.  The nested shapes hold an
    Until whose right side is ``x op x``, so they fail if it is never taken
    as fulfilled."""
    rng = random.Random(31)
    shapes = [(p, l) for p in range(4) for l in range(1, 4)]
    mismatches = unsound = sat = 0
    for _ in range(100):
        x = to_nnf(small_formula(rng, ["p", "q", "r"], 6))
        alone, doubled = build_gba(x), build_gba(op(x, x))
        assert len(_succ(doubled, doubled.root)) == len(_succ(alone, alone.root))
        assert doubled.sides == alone.sides
        for wrap in (lambda y: y, lambda y: Release(FALSE, Until(Atom("p"), y)),
                     lambda y: Release(FALSE, Until(TRUE, y))):
            q = wrap(op(x, x))
            result = find_accepting_lasso(build_gba(q))
            assert find_accepting_lasso(build_gba(wrap(x))).is_sat == result.is_sat
            sat += result.is_sat
            unsound += result.is_sat and not eval_formula(result.witness, q, 0)
            hit = next((r for r in (bounded_sat(q, *s) for s in shapes) if r.is_sat), None)
            mismatches += hit is not None and not result.is_sat
    assert (mismatches, unsound) == (0, 0)
    assert sat > 150


def test_hand_built_until_true_is_met_at_once():
    """An Until whose right side is ``true``, which ``to_nnf`` never builds,
    holds at once when built by hand: ``G(p U true)``, ``G F true``,
    ``G(p U true) & G !p``, ``G(q U (true | true))`` and
    ``G(p U (true & true))`` are Sat, each with a witness that satisfies it."""
    p, q = Atom("p"), Atom("q")
    for f in (Release(FALSE, Until(p, TRUE)), Release(FALSE, Until(TRUE, TRUE)),
              And(Release(FALSE, Until(p, TRUE)), Release(FALSE, Not(p))),
              Release(FALSE, Until(q, Or(TRUE, TRUE))), Release(FALSE, Until(p, And(TRUE, TRUE)))):
        result = find_accepting_lasso(build_gba(f))
        assert result.is_sat and eval_formula(result.witness, f, 0), print_formula(f)


def test_lasso_reads_only_what_the_walk_built(monkeypatch):
    """Over 300 seeded draws of f and g, in the SAT-heavy ``f | g``, ``G F f``
    and ``f U g``, and over 300 UNSAT-heavy ``f & !g``, g a weakening of f
    (``f | h``, ``F f`` or ``h U f``) or a node of it: the engine is Sat
    wherever a lasso of at most 3 + 3 positions is a model, every witness
    satisfies its formula, and the lasso search builds nothing, so
    ``gba.sides`` after ``find_accepting_lasso`` is ``gba.sides`` when the
    walk returned.  Many Sat walks leave a class half built, so the
    lasso's paths must keep to the transitions the walk read."""
    walk, after_walk = engine._accepting_component, []

    def recording(gba):
        found = walk(gba)
        after_walk.append(gba.sides)
        return found

    monkeypatch.setattr(engine, "_accepting_component", recording)
    rng = random.Random(26)
    names = ["p", "q", "r"]
    shapes = [(p, l) for p in range(4) for l in range(1, 4)]
    formulas = []
    for _ in range(300):
        f, g = small_formula(rng, names, 6), small_formula(rng, names, 6)
        formulas += [Or(f, g), Always(Eventually(f)), Until(f, g)]
    for _ in range(300):
        f, h = small_formula(rng, names, 6), small_formula(rng, names, 4)
        g = rng.choice([Or(f, h), Eventually(f), Until(h, f), rng.choice(postorder(f))])
        formulas.append(And(f, Not(g)))
    mismatches = unsound = built = sat = half_built = 0
    for h in formulas:
        nnf = to_nnf(h)
        result = UNSAT
        if nnf is not FALSE:
            gba = build_gba(nnf)
            result = find_accepting_lasso(gba)
            built += gba.sides != after_walk[-1]
            whole = build_gba(nnf)
            half_built += any(len(out) < len(_succ(whole, v)) for v, out in gba.explored.items())
        sat += result.is_sat
        unsound += result.is_sat and not eval_formula(result.witness, h, 0)
        hit = next((r for r in (bounded_sat(h, *s) for s in shapes) if r.is_sat), None)
        if hit is not None:
            unsound += not eval_formula(hit.witness, h, 0)
            mismatches += not result.is_sat
    assert (mismatches, unsound, built) == (0, 0, 0)
    assert sat > 800 and len(formulas) - sat > 200 and half_built > 500


def test_no_automaton_outlives_its_query():
    """A class's suspended expansion refers to its automaton but lives only
    on the walk's stack, so with the cyclic collector off, the automaton of
    a Sat query that leaves a class half built, of an Unsat query and of a
    capped query is freed as soon as its last reference goes."""
    queries = [("G F a & G F b & (p U q)", engine.DEFAULT_STATE_CAP, "SAT"),
               ("F b & G !b", engine.DEFAULT_STATE_CAP, "UNSAT"),
               (" & ".join(f"(a{i} | b{i})" for i in range(18)), 5, "LIMIT")]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for text, cap, verdict in queries:
            nnf = to_nnf(parse_formula(text))
            gba = build_gba(nnf, cap)
            alive = weakref.ref(gba)
            try:
                got = "SAT" if find_accepting_lasso(gba).is_sat else "UNSAT"
            except EngineLimitError:
                got = "LIMIT"
            assert got == verdict
            if got == "SAT":
                whole = build_gba(nnf)
                assert any(len(out) < len(_succ(whole, v)) for v, out in gba.explored.items())
            del gba
            assert alive() is None, text
    finally:
        if enabled:
            gc.enable()


def test_corpus_draw_51_explores_few_classes():
    """Draw 51's second partition query is SAT within its first classes: the
    walk expands 2 of the 24 classes of its whole automaton (33 before
    ``cover`` dropped the sides whose next obligations clash)."""
    rng = random.Random(20240817)
    draw = [random_spec(rng) for _ in range(52)][51]
    f = to_nnf(partition(draw).query_log[1].formula)
    gba = build_gba(f)
    assert find_accepting_lasso(gba).is_sat
    assert (len(gba.states), len(_explored(build_gba(f)).states)) == (2, 24)


class TestFindAcceptingLasso:
    def test_empty_automaton(self):
        gba = build_gba(to_nnf(parse_formula("a & !a")))
        assert find_accepting_lasso(gba) is UNSAT

    def test_always_a(self):
        res = find_accepting_lasso(build_gba(to_nnf(parse_formula("G a"))))
        assert res.is_sat
        assert res.witness == lasso([], [state("a")])

    def test_eventually_but_never(self):
        res = find_accepting_lasso(build_gba(to_nnf(parse_formula("F b & G !b"))))
        assert res is UNSAT

    def test_surprise_query_sat(self):
        phi = parse_formula("F ((p -> ((a | b) & c)) & (!p -> !c))")
        q = dependence_query(phi, ["a", "b"], ["c"])
        res = find_accepting_lasso(build_gba(to_nnf(q)))
        assert res.is_sat
        assert eval_formula(res.witness, q, 0)


class TestLtlSat:
    def test_true_has_empty_model(self):
        """The root class ({true}) steps to the empty class, which loops: one
        empty letter into the cycle."""
        res = ltl_sat(parse_formula("true"))
        assert res.is_sat
        assert res.witness == lasso([state()], [state()])

    def test_pair_query_unsat(self):
        phi = parse_formula("F (p -> X(a & b)) & G !b")
        assert ltl_sat(dependence_query(phi, ["a"], ["b"])) is UNSAT

    def test_intro_query_sat_with_sound_witness(self):
        q = dependence_query(INTRO_PHI, ["w"], ["t", "v", "z"])
        res = ltl_sat(q)
        assert res.is_sat
        assert eval_formula(res.witness, q, 0)

    def test_deterministic_witness(self):
        q = dependence_query(INTRO_PHI, ["w"], ["t", "v", "z"])
        assert ltl_sat(q).witness == ltl_sat(q).witness

    def test_nnf_invariance(self):
        rng = random.Random(9)
        for _ in range(60):
            f = small_formula(rng, ["p", "q"], 6)
            assert ltl_sat(f).is_sat == ltl_sat(to_nnf(f)).is_sat


SERVE = [sys.executable, "-c",
         "import sys; from ltlsplit.engine import serve_stdin_queries; "
         "serve_stdin_queries(sys.stdin, sys.stdout)"]


def fake_solver(script: str) -> ExternalSolver:
    return ExternalSolver([sys.executable, "-c", script])


def pid_logging_serve(pid_file) -> list[str]:
    """A self-hosted child that first writes its pid to ``pid_file``."""
    return [sys.executable, "-c",
            f"import os; open({str(pid_file)!r}, 'w').write(str(os.getpid())); " + SERVE[2]]


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a process, a zombie included; a reaped child does not."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestExternalSolver:
    def test_self_hosted_sat(self):
        res = ExternalSolver(SERVE).solve(parse_formula("a U b"))
        assert res.is_sat
        assert eval_formula(res.witness, parse_formula("a U b"), 0)

    def test_self_hosted_unsat(self):
        assert ExternalSolver(SERVE).solve(parse_formula("a & !a")) is UNSAT

    def test_self_hosted_partition_agrees(self):
        from ltlsplit import make_spec, partition
        spec = make_spec(["p"], ["t", "v", "w", "z"], INTRO_PHI)
        internal = partition(spec, InternalSolver()).block_sets()
        external = partition(spec, ExternalSolver(SERVE)).block_sets()
        assert internal == external

    def test_child_failure(self):
        with pytest.raises(ExternalSolverError, match="exited"):
            fake_solver("import sys; sys.exit(3)").solve(parse_formula("a"))

    def test_child_crash_reports_last_stderr_line(self):
        with pytest.raises(ExternalSolverError) as info:
            fake_solver("raise RuntimeError('boom')").solve(parse_formula("a"))
        assert str(info.value) == "external solver: exited with 1: RuntimeError: boom"

    def test_no_output(self):
        with pytest.raises(ExternalSolverError, match="no output"):
            fake_solver("pass").solve(parse_formula("a"))

    def test_a_command_that_cannot_start_fails_every_call(self):
        # The stderr file is closed on the way out: a leak would be a
        # ResourceWarning, which the suite treats as an error.
        solver = ExternalSolver(["/nonexistent/solver"])
        for _ in range(2):
            with pytest.raises(ExternalSolverError, match="^external solver: failed to run: "):
                solver.solve(TRUE)
            assert solver._child is None

    def test_limit_reply_raises_engine_limit(self):
        with pytest.raises(EngineLimitError, match="external solver: out of states"):
            fake_solver("print('LIMIT'); print('out of states')").solve(parse_formula("a"))

    def test_error_reply_raises_external_solver_error(self):
        with pytest.raises(ExternalSolverError, match="^external solver: no parse$"):
            fake_solver("print('ERROR'); print('no parse')").solve(parse_formula("a"))

    def test_serve_answers_error_and_goes_on(self):
        proc = subprocess.run(SERVE, input="a &\na\n", capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "ERROR", "1:4: expected a formula, found 'end of input'", "SAT", "{a} | {}"]

    def test_serve_answers_error_on_unsound_witness(self, monkeypatch):
        monkeypatch.setattr(engine, "eval_formula", lambda *args: False)
        out = io.StringIO()
        serve_stdin_queries(io.StringIO("a\na & !a\n"), out)
        assert out.getvalue().splitlines() == [
            "ERROR", "internal witness fails self-check for a", "UNSAT"]

    def test_serve_answers_limit_and_goes_on(self):
        out = io.StringIO()
        serve_stdin_queries(io.StringIO("a | b\n\na\n"), out, state_cap=2)
        assert out.getvalue().splitlines() == [
            "LIMIT", "tableau exceeded the state cap of 2", "SAT", "{a} | {}"]

    @pytest.mark.parametrize("reply, error, message", [
        ("LIMIT", EngineLimitError, "external solver: LIMIT without a message"),
        ("ERROR", ExternalSolverError, "external solver: ERROR without a message"),
        ("SAT\n{a} |", ExternalSolverError,
         "external solver: malformed witness: lasso loop must be nonempty"),
    ], ids=["limit", "error", "empty-loop"])
    def test_incomplete_reply_ends_the_child(self, reply, error, message):
        solver = fake_solver(f"print({reply!r})")
        with pytest.raises(error) as info:
            solver.solve(parse_formula("a"))
        assert type(info.value) is error
        assert str(info.value) == message
        assert solver._child is None

    def test_blank_lines_in_a_reply_are_skipped(self):
        solver = fake_solver("print('SAT'); print(); print('   '); print('| {a}')")
        assert solver.solve(parse_formula("a")) == SatResult(lasso([], [{Atom("a")}]))
        solver.close()

    def test_malformed_verdict(self):
        with pytest.raises(ExternalSolverError, match="verdict"):
            fake_solver("print('MAYBE')").solve(parse_formula("a"))

    def test_sat_missing_witness(self):
        with pytest.raises(ExternalSolverError, match="missing"):
            fake_solver("print('SAT')").solve(parse_formula("a"))

    def test_unsound_witness_rejected(self):
        with pytest.raises(ExternalSolverError, match="does not satisfy"):
            fake_solver("print('SAT'); print('| {b}')").solve(parse_formula("G a"))

    def test_malformed_witness(self):
        for witness in ["not a trace", "| {a b}", "| {a''}", "|{a}|{b}"]:
            with pytest.raises(ExternalSolverError, match="malformed witness"):
                fake_solver(f"print('SAT'); print({witness!r})").solve(parse_formula("a"))

    def test_output_not_utf8(self):
        with pytest.raises(ExternalSolverError, match="not UTF-8"):
            fake_solver("import sys; sys.stdout.buffer.write(bytes([255, 254]) + b'\\n')"
                        ).solve(parse_formula("a"))

    def test_one_child_serves_a_whole_partition(self, tmp_path):
        log = tmp_path / "starts.log"
        code = f"open({str(log)!r}, 'a').write('1\\n'); " + SERVE[2]
        with ExternalSolver([sys.executable, "-c", code]) as solver:
            result = partition(make_spec(["p"], ["t", "v", "w", "z"], INTRO_PHI), solver)
        assert result.query_count == 6
        assert log.read_text().splitlines() == ["1"]

    def test_garbage_collection_reaps_the_child(self, tmp_path):
        solver = ExternalSolver(pid_logging_serve(tmp_path / "pid"))
        assert solver.solve(parse_formula("a")).is_sat
        del solver
        gc.collect()
        assert not pid_alive(int((tmp_path / "pid").read_text()))

    def test_interpreter_exit_reaps_the_child(self, tmp_path):
        script = ("import sys; from ltlsplit import ExternalSolver, parse_formula; "
                  f"ExternalSolver({pid_logging_serve(tmp_path / 'pid')!r})"
                  ".solve(parse_formula('a'))")
        subprocess.run([sys.executable, "-c", script], check=True, timeout=60)
        assert not pid_alive(int((tmp_path / "pid").read_text()))

    @pytest.mark.parametrize("wait_for_exit", [False, True], ids=["exiting", "gone"])
    def test_one_shot_child_fails_its_second_query(self, wait_for_exit):
        solver = fake_solver("input(); print('UNSAT')")
        assert solver.solve(parse_formula("a")) is UNSAT
        if wait_for_exit:
            solver._child[0].wait(timeout=10)
        with pytest.raises(ExternalSolverError, match="no output"):
            solver.solve(parse_formula("a"))

    def test_silent_child_times_out(self, monkeypatch):
        monkeypatch.setattr("ltlsplit.external.REPLY_TIMEOUT_S", 0.5)
        solver = fake_solver("import time; input(); time.sleep(60)")
        start = time.perf_counter()
        with pytest.raises(ExternalSolverError, match="^external solver: no answer within 0.5 s$"):
            solver.solve(parse_formula("a"))
        assert time.perf_counter() - start < 30
        assert solver._child is None

    @pytest.mark.parametrize("reply, query, message", [
        ("MAYBE", "a", "malformed verdict"),
        ("SAT\n| {b}", "G a", "does not satisfy"),
    ], ids=["malformed", "unsound"])
    def test_fresh_child_after_a_protocol_violation(self, tmp_path, reply, query, message):
        log = tmp_path / "starts.log"
        code = (f"log = open({str(log)!r}, 'a+'); log.write('1\\n'); log.seek(0); "
                f"print({reply!r}) if len(log.readlines()) == 1 else None; "
                "log.close(); " + SERVE[2])
        solver = ExternalSolver([sys.executable, "-c", code])
        with pytest.raises(ExternalSolverError, match=message):
            solver.solve(parse_formula(query))
        assert solver.solve(parse_formula("a U b")).is_sat
        solver.close()
        assert log.read_text().splitlines() == ["1", "1"]

    def test_command_string_split(self):
        solver = ExternalSolver("solver --flag arg")
        assert solver.command == ["solver", "--flag", "arg"]

    def test_empty_command_rejected(self):
        with pytest.raises(ValueError):
            ExternalSolver("  ")
