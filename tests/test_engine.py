"""Satisfiability engine: NNF, automaton construction, emptiness, oracles."""

import random
import sys

import pytest

from ltlsplit import (
    EngineLimitError,
    ExternalSolver,
    ExternalSolverError,
    InternalSolver,
    Not,
    UNSAT,
    build_gba,
    dependence_query,
    eval_formula,
    find_accepting_lasso,
    lasso,
    ltl_sat,
    parse_formula,
    state,
    to_nnf,
)
from ltlsplit.formula import Until, postorder
from helpers import small_formula

INTRO_PHI = parse_formula(
    "G((p -> X(v & !t)) & (!p -> X(!v & t)) & "
    "(v -> X(!w & z)) & (!v -> X(w & !z)))")


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


class TestBuildGba:
    def test_requires_nnf(self):
        with pytest.raises(ValueError):
            build_gba(parse_formula("!(a & b)"))

    def test_always_a_single_looping_state(self):
        gba = build_gba(to_nnf(parse_formula("G a")))
        assert len(gba.states) == 1
        st = gba.states[0]
        assert st.succ == [0]
        assert st.pos == (parse_formula("a"),)
        assert st.neg == ()

    def test_contradiction_has_no_states(self):
        gba = build_gba(to_nnf(parse_formula("a & !a")))
        assert gba.initial == ()

    def test_guards_consistent(self):
        gba = build_gba(to_nnf(parse_formula("(a U !b) & (b R (a | c))")))
        for st in gba.states:
            assert not set(st.pos) & set(st.neg)

    def test_one_acceptance_set_per_until(self):
        f = to_nnf(parse_formula("(a U b) & F c & G d"))
        untils = {n for n in postorder(f) if isinstance(n, Until)}
        gba = build_gba(f)
        assert len(gba.acceptance) == len(untils) == 2

    def test_state_cap(self):
        with pytest.raises(EngineLimitError):
            build_gba(to_nnf(parse_formula("a | b")), state_cap=1)

    def test_every_state_reachable_from_initial(self):
        rng = random.Random(11)
        for _ in range(50):
            gba = build_gba(to_nnf(small_formula(rng, ["p", "q", "r"], 6)))
            seen = set(gba.initial)
            frontier = list(gba.initial)
            while frontier:
                v = frontier.pop()
                for w in gba.states[v].succ:
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            assert seen == set(range(len(gba.states)))

    def test_deterministic_construction(self):
        f = to_nnf(dependence_query(INTRO_PHI, ["w"], ["t", "v", "z"]))
        g1, g2 = build_gba(f), build_gba(f)
        assert ([(s.pos, s.neg, s.succ) for s in g1.states]
                == [(s.pos, s.neg, s.succ) for s in g2.states])
        assert g1.initial == g2.initial
        assert g1.acceptance == g2.acceptance


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
        res = ltl_sat(parse_formula("true"))
        assert res.is_sat
        assert res.witness == lasso([], [state()])

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

    def test_no_output(self):
        with pytest.raises(ExternalSolverError, match="no output"):
            fake_solver("pass").solve(parse_formula("a"))

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
        with pytest.raises(ExternalSolverError, match="malformed witness"):
            fake_solver("print('SAT'); print('not a trace')").solve(
                parse_formula("a"))

    def test_command_string_split(self):
        solver = ExternalSolver("solver --flag arg")
        assert solver.command == ["solver", "--flag", "arg"]

    def test_empty_command_rejected(self):
        with pytest.raises(ValueError):
            ExternalSolver("  ")
