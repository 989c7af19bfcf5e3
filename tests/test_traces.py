"""Lasso traces: evaluation, Z extraction, serialization; the oracle's projection."""

import random

import pytest

from ltlsplit import (
    TRUE,
    Atom,
    LassoTrace,
    compute_z,
    eval_formula,
    format_trace,
    parse_formula,
    parse_trace,
    state,
)
from brute import project_lasso, unroll_lasso
from helpers import lasso

PHI_EX1 = parse_formula("G(p -> (a | (b & c))) & F(p -> (d | e)) & F(!p -> !e)")


class TestLassoTrace:
    def test_position_access_is_total(self):
        t = lasso([state("a")], [state("b"), state("c")])
        assert t.state_at(0) == state("a")
        assert t.state_at(1) == state("b")
        assert t.state_at(2) == state("c")
        assert t.state_at(3) == state("b")
        assert t.state_at(101) == state("b")

    def test_loop_nonempty(self):
        with pytest.raises(ValueError):
            LassoTrace((), ())

    def test_unroll_same_word(self):
        t = lasso([state("a")], [state("b"), state("c")])
        u = unroll_lasso(t, 3, 4)
        assert all(t.state_at(i) == u.state_at(i) for i in range(20))

    def test_unroll_rejects_incompatible(self):
        t = lasso([], [state("a"), state("b")])
        with pytest.raises(ValueError):
            unroll_lasso(t, 0, 3)


class TestEval:
    def test_reference_model(self):
        tau = lasso([], [state("p", "a", "d")])
        assert eval_formula(tau, PHI_EX1, 0)

    def test_reference_countermodel(self):
        tau = lasso([state("p", "a"), state("p", "c")], [state("p")])
        phi = parse_formula("F ((p -> ((a | b) & c)) & (!p -> !c))")
        assert not eval_formula(tau, phi, 0)

    def test_true_everywhere(self):
        tau = lasso([], [state()])
        assert eval_formula(tau, TRUE, 0)
        assert eval_formula(tau, TRUE, 7)

    def test_absent_atom_is_false(self):
        tau = lasso([], [state("a")])
        assert not eval_formula(tau, parse_formula("zeta"), 0)

    def test_periodicity(self):
        tau = lasso([state("a")], [state("b"), state()])
        f = parse_formula("b U a | X b")
        for i in range(1, 6):
            assert eval_formula(tau, f, i) == eval_formula(tau, f, i + 2)

    def test_until_expansion_law(self):
        tau = lasso([state("a"), state()], [state("b"), state("a")])
        f = parse_formula("a U b")
        for i in range(8):
            expanded = eval_formula(tau, parse_formula("b"), i) or (
                eval_formula(tau, parse_formula("a"), i)
                and eval_formula(tau, f, i + 1))
            assert eval_formula(tau, f, i) == expanded

    def test_release_dual_of_until(self):
        tau = lasso([state("a")], [state("a", "b"), state()])
        lhs = parse_formula("a R b")
        rhs = parse_formula("!(!a U !b)")
        for i in range(6):
            assert eval_formula(tau, lhs, i) == eval_formula(tau, rhs, i)

    def test_always_eventually_duality(self):
        tau = lasso([], [state("a"), state()])
        assert eval_formula(tau, parse_formula("G F a"), 0)
        assert not eval_formula(tau, parse_formula("F G a"), 0)

    def test_until_and_release_match_their_definitions(self):
        """``a U b`` and ``a R b`` at every position of 500 seeded lassos agree
        with a direct reading of their definitions along the word: from any
        position, every position of the lasso recurs within ``positions``
        steps, so the state that decides each shows within twice that."""
        rng = random.Random(21)
        until, release = parse_formula("a U b"), parse_formula("a R b")
        a, b = Atom("a"), Atom("b")

        def draw(n):
            return [{x for x in (a, b) if rng.random() < 0.5} for _ in range(n)]

        for _ in range(500):
            tau = lasso(draw(rng.randrange(4)), draw(rng.randrange(1, 5)))
            for i in range(tau.positions):
                word = [tau.state_at(i + k) for k in range(2 * tau.positions)]
                # U: the first state with b, or without a, decides; R: the
                # first state without b, or with a.
                want_u = next((b in s for s in word if b in s or a not in s), False)
                want_r = next((b in s for s in word if b not in s or a in s), True)
                assert eval_formula(tau, until, i) == want_u
                assert eval_formula(tau, release, i) == want_r

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            eval_formula(lasso([], [state()]), TRUE, -1)


class TestProjection:
    def test_keep_one(self):
        tau = lasso([], [state("p", "a", "d")])
        got = project_lasso(tau, {"a"}, {"a", "b", "c", "d", "e"})
        assert got == lasso([], [state("p", "a")])

    def test_keep_pair(self):
        tau = lasso([], [state("p", "a", "c")])
        got = project_lasso(tau, {"b", "c"}, {"a", "b", "c"})
        assert got == lasso([], [state("p", "c")])

    def test_full_set_identity(self):
        tau = lasso([state("p", "a")], [state("b")])
        assert project_lasso(tau, {"a", "b"}, {"a", "b"}) == tau

    def test_primes_dropped(self):
        tau = lasso([], [state("p", "a", "a'")])
        got = project_lasso(tau, {"a"}, {"a"})
        assert got == lasso([], [state("p", "a")])

    def test_idempotent(self):
        tau = lasso([state("p", "a", "b")], [state("b", "c")])
        once = project_lasso(tau, {"a"}, {"a", "b", "c"})
        assert project_lasso(once, {"a"}, {"a", "b", "c"}) == once


class TestComputeZ:
    def test_intro_mu(self):
        mu = lasso([state("p", "v'", "t'"), state("v", "v'", "w'", "z'"),
                    state("t", "t'", "z", "z'")],
                   [state("t", "t'", "w", "w'")])
        assert compute_z(mu, ["t", "v", "z"]) == ("t", "v", "z")

    def test_intro_nu(self):
        nu = lasso([state("v"), state("t", "t'", "w'", "z'")],
                   [state("t", "t'", "w", "w'")])
        assert compute_z(nu, ["t", "z"]) == ("z",)

    def test_all_agree(self):
        tau = lasso([], [state("t", "t'"), state()])
        assert compute_z(tau, ["t", "z"]) == ()

    def test_candidate_order_preserved(self):
        tau = lasso([], [state("a", "b'")])
        assert compute_z(tau, ["b", "a"]) == ("b", "a")

    def test_subset_of_candidates(self):
        tau = lasso([], [state("a")])
        assert set(compute_z(tau, ["a", "b"])) <= {"a", "b"}


class TestSerialization:
    def test_format(self):
        tau = lasso([state("p", "a")], [state("p", "t'", "t")])
        assert format_trace(tau) == "{a, p} | {p, t, t'}"

    def test_format_sorts_a_primed_atom_after_its_base_and_before_longer_names(self):
        tau = lasso([], [state("ab", "a_", "a'", "a", "A")])
        assert format_trace(tau) == "| {A, a, a', a_, ab}"

    def test_format_empty_prefix(self):
        tau = lasso([], [state(), state("a")])
        assert format_trace(tau) == "| {} ; {a}"

    def test_round_trip(self):
        tau = lasso([state("p"), state("a", "a'")], [state(), state("b'")])
        assert parse_trace(format_trace(tau)) == tau

    @pytest.mark.parametrize("text", ["", "{a}", "{a ; |", "| a}", "{a} |",
                                      "| {a b}", "| {a''}", "|{a}|{b}", "| {9}"])
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_trace(text)
