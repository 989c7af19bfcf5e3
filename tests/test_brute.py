"""Bounded enumeration oracle and the finite trace-set algebra."""

import random

import pytest

from ltlsplit import (
    UNSAT,
    dependence_query,
    eval_formula,
    parse_formula,
    state,
)
from brute import (
    EnumerationBudgetError,
    align,
    bounded_sat,
    set_join,
    set_project,
    trace_set,
)
from helpers import lasso


class TestBoundedSat:
    def test_always_a(self):
        res = bounded_sat(parse_formula("G a"), 0, 1)
        assert res.is_sat
        assert res.witness == lasso([], [state("a")])

    def test_contradiction(self):
        assert bounded_sat(parse_formula("a & !a"), 2, 2) is UNSAT

    def test_surprise_query_sat_at_2_1(self):
        phi = parse_formula("F ((p -> ((a | b) & c)) & (!p -> !c))")
        q = dependence_query(phi, ["a", "b"], ["c"])
        res = bounded_sat(q, 2, 1)
        assert res.is_sat
        assert eval_formula(res.witness, q, 0)

    def test_witness_shape(self):
        res = bounded_sat(parse_formula("F a"), 1, 2)
        assert len(res.witness.prefix) == 1
        assert len(res.witness.loop) == 2

    def test_budget_guard(self):
        f = parse_formula("a & b & c & d & e & f1 & g1 & h")  # 8 atoms
        with pytest.raises(EnumerationBudgetError):
            bounded_sat(f, 1, 2)

    def test_loop_required(self):
        with pytest.raises(ValueError):
            bounded_sat(parse_formula("a"), 1, 0)

    def test_bound_shape_sensitivity(self):
        # strict alternation fits only even loop lengths
        f = parse_formula("G (a <-> X !a)")
        assert bounded_sat(f, 0, 1) is UNSAT
        assert bounded_sat(f, 0, 3) is UNSAT
        assert bounded_sat(f, 0, 2).is_sat

    def test_deterministic_first_witness(self):
        f = parse_formula("F a")
        assert bounded_sat(f, 0, 2) == bounded_sat(f, 0, 2)


def ts(env, sys_vars, shape, traces):
    return trace_set(env, sys_vars, shape[0], shape[1], traces)


class TestTraceSet:
    def test_shape_uniformity_enforced(self):
        with pytest.raises(ValueError):
            ts(["p"], ["a"], (0, 1), [lasso([state("p")], [state("a")])])

    def test_alphabet_enforced(self):
        with pytest.raises(ValueError):
            ts(["p"], ["a"], (0, 1), [lasso([], [state("q")])])

    def test_primes_rejected(self):
        with pytest.raises(ValueError):
            ts(["p"], ["a"], (0, 1), [lasso([], [state("a'")])])

    def test_dedup(self):
        t = lasso([], [state("a")])
        assert len(ts([], ["a"], (0, 1), [t, lasso([], [state("a")])]).traces) == 1


class TestSetProject:
    def test_reference_example(self):
        sigma = ts(["p"], ["a", "b", "c"], (0, 1), [lasso([], [state("p", "a", "c")])])
        got = set_project(sigma, {"b", "c"})
        assert got.traces == frozenset([lasso([], [state("p", "c")])])
        assert got.sys_vars == ("b", "c")

    def test_empty_set(self):
        sigma = ts(["p"], ["a"], (0, 1), [])
        assert set_project(sigma, {"a"}).traces == frozenset()

    def test_full_alphabet_identity(self):
        traces = [lasso([], [state("p", "a")]), lasso([], [state("b")])]
        sigma = ts(["p"], ["a", "b"], (0, 1), traces)
        assert set_project(sigma, {"a", "b"}).traces == sigma.traces

    def test_deduplicates(self):
        traces = [lasso([], [state("a")]), lasso([], [state("a", "b")])]
        sigma = ts([], ["a", "b"], (0, 1), traces)
        assert len(set_project(sigma, {"a"}).traces) == 1


class TestSetJoin:
    def test_reference_example(self):
        s1 = ts(["p"], ["b", "c"], (0, 1), [lasso([], [state("p", "c")])])
        s2 = ts(["p"], ["a"], (0, 1), [lasso([], [state("p")])])
        got = set_join(s1, s2)
        assert lasso([], [state("p", "c")]) in got.traces

    def test_empty_right(self):
        s1 = ts(["p"], ["a"], (0, 1), [lasso([], [state("p", "a")])])
        s2 = ts(["p"], ["b"], (0, 1), [])
        assert set_join(s1, s2).traces == frozenset()

    def test_incompatible_env_columns_excluded(self):
        s1 = ts(["p"], ["a"], (0, 1), [lasso([], [state("p", "a")])])
        s2 = ts(["p"], ["b"], (0, 1), [lasso([], [state("b")])])
        assert set_join(s1, s2).traces == frozenset()

    def test_shape_mismatch_rejected(self):
        s1 = ts([], ["a"], (0, 1), [])
        s2 = ts([], ["b"], (0, 2), [])
        with pytest.raises(ValueError):
            set_join(s1, s2)

    def test_align_then_join(self):
        s1 = ts([], ["a"], (0, 2), [lasso([], [state("a"), state()])])
        s2 = ts([], ["b"], (1, 3), [lasso([state("b")], [state(), state("b"), state()])])
        a1, a2 = align(s1, s2)
        assert a1.shape == a2.shape == (1, 6)
        joined = set_join(a1, a2)
        assert len(joined.traces) == 1

    def test_join_with_own_projection_is_identity(self):
        traces = [lasso([state("p")], [state("a", "b")]),
                  lasso([state()], [state("b")])]
        sigma = ts(["p"], ["a", "b"], (1, 1), traces)
        for w in ({"a"}, {"b"}, set(), {"a", "b"}):
            joined = set_join(sigma, set_project(sigma, w))
            assert joined.traces == sigma.traces


def random_trace_set(rng: random.Random, env, sys_vars, shape, max_traces=8):
    names = list(env) + list(sys_vars)
    n = shape[0] + shape[1]
    traces = set()
    for _ in range(rng.randint(0, max_traces)):
        states = [state(*(v for v in names if rng.random() < 0.5))
                  for _ in range(n)]
        traces.add(lasso(states[:shape[0]], states[shape[0]:]))
    return ts(env, sys_vars, shape, traces)


class TestAlgebraProperties:
    """The four join/projection laws, on exhaustive small random instances."""

    shapes = [(0, 1), (1, 1), (2, 2), (0, 2)]

    def test_commutativity_and_associativity(self):
        rng = random.Random(41)
        for i in range(60):
            shape = rng.choice(self.shapes)
            s1 = random_trace_set(rng, ["p"], ["a"], shape)
            s2 = random_trace_set(rng, ["p"], ["b"], shape)
            s3 = random_trace_set(rng, ["p"], ["c"], shape)
            assert set_join(s1, s2).traces == set_join(s2, s1).traces
            assert (set_join(set_join(s1, s2), s3).traces
                    == set_join(s1, set_join(s2, s3)).traces)

    def test_monotonicity(self):
        rng = random.Random(42)
        for i in range(40):
            shape = rng.choice(self.shapes)
            big = random_trace_set(rng, ["p"], ["a"], shape)
            small = ts(big.env, big.sys_vars, shape,
                       [t for t in big.traces if rng.random() < 0.5])
            other = random_trace_set(rng, ["p"], ["b"], shape)
            assert (set_join(small, other).traces
                    <= set_join(big, other).traces)

    def test_idempotency_of_join(self):
        rng = random.Random(43)
        for i in range(40):
            shape = rng.choice(self.shapes)
            sigma = random_trace_set(rng, ["p"], ["a", "b"], shape)
            proj = set_project(sigma, {"a"})
            assert set_join(sigma, proj).traces == sigma.traces
            assert set_join(proj, proj).traces == proj.traces

    def test_projection_distributes_into_join_as_superset(self):
        rng = random.Random(44)
        for i in range(40):
            shape = rng.choice(self.shapes)
            sigma = random_trace_set(rng, ["p"], ["a", "b"], shape)
            pu, pw = set_project(sigma, {"a"}), set_project(sigma, {"b"})
            both = set_project(sigma, {"a", "b"})
            assert both.traces <= set_join(pu, pw).traces

    def test_join_projection_exchange_on_disjoint_columns(self):
        rng = random.Random(45)
        for i in range(40):
            shape = rng.choice(self.shapes)
            s1 = random_trace_set(rng, ["p"], ["a", "b"], shape)
            s2 = random_trace_set(rng, ["p"], ["c", "d"], shape)
            joined = set_join(s1, s2)
            lhs = set_project(joined, {"a", "c"})
            rhs = set_join(set_project(s1, {"a"}), set_project(s2, {"c"}))
            assert lhs.traces == rhs.traces
