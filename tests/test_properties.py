"""Property-based tests over random formulas and traces."""

from hypothesis import given, settings, strategies as st

from ltlsplit import (
    Always,
    And,
    Atom,
    Eventually,
    Iff,
    Implies,
    LassoTrace,
    Next,
    Not,
    Or,
    Release,
    Until,
    atoms,
    compute_z,
    eval_formula,
    format_trace,
    parse_formula,
    parse_trace,
    print_formula,
    rename_projection,
    to_nnf,
)
from ltlsplit.formula import map_atoms
from brute import project_lasso, unroll_lasso

NAMES = ("p", "q", "r")

leaf = st.sampled_from([Atom(n) for n in NAMES])
formulas = st.recursive(
    leaf,
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Next, sub),
        st.builds(Always, sub),
        st.builds(Eventually, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Iff, sub, sub),
        st.builds(Until, sub, sub),
        st.builds(Release, sub, sub),
    ),
    max_leaves=8)

states = st.frozensets(st.sampled_from([Atom(n) for n in NAMES]), max_size=3)
traces = st.builds(
    LassoTrace,
    st.lists(states, max_size=3).map(tuple),
    st.lists(states, min_size=1, max_size=3).map(tuple))

zstates = st.frozensets(
    st.sampled_from([Atom("z"), Atom("z", True), Atom("p")]), max_size=3)
ztraces = st.builds(
    LassoTrace,
    st.lists(zstates, max_size=2).map(tuple),
    st.lists(zstates, min_size=1, max_size=3).map(tuple))


@settings(max_examples=200, deadline=None)
@given(formulas)
def test_print_parse_round_trip(f):
    assert parse_formula(print_formula(f)) == f


@settings(max_examples=100, deadline=None)
@given(formulas, st.sets(st.sampled_from(NAMES)))
def test_unprime_inverts_renaming(f, w):
    assert map_atoms(rename_projection(f, w), lambda a: Atom(a.base)) == f


@settings(max_examples=100, deadline=None)
@given(formulas, st.sets(st.sampled_from(NAMES)))
def test_renamed_atom_set(f, w):
    got = atoms(rename_projection(f, w))
    want = {a for a in atoms(f) if a.base not in w} | {
        Atom(a.base, True) for a in atoms(f) if a.base in w}
    assert got == want


@settings(max_examples=200, deadline=None)
@given(traces, formulas)
def test_nnf_preserves_evaluation(tau, f):
    assert eval_formula(tau, f, 0) == eval_formula(tau, to_nnf(f), 0)


@settings(max_examples=150, deadline=None)
@given(traces, formulas, st.integers(0, 8))
def test_eval_periodicity(tau, f, k):
    i = len(tau.prefix) + k
    assert eval_formula(tau, f, i) == eval_formula(tau, f, i + len(tau.loop))


@settings(max_examples=150, deadline=None)
@given(traces, formulas, formulas, st.integers(0, 5))
def test_until_expansion_law(tau, f, g, i):
    whole = Until(f, g)
    expanded = eval_formula(tau, g, i) or (
        eval_formula(tau, f, i) and eval_formula(tau, whole, i + 1))
    assert eval_formula(tau, whole, i) == expanded


@settings(max_examples=150, deadline=None)
@given(traces, formulas, formulas, st.integers(0, 5))
def test_release_is_dual_of_until(tau, f, g, i):
    lhs = eval_formula(tau, Release(f, g), i)
    rhs = not eval_formula(tau, Until(Not(f), Not(g)), i)
    assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(traces, st.sets(st.sampled_from(NAMES)))
def test_projection_idempotent(tau, keep):
    once = project_lasso(tau, keep, NAMES)
    assert project_lasso(once, keep, NAMES) == once


@settings(max_examples=100, deadline=None)
@given(ztraces)
def test_compute_z_subset_of_candidates(tau):
    assert set(compute_z(tau, ["z", "p"])) <= {"z", "p"}


@settings(max_examples=200, deadline=None)
@given(ztraces)
def test_locked_variable_never_in_z(tau):
    lock = Always(Iff(Atom("z"), Atom("z", True)))
    if eval_formula(tau, lock, 0):
        assert "z" not in compute_z(tau, ["z"])


@settings(max_examples=100, deadline=None)
@given(traces)
def test_trace_serialization_round_trip(tau):
    assert parse_trace(format_trace(tau)) == tau


@settings(max_examples=100, deadline=None)
@given(traces, st.integers(0, 2), st.integers(1, 3))
def test_unroll_preserves_word(tau, extra_prefix, factor):
    u = unroll_lasso(tau, len(tau.prefix) + extra_prefix, len(tau.loop) * factor)
    assert all(tau.state_at(i) == u.state_at(i) for i in range(12))
