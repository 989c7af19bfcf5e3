"""Partitioning algorithm, dependent-variable growth, and audits."""

import itertools

import pytest

from ltlsplit import (
    EngineLimitError,
    InternalSolver,
    SatResult,
    UNSAT,
    check_independent,
    dependence_query,
    lock_conjunct,
    make_spec,
    parse_formula,
    partition,
    state,
    verify_partition,
)
from ltlsplit.decompose import (
    InvariantViolation,
    _Session,
    look_for_dependent_variables,
)
from helpers import fixture_spec, lasso

SOLVER = InternalSolver()


class ScriptedSolver:
    """Replays canned results; used to pin control paths and fault handling."""

    def __init__(self, results):
        self.results = list(results)
        self.calls = []

    def solve(self, f):
        self.calls.append(f)
        return self.results.pop(0)


class TestCheckIndependent:
    def test_not_ind_a_dependent(self):
        phi = fixture_spec("not_ind").formula
        independent, witness = check_independent(phi, ["a"], ["a", "b", "c"], SOLVER)
        assert not independent
        assert witness is not None

    def test_not_ind_bc_dependent(self):
        phi = fixture_spec("not_ind").formula
        independent, _ = check_independent(phi, ["b", "c"], ["a", "b", "c"], SOLVER)
        assert not independent

    def test_pair_a_independent(self):
        phi = fixture_spec("pair").formula
        independent, witness = check_independent(phi, ["a"], ["a", "b"], SOLVER)
        assert independent
        assert witness is None

    def test_empty_w_independent(self):
        phi = parse_formula("G(p -> a)")
        independent, _ = check_independent(phi, [], ["a"], SOLVER)
        assert independent


class TestPartitionFixtures:
    def test_pair(self):
        result = partition(fixture_spec("pair"), SOLVER)
        assert result.block_sets() == {frozenset("a"), frozenset("b")}

    def test_intro(self):
        result = partition(fixture_spec("intro"), SOLVER)
        assert result.block_sets() == {frozenset(["v", "w", "z"]), frozenset(["t"])}

    def test_triple_single_block(self):
        result = partition(fixture_spec("triple"), SOLVER)
        assert result.block_sets() == {frozenset(["a", "b", "c"])}

    def test_not_ind(self):
        result = partition(fixture_spec("not_ind"), SOLVER)
        assert result.block_sets() == {frozenset(["a", "b"]), frozenset(["c"])}

    def test_tail_decouples(self):
        # On every model, a is forced true from the first p-position onward
        # (both disjuncts collapse to G a there), so the formula is
        # equivalent to G(!p -> !d) & G(p -> G a) and the two variables
        # split into singleton blocks.
        result = partition(fixture_spec("tail"), SOLVER)
        assert result.block_sets() == {frozenset(["a"]), frozenset(["d"])}

    def test_empty_sys(self):
        spec = make_spec(["p"], [], parse_formula("G p"))
        result = partition(spec, SOLVER)
        assert result.blocks == []
        assert result.query_count == 0

    def test_singleton_no_solver_call(self):
        spec = make_spec(["p"], ["a"], parse_formula("G(p -> a)"))
        result = partition(spec, SOLVER)
        assert result.block_sets() == {frozenset(["a"])}
        assert result.query_count == 0

    def test_blocks_partition_sys(self):
        for name in ("intro", "pair", "triple", "not_ind", "surprise", "tail"):
            spec = fixture_spec(name)
            result = partition(spec, SOLVER)
            members = [v for b in result.blocks for v in b.vars]
            assert sorted(members) == sorted(spec.sys)

    def test_certificates_resolve_unsat(self):
        result = partition(fixture_spec("intro"), SOLVER)
        for block in result.blocks:
            assert SOLVER.solve(block.certificate) is UNSAT

    def test_query_log_records_verdicts(self):
        result = partition(fixture_spec("pair"), SOLVER)
        assert result.query_count == 1
        record = result.query_log[0]
        assert record.verdict == "UNSAT"
        assert record.witness is None
        assert record.millis >= 0

    def test_lex_order_policy(self):
        result = partition(fixture_spec("intro"), SOLVER, order="lex")
        assert result.block_sets() == {frozenset(["v", "w", "z"]), frozenset(["t"])}

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            partition(fixture_spec("pair"), SOLVER, order="random")


class TestOrderInsensitivity:
    @pytest.mark.parametrize("name", ["pair", "triple", "not_ind", "surprise", "tail"])
    def test_all_permutations(self, name):
        spec = fixture_spec(name)
        expected = partition(spec, SOLVER).block_sets()
        for perm in itertools.permutations(spec.sys):
            permuted = make_spec(spec.env, perm, spec.formula)
            assert partition(permuted, SOLVER).block_sets() == expected

    def test_intro_sampled_permutations(self):
        spec = fixture_spec("intro")
        expected = partition(spec, SOLVER).block_sets()
        for perm in [("z", "t", "v", "w"), ("t", "z", "w", "v"),
                     ("w", "v", "z", "t")]:
            permuted = make_spec(spec.env, perm, spec.formula)
            assert partition(permuted, SOLVER).block_sets() == expected


class TestLookForDependentVariables:
    def test_minimal_control_path(self):
        # a singleton Z whose lock is immediately Unsat, rebuilt query
        # Unsat: exactly two solver calls and W grows by that one z
        phi = parse_formula("G(p -> (a & b))")
        query = dependence_query(phi, ["b"], ["a"])
        solver = ScriptedSolver([UNSAT, UNSAT])
        session = _Session(solver)
        got = look_for_dependent_variables(phi, query, ["a"], ["b"], ["a"], session)
        assert got == ("b", "a")
        assert len(solver.calls) == 2
        assert solver.calls[0] == lock_conjunct(query, "a")
        assert solver.calls[1] == dependence_query(phi, ("b", "a"), ())

    def test_empty_z_after_lock_is_hard_fault(self):
        phi = parse_formula("G(p -> (a & b))")
        query = dependence_query(phi, ["b"], ["a"])
        agreeing = SatResult(lasso([], [state("a", "a'", "b")]))
        solver = ScriptedSolver([agreeing])
        with pytest.raises(InvariantViolation):
            look_for_dependent_variables(phi, query, ["a"], ["b"], ["a"],
                                         _Session(solver))

    def test_empty_z_after_rebuild_is_hard_fault(self):
        phi = parse_formula("G(p -> (a & b & c))")
        query = dependence_query(phi, ["c"], ["a", "b"])
        agreeing = SatResult(lasso([], [state("b", "b'")]))
        solver = ScriptedSolver([UNSAT, agreeing])
        with pytest.raises(InvariantViolation):
            look_for_dependent_variables(phi, query, ["a"], ["c"], ["a", "b"],
                                         _Session(solver))

    def test_intro_from_w(self):
        spec = fixture_spec("intro")
        phi = spec.formula
        query = dependence_query(phi, ["w"], ["t", "v", "z"])
        session = _Session(SOLVER)
        first = session.solve(query)
        assert first.is_sat
        from ltlsplit import compute_z
        z_set = compute_z(first.witness, ["t", "v", "z"])
        got = look_for_dependent_variables(phi, query, z_set, ["w"],
                                           ["t", "v", "z"], session)
        assert set(got) == {"v", "w", "z"}


class TestVerifyPartition:
    def test_intro_full_audit(self):
        spec = fixture_spec("intro")
        result = partition(spec, SOLVER)
        report = verify_partition(spec, result, SOLVER, minimality=True)
        assert report.ok
        big = next(a for a in report.block_audits if len(a.vars) == 3)
        assert len(big.minimality) == 6
        assert all(sub.dependent and sub.witness is not None
                   for sub in big.minimality)

    def test_pair_minimality_vacuous_on_singletons(self):
        spec = fixture_spec("pair")
        result = partition(spec, SOLVER)
        report = verify_partition(spec, result, SOLVER, minimality=True)
        assert report.ok
        assert all(a.minimality == [] for a in report.block_audits)

    def test_not_ind_stated_partition_passes(self):
        # {{a,b},{c}} is sound for this formula: both audit queries solve
        # to Unsat, and the singleton subsets of {a,b} are each dependent
        spec = fixture_spec("not_ind")
        from ltlsplit.decompose import Block, PartitionResult
        stated = PartitionResult(
            [Block(("a", "b"), dependence_query(spec.formula, ("a", "b"), ("c",))),
             Block(("c",), dependence_query(spec.formula, ("c",), ("a", "b")))], [])
        report = verify_partition(spec, stated, SOLVER, minimality=True)
        assert report.ok

    def test_non_minimal_partition_fails_minimality(self):
        spec = fixture_spec("pair")
        from ltlsplit.decompose import Block, PartitionResult
        lumped = PartitionResult(
            [Block(("a", "b"), dependence_query(spec.formula, ("a", "b"), ()))], [])
        report = verify_partition(spec, lumped, SOLVER, minimality=True)
        assert not report.ok
        audit = report.block_audits[0]
        assert audit.sound is True  # the lumped block is still independent
        assert any(not sub.dependent for sub in audit.minimality)

    def test_unsound_block_reported_with_witness(self):
        spec = fixture_spec("not_ind")
        from ltlsplit.decompose import Block, PartitionResult
        wrong = PartitionResult(
            [Block(("a",), dependence_query(spec.formula, ("a",), ("b", "c"))),
             Block(("b", "c"), dependence_query(spec.formula, ("b", "c"), ("a",)))],
            [])
        report = verify_partition(spec, wrong, SOLVER)
        assert not report.ok
        assert all(a.sound is False and a.witness is not None
                   for a in report.block_audits)

    def test_oversized_block_skipped(self):
        spec = fixture_spec("intro")
        result = partition(spec, SOLVER)
        report = verify_partition(spec, result, SOLVER, minimality=True,
                                  max_minimality_block=2)
        big = next(a for a in report.block_audits if len(a.vars) == 3)
        assert big.minimality_skipped
        assert big.minimality == []

    def test_engine_limit_raised(self):
        spec = fixture_spec("intro")
        result = partition(spec, SOLVER)
        tiny = InternalSolver(state_cap=2)
        with pytest.raises(EngineLimitError):
            verify_partition(spec, result, tiny)
