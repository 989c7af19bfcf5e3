"""Partitioning algorithm, its block loop query by query, and audits."""

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
from ltlsplit.decompose import Block, InvariantViolation, PartitionResult
from helpers import FIXTURES, fixture_spec, lasso

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

    def test_query_log_records_verdicts(self):
        result = partition(fixture_spec("pair"), SOLVER)
        assert result.query_count == 1
        record = result.query_log[0]
        assert record.verdict == "UNSAT"
        assert record.witness is None
        assert record.millis >= 0


class TestOrderInsensitivity:
    @pytest.mark.parametrize("name", ["pair", "triple", "not_ind", "surprise", "tail"])
    def test_all_permutations(self, name):
        spec = fixture_spec(name)
        expected = partition(spec, SOLVER).block_sets()
        for perm in itertools.permutations(spec.sys):
            permuted = make_spec(spec.env, perm, spec.formula)
            assert partition(permuted, SOLVER).block_sets() == expected

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_blocks_ordered_by_first_declared_member(self, name):
        # each block starts with the first variable left, so the blocks'
        # first members appear in declaration order
        spec = fixture_spec(name)
        for perm in itertools.islice(itertools.permutations(spec.sys), 6):
            blocks = partition(make_spec(spec.env, perm, spec.formula), SOLVER).blocks
            firsts = [b.vars[0] for b in blocks]
            assert firsts == [v for v in perm if v in firsts]
            assert all(perm.index(b.vars[0]) == min(map(perm.index, b.vars))
                       for b in blocks)

    def test_intro_sampled_permutations(self):
        spec = fixture_spec("intro")
        expected = partition(spec, SOLVER).block_sets()
        for perm in [("z", "t", "v", "w"), ("t", "z", "w", "v"),
                     ("w", "v", "z", "t")]:
            permuted = make_spec(spec.env, perm, spec.formula)
            assert partition(permuted, SOLVER).block_sets() == expected


class TestLookForDependentVariables:
    """The growth step of ``partition``'s block loop, query by query."""

    def test_minimal_control_path(self):
        # {b} against {a} is Sat and the witness disagrees on a; locking a
        # is Unsat, so a joins b, and the rebuilt query of {b,a} is Unsat
        phi = parse_formula("G(p -> (a & b))")
        spec = make_spec(["p"], ["b", "a"], phi)
        query = dependence_query(phi, ["b"], ["a"])
        disagrees = SatResult(lasso([], [state("a")]))
        solver = ScriptedSolver([disagrees, UNSAT, UNSAT])
        result = partition(spec, solver)
        assert result.blocks == [Block(("b", "a"))]
        assert solver.calls == [query, lock_conjunct(query, "a"),
                                dependence_query(phi, ("b", "a"), ())]
        assert [r.verdict for r in result.query_log] == ["SAT", "UNSAT", "UNSAT"]

    def test_locks_build_on_the_latest_query(self):
        # {a} against {b,c}: b is locked, then c on top of it; that chain is
        # Unsat, so c (the last lock) joins a.  The rebuilt {a,c} query
        # locks b alone, b joins, and the query of {a,c,b} is Unsat
        phi = parse_formula("G(p -> (a & b & c))")
        spec = make_spec(["p"], ["a", "b", "c"], phi)
        q0 = dependence_query(phi, ("a",), ("b", "c"))
        q1 = dependence_query(phi, ("a", "c"), ("b",))
        on_b = SatResult(lasso([], [state("b")]))
        on_c = SatResult(lasso([], [state("c")]))
        solver = ScriptedSolver([on_b, on_c, UNSAT, on_b, UNSAT, UNSAT])
        result = partition(spec, solver)
        assert result.blocks == [Block(("a", "c", "b"))]
        assert solver.calls == [q0, lock_conjunct(q0, "b"),
                                lock_conjunct(lock_conjunct(q0, "b"), "c"),
                                q1, lock_conjunct(q1, "b"),
                                dependence_query(phi, ("a", "c", "b"), ())]
        assert solver.results == []

    def test_empty_z_after_lock_is_hard_fault(self):
        phi = parse_formula("G(p -> (a & b))")
        spec = make_spec(["p"], ["b", "a"], phi)
        query = dependence_query(phi, ["b"], ["a"])
        disagrees = SatResult(lasso([], [state("a")]))
        agreeing = SatResult(lasso([], [state("a", "a'", "b")]))
        solver = ScriptedSolver([disagrees, agreeing])
        with pytest.raises(InvariantViolation):
            partition(spec, solver)
        assert solver.calls == [query, lock_conjunct(query, "a")]

    def test_empty_z_after_rebuild_is_hard_fault(self):
        phi = parse_formula("G(p -> (a & b & c))")
        spec = make_spec(["p"], ["c", "a", "b"], phi)
        query = dependence_query(phi, ["c"], ["a", "b"])
        disagrees = SatResult(lasso([], [state("a")]))
        agreeing = SatResult(lasso([], [state("b", "b'")]))
        solver = ScriptedSolver([disagrees, UNSAT, agreeing])
        with pytest.raises(InvariantViolation):
            partition(spec, solver)
        assert solver.calls == [query, lock_conjunct(query, "a"),
                                dependence_query(phi, ("c", "a"), ("b",))]

    def test_intro_from_w(self):
        # with w declared first, its block grows to {w, v, z} through the
        # witnesses; t is left alone and takes no query
        spec = fixture_spec("intro")
        permuted = make_spec(spec.env, ("w", "t", "v", "z"), spec.formula)
        result = partition(permuted, SOLVER)
        assert [set(b.vars) for b in result.blocks] == [{"v", "w", "z"}, {"t"}]
        assert result.blocks[0].vars[0] == "w"
        assert result.query_log[0].formula == dependence_query(
            spec.formula, ["w"], ["t", "v", "z"])
        assert result.query_log[0].verdict == "SAT"
        assert result.query_log[-1].formula == dependence_query(
            spec.formula, result.blocks[0].vars, ["t"])
        assert result.query_log[-1].verdict == "UNSAT"


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
        stated = PartitionResult(
            [Block(("a", "b")), Block(("c",))], [])
        report = verify_partition(spec, stated, SOLVER, minimality=True)
        assert report.ok

    def test_non_minimal_partition_fails_minimality(self):
        spec = fixture_spec("pair")
        lumped = PartitionResult(
            [Block(("a", "b"))], [])
        report = verify_partition(spec, lumped, SOLVER, minimality=True)
        assert (report.sound, report.minimal, report.ok) == (True, False, False)
        audit = report.block_audits[0]
        assert audit.sound is True  # the lumped block is still independent
        assert any(not sub.dependent for sub in audit.minimality)

    def test_unsound_block_reported_with_witness(self):
        spec = fixture_spec("not_ind")
        wrong = PartitionResult(
            [Block(("a",)), Block(("b", "c"))], [])
        report = verify_partition(spec, wrong, SOLVER)
        assert (report.sound, report.minimal, report.ok) == (False, True, False)
        assert all(a.sound is False and a.witness is not None
                   for a in report.block_audits)

    def test_seven_variable_block_fully_audited(self):
        # every nonempty proper subset is audited, however large the block
        spec = make_spec(["p"], list("abcdefg"),
                         parse_formula("G(p -> (a | b | c | d | e | f | g))"))
        result = partition(spec, SOLVER)
        assert result.block_sets() == {frozenset("abcdefg")}
        report = verify_partition(spec, result, SOLVER, minimality=True)
        assert report.ok
        [audit] = report.block_audits
        assert len(audit.minimality) == 2 ** 7 - 2 == 126
        assert len({sub.subset for sub in audit.minimality}) == 126
        assert all(sub.dependent for sub in audit.minimality)

    @pytest.mark.parametrize("blocks, fault", [
        ([("a",)], "missing b"),
        ([("a",), ("b", "a")], "repeated a"),
        ([("a",), ("b",), ("zz",)], "outside sys zz"),
    ], ids=["missing", "repeated", "outside"])
    def test_non_partition_rejected(self, blocks, fault):
        spec = fixture_spec("pair")
        stated = PartitionResult([Block(b) for b in blocks], [])
        with pytest.raises(ValueError, match=fault):
            verify_partition(spec, stated, SOLVER)

    def test_engine_limit_raised(self):
        spec = fixture_spec("intro")
        result = partition(spec, SOLVER)
        tiny = InternalSolver(state_cap=2)
        with pytest.raises(EngineLimitError):
            verify_partition(spec, result, tiny)
