"""AST construction, hash-consing, priming/renaming, and printing."""

import copy
import gc
import pickle
import sys
import threading
import weakref

import pytest

from ltlsplit import (
    FALSE,
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    atoms,
    build_gba,
    dependence_query,
    eval_formula,
    find_accepting_lasso,
    formula,
    lock_conjunct,
    parse_formula,
    print_formula,
    rename_projection,
    to_nnf,
)
from helpers import lasso

PHI_PROJ = parse_formula("G(p -> (a | (b & c))) & F(p -> (d | e)) & F(!p -> !e)")


def A(name, primed=False):
    return Atom(name, primed)


class TestAtoms:
    def test_atoms_exact_set(self):
        f = And(A("a"), Or(A("b", True), Not(A("a"))))
        assert atoms(f) == {A("a"), A("b", True)}

    def test_structural_equality(self):
        assert A("x") == A("x")
        assert A("x") != A("x", True)
        assert hash(A("x")) == hash(Atom("x", False))

    def test_primed_flag_not_suffix(self):
        # "a'" as an atom is the primed flag on base "a", never a name "a'"
        assert A("a", True).base == "a"


class TestRenameProjection:
    def test_projection_example_ab(self):
        got = rename_projection(PHI_PROJ, {"a", "b"})
        want = parse_formula("G(p -> (a' | (b' & c))) & F(p -> (d | e)) & F(!p -> !e)")
        assert got == want

    def test_projection_example_cde(self):
        got = rename_projection(PHI_PROJ, {"c", "d", "e"})
        want = parse_formula("G(p -> (a | (b & c'))) & F(p -> (d' | e')) & F(!p -> !e')")
        assert got == want

    def test_empty_w_is_identity(self):
        assert rename_projection(PHI_PROJ, set()) == PHI_PROJ

    def test_names_not_in_phi_return_phi_itself(self):
        assert rename_projection(PHI_PROJ, {"x", "y"}) is PHI_PROJ

    def test_reprime_rejected(self):
        once = rename_projection(PHI_PROJ, {"a"})
        with pytest.raises(ValueError):
            rename_projection(once, {"a"})

    def test_disjoint_renamings_commute(self):
        f1 = rename_projection(rename_projection(PHI_PROJ, {"a"}), {"b", "c"})
        f2 = rename_projection(rename_projection(PHI_PROJ, {"b", "c"}), {"a"})
        assert f1 == f2

    def test_unprime_inverts(self):
        renamed = rename_projection(PHI_PROJ, {"a", "d", "e"})
        assert formula.map_atoms(renamed, lambda a: Atom(a.base)) == PHI_PROJ

    @pytest.mark.parametrize("text, want", [("a U true", "(a' U true)"),
                                            ("G(a -> false) | b", "(G (a' -> false) | b')")])
    def test_constants_are_kept(self, text, want):
        assert print_formula(rename_projection(parse_formula(text), {"a", "b"})) == want

    def test_atom_set_after_renaming(self):
        w = {"a", "b"}
        got = atoms(rename_projection(PHI_PROJ, w))
        want = {a for a in atoms(PHI_PROJ) if a.base not in w} | {
            A("a", True), A("b", True)}
        assert got == want


class TestLockConjunct:
    def test_shape(self):
        f = lock_conjunct(TRUE, "t")
        assert f == And(TRUE, Always(Iff(A("t"), A("t", True))))

    def test_no_idempotence(self):
        twice = lock_conjunct(lock_conjunct(TRUE, "t"), "t")
        lock = Always(Iff(A("t"), A("t", True)))
        assert twice == And(And(TRUE, lock), lock)


class TestDependenceQuery:
    def test_structure(self):
        phi = parse_formula("G(p -> a) & F b")
        q = dependence_query(phi, ["a"], ["b"])
        assert q == And(rename_projection(phi, ["a"]),
                        And(rename_projection(phi, ["b"]), Not(phi)))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            dependence_query(parse_formula("a"), ["a"], ["a"])

    def test_empty_sets(self):
        phi = parse_formula("a")
        q = dependence_query(phi, [], [])
        assert q == And(phi, And(phi, Not(phi)))


class TestPrinting:
    def test_basic_forms(self):
        assert print_formula(And(A("a"), Not(A("b")))) == "(a & !b)"
        assert print_formula(Always(Implies(A("p"), A("a")))) == "G (p -> a)"
        assert print_formula(A("a", True)) == "a'"
        assert print_formula(TRUE) == "true"
        assert print_formula(FALSE) == "false"

    @pytest.mark.parametrize("text", [
        "a U (b R c)",
        "G((p -> X(v & !t)) & (!p -> X(!v & t)))",
        "!(a <-> b) -> F (x | true)",
        "a & b & c | d",
        "X X a U b",
    ])
    def test_round_trip(self, text):
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) == f

    def test_round_trip_with_primes(self):
        f = rename_projection(parse_formula("G(a -> F b)"), {"a", "b"})
        assert parse_formula(print_formula(f)) == f

    def test_next_of_eventually(self):
        assert print_formula(Next(Eventually(A("a")))) == "X F a"


def _chain(units: list[str], op: str = "&") -> str:
    """The printed right fold ``(u1 op (u2 op ... un))`` of ``units``."""
    return "".join(f"({unit} {op} " for unit in units[:-1]) + units[-1] + ")" * (len(units) - 1)


# Source text, its printed form, and the printed NNF of its negation.  Both
# nest far deeper than the interpreter's default recursion limit of 1,000.
# conj1500 alternates a and X a so that no conjunction is x & x, which
# to_nnf would fold to x: its NNF and automaton stay 1,500 conjuncts deep.
DEEP = {
    "next5000": ("X " * 5000 + "a", "X " * 5000 + "a", "X " * 5000 + "!a"),
    "conj1500": (" & ".join(["a", "X a"] * 750), _chain(["a", "X a"] * 750),
                 _chain(["!a", "X !a"] * 750, "|")),
}


@pytest.mark.parametrize("name", sorted(DEEP))
class TestDeepFormulas:
    """Each formula pass, and ``==``, ``hash`` and ``repr``, work on deep formulas."""

    def test_print_parse_round_trip(self, name):
        source, printed, _ = DEEP[name]
        f = parse_formula(source)
        assert print_formula(f) == printed
        assert parse_formula(printed) == f

    def test_separate_parses_are_one_object(self, name):
        source, printed, _ = DEEP[name]
        f, g = parse_formula(source), parse_formula(source)
        assert f is g
        assert f == g and not f != g
        assert hash(f) == hash(g)
        assert repr(f) == printed

    def test_rename_projection(self, name):
        source, printed, _ = DEEP[name]
        f = parse_formula(source)
        assert rename_projection(f, {"a"}) == parse_formula(printed.replace("a", "a'"))
        assert rename_projection(f, {"b"}) is f

    def test_to_nnf_of_negation(self, name):
        source, _, negated = DEEP[name]
        assert to_nnf(Not(parse_formula(source))) == parse_formula(negated)

    def test_build_gba(self, name):
        f = parse_formula(DEEP[name][0])
        result = find_accepting_lasso(build_gba(to_nnf(f)))
        assert result.is_sat
        assert eval_formula(result.witness, f, 0)

    def test_eval_formula_on_one_state_lasso(self, name):
        f = parse_formula(DEEP[name][0])
        assert eval_formula(lasso([], [{A("a")}]), f, 0)
        assert not eval_formula(lasso([], [set()]), f, 0)

    def test_copies_are_the_node_itself(self, name):
        f = parse_formula(DEEP[name][0])
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(f, protocol)) is f

    def test_dropped_formula_is_freed(self, name):
        def swept_size():
            """Table size right after a sweep, forced by adding atoms that die at once."""
            gc.collect()
            size = len(formula._table)
            for i in range(2 * formula._sweep_at):
                Atom(f"dead{i}")
                if len(formula._table) < size:
                    break
                size = len(formula._table)
            return len(formula._table)

        before = swept_size()
        f = parse_formula(DEEP[name][0])
        derived = [rename_projection(f, {"a"}), to_nnf(Not(f)), dependence_query(f, ["a"], [])]
        root = weakref.ref(f)
        assert swept_size() > before + 1000
        del f, derived
        assert root() is None
        assert swept_size() <= before


class TestUniqueTable:
    def test_equal_formulas_are_one_object(self):
        assert parse_formula("G(p -> a) & F b") is parse_formula("(G (p -> a) & F b)")
        assert Atom("a", 1) is Atom("a", True)
        assert And(A("a"), A("b")) is not And(A("b"), A("a"))
        assert Next(A("a")) is not Always(A("a"))

    def test_copy_and_pickle_return_the_interned_node(self):
        assert copy.copy(PHI_PROJ) is PHI_PROJ
        assert copy.deepcopy(PHI_PROJ) is PHI_PROJ
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(PHI_PROJ, protocol)) is PHI_PROJ
        assert pickle.loads(pickle.dumps(TRUE)) is TRUE
        assert pickle.loads(pickle.dumps(A("a", True))) is A("a", True)

    def test_threads_build_one_object(self):
        texts = [f"G(p{i} -> X (a{i} U b{i})) & F !c{i}" for i in range(600)]
        results = [[] for _ in range(4)]
        threads = [threading.Thread(target=lambda out=out: out.extend(map(parse_formula, texts)))
                   for out in results]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for copies in zip(*results, strict=True):
            assert all(f is copies[0] for f in copies)

    def test_nodes_are_immutable(self):
        f = And(A("a"), A("b"))
        with pytest.raises(AttributeError):
            f.left = A("c")
        with pytest.raises(AttributeError):
            del f.right
        assert f.left is A("a")
