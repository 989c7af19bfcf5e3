"""The package's public names, its value types, and what importing it loads."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ltlsplit
from ltlsplit import Block, LassoTrace, SatResult, Spec, parse_formula, state
from ltlsplit.decompose import (
    BlockAudit, PartitionResult, QueryRecord, SubsetAudit, VerificationReport,
)

# Modules that only ``@dataclass`` and the external solver's child process
# pulled in; none of them may load with the package or its CLI.
NOT_AT_IMPORT = ("dataclasses", "inspect", "dis", "ast", "tokenize",
                 "subprocess", "selectors", "signal", "shlex")


def test_all_names_import_and_none_is_a_module():
    assert len(set(ltlsplit.__all__)) == len(ltlsplit.__all__)
    for name in ltlsplit.__all__:
        assert not isinstance(getattr(ltlsplit, name), types.ModuleType), name


def test_external_solver_is_exported_on_first_use():
    import ltlsplit.external
    assert ltlsplit.ExternalSolver is ltlsplit.external.ExternalSolver
    assert "ExternalSolver" in ltlsplit.__all__
    with pytest.raises(AttributeError, match="no_such_name"):
        ltlsplit.no_such_name


def _fresh_python(code: str) -> str:
    """The standard output of ``code`` run in a fresh interpreter on this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(ltlsplit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    return proc.stdout


@pytest.mark.parametrize("module", ["ltlsplit", "ltlsplit.cli"])
def test_import_loads_no_dataclass_or_process_machinery(module):
    # Only what the import adds: the host's site imports are already in
    # sys.modules before it.
    added = set(_fresh_python("import sys; before = set(sys.modules); import " + module + "; "
                              "print(*sorted(set(sys.modules) - before))").split())
    assert module in added
    assert not added & set(NOT_AT_IMPORT), sorted(added & set(NOT_AT_IMPORT))


def test_every_module_imports_without_numpy():
    # numpy is for the test oracle only; ltlsplit.external is walked too.
    names = _fresh_python(
        "import importlib, pkgutil, sys, ltlsplit\n"
        "for module in pkgutil.walk_packages(ltlsplit.__path__, 'ltlsplit.'):\n"
        "    importlib.import_module(module.name)\n"
        "    print(module.name)\n"
        "assert 'numpy' not in sys.modules, 'a runtime module imports numpy'\n").split()
    assert "ltlsplit.external" in names and "ltlsplit.cli" in names


# Each value type with a function that builds its fields afresh, so that two
# records built from it are equal but share no field object.
RECORDS = {
    LassoTrace: lambda: ((state("p"),), (state("a"), state("a", "a'"))),
    Spec: lambda: (("p",), ("a", "b"), parse_formula("G(p -> a) & F b")),
    SatResult: lambda: (LassoTrace((), (state("a"),)),),
    Block: lambda: (tuple(["a", "b"]),),
    QueryRecord: lambda: (parse_formula("a U b"), "SAT",
                          LassoTrace((), (state("b"),)), 0.5),
    SubsetAudit: lambda: (tuple(["a"]), True, LassoTrace((), (state("a"),))),
}

# The value types that hold a list, and so cannot hash, built the same way.
LIST_RECORDS = {
    PartitionResult: lambda: ([Block(("a",))],
                              [QueryRecord(parse_formula("a"), "UNSAT", None, 0.5)]),
    BlockAudit: lambda: (("a", "b"), True, None,
                         [SubsetAudit(("a",), True, LassoTrace((), (state("a"),)))]),
    VerificationReport: lambda: ([BlockAudit(("a",), True, None, [])],),
}
ALL_RECORDS = {**RECORDS, **LIST_RECORDS}


class TestRecords:
    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    def test_equal_fields_give_equal_records_and_hashes(self, cls):
        a, b = cls(*RECORDS[cls]()), cls(*RECORDS[cls]())
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("cls", ALL_RECORDS, ids=lambda cls: cls.__name__)
    def test_fields_cannot_be_assigned(self, cls):
        record = cls(*ALL_RECORDS[cls]())
        for name, value in zip(cls._fields, ALL_RECORDS[cls]()):
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == cls(*ALL_RECORDS[cls]())

    def test_a_different_field_or_class_is_unequal(self):
        assert Block(("a",)) != Block(("b",))
        env, sys_ = ("p",), ("a",)
        assert Spec(env, sys_, parse_formula("a")) != Spec(env, sys_, parse_formula("F a"))
        assert Block((None,)) != SatResult(None)

    def test_fields_by_keyword_and_repr(self):
        assert Block(vars=("a",)) == Block(("a",))
        assert LassoTrace(prefix=(), loop=(state("a"),)) == LassoTrace((), (state("a"),))
        assert repr(Block(("a", "b"))) == "Block(vars=('a', 'b'))"
        assert repr(SatResult(None)) == "SatResult(witness=None)"

    @pytest.mark.parametrize("args, kwargs", [((), {}), ((("a",), 1), {}),
                                              ((("a",),), {"vars": ("b",)}),
                                              ((), {"var": ("a",)})],
                             ids=["missing", "extra", "twice", "unknown"])
    def test_wrong_fields_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError, match="__new__"):
            Block(*args, **kwargs)

    def test_a_subclass_keeps_its_parents_fields(self):
        class MyBlock(Block):
            pass

        a, b = MyBlock(("a",)), MyBlock(vars=("a",))
        assert MyBlock._fields == ("vars",)
        assert a == b and hash(a) == hash(b)
        assert repr(a).endswith("MyBlock(vars=('a',))")

    def test_a_subclass_keeps_a_written_out_init(self):
        class MyTrace(LassoTrace):
            pass

        with pytest.raises(ValueError, match="loop must be nonempty"):
            MyTrace((), ())
        assert MyTrace((), (state("a"),)).loop == (state("a"),)

    def test_positional_match(self):
        trace = LassoTrace((state("p"),), (state("a"),))
        match SatResult(trace):
            case SatResult(witness):
                pass
        match Block(("a", "b")):
            case Block(names):
                pass
        match trace:
            case LassoTrace(prefix, loop):
                pass
        assert witness is trace
        assert names == ("a", "b")
        assert (prefix, loop) == ((state("p"),), (state("a"),))

    def test_records_are_frozen_and_hash_by_their_fields(self):
        record = QueryRecord(parse_formula("a"), "UNSAT", None, 0.5)
        with pytest.raises(AttributeError):
            record.millis = 1.0
        assert hash(record) == hash(QueryRecord(parse_formula("a"), "UNSAT", None, 0.5))
        # A record that holds a list refuses assignment but cannot hash,
        # as a frozen dataclass that holds a list cannot.
        result = PartitionResult([Block(("a",))], [record])
        with pytest.raises(AttributeError):
            result.blocks = []
        with pytest.raises(TypeError):
            hash(result)
