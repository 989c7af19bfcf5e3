"""Command-line behavior: flags, output formats, exit codes, evidence logs."""

import io
import json
import os
import random
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ltlsplit
from ltlsplit import InternalSolver, cli
from ltlsplit.cli import EXIT_AUDIT, EXIT_ENGINE, EXIT_INPUT, EXIT_OK, main
from ltlsplit.decompose import InvariantViolation
from ltlsplit.engine import DEFAULT_STATE_CAP, WitnessSoundnessError
from ltlsplit.formula import print_formula
from helpers import FIXTURES, random_spec, spec_text


@pytest.fixture
def intro_file(tmp_path):
    path = tmp_path / "intro.spec"
    path.write_text(spec_text("intro"), encoding="utf-8")
    return path


def write_spec(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def run_cli(*args, stdout=subprocess.PIPE):
    """The CLI as a separate process, so stderr is what a user of the command gets."""
    env = dict(os.environ, PYTHONPATH=str(Path(ltlsplit.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "ltlsplit.cli", *map(str, args)],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
                          timeout=120)


SERVE = ("import sys; from ltlsplit.engine import serve_stdin_queries; "
         "serve_stdin_queries(sys.stdin, sys.stdout{})")


class TestSettings:
    @pytest.mark.parametrize("argv, cap", [((), DEFAULT_STATE_CAP),
                                           (("--state-cap", "123456"), 123456)],
                             ids=["default", "given"])
    def test_default_engine_is_internal_with_the_cap(self, intro_file, monkeypatch,
                                                     argv, cap):
        seen = []
        real = cli.partition

        def spy(spec, solver):
            seen.append(solver)
            return real(spec, solver)

        monkeypatch.setattr(cli, "partition", spy)
        assert main([str(intro_file), *argv]) == EXIT_OK
        [solver] = seen
        assert isinstance(solver, InternalSolver)
        assert solver.state_cap == cap

    def test_state_cap_validated(self, intro_file, capsys):
        assert main([str(intro_file), "--state-cap", "0"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: state cap must be >= 1\n"

    def test_external_command_validated(self, intro_file, capsys):
        assert main([str(intro_file), "--engine", "external: "]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: bad engine")

    def test_unknown_engine_names_the_choices(self, intro_file, capsys):
        assert main([str(intro_file), "--engine", "foo"]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: bad engine 'foo': expected 'internal' or 'external:<command>'\n")


class TestMain:
    def test_intro_defaults(self, intro_file, capsys):
        assert main([str(intro_file)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "block 1: {t}" in out
        assert "block 2: {v, w, z}" in out
        assert "solver queries: 6" in out
        assert "audit queries: 0" in out

    def test_pair_blocks(self, tmp_path, capsys):
        path = write_spec(tmp_path, "pair.spec", spec_text("pair"))
        assert main([str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "block 1: {a}" in out
        assert "block 2: {b}" in out

    def test_json_output(self, intro_file, capsys):
        assert main([str(intro_file), "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["env"] == ["p"]
        assert payload["sys"] == ["t", "v", "w", "z"]
        assert payload["blocks"] == [["t"], ["v", "w", "z"]]
        assert payload["queries"] == 6
        assert payload["audits"] == {}

    def test_json_stable_across_runs(self, intro_file, capsys):
        main([str(intro_file), "--format", "json"])
        first = capsys.readouterr().out
        main([str(intro_file), "--format", "json"])
        assert capsys.readouterr().out == first

    def test_verify_flag(self, intro_file, capsys):
        assert main([str(intro_file), "--verify"]) == EXIT_OK
        assert "audit soundness: pass" in capsys.readouterr().out

    def test_minimality_flag(self, intro_file, capsys):
        assert main([str(intro_file), "--verify", "--audit-minimality"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "audit soundness: pass" in out
        assert "audit minimality: pass" in out
        assert "audit queries: 8" in out    # 2 blocks, and 6 proper subsets of {v, w, z}

    @pytest.mark.parametrize("flags, count", [((), 0), (("--verify",), 2),
                                              (("--audit-minimality",), 8)],
                             ids=["none", "verify", "minimality"])
    def test_json_counts_audit_queries(self, intro_file, capsys, flags, count):
        assert main([str(intro_file), "--format", "json", *flags]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["audit_queries"] == count

    def test_quiet(self, intro_file, capsys):
        assert main([str(intro_file), "--quiet"]) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_evidence_file(self, intro_file, capsys):
        assert main([str(intro_file), "--log-queries"]) == EXIT_OK
        evidence = intro_file.with_name("intro.spec.evidence.jsonl")
        assert evidence.exists()
        records = [json.loads(line) for line in evidence.read_text().splitlines()]
        assert len(records) == 6
        for record in records:
            assert record["verdict"] in ("SAT", "UNSAT")
            assert (record["witness"] is None) == (record["verdict"] == "UNSAT")
            assert record["millis"] >= 0

    def test_evidence_file_unwritable(self, intro_file, capsys):
        intro_file.with_name("intro.spec.evidence.jsonl").mkdir()
        assert main([str(intro_file), "--log-queries"]) == EXIT_INPUT
        assert "error: cannot write" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.spec")]) == EXIT_INPUT
        assert "cannot read" in capsys.readouterr().err

    def test_non_utf8_spec_is_an_input_error(self, tmp_path):
        path = tmp_path / "latin1.spec"
        path.write_bytes(b"env: p\nsys: a\nformula: G(p -> \xff)\n")
        proc = run_cli(path)
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr.startswith(f"error: cannot read {path}")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_closed_stdout_is_an_input_error(self, intro_file, fmt):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_cli(intro_file, "--format", fmt, stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr.startswith("error: cannot write standard output")
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr

    def test_undeclared_atom_diagnostic(self, tmp_path, capsys):
        path = write_spec(tmp_path, "bad.spec",
                          "env: p\nsys: a\nformula: G(p -> q)\n")
        assert main([str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "q" in err and "3:" in err

    @pytest.mark.parametrize("text, message", [
        ("env: p\nsys: a b a\nformula: a\n", ":2:10: duplicate sys variable 'a'"),
        ("env: p a\n  sys: b a # c\nformula: a\n",
         ":2:10: variables declared both env and sys: ['a']"),
        ("env: p\nsys: a\n", ": incomplete spec: need env:, sys: and formula: sections"),
    ], ids=["duplicate", "overlap", "incomplete"])
    def test_declaration_error_position(self, tmp_path, capsys, text, message):
        path = write_spec(tmp_path, "bad.spec", text)
        assert main([str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {path}{message}\n"

    def test_syntax_error_exit(self, tmp_path, capsys):
        path = write_spec(tmp_path, "bad.spec", "env: p\nsys: a\nformula: G(p ->\n")
        assert main([str(path)]) == EXIT_INPUT

    def test_state_cap_exhaustion(self, intro_file, capsys):
        assert main([str(intro_file), "--state-cap", "2"]) == EXIT_ENGINE
        assert "state cap" in capsys.readouterr().err

    def test_external_engine(self, intro_file, capsys):
        command = f"{sys.executable} -c \"{SERVE.format('')}\""
        assert main([str(intro_file), "--engine", f"external:{command}"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "block 2: {v, w, z}" in out

    def test_external_budget_exhaustion(self, intro_file):
        command = f"{sys.executable} -c \"{SERVE.format(', state_cap=2')}\""
        proc = run_cli(intro_file, "--engine", f"external:{command}")
        assert proc.returncode == EXIT_ENGINE
        assert proc.stderr == ("error: external solver: "
                               "tableau exceeded the state cap of 2\n")

    def test_audit_budget_exhaustion(self, tmp_path):
        # Draw 92 of the seeded corpus (seed 20240817).  Its largest partition
        # query makes 269 tableau sides, but the minimality audit's query
        # for {a1} needs 298, so at 280 the cap runs out inside the audit:
        # an engine limit, not a failed audit.  (352, 394 and a cap of 380
        # before classes were built only as far as the emptiness walk reads
        # them.)
        path = write_spec(tmp_path, "d92.spec",
                          "env: p0\nsys: a0 a1\nformula: (a1 U (a0 | ((F a0 & (a0 | p0)) & G p0)))\n")
        proc = run_cli(path, "--state-cap", "280", "--verify", "--audit-minimality")
        assert proc.returncode == EXIT_ENGINE
        assert proc.stderr == "error: tableau exceeded the state cap of 280\n"
        assert "FAIL" not in proc.stdout
        assert run_cli(path, "--state-cap", "298", "--verify", "--audit-minimality").returncode == EXIT_OK

    @pytest.mark.parametrize("serve_args, code", [("", EXIT_OK), (", state_cap=2", EXIT_ENGINE)],
                             ids=["ok", "limit"])
    def test_external_child_reaped_when_main_returns(self, intro_file, tmp_path, capsys,
                                                     monkeypatch, serve_args, code):
        solvers = []    # keeps the solver alive, so only close() can reap its child
        real = cli.partition

        def spy(spec, solver):
            solvers.append(solver)
            return real(spec, solver)

        monkeypatch.setattr(cli, "partition", spy)
        pid_file = tmp_path / "child.pid"
        serve = (f"import os; open({str(pid_file)!r}, 'w').write(str(os.getpid())); "
                 + SERVE.format(serve_args))
        command = shlex.join([sys.executable, "-c", serve])
        assert main([str(intro_file), "--engine", f"external:{command}"]) == code
        assert len(solvers) == 1
        with pytest.raises(ProcessLookupError):     # reaped, not even a zombie
            os.kill(int(pid_file.read_text()), 0)

    def test_external_engine_failure(self, intro_file, capsys):
        command = f"{sys.executable} -c \"import sys; sys.exit(1)\""
        assert main([str(intro_file), "--engine", f"external:{command}"]) == EXIT_ENGINE

    def test_external_solver_that_cannot_start(self, intro_file, capsys):
        assert main([str(intro_file), "--engine", "external:/nonexistent/solver"]) == EXIT_ENGINE
        err = capsys.readouterr().err
        assert err.startswith("error: external solver: failed to run: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_crashing_external_child(self, intro_file):
        command = f"{sys.executable} -c \"raise RuntimeError('boom')\""
        proc = run_cli(intro_file, "--engine", f"external:{command}")
        assert proc.returncode == EXIT_ENGINE
        assert proc.stderr == "error: external solver: exited with 1: RuntimeError: boom\n"

    @pytest.mark.parametrize("formula", [
        "(" * 1000 + "a" + ")" * 1000,
        " & ".join(["a", "X a"] * 750),
        "X " * 5000 + "a",
        "!" * 5001 + "a",
    ], ids=["parens1000", "conj1500", "next5000", "not5001"])
    def test_deep_nesting_is_decided(self, tmp_path, formula):
        # A separate process, so the interpreter's own recursion limit is
        # what a user of the command gets.
        path = write_spec(tmp_path, "deep.spec",
                          f"env: p\nsys: a b\nformula: {formula}\n")
        proc = run_cli(path, "--format", "json")
        assert "Traceback" not in proc.stderr
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["blocks"] == [["a"], ["b"]]

    @pytest.mark.parametrize("engine", ["foo", "external:'oops"])
    def test_bad_engine_is_an_input_error(self, intro_file, engine):
        proc = run_cli(intro_file, "--engine", engine)
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr.startswith("error: bad engine")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("fault", [InvariantViolation, WitnessSoundnessError])
    def test_engine_fault_exits_3(self, intro_file, capsys, monkeypatch, fault):
        def broken(spec, solver):
            raise fault("broken on purpose")

        monkeypatch.setattr(cli, "partition", broken)
        assert main([str(intro_file)]) == EXIT_AUDIT
        assert capsys.readouterr() == ("", "fault: broken on purpose\n")

    def test_usage_error_exits_1(self, intro_file, capsys):
        for argv in ([str(intro_file), "--state-cap", "abc"], []):
            assert main(argv) == EXIT_INPUT
            assert "usage: ltlsplit" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == EXIT_OK
        out = " ".join(capsys.readouterr().out.split())     # as wrapped at any width
        assert "usage: ltlsplit" in out
        assert "most tableau sides one solver query expands (default 200000)" in out
        assert "'json': one JSON object" in out

    def test_empty_sys_partition(self, tmp_path, capsys):
        path = write_spec(tmp_path, "none.spec", "env: p\nsys:\nformula: G p\n")
        assert main([str(path), "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["blocks"] == []


# Spec texts for the exit-code guarantee: token soup over the spec grammar's
# words and a few stray characters, seeded random corpus specs, half of them
# with one token spliced in at a random place, raw bytes, and the fixtures
# and chain3 as they are, whose queries run out of the small caps.
_TOKENS = ["env:", "sys:", "formula:", "p", "q", "a0", "a1", "a0'", "true", "false", "G", "F",
           "X", "U", "R", "(", ")", "&", "|", "!", "->", "<->", ":", "#", "'", "\u00e9", "\x00",
           " ", "\t", "\n"]


def _spliced(rng, i, token):
    spec = random_spec(rng)
    text = (f"env: {' '.join(spec.env)}\nsys: {' '.join(spec.sys)}\n"
            f"formula: {print_formula(spec.formula)}\n")
    return (text[:i] + token + text[i:]).encode()


_spec_texts = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=30).map(lambda ts: "".join(ts).encode()),
    st.builds(_spliced, st.integers(0, 2 ** 32).map(random.Random), st.integers(0, 200),
              st.one_of(st.just(""), st.sampled_from(_TOKENS))),
    st.binary(max_size=60),
    st.sampled_from([*map(spec_text, sorted(FIXTURES)),
                     "env: p\nsys: a0 a1 a2\nformula: G((p -> X a0) & (a0 -> X a1) & (a1 -> X a2))\n"])
    .map(str.encode))


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_spec_texts, cap=st.one_of(st.integers(1, 40), st.integers(-1, 2000)),
       flags=st.lists(st.sampled_from(["--verify", "--audit-minimality", "--log-queries",
                                       "--quiet", "--format=json"]), unique=True))
def test_every_spec_text_ends_with_an_exit_code(tmp_path, text, cap, flags):
    """Whatever the input and however small the state cap, the CLI ends with
    exit 0-3, never with a traceback."""
    path = tmp_path / "fuzz.spec"
    path.write_bytes(text)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([str(path), "--state-cap", str(cap), *flags])
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_ENGINE, EXIT_AUDIT)
    assert "Traceback" not in err.getvalue()
