"""The query protocol's client, a solver in a child process; imported only when
used, so that the rest of the package starts no process machinery."""

from __future__ import annotations

import shlex
import subprocess
import tempfile
import threading
import weakref
from contextlib import AbstractContextManager, suppress

from .engine import UNSAT, EngineLimitError, ExternalSolverError, SatResult
from .formula import Formula, print_formula
from .traces import eval_formula, format_trace, parse_trace

REPLY_TIMEOUT_S = 300       # an external child that takes longer over one query is killed


def _end_child(proc: subprocess.Popen, stderr) -> tuple[int, str]:
    """EOF on the child's stdin, then reap it (killed after 5 s); its exit code and stderr."""
    with suppress(OSError):
        proc.stdin.close()
    with suppress(subprocess.TimeoutExpired):
        proc.wait(timeout=5)
    proc.kill()     # a no-op once the child has been reaped
    proc.stdout.close()
    with stderr:
        stderr.seek(0)
        return proc.wait(), stderr.read().decode("utf-8", "replace")


class ExternalSolver(AbstractContextManager):
    """Subprocess adapter speaking the line query protocol to one child per run.

    Request: the formula in surface grammar plus a newline on stdin.
    Response: ``UNSAT``, ``SAT`` followed by one serialized trace line, or
    ``LIMIT`` (budget ran out: ``EngineLimitError``) or ``ERROR`` (no answer:
    ``ExternalSolverError``) followed by one message line.  A child that ends
    before it answers is reported by its last stderr line; one silent for
    ``REPLY_TIMEOUT_S`` (read at each query) is killed.  External
    witnesses must pass the eval self-check before acceptance.  The child
    starts at the first ``solve``; ``close()``, leaving a ``with`` block,
    any ``ExternalSolverError``, garbage collection and interpreter exit
    end it.
    """

    def __init__(self, command: str | list[str]):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        if not self.command:
            raise ValueError("external solver command must be nonempty")
        self._child: tuple[subprocess.Popen, weakref.finalize] | None = None

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> tuple[int, str]:
        """End the child, if one runs; its exit code and stderr."""
        child, self._child = self._child, None
        return child[1]() if child else (0, "")

    def solve(self, f: Formula) -> SatResult:
        if self._child is None:
            stderr = tempfile.TemporaryFile()   # a pipe that nobody drains could fill up
            try:
                proc = subprocess.Popen(self.command, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, stderr=stderr, encoding="utf-8")
            except OSError as exc:
                stderr.close()
                raise ExternalSolverError(f"external solver: failed to run: {exc}") from exc
            self._child = proc, weakref.finalize(self, _end_child, proc, stderr)
        proc = self._child[0]
        expired = threading.Event()
        timeout = REPLY_TIMEOUT_S
        timer = threading.Timer(timeout, lambda: (expired.set(), proc.kill()))
        timer.start()
        try:
            with suppress(BrokenPipeError):     # a child that has ended reads as EOF below
                proc.stdin.write(print_formula(f) + "\n")
                proc.stdin.flush()
            reply = filter(None, map(str.strip, proc.stdout))   # the nonblank lines
            verdict = next(reply, "")
            detail = next(reply, None) if verdict in ("SAT", "LIMIT", "ERROR") else ""
            if not verdict or detail is None:   # EOF: the child ended before a whole reply
                code, stderr = self.close()
                if expired.is_set():
                    raise ExternalSolverError(
                        f"external solver: no answer within {timeout} s")
                if code:
                    last = [ln.strip() for ln in stderr.splitlines() if ln.strip()][-1:]
                    raise ExternalSolverError(
                        ": ".join([f"external solver: exited with {code}", *last]))
            if not verdict:
                raise ExternalSolverError("external solver: no output")
            if verdict == "UNSAT":
                return UNSAT
            if verdict == "LIMIT" or verdict == "ERROR":
                error = EngineLimitError if verdict == "LIMIT" else ExternalSolverError
                raise error(f"external solver: {detail or verdict + ' without a message'}")
            if verdict != "SAT":
                raise ExternalSolverError(f"external solver: malformed verdict line {verdict!r}")
            if detail is None:
                raise ExternalSolverError("external solver: SAT answer missing its witness line")
            try:
                witness = parse_trace(detail)
            except ValueError as exc:
                raise ExternalSolverError(f"external solver: malformed witness: {exc}") from exc
            if not eval_formula(witness, f, 0):
                raise ExternalSolverError(
                    f"external solver: witness {format_trace(witness)} does not satisfy the query")
            return SatResult(witness)
        except UnicodeDecodeError as exc:
            self.close()
            raise ExternalSolverError(f"external solver: output is not UTF-8: {exc}") from exc
        except ExternalSolverError:
            self.close()
            raise
        finally:
            timer.cancel()
