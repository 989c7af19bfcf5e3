"""Command-line front end: read a spec file, decompose, report, persist evidence."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .decompose import InvariantViolation, partition, verify_partition
from .engine import (
    DEFAULT_STATE_CAP,
    EngineLimitError,
    ExternalSolverError,
    InternalSolver,
    WitnessSoundnessError,
)
from .formula import print_formula
from .parser import SpecError, parse_spec
from .traces import format_trace

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ENGINE = 2
EXIT_AUDIT = 3


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="ltlsplit",
        description="Decompose an LTL reactive-synthesis spec into "
                    "independent blocks of system variables.")
    parser.add_argument("input", type=Path, help="spec file to decompose")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="'text' (default): the report; 'json': one JSON object")
    parser.add_argument("--engine", default="internal",
                        help="'internal' (default) or 'external:<command>'")
    parser.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP,
                        help="most tableau sides one solver query expands (default %(default)s)")
    parser.add_argument("--verify", action="store_true",
                        help="re-derive every block's independence query")
    parser.add_argument("--audit-minimality", action="store_true",
                        help="also check every proper subset of each block")
    parser.add_argument("--log-queries", action="store_true",
                        help="write <input>.evidence.jsonl with every solver query")
    parser.add_argument("--quiet", action="store_true",
                        help="no text report; --format json still prints; same exit codes")
    return parser.parse_args(argv)


def _solver(engine: str, state_cap: int):
    """The solver an ``--engine`` value names; ``ValueError`` on a bad one."""
    if engine == "internal":
        return InternalSolver(state_cap)
    if engine.startswith("external:"):
        from .external import ExternalSolver     # the only path that starts processes
        return ExternalSolver(engine[len("external:"):])
    raise ValueError("expected 'internal' or 'external:<command>'")


def _write_evidence(path: Path, result) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for record in result.query_log:
            fh.write(json.dumps({
                "formula": print_formula(record.formula),
                "verdict": record.verdict,
                "witness": format_trace(record.witness) if record.witness else None,
                "millis": round(record.millis, 3),
            }) + "\n")


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 on a usage error; here 2 means an engine failure
        return EXIT_INPUT if exc.code == 2 else exc.code
    if args.state_cap < 1:
        print("error: state cap must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    try:
        solver = _solver(args.engine, args.state_cap)
    except ValueError as exc:
        print(f"error: bad engine {args.engine!r}: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        text = args.input.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        spec = parse_spec(text)
    except SpecError as exc:
        print(f"error: {args.input}:{'' if exc.line else ' '}{exc}", file=sys.stderr)
        return EXIT_INPUT

    audits: dict = {}
    audit_queries = 0
    try:
        result = partition(spec, solver)
        if args.verify or args.audit_minimality:
            report = verify_partition(spec, result, solver,
                                      minimality=args.audit_minimality)
            audits["soundness"] = all(a.sound for a in report.block_audits)
            audit_queries = sum(1 + len(a.minimality) for a in report.block_audits)
            if args.audit_minimality:
                audits["minimality"] = all(
                    sub.dependent for a in report.block_audits for sub in a.minimality)
    except (EngineLimitError, ExternalSolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except (InvariantViolation, WitnessSoundnessError) as exc:
        print(f"fault: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    finally:
        if hasattr(solver, "close"):    # an ExternalSolver ends its child
            solver.close()

    evidence_path = None
    if args.log_queries:
        evidence_path = args.input.with_name(args.input.name + ".evidence.jsonl")
        try:
            _write_evidence(evidence_path, result)
        except OSError as exc:
            print(f"error: cannot write {evidence_path}: {exc}", file=sys.stderr)
            return EXIT_INPUT

    # Blocks come out ordered by their first declared member; list each
    # block's members in declaration order too.
    blocks = [sorted(b.vars, key=spec.sys.index) for b in result.blocks]
    payload = {
        "env": list(spec.env),
        "sys": list(spec.sys),
        "blocks": blocks,
        "queries": result.query_count,
        "audits": audits,
        "audit_queries": audit_queries,
    }
    if evidence_path is not None:
        payload["evidence_path"] = str(evidence_path)

    try:
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        elif not args.quiet:
            print(f"env: {' '.join(spec.env)}")
            print(f"sys: {' '.join(spec.sys)}")
            for i, members in enumerate(blocks, 1):
                print(f"block {i}: {{{', '.join(members)}}}")
            print(f"solver queries: {result.query_count}")
            print(f"audit queries: {audit_queries}")
            for name, ok in audits.items():
                print(f"audit {name}: {'pass' if ok else 'FAIL'}")
            if evidence_path is not None:
                print(f"evidence: {evidence_path}")
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # Nobody reads standard output any more; point it at the null device
        # so that the flush at interpreter exit stays silent too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT

    return EXIT_OK if all(audits.values()) else EXIT_AUDIT


if __name__ == "__main__":
    raise SystemExit(main())
