"""Command-line front end: read a spec file, decompose, report, persist evidence."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .decompose import InvariantViolation, partition, verify_partition
from .engine import (
    DEFAULT_STATE_CAP,
    EngineLimitError,
    ExternalSolver,
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


@dataclass
class RunConfig:
    input_path: Path
    output_format: str = "text"          # "text" | "json"
    order: str = "decl"                  # "decl" | "lex"
    engine: str = "internal"             # "internal" | "external:<command>"
    state_cap: int = DEFAULT_STATE_CAP
    verify: bool = False
    audit_minimality: bool = False
    log_queries: bool = False
    quiet: bool = False
    solver: InternalSolver | ExternalSolver = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.state_cap < 1:
            raise ValueError("state cap must be >= 1")
        try:
            if self.engine == "internal":
                self.solver = InternalSolver(self.state_cap)
            elif self.engine.startswith("external:"):
                self.solver = ExternalSolver(self.engine[len("external:"):])
            else:
                raise ValueError("expected 'internal' or 'external:<command>'")
        except ValueError as exc:
            raise ValueError(f"bad engine {self.engine!r}: {exc}") from None


def _build_config(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="ltlsplit",
        description="Decompose an LTL reactive-synthesis spec into "
                    "independent blocks of system variables.")
    parser.add_argument("input", type=Path, help="spec file to decompose")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--order", choices=("decl", "lex"), default="decl",
                        help="variable ordering policy")
    parser.add_argument("--engine", default="internal",
                        help="'internal' (default) or 'external:<command>'")
    parser.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    parser.add_argument("--verify", action="store_true",
                        help="re-derive every block's independence certificate")
    parser.add_argument("--audit-minimality", action="store_true",
                        help="also check every proper subset of each block")
    parser.add_argument("--log-queries", action="store_true",
                        help="write <input>.evidence.jsonl with every solver query")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    return RunConfig(args.input, args.format, args.order, args.engine,
                     args.state_cap, args.verify, args.audit_minimality,
                     args.log_queries, args.quiet)


def _sorted_blocks(blocks, sys_vars):
    index = {name: i for i, name in enumerate(sys_vars)}
    sorted_members = [sorted(b.vars, key=index.__getitem__) for b in blocks]
    return sorted(sorted_members, key=lambda members: index[members[0]])


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
        config = _build_config(argv)
    except SystemExit as exc:   # argparse exits 2 on a usage error; here 2 means an engine failure
        return EXIT_INPUT if exc.code == 2 else exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        text = config.input_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {config.input_path}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        spec = parse_spec(text)
    except SpecError as exc:
        print(f"error: {config.input_path}:{exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        result = partition(spec, config.solver, config.order)
    except EngineLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except ExternalSolverError as exc:
        print(f"error: external solver: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except (InvariantViolation, WitnessSoundnessError) as exc:
        print(f"fault: {exc}", file=sys.stderr)
        return EXIT_AUDIT

    audits: dict = {}
    audit_failed = False
    if config.verify or config.audit_minimality:
        try:
            report = verify_partition(spec, result, config.solver,
                                      minimality=config.audit_minimality)
        except (EngineLimitError, ExternalSolverError) as exc:
            print(f"error: audit: {exc}", file=sys.stderr)
            return EXIT_ENGINE
        audits["soundness"] = all(a.sound is True for a in report.block_audits)
        if config.audit_minimality:
            audits["minimality"] = all(
                sub.dependent and not sub.error
                for a in report.block_audits for sub in a.minimality)
        audit_failed = not report.ok

    evidence_path = None
    if config.log_queries:
        evidence_path = config.input_path.with_name(config.input_path.name + ".evidence.jsonl")
        try:
            _write_evidence(evidence_path, result)
        except OSError as exc:
            print(f"error: cannot write {evidence_path}: {exc}", file=sys.stderr)
            return EXIT_INPUT

    blocks = _sorted_blocks(result.blocks, spec.sys)
    payload = {
        "env": list(spec.env),
        "sys": list(spec.sys),
        "blocks": blocks,
        "queries": result.query_count,
        "audits": audits,
    }
    if evidence_path is not None:
        payload["evidence_path"] = str(evidence_path)

    try:
        if config.output_format == "json":
            print(json.dumps(payload, indent=2))
        elif not config.quiet:
            print(f"env: {' '.join(spec.env)}")
            print(f"sys: {' '.join(spec.sys)}")
            for i, members in enumerate(blocks, 1):
                print(f"block {i}: {{{', '.join(members)}}}")
            print(f"solver queries: {result.query_count}")
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

    return EXIT_AUDIT if audit_failed else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
