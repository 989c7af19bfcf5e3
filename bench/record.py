"""Record the reference outcomes the benchmark checks against.

Usage, from the repository root:  python3 bench/record.py

For every draw of the corpus and for the ``chain`` family member the
benchmark runs, this partitions the spec once, checks the blocks once with
``verify_partition(..., minimality=True)`` and writes the blocks, query count
and tableau states to ``bench/reference.json``.  Blocks are stored as lists
of indices into the ``sys:`` declaration, so they hold for renamed copies.
Run it only when the reference has to be re-established, never as part of a
benchmark run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import specs  # noqa: E402
from ltlsplit import EngineLimitError, InternalSolver, parse_spec, partition, verify_partition  # noqa: E402
from tracer import TracedSolver  # noqa: E402

CORPUS_DRAWS = 201
CORPUS_CAP = 30_000
DEFAULT_CAP = 200_000
CHAIN_N = 3


def block_indices(spec, blocks) -> list[list[int]]:
    index = {name: i for i, name in enumerate(spec.sys)}
    return sorted(sorted(index[v] for v in b.vars) for b in blocks)


def record(text: str, cap: int) -> dict:
    spec = parse_spec(text)
    solver = TracedSolver(cap)
    entry = {"sha": specs.digest(text)}
    try:
        result = partition(spec, solver)
    except EngineLimitError:
        entry["outcome"] = "limit"
        return entry
    report = verify_partition(spec, result, InternalSolver(cap), minimality=True)
    if not report.ok:
        raise SystemExit(f"reference spec fails its own audit:\n{text}")
    entry.update(outcome="ok", blocks=block_indices(spec, result.blocks),
                 queries=result.query_count,
                 states=sum(q.states for q in solver.queries))
    return entry


def main() -> None:
    corpus = []
    for i, text in enumerate(specs.corpus(specs.CORPUS_SEED, CORPUS_DRAWS)):
        corpus.append(record(text, CORPUS_CAP))
        print(i, corpus[-1]["outcome"], flush=True)
    reference = {
        "corpus_seed": specs.CORPUS_SEED,
        "corpus_cap": CORPUS_CAP,
        "corpus": corpus,
        "chain": {"n": CHAIN_N, **record(specs.chain(CHAIN_N), DEFAULT_CAP)},
    }
    out = BENCH / "reference.json"
    out.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
