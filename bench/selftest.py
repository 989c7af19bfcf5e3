"""Self-test of the benchmark's inputs.

Usage, from the repository root:  python3 bench/selftest.py

Checks that
- one seed gives byte-identical spec texts on every run, also across
  interpreters with different hash seeds;
- the vendored corpus generator, at seed 20240817, reproduces the ROADMAP
  baseline: the first 200 specs that stay within a 30,000-state cap take
  484 queries, 77 of which repeat an earlier query of the same spec.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import run  # puts src/ on sys.path
import specs
from ltlsplit import EngineLimitError, InternalSolver, parse_spec, partition, print_formula

ROUNDS = 2
ROADMAP_SPECS = 200
ROADMAP_QUERIES = 484
ROADMAP_REPEATS = 77


def texts_digest(seed: int) -> str:
    reference = json.loads((run.BENCH / "reference.json").read_text())
    digest = hashlib.sha256()
    for name in run.WORKLOADS:
        work = run.Workload(name, seed, reference)
        for _ in range(ROUNDS):
            for item in work.next_round():
                digest.update(f"{item.id}\n{item.text}\n".encode())
    return digest.hexdigest()


def check_texts(seed: int) -> None:
    digests = set()
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, __file__, "--digest", str(seed)], capture_output=True,
            text=True, check=True, env={**os.environ, "PYTHONHASHSEED": hash_seed})
        digests.add(proc.stdout.strip())
    digests.add(texts_digest(seed))
    if len(digests) != 1:
        raise SystemExit(f"FAIL: seed {seed} gives different spec texts: {digests}")
    print(f"ok: seed {seed} gives byte-identical spec texts ({digests.pop()[:16]})")


def check_roadmap_corpus() -> None:
    solver = InternalSolver(30_000)
    decided = queries = repeats = draws = 0
    for text in specs.corpus(specs.CORPUS_SEED, 10 * ROADMAP_SPECS):
        if decided == ROADMAP_SPECS:
            break
        draws += 1
        try:
            result = partition(parse_spec(text), solver)
        except EngineLimitError:
            continue
        printed = [print_formula(q.formula) for q in result.query_log]
        decided += 1
        queries += len(printed)
        repeats += len(printed) - len(set(printed))
    if (queries, repeats) != (ROADMAP_QUERIES, ROADMAP_REPEATS):
        raise SystemExit(f"FAIL: corpus seed {specs.CORPUS_SEED} gives {queries} queries "
                         f"with {repeats} repeats, expected {ROADMAP_QUERIES} "
                         f"with {ROADMAP_REPEATS}")
    print(f"ok: corpus seed {specs.CORPUS_SEED}: {decided} specs from {draws} draws, "
          f"{queries} queries, {repeats} repeats")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--digest"]:
        print(texts_digest(int(sys.argv[2])))
    else:
        check_texts(7)
        check_texts(specs.CORPUS_SEED)
        check_roadmap_corpus()
