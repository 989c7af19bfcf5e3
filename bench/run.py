"""Seeded end-to-end and per-layer benchmark of ltlsplit.

Usage, from the repository root:

    python3 bench/run.py --workload corpus --seed 20240817 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, untraced then traced

Each run is a single-process closed loop: the next spec is submitted only
after the previous one has finished.  Specs are submitted in whole rounds
for about ``--seconds``; each spec text occurs once per run.  The
seed renames every variable and orders each round, so the program receives
fresh text while every seed does the same work.  ``--trace 0`` prints the
end-to-end metrics.  ``--trace 1`` runs one round in process, each spec
untraced and then traced (on ``cli``, after one round of CLI processes), and
prints the per-layer metrics.  The last line of standard output is one JSON
object; the exit code is 1 if any output is wrong.  See ``bench/README.md``
for every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import re
import resource
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "ltlsplit" / "__init__.py").is_file():
    sys.exit(f"error: no ltlsplit package under {SRC}; run from a full checkout")
sys.path[:0] = [str(SRC), str(BENCH)]

import specs  # noqa: E402
from ltlsplit import (  # noqa: E402
    EngineLimitError,
    ExternalSolver,
    InternalSolver,
    InvariantViolation,
    WitnessSoundnessError,
    dependence_query,
    parse_spec,
    partition,
    print_formula,
    verify_partition,
)
from tracer import TracedSolver  # noqa: E402

WORKLOADS = ("corpus", "large", "cli")
CORPUS_CAP = 30_000
DEFAULT_CAP = 200_000
SETUP_EVERY_S = 2.0             # one set-up timing per this much loop time ...
SETUP_MIN = 5                   # ... and at least this many per run
PACE_EVERY_S = 0.1              # host-speed sample period of a scaled run
PACE_REF_MS = 1.5               # pace_kernel() time at the reference speed
PROBE_REPEATS = 3
SLICE_SPECS = 12                # corpus specs per cli round
SLICE_MAX_STATES = 1_000        # ... drawn from the draws this cheap at record time
CLI_TIMEOUT_S = 150
CLI_AUDIT_ARGS = ["--format", "json", "--verify", "--audit-minimality", "--log-queries"]
SPAWNS_LOG = "spawns.log"       # one line per external solver process started


def serve_code(spawns_log: Path | None = None) -> str:
    """Python code of an external solver child; it logs its start to ``spawns_log``."""
    log = f"open({str(spawns_log)!r}, 'a').write('1\\n'); " if spawns_log else ""
    return ("import sys; " + log + "from ltlsplit.engine import serve_stdin_queries; "
            "serve_stdin_queries(sys.stdin, sys.stdout)")

# Expected blocks of the hand-written fixtures (criteria 1a-1c, the README's
# semantic argument for ``tail``), as indices into the ``sys:`` declaration.
FIXTURE_BLOCKS = {
    "intro": [[0], [1, 2, 3]],
    "pair": [[0], [1]],
    "triple": [[0, 1, 2]],
    "tail": [[0], [1]],
    "not_ind": [[0, 1], [2]],
    "surprise": [[0, 1, 2]],
}


@dataclass
class Item:
    """One spec submitted in a run."""

    id: str
    text: str
    expect: list | None         # expected block indices; None: audit instead
    mode: str = "library"       # "library", "audit" (CLI) or "external" (CLI)


@dataclass
class Outcome:
    item: Item
    ms: float
    status: str                 # "ok", "limit" or "error"
    blocks: list | None = None
    queries: int | None = None
    verdicts: list | None = None
    audits: dict | None = None
    evidence_lines: int | None = None
    wrong: str | None = None


@dataclass
class Run:
    outcomes: list = field(default_factory=list)
    wall_s: float = 0.0         # time in specs; set-up timings and pace samples excluded
    pacer: Pacer | None = None  # set when spec times are scaled to the reference speed
    windows: list = field(default_factory=list)     # (start, end, paused s) per outcome
    setup: list = field(default_factory=list)       # set-up timings, s

    def spec_s(self, i: int) -> float:
        """Time of outcome ``i``, without pace samples; scaled if the run has a pacer."""
        start, end, paused = self.windows[i]
        return (end - start - paused) * (self.pacer.scale(start, end) if self.pacer else 1.0)

    def scaled_s(self) -> float:
        return sum(self.spec_s(i) for i in range(len(self.windows)))


def pace_kernel() -> None:
    """Fixed pure-Python work to sample host speed with.

    It hashes and stores small frozensets and tuples, as the tableau does,
    and calls no ltlsplit code, so no change to the program moves it.
    """
    seen = {}
    for i in range(700):
        key = (frozenset((i % 7, i % 11, (i * 7) % 13, ("p", i % 5))) | {i % 3}, i & 3)
        seen[key] = seen.get(key, 0) + 1


class Pacer:
    """Times ``pace_kernel`` every ``PACE_EVERY_S`` of wall time, from SIGALRM.

    The samples also fall inside specs, so a long spec's speed is the mean
    over its own duration.  Time spent sampling is counted in ``paused_s``.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []    # (start, kernel seconds)
        self.paused_s = 0.0

    def sample(self, *_signal) -> None:
        collecting = gc.isenabled()
        gc.disable()                # the heap a spec leaves behind must not count
        t0 = perf_counter()
        pace_kernel()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((t0, t1 - t0))
        self.paused_s += perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PACE_EVERY_S, PACE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference time per wall time over [start, end].

        From the samples inside it, or else the samples just before and after.
        """
        times = [t for t, _ in self.samples]
        lo, hi = bisect_left(times, start), bisect_right(times, end)
        near = self.samples[lo:hi] or self.samples[max(lo - 1, 0):hi + 1]
        return PACE_REF_MS / (1e3 * statistics.mean(k for _, k in near))


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def sys_names(text: str) -> list[str]:
    return text.splitlines()[1].split()[1:]


def indices(names_of_blocks, sys_vars) -> list[list[int]]:
    index = {name: i for i, name in enumerate(sys_vars)}
    return sorted(sorted(index[v] for v in block) for block in names_of_blocks)


def singletons(n: int) -> list[list[int]]:
    return [[i] for i in range(n)]


# ---------------------------------------------------------------- workloads

class Workload:
    """Builds the seeded rounds of one workload."""

    def __init__(self, name: str, seed: int, reference: dict):
        self.name = name
        self.rng = random.Random(seed)
        self.reference = reference
        self.rounds = 0
        corpus = specs.corpus(reference["corpus_seed"], len(reference["corpus"]))
        for text, entry in zip(corpus, reference["corpus"]):
            if specs.digest(text) != entry["sha"]:
                raise SystemExit("error: the corpus generator no longer matches "
                                 "bench/reference.json")
        self.corpus = list(zip(corpus, reference["corpus"]))

    def _fixtures(self, names, mode: str = "library"):
        return [(n, specs.fixture_text(n), FIXTURE_BLOCKS[n], mode) for n in names]

    def next_round(self) -> list[Item]:
        """The workload's specs, every variable renamed afresh, in seeded order."""
        if self.name == "corpus":
            members = [(f"corpus/{i:03d}", text, entry.get("blocks"), "library")
                       for i, (text, entry) in enumerate(self.corpus)]
        elif self.name == "large":
            n = self.reference["chain"]["n"]
            members = self._fixtures(["intro", "tail"]) + [
                (f"chain{n}", specs.chain(n), self.reference["chain"]["blocks"], "library"),
                ("resp3", specs.resp(3), singletons(3), "library"),
                ("resp4", specs.resp(4), singletons(4), "library"),
            ]
        else:
            cheap = [i for i, (_, e) in enumerate(self.corpus)
                     if e["outcome"] == "ok" and e["states"] <= SLICE_MAX_STATES]
            members = self._fixtures(FIXTURE_BLOCKS, "audit") + [
                (f"corpus/{i:03d}", self.corpus[i][0], self.corpus[i][1]["blocks"], "audit")
                for i in sorted(self.rng.sample(cheap, SLICE_SPECS))]
            members += [("external/" + name, text, expect, "external") for name, text, expect, _
                        in self._fixtures(["pair", "triple", "not_ind", "surprise", "tail"])]
        tag = f"#{self.rounds}" if self.rounds else ""
        items = [Item(name + tag, specs.rename(text, self.rng), expect, mode)
                 for name, text, expect, mode in members]
        self.rng.shuffle(items)
        self.rounds += 1
        return items

    @property
    def cap(self) -> int:
        return CORPUS_CAP if self.name == "corpus" else DEFAULT_CAP

    @property
    def is_cli(self) -> bool:
        return self.name == "cli"


def cli_args(item: Item, workdir: Path) -> list[str]:
    if item.mode == "audit":
        return CLI_AUDIT_ARGS
    code = serve_code(workdir / SPAWNS_LOG)
    engine = f"external:{shlex.quote(sys.executable)} -c {shlex.quote(code)}"
    return ["--format", "json", "--engine", engine]


# ---------------------------------------------------------------- submitting

def submit_library(item: Item, cap: int, audit: bool) -> Outcome:
    """parse_spec -> partition (-> verify_partition), as a library user calls it."""
    t0 = perf_counter()
    try:
        spec = parse_spec(item.text)
        result = partition(spec, InternalSolver(cap))
        if audit:
            verify_partition(spec, result, InternalSolver(cap), minimality=True)
    except EngineLimitError:
        return Outcome(item, (perf_counter() - t0) * 1e3, "limit")
    except (InvariantViolation, WitnessSoundnessError) as exc:
        return Outcome(item, (perf_counter() - t0) * 1e3, "error", wrong=repr(exc))
    ms = (perf_counter() - t0) * 1e3
    return Outcome(item, ms, "ok", indices((b.vars for b in result.blocks), spec.sys),
                   result.query_count, [q.verdict for q in result.query_log])


def submit_cli(item: Item, workdir: Path, serial: int) -> Outcome:
    """One ``python -m ltlsplit.cli`` process per spec."""
    path = workdir / f"{serial}.spec"
    path.write_text(item.text, encoding="utf-8")
    t0 = perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "ltlsplit.cli", str(path),
                               *cli_args(item, workdir)],
                              capture_output=True, text=True, env=child_env(),
                              cwd=workdir, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Outcome(item, (perf_counter() - t0) * 1e3, "error",
                       wrong=f"killed after {CLI_TIMEOUT_S} s")
    ms = (perf_counter() - t0) * 1e3
    if proc.returncode == 2:
        return Outcome(item, ms, "limit")
    if proc.returncode != 0:
        return Outcome(item, ms, "error",
                       wrong=f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    payload = json.loads(proc.stdout)
    out = Outcome(item, ms, "ok", indices(payload["blocks"], sys_names(item.text)),
                  payload["queries"], audits=payload["audits"])
    evidence = payload.get("evidence_path")
    if evidence:
        lines = Path(evidence).read_text(encoding="utf-8").splitlines()
        out.evidence_lines = len(lines)
        out.verdicts = [json.loads(line)["verdict"] for line in lines]
    return out


def closed_loop(work: Workload, seconds: float, workdir: Path, timed: bool) -> Run:
    """Whole rounds, one spec at a time, for about ``seconds``; one round if not ``timed``.

    Another round starts only while the expected end stays within half a
    round of ``seconds``, so a run lasts ``seconds`` of loop time, give or
    take half a round.  A ``timed`` run also takes a set-up timing between
    two specs once per ``SETUP_EVERY_S`` of loop time, so that the timings
    spread over the run.  A timed run in process samples host speed all
    along and scales its spec times; scaled loop time then also decides the
    round count, which makes it steady.
    """
    run = Run(pacer=Pacer() if timed and not work.is_cli else None)
    serial = 0
    if run.pacer:
        run.pacer.start()
    try:
        while work.rounds == 0 or (
                timed and run.scaled_s() * (1 + 0.5 / work.rounds) < seconds):
            for item in work.next_round():
                if timed and run.wall_s >= len(run.setup) * SETUP_EVERY_S:
                    run.setup.append(time_setup(run.pacer))
                paused = run.pacer.paused_s if run.pacer else 0.0
                t0 = perf_counter()
                if item.mode == "library":
                    run.outcomes.append(submit_library(item, work.cap, audit=False))
                else:
                    run.outcomes.append(submit_cli(item, workdir, serial))
                    serial += 1
                t1 = perf_counter()
                paused = (run.pacer.paused_s if run.pacer else 0.0) - paused
                run.wall_s += t1 - t0 - paused
                run.windows.append((t0, t1, paused))
        while timed and len(run.setup) < SETUP_MIN:
            run.setup.append(time_setup(run.pacer))
    finally:
        if run.pacer:
            run.pacer.stop()
    return run


# ---------------------------------------------------------------- correctness

def check(work: Workload, run: Run) -> None:
    """Mark every wrong output; runs after the timed region."""
    for out in run.outcomes:
        if out.status != "ok":
            continue
        if out.item.mode == "audit":
            if not out.audits or not all(out.audits.values()):
                out.wrong = f"audits failed: {out.audits}"
            elif out.evidence_lines != out.queries:
                out.wrong = f"{out.evidence_lines} evidence lines for {out.queries} queries"
        if out.wrong:
            continue
        if out.item.expect is not None:
            if out.blocks != out.item.expect:
                out.wrong = f"blocks {out.blocks}, expected {out.item.expect}"
            continue
        # No recorded blocks (the spec hit the cap when the reference was
        # recorded): audit soundness and minimality instead.
        spec = parse_spec(out.item.text)
        by_name = [[spec.sys[i] for i in block] for block in out.blocks]
        result = partition(spec, InternalSolver(work.cap))
        if indices((b.vars for b in result.blocks), spec.sys) != indices(by_name, spec.sys):
            out.wrong = "blocks differ from an in-process partition"
        elif not verify_partition(spec, result, InternalSolver(work.cap),
                                  minimality=True).ok:
            out.wrong = "blocks fail the soundness or minimality audit"


# ---------------------------------------------------------------- measuring

def tail_percentile(values):
    """(percentile, value) at the highest rank with >= 10 samples beyond it.

    None when that rank is below p90: too few samples for a tail.
    """
    values = sorted(values)
    if len(values) < 100:
        return None
    rank = len(values) - 11
    return 100.0 * (rank + 1) / len(values), values[rank]


def timed_child(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run(args, capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=CLI_TIMEOUT_S)
    return perf_counter() - t0, proc


def time_setup(pacer: Pacer | None = None) -> float:
    """Wall time for a fresh interpreter to import ltlsplit, with ``pacer`` paused."""
    if pacer:
        pacer.stop()
    seconds, proc = timed_child([sys.executable, "-c", "import ltlsplit"])
    if pacer:
        pacer.start()
    if proc.returncode != 0:
        raise SystemExit(f"error: importing ltlsplit failed: {proc.stderr}")
    return seconds


def import_times() -> tuple[float, float]:
    """(ltlsplit.cli import ms, numpy share of it in ms) from ``-X importtime``."""
    total, numpy_ms = [], []
    for _ in range(PROBE_REPEATS):
        _, proc = timed_child([sys.executable, "-X", "importtime", "-c", "import ltlsplit.cli"])
        own = np_ = 0.0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
            if not m:
                continue
            cumulative, depth, name = int(m.group(1)) / 1e3, len(m.group(2)), m.group(3)
            if depth == 1 and name.split(".")[0] == "ltlsplit":
                own += cumulative
            if name == "numpy":
                np_ += cumulative
        total.append(own)
        numpy_ms.append(np_)
    return statistics.median(total), statistics.median(numpy_ms)


def probe_cli_and_external(workdir: Path) -> tuple[float, float]:
    """(ms of one CLI process on ``pair``, ms of one ExternalSolver.solve call)."""
    path = workdir / "probe.spec"
    path.write_text(specs.fixture_text("pair"), encoding="utf-8")
    cli = []
    for _ in range(PROBE_REPEATS):
        seconds, proc = timed_child([sys.executable, "-m", "ltlsplit.cli", str(path),
                                     "--format", "json"])
        if proc.returncode != 0:
            raise SystemExit(f"error: CLI probe failed: {proc.stderr}")
        cli.append(seconds * 1e3)
    spec = parse_spec(specs.fixture_text("pair"))
    query = dependence_query(spec.formula, spec.sys[:1], spec.sys[1:])
    solver = ExternalSolver([sys.executable, "-c",
                             f"import sys; sys.path.insert(0, {str(SRC)!r}); {serve_code()}"])
    external = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        solver.solve(query)
        external.append((perf_counter() - t0) * 1e3)
    return statistics.median(cli), statistics.median(external)


def trace_item(item: Item, solver: TracedSolver) -> dict:
    """One spec in process through ``TracedSolver``; returns its spans."""
    first = len(solver.queries)
    span = {"item": item, "parse_ms": 0.0, "partition_ms": 0.0, "audit_ms": 0.0,
            "partition_queries": (first, first)}
    t0 = perf_counter()
    try:
        spec = parse_spec(item.text)
        t1 = perf_counter()
        span["parse_ms"] = (t1 - t0) * 1e3
        try:
            result = partition(spec, solver)
        finally:
            t2 = perf_counter()
            span["partition_ms"] = (t2 - t1) * 1e3
            span["partition_queries"] = (first, len(solver.queries))
        if item.mode == "audit":
            verify_partition(spec, result, solver, minimality=True)
            span["audit_ms"] = (perf_counter() - t2) * 1e3
    except EngineLimitError:
        span["status"] = "limit"
    except (InvariantViolation, WitnessSoundnessError) as exc:
        span["status"] = "error"
        span["error"] = repr(exc)
    else:
        span["status"] = "ok"
        span["blocks"] = indices((b.vars for b in result.blocks), spec.sys)
    span["audit_queries"] = (span["partition_queries"][1], len(solver.queries))
    return span


def paired_replay(work: Workload, items: list[Item]):
    """Replay each spec in process untraced and traced, back to back.

    The two runs of a spec alternate in order from spec to spec, so that
    warm-up and machine drift fall on both sides alike; the difference of
    the totals is the tracing overhead.
    """
    solver = TracedSolver(work.cap)
    replay, spans = [], []
    untraced_ms = traced_ms = 0.0
    for i, item in enumerate(items):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = perf_counter()
            if traced:
                spans.append(trace_item(item, solver))
                traced_ms += (perf_counter() - t0) * 1e3
            else:
                replay.append(submit_library(item, work.cap, audit=item.mode == "audit"))
                untraced_ms += (perf_counter() - t0) * 1e3
    return replay, untraced_ms, spans, traced_ms, solver


def guard(untraced: list[Outcome], spans: list[dict], solver: TracedSolver) -> list[str]:
    """The traced replay must reproduce the untraced outcomes exactly."""
    problems = []
    for out, span in zip(untraced, spans):
        lo, hi = span["partition_queries"]
        verdicts = [q.verdict for q in solver.queries[lo:hi]]
        if out.status != span["status"]:
            problems.append(f"{out.item.id}: untraced {out.status}, traced {span['status']}")
        elif out.status == "ok" and (out.blocks != span["blocks"] or out.queries != hi - lo
                                     or (out.verdicts is not None and out.verdicts != verdicts)):
            problems.append(f"{out.item.id}: traced blocks, verdicts or query count differ")
    return problems


def layer_metrics(untraced_ms: float, traced_ms: float,
                  spans: list[dict], solver: TracedSolver, workdir: Path) -> tuple[dict, list[str]]:
    queries = solver.queries
    partition_q = [q for s in spans for q in solver.queries[slice(*s["partition_queries"])]]
    audit_q = [q for s in spans for q in solver.queries[slice(*s["audit_queries"])]]
    parse_ms = sum(s["parse_ms"] for s in spans)
    partition_ms = sum(s["partition_ms"] for s in spans)
    audit_ms = sum(s["audit_ms"] for s in spans)
    nnf = sum(q.nnf_ms for q in queries)
    tableau = sum(q.tableau_ms for q in queries)
    emptiness = sum(q.emptiness_ms for q in queries)
    witness = sum(q.witness_ms for q in queries)
    decompose_self = partition_ms - sum(q.solve_ms for q in partition_q)
    audit_self = audit_ms - sum(q.solve_ms for q in audit_q)
    repeats = distinct = 0
    for s in spans:
        printed = [print_formula(q.formula) for q in solver.queries[slice(*s["partition_queries"])]]
        distinct += len(set(printed))
        repeats += len(printed) - len(set(printed))
    solve_times = [q.solve_ms for q in queries]
    tail = tail_percentile(solve_times)
    import_ms, numpy_ms = import_times()
    process_ms, roundtrip_ms = probe_cli_and_external(workdir)
    log = workdir / SPAWNS_LOG
    spawns = len(log.read_text().splitlines()) if log.exists() else 0
    layers = parse_ms + nnf + tableau + emptiness + witness + decompose_self + audit_self
    metrics = {
        "parser.parse_ms": (parse_ms, "ms"),
        "engine.nnf_ms": (nnf, "ms"),
        "engine.tableau_ms": (tableau, "ms"),
        "engine.emptiness_ms": (emptiness, "ms"),
        "engine.states": (sum(q.states for q in queries), "count"),
        "engine.edges": (sum(q.edges for q in queries), "count"),
        "engine.sat_queries": (sum(q.verdict == "SAT" for q in queries), "count"),
        "engine.unsat_queries": (sum(q.verdict == "UNSAT" for q in queries), "count"),
        "engine.limit_errors": (sum(q.verdict == "LIMIT" for q in queries), "count"),
        "engine.tableau_sat_share": (
            sum(q.tableau_ms for q in queries if q.verdict == "SAT") / tableau if tableau else 0.0,
            "share"),
        "engine.query_p50_ms": (statistics.median(solve_times) if solve_times else 0.0, "ms"),
        "engine.query_tail_ms": (tail[1] if tail else max(solve_times, default=0.0), "ms"),
        "engine.external_roundtrip_ms": (roundtrip_ms, "ms"),
        "engine.external_spawns": (spawns, "count"),
        "traces.witness_check_ms": (witness, "ms"),
        "decompose.self_ms": (decompose_self, "ms"),
        "decompose.queries": (len(partition_q), "count"),
        "decompose.repeat_queries": (repeats, "count"),
        "decompose.distinct_query_ratio": (distinct / len(partition_q) if partition_q else 1.0,
                                           "share"),
        "decompose.audit_ms": (audit_ms, "ms"),
        "decompose.audit_queries": (len(audit_q), "count"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.numpy_import_ms": (numpy_ms, "ms"),
        "cli.process_ms": (process_ms, "ms"),
        "bench.trace_overhead_ms": (traced_ms - untraced_ms, "ms"),
        "bench.unaccounted_ms": (traced_ms - layers, "ms"),
    }
    notes = [
        f"traced run: {len(spans)} specs, {len(queries)} queries, {traced_ms:.1f} ms; "
        f"layers account for {layers:.1f} ms ({100 * layers / traced_ms:.2f}%)",
        "engine.query_tail_ms: " + (f"p{tail[0]:.1f} of {len(solve_times)} queries" if tail
                                    else f"max of {len(solve_times)} queries (too few for a tail)"),
        "cli.process_ms and engine.external_roundtrip_ms: median of "
        f"{PROBE_REPEATS} probes on the pair fixture",
    ]
    return metrics, notes


# ---------------------------------------------------------------- reporting

def spec_record(out: Outcome, scaled_ms: float | None, span: dict | None,
                solver: TracedSolver | None) -> dict:
    record = {"spec": out.item.id, "ms": round(out.ms, 3), "queries": out.queries,
              "states": None, "outcome": "wrong" if out.wrong else out.status}
    if scaled_ms is not None:
        record["scaled_ms"] = round(scaled_ms, 3)
    if span is not None:
        lo, hi = span["partition_queries"]
        record["traced_ms"] = round(span["parse_ms"] + span["partition_ms"] + span["audit_ms"], 3)
        record["states"] = sum(q.states for q in solver.queries[lo:hi])
        record["queries"] = hi - lo
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=20240817)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    reference = json.loads((BENCH / "reference.json").read_text())
    work = Workload(args.workload, args.seed, reference)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        return measure(work, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(work: Workload, args, workdir: Path) -> int:
    problems = []
    if args.trace == 0:
        run = closed_loop(work, args.seconds, workdir, timed=True)
        who = resource.RUSAGE_CHILDREN if work.is_cli else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    elif work.is_cli:
        # One round of CLI processes, then its specs in process, untraced and traced.
        run = closed_loop(work, args.seconds, workdir, timed=False)
        replay, untraced_ms, spans, traced_ms, solver = paired_replay(
            work, [o.item for o in run.outcomes])
        problems += [f"{o.item.id}: in-process replay disagrees with the CLI run"
                     for o, r in zip(run.outcomes, replay)
                     if o.status != r.status or (o.status == "ok" and (
                         o.blocks != r.blocks or o.queries != r.queries
                         or (o.verdicts is not None and o.verdicts != r.verdicts)))]
    else:
        # One round in process, untraced and traced; the untraced half is the run.
        replay, untraced_ms, spans, traced_ms, solver = paired_replay(work, work.next_round())
        run = Run(replay, untraced_ms / 1e3)
    check(work, run)

    outcomes = run.outcomes
    attempted = len(outcomes)
    wrong = [o for o in outcomes if o.wrong]
    decided = [o for o in outcomes if o.status == "ok" and not o.wrong]
    failed = attempted - len(decided)
    lines = [f"workload {work.name}: {attempted} specs in {work.rounds} rounds, "
             f"seed {args.seed}, {'traced' if args.trace else 'untraced'}"]
    problems += [f"{o.item.id}: {o.wrong}" for o in wrong]

    if args.trace == 0:
        spans = solver = None
        # In-process spec times are scaled to the reference host speed; see
        # README "Noise".
        times = [run.spec_s(i) * 1e3 for i in range(attempted)]
        tail = tail_percentile(times)
        metrics = {
            "specs_per_s": (len(decided) / run.scaled_s(), "1/s"),
            "spec_p50_ms": (statistics.median(times), "ms"),
            "setup_s": (statistics.median(run.setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        if run.pacer:
            paces = [k * 1e3 for _, k in run.pacer.samples]
            lines.append(f"host speed: pace kernel median {statistics.median(paces):.3f} ms, "
                         f"min {min(paces):.3f}, max {max(paces):.3f} over {len(paces)} "
                         f"samples; spec times are scaled to {PACE_REF_MS} ms")
            lines.append(f"unscaled: specs_per_s {len(decided) / run.wall_s:.6g} 1/s, "
                         f"spec_p50_ms {statistics.median(1e3 * (e - s - p) for s, e, p in run.windows):.6g} ms")
        lines.append(f"spec_p50_ms: median of {attempted} specs")
        lines.append(f"setup_s: median of {len(run.setup)} timings spread over the run")
        lines.append("spec_tail_ms = " + (f"{tail[1]:.3f} ms at p{tail[0]:.1f} of {attempted} specs"
                                          if tail else f"omitted: {attempted} specs are too few"))
        lines.append(f"failed_share = {failed / attempted:.6f} ({failed} of {attempted})")
    else:
        problems += guard(replay, spans, solver)
        problems += [f"{s['item'].id}: {s['error']}" for s in spans if s["status"] == "error"]
        metrics, notes = layer_metrics(untraced_ms, traced_ms, spans, solver, workdir)
        lines += notes

    correct = not problems
    for i, out in enumerate(outcomes):
        print(json.dumps(spec_record(out, times[i] if run.pacer else None,
                                     spans[i] if spans else None, solver)))
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"WRONG {problem}")
    print(f"correctness: {'PASS' if correct else 'FAIL'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT)
            report = [ln for ln in proc.stdout.splitlines() if not ln.startswith("{")]
            print(f"== {name} trace={trace} (exit {proc.returncode})")
            print("\n".join(report))
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                summary[f"{name}/trace{trace}"] = None
                continue
            summary[f"{name}/trace{trace}"] = json.loads(proc.stdout.splitlines()[-1])
    ok = all(r is not None and r["correct"] for r in summary.values())
    print(json.dumps({"correct": ok, "runs": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
