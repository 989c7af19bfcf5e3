"""Acceptance gate: one test per criterion, each reporting a checklist line.

The checklist is echoed at the end of the run (see conftest.py).  Every
numeric bound here is a hard assertion.  Every line is expected green;
a red line is a regression.
"""

import random
import time

import pytest

from ltlsplit import (
    Block,
    Iff,
    InternalSolver,
    Not,
    PartitionResult,
    atoms,
    check_independent,
    compute_z,
    dependence_query,
    eval_formula,
    ltl_sat,
    parse_formula,
    partition,
    state,
    verify_partition,
)
from brute import bounded_sat, set_join, set_project
from helpers import FIXTURES, fixture_spec, lasso, small_formula, spec_corpus
from test_brute import random_trace_set, ts

RESULTS: list[tuple[str, bool, str]] = []

SOLVER = InternalSolver()


def report(name: str, ok: bool, detail: str = ""):
    RESULTS.append((name, ok, detail))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    return spec_corpus(20240817, 200)


@pytest.fixture(scope="module")
def fixture_partitions():
    return {name: partition(fixture_spec(name), SOLVER) for name in FIXTURES}


def _blocks(result):
    return result.block_sets()


def test_criterion_1a_intro_partition(fixture_partitions):
    got = _blocks(fixture_partitions["intro"])
    want = {frozenset(["v", "w", "z"]), frozenset(["t"])}
    report("1a intro formula -> {{v,w,z},{t}}", got == want, f"got {sorted(map(sorted, got))}")


def test_criterion_1b_pair_partition(fixture_partitions):
    got = _blocks(fixture_partitions["pair"])
    want = {frozenset(["a"]), frozenset(["b"])}
    report("1b F(p -> X(a&b)) & G !b -> {{a},{b}}", got == want,
           f"got {sorted(map(sorted, got))}")


def test_criterion_1c_triple_partition(fixture_partitions):
    got = _blocks(fixture_partitions["triple"])
    want = {frozenset(["a", "b", "c"])}
    report("1c G(p -> (a|(b&c))) -> {{a,b,c}}", got == want,
           f"got {sorted(map(sorted, got))}")


# Criterion 1d as published expects the tail fixture to stay one joint
# block.  For the fixture formula as written that expectation contradicts
# the definition of a minimal independent block, so 1d asserts the split
# and keeps the published value only to check that it is refuted.
TAIL_PUBLISHED = {frozenset(["a", "d"])}
TAIL_SPLIT = {frozenset(["a"]), frozenset(["d"])}
# The tail formula rewritten as a conjunction over {p,d} and over {p,a}.
TAIL_DECOUPLED = "G(!p -> !d) & G(p -> G a)"
TAIL_DEPENDENCE_SHAPES = [(0, 1), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2), (3, 1)]


def test_criterion_1d_tail_partition(fixture_partitions):
    # phi = G((!p -> !d) & (p -> ((a U (a & G d)) | G a))).  From the first
    # p-position onward a holds forever (both disjuncts force it), and d
    # is only constrained to be false before it, so phi is equivalent to
    # G(!p -> !d) & G(p -> G a): a formula over {p,d} conjoined with one
    # over {p,a}, each satisfiable for every p-trace.  {a} and {d} are
    # therefore each independent, and the published joint block {a,d} has
    # independent proper subsets.  Both oracles must agree on that.
    spec = fixture_spec("tail")
    phi = spec.formula
    result = fixture_partitions["tail"]
    got = _blocks(result)
    psi = parse_formula(TAIL_DECOUPLED)
    not_equiv = Not(Iff(phi, psi))
    checks = {
        "split": got == TAIL_SPLIT,
        "psi decoupled": ({a.base for a in atoms(psi.left)} == {"p", "d"}
                          and {a.base for a in atoms(psi.right)} == {"p", "a"}),
        "engine phi<->psi": not ltl_sat(not_equiv).is_sat,
        "bounded phi<->psi": not any(
            bounded_sat(not_equiv, p, l).is_sat
            for p in range(4) for l in range(1, 4)),
        # the oracle does find models of phi, so its UNSAT answers bite
        "bounded phi sat": bounded_sat(phi, 0, 1).is_sat,
    }
    # The one query partition issues is the dependence query of {a}
    # against {d}; the engine answered it UNSAT.
    query = dependence_query(phi, ["a"], ["d"])
    checks["engine dependence"] = (
        [(r.formula, r.verdict) for r in result.query_log] == [(query, "UNSAT")])
    checks["bounded dependence"] = not any(
        bounded_sat(query, p, l).is_sat for p, l in TAIL_DEPENDENCE_SHAPES)
    # The minimality audit of the published partition re-solves {a} and
    # {d}; both independent means the joint block is not minimal.
    published = PartitionResult(
        [Block(tuple(sorted(b))) for b in TAIL_PUBLISHED], [])
    rep = verify_partition(spec, published, SOLVER, minimality=True)
    subsets = rep.block_audits[0].minimality
    checks["audit rejects {a,d}"] = (
        not rep.ok and rep.block_audits[0].sound is True
        and sorted(s.subset for s in subsets) == [("a",), ("d",)]
        and not any(s.dependent for s in subsets))
    failed = [name for name, ok in checks.items() if not ok]
    report("1d G((!p->!d) & (p->((a U (a&G d)) | G a))) -> {{a},{d}}"
           " (published {{a,d}} refuted)", not failed,
           f"got {sorted(map(sorted, got))}; failed checks: {failed}" if failed
           else f"phi == {TAIL_DECOUPLED} (engine, bounded 0-3/1-3); dependence "
                f"query UNSAT (engine, bounded {len(TAIL_DEPENDENCE_SHAPES)} "
                f"shapes); minimality audit rejects {{a,d}}: {{a}}, {{d}} independent")


def test_criterion_2_dependence_verdicts():
    not_ind = fixture_spec("not_ind")
    surprise = fixture_spec("surprise")
    checks = [
        (not_ind, ["a"], "not-ind {a}"),
        (not_ind, ["b", "c"], "not-ind {b,c}"),
        (surprise, ["a", "b"], "surprise {a,b}"),
        (surprise, ["c"], "surprise {c}"),
    ]
    failures = []
    for spec, w, label in checks:
        independent, witness = check_independent(spec.formula, w, spec.sys, SOLVER)
        if independent or witness is None:
            failures.append(label)
    report("2 dependence verdicts (not-ind, surprise)", not failures,
           f"unexpectedly independent: {failures}" if failures else "4/4 dependent")


def test_criterion_3_semantics_fixtures():
    phi_ex1 = parse_formula(
        "G(p -> (a | (b & c))) & F(p -> (d | e)) & F(!p -> !e)")
    model = lasso([], [state("p", "a", "d")])
    ok1 = eval_formula(model, phi_ex1, 0)

    phi = parse_formula("F ((p -> ((a | b) & c)) & (!p -> !c))")
    q = dependence_query(phi, ["a", "b"], ["c"])
    alpha = lasso([state("p", "a", "c'"), state("p", "a'", "c")],
                  [state("p", "c")])
    ok2 = eval_formula(alpha, q.left, 0) and eval_formula(alpha, q.right.left, 0)
    ok3 = not eval_formula(alpha, phi, 0)
    report("3 semantics fixtures (model, projection witness, countermodel)",
           ok1 and ok2 and ok3, f"model={ok1} projections={ok2} falsifies={ok3}")


def test_criterion_4_soundness_audit(corpus, fixture_partitions):
    bad = []
    for name, result in fixture_partitions.items():
        spec = fixture_spec(name)
        for block in result.blocks:
            independent, _ = check_independent(spec.formula, block.vars,
                                               spec.sys, SOLVER)
            if not independent:
                bad.append((name, block.vars))
    for spec, result, solver in corpus:
        for block in result.blocks:
            independent, _ = check_independent(spec.formula, block.vars,
                                               spec.sys, solver)
            if not independent:
                bad.append(("random", block.vars))
    report("4 soundness audit: fixtures + 200 random specs", not bad,
           f"unsound blocks: {bad}" if bad else "every block's query UNSAT")


def test_criterion_5_minimality_audit(corpus, fixture_partitions):
    start = time.perf_counter()
    bad = []
    for name, result in fixture_partitions.items():
        spec = fixture_spec(name)
        rep = verify_partition(spec, result, SOLVER, minimality=True)
        for audit in rep.block_audits:
            for sub in audit.minimality:
                if not sub.dependent:
                    bad.append((name, sub.subset))
    for spec, result, solver in corpus:
        rep = verify_partition(spec, result, solver, minimality=True)
        for audit in rep.block_audits:
            for sub in audit.minimality:
                if not sub.dependent:
                    bad.append(("random", sub.subset))
    elapsed = time.perf_counter() - start
    report("5 minimality audit (budget 120s)", not bad and elapsed < 120.0,
           f"independent proper subsets: {bad}" if bad
           else f"all proper subsets dependent, {elapsed:.1f}s")


def test_criterion_6_invariant_no_empty_z(corpus, fixture_partitions):
    # partition() raises InvariantViolation the moment a Sat witness
    # yields an empty disagreement set; reaching this point means no
    # query in any fixture or corpus run ever did.  Re-check the logs
    # directly for every Sat answer that drove the growth loop.
    violations = []
    runs = list(fixture_partitions.items()) + [
        (f"random{i}", result) for i, (_, result, _) in enumerate(corpus)]
    sat_seen = 0
    for name, result in runs:
        for record in result.query_log:
            if record.verdict != "SAT":
                continue
            sat_seen += 1
            # candidates: every variable with a primed copy in the witness
            cands = sorted({a.base for st_ in (list(record.witness.prefix)
                                               + list(record.witness.loop))
                            for a in st_ if a.primed})
            if cands and not compute_z(record.witness, cands):
                violations.append(name)
    report("6 growth-loop invariant: Sat witness always yields nonempty Z",
           not violations,
           f"violations in {violations}" if violations
           else f"{sat_seen} Sat witnesses checked")


def test_criterion_7_oracle_agreement():
    rng = random.Random(777)
    shapes = [(p, l) for p in range(4) for l in range(1, 4)]
    mismatches = 0
    unsound = 0
    for _ in range(500):
        f = small_formula(rng, ["p", "q", "r"], 6)
        engine = ltl_sat(f)
        if engine.is_sat and not eval_formula(engine.witness, f, 0):
            unsound += 1
        bounded_hit = False
        for p, l in shapes:
            res = bounded_sat(f, p, l)
            if res.is_sat:
                bounded_hit = True
                if not eval_formula(res.witness, f, 0):
                    unsound += 1
                break
        if bounded_hit and not engine.is_sat:
            mismatches += 1
    report("7 oracle agreement on 500 random formulas",
           mismatches == 0 and unsound == 0,
           f"mismatches={mismatches} unsound={unsound}")


def test_criterion_8_algebra_properties():
    rng = random.Random(888)
    shapes = [(0, 1), (1, 1), (2, 2), (0, 2), (2, 1)]
    failures = []
    for i in range(300):
        shape = shapes[i % len(shapes)]
        s1 = random_trace_set(rng, ["p"], ["a", "b"], shape)
        s2 = random_trace_set(rng, ["p"], ["c"], shape)
        s3 = random_trace_set(rng, ["p"], ["d"], shape)
        # (a) commutativity / associativity / monotonicity
        if set_join(s1, s2).traces != set_join(s2, s1).traces:
            failures.append((i, "commutativity"))
        if (set_join(set_join(s1, s2), s3).traces
                != set_join(s1, set_join(s2, s3)).traces):
            failures.append((i, "associativity"))
        sub = ts(s1.env, s1.sys_vars, shape,
                 [t for t in s1.traces if rng.random() < 0.5])
        if not set_join(sub, s2).traces <= set_join(s1, s2).traces:
            failures.append((i, "monotonicity"))
        # (b) idempotency of join with a projection of itself
        proj = set_project(s1, {"a"})
        if set_join(s1, proj).traces != s1.traces:
            failures.append((i, "idempotency"))
        if set_join(proj, proj).traces != proj.traces:
            failures.append((i, "idempotency-proj"))
        # (c) projection into a join is a superset of the joint projection
        if not (set_project(s1, {"a", "b"}).traces
                <= set_join(set_project(s1, {"a"}),
                            set_project(s1, {"b"})).traces):
            failures.append((i, "projection-subset"))
        # (d) join/projection exchange on disjoint system columns
        joined = set_join(s1, s2)
        lhs = set_project(joined, {"a", "c"})
        rhs = set_join(set_project(s1, {"a"}), set_project(s2, {"c"}))
        if lhs.traces != rhs.traces:
            failures.append((i, "exchange"))
    report("8 trace-set algebra (a)-(d) on 300 instances", not failures,
           f"failures: {failures[:5]}" if failures else "all laws hold")


def test_criterion_9_query_counts(fixture_partitions):
    counts = {name: fixture_partitions[name].query_count
              for name in ("intro", "pair", "triple", "tail")}
    over = {k: v for k, v in counts.items() if v > 25}
    report("9 fixture query counts <= 25", not over, f"counts: {counts}")
