"""Shared fixtures and random generators for the test suite."""

from __future__ import annotations

import random

from ltlsplit import (
    Always,
    And,
    Atom,
    Eventually,
    Iff,
    Implies,
    LassoTrace,
    Next,
    Not,
    Or,
    Release,
    Spec,
    Until,
    make_spec,
    parse_formula,
)
from ltlsplit.decompose import InvariantViolation, partition
from ltlsplit.engine import EngineLimitError, InternalSolver

INTRO = ("p", "t v w z",
         "G((p -> X(v & !t)) & (!p -> X(!v & t)) & "
         "(v -> X(!w & z)) & (!v -> X(w & !z)))")
PAIR = ("p", "a b", "F (p -> X(a & b)) & G !b")
TRIPLE = ("p", "a b c", "G(p -> (a | (b & c)))")
TAIL = ("p", "a d", "G((!p -> !d) & (p -> ((a U (a & G d)) | G a)))")
NOT_IND = ("p", "a b c", "G((p -> (a | b)) & (!p -> (!a & b)) & c)")
SURPRISE = ("p", "a b c", "F ((p -> ((a | b) & c)) & (!p -> !c))")

FIXTURES = {
    "intro": INTRO,
    "pair": PAIR,
    "triple": TRIPLE,
    "tail": TAIL,
    "not_ind": NOT_IND,
    "surprise": SURPRISE,
}


def fixture_spec(name: str) -> Spec:
    env, sys_, text = FIXTURES[name]
    return make_spec(env.split(), sys_.split(), parse_formula(text))


def spec_text(name: str) -> str:
    env, sys_, text = FIXTURES[name]
    return f"env: {env}\nsys: {sys_}\nformula: {text}\n"


def lasso(prefix_states, loop_states) -> LassoTrace:
    """A lasso trace from any iterables of atoms, one per state."""
    return LassoTrace(tuple(map(frozenset, prefix_states)),
                      tuple(map(frozenset, loop_states)))


def random_formula(rng: random.Random, names: list[str], depth: int):
    """Random formula skewed toward boolean structure over temporal nesting."""
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(names))
    op = rng.choices(
        ["&", "|", "->", "<->", "!", "X", "G", "F", "U", "R"],
        weights=[5, 5, 3, 1, 3, 3, 3, 3, 1, 1])[0]
    sub = lambda: random_formula(rng, names, depth - 1)
    if op == "!":
        return Not(sub())
    if op == "X":
        return Next(sub())
    if op == "G":
        return Always(sub())
    if op == "F":
        return Eventually(sub())
    binop = {"&": And, "|": Or, "->": Implies, "<->": Iff,
             "U": Until, "R": Release}[op]
    return binop(sub(), sub())


def random_spec(rng: random.Random) -> Spec:
    n_env = rng.randint(1, 2)
    n_sys = rng.randint(2, 4)
    env = [f"p{i}" for i in range(n_env)]
    sys_ = [f"a{i}" for i in range(n_sys)]
    f = random_formula(rng, env + sys_, rng.randint(2, 5))
    return make_spec(env, sys_, f)


def spec_corpus(seed: int, count: int, state_cap: int = 30_000):
    """Seeded random specs paired with their partitions.

    Specs whose queries exceed the state cap are replaced (the corpus
    exercises audit correctness, not engine capacity); an invariant
    violation is never swallowed.
    """
    rng = random.Random(seed)
    solver = InternalSolver(state_cap)
    out = []
    while len(out) < count:
        spec = random_spec(rng)
        try:
            result = partition(spec, solver)
        except EngineLimitError:
            continue
        except InvariantViolation:
            raise
        out.append((spec, result, solver))
    return out


def small_formula(rng: random.Random, names: list[str], budget: int):
    """Random formula with at most ``budget`` AST nodes."""
    if budget <= 1 or rng.random() < 0.25:
        return Atom(rng.choice(names))
    op = rng.choices(["&", "|", "!", "X", "G", "F", "U", "R", "->"],
                     weights=[4, 4, 3, 3, 3, 3, 2, 2, 2])[0]
    if op in ("!", "X", "G", "F"):
        arg = small_formula(rng, names, budget - 1)
        return {"!": Not, "X": Next, "G": Always, "F": Eventually}[op](arg)
    left_budget = rng.randint(1, budget - 2) if budget > 2 else 1
    left = small_formula(rng, names, left_budget)
    right = small_formula(rng, names, budget - 1 - left_budget)
    binop = {"&": And, "|": Or, "U": Until, "R": Release, "->": Implies}[op]
    return binop(left, right)
