"""Spec-text generators for the benchmark, vendored so that test edits cannot move it.

Everything here produces spec *text*: the program under test only ever sees
what ``parse_spec`` reads.  The corpus generator replays the random draws of
``tests/helpers.random_spec`` call for call, so one seed gives the same
formulas as the test helper, printed in the grammar of ``print_formula``.
"""

from __future__ import annotations

import hashlib
import random
import re

# name -> (env, sys, formula): the six hand-written fixtures of the test suite.
FIXTURES = {
    "intro": ("p", "t v w z",
              "G((p -> X(v & !t)) & (!p -> X(!v & t)) & "
              "(v -> X(!w & z)) & (!v -> X(w & !z)))"),
    "pair": ("p", "a b", "F (p -> X(a & b)) & G !b"),
    "triple": ("p", "a b c", "G(p -> (a | (b & c)))"),
    "tail": ("p", "a d", "G((!p -> !d) & (p -> ((a U (a & G d)) | G a)))"),
    "not_ind": ("p", "a b c", "G((p -> (a | b)) & (!p -> (!a & b)) & c)"),
    "surprise": ("p", "a b c", "F ((p -> ((a | b) & c)) & (!p -> !c))"),
}

CORPUS_SEED = 20240817

_UNARY = {"!": "!", "X": "X ", "G": "G ", "F": "F "}
_BINARY = {"&": "&", "|": "|", "->": "->", "<->": "<->", "U": "U", "R": "R"}


def digest(text: str) -> str:
    """Short content hash, used to detect a generator that has drifted."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def spec_text(env, sys_, formula: str) -> str:
    return f"env: {' '.join(env)}\nsys: {' '.join(sys_)}\nformula: {formula}\n"


def rename(text: str, rng: random.Random) -> str:
    """Give every declared variable a fresh seeded name, keeping declaration order.

    The renamed spec is the same problem up to variable names, so it costs the
    engine the same work while its text depends on the seed.
    """
    lines = text.splitlines()
    declared = lines[0].split()[1:] + lines[1].split()[1:]
    fresh: set[str] = set()
    while len(fresh) < len(declared):
        fresh.add(rng.choice("bcdehijklmnoqsuy") + str(rng.randrange(1000)))
    mapping = dict(zip(declared, rng.sample(sorted(fresh), len(declared))))
    return re.sub(r"[A-Za-z_][A-Za-z0-9_]*",
                  lambda m: mapping.get(m.group(0), m.group(0)), text)


def fixture_text(name: str) -> str:
    env, sys_, formula = FIXTURES[name]
    return spec_text(env.split(), sys_.split(), formula)


def random_formula(rng: random.Random, names: list[str], depth: int) -> str:
    """Same draws as ``tests/helpers.random_formula``; returns printed text."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(names)
    op = rng.choices(
        ["&", "|", "->", "<->", "!", "X", "G", "F", "U", "R"],
        weights=[5, 5, 3, 1, 3, 3, 3, 3, 1, 1])[0]
    if op in _UNARY:
        return _UNARY[op] + random_formula(rng, names, depth - 1)
    left = random_formula(rng, names, depth - 1)
    right = random_formula(rng, names, depth - 1)
    return f"({left} {_BINARY[op]} {right})"


def random_spec(rng: random.Random) -> str:
    """Same draws as ``tests/helpers.random_spec``; returns spec text."""
    n_env = rng.randint(1, 2)
    n_sys = rng.randint(2, 4)
    env = [f"p{i}" for i in range(n_env)]
    sys_ = [f"a{i}" for i in range(n_sys)]
    return spec_text(env, sys_, random_formula(rng, env + sys_, rng.randint(2, 5)))


def corpus(seed: int, count: int) -> list[str]:
    """The first ``count`` draws of the corpus stream for ``seed``."""
    rng = random.Random(seed)
    return [random_spec(rng) for _ in range(count)]


def resp(n: int) -> str:
    """``n`` disjoint response conjuncts ``G(p_i -> X a_i)``: all blocks singletons."""
    formula = " & ".join(f"G(p{i} -> X a{i})" for i in range(n))
    return spec_text([f"p{i}" for i in range(n)], [f"a{i}" for i in range(n)], formula)


def chain(n: int) -> str:
    """A response chain ``G((p -> X a0) & (a0 -> X a1) & ...)`` over ``n`` outputs."""
    links = ["(p -> X a0)"] + [f"(a{i} -> X a{i + 1})" for i in range(n - 1)]
    return spec_text(["p"], [f"a{i}" for i in range(n)], f"G({' & '.join(links)})")
