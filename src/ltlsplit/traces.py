"""Ultimately periodic (lasso) traces and LTL evaluation over them.

A lasso ``prefix . loop^omega`` is the universal witness shape: every
satisfiable LTL formula has such a model, and every state is a finite set
of atoms (closed world: an atom absent from a state is false).
"""

from __future__ import annotations

import operator
import re

from .formula import (
    Always,
    And,
    Atom,
    Eventually,
    FalseF,
    Formula,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Record,
    Release,
    TrueF,
    Until,
    postorder,
    print_formula,
)
from .parser import _IDENT_RE

State = frozenset[Atom]

_NAME_RE = re.compile(f"{_IDENT_RE.pattern}'?")     # an atom, at most once primed


def state(*names: str) -> State:
    """Convenience constructor: ``state("p", "a'")`` builds a trace state."""
    out = set()
    for name in names:
        if name.endswith("'"):
            out.add(Atom(name[:-1], True))
        else:
            out.add(Atom(name))
    return frozenset(out)


class LassoTrace(Record):
    prefix: tuple[State, ...]
    loop: tuple[State, ...]

    def __init__(self, prefix: tuple[State, ...], loop: tuple[State, ...]):
        if not loop:
            raise ValueError("lasso loop must be nonempty")
        self._init(prefix, loop)

    def state_at(self, i: int) -> State:
        if i < 0:
            raise ValueError("position must be nonnegative")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.loop[(i - len(self.prefix)) % len(self.loop)]

    @property
    def positions(self) -> int:
        """Number of distinct positions: |prefix| + |loop|."""
        return len(self.prefix) + len(self.loop)

def _canon(trace: LassoTrace, i: int) -> int:
    p = len(trace.prefix)
    if i < p:
        return i
    return p + (i - p) % len(trace.loop)


# on booleans, ``a -> b`` is ``a <= b``
_CONNECTIVES = {And: operator.and_, Or: operator.or_, Implies: operator.le, Iff: operator.eq}


def _values(trace: LassoTrace, f: Formula) -> list[bool]:
    """Truth value of ``f`` at each of the finitely many distinct positions.

    Until is a least fixpoint, Release a greatest fixpoint; ``_fixpoint``
    computes both over the lasso positions.
    """
    states = trace.prefix + trace.loop
    n = len(states)
    p = len(trace.prefix)
    succ = [i + 1 if i + 1 < n else p for i in range(n)]
    values: dict[Formula, list[bool]] = {}
    for g in postorder(f):
        cls = g.__class__
        if cls is Atom:
            vals = [g in s for s in states]
        elif cls is TrueF or cls is FalseF:
            vals = [cls is TrueF] * n
        elif cls is Not:
            vals = [not v for v in values[g.arg]]
        elif cls is Next:
            av = values[g.arg]
            vals = [av[succ[i]] for i in range(n)]
        elif cls is Eventually or cls is Always:
            vals = _fixpoint([cls is Eventually] * n, values[g.arg], succ,
                             least=cls is Eventually)
        elif cls in _CONNECTIVES:
            vals = list(map(_CONNECTIVES[cls], values[g.left], values[g.right]))
        elif cls is Until or cls is Release:
            vals = _fixpoint(values[g.left], values[g.right], succ,
                             least=cls is Until)
        else:
            raise TypeError(f"unknown formula node {g!r}")
        values[g] = vals
    return values[f]


def _fixpoint(lv: list[bool], rv: list[bool], succ: list[int], least: bool) -> list[bool]:
    """``l U r`` from all-false (``least``), else ``l R r`` from all-true."""
    vals = [not least] * len(succ)
    # Two backward sweeps: one revolution from the loop entry p covers the
    # whole loop, so the first sweep fixes p (and the prefix before it), and
    # the second, whose last loop position reads p, then fixes every position.
    for _ in range(2):
        for i in range(len(succ) - 1, -1, -1):
            if least:
                vals[i] = rv[i] or (lv[i] and vals[succ[i]])
            else:
                vals[i] = rv[i] and (lv[i] or vals[succ[i]])
    return vals


def eval_formula(trace: LassoTrace, f: Formula, i: int = 0) -> bool:
    """Standard LTL semantics at position ``i`` of the infinite word."""
    if i < 0:
        raise ValueError("position must be nonnegative")
    return _values(trace, f)[_canon(trace, i)]


def compute_z(trace: LassoTrace, candidates) -> tuple[str, ...]:
    """Variables whose primed and unprimed copies disagree at some position.

    The result preserves the order of ``candidates``.
    """
    out = []
    states = trace.prefix + trace.loop
    for z in candidates:
        plain, primed = Atom(z), Atom(z, True)
        if any((plain in s) != (primed in s) for s in states):
            out.append(z)
    return tuple(out)


def format_state(s: State) -> str:
    return "{" + ", ".join(sorted(map(print_formula, s))) + "}"


def format_trace(trace: LassoTrace) -> str:
    """Bit-exact evidence serialization: ``s1 ; s2 | t1 ; t2``."""
    pre = " ; ".join(map(format_state, trace.prefix))
    loop = " ; ".join(map(format_state, trace.loop))
    return f"{pre} | {loop}" if pre else f"| {loop}"


def parse_trace(text: str) -> LassoTrace:
    if "|" not in text:
        raise ValueError("trace must contain a '|' prefix/loop separator")
    pre_text, loop_text = text.split("|", 1)

    def parse_states(part: str) -> tuple[State, ...]:
        states = []
        for chunk in part.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if not (chunk.startswith("{") and chunk.endswith("}")):
                raise ValueError(f"malformed state {chunk!r}")
            names = [w.strip() for w in chunk[1:-1].split(",") if w.strip()]
            for name in names:
                if not _NAME_RE.fullmatch(name):
                    raise ValueError(f"malformed atom name {name!r}")
            states.append(state(*names))
        return tuple(states)

    loop = parse_states(loop_text)     # first, so its faults come before the prefix's
    return LassoTrace(parse_states(pre_text), loop)
