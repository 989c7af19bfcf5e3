"""Test-support oracles independent of the Buchi engine.

``bounded_sat`` exhaustively enumerates every lasso of a fixed shape, so
it can cross-check the engine without sharing any code path with the
tableau.  The trace-set operations realize the projection/join algebra
on explicit finite sets.  Of the package it uses only the formula nodes,
``atoms``, ``LassoTrace``, ``SatResult`` and ``UNSAT``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from ltlsplit.formula import (
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
    Release,
    TrueF,
    Until,
    atoms,
)
from ltlsplit.engine import SatResult, UNSAT
from ltlsplit.traces import LassoTrace

ENUMERATION_BUDGET = 2 ** 22


class EnumerationBudgetError(Exception):
    pass


def _mask_values(f: Formula, atom_masks: dict[Atom, np.ndarray], n: int, p: int,
                 memo: dict, zero: np.ndarray, full_val: int) -> np.ndarray:
    """Per-candidate truth of ``f``, one n-bit integer per array element."""
    v = memo.get(f)
    if v is not None:
        return v
    full = np.uint32(full_val)
    half = np.uint32(full_val >> 1)
    loop_bit = np.uint32(1 << (n - 1))

    def shift_next(val: np.ndarray) -> np.ndarray:
        # bit i of result = bit succ(i) of val, succ(n-1) = p
        res = (val >> np.uint32(1)) & half
        return res | np.where((val >> np.uint32(p)) & np.uint32(1), loop_bit,
                              np.uint32(0))

    def rec(g):
        return _mask_values(g, atom_masks, n, p, memo, zero, full_val)

    if isinstance(f, TrueF):
        v = zero | full
    elif isinstance(f, FalseF):
        v = zero
    elif isinstance(f, Atom):
        v = atom_masks.get(f, zero)
    elif isinstance(f, Not):
        v = full ^ rec(f.arg)
    elif isinstance(f, And):
        v = rec(f.left) & rec(f.right)
    elif isinstance(f, Or):
        v = rec(f.left) | rec(f.right)
    elif isinstance(f, Implies):
        v = (full ^ rec(f.left)) | rec(f.right)
    elif isinstance(f, Iff):
        v = full ^ (rec(f.left) ^ rec(f.right))
    elif isinstance(f, Next):
        v = shift_next(rec(f.arg))
    elif isinstance(f, (Until, Eventually)):
        if isinstance(f, Eventually):
            a, b = zero | full, rec(f.arg)
        else:
            a, b = rec(f.left), rec(f.right)
        v = zero  # least fixpoint of v = b | (a & X v), reached within n steps
        for _ in range(n):
            v = b | (a & shift_next(v))
    elif isinstance(f, (Release, Always)):
        if isinstance(f, Always):
            a, b = zero, rec(f.arg)
        else:
            a, b = rec(f.left), rec(f.right)
        v = zero | full  # greatest fixpoint of v = b & (a | X v)
        for _ in range(n):
            v = b & (a | shift_next(v))
    else:
        raise TypeError(f"unknown formula node {f!r}")
    memo[f] = v
    return v


_CHUNK = 1 << 16


def bounded_sat(f: Formula, prefix_len: int, loop_len: int) -> SatResult:
    """Enumerate every lasso of shape (prefix_len, loop_len) over atoms(f).

    Returns the first satisfying trace in canonical order (candidate
    traces ordered by their packed bit encoding, atom j at position i
    being bit i*k+j), or Unsat at this bound.  Evaluation is vectorized
    over candidate chunks.
    """
    if loop_len < 1:
        raise ValueError("loop length must be >= 1")
    alphabet = sorted(atoms(f), key=lambda a: (a.base, a.primed))
    k = len(alphabet)
    n = prefix_len + loop_len
    if k * n > 22 or 2 ** (k * n) > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"shape ({prefix_len},{loop_len}) over {k} atoms exceeds the budget")

    total = 2 ** (k * n)
    full_val = (1 << n) - 1
    for start in range(0, total, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total), dtype=np.uint32)
        zero = np.zeros(len(codes), dtype=np.uint32)
        masks: dict[Atom, np.ndarray] = {}
        for j, a in enumerate(alphabet):
            m = zero.copy()
            for i in range(n):
                m |= ((codes >> np.uint32(i * k + j)) & np.uint32(1)) << np.uint32(i)
            masks[a] = m
        sat_now = _mask_values(f, masks, n, prefix_len, {}, zero, full_val) & np.uint32(1)
        hits = np.nonzero(sat_now)[0]
        if len(hits):
            code = int(codes[hits[0]])
            states = [frozenset(a for j, a in enumerate(alphabet)
                                if code >> (i * k + j) & 1)
                      for i in range(n)]
            return SatResult(LassoTrace(tuple(states[:prefix_len]),
                                        tuple(states[prefix_len:])))
    return UNSAT


def project_lasso(trace: LassoTrace, keep, system) -> LassoTrace:
    """Keep environment atoms plus system atoms in ``keep``; drop primes.

    ``system`` is the full set of system variable names; every unprimed
    atom outside it is treated as an environment atom and kept.
    """
    keep = frozenset(keep)
    system = frozenset(system)

    def proj(s):
        return frozenset(a for a in s
                         if not a.primed and (a.base not in system or a.base in keep))

    return LassoTrace(tuple(proj(s) for s in trace.prefix),
                      tuple(proj(s) for s in trace.loop))


def unroll_lasso(trace: LassoTrace, prefix_len: int, loop_len: int) -> LassoTrace:
    """Re-shape to a longer, equivalent representation of the same word."""
    if prefix_len < len(trace.prefix) or loop_len % len(trace.loop) != 0:
        raise ValueError("incompatible unroll shape")
    return LassoTrace(tuple(trace.state_at(i) for i in range(prefix_len)),
                      tuple(trace.state_at(prefix_len + i) for i in range(loop_len)))


@dataclass(frozen=True)
class TraceSet:
    """A finite, explicit set of lasso traces over env plus ``sys_vars``.

    All member traces share one (prefix length, loop length) shape.
    """

    env: tuple[str, ...]
    sys_vars: tuple[str, ...]
    prefix_len: int
    loop_len: int
    traces: frozenset[LassoTrace]

    def __post_init__(self):
        allowed = set(self.env) | set(self.sys_vars)
        for t in self.traces:
            if len(t.prefix) != self.prefix_len or len(t.loop) != self.loop_len:
                raise ValueError("trace shape differs from the set's shape")
            for s in list(t.prefix) + list(t.loop):
                for a in s:
                    if a.primed or a.base not in allowed:
                        raise ValueError(f"atom {a} outside the set's alphabet")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.prefix_len, self.loop_len)


def trace_set(env, sys_vars, prefix_len, loop_len, traces) -> TraceSet:
    return TraceSet(tuple(env), tuple(sys_vars), prefix_len, loop_len,
                    frozenset(traces))


def set_project(sigma: TraceSet, w) -> TraceSet:
    """Element-wise trace projection over ``w``, deduplicated."""
    w = frozenset(w)
    kept = tuple(v for v in sigma.sys_vars if v in w)
    projected = frozenset(project_lasso(t, w, sigma.sys_vars)
                          for t in sigma.traces)
    return TraceSet(sigma.env, kept, sigma.prefix_len, sigma.loop_len, projected)


def align(s1: TraceSet, s2: TraceSet) -> tuple[TraceSet, TraceSet]:
    """Unroll both sets to a common shape (max prefix, lcm of loops)."""
    p = max(s1.prefix_len, s2.prefix_len)
    l = s1.loop_len * s2.loop_len // gcd(s1.loop_len, s2.loop_len)

    def reshape(s: TraceSet) -> TraceSet:
        if s.shape == (p, l):
            return s
        return TraceSet(s.env, s.sys_vars, p, l,
                        frozenset(unroll_lasso(t, p, l) for t in s.traces))

    return reshape(s1), reshape(s2)


def set_join(s1: TraceSet, s2: TraceSet) -> TraceSet:
    """All traces over the union alphabet whose projections land in each set.

    Requires shape-aligned inputs (see ``align``).  Two traces combine
    when they agree on the environment columns and on the shared system
    variables.
    """
    if s1.shape != s2.shape:
        raise ValueError(f"shape mismatch: {s1.shape} vs {s2.shape}")
    if s1.env != s2.env:
        raise ValueError("joined sets must share the environment alphabet")
    shared = set(s1.sys_vars) & set(s2.sys_vars)
    common = set(s1.env) | shared

    def columns(t: LassoTrace) -> tuple:
        return tuple(frozenset(a for a in t.state_at(i) if a.base in common)
                     for i in range(t.positions))

    def union(t1: LassoTrace, t2: LassoTrace) -> LassoTrace:
        return LassoTrace(
            tuple(a | b for a, b in zip(t1.prefix, t2.prefix)),
            tuple(a | b for a, b in zip(t1.loop, t2.loop)))

    by_cols: dict[tuple, list[LassoTrace]] = {}
    for t in s2.traces:
        by_cols.setdefault(columns(t), []).append(t)
    out = set()
    for t1 in s1.traces:
        for t2 in by_cols.get(columns(t1), ()):
            out.add(union(t1, t2))
    sys_union = tuple(dict.fromkeys(s1.sys_vars + s2.sys_vars))
    return TraceSet(s1.env, sys_union, s1.prefix_len, s1.loop_len, frozenset(out))
