"""LTL abstract syntax and the formula rewrites used by decomposition queries.

Atoms carry a ``primed`` flag rather than a name suffix, so the fresh
variables introduced by projection renaming can never collide with a
declared variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class Formula:
    """Base class for LTL formula nodes. Nodes are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    base: str
    primed: bool = False


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    arg: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    arg: Formula


@dataclass(frozen=True)
class Always(Formula):
    arg: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    left: Formula
    right: Formula


TRUE = TrueF()
FALSE = FalseF()

# node class -> its text in the surface grammar, for unary and binary nodes
_UNARY = {Not: "!", Next: "X ", Eventually: "F ", Always: "G "}
_BINARY = {And: " & ", Or: " | ", Implies: " -> ", Iff: " <-> ", Until: " U ", Release: " R "}
_CONSTANT = {TrueF: "true", FalseF: "false"}


def postorder(f: Formula) -> list[Formula]:
    """Every distinct node object of ``f`` once, children (left to right) first.

    A node shared by several parents is listed at its first occurrence.
    The walk keeps its own stack, so depth is bounded by memory, not by
    the recursion limit; every formula pass in the package uses this list.
    """
    order: list[Formula] = []
    seen: set[int] = set()
    stack: list = [f]
    pop, emit, mark = stack.pop, order.append, seen.add
    while stack:
        node = pop()
        if node is None:        # the node beneath this marker has its children listed
            emit(pop())
            continue
        key = id(node)
        if key in seen:
            continue
        mark(key)
        cls = node.__class__
        if cls in _BINARY:
            stack += (node, None, node.right, node.left)
        elif cls in _UNARY:
            stack += (node, None, node.arg)
        else:
            emit(node)
    return order


def atoms(f: Formula) -> frozenset[Atom]:
    """The exact set of atoms (primed or not) occurring in ``f``."""
    return frozenset(n for n in postorder(f) if n.__class__ is Atom)


def map_atoms(f: Formula, fn) -> Formula:
    """Rebuild ``f`` with every Atom leaf replaced by ``fn(atom)``.

    A node none of whose children changed is kept as it is, so a mapping
    that changes no atom returns ``f`` itself.
    """
    new: dict[int, Formula] = {}
    for node in postorder(f):
        cls = node.__class__
        if cls is Atom:
            image = fn(node)
        elif cls in _BINARY:
            left, right = new[id(node.left)], new[id(node.right)]
            image = node if left is node.left and right is node.right else cls(left, right)
        elif cls in _UNARY:
            arg = new[id(node.arg)]
            image = node if arg is node.arg else cls(arg)
        else:
            image = node
        new[id(node)] = image
    return new[id(f)]


def rename_projection(f: Formula, w: Iterable[str]) -> Formula:
    """Prime every unprimed atom whose name is in ``w``; the rest is untouched.

    Raises ValueError if ``f`` already contains a primed atom with a base
    in ``w`` (re-priming would conflate two distinct renamings).
    """
    names = frozenset(w)

    def prime(a: Atom) -> Atom:
        if a.base not in names:
            return a
        if a.primed:
            raise ValueError(f"cannot re-prime variable {a.base!r}")
        return Atom(a.base, True)

    return map_atoms(f, prime)


def unprime(f: Formula) -> Formula:
    """Replace every primed atom by its unprimed base variable."""
    return map_atoms(f, lambda a: Atom(a.base, False) if a.primed else a)


def lock_conjunct(f: Formula, z: str) -> Formula:
    """Conjoin the constraint that ``z`` always agrees with its primed copy.

    Applied structurally: locking the same variable twice yields two
    conjuncts.
    """
    return And(f, Always(Iff(Atom(z), Atom(z, True))))


def dependence_query(phi: Formula, w: Iterable[str], y: Iterable[str]) -> Formula:
    """The satisfiability query whose models certify that ``w`` is dependent.

    Builds the conjunction of the two projection renamings of ``phi``
    (over ``w`` and over ``y``) with the negation of ``phi`` itself.
    """
    w = tuple(w)
    y = tuple(y)
    if set(w) & set(y):
        raise ValueError("projection variable sets must be disjoint")
    return And(rename_projection(phi, w), And(rename_projection(phi, y), Not(phi)))


def print_formula(f: Formula) -> str:
    """Render a formula in the surface grammar; binaries are parenthesized."""
    out: list[str] = []
    stack: list = [f]       # nodes still to print, and the text that follows them
    while stack:
        node = stack.pop()
        cls = node.__class__
        if cls is str:
            out.append(node)
        elif cls is Atom:
            out.append(node.base + "'" if node.primed else node.base)
        elif cls in _UNARY:
            out.append(_UNARY[cls])
            stack.append(node.arg)
        elif cls in _BINARY:
            out.append("(")
            stack += (")", node.right, _BINARY[cls], node.left)
        else:
            out.append(_CONSTANT[cls])
    return "".join(out)
