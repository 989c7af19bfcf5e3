"""LTL abstract syntax and the formula rewrites used by decomposition queries.

Atoms carry a ``primed`` flag rather than a name suffix, so the fresh
variables introduced by projection renaming can never collide with a
declared variable.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Iterable


class Formula:
    """Base class for LTL formula nodes, hash-consed (Filliâtre & Conchon 2006).

    Every node is built through one unique table keyed by its class and
    the identities of its children (an atom by ``base`` and ``primed``),
    so structurally equal formulas are the same object.  Hence ``==`` is
    ``is`` and ``hash`` is identity, and neither recurses; ``repr`` is
    ``print_formula``.  Nodes are immutable, a copy or a pickle round trip
    returns the interned node itself, and building nodes from several
    threads is safe.  The table holds its nodes weakly, so a formula
    nothing refers to is freed.
    """

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __new__(cls):       # TRUE and FALSE; nodes with fields override this
        return _intern(cls, (cls,), ())

    def __setattr__(self, *args):
        raise AttributeError("formula nodes are immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return print_formula(self)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # A flat post-order encoding, so pickling does not recurse per level.
        rank: dict[Formula, int] = {}
        rows = []
        for node in postorder(self):
            rank[node] = len(rows)
            cls = node.__class__
            rows.append((cls, node.base, node.primed) if cls is Atom else
                        (cls, *(rank[getattr(node, name)] for name in cls._fields)))
        return _from_postorder, (rows,)


# The unique table: node key -> weak reference to the node.  Keys hold the
# ids of children, not the children, so an entry whose node has died keeps
# nothing alive.  Dead entries are swept once the table has grown to twice
# its size after the last sweep, plus 4,096, so sweeping is amortized O(1).
_table: dict[tuple, weakref.ref] = {}
_table_lock = threading.Lock()
_sweep_at = 4096


def _intern(cls, key: tuple, values: tuple) -> Formula:
    """The one live node of class ``cls`` under ``key``, built from ``values`` if none."""
    global _sweep_at
    with _table_lock:
        ref = _table.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, values):
                object.__setattr__(node, name, value)
            _table[key] = weakref.ref(node)
            if len(_table) >= _sweep_at:
                for dead in [k for k, r in _table.items() if r() is None]:
                    del _table[dead]
                _sweep_at = 2 * len(_table) + 4096
        return node


def _from_postorder(rows: list[tuple]) -> Formula:
    """The formula whose ``Formula.__reduce__`` encoding is ``rows``; its root is last."""
    built: list[Formula] = []
    for cls, *fields in rows:
        built.append(cls(*fields) if cls is Atom else cls(*(built[i] for i in fields)))
    return built[-1]


class TrueF(Formula):
    __slots__ = ()


class FalseF(Formula):
    __slots__ = ()


IDENT = r"[A-Za-z_][A-Za-z0-9_]*"     # the pattern of an atom's base name


class Atom(Formula):
    __slots__ = ("base", "primed")
    _fields = __slots__

    def __new__(cls, base: str, primed: bool = False):
        return _intern(cls, (cls, base, primed), (base, primed))


class _Unary(Formula):
    __slots__ = ("arg",)
    _fields = __slots__

    def __new__(cls, arg: Formula):
        return _intern(cls, (cls, id(arg)), (arg,))


class _Binary(Formula):
    __slots__ = ("left", "right")
    _fields = __slots__

    def __new__(cls, left: Formula, right: Formula):
        return _intern(cls, (cls, id(left), id(right)), (left, right))


class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class Next(_Unary):
    __slots__ = ()


class Eventually(_Unary):
    __slots__ = ()


class Always(_Unary):
    __slots__ = ()


class Until(_Binary):
    __slots__ = ()


class Release(_Binary):
    __slots__ = ()


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
    seen: set[Formula] = set()
    stack: list = [f]
    pop, emit, mark = stack.pop, order.append, seen.add
    while stack:
        node = pop()
        if node is None:        # the node beneath this marker has its children listed
            emit(pop())
            continue
        if node in seen:
            continue
        mark(node)
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

    The unique table hands back each node whose children did not change,
    so a mapping that changes no atom returns ``f`` itself.
    """
    new: dict[Formula, Formula] = {}
    for node in postorder(f):
        cls = node.__class__
        if cls is Atom:
            image = fn(node)
        elif cls in _BINARY:
            image = cls(new[node.left], new[node.right])
        elif cls in _UNARY:
            image = cls(new[node.arg])
        else:
            image = node
        new[node] = image
    return new[f]


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

