"""Parsing of formulas and of the line-oriented specification file format.

Spec files look like::

    # comment
    env: p q
    sys: a b c
    formula: G(p -> a) & F b

The formula may span multiple lines and runs to end of file; a ``#``
starts a comment that runs to end of line.  Apostrophes are legal in
formula text only as the prime mark produced by projection renaming;
declared variable names may not carry one.
"""

from __future__ import annotations

import re

from .formula import (
    FALSE,
    IDENT,
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    Formula,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Record,
    Release,
    Until,
    atoms,
)

RESERVED = frozenset({"true", "false", "G", "F", "X", "U", "R"})

_BLANKS = " \t\r"           # the only whitespace besides the newline, in formulas and headers

# One token per match, every character covered: a newline, a run of blanks,
# a comment to end of line, a symbol, an identifier with an optional prime,
# or any other single character, which is an error.
_TOKEN_RE = re.compile(rf"(\n)|[{_BLANKS}]+|#.*|(<->|->|[()&|!])|({IDENT})(')?|(.)")


class SpecError(Exception):
    """Any rejection of an input document, with an optional position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


def _tokenize(text: str, line: int = 1, col: int = 1) -> list[tuple[str, str, int, int]]:
    """``(kind, text, line, col)`` tokens, ending with an ``eof`` token."""
    tokens = []
    line_start = 1 - col            # the text index that would sit in column 1
    m = None
    for m in _TOKEN_RE.finditer(text):
        newline, sym, word, prime, other = m.groups()
        col = m.start() - line_start + 1
        if newline:
            line += 1
            line_start = m.end()
        elif sym:
            tokens.append(("sym", sym, line, col))
        elif word in RESERVED:
            if prime:
                raise SpecError(f"reserved word {word!r} cannot be primed", line, col)
            tokens.append(("kw", word, line, col))
        elif word:
            tokens.append(("ident'" if prime else "ident", word, line, col))
        elif other:
            raise SpecError(f"unexpected character {other!r}", line, col)
    # a trailing comment does not count toward the end-of-input column
    end = m.start() if m and m.group().startswith("#") else len(text)
    tokens.append(("eof", "", line, end - line_start + 1))
    return tokens


# binary operator -> (binding strength, node class); all are right associative
_BINARY_OPS = {"<->": (1, Iff), "->": (2, Implies), "|": (3, Or), "&": (4, And),
               "U": (5, Until), "R": (5, Release)}
_PREFIX_OPS = {"!": Not, "G": Always, "F": Eventually, "X": Next}
_CONSTANTS = {"true": TRUE, "false": FALSE}
_PREFIX = 6                 # binding strength of the prefix operators
_PAREN = (0, None)          # an open parenthesis on the operator stack


def _parse(tokens: list[tuple[str, str, int, int]], positions: dict) -> Formula:
    """Operator-precedence parser with explicit operand and operator stacks.

    Precedence, loosest to tightest: ``<->``, ``->``, ``|``, ``&``,
    ``U``/``R``, unary ``! G F X``.  Every binary operator is right
    associative, so n-ary ``&``/``|`` chains fold to the right.  Nesting
    depth is bounded by memory, not by the interpreter's recursion limit.
    Each atom's first ``(line, col)`` goes into ``positions`` under its base.
    """
    operands: list[Formula] = []
    operators: list[tuple[int, type | None]] = []

    def reduce(strength: int) -> None:
        """Apply stacked operators that bind tighter than ``strength``."""
        while operators and operators[-1][0] > strength:
            prec, cls = operators.pop()
            if prec == _PREFIX:
                operands[-1] = cls(operands[-1])
            else:
                right = operands.pop()
                operands[-1] = cls(operands[-1], right)

    expect_operand = True
    for kind, text, line, col in tokens:     # the last is always "eof"
        if expect_operand:
            if text in _PREFIX_OPS:
                operators.append((_PREFIX, _PREFIX_OPS[text]))
            elif text == "(":
                operators.append(_PAREN)
            elif text in _CONSTANTS:
                operands.append(_CONSTANTS[text])
                expect_operand = False
            elif kind in ("ident", "ident'"):
                positions.setdefault(text, (line, col))
                operands.append(Atom(text, kind == "ident'"))
                expect_operand = False
            else:
                raise SpecError(f"expected a formula, found {text or 'end of input'!r}", line, col)
            continue
        op = _BINARY_OPS.get(text)
        if op is not None:
            reduce(op[0])
            operators.append(op)
            expect_operand = True
            continue
        reduce(0)
        if not operators:
            if kind == "eof":
                break
            raise SpecError(f"unexpected {text!r} after formula", line, col)
        if text != ")":
            raise SpecError(f"expected ')', found {text or 'end of input'!r}", line, col)
        operators.pop()
    return operands[0]


def parse_formula(text: str) -> Formula:
    return _parse(_tokenize(text), {})


class Spec(Record):
    """A reactive-synthesis specification: env/sys variables and a formula."""

    env: tuple[str, ...]
    sys: tuple[str, ...]
    formula: Formula


def make_spec(env, sys_, formula: Formula) -> Spec:
    """Validate and build a Spec; raises SpecError on any invariant violation."""
    return _checked_spec(env, sys_, formula, {})


def _checked_spec(env, sys_, formula: Formula, positions) -> Spec:
    """``make_spec``, placing a fault at ``positions`` when known: an atom's
    under its base name, a declared name's under ``(kind, index)``."""
    env = tuple(env)
    sys_ = tuple(sys_)
    env_names = set(env)
    declared = env_names | set(sys_)
    for a in sorted(atoms(formula), key=lambda a: (a.base, a.primed)):
        at = positions.get(a.base, (None, None))
        if a.primed:
            raise SpecError(f"primed atom {a.base}' not allowed in an input spec", *at)
        if a.base not in declared:
            raise SpecError(f"undeclared atom {a.base!r}", *at)
    for names, kind in ((env, "env"), (sys_, "sys")):
        first: dict[str, int] = {}
        for i, name in enumerate(names):
            if first.setdefault(name, i) < i:
                raise SpecError(f"duplicate {kind} variable {name!r}",
                                *positions.get((kind, i), (None, None)))
    for i, name in enumerate(sys_):
        if name in env_names:
            raise SpecError(f"variables declared both env and sys: {sorted(env_names & set(sys_))}",
                            *positions.get(("sys", i), (None, None)))
    return Spec(env, sys_, formula)


_WORD_RE = re.compile(rf"[^{_BLANKS}]+")
_HEADERS = ("env", "sys", "formula")


def parse_spec(text: str) -> Spec:
    """Parse a full spec document; see the module docstring for the format."""
    names: dict[str, list[str]] = {}
    positions: dict = {}
    start = 0                       # text index of the current line
    for line_no, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0]
        stripped = line.strip(_BLANKS)
        if stripped:
            kind = _HEADERS[len(names)]
            if not stripped.startswith(f"{kind}:"):
                col = line.find(stripped[0]) + 1
                _tokenize(stripped[0], line_no, col)    # raises on a character no token starts with
                raise SpecError(f"expected '{kind}:' line", line_no, col)
            head = line.index(":") + 1
            if kind == "formula":
                formula = _parse(_tokenize(text[start + head:], line_no, head + 1), positions)
                return _checked_spec(names["env"], names["sys"], formula, positions)
            names[kind] = []
            for m in _WORD_RE.finditer(line, head):
                part, col = m.group(0), m.start() + 1
                if "'" in part:
                    raise SpecError(f"apostrophe is illegal in variable names: {part!r}",
                                    line_no, col)
                if part in RESERVED:
                    raise SpecError(f"reserved word {part!r} used as a variable", line_no, col)
                if not re.fullmatch(IDENT, part):
                    raise SpecError(f"invalid variable name {part!r}", line_no, col)
                positions[kind, len(names[kind])] = line_no, col
                names[kind].append(part)
        start += len(raw) + 1
    raise SpecError("incomplete spec: need env:, sys: and formula: sections")
