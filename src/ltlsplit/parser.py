"""Parsing of formulas and of the line-oriented specification file format.

Spec files look like::

    # comment
    env: p q
    sys: a b c
    formula: G(p -> a) & F b

The formula may span multiple lines and runs to end of file.  Apostrophes
are legal in formula text only as the prime mark produced by projection
renaming; declared variable names may not carry one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .formula import (
    FALSE,
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
    Release,
    Until,
    atoms,
)

RESERVED = frozenset({"true", "false", "G", "F", "X", "U", "R"})

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class SpecError(Exception):
    """Any rejection of an input document, with an optional position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_SYMBOLS = ("<->", "->", "(", ")", "&", "|", "!")


def _tokenize(text: str, start_line: int = 1, start_col: int = 1) -> list[Token]:
    tokens: list[Token] = []
    line, col = start_line, start_col
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            m = _IDENT_RE.match(text, i)
            if not m:
                raise SpecError(f"unexpected character {ch!r}", line, col)
            word = m.group(0)
            tcol = col
            i = m.end()
            col += len(word)
            primed = False
            if i < n and text[i] == "'":
                primed = True
                i += 1
                col += 1
            if word in RESERVED:
                if primed:
                    raise SpecError(f"reserved word {word!r} cannot be primed", line, tcol)
                tokens.append(Token("kw", word, line, tcol))
            else:
                tokens.append(Token("ident'" if primed else "ident", word, line, tcol))
    tokens.append(Token("eof", "", line, col))
    return tokens


# binary operator -> (binding strength, node class); all are right associative
_BINARY_OPS = {"<->": (1, Iff), "->": (2, Implies), "|": (3, Or), "&": (4, And),
               "U": (5, Until), "R": (5, Release)}
_PREFIX_OPS = {"!": Not, "G": Always, "F": Eventually, "X": Next}
_CONSTANTS = {"true": TRUE, "false": FALSE}
_PREFIX = 6                 # binding strength of the prefix operators
_PAREN = (0, None)          # an open parenthesis on the operator stack


class _FormulaParser:
    """Operator-precedence parser with explicit operand and operator stacks.

    Precedence, loosest to tightest: ``<->``, ``->``, ``|``, ``&``,
    ``U``/``R``, unary ``! G F X``.  Every binary operator is right
    associative, so n-ary ``&``/``|`` chains fold to the right.  Nesting
    depth is bounded by memory, not by the interpreter's recursion limit.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.atom_positions: dict[str, tuple[int, int]] = {}

    def parse(self) -> Formula:
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
        for tok in self.tokens:     # the last token is always "eof"
            if expect_operand:
                if tok.text in _PREFIX_OPS:
                    operators.append((_PREFIX, _PREFIX_OPS[tok.text]))
                elif tok.text == "(":
                    operators.append(_PAREN)
                elif tok.text in _CONSTANTS:
                    operands.append(_CONSTANTS[tok.text])
                    expect_operand = False
                elif tok.kind in ("ident", "ident'"):
                    self.atom_positions.setdefault(tok.text, (tok.line, tok.col))
                    operands.append(Atom(tok.text, tok.kind == "ident'"))
                    expect_operand = False
                else:
                    raise SpecError(f"expected a formula, found {tok.text or 'end of input'!r}",
                                    tok.line, tok.col)
                continue
            op = _BINARY_OPS.get(tok.text)
            if op is not None:
                reduce(op[0])
                operators.append(op)
                expect_operand = True
                continue
            reduce(0)
            if not operators:
                if tok.kind == "eof":
                    break
                raise SpecError(f"unexpected {tok.text!r} after formula", tok.line, tok.col)
            if tok.text != ")":
                raise SpecError(f"expected ')', found {tok.text or 'end of input'!r}",
                                tok.line, tok.col)
            operators.pop()
        return operands[0]


def parse_formula(text: str) -> Formula:
    return _FormulaParser(_tokenize(text)).parse()


@dataclass(frozen=True)
class Spec:
    """A reactive-synthesis specification: env/sys variables and a formula."""

    env: tuple[str, ...]
    sys: tuple[str, ...]
    formula: Formula


def make_spec(env, sys_, formula: Formula) -> Spec:
    """Validate and build a Spec; raises SpecError on any invariant violation."""
    return _checked_spec(env, sys_, formula, {})


def _checked_spec(env, sys_, formula: Formula, positions) -> Spec:
    """``make_spec``, placing an atom fault at ``positions[base]`` when known."""
    env = tuple(env)
    sys_ = tuple(sys_)
    declared = set(env) | set(sys_)
    for a in sorted(atoms(formula), key=lambda a: (a.base, a.primed)):
        line, col = positions.get(a.base, (None, None))
        if a.primed:
            raise SpecError(f"primed atom {a.base}' not allowed in an input spec", line, col)
        if a.base not in declared:
            raise SpecError(f"undeclared atom {a.base!r}", line, col)
    for names, kind in ((env, "env"), (sys_, "sys")):
        seen = set()
        for name in names:
            if name in seen:
                raise SpecError(f"duplicate {kind} variable {name!r}")
            seen.add(name)
    overlap = set(env) & set(sys_)
    if overlap:
        raise SpecError(f"variables declared both env and sys: {sorted(overlap)}")
    return Spec(env, sys_, formula)


def _strip_comment(line: str) -> str:
    idx = line.find("#")
    return line if idx < 0 else line[:idx]


_WORD_RE = re.compile(r"\S+")


def _parse_names(line: str, kind: str, line_no: int) -> list[str]:
    """The names after ``kind:`` on a comment-stripped line, columns from that line."""
    names = []
    for m in _WORD_RE.finditer(line, line.index(f"{kind}:") + len(kind) + 1):
        part, col = m.group(0), m.start() + 1
        if "'" in part:
            raise SpecError(f"apostrophe is illegal in variable names: {part!r}",
                            line_no, col)
        if part in RESERVED:
            raise SpecError(f"reserved word {part!r} used as a variable", line_no, col)
        if not _IDENT_RE.fullmatch(part):
            raise SpecError(f"invalid variable name {part!r}", line_no, col)
        names.append(part)
    return names


def parse_spec(text: str) -> Spec:
    """Parse a full spec document; see the module docstring for the format."""
    lines = text.split("\n")
    env: list[str] | None = None
    sys_: list[str] | None = None
    formula_text: str | None = None
    formula_line = 1
    formula_col = 1

    for idx, raw in enumerate(lines):
        line_no = idx + 1
        line = _strip_comment(raw)
        stripped = line.strip()
        if not stripped:
            continue
        if env is None:
            if not stripped.startswith("env:"):
                raise SpecError("expected 'env:' line", line_no, line.find(stripped[0]) + 1)
            env = _parse_names(line, "env", line_no)
        elif sys_ is None:
            if not stripped.startswith("sys:"):
                raise SpecError("expected 'sys:' line", line_no, line.find(stripped[0]) + 1)
            sys_ = _parse_names(line, "sys", line_no)
        else:
            if not stripped.startswith("formula:"):
                raise SpecError("expected 'formula:' line", line_no, line.find(stripped[0]) + 1)
            head_col = line.index("formula:") + len("formula:") + 1
            first = line[head_col - 1:]
            formula_text = "\n".join([first] + lines[idx + 1:])
            formula_line = line_no
            formula_col = head_col
            break
    if env is None or sys_ is None or formula_text is None:
        raise SpecError("incomplete spec: need env:, sys: and formula: sections")

    parser = _FormulaParser(_tokenize(formula_text, formula_line, formula_col))
    formula = parser.parse()
    return _checked_spec(env, sys_, formula, parser.atom_positions)
