"""Formula grammar, precedence, and the spec file format."""

import hashlib
import random

import pytest

from ltlsplit import (
    Always,
    And,
    Atom,
    Eventually,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    SpecError,
    Until,
    make_spec,
    parse_formula,
    parse_spec,
)
from helpers import spec_text


class TestPrecedence:
    def test_iff_loosest(self):
        assert parse_formula("a -> b <-> c") == Iff(Implies(Atom("a"), Atom("b")),
                                                    Atom("c"))

    def test_implies_over_or(self):
        assert parse_formula("a | b -> c") == Implies(Or(Atom("a"), Atom("b")),
                                                      Atom("c"))

    def test_or_over_and(self):
        assert parse_formula("a & b | c") == Or(And(Atom("a"), Atom("b")), Atom("c"))

    def test_until_tighter_than_and(self):
        assert parse_formula("a U b & c") == And(Until(Atom("a"), Atom("b")),
                                                 Atom("c"))

    def test_until_right_associative(self):
        assert parse_formula("a U b U c") == Until(Atom("a"),
                                                   Until(Atom("b"), Atom("c")))

    def test_release(self):
        assert parse_formula("a R b") == Release(Atom("a"), Atom("b"))

    def test_unary_chain(self):
        assert parse_formula("G F !a") == Always(Eventually(Not(Atom("a"))))
        assert parse_formula("X a U b") == Until(Next(Atom("a")), Atom("b"))

    def test_nary_chains_fold_right(self):
        assert parse_formula("a & b & c") == And(Atom("a"), And(Atom("b"), Atom("c")))
        assert parse_formula("a | b | c") == Or(Atom("a"), Or(Atom("b"), Atom("c")))

    def test_primed_atom(self):
        assert parse_formula("a'") == Atom("a", True)

    def test_comment_in_formula(self):
        assert parse_formula("a & # noise\n b") == And(Atom("a"), Atom("b"))


class TestFormulaErrors:
    @pytest.mark.parametrize("text,line,col", [
        ("a &", 1, 4),
        ("(a", 1, 3),
        ("a b", 1, 3),
        ("$", 1, 1),
        ("\n  @", 2, 3),
    ])
    def test_positions(self, text, line, col):
        with pytest.raises(SpecError) as err:
            parse_formula(text)
        assert err.value.line == line
        assert err.value.col == col

    @pytest.mark.parametrize("text,message", [
        ("a )", "1:3: unexpected ')' after formula"),
        ("& a", "1:1: expected a formula, found '&'"),
        ("G", "1:2: expected a formula, found 'end of input'"),
        ("!)", "1:2: expected a formula, found ')'"),
        ("(a b)", "1:4: expected ')', found 'b'"),
        ("((a)", "1:5: expected ')', found 'end of input'"),
        ("a U", "1:4: expected a formula, found 'end of input'"),
        ("X'", "1:1: reserved word 'X' cannot be primed"),
        ("a & & b", "1:5: expected a formula, found '&'"),
        ("()", "1:2: expected a formula, found ')'"),
        ("(a) (b)", "1:5: unexpected '(' after formula"),
        ("a R (b", "1:7: expected ')', found 'end of input'"),
    ])
    def test_messages(self, text, message):
        with pytest.raises(SpecError) as err:
            parse_formula(text)
        assert str(err.value) == message

    def test_reserved_cannot_be_primed(self):
        with pytest.raises(SpecError):
            parse_formula("G'")

    def test_empty_input(self):
        with pytest.raises(SpecError):
            parse_formula("   ")


class TestParseSpec:
    def test_simple(self):
        spec = parse_spec("env: p\nsys: a b\nformula: G(p -> a) & F b\n")
        assert spec.env == ("p",)
        assert spec.sys == ("a", "b")
        assert spec.formula == And(Always(Implies(Atom("p"), Atom("a"))),
                                   Eventually(Atom("b")))

    def test_intro_fixture(self):
        spec = parse_spec(spec_text("intro"))
        assert spec.env == ("p",)
        assert len(spec.sys) == 4

    def test_multiline_formula(self):
        spec = parse_spec("env: p\nsys: a\nformula: G(p ->\n  a)\n")
        assert spec.formula == Always(Implies(Atom("p"), Atom("a")))

    def test_comments_and_blank_lines(self):
        spec = parse_spec("# header\n\nenv: p  # env vars\nsys: a\nformula: a\n")
        assert spec.env == ("p",)

    def test_empty_env(self):
        spec = parse_spec("env:\nsys: a\nformula: a\n")
        assert spec.env == ()

    def test_env_sys_overlap(self):
        with pytest.raises(SpecError, match="both env and sys"):
            parse_spec("env: p\nsys: p a\nformula: a\n")

    def test_duplicate_declaration(self):
        with pytest.raises(SpecError, match="duplicate"):
            parse_spec("env: p p\nsys: a\nformula: a\n")

    def test_undeclared_atom_positioned(self):
        with pytest.raises(SpecError) as err:
            parse_spec("env: p\nsys: a\nformula: G(p -> q)\n")
        assert "q" in str(err.value)
        assert err.value.line == 3
        assert err.value.col == 17

    def test_primed_atom_rejected_in_input(self):
        with pytest.raises(SpecError, match="primed"):
            parse_spec("env: p\nsys: a\nformula: a'\n")

    def test_apostrophe_in_declaration(self):
        with pytest.raises(SpecError, match="apostrophe"):
            parse_spec("env: p'\nsys: a\nformula: a\n")

    def test_reserved_word_as_variable(self):
        with pytest.raises(SpecError, match="reserved"):
            parse_spec("env: G\nsys: a\nformula: a\n")

    @pytest.mark.parametrize("text,line,col", [
        ("env: p q'\nsys: a\nformula: a\n", 1, 8),
        ("env: p\nsys: a G\nformula: a\n", 2, 8),
        ("env: p\nsys: abc 9x\nformula: a\n", 2, 10),
        ("  env: p x'\nsys: a\nformula: a\n", 1, 10),
    ], ids=["env-apostrophe", "sys-reserved", "sys-invalid-name", "indented-env"])
    def test_declaration_error_columns(self, text, line, col):
        with pytest.raises(SpecError) as err:
            parse_spec(text)
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize("text,line,col,message", [
        ("\x0cenv:\xa0p\nsys: a\nformula: a", 1, 1, "unexpected character '\\x0c'"),
        ("env: p\nsys: a\nformula: a\xa0& p", 3, 11, "unexpected character '\\xa0'"),
        ("env: p\nsys: a\nformula:\x0ca", 3, 9, "unexpected character '\\x0c'"),
    ], ids=["form-feed-before-header", "nbsp-in-formula", "form-feed-in-formula"])
    def test_headers_and_formulas_share_one_whitespace(self, text, line, col, message):
        """Only space, tab, carriage return and newline separate, as in formulas."""
        with pytest.raises(SpecError) as err:
            parse_spec(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert str(err.value) == f"{line}:{col}: {message}"

    def test_missing_sections(self):
        with pytest.raises(SpecError, match="incomplete"):
            parse_spec("env: p\n")

    def test_declared_but_unused_ok(self):
        spec = parse_spec("env: p q\nsys: a b\nformula: a\n")
        assert spec.sys == ("a", "b")


class TestMakeSpec:
    def test_valid(self):
        spec = make_spec(["p"], ["a"], parse_formula("p -> a"))
        assert spec.env == ("p",)

    def test_undeclared(self):
        with pytest.raises(SpecError, match="undeclared"):
            make_spec(["p"], ["a"], parse_formula("b"))


# Pieces of seeded random formula text: well-formed token streams, then token
# faults, with every kind of gap and comment the grammar allows.
_OPERANDS = ["a", "b", "c", "p", "q", "d", "a'", "true", "false"]
_UNARY_OPS = ["!", "G", "F", "X"]
_BINARY_OPS = ["&", "|", "->", "<->", "U", "R"]
_NOISE = ["(", ")", "'", "$", "9", "<", "-", "X'", "true'", "a''", "@", "\f", "\u00e9"]
_GAPS = [" ", " ", "", "\t", "\n", "\r\n", "  # note\n", "#\n"]
_PADDING = ["", "  ", "# comment", "\t# env: x", "\f", "   # sys: y"]


def _random_tokens(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return [rng.choice(_OPERANDS)]
    if rng.random() < 0.3:
        return [rng.choice(_UNARY_OPS)] + _random_tokens(rng, depth - 1)
    inner = (_random_tokens(rng, depth - 1) + [rng.choice(_BINARY_OPS)]
             + _random_tokens(rng, depth - 1))
    return ["("] + inner + [")"] if rng.random() < 0.5 else inner


def _random_formula_text(rng):
    tokens = _random_tokens(rng, 4)
    for _ in range(rng.choice((0, 0, 1, 2))):       # replace, insert or drop a token
        i = rng.randrange(len(tokens) + 1)
        piece = [rng.choice(_NOISE + _BINARY_OPS + _OPERANDS)] if rng.random() < 0.8 else []
        tokens[i:i + rng.randrange(2)] = piece
    text = "".join(tok + rng.choice(_GAPS) for tok in tokens)
    return text if rng.random() < 0.5 else text.rstrip("\n") + rng.choice(("", " # end", "\t#"))


def _random_spec_text(rng):
    """A spec with valid declarations; headers may be out of order or missing."""
    lines = ["env: p q" + rng.choice(("", " # e", "\t")),
             "sys:a b  c" + rng.choice(("", "#s")),
             "formula:" + rng.choice(("", " ", "\t")) + _random_formula_text(rng)]
    fault = rng.random()
    if fault < 0.1:
        i = rng.randrange(2)
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif fault < 0.15:
        del lines[rng.randrange(3)]
    elif fault < 0.2:
        lines[rng.randrange(3)] = rng.choice(("env p", "ENV: p", "formula a", " sys :a"))
    for _ in range(rng.randrange(3)):
        lines.insert(rng.randrange(len(lines)), rng.choice(_PADDING))
    return "\n".join(rng.choice(("", " ", "\t")) + line for line in lines)


def _outcome(parse, text):
    try:
        return repr(parse(text))
    except SpecError as exc:
        return repr((str(exc), exc.line, exc.col))


class TestPinnedOutcomes:
    """Every parse result and every error position stays what it was.

    One SHA-256 over the outcomes of seeded random formula strings and spec
    documents: the ``repr`` of each result, or the message, line and column
    of each ``SpecError``.  A change of grammar or diagnostics updates the
    digest and says so in CHANGES.md.
    """

    def test_digest(self):
        rng = random.Random(20241018)
        digest = hashlib.sha256()
        for _ in range(3000):
            digest.update(_outcome(parse_formula, _random_formula_text(rng)).encode())
            digest.update(_outcome(parse_spec, _random_spec_text(rng)).encode())
        assert digest.hexdigest() == "ba0ef004ab6805d504b2eb0f447da0cf7ab974667a9d2126c07fe4563d2f26f8"
