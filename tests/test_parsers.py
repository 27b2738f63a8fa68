"""The three surface syntaxes (regex, .zexpr, .zmso) over the shared
`lang.Scanner`, checked against the standalone parsers kept in conftest."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import oracle_parse_count, oracle_parse_expression, oracle_parse_regex
from zpoly.cli import main
from zpoly.cplc import ExprError, parse_expression
from zpoly.lang import Alphabet, RegexError, Scanner, parse_regex
from zpoly.mso import MsoError, parse_count

AB = Alphabet(["a", "b"])

REGEXES = ["a", "b", "ab", "a|b", "()", "∅", "0", "a*", "(a|b)*a", "!(a(a|b)*)",
           "(a|b)*a & a(a|b)*", "a*b", "(ab)*", "!(a*)", "!a*", "a*&(a|b)*b", "(a|ba)*",
           "!(∅)", "()a*", " ( a | b ) * ", "a((b))**", "c", "a(", "*a", "a||b", ""]
EXPRESSIONS = [
    "alphabet = a b\n2 * ind((a|b)*a) . ind((a|b)*) - 3\n",
    "alphabet = a\nind(a(aa)*) . ind(a(aa)*) + ind((aa)*) . ind((aa)*)\n"
    " - ind((aa)*) . ind(a(aa)*) - ind(a(aa)*) . ind((aa)*)\n + ind(a(aa)*) - ind((aa)*)\n",
    "alphabet = a b\nind((a|b)*a) . ind((a|b)*)\n",
    "alphabet = a b\nind(a(a|b)*)\n",
    "alphabet = a\nstar(-3 * ind(a*a))\n",
    "alphabet = a\n-ind(a*)\n",
    "# comment\nalphabet = ab\n2 * ind(a*) . (ind(b) - 1) + star(ind(ab))\n",
    "alphabet = a 0\nind( 0* ) - -2 * (1 . ind(!a*))\n",
    "alphabet = a\nind((\n",
]
FORMULAS = [
    "alphabet = a b\ncount[x, y] a(x) & b(y)\n",
    "alphabet = a b\ncount[x, y] a(x) & b(y) & x > y\n",
    "alphabet = a\ncount[X] true\n",
    "alphabet = a b\ncount[x] a(x) & forall y. x <= y\n",
    "alphabet = a b\ncount[x, y] succ(x, y) & a(x) & a(y)\n",
    "alphabet = a b\ncount[x] first(x) -> b(x)\n",
    "alphabet = a b\ncount[x] last(x) | a(x)\n",
    "alphabet = a b\ncount[x, y] x = y & (exists z. z < x)\n",
    "alphabet = a b\ncount[x] !a(x) & !(exists y. y < x & b(y))\n",
    "alphabet = ab\ncount[x, Y] x in Y & (exists z. z = x)\n",
    "alphabet = a b\ncount[] exists x. a(x) -> false | x1 != y_ & x >= y\n",
    "alphabet = a b c\ncount[x,y,z] a(x)&b(y)&a(z)&x<y&y<z\n",
    "alphabet = a b\ncount[index, first1] a(index) & index < first1 & exists inY. inY = index\n",
]
TOKENS = ["a", "b", "c", "0", "∅", "(", ")", "()", "*", "|", "&", "!", ".", "+", "-", "->",
          "=", "<", "<=", ">", "!=", ",", "[", "]", " ", "\n", "#", "3", "-2", "٣", "²",
          "ind(", "ind", "star(", "count[", "exists ", "forall ", "x", "y", "X", "in",
          "succ(", "first(", "true", "false", "_", "alphabet = a b\n", "alphabet = a a\n"]


def mutated(seeds):
    """A seed text with up to four token insertions, deletions or
    replacements at drawn offsets."""
    @st.composite
    def draw_text(draw):
        text = draw(st.sampled_from(seeds))
        for _ in range(draw(st.integers(0, 4))):
            i = draw(st.integers(0, len(text)))
            j = i + draw(st.integers(0, 3))
            text = text[:i] + draw(st.sampled_from(TOKENS + [""])) + text[j:]
        return text
    return draw_text()


def outcome(parse, *args):
    """The parse result, or the class of the error that rejected the text."""
    try:
        return parse(*args)
    except ValueError as exc:
        return type(exc)


def ind_texts(node):
    if node[0] == "ind":
        return [node[1]]
    return [t for child in node[1:] if isinstance(child, tuple) for t in ind_texts(child)]


@settings(max_examples=500, deadline=None)
@given(mutated(REGEXES), st.sampled_from([AB, Alphabet(["a", "b", "0"]), Alphabet(["a"])]))
def test_regex_parser_agrees_with_oracle(text, alphabet):
    assert outcome(parse_regex, text, alphabet) == outcome(oracle_parse_regex, text, alphabet)


@settings(max_examples=500, deadline=None)
@example("alphabet = a b\nind(a|) + 1\n")
@example("alphabet = a\nind()\n")
@example("alphabet = a\n2² + 1\n")
@example("alphabet = a\n٣ * ind(a)\n")
@given(mutated(EXPRESSIONS))
def test_expression_parser_agrees_with_oracle(text):
    """Same AST or same rejection, with two allowed differences: an
    `ind(...)` whose text the regex parser rejects is now rejected when the
    expression is parsed, and a non-ASCII digit, which the oracle reads into
    an integer literal through `str.isdigit` (or fails on inside `int`), is
    now an `ExprError`."""
    want = outcome(oracle_parse_expression, text)
    got = outcome(parse_expression, text)
    if isinstance(want, tuple) and any(
            outcome(oracle_parse_regex, t, want[0]) is RegexError for t in ind_texts(want[1])):
        assert got is ExprError
    elif got != want and any(c.isdigit() and not c.isascii() for c in text):
        assert got is ExprError
    else:
        assert got == want


@settings(max_examples=500, deadline=None)
@given(mutated(FORMULAS))
def test_count_parser_agrees_with_oracle(text):
    assert outcome(parse_count, text) == outcome(oracle_parse_count, text)


def test_malformed_regex_in_ind_is_an_expression_error():
    with pytest.raises(ExprError, match="position 6"):
        parse_expression("alphabet = a b\nind(a|) + 1\n")
    alphabet, ast = parse_expression("alphabet = a b\nind( (a|b)* ) . 2\n")
    assert ast == ("cauchy", ("ind", " (a|b)* "), ("int", 2))


@pytest.mark.parametrize("body, position", [("²", 0), ("2²", 1), ("٣ * ind(a)", 0),
                                            ("1 + ٣", 4)])
def test_integer_literals_take_ascii_digits_only(body, position):
    with pytest.raises(ExprError, match="position %d" % position):
        parse_expression("alphabet = a\n" + body)


def test_multi_character_letters_are_syntax_errors():
    with pytest.raises(ExprError, match="single characters"):
        parse_expression("alphabet = ab cd\nind(ab)\n")
    with pytest.raises(MsoError, match="single characters"):
        parse_count("alphabet = ab cd\ncount[x] ab(x)\n")
    assert parse_expression("alphabet = ab\nind(ab)\n")[0] == AB


def test_duplicate_alphabet_letters_are_syntax_errors():
    with pytest.raises(ExprError, match="duplicate"):
        parse_expression("alphabet = a a\n1")
    with pytest.raises(MsoError, match="duplicate"):
        parse_count("alphabet = aba\ncount[x] a(x)\n")


@pytest.mark.parametrize("header", ["", "alphabet a b", "alphabet: a b", "alphabets = a b",
                                    "alphabet2 = a b", "letters = a b"])
@pytest.mark.parametrize("suffix, body", [(".zexpr", "ind(a)"), (".zmso", "count[x] a(x)")],
                         ids=["zexpr", "zmso"])
def test_malformed_alphabet_header_exits_3(tmp_path, capsys, header, suffix, body):
    """The first line must be the keyword `alphabet`, then `=`."""
    path = tmp_path / ("f" + suffix)
    path.write_text(header + "\n" + body + "\n")
    assert main(["eval", str(path), "ab"]) == 3
    assert "alphabet" in capsys.readouterr().err


def test_scanner_keywords_and_chains():
    s = Scanner("  index in x", ValueError)
    assert not s.word("in") and s.ident() == "index" and s.word("in")
    with pytest.raises(ValueError, match="trailing input at position 11"):
        s.finish(None)


def read_arithmetic(text):
    """`Scanner.operators` on digits with '+' and '-' (1), '*' (2), '^' (3,
    right-associative), prefix '~' (2) and 'let.' (0), postfix '!' and
    parentheses."""
    s = Scanner(text, ValueError)

    def operand():
        if s.take("~"):
            return 2, lambda e: ("neg", e)
        if s.word("let"):
            s.expect(".")
            return 0, lambda e: ("let", e)
        if s.take("("):
            return s.GROUP, lambda e: e
        c = s.peek()
        s.pos += 1
        return ("n", int(c))

    def infix():
        if s.take("!"):
            return lambda e: ("fact", e)
        for sym, prec, right in (("+", 1, False), ("-", 1, False), ("*", 2, False),
                                 ("^", 3, True)):
            if s.take(sym):
                return prec, lambda x, y: (sym, x, y), right
        return None

    return s.finish(s.operators(operand, infix))


@pytest.mark.parametrize("text, ast", [
    ("1 - 2 + 3", ("+", ("-", ("n", 1), ("n", 2)), ("n", 3))),       # left-associative
    ("1 ^ 2 ^ 3", ("^", ("n", 1), ("^", ("n", 2), ("n", 3)))),       # right-associative
    ("1 + 2 * 3 ^ 4", ("+", ("n", 1), ("*", ("n", 2), ("^", ("n", 3), ("n", 4))))),
    ("~1 * 2 + 3", ("+", ("*", ("neg", ("n", 1)), ("n", 2)), ("n", 3))),
    ("~1 ^ 2", ("neg", ("^", ("n", 1), ("n", 2)))),                  # prefix over a tighter infix
    ("1 * let. 2 + 3 * 4", ("*", ("n", 1), ("let", ("+", ("n", 2), ("*", ("n", 3), ("n", 4)))))),
    ("~2!", ("neg", ("fact", ("n", 2)))),                            # postfix binds tightest
    ("(1 + 2)! * (let. 3 - 4)", ("*", ("fact", ("+", ("n", 1), ("n", 2))),
                                 ("let", ("-", ("n", 3), ("n", 4))))),
    ("((((5))))", ("n", 5)),
])
def test_scanner_operators(text, ast):
    assert read_arithmetic(text) == ast


@pytest.mark.parametrize("text, message", [("(1 + 2", "expected ')' at position 6"),
                                           ("1 + 2)", "trailing input at position 5")])
def test_scanner_operators_match_parentheses(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        read_arithmetic(text)
