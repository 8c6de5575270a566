import hashlib
import random

import pytest

from slchyp import RATIONALS, PolySyntaxError, parse_poly, prime_field
from slchyp.parse import MAX_NESTING
from slchyp.fields import CoefficientError, extension_field

ANY_TOKEN = ("+", "-", "*", "/", "^", "(", ")", "integer", "x", "y", "z")
FACTOR = ("integer", "x", "y", "z", "(")
AFTER_EXPR = ("+", "-", "*", "end of input")

# every place the parser raises: (text, position, expected, found)
SYNTAX_ERRORS = [
    ("x+$", 2, ANY_TOKEN, "'$'"),
    ("x\t$", 2, ANY_TOKEN, "'$'"),
    ("x y $", 4, ANY_TOKEN, "'$'"),  # an invalid character wins over an earlier error
    ("(x+y", 4, (")",), "end of input"),
    ("((x)", 4, (")",), "end of input"),
    ("1/x", 2, ("integer",), "x"),
    ("1/", 2, ("integer",), "end of input"),
    ("x^", 2, ("unsigned integer",), "end of input"),
    ("x^y", 2, ("unsigned integer",), "y"),
    ("x^(", 2, ("unsigned integer",), "("),
    ("", 0, FACTOR, "end of input"),
    ("+x", 0, FACTOR, "+"),
    ("x*", 2, FACTOR, "end of input"),
    ("x+", 2, FACTOR, "end of input"),
    ("()", 1, FACTOR, ")"),
    (")", 0, FACTOR, ")"),
    ("(", 1, FACTOR, "end of input"),
    ("x y", 2, AFTER_EXPR, "y"),
    ("x)", 1, AFTER_EXPR, ")"),
    ("2x", 1, AFTER_EXPR, "x"),
    ("x^2y", 3, AFTER_EXPR, "y"),
]


@pytest.mark.parametrize("text,position,expected,found", SYNTAX_ERRORS)
def test_every_raise_site(text, position, expected, found):
    with pytest.raises(PolySyntaxError) as err:
        parse_poly(text, RATIONALS)
    assert (err.value.position, err.value.expected, err.value.found) == (position, expected, found)
    assert str(err.value) == f"at position {position}: expected {', '.join(expected)}, found {found}"


RANDOM_ALPHABET = "xyz0123456789+-*/^() \t$a"
# sha256 of the outcomes of test_random_strings, recorded with the
# character-by-character tokenizer and the recursive-descent parser object
RANDOM_PARSE_DIGEST = "0b7aaa4c0dc66ae23959966625a76881b3cea7594bbb30448ce0d7ce52c88293"


def _outcome(text, ctx) -> str:
    """The terms in insertion order, or the error with its position,
    expected tokens and found text."""
    try:
        return repr(list(parse_poly(text, ctx).terms.items()))
    except PolySyntaxError as exc:
        return repr(("PolySyntaxError", exc.position, exc.expected, exc.found, str(exc)))
    except CoefficientError as exc:
        return repr(("CoefficientError", str(exc)))


def test_random_strings():
    # seeded strings of length 0..13 over the grammar's characters, a space,
    # a tab and two invalid ones, each parsed over Q, F_2, F_7 and F_9
    rnd = random.Random("parse")
    fields = [RATIONALS, prime_field(2), prime_field(7), extension_field(3, 2)]
    lines = []
    for _ in range(20000):
        text = "".join(rnd.choice(RANDOM_ALPHABET) for _ in range(rnd.randint(0, 13)))
        lines.append(repr(text))
        lines += [_outcome(text, ctx) for ctx in fields]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == RANDOM_PARSE_DIGEST


@pytest.mark.parametrize("text,position", [("x^\u0663+y^2", 2), ("\u0662*x^2", 0), ("x^\u00b2", 2),
                                           ("1\u0663", 1)])
def test_only_ascii_digits_make_an_integer(text, position):
    # Arabic-Indic three and two, and superscript two: str.isdigit accepts
    # them, the grammar does not
    with pytest.raises(PolySyntaxError) as err:
        parse_poly(text, RATIONALS)
    assert (err.value.position, err.value.expected, err.value.found) == (
        position, ANY_TOKEN, repr(text[position]))


def test_nesting_is_bounded():
    nested = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_poly(nested, RATIONALS).terms == {(1, 0, 0): 1}
    for depth in (MAX_NESTING + 1, 10000):
        with pytest.raises(PolySyntaxError) as err:
            parse_poly("(" * depth + "x" + ")" * depth, RATIONALS)
        assert (err.value.position, err.value.found) == (MAX_NESTING, "(")
        assert f"at most {MAX_NESTING} nested parentheses" in str(err.value)
