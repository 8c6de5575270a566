"""Parser for the ASCII polynomial grammar.

    expr   := term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := integer | integer "/" integer | var | var "^" uint | "(" expr ")"
    var    := "x" | "y" | "z"

Whitespace is insignificant.  Implicit multiplication is rejected ("2x" is a
syntax error).  Integers are unsigned strings of the ASCII digits 0-9; minus
only occurs as the binary operator.  Parentheses nest at most MAX_NESTING
deep.
"""

from __future__ import annotations

import re
from typing import Tuple

from .fields import FieldContext
from .poly import TriPoly, _accumulate

# each level of parentheses costs two frames of the recursive descent, so a
# deeper nesting is refused long before the interpreter's recursion limit
MAX_NESTING = 100

# an integer, a variable, an operator, or any other non-space character
_TOKEN = re.compile(r"([0-9]+)|([xyz])|([-+*/^()])|(\S)")
_VARS = {"x": 0, "y": 1, "z": 2}


class PolySyntaxError(ValueError):
    """Syntax error with position and the token set that was expected."""

    def __init__(self, position: int, expected: Tuple[str, ...], found: str):
        self.position = position
        self.expected = expected
        self.found = found
        exp = ", ".join(expected)
        super().__init__(f"at position {position}: expected {exp}, found {found}")


def parse_poly(text: str, context: FieldContext) -> TriPoly:
    """Parse `text` into a TriPoly over `context`.

    Raises PolySyntaxError with position and expected tokens on malformed
    input, and CoefficientError when a literal fraction has a denominator
    divisible by the characteristic.
    """
    # (text, position) pairs, ending in ("", len(text)); the whole text is
    # read first, so an invalid character wins over an earlier syntax error
    tokens = []
    for match in _TOKEN.finditer(text):
        if match.lastindex == 4:
            raise PolySyntaxError(match.start(), ("+", "-", "*", "/", "^", "(", ")",
                                                  "integer", "x", "y", "z"),
                                  repr(match.group()))
        tokens.append((match.group(), match.start()))
    tokens.append(("", len(text)))
    ops = context.ops
    k = 0  # the current token

    def fail(expected: Tuple[str, ...]):
        found, position = tokens[k]
        raise PolySyntaxError(position, expected, found or "end of input")

    def expr(depth: int) -> TriPoly:
        # the terms are summed into one dict, in the order successive + gives
        nonlocal k
        terms = dict(term(depth).terms)
        while tokens[k][0] in ("+", "-"):
            sign = tokens[k][0]
            k += 1
            rhs = term(depth)
            _accumulate(terms, (rhs if sign == "+" else -rhs).terms.items(), context)
        return TriPoly(context, terms)

    def term(depth: int) -> TriPoly:
        # integers, fractions and variables gather into one monomial and one
        # scalar; only parenthesized factors are multiplied as polynomials
        nonlocal k
        exps, scalar = [0, 0, 0], ops.one
        product = None  # of the parenthesized factors, in their order
        while True:
            tok = tokens[k][0]
            if not tok.isdigit() and tok not in ("x", "y", "z", "("):
                fail(("integer", "x", "y", "z", "("))
            if tok == "(" and depth == MAX_NESTING:
                fail((f"at most {MAX_NESTING} nested parentheses",))
            k += 1
            if tok == "(":
                inner = expr(depth + 1)
                if tokens[k][0] != ")":
                    fail((")",))
                k += 1
                product = inner if product is None else product * inner
            elif tok in _VARS:
                exponent = 1
                if tokens[k][0] == "^":
                    k += 1
                    if not tokens[k][0].isdigit():
                        fail(("unsigned integer",))
                    exponent = int(tokens[k][0])
                    k += 1
                exps[_VARS[tok]] += exponent
            elif tokens[k][0] == "/":
                k += 1
                den = tokens[k][0]
                if not den.isdigit():
                    fail(("integer",))
                k += 1
                scalar = ops.mul(scalar, context.from_fraction(int(tok), int(den)).payload)
            else:
                scalar = ops.mul(scalar, ops.from_int(int(tok)))
            if tokens[k][0] != "*":
                break
            k += 1
        if scalar == context._zero_payload:
            return TriPoly.zero(context)
        a, b, c = exps
        if product is None:
            return TriPoly(context, {(a, b, c): scalar})
        return TriPoly(context, {(m[0] + a, m[1] + b, m[2] + c): ops.mul(v, scalar)
                                 for m, v in product.terms.items()})

    result = expr(0)
    if tokens[k][0]:
        fail(("+", "-", "*", "end of input"))
    return result
