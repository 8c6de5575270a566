"""Parser for the ASCII polynomial grammar.

    expr   := term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := integer | integer "/" integer | var | var "^" uint | "(" expr ")"
    var    := "x" | "y" | "z"

Whitespace is insignificant.  Implicit multiplication is rejected ("2x" is a
syntax error).  Integers are unsigned digit strings; minus only occurs as the
binary operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from .fields import FieldContext, Payload
from .poly import Monomial, TriPoly, _accumulate

_VARS = {"x": 0, "y": 1, "z": 2}


class PolySyntaxError(ValueError):
    """Syntax error with position and the token set that was expected."""

    def __init__(self, position: int, expected: Tuple[str, ...], found: str):
        self.position = position
        self.expected = expected
        self.found = found
        exp = ", ".join(expected)
        super().__init__(f"at position {position}: expected {exp}, found {found}")


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "var", "op", "end"
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    out: List[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("int", text[i:j], i))
            i = j
            continue
        if c in _VARS:
            out.append(_Token("var", c, i))
            i += 1
            continue
        if c in "+-*/^()":
            out.append(_Token("op", c, i))
            i += 1
            continue
        raise PolySyntaxError(i, ("+", "-", "*", "/", "^", "(", ")", "integer", "x", "y", "z"), repr(c))
    out.append(_Token("end", "", n))
    return out


class _Parser:
    def __init__(self, tokens: List[_Token], context: FieldContext):
        self.tokens = tokens
        self.k = 0
        self.context = context

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        t = self.tokens[self.k]
        self.k += 1
        return t

    def expect_op(self, op: str) -> None:
        t = self.peek()
        if t.kind == "op" and t.text == op:
            self.advance()
            return
        raise PolySyntaxError(t.pos, (op,), t.text or "end of input")

    def parse_expr(self) -> TriPoly:
        # the terms are summed into one dict, in the order successive + gives
        terms = dict(self.parse_term().terms)
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "+-":
                self.advance()
                rhs = self.parse_term()
                rhs = rhs if t.text == "+" else -rhs
                _accumulate(terms, rhs.terms.items(), self.context)
            else:
                return TriPoly(self.context, terms)

    def parse_term(self) -> TriPoly:
        # integers, fractions and variables gather into one monomial and one
        # scalar; only parenthesized factors are multiplied as polynomials
        ctx = self.context
        mul = ctx.ops.mul
        exps, scalar = (0, 0, 0), ctx.ops.one
        product = None  # of the parenthesized factors, in their order
        while True:
            factor = self.parse_factor()
            if isinstance(factor, TriPoly):
                product = factor if product is None else product * factor
            else:
                m, c = factor
                exps = (exps[0] + m[0], exps[1] + m[1], exps[2] + m[2])
                scalar = mul(scalar, c)
            t = self.peek()
            if t.kind != "op" or t.text != "*":
                break
            self.advance()
        if scalar == ctx._zero_payload:
            return TriPoly.zero(ctx)
        if product is None:
            return TriPoly(ctx, {exps: scalar})
        a, b, c = exps
        return TriPoly(ctx, {(m[0] + a, m[1] + b, m[2] + c): mul(v, scalar)
                             for m, v in product.terms.items()})

    def parse_factor(self) -> Union[TriPoly, Tuple[Monomial, Payload]]:
        """A parenthesized factor as a TriPoly, any other as its monomial
        and the payload of its coefficient."""
        t = self.peek()
        if t.kind == "int":
            self.advance()
            num = int(t.text)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "/":
                self.advance()
                d = self.peek()
                if d.kind != "int":
                    raise PolySyntaxError(d.pos, ("integer",), d.text or "end of input")
                self.advance()
                elt = self.context.from_fraction(num, int(d.text))
            else:
                elt = self.context.from_int(num)
            return (0, 0, 0), elt.payload
        if t.kind == "var":
            self.advance()
            exponent = 1
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "^":
                self.advance()
                e = self.peek()
                if e.kind != "int":
                    raise PolySyntaxError(e.pos, ("unsigned integer",), e.text or "end of input")
                self.advance()
                exponent = int(e.text)
            m = [0, 0, 0]
            m[_VARS[t.text]] = exponent
            return tuple(m), self.context.ops.one
        if t.kind == "op" and t.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise PolySyntaxError(
            t.pos, ("integer", "x", "y", "z", "("), t.text or "end of input"
        )


def parse_poly(text: str, context: FieldContext) -> TriPoly:
    """Parse `text` into a TriPoly over `context`.

    Raises PolySyntaxError with position and expected tokens on malformed
    input, and CoefficientError when a literal fraction has a denominator
    divisible by the characteristic.
    """
    tokens = _tokenize(text)
    parser = _Parser(tokens, context)
    result = parser.parse_expr()
    t = parser.peek()
    if t.kind != "end":
        raise PolySyntaxError(t.pos, ("+", "-", "*", "end of input"), t.text)
    return result
