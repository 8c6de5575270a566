"""Sparse trivariate polynomials over an exact field.

TriPoly is the working representation for the input f and all its weighted
initial forms.  Terms map exponent triples (a, b, c) to the nonzero raw
payloads of their coefficients (FieldElement.payload: Fractions over Q, ints
mod p over F_p, coefficient tuples over F_{p^n}), and the arithmetic runs on
them through the field's payload record FieldContext.ops, as UniPoly's does;
FieldElements appear only at the scalar edge (the inputs of make, constant,
monomial and scale, coefficient, sorted_terms and map_coefficients'
callback).  Instances are treated as immutable.

gcd, exact division and the squarefree test work on the same sparse terms:
tri_gcd is a primitive pseudo-remainder sequence (Brown, J. ACM 18, 1971)
with contents taken by recursion on fewer variables, and every result is
scaled so its lexicographically largest term (x > y > z) is monic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .fields import FieldContext, FieldElement, Payload, _check, payload_power

Monomial = Tuple[int, int, int]

VARIABLE_NAMES = ("x", "y", "z")


class Weight(NamedTuple):
    """Weight vector w in Z^3_{>=0} minus the origin, indexing a toric divisor."""

    w1: int
    w2: int
    w3: int

    @staticmethod
    def of(w: Sequence[int]) -> "Weight":
        t = Weight(*map(int, w))
        if any(c < 0 for c in t) or not any(t):
            raise ValueError("weight must be nonnegative and nonzero")
        return t

    def dot(self, m: Monomial) -> int:
        return self.w1 * m[0] + self.w2 * m[1] + self.w3 * m[2]

    def total(self) -> int:
        return self.w1 + self.w2 + self.w3


class NonLocalSubstitution(ValueError):
    """A substitution image has a constant term, so it does not preserve the
    maximal ideal at the origin."""


def _accumulate(out: Dict, terms: Iterable, context: FieldContext) -> Dict:
    """out += terms in place, for (monomial, payload) pairs, dropping the
    sums that vanish; returns out."""
    add, zero = context.ops.add, context._zero_payload
    for m, c in terms:
        old = out.get(m)
        if old is None:
            out[m] = c
        else:
            c = add(old, c)
            if c == zero:
                del out[m]
            else:
                out[m] = c
    return out


def _display_order(terms: Dict):
    return sorted(terms.items(), key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])))


@dataclass
class TriPoly:
    """Sparse polynomial in x, y, z; `terms` maps monomials to the nonzero
    payloads of their coefficients (`context.ops`)."""

    context: FieldContext
    terms: Dict[Monomial, Payload]

    # -- construction ------------------------------------------------------

    @staticmethod
    def make(context: FieldContext, terms: Dict[Monomial, FieldElement]) -> "TriPoly":
        for c in terms.values():
            if c.context is not context:
                _check(context, c.context)
        return TriPoly(context, {m: c.payload for m, c in terms.items() if not c.is_zero()})

    @staticmethod
    def zero(context: FieldContext) -> "TriPoly":
        return TriPoly(context, {})

    @staticmethod
    def constant(c: FieldElement) -> "TriPoly":
        return TriPoly.make(c.context, {(0, 0, 0): c})

    @staticmethod
    def monomial(context: FieldContext, m: Monomial, c: Optional[FieldElement] = None) -> "TriPoly":
        if c is None:
            c = context.one()
        return TriPoly.make(context, {tuple(m): c})

    @staticmethod
    def variable(context: FieldContext, i: int) -> "TriPoly":
        m = [0, 0, 0]
        m[i] = 1
        return TriPoly.monomial(context, tuple(m))

    @staticmethod
    def from_int_terms(context: FieldContext, pairs: Iterable[Tuple[Monomial, int]]) -> "TriPoly":
        from_int, zero = context.ops.from_int, context._zero_payload
        terms = [(tuple(m), from_int(k)) for m, k in pairs]
        return TriPoly(context, _accumulate({}, [(m, c) for m, c in terms if c != zero], context))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TriPoly)
            and (self.context is other.context or self.context == other.context)
            and self.terms == other.terms
        )

    def coefficient(self, m: Monomial) -> FieldElement:
        c = self.terms.get(tuple(m))
        return self.context.zero() if c is None else FieldElement(self.context, c)

    def total_degree(self) -> int:
        if self.is_zero():
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self, degree: Optional[int] = None) -> bool:
        if self.is_zero():
            return True
        degs = {sum(m) for m in self.terms}
        if len(degs) != 1:
            return False
        return degree is None or degs == {degree}

    # -- ring operations ------------------------------------------------------

    def _check(self, other: "TriPoly") -> None:
        if self.context is not other.context and self.context != other.context:
            raise ValueError("polynomial context mismatch")

    def __add__(self, other: "TriPoly") -> "TriPoly":
        self._check(other)
        terms = _accumulate(dict(self.terms), other.terms.items(), self.context)
        return TriPoly(self.context, terms)

    def __neg__(self) -> "TriPoly":
        neg = self.context.ops.neg
        return TriPoly(self.context, {m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "TriPoly") -> "TriPoly":
        return self + (-other)

    def __mul__(self, other: "TriPoly") -> "TriPoly":
        self._check(other)
        ctx = self.context
        mul, add, zero = ctx.ops.mul, ctx.ops.add, ctx._zero_payload
        out: Dict[Monomial, Payload] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                old = out.get(m)
                if old is None:
                    out[m] = mul(c1, c2)
                else:
                    c = add(old, mul(c1, c2))
                    if c == zero:
                        del out[m]
                    else:
                        out[m] = c
        return TriPoly(ctx, out)

    def scale(self, c: FieldElement) -> "TriPoly":
        ctx = self.context
        if c.context is not ctx:
            _check(ctx, c.context)
        if c.is_zero():
            return TriPoly(ctx, {})
        mul, k = ctx.ops.mul, c.payload
        return TriPoly(ctx, {m: mul(v, k) for m, v in self.terms.items()})

    def __pow__(self, e: int) -> "TriPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = TriPoly.constant(self.context.one())
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def map_coefficients(self, fn: Callable[[FieldElement], FieldElement],
                         new_context: FieldContext) -> "TriPoly":
        ctx = self.context
        images = ((m, fn(FieldElement(ctx, c))) for m, c in self.terms.items())
        return TriPoly(new_context, {m: v.payload for m, v in images if not v.is_zero()})

    def derivative(self, var: int) -> "TriPoly":
        # distinct monomials have distinct derivatives, so nothing collects
        ops = self.context.ops
        mul, from_int, zero = ops.mul, ops.from_int, self.context._zero_payload
        out: Dict[Monomial, Payload] = {}
        for m, c in self.terms.items():
            e = m[var]
            if e:
                v = mul(c, from_int(e))
                if v != zero:
                    out[m[:var] + (e - 1,) + m[var + 1:]] = v
        return TriPoly(self.context, out)

    # -- weighted structure -----------------------------------------------

    def ord_w(self, w: Sequence[int]):
        """min of w.m over the support; +infinity for the zero polynomial.
        A w that is not a Weight is validated by Weight.of."""
        if self.is_zero():
            return float("inf")
        if w.__class__ is not Weight:
            w = Weight.of(w)
        return min(w.dot(m) for m in self.terms)

    def in_w(self, w: Sequence[int]) -> "TriPoly":
        """Sum of the terms of minimal w-weight (zero polynomial maps to itself).
        A w that is not a Weight is validated by Weight.of."""
        if self.is_zero():
            return self
        if w.__class__ is not Weight:
            w = Weight.of(w)
        o = min(w.dot(m) for m in self.terms)
        return TriPoly(self.context, {m: c for m, c in self.terms.items() if w.dot(m) == o})

    def substitute(self, images: Sequence["TriPoly"]) -> "TriPoly":
        """Exact composition f(images); every image must vanish at the origin."""
        if len(images) != 3:
            raise ValueError("need one image per variable")
        for g in images:
            self._check(g)
            if (0, 0, 0) in g.terms:
                raise NonLocalSubstitution(
                    "substitution image has a nonzero constant term"
                )
        cache: List[Dict[int, TriPoly]] = [{1: g} for g in images]

        def power(i: int, e: int) -> "TriPoly":
            c = cache[i]
            if e not in c:
                half = power(i, e // 2)
                res = half * half
                if e % 2:
                    res = res * images[i]
                c[e] = res
            return c[e]

        # each coefficient scales its product of image powers straight into
        # one sum, in the term order that successive TriPoly sums would give
        ctx = self.context
        mul_payload = ctx.ops.mul
        out: Dict[Monomial, Payload] = {}
        for m, coeff in self.terms.items():
            factors = [power(i, e) for i, e in enumerate(m) if e]
            terms = reduce(mul, factors).terms if factors else {m: ctx.ops.one}
            _accumulate(out, [(mono, mul_payload(coeff, c)) for mono, c in terms.items()], ctx)
        return TriPoly(ctx, out)

    # -- conversions --------------------------------------------------------

    def restrict_to_pair(self, keep: Tuple[int, int]) -> "TriPoly":
        """Set the variable missing from `keep` to zero."""
        drop = ({0, 1, 2} - set(keep)).pop()
        return TriPoly(
            self.context, {m: c for m, c in self.terms.items() if m[drop] == 0}
        )

    # -- display ------------------------------------------------------------

    def sorted_terms(self) -> List[Tuple[Monomial, FieldElement]]:
        ctx = self.context
        return [(m, FieldElement(ctx, c)) for m, c in _display_order(self.terms)]

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: List[str] = []
        rational = self.context.is_rational
        prime = self.context.extension_degree == 1
        for m, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(VARIABLE_NAMES[i])
                elif e > 1:
                    factors.append(f"{VARIABLE_NAMES[i]}^{e}")
            body = "*".join(factors)
            negative = False
            cc = c
            if rational and c.payload < 0:
                negative, cc = True, -c
            cs = str(cc)
            if not (rational or prime):
                cs = f"({cs})"
            if body:
                text = body if cc.is_one() else f"{cs}*{body}"
            else:
                text = cs
            if not parts:
                # keep the output inside the input grammar: no unary minus
                parts.append(f"0 - {text}" if negative else text)
            else:
                parts.append(f"- {text}" if negative else f"+ {text}")
        return " ".join(parts)

    def to_json(self):
        return [
            {"m": list(m), "c": c.to_json()} for m, c in self.sorted_terms()
        ]


def tripoly_from_json(context: FieldContext, data) -> TriPoly:
    return TriPoly.make(context, {tuple(e["m"]): context.from_json(e["c"]) for e in data})


# ---------------------------------------------------------------------------
# multivariate gcd (sparse primitive PRS) and squarefree testing


def _lex_monic(f: TriPoly) -> TriPoly:
    """f scaled so its lexicographically largest term (x > y > z) is monic."""
    ctx = f.context
    lead = f.terms[max(f.terms)]
    if lead == ctx._one_payload:
        return f
    mul, inv = ctx.ops.mul, ctx.ops.inverse(lead)
    return TriPoly(ctx, {m: mul(c, inv) for m, c in f.terms.items()})


def _degree(f: TriPoly, v: int) -> int:
    return max(m[v] for m in f.terms)


def _primitive(f: TriPoly, v: int) -> Tuple[TriPoly, TriPoly]:
    """(content, primitive part) of f as a polynomial in variable v over the
    later variables, both lex-monic; the content is the gcd of the
    coefficients, which involve fewer variables."""
    coeffs: Dict[int, Dict[Monomial, Payload]] = {}
    for m, c in f.terms.items():
        coeffs.setdefault(m[v], {})[m[:v] + (0,) + m[v + 1:]] = c
    content = None
    for terms in sorted(coeffs.values(), key=len):
        c = TriPoly(f.context, terms)
        content = _lex_monic(c) if content is None else _gcd(content, c)
        if content.total_degree() == 0:
            return content, _lex_monic(f)
    return content, _lex_monic(divide_exact(f, content))


def _pseudo_remainder(f: TriPoly, g: TriPoly, v: int) -> TriPoly:
    """Remainder of lc_v(g)^k * f on division by g in variable v, with one
    factor lc_v(g) per reduction step (none when it is one); g is lex-monic."""
    d = _degree(g, v)
    lead = TriPoly(g.context, {m[:v] + (0,) + m[v + 1:]: c
                               for m, c in g.terms.items() if m[v] == d})
    monic = lead.total_degree() == 0  # then lead is the constant one
    r = f
    while not r.is_zero():
        e = _degree(r, v)
        if e < d:
            break
        head = TriPoly(r.context, {m[:v] + (e - d,) + m[v + 1:]: c
                                   for m, c in r.terms.items() if m[v] == e})
        r = (r if monic else r * lead) - head * g
    return r


def _gcd(f: TriPoly, g: TriPoly) -> TriPoly:
    """Lex-monic gcd of nonzero f and g: the content gcd, by recursion on
    fewer variables, times the last nonzero primitive pseudo-remainder."""
    if len(f.terms) == 1 or len(g.terms) == 1:
        # the divisors of a monomial are monomials
        both = list(f.terms) + list(g.terms)
        return TriPoly.monomial(f.context, tuple(min(m[i] for m in both) for i in range(3)))
    v = next(i for i in range(3) if any(m[i] for m in f.terms) or any(m[i] for m in g.terms))
    cf, f = _primitive(f, v)
    cg, g = _primitive(g, v)
    content = _gcd(cf, cg)
    if _degree(f, v) < _degree(g, v):
        f, g = g, f
    while _degree(g, v) > 0:
        r = _pseudo_remainder(f, g, v)
        if r.is_zero():
            return content * g
        f, g = g, _primitive(r, v)[1]
    return content  # g is the constant one


def _ascending(f: TriPoly) -> TriPoly:
    return TriPoly(f.context, dict(sorted(f.terms.items())))


def tri_gcd(f: TriPoly, g: TriPoly) -> TriPoly:
    """gcd of trivariate polynomials, normalized so the lexicographically
    largest term (x > y > z) has coefficient one; a zero argument returns
    the other one unchanged.

    Sparse primitive PRS (Brown, J. ACM 18, 1971) in the first of x, y, z
    that occurs: the contents are split off and their gcd taken by recursion
    on fewer variables, and each pseudo-remainder is replaced by its
    primitive part scaled to be lex-monic, which keeps rational coefficients
    small.  Terms come out in ascending monomial order."""
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    return _ascending(_gcd(f, g))


def frobenius_descent(f: TriPoly) -> TriPoly:
    """For char p and f with all exponents divisible by p: the polynomial g
    with g^p = f (coefficientwise p-th roots exist, the field is perfect)."""
    ctx = f.context
    p = ctx.characteristic
    if p == 0:
        raise ValueError("descent needs positive characteristic")
    e = ctx.order() // p  # c^(q/p) is the p-th root of c
    terms: Dict[Monomial, Payload] = {}
    for m, c in f.terms.items():
        if any(k % p for k in m):
            raise ValueError("exponent not divisible by p")
        terms[(m[0] // p, m[1] // p, m[2] // p)] = payload_power(ctx.ops, c, e)
    return TriPoly(ctx, terms)


def is_squarefree(f: TriPoly) -> bool:
    """True iff f has no repeated irreducible factor.

    Over a perfect field f is squarefree exactly when gcd(f, f_x, f_y, f_z)
    is constant; if every partial vanishes identically, f is a p-th power.
    Over Q a sound modular screen runs first: if a degree-preserving
    reduction modulo some prime is squarefree, so is f, which avoids the
    coefficient blow-up of the exact fraction-field gcd on dense inputs.
    """
    if f.is_zero():
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    if f.total_degree() == 0:
        return True
    # pull out coordinate factors first: v^2 | f settles it, v | f reduces it
    for v in range(3):
        e = min(m[v] for m in f.terms)
        if e >= 2:
            return False
        if e == 1:
            stripped = {}
            for m, c in f.terms.items():
                mm = list(m)
                mm[v] -= 1
                stripped[tuple(mm)] = c
            g = TriPoly(f.context, stripped)
            if any(m[v] == 0 for m in g.terms):
                return is_squarefree(g) if g.total_degree() > 0 else True
            return False  # v still divides the quotient
    if f.context.is_rational and _squarefree_modular_screen(f):
        return True
    # with every partial zero (f = g^p in characteristic p) the excess is f
    return squarefree_excess(f).total_degree() == 0


_SCREEN_PRIMES = (10007, 10009, 10037, 10039, 10061)


def _squarefree_modular_screen(f: TriPoly) -> bool:
    """Sound one-sided test over Q: if the total-degree-preserving reduction
    of (denominator-cleared) f modulo p is squarefree over F_p, then f is
    squarefree.  A False answer decides nothing, so only the first prime
    whose reduction keeps the total degree is tried: a non-squarefree f
    would fail at every prime, and the rare squarefree f that fails at that
    one (the prime divides a discriminant) is left to the exact gcd."""
    from .fields import prime_field

    lcm = math.lcm(*(c.denominator for c in f.terms.values()))
    ints = {m: int(c * lcm) for m, c in f.terms.items()}
    deg = f.total_degree()
    for p in _SCREEN_PRIMES:
        g = TriPoly(prime_field(p), {m: k % p for m, k in ints.items() if k % p})
        if not g.is_zero() and g.total_degree() == deg:
            return is_squarefree(g)
    return False


def squarefree_excess(f: TriPoly) -> TriPoly:
    """gcd(f, nonzero partials), or f when every partial vanishes: constant
    iff f squarefree (the gcd chain stops at the first constant); otherwise
    carries the repeated part (used to extract repeated lines from cubic
    cones)."""
    g = f
    for d in (f.derivative(i) for i in range(3)):
        if not d.is_zero():
            g = tri_gcd(g, d)
            if g.total_degree() == 0:
                break
    return g


def divide_exact(f: TriPoly, g: TriPoly) -> TriPoly:
    """Exact division in k[x,y,z]; raises ArithmeticError if g does not divide f.

    Divides the remainder's lex-leading term by g's until nothing is left.
    A leading term that g's does not divide, or a quotient term of total
    degree above deg f - deg g, shows that g does not divide f, so the loop
    stops early on non-divisible input."""
    f._check(g)
    if g.is_zero():
        raise ZeroDivisionError
    ctx = f.context
    ops = ctx.ops
    mul = ops.mul
    lead = max(g.terms)
    inv = ops.inverse(g.terms[lead])
    neg = {m: ops.neg(c) for m, c in g.terms.items()}
    room = f.total_degree() - g.total_degree()
    quotient: Dict[Monomial, Payload] = {}
    rem = dict(f.terms)
    while rem:
        m = max(rem)
        q = (m[0] - lead[0], m[1] - lead[1], m[2] - lead[2])
        if min(q) < 0 or sum(q) > room:
            raise ArithmeticError("exact division failed")
        c = quotient[q] = mul(rem[m], inv)
        _accumulate(rem, [((a + q[0], b + q[1], e + q[2]), mul(v, c))
                          for (a, b, e), v in neg.items()], ctx)
    return _ascending(TriPoly(ctx, quotient))
