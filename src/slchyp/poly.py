"""Sparse trivariate polynomials over an exact field.

TriPoly is the working representation for the input f and all its weighted
initial forms.  Terms map exponent triples (a, b, c) to nonzero field
elements.  Instances are treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .fields import FieldContext, FieldElement
from .unipoly import UniPoly

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


def _display_order(terms: Dict[Monomial, FieldElement]):
    return sorted(terms.items(), key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])))


@dataclass
class TriPoly:
    """Sparse polynomial in x, y, z; no stored coefficient is zero."""

    context: FieldContext
    terms: Dict[Monomial, FieldElement]

    # -- construction ------------------------------------------------------

    @staticmethod
    def make(context: FieldContext, terms: Dict[Monomial, FieldElement]) -> "TriPoly":
        pruned = {m: c for m, c in terms.items() if not c.is_zero()}
        return TriPoly(context, pruned)

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
        terms: Dict[Monomial, FieldElement] = {}
        for m, k in pairs:
            m = tuple(m)
            c = context.from_int(k)
            if m in terms:
                c = terms[m] + c
            if c.is_zero():
                terms.pop(m, None)
            else:
                terms[m] = c
        return TriPoly(context, terms)

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
        return self.terms.get(tuple(m), self.context.zero())

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
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = out[m] + c
                if s.is_zero():
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = c
        return TriPoly(self.context, out)

    def __neg__(self) -> "TriPoly":
        return TriPoly(self.context, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "TriPoly") -> "TriPoly":
        return self + (-other)

    def __mul__(self, other: "TriPoly") -> "TriPoly":
        self._check(other)
        out: Dict[Monomial, FieldElement] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                c = c1 * c2
                if m in out:
                    c = out[m] + c
                if c.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = c
        return TriPoly(self.context, out)

    def scale(self, c: FieldElement) -> "TriPoly":
        if c.is_zero():
            return TriPoly.zero(self.context)
        return TriPoly(self.context, {m: v * c for m, v in self.terms.items()})

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

    def evaluate(self, vals: Sequence[FieldElement]) -> FieldElement:
        acc = self.context.zero()
        for m, c in self.terms.items():
            term = c
            for i in range(3):
                if m[i]:
                    term = term * (vals[i] ** m[i])
            acc = acc + term
        return acc

    def map_coefficients(self, fn: Callable[[FieldElement], FieldElement],
                         new_context: FieldContext) -> "TriPoly":
        out: Dict[Monomial, FieldElement] = {}
        for m, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                out[m] = v
        return TriPoly(new_context, out)

    def derivative(self, var: int) -> "TriPoly":
        out: Dict[Monomial, FieldElement] = {}
        for m, c in self.terms.items():
            e = m[var]
            if e == 0:
                continue
            v = c * self.context.from_int(e)
            if v.is_zero():
                continue
            mm = list(m)
            mm[var] = e - 1
            key = tuple(mm)
            v = out[key] + v if key in out else v
            if v.is_zero():
                out.pop(key, None)
            else:
                out[key] = v
        return TriPoly(self.context, out)

    # -- weighted structure -----------------------------------------------

    def ord_w(self, w: Sequence[int]):
        """min of w.m over the support; +infinity for the zero polynomial."""
        if self.is_zero():
            return float("inf")
        w = Weight.of(w)
        return min(w.dot(m) for m in self.terms)

    def in_w(self, w: Sequence[int]) -> "TriPoly":
        """Sum of the terms of minimal w-weight (zero polynomial maps to itself)."""
        if self.is_zero():
            return self
        w = Weight.of(w)
        o = min(w.dot(m) for m in self.terms)
        return TriPoly(self.context, {m: c for m, c in self.terms.items() if w.dot(m) == o})

    def weighted_piece(self, w: Sequence[int], d: int) -> "TriPoly":
        w = Weight.of(w)
        return TriPoly(self.context, {m: c for m, c in self.terms.items() if w.dot(m) == d})

    def substitute(self, images: Sequence["TriPoly"]) -> "TriPoly":
        """Exact composition f(images); every image must vanish at the origin."""
        if len(images) != 3:
            raise ValueError("need one image per variable")
        for g in images:
            self._check(g)
            if not g.coefficient((0, 0, 0)).is_zero():
                raise NonLocalSubstitution(
                    "substitution image has a nonzero constant term"
                )
        cache: List[Dict[int, TriPoly]] = [
            {0: TriPoly.constant(self.context.one())} for _ in range(3)
        ]

        def power(i: int, e: int) -> "TriPoly":
            c = cache[i]
            if e not in c:
                half = power(i, e // 2)
                res = half * half
                if e % 2:
                    res = res * images[i]
                c[e] = res
            return c[e]

        acc = TriPoly.zero(self.context)
        for m, coeff in self.terms.items():
            term = TriPoly.constant(coeff)
            for i in range(3):
                if m[i]:
                    term = term * power(i, m[i])
            acc = acc + term
        return acc

    # -- conversions --------------------------------------------------------

    def restrict_to_pair(self, keep: Tuple[int, int]) -> "TriPoly":
        """Set the variable missing from `keep` to zero."""
        drop = ({0, 1, 2} - set(keep)).pop()
        return TriPoly(
            self.context, {m: c for m, c in self.terms.items() if m[drop] == 0}
        )

    def binary_coefficients(self, first: int, second: int, degree: int) -> List[FieldElement]:
        """Coefficients [c_0..c_degree] with c_i on first^(degree-i) * second^i,
        for a form supported on the two given variables."""
        out = [self.context.zero()] * (degree + 1)
        for m, c in self.terms.items():
            e = [0, 0, 0]
            e[first] = m[first]
            e[second] = m[second]
            if tuple(e) != m or m[first] + m[second] != degree:
                raise ValueError("not a binary form on the requested variables")
            out[m[second]] = c
        return out

    def univariate_in(self, var: int) -> UniPoly:
        """Reinterpret a polynomial supported on one variable as univariate."""
        deg = 0
        for m in self.terms:
            for i in range(3):
                if i != var and m[i]:
                    raise ValueError("polynomial involves another variable")
            deg = max(deg, m[var])
        coeffs = [self.context.zero()] * (deg + 1)
        for m, c in self.terms.items():
            coeffs[m[var]] = c
        return UniPoly.make(self.context, coeffs)

    # -- display ------------------------------------------------------------

    def sorted_terms(self) -> List[Tuple[Monomial, FieldElement]]:
        return _display_order(self.terms)

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
    terms: Dict[Monomial, FieldElement] = {}
    for entry in data:
        m = tuple(entry["m"])
        c = entry["c"]
        if context.is_rational:
            if "/" in str(c):
                num, den = str(c).split("/")
                elt = context.from_fraction(int(num), int(den))
            else:
                elt = context.from_int(int(c))
        else:
            elt = context.from_vector(tuple(c))
        if not elt.is_zero():
            terms[m] = elt
    return TriPoly(context, terms)


# ---------------------------------------------------------------------------
# multivariate gcd (recursive dense, primitive PRS) and squarefree testing


def _to_recursive(f: TriPoly):
    """dict form -> nested lists, innermost level indexed by x then y then z."""

    def build(terms: Dict[Monomial, FieldElement], level: int, ctx: FieldContext):
        if level == 0:
            return terms.get((), ctx.zero()) if () in terms else ctx.zero()
        deg = max((m[0] for m in terms), default=-1)
        out = []
        for e in range(deg + 1):
            sub = {m[1:]: c for m, c in terms.items() if m[0] == e}
            out.append(build(sub, level - 1, ctx))
        return out

    return build(dict(self_terms(f)), 3, f.context)


def self_terms(f: TriPoly) -> Dict[Monomial, FieldElement]:
    return f.terms


def _from_recursive(rec, context: FieldContext) -> TriPoly:
    terms: Dict[Monomial, FieldElement] = {}

    def walk(node, level: int, prefix: Tuple[int, ...]):
        if level == 0:
            if not node.is_zero():
                terms[prefix] = node
            return
        for e, sub in enumerate(node):
            walk(sub, level - 1, prefix + (e,))

    walk(rec, 3, ())
    return TriPoly(context, terms)


def _rp_is_zero(node, level: int) -> bool:
    if level == 0:
        return node.is_zero()
    return all(_rp_is_zero(c, level - 1) for c in node)


def _rp_trim(node, level: int):
    if level == 0:
        return node
    out = [_rp_trim(c, level - 1) for c in node]
    while out and _rp_is_zero(out[-1], level - 1):
        out.pop()
    return out


def _rp_zero(level: int, ctx: FieldContext):
    return ctx.zero() if level == 0 else []


def _rp_add(a, b, level: int, ctx: FieldContext):
    if level == 0:
        return a + b
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else _rp_zero(level - 1, ctx)
        y = b[i] if i < len(b) else _rp_zero(level - 1, ctx)
        out.append(_rp_add(x, y, level - 1, ctx))
    return _rp_trim(out, level)


def _rp_neg(a, level: int, ctx: FieldContext):
    if level == 0:
        return -a
    return [_rp_neg(c, level - 1, ctx) for c in a]


def _rp_mul(a, b, level: int, ctx: FieldContext):
    if level == 0:
        return a * b
    if not a or not b:
        return []
    out = [_rp_zero(level - 1, ctx) for _ in range(len(a) + len(b) - 1)]
    for i, ca in enumerate(a):
        if _rp_is_zero(ca, level - 1):
            continue
        for j, cb in enumerate(b):
            out[i + j] = _rp_add(out[i + j], _rp_mul(ca, cb, level - 1, ctx), level - 1, ctx)
    return _rp_trim(out, level)


def _rp_deg(a, level: int) -> int:
    return len(a) - 1 if level > 0 else 0


def _rp_lc(a, level: int):
    return a[-1]


def _rp_shift_mul(a, k: int, level: int, ctx: FieldContext):
    """multiply by t^k at the current level"""
    if not a:
        return []
    return [_rp_zero(level - 1, ctx) for _ in range(k)] + list(a)


def _rp_pseudo_rem(f, g, level: int, ctx: FieldContext):
    """Pseudo remainder lc(g)^(deg f - deg g + 1) * f mod g, with the exact
    leading-coefficient power (required by the subresultant divisions)."""
    df, dg = len(f) - 1, len(g) - 1
    delta = df - dg
    lg = _rp_lc(g, level)
    rem = list(f)
    steps = 0
    while len(rem) - 1 >= dg and rem:
        k = len(rem) - 1 - dg
        lead = rem[-1]
        # rem = lg*rem - lead * t^k * g
        rem = [_rp_mul(c, lg, level - 1, ctx) for c in rem]
        sub = _rp_shift_mul([_rp_mul(c, lead, level - 1, ctx) for c in g], k, level, ctx)
        rem = _rp_add(rem, _rp_neg(sub, level, ctx), level, ctx)
        rem = _rp_trim(rem, level)
        steps += 1
    for _ in range(delta + 1 - steps):
        rem = [_rp_mul(c, lg, level - 1, ctx) for c in rem]
    return rem


def _rp_exact_div(f, d, level: int, ctx: FieldContext):
    """Exact division f / d (raises if not divisible)."""
    if level == 0:
        return f * d.inverse()
    if _rp_is_zero(f, level):
        return []
    out = [_rp_zero(level - 1, ctx) for _ in range(len(f) - len(d) + 1)]
    rem = list(f)
    while rem and len(rem) >= len(d):
        k = len(rem) - len(d)
        q = _rp_divide_coeff(rem[-1], _rp_lc(d, level), level - 1, ctx)
        out[k] = q
        sub = _rp_shift_mul([_rp_mul(c, q, level - 1, ctx) for c in d], k, level, ctx)
        rem = _rp_trim(_rp_add(rem, _rp_neg(sub, level, ctx), level, ctx), level)
    if rem:
        raise ArithmeticError("exact division failed")
    return _rp_trim(out, level)


def _rp_divide_coeff(f, d, level: int, ctx: FieldContext):
    if level == 0:
        return f * d.inverse()
    return _rp_exact_div(f, d, level, ctx)


def _rp_content(f, level: int, ctx: FieldContext):
    """gcd of the coefficients (an object one level down)."""
    acc = None
    for c in f:
        if _rp_is_zero(c, level - 1):
            continue
        acc = c if acc is None else _rp_gcd(acc, c, level - 1, ctx)
        if level - 1 == 0 or (_rp_deg(acc, level - 1) == 0 and _rp_is_unit_like(acc, level - 1)):
            break
    return acc


def _rp_is_unit_like(a, level: int) -> bool:
    while level > 0:
        if len(a) != 1:
            return False
        a = a[0]
        level -= 1
    return not a.is_zero()


def _rp_normalize(f, level: int, ctx: FieldContext):
    """Scale so the iterated leading base-field coefficient is one."""
    lead = f
    lvl = level
    while lvl > 0:
        lead = lead[-1]
        lvl -= 1
    inv = lead.inverse()

    def scale(node, lv):
        if lv == 0:
            return node * inv
        return [scale(c, lv - 1) for c in node]

    return scale(f, level)


def _rp_euclid_gcd(f, g, ctx: FieldContext):
    """Plain monic Euclid for level 1 (field coefficients, no swell)."""
    a, b = list(f), list(g)
    while b:
        inv = b[-1].inverse()
        bb = [c * inv for c in b]
        while len(a) >= len(bb) and a:
            k = len(a) - len(bb)
            lead = a[-1]
            for i, c in enumerate(bb):
                a[i + k] = a[i + k] - lead * c
            while a and a[-1].is_zero():
                a.pop()
        a, b = bb, a
    return a


def _rp_pow(a, e: int, level: int, ctx: FieldContext):
    out = None
    base = a
    if e == 0:
        return _rp_one(level, ctx)
    while e:
        if e & 1:
            out = base if out is None else _rp_mul(out, base, level, ctx)
        e >>= 1
        if e:
            base = _rp_mul(base, base, level, ctx)
    return out


def _rp_one(level: int, ctx: FieldContext):
    return ctx.one() if level == 0 else [_rp_one(level - 1, ctx)]


def _rp_gcd(f, g, level: int, ctx: FieldContext):
    if level == 0:
        if f.is_zero() and g.is_zero():
            return ctx.zero()
        return ctx.one()
    f = _rp_trim(list(f), level)
    g = _rp_trim(list(g), level)
    if not f:
        return _rp_normalize(g, level, ctx) if g else []
    if not g:
        return _rp_normalize(f, level, ctx)
    if level == 1:
        h = _rp_euclid_gcd(f, g, ctx)
        return _rp_normalize(h, level, ctx) if h else []
    cf = _rp_content(f, level, ctx)
    cg = _rp_content(g, level, ctx)
    fp = [_rp_divide_coeff(c, cf, level - 1, ctx) for c in f]
    gp = [_rp_divide_coeff(c, cg, level - 1, ctx) for c in g]
    cont = _rp_gcd(cf, cg, level - 1, ctx)
    if len(fp) < len(gp):
        fp, gp = gp, fp
    # subresultant pseudo-remainder sequence: exact divisions by the g, h
    # factors keep intermediate degrees bounded without content gcds
    gfac = _rp_one(level - 1, ctx)
    hfac = _rp_one(level - 1, ctx)
    while gp:
        d = len(fp) - len(gp)
        rem = _rp_trim(_rp_pseudo_rem(fp, gp, level, ctx), level)
        if rem:
            denom = _rp_mul(gfac, _rp_pow(hfac, d, level - 1, ctx), level - 1, ctx)
            rem = [_rp_divide_coeff(c, denom, level - 1, ctx) for c in rem]
        fp, gp = gp, rem
        gfac = _rp_lc(fp, level)
        if d >= 1:
            num = _rp_pow(gfac, d, level - 1, ctx)
            if d == 1:
                hfac = num
            else:
                hfac = _rp_divide_coeff(
                    num, _rp_pow(hfac, d - 1, level - 1, ctx), level - 1, ctx
                )
    cr = _rp_content(fp, level, ctx)
    fp = [_rp_divide_coeff(c, cr, level - 1, ctx) for c in fp]
    out = [_rp_mul(c, cont, level - 1, ctx) for c in fp]
    return _rp_normalize(_rp_trim(out, level), level, ctx)


def tri_gcd(f: TriPoly, g: TriPoly) -> TriPoly:
    """gcd of trivariate polynomials, normalized so the leading base
    coefficient (x-major recursive order) is one."""
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    ctx = f.context
    rf = _rp_trim(_to_recursive(f), 3)
    rg = _rp_trim(_to_recursive(g), 3)
    return _from_recursive(_rp_gcd(rf, rg, 3, ctx), ctx)


def frobenius_descent(f: TriPoly) -> TriPoly:
    """For char p and f with all exponents divisible by p: the polynomial g
    with g^p = f (coefficientwise p-th roots exist, the field is perfect)."""
    p = f.context.characteristic
    if p == 0:
        raise ValueError("descent needs positive characteristic")
    terms: Dict[Monomial, FieldElement] = {}
    for m, c in f.terms.items():
        if any(e % p for e in m):
            raise ValueError("exponent not divisible by p")
        terms[(m[0] // p, m[1] // p, m[2] // p)] = c.pth_root()
    return TriPoly(f.context, terms)


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
    partials = [f.derivative(i) for i in range(3)]
    nonzero = [d for d in partials if not d.is_zero()]
    if not nonzero:
        # char 0: impossible for nonconstant f; char p: f = g^p
        return False
    g = f
    for d in nonzero:
        g = tri_gcd(g, d)
        if g.total_degree() == 0:
            return True
    return g.total_degree() == 0


_SCREEN_PRIMES = (10007, 10009, 10037, 10039, 10061)


def _squarefree_modular_screen(f: TriPoly) -> bool:
    """Sound one-sided test over Q: if the total-degree-preserving reduction
    of (denominator-cleared) f modulo p is squarefree over F_p, then f is
    squarefree.  A False answer decides nothing."""
    from .fields import prime_field

    lcm = 1
    for c in f.terms.values():
        d = c.payload.denominator
        lcm = lcm * d // _int_gcd(lcm, d)
    ints = {m: int(c.payload * lcm) for m, c in f.terms.items()}
    deg = f.total_degree()
    for p in _SCREEN_PRIMES:
        ctx = prime_field(p)
        terms = {}
        for m, k in ints.items():
            v = k % p
            if v:
                terms[m] = ctx.from_int(v)
        g = TriPoly(ctx, terms)
        if g.is_zero() or g.total_degree() != deg:
            continue
        if is_squarefree(g):
            return True
    return False


def _int_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def squarefree_excess(f: TriPoly) -> TriPoly:
    """gcd(f, nonzero partials): constant iff f squarefree; otherwise carries
    the repeated part (used to extract repeated lines from cubic cones)."""
    partials = [f.derivative(i) for i in range(3)]
    nonzero = [d for d in partials if not d.is_zero()]
    if not nonzero:
        return f
    g = f
    for d in nonzero:
        g = tri_gcd(g, d)
    return g


def divide_exact(f: TriPoly, g: TriPoly) -> TriPoly:
    """Exact division in k[x,y,z]; raises ArithmeticError if g does not divide f."""
    ctx = f.context
    if g.is_zero():
        raise ZeroDivisionError
    rf = _rp_trim(_to_recursive(f), 3)
    rg = _rp_trim(_to_recursive(g), 3)
    return _from_recursive(_rp_exact_div(rf, rg, 3, ctx), ctx)
