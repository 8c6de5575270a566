"""Univariate polynomials over a FieldContext, with exact root finding.

Root finding over finite fields is complete: the field is enlarged on demand
(one active extension per run) so that every requested polynomial splits.
Over the rationals only rational roots are ever produced; callers that need
more raise NeedsAlgebraicExtension.

Everything is deterministic.  Root lists are sorted by the canonical element
order (lexicographic on coefficient vectors; (|x|, sign) over Q), whatever
order equal-degree splitting finds the roots in.  Splitting draws its
candidate elements from a fixed-seed pseudo-random sequence and falls back to
the canonical element scan, and new moduli come from a fixed enumeration of
irreducibles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from typing import Callable, Iterator, List, Sequence, Tuple

from .fields import (
    FieldContext,
    FieldElement,
    FieldEmbedding,
    NeedsAlgebraicExtension,
    extension_field,
    identity_embedding,
)

EXHAUSTIVE_ROOT_LIMIT = 64
# equal-degree splitting: seed of its pseudo-random shifts, and how many it
# tries on one factor before falling back to the canonical element scan
SPLIT_SEED = 0x5EED
SPLIT_RANDOM_TRIES = 64


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial, coefficients low degree first."""

    context: FieldContext
    coeffs: Tuple[FieldElement, ...]

    @staticmethod
    def make(context: FieldContext, coeffs: Sequence[FieldElement]) -> "UniPoly":
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        return UniPoly(context, tuple(cs))

    @staticmethod
    def from_ints(context: FieldContext, ints: Sequence[int]) -> "UniPoly":
        return UniPoly.make(context, [context.from_int(k) for k in ints])

    @staticmethod
    def zero(context: FieldContext) -> "UniPoly":
        return UniPoly(context, ())

    @staticmethod
    def x(context: FieldContext) -> "UniPoly":
        return UniPoly.make(context, [context.zero(), context.one()])

    @staticmethod
    def constant(c: FieldElement) -> "UniPoly":
        return UniPoly.make(c.context, [c])

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> FieldElement:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        zero = self.context.zero()
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else zero
            b = other.coeffs[i] if i < len(other.coeffs) else zero
            out.append(a + b)
        return UniPoly.make(self.context, out)

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.context, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.context)
        zero = self.context.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly.make(self.context, out)

    def scale(self, c: FieldElement) -> "UniPoly":
        return UniPoly.make(self.context, [a * c for a in self.coeffs])

    def divmod(self, other: "UniPoly") -> Tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        d = other.degree()
        inv = other.leading().inverse()
        zero = self.context.zero()
        q = [zero] * max(len(rem) - d, 0)
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            c = rem[-1] * inv
            q[k] = c
            for i, b in enumerate(other.coeffs):
                rem[i + k] = rem[i + k] - c * b
            while rem and rem[-1].is_zero():
                rem.pop()
        return UniPoly.make(self.context, q), UniPoly.make(self.context, rem)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[0]

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "UniPoly":
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(self.coeffs[i] * self.context.from_int(i))
        return UniPoly.make(self.context, out)

    def evaluate(self, x: FieldElement) -> FieldElement:
        acc = self.context.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def pow_mod(self, e: int, mod: "UniPoly") -> "UniPoly":
        result = UniPoly.make(self.context, [self.context.one()])
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def map_coefficients(self, fn: Callable[[FieldElement], FieldElement],
                         new_context: FieldContext) -> "UniPoly":
        return UniPoly.make(new_context, [fn(c) for c in self.coeffs])

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c.is_one() else f"({c})*"
                parts.append(f"{head}t" if i == 1 else f"{head}t^{i}")
        return " + ".join(reversed(parts))


# ---------------------------------------------------------------------------
# roots


def _root_multiplicity(g: UniPoly, r: FieldElement) -> Tuple[UniPoly, int]:
    """Divide out (t - r) as often as possible; return (quotient, multiplicity)."""
    lin = UniPoly.make(g.context, [-r, g.context.one()])
    mult = 0
    while True:
        q, rem = g.divmod(lin)
        if not rem.is_zero():
            return g, mult
        g = q
        mult += 1


def _rational_roots(g: UniPoly) -> List[Tuple[FieldElement, int]]:
    """All rational roots with multiplicities (rational root theorem)."""
    ctx = g.context
    # clear denominators to integer coefficients
    denoms = [c.payload.denominator for c in g.coeffs]
    lcm = 1
    for d in denoms:
        lcm = lcm * d // int_gcd(lcm, d)
    ints = [int(c.payload * lcm) for c in g.coeffs]
    while ints and ints[0] == 0:
        ints = ints[1:]  # factor out t; root 0 handled below
    roots: List[Tuple[FieldElement, int]] = []
    zero = ctx.zero()
    rem, mult0 = _root_multiplicity(g, zero)
    if mult0:
        roots.append((zero, mult0))
        g = rem
        ints = [int(c.payload * lcm) for c in g.coeffs]
    if not ints:
        return roots
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(n: int) -> List[int]:
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                out.append(n // d)
            d += 1
        return sorted(set(out))

    seen = set()
    for num in divisors(a0):
        for den in divisors(an):
            for sign in (1, -1):
                fr = Fraction(sign * num, den)
                if fr in seen:
                    continue
                seen.add(fr)
                cand = FieldElement(ctx, fr)
                if g.evaluate(cand).is_zero():
                    g, m = _root_multiplicity(g, cand)
                    roots.append((cand, m))
    roots.sort(key=lambda rm: rm[0].sort_key())
    return roots


def _squarefree_part(g: UniPoly) -> UniPoly:
    """Product of the distinct irreducible factors, handling p-th powers."""
    ctx = g.context
    p = ctx.characteristic
    d = g.derivative()
    if d.is_zero():
        if p == 0:
            return UniPoly.make(ctx, [ctx.one()])
        # g(t) = h(t^p); take p-th roots of coefficients and recurse
        coeffs = []
        for i in range(0, len(g.coeffs), p):
            coeffs.append(g.coeffs[i].pth_root())
        return _squarefree_part(UniPoly.make(ctx, coeffs))
    red = g // g.gcd(d)
    # the reduced part can still hide p-th powers of inseparable factors
    if p > 0:
        rest = g // red
        if rest.degree() > 0:
            extra = _squarefree_part(rest)
            red = (red * (extra // extra.gcd(red))).monic()
    return red.monic()


def _roots_in_field(g: UniPoly) -> List[FieldElement]:
    """Distinct roots of g lying in its own (finite) field of definition."""
    ctx = g.context
    q = ctx.order()
    sf = _squarefree_part(g)
    if q <= EXHAUSTIVE_ROOT_LIMIT:
        return [x for x in ctx.elements() if sf.evaluate(x).is_zero()]
    # gcd with t^q - t isolates the rational-point part, then split
    t = UniPoly.x(ctx)
    frob = t.pow_mod(q, sf)
    linear_part = sf.gcd(frob - t)
    return sorted(_split_linear(linear_part), key=lambda e: e.sort_key())


def _split_linear(w: UniPoly) -> List[FieldElement]:
    """Split a product of distinct monic linear factors into its roots.

    Equal-degree splitting (Cantor-Zassenhaus): each factor is split by a gcd
    with a polynomial built from a field element c, namely (t+c)^((q-1)/2) - 1
    for odd q and the trace Tr(c t) for q = 2^n.  The elements c come from a
    fixed-seed pseudo-random sequence over the whole field, which separates
    any two roots with probability about 1/2 per try; after SPLIT_RANDOM_TRIES
    failures on one factor the canonical element scan takes over, so splitting
    always terminates.  The roots come back in no particular order; callers
    sort them, so root order is canonical whatever order the splits happen in.
    """
    rng = random.Random(SPLIT_SEED)
    roots: List[FieldElement] = []
    pending = [w]
    while pending:
        w = pending.pop()
        if w.degree() == 1:
            roots.append(-w.coeffs[0] / w.coeffs[1])
        elif w.degree() > 1:
            h = _split_once(w, rng)
            pending += [h, w // h]
    return roots


def _split_candidates(ctx: FieldContext, rng: random.Random) -> Iterator[FieldElement]:
    """SPLIT_RANDOM_TRIES pseudo-random elements, then every element in order."""
    p, n = ctx.characteristic, ctx.extension_degree
    for _ in range(SPLIT_RANDOM_TRIES):
        yield ctx.from_vector([rng.randrange(p) for _ in range(n)])
    yield from ctx.elements()


def _split_once(w: UniPoly, rng: random.Random) -> UniPoly:
    """A proper monic factor of w, a product of at least two distinct linear factors."""
    ctx = w.context
    q = ctx.order()
    one = UniPoly.make(ctx, [ctx.one()])
    for c in _split_candidates(ctx, rng):
        if ctx.characteristic == 2:
            # trace splitting: Tr(c t) = sum of (c t)^(2^i), i < n
            splitter = UniPoly.zero(ctx)
            term = UniPoly.make(ctx, [ctx.zero(), c]) % w
            for _ in range(ctx.extension_degree):
                splitter = (splitter + term) % w
                term = (term * term) % w
        else:
            shifted = UniPoly.make(ctx, [c, ctx.one()])
            splitter = shifted.pow_mod((q - 1) // 2, w) - one
        h = w.gcd(splitter)
        if 0 < h.degree() < w.degree():
            return h
    raise RuntimeError("equal-degree splitting failed")  # unreachable for split w


def _distinct_degree_profile(g: UniPoly) -> List[int]:
    """Degrees of the irreducible factors of the squarefree part of g."""
    ctx = g.context
    q = ctx.order()
    sf = _squarefree_part(g)
    degrees: List[int] = []
    t = UniPoly.x(ctx)
    h = t
    e = 0
    while sf.degree() > 0:
        e += 1
        if e > sf.degree() // 2:
            degrees.append(sf.degree())
            break
        h = h.pow_mod(q, sf)
        block = sf.gcd(h - t)
        if block.degree() > 0:
            degrees.extend([e] * (block.degree() // e))
            sf = sf // block
            h = h % sf if sf.degree() > 0 else h
    return degrees


@dataclass(frozen=True)
class RootResult:
    """Roots of a polynomial together with the (possibly enlarged) field."""

    context: FieldContext
    embedding: FieldEmbedding  # original context -> final context
    roots: Tuple[Tuple[FieldElement, int], ...]

    def first(self) -> FieldElement:
        return self.roots[0][0]


def extend_context(ctx: FieldContext, extra_degree: int) -> Tuple[FieldContext, FieldEmbedding]:
    """Enlarge F_{p^n} to F_{p^{n*extra}} with a canonical modulus and embedding."""
    if ctx.is_rational:
        raise NeedsAlgebraicExtension("cannot extend the rationals")
    if extra_degree == 1:
        return ctx, identity_embedding(ctx)
    p = ctx.characteristic
    n = ctx.extension_degree
    big = extension_field(p, n * extra_degree)
    if n == 1:
        return big, FieldEmbedding(ctx, big, None)
    # embed by sending the old generator to the canonical root of the old
    # modulus inside the big field
    mod_big = UniPoly.from_ints(big, list(ctx.modulus))
    roots = _roots_in_field(mod_big)
    if not roots:
        raise RuntimeError("old modulus fails to split in the new field")
    gen_image = min(roots, key=lambda e: e.sort_key())
    return big, FieldEmbedding(ctx, big, gen_image)


def find_roots(g: UniPoly, allow_extension: bool) -> RootResult:
    """Roots of g with multiplicities, in canonical order.

    Finite fields with allow_extension: the result context is enlarged until
    g splits completely, and multiplicities sum to deg g.  Without extension,
    or over Q, only roots in the current field are reported; over Q with
    allow_extension a polynomial that does not split raises
    NeedsAlgebraicExtension.
    """
    if g.is_zero() or g.degree() < 1:
        raise ValueError("find_roots needs a nonconstant polynomial")
    ctx = g.context
    if ctx.is_rational:
        roots = _rational_roots(g)
        total = sum(m for _, m in roots)
        if allow_extension and total < g.degree():
            raise NeedsAlgebraicExtension(
                f"'{g}' does not split over the rationals", polynomial=g
            )
        return RootResult(ctx, identity_embedding(ctx), tuple(roots))

    emb = identity_embedding(ctx)
    work = g
    if allow_extension:
        degrees = _distinct_degree_profile(g)
        lcm = 1
        for d in degrees:
            lcm = lcm * d // int_gcd(lcm, d)
        if lcm > 1:
            new_ctx, emb = extend_context(ctx, lcm)
            work = g.map_coefficients(emb, new_ctx)
            ctx = new_ctx
    distinct = _roots_in_field(work)
    out = []
    rem = work
    for r in sorted(distinct, key=lambda e: e.sort_key()):
        rem, m = _root_multiplicity(rem, r)
        out.append((r, m))
    return RootResult(ctx, emb, tuple(out))


def nth_root(a: FieldElement, n: int, allow_extension: bool) -> Tuple[FieldElement, FieldEmbedding]:
    """A deterministic b with b^n = a (first root of t^n - a in canonical order).

    Returns the root together with the embedding of the original field into
    the (possibly enlarged) field containing it.
    """
    if a.is_zero():
        raise ValueError("nth_root of zero")
    if n < 1:
        raise ValueError("n must be >= 1")
    ctx = a.context
    if not ctx.is_rational:
        # when n is invertible modulo q-1 the root is unique: a^(n^-1 mod q-1)
        q = ctx.order()
        if int_gcd(n, q - 1) == 1:
            b = a ** pow(n, -1, q - 1)
            return b, identity_embedding(ctx)
    coeffs = [-a] + [ctx.zero()] * (n - 1) + [ctx.one()]
    g = UniPoly.make(ctx, coeffs)
    if ctx.is_rational:
        res = find_roots(g, allow_extension=False)
        if not res.roots:
            raise NeedsAlgebraicExtension(
                f"no rational {n}-th root of {a}", polynomial=g
            )
        return res.first(), identity_embedding(ctx)
    res = find_roots(g, allow_extension=False)
    if res.roots:
        return res.first(), identity_embedding(ctx)
    if not allow_extension:
        raise NeedsAlgebraicExtension(
            f"no {n}-th root of {a} in the current field", polynomial=g
        )
    res = find_roots(g, allow_extension=True)
    return res.first(), res.embedding


def verify_irreducible_modulus(ctx: FieldContext) -> bool:
    """Check the context invariant that the stored modulus is irreducible."""
    if ctx.is_rational or ctx.extension_degree == 1:
        return True
    from .fields import poly_is_irreducible

    return poly_is_irreducible(ctx.modulus, ctx.characteristic)
