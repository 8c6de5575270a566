"""Univariate polynomials over a FieldContext, with exact root finding.

Root finding over finite fields is complete: the field is enlarged on demand
(one active extension per run) so that every requested polynomial splits.
Over the rationals only rational roots are ever produced, by p-adic lifting
and rational reconstruction; callers that need more raise
NeedsAlgebraicExtension.

A UniPoly holds the payloads of its coefficients (FieldElement.payload:
ints mod p over F_p, coefficient tuples over F_{p^n}, Fractions over Q),
and its arithmetic, gcd, evaluation and root multiplicities run on those
lists through the field's payload record FieldContext.ops; FieldElements
are built only at the API edge (coeffs, evaluate, the roots returned).
UniPoly.pow_mod, which carries the cost of finite-field root finding
((t+c)^((q-1)/2) and t^q modulo the polynomial being split), goes
further: the whole residue polynomial is Kronecker-packed into one int, in
blocks of 2n-1 slots per coefficient of F_{p^n}, with a slot width from p,
n and deg w that no intermediate value overflows, so a modular square is a
few int products and one % p per slot.
Its docstring has the layout and the bound; nothing is cached across calls.

Finite-field root finding rests on one loop over the Frobenius powers
t^(q^e) mod w, _frobenius_blocks, which yields the distinct-degree blocks of
a squarefree w lazily (distinct-degree factorization, von zur Gathen-Gerhard,
Modern Computer Algebra 14.2).  Root finding takes the squarefree part of g;
when the field may grow, it moves to the extension of degree the lcm of the
block degrees (splitting_field_degree, which the cubic cone's field growth
also reads), where equal-degree splitting (Cantor-Zassenhaus) takes the
squarefree part apart with no further root search; otherwise the roots in
the field are the degree-1 block, split the same way.  Over a field of odd
order a quadratic, whether g itself or a piece of a split, is solved in
closed form instead: (-b +- sqrt(D)) / 2a.  Cantor-Zassenhaus handles the
pieces of degree 3 and more, and every piece in characteristic 2.

nth_root builds no polynomial and searches for no root: over F_q an r-th
root for a prime r | q - 1 (the square root of a discriminant included) is
Adleman-Manders-Miller, the generalisation of Tonelli-Shanks, with a
generator of the r-Sylow subgroup of F_q^* found once per (field, r); an
n-th root takes one r-th root per prime factor r of gcd(n, q-1), counted
with multiplicity, after the inverse Frobenius strips p from n, and when
the root is not in F_q the splitting field of t^n - a is read off the
orders of q and of a.  Over Q it is an exact integer root of numerator and
denominator.

Extension moduli come from canonical_irreducible here: Serret's criterion
decides the binomials t^d + c in closed form, and Ben-Or's test, the same
Frobenius loop stopped at its first block, the candidates after them.
extend_context keeps one shared (field, embedding) pair per (context, extra
degree), as extension_field keeps one context per field, so the old modulus
is split for the generator's image, and the embedding's basis images are
packed, once per process for each field pair.
A root's multiplicity is found by repeated synthetic division by t - r.

Everything is deterministic.  Root lists are sorted by the canonical element
order (lexicographic on coefficient vectors; (|x|, sign) over Q), whatever
order equal-degree splitting finds the roots in.  Splitting draws its
candidate elements from a fixed-seed pseudo-random sequence and falls back to
the canonical element scan, a field's r-Sylow generator comes from the first
of those candidates that is not an r-th power, nth_root returns the least
root, and new moduli come from a fixed enumeration of irreducibles.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .fields import (
    FieldContext,
    FieldElement,
    FieldEmbedding,
    MAX_EXTENSION_DEGREE,
    NeedsAlgebraicExtension,
    Payload,
    Payloads,
    _check,
    extension_field,
    identity_embedding,
    is_prime,
    payload_power,
    prime_field,
    reduction_rows,
)

# equal-degree splitting: seed of its pseudo-random shifts, and how many it
# tries on one factor before falling back to the canonical element scan
SPLIT_SEED = 0x5EED
SPLIT_RANDOM_TRIES = 64


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial over a FieldContext.

    `cs` holds the raw payloads of the coefficients (`context.ops`), low
    degree first, with no trailing zero; `coeffs` gives them as
    FieldElements."""

    context: FieldContext
    cs: Tuple

    @staticmethod
    def make(context: FieldContext, coeffs: Sequence[FieldElement]) -> "UniPoly":
        for c in coeffs:
            if c.context is not context:
                _check(context, c.context)
        return _poly(context, [c.payload for c in coeffs])

    @staticmethod
    def from_ints(context: FieldContext, ints: Sequence[int]) -> "UniPoly":
        from_int = context.ops.from_int
        return _poly(context, [from_int(k) for k in ints])

    @staticmethod
    def zero(context: FieldContext) -> "UniPoly":
        return UniPoly(context, ())

    @staticmethod
    def x(context: FieldContext) -> "UniPoly":
        ops = context.ops
        return UniPoly(context, (ops.zero, ops.one))

    @staticmethod
    def constant(c: FieldElement) -> "UniPoly":
        return UniPoly.make(c.context, [c])

    @property
    def coeffs(self) -> Tuple[FieldElement, ...]:
        ctx = self.context
        return tuple([FieldElement(ctx, c) for c in self.cs])

    def is_zero(self) -> bool:
        return not self.cs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.cs) - 1

    def _ops(self, other: "UniPoly") -> Payloads:
        if other.context is not self.context:
            _check(self.context, other.context)
        return self.context.ops

    def __add__(self, other: "UniPoly") -> "UniPoly":
        add = self._ops(other).add
        a, b = self.cs, other.cs
        if len(a) < len(b):
            a, b = b, a
        return _poly(self.context, [add(x, y) for x, y in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        ops = self._ops(other)
        zero, sub = ops.zero, ops.sub
        a, b = self.cs, other.cs
        out = [sub(x, y) for x, y in zip(a, b)]
        out += a[len(b):]
        out += [sub(zero, y) for y in b[len(a):]]
        return _poly(self.context, out)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        ops = self._ops(other)
        a, b = self.cs, other.cs
        if not a or not b:
            return UniPoly(self.context, ())
        zero, add, mul = ops.zero, ops.add, ops.mul
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == zero:
                continue
            for j, y in enumerate(b, i):
                out[j] = add(out[j], mul(x, y))
        return _poly(self.context, out)

    def divmod(self, other: "UniPoly") -> Tuple["UniPoly", "UniPoly"]:
        ops = self._ops(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        q, r = _divmod(self.cs, other.cs, ops)
        return UniPoly(self.context, tuple(q)), UniPoly(self.context, tuple(r))

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[0]

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return UniPoly(self.context, tuple(_monic(self.cs, self.context.ops)))

    def gcd(self, other: "UniPoly") -> "UniPoly":
        ops = self._ops(other)
        a, b = self.cs, other.cs
        while b:
            a, b = b, _divmod(a, b, ops)[1]
        return UniPoly(self.context, tuple(_monic(a, ops)) if a else ())

    def derivative(self) -> "UniPoly":
        ops = self.context.ops
        mul, from_int = ops.mul, ops.from_int
        return _poly(self.context, [mul(c, from_int(i)) for i, c in enumerate(self.cs) if i])

    def evaluate(self, x: FieldElement) -> FieldElement:
        return FieldElement(self.context, _value(self.cs, x.payload, self.context.ops))

    def pow_mod(self, e: int, mod: "UniPoly") -> "UniPoly":
        """self^e mod `mod` over a finite field F_{p^n}, square-and-multiply
        on Kronecker-packed residues (von zur Gathen-Gerhard, Modern Computer
        Algebra 8.4).

        Layout: with w the monic modulus of degree d, a residue is one int.
        Residue coefficient j, an element of F_{p^n}, fills block j, and its
        coefficient of u^i sits in slot i of the block; a block is 2n-1 slots
        of `width` bits, so the product of two elements stays inside one
        block.  A product in F_q[T]/(w) is then one int product (2d-1
        blocks); one int product per high block, by the packed row
        T^(d+k) mod w (k < d-1), which folds the high blocks back
        independently of each other; and a fold of every block with the
        field's rows u^(n+k) mod M followed by one % p per slot.  The residue
        stays packed from the first square to the last and is unpacked into
        payloads once, at the end.

        Slot bound: a product slot is at most d n (p-1)^2 and the high blocks
        add at most (d-1) n (p-1)^2, all with nonnegative terms; the field
        fold multiplies that by at most 1 + (n-1)(p-1).  So width is the bit
        length of (2d-1) n (p-1)^2 (1 + (n-1)(p-1)), and no slot spills into
        the next before its reduction mod p.

        No cache: the layout and rows are built in each call from w.  That
        is d-2 packed reductions, little beside the ~log2(e) squarings of a
        power with e near q, and a cache would keep every modulus alive.

        e = 0 gives 1, also for a constant modulus, and any e > 0 gives 0
        for a constant modulus.  The rationals raise ValueError (there is
        no slot bound over Q, and no caller powers there), a zero modulus
        ZeroDivisionError.
        """
        ctx = self.context
        if ctx.is_rational:
            raise ValueError("pow_mod needs a finite field")
        if mod.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if e < 0:
            raise ValueError("pow_mod needs a nonnegative exponent")
        if e == 0:
            return UniPoly(ctx, (ctx.ops.one,))
        if mod.degree() == 0:
            return UniPoly.zero(ctx)
        return _packed_pow(self % mod, e, mod.monic())

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
# payload lists: the coefficients of a UniPoly, low degree first


def _poly(ctx: FieldContext, cs: List) -> UniPoly:
    """The UniPoly with payloads cs (consumed), trailing zeros dropped."""
    zero = ctx.ops.zero
    while cs and cs[-1] == zero:
        cs.pop()
    return UniPoly(ctx, tuple(cs))


def _divmod(a: Sequence, b: Sequence, ops: Payloads) -> Tuple[List, List]:
    """Quotient and remainder of a by the nonzero b, all three without
    trailing zeros."""
    rem = list(a)
    d = len(b) - 1
    if len(rem) <= d:
        return [], rem
    zero, one, sub, mul = ops.zero, ops.one, ops.sub, ops.mul
    inv = ops.inverse(b[-1])
    tail = b[:-1]
    q = [zero] * (len(rem) - d)
    while len(rem) > d:
        # the top coefficient cancels by construction and is popped
        k = len(rem) - 1 - d
        c = rem.pop()
        if inv != one:
            c = mul(c, inv)
        q[k] = c
        for i, y in enumerate(tail, k):
            rem[i] = sub(rem[i], mul(c, y))
        while rem and rem[-1] == zero:
            rem.pop()
    return q, rem


def _monic(cs: Sequence, ops: Payloads) -> List:
    """The nonzero cs divided by its top coefficient."""
    inv = ops.inverse(cs[-1])
    if inv == ops.one:
        return list(cs)
    mul = ops.mul
    return [mul(c, inv) for c in cs[:-1]] + [ops.one]


def _value(cs: Sequence, x, ops: Payloads):
    """cs at the payload x, by Horner's rule."""
    add, mul = ops.add, ops.mul
    acc = ops.zero
    for c in reversed(cs):
        acc = add(mul(acc, x), c)
    return acc


def _packed_pow(r: UniPoly, e: int, w: UniPoly) -> UniPoly:
    """r^e mod w for e >= 1, r reduced mod the monic w of degree d >= 1
    (the layout and slot bound are in UniPoly.pow_mod)."""
    ctx = w.context
    p, n, d = ctx.characteristic, ctx.extension_degree, w.degree()
    width = ((2 * d - 1) * n * (p - 1) ** 2 * (1 + (n - 1) * (p - 1))).bit_length()
    slot = (1 << width) - 1
    block = width * (2 * n - 1)
    starts = [block * j for j in range(d)]
    shifts = [s + width * i for s in starts for i in range(n)]
    high_shifts = shifts[: n * (d - 1)]
    firsts = sum(slot << s for s in starts)  # slot 0 of every block
    lows = sum(((1 << width * n) - 1) << s for s in starts)  # slots 0..n-1
    folds = []
    if n > 1:
        folds = [(width * (n + k), sum(c << width * i for i, c in enumerate(row)))
                 for k, row in enumerate(reduction_rows(p, ctx.modulus))]
    top = block * d
    residue = (1 << top) - 1
    element = (1 << block) - 1

    def canon(x: int, positions: List[int]) -> int:
        """x with every block reduced to its element of F_{p^n}."""
        acc = x & lows
        for s, row in folds:
            acc += ((x >> s) & firsts) * row
        out = 0
        for s in positions:
            out |= (((acc >> s) & slot) % p) << s
        return out

    def reduce(x: int) -> int:
        """The canonical residue of x, which has at most 2d-1 blocks."""
        high = x >> top
        acc = x & residue
        if high:
            high = canon(high, high_shifts)
            for row in rows:
                if not high:
                    break
                acc += (high & element) * row
                high >>= block
        return canon(acc, shifts)

    def pack(cs: Sequence) -> int:
        values = cs if n == 1 else [c for a in cs for c in a]
        return sum(c << s for c, s in zip(values, shifts))

    # rows[k] = T^(d+k) mod w: T^d = -(w_0 + ... + w_{d-1} T^(d-1)), and
    # each next row is the previous one times T, reduced with rows[0];
    # reduce() reads only the rows it needs, which exist by then
    sub, zero = ctx.ops.sub, ctx.ops.zero
    rows = [pack([sub(zero, c) for c in w.cs[:d]])]
    for _ in range(d - 2):
        rows.append(reduce(rows[-1] << block))
    base = pack(r.cs)
    x = base
    for bit in bin(e)[3:]:
        x = reduce(x * x)
        if bit == "1":
            x = reduce(x * base)
    values = [(x >> s) & slot for s in shifts]
    if n > 1:
        values = [tuple(values[j:j + n]) for j in range(0, n * d, n)]
    return _poly(ctx, values)


# ---------------------------------------------------------------------------
# irreducible moduli


def _prime_factors(n: int) -> List[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def poly_is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Ben-Or's test (FOCS 1981; von zur Gathen-Gerhard, Modern Computer
    Algebra ch. 14) for a monic M of degree d over F_p, given by its int
    coefficients low degree first: M is irreducible iff gcd(M, t^(p^i) - t)
    = 1 for every i <= d/2, since t^(p^i) - t is the product of the monic
    irreducibles of degree dividing i and a reducible M has a factor of
    degree at most d/2.  That is, iff the first block _frobenius_blocks
    yields is M itself; the blocks come lazily, one p-th power per step, so
    the test stops at the first common factor and most reducible candidates
    cost a step or two."""
    d = len(coeffs) - 1
    if d < 2:
        return d == 1
    m = UniPoly.from_ints(prime_field(p), coeffs)
    return next(_frobenius_blocks(m))[0] == d


def _irreducible_binomial(p: int, d: int) -> Optional[int]:
    """The least c in [1, p) with t^d + c irreducible over F_p, or None.

    Serret's criterion (Lidl-Niederreiter, Finite Fields, Thm 3.75): for
    d >= 2, t^d - a is irreducible iff every prime r | d divides p - 1 and a
    is not an r-th power (a^((p-1)/r) != 1), and p = 1 (mod 4) when 4 | d.
    When those hold, a fraction prod(1 - 1/r) of the units qualifies, so the
    search stops after a few candidates."""
    primes = _prime_factors(d)
    if any((p - 1) % r for r in primes) or (d % 4 == 0 and p % 4 != 1):
        return None
    for c in range(1, p):
        a = p - c
        if all(pow(a, (p - 1) // r, p) != 1 for r in primes):
            return c
    return None


def canonical_irreducible(p: int, d: int) -> Tuple[int, ...]:
    """First monic irreducible of degree d over F_p in the canonical scan order.

    Candidates t^d + c_{d-1} t^{d-1} + ... + c_0 are enumerated with
    (c_0, ..., c_{d-1}) running through base-p counter order, so the choice
    is reproducible across runs and machines.  The first p candidates are
    the binomials t^d + c_0, decided in closed form by Serret's criterion;
    Ben-Or's test takes over at c_1 = 1.
    """
    if d == 1:
        return (0, 1)
    c = _irreducible_binomial(p, d)
    if c is not None:
        return (c,) + (0,) * (d - 1) + (1,)
    # k counts in base p with c_i its i-th digit; counting keeps the memory
    # constant, where a pool of range(p) would not for p near 10^9
    for k in range(p, p ** d):
        cand = tuple([k // p ** i % p for i in range(d)]) + (1,)
        if poly_is_irreducible(cand, p):
            return cand
    raise ValueError(f"no monic irreducible of degree {d} over F_{p}")


# ---------------------------------------------------------------------------
# roots


def _root_multiplicity(g: UniPoly, r: FieldElement) -> Tuple[UniPoly, int]:
    """Divide out (t - r) as often as possible; return (quotient, multiplicity).

    Each step is one synthetic division: a Horner pass from the top
    coefficient gives the quotient's coefficients, and its last value is
    the remainder g(r)."""
    ops = g.context.ops
    add, mul, zero, x = ops.add, ops.mul, ops.zero, r.payload
    cs = g.cs
    mult = 0
    while len(cs) > 1:
        acc = cs[-1]
        quotient = [acc]
        for c in cs[-2::-1]:
            acc = add(mul(acc, x), c)
            quotient.append(acc)
        if quotient.pop() != zero:
            break
        cs = quotient[::-1]
        mult += 1
    return (UniPoly(g.context, tuple(cs)) if mult else g), mult


def _rational_roots(g: UniPoly) -> List[Tuple[FieldElement, int]]:
    """All rational roots with multiplicities, by p-adic lifting.

    Once t is divided out, the roots of g are those of its squarefree part,
    taken as a primitive integer polynomial h.  A root a/b in lowest terms
    has |a| <= |h(0)| and b <= |lead(h)| (rational root theorem), so it is
    determined by its residue modulo any m > 2 |h(0)| |lead(h)| (rational
    reconstruction, von zur Gathen-Gerhard, Modern Computer Algebra 5.10).
    The prime p is the first from 5 up that does not divide lead(h) and
    keeps h squarefree, so every root of h mod p is simple and lifts to a
    unique root mod p^k by Newton iteration (2 or 3 divides the
    discriminant n^n a^(n-1) of every binomial t^n - a with n = 2, 3, 4,
    so those two primes are skipped).  A reconstructed candidate is kept
    only if t minus it divides g.  The cost is polynomial in the bit size
    of g; enumerating the divisors of h(0) and lead(h) was not.

    h starts as g itself, which is its own squarefree part whenever one
    degree-preserving reduction is squarefree; only when the first one is
    not is the squarefree part computed over Q.
    """
    ctx = g.context
    h = _primitive_ints(g)
    mult0 = next(i for i, c in enumerate(h) if c)  # t^mult0 exactly divides g
    roots: List[Tuple[FieldElement, int]] = [(ctx.zero(), mult0)] if mult0 else []
    g, h = UniPoly(ctx, g.cs[mult0:]), h[mult0:]
    if len(h) < 2:
        return roots
    sf_taken = False
    p = 5
    while True:
        if h[-1] % p:
            hp = UniPoly.from_ints(prime_field(p), h)
            if hp.gcd(hp.derivative()).degree() == 0:
                break
            if not sf_taken:
                h, sf_taken = _primitive_ints(_squarefree_part(g)), True
        p += 2
        while not is_prime(p):
            p += 2
    dh = [i * c for i, c in enumerate(h)][1:]
    a0 = abs(h[0])
    bound = 2 * a0 * abs(h[-1])
    for u in _roots_in_field(hp):
        m = p
        while m <= bound:
            m *= m
            u = (u - _horner(h, u) * pow(_horner(dh, u), -1, m)) % m
        root = FieldElement(ctx, _reconstruct(u, m, a0))
        g, mult = _root_multiplicity(g, root)
        if mult:
            roots.append((root, mult))
    roots.sort(key=lambda rm: rm[0].sort_key())
    return roots


def _primitive_ints(g: UniPoly) -> List[int]:
    """The coefficients of g over Q scaled to coprime integers."""
    lcm = math.lcm(*(c.denominator for c in g.cs))
    ints = [int(c * lcm) for c in g.cs]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def _horner(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _reconstruct(u: int, m: int, bound: int) -> Fraction:
    """r/t for the first remainder r <= bound of the extended Euclidean
    algorithm on (m, u), with its cofactor t (r = t u mod m).  When
    a = b u mod m for some a/b with |a| <= bound and 0 < b <= m / (bound+1),
    this is a/b (Modern Computer Algebra, Theorem 5.26)."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1)


def _squarefree_part(g: UniPoly) -> UniPoly:
    """Product of the distinct irreducible factors, handling p-th powers."""
    ctx = g.context
    p = ctx.characteristic
    d = g.derivative()
    if d.is_zero():
        if p == 0:
            return UniPoly.make(ctx, [ctx.one()])
        # g(t) = h(t^p); take p-th roots of coefficients and recurse
        return _squarefree_part(UniPoly.make(ctx, [c.pth_root() for c in g.coeffs[::p]]))
    red = g // g.gcd(d)
    # the reduced part can still hide p-th powers of inseparable factors
    if p > 0:
        rest = g // red
        if rest.degree() > 0:
            extra = _squarefree_part(rest)
            red = (red * (extra // extra.gcd(red))).monic()
    return red.monic()


def _roots_in_field(sf: UniPoly) -> List:
    """Payloads of the roots of the squarefree sf lying in its own (finite)
    field of definition, in canonical order.  A quadratic over odd q is
    solved in closed form; otherwise the roots are those of the first
    Frobenius block when its degree is 1, and there are none when it is
    not.  A linear sf is its own first block, found with no power."""
    if sf.degree() == 2 and sf.context.order() % 2:
        return sorted(_quadratic_roots(sf) or [])
    e, block = next(_frobenius_blocks(sf))
    return sorted(_split_linear(block)) if e == 1 else []


def _split_linear(w: UniPoly) -> List:
    """Split a product of distinct linear factors into the payloads of its
    roots.

    Over a field of odd order a quadratic piece, and w itself when it is
    one, is taken apart in closed form by _quadratic_roots.  Every other
    piece of degree two or more is split by equal-degree splitting
    (Cantor-Zassenhaus, _split_once), and its factors go back on the list;
    the fixed-seed generator it draws from is made when the first such
    piece comes up.  The roots come back in no particular order; callers
    sort them, so root order is canonical whatever order the splits happen
    in.  Payloads of F_q sort in the canonical element order.
    """
    rng = None
    ctx = w.context
    ops = ctx.ops
    odd = ctx.characteristic != 2
    roots: List = []
    pending = [w]
    while pending:
        w = pending.pop()
        if w.degree() == 1:
            roots.append(ops.neg(_monic(w.cs, ops)[0]))
        elif w.degree() == 2 and odd:
            pair = _quadratic_roots(w)
            if pair is None:
                raise RuntimeError("a split quadratic has no roots")  # unreachable
            roots += pair
        elif w.degree() > 1:
            if rng is None:
                rng = random.Random(SPLIT_SEED)
            h = _split_once(w, rng)
            pending += [h, w // h]
    return roots


def _quadratic_roots(w: UniPoly) -> Optional[List]:
    """The payloads (-b +- sqrt(D)) / 2a of the roots of the squarefree
    quadratic a t^2 + b t + c over a field of odd order, D = b^2 - 4ac; None
    when D is not a square, so that the roots lie outside the field."""
    ops = w.context.ops
    c, b, a = w.cs
    four_ac = ops.mul(ops.from_int(4), ops.mul(a, c))
    root = _rth_root(w.context, ops.sub(ops.mul(b, b), four_ac), 2)
    if root is None:
        return None
    neg_b, inv = ops.neg(b), ops.inverse(ops.mul(ops.from_int(2), a))
    return [ops.mul(ops.add(neg_b, root), inv), ops.mul(ops.sub(neg_b, root), inv)]


def _rth_root(ctx: FieldContext, a: Payload, r: int) -> Optional[Payload]:
    """A payload x with x^r = a in F_q, for a prime r dividing q - 1, or None
    when a is not an r-th power.

    Adleman-Manders-Miller (On taking roots in finite fields, FOCS 1977),
    the generalisation of Tonelli-Shanks (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 1.5.1, which is r = 2): with q - 1 = r^s t,
    r not dividing t, and d = r^-1 mod t, start from x = a^d and b = x^r / a
    = a^(rd-1), which lies in the r-Sylow subgroup of F_q^*, cyclic of order
    r^s with the generator z of _sylow_generator; gamma = z^(r^(s-1)) has
    order r.  While b != 1, let r^i be its order: i = s only at the start,
    when a is not an r-th power (b then generates the subgroup).  Otherwise
    b^(r^(i-1)) = gamma^-j for one j in 1..r-1, and with y = z^(r^(k-i-1))
    for z of order r^k, x, b, z, k become x y^j, b y^(rj), y^r, i, which
    keeps x^r = a b and gamma = z^(r^(k-1)) and lowers the order of b, so at
    b = 1 x is the root.  When s = 1 (q = 3 mod 4 for r = 2) that is one
    power, and no generator is needed."""
    ops = ctx.ops
    if a == ops.zero:
        return a
    mul, one = ops.mul, ops.one
    s, t = _split_off(ctx.order() - 1, r)
    w = payload_power(ops, a, (pow(r, -1, t) if t > 1 else 1) - 1)  # a^(d-1)
    x = mul(a, w)
    b = mul(payload_power(ops, x, r - 1), w)
    k, z, logs = s, None, {}
    while b != one:
        i, c = 0, b
        while c != one:
            last, c = c, payload_power(ops, c, r)
            i += 1
        if i == k:
            return None
        if z is None:
            z = _sylow_generator(ctx, r)
            gamma, g = payload_power(ops, z, r ** (s - 1)), one
            for j in range(r):
                logs[g] = -j % r
                g = mul(g, gamma)
        y = payload_power(ops, z, r ** (k - i - 1))
        z, j = payload_power(ops, y, r), logs[last]
        x, b, k = mul(x, payload_power(ops, y, j)), mul(b, payload_power(ops, z, j)), i
    return x


def _split_off(n: int, r: int) -> Tuple[int, int]:
    """(s, t) with n = r^s t and r not dividing t, for n >= 1."""
    s = 0
    while n % r == 0:
        s, n = s + 1, n // r
    return s, n


# the generator of the r-Sylow subgroup of each field's unit group that
# _rth_root and _least_root have needed, keyed by (the field's shared
# context, r) (a memo: it never changes)
_SYLOW_GENERATORS: Dict[Tuple[FieldContext, int], Payload] = {}


def _sylow_generator(ctx: FieldContext, r: int) -> Payload:
    """A generator of the r-Sylow subgroup of F_q^*, r a prime dividing
    q - 1, itself not an r-th power: rho^t for q - 1 = r^s t, r not dividing
    t, where rho is the first nonzero element of the splitting candidates
    (_split_candidates, seeded with SPLIT_SEED) that is not an r-th power,
    rho^((q-1)/r) != 1.  Found on first use and then cached; a fraction
    1 - 1/r of F_q^* qualifies, so the search takes two powers at most on
    average."""
    found = _SYLOW_GENERATORS.get((ctx, r))
    if found is None:
        ops, q = ctx.ops, ctx.order()
        rho = next(c.payload for c in _split_candidates(ctx, random.Random(SPLIT_SEED))
                   if c.payload != ops.zero
                   and payload_power(ops, c.payload, (q - 1) // r) != ops.one)
        found = payload_power(ops, rho, _split_off(q - 1, r)[1])
        _SYLOW_GENERATORS[(ctx, r)] = found
    return found


def _split_candidates(ctx: FieldContext, rng: random.Random) -> Iterator[FieldElement]:
    """SPLIT_RANDOM_TRIES pseudo-random elements, then every element in order."""
    p, n = ctx.characteristic, ctx.extension_degree
    for _ in range(SPLIT_RANDOM_TRIES):
        yield ctx.from_vector([rng.randrange(p) for _ in range(n)])
    yield from ctx.elements()


def _split_once(w: UniPoly, rng: random.Random) -> UniPoly:
    """A proper monic factor of w, a product of at least two distinct linear
    factors, by equal-degree splitting (Cantor-Zassenhaus).

    w is split by its gcd with a polynomial built from a field element c,
    (t+c)^((q-1)/2) - 1 for odd q and the trace Tr(c t) for q = 2^n.  The
    elements c come from _split_candidates: a fixed-seed pseudo-random
    sequence over the whole field, which separates any two roots with
    probability about 1/2 per try, and after SPLIT_RANDOM_TRIES failures on
    one factor the canonical element scan, so splitting always terminates.
    Over odd q, _split_linear calls it only for degree 3 and more."""
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


def _frobenius_blocks(sf: UniPoly) -> Iterator[Tuple[int, UniPoly]]:
    """The distinct-degree blocks of the squarefree sf of degree >= 1, lazily:
    (e, the product of its irreducible factors of degree e) for each e that
    has one, in increasing order of e.

    With h = t^(q^e) mod sf, one q-th power per step, the block of degree e
    is gcd(sf, h - t) once the blocks below e are divided out of sf, since
    t^(q^e) - t is the product of the monic irreducibles of degree dividing
    e.  Once 2e exceeds the degree of what is left, that rest is irreducible
    and is the last block, found with no power; a linear sf is one such."""
    t = UniPoly.x(sf.context)
    q = sf.context.order()
    h, e = t, 1
    while 2 * e <= sf.degree():
        h = h.pow_mod(q, sf)
        block = sf.gcd(h - t)
        if block.degree() > 0:
            yield e, block
            sf = sf // block
            h = h % sf
        e += 1
    if sf.degree() > 0:
        yield sf.degree(), sf


def splitting_field_degree(sf: UniPoly) -> int:
    """The degree over its finite field of the least field where the
    squarefree sf splits: the lcm of the degrees of its distinct-degree
    blocks, each irreducible factor of degree e splitting in degree e."""
    return math.lcm(*(e for e, _ in _frobenius_blocks(sf)))


@dataclass(frozen=True)
class RootResult:
    """Roots of a polynomial together with the (possibly enlarged) field."""

    context: FieldContext
    embedding: FieldEmbedding  # original context -> final context
    roots: Tuple[Tuple[FieldElement, int], ...]

    def first(self) -> FieldElement:
        return self.roots[0][0]


# the field and embedding extend_context built for each (context, extra
# degree), shared like extension_field's contexts (a memo: it never changes)
_EMBEDDINGS: Dict[Tuple[FieldContext, int], Tuple[FieldContext, FieldEmbedding]] = {}


def extend_context(ctx: FieldContext, extra_degree: int) -> Tuple[FieldContext, FieldEmbedding]:
    """Enlarge F_{p^n} to F_{p^{n*extra}} with a canonical modulus and embedding;
    a total degree above MAX_EXTENSION_DEGREE raises ValueError, from
    extension_field, before any search.  The pair is built on the first call
    for (ctx, extra_degree) and shared by every later one."""
    if ctx.is_rational:
        raise NeedsAlgebraicExtension("cannot extend the rationals")
    if extra_degree == 1:
        return ctx, identity_embedding(ctx)
    found = _EMBEDDINGS.get((ctx, extra_degree))
    if found is None:
        found = _EMBEDDINGS.setdefault((ctx, extra_degree), _extension(ctx, extra_degree))
    return found


def _extension(ctx: FieldContext, extra_degree: int) -> Tuple[FieldContext, FieldEmbedding]:
    p = ctx.characteristic
    n = ctx.extension_degree
    big = extension_field(p, n * extra_degree)
    if n == 1:
        return big, FieldEmbedding(ctx, big, None)
    # embed by sending the old generator to the canonical root of the old
    # modulus, which is irreducible of degree n | n*extra, so it splits into
    # distinct linear factors in the big field
    roots = _split_linear(UniPoly.from_ints(big, ctx.modulus))
    return big, FieldEmbedding(ctx, big, FieldElement(big, min(roots)))


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
    sf = _squarefree_part(g)
    if allow_extension:
        # sf splits in the field of this degree over ctx and stays
        # squarefree there, so it is split without a root search
        degree = splitting_field_degree(sf)
        if degree > 1:
            ctx, emb = extend_context(ctx, degree)
            g = g.map_coefficients(emb, ctx)
            sf = sf.map_coefficients(emb, ctx)
        distinct = sorted(_split_linear(sf))
    else:
        distinct = _roots_in_field(sf)
    out = []
    for c in distinct:
        r = FieldElement(ctx, c)
        g, m = _root_multiplicity(g, r)
        out.append((r, m))
    return RootResult(ctx, emb, tuple(out))


def nth_root(a: FieldElement, n: int, allow_extension: bool) -> Tuple[FieldElement, FieldEmbedding]:
    """A deterministic b with b^n = a: the first root of t^n - a in canonical
    order, in the least field where t^n - a splits when F_q has no root.

    Returns the root together with the embedding of the original field into
    the (possibly enlarged) field containing it.  No root search runs: t^n - a
    is built only for the NeedsAlgebraicExtension raised when there is no
    root and the field may not (or, over Q, cannot) grow.

    Over F_q, q = p^e: t^(p m) - a = (t^m - a^(1/p))^p, so p is stripped
    from n with the inverse Frobenius (_least_root has the rest).  When no
    root lies in F_q and allow_extension is set, the field grows to F_{q^k}
    for the least k with m | q^k - 1 and a^((q^k-1)/m) = 1, that is, the
    least field holding every root of t^m - a: its degree k is the lcm of
    the degrees of the irreducible factors of t^m - a, the extension
    find_roots makes, so extend_context gives the same field and
    embedding.  A k past MAX_EXTENSION_DEGREE raises ValueError, as
    extension_field does, before any power of q that large is formed.

    Over Q, a = u/v in lowest terms has a rational n-th root iff |u| and v
    are exact n-th powers of integers and u > 0 or n is odd; the root is the
    positive one for even n, the first in the (|x|, sign) order.
    """
    if a.is_zero():
        raise ValueError("nth_root of zero")
    if n < 1:
        raise ValueError("n must be >= 1")
    ctx = a.context
    if ctx.is_rational:
        u, v = a.payload.numerator, a.payload.denominator
        top, bottom = _integer_root(abs(u), n), _integer_root(v, n)
        if top ** n == abs(u) and bottom ** n == v and (u > 0 or n % 2):
            root = Fraction(top if u > 0 else -top, bottom)
            return FieldElement(ctx, root), identity_embedding(ctx)
        raise NeedsAlgebraicExtension(
            f"no rational {n}-th root of {a}", polynomial=_binomial(a, n)
        )
    p, q = ctx.characteristic, ctx.order()
    e, m = _split_off(n, p)
    # a^(q/p) is the inverse Frobenius, and q/p = p^-1 mod q-1
    c = payload_power(ctx.ops, a.payload, pow(q // p, e, q - 1))
    root = _least_root(ctx, c, m)
    if root is not None:
        return FieldElement(ctx, root), identity_embedding(ctx)
    if not allow_extension:
        raise NeedsAlgebraicExtension(
            f"no {n}-th root of {a} in the current field", polynomial=_binomial(a, n)
        )
    big, emb = extend_context(ctx, _splitting_degree(ctx, c, m))
    return FieldElement(big, _least_root(big, emb(FieldElement(ctx, c)).payload, m)), emb


def _binomial(a: FieldElement, n: int) -> UniPoly:
    """t^n - a."""
    ctx = a.context
    return UniPoly.make(ctx, [-a] + [ctx.zero()] * (n - 1) + [ctx.one()])


def _integer_root(x: int, n: int) -> int:
    """The integer part of x^(1/n) for x >= 0: math.isqrt for n = 2, and
    otherwise Newton's iteration from a power of two above the root, which
    decreases until it stops at the root."""
    if n == 2:
        return math.isqrt(x)
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def _least_root(ctx: FieldContext, a: Payload, m: int) -> Optional[Payload]:
    """The least payload b of F_q with b^m = a, p not dividing m, or None when
    there is none.

    With g = gcd(m, q-1), a has an m-th root iff it has a g-th root, taken
    one prime r | g at a time by _rth_root; each step stays an r-th power
    because mu_g is cyclic.  Then b = c^u for the g-th root c and u =
    (m/g)^-1 mod (q-1)/g (m/g and (q-1)/g are coprime), and the m-th roots
    are b zeta^i, i < g, for zeta of order g: the product of z^(r^(s-e)) over
    the prime powers r^e || g, z the generator of the r-Sylow subgroup, of
    order r^s.  The least payload is the first root in the canonical element
    order."""
    ops = ctx.ops
    q = ctx.order()
    g = math.gcd(m, q - 1)
    zeta, rest = ops.one, g
    for r in _prime_factors(g):
        e = 0
        while rest % r == 0:
            a = _rth_root(ctx, a, r)
            if a is None:
                return None
            rest, e = rest // r, e + 1
        s = _split_off(q - 1, r)[0]
        zeta = ops.mul(zeta, payload_power(ops, _sylow_generator(ctx, r), r ** (s - e)))
    b = payload_power(ops, a, pow(m // g, -1, (q - 1) // g))
    best = b
    for _ in range(g - 1):
        b = ops.mul(b, zeta)
        best = min(best, b)
    return best


def _splitting_degree(ctx: FieldContext, a: Payload, m: int) -> int:
    """The least k with m | q^k - 1 and a^((q^k-1)/m) = 1 for a in F_q^*:
    the degree over F_q of the splitting field of t^m - a, p not dividing
    m.  The power is taken in F_q, with its exponent reduced mod q - 1.  A
    k whose field would pass MAX_EXTENSION_DEGREE raises ValueError."""
    ops, q = ctx.ops, ctx.order()
    qk = q
    for k in range(1, MAX_EXTENSION_DEGREE // ctx.extension_degree + 1):
        if (qk - 1) % m == 0 and payload_power(ops, a, (qk - 1) // m % (q - 1)) == ops.one:
            return k
        qk *= q
    raise ValueError(f"extension degree must be in 1..{MAX_EXTENSION_DEGREE}")
