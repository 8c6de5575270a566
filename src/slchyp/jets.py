"""Independent jet-scheme oracle for minimal log discrepancies.

The truncated arc equations of f at level m live in the polynomial ring on
x^(j), y^(j), z^(j) for j <= m.  The Krull height of the ideal they generate
together with the three order-zero variables, minus the level, bounds the
minimal log discrepancy from above at every level and attains it at a level
governed by the order of a computing divisor.  Heights come from a Groebner
basis (graded reverse lexicographic): the quotient's dimension is the number
of variables minus a minimum hitting set of the leading monomials' supports
(bitmasks, only the minimal ones kept), found by branching on the smallest
support not yet hit and pruning at the best size found so far.

`mld_profile` expands the arc equations once, at its top level, on arcs
through the origin (x^(0), y^(0), z^(0) are generators, so the ideal is the
same), and carries one Groebner basis from level to level: f^(m) lives on
the coordinates of levels <= m, so level m adds it to the basis of level
m - 1 and only the new pairs are formed.  Heights are read from the leading
monomials of the carried basis, which span the leading-term ideal whether or
not the basis is inter-reduced; `ideal_height_of` reads them the same way,
from a basis it never inter-reduces.  `build_jets` and `ideal_height` keep
the per-level computation on full arcs as the reference.

The Buchberger engine is generic over the exact coefficient fields and also
serves the cubic-cone classifier (lex order for elimination).  Each basis
element's leading monomial is computed once, when it joins the basis;
pending pairs sit in a heap keyed by their lcm (the normal selection
strategy, ties broken by the indices of the pair), and pairs with coprime
leading monomials are never queued.  A reduction pops the remainder's
leading monomial from a heap and subtracts the first basis element (in basis
order) whose leading monomial divides it, term by term.  The reduced basis
is unique, so none of this changes a result.  The engine never truncates: if
a basis exceeds the configured budget (for `mld_profile`, the basis carried
through all levels so far) the computation aborts with OracleOverflow.

Inside the engine a monomial is one int, and a polynomial a dict from those
ints to raw coefficients (Monagan and Pearce, J. Symb. Comp. 46, 2011, pack
monomials the same way).  On n variables with `width` value bits per
exponent, every field is `stride` = width + 1 + bitlength(n - 1) bits wide:

* the low n fields are E, the exponents, with a guard bit at bit `width` of
  each field.  Under grevlex x_1 is the least significant field, under lex
  the most significant one.
* under grevlex the n fields above E are K, the partial sums
  S_k = e_1 + ... + e_k packed with S_n most significant, so that comparing
  K compares total degree first and then the reversed exponents; K is E
  times (1 + 2^stride + ... ), cut to n fields.  Under lex E itself is in
  order and there is no K.

Both parts are additive, so a product of monomials is one int addition, the
order is one int comparison (the reduction heap holds negated monomials) and
m divides t iff `(t - m) & guard` is zero: a field that would go negative
borrows and sets its guard bit.  The lcm of two leading monomials is a
fieldwise max done with the same guard bits.  The stride leaves room for a
field to exceed the value bits by one bit without touching its neighbour.
The starting width fits four times the largest exponent of the input; a term
whose exponent reaches the guard bit (a lex elimination can raise exponents
far beyond the input's) stops the computation, which reruns from its
generators at doubled width.  That costs time, never a different answer.

Coefficients are raw payloads with one record of operations per field kind
(`_coefficients`, which takes zero, one, mul and inverse over a finite
field from the field's payload record `ctx.ops`, whose payloads are the
engine's coefficients as they are):

* F_p: ints in [0, p); basis elements are monic.
* F_{p^n}: coefficient tuples, multiplied by the context's packed product;
  basis elements are monic.
* Q: integers.  Basis elements are primitive integer polynomials with a
  positive leading coefficient (their content is removed when they join,
  as in Brown's primitive PRS, J. ACM 18, 1971), and reduction is fraction
  free: the remainder so far is scaled by the divisor's leading coefficient
  over its gcd with the cancelled one.  Remainders are positive multiples
  of the monic ones, so the same leading monomials arise.

At the edges (the input and output of `groebner_basis`, the generators of
`build_jets`, and `ideal_height_of`) a polynomial is an `NPoly`: a dict from
exponent tuples to the field's payloads, the coefficients `TriPoly` and
`UniPoly` store too (a Fraction over Q, an int mod p, a coefficient tuple
over F_{p^n}).  A payload does not carry its field, so those functions take
the field context.  The reduced basis is made monic with `ctx.ops`, which
turns the integers of Q into Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd
from operator import mul as int_mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .fields import FieldContext, Payload
from .poly import TriPoly

NMonomial = Tuple[int, ...]
NPoly = Dict[NMonomial, Payload]
Packed = Dict[int, object]  # packed monomial -> raw coefficient


class OracleOverflow(RuntimeError):
    """The Groebner basis exceeded the configured size budget."""


@dataclass(frozen=True)
class GroebnerBudget:
    """Largest basis, reduced or not, that a computation may hold; in
    `mld_profile` it bounds the basis carried through every level so far."""

    max_basis: int = 20000


def grevlex_key(m: NMonomial):
    return (sum(m), tuple(-e for e in reversed(m)))


def lex_key(m: NMonomial):
    return m


ORDERS = {"grevlex": grevlex_key, "lex": lex_key}


# ---------------------------------------------------------------------------
# packed monomials


class _Widen(Exception):
    """A term's exponent reached a guard bit: rerun at a wider layout."""


def _width(max_exponent: int) -> int:
    """Value bits per exponent that fit four times the given exponent."""
    return max(4 * max_exponent, 1).bit_length()


class _Layout:
    """The packing of monomials on nvars variables in one monomial order,
    with `width` value bits per exponent (see the module docstring)."""

    def __init__(self, nvars: int, order: str, width: int) -> None:
        if order not in ORDERS:
            raise KeyError(order)
        self.nvars, self.order, self.width = nvars, order, width
        s = self.stride = width + 1 + (nvars - 1).bit_length()
        self.lex = order == "lex"
        self.emask = (1 << (nvars * s)) - 1
        self.guard = sum(1 << (k * s + width) for k in range(nvars))
        self.value = (1 << width) - 1
        self.values = self.value * sum(1 << (k * s) for k in range(nvars))
        self.ones = sum(1 << (k * s) for k in range(nvars))

    def _keyed(self, e: int) -> int:
        if self.lex:
            return e
        return ((e * self.ones) & self.emask) << (self.nvars * self.stride) | e

    def pack(self, exps: Sequence[int]) -> int:
        s, e = self.stride, 0
        for x in (exps if self.lex else reversed(exps)):
            e = (e << s) | x
        return self._keyed(e)

    def unpack(self, m: int) -> NMonomial:
        s, v = self.stride, self.value
        out = [(m >> (k * s)) & v for k in range(self.nvars)]
        return tuple(reversed(out)) if self.lex else tuple(out)

    def variable(self, i: int) -> int:
        return self._keyed(1 << (self.stride * (self.nvars - 1 - i if self.lex else i)))

    def lcm(self, a: int, b: int) -> int:
        """Fieldwise max: a field's guard bit survives (a | guard) - b iff
        its exponent in a is at least the one in b."""
        a &= self.emask
        b &= self.emask
        wins = ((a | self.guard) - b) & self.guard
        mask = wins - (wins >> self.width)
        return self._keyed(b ^ ((a ^ b) & mask))

    def support(self, m: int) -> int:
        """The guard bits of the nonzero exponents of m."""
        return ((m & self.emask) + self.values) & self.guard

    def convert(self, poly: Packed, old: "_Layout") -> Packed:
        return {self.pack(old.unpack(m)): c for m, c in poly.items()}


# ---------------------------------------------------------------------------
# raw coefficients


@dataclass(frozen=True)
class _Coefficients:
    """Arithmetic on the engine's coefficients over one field: the field's
    payloads over a finite field, integers over Q.

    ratio(c, lc) gives (a, nb) with a*c + nb*lc == 0: over a field lc is
    one and a is 1; over Q a = lc/g and nb = -c/g, g = gcd(c, lc)."""

    zero: object
    one: object
    mul: Callable
    add_mul: Callable  # (a, b, c) -> a + b*c
    ratio: Callable
    normalize: Callable  # Packed in descending order -> monic or primitive
    load: Callable  # field payloads -> coefficients (over Q a positive integer multiple)


@lru_cache(maxsize=None)
def _coefficients(ctx: FieldContext) -> _Coefficients:
    p, n = ctx.characteristic, ctx.extension_degree
    if p == 0:
        def ratio(c, lc):
            g = gcd(c, lc)
            return lc // g, -(c // g)

        def normalize(r):
            g = gcd(*r.values())
            if next(iter(r.values())) < 0:
                g = -g
            return {m: c // g for m, c in r.items()} if g != 1 else r

        def load(poly):
            den = 1
            for c in poly.values():
                d = c.denominator
                den = den * d // gcd(den, d)
            return {m: c.numerator * (den // c.denominator) for m, c in poly.items()}

        return _Coefficients(0, 1, int_mul, lambda a, b, c: a + b * c,
                             ratio, normalize, load)
    ops = ctx.ops  # zero, one, mul and inverse come from the field's record
    zero, one, mul, inverse = ops.zero, ops.one, ops.mul, ops.inverse

    def normalize(r):
        inv = inverse(next(iter(r.values())))
        return {m: mul(c, inv) for m, c in r.items()} if inv != one else r

    def load(poly):  # a finite field's payloads are its coefficients
        return poly

    if n == 1:
        return _Coefficients(zero, one, mul, lambda a, b, c: (a + b * c) % p,
                             lambda c, lc: (1, -c), normalize, load)

    def add_mul(a, b, c):
        return tuple([(x + y) % p for x, y in zip(a, mul(b, c))])

    return _Coefficients(zero, one, mul, add_mul,
                         lambda c, lc: (1, tuple([(-x) % p for x in c])),
                         normalize, load)


# ---------------------------------------------------------------------------
# the Buchberger engine


def np_reduce(work: Packed, divisors: list, field: _Coefficients, guard: int) -> Packed:
    """Full normal form of `work` (consumed) modulo the divisors, each a
    (leading monomial, leading coefficient, tail) triple with the tail a list
    of (monomial, coefficient) pairs; terms come out in descending order.
    Over Q the result is a positive multiple of the normal form.  Raises
    _Widen when a term's exponent reaches the guard bits."""
    mul, add_mul, ratio, zero = field.mul, field.add_mul, field.ratio, field.zero
    heap = [-m for m in work]
    heapify(heap)
    remainder: Packed = {}
    while heap:
        m = -heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue  # cancelled, or a second entry of a term already taken
        if m & guard:
            raise _Widen
        for lm, lc, tail in divisors:
            if not (m - lm) & guard:
                break
        else:
            remainder[m] = c
            continue
        # a*work + nb*shift*g, where g's leading term cancels c*m
        a, nb = ratio(c, lc)
        if a != 1:
            work = {t: mul(a, v) for t, v in work.items()}
            remainder = {t: mul(a, v) for t, v in remainder.items()}
        shift = m - lm
        for gm, gc in tail:
            t = gm + shift
            old = work.get(t)
            if old is None:
                work[t] = mul(nb, gc)
                heappush(heap, -t)
            else:
                v = add_mul(old, nb, gc)
                if v == zero:
                    del work[t]
                else:
                    work[t] = v
    return remainder


class _Buchberger:
    """Buchberger state: the packed basis with each element's leading term,
    the heap of pending pairs and the size budget.  After `add` the basis is
    a Groebner basis of everything added so far, so later generators only
    form pairs with it; `reduced` returns the reduced basis.  Generators
    always come packed in the layout the state was made with; every batch is
    kept, so that a term overflowing the working layout can rerun the whole
    computation at doubled width."""

    def __init__(self, layout: _Layout, ctx: FieldContext, budget: GroebnerBudget) -> None:
        self.packing = layout
        self.ops = ctx.ops
        self.field = _coefficients(ctx)
        self.budget = budget
        self.batches: List[List[Packed]] = []
        self._reset(layout)

    def _reset(self, layout: _Layout) -> None:
        self.layout = layout
        self.divisors: list = []  # (lm, lc, tail) per basis element
        self.supports: List[int] = []
        self.pairs: list = []  # heap of (lcm, i, j) with j < i

    @property
    def leads(self) -> List[int]:
        return [lm for lm, _lc, _tail in self.divisors]

    def _join(self, r: Packed) -> None:
        divisors, supports, layout = self.divisors, self.supports, self.layout
        items = iter(self.field.normalize(r).items())
        lm, lc = next(items)
        k = len(divisors)
        divisors.append((lm, lc, list(items)))
        if len(divisors) > self.budget.max_basis:
            raise OracleOverflow(f"basis exceeded {self.budget.max_basis} elements")
        support = layout.support(lm)
        supports.append(support)
        lcm, pairs = layout.lcm, self.pairs
        for j in range(k):
            if supports[j] & support:  # coprime leading monomials reduce to zero
                heappush(pairs, (lcm(lm, divisors[j][0]), k, j))

    def _run(self, gens: Sequence[Packed]) -> None:
        divisors, pairs, field = self.divisors, self.pairs, self.field
        guard = self.layout.guard
        for g in gens:
            if not g:
                continue
            if divisors:
                r = np_reduce(dict(g), divisors, field, guard)
            else:
                r = dict(sorted(g.items(), reverse=True))
            if r:
                self._join(r)
        mul, add_mul, ratio, zero = field.mul, field.add_mul, field.ratio, field.zero
        while pairs:
            # normal strategy: smallest lcm of the leading monomials
            lcm, i, j = heappop(pairs)
            mi, ci, ti = divisors[i]
            mj, cj, tj = divisors[j]
            a, nb = ratio(ci, cj)  # a*ci + nb*cj == 0 cancels the lcm term
            si, sj = lcm - mi, lcm - mj
            work = {m + si: c for m, c in ti} if a == 1 else {m + si: mul(a, c) for m, c in ti}
            for m, c in tj:
                t = m + sj
                old = work.get(t)
                if old is None:
                    work[t] = mul(nb, c)
                else:
                    v = add_mul(old, nb, c)
                    if v == zero:
                        del work[t]
                    else:
                        work[t] = v
            r = np_reduce(work, divisors, field, guard)
            if r:
                self._join(r)

    def add(self, gens: Sequence[Packed]) -> None:
        """Join generators, then run pairs until none are left."""
        self.batches.append(list(gens))
        self._replay(self.batches[-1:])

    def _replay(self, batches: List[List[Packed]]) -> None:
        try:
            for batch in batches:
                if self.layout is not self.packing:
                    batch = [self.layout.convert(g, self.packing) for g in batch]
                self._run(batch)
        except _Widen:
            self._rerun_wider()

    def _rerun_wider(self) -> None:
        old = self.layout
        self._reset(_Layout(old.nvars, old.order, 2 * old.width))
        self._replay(self.batches)

    def reduced(self) -> List[NPoly]:
        """Inter-reduce the minimal elements into monic `NPoly`s on the
        field's payloads, terms in descending order; the reduced basis is
        unique.  Under lex a tail
        can reduce to exponents the basis never held, so this too may
        rerun wider."""
        while True:
            try:
                return self._inter_reduce()
            except _Widen:
                self._rerun_wider()

    def _inter_reduce(self) -> List[NPoly]:
        divisors, layout = self.divisors, self.layout
        guard = layout.guard
        lms = self.leads
        keep = [
            idx for idx, lm in enumerate(lms)
            if not any(
                o != idx and not (lm - lms[o]) & guard and (lms[o] != lm or o < idx)
                for o in range(len(lms))
            )
        ]
        keep.sort(key=lambda idx: lms[idx])
        one, mul, inverse = self.ops.one, self.ops.mul, self.ops.inverse
        out = []
        for idx in keep:
            lm, lc, tail = divisors[idx]
            others = [divisors[o] for o in keep if o != idx]
            r = np_reduce(dict([(lm, lc)] + tail), others, self.field, guard)
            # over Q r holds integers: one * lead is the lead as a Fraction
            inv = inverse(mul(one, next(iter(r.values()))))
            out.append({layout.unpack(m): mul(c, inv) for m, c in r.items()})
        return out


def _buchberger(ctx: FieldContext, gens: Sequence[NPoly], order: str,
                budget: GroebnerBudget) -> Optional[_Buchberger]:
    """The Buchberger state run on the nonzero gens over ctx to a Groebner
    basis, or None when there are none."""
    gens = [g for g in gens if g]
    if not gens:
        return None
    nvars = len(next(iter(gens[0])))
    top = max(max(m) for g in gens for m in g) if nvars else 0
    layout = _Layout(nvars, order, _width(top))
    state = _Buchberger(layout, ctx, budget)
    load = state.field.load
    state.add([{layout.pack(m): c for m, c in load(g).items()} for g in gens])
    return state


def groebner_basis(
    ctx: FieldContext,
    gens: Sequence[NPoly],
    order: str = "grevlex",
    budget: GroebnerBudget = GroebnerBudget(),
) -> List[NPoly]:
    """Reduced Groebner basis of gens over ctx by Buchberger's algorithm
    with the normal selection strategy and the coprimality criterion."""
    state = _buchberger(ctx, gens, order, budget)
    return state.reduced() if state else []


def quotient_dimension(leading_monomials: Sequence[NMonomial], nvars: int) -> int:
    """Krull dimension of k[x_1..x_n]/I from the leading-monomial ideal:
    nvars minus the fewest variables meeting every leading monomial's
    support (a minimum hitting set), or -1 when I is the unit ideal."""
    supports = sorted(
        {sum(1 << i for i, e in enumerate(m) if e) for m in leading_monomials},
        key=int.bit_count,
    )
    if supports and supports[0] == 0:
        return -1  # ideal contains a unit: empty spectrum
    minimal: List[int] = []
    for s in supports:
        if not any(t & s == t for t in minimal):
            minimal.append(s)
    best = min(len(minimal), nvars)  # one variable per support hits them all

    def search(rest: List[int], size: int) -> None:
        # rest: the supports not hit yet, smallest first
        nonlocal best
        if not rest:
            best = size
            return
        if size + 1 >= best:
            return
        bits = rest[0]
        while bits:
            var = bits & -bits
            bits ^= var
            search([s for s in rest if not s & var], size + 1)

    search(minimal, 0)
    return nvars - best


def _height(leading_monomials: Sequence[NMonomial], nvars: int) -> int:
    """Height of an ideal on nvars variables from the leading monomials of a
    Groebner basis; the unit ideal has the whole ring's height by convention."""
    dim = quotient_dimension(leading_monomials, nvars)
    return nvars if dim < 0 else nvars - dim


def ideal_height_of(ctx: FieldContext, gens: Sequence[NPoly], nvars: int,
                    budget: GroebnerBudget = GroebnerBudget()) -> int:
    """Height of the ideal of gens over ctx on nvars variables, read from
    the leading monomials of a grevlex Groebner basis that is not
    inter-reduced: they span the same leading-term ideal as the reduced
    basis."""
    state = _buchberger(ctx, gens, "grevlex", budget)
    leads = [state.layout.unpack(lm) for lm in state.leads] if state else []
    return _height(leads, nvars)


# ---------------------------------------------------------------------------
# truncated arc equations


@dataclass
class JetSystem:
    m: int
    nvars: int
    context: FieldContext
    generators: List[NPoly]  # x^(0), y^(0), z^(0), f^(0), ..., f^(m), on payloads


def _series_mul(a: List[Packed], b: List[Packed], m: int,
                field: _Coefficients) -> List[Packed]:
    mul, add_mul, zero = field.mul, field.add_mul, field.zero
    out: List[Packed] = [{} for _ in range(m + 1)]
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b[:m + 1 - i]):
            o = out[i + j]
            for m1, c1 in ai.items():
                for m2, c2 in bj.items():
                    t = m1 + m2
                    old = o.get(t)
                    if old is None:
                        o[t] = mul(c1, c2)
                    else:
                        v = add_mul(old, c1, c2)
                        if v == zero:
                            del o[t]
                        else:
                            o[t] = v
    return out


def _series_powers(arc: List[Packed], exponents, m: int,
                   field: _Coefficients) -> Dict[int, List[Packed]]:
    """arc^e through t^m for each e in `exponents`, by squaring: arc^e comes
    from arc^(e // 2), so an exponent costs O(log e) products, and the
    exponents share the powers on their way."""
    powers = {1: arc}

    def power(e):
        if e not in powers:
            half = power(e // 2)
            square = _series_mul(half, half, m, field)
            powers[e] = _series_mul(square, arc, m, field) if e % 2 else square
        return powers[e]

    return {e: power(e) for e in exponents}


def _arc_equations(f: TriPoly, m: int, first: int, layout: _Layout) -> List[Packed]:
    """f^(0), ..., f^(m), packed: the coefficients of t^0..t^m in f evaluated
    on the arc whose i-th coordinate is the sum of x_i^(j) t^j over
    first <= j <= m, the level-j coordinate of variable i at index 3*j + i.
    Over Q f is first scaled to integer coefficients.  A monomial of total
    degree d is O(t^(first*d)) on the arc, so only those with first*d <= m
    are expanded, and each coordinate's powers are expanded once, for the
    exponents that occur among them, and shared by the monomials."""
    ctx = f.context
    if not ctx.is_rational and ctx.extension_degree != 1:
        raise ValueError("the jet oracle is restricted to prime fields and Q")
    field = _coefficients(ctx)
    add_mul, zero = field.add_mul, field.zero
    terms = {mono: c for mono, c in field.load(f.terms).items() if first * sum(mono) <= m}
    one: List[Packed] = [{} for _ in range(m + 1)]
    one[0] = {0: field.one}
    powers = []
    for i in range(3):
        arc = [{layout.variable(3 * j + i): field.one} if j >= first else {}
               for j in range(m + 1)]
        powers.append(_series_powers(arc, {mono[i] for mono in terms if mono[i]}, m, field))
    levels: List[Packed] = [{} for _ in range(m + 1)]
    for mono, coeff in terms.items():
        factors = [powers[i][e] for i, e in enumerate(mono) if e] or [one]
        term = factors[0]
        for factor in factors[1:]:
            term = _series_mul(term, factor, m, field)
        for level, part in zip(levels, term):
            for t, c in part.items():
                v = add_mul(level.get(t, zero), coeff, c)
                if v == zero:
                    level.pop(t, None)
                else:
                    level[t] = v
    return levels


def _jet_layout(f: TriPoly, nvars: int) -> _Layout:
    return _Layout(nvars, "grevlex", _width(max(f.total_degree(), 1)))


def build_jets(f: TriPoly, m: int) -> JetSystem:
    """Arc-equation generators of f through level m, over a prime field or Q.

    Variable layout: index 3*j + i is the level-j coordinate of variable i.
    """
    if m < 0:
        raise ValueError("level must be >= 0")
    nvars = 3 * (m + 1)
    layout = _jet_layout(f, nvars)
    levels = _arc_equations(f, m, 0, layout)
    ctx = f.context
    if ctx.is_rational and f.terms:
        # the arcs were expanded for an integer multiple of f
        mono, c = next(iter(f.terms.items()))
        scale = _coefficients(ctx).load(f.terms)[mono] / c
        levels = [{t: v / scale for t, v in level.items()} for level in levels]
    origin = [{layout.variable(i): ctx.ops.one} for i in range(3)]
    gens = [{layout.unpack(t): v for t, v in g.items()} for g in origin + levels]
    return JetSystem(m, nvars, ctx, gens)


def ideal_height(system: JetSystem,
                 budget: GroebnerBudget = GroebnerBudget()) -> int:
    """Height of (x^(0), y^(0), z^(0), f^(0), ..., f^(m))."""
    return ideal_height_of(system.context, system.generators, system.nvars, budget)


def s_m(f: TriPoly, m: int, budget: GroebnerBudget = GroebnerBudget()) -> int:
    """2(m+1) minus the dimension of the level-m jet scheme of V(f) over the
    origin (equivalently, the ideal height minus m+1)."""
    system = build_jets(f, m)
    return ideal_height(system, budget) - (m + 1)


@dataclass
class SmProfile:
    entries: List[Tuple[int, int, int]]  # (m, height, s_m)

    def contact_entries(self) -> List[Tuple[int, int]]:
        """(level, height - level) pairs of the contact-locus formula; the
        level-m entry uses the generators through f^(m-1), i.e. s_{m-1}."""
        return [(m + 1, sm) for (m, _h, sm) in self.entries]

    def to_json(self):
        return {
            "sm": [[m, h, sm] for (m, h, sm) in self.entries],
            "contact": [[lv, v] for lv, v in self.contact_entries()],
        }


@dataclass
class ProfileSummary:
    profile: SmProfile
    min_value: int
    expected_mld: Optional[int]
    matches_expected: Optional[bool]
    consistent_lower_bound: Optional[bool]

    def to_json(self):
        data = self.profile.to_json()
        data.update(
            {
                "min_value": self.min_value,
                "expected_mld": self.expected_mld,
                "matches_expected": self.matches_expected,
                "every_level_at_least_expected": self.consistent_lower_bound,
            }
        )
        return data


def mld_profile(
    f: TriPoly,
    m_max: int,
    expected_mld: Optional[int] = None,
    budget: GroebnerBudget = GroebnerBudget(),
) -> ProfileSummary:
    """Contact-formula table at levels 1..m_max.

    The infimum over all levels computes the mld, so a finite table only
    certifies an upper bound; when a known nonnegative mld is supplied the
    summary also checks that every level stays at or above it.

    The arc equations are expanded once, at the top level m_max - 1, and one
    Groebner basis (grevlex) is carried from level to level: level m adds
    f^(m) to the basis of level m - 1 and forms only the new pairs, since a
    generator of level m lives on the coordinates of levels <= m.  Because
    x^(0), y^(0), z^(0) are generators, f is expanded on arcs through the
    origin (level-0 coordinates zero), which generates the same ideal.  Each
    height is read from the leading monomials of the carried basis, which
    span the leading-term ideal with or without inter-reduction, so the
    basis is never reduced.  The budget bounds the carried basis, which is
    cumulative over the levels.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    layout = _jet_layout(f, 3 * m_max)
    levels = _arc_equations(f, m_max - 1, 1, layout)
    state = _Buchberger(layout, f.context, budget)
    origin = [{layout.variable(i): state.field.one} for i in range(3)]
    entries = []
    for m, fm in enumerate(levels):
        state.add(origin + [fm] if m == 0 else [fm])
        h = _height([state.layout.unpack(lm) for lm in state.leads], 3 * (m + 1))
        entries.append((m, h, h - (m + 1)))
    profile = SmProfile(entries)
    values = [v for _, v in profile.contact_entries()]
    min_value = min(values)
    matches = None
    consistent = None
    if expected_mld is not None:
        matches = min_value == expected_mld
        consistent = all(v >= expected_mld for v in values)
    return ProfileSummary(profile, min_value, expected_mld, matches, consistent)
