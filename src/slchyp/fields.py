"""Exact coefficient fields: the rationals and finite fields F_{p^n}.

A FieldContext is an immutable description of the ambient field.  Finite
fields of extension degree n > 1 are represented as F_p[t]/(M) for a monic
irreducible modulus M.  A FieldElement holds its context and a payload: a
fractions.Fraction over Q (reduced, positive denominator), a plain int in
[0, p) over F_p, and the coefficient vector (int tuple, low degree first,
entries in [0, p)) of length n over F_{p^n}.

Each context carries one record of payload operations, `ctx.ops`
(`Payloads`), built once in its constructor: zero, one, add, sub, neg, mul,
inverse and from_int on raw payloads.  It is the one arithmetic path of
each field kind; the FieldElement operators are single calls into it, and
loops that would build one FieldElement per coefficient operation (TriPoly,
UniPoly, the jet oracle's Buchberger engine) run on payloads directly and
build elements only at their edges.  `payload_power` raises a payload to a
nonnegative power with the same record.

* Q: Fraction arithmetic.
* F_p: int arithmetic mod p; the inverse is pow(a, -1, p).
* F_{p^n}: addition is coefficientwise.  Multiplication packs both vectors
  into ints with equal-width bit slots (Kronecker substitution), so the
  convolution of the coefficient vectors is one int product.  The product's
  coefficients of t^n .. t^(2n-2) are then folded back with reduction rows
  t^(n+k) mod M, packed the same way and computed once per context, and
  every coefficient is reduced mod p once at the end.  The slot width is
  chosen from p and n so that no slot overflows into the next before that
  final reduction.  The inverse is the extended Euclidean algorithm
  against M on F_p[t] int lists, the only polynomial arithmetic here: the
  canonical modulus M comes from canonical_irreducible in unipoly.py.

There are no log/antilog (Zech) tables: they cost memory proportional to
the field size and would be a second multiplication path beside the packed
product, which fields of every size need anyway.

prime_field and extension_field return one shared context per (p, n), so
elements built through them share the identical context object and the
context checks in the arithmetic are identity tests; separately built equal
contexts still compare equal by value.

Nothing here mutates after construction, so contexts and elements can be
shared freely between threads.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union


class NeedsAlgebraicExtension(Exception):
    """A required root is unavailable in the current field.

    Over the rationals no algebraic extension is ever constructed; the
    offending univariate polynomial travels with the exception so callers
    can report which root was missing.
    """

    def __init__(self, message: str, polynomial: object = None) -> None:
        super().__init__(message)
        self.polynomial = polynomial


class CoefficientError(ValueError):
    """A literal coefficient does not define an element of the field."""


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the primes up to 41 as bases, exact below
    psi_13 = 3317044064679887385961981 (Sorenson and Webster, Math. Comp. 86,
    2017); a larger n raises ValueError."""
    if n >= 3317044064679887385961981:
        raise ValueError("primality is decided only below "
                         "3317044064679887385961981 (psi_13)")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


Vector = Tuple[int, ...]


def reduction_rows(p: int, modulus: Vector) -> List[List[int]]:
    """rows[k] = t^(n+k) mod M for k < n-1, as length-n lists over [0, p),
    where M = modulus is monic of degree n >= 2."""
    n = len(modulus) - 1
    # from t^n = -(m_0 + ... + m_{n-1} t^{n-1})
    rows = [[(-c) % p for c in modulus[:n]]]
    for _ in range(n - 2):
        prev = rows[-1]
        top = prev[-1]
        rows.append([(lo + top * c) % p for lo, c in zip([0] + prev[:-1], rows[0])])
    return rows


def _reduced_product(p: int, modulus: Vector) -> Callable[[Vector, Vector], Vector]:
    """Multiplication of coefficient vectors in F_p[t]/(M), M = modulus.

    Returns mul(a, b) -> a*b mod M for length-n vectors with entries in
    [0, p).  See the module docstring for the packing and the fold.
    """
    n = len(modulus) - 1
    rows = reduction_rows(p, modulus)
    # A product coefficient is at most n (p-1)^2; folding the n-1 high ones
    # through the rows adds at most (n-1)(p-1) times that to a low one.
    width = (n * (p - 1) ** 2 * (1 + (n - 1) * (p - 1))).bit_length()
    slot = (1 << width) - 1
    low = (1 << (width * n)) - 1
    high_shift = width * n
    shifts = [width * i for i in range(n)]
    folds = [(shifts[k], sum(c << s for c, s in zip(row, shifts)))
             for k, row in enumerate(rows)]

    def mul(a: Vector, b: Vector) -> Vector:
        x = 0
        for c in reversed(a):
            x = (x << width) | c
        y = 0
        for c in reversed(b):
            y = (y << width) | c
        prod = x * y
        high = prod >> high_shift
        acc = prod & low
        for s, row in folds:
            c = (high >> s) & slot
            if c:
                acc += c * row
        return tuple([((acc >> s) & slot) % p for s in shifts])

    return mul


def _vector_inverse(p: int, modulus: Vector) -> Callable[[Vector], Vector]:
    """Inversion of nonzero coefficient vectors in F_p[t]/(M), M = modulus."""
    n = len(modulus) - 1

    def inverse(a: Vector) -> Vector:
        # Extended Euclid against the modulus, one leading term at a time,
        # keeping s_i * a == r_i (mod M).  Every s_i has degree < n, so the
        # cofactor update never runs past index n; its coefficients are
        # reduced mod p only at the end.
        r0, r1 = list(modulus), list(a)
        while not r1[-1]:  # a is nonzero
            r1.pop()
        s0, s1 = [0] * n, [1] + [0] * (n - 1)
        while len(r1) > 1:
            inv_lead = pow(r1[-1], -1, p)
            d = len(r1)
            while len(r0) >= d:
                k = len(r0) - d
                c = r0[-1] * inv_lead % p
                for i in range(d):
                    r0[i + k] = (r0[i + k] - c * r1[i]) % p
                for i in range(n - k):
                    s0[i + k] -= c * s1[i]
                while r0 and not r0[-1]:
                    r0.pop()
            r0, r1, s0, s1 = r1, r0, s1, s0
        c = pow(r1[0], -1, p)
        return tuple([x * c % p for x in s1])

    return inverse


@dataclass(frozen=True)
class Payloads:
    """Arithmetic on the raw payloads of one field (see the module docstring);
    inverse takes a nonzero payload."""

    zero: object
    one: object
    add: Callable
    sub: Callable
    neg: Callable
    mul: Callable
    inverse: Callable
    from_int: Callable  # int -> payload


def _payloads(p: int, n: int, modulus: Optional[Vector]) -> Payloads:
    if p == 0:
        return Payloads(Fraction(0), Fraction(1), operator.add, operator.sub,
                        operator.neg, operator.mul, lambda a: 1 / a, Fraction)
    if n == 1:
        return Payloads(
            0, 1, lambda a, b: (a + b) % p, lambda a, b: (a - b) % p,
            lambda a: -a % p, lambda a, b: a * b % p, lambda a: pow(a, -1, p),
            lambda k: k % p)
    pad = (0,) * (n - 1)
    return Payloads(
        (0,) * n, (1,) + pad,
        lambda a, b: tuple([(x + y) % p for x, y in zip(a, b)]),
        lambda a, b: tuple([(x - y) % p for x, y in zip(a, b)]),
        lambda a: tuple([-x % p for x in a]),
        _reduced_product(p, modulus), _vector_inverse(p, modulus),
        lambda k: (k % p,) + pad)


def payload_power(ops: Payloads, a: Payload, e: int) -> Payload:
    """a^e for a payload a and an int e >= 0, by left-to-right repeated
    squaring: one square per bit of e after the first, and one product by a
    per further set bit (a^2 is one product, a^1 none)."""
    if not e:
        return ops.one
    mul, result = ops.mul, a
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, a)
    return result


def _check(ctx: "FieldContext", other: "FieldContext") -> None:
    if ctx is not other and ctx != other:
        raise ValueError("field context mismatch")


# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FieldContext:
    """Ambient field: Q (characteristic 0) or F_{p^n}.

    Equality is by value, tested by identity first; prime_field and
    extension_field hand out one shared context per field.
    """

    characteristic: int
    extension_degree: int = 1
    modulus: Optional[Tuple[int, ...]] = None  # monic, length n+1, over F_p

    def __post_init__(self):
        p, n = self.characteristic, self.extension_degree
        if p == 0:
            if n != 1 or self.modulus is not None:
                raise ValueError("rational context has degree 1 and no modulus")
        else:
            if not is_prime(p):
                raise ValueError(f"characteristic {p} is not prime")
            if n < 1:
                raise ValueError("extension degree must be >= 1")
            if n == 1:
                if self.modulus is not None:
                    raise ValueError("degree-1 context uses the identity convention")
            else:
                m = self.modulus
                if m is None or len(m) != n + 1 or m[-1] != 1:
                    raise ValueError("modulus must be monic of degree n")
                if any(not (0 <= c < p) for c in m):
                    raise ValueError("modulus coefficients must lie in [0, p)")
        ops = _payloads(p, n, self.modulus)
        object.__setattr__(self, "ops", ops)
        # payloads equal to those of 0 and 1, for the is_zero/is_one tests;
        # over Q the ints, because Fraction == int is the fast comparison
        zero, one = (ops.zero, ops.one) if p else (0, 1)
        object.__setattr__(self, "_zero_payload", zero)
        object.__setattr__(self, "_one_payload", one)
        object.__setattr__(self, "_zero", self.from_int(0))
        object.__setattr__(self, "_one", self.from_int(1))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.characteristic == other.characteristic
            and self.extension_degree == other.extension_degree
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.characteristic, self.extension_degree, self.modulus))

    def __reduce__(self):
        # pickle the defining fields only; the multiplier is a closure
        fields = (self.characteristic, self.extension_degree, self.modulus)
        return (FieldContext, fields)

    @property
    def is_rational(self) -> bool:
        return self.characteristic == 0

    def order(self) -> Optional[int]:
        """Field size, or None for the rationals."""
        if self.is_rational:
            return None
        return self.characteristic ** self.extension_degree

    # -- element constructors -------------------------------------------

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def from_int(self, k: int) -> "FieldElement":
        return FieldElement(self, self.ops.from_int(k))

    def from_fraction(self, num: int, den: int) -> "FieldElement":
        if den == 0:
            raise CoefficientError("zero denominator")
        if self.is_rational:
            return FieldElement(self, Fraction(num, den))
        p = self.characteristic
        if den % p == 0:
            raise CoefficientError(
                f"denominator {den} is divisible by the characteristic {p}"
            )
        return self.from_int(num) / self.from_int(den)

    def from_vector(self, vec) -> "FieldElement":
        if self.is_rational:
            raise ValueError("vector elements exist only in finite contexts")
        p, n = self.characteristic, self.extension_degree
        vec = tuple(c % p for c in vec)
        if len(vec) > n:
            if any(vec[n:]):
                raise ValueError("vector longer than extension degree")
            vec = vec[:n]
        vec = vec + (0,) * (n - len(vec))
        return FieldElement(self, vec if n > 1 else vec[0])

    def from_json(self, data) -> "FieldElement":
        """The element that FieldElement.to_json wrote as data."""
        if self.is_rational:
            num, slash, den = str(data).partition("/")
            return self.from_fraction(int(num), int(den)) if slash else self.from_int(int(num))
        return self.from_vector(tuple(data))

    def generator(self) -> "FieldElement":
        """The residue of t in F_p[t]/(M); only for extension degree > 1."""
        if self.is_rational or self.extension_degree == 1:
            raise ValueError("no generator in a prime or rational context")
        return self.from_vector((0, 1))

    def elements(self) -> Iterator["FieldElement"]:
        """All field elements in canonical (lexicographic vector) order."""
        if self.is_rational:
            raise ValueError("cannot enumerate the rationals")
        p, n = self.characteristic, self.extension_degree
        payloads = range(p) if n == 1 else itertools.product(range(p), repeat=n)
        return (FieldElement(self, c) for c in payloads)


Payload = Union[Fraction, int, Tuple[int, ...]]


class FieldElement:
    """A value of a FieldContext; its payload is a Fraction over Q, an int
    over F_p and a coefficient vector over F_{p^n}.  Equal by value; never
    mutated."""

    __slots__ = ("context", "payload")

    def __init__(self, context: FieldContext, payload: Payload) -> None:
        self.context = context
        self.payload = payload

    def __repr__(self) -> str:
        return f"FieldElement(context={self.context!r}, payload={self.payload!r})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.payload == other.payload and (
            self.context is other.context or self.context == other.context
        )

    def __hash__(self) -> int:
        return hash((self.context, self.payload))

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.payload == self.context._zero_payload

    def is_one(self) -> bool:
        return self.payload == self.context._one_payload

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "FieldElement") -> "FieldElement":
        ctx = self.context
        if other.context is not ctx:
            _check(ctx, other.context)
        return FieldElement(ctx, ctx.ops.add(self.payload, other.payload))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        ctx = self.context
        if other.context is not ctx:
            _check(ctx, other.context)
        return FieldElement(ctx, ctx.ops.sub(self.payload, other.payload))

    def __neg__(self) -> "FieldElement":
        ctx = self.context
        return FieldElement(ctx, ctx.ops.neg(self.payload))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        ctx = self.context
        if other.context is not ctx:
            _check(ctx, other.context)
        return FieldElement(ctx, ctx.ops.mul(self.payload, other.payload))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        ctx = self.context
        return FieldElement(ctx, ctx.ops.inverse(self.payload))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        ctx = self.context
        return FieldElement(ctx, payload_power(ctx.ops, self.payload, e))

    def pth_root(self) -> "FieldElement":
        """Unique p-th root in a finite field (inverse Frobenius)."""
        ctx = self.context
        if ctx.is_rational:
            raise ValueError("pth_root needs positive characteristic")
        q = ctx.order()
        return self ** (q // ctx.characteristic)

    # -- ordering / display ----------------------------------------------

    def sort_key(self):
        """Canonical total order: the residue for prime fields,
        coefficient-vector lexicographic order for extensions, and
        (|x|, nonnegative-first) for rationals."""
        if self.context.is_rational:
            return (abs(self.payload), 0 if self.payload >= 0 else 1)
        return self.payload

    def __str__(self) -> str:
        if self.context.extension_degree == 1:
            return str(self.payload)
        parts = []
        for i, c in enumerate(self.payload):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}u" if i == 1 else f"{head}u^{i}")
        return "+".join(parts) if parts else "0"

    def to_json(self):
        ctx = self.context
        if ctx.is_rational:
            return str(self.payload)
        return list(self.payload) if ctx.extension_degree > 1 else [self.payload]


RATIONALS = FieldContext(0)

# the shared context of each field, keyed by (characteristic, degree)
_CONTEXTS: Dict[Tuple[int, int], FieldContext] = {(0, 1): RATIONALS}


def prime_field(p: int) -> FieldContext:
    ctx = _CONTEXTS.get((p, 1))
    if ctx is None:
        ctx = _CONTEXTS.setdefault((p, 1), FieldContext(p))
    return ctx


# The largest extension degree extension_field builds, so that a claimed
# degree fails before any modulus search: the classifier has reached degree 9
# on its benchmark corpora, and the search takes ~0.06 s at (127, 32) but
# ~50 s at (127, 64).
MAX_EXTENSION_DEGREE = 32


def extension_field(p: int, degree: int) -> FieldContext:
    """F_{p^degree} with the canonical modulus (the prime field for degree 1).

    A degree below 1 or above MAX_EXTENSION_DEGREE raises ValueError before
    any modulus search."""
    if not 1 <= degree <= MAX_EXTENSION_DEGREE:
        raise ValueError(f"extension degree must be in 1..{MAX_EXTENSION_DEGREE}")
    if degree == 1:
        return prime_field(p)
    ctx = _CONTEXTS.get((p, degree))
    if ctx is None:
        from .unipoly import canonical_irreducible

        ctx = _CONTEXTS.setdefault(
            (p, degree), FieldContext(p, degree, canonical_irreducible(p, degree))
        )
    return ctx


@dataclass(frozen=True)
class FieldEmbedding:
    """Field homomorphism F_{p^n} -> F_{p^m} (n | m) fixing the prime field,
    determined by the image g of the source generator u.

    It is F_p-linear: the element with coefficient vector (c_0, ..., c_{n-1})
    goes to sum c_i g^i.  The images g^i of the basis 1, u, ..., u^(n-1)
    are computed once, when the embedding is built, and each is packed into
    one int with one slot per target coefficient, wide enough for a sum of n
    products of two residues mod p.  A call is then n int products and one
    % p per target slot."""

    source: FieldContext
    target: FieldContext
    generator_image: Optional[FieldElement]  # None when source has degree 1

    def __post_init__(self):
        src, tgt = self.source, self.target
        if src is tgt or src.is_rational or src.extension_degree == 1:
            return
        p, n, ops = tgt.characteristic, src.extension_degree, tgt.ops
        width = (n * (p - 1) ** 2).bit_length()
        shifts = tuple(width * j for j in range(tgt.extension_degree))
        basis, power = [], ops.one
        for _ in range(n):
            basis.append(sum(c << s for c, s in zip(power, shifts)))
            power = ops.mul(power, self.generator_image.payload)
        object.__setattr__(self, "_basis", tuple(basis))
        object.__setattr__(self, "_shifts", shifts)
        object.__setattr__(self, "_slot", (1 << width) - 1)

    def __call__(self, elt: FieldElement) -> FieldElement:
        if elt.context is not self.source and elt.context != self.source:
            raise ValueError("element does not belong to the embedding source")
        if self.source is self.target or self.source.is_rational:
            return elt
        if self.source.extension_degree == 1:
            return self.target.from_int(elt.payload)
        acc = 0
        for c, image in zip(elt.payload, self._basis):
            acc += c * image
        p, slot = self.target.characteristic, self._slot
        return FieldElement(self.target, tuple([((acc >> s) & slot) % p for s in self._shifts]))


def identity_embedding(ctx: FieldContext) -> FieldEmbedding:
    gen = None
    if not ctx.is_rational and ctx.extension_degree > 1:
        gen = ctx.generator()
    return FieldEmbedding(ctx, ctx, gen)
