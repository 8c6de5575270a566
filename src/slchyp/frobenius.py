"""Frobenius splitting certificate for principal ideals in characteristic p.

A hypersurface pair (Spec K[[x,y,z]], (f)) is F-pure at the origin exactly
when f^(p-1) lies outside m^[p] = (x^p, y^p, z^p) (Fedder, Trans. AMS 278,
1983).  Membership in that monomial ideal is a per-monomial exponent check,
so the certificate is an explicit monomial of f^(p-1) with all exponents at
most p-1.  F-purity implies log canonicity; the reverse direction is never
used.

The forced witness.  Call f quasi-homogeneous when some weight w > 0 on the
set S of variables that occur in f gives every monomial of f the weighted
degree w.1_S.  Every monomial of f^(p-1) then has weighted degree
(p-1) w.1_S, and the only one with every exponent at most p-1 is
T = (p-1).1_S.  So f is F-pure exactly when the one coefficient [T] f^(p-1)
is nonzero, and T is the witness (it is also the lexicographically least
hit).  Every form the classifier tests is of this kind: the fixed models,
the (3,2,1)-initial forms of degree 6 and the (2,1,1)-initial forms of
degree 4.  For odd p the coefficient is read without expanding f^(p-1):

1. When the exponent vectors of f are linearly independent, T = sum k_j m_j
   has at most one solution k, and sum k_j = p-1 follows from the weight.
   Its multinomial coefficient (p-1)!/prod k_j! is a unit mod p, since each
   k_j <= p-1, so f is F-pure iff k exists in nonnegative integers: O(1),
   with no field arithmetic.
2. Otherwise, for a variable v with v^2 in f, f = a v^2 + v l + h with l, h
   free of v.  Completing the square, v -> v - l/(2a), is an automorphism
   that preserves m^[p], so it changes neither the verdict nor T, and then
   [T] f^(p-1) = C(p-1, n) a^n [T'] g^n with n = (p-1)/2, g = h - l^2/(4a)
   and T' the rest of T.  g is a form in at most two variables, so this is
   a coefficient of a power of a univariate polynomial (for the elliptic
   forms, the Hasse invariant), computed by J.C.P. Miller's power
   recurrence (Knuth, TAOCP 2, 4.7) in O(p deg g) field operations.

Every other f, quasi-homogeneous or not, is expanded: f^(p-1) modulo m^[p]
by repeated products, each dropping the monomials with an exponent >= p,
which keeps exactly the monomials of the full expansion that can witness.
For p = 2 that expansion is f itself, read with no product.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .fields import Payload, Payloads, payload_power
from .poly import Monomial, TriPoly


class CharZero(ValueError):
    """The F-purity criterion is undefined in characteristic zero."""


@dataclass(frozen=True)
class FPurityCertificate:
    is_fpure: bool
    p: int
    witness_monomial: Optional[Monomial] = None

    def to_json(self):
        return {
            "is_fpure": self.is_fpure,
            "p": self.p,
            "witness_monomial": list(self.witness_monomial)
            if self.witness_monomial is not None
            else None,
        }


def monomial_outside_pth_powers(g: TriPoly, p: int) -> Optional[Monomial]:
    """Lexicographically least monomial of g with all exponents <= p-1, i.e.
    a witness that g lies outside (x^p, y^p, z^p); None if g is inside."""
    hits = [m for m in g.terms if all(e <= p - 1 for e in m)]
    return min(hits) if hits else None


def fedder_is_fpure(f: TriPoly) -> FPurityCertificate:
    """F-purity of (A, (f)) at the origin via the f^(p-1) membership test.

    Requires positive characteristic and a nonzero f in the maximal ideal.
    A quasi-homogeneous f is decided by its forced witness (module
    docstring) whenever one of the closed routes applies.
    """
    p = f.context.characteristic
    if p == 0:
        raise CharZero("F-purity is a positive-characteristic notion")
    if f.is_zero():
        raise ValueError("Fedder's test needs a nonzero f")
    if (0, 0, 0) in f.terms:
        raise ValueError("f must vanish at the origin")
    unit = tuple(1 if e else 0 for e in map(max, zip(*f.terms)))  # 1_S
    if p > 2 and _is_quasi_homogeneous(f, unit):
        verdict = _single_index_verdict(list(f.terms), unit, p)
        if verdict is None:
            verdict = _completed_square_verdict(f, unit, p)
        if verdict is not None:
            forced = tuple((p - 1) * u for u in unit)
            return FPurityCertificate(verdict, p, forced if verdict else None)
    witness = monomial_outside_pth_powers(_reduced_power(f, p), p)
    return FPurityCertificate(witness is not None, p, witness)


def _is_quasi_homogeneous(f: TriPoly, unit: Monomial) -> bool:
    """Whether some w > 0 on the support S has w.(m - 1_S) = 0 for every
    monomial m of f: the kernel of at most three unknowns meets the open
    positive orthant."""
    support = [i for i in range(3) if unit[i]]
    rows = [r for r in ([m[i] - 1 for i in support] for m in f.terms) if any(r)]
    if not rows:
        return True
    r = rows[0]
    if len(r) == 1:
        return False
    if len(r) == 2:
        line = [-r[1], r[0]]
    else:
        line = next((c for c in (_cross(r, q) for q in rows) if any(c)), None)
        if line is None:  # every row is a multiple of r: the plane r.w = 0
            return min(r) < 0 < max(r)
    return (all(_dot(q, line) == 0 for q in rows)
            and (min(line) > 0 or max(line) < 0))


def _single_index_verdict(monomials: List[Monomial], unit: Monomial, p: int) -> Optional[bool]:
    """Route 1 for a quasi-homogeneous f: solve sum_j k_j m_j = 1_S over Q
    when the monomials are independent (by cross products and Cramer's
    rule), and test whether (p-1) k is a nonnegative integer vector.  None
    when the monomials are dependent."""
    if len(monomials) == 1:
        return True  # a quasi-homogeneous monomial is 1_S itself
    if len(monomials) == 2:
        a, b = monomials
        normal = _cross(a, b)
        den = _dot(normal, normal)
        if not den:
            return None
        if _dot(unit, normal):
            return False  # 1_S is not in the span
        nums = (_dot(_cross(unit, b), normal), _dot(_cross(a, unit), normal))
    elif len(monomials) == 3:
        a, b, c = monomials
        den = _dot(a, _cross(b, c))
        if not den:
            return None
        nums = (_dot(unit, _cross(b, c)), _dot(a, _cross(unit, c)), _dot(a, _cross(b, unit)))
    else:
        return None
    return all(k * den >= 0 and (p - 1) * k % den == 0 for k in nums)


def _completed_square_verdict(f: TriPoly, unit: Monomial, p: int) -> Optional[bool]:
    """Route 2, for odd p: complete the square in a variable v with v^2 in f
    and read [T'] g^((p-1)/2) through a univariate g.  The monomials of l
    and h, hence of g and its powers, lie on one weighted degree, so each is
    determined by its exponent of the first other variable of the support."""
    squares = [tuple(2 * (j == i) for j in range(3)) for i in range(3)]
    v = next((i for i in range(3) if squares[i] in f.terms), None)
    if v is None:
        return None
    s = next(i for i in range(3) if unit[i] and i != v)
    ops = f.context.ops
    ell: Dict[int, Payload] = {}
    g: Dict[int, Payload] = {}
    for m, c in f.terms.items():
        if m[v] == 1:
            ell[m[s]] = c
        elif m[v] == 0:
            g[m[s]] = c
    # g = h - l^2/(4a)
    scale = ops.neg(ops.inverse(ops.mul(ops.from_int(4), f.terms[squares[v]])))
    for i, ci in ell.items():
        for j, cj in ell.items():
            g[i + j] = ops.add(g.get(i + j, ops.zero), ops.mul(ops.mul(ci, cj), scale))
    return _power_coefficient(ops, g, (p - 1) // 2, p - 1, p) != ops.zero


def _power_coefficient(ops: Payloads, g: Dict[int, Payload], e: int, k: int,
                       p: int) -> Payload:
    """[s^k] g(s)^e for g given as {exponent: payload}, e >= 1 and k < p.

    With g = s^r (a_0 + a_1 s + ... + a_d s^d), a_0 != 0, the coefficients
    P_j of the second factor's e-th power obey J.C.P. Miller's recurrence
    j a_0 P_j = sum_{i=1..min(d,j)} ((e+1) i - j) a_i P_{j-i}, from
    P' a = e a' P; every j <= k < p is a unit mod p.  Only the last d
    values are kept, so memory does not grow with p."""
    zero = ops.zero
    g = {i: c for i, c in g.items() if c != zero}
    if not g:
        return zero
    r = min(g)
    k -= r * e
    a = [g.get(r + i, zero) for i in range(max(g) - r + 1)]
    d = len(a) - 1
    if not 0 <= k <= d * e:
        return zero
    mul, add, from_int = ops.mul, ops.add, ops.from_int
    inv_a0 = ops.inverse(a[0])
    terms = [(i, a[i]) for i in range(1, d + 1) if a[i] != zero]
    window = [payload_power(ops, a[0], e)]  # P_max(0,j-d) .. P_(j-1)
    for j in range(1, k + 1):
        acc = zero
        for i, ai in terms:
            if i > j:
                break
            acc = add(acc, mul(from_int((e + 1) * i - j), mul(ai, window[-i])))
        window.append(mul(acc, mul(inv_a0, from_int(pow(j, -1, p)))))
        if len(window) > d:
            del window[0]
    return window[-1]


def _reduced_power(f: TriPoly, p: int) -> TriPoly:
    """f^(p-1) modulo m^[p]: repeated products by f, each dropping the
    monomials with an exponent >= p (m^[p] is a monomial ideal, so they
    never come back)."""
    power = f
    for _ in range(p - 2):
        power = TriPoly(f.context, {m: c for m, c in (power * f).terms.items()
                                    if max(m) < p})
    return power


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


def _cross(a: Sequence[int], b: Sequence[int]) -> List[int]:
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
