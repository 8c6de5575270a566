"""Factorization of binary forms in two of the three variables.

A form F in (u, v) of degree d factors over the algebraic closure as
unit * u^(d - deg p) * product (v - r u) over the roots r of p(t) = F(1, t).
Finite fields are enlarged through the Normalizer so the form always splits;
over the rationals a form that does not split rationally raises
NeedsAlgebraicExtension.
"""

from __future__ import annotations

from typing import List, Tuple

from ..fields import FieldElement
from ..poly import TriPoly
from ..unipoly import UniPoly
from .auto import Normalizer


LinearPair = Tuple[FieldElement, FieldElement]  # coefficients on (u, v)


def binary_form_coefficients(F: TriPoly, first: int, second: int, degree: int):
    ctx = F.context
    out = [ctx.zero()] * (degree + 1)
    for m, c in F.terms.items():
        if m[first] + m[second] != degree or sum(m) != degree:
            raise ValueError("not a binary form of the stated degree")
        out[m[second]] = FieldElement(ctx, c)
    return out


def factor_binary(nz: Normalizer, F: TriPoly, first: int, second: int,
                  degree: int) -> List[Tuple[LinearPair, int]]:
    """Split F (nonzero, supported on variables first/second, homogeneous of
    the given degree) into linear factors, enlarging the field if needed.

    Returns [((a, b), mult), ...] with each factor a*u + b*v: the factor u
    has (a, b) = (1, 0), the factor v - r*u for a root r has (-r, 1).  The
    list is sorted by multiplicity, highest first, and then by the
    `sort_key`s of (a, b).
    """
    if F.is_zero():
        raise ValueError("cannot factor the zero form")
    coeffs = binary_form_coefficients(F, first, second, degree)
    d = max(i for i, c in enumerate(coeffs) if not c.is_zero())
    p = UniPoly.make(nz.context, coeffs[: d + 1])
    inf_mult = degree - d  # multiplicity of the factor u
    roots = nz.all_roots(p) if d >= 1 else ()
    one, zero = nz.context.one(), nz.context.zero()
    factors = [((one, zero), inf_mult)] if inf_mult else []
    factors += [((-r, one), m) for r, m in roots]
    if sum(m for _, m in factors) != degree:
        raise AssertionError("binary form failed to split completely")
    return sorted(factors, key=lambda fm: (-fm[1], tuple(c.sort_key() for c in fm[0])))


def pair_image(L1: LinearPair, L2: LinearPair, L: LinearPair) -> LinearPair:
    """The coefficients (alpha, beta) that the form L has once pair_change
    sends L1 and L2 to the first and second variables: L = alpha*L1 + beta*L2."""
    a1, b1 = L1
    a2, b2 = L2
    a, b = L
    det = a1 * b2 - b1 * a2
    if det.is_zero():
        raise ValueError("factors are proportional")
    inv = det.inverse()
    return (a * b2 - b * a2) * inv, (b * a1 - a * b1) * inv


def pair_change(nz: Normalizer, L1: LinearPair, L2: LinearPair,
                first: int, second: int) -> None:
    """Apply the substitution on (first, second) with L1 -> first-variable and
    L2 -> second-variable exactly (M = inverse of the coefficient matrix)."""
    a1, b1 = L1
    a2, b2 = L2
    det = a1 * b2 - b1 * a2
    if det.is_zero():
        raise ValueError("factors are proportional")
    inv = det.inverse()
    nz.pair_linear(first, second, b2 * inv, -b1 * inv, -a2 * inv, a1 * inv)


def single_change(nz: Normalizer, L: LinearPair, first: int, second: int) -> None:
    """Map the single form L to the first variable, completing invertibly."""
    one, zero = nz.context.one(), nz.context.zero()
    pair_change(nz, L, (zero, one) if not L[0].is_zero() else (one, zero), first, second)
