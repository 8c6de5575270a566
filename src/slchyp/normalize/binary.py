"""Factorization of binary forms in two of the three variables.

A form F in (u, v) of degree d factors over the algebraic closure as
unit * u^(d - deg p) * product (v - r u) over the roots r of p(t) = F(1, t).
Finite fields are enlarged through the Normalizer so the form always splits;
over the rationals a form that does not split rationally raises
NeedsAlgebraicExtension (strict mode).
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
                  degree: int) -> Tuple[FieldElement, List[Tuple[LinearPair, int]]]:
    """Split F (nonzero, supported on variables first/second, homogeneous of
    the given degree) into linear factors, enlarging the field if needed.

    Returns (unit, [((a, b), mult), ...]) with each factor a*u + b*v, sorted
    canonically (the factor u first, then by root order).
    """
    if F.is_zero():
        raise ValueError("cannot factor the zero form")
    mark = nz.mark()
    coeffs = binary_form_coefficients(F, first, second, degree)
    d = max(i for i, c in enumerate(coeffs) if not c.is_zero())
    p = UniPoly.make(nz.context, coeffs[: d + 1])
    inf_mult = degree - d  # multiplicity of the factor u
    roots = nz.all_roots(p) if d >= 1 else ()
    ctx = nz.context
    unit = nz.embed_elt(coeffs[d], mark)
    factors: List[Tuple[LinearPair, int]] = []
    one = ctx.one()
    if inf_mult:
        factors.append(((one, ctx.zero()), inf_mult))
    for r, m in roots:
        factors.append(((-r, one), m))  # v - r*u   <->  coefficients (-r, 1)
    total = sum(m for _, m in factors)
    if total != degree:
        raise AssertionError("binary form failed to split completely")
    return unit, factors


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
    m11, m12 = b2 * inv, -b1 * inv
    m21, m22 = -a2 * inv, a1 * inv
    _apply_pair_matrix(nz, first, second, m11, m12, m21, m22)


def single_change(nz: Normalizer, L: LinearPair, first: int, second: int) -> None:
    """Map the single form L to the first variable, completing invertibly."""
    a, b = L
    ctx = nz.context
    one, zero = ctx.one(), ctx.zero()
    if not a.is_zero():
        comp = (zero, one)
    else:
        comp = (one, zero)
    pair_change(nz, L, comp, first, second)


def _apply_pair_matrix(nz: Normalizer, first: int, second: int,
                       m11, m12, m21, m22) -> None:
    ctx = nz.context
    one, zero = ctx.one(), ctx.zero()
    rows = [
        [one if i == j else zero for j in range(3)] for i in range(3)
    ]
    rows[first][first] = m11
    rows[first][second] = m12
    rows[second][first] = m21
    rows[second][second] = m22
    nz.linear(tuple(tuple(r) for r in rows))
