"""Normal forms of nonzero quadratic forms in x, y, z.

Away from characteristic 2 the form is diagonalized by congruence and the
diagonal entries scaled to 1 where the needed square roots exist (always over
a finite field, via a silent extension; over Q an unscalable entry is kept,
the rank labels are unaffected).  The rank-1 case is normalized to exactly
x^2 using a unit rescale of the whole polynomial, so the continuation of the
case tree never needs a root here.

In characteristic 2 the target forms are x^2, x^2 + x*y and x^2 + y*z,
reached through the radical of the alternating part.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..fields import NeedsAlgebraicExtension
from ..poly import TriPoly
from ..unipoly import UniPoly
from .auto import (
    Normalizer,
    NormalizationOutcome,
    kernel,
    matrix_mapping_form_to_var,
    quadratic_coefficient,
    run_stage,
)
from .steps import W1


def normalize_quadric(q: TriPoly) -> NormalizationOutcome:
    """Bring a nonzero homogeneous quadratic to its normal form.

    Returns the outcome with branch label "quadric:rank{1,2,3}".
    """
    if q.is_zero() or not q.is_homogeneous(2):
        raise ValueError("input must be a nonzero homogeneous quadratic")
    return run_stage(q, stage_quadric)


def stage_quadric(nz: Normalizer) -> Tuple[str, Dict[str, object]]:
    """Normalize the quadratic initial form of nz.f, which has order 2.
    Every step is linear, so the initial form moves with f."""
    if nz.context.characteristic == 2:
        _normalize_char2(nz)
    else:
        _normalize_diagonal(nz)
    return f"quadric:rank{_rank_label(nz)}", {}


def _rank_label(nz: Normalizer) -> int:
    f = nz.f.in_w(W1)
    if f == TriPoly.monomial(nz.context, (2, 0, 0)):
        return 1
    p = nz.context.characteristic
    if p == 2:
        # x^2 + x*y has rank 2, x^2 + y*z rank 3 (rank of the bilinear part
        # plus the square part it does not absorb)
        if (1, 1, 0) in f.terms:
            return 2
        if (0, 1, 1) in f.terms:
            return 3
        return 1
    diag = [not quadratic_coefficient(f, i, i).is_zero() for i in range(3)]
    return sum(diag)


# -- characteristic != 2 ----------------------------------------------------


def _normalize_diagonal(nz: Normalizer) -> None:
    ctx = nz.context
    half = ctx.from_int(2).inverse()
    for i in range(3):
        # ensure a pivot at position i if anything survives in the tail block
        if quadratic_coefficient(nz.f, i, i).is_zero():
            j = next((j for j in range(i + 1, 3)
                      if not quadratic_coefficient(nz.f, j, j).is_zero()), None)
            if j is not None:
                nz.swap(i, j)
            else:
                pair = next(
                    (
                        (a, b)
                        for a in range(i, 3)
                        for b in range(a + 1, 3)
                        if not quadratic_coefficient(nz.f, a, b).is_zero()
                    ),
                    None,
                )
                if pair is None:
                    break
                a, b = pair
                # x_b -> x_b + x_a creates a square at position a
                nz.shift(b, TriPoly.variable(ctx, a))
                if a != i:
                    nz.swap(i, a)
        pivot = quadratic_coefficient(nz.f, i, i)
        if pivot.is_zero():
            break
        for j in range(3):
            if j == i:
                continue
            c = quadratic_coefficient(nz.f, i, j)
            if c.is_zero():
                continue
            s = -(c * half * pivot.inverse())
            nz.shift(i, TriPoly.variable(ctx, j).scale(s))
    # move nonzero diagonal entries to the front
    for i in range(3):
        if quadratic_coefficient(nz.f, i, i).is_zero():
            j = next((j for j in range(i + 1, 3)
                      if not quadratic_coefficient(nz.f, j, j).is_zero()), None)
            if j is not None:
                nz.swap(i, j)
    diag = [quadratic_coefficient(nz.f, i, i) for i in range(3)]
    rank = sum(1 for d in diag if not d.is_zero())
    if rank == 1:
        # exact: rescale the whole polynomial instead of extracting a root
        nz.rescale(diag[0].inverse())
        return
    for i in range(3):
        d = quadratic_coefficient(nz.f, i, i)
        if d.is_zero() or d.is_one():
            continue
        try:
            r = nz.nth_root_of(d.inverse(), 2)
        except NeedsAlgebraicExtension:
            continue  # rationals: keep the diagonal unit, rank still decides
        nz.scale(i, r)


# -- characteristic 2 --------------------------------------------------------


def _normalize_char2(nz: Normalizer) -> None:
    ctx = nz.context
    one, zero = ctx.one(), ctx.zero()
    bil = [quadratic_coefficient(nz.f, i, j) for i, j in ((0, 1), (0, 2), (1, 2))]
    if all(c.is_zero() for c in bil):
        # pure square: q = (sqrt(a) x + sqrt(b) y + sqrt(c) z)^2
        L = [quadratic_coefficient(nz.f, i, i).pth_root() for i in range(3)]
        nz.linear(matrix_mapping_form_to_var(L, 0, ctx))
        _expect(nz, [((2, 0, 0), 1)])
        return
    # radical of the alternating part: the kernel of its Gram matrix, which
    # is singular (alternating of odd size), is moved to [0:0:1]
    d, e, g = bil  # coefficients on xy, xz, yz
    nz.move_to_z(kernel([(zero, d, e), (d, zero, g), (e, g, zero)])[1])
    # now the bilinear part is c*xy and the square part is (rx+sy+tz)^2
    c = quadratic_coefficient(nz.f, 0, 1)
    if c.is_zero() or not all(quadratic_coefficient(nz.f, i, 2).is_zero() for i in (0, 1)):
        raise AssertionError("char-2 quadric radical is not at [0:0:1]")
    r, s, t = (quadratic_coefficient(nz.f, i, i).pth_root() for i in range(3))
    if not t.is_zero():
        ti = t.inverse()
        nz.linear((
            (one, zero, zero),
            (zero, one, zero),
            (r * ti, s * ti, ti),
        ))
        # q = c*xy + z^2: swap to put the square on x, then unit-scale
        nz.swap(0, 2)
        c = quadratic_coefficient(nz.f, 1, 2)
        nz.scale(1, c.inverse())
        _expect(nz, [((2, 0, 0), 1), ((0, 1, 1), 1)])
        return
    if r.is_zero() and s.is_zero():
        nz.scale(0, c.inverse())
        # q = xy; y -> x + y turns it into x^2 + x*y
        nz.pair_linear(0, 1, one, zero, one, one)
        _expect(nz, [((2, 0, 0), 1), ((1, 1, 0), 1)])
        return
    if r.is_zero():
        nz.swap(0, 1)
        r, s = s, r
        c = quadratic_coefficient(nz.f, 0, 1)
    # q = c*xy + (rx+sy)^2 with r != 0: send rx+sy -> x
    ri = r.inverse()
    nz.pair_linear(0, 1, ri, s * ri, zero, one)
    # q = x^2 + (c/r) xy + (cs/r) y^2; scale y to make the xy coefficient 1
    nz.scale(1, quadratic_coefficient(nz.f, 0, 1).inverse())
    v2 = quadratic_coefficient(nz.f, 1, 1)
    if not v2.is_zero():
        # kill the y^2 term with x -> x + w y, w^2 + w + v2 = 0
        w = nz.root_of(UniPoly.make(nz.context, [v2, nz.context.one(), nz.context.one()]))
        nz.shift(0, TriPoly.variable(nz.context, 1).scale(w))
    _expect(nz, [((2, 0, 0), 1), ((1, 1, 0), 1)])


def _expect(nz: Normalizer, int_terms) -> None:
    q = nz.f.in_w(W1)
    if q != TriPoly.from_int_terms(nz.context, int_terms):
        raise AssertionError(f"char-2 quadric normal form failed: {q}")
