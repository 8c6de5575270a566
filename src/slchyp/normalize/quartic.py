"""Normalization of double points whose cubic tail vanishes.

Here the initial forms at (1,1,1) and (3,2,2) are both x^2, so everything is
governed by the weight-(2,1,1) part of h = f - x^2.  Order >= 5 in that
weight is terminal immediately; order 4 splits into the characteristic-2 and
odd/zero characteristic case trees, each ending in one of a handful of
weighted-homogeneous normal forms.

The transformations can raise the (2,1,1)-order of h (for example x^2 + y^4
collapses to x^2 in characteristic 2); the driver re-checks the order after
every cleanup and falls back to the deep-tail terminal when that happens.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..poly import TriPoly, Weight
from ..unipoly import UniPoly
from .auto import (
    Normalizer,
    NormalizationOutcome,
    absorb_squares,
    complete_square,
    field_nth_root,
    run_stage,
    try_assignments,
)
from .binary import factor_binary, pair_change, pair_image, single_change
from .steps import W1, W2, _mono, _x2

W211 = Weight(2, 1, 1)


def _hpart(nz: Normalizer) -> TriPoly:
    return nz.f - _x2(nz.context)


def _check_pre(f: TriPoly) -> None:
    if f.in_w(W1) != _x2(f.context) or f.in_w(W2) != _x2(f.context):
        raise ValueError("initial forms at (1,1,1) and (3,2,2) must be x^2")


def _deep(nz: Normalizer) -> bool:
    h = _hpart(nz)
    return h.is_zero() or h.ord_w(W211) >= 5


def stage_quartic(nz: Normalizer) -> Tuple[str, Dict[str, object]]:
    _check_pre(nz.f)
    if _deep(nz):
        return "q:deep", {}
    if nz.context.characteristic == 2:
        return _quartic_char2(nz)
    return _quartic_odd(nz)


# ---------------------------------------------------------------------------
# characteristic 2


def _q2_coeffs(nz: Normalizer):
    f = nz.f
    return (
        f.coefficient((1, 1, 1)),  # a1 xyz
        f.coefficient((1, 2, 0)),  # a2 xy^2
        f.coefficient((1, 0, 2)),  # a3 xz^2
        f.coefficient((0, 4, 0)),  # y^4
        f.coefficient((0, 3, 1)),  # y^3 z
        f.coefficient((0, 2, 2)),  # y^2 z^2
        f.coefficient((0, 1, 3)),  # y z^3
        f.coefficient((0, 0, 4)),  # z^4
    )


def _quartic_char2(nz: Normalizer) -> Tuple[str, Dict[str, object]]:
    a1, a2, a3, *_ = _q2_coeffs(nz)
    # clear the x z^2 coefficient with a (y,z) change sending a projective
    # zero of the x-part quadratic a2 y^2 + a1 yz + a3 z^2 to the z direction
    if not a3.is_zero():
        if a2.is_zero():
            nz.direction_to_z(nz.context.one(), nz.context.zero())
        else:
            r = nz.root_of(UniPoly.make(nz.context, [a3, a1, a2]))
            nz.direction_to_z(r, nz.context.one())
    a1, a2, a3, a4, *_ = _q2_coeffs(nz)
    if not a3.is_zero():
        raise AssertionError("xz^2 survived")
    # clear y^4 with x -> x + g y^2, g^2 + a2 g + a4 = 0
    if not a4.is_zero():
        g = nz.root_of(UniPoly.make(nz.context, [a4, a2, nz.context.one()]))
        nz.shift(0, _mono(nz, (0, 2, 0), g))
    if _deep(nz):
        return "q:deep", {}
    a1, a2, a3, a4, *_ = _q2_coeffs(nz)
    if not (a3.is_zero() and a4.is_zero()):
        raise AssertionError("char-2 quartic cleanup failed")
    if not a1.is_zero():
        return "q:fpure", {}
    if not a2.is_zero():
        return _q2_elliptic(nz)
    return _q2_tail(nz)


def _q2_elliptic(nz: Normalizer) -> Tuple[str, Dict[str, object]]:
    a2 = nz.f.coefficient((1, 2, 0))
    # make sure the y^3 z coefficient is nonzero, then scale it and xy^2 to 1
    if nz.f.coefficient((0, 3, 1)).is_zero():
        nz.shift(0, _mono(nz, (0, 1, 1), a2.inverse()))
    nz.scale(1, a2.inverse().pth_root())  # sqrt(1/a2)
    nz.scale(2, nz.f.coefficient((0, 3, 1)).inverse())
    a1, a2, a3, a4, a5, a6, a7, a8 = _q2_coeffs(nz)
    if not (a2.is_one() and a5.is_one() and a1.is_zero() and a3.is_zero() and a4.is_zero()):
        raise AssertionError("char-2 elliptic form failed")
    return "q:elliptic2", {"y2z2": a6, "yz3": a7, "z4": a8}


def _q2_tail(nz: Normalizer) -> Tuple[str, Dict[str, object]]:
    # a1 = a2 = 0: kill y^2z^2 and z^4 with x -> x + sqrt(a6) yz + sqrt(a8) z^2
    absorb_squares(nz, [(0, 1, 1), (0, 0, 2)])
    if _deep(nz):
        return "q:deep", {}
    b3 = nz.f.coefficient((0, 3, 1))
    b4 = nz.f.coefficient((0, 1, 3))
    if b3.is_zero() and b4.is_zero():
        raise AssertionError("deep tail should have been caught")
    if b3.is_zero():
        nz.swap(1, 2)
        b3, b4 = nz.f.coefficient((0, 3, 1)), nz.f.coefficient((0, 1, 3))
    if not b4.is_zero():
        # yz(b3 y^2 + b4 z^2) = yz (sqrt(b3) y + sqrt(b4) z)^2: double the line
        nz.pair_linear(1, 2, nz.context.one(), b4.pth_root(), nz.context.zero(), b3.pth_root())
        absorb_squares(nz, [(0, 1, 1)])
    if _deep(nz):
        return "q:deep", {}
    e = nz.f.coefficient((0, 3, 1))
    hpart = _hpart(nz).in_w(W211)
    if hpart != _mono(nz, (0, 3, 1), e):
        raise AssertionError("char-2 y^3z form failed")
    return "q:y3z", {"e": e}


# ---------------------------------------------------------------------------
# characteristic != 2


def _quartic_odd(nz: Normalizer) -> Tuple[str, Dict[str, object]]:
    complete_square(nz, [(0, 1, 1), (0, 2, 0), (0, 0, 2)])
    if _deep(nz):
        return "q:deep", {}
    quartic = _hpart(nz).in_w(W211)
    factors = factor_binary(nz, quartic, 1, 2, 4)
    mults = [m for _, m in factors]
    if mults == [4]:
        single_change(nz, factors[0][0], 1, 2)
        c = nz.f.coefficient((0, 4, 0))
        nz.scale(1, nz.nth_root_of(c.inverse(), 4))
        _expect_tail(nz, [((0, 4, 0), 1)])
        return "q:y4", {}
    if mults == [3, 1]:
        pair_change(nz, factors[0][0], factors[1][0], 1, 2)
        c = nz.f.coefficient((0, 3, 1))
        nz.scale(2, c.inverse())
        _expect_tail(nz, [((0, 3, 1), 1)])
        return "q:y3z", {"e": nz.context.one()}
    if mults == [2, 2]:
        pair_change(nz, factors[0][0], factors[1][0], 1, 2)
        c = nz.f.coefficient((0, 2, 2))
        nz.scale(1, nz.nth_root_of(c.inverse(), 2))
        _expect_tail(nz, [((0, 2, 2), 1)])
        return "q:y2z2", {}
    # factor_binary's lines are y or z - r*y, so the quartic is their product
    # times its coefficient at the top power of z; an assignment of lines to
    # y and z is probed on the images of the other lines under pair_change,
    # and only the first whose 4-th root exists is applied to f
    top = max(m[2] for m in quartic.terms)
    unit = nz.lift(quartic.coefficient((0, 4 - top, top)))
    if mults == [2, 1, 1]:
        L1 = factors[0][0]
        simples = [factors[1][0], factors[2][0]]

        def probe_212(order):
            # L1 -> y and order[0] -> z make the quartic c y^2 z (alpha y + beta z)
            alpha, beta = pair_image(L1, order[0], order[1])
            cy, cz = unit * alpha, unit * beta  # on y^3 z and y^2 z^2
            if cy.is_zero() or cz.is_zero():
                raise AssertionError("third line is not in general position")
            # scale (y, z) -> (g y, (cy/cz) g z) and pick g killing the unit
            ratio = cy / cz
            return field_nth_root((cy * ratio).inverse(), 4), ratio

        def apply_212(order, found):
            root, ratio = found
            pair_change(nz, L1, order[0], 1, 2)
            g = nz.adopt(root)
            nz.scale(1, g)
            nz.scale(2, nz.lift(ratio) * g)
            _expect_tail(nz, [((0, 3, 1), 1), ((0, 2, 2), 1)])
            return "q:y2z-y+z", {}

        return try_assignments(
            [tuple(simples), tuple(reversed(simples))], probe_212, apply_212
        )
    # four distinct lines: send lines i and j to y and z; the quartic becomes
    # y z Q2(y, z), Q2 split by the images of the other two
    lines = [fac for fac, _ in factors]
    images = {}  # (i, j) -> (c*a3*a4, the ratios alpha/beta in sort_key order)

    def probe_4lines(assign):
        i, j, third = assign
        if (i, j) not in images:
            (a3, b3), (a4, b4) = (pair_image(lines[i], lines[j], L)
                                  for k, L in enumerate(lines) if k not in (i, j))
            if any(c.is_zero() for c in (a3, b3, a4, b4)):
                raise AssertionError("remaining lines are not in general position")
            # factor_binary(Q2) would give the lines (alpha/beta, 1) in
            # sort_key order
            images[i, j] = (unit * a3 * a4,
                            sorted((a3 / b3, a4 / b4), key=lambda r: r.sort_key()))
        lead, ratios = images[i, j]
        zeta = ratios[third]
        # y^3 z has coefficient c*a3*a4 and picks up g^3 * (zeta * g) under
        # y -> g y, z -> zeta g z
        return field_nth_root((lead * zeta).inverse(), 4), zeta

    def apply_4lines(assign, found):
        i, j, _ = assign
        root, zeta = found
        pair_change(nz, lines[i], lines[j], 1, 2)
        g = nz.adopt(root)
        nz.scale(1, g)
        nz.scale(2, nz.lift(zeta) * g)
        tail = _hpart(nz).in_w(W211)
        if not tail.coefficient((0, 3, 1)).is_one():
            raise AssertionError("four-line normalization failed")
        a = tail.coefficient((0, 1, 3))
        one = nz.context.one()
        expected = (
            _mono(nz, (0, 3, 1), one)
            + _mono(nz, (0, 2, 2), one + a)
            + _mono(nz, (0, 1, 3), a)
        )
        if tail != expected or a.is_zero() or a.is_one():
            raise AssertionError("four-line cross ratio failed")
        return "q:4lines", {"a": a}

    triples = [
        (i, j, t)
        for i in range(4)
        for j in range(4)
        if i != j
        for t in (0, 1)
    ]
    return try_assignments(triples, probe_4lines, apply_4lines)


def _expect_tail(nz: Normalizer, int_terms) -> None:
    tail = _hpart(nz).in_w(W211)
    expected = TriPoly.from_int_terms(nz.context, int_terms)
    if tail != expected:
        raise AssertionError(f"quartic tail normal form failed: {tail}")


def normalize_quartic_211(f: TriPoly) -> NormalizationOutcome:
    """Full quartic-branch normalization for f with x^2 initial forms at both
    (1,1,1) and (3,2,2)."""
    return run_stage(f, stage_quartic)
