"""The weighted normalization chain for double points.

Each stage assumes the earlier initial forms are already in normal position
(x^2, then x^2 + y^3), inspects the initial form at its own weight, applies
the graded coordinate changes that bring it to normal form, and reports
either a terminal label or a pass to the next stage.  Every stage recomputes
coefficients from the actual polynomial and asserts that the earlier initial
forms survived, so algebra slips fail loudly.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..fields import FieldElement
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
from .binary import factor_binary, pair_change, single_change

W1 = Weight(1, 1, 1)
W2 = Weight(3, 2, 2)
W3 = Weight(6, 4, 3)
W4 = Weight(9, 6, 4)
W5 = Weight(15, 10, 6)
W6 = Weight(3, 2, 1)
W7 = Weight(21, 14, 6)

CHAIN_WEIGHTS = [W2, W3, W4, W5, W6]


def _x2(ctx) -> TriPoly:
    return TriPoly.monomial(ctx, (2, 0, 0))


def _x2y3(ctx) -> TriPoly:
    return TriPoly.from_int_terms(ctx, [((2, 0, 0), 1), ((0, 3, 0), 1)])


def assert_chain(nz: Normalizer, upto: int) -> None:
    """Initial forms at the earlier chain weights are unchanged: x^2 at
    (1,1,1) and x^2+y^3 at w_2..w_upto."""
    ctx = nz.context
    if nz.f.in_w(W1) != _x2(ctx):
        raise AssertionError("chain invariant broken at weight (1,1,1)")
    for w in CHAIN_WEIGHTS[: upto - 1]:
        if nz.f.in_w(w) != _x2y3(ctx):
            raise AssertionError(f"chain invariant broken at weight {w}")


def _mono(nz: Normalizer, m, c: Optional[FieldElement] = None) -> TriPoly:
    return TriPoly.monomial(nz.context, m, c)


# ---------------------------------------------------------------------------
# stage 2: cubic tail at weight (3,2,2)


def stage_w2(nz: Normalizer) -> Tuple[str, Dict[str, object]]:
    C = nz.f.in_w(W2) - _x2(nz.context)
    if C.is_zero():
        return "w2:quartic", {}
    factors = factor_binary(nz, C, 1, 2, 3)
    mults = [m for _, m in factors]
    if mults == [3]:
        single_change(nz, factors[0][0], 1, 2)
        c = nz.f.in_w(W2).coefficient((0, 3, 0))
        nz.scale(1, nz.nth_root_of(c.inverse(), 3))
        if nz.f.in_w(W2) != _x2y3(nz.context):
            raise AssertionError("triple-line normalization failed")
        return "w2:y3", {}
    # a double and a simple line, or three distinct lines: y^2 z (+ a y z^2)
    pair_change(nz, factors[0][0], factors[1][0], 1, 2)
    nz.scale(2, nz.f.in_w(W2).coefficient((0, 2, 1)).inverse())
    inf = nz.f.in_w(W2)
    a = inf.coefficient((0, 1, 2))
    expected = _x2(nz.context) + _mono(nz, (0, 2, 1)) + _mono(nz, (0, 1, 2), a)
    if inf != expected or a.is_zero() != (mults == [2, 1]):
        raise AssertionError("cubic-tail line normalization failed")
    return ("w2:y2z", {}) if a.is_zero() else ("w2:yz-distinct", {"a": a})


# ---------------------------------------------------------------------------
# stages 3-5: tails at (6,4,3), (9,6,4), (15,10,6)


def stage_w3(nz: Normalizer) -> Tuple[str, Dict[str, object]]:
    assert_chain(nz, 2)
    a1 = nz.f.coefficient((1, 0, 2))
    a2 = nz.f.coefficient((0, 0, 4))
    ctx = nz.context
    if not (a1.is_zero() and a2.is_zero()):
        b = nz.root_of(UniPoly.make(ctx, [a2, a1, ctx.one()]))
        nz.shift(0, _mono(nz, (0, 0, 2), b))
    if not nz.f.coefficient((0, 0, 4)).is_zero():
        raise AssertionError("z^4 survived the square completion")
    return _rdp_tail(nz, 3, (1, 0, 2), "w3:rdp-xz2")


def stage_w4(nz: Normalizer) -> Tuple[str, Dict[str, object]]:
    assert_chain(nz, 3)
    return _rdp_tail(nz, 4, (0, 1, 3), "w4:rdp-yz3")


def stage_w5(nz: Normalizer) -> Tuple[str, Dict[str, object]]:
    assert_chain(nz, 4)
    return _rdp_tail(nz, 5, (0, 0, 5), "w5:rdp-z5")


def _rdp_tail(nz: Normalizer, k: int, mono, label: str) -> Tuple[str, Dict[str, object]]:
    """Stage k with the tail monomial `mono` (z^e times x or y or 1): scale z
    so its coefficient is one and return `label`, or pass when it is zero."""
    c = nz.f.coefficient(mono)
    if c.is_zero():
        assert_chain(nz, k)
        return f"w{k}:pass", {}
    nz.scale(2, nz.nth_root_of(c.inverse(), mono[2]))
    if nz.f.in_w(CHAIN_WEIGHTS[k - 2]) != _x2y3(nz.context) + _mono(nz, mono):
        raise AssertionError(f"stage-{k} normal form failed")
    assert_chain(nz, k - 1)
    return label, {}


# ---------------------------------------------------------------------------
# stage 6: weight (3,2,1)


def _w6_coeffs(nz: Normalizer):
    f = nz.f
    return (
        f.coefficient((1, 1, 1)),  # xyz
        f.coefficient((1, 0, 3)),  # xz^3
        f.coefficient((0, 0, 6)),  # z^6
        f.coefficient((0, 1, 4)),  # yz^4
        f.coefficient((0, 2, 2)),  # y^2 z^2
    )


def stage_w6(nz: Normalizer) -> Tuple[str, Dict[str, object]]:
    assert_chain(nz, 5)
    if nz.context.characteristic == 2:
        return _stage_w6_char2(nz)
    return _stage_w6_odd(nz)


def _stage_w6_char2(nz: Normalizer) -> Tuple[str, Dict[str, object]]:
    a1, a2, _, a4, _ = _w6_coeffs(nz)
    if not a1.is_zero():
        return "w6:fpure", {}
    if not a4.is_zero():
        nz.shift(1, _mono(nz, (0, 0, 2), a4.pth_root()))
    if not a2.is_zero():
        a3 = nz.f.coefficient((0, 0, 6))
        c = nz.root_of(UniPoly.make(nz.context, [a3, a2, nz.context.one()]))
        nz.shift(0, _mono(nz, (0, 0, 3), c))
        b1, b2, b3, b4, d = _w6_coeffs(nz)
        if not (b1.is_zero() and b3.is_zero() and b4.is_zero()):
            raise AssertionError("char-2 elliptic normalization failed")
        assert_chain(nz, 5)
        return "w6:elliptic", {"xz3": b2, "y2z2": d}
    # a1 = a2 = 0: clean everything
    absorb_squares(nz, [(0, 0, 3), (0, 1, 1)])
    if nz.f.in_w(W6) != _x2y3(nz.context):
        raise AssertionError("char-2 stage-6 cleanup failed")
    assert_chain(nz, 5)
    return "w6:pass", {}


def _stage_w6_odd(nz: Normalizer) -> Tuple[str, Dict[str, object]]:
    ctx = nz.context
    complete_square(nz, [(0, 1, 1), (0, 0, 3)])
    _, _, a3, a4, a5 = _w6_coeffs(nz)
    if not (a3.is_zero() and a4.is_zero() and a5.is_zero()):
        cubic = UniPoly.make(ctx, [a3, a4, a5, ctx.one()])
        c = nz.root_of(cubic)
        nz.shift(1, _mono(nz, (0, 0, 2), c))
    _, _, z6, d, e = _w6_coeffs(nz)
    if not z6.is_zero():
        raise AssertionError("z^6 survived the cubic shift")
    if d.is_zero() and e.is_zero():
        assert_chain(nz, 6)
        return "w6:pass", {}
    # y^3 + e y^2 z^2 + d y z^4 = y (y - alpha z^2)(y - beta z^2)
    quad = UniPoly.make(nz.context, [d, e, nz.context.one()])
    roots = nz.all_roots(quad)
    flat = []
    for r, m in roots:
        flat.extend([r] * m)
    candidates = [r for r in flat if not r.is_zero()]
    if len(candidates) == 2 and candidates[0] == candidates[1]:
        candidates = candidates[:1]

    def probe(alpha):
        return field_nth_root(alpha.inverse(), 2)

    def apply(alpha, found):
        nz.scale(2, nz.adopt(found))
        delta = nz.f.coefficient((0, 1, 4))
        one = nz.context.one()
        expected = (
            _x2y3(nz.context)
            + _mono(nz, (0, 2, 2), -(one + delta))
            + _mono(nz, (0, 1, 4), delta)
        )
        if nz.f.in_w(W6) != expected:
            raise AssertionError("stage-6 depressed form failed")
        assert_chain(nz, 5)
        label = (
            "w6:delta-special"
            if delta.is_zero() or delta.is_one()
            else "w6:delta-generic"
        )
        return label, {"delta": delta}

    return try_assignments(candidates, probe, apply)


# ---------------------------------------------------------------------------
# public single-stage entry points


def normalize_w2_cubic(f: TriPoly) -> NormalizationOutcome:
    """Normalize the weight-(3,2,2) cubic tail of f (which must have initial
    form x^2 at (1,1,1))."""
    if f.in_w(W1) != _x2(f.context):
        raise ValueError("initial form at (1,1,1) must be x^2")
    return run_stage(f, stage_w2)


def normalize_w3(f: TriPoly) -> NormalizationOutcome:
    return run_stage(f, stage_w3)


def normalize_w4(f: TriPoly) -> NormalizationOutcome:
    return run_stage(f, stage_w4)


def normalize_w5(f: TriPoly) -> NormalizationOutcome:
    return run_stage(f, stage_w5)


def normalize_w6(f: TriPoly) -> NormalizationOutcome:
    return run_stage(f, stage_w6)
