"""Frobenius splitting certificate for principal ideals in characteristic p.

A hypersurface pair (Spec K[[x,y,z]], (f)) is F-pure at the origin exactly
when f^(p-1) lies outside (x^p, y^p, z^p).  Membership in that monomial
ideal is a per-monomial exponent check, so the certificate is an explicit
monomial of f^(p-1) with all exponents at most p-1.  F-purity implies log
canonicity; the reverse direction is never used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    """
    p = f.context.characteristic
    if p == 0:
        raise CharZero("F-purity is a positive-characteristic notion")
    if f.is_zero():
        raise ValueError("Fedder's test needs a nonzero f")
    if not f.coefficient((0, 0, 0)).is_zero():
        raise ValueError("f must vanish at the origin")
    power = f ** (p - 1)
    witness = monomial_outside_pth_powers(power, p)
    return FPurityCertificate(witness is not None, p, witness)
