"""Toric divisors E_w over Spec k[[x,y,z]] and their log discrepancies.

For a weight w the divisor E_w has k_E = w1+w2+w3 - 1 and ord_{E_w}(f) =
ord_w f, so the log discrepancy of the pair (A, (f)) at E_w is
(w1+w2+w3) - ord_w f.  A strictly positive weight puts the center of E_w at
the origin; any such divisor with negative discrepancy forces mld = -infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .poly import TriPoly, Weight


@dataclass(frozen=True)
class ToricDivisor:
    weight: Weight

    @property
    def k_e(self) -> int:
        return self.weight.total() - 1

    @property
    def center_dim(self) -> int:
        return sum(1 for c in self.weight if c == 0)

    @property
    def origin_centered(self) -> bool:
        return self.center_dim == 0


@dataclass(frozen=True)
class DiscrepancyReport:
    divisor: ToricDivisor
    ord: int
    a: int
    computes_mld: bool = False

    @property
    def weight(self) -> Weight:
        return self.divisor.weight

    def to_json(self):
        return {
            "weight": list(self.divisor.weight),
            "k_E": self.divisor.k_e,
            "ord": self.ord,
            "a": self.a,
            "computes_mld": self.computes_mld,
        }


def discrepancy(f: TriPoly, w: Sequence[int]) -> DiscrepancyReport:
    """Log discrepancy of (Spec k[[x,y,z]], (f)) at E_w; f must be nonzero."""
    if f.is_zero():
        raise ValueError("discrepancy of the zero ideal")
    w = Weight.of(w)
    o = f.ord_w(w)
    return DiscrepancyReport(ToricDivisor(w), o, w.total() - o)


def witness_search(f: TriPoly, max_entry: int) -> Optional[DiscrepancyReport]:
    """First weight in lexicographic order with entries in 1..max_entry
    whose divisor has negative log discrepancy against (f), or None.

    The entries start at 1, so the center of the witness is exactly the
    origin.
    """
    if f.is_zero():
        raise ValueError("witness search needs a nonzero polynomial")
    if max_entry < 1:
        raise ValueError("max_entry must be >= 1")
    for w in product(range(1, max_entry + 1), repeat=3):
        rep = discrepancy(f, w)
        if rep.a < 0:
            return rep
    return None
