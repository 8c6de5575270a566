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
not the basis is inter-reduced.  `build_jets` and `ideal_height` keep the
per-level computation on full arcs as the reference.

The Buchberger engine is generic over the exact coefficient fields and also
serves the cubic-cone classifier (lex order for elimination).  Each basis
element's leading monomial is computed once, when it joins the basis;
pending pairs sit in a heap keyed by the order key of their lcm (the normal
selection strategy), and pairs with coprime leading monomials are never
queued.  A reduction pops the remainder's leading monomial from a heap of
reversed order keys and subtracts the divisor's multiple term by term.  The
reduced basis is unique, so none of this changes a result.  The engine never
truncates: if a basis exceeds the configured budget (for `mld_profile`, the
basis carried through all levels so far) the computation aborts with
OracleOverflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import add, le, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import FieldContext, FieldElement
from .poly import TriPoly, np_add, np_scale

NMonomial = Tuple[int, ...]
NPoly = Dict[NMonomial, FieldElement]


class OracleOverflow(RuntimeError):
    """The Groebner basis exceeded the configured size budget."""


@dataclass(frozen=True)
class GroebnerBudget:
    """Largest basis, reduced or not, that a computation may hold; in
    `mld_profile` it bounds the basis carried through every level so far."""

    max_basis: int = 20000


# ---------------------------------------------------------------------------
# sparse n-variable polynomials as dicts


def np_mul_term(a: NPoly, m: NMonomial, c: FieldElement) -> NPoly:
    return {tuple(x + y for x, y in zip(mm, m)): v * c for mm, v in a.items()}


def np_mul(a: NPoly, b: NPoly) -> NPoly:
    out: NPoly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            c = c1 * c2
            if m in out:
                c = out[m] + c
            if c.is_zero():
                out.pop(m, None)
            else:
                out[m] = c
    return out


def grevlex_key(m: NMonomial):
    return (sum(m), tuple(-e for e in reversed(m)))


def lex_key(m: NMonomial):
    return m


ORDERS = {"grevlex": grevlex_key, "lex": lex_key}

# heapq pops the smallest entry, so the reduction heap holds keys that
# reverse each order: the popped monomial is the remainder's leading one.
_DESCENDING = {
    grevlex_key: lambda m: (-sum(m), m[::-1]),
    lex_key: lambda m: tuple(-e for e in m),
}


def leading(a: NPoly, key) -> Tuple[NMonomial, FieldElement]:
    m = max(a, key=key)
    return m, a[m]


def _divides(m: NMonomial, n: NMonomial) -> bool:
    return all(x <= y for x, y in zip(m, n))


def np_reduce(
    p: NPoly,
    basis: List[NPoly],
    key,
    leads: Optional[List[Tuple[NMonomial, FieldElement]]] = None,
) -> NPoly:
    """Full normal form of p modulo the basis, with terms in descending
    order; leads, when given, holds each basis element's leading term."""
    if leads is None:
        leads = [leading(g, key) for g in basis]
    divisors = list(zip(basis, leads))
    desc = _DESCENDING[key]
    work = dict(p)
    heap = [(desc(m), m) for m in work]
    heapify(heap)
    remainder: NPoly = {}
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue  # cancelled, or a second entry of a term already taken
        for g, (lm, lc) in divisors:
            if all(map(le, lm, m)):
                break
        else:
            remainder[m] = c
            continue
        # work -= (c/lc) * shift * g; g's leading term cancels m
        shift = tuple(map(sub, m, lm))
        factor = -(c / lc)
        for gm, gc in g.items():
            if gm == lm:
                continue
            t = tuple(map(add, gm, shift))
            v = gc * factor
            old = work.get(t)
            if old is None:
                work[t] = v
                heappush(heap, (desc(t), t))
            else:
                v = old + v
                if v.is_zero():
                    del work[t]
                else:
                    work[t] = v
    return remainder


class _Buchberger:
    """Buchberger state: the basis, each element's leading term, the heap of
    pending pairs and the size budget.  After `add` the basis is a Groebner
    basis of everything added so far, so later generators only form pairs
    with it; `reduced` returns the reduced basis."""

    def __init__(self, order: str, budget: GroebnerBudget) -> None:
        self.key = ORDERS[order]
        self.budget = budget
        self.basis: List[NPoly] = []
        self.leads: List[Tuple[NMonomial, FieldElement]] = []
        self.pairs: list = []  # heap of (key(lcm), i, j, lcm) with j < i

    def _join(self, r: NPoly) -> None:
        basis, leads, key = self.basis, self.leads, self.key
        lm, lc = leading(r, key)
        g = np_scale(r, lc.inverse())
        k = len(basis)
        basis.append(g)
        leads.append((lm, g[lm]))
        if len(basis) > self.budget.max_basis:
            raise OracleOverflow(f"basis exceeded {self.budget.max_basis} elements")
        for j in range(k):
            mj = leads[j][0]
            if not any(a and b for a, b in zip(lm, mj)):
                continue  # coprime leading monomials reduce to zero
            lcm = tuple(map(max, lm, mj))
            heappush(self.pairs, (key(lcm), k, j, lcm))

    def add(self, gens: Sequence[NPoly]) -> None:
        """Join the generators, then run pairs until none are left."""
        basis, leads, key, pairs = self.basis, self.leads, self.key, self.pairs
        for g in gens:
            if g:
                r = np_reduce(g, basis, key, leads) if basis else dict(g)
                if r:
                    self._join(r)
        while pairs:
            # normal strategy: smallest lcm of the leading monomials
            _, i, j, lcm = heappop(pairs)
            (mi, one), (mj, _) = leads[i], leads[j]  # basis elements are monic
            si = np_mul_term(basis[i], tuple(map(sub, lcm, mi)), one)
            sj = np_mul_term(basis[j], tuple(map(sub, lcm, mj)), -one)
            r = np_reduce(np_add(si, sj), basis, key, leads)
            if r:
                self._join(r)

    def reduced(self) -> List[NPoly]:
        """Inter-reduce the minimal elements; the reduced basis is unique."""
        basis, leads, key = self.basis, self.leads, self.key
        lms = [lm for lm, _ in leads]
        keep = [
            idx for idx, lm in enumerate(lms)
            if not any(
                o != idx and _divides(lms[o], lm) and (lms[o] != lm or o < idx)
                for o in range(len(lms))
            )
        ]
        keep.sort(key=lambda idx: key(lms[idx]))
        reduced = []
        for idx in keep:
            others = [o for o in keep if o != idx]
            reduced.append(np_reduce(
                basis[idx], [basis[o] for o in others], key, [leads[o] for o in others]
            ))
        return reduced


def groebner_basis(
    gens: Sequence[NPoly],
    order: str = "grevlex",
    budget: GroebnerBudget = GroebnerBudget(),
) -> List[NPoly]:
    """Reduced Groebner basis by Buchberger's algorithm with the normal
    selection strategy and the coprimality criterion."""
    state = _Buchberger(order, budget)
    state.add(gens)
    return state.reduced()


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


def ideal_height_of(gens: Sequence[NPoly], nvars: int,
                    budget: GroebnerBudget = GroebnerBudget()) -> int:
    basis = groebner_basis(gens, "grevlex", budget)
    key = ORDERS["grevlex"]
    return _height([leading(g, key)[0] for g in basis], nvars)


# ---------------------------------------------------------------------------
# truncated arc equations


@dataclass
class JetSystem:
    m: int
    nvars: int
    context: FieldContext
    generators: List[NPoly]  # x^(0), y^(0), z^(0), f^(0), ..., f^(m)


def _series_mul(a: List[NPoly], b: List[NPoly], m: int) -> List[NPoly]:
    out = [{} for _ in range(m + 1)]
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if i + j > m:
                break
            if bj:
                out[i + j] = np_add(out[i + j], np_mul(ai, bj))
    return out


def _coordinate(ctx: FieldContext, nvars: int, i: int, j: int) -> NPoly:
    """The level-j coordinate of variable i, at index 3*j + i."""
    mono = [0] * nvars
    mono[3 * j + i] = 1
    return {tuple(mono): ctx.one()}


def _arc_equations(f: TriPoly, m: int, first: int) -> List[NPoly]:
    """f^(0), ..., f^(m): the coefficients of t^0..t^m in f evaluated on the
    arc whose i-th coordinate is the sum of x_i^(j) t^j over first <= j <= m.
    Each coordinate's powers are expanded once and shared by the monomials."""
    ctx = f.context
    if not ctx.is_rational and ctx.extension_degree != 1:
        raise ValueError("the jet oracle is restricted to prime fields and Q")
    nvars = 3 * (m + 1)
    one = [{} for _ in range(m + 1)]
    one[0] = {(0,) * nvars: ctx.one()}
    powers = []
    for i in range(3):
        arc = [_coordinate(ctx, nvars, i, j) if j >= first else {} for j in range(m + 1)]
        powers.append([one])
        for _ in range(max((mono[i] for mono in f.terms), default=0)):
            powers[i].append(_series_mul(powers[i][-1], arc, m))
    levels = [{} for _ in range(m + 1)]
    for mono, coeff in f.terms.items():
        factors = [powers[i][e] for i, e in enumerate(mono) if e] or [one]
        term = factors[0]
        for factor in factors[1:]:
            term = _series_mul(term, factor, m)
        for j in range(m + 1):
            levels[j] = np_add(levels[j], np_scale(term[j], coeff))
    return levels


def build_jets(f: TriPoly, m: int) -> JetSystem:
    """Arc-equation generators of f through level m, over a prime field or Q.

    Variable layout: index 3*j + i is the level-j coordinate of variable i.
    """
    if m < 0:
        raise ValueError("level must be >= 0")
    levels = _arc_equations(f, m, 0)
    nvars = 3 * (m + 1)
    origin = [_coordinate(f.context, nvars, i, 0) for i in range(3)]
    return JetSystem(m, nvars, f.context, origin + levels)


def ideal_height(system: JetSystem,
                 budget: GroebnerBudget = GroebnerBudget()) -> int:
    """Height of (x^(0), y^(0), z^(0), f^(0), ..., f^(m))."""
    return ideal_height_of(system.generators, system.nvars, budget)


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
    levels = _arc_equations(f, m_max - 1, 1)
    origin = [_coordinate(f.context, 3 * m_max, i, 0) for i in range(3)]
    state = _Buchberger("grevlex", budget)
    entries = []
    for m, fm in enumerate(levels):
        state.add(origin + [fm] if m == 0 else [fm])
        h = _height([lm for lm, _ in state.leads], 3 * (m + 1))
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
