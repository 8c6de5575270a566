import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import ctx_for, poly, random_poly

from slchyp import (
    FieldElement,
    GroebnerBudget,
    OracleOverflow,
    TriPoly,
    build_jets,
    classify_mld,
    extension_field,
    mld_profile,
    s_m,
)
from slchyp.jets import (
    ORDERS,
    groebner_basis,
    grevlex_key,
    quotient_dimension,
)
import slchyp.jets as jets


# The engine's edges carry raw field payloads; the tests compare FieldElements.
def _payload_dicts(gens):
    return [{m: c.payload for m, c in g.items()} for g in gens]


def _elements(ctx, polys):
    return [{m: FieldElement(ctx, c) for m, c in g.items()} for g in polys]


def _payload_type(ctx):
    return Fraction if ctx.is_rational else int if ctx.extension_degree == 1 else tuple


# -- an independent reference: full arcs, plain series products ---------------


def _monomial(nvars, exps):
    mono = [0] * nvars
    for index, k in exps.items():
        mono[index] = k
    return tuple(mono)


def _series_product(ctx, a, b, m):
    """a * b through t^m, each series a list of dicts from exponent tuples
    to FieldElements."""
    out = [{} for _ in range(m + 1)]
    for i, ai in enumerate(a):
        for j in range(m + 1 - i):
            for m1, c1 in ai.items():
                for m2, c2 in b[j].items():
                    t = tuple(u + v for u, v in zip(m1, m2))
                    out[i + j][t] = out[i + j].get(t, ctx.zero()) + c1 * c2
    return [{t: c for t, c in o.items() if not c.is_zero()} for o in out]


def full_arc_jets(f, m):
    """x^(0), y^(0), z^(0), f^(0), ..., f^(m) with f^(j) the coefficient of
    t^j in f on the full generic arc, the level-j coordinate of variable i
    at index 3*j + i: each monomial by repeated products with the arcs, in
    FieldElement arithmetic."""
    ctx, nvars = f.context, 3 * (m + 1)
    arcs = [[{_monomial(nvars, {3 * j + i: 1}): ctx.one()} for j in range(m + 1)]
            for i in range(3)]
    levels = [{} for _ in range(m + 1)]
    for mono, c in f.sorted_terms():
        term = [{(0,) * nvars: c}] + [{} for _ in range(m)]
        for i, e in enumerate(mono):
            for _ in range(e):
                term = _series_product(ctx, term, arcs[i], m)
        for level, part in zip(levels, term):
            for t, v in part.items():
                level[t] = level.get(t, ctx.zero()) + v
    origin = [{_monomial(nvars, {i: 1}): ctx.one()} for i in range(3)]
    return origin + [{t: v for t, v in level.items() if not v.is_zero()} for level in levels]


def through_origin(gens):
    """The full-arc generators with the level-0 coordinates of f's levels
    set to zero: the arc equations on arcs through the origin."""
    return gens[:3] + [{t: v for t, v in g.items() if not any(t[:3])} for g in gens[3:]]


def reference_entries(f, m_max):
    """(m, height, height - (m + 1)) for m < m_max, each height from the
    reduced basis of the full-arc generators of that level alone."""
    entries = []
    for m in range(m_max):
        nvars = 3 * (m + 1)
        basis = groebner_basis(f.context, _payload_dicts(full_arc_jets(f, m)))
        dim = quotient_dimension([next(iter(g)) for g in basis], nvars)
        h = nvars if dim < 0 else nvars - dim
        entries.append((m, h, h - (m + 1)))
    return entries


def test_build_jets_product_rule():
    # on arcs through the origin f^(0) = f^(1) = 0, f^(2) = x1 y1 and
    # f^(3) = x1 y2 + x2 y1  (variable layout: 3j + i)
    f = poly("x*y")
    ctx = f.context
    gens = _elements(ctx, build_jets(f, 3))
    one = ctx.one()
    assert gens[3:] == [
        {},
        {},
        {_monomial(12, {3: 1, 4: 1}): one},
        {_monomial(12, {3: 1, 7: 1}): one, _monomial(12, {6: 1, 4: 1}): one},
    ]
    assert gens == through_origin(full_arc_jets(f, 3))


def test_build_jets_linear():
    f = poly("x")
    one = f.context.one()
    # x0, y0, z0, then f^(0) = 0, f^(1) = x1, f^(2) = x2
    assert _elements(f.context, build_jets(f, 2)) == (
        [{_monomial(9, {i: 1}): one} for i in range(3)]
        + [{}] + [{_monomial(9, {3 * j: 1}): one} for j in (1, 2)])


def test_build_jets_square_coefficients():
    # f^(3) = 2 x1 x2 + y1^3 and f^(4) = x2^2 + 2 x1 x3 + 3 y1^2 y2
    f = poly("x^2+y^3+z^5")
    ctx = f.context
    gens = _elements(ctx, build_jets(f, 4))
    assert gens[6] == {_monomial(15, {3: 1, 6: 1}): ctx.from_int(2),
                       _monomial(15, {4: 3}): ctx.one()}
    assert gens[7] == {_monomial(15, {6: 2}): ctx.one(),
                       _monomial(15, {3: 1, 9: 1}): ctx.from_int(2),
                       _monomial(15, {4: 2, 7: 1}): ctx.from_int(3)}


def test_build_jets_large_exponent():
    # on arcs through the origin z^e is O(t^e): at e = 10^5 it adds nothing
    # through level 2 and is never expanded.  Below the level a coordinate's
    # powers come by squaring the truncated series and carry the binomial
    # coefficients of (z1 t + z2 t^2 + ...)^e mod 7.
    e = 10 ** 5
    f = poly(f"x^2+y^3+z^{e}", 7)
    ctx = f.context
    start = time.perf_counter()
    gens = _elements(ctx, build_jets(f, 2))
    assert time.perf_counter() - start < 0.1
    assert gens[3:] == [{}, {}, {_monomial(9, {3: 2}): ctx.one()}]
    g = poly("x^2+y^3+z^5", 7)
    gens = _elements(ctx, build_jets(g, 7))
    assert gens == through_origin(full_arc_jets(g, 7))
    # the terms in z alone of f^(5), f^(6), f^(7): z1^5, 5 z1^4 z2 and
    # 5 z1^4 z3 + 10 z1^3 z2^2
    in_z = [{t: c for t, c in level.items() if not any(t[i] for i in range(24) if i % 3 != 2)}
            for level in gens[8:]]
    assert in_z == [
        {_monomial(24, {5: 5}): ctx.one()},
        {_monomial(24, {5: 4, 8: 1}): ctx.from_int(5)},
        {_monomial(24, {5: 4, 11: 1}): ctx.from_int(5), _monomial(24, {5: 3, 8: 2}): ctx.from_int(10)},
    ]


def test_build_jets_keeps_rational_coefficients():
    # the arcs are expanded for an integer multiple of f and divided back
    f = poly("x^2+3*y^3+x*y*z")
    ctx = f.context
    third = ctx.from_fraction(-1, 3)
    gens = build_jets(f, 3)
    assert all(type(c) is Fraction for g in gens for c in g.values())
    assert _elements(ctx, gens) == through_origin(full_arc_jets(f, 3))
    scaled = _elements(ctx, build_jets(f.scale(third), 3)[3:])
    assert scaled[3]
    for g, h in zip(scaled, _elements(ctx, gens[3:])):
        assert g == {m: c * third for m, c in h.items()}


def test_series_consistency_random_arcs(rng):
    # evaluating f on a random truncated arc through the origin agrees with
    # the jet equations, and they are the reference's with x0, y0, z0 = 0
    for p in (5, 7):
        ctx = ctx_for(p)
        f = random_poly(rng, ctx, max_terms=4, max_exp=3)
        m = 3
        generators = _elements(ctx, build_jets(f, m))
        assert generators == through_origin(full_arc_jets(f, m))
        arc = [[ctx.zero()] + [ctx.from_int(rng.randint(0, p - 1)) for _ in range(m)]
               for _ in range(3)]

        def poly_eval_series():
            # multiply out f(sum a_j t^j, ...) keeping degrees <= m
            coeffs = [ctx.zero()] * (m + 1)
            for mono, c in f.sorted_terms():
                term = [ctx.zero()] * (m + 1)
                term[0] = c
                for i in range(3):
                    for _ in range(mono[i]):
                        new = [ctx.zero()] * (m + 1)
                        for a in range(m + 1):
                            if term[a].is_zero():
                                continue
                            for b in range(m + 1 - a):
                                new[a + b] = new[a + b] + term[a] * arc[i][b]
                        term = new
                for j in range(m + 1):
                    coeffs[j] = coeffs[j] + term[j]
            return coeffs

        series = poly_eval_series()
        for j in range(m + 1):
            gen = generators[3 + j]
            val = ctx.zero()
            for mono, c in gen.items():
                acc = c
                for idx, e in enumerate(mono):
                    if e:
                        i, lvl = idx % 3, idx // 3
                        acc = acc * (arc[i][lvl] ** e)
                val = val + acc
            assert val == series[j], (p, j)


def test_ideal_height_examples():
    heights = [h for _m, h, _s in mld_profile(poly("x*y"), 3).profile.entries]
    # level 0 with f^(0) already inside (x0,y0,z0)
    assert heights == [3, 3, 4]
    assert [h for _m, h, _s in mld_profile(poly("x"), 4).profile.entries] == [3, 4, 5, 6]
    for text in ("x*y", "x"):
        assert mld_profile(poly(text), 4).profile.entries == reference_entries(poly(text), 4)


def test_s_m_examples():
    assert [s_m(poly("x*y"), m) for m in range(3)] == [2, 1, 1]
    assert [s_m(poly("x^2+y^3+z^5", 7), m) for m in range(3)] == [2, 1, 1]
    assert [s_m(poly("x"), m) for m in range(3)] == [2, 2, 2]


def test_mld_profile_examples():
    prof = mld_profile(poly("x*y"), 3, expected_mld=1)
    assert prof.profile.contact_entries() == [(1, 2), (2, 1), (3, 1)]
    assert prof.min_value == 1 and prof.matches_expected
    assert prof.consistent_lower_bound

    prof = mld_profile(poly("x^2+y^3+z^5", 7), 2, expected_mld=1)
    assert prof.profile.contact_entries() == [(1, 2), (2, 1)]

    prof = mld_profile(poly("x"), 2)
    assert [v for _, v in prof.profile.contact_entries()] == [2, 2]


def test_height_monotone_in_level():
    for text, p in [("x*y", 0), ("x^2+y^2*z", 5), ("x^2+y^3", 2)]:
        heights = [h for _m, h, _s in mld_profile(poly(text, p), 4).profile.entries]
        assert all(a <= b for a, b in zip(heights, heights[1:]))


def test_oracle_rejects_extension_coefficients():
    F4 = extension_field(2, 2)
    f = TriPoly.monomial(F4, (1, 1, 0), F4.generator())
    with pytest.raises(ValueError):
        build_jets(f, 1)
    with pytest.raises(ValueError):
        mld_profile(f, 2)


@pytest.mark.parametrize("p", [0, 7])
def test_oracle_refuses_the_zero_polynomial(p):
    # no hypersurface, no contact table: every level would read 2 - m
    zero = TriPoly(ctx_for(p), {})
    with pytest.raises(ValueError):
        mld_profile(zero, 3)
    with pytest.raises(ValueError):
        s_m(zero, 1)
    with pytest.raises(ValueError):
        build_jets(zero, 2)


def test_budget_overflow_is_loud():
    f = poly("x^2+y^3+z^5", 7)
    with pytest.raises(OracleOverflow):
        mld_profile(f, 3, budget=GroebnerBudget(max_basis=1))
    gens = build_jets(f, 2)
    for order in ("grevlex", "lex"):
        with pytest.raises(OracleOverflow):
            groebner_basis(f.context, gens, order, GroebnerBudget(max_basis=1))


def _random_singular_poly(rnd, ctx):
    """A random f of order >= 2, so that every level of its profile is finite."""
    while True:
        f = random_poly(rnd, ctx, max_terms=5, max_exp=3)
        f = TriPoly(ctx, {m: c for m, c in f.terms.items() if sum(m) >= 2})
        if not f.is_zero():
            return f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 0])
def test_incremental_profile_matches_per_level_heights(p):
    # mld_profile carries one basis over arcs through the origin; the
    # reference expands f on full arcs by plain series products and reduces
    # each level's generators on their own, sharing no arc expansion with it
    rnd = random.Random(f"profile:{p}")
    ctx = ctx_for(p)
    for _ in range(23):
        f = _random_singular_poly(rnd, ctx)
        assert mld_profile(f, 4).profile.entries == reference_entries(f, 4), str(f)


def test_budget_counts_the_carried_basis():
    # the basis carried through level 4 holds at most 15 elements, through
    # level 5 it holds 16, and the budget bounds the carried one, in s_m too
    f = poly("y*(y^2+x*z)")
    budget = GroebnerBudget(max_basis=15)
    entries = mld_profile(f, 6).profile.entries
    assert [h for _m, h, _s in entries] == [3, 3, 3, 4, 5, 6]
    assert mld_profile(f, 5, budget=budget).profile.entries == entries[:5]
    assert s_m(f, 4, budget) == entries[4][2]
    with pytest.raises(OracleOverflow):
        mld_profile(f, 6, budget=budget)
    with pytest.raises(OracleOverflow):
        s_m(f, 5, budget)


# contact tables of scripts/run_jet_profiles.py, two level-6 fixtures and a
# unit, whose ideal is the whole ring at every level
PINNED_PROFILES = [
    ("x", 0, 3, [(0, 3, 2), (1, 4, 2), (2, 5, 2)]),
    ("x*y", 0, 3, [(0, 3, 2), (1, 3, 1), (2, 4, 1)]),
    ("x^2+y^2", 0, 3, [(0, 3, 2), (1, 3, 1), (2, 4, 1)]),
    ("x^2+y^2*z", 5, 3, [(0, 3, 2), (1, 3, 1), (2, 4, 1)]),
    ("x^2+y^3+x*z^2", 5, 3, [(0, 3, 2), (1, 3, 1), (2, 4, 1)]),
    ("x^2+y^3+z^5", 7, 2, [(0, 3, 2), (1, 3, 1)]),
    ("x*y*z", 3, 3, [(0, 3, 2), (1, 3, 1), (2, 3, 0)]),
    ("x*y*z", 5, 6,
     [(0, 3, 2), (1, 3, 1), (2, 3, 0), (3, 4, 0), (4, 5, 0), (5, 6, 0)]),
    ("y*(y^2+x*z)", 0, 6,
     [(0, 3, 2), (1, 3, 1), (2, 3, 0), (3, 4, 0), (4, 5, 0), (5, 6, 0)]),
    ("2+y*z", 3, 3, [(0, 3, 2), (1, 6, 4), (2, 9, 6)]),
    ("x^2+y^3+z^5", 7, 7,
     [(0, 3, 2), (1, 3, 1), (2, 4, 1), (3, 5, 1), (4, 6, 1), (5, 7, 1), (6, 8, 1)]),
]


# profiles that rerun wider from a starting width that just fits the input
# (found by a seeded search over random_poly inputs of order >= 2,
# random.Random("widening profiles")); their entries are pinned with the
# others and are those of the per-level reference
WIDENING_PROFILES = [
    ("x^2*y+2*z^3+x*y^3", 3, 5, [(0, 3, 2), (1, 3, 1), (2, 3, 0), (3, 4, 0), (4, 5, 0)]),
    ("z^2+4*x^2*z", 5, 5, [(0, 3, 2), (1, 3, 1), (2, 4, 1), (3, 4, 0), (4, 5, 0)]),
]


@pytest.mark.parametrize("text,p,m_max,entries", PINNED_PROFILES + WIDENING_PROFILES)
def test_profiles_pinned(text, p, m_max, entries):
    assert mld_profile(poly(text, p), m_max).profile.entries == entries


@pytest.mark.parametrize("exponent", [10, 1000, 100000])
def test_profile_expands_only_the_monomials_its_levels_see(monkeypatch, exponent):
    # on arcs through the origin z^e is O(t^e): above the top level it adds
    # nothing, and its powers of the arc are never expanded; the one series
    # product is the square of x's arc
    calls = []
    series_mul = jets._series_mul
    monkeypatch.setattr(jets, "_series_mul", lambda *a: calls.append(1) or series_mul(*a))
    prof = mld_profile(poly(f"x^2+y^3+z^{exponent}", 7), 3)
    assert prof.profile.entries == [(0, 3, 2), (1, 3, 1), (2, 4, 1)]
    assert len(calls) == 1


# -- Groebner engine internals -------------------------------------------------


def _lead(p, key):
    m = max(p, key=key)
    return m, p[m]


def _minus_multiple(p, g, shift, c):
    """p - c * x^shift * g."""
    out = dict(p)
    for gm, gc in g.items():
        t = tuple(a + b for a, b in zip(gm, shift))
        v = out[t] - c * gc if t in out else -(c * gc)
        if v.is_zero():
            out.pop(t, None)
        else:
            out[t] = v
    return out


def textbook_normal_form(p, divisors, key):
    """Full normal form by plain multivariate division, dividing each
    leading term by the first divisor whose leading monomial divides it."""
    p, r = dict(p), {}
    while p:
        m, c = _lead(p, key)
        for g in divisors:
            gm, gc = _lead(g, key)
            if all(a <= b for a, b in zip(gm, m)):
                p = _minus_multiple(p, g, tuple(a - b for a, b in zip(m, gm)), c / gc)
                break
        else:
            r[m] = c
            del p[m]
    return r


def test_spolynomials_of_basis_reduce_to_zero(rng):
    ctx = ctx_for(5)
    for _ in range(10):
        gens = []
        for _ in range(3):
            g = {}
            for _ in range(3):
                m = tuple(rng.randint(0, 2) for _ in range(3))
                c = ctx.from_int(rng.randint(0, 4))
                if not c.is_zero():
                    g[m] = g[m] + c if m in g else c
            g = {m: c for m, c in g.items() if not c.is_zero()}
            if g:
                gens.append(g)
        if not gens:
            continue
        basis = _elements(ctx, groebner_basis(ctx, _payload_dicts(gens), "grevlex"))
        key = grevlex_key
        for gi, gj in combinations(basis, 2):
            mi, ci = _lead(gi, key)
            mj, cj = _lead(gj, key)
            lcm = tuple(max(a, b) for a, b in zip(mi, mj))
            s = _minus_multiple({}, gi, tuple(l - a for l, a in zip(lcm, mi)), -ci.inverse())
            s = _minus_multiple(s, gj, tuple(l - a for l, a in zip(lcm, mj)), cj.inverse())
            assert textbook_normal_form(s, basis, key) == {}


def reference_groebner(gens, key):
    """Textbook Buchberger (every pair, plain division), then the reduced
    basis sorted by leading monomial."""

    def monic(p):
        inv = _lead(p, key)[1].inverse()
        return {m: c * inv for m, c in p.items()}

    basis = [monic(g) for g in gens if g]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        mi, mj = _lead(basis[i], key)[0], _lead(basis[j], key)[0]
        lcm = tuple(max(a, b) for a, b in zip(mi, mj))
        one = basis[i][mi]
        s = _minus_multiple({}, basis[i], tuple(l - e for l, e in zip(lcm, mi)), -one)
        s = _minus_multiple(s, basis[j], tuple(l - e for l, e in zip(lcm, mj)), one)
        r = textbook_normal_form(s, basis, key)
        if r:
            basis.append(monic(r))
            pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))
    minimal = []
    for g in basis:
        m = _lead(g, key)[0]
        if not any(all(a <= b for a, b in zip(_lead(h, key)[0], m)) for h in minimal):
            minimal = [h for h in minimal
                       if not all(a <= b for a, b in zip(m, _lead(h, key)[0]))] + [g]
    reduced = [monic(textbook_normal_form(g, [h for h in minimal if h is not g], key))
               for g in minimal]
    return sorted(reduced, key=lambda g: key(_lead(g, key)[0]))


def _random_coefficient(rnd, ctx):
    if ctx.extension_degree > 1:
        p = ctx.characteristic
        return ctx.from_vector([rnd.randint(0, p - 1) for _ in range(ctx.extension_degree)])
    return ctx.from_int(rnd.randint(-4, 4))


def _random_ideal(rnd, ctx, nvars):
    gens = []
    for _ in range(rnd.randint(2, 3)):
        g = {}
        for _ in range(rnd.randint(1, 3)):
            m = tuple(rnd.randint(0, 2) for _ in range(nvars))
            c = _random_coefficient(rnd, ctx)
            if not c.is_zero():
                g[m] = g[m] + c if m in g else c
        gens.append({m: c for m, c in g.items() if not c.is_zero()})
    return gens


def _check_against_reference(gens, order, ctx):
    key = ORDERS[order]
    basis = groebner_basis(ctx, _payload_dicts(gens), order)
    assert _elements(ctx, basis) == reference_groebner(gens, key), gens
    kind = _payload_type(ctx)
    for g in basis:
        # payloads, terms in descending order, leading coefficient one
        assert all(type(c) is kind for c in g.values()), g
        assert list(g) == sorted(g, key=key, reverse=True)
        assert g[next(iter(g))] == ctx.ops.one


# F_9 runs the engine on extension payloads (coefficient tuples)
@pytest.mark.parametrize("q", [5, 0, 2, 9])
@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_groebner_basis_matches_reference(rng, q, order):
    ctx = extension_field(3, 2) if q == 9 else ctx_for(q)
    cases = [_random_ideal(rng, ctx, rng.randint(2, 4)) for _ in range(25)]
    if q != 9:
        jet_gens = build_jets(poly("x^2+y^3+x*y*z", q), 3)
        assert all(type(c) is _payload_type(ctx) for g in jet_gens for c in g.values())
        cases.append(_elements(ctx, jet_gens))
    for gens in cases:
        _check_against_reference(gens, order, ctx)


@pytest.mark.parametrize("q", [5, 0, 9])
def test_ideal_height_reads_the_unreduced_basis(rng, q, monkeypatch):
    # heights need only leading monomials: the minimal ones of the basis
    # before any inter-reduction are those of the reduced basis (the
    # reference's), so they give the same height.  mld_profile reads its
    # heights that way and never inter-reduces.
    ctx = extension_field(3, 2) if q == 9 else ctx_for(q)
    for _ in range(25):
        nvars = rng.randint(2, 4)
        gens = [g for g in _random_ideal(rng, ctx, nvars) if g]
        layout = jets._Layout(nvars, "grevlex", jets._width(2))
        state = jets._Buchberger(layout, ctx, GroebnerBudget())
        load = state.field.load
        state.add([{layout.pack(m): c for m, c in load(g).items()} for g in _payload_dicts(gens)])
        leads = {state.layout.unpack(lm) for lm in state.leads}
        minimal = {m for m in leads
                   if not any(o != m and all(a <= b for a, b in zip(o, m)) for o in leads)}
        reduced = reference_groebner(gens, grevlex_key)
        assert minimal == {_lead(g, grevlex_key)[0] for g in reduced}, gens
    if q != 9:
        f = poly("x^2+y^3+x*y*z", q)
        expected = reference_entries(f, 4)

        def no_inter_reduction(self):
            raise AssertionError("mld_profile inter-reduced its basis")

        monkeypatch.setattr(jets._Buchberger, "reduced", no_inter_reduction)
        assert mld_profile(f, 4).profile.entries == expected


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_packed_monomials_match_exponent_tuples(rng, order):
    # order, divisibility, product, lcm and support of the packed ints agree
    # with the exponent tuples they pack
    key = ORDERS[order]
    for nvars in (1, 2, 3, 5, 12):
        layout = jets._Layout(nvars, order, 4)
        for _ in range(300):
            a, b = (tuple(rng.randint(0, 7) for _ in range(nvars)) for _ in range(2))
            pa, pb = layout.pack(a), layout.pack(b)
            assert layout.unpack(pa) == a
            assert (pa < pb) == (key(a) < key(b))
            assert (not (pb - pa) & layout.guard) == all(x <= y for x, y in zip(a, b))
            assert pa + pb == layout.pack(tuple(x + y for x, y in zip(a, b)))
            assert layout.lcm(pa, pb) == layout.pack(tuple(map(max, a, b)))
            assert bool(layout.support(pa) & layout.support(pb)) == any(
                x and y for x, y in zip(a, b))


# binomial ideals whose bases, in both orders, reach an exponent above four
# times the largest one of the input: the first, kept from before the chain
# criterion, then the first, second and fourth hits of a seeded search over
# exponents 0..9 (random.Random("widening binomials")); the third hit's
# textbook reference takes 15 s under grevlex
WIDENING_BINOMIALS = [
    [((1, 7, 1), (0, 0, 8)), ((9, 8, 9), (7, 2, 3))],
    [((6, 8, 2), (5, 1, 6)), ((8, 1, 1), (0, 4, 8))],
    [((2, 0, 5), (3, 7, 0)), ((7, 3, 7), (7, 6, 1))],
    [((9, 5, 1), (9, 6, 9)), ((3, 9, 0), (2, 0, 8))],
]
# binomial ideals that widened only while the pairs the chain criterion now
# skips were still reduced; kept as reference checks
FORMERLY_WIDENING_BINOMIALS = [
    [((3, 5, 6), (5, 0, 1)), ((6, 6, 7), (3, 2, 7))],
    [((7, 1, 5), (2, 9, 1)), ((6, 3, 2), (0, 2, 8))],
    [((7, 8, 5), (3, 1, 8)), ((8, 3, 9), (1, 1, 4))],
]


@pytest.mark.parametrize("p", [7, 0])
@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_exponents_beyond_the_packed_width_rerun_wider(monkeypatch, p, order):
    # The packed width starts at four times the input's largest exponent.  A term
    # above it makes the engine rerun at doubled width, with the same basis.
    # Under lex, x^200 - y and y^130*z - x reduce x^200 to y^26000*z^200.
    ctx = ctx_for(p)
    one, two = ctx.one(), ctx.from_int(2)
    widths = []

    class Layout(jets._Layout):
        def __init__(self, nvars, order, width):
            widths.append(width)
            super().__init__(nvars, order, width)

    monkeypatch.setattr(jets, "_Layout", Layout)
    for pair in FORMERLY_WIDENING_BINOMIALS:
        _check_against_reference([{a: one, b: -two} for a, b in pair], order, ctx)
    cases = [[{a: one, b: -two} for a, b in pair] for pair in WIDENING_BINOMIALS]
    big = [{(200, 0, 0): one, (0, 1, 0): -one}, {(0, 130, 1): one, (1, 0, 0): -one}]
    if order == "lex":
        cases.append(big)
    else:
        _check_against_reference(big, order, ctx)
    for gens in cases:
        widths.clear()
        _check_against_reference(gens, order, ctx)
        assert len(widths) > 1 and widths == sorted(widths), widths


# lex ideals whose inter-reduction reaches an exponent above the width the
# unreduced basis needed (found by a seeded search)
WIDENING_IN_REDUCTION = [
    [{(1, 4, 1): 3, (1, 2, 0): 3, (0, 1, 1): 4}, {(3, 1, 2): 4, (5, 2, 5): 6}],
    [{(5, 2, 1): 4, (5, 4, 3): 4, (0, 2, 5): 4}, {(1, 5, 2): 2, (0, 5, 0): 6}],
    [{(1, 1, 2): 2, (3, 3, 4): 3}, {(5, 0, 0): 1, (1, 3, 5): 2, (4, 2, 5): 1}],
]


@pytest.mark.parametrize("p", [7, 0])
def test_inter_reduction_reruns_wider(monkeypatch, p):
    ctx = ctx_for(p)
    overflowed = []
    inter_reduce = jets._Buchberger._inter_reduce

    def watched(state):
        try:
            return inter_reduce(state)
        except jets._Widen:
            overflowed.append(state.layout.width)
            raise

    monkeypatch.setattr(jets._Buchberger, "_inter_reduce", watched)
    for ideal in WIDENING_IN_REDUCTION:
        overflowed.clear()
        gens = [{m: ctx.from_int(c) for m, c in g.items()} for g in ideal]
        _check_against_reference(gens, "lex", ctx)
        assert overflowed, ideal


def test_profile_rerun_wider_keeps_the_carried_heights(monkeypatch):
    # a starting width that just fits the input forces reruns while the
    # basis is carried across levels; every height must come out as at the
    # usual width
    widths = []

    class Layout(jets._Layout):
        def __init__(self, nvars, order, width):
            widths.append(width)
            super().__init__(nvars, order, width)

    monkeypatch.setattr(jets, "_Layout", Layout)
    monkeypatch.setattr(jets, "_width", int.bit_length)
    widened = []
    for text, p, m_max, entries in PINNED_PROFILES[:9] + WIDENING_PROFILES:
        widths.clear()
        assert mld_profile(poly(text, p), m_max).profile.entries == entries, text
        if len(widths) > 1:
            widened.append(text)
    assert len(widened) >= 2, widened


def brute_monomial_dimension(lms, nvars):
    """Largest coordinate subspace avoiding every leading support."""
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lms]
    best = -1
    for size in range(nvars + 1):
        for subset in combinations(range(nvars), size):
            s = set(subset)
            if all(not sup <= s for sup in supports):
                best = max(best, size)
    return best


@pytest.mark.parametrize("q", [7, 9, 0])
@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_chain_criterion_keeps_the_reduced_basis(monkeypatch, q, order):
    # the pairs the chain criterion skips would reduce to zero: the reduced
    # basis is the textbook one (every pair reduced) on seeded random ideals
    # with enough generators for the criterion to fire
    ctx = extension_field(3, 2) if q == 9 else ctx_for(q)
    rnd = random.Random(f"chain criterion:{q}:{order}")
    skipped = []
    chained = jets._Buchberger._chained
    monkeypatch.setattr(jets._Buchberger, "_chained",
                        lambda *a: chained(*a) and not skipped.append(a[1:]))
    for _ in range(25):
        nvars = rnd.randint(2, 3)
        gens = _random_ideal(rnd, ctx, nvars) + _random_ideal(rnd, ctx, nvars)
        _check_against_reference([g for g in gens if g], order, ctx)
    assert skipped


# np_reduce calls of mld_profile with the chain criterion (77, 76 and 1,568
# without it); a profile that needs more has lost the criterion
REDUCTION_BOUNDS = [
    ("y*(y^2+x*z)", 0, 6, 31),
    ("y*(y^2+x*z)", 3, 6, 30),
    ("x^2+y^3+z^5", 7, 7, 250),
]


@pytest.mark.parametrize("text,p,m_max,bound", REDUCTION_BOUNDS)
def test_profile_reductions_stay_bounded(monkeypatch, text, p, m_max, bound):
    calls = []
    reduce = jets.np_reduce
    monkeypatch.setattr(jets, "np_reduce", lambda *a: calls.append(1) or reduce(*a))
    # the level-6 profile of y*(y^2+x*z) over Q is its profile over F_3 too
    pinned = next(e for t, _q, m, e in PINNED_PROFILES if (t, m) == (text, m_max))
    assert mld_profile(poly(text, p), m_max).profile.entries == pinned
    assert len(calls) <= bound, len(calls)


def test_monomial_dimension_against_brute_force(rng):
    for _ in range(40):
        nvars = rng.randint(1, 5)
        lms = []
        for _ in range(rng.randint(1, 4)):
            m = tuple(rng.randint(0, 2) for _ in range(nvars))
            if any(m):
                lms.append(m)
        if not lms:
            continue
        assert quotient_dimension(lms, nvars) == brute_monomial_dimension(lms, nvars)
    # jet-shaped leading monomials on up to 12 variables (index 3j + i is the
    # level-j coordinate of variable i): some order-zero variables, then
    # products of two or three higher-level coordinates
    for _ in range(30):
        nvars = 3 * rng.randint(2, 4)
        lms = []
        for i in rng.sample(range(3), rng.randint(0, 3)):
            lms.append(tuple(int(v == i) for v in range(nvars)))
        for _ in range(rng.randint(1, 8)):
            m = [0] * nvars
            for v in rng.sample(range(3, nvars), rng.randint(2, 3)):
                m[v] = rng.randint(1, 2)
            lms.append(tuple(m))
        assert quotient_dimension(lms, nvars) == brute_monomial_dimension(lms, nvars)
    unit = [(0,) * 12, (1,) + (0,) * 11]
    assert quotient_dimension(unit, 12) == brute_monomial_dimension(unit, 12) == -1
    assert quotient_dimension([], 12) == 12


def test_oracle_classifier_agreement():
    fixtures = [
        ("x*y", 0, 3), ("x^2+y^2*z", 5, 3),
        ("x^2+y^3+x*z^2", 5, 3), ("x^2+y^2+z^2", 7, 3),
    ]
    for text, p, m_max in fixtures:
        f = poly(text, p)
        v = classify_mld(f, p)
        assert not v.mld.is_neg_infinity
        prof = mld_profile(f, m_max, expected_mld=v.mld.value)
        assert prof.consistent_lower_bound, (text, p)
        assert prof.min_value >= v.mld.value
