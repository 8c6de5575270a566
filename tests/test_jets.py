import random
from itertools import combinations

import pytest

from conftest import ctx_for, poly, random_poly

from slchyp import (
    GroebnerBudget,
    OracleOverflow,
    TriPoly,
    build_jets,
    classify_mld,
    ideal_height,
    mld_profile,
    s_m,
)
from slchyp.jets import (
    ORDERS,
    groebner_basis,
    grevlex_key,
    leading,
    np_add,
    np_reduce,
    np_scale,
    quotient_dimension,
)


def test_build_jets_product_rule():
    f = poly("x*y")
    sys1 = build_jets(f, 1)
    ctx = f.context
    one = ctx.one()
    # f^(0) = x0 y0, f^(1) = x0 y1 + x1 y0  (variable layout: 3j + i)
    f0 = {(1, 1, 0, 0, 0, 0): one}
    f1 = {(1, 0, 0, 0, 1, 0): one, (0, 1, 0, 1, 0, 0): one}
    assert sys1.generators[3] == f0
    assert sys1.generators[4] == f1


def test_build_jets_linear():
    f = poly("x")
    sysm = build_jets(f, 2)
    for j in range(3):
        mono = [0] * 9
        mono[3 * j] = 1
        assert sysm.generators[3 + j] == {tuple(mono): f.context.one()}


def test_build_jets_square_coefficients():
    f = poly("x^2+y^3+z^5")
    sys2 = build_jets(f, 2)
    f2 = sys2.generators[5]
    ctx = f.context
    m_x1x1 = [0] * 9
    m_x1x1[3] = 2  # (x^(1))^2
    m_x0x2 = [0] * 9
    m_x0x2[0] = 1
    m_x0x2[6] = 1  # 2 x^(0) x^(2)
    assert f2[tuple(m_x1x1)] == ctx.one()
    assert f2[tuple(m_x0x2)] == ctx.from_int(2)


def test_series_consistency_random_arcs(rng):
    # evaluating f on a random truncated arc agrees with the jet equations
    for p in (5, 7):
        ctx = ctx_for(p)
        f = random_poly(rng, ctx, max_terms=4, max_exp=3)
        m = 3
        system = build_jets(f, m)
        arc = [[ctx.from_int(rng.randint(0, p - 1)) for _ in range(m + 1)]
               for _ in range(3)]

        def poly_eval_series():
            # multiply out f(sum a_j t^j, ...) keeping degrees <= m
            coeffs = [ctx.zero()] * (m + 1)
            for mono, c in f.terms.items():
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
            gen = system.generators[3 + j]
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
    assert ideal_height(build_jets(poly("x*y"), 2)) == 4
    for m in (0, 1, 2, 3):
        assert ideal_height(build_jets(poly("x"), m)) == m + 3
    # level 0 with f^(0) already inside (x0,y0,z0)
    assert ideal_height(build_jets(poly("x*y"), 0)) == 3


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
        f = poly(text, p)
        heights = [ideal_height(build_jets(f, m)) for m in range(4)]
        assert all(a <= b for a, b in zip(heights, heights[1:]))


def test_oracle_rejects_extension_coefficients():
    from slchyp import extension_field, TriPoly

    F4 = extension_field(2, 2)
    f = TriPoly.monomial(F4, (1, 1, 0), F4.generator())
    with pytest.raises(ValueError):
        build_jets(f, 1)


def test_budget_overflow_is_loud():
    f = poly("x^2+y^3+z^5", 7)
    with pytest.raises(OracleOverflow):
        mld_profile(f, 3, budget=GroebnerBudget(max_basis=1))
    gens = build_jets(f, 1).generators
    for order in ("grevlex", "lex"):
        with pytest.raises(OracleOverflow):
            groebner_basis(gens, order, GroebnerBudget(max_basis=1))


def _random_singular_poly(rnd, ctx):
    """A random f of order >= 2, so that every level of its profile is finite."""
    while True:
        f = random_poly(rnd, ctx, max_terms=5, max_exp=3)
        f = TriPoly.make(ctx, {m: c for m, c in f.terms.items() if sum(m) >= 2})
        if not f.is_zero():
            return f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 0])
def test_incremental_profile_matches_per_level_heights(p):
    # mld_profile carries one basis over arcs through the origin; the
    # reference rebuilds the full arc equations and the basis at every level
    rnd = random.Random(f"profile:{p}")
    ctx = ctx_for(p)
    for _ in range(23):
        f = _random_singular_poly(rnd, ctx)
        reference = []
        for m in range(4):
            h = ideal_height(build_jets(f, m))
            reference.append((m, h, h - (m + 1)))
        assert mld_profile(f, 4).profile.entries == reference, str(f)


def test_budget_counts_the_carried_basis():
    # every level's own basis stays within 15 elements, but the basis carried
    # through level 5 holds 16, and the budget bounds the carried one
    f = poly("y*(y^2+x*z)")
    budget = GroebnerBudget(max_basis=15)
    heights = [ideal_height(build_jets(f, m), budget) for m in range(6)]
    assert heights == [3, 3, 3, 4, 5, 6]
    with pytest.raises(OracleOverflow):
        mld_profile(f, 6, budget=budget)
    assert [h for _m, h, _s in mld_profile(f, 6).profile.entries] == heights


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
]


@pytest.mark.parametrize("text,p,m_max,entries", PINNED_PROFILES)
def test_profiles_pinned(text, p, m_max, entries):
    assert mld_profile(poly(text, p), m_max).profile.entries == entries


# -- Groebner engine internals -------------------------------------------------


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
        basis = groebner_basis(gens, "grevlex")
        key = grevlex_key
        for gi, gj in combinations(basis, 2):
            mi, ci = leading(gi, key)
            mj, cj = leading(gj, key)
            lcm = tuple(max(a, b) for a, b in zip(mi, mj))
            from slchyp.jets import np_mul_term

            si = np_mul_term(gi, tuple(l - a for l, a in zip(lcm, mi)), ci.inverse())
            sj = np_mul_term(gj, tuple(l - a for l, a in zip(lcm, mj)), cj.inverse())
            s = np_add(si, np_scale(sj, -ctx.one()))
            assert np_reduce(s, basis, key) == {}


def reference_groebner(gens, key):
    """Textbook Buchberger (every pair, plain division), then the reduced
    basis sorted by leading monomial."""

    def lead(p):
        m = max(p, key=key)
        return m, p[m]

    def minus_multiple(p, g, shift, c):
        out = dict(p)
        for gm, gc in g.items():
            t = tuple(a + b for a, b in zip(gm, shift))
            v = out[t] - c * gc if t in out else -(c * gc)
            if v.is_zero():
                out.pop(t, None)
            else:
                out[t] = v
        return out

    def normal_form(p, divisors):
        p, r = dict(p), {}
        while p:
            m, c = lead(p)
            for g in divisors:
                gm, gc = lead(g)
                if all(a <= b for a, b in zip(gm, m)):
                    p = minus_multiple(p, g, tuple(a - b for a, b in zip(m, gm)), c / gc)
                    break
            else:
                r[m] = c
                del p[m]
        return r

    def monic(p):
        return np_scale(p, lead(p)[1].inverse())

    basis = [monic(g) for g in gens if g]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        mi, mj = lead(basis[i])[0], lead(basis[j])[0]
        lcm = tuple(max(a, b) for a, b in zip(mi, mj))
        one = basis[i][mi]
        s = minus_multiple({}, basis[i], tuple(l - e for l, e in zip(lcm, mi)), -one)
        s = minus_multiple(s, basis[j], tuple(l - e for l, e in zip(lcm, mj)), one)
        r = normal_form(s, basis)
        if r:
            basis.append(monic(r))
            pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))
    minimal = []
    for g in basis:
        m = lead(g)[0]
        if not any(all(a <= b for a, b in zip(lead(h)[0], m)) for h in minimal):
            minimal = [h for h in minimal
                       if not all(a <= b for a, b in zip(m, lead(h)[0]))] + [g]
    reduced = [monic(normal_form(g, [h for h in minimal if h is not g])) for g in minimal]
    return sorted(reduced, key=lambda g: key(lead(g)[0]))


def _random_ideal(rnd, ctx, nvars):
    gens = []
    for _ in range(rnd.randint(2, 3)):
        g = {}
        for _ in range(rnd.randint(1, 3)):
            m = tuple(rnd.randint(0, 2) for _ in range(nvars))
            c = ctx.from_int(rnd.randint(-4, 4))
            if not c.is_zero():
                g[m] = g[m] + c if m in g else c
        gens.append({m: c for m, c in g.items() if not c.is_zero()})
    return gens


@pytest.mark.parametrize("p", [5, 0])
@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_groebner_basis_matches_reference(rng, p, order):
    ctx = ctx_for(p)
    key = ORDERS[order]
    cases = [_random_ideal(rng, ctx, rng.randint(2, 4)) for _ in range(25)]
    cases.append(build_jets(poly("x^2+y^3+x*y*z", p), 1).generators)
    for gens in cases:
        basis = groebner_basis(gens, order)
        assert basis == reference_groebner(gens, key), gens
        for g in basis:
            # terms in descending order, leading coefficient one
            assert list(g) == sorted(g, key=key, reverse=True)
            assert g[next(iter(g))] == ctx.one()


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
