import random

import pytest
from hypothesis import given, strategies as st

from conftest import ctx_for, poly, random_poly

from slchyp import (CharZero, TriPoly, classify_slc, extension_field, fedder_is_fpure,
                    parse_poly, prime_field)
from slchyp import frobenius
from slchyp.classifier import BRANCHES, Fedder
from slchyp.fields import is_prime
from slchyp.frobenius import monomial_outside_pth_powers

PRIMES_BELOW_40 = [p for p in range(40) if is_prime(p)]
PRIMES_BELOW_200 = [p for p in range(200) if is_prime(p)]

# the fixed models the classifier runs Fedder's test on
MODELS = ("x*y", "x^2+y^2*z^2", "x^3+y^3+x*y*z", "x*y*z", "x*y*z+y^3")

# forms no closed route decides: a quasi-homogeneous cubic without a squared
# variable and dependent exponents, and three that are not quasi-homogeneous
OTHER_FORMS = ("x^3+y^3+z^3+x*y*z", "x^2+y^3", "x^2+y^3+z^5", "x*y+z^3")

# supports of the weighted-homogeneous initial forms the classifier tests:
# weight (3,2,1) and degree 6, and weight (2,1,1) and degree 4; the x*l(y,z)
# cross terms are the second and third (W6) or second to fourth (W211)
W6_SUPPORT = ((2, 0, 0), (1, 1, 1), (1, 0, 3),
              (0, 3, 0), (0, 2, 2), (0, 1, 4), (0, 0, 6))
W211_SUPPORT = ((2, 0, 0), (1, 2, 0), (1, 1, 1), (1, 0, 2),
                (0, 4, 0), (0, 3, 1), (0, 2, 2), (0, 1, 3), (0, 0, 4))


def dense_power(f, e):
    """Independent dense recomputation of f^e by repeated naive products."""
    ctx = f.context
    acc = {(0, 0, 0): ctx.one()}
    for _ in range(e):
        out = {}
        for m1, c1 in acc.items():
            for m2, c2 in f.sorted_terms():
                m = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                out[m] = out[m] + c if m in out else c
        acc = {m: c for m, c in out.items() if not c.is_zero()}
    return TriPoly.make(ctx, acc)


def reduced_power(f, p):
    """f^(p-1) modulo (x^p, y^p, z^p), on raw coefficient payloads: the full
    expansion by repeated naive products, dropping after each product the
    monomials with an exponent >= p (they stay in the monomial ideal)."""
    ops = f.context.ops
    base = [(m, c) for m, c in f.terms.items() if max(m) < p]
    acc = {(0, 0, 0): ops.one}
    for _ in range(p - 1):
        out = {}
        for (a1, b1, c1), u in acc.items():
            for (a2, b2, c2), v in base:
                m = (a1 + a2, b1 + b2, c1 + c2)
                if max(m) < p:
                    out[m] = ops.add(out[m], ops.mul(u, v)) if m in out else ops.mul(u, v)
        acc = {m: c for m, c in out.items() if c != ops.zero}
    return acc


def reference_witness(f):
    """Lexicographically least monomial of f^(p-1) with every exponent at
    most p-1, from the expansion above; None when f^(p-1) is in m^[p]."""
    hits = reduced_power(f, f.context.characteristic)
    return min(hits) if hits else None


def random_element(rnd, ctx, nonzero=False):
    while True:
        c = ctx.from_vector([rnd.randrange(ctx.characteristic)
                             for _ in range(ctx.extension_degree)])
        if not (nonzero and c.is_zero()):
            return c


def random_form(rnd, ctx, support):
    """A form on `support` with a nonzero x^2 coefficient; each other
    coefficient is zero with probability 1/4, so smaller supports occur."""
    terms = {support[0]: random_element(rnd, ctx, nonzero=True)}
    for m in support[1:]:
        if rnd.random() < 0.75:
            terms[m] = random_element(rnd, ctx)
    return TriPoly.make(ctx, terms)


def unit_of_support(f):
    return tuple(int(any(m[i] for m in f.terms)) for i in range(3))


def brute_membership(g, p):
    """g in (x^p, y^p, z^p) iff every monomial has some exponent >= p."""
    return all(any(e >= p for e in m) for m in g.terms)


def test_fpure_xyz_cross_term_p2():
    cert = fedder_is_fpure(poly("x^2+y^3+x*y*z", 2))
    assert cert.is_fpure and cert.witness_monomial == (1, 1, 1)


def test_fpure_y2z2_p3():
    cert = fedder_is_fpure(poly("x^2+y^2*z^2", 3))
    assert cert.is_fpure and cert.witness_monomial == (2, 2, 2)


def test_not_fpure_cusp_p2():
    cert = fedder_is_fpure(poly("x^2+y^3", 2))
    assert not cert.is_fpure and cert.witness_monomial is None


def test_char_zero_raises():
    with pytest.raises(CharZero):
        fedder_is_fpure(poly("x^2+y^3"))


def test_zero_polynomial_raises():
    # k[[x,y,z]]/(0) is regular, hence F-pure; Fedder's test needs f != 0
    with pytest.raises(ValueError):
        fedder_is_fpure(TriPoly.zero(ctx_for(7)))


def test_unit_required_to_vanish():
    with pytest.raises(ValueError):
        fedder_is_fpure(poly("1+x", 2))


def test_acceptance_suite_models():
    for p in (3, 5, 7):
        assert fedder_is_fpure(poly("x^2+y^2*z^2", p)).is_fpure
    assert fedder_is_fpure(poly("x^2+y^3+x*y*z", 2)).is_fpure
    for p in (2, 3):
        assert not fedder_is_fpure(poly("x^2+y^3", p)).is_fpure
    for p in (2, 3, 5, 7, 11):
        assert fedder_is_fpure(poly("x*y*z", p)).is_fpure


def test_witness_against_dense_recomputation():
    cases = [
        ("x^2+y^2*z^2", 3), ("x^2+y^2*z^2", 5),
        ("x^2+y^3+x*y*z", 2), ("x*y*z", 5), ("x^2+y^3", 3),
    ]
    for text, p in cases:
        f = poly(text, p)
        dense = dense_power(f, p - 1)
        cert = fedder_is_fpure(f)
        expected = monomial_outside_pth_powers(dense, p)
        assert cert.witness_monomial == expected
        assert cert.is_fpure == (expected is not None)
        if cert.is_fpure:
            assert all(e <= p - 1 for e in cert.witness_monomial)
            assert not dense.coefficient(cert.witness_monomial).is_zero()


@given(st.integers(min_value=0, max_value=2**31))
def test_membership_matches_brute_force(seed):
    rnd = random.Random(seed)
    p = rnd.choice([2, 3, 5])
    ctx = ctx_for(p)
    g = random_poly(rnd, ctx, max_terms=5, max_exp=2 * p)
    assert (monomial_outside_pth_powers(g, p) is None) == brute_membership(g, p)


@given(st.integers(min_value=0, max_value=2**31))
def test_unit_scaling_invariance(seed):
    rnd = random.Random(seed)
    p = rnd.choice([2, 3, 5])
    ctx = ctx_for(p)
    f = random_poly(rnd, ctx, max_terms=4, max_exp=3)
    f = f - TriPoly.constant(f.coefficient((0, 0, 0)))
    if f.is_zero():
        return
    c = ctx.from_int(rnd.randint(1, p - 1))
    a = fedder_is_fpure(f)
    b = fedder_is_fpure(f.scale(c))
    assert a.is_fpure == b.is_fpure
    assert a.witness_monomial == b.witness_monomial  # supports agree


@given(st.integers(min_value=0, max_value=2**31))
def test_frobenius_consistency(seed):
    rnd = random.Random(seed)
    p = rnd.choice([2, 3])
    ctx = ctx_for(p)
    f = random_poly(rnd, ctx, max_terms=3, max_exp=2)
    power = (f ** (p - 1)) * f
    assert power == f ** p
    # f^p has only exponents divisible by p
    assert all(all(e % p == 0 for e in m) for m in power.terms)


def assert_matches_reference(f):
    cert = fedder_is_fpure(f)
    expected = reference_witness(f)
    assert cert.p == f.context.characteristic
    assert cert.witness_monomial == expected, str(f)
    assert cert.is_fpure == (expected is not None)


@pytest.mark.parametrize("p", PRIMES_BELOW_40)
def test_models_match_the_expansion(p):
    for text in MODELS:
        assert_matches_reference(parse_poly(text, prime_field(p)))


@pytest.mark.parametrize("p", PRIMES_BELOW_40)
def test_other_forms_match_the_expansion(p):
    for text in OTHER_FORMS:
        assert_matches_reference(parse_poly(text, prime_field(p)))


@pytest.mark.parametrize("p", PRIMES_BELOW_40)
def test_weighted_forms_match_the_expansion(p):
    rnd = random.Random(p)
    for ctx in (prime_field(p), extension_field(p, 2)):
        for support in (W6_SUPPORT, W211_SUPPORT):
            assert_matches_reference(random_form(rnd, ctx, support))


def test_weighted_forms_over_f343_match_the_expansion():
    rnd = random.Random(343)
    ctx = extension_field(7, 3)
    for _ in range(8):
        for support in (W6_SUPPORT, W211_SUPPORT):
            assert_matches_reference(random_form(rnd, ctx, support))


def hasse_legendre(lam, p):
    """sum_i C(m,i)^2 lam^i mod p, m = (p-1)/2: zero exactly when the
    Legendre curve y^2 = x(x-1)(x-lam) is supersingular."""
    m = (p - 1) // 2
    total, c = 0, 1  # c = C(m, i) mod p
    for i in range(m + 1):
        total = (total + c * c * pow(lam, i, p)) % p
        c = c * (m - i) * pow(i + 1, -1, p) % p
    return total


@pytest.mark.parametrize("p", PRIMES_BELOW_200)
def test_closed_forms(p):
    """Fedder's verdict against closed forms: the Hasse invariant of the
    Legendre family, and the two diagonal forms with weights summing to
    their degree (one multinomial index, integral iff 6 | p-1, 4 | p-1)."""
    ctx = prime_field(p)
    assert fedder_is_fpure(parse_poly("x^2+y^3+z^6", ctx)).is_fpure == (p % 3 == 1)
    assert fedder_is_fpure(parse_poly("x^2+y^4+z^4", ctx)).is_fpure == (p % 4 == 1)
    if p == 2:
        return
    rnd = random.Random(p)
    roots = [lam for lam in range(p) if hasse_legendre(lam, p) == 0]
    others = [lam for lam in range(p) if hasse_legendre(lam, p) != 0]
    for lam in rnd.sample(roots, min(2, len(roots))) + rnd.sample(others, 2):
        f = parse_poly(f"x^2+y*(y-z^2)*(y-{lam}*z^2)", ctx)
        cert = fedder_is_fpure(f)
        assert cert.is_fpure == (hasse_legendre(lam, p) != 0), lam
        assert cert.witness_monomial == ((p - 1,) * 3 if cert.is_fpure else None)


# rows of the fixture table whose verdict carries a Fedder certificate, one
# or more for every branch with a Fedder step
FEDDER_ROWS = [
    ("x^2+y^2", 3, "quadric:rank2"), ("x^2+y^2", 7, "quadric:rank2"),
    ("x^2+x*y", 2, "quadric:rank2"), ("x^2+x*y+x*z+y*z", 2, "quadric:rank2"),
    ("x^2+y*z", 2, "quadric:rank3"),
    ("x^2+y^3+x*y*z", 2, "w6:fpure"),
    ("x^2+y^2*(y-z^2)", 3, "w6:delta-special"), ("x^2+y^2*(y-z^2)", 7, "w6:delta-special"),
    ("x^2+y*(y-z^2)*(y-z^2)", 5, "w6:delta-special"),
    ("x^2+y^2*z^2", 3, "q:y2z2"), ("x^2+y^2*z^2", 5, "q:y2z2"), ("x^2+y^2*z^2", 7, "q:y2z2"),
    ("x^2+y^2*z*(y+z)", 5, "q:y2z-y+z"),
    ("x^2+x*y*z+y^4", 2, "q:fpure"),
    ("x*y*z", 2, "cone:triangle"), ("x*y*z", 5, "cone:triangle"),
    ("x^3+y^3+x*y*z", 2, "cone:nodal"), ("x^3+y^3+x*y*z", 5, "cone:nodal"),
    ("y*(y^2+x*z)", 3, "cone:conic-transverse"),
]


def test_classifier_certificates_take_a_closed_route(monkeypatch):
    """No polynomial product or power runs inside the classifier's Fedder
    tests (at p = 2 the expansion of f^(p-1) is f itself)."""
    import slchyp.classifier as classifier

    inside = []
    product, power = TriPoly.__mul__, TriPoly.__pow__

    def guarded(original):
        def call(*args):
            assert not inside, "f^(p-1) expanded"
            return original(*args)
        return call

    def spied(f):
        inside.append(f)
        try:
            return fedder_is_fpure(f)
        finally:
            inside.pop()

    monkeypatch.setattr(TriPoly, "__mul__", guarded(product))
    monkeypatch.setattr(TriPoly, "__pow__", guarded(power))
    monkeypatch.setattr(classifier, "fedder_is_fpure", spied)
    with_fedder = {label for label, branch in BRANCHES.items()
                   if any(isinstance(step, Fedder)
                          for recipe in (branch.recipe, *branch.by_char.values())
                          for step in recipe)}
    assert {label for _, _, label in FEDDER_ROWS} == with_fedder
    for text, p, label in FEDDER_ROWS:
        verdict = classify_slc(parse_poly(text, prime_field(p)), p)
        assert verdict.branch_trace[-1] == label
        certs = [c.fedder for c in verdict.certificates if c.fedder is not None]
        assert certs, (text, p)
        for cert in certs:
            assert cert.witness_monomial in (None, (p - 1, p - 1, p - 1), (p - 1, p - 1, 0))


@given(st.integers(min_value=0, max_value=2**31))
def test_non_quasi_homogeneous_input_matches_the_full_expansion(seed):
    rnd = random.Random(seed)
    p = rnd.choice([2, 3, 5])
    ctx = ctx_for(p)
    f = random_poly(rnd, ctx, max_terms=4, max_exp=3)
    f = f - TriPoly.constant(f.coefficient((0, 0, 0)))
    if f.is_zero() or frobenius._is_quasi_homogeneous(f, unit_of_support(f)):
        return
    expected = monomial_outside_pth_powers(dense_power(f, p - 1), p)
    assert fedder_is_fpure(f).witness_monomial == expected


@pytest.mark.parametrize("text,expected", [
    ("x", True), ("x*y", True), ("x^2+y^2", True), ("x^2+y^2*z^2", True),
    ("x*y*z+y^3", True), ("x^3+y^3+z^3+x*y*z", True), ("x^2+y^3+x*y*z", True),
    ("x^2", False), ("x^2+y^3", False), ("x^2*y", False), ("x^2+y^3+z^5", False),
    ("x*y+z", False), ("x*y+z^3", False), ("x^2*y+z^3", True),
])
def test_quasi_homogeneity(text, expected):
    f = poly(text, 7)
    assert frobenius._is_quasi_homogeneous(f, unit_of_support(f)) == expected


def test_recurrence_memory_does_not_grow_with_p():
    """The Legendre form needs the O(p) recurrence; it keeps only the last
    deg g coefficients, so p ~ 10^4 allocates a few kilobytes, not one
    payload per step."""
    import tracemalloc

    p = 10007
    f = parse_poly("x^2+y*(y-z^2)*(y-3*z^2)", prime_field(p))
    tracemalloc.start()
    try:
        cert = fedder_is_fpure(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.is_fpure == (hasse_legendre(3, p) != 0)
    assert peak < 100_000
