import random

import pytest
from hypothesis import given, strategies as st

from conftest import ctx_for, poly, random_poly

from slchyp import CharZero, TriPoly, fedder_is_fpure
from slchyp.frobenius import monomial_outside_pth_powers


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
