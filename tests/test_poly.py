from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import ctx_for, poly, random_poly

from slchyp import (
    CoefficientError,
    NonLocalSubstitution,
    PolySyntaxError,
    RATIONALS,
    TriPoly,
    Weight,
    is_squarefree,
    parse_poly,
    prime_field,
)
from slchyp.fields import FieldElement, extension_field
from slchyp import fields as fields_module, poly as poly_module
from slchyp.poly import divide_exact, tri_gcd

import random


# -- parser ------------------------------------------------------------------


def test_parse_direct_reading():
    f = poly("x^2 + y^3", 2)
    assert f.terms == {(2, 0, 0): 1, (0, 3, 0): 1}


def test_parse_cancellation():
    assert poly("3*x - 3*x").is_zero()


def test_parse_char2_reduction():
    assert poly("2*y^2*z", 2).is_zero()


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(PolySyntaxError) as err:
        poly("2x")
    assert err.value.position == 1


def test_parse_reports_expected_tokens():
    with pytest.raises(PolySyntaxError) as err:
        poly("x^")
    assert "integer" in " ".join(err.value.expected)


def test_parse_fraction_coefficients():
    f = poly("1/2*x + 3/4")
    assert str(f.coefficient((1, 0, 0))) == "1/2"
    assert str(f.coefficient((0, 0, 0))) == "3/4"


def test_parse_char_divides_denominator():
    with pytest.raises(CoefficientError):
        poly("1/2*x", 2)


def test_parse_parenthesized():
    f = poly("y*(y-z^2)*(y-3*z^2)", 7)
    assert f == poly("y^3+3*y^2*z^2+3*y*z^4", 7)


@given(st.integers(min_value=0, max_value=2**31))
def test_parse_print_roundtrip_random(seed):
    rnd = random.Random(seed)
    for p in (0, 5):
        ctx = ctx_for(p)
        f = random_poly(rnd, ctx)
        assert parse_poly(str(f), ctx) == f


# -- weighted structure --------------------------------------------------------


def test_ord_w_examples():
    assert poly("x^2+y^3+z^5").ord_w((1, 1, 1)) == 2
    assert poly("x^2+y^3+y^2*z+z^4").ord_w((3, 2, 2)) == 6
    assert poly("x^2+y^3").ord_w((21, 14, 6)) == 42
    assert TriPoly.zero(RATIONALS).ord_w((1, 1, 1)) == float("inf")


def test_in_w_examples():
    f = poly("x^2+y^3+y^2*z+z^4")
    assert f.in_w((3, 2, 2)) == poly("x^2+y^3+y^2*z")
    assert poly("x^2+y^3").in_w((1, 1, 1)) == poly("x^2")
    g = poly("x^2+y^2*z")  # (3,2,2)-homogeneous of weight 6
    assert g.in_w((3, 2, 2)) == g


def test_weight_validation():
    with pytest.raises(ValueError):
        Weight.of((0, 0, 0))
    with pytest.raises(ValueError):
        Weight.of((-1, 2, 1))
    f = poly("x^2+y^3")
    for w in ((0, 0, 0), (-1, 2, 1)):
        with pytest.raises(ValueError):
            f.in_w(w)
        with pytest.raises(ValueError):
            f.ord_w(w)


def test_weights_are_not_revalidated(monkeypatch):
    from slchyp.normalize.quartic import W211
    from slchyp.normalize.steps import W2

    f = poly("x^2+y^3+y^2*z^2+z^7")
    expected = [(f.in_w(w), f.ord_w(w)) for w in (W2, W211)]

    def revalidated(w):
        raise AssertionError("Weight.of called on a Weight")

    monkeypatch.setattr(Weight, "of", staticmethod(revalidated))
    assert [(f.in_w(w), f.ord_w(w)) for w in (W2, W211)] == expected


@given(st.integers(min_value=0, max_value=2**31))
def test_ord_and_in_multiplicativity(seed):
    rnd = random.Random(seed)
    for p in (0, 2, 5):
        ctx = ctx_for(p)
        f = random_poly(rnd, ctx)
        g = random_poly(rnd, ctx)
        w = tuple(rnd.randint(0, 4) for _ in range(3))
        if not any(w):
            w = (1, 1, 1)
        assert (f * g).ord_w(w) == f.ord_w(w) + g.ord_w(w)
        assert (f * g).in_w(w) == f.in_w(w) * g.in_w(w)


@given(st.integers(min_value=0, max_value=2**31))
def test_in_w_idempotence(seed):
    rnd = random.Random(seed)
    ctx = ctx_for(3)
    f = random_poly(rnd, ctx)
    w = tuple(rnd.randint(1, 5) for _ in range(3))
    assert f.in_w(w).in_w(w) == f.in_w(w)


# -- substitution ---------------------------------------------------------------


def test_substitute_identity():
    f = poly("x^2*y")
    imgs = [TriPoly.variable(RATIONALS, i) for i in range(3)]
    assert f.substitute(imgs) == f


def test_substitute_binomial_oracle():
    # hand-expanded oracle: (y - z^2)^3 = y^3 - 3y^2z^2 + 3yz^4 - z^6,
    # so y^3 + z^6 maps to y^3 - 3y^2z^2 + 3yz^4
    f = poly("y^3+z^6")
    imgs = [
        TriPoly.variable(RATIONALS, 0),
        poly("y-z^2"),
        TriPoly.variable(RATIONALS, 2),
    ]
    assert f.substitute(imgs) == poly("y^3-3*y^2*z^2+3*y*z^4")


def test_substitute_char2_elimination():
    f = poly("x^2+y^4", 2)
    imgs = [poly("x+y^2", 2), poly("y", 2), poly("z", 2)]
    assert f.substitute(imgs) == poly("x^2", 2)


def test_substitute_rejects_constant_terms():
    f = poly("x")
    with pytest.raises(NonLocalSubstitution):
        f.substitute([poly("x+1"), poly("y"), poly("z")])


def test_substitute_multiplies_only_image_powers(monkeypatch):
    # coefficients go straight into one sum: no product has a constant
    # factor and no TriPoly sum is formed per term
    f = poly("3*x^2*y+5*y*z^3-x^4+2*x*y*z+7*z")
    imgs = [poly("x+y^2"), poly("y-z^2"), poly("z+x*y")]
    expected = f.substitute(imgs)
    products, original = [], TriPoly.__mul__

    def recorded(a, b):
        products.append((a.total_degree(), b.total_degree()))
        return original(a, b)

    def no_sum(a, b):
        raise AssertionError("substitute formed a TriPoly sum")

    monkeypatch.setattr(TriPoly, "__mul__", recorded)
    monkeypatch.setattr(TriPoly, "__add__", no_sum)
    assert f.substitute(imgs) == expected
    assert products and all(min(ds) > 0 for ds in products)


@given(st.integers(min_value=0, max_value=2**31))
def test_substitute_is_ring_homomorphism(seed):
    rnd = random.Random(seed)
    for p in (0, 2, 7):
        ctx = ctx_for(p)
        f = random_poly(rnd, ctx, max_terms=4, max_exp=3)
        g = random_poly(rnd, ctx, max_terms=4, max_exp=3)
        imgs = []
        for i in range(3):
            img = random_poly(rnd, ctx, max_terms=3, max_exp=2, nonzero=False)
            img = img - TriPoly.constant(img.coefficient((0, 0, 0)))
            imgs.append(img)
        lhs_add = (f + g).substitute(imgs)
        assert lhs_add == f.substitute(imgs) + g.substitute(imgs)
        lhs_mul = (f * g).substitute(imgs)
        assert lhs_mul == f.substitute(imgs) * g.substitute(imgs)


# -- gcd / squarefree -------------------------------------------------------------


def test_is_squarefree_examples():
    assert not is_squarefree(poly("x^2*y"))
    assert is_squarefree(poly("x*y*z"))
    # oracle: (x + yz)^2 expands to x^2 + y^2 z^2 modulo 2
    sq = poly("x+y*z", 2) * poly("x+y*z", 2)
    assert sq == poly("x^2+y^2*z^2", 2)
    assert not is_squarefree(poly("x^2+y^2*z^2", 2))
    assert is_squarefree(poly("x^2+y^2*z^2"))


def test_modular_screen_stops_at_the_first_good_prime(monkeypatch):
    # A non-squarefree f has no squarefree reduction, so the screen reduces
    # it once and leaves the verdict to the exact gcd.
    c = poly("0 - 8*x^2 - x*y + 2*y^2*z")
    a = poly("8*z - 7*y*z^2 + 8*x^2*y^2*z^2")
    reduced_at = []
    original = fields_module.prime_field

    def recorded(p):
        reduced_at.append(p)
        return original(p)

    monkeypatch.setattr(fields_module, "prime_field", recorded)
    assert not poly_module._squarefree_modular_screen(c * c * a)
    assert reduced_at == [10007]
    # a prime that lowers the total degree is passed over
    reduced_at.clear()
    assert poly_module._squarefree_modular_screen(poly("10007*x^3 + y^2 + z^2"))
    assert reduced_at == [10007, 10009]


def test_is_squarefree_pth_power_detection():
    assert not is_squarefree(poly("x^3+y^3", 3))  # (x+y)^3
    assert is_squarefree(poly("x^3+y^3", 5))


def test_tri_gcd_recovers_common_factor():
    a = poly("(x+y)*(x+z)")
    b = poly("(x+y)*(y+z)")
    assert tri_gcd(a, b) == poly("x+y")


def test_divide_exact():
    f = poly("(x+y)*(x+y)*(y+2*z)")
    assert divide_exact(f, poly("x+y")) == poly("(x+y)*(y+2*z)")
    with pytest.raises(ArithmeticError):
        divide_exact(poly("x^2+y"), poly("x+y"))


@given(st.integers(min_value=0, max_value=2**31))
def test_gcd_of_random_products(seed):
    rnd = random.Random(seed)
    ctx = ctx_for(5)
    common = random_poly(rnd, ctx, max_terms=2, max_exp=2)
    a = common * random_poly(rnd, ctx, max_terms=2, max_exp=2)
    b = common * random_poly(rnd, ctx, max_terms=2, max_exp=2)
    g = tri_gcd(a, b)
    # the common factor divides the gcd, and the gcd divides both inputs
    assert divide_exact(g, common) * common == g
    assert divide_exact(a, g) * g == a
    assert divide_exact(b, g) * g == b


PINNED_FIELDS = {
    "Q": RATIONALS, "F2": prime_field(2), "F5": prime_field(5),
    "F10007": prime_field(10007), "F9": extension_field(3, 2),
}

# per field, three seeded (a, b, c): str(tri_gcd(a*c, b*c)),
# str(divide_exact(a*c, c)), is_squarefree(c*c*a), is_squarefree(a*b),
# as printed by the earlier recursive dense gcd
PINNED_GCDS = {
    "Q": [
        ("x^2*y + x*y^2*z^2", "2*y + 5*y*z - 2*y*z^2", False, False),
        ("x*y*z - 4/5*y^2*z", "0 - y^2*z + 5*y*z^2 - 3*x*y^2*z", False, False),
        ("y^2*z + 3/5*y*z^2", "0 - x^2*y^2 + 3*x^2*y^2*z + 3*x^2*y*z^2", False, False),
    ],
    "F2": [
        ("z + x^2*z + x^2*y^2*z^3", "x^2*z", False, False),
        ("x^2*y + y*z^2", "y*z + x^2*y*z", False, False),
        ("x^2*z + x*z^2", "x^2*y", False, False),
    ],
    "F5": [
        ("3*x*y*z^3 + x^2*y^3*z^3", "2*y*z^2 + y^2*z^2", False, False),
        ("x*y*z", "3*y^2 + 4*x*z^2 + 2*y*z^2", False, True),
        ("x^2*y^3*z^2", "x*y + 4*y*z^2", False, False),
    ],
    "F10007": [
        ("8647*x^2*y^2 + 839*x^2*y*z^2 + x^2*y^2*z^2", "6633 + 3982*y^2*z", False, False),
        ("3615*y + x^2*z + 4125*x*y^2", "9396*x + 4567*x*y*z^2", False, True),
        ("1516*y^2*z^2 + x^2*y*z^2", "350*x^2*z + 3663*x^2*y^2*z", False, False),
    ],
    "F9": [
        ("x*y^2 + (u)*y^2*z^2", "(2*u)*x^2*z^2", False, False),
        ("(2+2*u)*x + (1+2*u)*x^2*z^2 + x^2*y^2*z^2", "(2+u)*x*y", False, True),
        ("(2+2*u)*y^3*z + x^2*y*z^2 + (2+u)*x*y^3*z", "x*y + (2+2*u)*y*z^2", False, False),
    ],
}


def _pinned_poly(rnd, ctx):
    """Two or three terms of degree at most 2 in each variable, nonconstant."""
    while True:
        terms = {}
        for _ in range(rnd.randint(2, 3)):
            m = tuple(rnd.randint(0, 2) for _ in range(3))
            if ctx.is_rational:
                terms[m] = ctx.from_int(rnd.randint(-5, 5))
            else:
                terms[m] = ctx.from_vector([rnd.randrange(ctx.characteristic)
                                            for _ in range(ctx.extension_degree)])
        f = TriPoly.make(ctx, terms)
        if f.total_degree() > 0:
            return f


@pytest.mark.parametrize("name", sorted(PINNED_GCDS))
def test_gcd_results_are_pinned(name):
    ctx = PINNED_FIELDS[name]
    rnd = random.Random(f"pinned:{name}")
    for expected in PINNED_GCDS[name]:
        a, b, c = (_pinned_poly(rnd, ctx) for _ in range(3))
        got = (str(tri_gcd(a * c, b * c)), str(divide_exact(a * c, c)),
               is_squarefree(c * c * a), is_squarefree(a * b))
        assert got == expected
        # c is nonconstant, so it does not divide a*c + 1
        with pytest.raises(ArithmeticError):
            divide_exact(a * c + TriPoly.constant(ctx.one()), c)


def test_divide_exact_fails_fast_past_the_degree_bound():
    # lex division of x^40 by x - y^2 would run through x^39, x^38*y^2, ...;
    # x^38*y^2 has degree 40 > 40 - 1, so the quotient cannot be a polynomial
    with pytest.raises(ArithmeticError):
        divide_exact(poly("x^40"), poly("x-y^2"))


PAYLOAD_FIELDS = {
    "Q": (RATIONALS, Fraction), "F2": (prime_field(2), int), "F5": (prime_field(5), int),
    "F7": (prime_field(7), int), "F4": (extension_field(2, 2), tuple),
}


@pytest.mark.parametrize("name", sorted(PAYLOAD_FIELDS))
def test_terms_hold_nonzero_payloads(name):
    # terms store the raw payloads of ctx.ops and never a zero one; the
    # scalar API still hands out FieldElements
    ctx, kind = PAYLOAD_FIELDS[name]
    zero = ctx.zero().payload
    rnd = random.Random(f"payloads:{name}")
    for _ in range(20):
        f = _pinned_poly(rnd, ctx).scale(ctx.from_fraction(1, 3))
        g = _pinned_poly(rnd, ctx)
        images = [_pinned_poly(rnd, ctx) * TriPoly.variable(ctx, i) for i in range(3)]
        assert (f - f).terms == {} and divide_exact(f * g, g) == f
        results = [f, g, f * g, f.substitute(images), divide_exact(f * g, g)]
        results += [f.derivative(i) for i in range(3)]
        for h in results:
            assert all(type(c) is kind and c != zero for c in h.terms.values())
        for m, c in f.sorted_terms():
            assert type(c) is FieldElement and c == FieldElement(ctx, f.terms[m])
            assert f.coefficient(m) == c
    assert poly("x^2", 7).coefficient((0, 1, 0)) == prime_field(7).zero()
