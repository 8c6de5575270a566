import copy
import itertools
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from slchyp import CoefficientError, FieldContext, RATIONALS, extension_field, prime_field
from slchyp.fields import MAX_EXTENSION_DEGREE, FieldElement, is_prime
from slchyp.unipoly import (
    UniPoly,
    _irreducible_binomial,
    canonical_irreducible,
    extend_context,
    poly_is_irreducible,
)

# (p, n) of the extension fields the kernel is checked on, up to F_{7^9}
KERNEL_FIELDS = [(2, 8), (3, 5), (5, 6), (7, 9), (127, 2)]


def test_rational_elements_are_reduced_fractions():
    a = RATIONALS.from_fraction(6, -4)
    assert a.payload == Fraction(-3, 2)
    assert a.payload.denominator == 2  # positive denominator


def test_prime_field_arithmetic():
    F7 = prime_field(7)
    a, b = F7.from_int(5), F7.from_int(4)
    assert a * b == F7.from_int(6)
    assert a + b == F7.from_int(2)
    assert a - b == F7.from_int(1)
    assert a / b == F7.from_int(3)  # 5 * 4^{-1} = 5*2 = 10 = 3
    assert (a.inverse() * a).is_one()


def test_characteristic_must_be_prime():
    with pytest.raises(ValueError):
        FieldContext(6)


def test_extension_field_canonical_modulus():
    F4 = extension_field(2, 2)
    assert F4.modulus == (1, 1, 1)  # t^2 + t + 1
    u = F4.generator()
    assert (u * u + u + F4.one()).is_zero()
    assert (u.inverse() * u).is_one()


def test_extension_inverse_high_degree():
    F27 = extension_field(3, 3)
    for k in range(1, 27):
        vec = (k % 3, (k // 3) % 3, (k // 9) % 3)
        e = F27.from_vector(vec)
        if e.is_zero():
            continue
        assert (e * e.inverse()).is_one()


def test_pth_root_is_inverse_frobenius():
    F8 = extension_field(2, 3)
    for e in F8.elements():
        assert (e.pth_root() ** 2) == e


def test_canonical_irreducible_is_irreducible():
    for p, d in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]:
        m = canonical_irreducible(p, d)
        assert len(m) == d + 1 and m[-1] == 1
        assert poly_is_irreducible(m, p)
    assert poly_is_irreducible((3, 1), 5)  # every monic linear polynomial
    assert not poly_is_irreducible((1, 0, 1), 2)  # t^2 + 1 = (t + 1)^2



# canonical_irreducible(p, d) as recorded when the scan still ran on F_p[t] int
# lists (and, for (10007, 3) and (10007, 4), where no binomial is irreducible,
# as the full Rabin scan found them); a change here changes every report over
# that field.
CANONICAL_MODULI = {
    (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1), (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1), (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1), (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1), (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1), (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
    (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1), (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1), (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 7): (1, 1, 0, 0, 0, 0, 0, 1), (5, 8): (2, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 9): (3, 2, 1, 0, 0, 0, 0, 0, 0, 1),
    (7, 2): (1, 0, 1), (7, 3): (2, 0, 0, 1), (7, 4): (1, 1, 0, 0, 1),
    (7, 5): (3, 1, 0, 0, 0, 1), (7, 6): (2, 0, 0, 0, 0, 0, 1),
    (7, 7): (1, 6, 0, 0, 0, 0, 0, 1), (7, 8): (3, 1, 0, 0, 0, 0, 0, 0, 1),
    (7, 9): (2, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (11, 2): (1, 0, 1), (11, 3): (4, 1, 0, 1), (11, 4): (2, 1, 0, 0, 1),
    (11, 5): (2, 0, 0, 0, 0, 1), (11, 6): (2, 1, 0, 0, 0, 0, 1),
    (11, 7): (4, 1, 0, 0, 0, 0, 0, 1), (11, 8): (4, 1, 0, 0, 0, 0, 0, 0, 1),
    (11, 9): (5, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (13, 2): (2, 0, 1), (13, 3): (2, 0, 0, 1), (13, 4): (2, 0, 0, 0, 1),
    (13, 5): (2, 4, 0, 0, 0, 1), (13, 6): (2, 0, 0, 0, 0, 0, 1),
    (13, 7): (2, 3, 0, 0, 0, 0, 0, 1), (13, 8): (2, 0, 0, 0, 0, 0, 0, 0, 1),
    (13, 9): (2, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (101, 2): (2, 0, 1), (101, 3): (1, 1, 0, 1), (101, 4): (2, 0, 0, 0, 1),
    (103, 2): (1, 0, 1), (103, 3): (2, 0, 0, 1), (103, 4): (5, 1, 0, 0, 1),
    (107, 2): (1, 0, 1), (107, 3): (1, 1, 0, 1), (107, 4): (2, 1, 0, 0, 1),
    (109, 2): (2, 0, 1), (109, 3): (3, 0, 0, 1), (109, 4): (2, 0, 0, 0, 1),
    (113, 2): (3, 0, 1), (113, 3): (1, 1, 0, 1), (113, 4): (3, 0, 0, 0, 1),
    (127, 2): (1, 0, 1), (127, 3): (3, 0, 0, 1), (127, 4): (3, 1, 0, 0, 1),
    (10009, 2): (7, 0, 1), (10009, 3): (3, 0, 0, 1), (10009, 4): (7, 0, 0, 0, 1),
    (10007, 2): (1, 0, 1), (10007, 3): (1, 1, 0, 1), (10007, 4): (6, 1, 0, 0, 1),
    # as Rabin's test found it, before the scan used Ben-Or's
    (10007, 32): (55, 1) + (0,) * 30 + (1,),
}


def test_serret_criterion_matches_rabin_on_binomials():
    for p in (2, 3, 5, 7, 11, 13, 17, 29, 31, 37, 41):
        for d in range(2, 9):
            rabin = next((c for c in range(1, p)
                          if poly_is_irreducible((c,) + (0,) * (d - 1) + (1,), p)), None)
            assert _irreducible_binomial(p, d) == rabin, (p, d)


def test_modulus_scan_past_the_binomials_is_lazy():
    # p = 10^9 + 7 = 2 (mod 3): no t^3 + c is irreducible, and the scan goes
    # on at c_1 = 1 without building a range(p) pool
    p = 1000000007
    m = canonical_irreducible(p, 3)
    assert m[1:] == (1, 0, 1) and poly_is_irreducible(m, p)
    assert not any(poly_is_irreducible((c, 1, 0, 1), p) for c in range(m[0]))


def test_canonical_moduli_are_pinned():
    for (p, d), modulus in CANONICAL_MODULI.items():
        assert canonical_irreducible(p, d) == modulus, (p, d)
    assert extension_field(7, 3).modulus == CANONICAL_MODULI[7, 3]


# canonical_irreducible(p, d) past the binomials, with the pow_mod calls its
# scan makes (recorded when Ben-Or's test had a loop of its own): the test
# must stop at the first common factor of each rejected candidate
MODULUS_SEARCH_POW_MODS = {
    (7, 4): ((1, 1, 0, 0, 1), 3),
    (3, 5): ((1, 2, 0, 0, 0, 1), 6),
    (2, 8): ((1, 1, 0, 1, 1, 0, 0, 0, 1), 41),
    (10007, 3): ((1, 1, 0, 1), 2),
    (101, 6): ((3, 1, 0, 0, 0, 0, 1), 8),
    (5, 9): ((3, 2, 1, 0, 0, 0, 0, 0, 0, 1), 56),
    (127, 12): ((30, 1) + (0,) * 10 + (1,), 58),
    (13, 7): ((2, 3, 0, 0, 0, 0, 0, 1), 37),
}


def test_modulus_search_takes_the_pinned_powers(monkeypatch):
    calls = [0]
    original = UniPoly.pow_mod

    def counted(self, e, mod):
        calls[0] += 1
        return original(self, e, mod)

    monkeypatch.setattr(UniPoly, "pow_mod", counted)
    for (p, d), (modulus, pow_mods) in MODULUS_SEARCH_POW_MODS.items():
        calls[0] = 0
        assert canonical_irreducible(p, d) == modulus, (p, d)
        assert calls[0] == pow_mods, (p, d)


def _has_monic_factor(m, d):
    """Brute force: some monic polynomial of degree 1..d//2 divides m."""
    ctx = m.context
    p = ctx.characteristic
    for k in range(1, d // 2 + 1):
        for low in itertools.product(range(p), repeat=k):
            if m.divmod(UniPoly.from_ints(ctx, low + (1,)))[1].is_zero():
                return True
    return False


@pytest.mark.parametrize("p,degrees", [(2, range(2, 7)), (3, range(2, 5)), (5, range(2, 5))])
def test_irreducibility_matches_brute_force(p, degrees):
    ctx = prime_field(p)
    for d in degrees:
        for low in itertools.product(range(p), repeat=d):
            coeffs = low + (1,)
            m = UniPoly.from_ints(ctx, coeffs)
            assert poly_is_irreducible(coeffs, p) == (not _has_monic_factor(m, d)), coeffs


def test_extension_degree_below_one_fails_fast():
    for degree in (0, -1):
        with pytest.raises(ValueError):
            extension_field(7, degree)


def test_extension_degree_above_the_bound_fails_fast():
    for degree in (MAX_EXTENSION_DEGREE + 1, 5000):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            extension_field(7, degree)
        assert time.perf_counter() - start < 0.1
    with pytest.raises(ValueError):
        extend_context(extension_field(3, 3), MAX_EXTENSION_DEGREE)


def test_classifier_degrees_sit_well_inside_the_bound():
    # degree 9 is the largest the classifier reaches on coordinate_changes
    assert 3 * 9 <= MAX_EXTENSION_DEGREE
    assert extension_field(7, 9).extension_degree == 9


def test_element_enumeration_is_lexicographic():
    F4 = extension_field(2, 2)
    seq = [e.payload for e in F4.elements()]
    assert seq == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_coefficient_error_when_denominator_divisible_by_p():
    F3 = prime_field(3)
    with pytest.raises(CoefficientError):
        F3.from_fraction(1, 6)
    assert F3.from_fraction(1, 2) == F3.from_int(2)  # 2^{-1} = 2 mod 3


def test_prime_field_payloads_are_ints_and_serialize_as_one_entry_lists():
    F7, F49 = prime_field(7), extension_field(7, 2)
    a, b = F7.from_int(5), F7.from_int(4)
    built = [a, b, a * b, a + b, a - b, -a, a.inverse(), a / b, a ** 3,
             F7.from_int(-2), F7.from_fraction(1, 3), F7.from_vector((12, 0)),
             F7.zero(), F7.one(), *F7.elements()]
    for e in built:
        assert type(e.payload) is int and 0 <= e.payload < 7
        assert e.to_json() == [e.payload] and str(e) == str(e.payload)
    assert a.to_json() == [5] and F7.from_fraction(1, 3).to_json() == [5]
    # the extension field keeps its coefficient vectors
    assert F49.from_int(5).payload == (5, 0) and F49.from_int(5).to_json() == [5, 0]


def test_from_json_inverts_to_json():
    F4 = extension_field(2, 2)
    built = [RATIONALS.from_fraction(-3, 2), RATIONALS.from_int(7), RATIONALS.zero(),
             *prime_field(7).elements(), *F4.elements()]
    for e in built:
        assert e.context.from_json(e.to_json()) == e
    for bad in ("3/", "1/2/3", "x"):
        with pytest.raises(ValueError):
            RATIONALS.from_json(bad)
    with pytest.raises(CoefficientError):
        RATIONALS.from_json("1/0")


@given(st.integers(min_value=-40, max_value=40), st.integers(min_value=-40, max_value=40))
def test_rational_field_laws(a, b):
    x = RATIONALS.from_int(a)
    y = RATIONALS.from_int(b)
    assert (x + y) == (y + x)
    assert (x * y) == (y * x)
    if not y.is_zero():
        assert ((x / y) * y) == x


@given(st.integers(min_value=0, max_value=48), st.integers(min_value=0, max_value=48))
def test_f49_field_laws(i, j):
    F49 = extension_field(7, 2)
    x = F49.from_vector((i % 7, i // 7))
    y = F49.from_vector((j % 7, j // 7))
    assert (x + y) == (y + x)
    assert (x * y) == (y * x)
    assert x * (y + F49.one()) == x * y + x


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 101, 65537]
    composites = [0, 1, 4, 9, 91, 561, 65536]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


PSI_12 = 399165290221 * 798330580441  # the bases up to 37 all pass it
PSI_13 = 1287836182261 * 2575672364521  # the bases up to 41 all pass it


def test_is_prime_is_exact_below_psi_13():
    assert PSI_12 == 318665857834031151167461 and not is_prime(PSI_12)
    assert is_prime(2**61 - 1) and is_prime(2**79 - 67)
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        is_prime(PSI_13)


# -- the extension-field kernel against a naive reference -----------------


def _ref_mul(a, b, modulus, p):
    """Naive convolution, then long division by the monic modulus."""
    n = len(modulus) - 1
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        for i, m in enumerate(modulus):
            prod[k - n + i] = (prod[k - n + i] - c * m) % p
    return tuple(prod[:n])


def _ref_inverse(a, modulus, p):
    """a^(q-2) by square-and-multiply on _ref_mul."""
    n = len(modulus) - 1
    result, base, e = (1,) + (0,) * (n - 1), a, p ** n - 2
    while e:
        if e & 1:
            result = _ref_mul(result, base, modulus, p)
        base = _ref_mul(base, base, modulus, p)
        e >>= 1
    return result


@pytest.mark.parametrize("p,n", KERNEL_FIELDS)
def test_kernel_matches_reference(p, n):
    F = extension_field(p, n)
    rng = random.Random(p * 100 + n)
    vectors = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(60)]
    # extremes: zero, one, the generator, and the all-(p-1) vector
    vectors += [(0,) * n, (1,) + (0,) * (n - 1), (0, 1) + (0,) * (n - 2), (p - 1,) * n]
    for a, b in zip(vectors, vectors[1:] + vectors[:1]):
        assert (F.from_vector(a) * F.from_vector(b)).payload == _ref_mul(a, b, F.modulus, p)
    for a in vectors[::4] + vectors[-3:]:
        if any(a):
            assert F.from_vector(a).inverse().payload == _ref_inverse(a, F.modulus, p)


@st.composite
def _kernel_elements(draw, count):
    p, n = draw(st.sampled_from(KERNEL_FIELDS))
    F = extension_field(p, n)
    vec = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    return [F.from_vector(draw(vec)) for _ in range(count)]


@given(_kernel_elements(3))
def test_kernel_ring_laws(elts):
    a, b, c = elts
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(_kernel_elements(1))
def test_kernel_inverse(elts):
    (a,) = elts
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert (a * a.inverse()).is_one()
        assert a * a.inverse() == a.context.one()


def test_contexts_are_shared():
    assert extension_field(5, 6) is extension_field(5, 6)
    assert prime_field(7) is prime_field(7)
    assert extension_field(7, 1) is prime_field(7)


def test_distinct_moduli_of_one_degree_do_not_mix():
    canonical = extension_field(3, 2)
    other = FieldContext(3, 2, (2, 1, 1))  # t^2 + t + 2, also irreducible
    assert canonical.modulus != other.modulus and poly_is_irreducible(other.modulus, 3)
    assert canonical != other
    a, b = canonical.generator(), other.generator()
    assert a != b
    for op in (lambda x, y: x * y, lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(ValueError):
            op(a, b)


def test_separately_built_equal_contexts_agree():
    shared = extension_field(5, 2)
    fresh = FieldContext(5, 2, canonical_irreducible(5, 2))
    assert fresh is not shared and fresh == shared and hash(fresh) == hash(shared)
    a, b = shared.from_vector((3, 4)), fresh.from_vector((3, 4))
    assert a == b and hash(a) == hash(b)
    assert a * b == a * a and len({a, b, FieldElement(fresh, (3, 4))}) == 1
    assert FieldContext(11).from_int(3) == prime_field(11).from_int(3)
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(shared) == shared


# -- the payload record and the element operators against references --------

PAYLOAD_FIELDS = [(0, 1), (7, 1), (3, 2), (101, 4)]


def _payload_field(p, n):
    return RATIONALS if p == 0 else extension_field(p, n)


def _seeded_elements(ctx, rng, count):
    if ctx.is_rational:
        return [ctx.from_fraction(rng.randint(-60, 60), rng.randint(1, 60)) for _ in range(count)]
    p, n = ctx.characteristic, ctx.extension_degree
    return [ctx.from_vector([rng.randrange(p) for _ in range(n)]) for _ in range(count)]


def _reference_arithmetic(ctx):
    """(add, sub, neg, mul, inverse) on payloads, written independently of
    ctx.ops: Fraction arithmetic over Q, ints mod p over F_p, and
    coefficientwise sums with _ref_mul/_ref_inverse over F_{p^n}."""
    p, n = ctx.characteristic, ctx.extension_degree
    if p == 0:
        return (lambda a, b: a + b, lambda a, b: a - b, lambda a: -a,
                lambda a, b: a * b, lambda a: Fraction(1) / a)
    if n == 1:
        return (lambda a, b: (a + b) % p, lambda a, b: (a - b) % p, lambda a: (p - a) % p,
                lambda a, b: a * b % p, lambda a: pow(a, -1, p))
    return (lambda a, b: tuple((x + y) % p for x, y in zip(a, b)),
            lambda a, b: tuple((x - y) % p for x, y in zip(a, b)),
            lambda a: tuple((p - x) % p for x in a),
            lambda a, b: _ref_mul(a, b, ctx.modulus, p),
            lambda a: _ref_inverse(a, ctx.modulus, p))


@pytest.mark.parametrize("p,n", PAYLOAD_FIELDS)
def test_payload_record_agrees_with_field_elements(p, n):
    ctx = _payload_field(p, n)
    ops = ctx.ops
    add, sub, neg, mul, inverse = _reference_arithmetic(ctx)
    kind = Fraction if p == 0 else int if n == 1 else tuple
    elements = _seeded_elements(ctx, random.Random(41 * p + n), 20) + [ctx.zero(), ctx.one()]
    assert ops.zero == ctx.zero().payload and ops.one == ctx.one().payload
    assert ctx.zero().is_zero() and ctx.one().is_one()
    for k in (-3, 0, 1, 5, 1000):
        expected = Fraction(k) if p == 0 else k % p if n == 1 else (k % p,) + (0,) * (n - 1)
        assert ops.from_int(k) == expected and ctx.from_int(k).payload == expected
    for a in elements:
        x = a.payload
        assert type(x) is kind
        assert ops.neg(x) == neg(x) and (-a).payload == neg(x)
        if not a.is_zero():
            assert ops.inverse(x) == inverse(x) and a.inverse().payload == inverse(x)
        for b in elements:
            y = b.payload
            assert ops.add(x, y) == add(x, y) and (a + b).payload == add(x, y)
            assert ops.sub(x, y) == sub(x, y) and (a - b).payload == sub(x, y)
            assert ops.mul(x, y) == mul(x, y) and (a * b).payload == mul(x, y)


def test_irreducibility_test_stops_at_the_first_common_factor(monkeypatch):
    # one p-th power per step: a candidate with a root in F_p is rejected
    # after the first, an irreducible one of degree 32 takes 16
    exponents = []
    original = UniPoly.pow_mod

    def recorded(self, e, mod):
        exponents.append(e)
        return original(self, e, mod)

    monkeypatch.setattr(UniPoly, "pow_mod", recorded)
    p = 10007
    assert not poly_is_irreducible((p - 2, 1) + (0,) * 30 + (1,), p)  # t = 1 is a root
    assert exponents == [p]
    exponents.clear()
    assert poly_is_irreducible(CANONICAL_MODULI[p, 32], p)
    assert exponents == [p] * 16
