import hashlib
import math
import pathlib
import random
import time
import types
from fractions import Fraction

import pytest

from slchyp import NeedsAlgebraicExtension, RATIONALS, classify_mld, extension_field, prime_field
from slchyp import unipoly
from slchyp.fields import FieldElement, identity_embedding
from slchyp.parse import parse_poly
from slchyp.unipoly import UniPoly, extend_context, find_roots, nth_root, poly_is_irreducible


def up(ctx, ints):
    return UniPoly.from_ints(ctx, ints)


def test_roots_t2_minus_2_over_f7():
    # oracle: exhaustive check of all seven residues
    F7 = prime_field(7)
    expected = [x for x in range(7) if (x * x - 2) % 7 == 0]
    assert expected == [3, 4]
    res = find_roots(up(F7, [-2, 0, 1]), allow_extension=True)
    assert list(res.roots) == [(F7.from_int(3), 1), (F7.from_int(4), 1)]
    assert res.context == F7


def test_rational_roots_of_t3_plus_1():
    res = find_roots(up(RATIONALS, [1, 0, 0, 1]), allow_extension=False)
    assert [(str(r), m) for r, m in res.roots] == [("-1", 1)]


def test_t3_plus_1_with_extension_demand_raises():
    with pytest.raises(NeedsAlgebraicExtension):
        find_roots(up(RATIONALS, [1, 0, 0, 1]), allow_extension=True)


def test_roots_in_f4():
    F2 = prime_field(2)
    res = find_roots(up(F2, [1, 1, 1]), allow_extension=True)
    assert res.context == extension_field(2, 2)
    assert [r.payload for r, _ in res.roots] == [(0, 1), (1, 1)]  # u and u+1
    # evaluating at each root gives zero in the enlarged field
    g = up(F2, [1, 1, 1]).map_coefficients(res.embedding, res.context)
    for r, m in res.roots:
        assert g.evaluate(r).is_zero()
        assert m == 1


def test_multiplicities_sum_to_degree_when_split():
    F5 = prime_field(5)
    # (t-1)^2 (t-2) = t^3 - 4t^2 + 5t - 2
    g = up(F5, [-2, 5, -4, 1])
    res = find_roots(g, allow_extension=True)
    assert sum(m for _, m in res.roots) == 3
    assert set(res.roots) == {(F5.from_int(1), 2), (F5.from_int(2), 1)}


def test_inseparable_multiplicity_char_p():
    F3 = prime_field(3)
    # (t+1)^3 = t^3 + 1 in characteristic 3
    res = find_roots(up(F3, [1, 0, 0, 1]), allow_extension=True)
    assert list(res.roots) == [(F3.from_int(2), 3)]


def test_nth_root_canonical_choice():
    F7 = prime_field(7)
    b, _ = nth_root(F7.from_int(4), 2, allow_extension=False)
    assert b == F7.from_int(2)  # canonical order picks 2 before 5
    r, _ = nth_root(RATIONALS.from_int(4), 2, allow_extension=False)
    assert str(r) == "2"  # nonnegative first


def test_nth_root_unity_case():
    F2 = prime_field(2)
    b, _ = nth_root(F2.one(), 5, allow_extension=True)
    assert b.is_one()


def test_nth_root_rationals_raise():
    with pytest.raises(NeedsAlgebraicExtension):
        nth_root(RATIONALS.from_int(3), 2, allow_extension=True)


def test_nth_root_with_extension():
    F3 = prime_field(3)
    # 2 is not a square mod 3; the root lives in F9
    b, emb = nth_root(F3.from_int(2), 2, allow_extension=True)
    assert emb.target == extension_field(3, 2)
    two = emb.target.from_int(2)
    assert b * b == two



def test_extension_roots_are_split_without_a_root_search(monkeypatch):
    # the squarefree part splits in the extension by construction, and so
    # does the old modulus that extend_context maps the generator to
    def searched(sf):
        raise AssertionError("root search on a polynomial known to split")

    monkeypatch.setattr(unipoly, "_roots_in_field", searched)
    monkeypatch.setattr(unipoly, "_EMBEDDINGS", {})  # build the embeddings here
    for ctx, ints, degree in [
        (extension_field(3, 2), [2, 2, 0, 1], 6),  # t^3 - t - 1, Artin-Schreier
        (prime_field(101), [-2, 0, 1], 2),  # 2 is not a square mod 101
    ]:
        g = up(ctx, ints)
        g = g * g * up(ctx, [-1, 1])
        res = find_roots(g, allow_extension=True)
        assert res.context == extension_field(ctx.characteristic, degree)
        lifted = g.map_coefficients(res.embedding, res.context)
        assert all(lifted.evaluate(r).is_zero() for r, _ in res.roots)
        assert sorted(m for _, m in res.roots) == [1] + [2] * (len(ints) - 1)

def _horner_image(emb, a):
    """emb(a) as the source polynomial of a evaluated at the generator's image."""
    acc = emb.target.zero()
    for c in reversed(a.payload):
        acc = acc * emb.generator_image + emb.target.from_int(c)
    return acc


# (p, n, total degree): F_{p^n} embedded into F_{p^total}
EMBEDDING_CASES = [(2, 2, 6), (2, 2, 4), (3, 2, 6), (5, 3, 6), (7, 3, 9), (101, 2, 4)]


def test_extension_embedding_is_a_homomorphism():
    # the packed linear map agrees with the Horner evaluation on every source
    # element of a field of at most 729 elements, on a seeded sample of a
    # larger one, and respects + and x on seeded pairs
    for p, n, total in EMBEDDING_CASES:
        small = extension_field(p, n)
        big, emb = extend_context(small, total // n)
        assert big == extension_field(p, total)
        rng = random.Random(f"embedding:{p}:{n}:{total}")
        elements = list(small.elements())
        if len(elements) > 729:
            elements = [small.from_vector([rng.randrange(p) for _ in range(n)])
                        for _ in range(300)]
        for a in elements:
            assert emb(a) == _horner_image(emb, a), (p, n, total, a)
        for _ in range(200):
            a, b = rng.choice(elements), rng.choice(elements)
            assert emb(a * b) == emb(a) * emb(b)
            assert emb(a + b) == emb(a) + emb(b)


def test_extend_context_shares_one_embedding_per_field_pair(monkeypatch):
    monkeypatch.setattr(unipoly, "_EMBEDDINGS", {})
    calls = [0]
    split_linear = unipoly._split_linear

    def counted(w):
        calls[0] += 1
        return split_linear(w)

    monkeypatch.setattr(unipoly, "_split_linear", counted)
    small = extension_field(5, 3)
    big, emb = extend_context(small, 2)
    assert calls[0] == 1  # the old modulus, split once to pick the generator's image
    again = extend_context(small, 2)
    assert again[0] is big and again[1] is emb
    assert calls[0] == 1


def test_large_field_roots_via_splitting():
    # q = 5^8: the in-field roots are the degree-1 Frobenius block, split
    big = extension_field(5, 8)
    t = UniPoly.x(big)
    two = UniPoly.constant(big.from_int(2))
    g = t * t - two  # sqrt(2) exists in F_25, hence in F_{5^8}
    res = find_roots(g, allow_extension=False)
    assert len(res.roots) == 2
    for r, m in res.roots:
        assert (r * r) == big.from_int(2)
        assert m == 1


def test_gcd_and_derivative():
    Q = RATIONALS
    g = up(Q, [1, 2, 1])  # (t+1)^2
    assert [str(c) for c in g.gcd(g.derivative()).coeffs] == ["1", "1"]


def test_modulus_invariant_checker():
    for p, d in [(2, 4), (3, 5), (7, 2), (101, 3)]:
        assert poly_is_irreducible(extension_field(p, d).modulus, p)


SPLITTING_FIELDS = [(2, 6), (3, 4), (5, 3), (101, 1)]


def _random_linear_product(ctx, rng, candidates, least=2):
    """A seeded product of linear factors and its roots with multiplicities;
    at least `least` distinct roots."""
    picked = rng.sample(candidates, rng.randint(least, 7))
    mults = {r: rng.randint(1, 3) for r in picked}
    g = UniPoly.make(ctx, [ctx.one()])
    for r, m in mults.items():
        for _ in range(m):
            g = g * UniPoly.make(ctx, [-r, ctx.one()])
    return g, mults


def _assert_brute_force_roots(g, mults, extension_modes=(False, True)):
    ctx = g.context
    brute = [x for x in ctx.elements() if g.evaluate(x).is_zero()]
    for allow_extension in extension_modes:
        res = find_roots(g, allow_extension=allow_extension)
        assert res.context == ctx
        assert [r for r, _ in res.roots] == brute  # canonical element order
        assert [m for _, m in res.roots] == [mults[r] for r in brute]


@pytest.mark.parametrize("p,n", SPLITTING_FIELDS)
def test_splitting_matches_brute_force(monkeypatch, p, n):
    monkeypatch.setattr(unipoly, "_EMBEDDINGS", {})
    ctx = extension_field(p, n) if n > 1 else prime_field(p)
    elements = list(ctx.elements())
    rng = random.Random(1000 * p + n)
    for _ in range(6):
        _assert_brute_force_roots(*_random_linear_product(ctx, rng, elements))


class _ZeroShifts:
    """Stands in for random.Random: every pseudo-random shift is 0."""

    def __init__(self, seed):
        pass

    def randrange(self, n):
        return 0


@pytest.mark.parametrize("p,n", SPLITTING_FIELDS)
def test_splitting_falls_back_to_canonical_scan(monkeypatch, p, n):
    # With every pseudo-random shift equal to 0, no split is possible when
    # all roots are nonzero squares (odd q), or at all (q = 2^n, where
    # Tr(0 t) = 0), so only the canonical element scan can find the roots.
    # Over odd q a quadratic is solved in closed form and never reaches
    # _split_once, so the products there have at least 3 distinct roots.
    # The stand-in also drives the non-residue search of the square roots (a
    # fresh cache, so the search runs here); only verified non-residues are
    # ever cached, so it can change which one is cached, never a result.
    monkeypatch.setattr(unipoly, "random", types.SimpleNamespace(Random=_ZeroShifts))
    monkeypatch.setattr(unipoly, "_SYLOW_GENERATORS", {})
    monkeypatch.setattr(unipoly, "_EMBEDDINGS", {})
    inside, scanned = [False], [0]
    split_once, candidates = unipoly._split_once, unipoly._split_candidates

    def flagged_split_once(w, rng):
        inside[0] = True
        try:
            return split_once(w, rng)
        finally:
            inside[0] = False

    def counted_candidates(ctx, rng):
        for k, c in enumerate(candidates(ctx, rng)):
            scanned[0] += inside[0] and k >= unipoly.SPLIT_RANDOM_TRIES
            yield c

    monkeypatch.setattr(unipoly, "_split_once", flagged_split_once)
    monkeypatch.setattr(unipoly, "_split_candidates", counted_candidates)
    ctx = extension_field(p, n) if n > 1 else prime_field(p)
    squares = sorted({x * x for x in ctx.elements() if not x.is_zero()},
                     key=lambda e: e.sort_key())
    rng = random.Random(2000 * p + n)
    for _ in range(2):
        g, mults = _random_linear_product(ctx, rng, squares, least=2 if p == 2 else 3)
        _assert_brute_force_roots(g, mults, extension_modes=(False,))
    assert scanned[0] > 0  # the scan past the pseudo-random shifts ran


# -- roots in small fields: the degree-1 Frobenius block ------------------------

# every field size up to 64
SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4),
                (5, 2), (3, 3), (7, 2), (2, 6)]


def _rootless_monic(ctx, rng, degree, elements):
    """A seeded monic polynomial of degree 2 or 3 with no root in the field,
    hence irreducible."""
    while True:
        f = UniPoly.make(ctx, [rng.choice(elements) for _ in range(degree)] + [ctx.one()])
        if not any(f.evaluate(x).is_zero() for x in elements):
            return f


@pytest.mark.parametrize("p,n", SMALL_FIELDS)
def test_small_field_roots_match_brute_force(monkeypatch, p, n):
    # products of linear factors, alone and times one irreducible factor of
    # degree 2 or 3, whose roots lie in the extension of that degree
    monkeypatch.setattr(unipoly, "_EMBEDDINGS", {})
    ctx = extension_field(p, n)
    elements = list(ctx.elements())
    rng = random.Random(f"small-field:{p}:{n}")
    for _ in range(8):
        picked = rng.sample(elements, rng.randint(1, min(4, len(elements))))
        mults = {r: rng.randint(1, 3) for r in picked}
        g = UniPoly.make(ctx, [ctx.one()])
        for r, m in mults.items():
            for _ in range(m):
                g = g * UniPoly.make(ctx, [-r, ctx.one()])
        _assert_brute_force_roots(g, mults)
        degree = rng.choice((2, 3))
        f = _rootless_monic(ctx, rng, degree, elements)
        assert find_roots(f, allow_extension=False).roots == ()
        _assert_brute_force_roots(f * g, mults, extension_modes=(False,))
        res = find_roots(f * g, allow_extension=True)
        assert res.context == extension_field(p, n * degree)
        assert sum(m for _, m in res.roots) == f.degree() + g.degree()
        lifted = (f * g).map_coefficients(res.embedding, res.context)
        assert all(lifted.evaluate(r).is_zero() for r, _ in res.roots)
        found = dict(res.roots)
        assert all(found[res.embedding(r)] == m for r, m in mults.items())


def test_linear_squarefree_part_makes_no_power_and_no_generator(monkeypatch):
    # a linear squarefree part is its own first Frobenius block, and the
    # splitting generator is made only for a piece that needs a split
    def forbidden(*args, **kwargs):
        raise AssertionError("a linear squarefree part took a power or seeded a split")

    monkeypatch.setattr(UniPoly, "pow_mod", forbidden)
    monkeypatch.setattr(unipoly, "random", types.SimpleNamespace(Random=forbidden))
    for ctx in (prime_field(2), prime_field(7), extension_field(3, 2), prime_field(101),
                extension_field(5, 8), RATIONALS):
        a, scale = ctx.from_int(3), UniPoly.constant(ctx.from_int(-1))
        for k in (1, 2, ctx.characteristic or 3):
            g = scale
            for _ in range(k):
                g = g * UniPoly.make(ctx, [-a, ctx.one()])
            for allow_extension in (False, True):
                res = find_roots(g, allow_extension=allow_extension)
                assert res.context == ctx and res.roots == ((a, k),), (ctx, k)


@pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (3, 2), (5, 2), (101, 1), (5, 8)])
def test_odd_quadratic_roots_make_no_power(monkeypatch, p, n):
    ctx = extension_field(p, n)
    rng = random.Random(f"odd-quadratic:{p}:{n}")
    four = ctx.from_int(4)

    def element():
        return ctx.from_vector([rng.randrange(p) for _ in range(n)])

    cases = []
    for _ in range(10):
        r, s = element(), element()
        while s == r:
            s = element()
        cases.append((UniPoly.make(ctx, [r * s, -(r + s), ctx.one()]), sorted(
            [r, s], key=lambda x: x.sort_key())))
        b, d = element(), element()
        while d.is_zero() or unipoly._rth_root(ctx, d.payload, 2) is not None:
            d = element()
        cases.append((UniPoly.make(ctx, [(b * b - d) / four, b, ctx.one()]), []))
    calls = _count_pow_mod(monkeypatch)
    for g, roots in cases:
        res = find_roots(g, allow_extension=False)
        assert [x for x, _ in res.roots] == roots
    assert calls[0] == 0


def _count_pow_mod(monkeypatch):
    """A live count of pow_mod calls, with fresh shared embeddings so that
    an extension's embedding is built, and counted, in the test itself."""
    monkeypatch.setattr(unipoly, "_EMBEDDINGS", {})
    calls = [0]
    original = UniPoly.pow_mod

    def counted(self, e, mod):
        calls[0] += 1
        return original(self, e, mod)

    monkeypatch.setattr(UniPoly, "pow_mod", counted)
    return calls


def test_nth_root_of_nonresidue_in_large_characteristic(monkeypatch):
    # Scanning shifts in canonical order took ~800 pow_mod calls here.
    calls = _count_pow_mod(monkeypatch)
    p = 10007
    a = next(k for k in range(2, p) if pow(k, (p - 1) // 2, p) == p - 1)
    b, emb = nth_root(prime_field(p).from_int(a), 2, allow_extension=True)
    assert emb.target == extension_field(p, 2)
    assert b * b == emb.target.from_int(a)
    # the root test, the splitting degree and the square root over F_{p^2}
    # are field powers (the polynomial path took 2 pow_mod calls, splitting
    # t^2 - a by Cantor-Zassenhaus 3)
    assert calls[0] == 0


# pow_mod calls allowed per case: those made with closed-form n-th roots
# (3, 4, 3, 4), plus 2; n-th roots as roots of t^n - a by find_roots made
# 11, 8, 3 and 10, and splitting the quadratics by Cantor-Zassenhaus 18, 16,
# 9 and 18
POLYLOG_POW_MOD_BOUNDS = {
    ("x^2+y*z*(y+3*z)*(y+5*z)+y^2*z^3", 1009): 5,
    ("x^2+y*z*(y+3*z)*(y+5*z)+y^2*z^3", 10007): 6,
    ("x^2+y*(y^2+3*z^4)", 10007): 5,
    ("x^2+y^4+z^4+x*y*z", 10009): 6,
}


@pytest.mark.parametrize("poly,p,degree", [
    ("x^2+y*z*(y+3*z)*(y+5*z)+y^2*z^3", 1009, 2),
    ("x^2+y*z*(y+3*z)*(y+5*z)+y^2*z^3", 10007, 2),
    ("x^2+y*(y^2+3*z^4)", 10007, 2),
    ("x^2+y^4+z^4+x*y*z", 10009, 4),
])
def test_extension_classification_cost_is_polylog_in_p(monkeypatch, poly, p, degree):
    # Scanning shifts in canonical order cost ~3p pow_mod calls per case.
    calls = _count_pow_mod(monkeypatch)
    verdict = classify_mld(parse_poly(poly, prime_field(p)), p)
    assert verdict.mld.to_json() == 0
    assert verdict.to_json()["field_extension_used"] == degree
    assert calls[0] <= POLYLOG_POW_MOD_BOUNDS[poly, p]


# -- nth_root in closed form against the polynomial path ------------------------


def _nth_root_reference(a, n, allow_extension):
    """The first root of t^n - a that find_roots reports: in the field of a,
    or, when there is none there and the field may grow, in the field where
    t^n - a splits."""
    ctx = a.context
    g = UniPoly.make(ctx, [-a] + [ctx.zero()] * (n - 1) + [ctx.one()])
    res = find_roots(g, allow_extension=False)
    if res.roots:
        return res.first(), identity_embedding(ctx)
    if ctx.is_rational:
        raise NeedsAlgebraicExtension(f"no rational {n}-th root of {a}", polynomial=g)
    if not allow_extension:
        raise NeedsAlgebraicExtension(f"no {n}-th root of {a} in the current field",
                                      polynomial=g)
    res = find_roots(g, allow_extension=True)
    return res.first(), res.embedding


def _nth_root_outcome(root, a, n, allow_extension):
    """The root, its field with the modulus and the generator's image, or the
    exception with the polynomial it carries."""
    try:
        b, emb = root(a, n, allow_extension)
    except (NeedsAlgebraicExtension, ValueError) as exc:
        return type(exc).__name__, str(exc), str(getattr(exc, "polynomial", None))
    ctx = emb.target
    return (str(b), ctx.characteristic, ctx.extension_degree, ctx.modulus,
            str(emb.generator_image))


def _assert_nth_roots_match(a, exponents):
    for n in exponents:
        for allow_extension in (False, True):
            expected = _nth_root_outcome(_nth_root_reference, a, n, allow_extension)
            assert _nth_root_outcome(nth_root, a, n, allow_extension) == expected, (a, n)


# every field of order q in {2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49}
NTH_ROOT_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
                   (2, 4), (5, 2), (3, 3), (7, 2)]


@pytest.mark.parametrize("p,k", NTH_ROOT_FIELDS)
def test_nth_root_matches_the_polynomial_path_on_every_element(p, k):
    # Every nonzero a and n in 1..12, both ways.  Where t^n - a has no root in
    # F_q, the splitting field depends only on n and the multiplicative order
    # of a, and splitting in it is most of the reference's cost (up to
    # F_{7^24}), so the reference runs on the first a of each order; every
    # other a must reach the same field, with the same embedding, by a root.
    ctx = extension_field(p, k)
    q = ctx.order()
    for n in range(1, 13):
        fields = {}
        for a in ctx.elements():
            if a.is_zero():
                continue
            expected = _nth_root_outcome(_nth_root_reference, a, n, False)
            assert _nth_root_outcome(nth_root, a, n, False) == expected, (a, n)
            if expected[0] == "NeedsAlgebraicExtension":
                order = min(d for d in range(1, q) if (q - 1) % d == 0 and (a ** d).is_one())
                if order not in fields:
                    expected = _nth_root_outcome(_nth_root_reference, a, n, True)
                    fields[order] = expected
                elif fields[order][0] == "ValueError":  # past the extension cap
                    expected = fields[order]
                else:
                    b, emb = nth_root(a, n, allow_extension=True)
                    assert b ** n == emb(a), (a, n)
                    assert _nth_root_outcome(nth_root, a, n, True)[1:] == fields[order][1:]
                    continue
            assert _nth_root_outcome(nth_root, a, n, True) == expected, (a, n)


def test_nth_root_matches_the_polynomial_path_on_seeded_samples():
    # the stress primes of large_char_extensions and F_{113^2}
    rng = random.Random(20261020)
    for p, k in [(101, 1), (103, 1), (107, 1), (109, 1), (113, 1), (127, 1), (113, 2)]:
        ctx = extension_field(p, k)
        for _ in range(4):
            a = ctx.from_vector([rng.randrange(1, p)]
                               + [rng.randrange(p) for _ in range(k - 1)])
            _assert_nth_roots_match(a, range(2, 7))
    Q = RATIONALS
    for _ in range(8):
        b = Q.from_fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        for k in range(1, 6):
            for a in (b ** k, -(b ** k), b ** k + Q.one()):
                _assert_nth_roots_match(a, [k])
    big = Q.from_int(10 ** 29 + 7)
    for k in range(1, 6):
        _assert_nth_roots_match(big ** k, [k])


def test_nth_root_in_large_splitting_fields():
    # recorded from the polynomial path, which took ~1 s and ~7 s on these
    # (2-vCPU VM)
    for p, n, modulus, root in [
        (3, 74, (1, 2, 0, 1) + (0,) * 14 + (1,),
         "u^2+2*u^3+2*u^6+u^8+u^9+u^10+2*u^12+u^13+u^14+2*u^15+2*u^16"),
        (5, 134, (1, 1) + (0,) * 20 + (1,),
         "u^3+u^4+u^5+3*u^6+4*u^8+4*u^10+2*u^11+4*u^12+u^14+2*u^15+2*u^16+2*u^17+u^20+u^21"),
    ]:
        two = prime_field(p).from_int(2)
        assert _nth_root_outcome(nth_root, two, n, True) == (
            root, p, len(modulus) - 1, modulus, "None")


@pytest.mark.parametrize("p,a,n", [(7, 3, 82), (3, 2, 94)])
def test_nth_root_fails_fast_above_the_extension_cap(p, a, n):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^extension degree must be in 1\.\.32$"):
        nth_root(prime_field(p).from_int(a), n, allow_extension=True)
    assert time.perf_counter() - start < 1


def test_nth_root_makes_no_root_search(monkeypatch):
    # each case runs once to build its fields and embeddings; the second run
    # must give the same result with root search and pow_mod switched off
    cases = [(prime_field(101).from_int(3), 4), (prime_field(113).from_int(5), 2),
             (extension_field(7, 2).from_vector((3, 1)), 3), (prime_field(5).from_int(2), 134),
             (extension_field(3, 3).from_vector((1, 2, 0)), 6), (prime_field(7).from_int(6), 3),
             (RATIONALS.from_fraction(8, 27), 3), (RATIONALS.from_int(-4), 2),
             (RATIONALS.from_int(10 ** 29 + 7) ** 4, 4)]
    before = [_nth_root_outcome(nth_root, a, n, True) for a, n in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("nth_root searched for roots")

    monkeypatch.setattr(unipoly, "find_roots", forbidden)
    monkeypatch.setattr(unipoly, "_roots_in_field", forbidden)
    monkeypatch.setattr(unipoly, "_rational_roots", forbidden)
    monkeypatch.setattr(UniPoly, "pow_mod", forbidden)
    assert [_nth_root_outcome(nth_root, a, n, True) for a, n in cases] == before


# -- quadratics in closed form: (-b +- sqrt(D)) / 2a -----------------------------

# q = 3 mod 4 (one power), q = 5 mod 8, and q = 1 mod 8 with q - 1 = 2^s m for
# s = 4, 4, 4, 8 (Tonelli-Shanks)
CLOSED_FORM_FIELDS = [(7, 1), (3, 3), (103, 1), (5, 1), (13, 1), (5, 3),
                      (17, 1), (7, 2), (3, 4), (257, 1)]


@pytest.mark.parametrize("p,n", CLOSED_FORM_FIELDS)
def test_quadratic_roots_in_closed_form(monkeypatch, p, n):
    # a fresh cache makes the field's non-residue search run here
    monkeypatch.setattr(unipoly, "_SYLOW_GENERATORS", {})
    monkeypatch.setattr(unipoly, "_EMBEDDINGS", {})
    ctx = extension_field(p, n)
    q = ctx.order()
    elements = list(ctx.elements())
    squares = {x * x for x in elements}
    linear = [UniPoly.make(ctx, [-r, ctx.one()]) for r in elements]
    scale = UniPoly.make(ctx, [elements[-1]])  # nonzero, outside F_p when n > 1
    for i, r in enumerate(elements):  # every product of two distinct linear factors
        for j in range(i + 1, len(elements)):
            g = linear[i] * linear[j]
            brute = [r, elements[j]]  # its roots, in canonical order as elements() runs
            # with extension allowed, find_roots powers once for the factor
            # degrees and then splits g in _split_linear: all of that for
            # O(q) pairs, the split alone for the others
            modes = (False, True) if i == 0 or j == i + 1 else (False,)
            for allow_extension in modes:
                res = find_roots(g, allow_extension=allow_extension)
                assert [x for x, _ in res.roots] == brute and res.context == ctx
            payloads = [x.payload for x in brute]
            assert sorted(unipoly._split_linear(g)) == payloads
            # a leading coefficient other than 1, as the rational roots' primes give
            assert unipoly._roots_in_field(scale * g) == payloads
    four, rng = ctx.from_int(4), random.Random(q)
    for d in elements:  # t^2 + b t + (b^2 - d)/4 has discriminant d
        if d in squares:
            continue
        b = rng.choice(elements)
        c = (b * b - d) / four
        assert unipoly._roots_in_field(UniPoly.make(ctx, [c, b, ctx.one()])) == []
        assert unipoly._roots_in_field(scale * UniPoly.make(ctx, [c, b, ctx.one()])) == []
    if q % 4 == 3:
        assert (ctx, 2) not in unipoly._SYLOW_GENERATORS  # one power, no non-residue
    else:
        cached = FieldElement(ctx, unipoly._SYLOW_GENERATORS[ctx, 2])
        assert cached not in squares and cached ** ((q - 1) // 2) == -ctx.one()


# -- pow_mod against the element-by-element loop it replaced -----------------


def _pow_mod_reference(base, e, mod):
    """Right-to-left square-and-multiply, one FieldElement product at a time."""
    result = UniPoly.make(base.context, [base.context.one()])
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def _random_poly(ctx, rng, degree, monic_lead=False):
    p, n = ctx.characteristic, ctx.extension_degree
    coeffs = [ctx.from_vector([rng.randrange(p) for _ in range(n)]) for _ in range(degree)]
    lead = ctx.zero()
    while lead.is_zero() or lead.is_one():
        lead = ctx.from_vector([rng.randrange(p) for _ in range(n)])
    return UniPoly.make(ctx, coeffs + [lead])


# coordinate_changes reaches degree-9 extensions of F_7
POW_MOD_FIELDS = [(2, 8), (3, 5), (7, 9), (113, 4), (127, 2), (10007, 1)]


@pytest.mark.parametrize("p,n", POW_MOD_FIELDS)
def test_pow_mod_matches_the_elementwise_loop(p, n):
    ctx = extension_field(p, n)
    q = ctx.order()
    rng = random.Random(31 * p + n)
    for degree in range(7):
        mod = _random_poly(ctx, rng, degree)  # never monic
        base = _random_poly(ctx, rng, rng.randint(0, 2 * degree + 1))
        exponents = [0, 1, 2, q, (q - 1) // 2] + [rng.randrange(q * q) for _ in range(2)]
        for e in exponents:
            assert base.pow_mod(e, mod) == _pow_mod_reference(base, e, mod), (degree, e)
    # the zero base and the base t, whose powers are the Frobenius images
    mod = _random_poly(ctx, rng, 5)
    for base in (UniPoly.zero(ctx), UniPoly.x(ctx)):
        for e in (0, 1, q):
            assert base.pow_mod(e, mod) == _pow_mod_reference(base, e, mod)


def test_pow_mod_rejects_the_rationals_and_a_zero_modulus():
    t = UniPoly.x(RATIONALS)
    with pytest.raises(ValueError):
        t.pow_mod(3, up(RATIONALS, [1, 0, 1]))
    F9 = extension_field(3, 2)
    with pytest.raises(ZeroDivisionError):
        UniPoly.x(F9).pow_mod(3, UniPoly.zero(F9))


# -- rational roots against divisor enumeration --------------------------------


def _rational_roots_reference(g):
    """Rational root theorem: try every divisor of a0 over every divisor of an."""
    ctx = g.context
    lcm = 1
    for c in g.coeffs:
        lcm = lcm * c.payload.denominator // math.gcd(lcm, c.payload.denominator)
    roots = []
    zero = ctx.zero()
    g, mult0 = unipoly._root_multiplicity(g, zero)
    if mult0:
        roots.append((zero, mult0))
    ints = [int(c.payload * lcm) for c in g.coeffs]
    if len(ints) < 2:
        return roots
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(n):
        return sorted({d for k in range(1, math.isqrt(n) + 1) if n % k == 0 for d in (k, n // k)})

    seen = set()
    for num in divisors(a0):
        for den in divisors(an):
            for sign in (1, -1):
                fr = Fraction(sign * num, den)
                if fr in seen:
                    continue
                seen.add(fr)
                cand = ctx.from_fraction(fr.numerator, fr.denominator)
                if g.evaluate(cand).is_zero():
                    g, m = unipoly._root_multiplicity(g, cand)
                    roots.append((cand, m))
    roots.sort(key=lambda rm: rm[0].sort_key())
    return roots


def test_rational_roots_match_divisor_enumeration():
    # products of linear factors (some repeated) and a quadratic over Q,
    # which may itself have rational roots
    rng = random.Random(20261018)
    Q = RATIONALS

    def fraction(bound):
        return Q.from_fraction(rng.randint(-bound, bound), rng.randint(1, bound))

    found = 0
    for _ in range(40):
        lead = Q.zero()
        while lead.is_zero():
            lead = fraction(9)
        g = UniPoly.make(Q, [fraction(20), fraction(20), lead])
        factor = None
        for _ in range(rng.randint(0, 4)):
            if factor is None or rng.random() < 0.7:
                factor = UniPoly.make(Q, [-fraction(60), Q.one()])
            g = g * factor
        roots = unipoly._rational_roots(g)
        assert roots == _rational_roots_reference(g), str(g)
        found += len(roots)
    assert found > 40


# -- payload arithmetic against textbook FieldElement loops --------------------


def _ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def _ref_mul(a, b, zero):
    out = [zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _ref_trim(out)


def _ref_divmod(a, b, zero):
    rem, q = list(a), [zero] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        c = rem[-1] / b[-1]
        q[k] = c
        for i, y in enumerate(b):
            rem[i + k] = rem[i + k] - c * y
        rem = _ref_trim(rem)
    return _ref_trim(q), rem


def _ref_gcd(a, b, zero):
    while b:
        a, b = b, _ref_divmod(a, b, zero)[1]
    return [c / a[-1] for c in a] if a else []


def _ref_value(a, x, zero):
    acc = zero
    for c in reversed(a):
        acc = acc * x + c
    return acc


REFERENCE_FIELDS = [(0, 1), (7, 1), (3, 2), (101, 4)]


def _seeded_coeffs(ctx, rng, length):
    if ctx.is_rational:
        return [ctx.from_fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(length)]
    p, n = ctx.characteristic, ctx.extension_degree
    return [ctx.from_vector([rng.randrange(p) for _ in range(n)]) for _ in range(length)]


@pytest.mark.parametrize("p,n", REFERENCE_FIELDS)
def test_unipoly_arithmetic_matches_the_elementwise_reference(p, n):
    ctx = RATIONALS if p == 0 else extension_field(p, n)
    zero = ctx.zero()
    rng = random.Random(53 * p + n)
    polys = [_seeded_coeffs(ctx, rng, rng.randint(0, 7)) for _ in range(14)]
    common = _seeded_coeffs(ctx, rng, 3)  # a shared factor, so some gcds are not 1
    polys += [_ref_mul(a, common, zero) for a in polys[:6]]
    points = _seeded_coeffs(ctx, rng, 3) + [zero]
    for a in polys:
        f = UniPoly.make(ctx, a)
        a = _ref_trim(a)
        assert list(f.coeffs) == a
        for x in points:
            assert f.evaluate(x) == _ref_value(a, x, zero)
        for b in polys:
            g = UniPoly.make(ctx, b)
            b = _ref_trim(b)
            assert list((f * g).coeffs) == _ref_mul(a, b, zero)
            assert list(f.gcd(g).coeffs) == _ref_gcd(a, b, zero)
            if b:
                q, r = f.divmod(g)
                assert (list(q.coeffs), list(r.coeffs)) == _ref_divmod(a, b, zero)


def test_root_finding_over_extension_fields_builds_no_element_products(monkeypatch):
    # gcd and find_roots run on payloads: no FieldElement product in their
    # loops, also when the field grows and the coefficients are embedded
    products = [0]
    original = FieldElement.__mul__

    def counted(self, other):
        products[0] += 1
        return original(self, other)

    ctx = extension_field(101, 2)
    rng = random.Random(7)
    cases = []
    for _ in range(6):
        g = UniPoly.make(ctx, _seeded_coeffs(ctx, rng, rng.randint(1, 4)) + [ctx.one()])
        cases.append((g, g * UniPoly.make(ctx, _seeded_coeffs(ctx, rng, 2))))
    monkeypatch.setattr(FieldElement, "__mul__", counted)
    for g, h in cases:
        g.gcd(h)
        for allow_extension in (False, True):
            find_roots(h, allow_extension=allow_extension)
    assert products[0] == 0


# -- root finding pinned by a digest -------------------------------------------

ROOT_CORPUS_DIGEST = pathlib.Path(__file__).parent / "golden" / "root_corpus_digest.sha256"
# 14 finite fields, from F_2 to F_{113^2}, plus Q
ROOT_CORPUS_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (101, 1), (127, 1), (10007, 1),
                      (2, 2), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2), (113, 2)]


def _corpus_result(call):
    """One line for a root-finding call: its result, or the exception it raised."""
    try:
        res = call()
    except (NeedsAlgebraicExtension, ValueError) as exc:
        return repr((type(exc).__name__, str(exc)))
    if isinstance(res, unipoly.RootResult):
        ctx, emb = res.context, res.embedding
        roots = tuple((str(r), m) for r, m in res.roots)
    else:  # (root, embedding) or (context, embedding)
        head, emb = res
        ctx, roots = emb.target, str(head)
    gen = emb.generator_image
    return repr(((ctx.characteristic, ctx.extension_degree, ctx.modulus), roots,
                 emb.source.extension_degree, None if gen is None else str(gen)))


def _root_corpus_lines():
    """find_roots, nth_root and extend_context on seeded inputs, one line each."""
    rng = random.Random(20261019)
    lines = []

    def roots_of(g):
        lines.append(str(g))
        for allow in (False, True):
            lines.append(_corpus_result(lambda: find_roots(g, allow_extension=allow)))

    def nth_roots_of(a, n):
        lines.append(f"{a} {n}")
        for allow in (False, True):
            lines.append(_corpus_result(lambda: nth_root(a, n, allow_extension=allow)))

    for p, n in ROOT_CORPUS_FIELDS:
        ctx = extension_field(p, n)

        def element():
            return ctx.from_vector([rng.randrange(p) for _ in range(n)])

        top = 4 if n > 1 or p > 1000 else 5  # keeps every splitting field in range
        for _ in range(20):
            roots_of(UniPoly.make(ctx, [element() for _ in range(rng.randint(1, top))]
                                  + [ctx.one()]))
        pool = sorted({element() for _ in range(8)}, key=lambda e: e.sort_key())
        for _ in range(6):  # products of linear factors, some repeated
            g = UniPoly.make(ctx, [ctx.one()])
            for r in rng.sample(pool, rng.randint(1, min(4, len(pool)))):
                for _ in range(rng.randint(1, 3)):
                    g = g * UniPoly.make(ctx, [-r, ctx.one()])
            roots_of(g)
        if p <= 7:  # inseparable: h(t^p), and (t + a)^p (t + b)
            spread = [ctx.zero()] * (2 * p + 1)
            spread[0], spread[p], spread[2 * p] = element(), element(), ctx.one()
            roots_of(UniPoly.make(ctx, spread))
            linear = UniPoly.make(ctx, [element(), ctx.one()])
            g = UniPoly.make(ctx, [element(), ctx.one()])
            for _ in range(p):
                g = g * linear
            roots_of(g)
        for k in (2, 3, 4, 5, 6):
            a = element()
            if not a.is_zero():
                nth_roots_of(a, k)
        for extra in (2, 3):
            lines.append(f"extend {p} {n} {extra}")
            lines.append(_corpus_result(lambda: extend_context(ctx, extra)))

    Q = RATIONALS

    def fraction(bound):
        return Q.from_fraction(rng.randint(-bound, bound), rng.randint(1, bound))

    for _ in range(30):
        g = UniPoly.make(Q, [fraction(12), fraction(12), Q.one()])
        for _ in range(rng.randint(0, 3)):
            g = g * UniPoly.make(Q, [-fraction(30), Q.one()])
        roots_of(g)
    for _ in range(12):
        b = fraction(20)
        if not b.is_zero():
            k = rng.randint(2, 4)
            nth_roots_of(b ** k, k)
            nth_roots_of(b ** k + Q.one(), k)
    lines.append(_corpus_result(lambda: extend_context(Q, 2)))
    return lines


def test_root_corpus_matches_its_digest():
    lines = _root_corpus_lines()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(lines) > 1000
    assert digest == ROOT_CORPUS_DIGEST.read_text().split()[0]
