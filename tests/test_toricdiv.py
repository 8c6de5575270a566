import random
from itertools import product

from hypothesis import given, strategies as st

from conftest import ctx_for, poly, random_poly

from slchyp import ToricDivisor, Weight, discrepancy, witness_search


def brute_first_witness(f, max_entry, origin_only=True):
    """Independent oracle: plain triple loop over weights in lex order."""
    lo = 1 if origin_only else 0
    for w in product(range(lo, max_entry + 1), repeat=3):
        if not any(w):
            continue
        ordw = min(sum(wi * mi for wi, mi in zip(w, m)) for m in f.terms)
        a = sum(w) - ordw
        if a < 0:
            return w, a
    return None


def test_discrepancy_cusp_chain_weight():
    rep = discrepancy(poly("x^2+y^3"), (21, 14, 6))
    assert (rep.ord, rep.a, rep.divisor.k_e) == (42, -1, 40)


def test_discrepancy_e8():
    rep = discrepancy(poly("x^2+y^3+z^5"), (15, 10, 6))
    assert (rep.ord, rep.a) == (30, 1)


def test_discrepancy_y4():
    rep = discrepancy(poly("x^2+y^4"), (10, 5, 4))
    assert (rep.ord, rep.a) == (20, -1)


def test_divisor_invariants():
    d = ToricDivisor(Weight.of((3, 2, 1)))
    assert d.k_e == 5
    assert d.center_dim == 0 and d.origin_centered
    assert ToricDivisor(Weight.of((1, 0, 2))).center_dim == 1


def test_witness_search_matches_brute_oracle():
    cases = [
        ("x^3+y^2*z", 6),
        ("x*y*(x+y)", 2),
        ("x^2+y^3", 8),
        ("x^2+y^3*z", 8),
    ]
    for text, bound in cases:
        f = poly(text)
        expected = brute_first_witness(f, bound)
        got = witness_search(f, bound)
        if expected is None:
            assert got is None
        else:
            assert (tuple(got.weight), got.a) == expected


def test_witness_search_frozen_values():
    # frozen from the brute-force oracle above
    got = witness_search(poly("x^3+y^2*z"), 6)
    assert tuple(got.weight) == (3, 4, 1) and got.a == -1
    got = witness_search(poly("x*y*(x+y)"), 2)
    assert tuple(got.weight) == (2, 2, 1) and got.a == -1


def test_witness_search_absent_for_full_rank_quadric():
    assert witness_search(poly("x^2+y^2+z^2"), 9) is None


def test_discrepancy_consistency_recomputation():
    f = poly("x^2+y^3+z^5")
    for w in [(1, 1, 1), (2, 1, 1), (15, 10, 6), (4, 6, 1)]:
        rep = discrepancy(f, w)
        k_e = sum(w) - 1
        assert rep.a == k_e - rep.ord + 1
        assert rep.divisor.k_e == k_e


@given(st.integers(min_value=0, max_value=2**31))
def test_discrepancy_is_coefficient_blind(seed):
    rnd = random.Random(seed)
    ctx = ctx_for(7)
    f = random_poly(rnd, ctx)
    c = ctx.from_int(rnd.randint(1, 6))
    w = tuple(rnd.randint(1, 5) for _ in range(3))
    assert discrepancy(f, w).a == discrepancy(f.scale(c), w).a


@given(st.integers(min_value=0, max_value=2**31))
def test_w_homogeneous_degree_is_ord(seed):
    rnd = random.Random(seed)
    ctx = ctx_for(5)
    w = Weight.of(tuple(rnd.randint(1, 4) for _ in range(3)))
    f = random_poly(rnd, ctx)
    piece = f.in_w(w)
    d = piece.ord_w(w)
    assert discrepancy(piece, w).ord == d


def test_witness_search_deterministic():
    f = poly("x^2+y^3")
    a = witness_search(f, 8)
    b = witness_search(f, 8)
    assert tuple(a.weight) == tuple(b.weight) and a.a == b.a
