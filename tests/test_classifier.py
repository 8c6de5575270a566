import pytest

from conftest import ctx_for, poly, random_poly, random_invertible_matrix

from slchyp import (
    MldValue,
    TriPoly,
    ZeroPolynomial,
    check_conjecture_bounds,
    classify_mld,
    classify_slc,
    discrepancy,
)
from slchyp.fields import FieldEmbedding
from slchyp.classifier import BRANCHES, SLC_NOT_APPLICABLE, terminal_branch
from slchyp.normalize.auto import LinearStep


def mld_of(text, p):
    return classify_mld(poly(text, p), p)


def test_spec_examples_mld():
    v = mld_of("x^2+y^3+z^5", 7)
    assert (v.mld.value, tuple(v.witness.weight)) == (1, (15, 10, 6))
    assert any(c.kind == "rational_double_point" for c in v.certificates)

    v = mld_of("x^2+y^3", 0)
    assert v.mld.is_neg_infinity
    assert tuple(v.witness.weight) == (21, 14, 6) and v.witness.a == -1

    v = mld_of("x^2+y^3+x*y*z", 2)
    assert (v.mld.value, tuple(v.witness.weight)) == (0, (3, 2, 1))
    assert any(c.kind == "fedder" for c in v.certificates)

    v = mld_of("x^2+y^2*z", 5)
    assert (v.mld.value, tuple(v.witness.weight)) == (1, (3, 2, 2))

    v = mld_of("x^2+y^3*z", 0)
    assert v.mld.is_neg_infinity
    assert tuple(v.witness.weight) == (15, 8, 6) and v.witness.a == -1

    v = mld_of("1+x", 0)
    assert v.mld.value == 3


def test_spec_examples_slc():
    for p in (2, 3, 5, 7):
        v = classify_slc(poly("x*y*z", p), p)
        assert v.slc is True and v.mld.value == 0
        assert any(c.kind == "fedder" for c in v.certificates)

    v = classify_slc(poly("x^2", 0), 0)
    assert v.slc == SLC_NOT_APPLICABLE
    assert v.mld.is_neg_infinity
    assert tuple(v.witness.weight) == (10, 5, 4)

    v = classify_slc(poly("x^2+y^4", 0), 0)
    assert v.slc is False and v.mld.is_neg_infinity
    assert tuple(v.witness.weight) == (10, 5, 4)


def test_slc_rejects_units():
    with pytest.raises(ValueError):
        classify_slc(poly("1+x", 0), 0)


def test_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        classify_mld(TriPoly.zero(ctx_for(0)), 0)


def test_bound_examples():
    v = mld_of("x^2+y^3", 2)
    rep = check_conjecture_bounds(v)
    assert rep.k_e == 40 and rep.blowup_bound == 38 and rep.k_e_within_40

    v = mld_of("x^4+y^4+z^4", 0)
    assert check_conjecture_bounds(v).k_e == 2

    v = mld_of("x^2+y^3+z^5", 7)
    rep = check_conjecture_bounds(v)
    assert rep.k_e == 30 and rep.blowup_bound == 28


def test_witness_soundness_replay():
    cases = [
        ("x^2+y^3+z^5", 7), ("x^2+y^3", 0), ("x^2+y^3+x*y*z", 2),
        ("x^3+y^2*z", 3), ("x^2+y^4", 5), ("x*y*z", 2),
        ("x^2+y*(y-z^2)*(y-3*z^2)", 7), ("x^2+y^2*z^2", 3),
    ]
    for text, p in cases:
        f = poly(text, p)
        v = classify_mld(f, p)
        # replay: embed f, apply the automorphism, take the initial form at
        # the recorded weight, recompute the discrepancy
        lifted = f
        if v.context != f.context:
            lifted = f.map_coefficients(
                FieldEmbedding(f.context, v.context, None), v.context
            )
        transformed = v.automorphism.apply(lifted)
        initial = transformed.in_w(v.initial_weight)
        assert initial == v.initial_form
        rep = discrepancy(initial, tuple(v.witness.weight))
        assert rep.a == v.witness.a and rep.ord == v.witness.ord


def test_exhaustiveness_random_fuzz(rng):
    weights = set()
    for _ in range(150):
        p = rng.choice([2, 3, 5, 7])
        ctx = ctx_for(p)
        f = random_poly(rng, ctx, max_terms=5, max_exp=5)
        v = classify_mld(f, p)
        assert v.mld.is_neg_infinity or v.mld.value in (0, 1, 2, 3)
        if v.witness is not None and v.branch_trace[0] == "multiplicity=2":
            weights.add(tuple(v.witness.weight))
    double_point = {
        (1, 1, 1), (3, 2, 2), (2, 1, 1), (6, 4, 3), (9, 6, 4),
        (15, 10, 6), (3, 2, 1), (10, 5, 4), (15, 8, 6), (21, 14, 6),
    }
    assert weights <= double_point


def test_verdict_invariance_under_linear_changes(rng):
    fixtures = [
        ("x^2+y^3+z^5", 7), ("x^2+y^3", 5), ("x^2+y^2*z", 3),
        ("x*y*z", 5), ("x^2+y^4", 3), ("x^2+y^3+x*y*z", 2),
    ]
    for text, p in fixtures:
        ctx = ctx_for(p)
        f = poly(text, p)
        base = classify_mld(f, p)
        for _ in range(5):
            m = random_invertible_matrix(rng, ctx)
            moved = LinearStep(m).apply(f)
            v = classify_mld(moved, p)
            assert v.mld == base.mld or (
                v.mld.is_neg_infinity and base.mld.is_neg_infinity
            ), (text, p)
            assert v.mld.sort_value() == base.mld.sort_value()


def test_verdict_invariance_under_unit_rescale(rng):
    for text, p in [("x^2+y^3+z^5", 7), ("x^2+y^3*z", 5), ("x*y*z", 3)]:
        ctx = ctx_for(p)
        f = poly(text, p)
        base = classify_mld(f, p)
        for c in range(2, p):
            v = classify_mld(f.scale(ctx.from_int(c)), p)
            assert v.mld.sort_value() == base.mld.sort_value()


def test_initial_term_monotonicity(rng):
    pool = [
        ("x^2+y^3+z^5", 7), ("x^2+y^2*z", 5), ("x*y*z", 3),
        ("x^2+y^3+x*z^2", 5), ("x^2+y^3+y*z^3", 7), ("x^2+y^2+z^2", 3),
        ("x^2+y^3+x*y*z", 2), ("x^3+y^3+x*y*z", 5),
    ]
    count = 0
    for text, p in pool:
        f = poly(text, p)
        vf = classify_mld(f, p)
        for _ in range(6):
            w = tuple(rng.randint(1, 6) for _ in range(3))
            g = f.in_w(w)
            vg = classify_mld(g, p)
            assert vf.mld.sort_value() >= vg.mld.sort_value(), (text, p, w)
            count += 1
    assert count >= 40


def test_jet_sufficiency_perturbations():
    # adding any monomial of strictly larger weight along the surviving
    # branch leaves the verdict unchanged
    cases = [
        ("x^2+y^3", 0, (21, 14, 6)),
        ("x^2+y^3+z^5", 7, (15, 10, 6)),
        ("x^2+y^2*z", 5, (3, 2, 2)),
        ("x^2+y^4", 0, (10, 5, 4)),
        ("x^2+y^3+x*y*z", 2, (3, 2, 1)),
        ("x^2+y^3*z", 0, (15, 8, 6)),
    ]
    bumps = [(2, 0, 1), (1, 2, 1), (0, 4, 2), (3, 1, 0), (0, 2, 4)]
    for text, p, w in cases:
        ctx = ctx_for(p)
        f = poly(text, p)
        base = classify_mld(f, p)
        d = f.ord_w(w)
        for m in bumps:
            weight = sum(a * b for a, b in zip(w, m))
            if weight <= d or sum(m) < 2:
                continue
            g = f + TriPoly.monomial(ctx, m)
            v = classify_mld(g, p)
            assert v.mld.sort_value() == base.mld.sort_value(), (text, m)
            assert tuple(v.witness.weight) == tuple(base.witness.weight)


def test_mld_value_constraints():
    with pytest.raises(ValueError):
        MldValue.finite(5)


def test_field_extension_is_reported():
    v = mld_of("x^3+y^3+x*y*z", 2)  # node tangents live in F_4
    assert v.field_extension_used == 2


def test_ord3_carveout_flags():
    v = mld_of("x^3+y^2*z", 0)
    assert v.mld.is_neg_infinity and v.witness.computes_mld is False
    v = mld_of("x*y*z", 7)
    assert v.mld.value == 0 and v.witness.computes_mld is True
    v = mld_of("x^4+z^4+y^4", 0)
    assert v.mld.is_neg_infinity and v.witness.computes_mld is True


# ---------------------------------------------------------------------------
# the terminal-branch table, pinned entry by entry


def _cert(kind, detail, p=None, witness=None):
    data = {"kind": kind, "detail": detail}
    if p is not None:
        data["fedder"] = {"is_fpure": witness is not None, "p": p,
                          "witness_monomial": witness}
    return data


MONO, TORIC, RDP, ELL, LR, FEDDER = (
    "monotonicity", "toric_witness", "rational_double_point", "simple_elliptic",
    "lr_table_char0", "fedder",
)
NC_BOUND = _cert(MONO, "a(E_(1,1,1)) = 1 bounds above; the normal-crossing "
                       "initial form bounds below")
RDP_ADJUNCTION = _cert(RDP, "the initial form defines a rational double point; "
                            "adjunction gives mld 1 and the toric bound matches")
CONE = _cert(MONO, "order 3: the mld of f equals the mld of its degree-3 initial form")
Y2Z_Y_PLUS_Z = _cert(MONO, "the (3,2,1)-initial form of x^2+y^2z(y+z) is x^2+y^2z^2")
NEG = "-inf"

# (input, p, terminal label, mld, witness weight, certificates); every value
# was recorded from the hand-written branch code the table replaced
BRANCH_CASES = [
    ("1+x", 0, "unit", 3, (1, 1, 1),
     [_cert(MONO, "unit ideal: every divisor has a = k_E + 1")]),
    ("x", 5, "smooth", 2, (1, 1, 1), [_cert(MONO, "smooth hypersurface germ")]),
    ("x^4+y^4+z^4", 3, "multiplicity>=4", NEG, (1, 1, 1),
     [_cert(TORIC, "a(E_(1,1,1)) = 3 - 4 < 0 at an origin-centered divisor")]),
    ("x^5+y^5+z^5", 2, "multiplicity>=5", NEG, (1, 1, 1),
     [_cert(TORIC, "a(E_(1,1,1)) = 3 - 5 < 0 at an origin-centered divisor")]),
    ("x^2+y^2", 7, "quadric:rank2", 1, (1, 1, 1),
     [_cert(FEDDER, "splitting witness for x*y at p=7", 7, [6, 6, 0]), NC_BOUND]),
    ("x^2+y^2", 0, "quadric:rank2", 1, (1, 1, 1),
     [_cert(MONO, "normal-crossing pair x*y has mld 1")]),
    ("x^2+y^2+z^2", 5, "quadric:rank3", 1, (1, 1, 1),
     [_cert(RDP, "x^2+y^2+z^2 is an A_1 rational double point")]),
    ("x^2+y^2+z^2", 0, "quadric:rank3", 1, (1, 1, 1),
     [_cert(RDP, "x^2+y^2+z^2 is an A_1 rational double point")]),
    # a rank-3 quadric in characteristic 2 is x^2+yz, squeezed through xy
    ("x^2+y*z", 2, "quadric:rank3", 1, (1, 1, 1),
     [_cert(FEDDER, "splitting witness for x*y at p=2", 2, [1, 1, 0]), NC_BOUND]),
    ("x^2+y^2*z", 5, "w2:y2z", 1, (3, 2, 2),
     [_cert(MONO, "cited mld(x^2 + y^2 z) = 1 transfers through the initial-form "
                  "inequality; a(E_(3,2,2)) = 1 matches it")]),
    ("x^2+y*z*(y+3*z)", 7, "w2:yz-distinct", 1, (3, 2, 2),
     [_cert(MONO, "the (2,1,2)-initial form of x^2+yz(y+az) is x^2+y^2z with "
                  "cited mld 1; a(E_(3,2,2)) = 1 matches it")]),
    ("x^2+y^3+x*z^2", 5, "w3:rdp-xz2", 1, (6, 4, 3), [RDP_ADJUNCTION]),
    ("x^2+y^3+y*z^3", 7, "w4:rdp-yz3", 1, (9, 6, 4), [RDP_ADJUNCTION]),
    ("x^2+y^3+z^5", 7, "w5:rdp-z5", 1, (15, 10, 6), [RDP_ADJUNCTION]),
    ("x^2+y^3", 0, "w6:pass", NEG, (21, 14, 6),
     [_cert(TORIC, "all deeper initial forms reduce to x^2 + y^3; "
                   "a(E_(21,14,6)) = 41 - 42 = -1")]),
    ("x^2+y^3+x*y*z", 2, "w6:fpure", 0, (3, 2, 1),
     [_cert(FEDDER, "splitting witness for the initial form at p=2", 2, [1, 1, 1])]),
    ("x^2+y^3+x*z^3", 2, "w6:elliptic", 0, (3, 2, 1),
     [_cert(ELL, "weighted-homogeneous form x^2+y^3+a*x*z^3+d*y^2*z^2 with a != 0 "
                 "defines a simple elliptic singularity")]),
    ("x^2+y*(y-z^2)*(y-3*z^2)", 7, "w6:delta-generic", 0, (3, 2, 1),
     [_cert(ELL, "x^2+y(y-z^2)(y-3z^2) with delta outside {0,1} is simple elliptic")]),
    ("x^2+y^2*(y-z^2)", 3, "w6:delta-special", 0, (3, 2, 1),
     [_cert(FEDDER, "splitting witness for the initial form at p=3", 3, [2, 2, 2])]),
    ("x^2+y^2*(y-z^2)", 0, "w6:delta-special", 0, (3, 2, 1),
     [_cert(LR, "delta = 0: cited characteristic-0 classification")]),
    ("x^2+y*(y-z^2)*(y-z^2)", 5, "w6:delta-special", 0, (3, 2, 1),
     [_cert(FEDDER, "splitting witness for the initial form at p=5", 5, [4, 4, 4])]),
    ("x^2+y^5+z^5", 0, "q:deep", NEG, (10, 5, 4),
     [_cert(TORIC, "the weight-(2,1,1) tail has order >= 5, so "
                   "a(E_(10,5,4)) = 19 - 20 = -1")]),
    ("x^2+y^4", 5, "q:y4", NEG, (10, 5, 4),
     [_cert(TORIC, "a(E_(10,5,4)) = 19 - 20 = -1 on x^2+y^4")]),
    ("x^2+y^3*z", 3, "q:y3z", NEG, (15, 8, 6),
     [_cert(TORIC, "a(E_(15,8,6)) = 29 - 30 = -1 on x^2+e*y^3*z")]),
    ("x^2+x*y*z+y^4", 2, "q:fpure", 0, (2, 1, 1),
     [_cert(FEDDER, "splitting witness for the initial form at p=2", 2, [1, 1, 1])]),
    ("x^2+x*y^2+y^3*z", 2, "q:elliptic2", 0, (2, 1, 1),
     [_cert(ELL, "x^2+x*y^2+y^3*z+... is simple elliptic in characteristic 2")]),
    ("x^2+y*z*(y+z)*(y+3*z)", 5, "q:4lines", 0, (2, 1, 1),
     [_cert(ELL, "x^2 + product of four distinct lines is simple elliptic")]),
    ("x^2+y^2*z^2", 5, "q:y2z2", 0, (2, 1, 1),
     [_cert(FEDDER, "splitting witness for x^2+y^2*z^2 at p=5", 5, [4, 4, 4])]),
    ("x^2+y^2*z^2", 0, "q:y2z2", 0, (2, 1, 1),
     [_cert(LR, "x^2+y^2*z^2: cited characteristic-0 verdict")]),
    ("x^2+y^2*z*(y+z)", 5, "q:y2z-y+z", 0, (2, 1, 1),
     [Y2Z_Y_PLUS_Z,
      _cert(FEDDER, "splitting witness for x^2+y^2*z^2 at p=5", 5, [4, 4, 4])]),
    ("x^2+y^2*z*(y+z)", 0, "q:y2z-y+z", 0, (2, 1, 1),
     [Y2Z_Y_PLUS_Z, _cert(LR, "x^2+y^2*z^2: cited characteristic-0 verdict")]),
    ("x^3+y^3+z^3", 7, "cone:smooth", 0, (1, 1, 1),
     [CONE, _cert(ELL, "smooth plane cubic cone: simple elliptic")]),
    ("x^3+y^3+x*y*z", 5, "cone:nodal", 0, (1, 1, 1),
     [CONE, _cert(FEDDER, "splitting witness for x^3+y^3+x*y*z at p=5", 5, [4, 4, 4])]),
    ("x^3+y^3+x*y*z", 0, "cone:nodal", 0, (1, 1, 1),
     [CONE, _cert(LR, "nodal cubic cone is semi-log canonical")]),
    ("x*y*z", 5, "cone:triangle", 0, (1, 1, 1),
     [CONE, _cert(FEDDER, "splitting witness for x*y*z at p=5", 5, [4, 4, 4])]),
    ("x*y*z", 0, "cone:triangle", 0, (1, 1, 1),
     [CONE, _cert(LR, "triangle cubic cone is semi-log canonical")]),
    ("y*(y^2+x*z)", 3, "cone:conic-transverse", 0, (1, 1, 1),
     [CONE, _cert(FEDDER, "splitting witness for x*y*z+y^3 at p=3", 3, [2, 2, 2])]),
    ("y*(y^2+x*z)", 0, "cone:conic-transverse", 0, (1, 1, 1),
     [CONE, _cert(LR, "conic-transverse cubic cone is semi-log canonical")]),
    ("x*y*(x+y)", 3, "cone:concurrent-lines", NEG, (2, 2, 1),
     [CONE, _cert(TORIC, "origin-centered witness (2, 2, 1) with negative "
                         "discrepancy against the initial form")]),
    ("x^3+y^2*z", 3, "cone:cuspidal", NEG, (4, 6, 1),
     [CONE, _cert(TORIC, "origin-centered witness (4, 6, 1) with negative "
                         "discrepancy against the initial form")]),
    ("x*(x*z+y^2)", 5, "cone:conic-tangent", NEG, (3, 2, 1),
     [CONE, _cert(TORIC, "origin-centered witness (3, 2, 1) with negative "
                         "discrepancy against the initial form")]),
    ("x^2*y", 0, "cone:repeated-line", NEG, (2, 1, 1),
     [CONE, _cert(TORIC, "origin-centered witness (2, 1, 1) with negative "
                         "discrepancy against the initial form")]),
]


@pytest.mark.parametrize("text,p,label,mld,weight,certs", BRANCH_CASES)
def test_branch_table_entries(text, p, label, mld, weight, certs):
    v = mld_of(text, p)
    assert v.branch_trace[-1] == label
    assert v.mld.to_json() == mld
    assert tuple(v.witness.weight) == weight
    assert [c.to_json() for c in v.certificates] == certs


def test_branch_cases_reach_every_table_entry():
    reached = {key for key, branch in BRANCHES.items()
               for case in BRANCH_CASES if terminal_branch(case[2]) is branch}
    assert reached == set(BRANCHES)


def test_fedder_recipe_on_a_model_that_is_not_fpure():
    # x^2+y^2*z^2 is not F-pure at p = 2, so its test result backs a citation
    # (the tree reaches q:y2z2 only in odd characteristic)
    certs = BRANCHES["q:y2z2"].certificates(2, poly("x^2", 2), {})
    assert [c.to_json() for c in certs] == [
        _cert(LR, "x^2+y^2*z^2 is not F-pure at p=2; citing the table verdict", 2, None)
    ]
