"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import pathlib
import random
import subprocess
import sys
import time

from conftest import ctx_for, poly, random_poly, random_invertible_matrix

from slchyp import (
    TriPoly,
    check_conjecture_bounds,
    classify_mld,
    classify_slc,
    fedder_is_fpure,
    mld_profile,
)
from slchyp.fields import FieldEmbedding
from slchyp.frobenius import monomial_outside_pth_powers
from slchyp.normalize.auto import LinearStep

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _report(n, ok, label):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, label


# criterion 1: the terminal verdict table, exact match, < 1 s per fixture
FIXTURES = [
    # (poly, char, mld ("-inf" or int), witness weight or None)
    ("3", 0, 3, (1, 1, 1)),
    ("1+x", 0, 3, (1, 1, 1)),
    ("1+x+y*z", 7, 3, (1, 1, 1)),
    ("x", 0, 2, (1, 1, 1)),
    ("z+x^2", 5, 2, (1, 1, 1)),
    # step 1, characteristic != 2
    ("x^2+y^2", 0, 1, (1, 1, 1)),
    ("x^2+y^2", 3, 1, (1, 1, 1)),
    ("x^2+y^2+z^2", 0, 1, (1, 1, 1)),
    ("x^2+y^2+z^2", 7, 1, (1, 1, 1)),
    # step 1, characteristic 2
    ("x^2+x*y", 2, 1, (1, 1, 1)),
    ("x^2+x*y+x*z+y*z", 2, 1, (1, 1, 1)),
    ("x^2+3*x*y+5*x*z+y*z", 0, 1, (1, 1, 1)),
    # step 2-2
    ("x^2+y^2*z", 0, 1, (3, 2, 2)),
    ("x^2+y^2*z", 2, 1, (3, 2, 2)),
    ("x^2+y^2*z", 5, 1, (3, 2, 2)),
    ("x^2+y*z*(y+z)", 0, 1, (3, 2, 2)),
    ("x^2+y*z*(y+3*z)", 7, 1, (3, 2, 2)),
    # steps 3-5
    ("x^2+y^3+x*z^2", 0, 1, (6, 4, 3)),
    ("x^2+y^3+x*z^2", 5, 1, (6, 4, 3)),
    ("x^2+y^3+y*z^3", 0, 1, (9, 6, 4)),
    ("x^2+y^3+y*z^3", 7, 1, (9, 6, 4)),
    ("x^2+y^3+z^5", 0, 1, (15, 10, 6)),
    ("x^2+y^3+z^5", 7, 1, (15, 10, 6)),
    ("x^2+y^3+z^5", 2, 1, (15, 10, 6)),
    # step 6
    ("x^2+y^3+x*y*z", 2, 0, (3, 2, 1)),
    ("x^2+y*(y-z^2)*(y-3*z^2)", 0, 0, (3, 2, 1)),
    ("x^2+y*(y-z^2)*(y-3*z^2)", 7, 0, (3, 2, 1)),
    ("x^2+y^2*(y-z^2)", 0, 0, (3, 2, 1)),
    ("x^2+y*(y-z^2)*(y-z^2)", 0, 0, (3, 2, 1)),
    ("x^2+y^2*(y-z^2)", 3, 0, (3, 2, 1)),
    ("x^2+y^2*(y-z^2)", 7, 0, (3, 2, 1)),
    ("x^2+y*(y-z^2)*(y-z^2)", 5, 0, (3, 2, 1)),
    # step 7
    ("x^2+y^3", 0, "-inf", (21, 14, 6)),
    ("x^2+y^3", 2, "-inf", (21, 14, 6)),
    ("x^2+y^3", 3, "-inf", (21, 14, 6)),
    ("x^2+y^3", 7, "-inf", (21, 14, 6)),
    # quartic branch: negative terminals
    ("x^2+y^4", 0, "-inf", (10, 5, 4)),
    ("x^2+y^4", 2, "-inf", (10, 5, 4)),
    ("x^2+y^4", 5, "-inf", (10, 5, 4)),
    ("x^2+y^5+z^5", 0, "-inf", (10, 5, 4)),
    ("x^2+y^5+z^5", 2, "-inf", (10, 5, 4)),
    ("x^2+y^3*z", 0, "-inf", (15, 8, 6)),
    ("x^2+y^3*z", 3, "-inf", (15, 8, 6)),
    ("x^2+y^3*z+y*z^3", 2, "-inf", (15, 8, 6)),
    # quartic branch: nonnegative terminals
    ("x^2+y^2*z^2", 0, 0, (2, 1, 1)),
    ("x^2+y^2*z^2", 3, 0, (2, 1, 1)),
    ("x^2+y^2*z*(y+z)", 0, 0, (2, 1, 1)),
    ("x^2+y^2*z*(y+z)", 5, 0, (2, 1, 1)),
    ("x^2+x*y*z+y^4", 2, 0, (2, 1, 1)),
    ("x^2+x*y^2+y^3*z", 2, 0, (2, 1, 1)),
    ("x^2+y*z*(y+z)*(y+3*z)", 0, 0, (2, 1, 1)),
    ("x^2+y*z*(y+z)*(y+3*z)", 5, 0, (2, 1, 1)),
    # multiplicity 3 and beyond
    ("x*y*z", 0, 0, (1, 1, 1)),
    ("x*y*z", 2, 0, (1, 1, 1)),
    ("x^3+y^2*z", 0, "-inf", (4, 6, 1)),
    ("x^3+y^2*z", 2, "-inf", (4, 6, 1)),
    ("x*y*(x+y)", 0, "-inf", (2, 2, 1)),
    ("x^3+y^3+z^3", 0, 0, (1, 1, 1)),
    ("x^3+y^3+x*y*z", 5, 0, (1, 1, 1)),
    ("x^2*y", 0, "-inf", (2, 1, 1)),
    ("x^4+y^4+z^4", 0, "-inf", (1, 1, 1)),
]


def test_criterion_1_normal_form_fixture_table():
    ok = True
    for text, p, mld, weight in FIXTURES:
        started = time.monotonic()
        v = classify_mld(poly(text, p), p)
        elapsed = time.monotonic() - started
        got = "-inf" if v.mld.is_neg_infinity else v.mld.value
        if got != mld or tuple(v.witness.weight) != weight:
            print(f"  fixture {text!r} char {p}: got mld={got} w={tuple(v.witness.weight)}, "
                  f"want mld={mld} w={weight}")
            ok = False
        if elapsed >= 1.0:
            print(f"  fixture {text!r} char {p}: took {elapsed:.2f}s")
            ok = False
    # certificate kinds demanded by the criterion
    v = classify_mld(poly("x^2+y^3+x*y*z", 2), 2)
    ok &= any(c.kind == "fedder" for c in v.certificates)
    v = classify_mld(poly("x^2+y^2*(y-z^2)", 7), 7)
    ok &= any(c.kind == "fedder" for c in v.certificates)
    v = classify_mld(poly("x^2+y^2*(y-z^2)", 0), 0)
    ok &= any(c.kind == "lr_table_char0" for c in v.certificates)
    v = classify_mld(poly("x^2+y^3+z^5", 7), 7)
    ok &= any(c.kind == "rational_double_point" for c in v.certificates)
    _report(1, ok, "normal-form fixture table reproduces every terminal verdict")


def test_criterion_2_fedder_suite():
    ok = True
    for p in (3, 5, 7):
        cert = fedder_is_fpure(poly("x^2+y^2*z^2", p))
        ok &= cert.is_fpure
        ok &= classify_slc(poly("x^2+y^2*z^2", p), p).slc is True
    ok &= fedder_is_fpure(poly("x^2+y^3+x*y*z", 2)).is_fpure
    for p in (2, 3):
        ok &= not fedder_is_fpure(poly("x^2+y^3", p)).is_fpure
    for p in (2, 3, 5, 7, 11):
        ok &= fedder_is_fpure(poly("x*y*z", p)).is_fpure
    # witness re-check against an independent dense recomputation for p <= 5
    for text, p in [("x^2+y^2*z^2", 3), ("x^2+y^2*z^2", 5),
                    ("x^2+y^3+x*y*z", 2), ("x*y*z", 5), ("x*y*z", 3)]:
        f = poly(text, p)
        cert = fedder_is_fpure(f)
        dense = TriPoly.constant(f.context.one())
        for _ in range(p - 1):
            acc = {}
            for m1, c1 in dense.sorted_terms():
                for m2, c2 in f.sorted_terms():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    c = c1 * c2
                    acc[m] = acc[m] + c if m in acc else c
            dense = TriPoly.make(f.context, acc)
        ok &= cert.witness_monomial == monomial_outside_pth_powers(dense, p)
    _report(2, ok, "F-purity suite with independent dense recomputation")


def test_criterion_3_bound_checks():
    ok = True
    max_seen = 0
    attained_at = None
    for text, p, mld, weight in FIXTURES:
        v = classify_mld(poly(text, p), p)
        if not v.branch_trace or v.branch_trace[0] != "multiplicity=2":
            continue
        rep = check_conjecture_bounds(v)
        ok &= rep.k_e <= 40
        ok &= rep.blowup_bound <= 38
        ok &= rep.blowup_bound <= 39  # within B_2
        ok &= rep.k_e <= 58  # within M_2
        if rep.k_e > max_seen:
            max_seen = rep.k_e
            attained_at = tuple(v.witness.weight)
    ok &= max_seen == 40 and attained_at == (21, 14, 6)
    _report(3, ok, "k_E <= 40 on the double-point tree, maximum at (21,14,6)")


def test_criterion_4_oracle_agreement():
    started = time.monotonic()
    ok = True
    prof = mld_profile(poly("x*y"), 3, expected_mld=1)
    ok &= [v for _, v in prof.profile.contact_entries()] == [2, 1, 1]
    prof = mld_profile(poly("x"), 3, expected_mld=2)
    ok &= [v for _, v in prof.profile.contact_entries()] == [2, 2, 2]
    prof = mld_profile(poly("x^2+y^3+z^5", 7), 2, expected_mld=1)
    ok &= [v for _, v in prof.profile.contact_entries()] == [2, 1]
    prof = mld_profile(poly("x^2+y^2*z", 5), 3, expected_mld=1)
    ok &= prof.min_value == 1
    # every level value bounds the classifier's mld from above
    for text, p, levels in [("x*y", 0, 3), ("x", 0, 3),
                            ("x^2+y^3+z^5", 7, 2), ("x^2+y^2*z", 5, 3)]:
        v = classify_mld(poly(text, p), p)
        prof = mld_profile(poly(text, p), levels, expected_mld=v.mld.value)
        ok &= prof.consistent_lower_bound
    elapsed = time.monotonic() - started
    ok &= elapsed < 60
    _report(4, ok, f"jet oracle agrees with the classifier ({elapsed:.1f}s)")


def test_criterion_5_property_suites():
    started = time.monotonic()
    rnd = random.Random(1789)
    ok = True

    # ord/in multiplicativity and idempotence: 1000 random cases
    for _ in range(1000):
        p = rnd.choice([0, 2, 3, 5, 7])
        ctx = ctx_for(p)
        f = random_poly(rnd, ctx, max_terms=4, max_exp=4)
        g = random_poly(rnd, ctx, max_terms=4, max_exp=4)
        w = tuple(rnd.randint(0, 4) for _ in range(3))
        if not any(w):
            w = (1, 1, 1)
        if (f * g).ord_w(w) != f.ord_w(w) + g.ord_w(w):
            ok = False
        if (f * g).in_w(w) != f.in_w(w) * g.in_w(w):
            ok = False
        if f.in_w(w).in_w(w) != f.in_w(w):
            ok = False

    # substitute homomorphism laws: 1000 random triples
    for _ in range(1000):
        p = rnd.choice([0, 2, 5])
        ctx = ctx_for(p)
        f = random_poly(rnd, ctx, max_terms=3, max_exp=2)
        g = random_poly(rnd, ctx, max_terms=3, max_exp=2)
        imgs = []
        for _i in range(3):
            img = random_poly(rnd, ctx, max_terms=2, max_exp=2, nonzero=False)
            img = img - TriPoly.constant(img.coefficient((0, 0, 0)))
            imgs.append(img)
        if (f + g).substitute(imgs) != f.substitute(imgs) + g.substitute(imgs):
            ok = False
        if (f * g).substitute(imgs) != f.substitute(imgs) * g.substitute(imgs):
            ok = False

    # the recorded steps replay to the whole transformed polynomial on every
    # classifier run over the fixtures (the classifier applies each step once
    # and does not replay them itself)
    replayed = 0
    for text, p, _mld, _w in FIXTURES:
        f = poly(text, p)
        v = classify_mld(f, p)
        lifted = f
        if v.context != f.context:
            lifted = f.map_coefficients(
                FieldEmbedding(f.context, v.context, None), v.context
            )
        if v.automorphism.apply(lifted) != v.transformed:
            ok = False
        replayed += 1
    ok &= replayed == len(FIXTURES)

    # verdict invariance: 50 random linear changes x 20 fixtures
    inv_fixtures = [
        ("x^2+y^3+z^5", 7), ("x^2+y^3", 5), ("x^2+y^2*z", 3),
        ("x*y*z", 5), ("x^2+y^4", 3), ("x^2+y^3+x*y*z", 2),
        ("x^2+y^2", 3), ("x^2+y^2+z^2", 7), ("x^2+y^3+x*z^2", 5),
        ("x^2+y^3+y*z^3", 7), ("x^2+y^3*z", 3), ("x^2+y^2*z^2", 5),
        ("x^3+y^2*z", 3), ("x^3+y^3+x*y*z", 5), ("x*y*(x+y)", 3),
        ("x^2*y", 5), ("x^4+y^4+z^4", 3), ("x^2+x*y", 2),
        ("x^2+y^2*(y-z^2)", 7), ("x^2+y*z*(y+z)*(y+3*z)", 5),
    ]
    assert len(inv_fixtures) == 20
    for text, p in inv_fixtures:
        ctx = ctx_for(p)
        f = poly(text, p)
        base = classify_mld(f, p).mld.sort_value()
        for _ in range(50):
            m = random_invertible_matrix(rnd, ctx)
            moved = LinearStep(m).apply(f)
            if classify_mld(moved, p).mld.sort_value() != base:
                ok = False
                break
        # unit rescale invariance
        c = ctx.from_int(rnd.randint(1, p - 1))
        if classify_mld(f.scale(c), p).mld.sort_value() != base:
            ok = False

    # initial-term monotonicity on 200 classifiable pairs
    mono_pool = [
        ("x^2+y^3+z^5", 7), ("x^2+y^2*z", 5), ("x*y*z", 3),
        ("x^2+y^3+x*z^2", 5), ("x^2+y^3+y*z^3", 7), ("x^2+y^2+z^2", 3),
        ("x^2+y^3+x*y*z", 2), ("x^3+y^3+x*y*z", 5), ("x^2+y^4", 7),
        ("x^2+y^3*z", 5),
    ]
    pairs = 0
    while pairs < 200:
        text, p = mono_pool[pairs % len(mono_pool)]
        f = poly(text, p)
        w = tuple(rnd.randint(1, 6) for _ in range(3))
        vf = classify_mld(f, p).mld.sort_value()
        vg = classify_mld(f.in_w(w), p).mld.sort_value()
        if vf < vg:
            ok = False
        pairs += 1

    # jet sufficiency per terminal branch
    jet_cases = [
        ("x^2+y^3", 0, (21, 14, 6)), ("x^2+y^3+z^5", 7, (15, 10, 6)),
        ("x^2+y^2*z", 5, (3, 2, 2)), ("x^2+y^4", 0, (10, 5, 4)),
        ("x^2+y^3+x*y*z", 2, (3, 2, 1)), ("x^2+y^3*z", 0, (15, 8, 6)),
        ("x^2+y^3+x*z^2", 5, (6, 4, 3)), ("x^2+y^3+y*z^3", 7, (9, 6, 4)),
        ("x^2+y^2*z^2", 3, (2, 1, 1)), ("x^2+y^2", 0, (1, 1, 1)),
    ]
    for text, p, w in jet_cases:
        ctx = ctx_for(p)
        f = poly(text, p)
        base = classify_mld(f, p)
        d = f.ord_w(w)
        for m in [(2, 0, 1), (1, 2, 1), (0, 4, 2), (3, 1, 0), (0, 2, 4), (1, 1, 2)]:
            if sum(a * b for a, b in zip(w, m)) <= d or sum(m) < 2:
                continue
            g = f + TriPoly.monomial(ctx, m)
            v = classify_mld(g, p)
            if v.mld.sort_value() != base.mld.sort_value():
                ok = False
            if tuple(v.witness.weight) != tuple(base.witness.weight):
                ok = False

    elapsed = time.monotonic() - started
    ok &= elapsed < 120
    _report(5, ok, f"property suites hold ({elapsed:.1f}s)")


def _cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "slchyp", *args],
        capture_output=True, text=True, input=stdin,
    )


def test_criterion_6_determinism_and_verify():
    ok = True
    for argv in (
        ["slc", "--char", "2", "--poly", "x^2+y^3+x*y*z"],
        ["mld", "--char", "0", "--poly", "x^2+y^3"],
        ["mld", "--char", "2", "--poly", "x^3+y^3+x*y*z"],
        ["jet-profile", "--char", "7", "--poly", "x*y", "--m", "3"],
    ):
        a = _cli(*argv).stdout
        b = _cli(*argv).stdout
        ok &= a == b and a != ""
    for path in sorted(GOLDEN.glob("*.json")):
        if "jet" in path.name:
            continue
        proc = _cli("verify", str(path))
        ok &= proc.returncode == 0 and json.loads(proc.stdout)["verified"] is True
    _report(6, ok, "byte-identical reports; verify passes on every golden file")
