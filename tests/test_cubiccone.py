import hashlib
import json
import random
import sys
from itertools import product

import pytest

from conftest import ctx_for, poly, random_invertible_matrix

from slchyp import (
    RATIONALS,
    TriPoly,
    classify_cubic_cone,
    discrepancy,
    extension_field,
    prime_field,
    unipoly,
)
from slchyp.normalize import cubiccone
from slchyp.normalize.auto import LinearStep, Normalizer
from slchyp.poly import is_squarefree


TYPES = {
    "x*y*z": "cone:triangle",
    "x^3+y^2*z": "cone:cuspidal",
    "x*y*(x+y)": "cone:concurrent-lines",
    "x^3+y^3+z^3": "cone:smooth",
    "x^3+y^3+x*y*z": "cone:nodal",
    "y*(y^2+x*z)": "cone:conic-transverse",
    "x*(x*z+y^2)": "cone:conic-tangent",
    "x^2*y": "cone:repeated-line",
    "x^3": "cone:repeated-line",
}


def test_projective_types():
    for text, label in TYPES.items():
        for p in (0, 2, 3, 5, 7):
            if text == "x^3+y^3+z^3" and p == 3:
                continue  # cube of x+y+z in characteristic 3
            out = classify_cubic_cone(poly(text, p))
            assert out.branch_label == label, (text, p, out.branch_label)


def test_char3_fermat_cubic_is_repeated_line():
    out = classify_cubic_cone(poly("x^3+y^3+z^3", 3))
    assert out.branch_label == "cone:repeated-line"


def test_negative_types_carry_runtime_witnesses():
    witness = {
        "cone:cuspidal": (4, 6, 1),
        "cone:conic-tangent": (3, 2, 1),
        "cone:concurrent-lines": (2, 2, 1),
        "cone:repeated-line": (2, 1, 1),
    }
    for text, label in TYPES.items():
        if label not in witness:
            continue
        for p in (0, 3):
            out = classify_cubic_cone(poly(text, p))
            rep = discrepancy(out.poly, witness[label])
            assert rep.a < 0, (text, p, rep)


def test_cuspidal_degenerate_char3():
    # second cuspidal orbit in characteristic 3: the x^2 y term survives
    out = classify_cubic_cone(poly("y^2*z+x^3+x^2*y", 3))
    assert out.branch_label == "cone:cuspidal"
    assert discrepancy(out.poly, (4, 6, 1)).a < 0


def test_triangle_normal_form_is_scaled_xyz():
    out = classify_cubic_cone(poly("(x+y)*(y+z)*(x+2*z)", 5))
    assert out.branch_label == "cone:triangle"
    assert set(out.poly.terms) == {(1, 1, 1)}


def test_conjugate_concurrent_over_q():
    # irreducible over Q, splits into three concurrent lines over the closure
    out = classify_cubic_cone(poly("x^3+3*x^2*y+3*x*y^2+3*y^3"))
    assert out.branch_label == "cone:concurrent-lines"
    assert all(m[2] == 0 for m in out.poly.terms)


def test_conjugate_triangle_over_q():
    # norm form of Q(cbrt(2)): irreducible over Q, a triangle over the closure
    # N(x + y t + z t^2) with t^3 = 2
    f = poly("x^3+2*y^3+4*z^3-6*x*y*z")
    out = classify_cubic_cone(f)
    assert out.branch_label == "cone:triangle"
    assert out.parameters.get("split") == "conjugate lines"


def test_conjugate_pair_plus_line_over_q():
    # x * (x^2 + y^2): conjugate line pair meets the real line at [0:0:1],
    # which lies on x = 0, so the three lines are concurrent
    out = classify_cubic_cone(poly("x*(x^2+y^2)"))
    assert out.branch_label == "cone:concurrent-lines"
    # triangle variant: pair with common point off the third line
    out2 = classify_cubic_cone(poly("z*(x^2+y^2)"))
    assert out2.branch_label == "cone:triangle"


def test_nodal_with_irrational_node_tangents_over_q():
    out = classify_cubic_cone(poly("x^3+x^2*z+y^2*z"))
    assert out.branch_label == "cone:nodal"
    assert out.parameters.get("normalized") == "partial"


def test_type_is_invariant_under_linear_changes():
    rnd = random.Random(99)
    for text, label in TYPES.items():
        for p in (5, 2):
            ctx = ctx_for(p)
            g = poly(text, p)
            for _ in range(4):
                m = random_invertible_matrix(rnd, ctx)
                moved = LinearStep(m).apply(g)
                out = classify_cubic_cone(moved)
                assert out.branch_label == label, (text, p, out.branch_label)


def test_replay_on_every_outcome():
    for text in TYPES:
        for p in (0, 5):
            if text == "x^3+y^3+z^3" and p == 3:
                continue
            g = poly(text, p)
            out = classify_cubic_cone(g)
            assert out.replay_matches(g)


def test_rejects_non_cubic():
    with pytest.raises(ValueError):
        classify_cubic_cone(poly("x^2"))


CUBIC_MONOMIALS = [m for m in product(range(4), repeat=3) if sum(m) == 3]


def _outcome_line(out) -> str:
    """The label, parameters, normal form, automorphism JSON and final field
    of a cone outcome, on one line."""
    ctx = out.context
    return repr((out.branch_label, sorted((k, str(v)) for k, v in out.parameters.items()),
                 str(out.poly), json.dumps(out.auto.to_json(), sort_keys=True),
                 (ctx.characteristic, ctx.extension_degree, ctx.modulus)))


# sha256 of the outcome lines of test_random_cubic_cones, recorded before the
# singular locus came from one chart elimination
RANDOM_CONE_DIGESTS = {
    2: "70bf7bcc38246ee383067cf0e0590854da138e2b89bfe56c125ebecb0d5d4b0d",
    3: "fe88210a069ed646d97803bfcc15e8c006476a68e6b25cb650a9cb667c81a48b",
    5: "af0a024592c328913d10494111f25dba698e6f0df1b6e89bfc6dee44ee576b71",
    7: "1d37f9d19404de49e47d36daf89d3fa72c3f2748907946d97573218a08a127fb",
    0: "3022acaaac678bfafb53bdb5b79ce069f8f8d208e6c6baa936d9fa5ec7166e8e",
}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 0])
def test_random_cubic_cones(p):
    # seeded random cubics with 3-6 of the 10 cubic monomials: each one
    # classifies, replays, and keeps its type under a random linear change
    # followed by a unit rescale; nodes and cusps run the singular-locus
    # solve; both outcomes of every cubic hash to the recorded digest
    rnd = random.Random(f"cubic-cone:{p}")
    ctx = ctx_for(p)

    def coefficient(low):
        return ctx.from_int(rnd.randint(low, 3) if p == 0 else rnd.randint(low, p - 1))

    labels, lines = [], []
    while len(labels) < 40:
        chosen = rnd.sample(CUBIC_MONOMIALS, rnd.randint(3, 6))
        g = TriPoly.make(ctx, {m: coefficient(-3 if p == 0 else 0) for m in chosen})
        if g.is_zero():
            continue
        out = classify_cubic_cone(g)
        assert out.replay_matches(g), str(g)
        moved = LinearStep(random_invertible_matrix(rnd, ctx)).apply(g).scale(coefficient(1))
        moved_out = classify_cubic_cone(moved)
        assert moved_out.branch_label == out.branch_label, (str(g), p)
        labels.append(out.branch_label)
        lines += [str(g), _outcome_line(out), _outcome_line(moved_out)]
    assert {"cone:nodal", "cone:cuspidal"} & set(labels), labels
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == RANDOM_CONE_DIGESTS[p]


# the cubic cones of the CI reports that end in F_{5^6} (nodal) and F_{3^6}
# (cuspidal): the line search grows the field to degree 6
GROWN_FIELD_CUBICS = [
    ("z^3+2*y*z^2+2*y^2*z+2*y^3+3*x*z^2+4*x*y*z+3*x*y^2+4*x^2*z+2*x^2*y+4*x^3", 5),
    ("2*z^3+2*y*z^2+y^2*z+y^3+x*z^2+2*x*y^2+2*x^2*z+x^2*y+x^3", 3),
]


# the cubic monomials that vanish to order two at [0:0:1]
SINGULAR_AT_Z = [m for m in CUBIC_MONOMIALS if m[2] < 2]


def _cubics_without_lines(p, count):
    """The CI cubics over F_p, then seeded random cubics over F_p with no
    line, each with the Normalizer whose line search found none; every other
    random cubic is singular by construction, at a point a random linear
    change moves off [0:0:1]."""
    rnd = random.Random(f"no-lines:{p}")
    ctx = ctx_for(p)
    fixed = [poly(text, q) for text, q in GROWN_FIELD_CUBICS if q == p]
    found = []
    while len(found) < count:
        if fixed:
            g = fixed.pop()
        else:
            support = CUBIC_MONOMIALS if len(found) % 2 else SINGULAR_AT_Z
            g = TriPoly.make(ctx, {m: ctx.from_int(rnd.randrange(p)) for m in support})
            if g.is_zero() or not is_squarefree(g):
                continue
            g = LinearStep(random_invertible_matrix(rnd, ctx)).apply(g)
        nz = Normalizer(g)
        if not cubiccone._linear_factors(nz, nz.f)[1]:
            found.append((g, nz))
    return found


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_singular_locus_in_the_input_field(p):
    # smoothness and the singular point of a cubic with no line are read in
    # the input field; both must agree with the same work done on the cubic
    # lifted into the field where the line search ended
    degrees, singular = set(), 0
    for g, nz in _cubics_without_lines(p, 12):
        degrees.add(nz.context.extension_degree)
        points, grown = cubiccone._singular_points(g), cubiccone._singular_points(nz.f)
        assert (points is None) == (grown is None), str(g)
        if points is None:
            continue
        singular += 1
        assert len(points) == 1 and points[0][0].context == g.context
        assert [nz.lift(points[0])] == grown, str(g)
    assert max(degrees) > 1 and singular > 0, (degrees, singular)
    if p in (3, 5):
        assert 6 in degrees  # the CI cubic


# singular points written by hand, first nonzero coordinate one; the node of
# z^3 + L^3 + z L y with L = x - 2y sits where L = z = 0, at [2 : 1 : 0]
SINGULAR_POINTS = {
    "z^3+y^3+x*y*z": {p: [(1, 0, 0)] for p in (0, 2, 3, 5, 7)},
    "x^3+y*z^2": {p: [(0, 1, 0)] for p in (0, 2, 3, 5, 7)},
    "z^3+(x-2*y)*(x-2*y)*(x-2*y)+z*(x-2*y)*y": {
        0: [(1, "1/2", 0)], 2: [(0, 1, 0)], 3: [(1, 2, 0)], 5: [(1, 3, 0)], 7: [(1, 4, 0)]},
    "x^3+y^3+x*y*z": {p: [(0, 0, 1)] for p in (0, 2, 3, 5, 7)},
    "x^3+y^3+z^3": {p: None for p in (0, 2, 5, 7)},
    "x^3+2*y^3+4*z^3-6*x*y*z": {0: []},
}


@pytest.mark.parametrize("text", SINGULAR_POINTS)
def test_singular_points_on_the_chart_and_at_infinity(text):
    # points on the line z = 0 come from the gcd there, [1:0:0] from the
    # pure powers of x, [0:0:1] from the chart basis; a smooth cubic gives
    # None and the conjugate triangle over Q no rational point
    for p, expected in SINGULAR_POINTS[text].items():
        got = cubiccone._singular_points(poly(text, p))
        if expected is not None:
            expected = [tuple(str(c) for c in P) for P in expected]
            got = [tuple(str(c) for c in P) for P in got]
        assert got == expected, (text, p)


def test_singular_locus_takes_one_elimination(monkeypatch):
    # one lex basis on the chart z = 1 and no height computation, smooth or not
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("order"))
        return groebner_basis(*args, **kwargs)

    groebner_basis = cubiccone.groebner_basis
    monkeypatch.setattr(cubiccone, "groebner_basis", counted)
    assert not hasattr(cubiccone, "ideal_height_of")
    for text, expected in SINGULAR_POINTS.items():
        for p in expected:
            calls.clear()
            cubiccone._singular_points(poly(text, p))
            assert calls == ["lex"], (text, p)


# the fields of the cone differential, by name
DIFFERENTIAL_FIELDS = {
    "F_2": (2, 1), "F_3": (3, 1), "F_5": (5, 1), "F_7": (7, 1), "F_11": (11, 1),
    "F_13": (13, 1), "F_4": (2, 2), "F_9": (3, 2), "Q": (0, 1),
}


def _differential_context(name):
    p, n = DIFFERENTIAL_FIELDS[name]
    return RATIONALS if p == 0 else extension_field(p, n) if n > 1 else prime_field(p)


# sha256 of the outcome lines of test_cone_differential, recorded while
# every squarefree cubic ran the full line search
CONE_DIFFERENTIAL_DIGESTS = {
    "F_2": "24325aec0b9901bbd584fdaf2d5b42b3c23cec578c87cb2d1afbc45375e1985e",
    "F_3": "a240b32ca110181972f269f0f16c85e288d08032ccd71e022fcd67a36f45aa3c",
    "F_5": "9e25d71209ba9d47c529238a7b52f4cca746a61a7548b357e3c3554e9c5674d5",
    "F_7": "4461bd4a9aff4ccc2a0726618015c7dd0763c20de54a6dd4770f0b2455c6d7df",
    "F_11": "2b48fb1dcd06f8a966736ed88f8b2e1b5d635c569410c1472220f6dc985b4b60",
    "F_13": "9ef5d2630fb0d46abd373a815d7c3cc7a3b4248b9e7673fc9bcb912420660070",
    "F_4": "7249a177fe70f2311c9e9d2b9fcf0d703dbf274d6584f16d65d00aa8e3bec8ac",
    "F_9": "323e46ad87e1331de09f16acd0f1375e2b4742296cdb3ddecabb283e48767f70",
    "Q": "d441284acb944347fb7141633f24a022448b0dd154cb4e49745d2d6a1a52a3ae",
}


def _random_cubic(rnd, ctx, support):
    """A seeded cubic on a random part of `support` with nonzero
    coefficients, moved by a random linear change about 60% of the time."""

    def coefficient():
        if ctx.is_rational:
            return ctx.from_int(rnd.choice([-3, -2, -1, 1, 2, 3]))
        while True:
            c = ctx.from_vector([rnd.randrange(ctx.characteristic)
                                 for _ in range(ctx.extension_degree)])
            if not c.is_zero():
                return c

    chosen = rnd.sample(support, rnd.randint(2, len(support)))
    g = TriPoly.make(ctx, {m: coefficient() for m in chosen})
    if rnd.random() < 0.6:
        g = LinearStep(random_invertible_matrix(rnd, ctx)).apply(g)
    return g


@pytest.mark.parametrize("name", DIFFERENTIAL_FIELDS)
def test_cone_differential(name):
    # seeded cubics, half on any support and half on supports singular at
    # [0:0:1], about 60% moved by a random linear change: the outcome of
    # each, label, normal form, automorphism and final field, hashes to the
    # recorded digest
    ctx = _differential_context(name)
    rnd = random.Random(f"cone-differential:{name}")
    lines = []
    while len(lines) < 60:
        g = _random_cubic(rnd, ctx, CUBIC_MONOMIALS if len(lines) % 2 else SINGULAR_AT_Z)
        if g.is_zero():
            continue
        lines.append(str(g) + " " + _outcome_line(classify_cubic_cone(g)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CONE_DIFFERENTIAL_DIGESTS[name]


@pytest.mark.parametrize("name", DIFFERENTIAL_FIELDS)
def test_irreducibility_matches_the_line_search(name):
    # over a finite field a squarefree cubic is absolutely irreducible
    # exactly when the complete line search finds no line; over Q, where
    # the search finds only rational lines, irreducible implies none found
    ctx = _differential_context(name)
    rnd = random.Random(f"irreducible-cubics:{name}")
    answers = []
    while len(answers) < 30:
        g = _random_cubic(rnd, ctx, CUBIC_MONOMIALS if len(answers) % 2 else SINGULAR_AT_Z)
        if g.is_zero() or not is_squarefree(g):
            continue
        irreducible = cubiccone._absolutely_irreducible(g, cubiccone._singular_points(g))
        nz = Normalizer(g)
        no_line = not cubiccone._linear_factors(nz, nz.f)[1]
        if ctx.is_rational:
            assert no_line or not irreducible, str(g)
        else:
            assert irreducible == no_line, str(g)
        answers.append(irreducible)
    assert set(answers) == {True, False}, name


# the CI cubics that end in F_{5^6} and F_{3^6}, and a smooth cubic over F_5
# whose restrictions also split in F_{5^6}
IRREDUCIBLE_CUBICS = GROWN_FIELD_CUBICS + [
    ("4*x^3+x^2*y+4*x^2*z+4*x*y^2+4*x*y*z+x*z^2+y^3+3*y*z^2+3*z^3", 5),
]


def test_irreducible_cubics_skip_the_line_search(monkeypatch):
    # until the stage turns to the singular point, an irreducible cubic
    # finds no restriction zeros, tries no division and splits no root
    # search in the grown field, which still grows as the search grew it;
    # a cubic with a line shows that the spies see the search
    state = {"searching": False, "calls": []}

    def spy(module, name, counted=lambda: True):
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            if state["searching"] and counted():
                state["calls"].append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    spy(cubiccone, "_binary_restriction_points")
    spy(cubiccone, "_try_divide")
    # equal-degree splitting called by find_roots in the grown field, not
    # the in-field roots of the singular-point solve or a new embedding's
    spy(unipoly, "_split_linear", lambda: sys._getframe(2).f_code.co_name == "find_roots")
    no_rational_lines = cubiccone._no_rational_lines

    def reached(*args):
        state["searching"] = False
        return no_rational_lines(*args)
    monkeypatch.setattr(cubiccone, "_no_rational_lines", reached)

    for text, p in IRREDUCIBLE_CUBICS + [("y*(y^2+x*z)", 5)]:
        state.update(searching=True, calls=[])
        out = classify_cubic_cone(poly(text, p))
        if text.startswith("y*"):
            assert set(state["calls"]) == {"_binary_restriction_points", "_try_divide", "_split_linear"}
        else:
            assert state["calls"] == [] and out.context.extension_degree == 6, text
