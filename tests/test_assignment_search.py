"""The assignment searches of the (2,1,1) quartic stage and of stage 6.

Over Q the four-line and double-line normal forms need a rational 4-th root,
and only some ways of sending two lines of the quartic to y and z give one;
stage 6 needs a rational square root of 1/a or 1/b.  Seeded germs pin the
assignment each search settles on, or the exception it ends in; the F_5 and
F_101 rows pin the finite-field path, where the first assignment succeeds,
through a field extension when the root needs one.
"""

import hashlib
import json
import random

import pytest

from conftest import ctx_for, poly

from slchyp import NeedsAlgebraicExtension, TriPoly, classify_mld, normalize_w6, prime_field
from slchyp import cli
from slchyp.normalize import quartic
from slchyp.normalize.auto import Normalizer
from slchyp.normalize.quartic import normalize_quartic_211

FIELDS = {0: ctx_for(0), 5: ctx_for(5), 101: prime_field(101)}

# monomials of (2,1,1)-weight >= 5: terms that never change the quartic part
TAIL_MONOMIALS = [(0, 0, 7), (1, 3, 1), (0, 5, 0), (1, 1, 2), (2, 1, 0), (0, 2, 3), (1, 0, 3)]


def _small(rnd, ctx, low=-4, high=4):
    return ctx.from_int(rnd.randint(low, high))


def _distinct(lines) -> bool:
    return all(not (a * d - b * c).is_zero()
               for k, (a, b) in enumerate(lines) for c, d in lines[k + 1:])


def _lines(rnd, ctx, double):
    """Distinct integer lines (a, b) for a*y + b*z, three when one is to be
    doubled: random ones, or those of the normal form yz(y+z)(y+s*z), resp.
    y^2 z(y+z), moved by a random integer (y, z)-change."""
    one, zero = ctx.one(), ctx.zero()
    count = 3 if double else 4
    while True:
        if rnd.random() < 0.5:
            lines = [(_small(rnd, ctx), _small(rnd, ctx)) for _ in range(count)]
        else:
            normal = [(one, zero), (zero, one), (one, one), (one, _small(rnd, ctx, 2, 9))]
            m = [_small(rnd, ctx) for _ in range(4)]
            lines = [(a * m[0] + b * m[2], a * m[1] + b * m[3]) for a, b in normal[:count]]
        if _distinct(lines):
            return lines


def _unit(rnd, ctx):
    """A random unit, over Q half the time a 4-th power."""
    while True:
        u = _small(rnd, ctx, -9, 9) / _small(rnd, ctx, 1, 4)
        if ctx.is_rational and rnd.random() < 0.5:
            u = u ** 4
        if not u.is_zero():
            return u


def _germ(rnd, ctx):
    """x^2 + u*C4 + tail, C4 four distinct lines or a double line and two
    simple ones, the tail terms of (2,1,1)-weight >= 5 or none."""
    double = rnd.random() < 0.3
    lines = _lines(rnd, ctx, double)
    if double:
        lines.append(lines[0])
    f = TriPoly.monomial(ctx, (0, 0, 0), _unit(rnd, ctx))
    for a, b in lines:
        f = f * (TriPoly.monomial(ctx, (0, 1, 0), a) + TriPoly.monomial(ctx, (0, 0, 1), b))
    f = f + TriPoly.monomial(ctx, (2, 0, 0))
    if rnd.random() < 0.5:
        for m in rnd.sample(TAIL_MONOMIALS, rnd.randint(1, 3)):
            f = f + TriPoly.monomial(ctx, m, _small(rnd, ctx, 1, 5))
    return f


def _outcome(f, normalize=normalize_quartic_211):
    """(label, line): the label of normalize(f) and one line with its label,
    parameters, normal form, automorphism JSON and final field, or the
    exception's name and one line with its type, message and polynomial."""
    try:
        out = normalize(f)
    except NeedsAlgebraicExtension as exc:
        name = type(exc).__name__
        return name, repr((str(f), name, str(exc), str(exc.polynomial)))
    assert out.replay_matches(f), str(f)
    ctx = out.context
    return out.branch_label, repr((
        str(f), out.branch_label, sorted((k, str(v)) for k, v in out.parameters.items()),
        str(out.poly), json.dumps(out.auto.to_json(), sort_keys=True),
        (ctx.characteristic, ctx.extension_degree, ctx.modulus)))


# sha256 of the outcome lines of test_seeded_assignment_search, recorded while
# every failed assignment was still applied to f and rolled back
SEARCH_DIGESTS = {
    0: "9a43ed222b6a46287b42c212c2eff14304f75c79c2bdd7dfc9a9c976311a4be0",
    5: "1fe75490f6bd9c304a537678e8348c15a09669014555c365a9c7c330251710fb",
    101: "de8d69b963a1f636205c7a6ac6d679b978435f61200f63f07daca7da09b7e94f",
}


@pytest.mark.parametrize("p", [0, 5, 101])
def test_seeded_assignment_search(p):
    # over Q some germs end in exit 3's exception and some in a normal form;
    # over F_q every germ reaches a normal form, some through an extension
    rnd = random.Random(f"assignment-search:{p}")
    ctx = FIELDS[p]
    labels, lines = zip(*(_outcome(_germ(rnd, ctx)) for _ in range(60 if p == 0 else 30)))
    expected = {"q:4lines", "q:y2z-y+z"} | ({"NeedsAlgebraicExtension"} if p == 0 else set())
    assert set(labels) == expected
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SEARCH_DIGESTS[p]


# sha256 of the outcome lines of test_seeded_w6_search, recorded while every
# failed candidate was still applied to f and rolled back
W6_DIGESTS = {
    0: "7a8527b434565db353a8ea9aa0d6e7940f8e3ebfad961ad4b141f915959de797",
    5: "584a3fae5c7267d002440e21dfcf789b10cbad71ddad077a715a1bcfba28a74e",
    101: "ad0a6735fffb4fff930c00a6cdbe55ed0096b03090ba54162a72aa812594bc95",
}


@pytest.mark.parametrize("p", [0, 5, 101])
def test_seeded_w6_search(p):
    # x^2 + y (y - a z^2)(y - b z^2): stage 6 scales z by a square root of
    # 1/a or of 1/b, over Q the first candidate that has one
    rnd = random.Random(f"w6-search:{p}")
    ctx = FIELDS[p]
    outcomes = []
    for _ in range(40 if p == 0 else 20):
        a, b = (_small(rnd, ctx, -9, 9) for _ in range(2))
        f = TriPoly.from_int_terms(ctx, [((2, 0, 0), 1), ((0, 3, 0), 1)]) + TriPoly.make(
            ctx, {(0, 2, 2): -(a + b), (0, 1, 4): a * b})
        outcomes.append(_outcome(f, normalize_w6))
    labels, lines = zip(*outcomes)
    assert {"w6:delta-generic", "w6:delta-special"} <= set(labels)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == W6_DIGESTS[p]


@pytest.fixture
def moves(monkeypatch):
    """The names of the steps pushed on any Normalizer, and the number of
    4-th roots the quartic stage's probes ask for."""
    pushed, probes = [], []
    push, root = Normalizer._push, quartic.field_nth_root
    monkeypatch.setattr(Normalizer, "_push",
                        lambda nz, step: pushed.append(type(step).__name__) or push(nz, step))
    monkeypatch.setattr(quartic, "field_nth_root", lambda a, n: probes.append(n) or root(a, n))
    return pushed, probes


@pytest.mark.parametrize("text, probed, steps", [
    # the normal form itself: the 14th assignment is the identity change
    ("x^2+y*z*(y+z)*(y+3*z)", 14, []),
    ("x^2+y*(y+z)*(y+2*z)*(y+3*z)", 11, ["LinearStep", "ScaleStep", "ScaleStep"]),
])
def test_four_lines_move_f_once(moves, text, probed, steps):
    # the failed assignments are probed on scalars, and f takes only the
    # winner's linear change and two scales
    pushed, probes = moves
    assert normalize_quartic_211(poly(text)).branch_label == "q:4lines"
    assert (len(probes), pushed) == (probed, steps)


@pytest.mark.parametrize("text, value", [
    ("x^2+5*y*z*(y+z)*(y+3*z)", "-2/45"),
    ("x^2+y*z*(y+2*z)*(y+5*z)", "-4/3"),
    ("x^2+7*y*z*(y-z)*(y+2*z)", "-1/14"),
])
def test_four_lines_without_rational_root_move_nothing(moves, capsys, text, value):
    # every assignment's probe fails: the classifier raises the last probe's
    # failure without a step on f, and the CLI exits 3 with it
    pushed, probes = moves
    with pytest.raises(NeedsAlgebraicExtension) as info:
        classify_mld(poly(text))
    assert str(info.value) == f"no rational 4-th root of {value}"
    assert str(info.value.polynomial) == f"t^4 + {value[1:]}"
    assert (len(probes), pushed) == (24, [])
    assert cli.run(["mld", "--char", "0", "--poly", text]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == str(info.value)
