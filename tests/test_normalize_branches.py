"""Normalization branches that the rest of the suite and one pass of every
benchmark workload do not reach.

Each input reaches the named branch: the squarefree completion in x of the
stage-6 odd path, the char-2 stage-6 cleanup with both addends, the xz^2
clearing of the char-2 quartic (with a2 = 0 and through a root), the y^3z fix
of the char-2 elliptic quartic, and the square absorption and swap of the
char-2 y^3z tail.  For each the CLI `slc` report verifies, the label and mld
survive seeded linear changes with a unit rescale, and a finite mld bounds
every jet-oracle level up to 4.
"""

import json
import random

import pytest

from conftest import ctx_for, poly, random_invertible_matrix

from slchyp import classify_mld
from slchyp.fields import NeedsAlgebraicExtension
from slchyp.jets import mld_profile
from slchyp.normalize.auto import LinearStep

# (polynomial, characteristic, terminal label, mld, extension degree)
BRANCHES = [
    ("x^2+y^3+x*y*z", 0, "w6:delta-special", 0, 1),
    ("x^2+y^3+x*y*z", 5, "w6:delta-special", 0, 1),
    ("x^2+y^3+x*z^3", 5, "w6:delta-generic", 0, 4),
    ("x^2+y^3+y*z^4+z^6", 2, "w6:pass", "-inf", 1),
    ("x^2+x*z^2+y^4", 2, "q:elliptic2", 0, 1),
    ("x^2+x*z^2+x*y^2+y^3*z", 2, "q:elliptic2", 0, 1),
    ("x^2+y^2*z^2+z^4+y*z^3", 2, "q:y3z", "-inf", 1),
    ("x^2+y*z^3", 2, "q:y3z", "-inf", 1),
]
IDS = [f"{text}@{p}" for text, p, *_ in BRANCHES]


def _mld(verdict):
    return "-inf" if verdict.mld.is_neg_infinity else verdict.mld.value


@pytest.mark.parametrize("text,p,label,mld,degree", BRANCHES, ids=IDS)
def test_branch_label_and_mld(text, p, label, mld, degree):
    v = classify_mld(poly(text, p), p)
    assert v.branch_trace[-1] == label
    assert _mld(v) == mld
    assert v.field_extension_used == degree


@pytest.mark.parametrize("text,p,label,mld,degree", BRANCHES, ids=IDS)
def test_branch_slc_report_verifies(text, p, label, mld, degree, capsys, tmp_path):
    import slchyp.cli as cli_mod

    assert cli_mod.run(["slc", "--char", str(p), "--poly", text]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"]["branch_trace"][-1] == label
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert cli_mod.run(["verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"verified": True}


@pytest.mark.parametrize("text,p,label,mld,degree", BRANCHES, ids=IDS)
def test_branch_survives_linear_change_and_rescale(text, p, label, mld, degree):
    # over Q a linear change can ask for an irrational root, which the
    # classifier reports instead of guessing; every map it does classify
    # must give the same label and mld, and some map must classify
    ctx = ctx_for(p)
    f = poly(text, p)
    rnd = random.Random(16)
    classified = 0
    for _ in range(6):
        m = random_invertible_matrix(rnd, ctx)
        unit = ctx.from_int(rnd.randint(1, 3) if ctx.is_rational else rnd.randint(1, p - 1))
        moved = LinearStep(m).apply(f).scale(unit)
        try:
            v = classify_mld(moved, p)
        except NeedsAlgebraicExtension:
            assert ctx.is_rational
            continue
        classified += 1
        assert v.branch_trace[-1] == label
        assert _mld(v) == mld
    assert classified


@pytest.mark.parametrize(
    "text,p,label,mld,degree", [b for b in BRANCHES if b[3] != "-inf"],
    ids=[i for i, b in zip(IDS, BRANCHES) if b[3] != "-inf"],
)
def test_branch_mld_bounds_every_jet_level(text, p, label, mld, degree):
    prof = mld_profile(poly(text, p), 4, expected_mld=mld)
    assert prof.consistent_lower_bound
