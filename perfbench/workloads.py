"""Seeded workload generators and hand-written expectations.

Every expected verdict below is written by hand from the classification
tree (mld, witness weight, slc), never computed by slchyp.  A generator
turns a seed into an endless sequence of passes; a pass is a list of
operations, and the closed loop in worker.py only stops at a pass boundary,
so every run measures the same mix of operations.
"""

import collections
import contextlib
import functools
import io
import json
import math
import random
import sys

import polys

NEG = "-inf"
NA = "not_applicable"

# (polynomial, characteristic, mld, witness weight, slc); slc None marks a
# unit, for which semi-log canonicity is not defined.  This is the table of
# scripts/run_fixture_table.py, one row per (polynomial, characteristic).
FIXTURE_TABLE = [
    ("1+x", 0, 3, (1, 1, 1), None),
    ("1+x", 7, 3, (1, 1, 1), None),
    ("x", 0, 2, (1, 1, 1), True),
    ("x", 5, 2, (1, 1, 1), True),
    ("x^2+y^2", 0, 1, (1, 1, 1), True),
    ("x^2+y^2", 3, 1, (1, 1, 1), True),
    ("x^2+y^2", 7, 1, (1, 1, 1), True),
    ("x^2+y^2+z^2", 0, 1, (1, 1, 1), True),
    ("x^2+y^2+z^2", 5, 1, (1, 1, 1), True),
    ("x^2+x*y", 2, 1, (1, 1, 1), True),
    ("x^2+x*y+x*z+y*z", 2, 1, (1, 1, 1), True),
    ("x^2+y^2*z", 0, 1, (3, 2, 2), True),
    ("x^2+y^2*z", 2, 1, (3, 2, 2), True),
    ("x^2+y^2*z", 5, 1, (3, 2, 2), True),
    ("x^2+y*z*(y+3*z)", 0, 1, (3, 2, 2), True),
    ("x^2+y*z*(y+3*z)", 7, 1, (3, 2, 2), True),
    ("x^2+y^3+x*z^2", 0, 1, (6, 4, 3), True),
    ("x^2+y^3+x*z^2", 5, 1, (6, 4, 3), True),
    ("x^2+y^3+y*z^3", 0, 1, (9, 6, 4), True),
    ("x^2+y^3+y*z^3", 7, 1, (9, 6, 4), True),
    ("x^2+y^3+z^5", 0, 1, (15, 10, 6), True),
    ("x^2+y^3+z^5", 2, 1, (15, 10, 6), True),
    ("x^2+y^3+z^5", 7, 1, (15, 10, 6), True),
    ("x^2+y^3+x*y*z", 2, 0, (3, 2, 1), True),
    ("x^2+y*(y-z^2)*(y-3*z^2)", 0, 0, (3, 2, 1), True),
    ("x^2+y*(y-z^2)*(y-3*z^2)", 7, 0, (3, 2, 1), True),
    ("x^2+y^2*(y-z^2)", 0, 0, (3, 2, 1), True),
    ("x^2+y^2*(y-z^2)", 3, 0, (3, 2, 1), True),
    ("x^2+y^2*(y-z^2)", 7, 0, (3, 2, 1), True),
    ("x^2+y*(y-z^2)*(y-z^2)", 0, 0, (3, 2, 1), True),
    ("x^2+y*(y-z^2)*(y-z^2)", 5, 0, (3, 2, 1), True),
    ("x^2+y^3", 0, NEG, (21, 14, 6), False),
    ("x^2+y^3", 2, NEG, (21, 14, 6), False),
    ("x^2+y^3", 3, NEG, (21, 14, 6), False),
    ("x^2+y^3", 7, NEG, (21, 14, 6), False),
    ("x^2+y^4", 0, NEG, (10, 5, 4), False),
    ("x^2+y^4", 2, NEG, (10, 5, 4), NA),  # (x+y^2)^2 in characteristic 2
    ("x^2+y^4", 5, NEG, (10, 5, 4), False),
    ("x^2+y^5+z^5", 0, NEG, (10, 5, 4), False),
    ("x^2+y^5+z^5", 2, NEG, (10, 5, 4), False),
    ("x^2+y^3*z", 0, NEG, (15, 8, 6), False),
    ("x^2+y^3*z", 3, NEG, (15, 8, 6), False),
    ("x^2+y^3*z+y*z^3", 2, NEG, (15, 8, 6), False),
    ("x^2+y^2*z^2", 0, 0, (2, 1, 1), True),
    ("x^2+y^2*z^2", 3, 0, (2, 1, 1), True),
    ("x^2+y^2*z^2", 5, 0, (2, 1, 1), True),
    ("x^2+y^2*z^2", 7, 0, (2, 1, 1), True),
    ("x^2+y^2*z*(y+z)", 0, 0, (2, 1, 1), True),
    ("x^2+y^2*z*(y+z)", 5, 0, (2, 1, 1), True),
    ("x^2+x*y*z+y^4", 2, 0, (2, 1, 1), True),
    ("x^2+x*y^2+y^3*z", 2, 0, (2, 1, 1), True),
    ("x^2+y*z*(y+z)*(y+3*z)", 0, 0, (2, 1, 1), True),
    ("x^2+y*z*(y+z)*(y+3*z)", 5, 0, (2, 1, 1), True),
    ("x*y*z", 0, 0, (1, 1, 1), True),
    ("x*y*z", 2, 0, (1, 1, 1), True),
    ("x*y*z", 5, 0, (1, 1, 1), True),
    ("x^3+y^2*z", 0, NEG, (4, 6, 1), False),
    ("x^3+y^2*z", 2, NEG, (4, 6, 1), False),
    ("x^3+y^2*z", 3, NEG, (4, 6, 1), False),
    ("x*y*(x+y)", 0, NEG, (2, 2, 1), False),
    ("x*y*(x+y)", 3, NEG, (2, 2, 1), False),
    ("x^3+y^3+z^3", 0, 0, (1, 1, 1), True),
    ("x^3+y^3+z^3", 2, 0, (1, 1, 1), True),
    ("x^3+y^3+z^3", 7, 0, (1, 1, 1), True),
    ("x^3+y^3+x*y*z", 0, 0, (1, 1, 1), True),
    ("x^3+y^3+x*y*z", 2, 0, (1, 1, 1), True),
    ("x^3+y^3+x*y*z", 5, 0, (1, 1, 1), True),
    ("y*(y^2+x*z)", 0, 0, (1, 1, 1), True),
    ("y*(y^2+x*z)", 3, 0, (1, 1, 1), True),
    ("x*(x*z+y^2)", 0, NEG, (3, 2, 1), False),
    ("x*(x*z+y^2)", 5, NEG, (3, 2, 1), False),
    ("x^2*y", 0, NEG, (2, 1, 1), NA),
    ("x^4+y^4+z^4", 0, NEG, (1, 1, 1), False),
    ("x^4+y^4+z^4", 3, NEG, (1, 1, 1), False),
]

# The verdict-invariance fixtures of the property suite with their mld,
# which no invertible linear change or unit rescale can move.
INVARIANCE_FIXTURES = [
    ("x^2+y^3+z^5", 7, 1), ("x^2+y^3", 5, NEG), ("x^2+y^2*z", 3, 1),
    ("x*y*z", 5, 0), ("x^2+y^4", 3, NEG), ("x^2+y^3+x*y*z", 2, 0),
    ("x^2+y^2", 3, 1), ("x^2+y^2+z^2", 7, 1), ("x^2+y^3+x*z^2", 5, 1),
    ("x^2+y^3+y*z^3", 7, 1), ("x^2+y^3*z", 3, NEG), ("x^2+y^2*z^2", 5, 0),
    ("x^3+y^2*z", 3, NEG), ("x^3+y^3+x*y*z", 5, 0), ("x*y*(x+y)", 3, NEG),
    ("x^2*y", 5, NEG), ("x^4+y^4+z^4", 3, NEG), ("x^2+x*y", 2, 1),
    ("x^2+y^2*(y-z^2)", 7, 0), ("x^2+y*z*(y+z)*(y+3*z)", 5, 0),
]

# The roadmap's large-characteristic stress shapes; all are log canonical
# with mld 0 (a simple elliptic quartic or weight-(3,2,1) branch).
STRESS_SHAPES = [
    "x^2+y*z*(y+3*z)*(y+5*z)+y^2*z^3",
    "x^2+y*(y^2+3*z^4)",
    "x^2+y^4+z^4+x*y*z",
]
STRESS_MLD = 0
# Primes in [100, 130): low hundreds, yet one pass over every pair predicted
# to need an extension takes about twelve seconds before any root-finding fix.
STRESS_PRIMES = (100, 130)

# coordinate_changes moves every fixture by the same COORDINATE_MAPS maps in
# each run, drawn once from a fixed seed; --seed sets their order.  A map's
# cost varies a hundredfold (x^2+y^3+y*z^3 over F_7 reaches F_{7^3} or
# F_{7^9} depending on it), so when --seed drew the maps, ten runs of 47
# maps per fixture spread by 0.10 of their median in ops_per_s from the
# draw alone.  One pass over the pool fills about one 25 s run.
COORDINATE_MAPS = 40
COORDINATE_POOL_SEED = "coordinate_changes:maps"

# Shapes whose level-6 jet profile costs under 0.3 s at every characteristic
# in the table; the others stop at level 5 (level 6 can take over 20 s).
ORACLE_LEVEL6 = {
    "x", "x^2+y^2", "x^2+x*y", "x^2+y^3+z^5", "x^2+y^2*z^2",
    "x^2+y^2*z*(y+z)", "x^2+x*y*z+y^4", "x^2+x*y^2+y^3*z",
    "x^2+y*z*(y+z)*(y+3*z)", "x*y*z", "x^3+y^3+z^3", "y*(y^2+x*z)",
}

# Highest percentile leaving at least ten operations beyond it in one 25 s
# run on a 2-vCPU VM, with some margin: runs there hold about 4500, 800
# (the map pool once), 20 and 230 operations respectively.
TAIL_PERCENTILE = {
    "fixture_table": 99.5,
    "coordinate_changes": 98.0,
    "large_char_extensions": 50.0,
    "oracle_certify": 95.0,
}


# One closed-loop operation: a kind, its input and the expected verdict.
Op = collections.namedtuple("Op", "kind text p expect")


# ---------------------------------------------------------------------------
# the generator's own residue tests (no slchyp involved)


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _is_power(a, n, p):
    """a is an n-th power in F_p^* (generalised Euler criterion)."""
    a %= p
    return a != 0 and pow(a, (p - 1) // math.gcd(n, p - 1), p) == 1


def _sqrt_mod(a, p):
    a %= p
    return next(s for s in range(p) if s * s % p == a)


def needs_extension(shape, p):
    """Predict that classifying STRESS_SHAPES[shape] over F_p enlarges F_p.

    Each test names an element or polynomial the normalization must take a
    root of, and checks by power residues that the root is not in F_p:
      0: the four-line branch scales by a 4th root of 1/45;
      1: the weight-(3,2,1) branch splits y^2 + 3 z^4, i.e. needs sqrt(-3);
      2: the quartic branch splits t^4 - t^2/4 + 1, whose roots are the
         square roots of u = (1/4 +- sqrt(-63/16)) / 2 with u+ * u- = 1.
    """
    if p <= 7 or not is_prime(p):
        raise ValueError("stress primes must exceed every discriminant prime")
    if shape == 0:
        return not _is_power(pow(45, -1, p), 4, p)
    if shape == 1:
        return not _is_power(-3, 2, p)
    if shape == 2:
        disc = -63 * pow(16, -1, p)
        if not _is_power(disc, 2, p):
            return True
        u = (pow(4, -1, p) + _sqrt_mod(disc, p)) * pow(2, -1, p)
        return not _is_power(u, 2, p)
    raise ValueError(f"unknown stress shape {shape}")


def stress_pool():
    lo, hi = STRESS_PRIMES
    return [(shape, p) for p in range(lo, hi) if is_prime(p)
            for shape in range(len(STRESS_SHAPES)) if needs_extension(shape, p)]


# ---------------------------------------------------------------------------
# generators: seed -> endless passes


def _random_invertible(rnd, p):
    while True:
        m = tuple(tuple(rnd.randrange(p) for _ in range(3)) for _ in range(3))
        if polys.det3(m, p):
            return m


def _table_ops(rnd):
    return [Op("table", t, p, (mld, w, slc)) for t, p, mld, w, slc in FIXTURE_TABLE]


@functools.lru_cache(maxsize=None)
def _moved_pool():
    """Each invariance fixture under COORDINATE_MAPS random invertible maps
    and unit rescales, drawn from COORDINATE_POOL_SEED."""
    rnd = random.Random(COORDINATE_POOL_SEED)
    ops = []
    for text, p, mld in INVARIANCE_FIXTURES:
        for _ in range(COORDINATE_MAPS):
            m = _random_invertible(rnd, p)
            unit = rnd.randrange(1, p)
            f = polys.scale(polys.substitute_linear(polys.parse(text, p), m, p), unit, p)
            ops.append(Op("moved", polys.to_text(f), p, mld))
    return tuple(ops)


def _moved_ops(rnd):
    return list(_moved_pool())


def _stress_ops(rnd):
    return [Op("stress", STRESS_SHAPES[s], p, STRESS_MLD) for s, p in stress_pool()]


def _certify_ops(rnd):
    # units are left out: the jet oracle's contact formula needs f(0) = 0
    return [Op("certify", t, p, (mld, 6 if t in ORACLE_LEVEL6 else 5))
            for t, p, mld, _w, slc in FIXTURE_TABLE if slc is not None and mld != NEG]


_PASS = {
    "fixture_table": _table_ops,
    "coordinate_changes": _moved_ops,
    "large_char_extensions": _stress_ops,
    "oracle_certify": _certify_ops,
}
WORKLOADS = tuple(_PASS)


def generate(workload, seed):
    """Yield the passes of a workload, each in a seeded order; the same seed
    yields the same operations."""
    make = _PASS[workload]
    rnd = random.Random(f"{workload}:{seed}")
    while True:
        batch = make(rnd)
        rnd.shuffle(batch)
        yield batch


# ---------------------------------------------------------------------------
# operations: run slchyp on one input and check it against the expectation.
# slchyp names are looked up on their modules at call time, so a traced run
# goes through the installed wrappers.


def _mld_of(verdict):
    return NEG if verdict.mld.is_neg_infinity else verdict.mld.value


def _field(slchyp, p):
    return slchyp.RATIONALS if p == 0 else slchyp.prime_field(p)


def run_op(slchyp, op):
    """Execute op; return None when every check passes, else a reason."""
    f = slchyp.parse_poly(op.text, _field(slchyp, op.p))
    if op.kind == "table":
        mld, weight, slc = op.expect
        if slc is None:
            v = slchyp.classify_mld(f, op.p)
        else:
            v = slchyp.classify_slc(f, op.p)
            if v.slc != slc:
                return f"slc {v.slc!r}, expected {slc!r}"
        if _mld_of(v) != mld or tuple(v.witness.weight) != weight:
            return f"mld {_mld_of(v)} at {tuple(v.witness.weight)}, expected {mld} at {weight}"
        bounds = slchyp.check_conjecture_bounds(v)
        k_e = sum(weight) - 1
        if (bounds.k_e, bounds.blowup_bound, bounds.k_e_within_40) != (k_e, k_e - 2, k_e <= 40):
            return f"bounds {bounds.to_json()} disagree with k_E = {k_e}"
        return None
    if op.kind in ("moved", "stress"):
        v = slchyp.classify_mld(f, op.p)
        if _mld_of(v) != op.expect:
            return f"mld {_mld_of(v)}, expected {op.expect}"
        if op.kind == "stress" and v.field_extension_used <= 1:
            return "no field extension although the residue test predicts one"
        return None
    if op.kind == "certify":
        return _certify(slchyp, op, f)
    raise ValueError(f"unknown operation kind {op.kind!r}")


def _cli(slchyp, argv, stdin=""):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = slchyp.cli.run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _certify(slchyp, op, f):
    mld, level = op.expect
    v = slchyp.classify_mld(f, op.p)
    if _mld_of(v) != mld:
        return f"mld {_mld_of(v)}, expected {mld}"
    code, report = _cli(slchyp, ["mld", "--char", str(op.p), "--poly", op.text])
    if code != 0 or json.loads(report)["verdict"]["mld"] != mld:
        return f"mld report exit {code}: {report.strip()}"
    code, out = _cli(slchyp, ["verify", "-"], stdin=report)
    if code != 0 or json.loads(out) != {"verified": True}:
        return f"verify rejected the report: {out.strip()}"
    try:
        prof = slchyp.mld_profile(f, level, expected_mld=mld)
    except slchyp.OracleOverflow as exc:
        return f"jet oracle overflow: {exc}"
    if not prof.consistent_lower_bound:
        return f"jet level below mld {mld}: {prof.profile.contact_entries()}"
    return None
