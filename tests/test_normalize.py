import ast
import itertools
import pathlib
import random

import pytest
from hypothesis import given, strategies as st

from conftest import ctx_for, poly, random_poly, random_invertible_matrix

from slchyp import (
    NeedsAlgebraicExtension,
    TriPoly,
    normalize_quadric,
    normalize_quartic_211,
    normalize_w2_cubic,
    normalize_w3,
    normalize_w4,
    normalize_w5,
    normalize_w6,
)
from slchyp.fields import FieldEmbedding
from slchyp.normalize.auto import LinearStep, identity_matrix, kernel, mat_inverse


def replay_ok(out, original):
    assert out.replay_matches(original)


# -- quadric ------------------------------------------------------------------


def test_quadric_xy_char0_diagonalizes():
    q = poly("x*y")
    out = normalize_quadric(q)
    assert out.branch_label == "quadric:rank2"
    # frozen from the implementation's deterministic pivoting: the second
    # diagonal entry -1/4 has no rational square root and is kept
    assert out.poly == poly("x^2 - 1/4*y^2")
    replay_ok(out, q)


def test_quadric_x2_fixed_point():
    for p in (0, 2, 5):
        q = poly("x^2", p)
        out = normalize_quadric(q)
        assert out.branch_label == "quadric:rank1"
        assert out.poly == poly("x^2", p)
        replay_ok(out, q)


def test_quadric_yz_char2():
    q = poly("y*z", 2)
    out = normalize_quadric(q)
    assert out.branch_label == "quadric:rank2"
    assert out.poly == poly("x^2+x*y", 2)
    replay_ok(out, q)


def test_quadric_char2_list_membership():
    rnd = random.Random(7)
    ctx = ctx_for(2)
    allowed = [poly("x^2", 2), poly("x^2+x*y", 2), poly("x^2+y*z", 2)]
    for _ in range(60):
        q = TriPoly(
            ctx,
            {
                m: c
                for m, c in random_poly(rnd, ctx, max_terms=6, max_exp=2).terms.items()
                if sum(m) == 2
            },
        )
        if q.is_zero():
            continue
        out = normalize_quadric(q)
        if out.context == ctx:
            assert out.poly in allowed
        else:
            lifted = [
                a.map_coefficients(
                    FieldEmbedding(ctx, out.context, None), out.context
                )
                for a in allowed
            ]
            assert out.poly in lifted
        replay_ok(out, q)


def test_quadric_char_ne2_list_membership_finite():
    rnd = random.Random(11)
    for p in (3, 5, 7):
        ctx = ctx_for(p)
        allowed_texts = ["x^2", "x^2+y^2", "x^2+y^2+z^2"]
        for _ in range(40):
            q = TriPoly(
                ctx,
                {
                    m: c
                    for m, c in random_poly(rnd, ctx, max_terms=6, max_exp=2).terms.items()
                    if sum(m) == 2
                },
            )
            if q.is_zero():
                continue
            out = normalize_quadric(q)
            allowed = [
                poly(t, p).map_coefficients(
                    FieldEmbedding(ctx, out.context, None), out.context
                )
                if out.context != ctx
                else poly(t, p)
                for t in allowed_texts
            ]
            assert out.poly in allowed
            replay_ok(out, q)


def test_quadric_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize_quadric(poly("x^2+y^3"))
    with pytest.raises(ValueError):
        normalize_quadric(poly("0"))


# -- w2 cubic -------------------------------------------------------------------


def test_w2_relabeling():
    f = poly("x^2+z^3")
    out = normalize_w2_cubic(f)
    assert out.branch_label == "w2:y3"
    assert out.poly == poly("x^2+y^3")
    replay_ok(out, f)


def test_w2_double_line():
    f = poly("x^2+y^2*z+y^3")
    out = normalize_w2_cubic(f)
    assert out.branch_label == "w2:y2z"
    assert out.poly.in_w((3, 2, 2)) == poly("x^2+y^2*z")
    replay_ok(out, f)


def test_w2_still_x2():
    out = normalize_w2_cubic(poly("x^2"))
    assert out.branch_label == "w2:quartic"
    assert out.poly == poly("x^2")


def test_w2_distinct_lines_parameter():
    f = poly("x^2+y*z*(y+5*z)", 7)
    out = normalize_w2_cubic(f)
    assert out.branch_label == "w2:yz-distinct"
    a = out.parameters["a"]
    assert not a.is_zero()
    replay_ok(out, f)


# -- w3/w4/w5 -------------------------------------------------------------------


def test_w3_char5_example():
    # a1 = 0, a2 = 1 over F5: b^2 + 1 = 0 has the rational root 2 (2^2 = 4 = -1)
    f = poly("x^2+y^3+z^4", 5)
    out = normalize_w3(f)
    assert out.branch_label == "w3:rdp-xz2"
    assert out.context == ctx_for(5)  # no extension was needed
    assert out.poly.in_w((6, 4, 3)) == poly("x^2+y^3+x*z^2", 5)
    replay_ok(out, f)


def test_w3_needs_extension_when_root_is_missing():
    # b^2 + 1 = 0 has no root over F7; the outcome lands in F49
    f = poly("x^2+y^3+z^4", 7)
    out = normalize_w3(f)
    assert out.branch_label == "w3:rdp-xz2"
    assert out.context.extension_degree == 2


def test_w4_scaling():
    # 6 is a cube mod 7 (3^3 = 27 = 6), so the scaling stays in F_7
    f = poly("x^2+y^3+6*y*z^3", 7)
    out = normalize_w4(f)
    assert out.branch_label == "w4:rdp-yz3"
    assert out.context == ctx_for(7)
    assert out.poly.in_w((9, 6, 4)) == poly("x^2+y^3+y*z^3", 7)
    replay_ok(out, f)


def test_w4_scaling_with_extension():
    # 2 is not a cube mod 7; the unit scaling needs F_{7^3}
    f = poly("x^2+y^3+2*y*z^3", 7)
    out = normalize_w4(f)
    assert out.branch_label == "w4:rdp-yz3"
    assert out.context.extension_degree == 3
    assert out.replay_matches(f)


def test_w4_zero_tail_passes():
    out = normalize_w4(poly("x^2+y^3"))
    assert out.branch_label == "w4:pass"
    assert out.poly == poly("x^2+y^3")


def test_w5_scaling():
    f = poly("x^2+y^3+z^5")
    out = normalize_w5(f)
    assert out.branch_label == "w5:rdp-z5"
    assert out.poly == poly("x^2+y^3+z^5")
    replay_ok(out, f)


# -- w6 --------------------------------------------------------------------------


def test_w6_delta_three():
    f = poly("x^2+y*(y-z^2)*(y-3*z^2)", 7)
    out = normalize_w6(f)
    assert out.branch_label == "w6:delta-generic"
    assert str(out.parameters["delta"]) == "3"
    replay_ok(out, f)


def test_w6_char2_fedder_branch():
    f = poly("x^2+y^3+x*y*z", 2)
    out = normalize_w6(f)
    assert out.branch_label == "w6:fpure"
    assert out.poly == f  # identity automorphism
    assert not out.auto.steps


def test_w6_char0_strict_rationals():
    with pytest.raises(NeedsAlgebraicExtension):
        normalize_w6(poly("x^2+y^3+z^6"))


def test_w6_char2_elliptic_branch():
    f = poly("x^2+y^3+x*z^3+y*z^4", 2)
    out = normalize_w6(f)
    assert out.branch_label == "w6:elliptic"
    inw = out.poly.in_w((3, 2, 1))
    assert inw.coefficient((1, 0, 3)).is_one()
    assert inw.coefficient((0, 1, 4)).is_zero()
    assert inw.coefficient((0, 0, 6)).is_zero()
    replay_ok(out, f)


def test_w6_char2_cleanup_to_pass():
    f = poly("x^2+y^3+z^6+y*z^4+y^2*z^2", 2)
    out = normalize_w6(f)
    assert out.branch_label == "w6:pass"
    assert out.poly.in_w((3, 2, 1)) == poly("x^2+y^3", 2)
    replay_ok(out, f)


def test_w6_preserves_earlier_initial_forms():
    f = poly("x^2+y*(y-z^2)*(y-3*z^2)", 7)
    out = normalize_w6(f)
    for w in [(1, 1, 1)]:
        assert out.poly.in_w(w) == poly("x^2", 7)
    for w in [(3, 2, 2), (6, 4, 3), (9, 6, 4), (15, 10, 6)]:
        assert out.poly.in_w(w) == poly("x^2+y^3", 7)


# -- quartic branch ----------------------------------------------------------------


def test_quartic_empty_tail():
    out = normalize_quartic_211(poly("x^2"))
    assert out.branch_label == "q:deep"


def test_quartic_char2_fedder():
    out = normalize_quartic_211(poly("x^2+x*y*z+y^4", 2))
    assert out.branch_label == "q:fpure"
    inw = out.poly.in_w((2, 1, 1))
    assert not inw.coefficient((1, 1, 1)).is_zero()
    assert inw.coefficient((0, 4, 0)).is_zero()


def test_quartic_char3_four_lines():
    out = normalize_quartic_211(poly("x^2+y^4+y^3*z", 3))
    # y^4 + y^3 z = y^3 (y + z): a triple line, so the (15,8,6) branch
    assert out.branch_label == "q:y3z"


def test_quartic_char3_distinct_roots_elliptic():
    out = normalize_quartic_211(poly("x^2+y*z*(y+z)*(y+2*z)", 7))
    assert out.branch_label == "q:4lines"
    a = out.parameters["a"]
    assert not a.is_zero() and not a.is_one()


def test_quartic_y4_and_y2z2():
    assert normalize_quartic_211(poly("x^2+y^4")).branch_label == "q:y4"
    assert normalize_quartic_211(poly("x^2+y^2*z^2", 5)).branch_label == "q:y2z2"
    assert normalize_quartic_211(poly("x^2+y^2*z*(y+z)")).branch_label == "q:y2z-y+z"


def test_quartic_char2_collapse_to_deep():
    out = normalize_quartic_211(poly("x^2+y^4", 2))
    assert out.branch_label == "q:deep"
    assert out.poly == poly("x^2", 2)


def test_quartic_precondition():
    with pytest.raises(ValueError):
        normalize_quartic_211(poly("x^2+y^3"))  # (3,2,2)-form is not x^2


# -- generic replay / structure ------------------------------------------------------


def test_linear_step_inverse_composes_to_identity():
    rnd = random.Random(3)
    for p in (0, 5):
        ctx = ctx_for(p)
        m = random_invertible_matrix(rnd, ctx)
        inv = mat_inverse(LinearStep(m).matrix)
        prod = tuple(tuple(sum((m[i][k] * inv[k][j] for k in range(3)), ctx.zero())
                           for j in range(3)) for i in range(3))
        assert prod == identity_matrix(ctx)


@given(st.integers(min_value=0, max_value=2**31))
def test_quadric_outcome_replay_property(seed):
    rnd = random.Random(seed)
    p = rnd.choice([0, 2, 3, 5])
    ctx = ctx_for(p)
    q = TriPoly(
        ctx,
        {
            m: c
            for m, c in random_poly(rnd, ctx, max_terms=6, max_exp=2).terms.items()
            if sum(m) == 2
        },
    )
    if q.is_zero():
        return
    try:
        out = normalize_quadric(q)
    except NeedsAlgebraicExtension:
        assert p == 0
        return
    assert out.replay_matches(q)


# -- the shared 3x3 kernel -----------------------------------------------------


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    out = rows[0][0] - rows[0][0]
    for j, c in enumerate(rows[0]):
        minor = _det([r[:j] + r[j + 1:] for r in rows[1:]])
        out = out + c * minor if j % 2 == 0 else out - c * minor
    return out


def _independent(m, cols):
    """The columns `cols` of m are linearly independent: a nonzero maximal minor."""
    k = len(cols)
    return k == 0 or any(not _det([[m[r][c] for c in cols] for r in rows]).is_zero()
                         for rows in itertools.combinations(range(3), k))


def _check_kernel(m, elements=None):
    """kernel(m) against minors and, given the field's elements, brute force."""
    rank, v = kernel(m)
    assert rank == max(k for k in range(4)
                       if any(_independent(m, cols) for cols in itertools.combinations(range(3), k)))
    if elements is not None:
        in_kernel = sum(all(sum((a * b for a, b in zip(row, u)), elements[0]).is_zero()
                            for row in m)
                        for u in itertools.product(elements, repeat=3))
        assert in_kernel == len(elements) ** (3 - rank)
    if rank == 3:
        assert v is None
        return
    assert not all(c.is_zero() for c in v)
    assert all(sum((a * b for a, b in zip(row, v)), v[0] - v[0]).is_zero() for row in m)
    first_free = next(j for j in range(3) if not _independent(m, range(j + 1)))
    assert v[first_free].is_one()


def _sample_matrix(rnd, ctx, values):
    """Rows drawn from `values`, some of them combinations of earlier rows, so
    every rank turns up."""
    rows = []
    for _ in range(3):
        if rows and rnd.random() < 0.4:
            a, b = ctx.from_int(rnd.choice(values)), ctx.from_int(rnd.choice(values))
            rows.append(tuple(a * x + b * y for x, y in zip(rows[0], rows[-1])))
        else:
            rows.append(tuple(ctx.from_int(rnd.choice(values)) for _ in range(3)))
    rnd.shuffle(rows)
    return tuple(rows)


def test_kernel_on_every_matrix_over_f2():
    ctx = ctx_for(2)
    elements = [ctx.zero(), ctx.one()]
    ranks = set()
    for entries in itertools.product(elements, repeat=9):
        m = tuple(entries[3 * i:3 * i + 3] for i in range(3))
        _check_kernel(m, elements)
        ranks.add(kernel(m)[0])
    assert ranks == {0, 1, 2, 3}


@pytest.mark.parametrize("p", [3, 5, 0])
def test_kernel_on_seeded_matrices(p):
    ctx = ctx_for(p)
    rnd = random.Random(f"kernel:{p}")
    values = range(-3, 4) if p == 0 else range(p)
    elements = [ctx.from_int(k) for k in range(3)] if p == 3 else None
    ranks = set()
    for _ in range(150):
        m = _sample_matrix(rnd, ctx, values)
        _check_kernel(m, elements)
        ranks.add(kernel(m)[0])
    assert ranks >= {1, 2, 3}


def test_no_assert_statement_in_the_package():
    # normal-form checks raise AssertionError explicitly, so they still run
    # under `python -O`, which strips assert statements
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "slchyp"
    found = [
        f"{path.relative_to(src)}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
