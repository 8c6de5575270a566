"""Composable coordinate automorphisms of k[[x,y,z]] and the step engine.

An Automorphism is an ordered list of elementary moves: invertible linear
substitutions, shifts of one variable by a polynomial in the others, unit
scalings of one variable, and unit rescalings of the whole polynomial (the
last is bookkeeping, not a coordinate change, but it never changes a
verdict).  Replaying the steps on the recorded input must reproduce the
recorded output; tests rely on that round trip.

A stage, `stage(nz) -> (label, params)`, moves `nz.f` towards a normal form
by the Normalizer's steps.  The classifier runs its stages in turn on one
Normalizer over f, applying each step once; `run_stage` runs one stage alone
and checks through `Normalizer.outcome` that its steps replay on the input.

The normalization stages share one toolkit from here:
  - `kernel`: rank and kernel vector of a 3x3 matrix (Gauss-Jordan);
  - `quadratic_coefficient`: the coefficient of x_i x_j;
  - `linear_form`: the polynomial sum_j c_j x_j;
  - `Normalizer.pair_linear`: a linear change of two variables (`swap` and
    `direction_to_z` are two);
  - `Normalizer.move_to_z`: a linear change taking a point to [0:0:1];
  - `complete_square` (characteristic != 2) and `absorb_squares`
    (characteristic 2): the shift of x that clears x*m, resp. m^2, for
    listed monomials m in y and z;
  - root access: `Normalizer.known_roots` gives the roots the field can
    supply (rational roots over Q, all roots over F_q), `all_roots` the
    full multiset and `root_of` the first root, both strict over Q;
  - `Normalizer.lift`: carries an element, a polynomial or a point computed
    before a root call into the field that call may have enlarged;
  - `field_nth_root` and `Normalizer.adopt`: an n-th root computed without
    touching the Normalizer, and the same root taken in its field;
  - `try_assignments`: when several assignments of factors to variables
    are possible, probes each on scalars for the root it needs and applies
    the first that has one, so f moves once and nothing is rolled back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..fields import (
    FieldContext,
    FieldElement,
    FieldEmbedding,
    NeedsAlgebraicExtension,
    _check,
)
from ..poly import Monomial, TriPoly, VARIABLE_NAMES
from ..unipoly import UniPoly, find_roots, nth_root

Matrix = Tuple[Tuple[FieldElement, ...], ...]


def mat_det(m: Matrix) -> FieldElement:
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def mat_inverse(m: Matrix) -> Matrix:
    det = mat_det(m)
    if det.is_zero():
        raise ValueError("matrix is singular")
    inv_det = det.inverse()
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    cof = (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )
    return tuple(tuple(x * inv_det for x in row) for row in cof)


def kernel(rows) -> Tuple[int, Optional[Tuple[FieldElement, ...]]]:
    """(rank, v) of a 3x3 matrix by Gauss-Jordan elimination; v is the kernel
    vector with a one at the first free column, None at full rank."""
    mat = [list(r) for r in rows]
    pivots: List[int] = []
    for col in range(3):
        r = len(pivots)
        piv = next((i for i in range(r, 3) if not mat[i][col].is_zero()), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][col].inverse()
        mat[r] = [c * inv for c in mat[r]]
        for i in range(3):
            if i != r and not mat[i][col].is_zero():
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
    if len(pivots) == 3:
        return 3, None
    ctx = mat[0][0].context
    free = next(c for c in range(3) if c not in pivots)
    vec = [ctx.zero()] * 3
    vec[free] = ctx.one()
    for row, col in enumerate(pivots):
        vec[col] = -mat[row][free]
    return len(pivots), tuple(vec)


def quadratic_coefficient(f: TriPoly, i: int, j: int) -> FieldElement:
    """Coefficient of x_i * x_j in f."""
    m = [0, 0, 0]
    m[i] += 1
    m[j] += 1
    return f.coefficient(tuple(m))


def linear_form(ctx: FieldContext, coeffs: Sequence[FieldElement]) -> TriPoly:
    """sum_j coeffs[j] * x_j."""
    out = TriPoly.zero(ctx)
    for j, c in enumerate(coeffs):
        if not c.is_zero():
            out = out + TriPoly.variable(ctx, j).scale(c)
    return out


def identity_matrix(ctx: FieldContext) -> Matrix:
    one, zero = ctx.one(), ctx.zero()
    return (
        (one, zero, zero),
        (zero, one, zero),
        (zero, zero, one),
    )


@dataclass(frozen=True)
class LinearStep:
    """x_i -> sum_j matrix[i][j] * x_j (an invertible linear substitution)."""

    matrix: Matrix

    def __post_init__(self):
        if mat_det(self.matrix).is_zero():
            raise ValueError("linear step must be invertible")

    def apply(self, f: TriPoly) -> TriPoly:
        return f.substitute([linear_form(f.context, row) for row in self.matrix])

    def map_context(self, emb: FieldEmbedding) -> "LinearStep":
        return LinearStep(tuple(tuple(emb(c) for c in row) for row in self.matrix))

    def to_json(self):
        return {
            "kind": "linear",
            "matrix": [[c.to_json() for c in row] for row in self.matrix],
        }


@dataclass(frozen=True)
class ShiftStep:
    """variable -> variable + addend, the addend free of that variable and of
    constant term."""

    var: int
    addend: TriPoly

    def __post_init__(self):
        if not self.addend.coefficient((0, 0, 0)).is_zero():
            raise ValueError("shift addend must vanish at the origin")
        if any(m[self.var] for m in self.addend.terms):
            raise ValueError("shift addend must omit the target variable")

    def apply(self, f: TriPoly) -> TriPoly:
        ctx = f.context
        images = [TriPoly.variable(ctx, i) for i in range(3)]
        images[self.var] = images[self.var] + self.addend
        return f.substitute(images)

    def map_context(self, emb: FieldEmbedding) -> "ShiftStep":
        return ShiftStep(self.var, self.addend.map_coefficients(emb, emb.target))

    def to_json(self):
        return {
            "kind": "shift",
            "variable": VARIABLE_NAMES[self.var],
            "addend": self.addend.to_json(),
        }


@dataclass(frozen=True)
class ScaleStep:
    """variable -> unit * variable."""

    var: int
    unit: FieldElement

    def __post_init__(self):
        if self.unit.is_zero():
            raise ValueError("scale unit must be nonzero")

    def apply(self, f: TriPoly) -> TriPoly:
        ctx = f.context
        if self.unit.context is not ctx:
            _check(ctx, self.unit.context)
        mul, unit = ctx.ops.mul, self.unit.payload
        powers = [ctx.ops.one]
        terms = {}
        for m, c in f.terms.items():
            e = m[self.var]
            while len(powers) <= e:
                powers.append(mul(powers[-1], unit))
            terms[m] = mul(c, powers[e]) if e else c
        return TriPoly(ctx, terms)

    def map_context(self, emb: FieldEmbedding) -> "ScaleStep":
        return ScaleStep(self.var, emb(self.unit))

    def to_json(self):
        return {
            "kind": "scale",
            "variable": VARIABLE_NAMES[self.var],
            "unit": self.unit.to_json(),
        }


@dataclass(frozen=True)
class UnitRescaleStep:
    """f -> unit * f; not a coordinate change, recorded for replay."""

    unit: FieldElement

    def __post_init__(self):
        if self.unit.is_zero():
            raise ValueError("rescale unit must be nonzero")

    def apply(self, f: TriPoly) -> TriPoly:
        return f.scale(self.unit)

    def map_context(self, emb: FieldEmbedding) -> "UnitRescaleStep":
        return UnitRescaleStep(emb(self.unit))

    def to_json(self):
        return {"kind": "unit_rescale", "unit": self.unit.to_json()}


Step = Union[LinearStep, ShiftStep, ScaleStep, UnitRescaleStep]


@dataclass(frozen=True)
class Automorphism:
    steps: Tuple[Step, ...]

    def apply(self, f: TriPoly) -> TriPoly:
        for s in self.steps:
            f = s.apply(f)
        return f

    def to_json(self):
        return [s.to_json() for s in self.steps]


def automorphism_from_json(data, context: FieldContext) -> Automorphism:
    from ..poly import tripoly_from_json

    var_index = {name: i for i, name in enumerate(VARIABLE_NAMES)}

    steps: List[Step] = []
    for entry in data:
        kind = entry["kind"]
        if kind == "linear":
            m = tuple(tuple(context.from_json(c) for c in row) for row in entry["matrix"])
            steps.append(LinearStep(m))
        elif kind == "shift":
            steps.append(
                ShiftStep(var_index[entry["variable"]],
                          tripoly_from_json(context, entry["addend"]))
            )
        elif kind == "scale":
            steps.append(ScaleStep(var_index[entry["variable"]], context.from_json(entry["unit"])))
        elif kind == "unit_rescale":
            steps.append(UnitRescaleStep(context.from_json(entry["unit"])))
        else:
            raise ValueError(f"unknown automorphism step kind {kind!r}")
    return Automorphism(tuple(steps))


@dataclass
class NormalizationOutcome:
    poly: TriPoly
    auto: Automorphism
    branch_label: str
    parameters: Dict[str, object] = field(default_factory=dict)
    embeddings: Tuple[FieldEmbedding, ...] = ()

    @property
    def context(self) -> FieldContext:
        return self.poly.context

    def replay(self, original: TriPoly) -> TriPoly:
        """Apply the recorded field extensions and steps to `original`."""
        for emb in self.embeddings:
            original = original.map_coefficients(emb, emb.target)
        return self.auto.apply(original)

    def replay_matches(self, original: TriPoly) -> bool:
        return self.replay(original) == self.poly


class Normalizer:
    """Mutable driver used while walking the case tree: holds the current
    polynomial, the accumulated automorphism, and the active field."""

    def __init__(self, f: TriPoly):
        self.f = f
        self.steps: List[Step] = []
        self._input = f
        self._embs: List[FieldEmbedding] = []

    @property
    def context(self) -> FieldContext:
        return self.f.context

    @property
    def extension_degree_over_base(self) -> int:
        if self.context.is_rational:
            return 1
        return self.context.extension_degree // max(self._input.context.extension_degree, 1)

    # -- step application --------------------------------------------------

    def _push(self, step: Step) -> None:
        self.f = step.apply(self.f)
        self.steps.append(step)

    def linear(self, matrix: Matrix) -> None:
        if all(
            (matrix[i][j].is_one() if i == j else matrix[i][j].is_zero())
            for i in range(3)
            for j in range(3)
        ):
            return
        self._push(LinearStep(matrix))

    def shift(self, var: int, addend: TriPoly) -> None:
        if addend.is_zero():
            return
        self._push(ShiftStep(var, addend))

    def scale(self, var: int, unit: FieldElement) -> None:
        if unit.is_one():
            return
        self._push(ScaleStep(var, unit))

    def rescale(self, unit: FieldElement) -> None:
        if unit.is_one():
            return
        self._push(UnitRescaleStep(unit))

    def pair_linear(self, i: int, j: int, m11, m12, m21, m22) -> None:
        """x_i -> m11*x_i + m12*x_j, x_j -> m21*x_i + m22*x_j."""
        rows = [list(row) for row in identity_matrix(self.context)]
        rows[i][i], rows[i][j] = m11, m12
        rows[j][i], rows[j][j] = m21, m22
        self.linear(tuple(tuple(row) for row in rows))

    def swap(self, i: int, j: int) -> None:
        one, zero = self.context.one(), self.context.zero()
        self.pair_linear(i, j, zero, one, one, zero)

    def direction_to_z(self, d0: FieldElement, d1: FieldElement) -> None:
        """Send the direction [d0 : d1] of the (y, z)-plane to the z-axis:
        y -> d0*z and z -> y + d1*z, or z -> d1*z alone when d0 = 0."""
        one, zero = self.context.one(), self.context.zero()
        if d0.is_zero():
            self.pair_linear(1, 2, one, d0, zero, d1)
        else:
            self.pair_linear(1, 2, zero, d0, one, d1)

    def move_to_z(self, P: Sequence[FieldElement]) -> None:
        """Linear change taking the projective point P to [0:0:1]; the other
        two columns are the first pair of standard vectors completing P."""
        std = identity_matrix(self.context)
        for a in range(3):
            for b in range(a + 1, 3):
                cols = (std[a], std[b], P)
                m = tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))
                if not mat_det(m).is_zero():
                    self.linear(m)
                    return
        raise ValueError("point is zero")

    # -- field enlargement --------------------------------------------------

    def extend(self, emb: FieldEmbedding) -> None:
        if emb.source != self.context:
            raise ValueError("embedding does not start at the current context")
        if emb.target == self.context:
            return
        self.f = self.f.map_coefficients(emb, emb.target)
        self.steps = [s.map_context(emb) for s in self.steps]
        self._embs.append(emb)

    def lift(self, value):
        """`value` (a FieldElement, a TriPoly or a tuple of elements) moved
        from any earlier field of this run into the current one."""
        if isinstance(value, tuple):
            return tuple(self.lift(c) for c in value)
        if value.context == self.context:
            return value
        for emb in self._embs:
            if value.context == emb.source:
                if isinstance(value, FieldElement):
                    value = emb(value)
                else:
                    value = value.map_coefficients(emb, emb.target)
        if value.context != self.context:
            raise ValueError("value is not over a field of this run")
        return value

    # -- deterministic root access ------------------------------------------

    def _roots(self, g: UniPoly, allow_extension: bool):
        if g.context != self.context:
            raise ValueError("polynomial context mismatch")
        res = find_roots(g, allow_extension=allow_extension)
        if res.context != self.context:
            self.extend(res.embedding)
        return res.roots

    def known_roots(self, g: UniPoly):
        """Roots the field can supply: the rational roots over Q (never
        raises), the full multiset over F_q (enlarging it as needed)."""
        return self._roots(g, not self.context.is_rational)

    def all_roots(self, g: UniPoly):
        """Full multiset of roots (enlarging finite fields; strict over Q)."""
        return self._roots(g, True)

    def root_of(self, g: UniPoly) -> FieldElement:
        """Canonical root of g, enlarging a finite field as needed; raises
        NeedsAlgebraicExtension over the rationals when no rational root."""
        roots = self.known_roots(g)
        if not roots:
            raise NeedsAlgebraicExtension(
                f"required a root of '{g}' over the rationals", polynomial=g
            )
        return roots[0][0]

    def nth_root_of(self, a: FieldElement, n: int) -> FieldElement:
        return self.adopt(field_nth_root(a, n))

    def adopt(self, found: Tuple[FieldElement, FieldEmbedding]) -> FieldElement:
        """The root of a `field_nth_root` result taken in the current field,
        the field enlarged by the result's embedding when that grows it."""
        root, emb = found
        if emb.target != self.context:
            self.extend(emb)
        return root

    # -- outcome -------------------------------------------------------------

    def outcome(self, label: str, parameters: Optional[Dict[str, object]] = None) -> NormalizationOutcome:
        out = NormalizationOutcome(
            self.f,
            Automorphism(tuple(self.steps)),
            label,
            parameters or {},
            tuple(self._embs),
        )
        # replay integrity: the recorded steps reproduce the recorded output
        if not out.replay_matches(self._input):
            raise AssertionError("automorphism replay mismatch")
        return out


def run_stage(f: TriPoly, stage) -> NormalizationOutcome:
    """The outcome of one stage run on its own Normalizer over f, its steps
    checked to replay on f."""
    nz = Normalizer(f)
    label, params = stage(nz)
    return nz.outcome(label, params)


def complete_square(nz: Normalizer, tails: Sequence[Monomial]) -> None:
    """Characteristic != 2: x -> x - (1/2) sum_m c_m m clears the terms
    c_m x*m for the monomials m in y, z listed in `tails`."""
    ctx = nz.context
    addend = TriPoly.zero(ctx)
    for m in tails:
        addend = addend + TriPoly.monomial(ctx, m, nz.f.coefficient((1, m[1], m[2])))
    nz.shift(0, addend.scale(-ctx.from_int(2).inverse()))
    if not all(nz.f.coefficient((1, m[1], m[2])).is_zero() for m in tails):
        raise AssertionError("x-terms survived the square completion")


def absorb_squares(nz: Normalizer, halves: Sequence[Monomial]) -> None:
    """Characteristic 2: x -> x + sum_m sqrt(c_m) m absorbs the terms
    c_m m^2 into x^2, for the monomials m in y, z listed in `halves`."""
    ctx = nz.context
    addend = TriPoly.zero(ctx)
    for m in halves:
        c = nz.f.coefficient((0, 2 * m[1], 2 * m[2]))
        if not c.is_zero():
            addend = addend + TriPoly.monomial(ctx, m, c.pth_root())
    nz.shift(0, addend)


def field_nth_root(a: FieldElement, n: int) -> Tuple[FieldElement, FieldEmbedding]:
    """`nth_root` of a as a stage takes it: strict over Q, enlarging F_q."""
    return nth_root(a, n, allow_extension=not a.context.is_rational)


def try_assignments(assignments, probe, apply):
    """apply(assign, probe(assign)) for the first assignment whose probe
    does not raise NeedsAlgebraicExtension, else the last probe's failure.

    A probe computes the root its assignment needs from scalars and leaves
    the Normalizer alone, so f moves once.  Over Q different assignments can
    need different roots; over F_q the first probe succeeds, enlarging the
    field as needed.
    """
    last = None
    for assign in assignments:
        try:
            found = probe(assign)
        except NeedsAlgebraicExtension as exc:
            last = exc
            continue
        return apply(assign, found)
    if last is None:
        raise ValueError("no assignments supplied")
    raise last


def matrix_mapping_form_to_var(coeffs: Sequence[FieldElement], var: int,
                               ctx: FieldContext) -> Matrix:
    """Invertible substitution M with L(M x) = x_var for the linear form L
    given by `coeffs`: complete L to a basis with standard vectors and invert."""
    one, zero = ctx.one(), ctx.zero()
    others = [i for i in range(3) if i != var]
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            rows = [[zero, zero, zero] for _ in range(3)]
            rows[var] = list(coeffs)
            rows[others[0]][a] = one
            rows[others[1]][b] = one
            m = tuple(tuple(r) for r in rows)
            if not mat_det(m).is_zero():
                return mat_inverse(m)
    raise ValueError("form is zero; cannot complete basis")
