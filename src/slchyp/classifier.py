"""Top-level classifier: minimal log discrepancy and semi-log canonicity.

The decision tree follows the multiplicity of f at the origin.  Units give
mld 3 and smooth points 2; multiplicity >= 4 is never log canonical, with
E_(1,1,1) as witness.  Multiplicity 3 reduces to the projective type of the
degree-3 cone, multiplicity 2 to the quadric and the weighted chain, whose
terminal branches carry one of finitely many witness weights.  Each stage is
entered through NEXT_STAGE and moves f itself on one Normalizer.

The tree code only chooses a terminal label.  Each label is one entry of the
BRANCHES table: its mld, witness weight, initial weight and certificate
recipe.  `build_verdict` reads the verdict off that entry; `slchyp verify`
rebuilds a report's verdict through it and `settle_slc`.

Verdicts are certificate-shaped: nonnegative mld values come from an
F-purity witness, a simple-elliptic or rational-double-point identification,
or a cited table entry, always squeezed against the explicit toric upper
bound; negative verdicts carry an origin-centered toric witness whose
discrepancy is recomputed, never trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .fields import FieldContext, prime_field
from .frobenius import FPurityCertificate, fedder_is_fpure
from .parse import parse_poly
from .poly import TriPoly, Weight, is_squarefree, squarefree_excess
from .toricdiv import DiscrepancyReport, discrepancy
from .normalize.auto import Automorphism, Normalizer
from .normalize.cubiccone import stage_cone
from .normalize.quadric import stage_quadric
from .normalize.quartic import W211, stage_quartic
from .normalize.steps import (
    W1,
    W2,
    W3,
    W4,
    W5,
    W6,
    W7,
    stage_w2,
    stage_w3,
    stage_w4,
    stage_w5,
    stage_w6,
)

NEG_INF = "neg_infinity"
FINITE = "finite"

CERT_FEDDER = "fedder"
CERT_ELLIPTIC = "simple_elliptic"
CERT_RDP = "rational_double_point"
CERT_TORIC = "toric_witness"
CERT_LR = "lr_table_char0"
CERT_MONO = "monotonicity"


class ZeroPolynomial(ValueError):
    """The zero polynomial has no minimal log discrepancy."""


@dataclass(frozen=True)
class MldValue:
    tag: str  # neg_infinity | finite
    value: Optional[int] = None

    @staticmethod
    def neg_infinity() -> "MldValue":
        return MldValue(NEG_INF)

    @staticmethod
    def finite(v: int) -> "MldValue":
        if v not in (0, 1, 2, 3):
            raise ValueError("finite mld values are 0..3 here")
        return MldValue(FINITE, v)

    @property
    def is_neg_infinity(self) -> bool:
        return self.tag == NEG_INF

    def sort_value(self) -> float:
        return float("-inf") if self.is_neg_infinity else float(self.value)

    def to_json(self):
        return "-inf" if self.is_neg_infinity else self.value

    def __str__(self) -> str:
        return "-inf" if self.is_neg_infinity else str(self.value)


@dataclass
class Certificate:
    kind: str
    detail: str
    fedder: Optional[FPurityCertificate] = None

    def to_json(self):
        data = {"kind": self.kind, "detail": self.detail}
        if self.fedder is not None:
            data["fedder"] = self.fedder.to_json()
        return data


SLC_NOT_APPLICABLE = "not_applicable"


@dataclass
class Verdict:
    mld: MldValue
    slc: object  # True | False | "not_applicable" | None (not yet decided)
    witness: Optional[DiscrepancyReport]
    automorphism: Automorphism
    initial_form: TriPoly
    initial_weight: Weight
    branch_trace: List[str]
    certificates: List[Certificate]
    field_extension_used: int
    context: FieldContext
    transformed: TriPoly

    def to_json(self):
        return {
            "mld": self.mld.to_json(),
            "slc": self.slc if self.slc is not None else None,
            "witness": self.witness.to_json() if self.witness else None,
            "automorphism": self.automorphism.to_json(),
            "initial_form": str(self.initial_form),
            "initial_form_terms": self.initial_form.to_json(),
            "initial_weight": list(self.initial_weight),
            "branch_trace": list(self.branch_trace),
            "certificates": [c.to_json() for c in self.certificates],
            "field_extension_used": self.field_extension_used,
        }


# ---------------------------------------------------------------------------
# the terminal branches


@dataclass(frozen=True)
class Fedder:
    """Certificate recipe: Fedder's F-purity test on `model`, parsed over
    F_p, or on the initial form when `model` is None."""

    model: Optional[str] = None


def _fedder_certificate(model: Optional[str], p: int, initial_form: TriPoly) -> Certificate:
    """A splitting witness when the model is F-pure; otherwise the test
    result backs a citation of the table verdict."""
    cert = fedder_is_fpure(
        initial_form if model is None else parse_poly(model, prime_field(p))
    )
    name = model or "the initial form"
    if cert.is_fpure:
        return Certificate(CERT_FEDDER, f"splitting witness for {name} at p={p}", cert)
    return Certificate(
        CERT_LR, f"{name} is not F-pure at p={p}; citing the table verdict", cert
    )


@dataclass(frozen=True)
class Branch:
    """One terminal branch of the classification tree.

    `mld` is None for -inf.  The witness E_w is evaluated on the initial form
    at weight `initial` (the witness weight when None).  `recipe` lists the
    certificates in order, each a fixed (kind, detail) pair or a Fedder test;
    `by_char` replaces the recipe in the characteristics it names.  Details
    are format strings over the parameters the tree reports with the label.
    """

    mld: Optional[int]
    witness: Tuple[int, int, int]
    recipe: tuple
    by_char: Dict[int, tuple] = field(default_factory=dict)
    initial: Optional[Tuple[int, int, int]] = None
    computes_mld: bool = True

    @property
    def initial_weight(self) -> Weight:
        return Weight.of(self.initial or self.witness)

    def certificates(self, p: int, initial_form: TriPoly, params) -> List[Certificate]:
        """The recipe for characteristic p, expanded on the initial form."""
        return [
            _fedder_certificate(step.model, p, initial_form)
            if isinstance(step, Fedder)
            else Certificate(step[0], step[1].format_map(params))
            for step in self.by_char.get(p, self.recipe)
        ]


# the (2,1,1)-initial form xy (or yz) has mld 1: F-pure for every p
_NORMAL_CROSSING = (
    Fedder("x*y"),
    (CERT_MONO, "a(E_(1,1,1)) = 1 bounds above; the normal-crossing initial "
                "form bounds below"),
)
_RDP = (CERT_RDP, "the initial form defines a rational double point; "
                  "adjunction gives mld 1 and the toric bound matches")
_CONE = (CERT_MONO, "order 3: the mld of f equals the mld of its degree-3 initial form")
_Y2Z_Y_PLUS_Z = (CERT_MONO, "the (3,2,1)-initial form of x^2+y^2z(y+z) is x^2+y^2z^2")
_Y2Z2_CITED = (CERT_LR, "x^2+y^2*z^2: cited characteristic-0 verdict")


def _lc_cone(name: str, model: str) -> Branch:
    return Branch(0, W1, (_CONE, Fedder(model)),
                  {0: (_CONE, (CERT_LR, f"{name} cubic cone is semi-log canonical"))})


def _negative_cone(w: Tuple[int, int, int]) -> Branch:
    # the witness certifies the initial form; for f itself the equality of
    # mlds is the cited order-3 reduction, so the witness does not compute it
    toric = (CERT_TORIC, f"origin-centered witness {w} with negative discrepancy "
                         "against the initial form")
    return Branch(None, w, (_CONE, toric), initial=W1, computes_mld=False)


BRANCHES: Dict[str, Branch] = {
    "unit": Branch(3, W1, ((CERT_MONO, "unit ideal: every divisor has a = k_E + 1"),)),
    "smooth": Branch(2, W1, ((CERT_MONO, "smooth hypersurface germ"),)),
    "multiplicity>=": Branch(None, W1, (
        (CERT_TORIC, "a(E_(1,1,1)) = 3 - {o} < 0 at an origin-centered divisor"),)),
    "quadric:rank2": Branch(1, W1, _NORMAL_CROSSING, {
        0: ((CERT_MONO, "normal-crossing pair x*y has mld 1"),)}),
    "quadric:rank3": Branch(1, W1, (
        (CERT_RDP, "x^2+y^2+z^2 is an A_1 rational double point"),), {
        2: _NORMAL_CROSSING}),
    "w2:y2z": Branch(1, W2, ((
        CERT_MONO, "cited mld(x^2 + y^2 z) = 1 transfers through the initial-form "
                   "inequality; a(E_(3,2,2)) = 1 matches it"),)),
    "w2:yz-distinct": Branch(1, W2, ((
        CERT_MONO, "the (2,1,2)-initial form of x^2+yz(y+az) is x^2+y^2z with "
                   "cited mld 1; a(E_(3,2,2)) = 1 matches it"),)),
    "w3:rdp-xz2": Branch(1, W3, (_RDP,)),
    "w4:rdp-yz3": Branch(1, W4, (_RDP,)),
    "w5:rdp-z5": Branch(1, W5, (_RDP,)),
    "w6:pass": Branch(None, W7, ((
        CERT_TORIC, "all deeper initial forms reduce to x^2 + y^3; "
                    "a(E_(21,14,6)) = 41 - 42 = -1"),)),
    "w6:fpure": Branch(0, W6, (Fedder(),)),
    "w6:elliptic": Branch(0, W6, ((
        CERT_ELLIPTIC, "weighted-homogeneous form x^2+y^3+a*x*z^3+d*y^2*z^2 with "
                       "a != 0 defines a simple elliptic singularity"),)),
    "w6:delta-generic": Branch(0, W6, ((
        CERT_ELLIPTIC, "x^2+y(y-z^2)(y-{delta}z^2) with delta outside {{0,1}} is "
                       "simple elliptic"),)),
    "w6:delta-special": Branch(0, W6, (Fedder(),), {
        0: ((CERT_LR, "delta = {delta}: cited characteristic-0 classification"),)}),
    "q:deep": Branch(None, (10, 5, 4), ((
        CERT_TORIC, "the weight-(2,1,1) tail has order >= 5, so "
                    "a(E_(10,5,4)) = 19 - 20 = -1"),)),
    "q:y4": Branch(None, (10, 5, 4), ((
        CERT_TORIC, "a(E_(10,5,4)) = 19 - 20 = -1 on x^2+y^4"),)),
    "q:y3z": Branch(None, (15, 8, 6), ((
        CERT_TORIC, "a(E_(15,8,6)) = 29 - 30 = -1 on x^2+e*y^3*z"),)),
    "q:fpure": Branch(0, W211, (Fedder(),)),
    "q:elliptic2": Branch(0, W211, ((
        CERT_ELLIPTIC, "x^2+x*y^2+y^3*z+... is simple elliptic in characteristic 2"),)),
    "q:4lines": Branch(0, W211, ((
        CERT_ELLIPTIC, "x^2 + product of four distinct lines is simple elliptic"),)),
    "q:y2z2": Branch(0, W211, (Fedder("x^2+y^2*z^2"),), {0: (_Y2Z2_CITED,)}),
    "q:y2z-y+z": Branch(0, W211, (_Y2Z_Y_PLUS_Z, Fedder("x^2+y^2*z^2")), {
        0: (_Y2Z_Y_PLUS_Z, _Y2Z2_CITED)}),
    "cone:smooth": Branch(0, W1, (
        _CONE, (CERT_ELLIPTIC, "smooth plane cubic cone: simple elliptic"))),
    "cone:nodal": _lc_cone("nodal", "x^3+y^3+x*y*z"),
    "cone:triangle": _lc_cone("triangle", "x*y*z"),
    "cone:conic-transverse": _lc_cone("conic-transverse", "x*y*z+y^3"),
    "cone:concurrent-lines": _negative_cone((2, 2, 1)),
    "cone:cuspidal": _negative_cone((4, 6, 1)),
    "cone:conic-tangent": _negative_cone((3, 2, 1)),
    "cone:repeated-line": _negative_cone((2, 1, 1)),
}


def terminal_branch(label: str) -> Optional[Branch]:
    """The table entry of a branch label; None when the label is not terminal."""
    if label.startswith("multiplicity>="):
        label = "multiplicity>="
    return BRANCHES.get(label)


def order_label(o: int) -> str:
    """The first trace label of a germ of multiplicity o."""
    if o in (2, 3):
        return f"multiplicity={o}"
    return "unit" if o == 0 else "smooth" if o == 1 else f"multiplicity>={o}"


# the non-terminal labels and the stage each one enters next: a rank-1
# quadric is x^2 and runs the weighted chain w2..w6, which diverts to the
# quartic stage q when the (3,2,2) cubic tail vanishes
NEXT_STAGE = {
    "multiplicity=2": "quadric",
    "multiplicity=3": "cone",
    "quadric:rank1": "w2",
    "w2:y3": "w3",
    "w2:quartic": "q",
    "w3:pass": "w4",
    "w4:pass": "w5",
    "w5:pass": "w6",
}


def is_tree_path(path, o: int) -> bool:
    """Whether path is a walk of the tree for an f of multiplicity o, label by
    label: the first label of multiplicity o, each non-terminal label a key of
    NEXT_STAGE followed by a label of the stage it enters, and a terminal
    label last."""
    if not path or path[0] != order_label(o):
        return False
    prefix = ""
    for label in path[:-1]:
        if not label.startswith(prefix) or label not in NEXT_STAGE:
            return False
        prefix = NEXT_STAGE[label] + ":"
    return path[-1].startswith(prefix) and terminal_branch(path[-1]) is not None


def _choose_branch(nz: Normalizer, trace: List[str]) -> dict:
    """Walk the tree on nz, appending each label to trace, the terminal label
    last; return the parameters its certificate details quote."""
    # built per call from the module's names, so wrappers installed on them
    # (the benchmark's tracer) are the ones called
    stages = {"quadric": stage_quadric, "cone": stage_cone, "w2": stage_w2,
              "w3": stage_w3, "w4": stage_w4, "w5": stage_w5, "w6": stage_w6,
              "q": stage_quartic}
    o = nz.f.ord_w(W1)
    label, params = order_label(o), {"o": o}
    trace.append(label)
    while terminal_branch(label) is None:
        label, params = stages[NEXT_STAGE[label]](nz)
        trace.append(label)
    return params


def build_verdict(f: TriPoly, auto: Automorphism, trace: List[str], params,
                  extension_degree: int) -> Verdict:
    """The verdict of the table entry that ends trace, read off f, the
    polynomial auto made, over f's field; params fill the certificate
    details.  classify_mld builds every verdict here, and `slchyp verify`
    rebuilds the claimed one here from a report."""
    branch = terminal_branch(trace[-1])
    iw = branch.initial_weight
    initial_form = f.in_w(iw)
    rep = discrepancy(initial_form, branch.witness)
    wit = DiscrepancyReport(rep.divisor, rep.ord, rep.a, branch.computes_mld)
    if branch.mld is None:
        mld = MldValue.neg_infinity()
        if wit.a >= 0:
            raise AssertionError("negative verdict without a negative witness")
    else:
        mld = MldValue.finite(branch.mld)
        if branch.computes_mld and wit.a != branch.mld:
            raise AssertionError("witness does not compute the claimed mld")
    return Verdict(
        mld=mld,
        slc=None,
        witness=wit,
        automorphism=auto,
        initial_form=initial_form,
        initial_weight=iw,
        branch_trace=trace,
        certificates=branch.certificates(f.context.characteristic, initial_form, params),
        field_extension_used=extension_degree,
        context=f.context,
        transformed=f,
    )


def classify_mld(f: TriPoly, char: Optional[int] = None) -> Verdict:
    """Full classification of mld(0; Spec k[[x,y,z]], (f))."""
    if f.is_zero():
        raise ZeroPolynomial("cannot classify the zero polynomial")
    if char is not None and char != f.context.characteristic:
        raise ValueError("char argument disagrees with the coefficient field")
    nz = Normalizer(f)
    trace: List[str] = []
    params = _choose_branch(nz, trace)
    return build_verdict(nz.f, Automorphism(tuple(nz.steps)), trace, params,
                         nz.extension_degree_over_base)


def settle_slc(f: TriPoly, verdict: Verdict) -> Verdict:
    """Fill in the slc claim of f's mld verdict: not applicable to a
    non-reduced germ, whose trace then ends in "non-reduced", and otherwise
    true exactly when the mld is finite.  The germ is reduced when f is
    squarefree or its repeated factors, those of gcd(f, f_x, f_y, f_z), are
    units at the origin."""
    if not f.coefficient((0, 0, 0)).is_zero():
        raise ValueError("slc classification needs f in the maximal ideal")
    if not is_squarefree(f) and squarefree_excess(f).coefficient((0, 0, 0)).is_zero():
        verdict.slc = SLC_NOT_APPLICABLE
        verdict.branch_trace.append("non-reduced")
    else:
        verdict.slc = not verdict.mld.is_neg_infinity
    return verdict


def classify_slc(f: TriPoly, char: Optional[int] = None) -> Verdict:
    """Semi-log canonicity of Spec k[[x,y,z]]/(f) at the origin."""
    return settle_slc(f, classify_mld(f, char))


# ---------------------------------------------------------------------------
# conjecture-scale bound report


@dataclass
class BoundReport:
    weight: Tuple[int, int, int]
    k_e: int
    blowup_bound: int
    k_e_within_40: bool

    def to_json(self):
        return {
            "weight": list(self.weight),
            "k_E": self.k_e,
            "blowup_bound": self.blowup_bound,
            "k_E_le_40": self.k_e_within_40,
        }

    @staticmethod
    def of_witness(witness: DiscrepancyReport) -> "BoundReport":
        k_e = witness.divisor.k_e
        return BoundReport(
            weight=tuple(witness.weight),
            k_e=k_e,
            blowup_bound=k_e - 2,
            k_e_within_40=k_e <= 40,
        )


def check_conjecture_bounds(verdict: Verdict) -> BoundReport:
    """k_E of the verdict's witness, the derived blow-up bound
    b(E) <= k_E - 2, and the double-point budget k_E <= 40."""
    if verdict.witness is None:
        raise ValueError("verdict carries no witness")
    return BoundReport.of_witness(verdict.witness)
