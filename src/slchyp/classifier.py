"""Top-level classifier: minimal log discrepancy and semi-log canonicity.

The decision tree follows the multiplicity of f at the origin.  Units give
mld 3 and smooth points 2; multiplicity >= 4 is never log canonical, with
E_(1,1,1) as witness.  Multiplicity 3 reduces to the projective type of the
degree-3 cone.  Multiplicity 2 runs the weighted normalization chain, whose
terminal branches carry one of finitely many witness weights.

Verdicts are certificate-shaped: nonnegative mld values come from an
F-purity witness, a simple-elliptic or rational-double-point identification,
or a cited table entry, always squeezed against the explicit toric upper
bound; negative verdicts carry an origin-centered toric witness whose
discrepancy is recomputed, never trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .fields import FieldContext, prime_field
from .frobenius import FPurityCertificate, fedder_is_fpure
from .parse import parse_poly
from .poly import TriPoly, Weight, is_squarefree
from .toricdiv import DiscrepancyReport, discrepancy
from .normalize.auto import Automorphism, Normalizer
from .normalize.cubiccone import classify_cubic_cone
from .normalize.quadric import normalize_quadric
from .normalize.quartic import stage_quartic
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

W211_W = (2, 1, 1)

CERT_FEDDER = "fedder"
CERT_ELLIPTIC = "simple_elliptic"
CERT_RDP = "rational_double_point"
CERT_TORIC = "toric_witness"
CERT_LR = "lr_table_char0"
CERT_MONO = "monotonicity"

DOUBLE_POINT_WEIGHTS = (
    (1, 1, 1),
    (3, 2, 2),
    (2, 1, 1),
    (6, 4, 3),
    (9, 6, 4),
    (15, 10, 6),
    (3, 2, 1),
    (10, 5, 4),
    (15, 8, 6),
    (21, 14, 6),
)


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

    def __ge__(self, other: "MldValue") -> bool:
        return self.sort_value() >= other.sort_value()

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


SLC_TRUE = True
SLC_FALSE = False
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


def _fedder_certificate_on(model_text: str, p: int) -> Certificate:
    """Run the F-purity test on a prime-field model polynomial."""
    ctx = prime_field(p)
    model = parse_poly(model_text, ctx)
    cert = fedder_is_fpure(model)
    kind = CERT_FEDDER if cert.is_fpure else CERT_LR
    detail = (
        f"splitting witness for {model_text} at p={p}"
        if cert.is_fpure
        else f"{model_text} is not F-pure at p={p}; citing the table verdict"
    )
    return Certificate(kind, detail, fedder=cert)


def _witness(nz_f: TriPoly, w, computes: bool) -> DiscrepancyReport:
    rep = discrepancy(nz_f, w)
    return DiscrepancyReport(rep.divisor, rep.ord, rep.a, computes)


@dataclass
class _TreeState:
    nz: Normalizer
    trace: List[str] = field(default_factory=list)

    def final(
        self,
        mld: MldValue,
        weight,
        certs: List[Certificate],
        computes: bool = True,
        initial_weight=None,
    ) -> Verdict:
        nz = self.nz
        iw = Weight.of(initial_weight if initial_weight is not None else weight)
        initial_form = nz.f.in_w(iw)
        wit = _witness(initial_form, weight, computes)
        if mld.is_neg_infinity and wit.a >= 0:
            raise AssertionError("negative verdict without a negative witness")
        if (not mld.is_neg_infinity) and computes and wit.a != mld.value:
            raise AssertionError("witness does not compute the claimed mld")
        return Verdict(
            mld=mld,
            slc=None,
            witness=wit,
            automorphism=Automorphism(tuple(nz.steps)),
            initial_form=initial_form,
            initial_weight=iw,
            branch_trace=list(self.trace),
            certificates=certs,
            field_extension_used=nz.extension_degree_over_base,
            context=nz.context,
            transformed=nz.f,
        )


def classify_mld(f: TriPoly, char: Optional[int] = None) -> Verdict:
    """Full classification of mld(0; Spec k[[x,y,z]], (f))."""
    if f.is_zero():
        raise ZeroPolynomial("cannot classify the zero polynomial")
    if char is not None and char != f.context.characteristic:
        raise ValueError("char argument disagrees with the coefficient field")
    p = f.context.characteristic
    state = _TreeState(Normalizer(f))
    nz = state.nz
    o = f.ord_w(W1)
    if o == 0:
        state.trace.append("unit")
        return state.final(
            MldValue.finite(3),
            W1,
            [Certificate(CERT_MONO, "unit ideal: every divisor has a = k_E + 1")],
        )
    if o == 1:
        state.trace.append("smooth")
        return state.final(
            MldValue.finite(2),
            W1,
            [Certificate(CERT_MONO, "smooth hypersurface germ")],
        )
    if o >= 4:
        state.trace.append(f"multiplicity>={o}")
        return state.final(
            MldValue.neg_infinity(),
            W1,
            [
                Certificate(
                    CERT_TORIC,
                    f"a(E_(1,1,1)) = 3 - {o} < 0 at an origin-centered divisor",
                )
            ],
        )
    if o == 3:
        state.trace.append("multiplicity=3")
        return _classify_cone_branch(state, p)
    state.trace.append("multiplicity=2")
    return _double_point_tree(state, p)


def classify_slc(f: TriPoly, char: Optional[int] = None) -> Verdict:
    """Semi-log canonicity of Spec k[[x,y,z]]/(f) at the origin."""
    if f.is_zero():
        raise ZeroPolynomial("cannot classify the zero polynomial")
    if not f.coefficient((0, 0, 0)).is_zero():
        raise ValueError("slc classification needs f in the maximal ideal")
    verdict = classify_mld(f, char)
    if not is_squarefree(f):
        verdict.slc = SLC_NOT_APPLICABLE
        verdict.branch_trace.append("non-reduced")
    else:
        verdict.slc = not verdict.mld.is_neg_infinity
    return verdict


# ---------------------------------------------------------------------------
# multiplicity 3: cubic cones


_CONE_MLD = {
    "cone:smooth": 0,
    "cone:nodal": 0,
    "cone:triangle": 0,
    "cone:conic-transverse": 0,
    "cone:concurrent-lines": None,  # -inf
    "cone:cuspidal": None,
    "cone:conic-tangent": None,
    "cone:repeated-line": None,
}

_CONE_WITNESS = {
    "cone:concurrent-lines": (2, 2, 1),
    "cone:cuspidal": (4, 6, 1),
    "cone:conic-tangent": (3, 2, 1),
    "cone:repeated-line": (2, 1, 1),
}

_CONE_FPURE_MODEL = {
    "cone:nodal": "x^3+y^3+x*y*z",
    "cone:triangle": "x*y*z",
    "cone:conic-transverse": "x*y*z+y^3",
}


def _classify_cone_branch(state: _TreeState, p: int) -> Verdict:
    nz = state.nz
    g = nz.f.in_w(W1)
    cone = classify_cubic_cone(g)
    label = cone.branch_label
    state.trace.append(label)
    # replay the cone normalization (extensions and steps) on the full f
    nz.replay_outcome(cone)
    if nz.f.in_w(W1) != cone.poly:
        raise AssertionError("cone normalization does not replay on f")

    base = Certificate(
        CERT_MONO,
        "order 3: the mld of f equals the mld of its degree-3 initial form",
    )
    mld_val = _CONE_MLD[label]
    if mld_val is None:
        wname = _CONE_WITNESS[label]
        cert = Certificate(
            CERT_TORIC,
            f"origin-centered witness {wname} with negative discrepancy "
            "against the initial form",
        )
        # the witness certifies the initial form; for f itself the equality
        # of mlds is the cited order-3 reduction, so the computes flag is off
        return state.final(
            MldValue.neg_infinity(),
            wname,
            [base, cert],
            computes=False,
            initial_weight=W1,
        )
    certs: List[Certificate] = [base]
    if label == "cone:smooth":
        certs.append(
            Certificate(CERT_ELLIPTIC, "smooth plane cubic cone: simple elliptic")
        )
    elif label in _CONE_FPURE_MODEL:
        if p > 0:
            certs.append(_fedder_certificate_on(_CONE_FPURE_MODEL[label], p))
        else:
            certs.append(
                Certificate(CERT_LR, f"{label[5:]} cubic cone is semi-log canonical")
            )
    return state.final(MldValue.finite(0), W1, certs, computes=True)


# ---------------------------------------------------------------------------
# multiplicity 2: the weighted chain


def _double_point_tree(state: _TreeState, p: int) -> Verdict:
    nz = state.nz
    quad = nz.f.in_w(W1)
    qout = normalize_quadric(quad)
    nz.replay_outcome(qout)
    if nz.f.in_w(W1) != qout.poly:
        raise AssertionError("quadric normalization does not replay on f")
    state.trace.append(qout.branch_label)
    rank = int(qout.branch_label[-1])
    if rank >= 2:
        return _rank2plus_verdict(state, p, rank)
    # rank 1: the quadric is exactly x^2
    label, params = stage_w2(nz)
    state.trace.append(label)
    if label == "w2:quartic":
        return _quartic_branch(state, p)
    if label == "w2:y2z":
        certs = [
            Certificate(
                CERT_MONO,
                "cited mld(x^2 + y^2 z) = 1 transfers through the initial-form "
                "inequality; a(E_(3,2,2)) = 1 matches it",
            )
        ]
        return state.final(MldValue.finite(1), W2, certs)
    if label == "w2:yz-distinct":
        certs = [
            Certificate(
                CERT_MONO,
                "the (2,1,2)-initial form of x^2+yz(y+az) is x^2+y^2z with "
                "cited mld 1; a(E_(3,2,2)) = 1 matches it",
            )
        ]
        return state.final(MldValue.finite(1), W2, certs)
    # label == w2:y3 continues the chain
    for stage, weight, terminal_label, pass_label in (
        (stage_w3, W3, "w3:rdp-xz2", "w3:pass"),
        (stage_w4, W4, "w4:rdp-yz3", "w4:pass"),
        (stage_w5, W5, "w5:rdp-z5", "w5:pass"),
    ):
        label, params = stage(nz)
        state.trace.append(label)
        if label == terminal_label:
            certs = [
                Certificate(
                    CERT_RDP,
                    "the initial form defines a rational double point; "
                    "adjunction gives mld 1 and the toric bound matches",
                )
            ]
            return state.final(MldValue.finite(1), weight, certs)
    label, params = stage_w6(nz)
    state.trace.append(label)
    if label == "w6:pass":
        certs = [
            Certificate(
                CERT_TORIC,
                "all deeper initial forms reduce to x^2 + y^3; "
                "a(E_(21,14,6)) = 41 - 42 = -1",
            )
        ]
        return state.final(MldValue.neg_infinity(), W7, certs)
    if label == "w6:fpure":
        certs = [_fedder_certificate_on_poly(nz.f.in_w(W6), p)]
        return state.final(MldValue.finite(0), W6, certs)
    if label == "w6:elliptic":
        certs = [
            Certificate(
                CERT_ELLIPTIC,
                "weighted-homogeneous form x^2+y^3+a*x*z^3+d*y^2*z^2 with a != 0 "
                "defines a simple elliptic singularity",
            )
        ]
        return state.final(MldValue.finite(0), W6, certs)
    delta = params["delta"]
    if label == "w6:delta-generic":
        certs = [
            Certificate(
                CERT_ELLIPTIC,
                f"x^2+y(y-z^2)(y-{delta}z^2) with delta outside {{0,1}} is "
                "simple elliptic",
            )
        ]
        return state.final(MldValue.finite(0), W6, certs)
    # delta in {0, 1}
    if p == 0:
        certs = [
            Certificate(
                CERT_LR,
                f"delta = {delta}: cited characteristic-0 classification",
            )
        ]
    else:
        certs = [_fedder_certificate_on_poly(nz.f.in_w(W6), p)]
    return state.final(MldValue.finite(0), W6, certs)


def _fedder_certificate_on_poly(model: TriPoly, p: int) -> Certificate:
    cert = fedder_is_fpure(model)
    kind = CERT_FEDDER if cert.is_fpure else CERT_LR
    detail = (
        f"splitting witness for the initial form at p={p}"
        if cert.is_fpure
        else f"initial form not F-pure at p={p}; citing the table verdict"
    )
    return Certificate(kind, detail, fedder=cert)


def _rank2plus_verdict(state: _TreeState, p: int, rank: int) -> Verdict:
    certs: List[Certificate] = []
    if p != 2 and rank == 3:
        certs.append(
            Certificate(CERT_RDP, "x^2+y^2+z^2 is an A_1 rational double point")
        )
    else:
        # squeeze through the (2,1,1)-initial form xy (or yz), whose pair has
        # mld 1: F-pure for every p, cited in characteristic 0
        if p > 0:
            certs.append(_fedder_certificate_on("x*y", p))
            certs.append(
                Certificate(
                    CERT_MONO,
                    "a(E_(1,1,1)) = 1 bounds above; the normal-crossing initial "
                    "form bounds below",
                )
            )
        else:
            certs.append(
                Certificate(CERT_MONO, "normal-crossing pair x*y has mld 1")
            )
    return state.final(MldValue.finite(1), W1, certs)


def _quartic_branch(state: _TreeState, p: int) -> Verdict:
    nz = state.nz
    label, params = stage_quartic(nz)
    state.trace.append(label)
    if label == "q:deep":
        certs = [
            Certificate(
                CERT_TORIC,
                "the weight-(2,1,1) tail has order >= 5, so "
                "a(E_(10,5,4)) = 19 - 20 = -1",
            )
        ]
        return state.final(MldValue.neg_infinity(), (10, 5, 4), certs,
                           initial_weight=(10, 5, 4))
    if label == "q:y4":
        certs = [
            Certificate(CERT_TORIC, "a(E_(10,5,4)) = 19 - 20 = -1 on x^2+y^4")
        ]
        return state.final(MldValue.neg_infinity(), (10, 5, 4), certs,
                           initial_weight=(10, 5, 4))
    if label == "q:y3z":
        certs = [
            Certificate(CERT_TORIC, "a(E_(15,8,6)) = 29 - 30 = -1 on x^2+e*y^3*z")
        ]
        return state.final(MldValue.neg_infinity(), (15, 8, 6), certs,
                           initial_weight=(15, 8, 6))
    if label == "q:fpure":
        certs = [_fedder_certificate_on_poly(nz.f.in_w(W211_W), p)]
        return state.final(MldValue.finite(0), W211_W, certs)
    if label == "q:elliptic2":
        certs = [
            Certificate(
                CERT_ELLIPTIC,
                "x^2+x*y^2+y^3*z+... is simple elliptic in characteristic 2",
            )
        ]
        return state.final(MldValue.finite(0), W211_W, certs)
    if label == "q:4lines":
        certs = [
            Certificate(
                CERT_ELLIPTIC,
                "x^2 + product of four distinct lines is simple elliptic",
            )
        ]
        return state.final(MldValue.finite(0), W211_W, certs)
    if label in ("q:y2z2", "q:y2z-y+z"):
        certs: List[Certificate] = []
        if label == "q:y2z-y+z":
            certs.append(
                Certificate(
                    CERT_MONO,
                    "the (3,2,1)-initial form of x^2+y^2z(y+z) is x^2+y^2z^2",
                )
            )
        if p > 0:
            certs.append(_fedder_certificate_on("x^2+y^2*z^2", p))
        else:
            certs.append(
                Certificate(CERT_LR, "x^2+y^2*z^2: cited characteristic-0 verdict")
            )
        return state.final(MldValue.finite(0), W211_W, certs)
    raise AssertionError(f"unhandled quartic label {label}")


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
