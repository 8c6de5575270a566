"""Exact classifier for semi-log canonical surface hypersurface germs.

Given f in k[[x,y,z]] over Q or a finite field (enlarged on demand), the
package computes the minimal log discrepancy of the pair at the origin,
decides semi-log canonicity of the hypersurface, and emits a verifiable
certificate: a coordinate automorphism, a weighted-homogeneous initial form,
a toric witness divisor, and an F-purity or cited-model certificate.  An
independent jet-scheme oracle cross-checks nonnegative verdicts.
"""

from .fields import (
    CoefficientError,
    FieldContext,
    FieldElement,
    NeedsAlgebraicExtension,
    RATIONALS,
    extension_field,
    prime_field,
)
from .parse import PolySyntaxError, parse_poly
from .poly import Monomial, NonLocalSubstitution, TriPoly, Weight, is_squarefree
from .unipoly import UniPoly, find_roots, nth_root
from .toricdiv import DiscrepancyReport, ToricDivisor, discrepancy, witness_search
from .frobenius import CharZero, FPurityCertificate, fedder_is_fpure
from .normalize import (
    Automorphism,
    NormalizationOutcome,
    classify_cubic_cone,
    normalize_quadric,
    normalize_quartic_211,
    normalize_w2_cubic,
    normalize_w3,
    normalize_w4,
    normalize_w5,
    normalize_w6,
)
from .classifier import (
    BoundReport,
    Certificate,
    MldValue,
    Verdict,
    ZeroPolynomial,
    check_conjecture_bounds,
    classify_mld,
    classify_slc,
)
from .jets import (
    GroebnerBudget,
    JetSystem,
    OracleOverflow,
    ProfileSummary,
    SmProfile,
    build_jets,
    ideal_height,
    mld_profile,
    s_m,
)

__all__ = [
    "Automorphism",
    "BoundReport",
    "Certificate",
    "CharZero",
    "CoefficientError",
    "DiscrepancyReport",
    "FieldContext",
    "FieldElement",
    "FPurityCertificate",
    "GroebnerBudget",
    "JetSystem",
    "MldValue",
    "Monomial",
    "NeedsAlgebraicExtension",
    "NonLocalSubstitution",
    "NormalizationOutcome",
    "OracleOverflow",
    "PolySyntaxError",
    "ProfileSummary",
    "RATIONALS",
    "SmProfile",
    "ToricDivisor",
    "TriPoly",
    "UniPoly",
    "Verdict",
    "Weight",
    "ZeroPolynomial",
    "build_jets",
    "check_conjecture_bounds",
    "classify_cubic_cone",
    "classify_mld",
    "classify_slc",
    "discrepancy",
    "extension_field",
    "fedder_is_fpure",
    "find_roots",
    "ideal_height",
    "is_squarefree",
    "mld_profile",
    "normalize_quadric",
    "normalize_quartic_211",
    "normalize_w2_cubic",
    "normalize_w3",
    "normalize_w4",
    "normalize_w5",
    "normalize_w6",
    "nth_root",
    "parse_poly",
    "prime_field",
    "s_m",
    "witness_search",
]
