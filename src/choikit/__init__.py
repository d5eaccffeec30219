"""choikit: construct, certify, and split positive maps on 2x2 matrices.

The Choi matrix of a map is the 4x4 block matrix of its values on matrix
units.  The package certifies block-positivity (map positivity), complete
positivity and copositivity, builds the canonical extremal unital positive
maps, splits them in closed form into a CP part plus a co-CP part with
rank-one factor operators, and explores numerically how unique that split
is.
"""

__version__ = "0.1.0"

from .certificate import FAIL, PASS, Certificate
from .certify import (
    block_positive,
    canonical_ccp_conditions,
    canonical_coefficients,
    canonical_cp_conditions,
    ccp_check,
    cp_check,
    face_form_inequalities,
    face_membership,
)
from .choi import (
    FaceFrame,
    apply_map,
    canonicalize,
    choi_from_action,
    choi_from_blocks,
    conjugate,
    partial_transpose,
)
from .decompose import (
    DecompositionPair,
    SplitCandidate,
    canonical_split,
    decompose_extremal,
    kraus_operators,
    split_matrices,
    verify_decomposition,
)
from .errors import (
    ChoiKitError,
    EpsilonTooLargeError,
    HypothesisViolatedError,
    InvalidParamsError,
    NonFiniteEntryError,
    NotCanonicalFormError,
    NotExtremalError,
    NotHermitianError,
    NotInFaceError,
    NotUnitVectorError,
    NotUnitaryError,
)
from .extremal import (
    ExtremalParams,
    build_extremal,
    degenerate_case,
    derived_t,
    example_family,
    params_from_choi,
    random_params,
    validate_extremal,
)
from .linalg import complete_to_unitary, psd_check, rank_estimate
from .uniqueness import FeasibilityReport, epsilon_family, feasibility, uniqueness_search

__all__ = [
    "Certificate", "PASS", "FAIL",
    "block_positive", "canonical_ccp_conditions", "canonical_coefficients",
    "canonical_cp_conditions", "ccp_check", "cp_check",
    "face_form_inequalities", "face_membership",
    "FaceFrame", "apply_map", "canonicalize", "choi_from_action",
    "choi_from_blocks", "conjugate", "partial_transpose",
    "DecompositionPair", "decompose_extremal", "kraus_operators",
    "verify_decomposition",
    "ChoiKitError", "EpsilonTooLargeError", "HypothesisViolatedError",
    "InvalidParamsError", "NonFiniteEntryError", "NotCanonicalFormError",
    "NotExtremalError", "NotHermitianError", "NotInFaceError",
    "NotUnitVectorError", "NotUnitaryError",
    "ExtremalParams", "build_extremal", "degenerate_case", "derived_t",
    "example_family", "params_from_choi", "random_params", "validate_extremal",
    "complete_to_unitary", "psd_check", "rank_estimate",
    "FeasibilityReport", "SplitCandidate", "canonical_split", "epsilon_family",
    "feasibility", "split_matrices", "uniqueness_search",
]
