"""heisflag: exact classification of left-invariant pseudo-Riemannian metrics
on the product of the three-dimensional Heisenberg group with a Euclidean
factor, through orbit invariants of flags under the indefinite orthogonal
group, with exact curvature verification of the degenerate (flat) classes.
"""

from .forms import (
    Flag,
    FlagInvariants,
    LineSignature,
    MatsukiData,
    PreconditionError,
    QuadraticSpace,
    ScaledSystem,
    Signature,
    Subspace,
    extend_basis,
    extend_nullsystem,
    flag_invariants,
    flags_equivalent,
    lightlike_split,
    matsuki_data,
    possible_codim2_signatures,
    possible_line_signatures,
    radical,
    refined_line_signature,
    restrict,
    scaled_system,
    signature,
    subspaces_equivalent,
)
from .heisenberg import (
    Classification,
    ClassTable,
    HeisenbergAlgebra,
    MetricClass,
    ScaledAutomorphism,
    UnsupportedSignatureError,
    act_on_metric,
    admissible_classes,
    classify_metric,
    is_scaled_automorphism,
    parabolic_sample,
    representative,
    representative_flag,
)
from .curvature import (
    CurvatureReport,
    curvature_report,
    is_flat,
    riemann,
)
from .enumeration import FlagSurvey, survey_flags
from .witness import (
    InequivalentFlagsError,
    WitnessFailureError,
    isometry_witness,
    subspace_distance,
    witness_residuals,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
