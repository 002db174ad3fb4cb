"""symdex: exact symmetrization indexes for finitely supported sequence sets.

The toolkit measures how far a bounded set is from being collapsible by
repeated symmetrization (the delta indexes), extracts sequences whose
sign sums witness that obstruction, and certifies everything it reports
through replayable membership checks in exact rational arithmetic.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    DepthExceeded,
    ExtractionStalled,
    Inconclusive,
    InvalidInput,
    NotAchievable,
    NotFound,
    SequenceStalled,
    SymdexError,
    TreeStalled,
    UnboundedDiameter,
    WitnessNotMember,
)
from .vectors import (
    ZERO,
    Functional,
    NormKind,
    Scalar,
    SparseVec,
    as_length,
    as_scalar,
    dual_norm,
    dual_pair,
    format_scalar,
    fresh_coordinate,
    linear_combination,
    norm,
    unit,
)
from .series import SeriesSpec, SignMode, TailBound
from .sets import (
    AbsConvHull,
    BoundPair,
    Box,
    FinitePoints,
    Intersect,
    Negate,
    SetExpr,
    SignSums,
    Symmetrized,
    Translate,
    contains,
    coordinate_relaxation,
    diameter,
    diameter_upper,
    enumerate_members,
    free_direction,
    set_from_json,
    set_to_json,
    sup_functional,
    symmetrize,
)
from .indexes import (
    DeltaResult,
    LowerCertificate,
    SearchStrategy,
    challenge_lower,
    default_pool,
    delta0,
    delta_curve,
    delta_lower,
    delta_upper,
    separation_alpha_lower,
)
from .extraction import (
    EpsTree,
    ExtractionTranscript,
    build_eps_tree,
    eps_extreme,
    eps_strong_extreme,
    extract_c0_sequence,
    one_sided_sequence,
    refine_almost_isometric,
    validate_transcript,
    verify_basis_inequality,
)
from .series import brute_tail_sup, sign_sum_set, unconditional_tail_bound, wuc_bound
