"""qsodyn: quadratic stochastic operators on the probability simplex.

Construction and classification of operators (Volterra, strictly
non-Volterra, two-sex/F-QSO), trajectory dynamics with certified
doubly exponential convergence for every two-sex operator, fixed-point
analysis, Cesaro ergodic averages, first-row counting, and a seeded
randomized convergence scanner.
"""

from .analysis import (
    ConjectureReport,
    CountReport,
    EVIDENCE_NOTE,
    TrialResult,
    conjecture_scan,
    count_first_row,
    remark_bounds,
    run_trial,
    sample_random_f_qso,
    trial_seed,
)
from .core import (
    TOL_FIX,
    TOL_SUM,
    ClassificationError,
    ClassReport,
    CubicMatrix,
    DimensionError,
    FemaleSets,
    InvalidPointError,
    QsoError,
    SimplexPoint,
    StochasticityError,
    StochasticityReport,
    StochasticityViolation,
    classify,
    renormalize,
    require_valid,
    validate_stochastic,
)
from .documents import (
    DocumentError,
    OperatorDocument,
    canonical_json,
    document_from_matrix,
    expand,
    load_document,
    save_document,
)
from .dynamics import (
    PHI_UNDERFLOW,
    ConvergenceReport,
    FixedPointCandidate,
    FixedPointReport,
    Trajectory,
    cesaro_running,
    convergence_report,
    find_fixed_points,
    fixed_points,
    fixed_points_m2,
    fixed_points_volterra,
    iterate_batch,
    lyapunov,
    lyapunov_bound,
    lyapunov_closed_form,
    trajectory,
)
from .operators import (
    PRESETS,
    SkewMatrix,
    apply_normalized,
    apply_unnormalized,
    build_f_qso,
    build_fqso_m2,
    build_single_male,
    cubic_from_skew,
    preset,
    skew_from_cubic,
)

__version__ = "0.1.0"
