"""Schrödinger-system solver on discrete state spaces.

Solves for the pair of measures whose product with a fixed transition
kernel has prescribed marginals -- equivalently, finds the positive
fixed point of the associated potential map -- via a monotone truncated
iteration, with a log-domain Sinkhorn baseline, machine-checkable
existence criteria, and closed-form Gaussian calculus for oracles and
benchmark generation.
"""

from .extnum import INF, OVERFLOW_LIMIT, ExtOverflowError
from .problem import (
    DenseKernel,
    DiscreteProblem,
    DiscreteSpace,
    EvaluationError,
    GaussianKernel,
    IrreducibleProblem,
    Marginal,
    ParseError,
    RadialKernel,
    SchemaError,
    ValidationError,
    kernel_matrix,
    load_problem,
    make_radial_kernel,
    save_problem,
    validate_reduction,
)
from .fortet import (
    DegeneratePotential,
    FixedPointResult,
    MaxIterExceeded,
    NonFiniteIntermediate,
    SchemeState,
    SchrodingerSolution,
    STATUS_CONVERGED,
    STATUS_DEGENERATE,
    STATUS_DIVERGENT,
    STATUS_MAX_ITER,
    extract_solution,
    iterate_truncated,
    normalization_check,
    phi,
    psi,
    restricted_normalization,
    sinkhorn_baseline,
    solve_fortet,
    solve_untruncated,
    twist,
    untwist_solution,
)
from .criteria import (
    CriteriaReport,
    DIVERGENCE_GUARD,
    PreconditionFailed,
    check_integral_criterion,
    check_compact_domination,
    check_moment_condition,
    check_radial,
    full_report,
    suggest_domination_witness,
    sufficient_for_existence,
)
from .gaussian import (
    DegenerateBC,
    DimensionMismatch,
    GaussianProblem,
    GridTooLarge,
    MatrixCriterionResult,
    NotSPD,
    discretize_gaussian,
    gauss_convolve_precision,
    gauss_density,
    matrix_criterion,
    ceiling_quadratic_boundary,
    ceiling_quadratic,
)

__version__ = "0.1.0"
