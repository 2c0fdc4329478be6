"""Monotone-operator splitting toolkit.

Relaxed primal-dual iterations with critical preconditioners, the
Douglas-Rachford equivalence, a generic relaxed fixed-point engine
with saddle-seminorm diagnostics, and a total-variation deblurring
experiment harness.
"""

from .linalg import (
    HVector,
    LinOp,
    PDState,
    Precond,
    RangeDiagnostics,
    SaddleOperator,
    PowerIterationError,
    as_flat,
    cocoercivity_constant,
    dense_range_diagnostics,
    diagonal_precond,
    hvector,
    identity_op,
    matrix_op,
    matrix_precond,
    power_iteration_sqnorm,
    scalar_precond,
    scaled_identity_op,
    seminorm,
)
from .monotone import (
    MonotoneOp,
    QuadraticDataFit,
    UnsupportedPreconditionerError,
    affine_operator,
    box_operator,
    data_fit_operator,
    dual_resolvent,
    l1_operator,
    monotone_linear,
    moreau_inverse_resolvent,
    project_box,
    prox_l1,
    zero_operator,
)
from .km import (
    DisplacementMonitor,
    FejerMonitor,
    IterTrace,
    KMResult,
    Monitor,
    RelaxationSchedule,
    km_iterate,
    residual_rel,
)
from .primal_dual import (
    PDProblem,
    StepCondition,
    StepSizeConditionError,
    pd_iterate,
    pd_resolvent,
    step_condition,
    zero_inclusion_residual,
)
from .drs import (
    DRSProblem,
    PDDRSResult,
    as_pd_problem,
    drs_iterate,
    drs_operator,
    equivalence_deviation,
    fixed_point_transport,
    pd_drs_iterate,
)
from .tv import (
    ImageGrid,
    SweepGrid,
    TVConfig,
    TVInstance,
    TVRunResult,
    add_gaussian_noise,
    boundary_sigmas,
    build_gaussian_blur,
    build_gradient_ops,
    build_problem,
    equal_critical_sigma,
    gradient_norm_sq,
    psnr,
    run_tv_solver,
    sweep,
    synthetic_image,
    tv_objective,
)
from .pgm import read_pgm, write_pgm

__version__ = "0.1.0"
