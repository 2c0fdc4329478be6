"""Monotone-operator splitting toolkit.

Relaxed primal-dual iterations with critical preconditioners and
V-seminorm diagnostics of their saddle-point metric, the
Douglas-Rachford equivalence, a generic relaxed fixed-point engine
and a total-variation deblurring experiment harness.
"""

from .linalg import (
    HVector,
    LinOp,
    Precond,
    RangeDiagnostics,
    PowerIterationError,
    as_flat,
    dense_range_diagnostics,
    diagonal_precond,
    hvector,
    identity_op,
    matrix_op,
    matrix_precond,
    power_iteration_sqnorm,
    scalar_precond,
)
from .monotone import (
    MonotoneOp,
    QuadraticDataFit,
    UnsupportedPreconditionerError,
    box_operator,
    dual_resolvent,
    l1_operator,
    monotone_linear,
    project_box,
    prox_l1,
    zero_operator,
)
from .km import (
    KMResult,
    Monitor,
    RelaxationSchedule,
    km_iterate,
)
from .primal_dual import (
    DisplacementMonitor,
    FejerMonitor,
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
