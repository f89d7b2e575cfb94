"""Gradient-flow laboratory for deep diagonal linear networks."""

from .conservation import (
    TiedMinimumError,
    MinLayerIndex,
    PermutedStack,
    SigmaBound,
    SignCensus,
    SingularMobilityError,
    conservation_defect,
    locate_min_layers,
    min_layer_permutation,
    reconstruct_theta,
    reconstruction_error,
    sigma_lower_bound,
    sign_census,
)
from .experiments import (
    BiasResult,
    BiasRow,
    ConvergenceResult,
    CrossingsResult,
    ExperimentConfig,
    KktSolution,
    NewtonError,
    RateCheck,
    convergence_scale_sweep,
    make_problem,
    min_l1_norm,
    pl_constant,
    rate_check,
    run_bias,
    run_convergence,
    run_crossings,
    solve_kkt,
    time_to_gap,
)
from .flow import (
    DivergenceError,
    StepController,
    StepUnderflowError,
    Trajectory,
    integrate,
    integrate_redundant,
    layer_rhs,
)
from .mirror import (
    HyperbolicEntropy,
    PowerEntropy,
    mirror_residual_closed_form,
    mirror_residual_general,
)
from .model import (
    InitScheme,
    LayerStack,
    QuadraticLoss,
    init_layers,
    leave_one_out_products,
    mobility,
    theta_of_layers,
)
from .paramcheck import (
    Certificate,
    certify,
    commuting_defect,
    coordinate_gradient,
    coordinate_hessian,
    jacobian,
    jacobian_rank,
    on_manifold,
    trajectory_on_manifold,
)
from .report import DiagnosticsReport, build_diagnostics, write_trajectory_csv
