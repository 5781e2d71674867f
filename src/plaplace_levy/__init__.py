"""Monte Carlo toolkit for an implicit-Euler discretization of a degenerate
p-Laplacian evolution driven by compensated jump noise, with verification
harnesses for its energy estimates and a sample-average optimizer for
initial-value controls."""

from .grid import (
    FREE_BOUNDARY,
    ZERO_BOUNDARY,
    Field,
    Grid,
    GridMismatchError,
    dual_norm_estimates,
    l2_norm,
    lp_grad_norm,
    w1p_norm,
)
from .levy import (
    InfiniteMassError,
    LevyModel,
    PrmPath,
    compensated_increments,
    eta_linear,
    eta_sine,
    eta_zero,
    isometry_rhs,
    mark_sums,
    sample_prms,
)
from .scheme import (
    CLAMP_BOUNDARY,
    LIFT_BOUNDARY,
    Ensemble,
    FluxModel,
    NonConvergence,
    SchemeConfig,
    initial_smoothings,
    linear_flux,
    prepare_initial,
    project_control,
    simulate_paths,
    simulate_runs,
    sine_flux,
    zero_flux,
)
from .estimates import (
    DegenerateRegressionError,
    EnsembleReport,
    IsometryReport,
    ScalingReport,
    UniquenessReport,
    aldous_scalings,
    apriori_check,
    generate_ensemble,
    interp_gap_scaling,
    isometry_check,
    uniqueness_check,
)
from .control import (
    CostSpec,
    SAAResult,
    constant_target,
    cost_J,
    psi_l2,
    psi_zero,
    saa_minimize,
    sine_basis,
)

__version__ = "0.1.0"
