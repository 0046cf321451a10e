"""Instrumental-variables estimation for censored panel data.

Subpackages by role:

- `truncmoments`: truncated-normal moment engine and the residual identity
  it is verified against.
- `simulate`: panel data generators for the supported model variants.
- `moments`: estimating-equation builders (moment systems).
- `gmm`: linear 2SLS and the concentrated nonlinear GMM solver.
- `montecarlo`: replication harness.
- `cli`: command-line front end.
"""

from .errors import (
    BracketError,
    ConfigurationError,
    ConvergenceError,
    DomainError,
    EmptySystemError,
    IdentificationError,
    InsufficientAcceptanceError,
    InsufficientObservationsError,
    NotApplicableError,
    TobitIVError,
    UnsupportedModeError,
    UnsupportedOrderError,
)
from .gmm import (
    LinearIVResult,
    NonlinearGMMResult,
    j_test,
    nonlinear_gmm,
    two_stage_least_squares,
)
from .moments import (
    MomentSystem,
    NonlinearMomentSystem,
    Param,
    all_pairs,
    build_cross_section,
    build_factor_loading,
    build_pairwise_independent,
    build_pairwise_nonstationary,
    build_pairwise_nonstationary_orders,
    build_pairwise_slope_fe,
    build_triple_additive_variance,
    build_triple_variance_fe,
    censored_index_instruments,
    default_instruments,
    levels_squares_instruments,
    pair_product_instruments,
    stack_systems,
)
from .montecarlo import (
    EstimatorSpec,
    ReplicationRecord,
    StudySummary,
    build_estimation_system,
    replication_seed,
    run_study,
    true_parameter_values,
)
from .simulate import (
    LinearIndexDist,
    LogNormalDist,
    ModelVariant,
    NormalDist,
    PanelConfig,
    PanelDataset,
    Sampling,
    ShiftedHalfNormalDist,
    censoring_rate,
    load_dataset,
    save_dataset,
    simulate,
)
from .truncmoments import (
    BivariateNormalSpec,
    MomentQuery,
    UnivariateNormalSpec,
    bivariate_truncated_moment_mc,
    bivariate_truncated_moment_quad,
    moment_identity_residual,
    quadrant_moments,
    univariate_truncated_moment,
    univariate_truncated_moment_quad,
)

__version__ = "0.1.0"
