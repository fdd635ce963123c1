"""Numerical laboratory for Newtonian dynamics in momentum representation.

The package evaluates the normality equations of such systems as
pointwise residuals, solves the Pfaff system for the shift-initialization
function nu, and simulates the normal shift of hypersurfaces along
trajectories, verifying orthogonality as it goes.
"""

from .connections import (
    CanonicalConnection,
    ConnectionField,
    ExplicitConnection,
    GaugedConnection,
    GaugeTensor,
    ZeroConnection,
    canonical_connection,
    connection_from_config,
    random_gauge_tensor,
)
from .dynamics import (
    ExtendedState,
    IntegratorConfig,
    Trajectory,
    deviation,
    integrate_family,
    rk4_step,
    variational_rhs,
)
from .engine import PointCalculus
from .errors import (
    AsymmetricGauge,
    ConfigError,
    DegenerateOmega,
    EvaluationDomainError,
    ExpressionSyntaxError,
    NonFiniteResidual,
    NonFiniteState,
    NslabError,
    NuVanished,
    RankDeficientTangents,
    SingularMetric,
    UnknownIdentifierError,
    VariableIndexError,
    ZeroWv,
)
from .expressions import (
    Expression,
    Jet,
    evaluate,
    evaluate_jet,
    finite_difference_probe,
    parse,
    parse_expression,
    substitute,
)
from .normality import (
    BatchReport,
    NormalityResidual,
    RegularityReport,
    check_regularity,
    normality_report,
    residual_at,
    residual_from_calc,
)
from .sampling import PointSampler
from .surfaces import (
    Hypersurface,
    NuGrid,
    OrthogonalityReport,
    ShiftRun,
    SurfaceFrame,
    compatibility_residual,
    load_surface,
    pfaff_rhs,
    simulate_shift,
    solve_nu,
    surface_frame,
    surface_from_config,
    verify_orthogonality,
)
from .systems import (
    EuclideanNewtonianSystem,
    ExplicitSystem,
    ModifiedHamiltonianSystem,
    PhasePoint,
    SystemDefinition,
    build_modified_hamiltonian,
    build_riemannian_euclidean,
    system_from_config,
)

__version__ = "0.1.0"
