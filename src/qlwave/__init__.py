"""Trigonometric integrators with a Fourier spectral Galerkin discretization
for 1-D periodic quasilinear wave equations, plus the diagnostics used to
verify filter admissibility, modified-energy identities and convergence
orders."""

from .exceptions import (
    AliasingError,
    ConfigurationError,
    DivergenceError,
    EstimationError,
    NormGuardError,
    NumericsError,
    PreconditionError,
    QlwaveError,
    ReferenceFailure,
)
from .spectral import (
    SpectralField,
    embed,
    pair_norm,
    sobolev_norm,
)
from .filters import (
    AdmissibilityReport,
    FilterSpec,
    check_assumptions,
    grimm_hochbruck,
    hairer_lubich,
    impulse,
    min_c_for,
    parse_filter,
    phi,
    psi1,
    scalar_inequality_check,
    sinc,
    sinc_c,
)
from .problem import (
    EllipticityReport,
    ProblemSpec,
    ellipticity_report,
    linear_problem,
    model_problem,
    power_law_initial_data,
)
from .integrator import (
    IntegratorConfig,
    StatePair,
    evolve,
    step,
)
from .energy import (
    EnergyReport,
    apply_l_operator,
    apply_position_filter,
    energy_change_residual,
    energy_report,
    modified_energy,
    positivity_check,
    u_term,
)
from .reference import (
    ReferenceConfig,
    error_h2h1,
    local_error,
    reference_solution,
)
from .harness import (
    ConvergenceRow,
    ExperimentPlan,
    OrderEstimate,
    estimate_order,
    estimate_spatial_order,
    run_convergence_space,
    run_convergence_time,
    write_rows_csv,
)

__version__ = "0.1.0"
