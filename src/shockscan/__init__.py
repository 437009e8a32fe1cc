"""Relativistic shock end states and dissipation profiles.

Barotropic fluids in one space dimension: solve the jump conditions
for steady Lax shocks, integrate the traveling-wave system for three
families of dissipation tensors, classify the resulting profiles, and
map the causality regimes of the regulated (BDN) family.
"""

from .fluid_core import (
    BarotropicEos,
    DomainError,
    EosError,
    FluidState,
    MonomialEos,
    PolynomialEos,
    check_strict_causality,
    flux,
    gnl_indicator,
    ideal_stress,
    make_eos,
    parse_eos_expression,
    radiation_eos,
    stress_hessian,
)
from .rankine_hugoniot import (
    NoShock,
    ShockData,
    char_speeds,
    end_states,
    g_eval,
    q_max,
    rho_bar,
    shock_from_strength,
    u1_of_rho,
)
from .dissipation import (
    BdnCoefficients,
    CausalityError,
    DissipationModel,
    FtCoefficients,
    bdn_causality_class,
    ft_coefficients_at,
    make_model,
    nu_bound,
    profile_matrix_bdn,
    profile_matrix_eckart,
    profile_matrix_ft,
)
from .profile_dynamics import (
    ProfileResult,
    RestPointReport,
    SingularMatrix,
    lyapunov_eval,
    lyapunov_gradient,
    oscillation_detect,
    planar_rhs,
    rest_point_classify,
    scalar_profile_ft,
    shoot_heteroclinic,
    state_of_w,
)
from .scan import (ScanRecord, ScanResult, compute_profile, resolve_workers,
                   run_scan)

__version__ = "0.1.0"

__all__ = [
    "BarotropicEos", "DomainError", "EosError", "FluidState",
    "MonomialEos", "PolynomialEos", "check_strict_causality",
    "flux", "gnl_indicator", "ideal_stress",
    "make_eos", "parse_eos_expression", "radiation_eos", "stress_hessian",
    "NoShock", "ShockData", "char_speeds", "end_states", "g_eval",
    "q_max", "rho_bar", "shock_from_strength", "u1_of_rho",
    "BdnCoefficients", "CausalityError", "DissipationModel",
    "FtCoefficients", "bdn_causality_class", "ft_coefficients_at",
    "make_model", "nu_bound", "profile_matrix_bdn",
    "profile_matrix_eckart", "profile_matrix_ft",
    "ProfileResult", "RestPointReport", "SingularMatrix",
    "lyapunov_eval", "lyapunov_gradient", "oscillation_detect",
    "planar_rhs", "rest_point_classify", "scalar_profile_ft", "state_of_w",
    "shoot_heteroclinic",
    "ScanRecord", "ScanResult", "compute_profile", "resolve_workers",
    "run_scan",
    "__version__",
]
