"""Relativistic shock end states and dissipation profiles.

Barotropic fluids in one space dimension: solve the jump conditions
for steady Lax shocks, integrate the traveling-wave system for three
families of dissipation tensors, classify the resulting profiles, and
map the causality regimes of the regulated (BDN) family.

Importing the package loads no numpy: the end-state and model layers run
on Python floats.  The profile and scan names are imported on first use
(PEP 562), and they bring numpy with them.
"""

import importlib

from .fluid_core import (
    BarotropicEos,
    DomainError,
    EosError,
    FluidState,
    MonomialEos,
    PolynomialEos,
    flux,
    gnl_indicator,
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
    ft_coefficients,
    make_model,
    nu_bound,
)

# name -> the submodule that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(
        ("ProfileResult", "RestPointReport", "SingularMatrix",
         "lyapunov_eval", "oscillation_detect", "planar_rhs",
         "rest_point_classify", "scalar_profile_ft", "shoot_heteroclinic"),
        "profile_dynamics"),
    **dict.fromkeys(
        ("ScanRecord", "ScanResult", "compute_profile", "run_scan"),
        "scan"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__version__ = "0.1.0"

__all__ = [
    "BarotropicEos", "DomainError", "EosError", "FluidState",
    "MonomialEos", "PolynomialEos", "flux", "gnl_indicator",
    "make_eos", "parse_eos_expression", "radiation_eos", "stress_hessian",
    "NoShock", "ShockData", "char_speeds", "end_states", "g_eval",
    "q_max", "rho_bar", "shock_from_strength", "u1_of_rho",
    "BdnCoefficients", "CausalityError", "DissipationModel",
    "FtCoefficients", "bdn_causality_class", "ft_coefficients",
    "make_model", "nu_bound",
    "ProfileResult", "RestPointReport", "SingularMatrix",
    "lyapunov_eval", "oscillation_detect", "planar_rhs",
    "rest_point_classify", "scalar_profile_ft", "shoot_heteroclinic",
    "ScanRecord", "ScanResult", "compute_profile", "run_scan",
    "__version__",
]
