"""Dissipation tensors reduced to planar profile matrices.

For traveling-wave profiles every model collapses to a 2x2 matrix
field M(psi) acting on the x-derivative of the covariant state,

    d/dx T^{a1}_ideal(psi) = d/dx [ M(psi) dpsi_cov/dx ],

so the matrix is all a profile solver needs.  Three families are
implemented: the causal viscosity tensor (with optional heat
conduction), its Eckart counterpart (kept for comparison, acausal),
and the BDN regulated tensor for pure radiation.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fluid_core import G2, EosError


class CausalityError(ValueError):
    pass


@dataclass(frozen=True)
class FtCoefficients:
    """Viscosities for the causal tensor: shear eta, bulk zeta, heat chi."""
    eta: float
    zeta: float = 0.0
    chi: float = 0.0

    def __post_init__(self):
        if not self.eta > 0.0:
            raise ValueError(f"eta must be positive, got {self.eta:g}")
        if self.zeta < 0.0 or self.chi < 0.0:
            raise ValueError("zeta and chi must be nonnegative")


@dataclass(frozen=True)
class BdnCoefficients:
    """Shear viscosity eta and regulator weights mu, nu."""
    eta: float
    mu: float
    nu: float

    def __post_init__(self):
        if not (self.eta > 0.0 and self.mu > 0.0 and self.nu > 0.0):
            raise ValueError("eta, mu, nu must all be positive")


def ft_coefficients_at(state, eos, co):
    """Effective coefficients (sigma, zeta_check) at a state.

        sigma      = ((4/3) eta + zeta) / (1 - cs^2) - cs^2 chi theta
        zeta_check = zeta + cs^2 sigma - cs^2 (1 - cs^2) chi theta

    so that (4/3) eta + zeta_check = sigma identically.  Requires a
    subluminal sound speed; at cs^2 >= 1 the combination degenerates.
    """
    t = state.theta
    c2 = eos.cs2(t)
    if c2 >= 1.0:
        raise CausalityError(
            f"sound speed is luminal or worse (cs^2 = {c2:g}); the "
            "effective viscosity sigma is undefined")
    sigma = (4.0 * co.eta / 3.0 + co.zeta) / (1.0 - c2) - c2 * co.chi * t
    zeta_check = co.zeta + c2 * sigma - c2 * (1.0 - c2) * co.chi * t
    return sigma, zeta_check


def velocity_gradient(state):
    """d U_d / d psi_c as a 2x2 array, rows d (lower), columns c (upper)."""
    t = state.theta
    return t * np.eye(2) + t ** 3 * np.outer(state.cov, state.psi)


def _projector(state):
    U = state.u
    return G2 + np.outer(U, U), U


def _shear_bulk_block(Pi, eta, zeta):
    """Shear and bulk part of the planar tensor before the velocity
    gradient; the causal tensor passes its effective zeta_check, the
    Eckart tensor the bare zeta."""
    return (eta * (Pi[1, 1] * Pi + np.outer(Pi[:, 1], Pi[1, :]))
            + (zeta - 2.0 * eta / 3.0) * np.outer(Pi[:, 1], G2[1, :]))


def profile_matrix_ft(state, eos, co):
    """Planar matrix of the causal viscosity/heat-conduction tensor.

    Assembled term by term from the projector decomposition; the
    result collapses to sigma*theta*Pi + chi*theta^2 U (x) U, which the
    tests use as an independent check.
    """
    Pi, U = _projector(state)
    t = state.theta
    sigma, zeta_check = ft_coefficients_at(state, eos, co)
    g1 = G2[1, :]
    W = (_shear_bulk_block(Pi, co.eta, zeta_check)
         + sigma * (U[1] * np.outer(U, g1)
                    - U[1] * (Pi * U[1] + np.outer(U, Pi[1, :]))))
    M = W @ velocity_gradient(state)
    if co.chi:
        # heat flux enters through the temperature gradient alone
        M = M + co.chi * np.outer(U, t ** 3 * state.psi)
    return M


def profile_matrix_eckart(state, eos, co):
    """Planar matrix of the classical first-order (Eckart) tensor.

    Shares the shear/bulk block with the causal tensor but uses the
    bare zeta and couples heat conduction through the projected
    temperature gradient.  Not positive definite in general; kept for
    side-by-side comparisons, not used by the solvers.
    """
    Pi, U = _projector(state)
    t = state.theta
    M = _shear_bulk_block(Pi, co.eta, co.zeta) @ velocity_gradient(state)
    if co.chi:
        vec = Pi[:, 1] * U[1] + Pi[1, 1] * U
        M = M + co.chi * np.outer(vec, t ** 3 * state.psi)
    return M


def profile_matrix_bdn(state, co):
    """Planar matrix of the BDN tensor (pure radiation fluid).

    The three blocks are the (a, c) slices at fixed b = d = 1 of the
    shear kernel and the two regulators; in the t-x plane each reduces
    to rank-one or rank-two combinations of U and the projector column.
    Unlike the viscous matrices this one is indefinite.  With
    b = u^1 = theta psi^1 its determinant is

        det M = -(A b^4 + B b^2 + C) / 3,
        A = 36 eta mu + 4 eta nu - 12 mu nu,
        B = 36 eta mu + 8 eta nu + 12 mu nu,
        C = nu (4 eta - 3 mu).

    Causality gives A >= 0, B > 0 and C <= 0.  So away from b = 0 the
    determinant vanishes only when mu > 4 eta / 3 (C < 0), at exactly
    one speed b* > 0; an orbit that reaches |u^1| = b* cannot go on, which
    is how profiles die.  On the floor mu = 4 eta / 3 it is
    4 eta b^2 ((nu - 4 eta) b^2 - 2 (nu + 2 eta)), negative for every
    b != 0 when nu < 4 eta.  tests/test_dissipation.py certifies these
    forms symbolically.
    """
    Pi, U = _projector(state)
    BE = (Pi[1, 1] * Pi + np.outer(Pi[:, 1], Pi[1, :])
          - (2.0 / 3.0) * np.outer(Pi[:, 1], Pi[:, 1]))
    w = 3.0 * U[1] * U + Pi[:, 1]
    B1 = np.outer(w, w)
    Pim = Pi @ G2
    ahat = np.outer(U, Pim[1, :]) + U[1] * Pim
    bhat = np.outer(U, Pi[1, :]) + U[1] * Pi
    B2 = ahat @ bhat.T
    return co.eta * BE - co.mu * B1 - co.nu * B2


def nu_bound(eta, mu):
    """Largest nu compatible with causality at given eta, mu."""
    return 1.0 / (1.0 / (3.0 * eta) - 1.0 / (9.0 * mu))


def bdn_causality_class(co, rtol=1e-12):
    """Classify a coefficient triple: acausal, strictly or sharply causal.

    Causality requires mu >= (4/3) eta and nu <= (1/(3 eta) - 1/(9 mu))^-1;
    'sharply' means nu sits on the bound (within rtol), 'strictly' means
    it sits below.  Returns (label, bound).
    """
    floor = 4.0 * co.eta / 3.0
    bound = nu_bound(co.eta, co.mu)
    if co.mu < floor * (1.0 - rtol):
        return "acausal", bound
    if co.nu > bound * (1.0 + rtol):
        return "acausal", bound
    if abs(co.nu - bound) <= rtol * bound:
        return "sharply_causal", bound
    return "strictly_causal", bound


class DissipationModel:
    """One dissipation tensor bound to its coefficients.

    tag is one of 'ft-viscous', 'ft-heat', 'bdn', 'eckart'; matrix(state)
    evaluates the planar profile matrix.  needs_eos marks the families
    whose matrix depends on the equation of state.
    """

    def __init__(self, tag, coefficients, eos=None):
        self.tag = tag
        self.co = coefficients
        self.eos = eos
        if tag in ("ft-viscous", "ft-heat", "eckart"):
            if not isinstance(coefficients, FtCoefficients):
                raise TypeError(f"{tag} needs FtCoefficients")
            if eos is None:
                raise ValueError(f"{tag} matrix depends on the EOS")
            if tag == "ft-viscous" and coefficients.chi != 0.0:
                raise ValueError("ft-viscous has chi = 0; use ft-heat")
        elif tag == "bdn":
            if not isinstance(coefficients, BdnCoefficients):
                raise TypeError("bdn needs BdnCoefficients")
            if eos is not None and not _is_radiation(eos):
                raise EosError(
                    "the BDN tensor is formulated for the pure radiation "
                    f"fluid; got EOS {eos.name!r}")
        else:
            raise ValueError(f"unknown dissipation tag {tag!r}")

    def matrix(self, state):
        if self.tag == "bdn":
            return profile_matrix_bdn(state, self.co)
        if self.tag == "eckart":
            return profile_matrix_eckart(state, self.eos, self.co)
        return profile_matrix_ft(state, self.eos, self.co)

    def describe(self):
        if self.tag == "bdn":
            label, bound = bdn_causality_class(self.co)
            return (f"bdn(eta={self.co.eta:g}, mu={self.co.mu:g}, "
                    f"nu={self.co.nu:g}) [{label}]")
        return (f"{self.tag}(eta={self.co.eta:g}, zeta={self.co.zeta:g}, "
                f"chi={self.co.chi:g})")


def _is_radiation(eos):
    return getattr(eos, "terms", None) == [(Fraction(1, 3), Fraction(4))]


def make_model(tag, eos=None, **kw):
    """Factory from primitive keyword coefficients (CLI entry point).

    Raises ValueError for a coefficient the model family does not take.
    """
    takes = ("eta", "mu", "nu") if tag == "bdn" else ("eta", "zeta", "chi")
    extra = sorted(set(kw) - set(takes))
    if extra:
        raise ValueError(f"{tag} does not take {', '.join(extra)} "
                         f"(it takes {', '.join(takes)})")
    if tag == "bdn":
        if "mu" not in kw or "nu" not in kw:
            raise ValueError("bdn needs both mu and nu")
        co = BdnCoefficients(kw.get("eta", 1.0), kw["mu"], kw["nu"])
        return DissipationModel("bdn", co, eos)
    co = FtCoefficients(kw.get("eta", 1.0), kw.get("zeta", 0.0),
                        kw.get("chi", 0.0))
    return DissipationModel(tag, co, eos)
