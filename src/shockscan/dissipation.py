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

from .fluid_core import EosError


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


def ft_coefficients(t, eos, co):
    """Effective coefficients (sigma, zeta_check) at temperature t.

        sigma      = ((4/3) eta + zeta) / (1 - cs^2) - cs^2 chi theta
        zeta_check = zeta + cs^2 sigma - cs^2 (1 - cs^2) chi theta

    so that (4/3) eta + zeta_check = sigma identically.  Requires a
    subluminal sound speed; at cs^2 >= 1 the combination degenerates.
    Requires sigma > 0: the planar matrix sigma theta Pi + chi theta^2
    U (x) U is positive definite exactly when sigma > 0 and chi > 0
    (det = sigma chi theta^3), and at sigma <= 0 the tensor is not
    dissipative.  Both ft paths, the heat shot and the viscous
    quadrature, evaluate sigma here, so this is their one check.
    """
    c2 = eos.cs2(t)
    if c2 >= 1.0:
        raise CausalityError(
            f"sound speed is luminal or worse (cs^2 = {c2:g}); the "
            "effective viscosity sigma is undefined")
    sigma = (4.0 * co.eta / 3.0 + co.zeta) / (1.0 - c2) - c2 * co.chi * t
    if sigma <= 0.0:
        raise CausalityError(
            f"effective viscosity sigma = {sigma:g} <= 0 at theta = {t:g}; "
            "the ft tensor is not dissipative there")
    zeta_check = co.zeta + c2 * sigma - c2 * (1.0 - c2) * co.chi * t
    return sigma, zeta_check


# Closed forms.  In the t-x plane the projector orthogonal to U is
# Pi = G2 + U (x) U = n (x) n with n = (u^1, u^0), since u0^2 - u1^2 = 1,
# and n is a left eigenvector of the velocity gradient
# dU_d/dw_c = theta I + theta^3 w (x) psi, with eigenvalue theta, since
# n . w = 0.  Each family below is that reduction of its projector
# assembly; entries are (M00, M01, M10, M11).

def ft_entries(t, u0, u1, eos, co):
    """Causal viscosity/heat-conduction tensor:
    M = sigma theta Pi + chi theta^2 U (x) U."""
    s = ft_coefficients(t, eos, co)[0] * t
    h = co.chi * t * t
    m01 = (s + h) * u0 * u1
    return s * u1 * u1 + h * u0 * u0, m01, m01, s * u0 * u0 + h * u1 * u1


def eckart_entries(t, u0, u1, co):
    """Classical first-order (Eckart) tensor:
    M = ((4/3) eta + zeta) theta u0^2 Pi + chi theta^2 u0 a (x) U,
    a = (u0^2 + u1^2, 2 u0 u1), the projected temperature gradient."""
    e = (4.0 * co.eta / 3.0 + co.zeta) * t * u0 * u0
    h = co.chi * t * t * u0
    a0, a1 = u0 * u0 + u1 * u1, 2.0 * u0 * u1
    return (e * u1 * u1 + h * a0 * u0, e * u1 * u0 + h * a0 * u1,
            e * u0 * u1 + h * a1 * u0, e * u0 * u0 + h * a1 * u1)


def bdn_entries(u0, u1, co):
    """BDN tensor for the radiation fluid:
    M = (4/3) eta u0^2 Pi - mu w (x) w - nu a (x) a,
    w = (4 u0 u1, u0^2 + 3 u1^2), a = (u0^2 + u1^2, 2 u0 u1).

    The three terms are the (a, c) slices at fixed b = d = 1 of the
    shear kernel and the two regulators.  Unlike the viscous matrices
    this one is indefinite.  With b = u^1 its determinant is

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
    e = 4.0 * co.eta / 3.0 * u0 * u0
    w0, w1 = 4.0 * u0 * u1, u0 * u0 + 3.0 * u1 * u1
    a0, a1 = u0 * u0 + u1 * u1, 2.0 * u0 * u1
    m01 = e * u1 * u0 - co.mu * w0 * w1 - co.nu * a0 * a1
    return (e * u1 * u1 - co.mu * w0 * w0 - co.nu * a0 * a0, m01, m01,
            e * u0 * u0 - co.mu * w1 * w1 - co.nu * a1 * a1)


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

    tag is one of 'ft-viscous', 'ft-heat', 'bdn', 'eckart'.
    entries(t, u0, u1) evaluates the planar profile matrix at
    temperature t and velocity (u0, u1) as four floats,
    (M00, M01, M10, M11); it is the family's closed form, bound once
    here.  matrix(state) is the same as a 2x2 array.
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
        co = coefficients
        if tag == "bdn":
            self.entries = lambda t, u0, u1: bdn_entries(u0, u1, co)
        elif tag == "eckart":
            self.entries = lambda t, u0, u1: eckart_entries(t, u0, u1, co)
        else:
            self.entries = lambda t, u0, u1: ft_entries(t, u0, u1, eos, co)

    def __reduce__(self):
        # entries is a closure: rebuild from the tag and coefficients
        return type(self), (self.tag, self.co, self.eos)

    def matrix(self, state):
        import numpy as np
        return np.array(self.entries(*state.theta_u())).reshape(2, 2)

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
