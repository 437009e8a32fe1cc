"""Dissipation tensors reduced to planar profile matrices.

For traveling-wave profiles every model collapses to a 2x2 matrix
field M(psi) acting on the x-derivative of the covariant state,

    d/dx T^{a1}_ideal(psi) = d/dx [ M(psi) dpsi_cov/dx ],

so the matrix is all a profile solver needs.  Three families are
implemented: the causal viscosity tensor (with optional heat
conduction), its Eckart counterpart (kept for comparison, acausal),
and the BDN regulated tensor for pure radiation.  Coefficients are
validated namedtuples; each closed form is bound to them once.
"""

from collections import namedtuple
from fractions import Fraction

from .fluid_core import EosError

TOL_CAUSAL = 1e-12   # relative slack of the BDN causality bound


class CausalityError(ValueError):
    pass


class _Validated:
    """namedtuple mixin: _make, and so _replace, build through the
    validating __new__ of the subclass."""
    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class FtCoefficients(_Validated, namedtuple("FtCoefficients", "eta zeta chi",
                                            defaults=(0.0, 0.0))):
    """Viscosities for the causal tensor: shear eta, bulk zeta, heat chi."""
    __slots__ = ()

    def __new__(cls, *args, **kw):
        co = super().__new__(cls, *args, **kw)
        if not co.eta > 0.0:
            raise ValueError(f"eta must be positive, got {co.eta:g}")
        if co.zeta < 0.0 or co.chi < 0.0:
            raise ValueError("zeta and chi must be nonnegative")
        return co


class BdnCoefficients(_Validated, namedtuple("BdnCoefficients", "eta mu nu")):
    """Shear viscosity eta and regulator weights mu, nu."""
    __slots__ = ()

    def __new__(cls, *args, **kw):
        co = super().__new__(cls, *args, **kw)
        if not (co.eta > 0.0 and co.mu > 0.0 and co.nu > 0.0):
            raise ValueError("eta, mu, nu must all be positive")
        return co


def ft_coefficients(t, eos, co):
    """Effective viscosity sigma at temperature t,

        sigma = ((4/3) eta + zeta) / (1 - cs^2) - cs^2 chi theta.

    Requires a subluminal sound speed; at cs^2 >= 1 the combination
    degenerates.  Requires sigma > 0: the planar matrix
    sigma theta Pi + chi theta^2 U (x) U is positive definite exactly
    when sigma > 0 and chi > 0 (det = sigma chi theta^3), and at
    sigma <= 0 the tensor is not dissipative.  Both ft paths, the heat
    shot and the viscous quadrature, evaluate sigma here, so this is
    their one check.
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
    return sigma


# Closed forms.  In the t-x plane the projector orthogonal to U is
# Pi = G2 + U (x) U = n (x) n with n = (u^1, u^0), since u0^2 - u1^2 = 1,
# and n is a left eigenvector of the velocity gradient
# dU_d/dw_c = theta I + theta^3 w (x) psi, with eigenvalue theta, since
# n . w = 0.  Each family below is that reduction of its projector
# assembly, bound once to its coefficients; entries are (M00, M01, M10, M11).

def ft_entries(eos, co):
    """Causal viscosity/heat-conduction tensor:
    M = sigma theta Pi + chi theta^2 U (x) U."""
    chi = co.chi
    def entries(t, u0, u1):
        s = ft_coefficients(t, eos, co) * t
        h = chi * t * t
        m01 = (s + h) * u0 * u1
        return s * u1 * u1 + h * u0 * u0, m01, m01, s * u0 * u0 + h * u1 * u1
    return entries


def eckart_entries(co):
    """Classical first-order (Eckart) tensor:
    M = ((4/3) eta + zeta) theta u0^2 Pi + chi theta^2 u0 a (x) U,
    a = (u0^2 + u1^2, 2 u0 u1), the projected temperature gradient."""
    visc, chi = 4.0 * co.eta / 3.0 + co.zeta, co.chi
    def entries(t, u0, u1):
        e = visc * t * u0 * u0
        h = chi * t * t * u0
        a0, a1 = u0 * u0 + u1 * u1, 2.0 * u0 * u1
        return (e * u1 * u1 + h * a0 * u0, e * u1 * u0 + h * a0 * u1,
                e * u0 * u1 + h * a1 * u0, e * u0 * u0 + h * a1 * u1)
    return entries


def bdn_entries(co):
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
    shear, mu, nu = 4.0 * co.eta / 3.0, co.mu, co.nu
    def entries(t, u0, u1):
        e = shear * u0 * u0
        w0, w1 = 4.0 * u0 * u1, u0 * u0 + 3.0 * u1 * u1
        a0, a1 = u0 * u0 + u1 * u1, 2.0 * u0 * u1
        m01 = e * u1 * u0 - mu * w0 * w1 - nu * a0 * a1
        return (e * u1 * u1 - mu * w0 * w0 - nu * a0 * a0, m01, m01,
                e * u0 * u0 - mu * w1 * w1 - nu * a1 * a1)
    return entries


def nu_bound(eta, mu):
    """Largest nu compatible with causality at given eta, mu."""
    return 1.0 / (1.0 / (3.0 * eta) - 1.0 / (9.0 * mu))


def bdn_causality_class(co):
    """Classify a coefficient triple: acausal, strictly or sharply causal.

    Causality requires mu >= (4/3) eta and nu <= (1/(3 eta) - 1/(9 mu))^-1;
    'sharply' means nu sits on the bound (within TOL_CAUSAL), 'strictly'
    means it sits below.  Returns (label, bound).
    """
    floor = 4.0 * co.eta / 3.0
    bound = nu_bound(co.eta, co.mu)
    if (co.mu < floor * (1.0 - TOL_CAUSAL)
            or co.nu > bound * (1.0 + TOL_CAUSAL)):
        return "acausal", bound
    if abs(co.nu - bound) <= TOL_CAUSAL * bound:
        return "sharply_causal", bound
    return "strictly_causal", bound


class DissipationModel:
    """One dissipation tensor bound to its coefficients and its EOS.

    tag is one of 'ft-viscous', 'ft-heat', 'bdn', 'eckart'; co is the
    family's coefficient namedtuple; eos is the fluid's, the one its
    shocks must share.  entries(t, u0, u1) evaluates the
    planar profile matrix at temperature t and velocity (u0, u1) as four
    floats, (M00, M01, M10, M11): the family's closed form, as its binder
    returned it.  matrix(state) is the same as a 2x2 array.
    """

    def __init__(self, tag, coefficients, eos):
        self.tag = tag
        self.co = co = coefficients
        self.eos = eos
        if tag in ("ft-viscous", "ft-heat", "eckart"):
            if not isinstance(coefficients, FtCoefficients):
                raise TypeError(f"{tag} needs FtCoefficients")
            if tag == "ft-viscous" and coefficients.chi != 0.0:
                raise ValueError("ft-viscous has chi = 0; use ft-heat")
            if tag != "ft-viscous" and not coefficients.chi > 0.0:
                # without heat flux M is a multiple of n (x) n, rank one
                raise ValueError(f"{tag} needs chi > 0" + (
                    "; use ft-viscous" if tag == "ft-heat" else ""))
            self.entries = (eckart_entries(co) if tag == "eckart"
                            else ft_entries(eos, co))
        elif tag == "bdn":
            if not isinstance(coefficients, BdnCoefficients):
                raise TypeError("bdn needs BdnCoefficients")
            if not _is_radiation(eos):
                raise EosError(
                    "the BDN tensor is formulated for the pure radiation "
                    f"fluid; got EOS {eos.name!r}")
            self.entries = bdn_entries(co)
        else:
            raise ValueError(f"unknown dissipation tag {tag!r}")

    def __reduce__(self):
        # entries is a closure: rebuild from the tag and coefficients
        return type(self), (self.tag, self.co, self.eos)

    def matrix(self, state):
        import numpy as np
        return np.array(self.entries(*state.theta_u())).reshape(2, 2)

    def describe(self):
        text = ", ".join(f"{k}={v:g}" for k, v in self.co._asdict().items())
        if self.tag == "bdn":
            return f"bdn({text}) [{bdn_causality_class(self.co)[0]}]"
        return f"{self.tag}({text})"


def _is_radiation(eos):
    return getattr(eos, "terms", None) == [(Fraction(1, 3), Fraction(4))]


def make_model(tag, eos, **kw):
    """Factory from primitive keyword coefficients (CLI entry point);
    eta defaults to 1.  Raises ValueError for a coefficient the model
    family does not take."""
    cls = BdnCoefficients if tag == "bdn" else FtCoefficients
    extra = sorted(set(kw) - set(cls._fields))
    if extra:
        raise ValueError(f"{tag} does not take {', '.join(extra)} "
                         f"(it takes {', '.join(cls._fields)})")
    required = [k for k in cls._fields[1:] if k not in cls._field_defaults]
    if not kw.keys() >= set(required):
        raise ValueError(f"{tag} needs both {' and '.join(required)}")
    return DissipationModel(tag, cls(**{"eta": 1.0, **kw}), eos)
