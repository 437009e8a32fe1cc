"""End states of steady planar shocks from the jump conditions.

A steady profile conserves the fluxes q^a = T^{a1}(psi(x)); prescribing
(q0, q1) pins down at most two rest states.  On the manifold
q^0 u^0 - (rho + q^1) u^1 = 0 the remaining jump condition reduces to a
scalar equation

    g(rho) = -rho*p(rho) + q1*(rho - p(rho)) = q0^2 - q1^2 =: r

whose two roots rho_minus < rho_plus are the upstream and downstream
energy densities.  g vanishes at rho = 0, rises to its maximum Q at
rho_star, and falls to -q1^2 at rho_bar (where p(rho_bar) = q1), so
end states exist exactly for 0 < r < Q.

The roots come from the package's port of scipy's brentq and the
characteristic speeds from relativistic velocity addition, so this
module runs on Python floats and imports neither numpy nor scipy.  A
shock computes (rho_star, Q, rho_bar) once: shock_from_strength hands
it to end_states.
"""

import math
import warnings

from .brent import brentq
from . import fluid_core
from .fluid_core import EosError, FluidState, gnl_indicator, linspace

_BRENTQ_KW = dict(xtol=1e-300, rtol=8.9e-16, maxiter=200)
TOL_JUMP = 1e-8     # relative flux error allowed at an end state


class NoShock(ValueError):
    """Flux constants admit no pair of admissible end states."""


def g_eval(eos, q1, rho):
    """The scalar jump function g(rho) at momentum flux q1."""
    ph = eos.p_hat(rho)
    return -rho * ph + q1 * (rho - ph)


def rho_bar(eos, q1):
    """Upper end of the admissible energy interval, p(rho_bar) = q1."""
    if q1 <= 0.0:
        raise NoShock(f"momentum flux q1 must be positive, got {q1:g}")
    try:
        # linear p(rho) = rho/(k-1) inverts in closed form
        return float(eos.k - 1) * q1
    except AttributeError:
        pass
    lo, hi = 1.0, 1.0
    while eos.p_hat(lo) > q1 and lo > 1e-280:
        lo *= 0.5
    while eos.p_hat(hi) < q1 and hi < 1e280:
        hi *= 2.0
    return brentq(lambda r: eos.p_hat(r) - q1, lo, hi, **_BRENTQ_KW)


def q_max(eos, q1):
    """Maximizer and maximum of g, and the end of its interval:
    returns (rho_star, Q, rho_bar).

    Warns when the acoustic mode loses genuine nonlinearity somewhere
    on (0, rho_bar); g is then not guaranteed unimodal and the root
    bracketing below may be incomplete.  Outside the EOS range: NoShock.
    """
    try:
        rb = rho_bar(eos, q1)
        gnl = [gnl_indicator(eos, rho) for rho in linspace(rb * 1e-6, rb, 64)]
        if min(gnl) <= 0.0:
            warnings.warn(
                "genuine nonlinearity fails inside (0, rho_bar); "
                "the jump function may not be unimodal", RuntimeWarning)
        try:
            k = float(eos.k)
            rs = q1 * (k - 2.0) / 2.0 if k > 2.0 else None
        except AttributeError:
            rs = None
        if rs is None or not (0.0 < rs < rb):
            # dg/drho(0+) > 0 > dg/drho(rho_bar) for a subluminal EOS,
            # so the bracket is guaranteed; a sound speed at or above
            # light kills the initial rise and g has no interior maximum
            def dg(rho):
                t = eos.theta_of_rho(rho)
                c2 = eos.cs2(t)
                return -eos.p(t) - rho * c2 + q1 * (1.0 - c2)
            lo = rb * 1e-12
            if not (dg(lo) > 0.0 > dg(rb)):
                raise NoShock(
                    "jump function has no interior maximum; "
                    f"no shock end states exist for {eos.name}")
            rs = brentq(dg, lo, rb, **_BRENTQ_KW)
        return rs, g_eval(eos, q1, rs), rb
    except EosError as exc:
        raise NoShock(str(exc)) from None


def u1_of_rho(rho, q0, q1):
    """x-velocity on the profile manifold, u1 = ((rho+q1)^2/q0^2 - 1)^(-1/2)."""
    s = ((rho + q1) / q0) ** 2 - 1.0
    if s <= 0.0:
        raise NoShock(f"rho={rho:g} incompatible with (q0, q1)=({q0:g}, {q1:g})")
    return s ** -0.5


def char_speeds(state, eos):
    """Acoustic characteristic speeds at a state, slow first.

    Relativistic velocity addition of the sound speed c = sqrt(cs^2)
    to the fluid velocity u^1/u^0, lam = (u1 -+ c u0) / (u0 -+ c u1).
    No denominator cancels for c < 1, so the speeds stay accurate up
    to the light cone, where eigenvalues of the rounded flux-Hessian
    pencil do not.  The fast speed is formed from its distance to 1,
    1 - lam = (psi0 - psi1) (1 - c) / (psi0 + c psi1), which keeps its
    relative accuracy at the cone, where psi0 - psi1 is exact; the
    quotient there can round to 1.
    """
    t, u0, u1 = state.theta_u()
    c = math.sqrt(eos.cs2(t))
    psi0, psi1 = state.psi0, state.psi1
    return ((u1 - c * u0) / (u0 - c * u1),
            1.0 - (psi0 - psi1) * (1.0 - c) / (psi0 + c * psi1))


class ShockData:
    """End states plus diagnostics for one pair of flux constants."""

    def __init__(self, eos, q0, q1, rho_minus, rho_plus, strength,
                 rho_star, q_cap, rho_bar):
        self.eos = eos
        self.q0 = q0
        self.q1 = q1
        self.rho_minus = rho_minus
        self.rho_plus = rho_plus
        self.strength = strength
        self.rho_star = rho_star
        self.q_cap = q_cap
        self.rho_bar = rho_bar
        self.u1_minus = u1_of_rho(rho_minus, q0, q1)
        self.u1_plus = u1_of_rho(rho_plus, q0, q1)
        self.state_minus = FluidState.from_rho_u1(eos, rho_minus, self.u1_minus)
        self.state_plus = FluidState.from_rho_u1(eos, rho_plus, self.u1_plus)
        self.speeds_minus = char_speeds(self.state_minus, eos)
        self.speeds_plus = char_speeds(self.state_plus, eos)
        # steady Lax shock: the slow acoustic family crosses zero from
        # upstream to downstream while the fast family passes through
        self.lax = (self.speeds_minus[0] > 0.0 > self.speeds_plus[0]
                    and self.speeds_minus[1] > 0.0
                    and self.speeds_plus[1] > 0.0)

    @property
    def amplitude(self):
        return self.rho_plus - self.rho_minus

    def as_dict(self):
        return {
            "eos": self.eos.name,
            "q0": self.q0,
            "q1": self.q1,
            "strength": self.strength,
            "rho_minus": self.rho_minus,
            "rho_plus": self.rho_plus,
            "u1_minus": self.u1_minus,
            "u1_plus": self.u1_plus,
            "theta_minus": self.state_minus.theta,
            "theta_plus": self.state_plus.theta,
            "psi_minus": [self.state_minus.psi0, self.state_minus.psi1],
            "psi_plus": [self.state_plus.psi0, self.state_plus.psi1],
            "char_speeds_minus": list(self.speeds_minus),
            "char_speeds_plus": list(self.speeds_plus),
            "lax": self.lax,
            "rho_star": self.rho_star,
            "q_max": self.q_cap,
            "rho_bar": self.rho_bar,
        }


def end_states(eos, q0, q1, cap=None):
    """Solve the jump conditions for (q0, q1); raises NoShock if none.

    Needs q0 > q1 > 0 and r = q0^2 - q1^2 strictly below the cap Q.
    cap is (rho_star, Q, rho_bar) as q_max(eos, q1) returns it,
    computed here when the caller does not pass it.  Roots are isolated
    by Brent's method inside the guaranteed brackets (0, rho_star) and
    (rho_star, rho_bar).  An end state outside the EOS range: NoShock.
    """
    if q1 <= 0.0 or q0 <= q1:
        raise NoShock(f"need q0 > q1 > 0, got ({q0:g}, {q1:g})")
    r = q0 ** 2 - q1 ** 2
    rho_star, q_cap, rb = cap or q_max(eos, q1)
    if not (0.0 < r < q_cap):
        raise NoShock(
            f"r = q0^2 - q1^2 = {r:g} outside (0, {q_cap:g}); "
            "no pair of end states")

    def f(rho):
        return g_eval(eos, q1, rho) - r

    lo = rho_star
    try:
        while f(lo) > 0.0:
            lo *= 0.5
            if lo < rho_star * 1e-280:
                raise NoShock("failed to bracket the upstream root")
        rm = brentq(f, lo, rho_star, **_BRENTQ_KW)
        rp = brentq(f, rho_star, rb, **_BRENTQ_KW)
        strength = 1.0 - r / q_cap
        sd = ShockData(eos, q0, q1, rm, rp, strength, rho_star, q_cap, rb)
    except EosError as exc:
        raise NoShock(str(exc)) from None
    _check_consistency(sd)
    return sd


def shock_from_strength(eos, q1, strength):
    """End states at a given strength s in (0, 1).

    s parametrizes r = q0^2 - q1^2 = (1 - s) * Q: s -> 0 is the sonic
    limit where the two states merge at rho_star, s -> 1 the extreme
    limit where the upstream density empties out.
    """
    if not (0.0 < strength < 1.0):
        raise NoShock(f"strength must lie in (0, 1), got {strength:g}")
    cap = q_max(eos, q1)
    q0 = math.sqrt(q1 ** 2 + (1.0 - strength) * cap[1])
    sd = end_states(eos, q0, q1, cap)
    sd.strength = strength
    return sd


def _check_consistency(sd):
    # both end states must reproduce the prescribed fluxes
    for st in (sd.state_minus, sd.state_plus):
        f0, f1 = fluid_core.flux(st.theta, st.psi0, st.psi1, sd.eos)
        err = max(abs(f0 - sd.q0), abs(f1 - sd.q1)) / max(sd.q0, sd.q1)
        if err > TOL_JUMP:
            raise NoShock(f"end state fails the jump conditions, "
                          f"relative error {err:.3e}")
