"""Dissipation profiles as orbits of the planar profile system.

Integrating the conservation laws once across a steady profile gives

    M(psi) dw/dx = F(w),    F(w) = T^{a1}(psi) - q^a,

with w = (psi_0, psi_1) the covariant state and M the planar matrix of
the dissipation tensor.  A shock profile is a heteroclinic orbit
between the two rest states F = 0.  For the scalar (viscous-only)
reduction the orbit is found by direct quadrature; in general it is
found by shooting along the saddle separatrix.

Classification vocabulary used throughout:

    connected_monotone      orbit reaches the far state, rho monotone
    connected_oscillatory   orbit reaches the far state spiralling
    no_connection           no saddle to shoot from, or budget exhausted
    escaped_domain          orbit leaves psi0 > |psi1| or rho in (0, rho_bar)
    singular_matrix         det M(psi) vanished along the orbit
"""

import math

import numpy as np

from . import rk45
from .brent import brentq
from .rk45 import _default_settings
from .fluid_core import DomainError, FluidState, stress_hessian, flux
from .rankine_hugoniot import u1_of_rho
from .dissipation import DissipationModel, ft_coefficients


class SingularMatrix(RuntimeError):
    """det M dropped below tolerance along an orbit.

    Carries the offending covariant state and the arclength already
    travelled so callers can report where the profile died.
    """

    def __init__(self, w, detval, arclength):
        self.w = np.array(w)
        self.detval = float(detval)
        self.arclength = float(arclength)
        super().__init__(
            f"profile matrix singular at w = ({w[0]:.6g}, {w[1]:.6g}), "
            f"|det M| = {detval:.3e}")


# Fixed shooting limits: the orbit length allowed to a shot, in units
# of the end-state distance, and the x horizon of every integration.
ARC_BUDGET = 1e4
X_MAX = 1e9
# M counts as singular when |det M| < TOL_DET ||M||; a rest state is a
# spiral when an eigenvalue has |Im| > TOL_OSC |lambda|
TOL_DET = 1e-10
TOL_OSC = 1e-6
TOL_MONO = 1e-9     # oscillation_detect's slack, per max(1, |rho|)
TOL_REST = 1e-9     # _classify's zero, per the largest |lambda|


def _det(m):
    """det M of the entries m = (M00, M01, M10, M11), and whether M
    counts as singular: |det M| < TOL_DET * ||M|| (Frobenius norm)."""
    m00, m01, m10, m11 = m
    det = m00 * m11 - m01 * m10
    return det, abs(det) < TOL_DET * math.hypot(m00, m01, m10, m11)


def planar_rhs(w, shock, model):
    """dw/dx = M(psi)^-1 F(w) of the profile system at covariant w, as
    a pair of floats.  Only w[0] and w[1] are read, so the shot passes
    its state with the arclength appended as it is.

    Raises DomainError outside psi0 > |psi1| and SingularMatrix when
    det M falls below TOL_DET * ||M||; the shooting solver relies on
    the latter escaping through the integrator.  theta and u are those
    of FluidState, written out in the same order of operations, and F
    is fluid_core.flux less q; the 2x2 system is solved by Cramer's rule.
    """
    psi0, psi1 = -w[0], w[1]
    if not psi0 > abs(psi1):
        raise DomainError(f"state ({psi0:g}, {psi1:g}) outside psi0 > |psi1|")
    t = (psi0 ** 2 - psi1 ** 2) ** -0.5
    f0, f1 = flux(t, psi0, psi1, shock.eos)
    f0 -= shock.q0
    f1 -= shock.q1
    m00, m01, m10, m11 = m = model.entries(t, t * psi0, t * psi1)
    det, singular = _det(m)
    if singular:
        raise SingularMatrix((w[0], w[1]), abs(det), 0.0)
    return (m11 * f0 - m01 * f1) / det, (m00 * f1 - m10 * f0) / det


def lyapunov_eval(state, eos, q0, q1):
    """L = p(theta) psi^1 - q^a psi_a, with gradient F in w; strictly
    increasing along viscous profiles, the samples' bookkeeping quantity."""
    return (eos.p(state.theta) * state.psi1
            + q0 * state.psi0 - q1 * state.psi1)


def oscillation_detect(rho):
    """True when the density samples fail to be monotone."""
    rho = np.asarray(rho, dtype=float)
    if rho.size < 3:
        return False
    dr = np.diff(rho)
    slack = TOL_MONO * max(1.0, float(np.abs(rho).max()))
    return not (np.all(dr > -slack) or np.all(dr < slack))


class RestPointReport:
    """Linearization M^-1 dF/dw at a rest state of the profile system;
    kind: source, sink, saddle, spiral-source, spiral-sink, degenerate."""

    def __init__(self, label, state, eigenvalues, eigenvectors):
        self.label = label
        self.state = state
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        self.kind = self._classify(eigenvalues)

    @staticmethod
    def _classify(lam):
        scale = float(np.abs(lam).max())
        if scale == 0.0:
            return "degenerate"
        re, im = lam.real / scale, lam.imag / scale
        if np.any(np.abs(im) > TOL_REST):
            if np.all(re > TOL_REST):
                return "spiral-source"
            if np.all(re < -TOL_REST):
                return "spiral-sink"
            return "degenerate"
        if np.any(np.abs(re) <= TOL_REST):
            return "degenerate"
        if re.min() < 0.0 < re.max():
            return "saddle"
        return "source" if re.min() > 0.0 else "sink"

    @property
    def is_saddle(self):
        return self.kind == "saddle"

    def as_dict(self):
        return {
            "label": self.label,
            "psi": [self.state.psi0, self.state.psi1],
            "eigenvalues": [[float(l.real), float(l.imag)]
                            for l in self.eigenvalues],
            "kind": self.kind,
        }


def rest_point_classify(label, state, model):
    """Eigen-decompose the profile linearization at a rest state."""
    M = model.matrix(state)
    det, singular = _det(M.ravel().tolist())
    if singular:
        raise SingularMatrix(state.cov, abs(det), 0.0)
    _, k001, k011, k111 = stress_hessian(state, model.eos)
    H1 = [[k001, k011], [k011, k111]]
    lam, vec = np.linalg.eig(np.linalg.solve(M, H1))
    return RestPointReport(label, state, lam, vec)


class ProfileResult:
    """Outcome of one profile computation.

    Connected profiles carry sample arrays (x, psi0, psi1, rho, u1, L)
    centered so that rho crosses the midpoint density at x = 0 (where
    it does), and width, None when rho does not reach both the 5% and
    the 95% level; failed ones carry the failure diagnostics instead.
    L is evaluated from the samples w when first read.
    """

    def __init__(self, classification, shock, model, reason="",
                 x=None, w=None, rho=None, u1=None,
                 rest_points=(), endpoint_errors=None, width=None,
                 n_steps=0, arclength=0.0, settings=None):
        self.classification = classification
        self.shock = shock
        self.model = model
        self.reason = reason
        self.x = x
        self.w = w
        self.rho = rho
        self.u1 = u1
        self._lyap = None
        self.rest_points = list(rest_points)
        self.endpoint_errors = endpoint_errors or {}
        self.width = width
        self.n_steps = n_steps
        self.arclength = arclength
        self.settings = dict(settings or {})

    @property
    def lyap(self):
        """lyapunov_eval at every sample of w, or None without samples."""
        if self._lyap is None and self.w is not None:
            sd = self.shock
            self._lyap = np.array([
                lyapunov_eval(FluidState(-a, b), sd.eos, sd.q0, sd.q1)
                for a, b in self.w.tolist()])
        return self._lyap

    @property
    def connected(self):
        return self.classification.startswith("connected")

    def to_csv(self, path):
        if not self.connected or self.x is None:
            raise ValueError(
                f"no samples to write for a {self.classification} result")
        lyap = self.lyap
        with open(path, "w") as fh:
            fh.write("x,psi0,psi1,rho,u1,L\n")
            for i in range(len(self.x)):
                fh.write("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (
                    self.x[i], -self.w[i, 0], self.w[i, 1],
                    self.rho[i], self.u1[i], lyap[i]))

    def summary_dict(self):
        return {
            "classification": self.classification,
            "reason": self.reason,
            "model": self.model.describe(),
            "shock": self.shock.as_dict(),
            "rest_points": [rp.as_dict() for rp in self.rest_points],
            "endpoint_errors": self.endpoint_errors,
            "width": self.width,
            "n_steps": self.n_steps,
            "arclength": self.arclength,
            "settings": self.settings,
        }


def scalar_profile_ft(shock, co, **overrides):
    """Viscous-only profile by quadrature of the scalar reduction.

    With chi = 0 the planar system collapses onto the manifold
    u1 = u1(rho) and the density obeys

        drho/dx = R(rho) * q0^2 / (sigma(rho) (rho+q1) u1(rho)^3),
        R(rho)  = q1 - p(rho) - (rho + p(rho)) u1(rho)^2
                = (rho + q1) (g(rho) - r) / ((rho + q1)^2 - q0^2),

    with g the jump function and r = q0^2 - q1^2, and sigma > 0
    (ft_coefficients refuses sigma <= 0).  So R vanishes at the end
    states, and when g is unimodal R > 0 strictly between them: the
    profile exists, is monotone, and is unique up to translation.  A
    g that is not unimodal (q_max warns) can dip below r in between,
    and a sampled sign check refuses that as no_connection.
    Integration starts at the midpoint density (x = 0) and runs both
    ways until rho is within tol_conn * amplitude of the end states.
    Requires co.chi = 0.
    """
    eos = shock.eos
    model = DissipationModel("ft-viscous", co, eos)
    st = _default_settings(**overrides)
    q0, q1 = shock.q0, shock.q1
    rm, rp = shock.rho_minus, shock.rho_plus
    amp = rp - rm

    def R_of(rho):
        ph = eos.p_hat(rho)
        u1 = u1_of_rho(rho, q0, q1)
        return q1 - ph - (rho + ph) * u1 * u1

    def rho_prime(rho):
        u1 = u1_of_rho(rho, q0, q1)
        state = FluidState.from_rho_u1(eos, rho, u1)
        sig = ft_coefficients(state.theta, eos, co)
        return R_of(rho) * q0 ** 2 / (sig * (rho + q1) * u1 ** 3)

    # a zero of R between the end states is a rest point the
    # quadrature cannot cross
    interior = rm + amp * np.linspace(0.02, 0.98, 25)
    if min(R_of(r) for r in interior) <= 0.0:
        return ProfileResult("no_connection", shock, model,
                             reason="R changes sign between the end states",
                             settings=st)

    rho_mid = 0.5 * (rm + rp)
    cut_lo, cut_hi = rm + st["tol_conn"] * amp, rp - st["tol_conn"] * amp

    def rhs(x, y):
        return [rho_prime(y[0])]

    kw = dict(method=st["method"], rtol=st["rtol"], atol=st["atol"] * amp)
    fwd = rk45.integrate(rhs, X_MAX, [rho_mid],
                         [lambda x, y: y[0] - cut_hi], **kw)
    bwd = rk45.integrate(rhs, -X_MAX, [rho_mid],
                         [lambda x, y: y[0] - cut_lo], **kw)
    xs = np.concatenate([bwd.t[::-1], fwd.t[1:]])
    rho = np.concatenate([bwd.y[0, ::-1], fwd.y[0, 1:]])

    u1 = np.array([u1_of_rho(r, q0, q1) for r in rho])
    states = [FluidState.from_rho_u1(eos, r, u) for r, u in zip(rho, u1)]
    w = np.array([s.cov for s in states])

    # 1D linearizations at the rest densities: repelling at rho_minus,
    # attracting at rho_plus when the profile exists
    delta = 1e-6 * amp
    reports = []
    for label, r0 in (("minus", rm), ("plus", rp)):
        lam = (rho_prime(r0 + delta) - rho_prime(r0 - delta)) / (2 * delta)
        st0 = FluidState.from_rho_u1(eos, r0, u1_of_rho(r0, q0, q1))
        reports.append(RestPointReport(
            label, st0, np.array([lam], dtype=complex),
            np.array([[1.0]])))

    lo, hi = (level_crossing(xs, rho, f, shock, rho[:, None],
                             lambda y: y[0], lambda y: (rho_prime(y[0]),))
              for f in (0.05, 0.95))
    err = {"left": float(abs(rho[0] - rm)) / amp,
           "right": float(abs(rho[-1] - rp)) / amp}
    return ProfileResult(
        "connected_monotone", shock, model,
        x=xs, w=w, rho=rho, u1=u1, rest_points=reports,
        endpoint_errors=err,
        width=None if None in (lo, hi) else hi - lo,
        n_steps=len(xs), arclength=float(np.abs(np.diff(rho)).sum()),
        settings=st)


def _check_shared_eos(shock, model):
    """Raise ValueError unless model is bound to the EOS of shock: the
    same object, or a polynomial with the same terms."""
    a, b = shock.eos, model.eos
    if not (a is b or getattr(a, "terms", a) == getattr(b, "terms", b)):
        raise ValueError(f"the model is bound to EOS {b.name!r}, the "
                         f"shock to EOS {a.name!r}")


def shoot_heteroclinic(shock, model, **overrides):
    """Saddle-separatrix shooting for the planar profile system.

    Shoots backward from just off the saddle at the downstream state
    when that state is a saddle, otherwise forward from the upstream
    saddle; with no saddle at either end no orbit can connect and the
    result is an immediate no_connection.  Terminal outcomes:

      * entering the tol_conn ball of the far state  -> connected
      * leaving the physical domain                  -> escaped_domain
      * det M(psi) below TOL_DET ||M|| on the orbit  -> singular_matrix
      * arclength budget or x horizon exhausted      -> no_connection

    A connected orbit is oscillatory when the target is a spiral or
    the density samples are not monotone, and carries no reason.
    Raises ValueError when the model is bound to another EOS than the
    shock.
    """
    _check_shared_eos(shock, model)
    st = _default_settings(**overrides)
    eos = shock.eos
    wm = shock.state_minus.cov
    wp = shock.state_plus.cov
    amp = float(np.linalg.norm(wp - wm))
    rbar = shock.rho_bar
    rho_floor = 1e-10 * shock.rho_minus

    try:
        rp_minus = rest_point_classify("minus", shock.state_minus, model)
        rp_plus = rest_point_classify("plus", shock.state_plus, model)
    except SingularMatrix as exc:
        return ProfileResult("singular_matrix", shock, model,
                             reason=str(exc), settings=st)
    reports = [rp_minus, rp_plus]

    if rp_plus.is_saddle:
        src_rp, tgt_rp, direction = rp_plus, rp_minus, -1.0
        idx = int(np.argmin(src_rp.eigenvalues.real))
    elif rp_minus.is_saddle:
        src_rp, tgt_rp, direction = rp_minus, rp_plus, +1.0
        idx = int(np.argmax(src_rp.eigenvalues.real))
    else:
        return ProfileResult(
            "no_connection", shock, model,
            reason=f"no saddle at either end state "
                   f"(minus: {rp_minus.kind}, plus: {rp_plus.kind})",
            rest_points=reports, settings=st)

    src = src_rp.state.cov
    tgt = tgt_rp.state.cov
    v = np.real(src_rp.eigenvectors[:, idx])
    v = v / np.linalg.norm(v)
    if v @ (tgt - src) < 0.0:
        v = -v
    eps = 1e-8 * (np.linalg.norm(wp) + amp)
    tol_conn = st["tol_conn"] * amp

    tgt0, tgt1 = float(tgt[0]), float(tgt[1])
    nan3 = (math.nan,) * 3

    def rhs(x, y):
        if not -y[0] > abs(y[1]):
            # trial step outside the state space: poison the step so
            # the controller shrinks it, the cone event ends the orbit
            return nan3
        try:
            d0, d1 = planar_rhs(y, shock, model)
        except SingularMatrix as exc:
            exc.arclength = y[2]
            raise
        d0 *= direction
        d1 *= direction
        return d0, d1, math.hypot(d0, d1)

    def ev_conn(x, y):
        return math.hypot(y[0] - tgt0, y[1] - tgt1) - tol_conn

    def ev_cone(x, y):
        return -y[0] - abs(y[1]) - 1e-12

    def ev_rho(x, y):
        d = y[0] ** 2 - y[1] ** 2
        if d <= 0.0:
            return -1.0
        rho = eos.rho(d ** -0.5)
        return min(rbar - rho, rho - rho_floor)

    def ev_arc(x, y):
        return y[2] - ARC_BUDGET * amp

    y0 = np.array([src[0] + eps * v[0], src[1] + eps * v[1], 0.0])
    try:
        sol = rk45.integrate(rhs, X_MAX, y0,
                             [ev_conn, ev_cone, ev_rho, ev_arc],
                             st["rtol"], st["atol"], method=st["method"])
    except SingularMatrix as exc:
        return ProfileResult("singular_matrix", shock, model,
                             reason=str(exc), rest_points=reports,
                             arclength=exc.arclength, settings=st)

    # the event that ended the orbit, by name; None when none did
    ended = (None if sol.event is None
             else ("conn", "cone", "rho", "arc")[sol.event])
    arclen = float(sol.y[2, -1]) if sol.y.shape[1] else 0.0

    def failed(cls, why):
        return ProfileResult(cls, shock, model, reason=why,
                             rest_points=reports, n_steps=sol.t.size,
                             arclength=arclen, settings=st)

    if sol.status < 0:
        # step size underflow: the integrator ground to a halt without
        # reaching any event.  Find out what it ran into.
        return failed(*_diagnose_stall(sol.y[:2, -1], direction, shock,
                                       model, rho_floor, amp))

    if ended in ("cone", "rho"):
        return failed("escaped_domain", "orbit left the physical domain")
    if ended != "conn":
        return failed("no_connection",
                      "arclength budget exhausted" if ended == "arc"
                      else f"integrator stopped (status {sol.status})")

    # order the samples by physical x, and classify
    x = direction * sol.t
    w = sol.y[:2].T
    if direction < 0.0:
        x, w = x[::-1], w[::-1]

    def density(y):
        return eos.rho((y[0] * y[0] - y[1] * y[1]) ** -0.5)

    rho = np.array([density(y) for y in w.tolist()])
    lam = tgt_rp.eigenvalues
    spiral = bool(np.any(np.abs(lam.imag) > TOL_OSC * np.abs(lam)))
    cls = ("connected_oscillatory" if spiral or oscillation_detect(rho)
           else "connected_monotone")
    u1 = (w[:, 0] ** 2 - w[:, 1] ** 2) ** -0.5 * w[:, 1]

    # dw/dx is planar_rhs along x, whichever way the shot ran; x = 0 at
    # the midpoint density crossing, by translation invariance
    lo, mid, hi = (level_crossing(x, rho, f, shock, w, density,
                                  lambda y: planar_rhs(y, shock, model))
                   for f in (0.05, 0.5, 0.95))
    if mid is not None:
        x = x - mid
    err = {
        "left": float(np.linalg.norm(w[0] - shock.state_minus.cov)) / amp,
        "right": float(np.linalg.norm(w[-1] - shock.state_plus.cov)) / amp,
    }
    return ProfileResult(cls, shock, model, x=x, w=w,
                         rho=rho, u1=u1, rest_points=reports,
                         endpoint_errors=err,
                         width=None if None in (lo, hi) else hi - lo,
                         n_steps=sol.t.size,
                         arclength=float(sol.y[2, -1]), settings=st)


def _diagnose_stall(w, direction, shock, model, rho_floor, amp):
    """Post-mortem for a step-size underflow.

    The integrator cannot cross the singular locus of M or the domain
    boundary: the derivative blows up and the step control underflows
    just short of it, so no event fires.  Probe a short ray along the
    orbit tangent, planar_rhs, where M is regular: a sign change (or
    collapse) of det M ahead certifies the singular locus; proximity to
    the light cone or to the admissible density interval certifies a
    domain escape.
    """
    psi0, psi1 = -w[0], w[1]
    scale = abs(psi0) + abs(psi1)
    if psi0 - abs(psi1) <= 1e-9 * scale:
        return "escaped_domain", "stalled at the light cone"
    state = FluidState(psi0, psi1)
    rho = shock.eos.rho(state.theta)
    if rho >= shock.rho_bar * (1.0 - 1e-9) or rho <= rho_floor * (1.0 + 1e-9):
        return "escaped_domain", "stalled at the admissible density bound"
    singular_locus = ("singular_matrix", "orbit ran into the singular locus "
                      "of the profile matrix (det M changes sign ahead)")
    try:
        tangent = direction * np.array(planar_rhs(w, shock, model))
    except SingularMatrix:
        return singular_locus
    d0, _ = _det(model.entries(*state.theta_u()))
    nt = math.hypot(*tangent)
    if nt > 0.0:
        tangent = tangent / nt
        for k in range(48):
            wk = w + tangent * (amp * 1e-9 * 2.0 ** k)
            if -wk[0] - abs(wk[1]) <= 0.0:
                break
            mk = model.entries(*FluidState(-wk[0], wk[1]).theta_u())
            dk, singular = _det(mk)
            if dk * d0 < 0.0 or singular:
                return singular_locus
    return "no_connection", "integrator stalled (step size underflow)"


def level_crossing(x, rho, frac, shock, y, density, field):
    """x at which the density first crosses the fraction frac of the
    jump, rho_minus + frac (rho_plus - rho_minus), or None when the
    samples (positions x, densities rho, states y, one row each) never
    do.  The root is found by brentq on the cubic Hermite interpolant of
    the two samples that straddle the level and of field (dy/dx) at
    them; it is as accurate as the integration, not as the step, and it
    passes through both samples, whose densities bracket the root."""
    level = shock.rho_minus + frac * shock.amplitude
    i = np.flatnonzero(np.diff(np.sign(rho - level)))
    if i.size == 0:
        return None
    (xa, xb), (ya, yb) = x[i[0]:i[0] + 2].tolist(), y[i[0]:i[0] + 2].tolist()
    h, da, db = xb - xa, field(ya), field(yb)

    def excess(xq):
        t = (xq - xa) / h
        s = 1.0 - t
        ca, cb = s * s * (1.0 + 2.0 * t), t * t * (3.0 - 2.0 * t)
        ka, kb = h * t * s * s, -h * t * t * s
        return density([ca * a + ka * d + cb * b + kb * e
                        for a, d, b, e in zip(ya, da, yb, db)]) - level

    return brentq(excess, xa, xb)
