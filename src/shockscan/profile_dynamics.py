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
from scipy.integrate import quad, solve_ivp

from . import rk45
from .fluid_core import DomainError, FluidState, stress_hessian, flux
from .rankine_hugoniot import u1_of_rho
from .dissipation import DissipationModel, ft_coefficients, CausalityError


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


# Fixed shooting limits: the orbit length allowed to a shot and the
# radius of the spiral certificate, both in units of the end-state
# distance, and the x horizon of every integration.
ARC_BUDGET = 1e4
X_MAX = 1e9
TOL_SPIRAL = 1e-3


def _det(m, tol_det):
    """det M of the entries m = (M00, M01, M10, M11), and whether M
    counts as singular: |det M| < tol_det * ||M|| (Frobenius norm)."""
    m00, m01, m10, m11 = m
    det = m00 * m11 - m01 * m10
    return det, abs(det) < tol_det * math.hypot(m00, m01, m10, m11)


def planar_rhs(w, shock, model, tol_det=1e-10):
    """dw/dx = M(psi)^-1 F(w) of the profile system at covariant w, as
    a pair of floats.

    Raises DomainError outside psi0 > |psi1| and SingularMatrix when
    det M falls below tol_det * ||M||; the shooting solver relies on
    the latter escaping through the integrator.  theta, u and the flux
    are those of FluidState and fluid_core.flux, written out in the
    same order of operations; the 2x2 system is solved by Cramer's rule.
    """
    psi0, psi1 = -w[0], w[1]
    if not psi0 > abs(psi1):
        raise DomainError(f"state ({psi0:g}, {psi1:g}) outside psi0 > |psi1|")
    t = (psi0 ** 2 - psi1 ** 2) ** -0.5
    eos = shock.eos
    c = t ** 3 * eos.dp(t)
    f0 = c * (psi0 * psi1) - shock.q0
    f1 = c * (psi1 * psi1) + eos.p(t) - shock.q1
    m00, m01, m10, m11 = m = model.entries(t, t * psi0, t * psi1)
    det, singular = _det(m, tol_det)
    if singular:
        raise SingularMatrix((w[0], w[1]), abs(det), 0.0)
    return (m11 * f0 - m01 * f1) / det, (m00 * f1 - m10 * f0) / det


def lyapunov_eval(state, eos, q0, q1):
    """L = p(theta) psi^1 - q^a psi_a, with gradient F in w; strictly
    increasing along viscous profiles, the samples' bookkeeping quantity."""
    return (eos.p(state.theta) * state.psi1
            + q0 * state.psi0 - q1 * state.psi1)


def oscillation_detect(rho, rel_tol=1e-9):
    """True when the density samples fail to be monotone."""
    rho = np.asarray(rho, dtype=float)
    if rho.size < 3:
        return False
    dr = np.diff(rho)
    slack = rel_tol * max(1.0, float(np.abs(rho).max()))
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
    def _classify(lam, tol=1e-9):
        scale = float(np.abs(lam).max())
        if scale == 0.0:
            return "degenerate"
        re, im = lam.real / scale, lam.imag / scale
        if np.any(np.abs(im) > tol):
            if np.all(re > tol):
                return "spiral-source"
            if np.all(re < -tol):
                return "spiral-sink"
            return "degenerate"
        if np.any(np.abs(re) <= tol):
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


def rest_point_classify(label, state, model, eos, tol_det=1e-10):
    """Eigen-decompose the profile linearization at a rest state."""
    M = model.matrix(state)
    det, singular = _det(M.ravel().tolist(), tol_det)
    if singular:
        raise SingularMatrix(state.cov, abs(det), 0.0)
    _, k001, k011, k111 = stress_hessian(state, eos)
    H1 = [[k001, k011], [k011, k111]]
    lam, vec = np.linalg.eig(np.linalg.solve(M, H1))
    return RestPointReport(label, state, lam, vec)


class ProfileResult:
    """Outcome of one profile computation.

    Connected profiles carry sample arrays (x, psi0, psi1, rho, u1, L)
    centered so that rho crosses the midpoint density at x = 0; failed
    ones carry the failure diagnostics instead.
    """

    def __init__(self, classification, shock, model, reason="",
                 x=None, w=None, rho=None, u1=None, lyap=None,
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
        self.lyap = lyap
        self.rest_points = list(rest_points)
        self.endpoint_errors = endpoint_errors or {}
        self.width = width
        self.n_steps = n_steps
        self.arclength = arclength
        self.settings = dict(settings or {})

    @property
    def connected(self):
        return self.classification.startswith("connected")

    def to_csv(self, path):
        if not self.connected or self.x is None:
            raise ValueError(
                f"no samples to write for a {self.classification} result")
        with open(path, "w") as fh:
            fh.write("x,psi0,psi1,rho,u1,L\n")
            for i in range(len(self.x)):
                fh.write("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (
                    self.x[i], -self.w[i, 0], self.w[i, 1],
                    self.rho[i], self.u1[i], self.lyap[i]))

    def summary_dict(self):
        d = {
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
        return d


# integrators a profile can run on: RK45 is the package's own stepper,
# the others are solve_ivp's
METHODS = ("RK45", "RK23", "DOP853", "Radau", "BDF", "LSODA")


def _default_settings(**overrides):
    s = dict(rtol=1e-10, atol=1e-12, tol_conn=1e-6, tol_det=1e-10,
             tol_osc=1e-6, method="RK45")
    for k, v in overrides.items():
        if k not in s:
            raise TypeError(f"unknown solver setting {k!r}")
        if v is not None:
            s[k] = v
    if s["method"] not in METHODS:
        raise ValueError(f"unknown integrator {s['method']!r} "
                         f"(one of {', '.join(METHODS)})")
    return s


def _integrate(fun, t_bound, y0, events, method, rtol, atol):
    """Integrate dy/dx = fun(x, y) from x = 0 toward t_bound; every
    event is terminal.  RK45 runs on rk45.integrate, any other method
    on solve_ivp; both results carry t, y, status and t_events.

    fun sees y as a list of floats either way: float arithmetic on the
    elements of an array costs more than the conversion.
    """
    if method == "RK45":
        return rk45.integrate(fun, t_bound, y0, events, rtol, atol)
    return solve_ivp(lambda x, y: fun(x, y.tolist()), (0.0, t_bound), y0,
                     method=method, events=events, rtol=rtol, atol=atol)


def scalar_profile_ft(shock, co, **overrides):
    """Viscous-only profile by quadrature of the scalar reduction.

    With chi = 0 the planar system collapses onto the manifold
    u1 = u1(rho) and the density obeys

        drho/dx = R(rho) * q0^2 / (sigma(rho) (rho+q1) u1(rho)^3),
        R(rho)  = q1 - p(rho) - (rho + p(rho)) u1(rho)^2,

    with R > 0 strictly between the end states, so the profile exists,
    is monotone, and is unique up to translation.  Integration starts
    at the midpoint density (x = 0) and runs both ways until rho is
    within tol_conn * amplitude of the end states.  Requires co.chi = 0.
    """
    eos = shock.eos
    model = DissipationModel("ft-viscous", co, eos)
    st = _default_settings(**overrides)
    q0, q1 = shock.q0, shock.q1
    rm, rp = shock.rho_minus, shock.rho_plus
    amp = rp - rm

    def R_of(rho):
        ph = eos.p_hat(rho)
        u1 = u1_of_rho(eos, rho, q0, q1)
        return q1 - ph - (rho + ph) * u1 * u1

    def rho_prime(rho):
        u1 = u1_of_rho(eos, rho, q0, q1)
        state = FluidState.from_rho_u1(eos, rho, u1)
        sig, _ = ft_coefficients(state.theta, eos, co)
        if sig <= 0.0:
            raise CausalityError(f"sigma(rho={rho:g}) = {sig:g} <= 0")
        return R_of(rho) * q0 ** 2 / (sig * (rho + q1) * u1 ** 3)

    # sign structure: R vanishes at the end states and is positive
    # strictly between them, otherwise the quadrature is meaningless
    interior = rm + amp * np.linspace(0.02, 0.98, 25)
    Rv = np.array([R_of(r) for r in interior])
    scale = max(abs(R_of(0.5 * (rm + rp))), 1e-300)
    if abs(R_of(rm)) > 1e-8 * scale or abs(R_of(rp)) > 1e-8 * scale:
        return ProfileResult("no_connection", shock, model,
                             reason="R does not vanish at the end states",
                             settings=st)
    if Rv.min() <= 0.0:
        return ProfileResult("no_connection", shock, model,
                             reason="R changes sign between the end states",
                             settings=st)

    rho_mid = 0.5 * (rm + rp)
    cut_lo, cut_hi = rm + st["tol_conn"] * amp, rp - st["tol_conn"] * amp

    def rhs(x, y):
        return [rho_prime(y[0])]

    def ev_hi(x, y):
        return y[0] - cut_hi
    ev_hi.terminal = True

    def ev_lo(x, y):
        return y[0] - cut_lo
    ev_lo.terminal = True

    kw = dict(method=st["method"], rtol=st["rtol"], atol=st["atol"] * amp)
    fwd = _integrate(rhs, X_MAX, [rho_mid], [ev_hi], **kw)
    bwd = _integrate(rhs, -X_MAX, [rho_mid], [ev_lo], **kw)
    xs = np.concatenate([bwd.t[::-1], fwd.t[1:]])
    rho = np.concatenate([bwd.y[0, ::-1], fwd.y[0, 1:]])

    u1 = np.array([u1_of_rho(eos, r, q0, q1) for r in rho])
    states = [FluidState.from_rho_u1(eos, r, u) for r, u in zip(rho, u1)]
    w = np.array([s.cov for s in states])
    lyap = np.array([lyapunov_eval(s, eos, q0, q1) for s in states])

    # 1D linearizations at the rest densities: repelling at rho_minus,
    # attracting at rho_plus when the profile exists
    delta = 1e-6 * amp
    reports = []
    for label, r0 in (("minus", rm), ("plus", rp)):
        lam = (rho_prime(r0 + delta) - rho_prime(r0 - delta)) / (2 * delta)
        st0 = FluidState.from_rho_u1(eos, r0, u1_of_rho(eos, r0, q0, q1))
        reports.append(RestPointReport(
            label, st0, np.array([lam], dtype=complex),
            np.array([[1.0]])))

    # width of the layer: x-extent of the middle 90 percent of the jump
    q_lo, q_hi = rm + 0.05 * amp, rm + 0.95 * amp
    width = quad(lambda r: 1.0 / rho_prime(r), q_lo, q_hi, limit=200)[0]

    err = {
        "left": float(abs(rho[0] - rm)) / amp,
        "right": float(abs(rho[-1] - rp)) / amp,
    }
    return ProfileResult(
        "connected_monotone", shock, model,
        x=xs, w=w, rho=rho, u1=u1, lyap=lyap, rest_points=reports,
        endpoint_errors=err, width=float(width),
        n_steps=len(xs), arclength=float(np.abs(np.diff(rho)).sum()),
        settings=st)


def shoot_heteroclinic(shock, model, **overrides):
    """Saddle-separatrix shooting for the planar profile system.

    Shoots backward from just off the saddle at the downstream state
    when that state is a saddle, otherwise forward from the upstream
    saddle; with no saddle at either end no orbit can connect and the
    result is an immediate no_connection.  Terminal outcomes:

      * entering the tol_conn ball of the far state  -> connected
      * leaving the physical domain                  -> escaped_domain
      * det M(psi) below tol_det along the orbit     -> singular_matrix
      * arclength budget exhausted                   -> no_connection,
        unless the tail certifies a shrinking spiral around the target
        (three successive windings inside the TOL_SPIRAL ball), which
        counts as connected_oscillatory.
    """
    st = _default_settings(**overrides)
    eos = shock.eos
    q = np.array([shock.q0, shock.q1])
    wm = shock.state_minus.cov
    wp = shock.state_plus.cov
    amp = float(np.linalg.norm(wp - wm))
    rbar = shock.rho_bar
    rho_floor = 1e-10 * shock.rho_minus

    try:
        rp_minus = rest_point_classify("minus", shock.state_minus, model,
                                       eos, st["tol_det"])
        rp_plus = rest_point_classify("plus", shock.state_plus, model,
                                      eos, st["tol_det"])
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
    tol_det = st["tol_det"]

    tgt0, tgt1 = float(tgt[0]), float(tgt[1])
    nan3 = (math.nan,) * 3

    def rhs(x, y):
        if not -y[0] > abs(y[1]):
            # trial step outside the state space: poison the step so
            # the controller shrinks it, the cone event ends the orbit
            return nan3
        try:
            d0, d1 = planar_rhs(y[:2], shock, model, tol_det)
        except SingularMatrix as exc:
            exc.arclength = y[2]
            raise
        d0 *= direction
        d1 *= direction
        return d0, d1, math.hypot(d0, d1)

    def ev_conn(x, y):
        return math.hypot(y[0] - tgt0, y[1] - tgt1) - tol_conn
    ev_conn.terminal = True

    def ev_cone(x, y):
        return -y[0] - abs(y[1]) - 1e-12
    ev_cone.terminal = True

    def ev_rho(x, y):
        d = y[0] ** 2 - y[1] ** 2
        if d <= 0.0:
            return -1.0
        rho = eos.rho(d ** -0.5)
        return min(rbar - rho, rho - rho_floor)
    ev_rho.terminal = True

    def ev_arc(x, y):
        return y[2] - ARC_BUDGET * amp
    ev_arc.terminal = True

    y0 = np.array([src[0] + eps * v[0], src[1] + eps * v[1], 0.0])
    try:
        sol = _integrate(rhs, X_MAX, y0, [ev_conn, ev_cone, ev_rho, ev_arc],
                         st["method"], st["rtol"], st["atol"])
    except SingularMatrix as exc:
        return ProfileResult("singular_matrix", shock, model,
                             reason=str(exc), rest_points=reports,
                             arclength=exc.arclength, settings=st)

    hit = {name: len(te) > 0 for name, te in
           zip(("conn", "cone", "rho", "arc"), sol.t_events)}
    w_traj = sol.y[:2].T
    arclen = float(sol.y[2, -1]) if sol.y.shape[1] else 0.0

    def failed(cls, why):
        return ProfileResult(cls, shock, model, reason=why,
                             rest_points=reports, n_steps=sol.t.size,
                             arclength=arclen, settings=st)

    if sol.status < 0 and not any(hit.values()):
        # step size underflow: the integrator ground to a halt without
        # reaching any event.  Find out what it ran into.
        return failed(*_diagnose_stall(w_traj[-1], direction, model, eos, q,
                                       tol_det, rbar, rho_floor, amp))

    if hit["cone"] or hit["rho"]:
        return failed("escaped_domain", "orbit left the physical domain")

    spiral_target = bool(np.any(
        np.abs(tgt_rp.eigenvalues.imag)
        > st["tol_osc"] * np.abs(tgt_rp.eigenvalues)))

    if not hit["conn"]:
        if spiral_target and _spiral_certificate(w_traj, tgt, amp):
            return _assemble(shock, model, sol, direction, src_rp, tgt_rp,
                             reports, st, amp,
                             "connected_oscillatory",
                             reason="budget ended inside a shrinking "
                                    "spiral around the target")
        return failed("no_connection",
                      "arclength budget exhausted" if hit["arc"]
                      else f"integrator stopped (status {sol.status})")

    th = (w_traj[:, 0] ** 2 - w_traj[:, 1] ** 2) ** -0.5
    rho_traj = np.array([eos.rho(t) for t in th])
    cls = ("connected_oscillatory"
           if spiral_target or oscillation_detect(rho_traj)
           else "connected_monotone")
    return _assemble(shock, model, sol, direction, src_rp, tgt_rp,
                     reports, st, amp, cls)


def _diagnose_stall(w, direction, model, eos, q, tol_det, rbar, rho_floor,
                    amp):
    """Post-mortem for a step-size underflow.

    The integrator cannot cross the singular locus of M or the domain
    boundary: the derivative blows up and the step control underflows
    just short of it, so no event fires.  Probe a short ray along the
    orbit tangent: a sign change (or collapse) of det M certifies the
    singular locus; proximity to the light cone or to the admissible
    density interval certifies a domain escape.
    """
    psi0, psi1 = -w[0], w[1]
    scale = abs(psi0) + abs(psi1)
    if psi0 - abs(psi1) <= 1e-9 * scale:
        return "escaped_domain", "stalled at the light cone"
    state = FluidState(psi0, psi1)
    rho = eos.rho(state.theta)
    if rho >= rbar * (1.0 - 1e-9) or rho <= rho_floor * (1.0 + 1e-9):
        return "escaped_domain", "stalled at the admissible density bound"
    M = model.matrix(state)
    d0, _ = _det(M.ravel().tolist(), tol_det)
    tangent = direction * np.linalg.solve(M, flux(state, eos) - q)
    nt = np.linalg.norm(tangent)
    if nt > 0.0:
        tangent = tangent / nt
        for k in range(48):
            wk = w + tangent * (amp * 1e-9 * 2.0 ** k)
            if -wk[0] - abs(wk[1]) <= 0.0:
                break
            mk = model.entries(*FluidState(-wk[0], wk[1]).theta_u())
            dk, singular = _det(mk, tol_det)
            if dk * d0 < 0.0 or singular:
                return ("singular_matrix",
                        "orbit ran into the singular locus of the "
                        "profile matrix (det M changes sign ahead)")
    return "no_connection", "integrator stalled (step size underflow)"


def _spiral_certificate(w_traj, tgt, amp):
    """Budget ran out: accept only a documented shrinking spiral.

    Looks for at least three successive radius maxima (one per winding)
    that decrease and all sit inside TOL_SPIRAL * amplitude of the
    target.
    """
    r = np.linalg.norm(w_traj - tgt, axis=1)
    if r.size < 16 or r[-1] > TOL_SPIRAL * amp:
        return False
    inner = r < TOL_SPIRAL * amp
    peaks = [i for i in range(1, len(r) - 1)
             if inner[i] and r[i] >= r[i - 1] and r[i] >= r[i + 1]]
    if len(peaks) < 3:
        return False
    p3 = [r[i] for i in peaks[-3:]]
    return p3[0] > p3[1] > p3[2]


def _assemble(shock, model, sol, direction, src_rp, tgt_rp, reports,
              st, amp, cls, reason=""):
    """Order samples by physical x, center, and evaluate diagnostics."""
    eos = shock.eos
    x = direction * sol.t
    w = sol.y[:2].T
    if direction < 0.0:
        x = x[::-1]
        w = w[::-1]
    th = (w[:, 0] ** 2 - w[:, 1] ** 2) ** -0.5
    rho = np.array([eos.rho(t) for t in th])
    u1 = th * w[:, 1]
    states = [FluidState(-wi[0], wi[1]) for wi in w]
    lyap = np.array([lyapunov_eval(s, eos, shock.q0, shock.q1)
                     for s in states])

    # translation invariance: put the midpoint density crossing at x = 0
    rho_mid = 0.5 * (shock.rho_minus + shock.rho_plus)
    x = x - _first_crossing(x, rho, rho_mid)

    width = _width_of(x, rho, shock)
    err = {
        "left": float(np.linalg.norm(w[0] - shock.state_minus.cov)) / amp,
        "right": float(np.linalg.norm(w[-1] - shock.state_plus.cov)) / amp,
    }
    return ProfileResult(cls, shock, model, reason=reason, x=x, w=w,
                         rho=rho, u1=u1, lyap=lyap, rest_points=reports,
                         endpoint_errors=err, width=width,
                         n_steps=sol.t.size,
                         arclength=float(sol.y[2, -1]), settings=st)


def _first_crossing(x, rho, level):
    s = np.sign(rho - level)
    idx = np.nonzero(np.diff(s))[0]
    if idx.size == 0:
        return x[int(np.argmin(np.abs(rho - level)))]
    i = int(idx[0])
    r0, r1 = rho[i], rho[i + 1]
    if r1 == r0:
        return x[i]
    return x[i] + (level - r0) * (x[i + 1] - x[i]) / (r1 - r0)


def _width_of(x, rho, shock):
    amp = shock.rho_plus - shock.rho_minus
    lo = shock.rho_minus + 0.05 * amp
    hi = shock.rho_minus + 0.95 * amp
    return float(_first_crossing(x, rho, hi) - _first_crossing(x, rho, lo))
