"""Profile ODE: scalar quadrature, heteroclinic shooting, classification."""

import math

import numpy as np
import pytest
from scipy.integrate import RK45, solve_ivp
from scipy.integrate._ivp.common import norm
from scipy.integrate._ivp.rk import rk_step

from shockscan import (
    DomainError, FluidState, FtCoefficients, MonomialEos, SingularMatrix,
    flux, lyapunov_eval, make_model, oscillation_detect, planar_rhs,
    radiation_eos, rest_point_classify, rk45, scalar_profile_ft,
    shock_from_strength, shoot_heteroclinic,
)

from test_dissipation import bdn_matrix_symbolic

RAD = radiation_eos()


@pytest.fixture(scope="module")
def shock_rad():
    return shock_from_strength(RAD, 3.0, 0.5)


# ------------------------------------------------------- scalar reduction

def test_scalar_profile_monotone(shock_rad):
    res = scalar_profile_ft(shock_rad, FtCoefficients(1.0))
    assert res.classification == "connected_monotone"
    assert res.connected
    assert res.width > 0.0 and np.isfinite(res.width)
    assert np.all(np.diff(res.rho) > 0.0)
    assert np.all(np.diff(res.u1) < 0.0)
    dL = np.diff(res.lyap)
    assert np.all(dL > -1e-13 * np.abs(res.lyap).max())
    assert res.lyap[-1] > res.lyap[0]
    assert res.endpoint_errors["left"] < 2e-6
    assert res.endpoint_errors["right"] < 2e-6
    # centered: integration starts at the midpoint density, x = 0
    i0 = np.argmin(np.abs(res.x))
    mid = 0.5 * (shock_rad.rho_minus + shock_rad.rho_plus)
    assert abs(res.rho[i0] - mid) < 1e-9 * shock_rad.amplitude


def test_scalar_rest_reports(shock_rad):
    res = scalar_profile_ft(shock_rad, FtCoefficients(1.0))
    kinds = {rp.label: rp.kind for rp in res.rest_points}
    assert kinds == {"minus": "source", "plus": "sink"}


def test_scalar_width_grows_toward_sonic_limit():
    w_weak = scalar_profile_ft(shock_from_strength(RAD, 3.0, 0.05),
                               FtCoefficients(1.0)).width
    w_mid = scalar_profile_ft(shock_from_strength(RAD, 3.0, 0.5),
                              FtCoefficients(1.0)).width
    assert w_weak > 2.0 * w_mid


def test_scalar_width_frozen(shock_rad):
    res = scalar_profile_ft(shock_rad, FtCoefficients(1.0))
    assert res.width == pytest.approx(6.1462, rel=1e-3)


def test_scalar_rejects_heat_conduction(shock_rad):
    with pytest.raises(ValueError, match="chi"):
        scalar_profile_ft(shock_rad, FtCoefficients(1.0, 0.0, 0.5))


def test_scalar_power_law():
    sd = shock_from_strength(MonomialEos(1, 5), 1.0, 0.5)
    res = scalar_profile_ft(sd, FtCoefficients(1.0, 0.3))
    assert res.classification == "connected_monotone"
    assert np.all(np.diff(res.rho) > 0.0)


def test_scalar_csv_roundtrip(tmp_path, shock_rad):
    res = scalar_profile_ft(shock_rad, FtCoefficients(1.0))
    f = tmp_path / "profile.csv"
    res.to_csv(f)
    data = np.loadtxt(f, delimiter=",", skiprows=1)
    assert data.shape == (len(res.x), 6)
    assert np.array_equal(data[:, 0], res.x)      # %.17g is lossless
    assert np.array_equal(data[:, 3], res.rho)
    with open(f) as fh:
        assert fh.readline().strip() == "x,psi0,psi1,rho,u1,L"


def test_settings_validation(shock_rad):
    with pytest.raises(TypeError):
        scalar_profile_ft(shock_rad, FtCoefficients(1.0), frobnicate=3)
    # None overrides are ignored (CLI passes unset flags through)
    res = scalar_profile_ft(shock_rad, FtCoefficients(1.0), rtol=None)
    assert res.connected


# ------------------------------------------------------- shooting: FT heat

def test_heat_profile_monotone(shock_rad):
    m = make_model("ft-heat", RAD, eta=1.0, chi=0.5)
    res = shoot_heteroclinic(shock_rad, m)
    assert res.classification == "connected_monotone"
    kinds = {rp.label: rp.kind for rp in res.rest_points}
    assert kinds == {"minus": "source", "plus": "saddle"}
    dL = np.diff(res.lyap)
    assert np.all(dL > -1e-13 * np.abs(res.lyap).max())
    assert res.lyap[-1] > res.lyap[0]
    assert res.endpoint_errors["left"] < 2e-6
    assert res.endpoint_errors["right"] < 2e-6
    i0 = np.argmin(np.abs(res.x))
    mid = 0.5 * (shock_rad.rho_minus + shock_rad.rho_plus)
    assert abs(res.rho[i0] - mid) < 0.02 * shock_rad.amplitude
    # heat conduction widens the layer a little at these coefficients
    assert res.width == pytest.approx(6.2199, rel=1e-2)


# ------------------------------------------------------- shooting: BDN

def test_bdn_weak_shock_monotone():
    sd = shock_from_strength(RAD, 1.0, 0.05)
    m = make_model("bdn", RAD, eta=1.0, mu=4.0 / 3.0, nu=2.0)
    res = shoot_heteroclinic(sd, m)
    assert res.classification == "connected_monotone"
    kinds = {rp.label: rp.kind for rp in res.rest_points}
    assert kinds == {"minus": "saddle", "plus": "sink"}


def test_bdn_strong_shock_oscillatory():
    sd = shock_from_strength(RAD, 1.0, 0.9)
    m = make_model("bdn", RAD, eta=1.0, mu=4.0 / 3.0, nu=2.0)
    res = shoot_heteroclinic(sd, m)
    assert res.classification == "connected_oscillatory"
    kinds = {rp.label: rp.kind for rp in res.rest_points}
    assert kinds["minus"] == "saddle"
    assert kinds["plus"] == "spiral-sink"
    assert not np.all(np.diff(res.rho) > 0.0)


def test_bdn_singular_locus_witness():
    # large mu drags the singular set of det M into the orbit's path
    sd = shock_from_strength(RAD, 1.0, 0.98)
    m = make_model("bdn", RAD, eta=1.0, mu=30.0, nu=3.0)
    res = shoot_heteroclinic(sd, m)
    assert res.classification == "singular_matrix"
    assert "singular locus" in res.reason
    assert not res.connected
    with pytest.raises(ValueError):
        res.to_csv("/dev/null")


def test_bdn_acausal_no_saddle():
    sd = shock_from_strength(RAD, 1.0, 0.9)
    m = make_model("bdn", RAD, eta=1.0, mu=4.0 / 3.0, nu=8.0)
    res = shoot_heteroclinic(sd, m)
    assert res.classification == "no_connection"
    assert "no saddle" in res.reason


def test_result_summary_json(shock_rad):
    import json
    m = make_model("ft-heat", RAD, eta=1.0, chi=0.5)
    res = shoot_heteroclinic(shock_rad, m)
    d = json.loads(json.dumps(res.summary_dict()))
    assert d["classification"] == "connected_monotone"
    assert d["n_steps"] > 0
    assert len(d["rest_points"]) == 2
    assert d["settings"]["rtol"] == 1e-10


# ------------------------------------------------------- vector field

def test_planar_rhs_domain_error(shock_rad):
    m = make_model("ft-heat", RAD, eta=1.0, chi=0.5)
    with pytest.raises(DomainError):
        planar_rhs(np.array([-0.5, 0.6]), shock_rad, m)


def test_planar_rhs_singular_matrix(shock_rad):
    # BDN at rest with mu = 4 eta / 3: M = diag(-nu, 0), exactly singular
    m = make_model("bdn", RAD, eta=1.0, mu=4.0 / 3.0, nu=2.0)
    with pytest.raises(SingularMatrix) as exc:
        planar_rhs(np.array([-1.0, 0.0]), shock_rad, m)
    assert exc.value.detval < 1e-12
    assert exc.value.w[0] == -1.0


def test_planar_rhs_vanishes_at_end_states(shock_rad):
    m = make_model("ft-heat", RAD, eta=1.0, chi=0.5)
    for st in (shock_rad.state_minus, shock_rad.state_plus):
        r = planar_rhs(st.cov, shock_rad, m)
        assert np.abs(r).max() < 1e-8


def test_rest_point_classify_rejects_degenerate_matrix(shock_rad):
    # chi = 0 FT matrix is sigma theta Pi, rank one: no phase portrait
    m = make_model("ft-viscous", RAD, eta=1.0)
    with pytest.raises(SingularMatrix):
        rest_point_classify("minus", shock_rad.state_minus, m, RAD)


def mp_rest_eigenvalues(sympy, mpmath, state, eta, mu, nu):
    """Eigenvalues of M^-1 H1 at a radiation state, to 50 digits.

    M is the sympy port of the full BDN tensor and H1 the second
    derivatives d^2(ptilde psi^1)/dpsi_a dpsi_c of ptilde = theta^4/3,
    both evaluated at the exact binary value of the float state."""
    M, (e, m, n, b) = bdn_matrix_symbolic(sympy)
    w = sympy.symbols("w0 w1", real=True)
    theta = (w[0] ** 2 - w[1] ** 2) ** sympy.Rational(-1, 2)
    at = {w[0]: sympy.Rational(-state.psi0), w[1]: sympy.Rational(state.psi1)}
    H1 = sympy.Matrix(2, 2, lambda a, c: sympy.diff(
        theta ** 4 / 3 * w[1], w[a], w[c])).subs(at)
    M = M.subs({e: eta, m: mu, n: nu, b: (theta * w[1]).subs(at)})
    with mpmath.workdps(50):
        A = (mpmath.matrix(M.evalf(60).tolist())
             ** -1 * mpmath.matrix(H1.evalf(60).tolist()))
        tr, det = A[0, 0] + A[1, 1], A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        root = mpmath.sqrt(tr * tr - 4 * det)
        return sorted([(tr - root) / 2, (tr + root) / 2],
                      key=lambda z: mpmath.re(z))


@pytest.mark.parametrize("s", [0.95, 0.99])
def test_rest_point_eigenvalues_match_mpmath(s):
    # BDN (1, 30, 3), q1 = 1, upstream state: det M cancels by a factor
    # of 1e7 to 1e9 here, so a solve through det M (Cramer's rule) loses
    # digits of the small eigenvalue
    sympy = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    st = shock_from_strength(RAD, 1.0, s).state_minus
    model = make_model("bdn", RAD, eta=1.0, mu=30.0, nu=3.0)
    got = sorted(rest_point_classify("minus", st, model, RAD).eigenvalues,
                 key=lambda z: z.real)
    want = mp_rest_eigenvalues(sympy, mpmath, st, 1, 30, 3)
    for g, x in zip(got, want):
        x = complex(x)
        assert abs(g - x) <= 1e-7 * abs(x), (s, g, x)


# ------------------------------------------------------- Lyapunov function

def test_lyapunov_gradient_is_flux_excess(shock_rad):
    rng = np.random.default_rng(17)
    q0, q1 = shock_rad.q0, shock_rad.q1
    h = 1e-6
    for _ in range(50):
        v = rng.uniform(-0.9, 0.9)
        t = rng.uniform(0.6, 1.8)
        u0 = 1.0 / np.sqrt(1.0 - v * v)
        st = FluidState(u0 / t, v * u0 / t)
        g = flux(st, RAD) - [q0, q1]
        w = st.cov
        fd = np.zeros(2)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd[j] = (lyapunov_eval(FluidState.from_cov(w + e), RAD, q0, q1)
                     - lyapunov_eval(FluidState.from_cov(w - e), RAD, q0, q1)
                     ) / (2 * h)
        assert np.abs(g - fd).max() <= 1e-6 * max(1.0, np.abs(g).max())


def test_lyapunov_at_rest_state():
    # at psi = (1, 0): L = q0 regardless of the EOS
    assert lyapunov_eval(FluidState(1.0, 0.0), RAD, 2.5, 1.0) == pytest.approx(
        2.5, rel=1e-15)


# ------------------------------------------------------- helpers

def test_oscillation_detect():
    assert not oscillation_detect(np.linspace(0.0, 1.0, 50))
    x = np.linspace(0.0, 20.0, 200)
    assert oscillation_detect(1.0 - np.exp(-x) * np.cos(3 * x))
    assert not oscillation_detect(np.array([1.0]))


# ------------------------------------------------------- RK45 stepper
# rk45.integrate against scipy's RK45, the scheme it copies

def scipy_rk45(fun, t_bound, y0, events, rtol, atol):
    """rk45.integrate's contract, run by solve_ivp(method="RK45")."""
    return solve_ivp(lambda t, y: fun(t, y.tolist()), (0.0, t_bound), y0,
                     method="RK45", events=events, rtol=rtol, atol=atol)


def test_rk45_step_matches_scipy(shock_rad):
    m = make_model("ft-heat", RAD, eta=1.0, chi=0.5)

    def fun(t, y):
        return planar_rhs(y, shock_rad, m)

    rtol, atol = 1e-10, 1e-12
    w = 0.5 * (shock_rad.state_minus.cov + shock_rad.state_plus.cov)
    w[1] += 0.1
    y = w.tolist()
    f = fun(0.0, y)
    for h in (1e-3, 1e-2, -0.05):
        y_new, f_new, K = rk45._rk_step(fun, 0.3, y, f, h)
        err = rk45._error_norm(K, h, y, y_new, rtol, atol)
        Kr = np.empty((RK45.n_stages + 1, 2))
        yr, fr = rk_step(lambda t, v: np.array(fun(t, v.tolist())), 0.3,
                         np.array(y), np.array(f), h, RK45.A, RK45.B,
                         RK45.C, Kr)
        # relative to the largest entry (max norm)
        for got, want in ((y_new, yr), (f_new, fr), (K, Kr)):
            gap = np.abs(np.asarray(got) - want).max()
            assert gap <= 1e-14 * np.abs(want).max(), h
        # the error estimate sums terms that nearly cancel (E sums to
        # 0), so it is compared relative to the size of those terms
        scale = atol + np.maximum(np.abs(y), np.abs(yr)) * rtol
        err_ref = norm(np.dot(Kr.T, RK45.E) * h / scale)
        terms = norm(np.dot(np.abs(Kr.T), np.abs(RK45.E)) * abs(h) / scale)
        assert 0.0 < err and abs(err - err_ref) <= 1e-14 * terms, h


@pytest.mark.parametrize("s", [0.05, 0.3, 0.6, 0.98])
def test_rk45_bdn_shot_matches_scipy(s, monkeypatch):
    # same steps as solve_ivp: classification and n_steps exact, orbit
    # ends and arclength equal up to roundoff in the stage sums
    sd = shock_from_strength(RAD, 1.0, s)
    m = make_model("bdn", RAD, eta=1.0, mu=4.0 / 3.0, nu=4.0)
    got = shoot_heteroclinic(sd, m)
    monkeypatch.setattr(rk45, "integrate", scipy_rk45)
    want = shoot_heteroclinic(sd, m)
    assert got.classification == want.classification
    assert got.connected
    assert got.n_steps == want.n_steps
    for i in (0, -1):
        assert np.allclose(got.w[i], want.w[i], rtol=1e-12, atol=1e-12)
    assert got.arclength == pytest.approx(want.arclength, rel=1e-12)


def test_rk45_backward_scalar_run_matches_scipy(shock_rad, monkeypatch):
    # the x < 0 half of the viscous profile is integrated backward
    got = scalar_profile_ft(shock_rad, FtCoefficients(1.0))
    monkeypatch.setattr(rk45, "integrate", scipy_rk45)
    want = scalar_profile_ft(shock_rad, FtCoefficients(1.0))
    assert got.n_steps == want.n_steps
    assert np.sum(got.x < 0.0) == np.sum(want.x < 0.0) > 10
    # the end samples sit on the event densities; in between, step
    # sizes follow the error estimate, whose roundoff is relative to
    # terms that nearly cancel, so the sample positions agree less
    # closely than the ends
    for i in (0, -1):
        assert got.rho[i] == pytest.approx(want.rho[i], rel=1e-12)
    assert np.allclose(got.x, want.x, rtol=1e-6, atol=0.0)


def _nan_past_one(t, y):
    # a vector field defined only for y < 1, poisoned outside
    return (1.0,) if y[0] < 1.0 else (math.nan,)


def test_rk45_rejects_nan_trial_step():
    poisoned = []

    def fun(t, y):
        f = _nan_past_one(t, y)
        if math.isnan(f[0]):
            poisoned.append(t)
        return f

    def ev(t, y):
        return y[0] - 0.999
    ev.terminal = True
    sol = rk45.integrate(fun, 10.0, [0.0], [ev], 1e-10, 1e-12)
    ref = scipy_rk45(_nan_past_one, 10.0, [0.0], [ev], 1e-10, 1e-12)
    # trial steps crossed y = 1 and were rejected and shrunk: every
    # accepted sample is finite and inside the domain
    assert poisoned
    assert np.all(np.isfinite(sol.y)) and np.all(sol.y < 1.0)
    assert sol.status == ref.status == 1
    assert sol.t_events[0] == pytest.approx([0.999], rel=1e-14)
    assert sol.t.size == ref.t.size
    assert np.allclose(sol.t, ref.t, rtol=1e-14, atol=0.0)


def test_rk45_status_codes():
    # -1: the step size underflows just short of the poisoned region
    sol = rk45.integrate(_nan_past_one, 10.0, [0.0], [], 1e-10, 1e-12)
    ref = scipy_rk45(_nan_past_one, 10.0, [0.0], [], 1e-10, 1e-12)
    assert sol.status == ref.status == -1
    assert sol.t.size == ref.t.size
    assert 1.0 - 1e-12 < sol.y[0, -1] < 1.0
    # 0: a backward run reaches t_bound with no event
    sol = rk45.integrate(lambda t, y: [-y[0]], -3.0, [1.0], [], 1e-10, 1e-12)
    ref = scipy_rk45(lambda t, y: [-y[0]], -3.0, [1.0], [], 1e-10, 1e-12)
    assert sol.status == ref.status == 0
    assert sol.t[-1] == -3.0 and sol.t.size == ref.t.size
    assert sol.y[0, -1] == pytest.approx(math.exp(3.0), rel=1e-8)


@pytest.mark.parametrize("fun, y0, tol", [
    (lambda t, y: [1.0], 0.0, (1e-10, 1e-12)),       # h0 = 1e-6
    (lambda t, y: [1e3], 1.0, (1e-3, 1e-6)),         # 100 h0
    (lambda t, y: [-y[0]], 1.0, (1e-10, 1e-12)),     # from the curvature
], ids=["from-zero", "hundred-h0", "curvature"])
def test_rk45_initial_step_matches_scipy(fun, y0, tol):
    # each branch of the initial step selection
    sol = rk45.integrate(fun, 1.0, [y0], [], *tol)
    ref = scipy_rk45(fun, 1.0, [y0], [], *tol)
    assert sol.t[1] == pytest.approx(ref.t[1], rel=1e-15, abs=0.0)


@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_rk45_earliest_terminal_event_wins(direction):
    # steps grow tenfold on a constant field, so one step crosses both
    # levels; the later-listed event has the earlier root
    def far(t, y):
        return y[0] - 0.5 * direction
    far.terminal = True

    def near(t, y):
        return y[0] - 0.4 * direction
    near.terminal = True

    def fun(t, y):
        return [1.0]
    sol = rk45.integrate(fun, 10.0 * direction, [0.0], [far, near],
                         1e-10, 1e-12)
    ref = scipy_rk45(fun, 10.0 * direction, [0.0], [far, near],
                     1e-10, 1e-12)
    assert sol.status == ref.status == 1
    assert [len(te) for te in sol.t_events] == [0, 1]
    assert [len(te) for te in ref.t_events] == [0, 1]
    assert sol.t[-1] == sol.t_events[1][0] == pytest.approx(0.4 * direction)
    assert sol.t.size == ref.t.size


def test_rk45_events_must_be_terminal():
    def ev(t, y):
        return y[0]
    with pytest.raises(ValueError, match="terminal"):
        rk45.integrate(lambda t, y: [1.0], 1.0, [0.0], [ev], 1e-6, 1e-9)
