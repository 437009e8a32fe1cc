"""Profile ODE: scalar quadrature, heteroclinic shooting, classification."""

import math
import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import LSODA, RK45, quad, solve_ivp
from scipy.optimize import brentq
from scipy.integrate._ivp import common as ivp_common, rk as ivp_rk
from scipy.integrate._ivp.common import norm
from scipy.integrate._ivp.rk import rk_step

from shockscan import (
    BdnCoefficients, FluidState, FtCoefficients, MonomialEos,
    SingularMatrix, RestPointReport, compute_profile, flux, ft_coefficients,
    lyapunov_eval, make_model, oscillation_detect, parse_eos_expression,
    planar_rhs, profile_dynamics, radiation_eos, rest_point_classify, rk45,
    run_scan, scalar_profile_ft, shock_from_strength, shoot_heteroclinic,
    stress_hessian, u1_of_rho,
)
from shockscan.dissipation import bdn_entries

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


def test_scalar_R_is_the_jump_function_excess():
    # R = q1 - p - (rho + p) u1^2 with u1^2 = q0^2 / ((rho+q1)^2 - q0^2)
    # equals (rho + q1) (g - r) / ((rho + q1)^2 - q0^2): R vanishes
    # exactly at the end states and has the sign of g - r between them
    sympy = pytest.importorskip("sympy")
    rho, p, q0, q1 = sympy.symbols("rho p q0 q1", positive=True)
    den = (rho + q1) ** 2 - q0 ** 2
    R = q1 - p - (rho + p) * q0 ** 2 / den
    g, r = -rho * p + q1 * (rho - p), q0 ** 2 - q1 ** 2
    assert sympy.simplify(R - (rho + q1) * (g - r) / den) == 0


@pytest.mark.filterwarnings("ignore:genuine nonlinearity fails")
def test_scalar_refuses_R_sign_change():
    # a cs^2 that falls steeply with theta makes g bimodal; at q1 = 1.3,
    # s = 0.9 it dips below r between 9.5% and 12% of the jump, where
    # R has two zeros the quadrature could not cross
    eos = parse_eos_expression("p(theta) = theta^3 + theta^40")
    sd = shock_from_strength(eos, 1.3, 0.9)
    res = scalar_profile_ft(sd, FtCoefficients(1.0))
    assert res.classification == "no_connection"
    assert res.reason == "R changes sign between the end states"
    assert res.n_steps == 0 and res.x is None


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
    # fixed tolerances are no longer settings
    with pytest.raises(TypeError, match="unknown solver setting 'tol_det'"):
        scalar_profile_ft(shock_rad, FtCoefficients(1.0), tol_det=1e-9)
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


def _plus_discriminant(s, nu):
    # tr^2 - 4 det of M^-1 H1 at the downstream rest point of BDN on
    # the floor mu = 4 eta / 3 (eta = 1, q1 = 1): below 0 it is a spiral
    st = shock_from_strength(RAD, 1.0, s).state_plus
    M = bdn_entries(BdnCoefficients(1.0, 4.0 / 3.0, nu))(*st.theta_u())
    _, k001, k011, k111 = stress_hessian(st, RAD)
    A = np.linalg.solve(np.reshape(M, (2, 2)), [[k001, k011], [k011, k111]])
    return np.trace(A) ** 2 - 4.0 * np.linalg.det(A)


@pytest.mark.parametrize("nu, s_star", [
    (1.0, 16.0 / 49.0), (2.0, 3.0 - 2.0 * math.sqrt(2.0)), (4.0, 4.0 / 49.0),
], ids=["nu=1", "nu=2", "nu=4"])
def test_bdn_floor_spiral_onset_closed_form(nu, s_star):
    # the downstream rest point turns into a spiral at one strength, in
    # closed form; the scan is monotone just below it, oscillatory above
    grid = np.linspace(0.001, 0.999, 200).tolist()
    d = [_plus_discriminant(s, nu) for s in grid]
    roots = [brentq(_plus_discriminant, a, b, args=(nu,), xtol=1e-16,
                    rtol=8.9e-16)
             for a, b, da, db in zip(grid, grid[1:], d, d[1:])
             if da * db <= 0.0]
    assert len(roots) == 1
    assert abs(roots[0] - s_star) < 1e-12
    assert d[0] > 0.0 > d[-1]
    res = run_scan("radiation", "bdn", {"eta": 1.0, "mu": 4.0 / 3.0,
                                        "nu": nu},
                   [1.0], [s_star - 0.01, s_star + 0.01])
    assert [r.classification for r in res.records] == [
        "connected_monotone", "connected_oscillatory"]


@pytest.mark.parametrize("ds", [1e-14, 1e-13])
def test_spiral_just_past_the_floor_onset_is_oscillatory(ds):
    # just above s* = 4/49 the target is a spiral sink whose eigenvalues
    # have |Im| / |lambda| of order 1e-7; the shot's spiral flag is the
    # target's kind, so the point is oscillatory
    sd = shock_from_strength(RAD, 1.0, 4.0 / 49.0 + ds)
    m = make_model("bdn", RAD, eta=1.0, mu=4.0 / 3.0, nu=4.0)
    res = shoot_heteroclinic(sd, m)
    lam = res.rest_points[1].eigenvalues
    assert np.abs(lam.imag / np.abs(lam)).max() < 1e-6
    assert [rp.kind for rp in res.rest_points] == ["saddle", "spiral-sink"]
    assert res.classification == "connected_oscillatory"


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


# ------------------------------------------------------- failure reasons
# Each failure branch of shoot_heteroclinic, produced by a small input.

def test_singular_matrix_at_a_rest_point():
    # ft-viscous: M = sigma theta Pi has rank one.  compute_profile
    # takes it to the scalar reduction; a shot meets the singular M at
    # the rest points
    sd = shock_from_strength(RAD, 1.0, 0.5)
    m = make_model("ft-viscous", RAD, eta=1.0, zeta=1.0)
    res = shoot_heteroclinic(sd, m)
    assert res.classification == "singular_matrix"
    assert res.reason.startswith("profile matrix singular at w = (")
    assert res.rest_points == [] and res.n_steps == 0


def test_singular_matrix_inside_the_integration(monkeypatch):
    # planar_rhs is NaN on the singular locus, so no step reaches it:
    # the run stalls short of it under either method, the post-mortem
    # names it, and the shot reports the accepted orbit
    runs, integrate = [], rk45.integrate

    def recorded(*args, **kw):
        runs.append(integrate(*args, **kw))
        return runs[-1]
    monkeypatch.setattr(rk45, "integrate", recorded)
    sd = shock_from_strength(RAD, 0.1, 0.5)
    m = make_model("bdn", RAD, eta=1.0, mu=10.0, nu=100.0)
    for method in rk45.METHODS:
        res = shoot_heteroclinic(sd, m, method=method)
        sol = runs[-1]
        assert sol.status == -1 and sol.event is None
        assert res.classification == "singular_matrix"
        assert res.reason == ("orbit ran into the singular locus of the "
                              "profile matrix (det M changes sign ahead)")
        assert [rp.kind for rp in res.rest_points] == ["sink", "saddle"]
        assert res.n_steps == sol.t.size > 0
        assert res.arclength == sol.y[0, -1] > 0.0


@pytest.mark.parametrize("name, value, reason", [
    ("ARC_BUDGET", 0.5, "arclength budget exhausted"),
    ("X_MAX", 1.0, "integrator stopped (status 0)"),
], ids=["arclength", "horizon"])
def test_shot_ends_short_of_the_target(monkeypatch, name, value, reason):
    # the arclength event and the x horizon, each set short of an orbit
    # that connects under the defaults
    monkeypatch.setattr(profile_dynamics, name, value)
    sd = shock_from_strength(RAD, 1.0, 0.5)
    m = make_model("bdn", RAD, eta=1.0, mu=4.0 / 3.0, nu=4.0)
    res = shoot_heteroclinic(sd, m)
    assert res.classification == "no_connection"
    assert res.reason == reason
    assert res.n_steps > 0 and res.x is None


def test_escaped_domain():
    # acausal BDN (mu < 4 eta / 3): the orbit off the upstream saddle
    # runs up to rho_bar, where the density event ends it
    sd = shock_from_strength(RAD, 1.0, 0.95)
    m = make_model("bdn", RAD, eta=1.0, mu=0.1, nu=20.0)
    res = shoot_heteroclinic(sd, m)
    assert res.classification == "escaped_domain"
    assert res.reason == "orbit left the physical domain"
    assert [rp.kind for rp in res.rest_points] == ["saddle", "spiral-sink"]
    assert res.n_steps > 0 and res.x is None


def test_stall_diagnosis():
    # the post-mortem of a step-size underflow, on hand-placed states.
    # A stall names what stopped it, and never escaped_domain, which
    # only the density event reports: next to the light cone det M
    # collapses and the tangent is NaN; at rho_bar, and mid-shock on the
    # floor mu = 4 eta / 3, det M keeps its sign along the probe ray
    sd = shock_from_strength(RAD, 1.0, 0.5)
    m = make_model("bdn", RAD, eta=1.0, mu=4.0 / 3.0, nu=2.0)
    amp = float(np.linalg.norm(sd.state_plus.cov - sd.state_minus.cov))
    diagnose = profile_dynamics._diagnose_stall
    singular_locus = ("singular_matrix", "orbit ran into the singular "
                      "locus of the profile matrix (det M changes sign "
                      "ahead)")
    stalled = ("no_connection", "integrator stalled (step size underflow)")
    assert diagnose(np.array([-1.0, 1.0 - 1e-12]), 1.0, sd, m,
                    amp) == singular_locus
    at_bar = FluidState.from_rho_u1(RAD, sd.rho_bar, 0.3).cov
    assert diagnose(at_bar, 1.0, sd, m, amp) == stalled
    mid = 0.5 * (sd.rho_minus + sd.rho_plus)
    w = FluidState.from_rho_u1(RAD, mid, u1_of_rho(mid, sd.q0, sd.q1))
    assert diagnose(w.cov, 1.0, sd, m, amp) == stalled
    # where M itself is singular, planar_rhs gives no tangent to probe
    rank_one = make_model("ft-viscous", RAD, eta=1.0)
    assert diagnose(w.cov, 1.0, sd, rank_one, amp) == singular_locus
    # near where test_singular_matrix_inside_the_integration's RK45 shot
    # (direction -1) stalls, the tangent is finite, and det M changes
    # sign on the probe ray ahead of the orbit but not behind it
    sd = shock_from_strength(RAD, 0.1, 0.5)
    m = make_model("bdn", RAD, eta=1.0, mu=10.0, nu=100.0)
    amp = float(np.linalg.norm(sd.state_plus.cov - sd.state_minus.cov))
    w = np.array([-2.599, 1.7987])
    assert not np.isnan(profile_dynamics.planar_rhs(w, sd, m)).any()
    assert diagnose(w, -1.0, sd, m, amp) == singular_locus
    assert diagnose(w, 1.0, sd, m, amp) == stalled


def test_compute_profile_refuses_a_model_of_another_eos():
    # a bdn model is bound to radiation; a power-law:5 shock is not its
    # fluid, and mixing the two physics is refused, not answered
    sd = shock_from_strength(MonomialEos(1, 5), 1.0, 0.3)
    m = make_model("bdn", RAD, eta=1.0, mu=2.0, nu=2.0)
    with pytest.raises(ValueError, match="model is bound to EOS "
                                         "'radiation', the shock to EOS "
                                         "'power-law:5'"):
        compute_profile(sd, m)
    # an equal EOS built apart is the same fluid
    m = make_model("bdn", parse_eos_expression("p(theta) = 1/3*theta^4"),
                   eta=1.0, mu=2.0, nu=2.0)
    assert compute_profile(shock_from_strength(RAD, 1.0, 0.3), m).connected


def test_shot_refuses_a_model_of_another_eos():
    sd = shock_from_strength(MonomialEos(1, 5), 1.0, 0.3)
    m = make_model("ft-heat", RAD, eta=1.0, chi=0.5)
    with pytest.raises(ValueError, match="model is bound to EOS"):
        shoot_heteroclinic(sd, m)


def test_spiral_source_rest_point():
    sd = shock_from_strength(RAD, 0.1, 0.05)
    m = make_model("eckart", RAD, eta=0.1, chi=1.0)
    res = shoot_heteroclinic(sd, m)
    kinds = {rp.label: rp.kind for rp in res.rest_points}
    assert kinds == {"minus": "spiral-source", "plus": "saddle"}
    assert res.classification == "connected_oscillatory"
    assert res.reason == ""


def test_rest_point_kinds():
    kind = RestPointReport._classify
    assert kind(np.array([0.0, 0.0])) == "degenerate"
    assert kind(np.array([0.0, 1.0])) == "degenerate"
    assert kind(np.array([1j, -1j])) == "degenerate"
    assert kind(np.array([1 + 1j, 1 - 1j])) == "spiral-source"
    assert kind(np.array([-1 + 1j, -1 - 1j])) == "spiral-sink"
    assert kind(np.array([-1.0, 2.0])) == "saddle"
    assert kind(np.array([1.0, 2.0])) == "source"
    assert kind(np.array([-1.0, -2.0])) == "sink"


# ------------------------------------------------------- width

BDN_SHARP = dict(eta=1.0, mu=4.0 / 3.0, nu=4.0)


def test_level_crossing_is_exact_on_cubics():
    # the Hermite interpolant of a cubic is the cubic, so a crossing
    # between samples 0.5 apart comes out at the cubic's root, where
    # the chord would miss it by 0.04
    x = np.linspace(0.0, 2.0, 5)
    y = x ** 3 + x
    slope = dict(zip(y.tolist(), (3.0 * x ** 2 + 1.0).tolist()))
    unit = SimpleNamespace(rho_minus=0.0, amplitude=1.0)

    def crossing(level):
        return profile_dynamics.level_crossing(
            x, y, level, unit, y[:, None], lambda s: s[0],
            lambda s: (slope[s[0]],))

    assert crossing(3.0) == pytest.approx(
        brentq(lambda t: t ** 3 + t - 3.0, 1.0, 1.5), abs=1e-13)
    assert crossing(y[3]) == x[3]            # a sample on the level
    assert crossing(20.0) is None            # never reached


def test_shot_width_none_without_crossing():
    # at tol_conn 0.06 the shot ends at rho 1.32, short of the 95% level
    # 1.636: no width, though the midpoint still centres x.  At 0.3 it
    # ends short of the midpoint too, and x stays as integrated.
    shock = shock_from_strength(RAD, 1.0, 0.5)
    model = make_model("bdn", RAD, **BDN_SHARP)
    res = shoot_heteroclinic(shock, model, tol_conn=0.06)
    assert res.connected and res.width is None
    assert res.rho[-1] < shock.rho_minus + 0.95 * shock.amplitude
    assert res.x[0] < 0.0 < res.x[-1]
    res = shoot_heteroclinic(shock, model, tol_conn=0.3)
    assert res.connected and res.width is None
    assert res.rho.max() < shock.rho_minus + 0.5 * shock.amplitude
    assert res.x[0] == 0.0


def test_scalar_width_none_without_crossing():
    # the quadrature stops at 6% of the jump, short of the 5% level
    shock = shock_from_strength(RAD, 1.0, 0.5)
    res = scalar_profile_ft(shock, FtCoefficients(1.0), tol_conn=0.06)
    assert res.connected and res.width is None
    assert res.rho[0] > shock.rho_minus + 0.05 * shock.amplitude


def _ft_rho_prime(shock, co, rho):
    q0, q1 = shock.q0, shock.q1
    u1 = u1_of_rho(rho, q0, q1)
    ph = RAD.p_hat(rho)
    sig = ft_coefficients(FluidState.from_rho_u1(RAD, rho, u1).theta,
                          RAD, co)
    R = q1 - ph - (rho + ph) * u1 * u1
    return R * q0 ** 2 / (sig * (rho + q1) * u1 ** 3)


@pytest.mark.parametrize("q1, s", [(3.0, 0.5), (1.0, 0.01), (1.0, 0.9)])
def test_scalar_width_matches_quadrature(q1, s):
    # width = integral of dx/drho over the middle 90% of the jump
    shock = shock_from_strength(RAD, q1, s)
    co = FtCoefficients(1.0)
    res = scalar_profile_ft(shock, co)
    lo, amp = shock.rho_minus, shock.amplitude
    want = quad(lambda r: 1.0 / _ft_rho_prime(shock, co, r),
                lo + 0.05 * amp, lo + 0.95 * amp, limit=200,
                epsabs=0.0, epsrel=1e-12)[0]
    assert res.width == pytest.approx(want, rel=1e-7)


def _dense_reference_width(res, shock, model):
    """5-95% width of the shot's orbit re-integrated along x from its
    source-side sample by DOP853 at rtol 1e-13, with the crossings found
    by scipy's brentq on the dense output."""
    backward = res.rest_points[1].is_saddle
    xs, xe = (res.x[-1], res.x[0]) if backward else (res.x[0], res.x[-1])
    sol = solve_ivp(lambda x, y: planar_rhs(y, shock, model), (xs, xe),
                    res.w[-1 if backward else 0], method="DOP853",
                    rtol=1e-13, atol=1e-15, dense_output=True)
    steps = np.sort(sol.t)

    def rho(x):
        w = sol.sol(x)
        return RAD.rho((w[0] ** 2 - w[1] ** 2) ** -0.5)

    def crossing(frac):
        level = shock.rho_minus + frac * shock.amplitude
        r = np.array([rho(x) for x in steps]) - level
        i = int(np.flatnonzero(np.diff(np.sign(r)))[0])
        return brentq(lambda x: rho(x) - level, steps[i], steps[i + 1],
                      xtol=1e-14)

    return crossing(0.95) - crossing(0.05)


@pytest.mark.parametrize("tag, co, q1, s, kw", [
    ("bdn", BDN_SHARP, 1.0, 0.843, {}),
    ("bdn", BDN_SHARP, 1.0, 0.95, {}),
    ("ft-heat", dict(eta=1.0, chi=0.5), 3.0, 0.5, {}),
    ("ft-heat", dict(eta=1.0, chi=0.5), 3.0, 0.5,
     dict(method="LSODA", rtol=1e-9, atol=1e-11)),
], ids=["bdn-0.843", "bdn-0.95", "ft-heat", "ft-heat-lsoda"])
def test_shot_width_matches_dense_reference(tag, co, q1, s, kw):
    # the chords between samples were 1.05e-3 too wide at bdn s = 0.843
    shock = shock_from_strength(RAD, q1, s)
    model = make_model(tag, RAD, **co)
    res = shoot_heteroclinic(shock, model, **kw)
    want = _dense_reference_width(res, shock, model)
    assert res.width == pytest.approx(want, rel=1e-6)
    if s == 0.95:
        assert want == pytest.approx(24.09029, abs=5e-6)


def _burgers_width(shock, model):
    """The weak-shock limit of the 5-95% width: projected onto the null
    vector r of H1 at the midpoint of the end states, the profile system
    is Burgers' equation, whose tanh profile has width
    4 atanh(0.9) / (|c| eps), with c = D_r(r.H1 r) / (2 r.M r) and
    eps = |r.(w+ - w-)|."""
    wm, wp = shock.state_minus.cov, shock.state_plus.cov
    mid = 0.5 * (wm + wp)

    def h1(w):
        _, k001, k011, k111 = stress_hessian(FluidState(-w[0], w[1]), RAD)
        return np.array([[k001, k011], [k011, k111]])

    lam, vec = np.linalg.eigh(h1(mid))
    r = vec[:, int(np.argmin(np.abs(lam)))]
    h = 1e-4 * np.linalg.norm(mid)
    d_r = (r @ h1(mid + h * r) @ r - r @ h1(mid - h * r) @ r) / (2.0 * h)
    c = 0.5 * d_r / (r @ model.matrix(FluidState(-mid[0], mid[1])) @ r)
    return 4.0 * math.atanh(0.9) / (abs(c) * abs(r @ (wp - wm)))


@pytest.mark.parametrize("tag, co", [("ft-viscous", dict(eta=1.0)),
                                     ("bdn", BDN_SHARP)],
                         ids=["ft-viscous", "bdn"])
@pytest.mark.parametrize("s", [0.003, 0.01, 0.03])
def test_weak_shock_width_tends_to_burgers(tag, co, s):
    # measured: (1 - width/pred)/s is 2.37-2.38 for ft-viscous and
    # 2.60-2.63 for bdn at these strengths
    shock = shock_from_strength(RAD, 1.0, s)
    model = make_model(tag, RAD, **co)
    res = compute_profile(shock, model)
    assert res.classification == "connected_monotone"
    assert abs(res.width / _burgers_width(shock, model) - 1.0) <= 3.0 * s


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
    # outside psi0 > |psi1| the field is undefined: NaN, not a raise
    m = make_model("ft-heat", RAD, eta=1.0, chi=0.5)
    for w in ([-0.5, 0.6], [-0.5, -0.5], [0.5, 0.1]):
        assert all(map(math.isnan, planar_rhs(np.array(w), shock_rad, m)))


def test_planar_rhs_singular_matrix(shock_rad):
    # BDN at rest with mu = 4 eta / 3: M = diag(-nu, 0), exactly
    # singular, and the field there is NaN
    m = make_model("bdn", RAD, eta=1.0, mu=4.0 / 3.0, nu=2.0)
    entries = m.entries(*FluidState(1.0, 0.0).theta_u())
    assert profile_dynamics._det(entries) == (0.0, True)
    assert all(map(math.isnan, planar_rhs(np.array([-1.0, 0.0]),
                                          shock_rad, m)))


def test_planar_rhs_vanishes_at_end_states(shock_rad):
    m = make_model("ft-heat", RAD, eta=1.0, chi=0.5)
    for st in (shock_rad.state_minus, shock_rad.state_plus):
        r = planar_rhs(st.cov, shock_rad, m)
        assert np.abs(r).max() < 1e-8


def test_rest_point_classify_rejects_degenerate_matrix(shock_rad):
    # chi = 0 FT matrix is sigma theta Pi, rank one: no phase portrait
    m = make_model("ft-viscous", RAD, eta=1.0)
    with pytest.raises(SingularMatrix):
        rest_point_classify("minus", shock_rad.state_minus, m)


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
    got = sorted(rest_point_classify("minus", st, model).eigenvalues,
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
        g = np.subtract(flux(st.theta, st.psi0, st.psi1, RAD), [q0, q1])
        w = st.cov
        fd = np.zeros(2)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            up = FluidState(-(w + e)[0], (w + e)[1])
            dn = FluidState(-(w - e)[0], (w - e)[1])
            fd[j] = (lyapunov_eval(up, RAD, q0, q1)
                     - lyapunov_eval(dn, RAD, q0, q1)) / (2 * h)
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
# rk45.integrate against solve_ivp: RK45 copies scipy's scheme, every
# other method steps scipy's own solver

def solve_ivp_oracle(fun, t_bound, y0, events, rtol, atol, method="RK45",
                     args=(), arclength=False):
    """rk45.integrate's contract, run by solve_ivp: the tuple events
    returns split into one terminal event per component, so that
    solve_ivp ends the run on each of them.  With `arclength` the
    leading component's derivative is sign(t_bound) |fun(y[1:], *args)|,
    it gets the absolute tolerance rk45.QUADRATURE_ATOL, and the RMS
    norm of scipy's RK45 (of its error estimate and of its initial step
    selection) runs over the others only, while the run lasts."""
    def terminal(i):
        def g(t, y):
            return events(t, y)[i]
        g.terminal = True
        return g
    n = len(events(0.0, y0))
    q = 1 if arclength else 0
    m = len(y0) - q
    if arclength:
        atol = [rk45.QUADRATURE_ATOL] + [atol] * m

    def field(t, y):
        d = fun(y.tolist()[q:], *args)
        return [math.copysign(math.hypot(*d), t_bound), *d] if q else d

    def controlled_norm(x):
        return np.linalg.norm(x[q:]) / m ** 0.5
    with mock.patch.object(ivp_rk, "norm", controlled_norm), \
            mock.patch.object(ivp_common, "norm", controlled_norm):
        return solve_ivp(field, (0.0, t_bound), y0, method=method,
                         events=[terminal(i) for i in range(n)],
                         rtol=rtol, atol=atol)


def no_events(t, y):
    return ()


def fired(ref):
    """The index of the event that ended a solve_ivp run, or None: the
    one entry of t_events that holds a time."""
    hits = [i for i, te in enumerate(ref.t_events) if te.size]
    assert len(hits) <= 1 and all(ref.t_events[i].size == 1 for i in hits)
    return hits[0] if hits else None


def solve_ivp_integrate(fun, t_bound, y0, events, rtol, atol,
                        method="RK45", args=(), arclength=False):
    """solve_ivp_oracle as a drop-in rk45.integrate, the result a
    Solution."""
    ref = solve_ivp_oracle(fun, t_bound, y0, events, rtol, atol, method,
                           args, arclength)
    return rk45.Solution(ref.t, ref.y, ref.status, fired(ref))


def _shot_fun(shock):
    # covariant w and, trailing, the arclength travelled, in the error
    # test: the field computes the arclength's integrand itself
    m = make_model("ft-heat", RAD, eta=1.0, chi=0.5)
    w = 0.5 * (shock.state_minus.cov + shock.state_plus.cov)
    w[1] += 0.1

    def fun(y):
        d0, d1 = planar_rhs(y, shock, m)
        return d0, d1, math.hypot(d0, d1)
    return fun, (), False, [*w.tolist(), 0.2]


def _shot_arclength_fun(shock):
    # the shot's state as the shot lays it out: the arclength, kept by
    # the integrator outside the error test, leads covariant w
    fun, _, _, (w0, w1, arc) = _shot_fun(shock)
    m = make_model("ft-heat", RAD, eta=1.0, chi=0.5)
    return planar_rhs, (shock, m), True, [arc, w0, w1]


def _quadrature_fun(shock):
    # one component, returned as a list like the scalar quadrature's
    def fun(y):
        return [(1.0 - y[0] * y[0]) * (2.0 + math.cos(3.0 * y[0]))]
    return fun, (), False, [0.3]


@pytest.mark.parametrize("make_fun", [
    _shot_fun, _quadrature_fun, _shot_arclength_fun,
], ids=["shot", "quadrature", "shot-arclength"])
def test_rk45_step_matches_scipy(shock_rad, make_fun):
    # shot-arclength: the arclength is a quadrature, outside the error
    # norm, whose RMS runs over w alone; its stage derivative takes the
    # sign of h
    fun, args, arclength, y = make_fun(shock_rad)
    q = 1 if arclength else 0
    step = rk45._stepper(len(y), arclength)
    rtol, atol = 1e-10, 1e-12
    f = fun(y[q:], *args)
    for h in (1e-3, 1e-2, -0.05):
        def full(v):
            d = fun(v[q:], *args)
            return [math.copysign(math.hypot(*d), h), *d] if q else d
        y_new, f_new, K, err = step(fun, args, y, f, h, rtol, atol)
        Kr = np.empty((RK45.n_stages + 1, len(y)))
        yr, fr = rk_step(lambda t, v: np.array(full(v.tolist())), 0.3,
                         np.array(y), np.array(full(y)), h, RK45.A, RK45.B,
                         RK45.C, Kr)
        # relative to the largest entry (max norm)
        for got, want in ((y_new, yr), (f_new, fr[q:]), (K, Kr)):
            gap = np.abs(np.asarray(got) - want).max()
            assert gap <= 1e-14 * np.abs(want).max(), h
        # the error estimate sums terms that nearly cancel (E sums to
        # 0), so it is compared relative to the size of those terms
        scale = atol + np.maximum(np.abs(y), np.abs(yr)) * rtol
        err_ref = norm((np.dot(Kr.T, RK45.E) * h / scale)[q:])
        terms = norm((np.dot(np.abs(Kr.T), np.abs(RK45.E)) * abs(h)
                      / scale)[q:])
        assert 0.0 < err and abs(err - err_ref) <= 1e-14 * terms, h


def test_rk45_step_dimensions(shock_rad, monkeypatch):
    # the shot integrates (arclength, w), the arclength kept by the
    # integrator outside the error test, the scalar quadrature rho
    # alone; both run the step that test_rk45_step_matches_scipy pins
    asked = []

    def spy(n, arclength):
        asked.append((n, arclength))
        return stepper(n, arclength)
    stepper = rk45._stepper
    monkeypatch.setattr(rk45, "_stepper", spy)
    model = make_model("bdn", RAD, eta=1.0, mu=4.0 / 3.0, nu=4.0)
    assert shoot_heteroclinic(shock_from_strength(RAD, 1.0, 0.5),
                              model).connected
    assert asked == [(3, True)]
    assert scalar_profile_ft(shock_rad, FtCoefficients(1.0)).connected
    assert asked == [(3, True), (1, False), (1, False)]


@pytest.mark.parametrize("s", [0.05, 0.3, 0.6, 0.98])
def test_rk45_bdn_shot_matches_scipy(s, monkeypatch):
    # same steps as solve_ivp: classification and n_steps exact, orbit
    # ends and arclength equal up to roundoff in the stage sums
    sd = shock_from_strength(RAD, 1.0, s)
    m = make_model("bdn", RAD, eta=1.0, mu=4.0 / 3.0, nu=4.0)
    got = shoot_heteroclinic(sd, m)
    monkeypatch.setattr(rk45, "integrate", solve_ivp_integrate)
    want = shoot_heteroclinic(sd, m)
    assert got.classification == want.classification
    assert got.connected
    assert got.n_steps == want.n_steps
    for i in (0, -1):
        assert np.allclose(got.w[i], want.w[i], rtol=1e-12, atol=1e-12)
    assert got.arclength == pytest.approx(want.arclength, rel=1e-12)


@pytest.mark.parametrize("tag, co, q1, kw", [
    ("bdn", dict(eta=1.0, mu=4.0 / 3.0, nu=4.0), 1.0, {}),
    ("ft-heat", dict(eta=1.0, chi=0.5), 3.0,
     dict(method="LSODA", rtol=1e-9, atol=1e-11)),
], ids=["RK45", "LSODA"])
def test_shot_arclength_is_outside_the_error_test(tag, co, q1, kw,
                                                  monkeypatch):
    # the shot run without its arclength, on w alone, takes the same
    # steps to the same w samples, to the last bit
    sd = shock_from_strength(RAD, q1, 0.5)
    m = make_model(tag, RAD, **co)
    want = shoot_heteroclinic(sd, m, **kw)
    integrate = rk45.integrate

    def without_arclength(fun, t_bound, y0, events, *args, arclength,
                          **kwargs):
        assert arclength
        sol = integrate(fun, t_bound, y0[1:],
                        lambda t, w: events(t, [0.0, *w]), *args,
                        **kwargs)
        return sol._replace(y=np.vstack([np.zeros_like(sol.t), sol.y]))
    monkeypatch.setattr(rk45, "integrate", without_arclength)
    got = shoot_heteroclinic(sd, m, **kw)
    assert want.connected and got.classification == want.classification
    assert got.n_steps == want.n_steps
    assert np.array_equal(got.x, want.x) and np.array_equal(got.w, want.w)
    assert got.width == want.width
    assert got.arclength == 0.0 < want.arclength


@pytest.mark.parametrize("method", rk45.METHODS)
@pytest.mark.parametrize("tag, co", [
    ("bdn", dict(eta=1.0, mu=4.0 / 3.0, nu=4.0)),
    ("ft-heat", dict(eta=1.0, chi=0.5)),
], ids=["bdn-forward", "ft-heat-backward"])
def test_backward_run_is_the_negated_field_forward(tag, co, method):
    # the shot runs backward toward -X_MAX on planar_rhs itself; that is
    # the negated field run forward, to the last bit: the same samples
    # (t negated), arclength, status, event and event time.  The BDN
    # shot runs forward, the ft-heat shot backward
    sd = shock_from_strength(RAD, 1.0, 0.5)
    m = make_model(tag, RAD, **co)
    w = 0.5 * (sd.state_minus.cov + sd.state_plus.cov)
    y0 = [0.0, *w.tolist()]
    amp = sd.amplitude

    def negated(w, shock, model):
        d0, d1 = planar_rhs(w, shock, model)
        return -d0, -d1
    for budget in (0.1 * amp, 1e3):
        def events(t, y):
            return (y[0] - budget,)
        back = rk45.integrate(planar_rhs, -50.0, y0, events, 1e-10, 1e-12,
                              method=method, args=(sd, m), arclength=True)
        fwd = rk45.integrate(negated, 50.0, y0, events, 1e-10, 1e-12,
                             method=method, args=(sd, m), arclength=True)
        assert back.t.size > 2
        assert np.array_equal(back.t, -fwd.t)
        assert np.array_equal(back.y, fwd.y)
        assert back.y[0, -1] > 0.0
        assert (back.status, back.event) == (fwd.status, fwd.event)
        assert back.status == (1 if budget < 1.0 else 0)


def test_strong_bdn_shot_ends_fast():
    # with the arclength in the error test this shot took 78,159 steps;
    # ROADMAP item 4's strong-shock fit gives a width of 25.04783
    sd = shock_from_strength(RAD, 1.0, 0.999)
    m = make_model("bdn", RAD, eta=1.0, mu=4.0 / 3.0, nu=4.0)
    res = shoot_heteroclinic(sd, m)
    assert res.classification == "connected_oscillatory"
    assert res.n_steps < 10_000
    assert res.width == pytest.approx(25.047813, rel=1e-6)


def test_rk45_backward_scalar_run_matches_scipy(shock_rad, monkeypatch):
    # the x < 0 half of the viscous profile is integrated backward
    got = scalar_profile_ft(shock_rad, FtCoefficients(1.0))
    monkeypatch.setattr(rk45, "integrate", solve_ivp_integrate)
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


def _nan_past_one(y):
    # a vector field defined only for y < 1, poisoned outside
    return (1.0,) if y[0] < 1.0 else (math.nan,)


def test_rk45_rejects_nan_trial_step():
    poisoned = []

    def fun(y):
        f = _nan_past_one(y)
        if math.isnan(f[0]):
            poisoned.append(y[0])
        return f

    def ev(t, y):
        return (y[0] - 0.999,)
    sol = rk45.integrate(fun, 10.0, [0.0], ev, 1e-10, 1e-12)
    ref = solve_ivp_oracle(_nan_past_one, 10.0, [0.0], ev, 1e-10, 1e-12)
    # trial steps crossed y = 1 and were rejected and shrunk: every
    # accepted sample is finite and inside the domain
    assert poisoned
    assert np.all(np.isfinite(sol.y)) and np.all(sol.y < 1.0)
    assert sol.status == ref.status == 1
    assert sol.event == fired(ref) == 0
    assert sol.t[-1] == pytest.approx(ref.t_events[0][0], rel=1e-14)
    assert sol.t[-1] == pytest.approx(0.999, rel=1e-14)
    assert sol.t.size == ref.t.size
    assert np.allclose(sol.t, ref.t, rtol=1e-14, atol=0.0)


def test_rk45_status_codes():
    # -1: the step size underflows just short of the poisoned region
    sol = rk45.integrate(_nan_past_one, 10.0, [0.0], no_events, 1e-10,
                         1e-12)
    ref = solve_ivp_oracle(_nan_past_one, 10.0, [0.0], no_events, 1e-10,
                           1e-12)
    assert sol.status == ref.status == -1
    assert sol.t.size == ref.t.size
    assert 1.0 - 1e-12 < sol.y[0, -1] < 1.0
    # 0: a backward run reaches t_bound with no event
    sol = rk45.integrate(lambda y: [-y[0]], -3.0, [1.0], no_events,
                         1e-10, 1e-12)
    ref = solve_ivp_oracle(lambda y: [-y[0]], -3.0, [1.0], no_events,
                           1e-10, 1e-12)
    assert sol.status == ref.status == 0
    assert sol.t[-1] == -3.0 and sol.t.size == ref.t.size
    assert sol.y[0, -1] == pytest.approx(math.exp(3.0), rel=1e-8)


def test_lsoda_ends_at_the_last_finite_state():
    # ODEPACK's error test passes a NaN error estimate, so the step into
    # the poisoned region is accepted; the run ends before that state,
    # with status -1 as RK45's does, and no NaN reaches t_bound
    sol = rk45.integrate(_nan_past_one, 10.0, [0.0], no_events, 1e-10,
                         1e-12, method="LSODA")
    assert sol.status == -1
    assert sol.t.size > 1 and np.all(np.isfinite(sol.t))
    assert np.all(np.isfinite(sol.y)) and np.all(sol.y < 1.0)


def test_lsoda_without_its_private_names_fails_clearly(monkeypatch):
    # LSODA is stepped through private scipy names; a scipy without one
    # gets one error naming the scipy version and the missing name
    import scipy
    init = LSODA.__init__

    def without_lsoda_solver(self, *args, **kwargs):
        init(self, *args, **kwargs)
        del self._lsoda_solver
    monkeypatch.setattr(LSODA, "__init__", without_lsoda_solver)
    want = (f"scipy {re.escape(scipy.__version__)} has no "
            r"LSODA\._lsoda_solver")
    with pytest.raises(RuntimeError, match=want):
        rk45.integrate(lambda y: [-y[0]], 1.0, [1.0], no_events, 1e-9,
                       1e-11, method="LSODA")


def test_integrate_runs_only_rk45_and_lsoda():
    assert rk45.METHODS == ("RK45", "LSODA")
    for method in ("RK23", "DOP853", "Radau", "BDF"):
        with pytest.raises(ValueError, match="unknown integrator"):
            rk45.integrate(_nan_past_one, 10.0, [0.0], no_events, 1e-10,
                           1e-12, method=method)


@pytest.mark.parametrize("fun, y0, tol", [
    (lambda y: [1.0], 0.0, (1e-10, 1e-12)),       # h0 = 1e-6
    (lambda y: [1e3], 1.0, (1e-3, 1e-6)),         # 100 h0
    (lambda y: [-y[0]], 1.0, (1e-10, 1e-12)),     # from the curvature
], ids=["from-zero", "hundred-h0", "curvature"])
def test_rk45_initial_step_matches_scipy(fun, y0, tol):
    # each branch of the initial step selection
    sol = rk45.integrate(fun, 1.0, [y0], no_events, *tol)
    ref = solve_ivp_oracle(fun, 1.0, [y0], no_events, *tol)
    assert sol.t[1] == pytest.approx(ref.t[1], rel=1e-15, abs=0.0)


def _far_near(direction):
    # steps grow tenfold on a constant field, so one step crosses both
    # levels; the later-listed event (near) has the earlier root
    def far_near(t, y):
        return (y[0] - 0.5 * direction, y[0] - 0.4 * direction)

    def fun(y):
        return [1.0]
    return fun, 10.0 * direction, [0.0], far_near


def _shot_run(direction):
    # the ft-heat shot of _shot_fun: forward it ends on an arclength
    # event, backward it reaches t_bound
    fun, _, _, y0 = _shot_fun(shock_from_strength(RAD, 3.0, 0.5))

    def arc(t, y):
        return (y[2] - 0.6,)
    return fun, 10.0 * direction, y0, arc


@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_rk45_earliest_terminal_event_wins(direction):
    fun, t_bound, y0, events = _far_near(direction)
    sol = rk45.integrate(fun, t_bound, y0, events, 1e-10, 1e-12)
    ref = solve_ivp_oracle(fun, t_bound, y0, events, 1e-10, 1e-12)
    assert sol.status == ref.status == 1
    assert sol.event == fired(ref) == 1
    assert sol.t[-1] == pytest.approx(ref.t_events[1][0], rel=1e-14)
    assert sol.t[-1] == pytest.approx(0.4 * direction)
    assert sol.t.size == ref.t.size


@pytest.mark.parametrize("method", ["LSODA"])
@pytest.mark.parametrize("direction", [1.0, -1.0],
                         ids=["forward", "backward"])
@pytest.mark.parametrize("case", [_shot_run, _far_near],
                         ids=["shot", "far-near"])
def test_scipy_method_matches_solve_ivp_bit_for_bit(case, direction,
                                                    method):
    # the shared event loop steps scipy's solver itself: the same
    # samples, status, ending event and event time as solve_ivp, to the
    # last bit
    fun, t_bound, y0, events = case(direction)
    sol = rk45.integrate(fun, t_bound, y0, events, 1e-9, 1e-11,
                         method=method)
    ref = solve_ivp_oracle(fun, t_bound, y0, events, 1e-9, 1e-11,
                           method=method)
    assert sol.status == ref.status
    assert np.array_equal(sol.t, ref.t)
    assert np.array_equal(sol.y, ref.y)
    assert sol.event == fired(ref)
    if sol.event is not None:
        assert sol.t[-1] == ref.t_events[sol.event][0]


def test_lsoda_shot_steps_the_odepack_integrator(monkeypatch):
    # an LSODA shot steps the ODEPACK integrator, never LSODA.step, and
    # keeps solve_ivp's samples; its events function runs once per
    # sample and once per evaluation of the root search
    sd = shock_from_strength(RAD, 3.0, 0.5)
    m = make_model("ft-heat", RAD, eta=1.0, chi=0.5)
    kw = dict(method="LSODA", rtol=1e-9, atol=1e-11)
    with monkeypatch.context() as mp:
        mp.setattr(rk45, "integrate", solve_ivp_integrate)
        want = shoot_heteroclinic(sd, m, **kw)

    def refuse(self):
        raise AssertionError("LSODA.step was called")
    calls = {"events": 0, "root": 0}
    runs = []
    integrate, root_search = rk45.integrate, rk45.brentq

    def counted_integrate(fun, t_bound, y0, events, *args, **kwargs):
        def counted(t, y):
            calls["events"] += 1
            return events(t, y)
        runs.append(integrate(fun, t_bound, y0, counted, *args, **kwargs))
        return runs[-1]

    def counted_brentq(f, a, b, **kwargs):
        def g(x):
            calls["root"] += 1
            return f(x)
        return root_search(g, a, b, **kwargs)
    monkeypatch.setattr(LSODA, "step", refuse)
    monkeypatch.setattr(rk45, "integrate", counted_integrate)
    monkeypatch.setattr(rk45, "brentq", counted_brentq)
    got = shoot_heteroclinic(sd, m, **kw)
    assert got.connected and got.classification == want.classification
    assert np.array_equal(got.x, want.x) and np.array_equal(got.w, want.w)
    assert got.width == want.width
    [sol] = runs
    assert sol.event == 0 and calls["root"] > 0
    assert calls["events"] == sol.t.size + calls["root"]
