"""Jump conditions, end states, characteristic speeds."""

import json
from fractions import Fraction

import numpy as np
import pytest

from shockscan import (
    FluidState, MonomialEos, NoShock, PolynomialEos, char_speeds,
    end_states, g_eval, make_eos, parse_eos_expression, q_max,
    radiation_eos, rankine_hugoniot, rho_bar, shock_from_strength,
    stress_hessian, u1_of_rho,
)

RAD = radiation_eos()


# ------------------------------------------------------- jump function

def test_rho_bar_closed_form():
    assert rho_bar(RAD, 3.0) == pytest.approx(9.0, rel=1e-15)
    assert rho_bar(MonomialEos(1, 5), 1.0) == pytest.approx(4.0, rel=1e-15)


def test_rho_bar_generic_bisection():
    # same radiation law through the generic Newton/bisection path
    eos = PolynomialEos([(Fraction(1, 3), 4)], name="rad-generic")
    assert rho_bar(eos, 3.0) == pytest.approx(9.0, rel=1e-11)


def test_rho_bar_rejects_nonpositive_flux():
    with pytest.raises(NoShock):
        rho_bar(RAD, 0.0)
    with pytest.raises(NoShock):
        rho_bar(RAD, -2.0)


def test_q_max_radiation():
    rs, Q = q_max(RAD, 3.0)
    assert rs == pytest.approx(3.0, rel=1e-12)
    assert Q == pytest.approx(3.0, rel=1e-12)


def test_q_max_power_law_five():
    rs, Q = q_max(MonomialEos(1, 5), 1.0)
    assert rs == pytest.approx(1.5, rel=1e-12)
    assert Q == pytest.approx(9.0 / 16.0, rel=1e-12)


def test_q_max_generic_maximizer_matches_closed_form():
    eos = PolynomialEos([(Fraction(1, 3), 4)], name="rad-generic")
    rs, Q = q_max(eos, 3.0)
    assert rs == pytest.approx(3.0, rel=1e-9)
    assert Q == pytest.approx(3.0, rel=1e-10)


def test_q_max_degenerate_nonlinearity():
    # k = 2 has gnl identically zero: the warning fires, and with the
    # initial rise of g gone there is no interior maximum at all
    with pytest.warns(RuntimeWarning):
        with pytest.raises(NoShock, match="no interior maximum"):
            q_max(MonomialEos(1, 2), 1.0)


def test_g_structure():
    for eos, q1 in ((RAD, 3.0), (MonomialEos(1, 5), 1.0)):
        rb = rho_bar(eos, q1)
        assert g_eval(eos, q1, rb) == pytest.approx(-q1 ** 2, rel=1e-12)
        rs, Q = q_max(eos, q1)
        assert g_eval(eos, q1, rs) == pytest.approx(Q, rel=1e-15)
        # second difference is negative at the maximizer
        h = 1e-4 * rs
        dd = (g_eval(eos, q1, rs + h) - 2 * Q + g_eval(eos, q1, rs - h)) / h ** 2
        assert dd < 0.0


# ------------------------------------------------------- end states

def test_end_states_radiation_frozen():
    # q1 = 3, q0^2 = 10.5: roots of rho^2 - 6 rho + 4.5 = 0
    sd = end_states(RAD, np.sqrt(10.5), 3.0)
    assert sd.rho_minus == pytest.approx(3.0 - np.sqrt(4.5), rel=1e-12)
    assert sd.rho_plus == pytest.approx(3.0 + np.sqrt(4.5), rel=1e-12)
    assert sd.rho_minus == pytest.approx(0.87867965644035742, rel=1e-12)
    assert sd.rho_plus == pytest.approx(5.1213203435596424, rel=1e-12)
    assert sd.strength == pytest.approx(0.5, rel=1e-12)
    assert sd.lax


def test_end_states_power_law_frozen():
    # k = 5, q1 = 1, s = 1/2: roots of -rho^2/4 + 3 rho/4 = 9/32
    sd = shock_from_strength(MonomialEos(1, 5), 1.0, 0.5)
    assert sd.rho_minus == pytest.approx(1.5 - 1.5 / np.sqrt(2), rel=1e-12)
    assert sd.rho_plus == pytest.approx(1.5 + 1.5 / np.sqrt(2), rel=1e-12)
    assert sd.q0 == pytest.approx(np.sqrt(1.0 + 9.0 / 32.0), rel=1e-14)


def test_end_state_velocity_identity():
    # (q1 - p)(rho + q1) = q0^2 on both sides of the jump
    sd = shock_from_strength(RAD, 3.0, 0.7)
    for rho in (sd.rho_minus, sd.rho_plus):
        p = RAD.p_hat(rho)
        assert (sd.q1 - p) * (rho + sd.q1) == pytest.approx(
            sd.q0 ** 2, rel=1e-10)
    assert sd.u1_minus > sd.u1_plus > 0.0


def test_strength_roundtrip():
    for s in (0.05, 0.5, 0.95):
        sd = shock_from_strength(RAD, 2.0, s)
        assert sd.strength == pytest.approx(s, rel=1e-12)
        # reconstruct from the fluxes alone
        sd2 = end_states(RAD, sd.q0, sd.q1)
        assert sd2.rho_minus == pytest.approx(sd.rho_minus, rel=1e-10)
        assert sd2.strength == pytest.approx(s, rel=1e-8)


def test_q_max_once_per_shock(monkeypatch):
    # shock_from_strength hands its (rho_star, Q) to the end-state solve;
    # the result is the one end_states finds on its own
    eos = parse_eos_expression("p(theta) = 1/3*theta^4 + 7/10*theta^3")
    calls = []
    original = rankine_hugoniot.q_max

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(rankine_hugoniot, "q_max", counted)
    sd = shock_from_strength(eos, 3.0, 0.5)
    assert len(calls) == 1
    ref = end_states(eos, sd.q0, sd.q1)
    assert len(calls) == 2
    assert sd.as_dict() == {**ref.as_dict(), "strength": 0.5}


def test_no_shock_conditions():
    with pytest.raises(NoShock):
        end_states(RAD, 3.0, 3.0)          # q0 == q1
    with pytest.raises(NoShock):
        end_states(RAD, 2.0, 3.0)          # q0 < q1
    with pytest.raises(NoShock):
        end_states(RAD, np.sqrt(9.0 + 3.1), 3.0)   # r > Q
    for s in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(NoShock):
            shock_from_strength(RAD, 3.0, s)


def test_u1_of_rho_rejects_incompatible():
    with pytest.raises(NoShock):
        u1_of_rho(RAD, 0.1, 10.0, 3.0)


# ------------------------------------------------------- characteristics

def test_char_speeds_against_velocity_addition():
    # lam = (v -+ c) / (1 -+ v c) with v the fluid velocity, c the
    # sound speed; both read off the state independently of the pencil
    rng = np.random.default_rng(19)
    for eos in (RAD, MonomialEos(1, 5)):
        for _ in range(50):
            v = rng.uniform(-0.9, 0.9)
            t = rng.uniform(0.5, 2.0)
            u0 = 1.0 / np.sqrt(1.0 - v * v)
            st = FluidState(u0 / t, v * u0 / t)
            c = np.sqrt(eos.cs2(t))
            lo, hi = char_speeds(st, eos)
            assert lo == pytest.approx((v - c) / (1 - v * c), rel=1e-8)
            assert hi == pytest.approx((v + c) / (1 + v * c), rel=1e-8)


def test_char_speeds_rejects_indefinite_pencil():
    # u^1 = 2.2e4 at theta = 2.2e-6: the mass matrix H0 is not
    # positive definite in floating point, which is reported as NoShock
    st = FluidState(1e10, 1e10 * (1 - 1e-9))
    with pytest.raises(NoShock, match="not positive definite"):
        char_speeds(st, RAD)


def lapack_speeds(state, eos):
    """The pencil's eigenvalues by scipy's eigh (LAPACK sygvd), a
    test-only oracle; None where H0 is not positive definite."""
    from scipy.linalg import eigh
    k000, k001, k011, k111 = stress_hessian(state, eos)
    try:
        lam = eigh([[k001, k011], [k011, k111]],
                   [[k000, k001], [k001, k011]], eigvals_only=True)
    except np.linalg.LinAlgError:
        return None
    return float(lam[0]), float(lam[1])


def closed_form_speeds(state, eos):
    try:
        return char_speeds(state, eos)
    except NoShock:
        return None


PENCIL_EOS = ("radiation", "power-law:5/2", "power-law:5")


@pytest.mark.parametrize("spec", PENCIL_EOS)
def test_char_speeds_match_lapack_on_admissible_states(spec):
    eos = make_eos(spec)
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(2000):
        theta = 10.0 ** rng.uniform(-3.0, 3.0)
        st = FluidState.from_rho_u1(eos, eos.rho(theta),
                                    rng.uniform(-10.0, 10.0))
        got, want = char_speeds(st, eos), lapack_speeds(st, eos)
        worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
    assert worst < 1e-9


@pytest.mark.parametrize("spec", PENCIL_EOS)
def test_char_speeds_refuse_where_lapack_does(spec):
    # toward the light cone H0 stops being positive definite in floating
    # point; NoShock must come exactly where sygvd's Cholesky step fails
    eos = make_eos(spec)
    rng = np.random.default_rng(31)
    refused = 0
    for _ in range(1000):
        psi0 = 10.0 ** rng.uniform(-6.0, 8.0)
        gap = 10.0 ** rng.uniform(-15.0, -3.0)
        st = FluidState(psi0, rng.choice([-1.0, 1.0]) * psi0 * (1.0 - gap))
        want = lapack_speeds(st, eos)
        assert (closed_form_speeds(st, eos) is None) == (want is None)
        refused += want is None
    assert 100 < refused < 900


def test_lax_unchanged_on_the_reference_grids():
    # the test_06 (q1 = 1) and test_02 (q1 = 0.5, 3, 10) strength grids
    grids = [(1.0, np.linspace(0.02, 0.98, 50))]
    grids += [(q1, np.linspace(0.05, 0.95, 10)) for q1 in (0.5, 3.0, 10.0)]
    for q1, ss in grids:
        for s in ss:
            sd = shock_from_strength(RAD, q1, float(s))
            sm = lapack_speeds(sd.state_minus, RAD)
            sp = lapack_speeds(sd.state_plus, RAD)
            lax = sm[0] > 0.0 > sp[0] and sm[1] > 0.0 and sp[1] > 0.0
            assert lax and sd.lax == lax, (q1, s)


def test_lax_pattern_across_strengths():
    for q1 in (0.5, 3.0):
        for s in np.linspace(0.05, 0.95, 7):
            sd = shock_from_strength(RAD, q1, s)
            sm, sp = sd.speeds_minus, sd.speeds_plus
            assert sm[0] > 0.0 > sp[0]
            assert sm[1] > 0.0 and sp[1] > 0.0
            assert sd.lax


def test_as_dict_json_roundtrip():
    sd = shock_from_strength(RAD, 3.0, 0.5)
    d = json.loads(json.dumps(sd.as_dict()))
    assert d["eos"] == "radiation"
    assert d["lax"] is True
    assert d["rho_minus"] == pytest.approx(sd.rho_minus, rel=1e-15)
    assert len(d["char_speeds_plus"]) == 2
    assert d["q_max"] == pytest.approx(3.0, rel=1e-12)
    assert sd.amplitude == pytest.approx(2 * np.sqrt(4.5), rel=1e-12)
