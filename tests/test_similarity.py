"""Similarity on a one-term EOS: q1 and the coefficient scale are not
parameters of the profile.

For p = c theta^k, scaling theta by lambda scales psi and w by
1/lambda, the fluxes and q by lambda^k, and u not at all.  On radiation
(k = 4) the end states therefore scale with q1 at fixed strength.  BDN's
M depends on u alone, so x scales by lambda^-(k+1): the width scales as
q1^(-5/4).  The ft and Eckart matrices are a viscous part of degree 1 in
theta plus chi theta^2 times a function of u, so (q1, eta, zeta, chi)
gives the profile of (1, eta, zeta, chi q1^(1/4)) with its width scaled
by 1/q1.  M is linear in its coefficients, so scaling all of them by c
scales the width by c.  A two-term EOS has no such law, which is the
control.
"""

import pytest

from shockscan import (parse_eos_expression, radiation_eos, run_scan,
                       shock_from_strength)
from shockscan.rk45 import SETTINGS

RAD = radiation_eos()
Q1 = [3.0, 10.0]
STRENGTHS = [0.05, 0.5, 0.9]
BDN = {"eta": 1.0, "mu": 4.0 / 3.0, "nu": 4.0}
# the end states are brentq roots to about 1 ulp; widths follow the
# integration, which holds rtol per step
END_TOL = 1e-13
WIDTH_TOL = 1e3 * SETTINGS["rtol"]


def profiles(model, co, q1):
    recs = run_scan("radiation", model, co, [q1], STRENGTHS).records
    return [r.classification for r in recs], [r.width for r in recs]


def assert_widths(got, want, factor):
    for g, w in zip(got, want):
        assert g * factor == pytest.approx(w, rel=WIDTH_TOL)


@pytest.mark.parametrize("q1", Q1)
def test_end_states_scale_with_q1(q1):
    for s in STRENGTHS:
        one, sd = shock_from_strength(RAD, 1.0, s), shock_from_strength(
            RAD, q1, s)
        assert sd.rho_minus / q1 == pytest.approx(one.rho_minus, rel=END_TOL)
        assert sd.rho_plus / q1 == pytest.approx(one.rho_plus, rel=END_TOL)


def test_two_term_eos_breaks_the_end_state_law():
    # 1/3 theta^4 + 7/10 theta^3 has no scale: its end states at q1 = 3
    # are not three times those at q1 = 1
    eos = parse_eos_expression("p(theta) = 1/3*theta^4 + 7/10*theta^3")
    one, sd = shock_from_strength(eos, 1.0, 0.5), shock_from_strength(
        eos, 3.0, 0.5)
    assert abs(sd.rho_minus / 3.0 / one.rho_minus - 1.0) > 0.01
    assert abs(sd.rho_plus / 3.0 / one.rho_plus - 1.0) > 0.01


@pytest.mark.parametrize("q1", Q1)
def test_bdn_width_scales_as_q1_to_the_minus_five_quarters(q1):
    classes, widths = profiles("bdn", BDN, 1.0)
    # the floor onset at nu = 4 is s* = 4/49: one monotone point, then
    # spirals
    assert classes == ["connected_monotone"] + 2 * ["connected_oscillatory"]
    got_classes, got = profiles("bdn", BDN, q1)
    assert got_classes == classes
    assert_widths(got, widths, q1 ** 1.25)


def test_doubled_bdn_coefficients_double_the_width():
    _, widths = profiles("bdn", BDN, 1.0)
    classes, doubled = profiles("bdn", {k: 2.0 * v for k, v in BDN.items()},
                                1.0)
    assert classes == ["connected_monotone"] + 2 * ["connected_oscillatory"]
    assert_widths(doubled, widths, 0.5)


@pytest.mark.parametrize("model, co", [
    ("ft-heat", {"eta": 1.0, "chi": 0.5}),
    ("eckart", {"eta": 1.0, "chi": 0.5}),
    ("ft-viscous", {"eta": 1.0}),
], ids=["ft-heat", "eckart", "ft-viscous"])
@pytest.mark.parametrize("q1", Q1)
def test_width_scales_as_one_over_q1(model, co, q1):
    # the heat term chi theta^2 carries one power of theta more than
    # the viscous part, so (q1, chi) is the profile of (1, chi q1^(1/4))
    at_one = dict(co)
    if "chi" in co:
        at_one["chi"] = co["chi"] * q1 ** 0.25
    classes, widths = profiles(model, at_one, 1.0)
    assert classes == 3 * ["connected_monotone"]
    got_classes, got = profiles(model, co, q1)
    assert got_classes == classes
    assert_widths(got, widths, q1)
