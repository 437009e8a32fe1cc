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
control.  The degrees the law rests on are certified with sympy below,
on the closed forms the docstrings state.
"""

import math
from fractions import Fraction

import pytest

from shockscan import (BdnCoefficients, FtCoefficients, MonomialEos,
                       fluid_core, make_model, parse_eos_expression,
                       radiation_eos, run_scan, shock_from_strength)
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


# ------------------------------------------------------- certificate

def closed_forms(sympy):
    """The flux and the planar matrices of the ft, Eckart and BDN
    tensors, built from the closed forms their docstrings state, for
    p = c theta^k: (symbols, flux, {family: M})."""
    t, lam, c, k = sympy.symbols("theta lambda c k", positive=True)
    eta, zeta, chi, mu, nu = sympy.symbols("eta zeta chi mu nu",
                                           positive=True)
    psi0, psi1, b = sympy.symbols("psi0 psi1 b", real=True)
    p = c * t ** k
    dp = sympy.diff(p, t)
    # fluid_core.flux: column 1 of theta^3 p' psi^a psi^b + p g^ab
    flux = [t ** 3 * dp * psi0 * psi1, t ** 3 * dp * psi1 * psi1 + p]
    # dissipation: n = (u1, u0), U = (u0, u1), Pi = n (x) n
    u0 = sympy.sqrt(1 + b ** 2)
    n, U = sympy.Matrix([b, u0]), sympy.Matrix([u0, b])
    a = sympy.Matrix([u0 ** 2 + b ** 2, 2 * u0 * b])
    w = sympy.Matrix([4 * u0 * b, u0 ** 2 + 3 * b ** 2])
    cs2 = dp / (t * sympy.diff(p, t, 2))
    visc = sympy.Rational(4, 3) * eta + zeta
    sigma = visc / (1 - cs2) - cs2 * chi * t
    M = {"ft-heat": sigma * t * n * n.T + chi * t ** 2 * U * U.T,
         "eckart": visc * t * u0 ** 2 * n * n.T + chi * t ** 2 * u0 * a * U.T,
         "bdn": (sympy.Rational(4, 3) * eta * u0 ** 2 * n * n.T
                 - mu * w * w.T - nu * a * a.T)}
    syms = dict(t=t, lam=lam, c=c, k=k, eta=eta, zeta=zeta, chi=chi, mu=mu,
                nu=nu, psi0=psi0, psi1=psi1, b=b)
    return syms, flux, M


# (t, u1) of the two states each float function is checked at
STATES = [(0.7, 0.4), (2.3, -1.1)]
CO = {"eta": 1.0, "zeta": 0.3, "chi": 0.5, "mu": 2.0, "nu": 3.0}


def assert_matches(forms, values, at):
    # each float value against its sympy form, relative to the largest
    want = [float(f.subs(at)) for f in forms]
    scale = max(map(abs, want))
    assert max(abs(g - v) for g, v in zip(values, want)) <= 1e-14 * scale


@pytest.mark.parametrize("c, k", [("1/3", 4), ("1", "5/2")],
                         ids=["radiation", "power-law:5/2"])
def test_flux_degree_certificate(c, k):
    # flux(lambda t, psi / lambda) = lambda^k flux(t, psi)
    sympy = pytest.importorskip("sympy")
    s, flux, _ = closed_forms(sympy)
    t, lam, psi0, psi1 = s["t"], s["lam"], s["psi0"], s["psi1"]
    scaled = {t: lam * t, psi0: psi0 / lam, psi1: psi1 / lam}
    for f in flux:
        assert sympy.simplify(f.subs(scaled, simultaneous=True)
                              - lam ** s["k"] * f) == 0
    eos = MonomialEos(Fraction(c), Fraction(k))
    for th, u1 in STATES:
        ps0, ps1 = math.hypot(1.0, u1) / th, u1 / th
        at = {s["c"]: Fraction(c), s["k"]: Fraction(k), t: th, psi0: ps0,
              psi1: ps1}
        assert_matches(flux, fluid_core.flux(th, ps0, ps1, eos), at)


@pytest.mark.parametrize("family", ["ft-heat", "eckart", "bdn"])
def test_matrix_degree_certificate(family):
    # ft and Eckart: M(lambda t, chi / lambda) = lambda M(t, chi); BDN:
    # M does not depend on t
    sympy = pytest.importorskip("sympy")
    s, _, forms = closed_forms(sympy)
    M, t, lam, chi = forms[family], s["t"], s["lam"], s["chi"]
    if family == "bdn":
        assert t not in M.free_symbols
        c, k = "1/3", 4
    else:
        scaled = M.subs({t: lam * t, chi: chi / lam}, simultaneous=True)
        assert sympy.simplify(scaled - lam * M) == sympy.zeros(2, 2)
        c, k = "1", "5/2"
    eos = MonomialEos(Fraction(c), Fraction(k))
    model = make_model(family, eos, **{
        key: CO[key] for key in (BdnCoefficients._fields if family == "bdn"
                                 else FtCoefficients._fields)})
    for th, u1 in STATES:
        at = {s["c"]: Fraction(c), s["k"]: Fraction(k), t: th, s["b"]: u1,
              **{s[key]: v for key, v in CO.items()}}
        assert_matches(list(M),
                       model.entries(th, math.hypot(1.0, u1), u1), at)
