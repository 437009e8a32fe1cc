"""The names the benchmark tracer patches still exist in the package.

perfbench/tracing.py wraps functions by (owner, attribute) name; a
rename under src/ would break the traced benchmark without failing any
other test.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))

import tracing  # noqa: E402

from shockscan import (gnl_indicator, make_model,  # noqa: E402
                       parse_eos_expression, profile_dynamics,
                       radiation_eos, rankine_hugoniot, scan,
                       shock_from_strength)
from shockscan.fluid_core import linspace  # noqa: E402


def _current():
    return [vars(owner).get(attr) for owner, attr, _ in tracing.PATCHES]


def test_every_patched_name_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing.PATCHES
               if attr not in vars(owner)]
    assert missing == []


def test_installed_restores_originals():
    before = _current()
    with tracing.installed(tracing.Tracer()):
        during = _current()
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(_current(), before))


def test_shot_evaluates_patched_planar_rhs():
    # the shooting closure must look planar_rhs up by its module name on
    # every evaluation, or the traced RHS spans go missing; each
    # accepted RK45 step costs six evaluations
    eos = radiation_eos()
    shock = shock_from_strength(eos, 1.0, 0.5)
    model = make_model("bdn", eos, eta=1.0, mu=4.0 / 3.0, nu=4.0)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        res = profile_dynamics.shoot_heteroclinic(shock, model)
    calls = tracer.totals()["profile_dynamics.planar_rhs"][0]
    assert res.connected
    assert calls >= 6 * (res.n_steps - 1) > 0


def test_lsoda_shot_evaluates_patched_planar_rhs():
    # a scipy-stepped shot drives the same closure, so the traced
    # ft-heat RHS spans must not go missing either; LSODA costs at least
    # one evaluation per accepted step
    eos = radiation_eos()
    shock = shock_from_strength(eos, 3.0, 0.5)
    model = make_model("ft-heat", eos, eta=1.0, chi=0.5)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        res = profile_dynamics.shoot_heteroclinic(
            shock, model, method="LSODA", rtol=1e-9, atol=1e-11)
    calls = tracer.totals()["profile_dynamics.planar_rhs"][0]
    assert res.connected
    assert calls >= res.n_steps - 1 > 0


@pytest.mark.parametrize("tag, co, q1, kw", [
    ("bdn", dict(eta=1.0, mu=4.0 / 3.0, nu=4.0), 1.0, {}),
    ("ft-heat", dict(eta=1.0, chi=0.5), 3.0,
     dict(method="LSODA", rtol=1e-9, atol=1e-11)),
], ids=["RK45", "LSODA"])
def test_planar_rhs_takes_its_flux_from_fluid_core(tag, co, q1, kw):
    # the profile system has one F: every RHS span holds exactly one
    # flux span, looked up through profile_dynamics.flux, and no other
    eos = radiation_eos()
    shock = shock_from_strength(eos, q1, 0.5)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        res = profile_dynamics.shoot_heteroclinic(
            shock, make_model(tag, eos, **co), **kw)
    assert res.connected
    c = tracer.columns()
    rhs = np.flatnonzero(
        c["name"] == c["names"].index("profile_dynamics.planar_rhs"))
    is_flux = c["name"] == c["names"].index("fluid_core.flux")
    has = c["parent"] >= 0
    children = np.bincount(c["parent"][has], minlength=len(tracer))
    flux_children = np.bincount(c["parent"][has & is_flux],
                                minlength=len(tracer))
    assert rhs.size >= res.n_steps - 1 > 0
    assert np.all(children[rhs] == 1) and np.all(flux_children[rhs] == 1)


def test_traced_scan_builds_eos_once():
    # one EOS per scan, not one per point
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        res = scan.run_scan("radiation", "ft-heat", {"eta": 1.0, "chi": 0.5},
                            [0.5, 3.0], [0.3, 0.6], workers=1,
                            method="LSODA")
    totals = tracer.totals()
    assert len(res.records) == totals["point"][0] == 4
    assert totals["fluid_core.make_eos"][0] == 1


def test_jump_check_evaluates_patched_flux():
    # _check_consistency must look flux up on fluid_core on every call,
    # or the traced flux spans go missing: one per end state per shock
    eos = radiation_eos()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for q1, s in ((0.5, 0.3), (1.0, 0.5), (3.0, 0.9)):
            rankine_hugoniot.shock_from_strength(eos, q1, s)
    totals = tracer.totals()
    shocks = totals["rankine_hugoniot.shock_from_strength"][0]
    assert shocks == 3
    assert totals.get("fluid_core.flux", (0,))[0] == 2 * shocks


def test_rho_bar_once_per_shock():
    # q_max's cap carries rho_bar into the end-state solve
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for eos in (radiation_eos(), parse_eos_expression(
                "p(theta) = 1/3*theta^4 + 7/10*theta^3")):
            for q1, s in ((0.5, 0.3), (3.0, 0.9)):
                rankine_hugoniot.shock_from_strength(eos, q1, s)
    totals = tracer.totals()
    assert totals["rankine_hugoniot.shock_from_strength"][0] == 4
    assert totals["rankine_hugoniot.rho_bar"][0] == 4


def test_gnl_indicator_inverts_once_per_sample():
    # q_max's 64-sample sweep evaluates p_hat, p_hat' and p_hat'' at one
    # temperature: one traced theta_of_rho per sample, not three
    eos = parse_eos_expression("p(theta) = 1/3*theta^4 + 7/10*theta^3")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for rho in linspace(1e-6, 1.0, 64):
            gnl_indicator(eos, rho)
    assert tracer.totals()["fluid_core.theta_of_rho"][0] == 64
