"""The names the benchmark tracer patches still exist in the package.

perfbench/tracing.py wraps functions by (owner, attribute) name; a
rename under src/ would break the traced benchmark without failing any
other test.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))

import tracing  # noqa: E402

from shockscan import (make_model, profile_dynamics,  # noqa: E402
                       radiation_eos, scan, shock_from_strength)


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
