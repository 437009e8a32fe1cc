"""The package's Brent root finder against scipy.optimize.brentq.

scipy is a test-only oracle here: the port must take the same iterates
and return the same float, bit for bit, and raise the same exception
types.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from shockscan import g_eval, parse_eos_expression, q_max, rk45
from shockscan.brent import brentq
from shockscan.rankine_hugoniot import _BRENTQ_KW

POLY = parse_eos_expression("p(theta) = 1/3*theta^4 + 7/10*theta^3")
EVENT_KW = dict(xtol=4 * rk45.EPS, rtol=4 * rk45.EPS)


def same_run(f, a, b, **kw):
    """Both finders on one bracket: the same evaluation points and the
    same root or exception type.  Returns the outcome."""
    seen = {}
    for name, finder in (("port", brentq), ("scipy", scipy_brentq)):
        xs = seen[name] = []

        def probe(x):
            xs.append(x)
            return f(x)
        try:
            seen[name + " out"] = finder(probe, a, b, **kw)
        except (ValueError, RuntimeError) as exc:
            seen[name + " out"] = type(exc)
    assert seen["port"] == seen["scipy"], (a, b, kw)
    got, want = seen["port out"], seen["scipy out"]
    assert got == want and type(got) is type(want), (a, b, kw, got, want)
    return got


def test_jump_function_roots_match_scipy():
    n = 0
    for q1 in (0.3, 1.0, 3.0, 8.0):
        rs, cap, rb = q_max(POLY, q1)
        for s in np.linspace(0.02, 0.98, 12):
            r = (1.0 - s) * cap

            def f(rho):
                return g_eval(POLY, q1, rho) - r
            for kw in (_BRENTQ_KW, {}):
                for a, b in ((rs * 1e-6, rs), (rs, rb)):
                    assert isinstance(same_run(f, a, b, **kw), float)
                    n += 1
    assert n == 192


def test_pressure_inversion_matches_scipy():
    for q1 in np.geomspace(1e-3, 1e3, 60):
        root = same_run(lambda rho: POLY.p_hat(rho) - q1, 1e-12, 1e12,
                        **_BRENTQ_KW)
        assert POLY.p_hat(root) == pytest.approx(q1, rel=1e-12)


def test_event_on_dense_output_matches_scipy():
    # levels crossed inside Dormand-Prince steps of a damped oscillator,
    # located on each step's quartic interpolant as integrate does
    def fun(y):
        return [y[1], -y[0] - 0.1 * y[1]]
    n = 0
    steps = rk45._dormand_prince(fun, 30.0, [1.0, 0.0], 1e-8, 1e-10)
    for t_new, y_new, (t_old, h, y_old, K) in steps:
        y_at = rk45._dense_output(t_old, h, y_old, K)
        lo, hi = sorted((y_old[0], y_new[0]))
        for level in np.linspace(lo, hi, 5)[1:-1]:
            same_run(lambda s: y_at(s)[0] - level, t_old, t_new, **EVENT_KW)
            n += 1
    assert n > 100


@pytest.mark.parametrize("kw", [_BRENTQ_KW, EVENT_KW, {}])
def test_exact_zero_at_an_endpoint(kw):
    assert same_run(lambda x: x - 1.0, 1.0, 3.0, **kw) == 1.0
    assert same_run(lambda x: x - 3.0, 1.0, 3.0, **kw) == 3.0
    # a zero met by an iterate ends the run at that iterate
    assert same_run(lambda x: x - 2.0, 1.0, 3.0, **kw) == 2.0


def test_errors_match_scipy():
    def f(x):
        return math.cos(x) - x
    assert same_run(f, 1.0, 2.0) is ValueError        # same sign
    assert same_run(lambda x: math.nan, 0.0, 1.0) is ValueError
    assert same_run(lambda x: math.nan if x > 0.5 else x - 0.7,
                    0.0, 1.0) is ValueError
    assert same_run(f, 0.0, 1.0, maxiter=2) is RuntimeError
    with pytest.raises(ValueError, match="different signs"):
        brentq(f, 1.0, 2.0)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan, 0.0, 1.0)
    with pytest.raises(RuntimeError, match="Failed to converge after 2"):
        brentq(f, 0.0, 1.0, maxiter=2)
