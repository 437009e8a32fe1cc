"""Dormand-Prince 5(4) integration over Python floats.

This is the scheme of scipy's `RK45`, the default of `solve_ivp`, step
for step: the same tableau, initial step selection, step-size
controller, step-size underflow rule and event location.  It takes the
same steps as `solve_ivp(method="RK45")` up to roundoff in the sums.
States are lists of floats rather than arrays: for the two- and
three-component profile systems numpy's per-call overhead on tiny
vectors cost more than the arithmetic it carries out.
"""

import math
from collections import namedtuple

import numpy as np
from scipy.optimize import brentq

# Butcher tableau (C, A, B), error weights E and the quartic dense
# output P of the Dormand-Prince pair, as in scipy.integrate.RK45
C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
     1 / 40)
P = (
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0, 0, 0, 0),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423,
     69997945 / 29380423),
)

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
# the error estimate is of order 4: steps scale with error^(-1/5)
ERROR_EXPONENT = -1 / 5
EPS = float(np.finfo(float).eps)

Solution = namedtuple("Solution", "t y status t_events")
Solution.__doc__ = """Samples t (shape (N,)) and y (shape (n, N)), status
0 (reached t_bound), 1 (a terminal event) or -1 (step size underflow),
and per event an array of the times it fired, as solve_ivp returns."""


def _rms(v):
    return math.sqrt(sum(x * x for x in v)) / len(v) ** 0.5


def _initial_step(fun, y0, f0, t_bound, direction, rtol, atol):
    """scipy's select_initial_step for an explicit order-4 error
    estimate, starting at t = 0 with no step limit."""
    interval = abs(t_bound)
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval)
    dh = h0 * direction
    f1 = fun(dh, [v + dh * fv for v, fv in zip(y0, f0)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


# the nonzero entries by name, for the unrolled step below
(_, (A21,), (A31, A32), (A41, A42, A43), (A51, A52, A53, A54),
 (A61, A62, A63, A64, A65)) = A
_, C2, C3, C4, C5, _ = C
B1, _, B3, B4, B5, B6 = B
E1, _, E3, E4, E5, E6, E7 = E


def _rk_step(fun, t, y, f, h):
    """One Dormand-Prince step of size h from (t, y) with f = fun(t, y).

    Returns (y_new, f_new, K), K being the seven stage derivatives (the
    last is f_new).  Terms with a zero tableau entry are left out.
    """
    k1 = f
    k2 = fun(t + C2 * h, [v + (A21 * a) * h for v, a in zip(y, k1)])
    k3 = fun(t + C3 * h, [v + (A31 * a + A32 * b) * h
                          for v, a, b in zip(y, k1, k2)])
    k4 = fun(t + C4 * h, [v + (A41 * a + A42 * b + A43 * c) * h
                          for v, a, b, c in zip(y, k1, k2, k3)])
    k5 = fun(t + C5 * h, [v + (A51 * a + A52 * b + A53 * c + A54 * d) * h
                          for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
    k6 = fun(t + h, [v + (A61 * a + A62 * b + A63 * c + A64 * d
                          + A65 * e) * h
                     for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
    y_new = [v + h * (B1 * a + B3 * c + B4 * d + B5 * e + B6 * g)
             for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
    f_new = fun(t + h, y_new)
    return y_new, f_new, (k1, k2, k3, k4, k5, k6, f_new)


def _error_norm(K, h, y, y_new, rtol, atol):
    """RMS norm of the embedded error estimate, scaled by
    atol + rtol * max(|y|, |y_new|); NaN when a stage was NaN."""
    k1, _, k3, k4, k5, k6, k7 = K
    total = 0.0
    for v, vn, a, c, d, e, g, q in zip(y, y_new, k1, k3, k4, k5, k6, k7):
        v, vn = abs(v), abs(vn)
        x = ((E1 * a + E3 * c + E4 * d + E5 * e + E6 * g + E7 * q) * h
             / (atol + (v if v > vn else vn) * rtol))
        total += x * x
    return math.sqrt(total) / len(y) ** 0.5


def _dense_output(t_old, h, y_old, K):
    """The quartic interpolant over the step [t_old, t_old + h]."""
    Q = [[sum(k[i] * pj[m] for k, pj in zip(K, P) if pj[m])
          for m in range(4)] for i in range(len(y_old))]

    def y_at(t):
        x = (t - t_old) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        return [h * (q0 * x + q1 * x2 + q2 * x3 + q3 * x4) + v
                for (q0, q1, q2, q3), v in zip(Q, y_old)]
    return y_at


def integrate(fun, t_bound, y0, events, rtol, atol):
    """Integrate dy/dt = fun(t, y) from t = 0 toward t_bound (either
    sign) with the Dormand-Prince 5(4) pair.

    fun takes t and y as a list of floats and returns a sequence of
    floats.  Every event g(t, y) must be terminal: after each accepted
    step the events whose sign changed are located by brentq on the
    dense output, and the earliest root ends the run as its last
    sample.  A NaN derivative rejects the trial step, so a vector field
    that poisons points outside its domain shrinks the step instead of
    leaving the domain.  Returns a Solution.
    """
    for ev in events:
        if not getattr(ev, "terminal", False):
            raise ValueError("every event must be terminal")
    direction = 1.0 if t_bound > 0.0 else -1.0
    t = 0.0
    y = [float(v) for v in y0]
    f = fun(t, y)
    h_abs = _initial_step(fun, y, f, t_bound, direction, rtol, atol)
    ts, ys = [t], [y]
    t_events = [[] for _ in events]
    g = [ev(t, y) for ev in events]
    status = None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, K = _rk_step(fun, t, y, f, h)
            err = _error_norm(K, h, y, y_new, rtol, atol)
            if err < 1:
                if err == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            rejected = True
        if status == -1:
            break
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if direction * (t - t_bound) >= 0:
            status = 0
        g_new = [ev(t, y) for ev in events]
        active = [i for i, (a, b) in enumerate(zip(g, g_new))
                  if (a <= 0 and b >= 0) or (a >= 0 and b <= 0)]
        if active:
            y_at = _dense_output(t_old, h, y_old, K)
            roots = [brentq(lambda s, ev=events[i]: ev(s, y_at(s)),
                            t_old, t, xtol=4 * EPS, rtol=4 * EPS)
                     for i in active]
            # earliest root along the direction of integration; the
            # lower event index wins a tie
            j = min(range(len(roots)), key=lambda j: direction * roots[j])
            t_events[active[j]].append(roots[j])
            t, y = roots[j], y_at(roots[j])
            status = 1
        g = g_new
        ts.append(t)
        ys.append(y)
    return Solution(np.array(ts), np.array(ys).T, status,
                    [np.array(te) for te in t_events])
