"""One event loop over Python floats for the two integration methods.

`integrate` runs the autonomous system dy/dt = fun(y, *args) with events
under RK45 or LSODA, backward toward a negative t_bound.  It takes
accepted steps from a step source, evaluates the events, one function
returning a tuple of floats, once per accepted step and ends the run at
the earliest root: every event ends the run, as a terminal event of
scipy's `solve_ivp` does, without `solve_ivp`'s per-step array work.
The Solution names the event that ended the run.  Under `arclength` the
integrator also keeps the orbit's arclength, a quadrature outside the
error test that sets no step size.

RK45 steps come from the package's own Dormand-Prince 5(4) pair, the
scheme of scipy's `RK45` step for step: the same tableau, initial step
selection, step-size controller and step-size underflow rule.  It takes
the same steps as `solve_ivp(method="RK45")` up to roundoff in the sums
when scipy's norms run over the same components.  Its states are lists
of floats rather than arrays: for the two- and three-component profile
systems numpy's per-call overhead on tiny vectors cost more than the
arithmetic it carries out.

LSODA, for stiff systems, is built as scipy's `LSODA` (tolerance
checks, first step, tcrit = t_bound) and then stepped through its
ODEPACK integrator, the call `LSODA.step` makes without the `OdeSolver`
layers around it; its dense output is built only when an event fires.
Only an LSODA run imports `scipy.integrate`; events are located by the
package's own `brentq`, so an RK45 run imports no scipy module.  numpy
is imported when a run builds its sample arrays, so the solver settings
below load without it.
"""

import functools
import math
import sys
from collections import namedtuple

from .brent import brentq

# every method integrate runs: RK45 is the float stepper below, LSODA
# scipy.integrate's solver of that name
METHODS = ("RK45", "LSODA")

# the profile solver settings a caller may set, with their defaults
SETTINGS = {"rtol": 1e-10, "atol": 1e-12, "tol_conn": 1e-6, "method": "RK45"}


def _default_settings(**overrides):
    """SETTINGS with the overrides that are not None; an unknown setting
    raises TypeError and an unknown method ValueError."""
    s = dict(SETTINGS)
    for k, v in overrides.items():
        if k not in s:
            raise TypeError(f"unknown solver setting {k!r}")
        if v is not None:
            s[k] = v
    if s["method"] not in METHODS:
        raise ValueError(f"unknown integrator {s['method']!r} "
                         f"(one of {', '.join(METHODS)})")
    return s


# Butcher tableau (A, B; autonomous fields need no C), error weights E
# and the quartic dense output P of the Dormand-Prince pair, as in
# scipy.integrate.RK45
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

# LSODA's absolute tolerance for the arclength.  ODEPACK weighs
# component i by 1/(atol_i + rtol |y_i|) in every norm it takes, so
# this weight is as good as zero.  It must be finite: math.inf took
# 17,885 steps on the test_02 ft-heat grid, where 1e6, 1e30, 1e100 and
# 1e300 all took 11,150.
QUADRATURE_ATOL = 1e300

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
# the error estimate is of order 4: steps scale with error^(-1/5)
ERROR_EXPONENT = -1 / 5
EPS = sys.float_info.epsilon

Solution = namedtuple("Solution", "t y status event")
Solution.__doc__ = """What integrate returns, whatever the method:
samples t (shape (N,)) and y (shape (n, N)), status 0 (reached
t_bound), 1 (an event ended the run) or -1 (the step size underflowed,
or LSODA failed or met a state that is not finite), and event, the
index of the event that ended the run (its root is the last sample
t[-1]) or None."""


def _rms(v):
    return math.sqrt(sum(x * x for x in v)) / len(v) ** 0.5


def _initial_step(fun, args, y0, f0, t_bound, direction, rtol, atol, q):
    """scipy's select_initial_step for an explicit order-4 error
    estimate, starting at t = 0 with no step limit, its RMS norms taken
    over the components in the error test, y0[q:], whose field f0 is."""
    interval = abs(t_bound)
    scale = [atol + abs(v) * rtol for v in y0[q:]]
    d0 = _rms([v / s for v, s in zip(y0[q:], scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval)
    dh = h0 * direction
    f1 = fun([v + dh * fv for v, fv in zip(y0[q:], f0)], *args)
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


@functools.cache
def _stepper(n, arclength):
    """The Dormand-Prince step for states of n components, the first of
    them the arclength when `arclength` is set.

    step(fun, args, y, f, h, rtol, atol) takes one step of size h from
    y and returns (y_new, f_new, K, err), f and f_new being fun(w, *args)
    at y and y_new, w the components past the arclength.  K holds the
    seven stage derivatives of y, the arclength's copysign(|dw/dt|, h),
    so h times its weighted sum is |h| times that of the speeds, either
    way.  err is the RMS norm, over w, of the embedded error estimate
    scaled by atol + rtol * max(|y|, |y_new|), NaN when a stage was NaN.

    The source is generated from the tableau with every component
    written out, so that a stage costs no zip or list comprehension.
    Each sum runs over the tableau in order, leaving out the terms with
    a zero entry, and the tableau entries are written as float literals.
    """
    q = 1 if arclength else 0

    def names(stem):
        return [f"{stem}_{i}" for i in range(n)]

    def combo(weights, i):
        return " + ".join(f"{w!r} * k{j}_{i}"
                          for j, w in enumerate(weights, 1) if w)

    def field(terms):
        return f"fun([{', '.join(terms)}], *args)"

    def stage(j, value):
        ks = names(f"k{j}")
        lines = [f"    {', '.join(ks[q:])}, = {value}"]
        if q:
            lines.append(f"    k{j}_0 = copysign(hypot("
                         f"{', '.join(ks[1:])}), h)")
        return lines

    lines = ["def step(fun, args, y, f, h, rtol, atol):",
             f"    {', '.join(names('y'))}, = y", *stage(1, "f")]
    for j in range(2, 7):
        lines += stage(j, field(f"y_{i} + ({combo(A[j - 1], i)}) * h"
                                for i in range(q, n)))
    lines += [f"    n_{i} = y_{i} + h * ({combo(B, i)})" for i in range(n)]
    lines += stage(7, field(names("n")[q:]))
    for i in range(q, n):
        lines += [f"    v, vn = abs(y_{i}), abs(n_{i})",
                  f"    x_{i} = (({combo(E, i)}) * h"
                  f" / (atol + (v if v > vn else vn) * rtol))"]
    squares = " + ".join(f"x_{i} * x_{i}" for i in range(q, n))
    stages = ", ".join(f"({', '.join(names(f'k{j}'))},)" for j in range(1, 8))
    lines += [f"    err = sqrt({squares}) / {(n - q) ** 0.5!r}",
              f"    return ([{', '.join(names('n'))}],"
              f" ({', '.join(names('k7')[q:])},), ({stages}), err)"]
    namespace = dict(sqrt=math.sqrt, hypot=math.hypot, copysign=math.copysign)
    exec(compile("\n".join(lines), f"<rk45 step, n={n}, q={q}>", "exec"),
         namespace)
    return namespace["step"]


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


def _dormand_prince(fun, t_bound, y, rtol, atol, args=(), arclength=False):
    """Accepted Dormand-Prince 5(4) steps of dy/dt = fun(y, *args) from
    (0, y) toward t_bound, y leading with the arclength under `arclength`.

    Yields (t, y, data) per accepted step, _dense_output(*data) being
    the quartic interpolant over it, and stops early when the step size
    underflows.  A NaN derivative rejects the trial step (its error is
    not < 1), so a vector field that poisons points outside its domain
    shrinks the step instead of leaving the domain.
    """
    q = 1 if arclength else 0
    direction = 1.0 if t_bound > 0.0 else -1.0
    t = 0.0
    f = fun(y[q:], *args)
    h_abs = _initial_step(fun, args, y, f, t_bound, direction, rtol, atol, q)
    step = _stepper(len(y), arclength)
    while direction * (t - t_bound) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, K, err = step(fun, args, y, f, h, rtol, atol)
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
        yield t_new, y_new, (t, h, y, K)
        t, y, f = t_new, y_new, f_new


def _lsoda_steps(solver, f):
    """Accepted steps of a scipy LSODA solver, as (t, y as a list of
    floats, (solver, t_old, t)), _lsoda_dense_output(*data) being the
    interpolant over the step.

    Each step is the call LSODA.step makes to the ODEPACK integrator,
    itask 5 (one step, never past tcrit = t_bound), with the vector
    field f(t, y as an array), without the OdeSolver layers around it:
    the same steps and states, bit for bit.  Stops when the integrator
    fails, and before the first state that is not finite: ODEPACK's
    error test (the error norm > 1) passes a NaN, so unchecked a
    poisoned step would be accepted and carried to t_bound.  Raises
    RuntimeError, before the first step, when this scipy lacks one of
    the private names read here.
    """
    ode = _private(solver, "_lsoda_solver")
    integrator = _private(ode, "_integrator")
    run = _private(integrator, "run")
    _private(integrator, "call_args")[2] = 5
    y, t, t_bound = _private(ode, "_y"), solver.t, solver.t_bound
    while True:
        t_old = t
        y, t = run(f, _no_jacobian, y, t, t_bound, (), ())
        if not integrator.success:
            return
        y_list = y.tolist()
        if not all(map(math.isfinite, y_list)):
            return
        yield t, y_list, (solver, t_old, t)


def _private(obj, name):
    """obj.name, a private scipy name that LSODA stepping reads; one
    RuntimeError naming the scipy version and the name when it is
    missing (the names are those of scipy 1.17.1)."""
    try:
        return getattr(obj, name)
    except AttributeError:
        import scipy
        raise RuntimeError(
            f"scipy {scipy.__version__} has no {type(obj).__name__}.{name}, "
            f"which LSODA stepping reads (written against scipy 1.17.1)"
        ) from None


def _no_jacobian():
    """The jac argument of an integrator run without a Jacobian."""


def _lsoda_dense_output(solver, t_old, t):
    """LSODA's interpolant over the step [t_old, t]: the solver's
    dense_output, whose Nordsieck history is that of its last step."""
    solver.t_old, solver.t = t_old, t
    return solver.dense_output()


def integrate(fun, t_bound, y0, events, rtol, atol, method="RK45",
              args=(), arclength=False):
    """Integrate the autonomous system dy/dt = fun(y, *args) from t = 0
    toward t_bound, backward when it is negative, with RK45 or LSODA.

    fun takes y as a list of floats and returns a sequence of floats,
    whatever the method.  events(t, y) returns a tuple of floats, one
    per event, and is evaluated once per accepted sample.  Every event
    ends the run: after each accepted step the events whose sign changed
    (g <= 0 then >= 0, or the reverse, as in solve_ivp) are located by
    brentq on the step's dense output, and the earliest root along the
    direction of integration ends the run as its last sample, the lower
    event index winning a tie.  Returns a Solution.

    With `arclength`, y[0] is the arclength of the orbit of y[1:], the
    components fun reads, and its derivative is sign(h) |fun(y[1:])|,
    from the same stages or LSODA callback, so it grows either way.  It
    is a quadrature, as in CVODES: outside the error test, so it sets no
    step size.  RK45 takes its RMS norms over the other m components,
    dividing by sqrt(m); LSODA's norm is a weighted max norm, in which
    its absolute tolerance QUADRATURE_ATOL weighs it out.  It leads the
    state for LSODA's sake: its column of the Newton matrix I - h l0 J
    is then a unit column, so partial pivoting takes its row first, with
    zero multipliers, and factors the other rows alone.  Trailing, its
    row could be chosen as a pivot and move the others in the last bits.

    Under LSODA the samples, status and event time are those of
    solve_ivp given the same atol, bit for bit, with one exception: the
    run ends with status -1 at the last finite sample where its error
    test would accept a state that is not finite (see _lsoda_steps).
    """
    direction = 1.0 if t_bound > 0.0 else -1.0
    t = 0.0
    y = [float(v) for v in y0]
    # steps yield (t, y, data); interpolant(*data) is the dense output
    # over the step, built only when an event fires
    if method == "RK45":
        steps = _dormand_prince(fun, t_bound, y, rtol, atol, args,
                                arclength)
        interpolant = _dense_output
    elif method == "LSODA":
        from scipy.integrate import LSODA
        q = 1 if arclength else 0

        def f(t, y):
            d = fun(y.tolist()[q:], *args)
            return (math.copysign(math.hypot(*d), direction), *d) if q else d
        if arclength:
            atol = [QUADRATURE_ATOL] + [atol] * (len(y) - 1)
        solver = LSODA(f, t, y0, t_bound, rtol=rtol, atol=atol)
        steps = _lsoda_steps(solver, f)
        interpolant = _lsoda_dense_output
    else:
        raise ValueError(f"unknown integrator {method!r}")
    ts, ys = [t], [y]
    event = None
    g = events(t, y)
    status = -1
    for t_new, y, data in steps:
        t_old, t = t, t_new
        if direction * (t - t_bound) >= 0:
            status = 0
        g_new = events(t, y)
        root = None
        for i, a in enumerate(g):
            b = g_new[i]
            if (a <= 0 and b >= 0) or (a >= 0 and b <= 0):
                if root is None:
                    y_at = interpolant(*data)
                r = brentq(lambda s: events(s, y_at(s))[i],
                           t_old, t, xtol=4 * EPS, rtol=4 * EPS)
                # earliest root along the direction of integration; the
                # lower event index wins a tie
                if root is None or direction * r < direction * root:
                    root, event = r, i
        if root is not None:
            t, y = root, y_at(root)
            status = 1
        g = g_new
        ts.append(t)
        ys.append(y)
        if status >= 0:
            break
    import numpy as np
    return Solution(np.array(ts), np.array(ys).T, status, event)
