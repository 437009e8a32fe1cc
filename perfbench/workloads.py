"""The three benchmark workloads: seeded inputs, one batch run, output checks.

A workload is a closed loop with one client: the next batch starts when
the previous one has returned.  A batch of the two scan workloads is one
`run_scan` call; a batch of `poly-endstates` is one `shockscan rh` flow
per EOS coefficient.  Inputs are stratified (one draw per equal cell of
each range, in seed-shuffled order) so every batch spans the whole input
range and the mean cost per point barely depends on the seed.
"""

import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from shockscan import fluid_core, rankine_hugoniot, scan

# Onset of oscillation for BDN (eta, mu, nu) = (1, 4/3, 4) at q1 = 1:
# the downstream rest point turns into a spiral at s* = 4/49.
S_STAR = 4.0 / 49.0

# The connection event fires at distance tol_conn * amplitude from the
# far rest state; solve_ivp locates it to about 1e-10 relative, so the
# endpoint error may exceed tol_conn by that much.
TOL_CONN = 1e-6
EVENT_SLACK = 1e-6

POLY_TEXT = "p(theta) = 1/3*theta^4 + {k}/10*theta^3"


def stratified(rng, lo, hi, n):
    """One uniform draw in each of n equal cells of (lo, hi), shuffled."""
    u = (np.arange(n) + 1.0 - rng.random(n)) / n
    return [float(v) for v in lo + (hi - lo) * u[rng.permutation(n)]]


@dataclass
class BatchRun:
    wall: float          # seconds, benchmark clock around the whole batch
    point_walls: list    # seconds per point
    output: object       # what the workload's check reads


class ScanWorkload:
    """Strength scan through `run_scan`; one batch is one scan."""

    def __init__(self, name, model_tag, co, q1_values, lo, hi, points,
                 pool, overrides, setup_code):
        self.name = name
        self.model_tag = model_tag
        self.co = co
        self.q1_values = q1_values
        self.lo, self.hi = lo, hi
        self.points = points          # strengths per batch
        self.pool = pool              # whether the workload uses 2 workers
        self.overrides = overrides
        self.setup_code = setup_code

    def workers(self, nproc):
        return min(2, nproc) if self.pool else 1

    def batch(self, rng, points=None):
        return sorted(stratified(rng, self.lo, self.hi, points or self.points))

    def run(self, strengths, workers):
        t0 = time.perf_counter()
        res = scan.run_scan("radiation", self.model_tag, self.co,
                            self.q1_values, strengths, workers=workers,
                            **self.overrides)
        wall = time.perf_counter() - t0
        return BatchRun(wall, [r.wall_time for r in res.records], res)

    def signature(self, out):
        """Exact per-point outputs that must repeat between runs."""
        return [(r.q1, r.strength, r.classification, r.n_steps)
                for r in out.records]

    def records(self, out):
        return out.records


class BdnScan(ScanWorkload):
    def check(self, res):
        """Every point connects; monotone exactly below s*; the
        non-monotone set is an upper range of the batch."""
        bad = []
        for r in res.records:
            want = ("connected_monotone" if r.strength < S_STAR
                    else "connected_oscillatory")
            if r.classification != want:
                bad.append(f"s={r.strength!r}: {r.classification} "
                           f"({r.reason}), expected {want}")
        _, contiguous = res.upper_range_threshold()
        if not contiguous and not bad:
            bad.append("non-monotone strengths are not an upper range")
        return bad


class FtHeatGrid(ScanWorkload):
    def check(self, res):
        """Every point connected_monotone with both endpoint errors
        within tol_conn."""
        bad = []
        limit = TOL_CONN * (1.0 + EVENT_SLACK)
        for r in res.records:
            if r.classification != "connected_monotone":
                bad.append(f"q1={r.q1} s={r.strength!r}: "
                           f"{r.classification} ({r.reason})")
            elif not (r.endpoint_left <= limit and r.endpoint_right <= limit):
                bad.append(f"q1={r.q1} s={r.strength!r}: endpoint errors "
                           f"{r.endpoint_left:.3e}, {r.endpoint_right:.3e}")
        return bad


class PolyEndStates:
    """End states on p = theta^4/3 + c theta^3, one op per `rh` call."""

    name = "poly-endstates"
    points = 9       # one op per c in {1..9}/10
    setup_code = ("from shockscan import fluid_core\n"
                  "fluid_core.parse_eos_expression("
                  + repr(POLY_TEXT.format(k=5)) + ")\n")

    def workers(self, nproc):
        return 1

    def batch(self, rng, points=None):
        n = points or self.points
        perm = 1 + rng.permutation(9)
        ks = [int(perm[i % 9]) for i in range(n)]
        q1s = stratified(rng, 0.2, 8.0, n)
        ss = stratified(rng, 0.05, 0.98, n)
        return list(zip(ks, q1s, ss))

    def run(self, ops, workers):
        out, walls = [], []
        t0 = time.perf_counter()
        for k, q1, s in ops:
            tp = time.perf_counter()
            try:
                sd = rh_op(k, q1, s)
            except Exception as exc:   # the check counts it as failed
                sd = exc
            walls.append(time.perf_counter() - tp)
            out.append(((k, q1, s), sd))
        return BatchRun(time.perf_counter() - t0, walls, out)

    def signature(self, out):
        return [(inp, repr(sd) if isinstance(sd, Exception)
                 else (sd.rho_minus, sd.rho_plus)) for inp, sd in out]

    def records(self, out):
        return []

    def check(self, out):
        """Oracle: the temperature-parametrized jump function has exactly
        two crossings, matching rho_minus and rho_plus to 1e-8, and the
        shock is Lax."""
        bad = []
        for (k, q1, s), sd in out:
            if isinstance(sd, Exception):
                bad.append(f"c={k}/10 q1={q1!r} s={s!r}: raised {sd!r}")
                continue
            roots = oracle_roots(k / 10.0, q1, sd.q0 ** 2 - sd.q1 ** 2)
            if len(roots) != 2:
                bad.append(f"c={k}/10 q1={q1!r} s={s!r}: oracle found "
                           f"{len(roots)} crossings")
                continue
            err = max(abs(got - want) / max(1.0, abs(want))
                      for got, want in zip(roots, (sd.rho_minus,
                                                   sd.rho_plus)))
            if not err < 1e-8:
                bad.append(f"c={k}/10 q1={q1!r} s={s!r}: end states off "
                           f"the oracle by {err:.2e}")
            elif not sd.lax:
                bad.append(f"c={k}/10 q1={q1!r} s={s!r}: not a Lax shock")
        return bad


def rh_op(k, q1, s):
    """One `shockscan rh` flow: parse the EOS, then solve the end states."""
    eos = fluid_core.parse_eos_expression(POLY_TEXT.format(k=k))
    return rankine_hugoniot.shock_from_strength(eos, q1, s)


def oracle_roots(c, q1, r):
    """Energy densities where g = r, for p(theta) = theta^4/3 + c theta^3.

    Written out in temperature, with nothing shared with the production
    root isolation: rho(theta) = theta^4 + 2 c theta^3 and
    g = -rho p + q1 (rho - p).  Sign changes of g - r are counted on a
    1e4-point geometric grid up to theta_bar, where p(theta_bar) = q1,
    and each is refined by brentq.
    """
    def p(t):
        return t ** 4 / 3.0 + c * t ** 3

    def rho(t):
        return t ** 4 + 2.0 * c * t ** 3

    def g(t):
        return -rho(t) * p(t) + q1 * (rho(t) - p(t)) - r

    hi = 1.0
    while p(hi) < q1:
        hi *= 2.0
    t_bar = brentq(lambda t: p(t) - q1, 0.0, hi, xtol=1e-300, rtol=8.9e-16)
    ts = np.geomspace(t_bar * 1e-3, t_bar, 10_000)
    cells = np.nonzero(np.diff(np.sign(g(ts))) != 0)[0]
    return [rho(brentq(g, ts[i], ts[i + 1], xtol=1e-300, rtol=8.9e-16))
            for i in cells]


def _scan_setup(tag, kw):
    return ("from shockscan import fluid_core, dissipation\n"
            "eos = fluid_core.make_eos('radiation')\n"
            f"dissipation.make_model({tag!r}, eos, {kw})\n")


WORKLOADS = {
    "bdn-scan": BdnScan(
        "bdn-scan", "bdn", {"eta": 1.0, "mu": 4.0 / 3.0, "nu": 4.0}, [1.0],
        0.02, 0.98, points=8, pool=False, overrides={},
        setup_code=_scan_setup("bdn", "eta=1.0, mu=4/3, nu=4.0")),
    "ft-heat-grid": FtHeatGrid(
        "ft-heat-grid", "ft-heat", {"eta": 1.0, "chi": 0.5},
        [0.5, 3.0, 10.0], 0.05, 0.95, points=10, pool=True,
        overrides=dict(method="LSODA", rtol=1e-9, atol=1e-11,
                       tol_conn=TOL_CONN),
        setup_code=_scan_setup("ft-heat", "eta=1.0, chi=0.5")),
    "poly-endstates": PolyEndStates(),
}

# Batches in one traced pass: a fixed input size, so that exact counts
# compare across commits whatever their speed.
TRACE_BATCHES = {"bdn-scan": 2, "ft-heat-grid": 1, "poly-endstates": 2}
