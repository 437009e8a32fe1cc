"""Strength scans: classify profiles over a grid of shocks.

One scan fixes an EOS, a dissipation model, and a list of momentum
fluxes, then walks a strength grid for each flux.  Points are
independent, so the scan parallelizes over processes; records are
emitted in deterministic lexicographic (q1, strength) order regardless
of worker count, and the CSV contains no timing so repeated runs are
byte-identical.

Pooled scans share one process pool, which lives as long as the
interpreter: the first pooled scan starts it, and a later one replaces
it only for another worker count or after a worker died.  Workers are
forked, so they see module state as it was when the pool started; a
change made after that, such as a monkeypatched tolerance, does not
reach them.
"""

import csv
import json
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from .fluid_core import make_eos
from .rankine_hugoniot import NoShock, shock_from_strength
from .dissipation import make_model, CausalityError
from .profile_dynamics import (_check_shared_eos, scalar_profile_ft,
                               shoot_heteroclinic)
from .rk45 import _default_settings

NAN = float("nan")


def _eig_summary(report):
    if report is None:
        return ""
    return ";".join("%.9g%+.9gi" % (l.real, l.imag)
                    for l in report.eigenvalues)


@dataclass
class ScanRecord:
    q1: float
    strength: float
    q0: float = NAN
    rho_minus: float = NAN
    rho_plus: float = NAN
    classification: str = ""
    width: float = None
    n_steps: int = 0
    arclength: float = 0.0
    endpoint_left: float = None
    endpoint_right: float = None
    eig_minus: str = ""
    eig_plus: str = ""
    reason: str = ""
    wall_time: float = field(default=0.0, compare=False)

    # wall_time stays out of the CSV so repeated scans are byte-identical
    CSV_FIELDS = ("q1", "strength", "q0", "rho_minus", "rho_plus",
                  "classification", "width", "n_steps", "arclength",
                  "endpoint_left", "endpoint_right", "eig_minus",
                  "eig_plus", "reason")

    def csv_row(self):
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return "%.17g" % v
            return str(v)
        return [fmt(getattr(self, f)) for f in self.CSV_FIELDS]


def compute_profile(shock, model, **overrides):
    """Profile of one shock under one dissipation model.

    The viscous-only tensor reduces to a scalar ODE solved by
    quadrature; every other tensor is shot along the saddle
    separatrix.  overrides are solver settings (rtol, atol, tol_conn,
    method); the CLI and every scan point come through here.  Raises
    ValueError when the model is bound to another EOS than the shock.
    """
    _check_shared_eos(shock, model)
    if model.tag == "ft-viscous":
        return scalar_profile_ft(shock, model.co, **overrides)
    return shoot_heteroclinic(shock, model, **overrides)


def _scan_point(eos, model, overrides, q1, strength):
    """Classify one (q1, strength) point of a scan of eos and model."""
    t0 = time.perf_counter()
    try:
        shock = shock_from_strength(eos, q1, strength)
    except NoShock as exc:
        return ScanRecord(q1, strength, classification="no_end_states",
                          reason=str(exc),
                          wall_time=time.perf_counter() - t0)
    rec = ScanRecord(q1, strength, shock.q0, shock.rho_minus,
                     shock.rho_plus, "")
    try:
        res = compute_profile(shock, model, **overrides)
    except CausalityError as exc:
        rec.classification = "causality_error"
        rec.reason = str(exc)
        rec.wall_time = time.perf_counter() - t0
        return rec
    rec.classification = res.classification
    rec.width = res.width
    rec.n_steps = res.n_steps
    rec.arclength = res.arclength
    rec.endpoint_left = res.endpoint_errors.get("left")
    rec.endpoint_right = res.endpoint_errors.get("right")
    by_label = {rp.label: rp for rp in res.rest_points}
    rec.eig_minus = _eig_summary(by_label.get("minus"))
    rec.eig_plus = _eig_summary(by_label.get("plus"))
    rec.reason = res.reason
    rec.wall_time = time.perf_counter() - t0
    return rec


# the pool that serves every pooled scan of this process and its
# worker count; the first pooled scan creates it, and concurrent.futures
# joins it at interpreter exit
_pool = None
_pool_workers = 0

# in a pool worker: the pickled (eos, model, overrides) of the scan it
# served last, and that context unpickled
_context = None, None


def _pooled_point(job):
    """_scan_point in a pool worker, for job = (context, q1, strength)
    with context the pickled (eos, model, overrides) of its scan, which
    the worker unpickles once per scan; top level so it pickles."""
    global _context
    blob, q1, strength = job
    if blob != _context[0]:
        _context = blob, pickle.loads(blob)
    return _scan_point(*_context[1], q1, strength)


def _pool_map(n, jobs):
    """_pooled_point over jobs, in order, on the module's pool of n
    workers.  A pool of another worker count is replaced; so is a pool
    that lost a worker, and the scan then runs once more on the new
    one."""
    global _pool, _pool_workers
    for retry in (False, True):
        if _pool is not None and _pool_workers != n:
            _pool.shutdown()
            _pool = None
        if _pool is None:
            _pool, _pool_workers = ProcessPoolExecutor(max_workers=n), n
        try:
            return list(_pool.map(_pooled_point, jobs, chunksize=1))
        except BrokenProcessPool:
            _pool.shutdown()
            _pool = None
            if retry:
                raise


class ScanResult:
    def __init__(self, eos_spec, model_tag, co, q1_values, strengths,
                 records, wall_time):
        self.eos_spec = eos_spec
        self.model_tag = model_tag
        self.co = co
        self.q1_values = list(q1_values)
        self.strengths = list(strengths)
        self.records = records
        self.wall_time = wall_time

    def counts(self):
        out = {}
        for r in self.records:
            out[r.classification] = out.get(r.classification, 0) + 1
        return out

    def failures(self):
        return [r for r in self.records if not
                r.classification.startswith("connected")]

    def first_oscillatory(self):
        """Smallest strength classified oscillatory, or None."""
        osc = [r.strength for r in self.records
               if r.classification == "connected_oscillatory"]
        return min(osc) if osc else None

    def upper_range_threshold(self):
        """Onset of non-monotone behavior along the strength axis.

        Returns (s_star, contiguous): s_star is the smallest strength
        whose record is not connected_monotone (None if all are), and
        contiguous says whether every strength above s_star also fails
        to be connected_monotone, i.e. whether the non-monotone set is
        an upper range of the grid.  Meaningful for single-q1 scans.
        """
        recs = sorted(self.records, key=lambda r: (r.q1, r.strength))
        flags = [r.classification != "connected_monotone" for r in recs]
        if not any(flags):
            return None, True
        i = flags.index(True)
        return recs[i].strength, all(flags[i:])

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(ScanRecord.CSV_FIELDS)
            for r in self.records:
                wr.writerow(r.csv_row())

    def summary_dict(self):
        s_star, contiguous = self.upper_range_threshold()
        return {
            "eos": self.eos_spec,
            "model": self.model_tag,
            "coefficients": self.co,
            "q1_values": self.q1_values,
            "strengths": self.strengths,
            "records": len(self.records),
            "counts": self.counts(),
            "threshold_strength": s_star,
            "upper_range_contiguous": contiguous,
            "failures": [
                {"q1": r.q1, "strength": r.strength,
                 "classification": r.classification, "reason": r.reason}
                for r in self.failures()],
            "wall_time_s": self.wall_time,
            "note": ("grid classification is numerical evidence "
                     "consistent with the observed behavior, not a proof"),
        }

    def write_summary(self, path):
        with open(path, "w") as fh:
            json.dump(self.summary_dict(), fh, indent=2)
            fh.write("\n")


def run_scan(eos_spec, model_tag, co, q1_values, strengths,
             workers=None, **overrides):
    """Classify every (q1, strength) grid point on `workers` processes
    (None means 1), and never on more processes than points.

    The EOS and the model are built once, before any point, so a
    `file:` EOS is read once per scan, here.  A pooled scan pickles
    them with the solver settings once and sends that context by value
    with each point; a worker unpickles it once per scan.  The pool's
    workers outlive the scan (see the module docstring).  The grid is
    traversed in lexicographic order and results keep that order
    whatever the worker count.  A point that fails is recorded, never
    fatal; an invalid EOS, model or solver setting raises before any
    point runs.
    """
    method = _default_settings(**overrides)["method"]
    grid = [(float(q1), float(s)) for q1 in q1_values for s in strengths]
    if not grid:
        raise ValueError("empty scan grid")
    n = min(max(1, int(workers or 1)), len(grid))
    t0 = time.perf_counter()
    # one EOS and model per scan: a file: EOS is read once, here, and
    # again by the next scan
    eos = make_eos(eos_spec)
    model = make_model(model_tag, eos, **co)
    if n == 1:
        records = [_scan_point(eos, model, overrides, *p) for p in grid]
    else:
        if method == "LSODA":
            # import scipy's LSODA here, so that workers forked by this
            # scan inherit it instead of each importing it
            import scipy.integrate  # noqa: F401
        blob = pickle.dumps((eos, model, overrides))
        records = _pool_map(n, [(blob, *p) for p in grid])
    wall = time.perf_counter() - t0
    return ScanResult(eos_spec, model_tag, dict(co), q1_values, strengths,
                      records, wall)
