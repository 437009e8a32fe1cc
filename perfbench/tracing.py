"""Timing spans around the public functions of the shockscan layers.

Wrappers are installed from outside the package, under the name each
caller looks the function up by: `scan` imports `shock_from_strength` by
name, so `scan.shock_from_strength` is patched; `profile_dynamics`
imports `flux` by name, so `profile_dynamics.flux` is patched as well as
`fluid_core.flux`.  Methods are patched on the class that defines them.

Each span records name, start, end, parent span and point id; spans
live in flat arrays until the run ends.  Tracing is serial only: spans
recorded in pool workers would not come back to the parent.
"""

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

from shockscan import (dissipation, fluid_core, profile_dynamics,
                       rankine_hugoniot, scan)

import workloads

# (owner, attribute, span name); the point span opens a new point id
PATCHES = (
    (fluid_core.BarotropicEos, "theta_of_rho", "fluid_core.theta_of_rho"),
    (fluid_core.MonomialEos, "theta_of_rho", "fluid_core.theta_of_rho"),
    (scan, "make_eos", "fluid_core.make_eos"),
    (fluid_core, "parse_eos_expression", "fluid_core.parse_eos_expression"),
    (fluid_core, "flux", "fluid_core.flux"),
    (profile_dynamics, "flux", "fluid_core.flux"),
    (scan, "shock_from_strength", "rankine_hugoniot.shock_from_strength"),
    (rankine_hugoniot, "shock_from_strength",
     "rankine_hugoniot.shock_from_strength"),
    (rankine_hugoniot, "end_states", "rankine_hugoniot.end_states"),
    (rankine_hugoniot, "q_max", "rankine_hugoniot.q_max"),
    (rankine_hugoniot, "rho_bar", "rankine_hugoniot.rho_bar"),
    (dissipation.DissipationModel, "matrix", "dissipation.matrix"),
    (profile_dynamics, "planar_rhs", "profile_dynamics.planar_rhs"),
    (scan, "shoot_heteroclinic", "profile_dynamics.shoot_heteroclinic"),
    (scan, "run_scan", "scan.run_scan"),
    (scan, "_scan_point", "point"),
    (workloads, "rh_op", "point"),
)


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.point = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._point = -1
        self.points = 0

    def __len__(self):
        return len(self.start)

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, nid, opens_point, fn, args, kwargs):
        """Run fn inside a span; a point span opens a new point id."""
        outer_point = self._point
        if opens_point:
            self._point = self.points
            self.points += 1
        stack = self._stack
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.point.append(self._point)
        self.start.append(0.0)
        self.end.append(0.0)
        stack.append(i)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            self.start[i] = t0
            stack.pop()
            self._point = outer_point

    def columns(self):
        """Spans as numpy arrays: names, name id, parent, point, start,
        end, self time (duration minus the child spans it contains)."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dict(names=list(self.names),
                    name=np.frombuffer(self.name, dtype=np.int32),
                    parent=parent,
                    point=np.frombuffer(self.point, dtype=np.int32),
                    start=start, end=end, dur=dur, self_time=dur - child)

    def totals(self):
        """{span name: (calls, total seconds, total self seconds)}."""
        c = self.columns()
        out = {}
        for nid, nm in enumerate(c["names"]):
            m = c["name"] == nid
            out[nm] = (int(m.sum()), float(c["dur"][m].sum()),
                       float(c["self_time"][m].sum()))
        return out

    def write_csv(self, path):
        c = self.columns()
        t0 = float(c["start"].min()) if len(c["start"]) else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,point,name,start_us,end_us,self_us\n")
            for i in range(len(c["dur"])):
                fh.write("%d,%d,%d,%s,%.3f,%.3f,%.3f\n" % (
                    i, c["parent"][i], c["point"][i],
                    c["names"][c["name"][i]],
                    (c["start"][i] - t0) * 1e6, (c["end"][i] - t0) * 1e6,
                    c["self_time"][i] * 1e6))


def span_tree_errors(tracer):
    """Well-formedness of the span tree: children nest inside their
    parents and share the parent's point (unless they open one), self
    time is at least 0.  Returns one message per kind of violation."""
    c = tracer.columns()
    i = np.nonzero(c["parent"] >= 0)[0]
    p = c["parent"][i]
    opens = c["name"][i] == c["names"].index("point") \
        if "point" in c["names"] else np.zeros(len(i), bool)
    checks = {
        "not nested in its parent": ~((c["start"][p] <= c["start"][i])
                                      & (c["start"][i] <= c["end"][i])
                                      & (c["end"][i] <= c["end"][p])),
        "on another point than its parent":
            ~opens & (c["point"][i] != c["point"][p]),
    }
    errors = [f"{int(m.sum())} spans {what}" for what, m in checks.items()
              if m.any()]
    neg = int((c["self_time"] < 0.0).sum())
    if neg:
        errors.append(f"{neg} spans with negative self time")
    return errors


def _wrapper(tracer, name, fn):
    nid, opens_point = tracer.name_id(name), name == "point"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(nid, opens_point, fn, args, kwargs)
    return traced


@contextmanager
def installed(tracer):
    """Patch every entry of PATCHES for the duration of the block."""
    saved = []
    try:
        for owner, attr, name in PATCHES:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(tracer, name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
