"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload prints every metric named in BENCHMARK.json with its
unit, in both modes; the span tree is well formed; the benchmark refuses
to run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
         "--points", "2"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    out = bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    detail = json.loads(lines[-2])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    for key in ("nproc", "cpu", "python", "numpy", "scipy", "commit",
                "seed", "held_out_seed", "workers"):
        assert key in detail["provenance"]


def test_span_tree_well_formed():
    import tracing
    import workloads
    import numpy as np
    tr = tracing.Tracer()
    with tracing.installed(tr):
        workloads.WORKLOADS["bdn-scan"].run([0.3], 1)
        workloads.WORKLOADS["poly-endstates"].run([(3, 1.0, 0.5)], 1)
    assert tracing.span_tree_errors(tr) == []
    c = tr.columns()
    assert np.all(c["self_time"] >= 0.0)
    has = c["parent"] >= 0
    p = c["parent"][has]
    assert np.all(c["start"][p] <= c["start"][has])
    assert np.all(c["end"][has] <= c["end"][p])
    assert tr.points == 2
    names = set(c["names"])
    assert {"scan.run_scan", "point", "profile_dynamics.planar_rhs",
            "dissipation.matrix", "fluid_core.flux",
            "fluid_core.theta_of_rho"} <= names
    # a planar_rhs span's self time excludes its matrix and flux children
    rhs = c["names"].index("profile_dynamics.planar_rhs")
    m = c["name"] == rhs
    assert np.all(c["self_time"][m] < c["dur"][m])


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(tmp_path, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
