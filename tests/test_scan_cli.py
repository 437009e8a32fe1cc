"""Grid scans and the command-line interface."""

import json
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from shockscan import (make_eos, make_model, parse_eos_expression,
                       profile_dynamics, rho_bar, run_scan, scan,
                       shock_from_strength)
from shockscan.fluid_core import linspace
from shockscan.scan import ScanRecord
from shockscan.cli import main

FT = {"eta": 1.0}
BDN_SHARP = {"eta": 1.0, "mu": 4.0 / 3.0, "nu": 4.0}


def small_scan(**kw):
    return run_scan("radiation", "ft-viscous", FT, [1.0, 2.0],
                    [0.3, 0.6], **kw)


# ------------------------------------------------------- scans

def test_scan_order_is_grid_product():
    res = small_scan()
    assert [(r.q1, r.strength) for r in res.records] == [
        (1.0, 0.3), (1.0, 0.6), (2.0, 0.3), (2.0, 0.6)]
    assert res.counts() == {"connected_monotone": 4}
    assert res.failures() == []


def test_scan_records_carry_diagnostics():
    res = small_scan()
    r = res.records[0]
    assert np.isfinite(r.q0) and r.rho_minus < r.rho_plus
    assert r.width > 0.0
    assert r.n_steps > 0
    assert r.endpoint_left < 2e-6 and r.endpoint_right < 2e-6
    # scalar reduction has a single eigenvalue per end state
    assert r.eig_minus.endswith("i") and r.eig_plus.endswith("i")
    assert r.wall_time > 0.0


def test_scan_eig_pairs_for_planar_models():
    res = run_scan("radiation", "bdn", BDN_SHARP, [1.0], [0.3])
    r = res.records[0]
    assert ";" in r.eig_minus and ";" in r.eig_plus


def test_scan_csv_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    small_scan().write_csv(a)
    small_scan().write_csv(b)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.startswith("q1,strength,q0")
    assert "wall_time" not in header


def test_scan_parallel_equals_serial(tmp_path):
    a, b = tmp_path / "serial.csv", tmp_path / "par.csv"
    small_scan(workers=1).write_csv(a)
    small_scan(workers=2).write_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_scan_never_aborts_on_bad_points():
    # negative flux admits no end states anywhere on the grid
    res = run_scan("radiation", "ft-viscous", FT, [-1.0], [0.3, 0.6])
    assert [r.classification for r in res.records] == ["no_end_states"] * 2
    assert all(r.reason for r in res.records)
    assert len(res.failures()) == 2
    d = res.summary_dict()
    assert d["counts"] == {"no_end_states": 2}
    assert len(d["failures"]) == 2
    # at s = 1 - 1e-8 the end states are lost to roundoff: the point is
    # recorded, and the scan goes on
    res = run_scan("radiation", "bdn", BDN_SHARP, [1.0], [0.5, 1 - 1e-8])
    assert [r.classification for r in res.records] == [
        "connected_oscillatory", "no_end_states"]
    assert res.records[1].reason


POLY_FILE = "p(theta) = 1/3*theta^4 + 1/2*theta^3\n"


@pytest.mark.parametrize("q1", [1e30, 1e-30])
def test_scan_records_end_states_outside_the_eos_range(tmp_path, q1):
    # at q1 = 1e30 and 1e-30, rho_bar (where p = q1) lies outside the
    # EOS validity range theta in [1e-6, 1e6]: that point has no end
    # states, and the scan goes on
    path = tmp_path / "poly.eos"
    path.write_text(POLY_FILE)
    res = run_scan(f"file:{path}", "ft-heat", {"eta": 1.0, "chi": 0.5},
                   [1.0, q1], [0.5], method="LSODA")
    assert [r.classification for r in res.records] == [
        "connected_monotone", "no_end_states"]
    assert res.records[1].reason.endswith("outside EOS validity range")


@pytest.mark.parametrize("flux", [
    ["--q1", "1e30", "--strength", "0.5"], ["--q1", "1e30", "--q0", "2e30"],
    ["--q1", "1e-30", "--strength", "0.5"], ["--q1", "1e-30", "--q0", "2e-30"],
], ids=["q1=1e30-strength", "q1=1e30-q0", "q1=1e-30-strength",
        "q1=1e-30-q0"])
def test_cli_rh_outside_the_eos_range_exit_two(tmp_path, capsys, flux):
    path = tmp_path / "poly.eos"
    path.write_text(POLY_FILE)
    assert main(["rh", "--eos", f"file:{path}", *flux]) == 2
    assert "outside EOS validity range" in capsys.readouterr().err
    # a malformed EOS file is still a configuration error
    path.write_text("p(theta) = 1/3*theta^x\n")
    assert main(["rh", "--eos", f"file:{path}", *flux]) == 1
    assert "cannot parse" in capsys.readouterr().err


def test_scan_records_refused_points(monkeypatch):
    # ft-heat at chi = 10 has sigma = 2 - 10 theta / 3 < 0 across this
    # shock: the point is causality_error, named, with no profile
    res = run_scan("radiation", "ft-heat", {"eta": 1.0, "chi": 10.0},
                   [1.0], [0.5])
    (rec,) = res.records
    assert rec.classification == "causality_error"
    assert rec.reason == ("effective viscosity sigma = -0.452201 <= 0 at "
                          "theta = 0.73566; the ft tensor is not "
                          "dissipative there")
    assert rec.n_steps == 0 and rec.width is None and rec.eig_minus == ""
    # a singular matrix at a rest point leaves no rest-point report;
    # with TOL_DET raised past any ratio |det M| / ||M||, every M is
    monkeypatch.setattr(profile_dynamics, "TOL_DET", 1e300)
    res = run_scan("radiation", "eckart",
                   {"eta": 1.0, "zeta": 1.0, "chi": 1.0}, [1.0], [0.5])
    (rec,) = res.records
    assert rec.classification == "singular_matrix"
    assert rec.eig_minus == rec.eig_plus == ""


def test_scan_leaves_width_blank_without_crossing():
    # at tol_conn 0.06 the profile stops at 6% of the jump, short of the
    # 5% density level: connected, with a blank width in scan.csv
    (rec,) = run_scan("radiation", "ft-viscous", FT, [1.0], [0.5],
                      tol_conn=0.06).records
    assert rec.classification == "connected_monotone"
    row = dict(zip(ScanRecord.CSV_FIELDS, rec.csv_row()))
    assert row["width"] == "" and int(row["n_steps"]) > 0


def sigma_ft(eos, chi, t):
    """sigma of the ft tensor at eta = 1, zeta = 0, written out."""
    c2 = eos.cs2(t)
    return 4.0 / 3.0 / (1.0 - c2) - c2 * chi * t


@pytest.mark.parametrize("eos_spec", ["radiation", "power-law:5/2"])
@pytest.mark.parametrize("chi", [0.1, 10.0])
def test_ft_heat_answers_only_where_dissipative(eos_spec, chi):
    # sigma > 0 between the end states: the profile is monotone, as the
    # paper claims; sigma <= 0 somewhere there: the point is refused.
    # LSODA, since explicit RK45 takes seconds on the stiff weak and
    # strong power-law shocks
    grid_q1, grid_s = [0.1, 1.0], [0.01, 0.5, 0.99]
    res = run_scan(eos_spec, "ft-heat", {"eta": 1.0, "chi": chi}, grid_q1,
                   grid_s, method="LSODA")
    eos = make_eos(eos_spec)
    outcomes = set()
    for rec in res.records:
        sd = shock_from_strength(eos, rec.q1, rec.strength)
        ts = np.linspace(sd.state_minus.theta, sd.state_plus.theta, 65)
        dissipative = min(sigma_ft(eos, chi, t) for t in ts) > 0.0
        want = "connected_monotone" if dissipative else "causality_error"
        assert rec.classification == want, (rec.q1, rec.strength)
        outcomes.add(rec.classification)
    if chi == 10.0:
        assert outcomes == {"connected_monotone", "causality_error"}


def test_scan_empty_grid():
    with pytest.raises(ValueError, match="empty scan grid"):
        run_scan("radiation", "ft-viscous", FT, [], [0.5])


def test_scan_threshold_upper_range():
    res = run_scan("radiation", "bdn", BDN_SHARP, [1.0],
                   [0.05, 0.3, 0.6, 0.9])
    s_star, contiguous = res.upper_range_threshold()
    assert s_star == 0.3
    assert contiguous
    assert res.first_oscillatory() == 0.3
    d = res.summary_dict()
    assert d["threshold_strength"] == 0.3
    assert d["upper_range_contiguous"] is True
    assert "not a proof" in d["note"]


def test_scan_point_is_picklable_unit(monkeypatch):
    # a pool worker receives each point as (context, q1, strength), with
    # the context the scan's EOS, model and settings pickled once, and
    # unpickles that context once per scan
    eos = make_eos("radiation")
    model = make_model("ft-viscous", eos, **FT)
    monkeypatch.setattr(scan, "_context", (None, None))
    blob = pickle.dumps((eos, model, {}))
    point = pickle.loads(pickle.dumps(scan._pooled_point))
    rec = point(pickle.loads(pickle.dumps((blob, 3.0, 0.5))))
    assert isinstance(rec, ScanRecord)
    assert rec.classification == "connected_monotone"
    assert rec == scan._scan_point(eos, model, {}, 3.0, 0.5)
    context = scan._context[1]
    assert point((blob, 3.0, 0.6)).strength == 0.6
    assert scan._context[1] is context


def pool_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


def alive(pid):
    """Whether pid names a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def csv_bytes(res, path):
    res.write_csv(path)
    return path.read_bytes()


def test_pooled_scans_share_one_pool(tmp_path):
    # two pooled scans in a row run on the same workers, and each
    # writes the serial scan.csv
    serial = csv_bytes(small_scan(workers=1), tmp_path / "serial.csv")
    first = csv_bytes(small_scan(workers=2), tmp_path / "first.csv")
    pids = pool_pids()
    second = csv_bytes(small_scan(workers=2), tmp_path / "second.csv")
    assert len(pids) == 2 and pool_pids() == pids
    assert first == second == serial


def test_pool_replaced_for_another_worker_count(tmp_path):
    serial = csv_bytes(small_scan(workers=1), tmp_path / "serial.csv")
    small_scan(workers=2)
    two = pool_pids()
    assert csv_bytes(small_scan(workers=3), tmp_path / "three.csv") == serial
    three = pool_pids()
    assert len(two) == 2 and len(three) == 3
    assert not set(two) & set(three)


def test_pool_survives_a_killed_worker(tmp_path):
    # a worker killed between two scans breaks the pool; the next
    # pooled scan replaces it and completes
    serial = csv_bytes(small_scan(workers=1), tmp_path / "serial.csv")
    small_scan(workers=2)
    pids = pool_pids()
    os.kill(pids[0], signal.SIGKILL)
    assert csv_bytes(small_scan(workers=2), tmp_path / "after.csv") == serial
    assert len(pool_pids()) == 2 and pids[0] not in pool_pids()


def test_pool_never_larger_than_the_grid():
    res = run_scan("radiation", "ft-heat", {"eta": 1.0, "chi": 0.5}, [1.0],
                   [0.3, 0.6], workers=8)
    assert res.counts() == {"connected_monotone": 2}
    assert len(pool_pids()) == 2


def test_scan_reads_its_eos_once_per_scan(tmp_path):
    # built once per scan, not cached across scans: an EOS file edited
    # between two scans is read again
    path = tmp_path / "eos.txt"
    spec = f"file:{path}"
    path.write_text("p(theta) = 1/3*theta^4\n")
    first = run_scan(spec, "ft-viscous", FT, [1.0], [0.5])
    path.write_text("p(theta) = theta^5\n")
    second = run_scan(spec, "ft-viscous", FT, [1.0], [0.5])
    assert [r.classification for r in first.records + second.records] == [
        "connected_monotone"] * 2
    assert first.records[0].rho_plus != second.records[0].rho_plus
    # the model is built before any point, so a bad coefficient raises
    # even where no point has end states
    with pytest.raises(ValueError, match="does not take mu"):
        run_scan("radiation", "ft-heat", {"eta": 1.0, "mu": 2.0}, [-1.0],
                 [0.5])


SCIPY_PROBE = """
import json, sys
import shockscan.cli
from shockscan import radiation_eos, run_scan, scan, shock_from_strength

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

out = {"import": scipy_modules()}
shock_from_strength(radiation_eos(), 1.0, 0.5)
shockscan.cli.main(["rh", "--eos", "radiation", "--q1", "1",
                    "--strength", "0.5"])
for tag, co in (("bdn", {"eta": 1.0, "mu": 4 / 3, "nu": 4.0}),
                ("eckart", {"eta": 1.0, "chi": 1.0}),
                ("ft-heat", {"eta": 1.0, "chi": 0.5}),
                ("ft-viscous", {"eta": 1.0})):
    run_scan("radiation", tag, co, [1.0], [0.3, 0.6])
out["rk45"] = scipy_modules()

seen = []
class Pool(scan.ProcessPoolExecutor):
    def __init__(self, *args, **kw):
        seen.append("scipy.integrate" in sys.modules)
        super().__init__(*args, **kw)
scan.ProcessPoolExecutor = Pool
res = run_scan("radiation", "ft-heat", {"eta": 1.0, "chi": 0.5}, [1.0],
               [0.3, 0.6], workers=2, method="LSODA")
out["pool"] = seen
out["lsoda"] = res.counts()
print(json.dumps(out))
"""


NUMPY_PROBE = """
import json, os, sys
import shockscan
import shockscan.cli
from shockscan import make_model, parse_eos_expression, radiation_eos

out = {}
def loaded(step):
    out[step] = [m for m in ("dataclasses", "inspect", "numpy")
                 if m in sys.modules]

loaded("import")
eos = radiation_eos()
make_model("bdn", eos, eta=1.0, mu=4 / 3, nu=4.0)
make_model("eckart", eos, eta=1.0, chi=1.0)
make_model("ft-heat", eos, eta=1.0, chi=0.5)
make_model("ft-viscous", eos, eta=1.0)
parse_eos_expression("p(theta) = 1/3*theta^4 + 7/10*theta^3")
loaded("models")
tmp = sys.argv[1]
path = os.path.join(tmp, "poly.eos")
with open(path, "w") as fh:
    fh.write("p(theta) = 1/3*theta^4 + 7/10*theta^3\\n")
codes = [shockscan.cli.main(["rh", "--eos", "radiation", "--q1", "1",
                             "--strength", "0.5"]),
         shockscan.cli.main(["rh", "--eos", "file:" + path, "--q1", "1",
                             "--strength", "0.5", "--json", "--out", tmp])]
loaded("rh")
codes.append(shockscan.cli.main(["causality", "--mu", "4/3", "--nu", "4"]))
loaded("causality")
out["configparser"] = "configparser" in sys.modules
shockscan.run_scan("radiation", "ft-viscous", {"eta": 1.0}, [1.0], [0.5])
loaded("run_scan")
out["codes"] = codes
print(json.dumps(out))
"""


def _probe(code, *argv):
    """Run code in a fresh interpreter on this checkout; its last stdout
    line, parsed as JSON."""
    src = os.path.dirname(os.path.dirname(scan.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return json.loads(run.stdout.splitlines()[-1])


def test_default_path_imports_no_scipy():
    # a fresh interpreter: the CLI, the jump conditions and RK45 scans of
    # every model, the ft-viscous quadrature included, load no scipy
    # module; a pooled scipy-stepped scan has scipy.integrate in the
    # parent before its workers fork
    out = _probe(SCIPY_PROBE)
    assert out["import"] == [] and out["rk45"] == []
    assert out["pool"] == [True]
    assert out["lsoda"] == {"connected_monotone": 2}


def test_end_states_and_causality_import_no_numpy(tmp_path):
    # a fresh interpreter: the package, the CLI, every model, an
    # expression EOS, rh (also with --json on a file: EOS) and causality
    # load no numpy, and neither dataclasses nor the inspect module it
    # pulls in; a scan loads numpy
    out = _probe(NUMPY_PROBE, str(tmp_path))
    assert "numpy" in out.pop("run_scan")
    assert out == {"import": [], "models": [], "rh": [], "causality": [],
                   "configparser": False, "codes": [0, 0, 0]}
    assert json.loads((tmp_path / "rh.json").read_text())["lax"] is True


POOL_EXIT_PROBE = """
import json, multiprocessing
from shockscan import run_scan
run_scan("radiation", "ft-viscous", {"eta": 1.0}, [1.0], [0.3, 0.6],
         workers=2)
print(json.dumps([p.pid for p in multiprocessing.active_children()]))
"""


def test_pool_workers_end_with_the_interpreter():
    # a fresh interpreter runs a pooled scan and exits without shutting
    # the pool down; its workers end with it
    pids = _probe(POOL_EXIT_PROBE)
    assert len(pids) == 2
    deadline = time.monotonic() + 5.0
    while any(map(alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(alive, pids))


def test_scan_summary_file(tmp_path):
    res = small_scan()
    f = tmp_path / "scan_summary.json"
    res.write_summary(f)
    d = json.loads(f.read_text())
    assert d["records"] == 4
    assert d["model"] == "ft-viscous"
    assert d["threshold_strength"] is None


def test_scan_summary_names_its_settings():
    # the resolved solver settings, defaults included, as profile.json
    # records them; scan.csv does not carry them
    res = run_scan("radiation", "ft-viscous", FT, [1.0], [0.5],
                   method="LSODA", rtol=1e-9)
    assert res.summary_dict()["settings"] == {
        "rtol": 1e-9, "atol": 1e-12, "tol_conn": 1e-6, "method": "LSODA"}
    assert small_scan().summary_dict()["settings"] == {
        "rtol": 1e-10, "atol": 1e-12, "tol_conn": 1e-6, "method": "RK45"}


# ------------------------------------------------------- CLI: rh

def test_cli_rh_frozen(capsys):
    rc = main(["rh", "--eos", "radiation", "--q1", "3", "--strength", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rho_minus = 0.87867965644" in out
    assert "rho_plus = 5.12132034356" in out
    assert "Lax shock: yes" in out


def test_cli_rh_json(tmp_path, capsys):
    rc = main(["rh", "--eos", "radiation", "--q1", "3", "--strength", "0.5",
               "--json", "--out", str(tmp_path)])
    assert rc == 0
    d = json.loads((tmp_path / "rh.json").read_text())
    assert d["lax"] is True
    assert d["rho_minus"] == pytest.approx(0.87867965644035742, rel=1e-12)


def test_cli_rh_from_q0(capsys):
    rc = main(["rh", "--eos", "power-law:5", "--q1", "1",
               "--q0", str(float(np.sqrt(1.0 + 9.0 / 32.0)))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "strength = 0.5" in out


def test_cli_rh_no_shock_exit_two(capsys):
    rc = main(["rh", "--eos", "radiation", "--q1", "3", "--strength", "0"])
    assert rc == 2
    assert "no shock" in capsys.readouterr().err


def test_cli_config_errors(capsys, tmp_path):
    # missing flux
    assert main(["rh", "--eos", "radiation", "--strength", "0.5"]) == 1
    # strength and q0 together
    assert main(["rh", "--eos", "radiation", "--q1", "3",
                 "--strength", "0.5", "--q0", "4"]) == 1
    # unknown EOS
    assert main(["rh", "--eos", "dust", "--q1", "3", "--strength", "0.5"]) == 1
    # a malformed flag value and an unknown flag are usage errors, not
    # "no shock" (argparse's own exit code is 2); --help still exits 0
    assert main(["rh", "--eos", "radiation", "--q1", "abc",
                 "--strength", "0.5"]) == 1
    assert "not a number: 'abc'" in capsys.readouterr().err
    assert main(["rh", "--eos", "radiation", "--q1", "3", "--strength",
                 "0.5", "--bogus"]) == 1
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["rh", "--help"])
    assert exc.value.code == 0
    # missing config file
    assert main(["rh", "--config", str(tmp_path / "none.ini"),
                 "--eos", "radiation", "--q1", "3", "--strength", "0.5"]) == 1
    # a coefficient the model does not take
    assert main(["profile", "--eos", "radiation", "--q1", "3",
                 "--strength", "0.5", "--model", "ft-heat", "--eta", "1",
                 "--chi", "0.5", "--mu", "2", "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "profile.json").exists()
    assert "error:" in capsys.readouterr().err
    # an unknown integrator is refused by name before any end state is
    # solved; strength 0 has no shock, which would exit 2 if it were
    assert main(["profile", "--eos", "radiation", "--q1", "3",
                 "--strength", "0", "--model", "bdn", "--mu", "4/3",
                 "--nu", "4", "--method", "foo", "--out", str(tmp_path)]) == 1
    assert ("unknown integrator 'foo' (one of RK45, LSODA)"
            in capsys.readouterr().err)
    assert main(["scan", "--eos", "radiation", "--q1", "1", "--model", "bdn",
                 "--mu", "4/3", "--nu", "4", "--strengths", "0.5",
                 "--method", "foo", "--out", str(tmp_path)]) == 1
    assert "unknown integrator 'foo'" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()
    # fixed tolerances are no longer flags, and a scan takes no one shock
    assert main(["profile", "--eos", "radiation", "--q1", "3",
                 "--strength", "0.5", "--model", "ft-viscous", "--eta", "1",
                 "--tol-det", "1e-9", "--out", str(tmp_path)]) == 1
    assert "unrecognized arguments: --tol-det" in capsys.readouterr().err
    # no subcommand takes a prefix of a flag for the flag
    assert main(["rh", "--eos", "radiation", "--q1", "3",
                 "--stren", "0.5"]) == 1
    assert "unrecognized arguments: --stren" in capsys.readouterr().err
    assert main(["profile", "--eos", "radiation", "--q1", "3",
                 "--strength", "0.5", "--model", "ft-viscous", "--eta", "1",
                 "--tol-c", "1e-3", "--out", str(tmp_path)]) == 1
    assert "unrecognized arguments: --tol-c" in capsys.readouterr().err
    assert main(["profile", "--eos", "radiation", "--q1", "3",
                 "--stren", "0.5", "--model", "ft-viscous", "--eta", "1",
                 "--out", str(tmp_path)]) == 1
    assert "unrecognized arguments: --stren" in capsys.readouterr().err
    assert not (tmp_path / "profile.json").exists()
    assert main(["scan", "--eos", "radiation", "--q1", "1", "--model", "bdn",
                 "--mu", "4/3", "--nu", "4", "--strength", "0.5",
                 "--out", str(tmp_path)]) == 1
    assert "unrecognized arguments: --strength" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()
    # an unknown config key is named, before any work
    ini = tmp_path / "typo.ini"
    ini.write_text(CONFIG.format(out=tmp_path).replace(
        "[model]\n", "[model]\nchii = 0.5\n"))
    assert main(["profile", "--config", str(ini)]) == 1
    assert "unknown config key 'chii' in [model]" in capsys.readouterr().err
    assert not (tmp_path / "profile.json").exists()
    ini.write_text(CONFIG.format(out=tmp_path) + "[solver]\ntol_det = 1e-9\n")
    assert main(["profile", "--config", str(ini)]) == 1
    assert ("unknown config key 'tol_det' in [solver]"
            in capsys.readouterr().err)
    ini.write_text(CONFIG.format(out=tmp_path) + "[solvr]\nrtol = 1e-9\n")
    assert main(["profile", "--config", str(ini)]) == 1
    assert "unknown config section [solvr]" in capsys.readouterr().err
    assert not (tmp_path / "profile.json").exists()


REMOVED_METHODS = ["RK23", "DOP853", "Radau", "BDF"]


@pytest.mark.parametrize("method", REMOVED_METHODS)
def test_removed_methods_refused_before_any_solve(method, monkeypatch,
                                                  tmp_path, capsys):
    # RK45 and LSODA are the only integrators; another scipy solver's
    # name is refused like any unknown name.  Strength 0 has no shock,
    # which would exit 2 if an end state were solved
    refused = f"unknown integrator {method!r} (one of RK45, LSODA)"
    assert main(["profile", "--eos", "radiation", "--q1", "3",
                 "--strength", "0", "--model", "bdn", "--mu", "4/3",
                 "--nu", "4", "--method", method,
                 "--out", str(tmp_path)]) == 1
    assert refused in capsys.readouterr().err
    ini = tmp_path / "run.ini"
    ini.write_text(CONFIG.format(out=tmp_path).replace(
        "strength = 0.5", "strength = 0") + f"[solver]\nmethod = {method}\n")
    assert main(["profile", "--config", str(ini)]) == 1
    assert refused in capsys.readouterr().err
    assert not (tmp_path / "profile.json").exists()

    def no_point(*args):
        raise AssertionError("a scan point ran")
    monkeypatch.setattr(scan, "_scan_point", no_point)
    monkeypatch.setattr(scan, "_pool_map", no_point)
    for workers in (1, 2):
        with pytest.raises(ValueError, match=re.escape(refused)):
            run_scan("radiation", "bdn", BDN_SHARP, [1.0], [0.3, 0.6],
                     workers=workers, method=method)


# ------------------------------------------------------- CLI: profile

def test_cli_profile_viscous(tmp_path, capsys):
    rc = main(["profile", "--eos", "radiation", "--q1", "3",
               "--strength", "0.5", "--model", "ft-viscous",
               "--eta", "1", "--gnuplot", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "connected_monotone" in out
    assert (tmp_path / "profile.csv").exists()
    assert (tmp_path / "profile.gp").exists()
    d = json.loads((tmp_path / "profile.json").read_text())
    assert d["classification"] == "connected_monotone"
    assert d["width"] == pytest.approx(6.1462, rel=1e-3)


def test_cli_profile_failure_exit_three(tmp_path, capsys):
    rc = main(["profile", "--eos", "radiation", "--q1", "1",
               "--strength", "0.98", "--model", "bdn",
               "--eta", "1", "--mu", "30", "--nu", "3",
               "--out", str(tmp_path)])
    assert rc == 3
    d = json.loads((tmp_path / "profile.json").read_text())
    assert d["classification"] == "singular_matrix"
    assert not (tmp_path / "profile.csv").exists()


def test_cli_profile_refuses_nondissipative_ft(tmp_path, capsys):
    # sigma <= 0 between the end states is a usage error, exit 1
    rc = main(["profile", "--eos", "radiation", "--q1", "1",
               "--strength", "0.5", "--model", "ft-heat",
               "--eta", "1", "--chi", "10", "--out", str(tmp_path)])
    assert rc == 1
    assert "sigma = -0.452201 <= 0 at theta" in capsys.readouterr().err
    assert not (tmp_path / "profile.json").exists()


def test_ft_heat_without_chi_is_refused(tmp_path, capsys):
    # chi = 0 leaves M = sigma theta n (x) n singular on every shot: a
    # usage error, before any end state or point is solved
    rc = main(["profile", "--eos", "radiation", "--q1", "1",
               "--strength", "0.5", "--model", "ft-heat", "--eta", "1",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "ft-heat needs chi > 0; use ft-viscous" in capsys.readouterr().err
    assert not (tmp_path / "profile.json").exists()
    with pytest.raises(ValueError, match="use ft-viscous"):
        run_scan("radiation", "ft-heat", {"eta": 1.0}, [1.0], [-0.5])


@pytest.mark.parametrize("model, co", [("ft-viscous", FT),
                                       ("bdn", BDN_SHARP)])
def test_cli_profile_agrees_with_scan_point(tmp_path, model, co):
    flags = [a for k, v in co.items() for a in (f"--{k}", repr(v))]
    rc = main(["profile", "--eos", "radiation", "--q1", "1",
               "--strength", "0.3", "--model", model, *flags,
               "--out", str(tmp_path)])
    assert rc == 0
    d = json.loads((tmp_path / "profile.json").read_text())
    rec = run_scan("radiation", model, co, [1.0], [0.3]).records[0]
    assert (d["classification"], d["width"], d["n_steps"]) == \
        (rec.classification, rec.width, rec.n_steps)


def test_cli_profile_bdn_needs_radiation(capsys):
    rc = main(["profile", "--eos", "power-law:5", "--q1", "1",
               "--strength", "0.5", "--model", "bdn",
               "--mu", "4/3", "--nu", "2"])
    assert rc == 1


def test_cli_profile_fraction_flags(tmp_path):
    # coefficients accept exact fractions
    rc = main(["profile", "--eos", "radiation", "--q1", "1",
               "--strength", "0.05", "--model", "bdn",
               "--eta", "1", "--mu", "4/3", "--nu", "2",
               "--out", str(tmp_path)])
    assert rc == 0


# ------------------------------------------------------- CLI: scan

def test_cli_scan(tmp_path, capsys):
    rc = main(["scan", "--eos", "radiation", "--model", "ft-viscous",
               "--q1", "3", "--strengths", "0.2,0.5,0.8",
               "--gnuplot", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "connected_monotone: 3" in out
    for name in ("scan.csv", "scan_summary.json", "scan.gp"):
        assert (tmp_path / name).exists()
    rows = (tmp_path / "scan.csv").read_text().splitlines()
    assert len(rows) == 4


def test_cli_scan_grid_syntax(tmp_path):
    rc = main(["scan", "--eos", "radiation", "--model", "ft-viscous",
               "--q1", "3", "--strengths", "0.2:0.8:3",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "scan.csv").read_text().splitlines()
    strengths = [float(r.split(",")[1]) for r in rows[1:]]
    assert strengths == pytest.approx([0.2, 0.5, 0.8])


POLY = parse_eos_expression("p(theta) = 1/3*theta^4 + 7/10*theta^3")


@pytest.mark.parametrize("args", [
    (0.02, 0.98, 50), (0.05, 0.95, 19),
    (0.2, 0.8, 0), (0.2, 0.8, 1), (0.2, 0.8, 2),
    # 6 steps of (0.9 - 0.3) / 6 overshoot 0.9, and a subnormal step
    # rounds to 0
    (0.3, 0.9, 7), (0.0, 1e-323, 5),
    # q_max's sweep of genuine nonlinearity
    *((rho_bar(eos, q1) * 1e-6, rho_bar(eos, q1), 64)
      for eos in (make_eos("radiation"), POLY)
      for q1 in (0.1, 1.0, 3.0, 10.0)),
], ids=str)
def test_linspace_is_numpy_bit_for_bit(args):
    got = linspace(*args)
    assert all(type(v) is float for v in got)
    assert [v.hex() for v in got] == [v.hex() for v in np.linspace(*args)]


def test_cli_scan_grid_counts(tmp_path, capsys):
    # a negative count is a usage error, and so is an empty grid
    base = ["scan", "--eos", "radiation", "--model", "ft-viscous",
            "--q1", "3", "--out", str(tmp_path), "--strengths"]
    assert main(base + ["0.2:0.8:-1"]) == 1
    assert "non-negative" in capsys.readouterr().err
    assert main(base + ["0.2:0.8:0"]) == 1
    assert "empty scan grid" in capsys.readouterr().err


def test_cli_scan_missing_model(capsys):
    assert main(["scan", "--eos", "radiation", "--q1", "3"]) == 1


@pytest.mark.parametrize("argv, code, expect", [
    (["rh", "--q1", "1", "--strength", "0.5"], 1,
     "error: an EOS is required"),
    (["rh", "--eos", "radiation", "--q1", "1"], 1,
     "error: either --strength or --q0 is required"),
    (["profile", "--eos", "radiation", "--q1", "1", "--strength", "0.5"], 1,
     "error: a model is required"),
    (["scan", "--model", "ft-viscous", "--q1", "1"], 1,
     "error: an EOS is required"),
    (["scan", "--eos", "radiation", "--model", "ft-viscous"], 1,
     "error: a momentum flux is required"),
    (["scan", "--eos", "radiation", "--model", "bdn", "--mu", "4/3",
      "--nu", "4", "--q1", "1", "--strengths", "0.05,0.5"], 0,
     "first oscillatory strength: 0.5\n"),
], ids=["rh-eos", "rh-shock", "profile-model", "scan-eos", "scan-q1",
        "scan-onset"])
def test_cli_missing_inputs_and_onset(argv, code, expect, tmp_path, capsys):
    # a missing input exits 1 with its message on stderr; a scan that
    # turns oscillatory names the first oscillatory strength
    assert main(argv + ["--out", str(tmp_path)]) == code
    captured = capsys.readouterr()
    assert expect in (captured.err if code else captured.out)


def test_cli_scan_completes_with_failures(tmp_path, capsys):
    # the bad point is recorded, the scan still exits 0
    rc = main(["scan", "--eos", "radiation", "--model", "bdn",
               "--q1", "1", "--mu", "30", "--nu", "3",
               "--strengths", "0.5,0.98", "--out", str(tmp_path)])
    assert rc == 0
    d = json.loads((tmp_path / "scan_summary.json").read_text())
    assert d["counts"].get("singular_matrix") == 1


# ------------------------------------------------------- CLI: causality

def test_cli_causality_frozen(capsys):
    assert main(["causality", "--eta", "1", "--mu", "4/3", "--nu", "4"]) == 0
    assert capsys.readouterr().out.strip() == "sharply_causal (bound 4)"
    assert main(["causality", "--eta", "1", "--mu", "4/3", "--nu", "2"]) == 0
    assert capsys.readouterr().out.strip() == "strictly_causal (bound 4)"
    assert main(["causality", "--eta", "1", "--mu", "1", "--nu", "1"]) == 0
    assert capsys.readouterr().out.strip() == "acausal (bound 4.5)"


def test_cli_causality_rejects_nonpositive(capsys):
    assert main(["causality", "--eta", "1", "--mu", "0", "--nu", "2"]) == 1
    assert main(["causality", "--mu", "4/3", "--nu", "-1"]) == 1


# ------------------------------------------------------- CLI: config file

CONFIG = """\
[eos]
kind = radiation

[model]
tag = ft-viscous
eta = 1        ; shear only

[shock]
q1 = 3
strength = 0.5

[output]
dir = {out}
"""


def test_cli_config_file(tmp_path, capsys):
    # one file serves both subcommands: a key that only the other one
    # reads ([scan] for profile, [shock] strength for scan) is ignored
    ini = tmp_path / "run.ini"
    ini.write_text(CONFIG.format(out=tmp_path)
                   + "[scan]\nstrengths = 0.3\nworkers = 1\n")
    rc = main(["profile", "--config", str(ini)])
    assert rc == 0
    d = json.loads((tmp_path / "profile.json").read_text())
    assert d["shock"]["strength"] == pytest.approx(0.5)
    assert main(["scan", "--config", str(ini)]) == 0
    rows = (tmp_path / "scan.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("3,0.29999999999999999,")


def test_cli_flag_overrides_config(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(CONFIG.format(out=tmp_path))
    rc = main(["profile", "--config", str(ini), "--strength", "0.7"])
    assert rc == 0
    d = json.loads((tmp_path / "profile.json").read_text())
    assert d["shock"]["strength"] == pytest.approx(0.7)


def test_cli_config_reads_only_the_subcommands_keys(tmp_path, capsys):
    # rh has no --workers and no --gnuplot, so it never reads those keys,
    # however malformed; profile reads gnuplot and refuses that value
    ini = tmp_path / "run.ini"
    ini.write_text(CONFIG.format(out=tmp_path)
                   + "gnuplot = maybe\n[scan]\nworkers = two\n")
    assert main(["rh", "--config", str(ini)]) == 0
    assert "rho_minus = 0.87867965644" in capsys.readouterr().out
    assert main(["profile", "--config", str(ini)]) == 1
    assert "Not a boolean: maybe" in capsys.readouterr().err
    assert not (tmp_path / "profile.json").exists()


def test_cli_config_value_is_converted_as_its_flag(tmp_path, capsys):
    # a malformed file value fails as the same flag value would, under
    # the flag's name; a flag given beside it leaves it unread
    ini = tmp_path / "run.ini"
    ini.write_text(CONFIG.format(out=tmp_path).replace("q1 = 3", "q1 = abc"))
    assert main(["rh", "--config", str(ini)]) == 1
    assert "argument --q1: not a number: 'abc'" in capsys.readouterr().err
    assert main(["rh", "--config", str(ini), "--q1", "3"]) == 0


def test_cli_flag_beats_config_for_each_type(tmp_path, monkeypatch):
    # a float (--q1), an int (--workers) and a string (--method)
    ini = tmp_path / "run.ini"
    ini.write_text(CONFIG.format(out=tmp_path)
                   + "[solver]\nmethod = LSODA\n"
                   + "[scan]\nstrengths = 0.3\nworkers = 2\n")
    assert main(["rh", "--config", str(ini), "--q1", "1", "--json"]) == 0
    assert json.loads((tmp_path / "rh.json").read_text())["q1"] == 1.0
    assert main(["rh", "--config", str(ini), "--json"]) == 0
    assert json.loads((tmp_path / "rh.json").read_text())["q1"] == 3.0
    workers, real = [], scan.run_scan

    def spy(*args, **kw):
        workers.append(kw["workers"])
        return real(*args, **kw)
    monkeypatch.setattr(scan, "run_scan", spy)
    summary = tmp_path / "scan_summary.json"
    assert main(["scan", "--config", str(ini),
                 "--workers", "1", "--method", "RK45"]) == 0
    assert json.loads(summary.read_text())["settings"]["method"] == "RK45"
    assert main(["scan", "--config", str(ini)]) == 0
    assert json.loads(summary.read_text())["settings"]["method"] == "LSODA"
    assert workers == [1, 2]


def test_cli_config_gnuplot(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(CONFIG.format(out=tmp_path) + "gnuplot = yes\n")
    assert main(["profile", "--config", str(ini)]) == 0
    assert (tmp_path / "profile.gp").exists()


@pytest.mark.parametrize("argv, code", [
    (["rh", "--eos", "radiation", "--q1", "3", "--strength", "0.5"], 0),
    (["rh", "--eos", "radiation", "--q1", "abc", "--strength", "0.5"], 1),
    (["rh", "--eos", "radiation", "--q1", "3", "--strength", "0"], 2),
    # singular_matrix, in about 0.3 s
    (["profile", "--eos", "radiation", "--q1", "1", "--strength", "0.99",
      "--model", "bdn", "--mu", "30", "--nu", "3"], 3),
    (["rh", "--config", "run.ini"], 0),
], ids=["ok", "config", "noshock", "profile", "rh-config"])
def test_console_entry_point_exit_codes(argv, code, tmp_path):
    # python -m shockscan.cli in a fresh interpreter exits with main's
    # code
    (tmp_path / "run.ini").write_text(CONFIG.format(out=tmp_path))
    src = os.path.dirname(os.path.dirname(scan.__file__))
    run = subprocess.run([sys.executable, "-m", "shockscan.cli", *argv],
                         env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == code, run.stderr


def test_cli_eos_file(tmp_path, capsys):
    f = tmp_path / "rad.eos"
    f.write_text("p(theta) = 1/3*theta^4\n")
    rc = main(["rh", "--eos", f"file:{f}", "--q1", "3", "--strength", "0.5"])
    assert rc == 0
    assert "rho_minus = 0.87867965" in capsys.readouterr().out
