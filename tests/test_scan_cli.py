"""Grid scans and the command-line interface."""

import json
import os

import numpy as np
import pytest

from shockscan import run_scan, resolve_workers
from shockscan.scan import ScanRecord, _scan_point
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


def test_scan_point_is_picklable_unit():
    rec = _scan_point(("radiation", "ft-viscous", FT, 3.0, 0.5, {}))
    assert isinstance(rec, ScanRecord)
    assert rec.classification == "connected_monotone"


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("SHOCKSCAN_WORKERS", raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(3) == 3
    monkeypatch.setenv("SHOCKSCAN_WORKERS", "5")
    assert resolve_workers() == 5
    assert resolve_workers(2) == 2       # explicit beats the environment
    monkeypatch.setenv("SHOCKSCAN_WORKERS", "0")
    assert resolve_workers() == 1


def test_scan_summary_file(tmp_path):
    res = small_scan()
    f = tmp_path / "scan_summary.json"
    res.write_summary(f)
    d = json.loads(f.read_text())
    assert d["records"] == 4
    assert d["model"] == "ft-viscous"
    assert d["threshold_strength"] is None


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
    assert ("unknown integrator 'foo' (one of RK45, RK23, DOP853, Radau, "
            "BDF, LSODA)") in capsys.readouterr().err
    assert main(["scan", "--eos", "radiation", "--q1", "1", "--model", "bdn",
                 "--mu", "4/3", "--nu", "4", "--strengths", "0.5",
                 "--method", "foo", "--out", str(tmp_path)]) == 1
    assert "unknown integrator 'foo'" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()


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


def test_cli_scan_missing_model(capsys):
    assert main(["scan", "--eos", "radiation", "--q1", "3"]) == 1


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
    ini = tmp_path / "run.ini"
    ini.write_text(CONFIG.format(out=tmp_path))
    rc = main(["profile", "--config", str(ini)])
    assert rc == 0
    d = json.loads((tmp_path / "profile.json").read_text())
    assert d["shock"]["strength"] == pytest.approx(0.5)


def test_cli_flag_overrides_config(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(CONFIG.format(out=tmp_path))
    rc = main(["profile", "--config", str(ini), "--strength", "0.7"])
    assert rc == 0
    d = json.loads((tmp_path / "profile.json").read_text())
    assert d["shock"]["strength"] == pytest.approx(0.7)


def test_cli_eos_file(tmp_path, capsys):
    f = tmp_path / "rad.eos"
    f.write_text("p(theta) = 1/3*theta^4\n")
    rc = main(["rh", "--eos", f"file:{f}", "--q1", "3", "--strength", "0.5"])
    assert rc == 0
    assert "rho_minus = 0.87867965" in capsys.readouterr().out
