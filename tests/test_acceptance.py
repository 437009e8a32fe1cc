"""Acceptance gate: one test per contract item, one verdict line each.

Every test prints a single [PASS]/[FAIL] line with the measured
quantities; run `pytest -v -rA tests/test_acceptance.py` to collect
them.  Tolerances are part of the contract and are not to be loosened
to make a failing item pass.
"""

import csv
import os

import numpy as np
import pytest
from scipy.optimize import brentq

from shockscan import (
    BdnCoefficients, FluidState, FtCoefficients, MonomialEos, PolynomialEos,
    ScanRecord,
    bdn_causality_class, char_speeds, end_states, flux, ft_coefficients,
    g_eval, gnl_indicator, lyapunov_eval, make_model, nu_bound, planar_rhs,
    radiation_eos, rest_point_classify, rho_bar, run_scan,
    scalar_profile_ft, shock_from_strength, shoot_heteroclinic,
)
from test_dissipation import bdn_matrix_full_tensor, velocity_gradient
from test_fluid_core import hessian_slices

RAD = radiation_eos()
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
# metric restricted to the t-x block; same matrix raises and lowers
G2 = np.diag([-1.0, 1.0])
STRENGTHS = [round(s, 2) for s in np.arange(0.05, 0.951, 0.05)]


def _verdict(ok, line):
    print(f"[{'PASS' if ok else 'FAIL'}] {line}")
    assert ok, line


def _match_reference(res, name):
    """Compare a scan with the reference scan.csv data/NAME: grid, end
    states, classification and reason exact; width within 2e-3
    relative, arclength within 1e-7 and n_steps within 5% per point.
    The references carry chord widths, by linear interpolation between
    samples, which sit up to 1.05e-3 above the Hermite crossings.
    Returns the worst relative error of each of the three."""
    with open(os.path.join(DATA, name), newline="") as fh:
        ref = list(csv.DictReader(fh))
    assert len(ref) == len(res.records)
    tols = {"width": 2e-3, "arclength": 1e-7, "n_steps": 0.05}
    worst = dict.fromkeys(tols, 0.0)
    for rec, want in zip(res.records, ref):
        got = dict(zip(ScanRecord.CSV_FIELDS, rec.csv_row()))
        for key in ("q1", "strength", "q0", "rho_minus", "rho_plus",
                    "classification", "reason"):
            assert got[key] == want[key], (rec.q1, rec.strength, key)
        for key, tol in tols.items():
            err = abs(float(got[key]) / float(want[key]) - 1.0)
            assert err <= tol, (rec.q1, rec.strength, key, got[key],
                                want[key])
            worst[key] = max(worst[key], err)
    return worst


def _random_state(rng, eos):
    v = rng.uniform(-0.9, 0.9)
    t = rng.uniform(0.6, 1.8)
    u0 = 1.0 / np.sqrt(1.0 - v * v)
    return FluidState(u0 / t, v * u0 / t)


# 01 ---------------------------------------------------------------

def test_01_viscous_scalar_profile_grid():
    """Viscous-only profiles across the full (eos, q1, s) grid: every
    point connected_monotone, endpoint errors below 1e-6, density
    strictly monotone along each profile."""
    grid = [(RAD, q1) for q1 in (0.5, 3.0, 10.0)]
    grid.append((MonomialEos(1, 5), 1.0))
    co = FtCoefficients(1.0)
    n = 0
    worst_err = 0.0
    for eos, q1 in grid:
        for s in STRENGTHS:
            sd = shock_from_strength(eos, q1, s)
            res = scalar_profile_ft(sd, co, tol_conn=5e-7)
            assert res.classification == "connected_monotone", (q1, s)
            err = max(res.endpoint_errors.values())
            assert err < 1e-6, (q1, s, err)
            assert np.all(np.diff(res.rho) > 0.0), (q1, s)
            worst_err = max(worst_err, err)
            n += 1
    _verdict(n == 76,
             f"01 viscous scalar grid: {n} profiles connected_monotone, "
             f"worst endpoint error {worst_err:.2e} < 1e-6")


# 02 ---------------------------------------------------------------

def test_02_heat_conducting_profile_grid():
    """Heat-conducting planar profiles on the same grid for three chi
    values: all connected_monotone, the Lyapunov quantity increasing
    along every orbit (strict up to one ulp of its scale), and the
    flux-excess Hessian definite upstream / indefinite downstream."""
    n = 0
    worst_dL = np.inf
    for q1 in (0.5, 3.0, 10.0):
        for s in STRENGTHS:
            sd = shock_from_strength(RAD, q1, s)
            # Hessian of the Lyapunov quantity at the two rest states
            _, Hm = hessian_slices(sd.state_minus, RAD)
            _, Hp = hessian_slices(sd.state_plus, RAD)
            assert np.linalg.eigvalsh(Hm).min() > 0.0, (q1, s)
            assert np.linalg.det(Hp) < 0.0, (q1, s)
            for chi in (0.1, 0.5, 1.0):
                m = make_model("ft-heat", RAD, eta=1.0, chi=chi)
                res = shoot_heteroclinic(sd, m, rtol=1e-9, atol=1e-11,
                                         method="LSODA")
                assert res.classification == "connected_monotone", \
                    (q1, s, chi, res.classification, res.reason)
                dL = np.diff(res.lyap)
                scale = np.abs(res.lyap).max()
                assert np.all(dL > -1e-13 * scale), (q1, s, chi)
                assert res.lyap[-1] > res.lyap[0], (q1, s, chi)
                worst_dL = min(worst_dL, dL.min() / scale)
                n += 1
    _verdict(n == 171,
             f"02 heat-conducting grid: {n} profiles connected_monotone, "
             f"Lyapunov increasing (worst relative dip {worst_dL:.1e}), "
             "Hessian definite upstream / indefinite downstream")


def test_02_heat_conducting_scan_reference():
    """The stiff LSODA path across commits: an ft-heat scan (eta = 1,
    chi = 0.5) over q1 = 0.5, 3, 10 and ten strengths matches
    data/test_02_ft_heat_scan.csv, the scan.csv this grid gave when
    LSODA ran through solve_ivp, to the tolerances of _match_reference."""
    res = run_scan("radiation", "ft-heat", {"eta": 1.0, "chi": 0.5},
                   [0.5, 3.0, 10.0],
                   [float(s) for s in np.linspace(0.05, 0.95, 10)],
                   method="LSODA", rtol=1e-9, atol=1e-11)
    worst = _match_reference(res, "test_02_ft_heat_scan.csv")
    counts = res.counts()
    _verdict(counts == {"connected_monotone": 30},
             f"02 heat-conducting scan: {counts}, matches the reference "
             f"scan (relative width {worst['width']:.1e}, arclength "
             f"{worst['arclength']:.1e}, n_steps {worst['n_steps']:.1%})")


# 03 ---------------------------------------------------------------

def test_03_small_chi_consistency():
    """A barely heat-conducting planar profile must reproduce the
    viscous-only scalar profile: centered density curves within 1e-2
    in sup-norm."""
    sd = shock_from_strength(RAD, 3.0, 0.5)
    scalar = scalar_profile_ft(sd, FtCoefficients(1.0),
                               rtol=1e-9, atol=1e-11)
    m = make_model("ft-heat", RAD, eta=1.0, chi=1e-3)
    planar = shoot_heteroclinic(sd, m, rtol=1e-9, atol=1e-11,
                                method="LSODA")
    assert planar.classification == "connected_monotone"
    xg = np.linspace(-8.0, 8.0, 400)
    sup = np.abs(np.interp(xg, planar.x, planar.rho)
                 - np.interp(xg, scalar.x, scalar.rho)).max()
    _verdict(sup < 1e-2,
             f"03 chi->0 consistency: sup-norm {sup:.2e} < 1e-2")


# 04 ---------------------------------------------------------------

def _brute_force_roots(eos, q1, r):
    """Count and refine the crossings of g - r on a 1e4-point grid,
    with no shared code with the production root isolation."""
    rb = rho_bar(eos, q1)
    if isinstance(eos, MonomialEos):
        xs = np.linspace(rb * 1e-9, rb, 10_000)
        ph = xs / float(eos.k - 1)
        g = -xs * ph + q1 * (xs - ph) - r

        def refine(i):
            return brentq(lambda rho: g_eval(eos, q1, rho) - r,
                          xs[i], xs[i + 1], xtol=1e-300, rtol=8.9e-16)
    else:
        # parametrize by temperature; rho(theta) is strictly increasing
        t_hi = eos.theta_of_rho(rb)
        ts = np.geomspace(t_hi * 1e-3, t_hi, 10_000)
        p = eos.p(ts)
        rho = ts * eos.dp(ts) - p
        g = -rho * p + q1 * (rho - p) - r
        xs = rho

        def refine(i):
            t = brentq(lambda t_: g_eval(eos, q1, eos.rho(t_)) - r,
                       ts[i], ts[i + 1], xtol=1e-300, rtol=8.9e-16)
            return eos.rho(t)

    cells = np.nonzero(np.diff(np.sign(g)) != 0)[0]
    return sorted(refine(i) for i in cells)


def test_04_end_state_root_oracle():
    """200 random (eos, q1, s): the production end states must agree
    with brute-force sign-change counting of the jump function on a
    1e4-point grid, exactly two crossings each, refined locations
    within 1e-8; the maximizer of g is a genuine maximum whenever the
    nonlinearity indicator is positive."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(200):
        fam = i % 4
        if fam == 0:
            eos = RAD
        elif fam in (1, 2):
            eos = MonomialEos(1, float(rng.uniform(2.5, 6.0)))
        else:
            from fractions import Fraction
            c = Fraction(int(rng.integers(1, 10)), 10)
            eos = PolynomialEos([(Fraction(1, 3), 4), (c, 3)], name="mix")
        q1 = float(rng.uniform(0.2, 8.0))
        s = float(rng.uniform(0.05, 0.98))
        sd = shock_from_strength(eos, q1, s)
        r = sd.q0 ** 2 - sd.q1 ** 2
        roots = _brute_force_roots(eos, q1, r)
        assert len(roots) == 2, (eos.name, q1, s, len(roots))
        for got, want in zip(roots, (sd.rho_minus, sd.rho_plus)):
            err = abs(got - want) / max(1.0, abs(want))
            assert err < 1e-8, (eos.name, q1, s, err)
            worst = max(worst, err)
        # curvature at the interior maximizer
        gr = [gnl_indicator(eos, rho)
              for rho in np.linspace(sd.rho_bar * 1e-6, sd.rho_bar, 64)]
        if min(gr) > 0.0:
            h = 1e-4 * sd.rho_star
            dd = (g_eval(eos, q1, sd.rho_star + h)
                  - 2.0 * g_eval(eos, q1, sd.rho_star)
                  + g_eval(eos, q1, sd.rho_star - h)) / h ** 2
            assert dd < 0.0, (eos.name, q1)
    _verdict(True,
             f"04 end-state root oracle: 200 samples, exactly two "
             f"crossings each, worst refined mismatch {worst:.2e} < 1e-8")


# 05 ---------------------------------------------------------------

def test_05_characteristic_speed_oracle():
    """Pencil eigenvalues equal the velocity-addition formula at 100
    random states within 1e-8; the Lax speed pattern holds at every
    accepted shock of the standard grids."""
    rng = np.random.default_rng(7)
    from fractions import Fraction
    eoses = [RAD, MonomialEos(1, 5),
             PolynomialEos([(Fraction(1, 3), 4), (Fraction(1, 2), 3)],
                           name="mix")]
    worst = 0.0
    for i in range(100):
        eos = eoses[i % 3]
        v = rng.uniform(-0.9, 0.9)
        t = rng.uniform(0.5, 2.0)
        u0 = 1.0 / np.sqrt(1.0 - v * v)
        st = FluidState(u0 / t, v * u0 / t)
        c = np.sqrt(eos.cs2(t))
        lo, hi = char_speeds(st, eos)
        e = max(abs(lo - (v - c) / (1 - v * c)),
                abs(hi - (v + c) / (1 + v * c)))
        assert e < 1e-8, (eos.name, v, t, e)
        worst = max(worst, e)
    n_lax = 0
    for eos, q1s in ((RAD, (0.5, 3.0, 10.0)), (MonomialEos(1, 5), (1.0,))):
        for q1 in q1s:
            for s in STRENGTHS:
                sd = shock_from_strength(eos, q1, s)
                assert sd.lax, (eos.name, q1, s)
                n_lax += 1
    _verdict(True,
             f"05 characteristic speeds: oracle error {worst:.2e} < 1e-8 "
             f"at 100 states; Lax pattern at all {n_lax} shocks")


# 06 ---------------------------------------------------------------

def test_06_sharp_causality_scan_evidence():
    """Coefficients on the causality boundary (eta, mu, nu) =
    (1, 4/3, 4): the bound evaluates to 4 exactly, and a 50-point
    strength scan shows a contiguous upper range of non-monotone
    profiles with the threshold reported and the evidence flagged as
    non-proof.

    Regression: the records match data/test_06_bdn_scan.csv, the
    scan.csv this grid gave with the projector-assembled matrices, to
    the tolerances of _match_reference."""
    assert nu_bound(1.0, 4.0 / 3.0) == 4.0
    res = run_scan("radiation", "bdn",
                   {"eta": 1.0, "mu": 4.0 / 3.0, "nu": 4.0},
                   [1.0], [float(s) for s in np.linspace(0.02, 0.98, 50)])
    counts = res.counts()
    bad = [r for r in res.records
           if r.classification != "connected_monotone"]
    assert bad, counts
    s_star, contiguous = res.upper_range_threshold()
    assert s_star is not None
    assert contiguous, counts
    d = res.summary_dict()
    assert "not a proof" in d["note"]

    worst = _match_reference(res, "test_06_bdn_scan.csv")
    _verdict(True,
             f"06 boundary-causal scan: {counts}, threshold s* = "
             f"{s_star:.4g}, contiguous upper range, flagged non-proof; "
             "matches the reference scan (relative width "
             f"{worst['width']:.1e}, arclength {worst['arclength']:.1e}, "
             f"n_steps {worst['n_steps']:.1%})")


# 07 ---------------------------------------------------------------

def test_07_strict_causality_scan_failure_evidence():
    """Evidence of profile breakdown at strictly causal coefficients.

    For radiation, with b = u^1 = theta psi^1, the BDN profile matrix
    has det M = -(A b^4 + B b^2 + C)/3 with A = 36 eta mu + 4 eta nu -
    12 mu nu, B = 36 eta mu + 8 eta nu + 12 mu nu, C = nu (4 eta - 3 mu)
    (certified symbolically in test_dissipation.py).  Causality gives
    A >= 0, B > 0, C <= 0, so det M changes sign at some speed b* > 0
    only when mu > 4 eta / 3; on the floor mu = 4 eta / 3 it factors as
    4 eta b^2 ((nu - 4 eta) b^2 - 2 (nu + 2 eta)) < 0 for every b != 0
    when nu < 4 eta, and no orbit can meet the singular locus.

    Breakdown: at (1, 30, 3), strictly causal with b* = 0.3436, a
    q1 = 1 scan with weak-shock controls and strong strengths past 0.97
    has a non-empty failure set, every failure is singular_matrix, and
    the failing strengths form an upper range.

    Control: at (1, 4/3, 2), on the floor mu = 4 eta / 3, the 50-point
    q1 = 1 scan has an empty failure set."""
    hot = {"eta": 1.0, "mu": 30.0, "nu": 3.0}
    strengths = [0.05, 0.2, 0.5, 0.95, 0.97, 0.98, 0.99]
    label, _ = bdn_causality_class(BdnCoefficients(**hot))
    res = run_scan("radiation", "bdn", hot, [1.0], strengths)
    failed = sorted(r.strength for r in res.failures())
    kinds = {r.classification for r in res.failures()}
    # a proper upper range: the weakest control connects, and every
    # strength from the first failure up fails
    upper = bool(failed) and failed[0] > strengths[0] and all(
        (r.strength >= failed[0]) == (r.strength in failed)
        for r in res.records)
    ok_hot = (label == "strictly_causal" and upper
              and kinds == {"singular_matrix"})

    ctrl = run_scan("radiation", "bdn",
                    {"eta": 1.0, "mu": 4.0 / 3.0, "nu": 2.0},
                    [1.0], [float(s) for s in np.linspace(0.02, 0.98, 50)])
    ok_ctrl = not ctrl.failures()
    _verdict(ok_hot and ok_ctrl,
             f"07 strictly-causal breakdown: (1, 30, 3) {label}, counts "
             f"{res.counts()}, failures at s = {failed} of kinds "
             f"{sorted(kinds)} ({'' if upper else 'NOT '}an upper range); "
             f"control (1, 4/3, 2) counts {ctrl.counts()}, failure set "
             f"{'empty' if ok_ctrl else 'NON-EMPTY'} (det M < 0 for b != 0 "
             "at mu = 4/3, nu < 4)")


# 08 ---------------------------------------------------------------

def test_08_causality_classifier_decisions():
    """Exact classifier decisions on the boundary, interior, and
    violating coefficient triples."""
    from shockscan import BdnCoefficients
    got = [bdn_causality_class(BdnCoefficients(*t))
           for t in ((1.0, 4.0 / 3.0, 4.0), (1.0, 4.0 / 3.0, 2.0),
                     (1.0, 1.0, 1.0))]
    ok = (got[0] == ("sharply_causal", 4.0)
          and got[1] == ("strictly_causal", 4.0)
          and got[2][0] == "acausal" and got[2][1] == pytest.approx(4.5))
    _verdict(ok, "08 causality classifier: sharply_causal (bound 4 exact), "
             "strictly_causal, acausal as required")


# 09 ---------------------------------------------------------------

def test_09_gradient_and_assembly_oracles():
    """Four independent consistency oracles: the Lyapunov gradient vs
    finite differences (1e-6, 100 states); rest-point linearizations
    vs finite-difference Jacobians of planar_rhs (1e-5); the planar
    BDN matrix vs a full-tensor contraction (1e-12, 100 states); the
    viscous-only matrix action vs sigma times the velocity increment
    (1e-10, 100 pairs)."""
    rng = np.random.default_rng(11)
    sd = shock_from_strength(RAD, 3.0, 0.5)
    q0, q1 = sd.q0, sd.q1

    # (a) Lyapunov gradient
    worst_a = 0.0
    h = 1e-6
    for _ in range(100):
        st = _random_state(rng, RAD)
        g = np.subtract(flux(st.theta, st.psi0, st.psi1, RAD), [q0, q1])
        w = st.cov
        fd = np.zeros(2)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            up = FluidState(-(w + e)[0], (w + e)[1])
            dn = FluidState(-(w - e)[0], (w - e)[1])
            fd[j] = (lyapunov_eval(up, RAD, q0, q1)
                     - lyapunov_eval(dn, RAD, q0, q1)) / (2 * h)
        err = np.abs(g - fd).max() / max(1.0, np.abs(g).max())
        assert err < 1e-6
        worst_a = max(worst_a, err)

    # (b) rest-point linearizations vs FD Jacobians of the vector field
    worst_b = 0.0
    cases = [(sd, make_model("ft-heat", RAD, eta=1.0, chi=0.5)),
             (shock_from_strength(RAD, 1.0, 0.05),
              make_model("bdn", RAD, eta=1.0, mu=4.0 / 3.0, nu=2.0))]
    for shock, model in cases:
        for label, st in (("minus", shock.state_minus),
                          ("plus", shock.state_plus)):
            rp = rest_point_classify(label, st, model)
            A = (rp.eigenvectors @ np.diag(rp.eigenvalues)
                 @ np.linalg.inv(rp.eigenvectors)).real
            w = st.cov
            J = np.zeros((2, 2))
            hh = 1e-6 * max(1.0, np.linalg.norm(w))
            for j in range(2):
                e = np.zeros(2)
                e[j] = hh
                J[:, j] = (np.asarray(planar_rhs(w + e, shock, model))
                           - np.asarray(planar_rhs(w - e, shock, model))
                           ) / (2 * hh)
            err = np.abs(A - J).max() / np.abs(A).max()
            assert err < 1e-5, (label, model.tag, err)
            worst_b = max(worst_b, err)

    # (c) BDN assembly vs full-tensor contraction
    worst_c = 0.0
    for _ in range(100):
        st = _random_state(rng, RAD)
        eta, mu, nu = rng.uniform(0.2, 3.0, size=3)
        m = make_model("bdn", RAD, eta=eta, mu=mu, nu=nu)
        M = m.matrix(st)
        O = bdn_matrix_full_tensor(st, eta, mu, nu)
        err = np.abs(M - O).max() / max(1.0, np.abs(O).max())
        assert err < 1e-12
        worst_c = max(worst_c, err)

    # (d) viscous matrix action = sigma * contravariant dU
    worst_d = 0.0
    for _ in range(100):
        st = _random_state(rng, RAD)
        co = FtCoefficients(rng.uniform(0.2, 3.0), rng.uniform(0.0, 2.0))
        m = make_model("ft-viscous", RAD, eta=co.eta, zeta=co.zeta)
        sigma = ft_coefficients(st.theta, RAD, co)
        dw = rng.standard_normal(2)
        lhs = m.matrix(st) @ dw
        rhs = sigma * (G2 @ velocity_gradient(st) @ dw)
        err = np.abs(lhs - rhs).max() / max(1.0, np.abs(lhs).max())
        assert err < 1e-10
        worst_d = max(worst_d, err)

    _verdict(True,
             "09 gradient/assembly oracles: gradient "
             f"{worst_a:.1e} < 1e-6, rest Jacobians {worst_b:.1e} < 1e-5, "
             f"tensor contraction {worst_c:.1e} < 1e-12, "
             f"viscous action {worst_d:.1e} < 1e-10")


# 10 ---------------------------------------------------------------

def test_10_scan_determinism(tmp_path):
    """Scans are reproducible: repeated runs byte-identical, a
    process-parallel run identical to the serial one."""
    co = {"eta": 1.0, "mu": 4.0 / 3.0, "nu": 4.0}
    grid = [float(s) for s in np.linspace(0.1, 0.9, 6)]
    paths = []
    for name, workers in (("a", 1), ("b", 1), ("c", 2)):
        res = run_scan("radiation", "bdn", co, [1.0], grid, workers=workers)
        p = tmp_path / f"{name}.csv"
        res.write_csv(p)
        paths.append(p.read_bytes())
    _verdict(paths[0] == paths[1] == paths[2],
             "10 determinism: repeated scan byte-identical and "
             "parallel == serial over a mixed-classification grid")
