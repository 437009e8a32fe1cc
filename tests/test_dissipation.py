"""Dissipation tensors, their planar matrices, causality classes."""

import pickle
from fractions import Fraction

import numpy as np
import pytest

from shockscan import (
    BdnCoefficients, CausalityError, DissipationModel, EosError,
    FluidState, FtCoefficients, MonomialEos, PolynomialEos,
    bdn_causality_class, ft_coefficients, make_eos, make_model, nu_bound,
    parse_eos_expression, planar_rhs, radiation_eos, shock_from_strength,
    stress_hessian,
)
from shockscan.dissipation import bdn_entries, eckart_entries

# metric restricted to the t-x block; same matrix raises and lowers
G2 = np.diag([-1.0, 1.0])

RAD = radiation_eos()
SOFT = MonomialEos(1, Fraction(5, 2))
REST = FluidState(1.0, 0.0)


def random_state(rng):
    v = rng.uniform(-0.9, 0.9)
    t = rng.uniform(0.6, 1.8)
    u0 = 1.0 / np.sqrt(1.0 - v * v)
    return FluidState(u0 / t, v * u0 / t)


def psi(state):
    return np.array([state.psi0, state.psi1])


def velocity(state):
    """U^a = theta psi^a."""
    return state.theta * psi(state)


def from_cov(w):
    """The state with covariant components psi_a = w."""
    return FluidState(-w[0], w[1])


def ideal_stress(state, eos):
    """T^ab = theta^3 p'(theta) psi^a psi^b + p(theta) g^ab."""
    t, v = state.theta, psi(state)
    return t ** 3 * eos.dp(t) * np.outer(v, v) + eos.p(t) * G2


def bdn_matrix_full_tensor(state, eta, mu, nu):
    """Independent oracle: assemble the full 4-index tensor on 3+1
    Minkowski space by einsum contractions and slice the (a,1,c,1)
    block.  No shared code with the production 2x2 assembly."""
    t = state.theta
    U = np.zeros(4)
    U[0], U[1] = t * state.psi0, t * state.psi1
    g4 = np.diag([-1.0, 1.0, 1.0, 1.0])
    Pi = g4 + np.outer(U, U)
    BE = (np.einsum('ac,bd->abcd', Pi, Pi)
          + np.einsum('ad,bc->abcd', Pi, Pi)
          - (2.0 / 3.0) * np.einsum('ab,cd->abcd', Pi, Pi))
    w4 = 3.0 * np.einsum('a,b->ab', U, U) + Pi
    B1 = np.einsum('ab,cd->abcd', w4, w4)
    Pim = np.einsum('ef,af->ae', g4, Pi)
    A = np.einsum('a,be->abe', U, Pim) + np.einsum('b,ae->abe', U, Pim)
    Bt = np.einsum('c,de->cde', U, Pi) + np.einsum('d,ce->cde', U, Pi)
    B2 = np.einsum('abe,cde->abcd', A, Bt)
    Mfull = eta * BE - mu * B1 - nu * B2
    return Mfull[0:2, 1, 0:2, 1]


# Reference implementations of the causal (ft) and Eckart matrices: the
# term-by-term projector assembly the package used before its closed
# forms, kept as oracles for them.

def velocity_gradient(state):
    """d U_d / d psi_c as a 2x2 array, rows d (lower), columns c (upper)."""
    t = state.theta
    return t * np.eye(2) + t ** 3 * np.outer(state.cov, psi(state))


def _projector(state):
    U = velocity(state)
    return G2 + np.outer(U, U), U


def _shear_bulk_block(Pi, eta, zeta):
    """Shear and bulk part of the planar tensor before the velocity
    gradient; the causal tensor passes its effective zeta_check, the
    Eckart tensor the bare zeta."""
    return (eta * (Pi[1, 1] * Pi + np.outer(Pi[:, 1], Pi[1, :]))
            + (zeta - 2.0 * eta / 3.0) * np.outer(Pi[:, 1], G2[1, :]))


def _zeta_check(t, eos, co):
    """Effective bulk viscosity of the causal tensor,
    zeta + cs^2 sigma - cs^2 (1 - cs^2) chi theta, so that
    (4/3) eta + zeta_check = sigma identically."""
    c2 = eos.cs2(t)
    sigma = ft_coefficients(t, eos, co)
    return co.zeta + c2 * sigma - c2 * (1.0 - c2) * co.chi * t


def ft_matrix_reference(state, eos, co):
    """Causal viscosity/heat-conduction matrix, assembled term by term."""
    Pi, U = _projector(state)
    t = state.theta
    sigma = ft_coefficients(t, eos, co)
    g1 = G2[1, :]
    W = (_shear_bulk_block(Pi, co.eta, _zeta_check(t, eos, co))
         + sigma * (U[1] * np.outer(U, g1)
                    - U[1] * (Pi * U[1] + np.outer(U, Pi[1, :]))))
    M = W @ velocity_gradient(state)
    if co.chi:
        # heat flux enters through the temperature gradient alone
        M = M + co.chi * np.outer(U, t ** 3 * psi(state))
    return M


def eckart_matrix_reference(state, eos, co):
    """Eckart matrix: the shear/bulk block with the bare zeta, heat
    coupled through the projected temperature gradient."""
    Pi, U = _projector(state)
    t = state.theta
    M = _shear_bulk_block(Pi, co.eta, co.zeta) @ velocity_gradient(state)
    if co.chi:
        vec = Pi[:, 1] * U[1] + Pi[1, 1] * U
        M = M + co.chi * np.outer(vec, t ** 3 * psi(state))
    return M


def random_case(rng, family):
    """(model, reference matrix function of a state) for one family,
    with random coefficients; ft and Eckart alternate two EOS."""
    if family == "bdn":
        eta, mu, nu = rng.uniform(0.2, 3.0, size=3)
        co = BdnCoefficients(eta, mu, nu)
        return (DissipationModel("bdn", co, RAD),
                lambda st: bdn_matrix_full_tensor(st, eta, mu, nu))
    eos = RAD if rng.random() < 0.5 else SOFT
    chi = 0.0 if family == "ft-viscous" else rng.uniform(0.1, 2.0)
    co = FtCoefficients(rng.uniform(0.2, 3.0), rng.uniform(0.0, 2.0), chi)
    ref = (eckart_matrix_reference if family == "eckart"
           else ft_matrix_reference)
    return DissipationModel(family, co, eos), lambda st: ref(st, eos, co)


FAMILIES = ("bdn", "ft-heat", "ft-viscous", "eckart")


# ------------------------------------------------------- coefficients

def test_ft_coefficient_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        st = random_state(rng)
        co = FtCoefficients(rng.uniform(0.2, 3.0), rng.uniform(0.0, 2.0),
                            rng.uniform(0.0, 2.0))
        sigma = ft_coefficients(st.theta, RAD, co)
        zc = _zeta_check(st.theta, RAD, co)
        assert 4.0 * co.eta / 3.0 + zc == pytest.approx(sigma, rel=1e-13)


def test_ft_coefficients_radiation_frozen():
    # cs^2 = 1/3, eta = 1, zeta = chi = 0: sigma = (4/3)/(2/3) = 2
    sigma = ft_coefficients(REST.theta, RAD, FtCoefficients(1.0))
    zc = _zeta_check(REST.theta, RAD, FtCoefficients(1.0))
    assert sigma == pytest.approx(2.0, rel=1e-14)
    assert zc == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_ft_coefficients_luminal_eos():
    with pytest.raises(CausalityError):
        ft_coefficients(REST.theta, MonomialEos(1, 2), FtCoefficients(1.0))


def test_coefficient_validation():
    with pytest.raises(ValueError, match="eta must be positive, got 0"):
        FtCoefficients(0.0)
    with pytest.raises(ValueError, match="zeta and chi must be nonnegative"):
        FtCoefficients(1.0, -0.1)
    with pytest.raises(ValueError, match="zeta and chi must be nonnegative"):
        FtCoefficients(1.0, chi=-1.0)
    with pytest.raises(ValueError, match="eta, mu, nu must all be positive"):
        BdnCoefficients(1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="eta, mu, nu must all be positive"):
        BdnCoefficients(-1.0, 1.0, 1.0)
    # _make, and so _replace, build through the same checks
    with pytest.raises(ValueError, match="eta must be positive, got -1"):
        FtCoefficients(1.0)._replace(eta=-1.0)
    with pytest.raises(ValueError, match="eta, mu, nu must all be positive"):
        BdnCoefficients._make((1.0, 2.0, -2.0))
    co = FtCoefficients(1.0)._replace(chi=0.5)
    assert type(co) is FtCoefficients and co == (1.0, 0.0, 0.5)


# ------------------------------------------------------- FT matrices

def test_ft_rest_matrices():
    M = make_model("ft-viscous", RAD, eta=1.0).matrix(REST)
    assert np.allclose(M, np.diag([0.0, 2.0]), atol=1e-14)
    M = make_model("ft-heat", RAD, eta=1.0, chi=1.0).matrix(REST)
    assert np.allclose(M, np.diag([1.0, 5.0 / 3.0]), atol=1e-14)


def test_ft_collapses_to_projector_form():
    # term-by-term assembly must equal sigma theta Pi + chi theta^2 U x U
    rng = np.random.default_rng(8)
    for _ in range(50):
        st = random_state(rng)
        co = FtCoefficients(rng.uniform(0.2, 3.0), rng.uniform(0.0, 2.0),
                            rng.uniform(0.0, 2.0))
        sigma = ft_coefficients(st.theta, RAD, co)
        U = velocity(st)
        t = st.theta
        Pi = G2 + np.outer(U, U)
        want = sigma * t * Pi + co.chi * t ** 2 * np.outer(U, U)
        M = DissipationModel("ft-heat", co, RAD).matrix(st)
        assert np.abs(M - want).max() <= 1e-11 * np.abs(want).max()


def test_ft_positive_definite_certificate():
    # M = sigma theta n (x) n + chi theta^2 U (x) U with n = (u1, u0):
    # det M = sigma chi theta^3 and tr M = (sigma + chi theta) theta
    # (1 + 2 u1^2).  A symmetric 2x2 matrix is positive definite iff
    # det > 0 and tr > 0, so at theta > 0 iff sigma > 0 and chi > 0:
    # det > 0 gives sigma and chi one sign, tr > 0 makes it positive
    sympy = pytest.importorskip("sympy")
    sigma, chi, b = sympy.symbols("sigma chi b", real=True)
    t = sympy.symbols("theta", positive=True)
    u0 = sympy.sqrt(1 + b ** 2)
    n, U = sympy.Matrix([b, u0]), sympy.Matrix([u0, b])
    M = sigma * t * n * n.T + chi * t ** 2 * U * U.T
    assert M == M.T
    assert sympy.simplify(M.det() - sigma * chi * t ** 3) == 0
    assert sympy.simplify(M.trace()
                          - (sigma + chi * t) * t * (1 + 2 * b ** 2)) == 0


def test_ft_coefficients_refuse_nondissipative_sigma():
    # radiation: sigma = 2 - chi theta / 3 for eta = 1, so chi = 10
    # makes sigma <= 0 from theta = 3/5 on
    co = FtCoefficients(1.0, chi=10.0)
    assert ft_coefficients(0.5, RAD, co) == pytest.approx(2.0 - 5.0 / 3.0)
    with pytest.raises(CausalityError,
                       match=r"sigma = -1\.33333 <= 0 at theta = 1\b"):
        ft_coefficients(1.0, RAD, co)
    # the heat shot and the viscous quadrature both read sigma there
    with pytest.raises(CausalityError):
        DissipationModel("ft-heat", co, RAD).matrix(REST)


def test_ft_viscous_action_is_sigma_du():
    # with chi = 0 the matrix acts as sigma times the contravariant
    # velocity increment induced by dw
    rng = np.random.default_rng(5)
    for _ in range(100):
        st = random_state(rng)
        co = FtCoefficients(rng.uniform(0.2, 3.0), rng.uniform(0.0, 2.0))
        M = DissipationModel("ft-viscous", co, RAD).matrix(st)
        sigma = ft_coefficients(st.theta, RAD, co)
        dw = rng.standard_normal(2)
        lhs = M @ dw
        rhs = sigma * (G2 @ velocity_gradient(st) @ dw)
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(lhs).max())


def test_velocity_gradient_fd():
    rng = np.random.default_rng(13)
    h = 1e-7
    for _ in range(20):
        st = random_state(rng)
        V = velocity_gradient(st)
        w = st.cov
        J = np.zeros((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            up = from_cov(w + e)
            dn = from_cov(w - e)
            # lowered velocity G U^a
            J[:, j] = (G2 @ velocity(up) - G2 @ velocity(dn)) / (2 * h)
        assert np.abs(V - J).max() <= 1e-6 * np.abs(V).max()


# ------------------------------------------------------- Eckart

def test_eckart_rest_matrices():
    # without heat conduction the matrix has rank one, and the model is
    # refused like ft-heat; the closed form itself still evaluates
    M = np.reshape(eckart_entries(FtCoefficients(1.0))(*REST.theta_u()),
                   (2, 2))
    assert np.allclose(M, np.diag([0.0, 4.0 / 3.0]), atol=1e-14)
    with pytest.raises(ValueError, match="eckart needs chi > 0"):
        make_model("eckart", RAD, eta=1.0)
    M = make_model("eckart", RAD, eta=1.0, chi=0.7).matrix(REST)
    assert np.allclose(M, np.diag([0.7, 4.0 / 3.0]), atol=1e-14)


def test_eckart_differs_from_ft_by_effective_viscosity():
    # without heat conduction both are multiples of the projector:
    # Mf = sigma theta Pi and Me = ((4/3) eta + zeta) theta u0^2 Pi, so
    # Mf - Me = theta ((zeta_check - zeta) - ((4/3) eta + zeta) u1^2) Pi;
    # the bulk correction zeta_check - zeta alone holds only at rest
    rng = np.random.default_rng(21)
    for _ in range(50):
        st = random_state(rng)
        co = FtCoefficients(rng.uniform(0.2, 3.0), rng.uniform(0.0, 2.0))
        zc = _zeta_check(st.theta, RAD, co)
        t, u0, u1 = st.theta_u()
        Pi = G2 + np.outer([u0, u1], [u0, u1])
        bulk = (zc - co.zeta) - (4.0 * co.eta / 3.0 + co.zeta) * u1 ** 2
        want = t * bulk * Pi
        diff = (DissipationModel("ft-viscous", co, RAD).matrix(st)
                - np.reshape(eckart_entries(co)(t, u0, u1), (2, 2)))
        assert np.abs(diff - want).max() <= 1e-12 * max(1.0,
                                                        np.abs(want).max())


# ------------------------------------------------------- closed forms

@pytest.mark.parametrize("family", FAMILIES)
def test_closed_form_matches_reference(family):
    # closed-form entries against the term-by-term assembly (ft, Eckart)
    # or the full-tensor contraction (BDN), 200 random states
    rng = np.random.default_rng(31)
    for _ in range(200):
        model, ref = random_case(rng, family)
        st = random_state(rng)
        O = ref(st)
        M = model.matrix(st)
        assert np.abs(M - O).max() <= 1e-12 * max(1.0, np.abs(O).max())
        assert np.array_equal(M.ravel(), model.entries(*st.theta_u()))


@pytest.mark.parametrize("family", FAMILIES)
def test_planar_rhs_matches_reference_solve(family):
    # Cramer's rule on the closed form against np.linalg.solve on the
    # reference matrix, with the flux read off the ideal stress tensor;
    # at the rank-one ft-viscous matrix the field is NaN
    rng = np.random.default_rng(37)
    shocks = {RAD: shock_from_strength(RAD, 3.0, 0.5),
              SOFT: shock_from_strength(SOFT, 1.0, 0.5)}
    for _ in range(200):
        model, ref = random_case(rng, family)
        shock = shocks[model.eos]
        st = random_state(rng)
        O = ref(st)
        if abs(np.linalg.det(O)) < 1e-10 * np.linalg.norm(O):
            assert family == "ft-viscous"
            assert np.isnan(planar_rhs(st.cov, shock, model)).all()
            continue
        assert family != "ft-viscous"
        F = ideal_stress(st, shock.eos)[:, 1] - [shock.q0, shock.q1]
        want = np.linalg.solve(O, F)
        got = planar_rhs(st.cov, shock, model)
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


# ------------------------------------------------------- BDN

def test_bdn_rest_matrices():
    M = make_model("bdn", RAD, eta=1.0, mu=4.0 / 3.0, nu=2.0).matrix(REST)
    assert np.allclose(M, np.diag([-2.0, 0.0]), atol=1e-14)
    M = make_model("bdn", RAD, eta=1.0, mu=1.0, nu=1.0).matrix(REST)
    assert np.allclose(M, np.diag([-1.0, 1.0 / 3.0]), atol=1e-14)
    M = make_model("bdn", RAD, eta=1.0, mu=4.0 / 3.0, nu=4.0).matrix(REST)
    assert np.allclose(M, np.diag([-4.0, 0.0]), atol=1e-14)


def test_bdn_against_full_tensor_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        st = random_state(rng)
        eta, mu, nu = rng.uniform(0.2, 3.0, size=3)
        M = DissipationModel("bdn", BdnCoefficients(eta, mu, nu),
                             RAD).matrix(st)
        O = bdn_matrix_full_tensor(st, eta, mu, nu)
        assert np.abs(M - O).max() <= 1e-12 * max(1.0, np.abs(O).max())


def bdn_det_closed_form(b, eta, mu, nu):
    """det M = -(A b^4 + B b^2 + C)/3 for the radiation BDN matrix,
    b = u^1; returns (det, scale) with scale the size of its terms."""
    A = 36 * eta * mu + 4 * eta * nu - 12 * mu * nu
    B = 36 * eta * mu + 8 * eta * nu + 12 * mu * nu
    C = nu * (4 * eta - 3 * mu)
    terms = (A * b ** 4, B * b ** 2, C)
    return -sum(terms) / 3, sum(abs(x) for x in terms) / 3


def bdn_matrix_symbolic(sympy):
    """sympy port of bdn_matrix_full_tensor in b = U^1, with
    U^0 = sqrt(1 + b^2); returns M and (eta, mu, nu, b)."""
    eta, mu, nu, b = sympy.symbols("eta mu nu b", real=True)
    U = [sympy.sqrt(1 + b ** 2), b, 0, 0]
    UU = sympy.Matrix(4, 4, lambda i, j: U[i] * U[j])
    g4 = sympy.diag(-1, 1, 1, 1)
    Pi = g4 + UU
    Pim = Pi * g4
    w4 = 3 * UU + Pi

    def At(a, b_, e):
        return U[a] * Pim[b_, e] + U[b_] * Pim[a, e]

    def Bt(c, d, e):
        return U[c] * Pi[d, e] + U[d] * Pi[c, e]

    def Mfull(a, b_, c, d):
        BE = (Pi[a, c] * Pi[b_, d] + Pi[a, d] * Pi[b_, c]
              - sympy.Rational(2, 3) * Pi[a, b_] * Pi[c, d])
        B1 = w4[a, b_] * w4[c, d]
        B2 = sum(At(a, b_, e) * Bt(c, d, e) for e in range(4))
        return eta * BE - mu * B1 - nu * B2

    return (sympy.Matrix(2, 2, lambda a, c: Mfull(a, 1, c, 1)),
            (eta, mu, nu, b))


def bdn_det_symbolic(sympy):
    """det of bdn_matrix_symbolic, as a polynomial in b."""
    M, syms = bdn_matrix_symbolic(sympy)
    return sympy.expand(M.det()), syms


def test_bdn_det_certificate_closed_form():
    sympy = pytest.importorskip("sympy")
    det, (eta, mu, nu, b) = bdn_det_symbolic(sympy)
    want, _ = bdn_det_closed_form(b, eta, mu, nu)
    assert sympy.expand(det - want) == 0


def test_bdn_det_certificate_causal_floor():
    # mu = 4 eta / 3 kills C: det M = 4 eta b^2 ((nu - 4 eta) b^2 -
    # 2 (nu + 2 eta)), negative for every b != 0 once nu < 4 eta
    sympy = pytest.importorskip("sympy")
    det, (eta, mu, nu, b) = bdn_det_symbolic(sympy)
    floor = det.subs(mu, sympy.Rational(4, 3) * eta)
    want = 4 * eta * b ** 2 * ((nu - 4 * eta) * b ** 2 - 2 * (nu + 2 * eta))
    assert sympy.expand(floor - want) == 0
    assert sympy.factor(floor.subs(eta, 1)) == sympy.factor(
        4 * b ** 2 * ((nu - 4) * b ** 2 - 2 * (nu + 2)))


def test_bdn_det_certificate_sharp_bound():
    # A = 4 (3 mu - eta)(nu_bound - nu): it vanishes identically on the
    # sharp bound and is >= 0 exactly on the causal side of it
    sympy = pytest.importorskip("sympy")
    det, (eta, mu, nu, b) = bdn_det_symbolic(sympy)
    A = -3 * sympy.Poly(det, b).coeff_monomial(b ** 4)
    bound = 9 * eta * mu / (3 * mu - eta)
    assert sympy.simplify(A.subs(nu, bound)) == 0
    assert sympy.simplify(A - 4 * (3 * mu - eta) * (bound - nu)) == 0


def test_bdn_floor_spiral_onset_certificate():
    # on radiation at q1 = 1 the downstream state is rational in
    # sigma = sqrt(s); on the floor mu = 4 eta / 3 (eta = 1) the sign of
    # tr^2 - 4 det of M^-1 H1, which is tr(adj M H1)^2 - 4 det M det H1
    # over det M^2, changes once in (0, 1), where the rest point turns
    # from a node into a spiral
    sympy = pytest.importorskip("sympy")
    rho, sigma = sympy.symbols("rho sigma", positive=True)
    s = sigma ** 2
    # g = r with p = rho / 3: g peaks at rho_star = q1 = 1 with Q = 1/3
    g = -rho * rho / 3 + (rho - rho / 3)
    Q = g.subs(rho, 1)
    assert sympy.diff(g, rho).subs(rho, 1) == 0 and Q == sympy.Rational(1, 3)
    roots = sympy.solve(g - (1 - s) * Q, rho)
    assert set(roots) == {1 - sigma, 1 + sigma}
    rho_plus = 1 + sigma
    # u1_of_rho with q0^2 = q1^2 + r
    q0_sq = 1 + (1 - s) * Q
    u1_sq = sympy.factor(1 / ((rho_plus + 1) ** 2 / q0_sq - 1))
    assert sympy.simplify(u1_sq - (2 - sigma) / (4 * (1 + sigma))) == 0
    u0_sq = sympy.factor(1 + u1_sq)
    assert sympy.simplify(u0_sq - 3 * (2 + sigma) / (4 * (1 + sigma))) == 0
    for strength in (0.05, 0.3, 0.9):
        sd = shock_from_strength(RAD, 1.0, strength)
        at = {sigma: strength ** 0.5}
        assert sd.rho_plus == pytest.approx(float(rho_plus.subs(at)),
                                            rel=1e-14)
        assert sd.u1_plus ** 2 == pytest.approx(float(u1_sq.subs(at)),
                                                rel=1e-13)
    u0, u1 = sympy.sqrt(u0_sq), sympy.sqrt(u1_sq)
    # H1 / theta^5 from stress_hessian: p' = 4/3 theta^3,
    # theta p'' = 4 theta^3, a = 3 p' + theta p'' = 8 theta^3
    p1, p2, au2 = sympy.Rational(4, 3), 4, 8 * u1_sq
    H1 = sympy.Matrix([[u1 * (2 * p1 + p2 + au2), u0 * (p1 + au2)],
                       [u0 * (p1 + au2), u1 * (3 * p1 + au2)]])
    sample = shock_from_strength(RAD, 1.0, 0.3).state_plus
    t = sample.theta
    at = {sigma: 0.3 ** 0.5}
    _, k001, k011, k111 = stress_hessian(sample, RAD)
    assert np.allclose(np.array(H1.subs(at), dtype=float) * t ** 5,
                       [[k001, k011], [k011, k111]], rtol=1e-13, atol=0.0)
    mu = sympy.Rational(4, 3)
    want = {
        1: (sympy.Rational(4, 7),
            (sigma - 2) * (sigma + 4) * (7 * sigma - 4)),
        2: (sympy.sqrt(2) - 1,
            16 * (sigma - 2) * (sigma ** 2 + 2 * sigma - 1)),
        4: (sympy.Rational(2, 7),
            4 * (sigma - 2) * (sigma + 2) * (7 * sigma - 2)),
    }
    for nu, (onset, factored) in want.items():
        # bdn_entries with eta = 1
        e = sympy.Rational(4, 3) * u0 ** 2
        w0, w1 = 4 * u0 * u1, u0 ** 2 + 3 * u1 ** 2
        a0, a1 = u0 ** 2 + u1 ** 2, 2 * u0 * u1
        m01 = e * u1 * u0 - mu * w0 * w1 - nu * a0 * a1
        M = sympy.Matrix([[e * u1 * u1 - mu * w0 * w0 - nu * a0 * a0, m01],
                          [m01, e * u0 * u0 - mu * w1 * w1 - nu * a1 * a1]])
        got = bdn_entries(BdnCoefficients(1.0, 4.0 / 3.0, nu))(
            *sample.theta_u())
        assert np.allclose(np.array(M.subs(at), dtype=float).ravel(), got,
                           rtol=1e-13, atol=0.0)
        disc = ((M.adjugate() * H1).trace() ** 2
                - 4 * M.det() * H1.det())
        num, den = sympy.fraction(sympy.factor(sympy.together(disc)))
        assert sympy.expand(num - factored) == 0
        assert sympy.expand(den - (sigma + 1) ** 3) == 0
        inside = [r for r in sympy.Poly(num, sigma).real_roots()
                  if 0 < r < 1]
        assert inside == [onset]
        assert num.subs(sigma, 0) > 0 > num.subs(sigma, 1)
    assert [sympy.expand(r ** 2) for r, _ in want.values()] == [
        sympy.Rational(16, 49), 3 - 2 * sympy.sqrt(2), sympy.Rational(4, 49)]


def test_bdn_det_matches_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(200):
        st = random_state(rng)
        eta, mu, nu = rng.uniform(0.2, 3.0, size=3)
        M = DissipationModel("bdn", BdnCoefficients(eta, mu, nu),
                             RAD).matrix(st)
        want, scale = bdn_det_closed_form(st.theta * st.psi1, eta, mu, nu)
        assert abs(np.linalg.det(M) - want) <= 1e-9 * scale


# ------------------------------------------------------- causality classes

def test_nu_bound_exact():
    assert nu_bound(1.0, 4.0 / 3.0) == 4.0
    assert nu_bound(1.0, 1.0) == pytest.approx(4.5, rel=1e-15)


def test_causality_classes():
    label, bound = bdn_causality_class(BdnCoefficients(1.0, 4.0 / 3.0, 4.0))
    assert label == "sharply_causal" and bound == 4.0
    label, bound = bdn_causality_class(BdnCoefficients(1.0, 4.0 / 3.0, 2.0))
    assert label == "strictly_causal" and bound == 4.0
    label, bound = bdn_causality_class(BdnCoefficients(1.0, 1.0, 1.0))
    assert label == "acausal" and bound == pytest.approx(4.5)
    # mu below the 4 eta / 3 floor is acausal no matter how small nu is
    label, _ = bdn_causality_class(BdnCoefficients(1.0, 1.2, 0.1))
    assert label == "acausal"
    label, _ = bdn_causality_class(BdnCoefficients(1.0, 4.0 / 3.0, 4.2))
    assert label == "acausal"


def test_causality_boundary_tolerance():
    # a bound hit within rtol counts as sharp, beyond it as acausal
    co = BdnCoefficients(1.0, 4.0 / 3.0, 4.0 * (1.0 + 1e-13))
    assert bdn_causality_class(co)[0] == "sharply_causal"
    co = BdnCoefficients(1.0, 4.0 / 3.0, 4.0 * (1.0 + 1e-9))
    assert bdn_causality_class(co)[0] == "acausal"


# ------------------------------------------------------- model factory

def test_model_dispatch_and_describe():
    m = make_model("ft-viscous", RAD, eta=1.0)
    assert m.matrix(REST) == pytest.approx(np.diag([0.0, 2.0]))
    assert "ft-viscous" in m.describe()
    m = make_model("ft-heat", RAD, eta=1.0, chi=1.0)
    assert m.matrix(REST) == pytest.approx(np.diag([1.0, 5.0 / 3.0]))
    m = make_model("eckart", RAD, eta=1.0, chi=0.7)
    assert m.matrix(REST) == pytest.approx(np.diag([0.7, 4.0 / 3.0]))
    m = make_model("bdn", RAD, eta=1.0, mu=4.0 / 3.0, nu=2.0)
    assert "strictly_causal" in m.describe()


def test_model_validation():
    with pytest.raises(ValueError):
        make_model("ft-viscous", RAD, eta=1.0, chi=0.5)
    # without heat flux the ft matrix sigma theta n (x) n has rank one
    with pytest.raises(ValueError, match="ft-heat needs chi > 0; use "
                                         "ft-viscous"):
        make_model("ft-heat", RAD, eta=1.0)
    with pytest.raises(ValueError, match="bdn needs both mu and nu"):
        make_model("bdn", RAD, mu=2.0)        # nu missing
    with pytest.raises(ValueError, match="unknown dissipation tag"):
        make_model("nonsense", RAD, eta=1.0)
    # a coefficient the family does not take is an error, not dropped
    with pytest.raises(ValueError, match="ft-heat does not take mu"):
        make_model("ft-heat", RAD, eta=1.0, chi=0.5, mu=2.0)
    with pytest.raises(ValueError, match=r"bdn does not take chi, zeta "
                                         r"\(it takes eta, mu, nu\)"):
        make_model("bdn", RAD, mu=2.0, nu=2.0, chi=1.0, zeta=1.0)
    with pytest.raises(ValueError, match="etaa"):
        make_model("ft-viscous", RAD, etaa=1.0)
    with pytest.raises(TypeError):
        DissipationModel("bdn", FtCoefficients(1.0), RAD)
    with pytest.raises(TypeError):
        DissipationModel("ft-heat", BdnCoefficients(1.0, 2.0, 2.0), RAD)
    # every model is bound to an EOS
    with pytest.raises(TypeError):
        DissipationModel("ft-heat", FtCoefficients(1.0, chi=0.5))
    with pytest.raises(TypeError):
        make_model("bdn", eta=1.0, mu=2.0, nu=2.0)


def test_bdn_requires_radiation():
    with pytest.raises(EosError):
        make_model("bdn", MonomialEos(1, 5), mu=2.0, nu=2.0)
    # a radiation law written as a generic polynomial is accepted
    from fractions import Fraction
    gen = PolynomialEos([(Fraction(1, 3), 4)], name="rad-generic")
    m = make_model("bdn", gen, mu=2.0, nu=2.0)
    assert m.matrix(REST).shape == (2, 2)


def test_model_and_eos_pickle():
    # entries and the one-term EOS products are bound closures; pickling
    # rebuilds them from the coefficients
    poly = parse_eos_expression("p(theta) = 1/3*theta^4 + 7/10*theta^3")
    for model in (make_model("bdn", radiation_eos(), eta=1.0, mu=4 / 3,
                             nu=4.0),
                  make_model("ft-heat", make_eos("power-law:5/2"), eta=1.0,
                             chi=0.5),
                  make_model("ft-viscous", make_eos("power-law:5"), eta=1.3,
                             zeta=0.2),
                  make_model("eckart", poly, eta=1.0, chi=0.5)):
        copy = pickle.loads(pickle.dumps(model))
        assert copy.entries(1.2, 1.25, 0.75) == model.entries(1.2, 1.25, 0.75)
        assert type(copy.eos) is type(model.eos)
        assert copy.eos.name == model.eos.name
        assert copy.eos.terms == model.eos.terms
        assert copy.eos.p(1.2) == model.eos.p(1.2)
