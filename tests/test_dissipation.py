"""Dissipation tensors, their planar matrices, causality classes."""

import numpy as np
import pytest

from shockscan import (
    BdnCoefficients, CausalityError, DissipationModel, EosError,
    FluidState, FtCoefficients, MonomialEos, PolynomialEos,
    bdn_causality_class, ft_coefficients_at, make_model, nu_bound,
    profile_matrix_bdn, profile_matrix_eckart, profile_matrix_ft,
    radiation_eos, velocity_gradient,
)
from shockscan.fluid_core import G2

RAD = radiation_eos()
REST = FluidState(1.0, 0.0)


def random_state(rng):
    v = rng.uniform(-0.9, 0.9)
    t = rng.uniform(0.6, 1.8)
    u0 = 1.0 / np.sqrt(1.0 - v * v)
    return FluidState(u0 / t, v * u0 / t)


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


# ------------------------------------------------------- coefficients

def test_ft_coefficient_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        st = random_state(rng)
        co = FtCoefficients(rng.uniform(0.2, 3.0), rng.uniform(0.0, 2.0),
                            rng.uniform(0.0, 2.0))
        sigma, zc = ft_coefficients_at(st, RAD, co)
        assert 4.0 * co.eta / 3.0 + zc == pytest.approx(sigma, rel=1e-13)


def test_ft_coefficients_radiation_frozen():
    # cs^2 = 1/3, eta = 1, zeta = chi = 0: sigma = (4/3)/(2/3) = 2
    sigma, zc = ft_coefficients_at(REST, RAD, FtCoefficients(1.0))
    assert sigma == pytest.approx(2.0, rel=1e-14)
    assert zc == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_ft_coefficients_luminal_eos():
    with pytest.raises(CausalityError):
        ft_coefficients_at(REST, MonomialEos(1, 2), FtCoefficients(1.0))


def test_coefficient_validation():
    with pytest.raises(ValueError):
        FtCoefficients(0.0)
    with pytest.raises(ValueError):
        FtCoefficients(1.0, -0.1)
    with pytest.raises(ValueError):
        FtCoefficients(1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        BdnCoefficients(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        BdnCoefficients(-1.0, 1.0, 1.0)


# ------------------------------------------------------- FT matrices

def test_ft_rest_matrices():
    M = profile_matrix_ft(REST, RAD, FtCoefficients(1.0))
    assert np.allclose(M, np.diag([0.0, 2.0]), atol=1e-14)
    M = profile_matrix_ft(REST, RAD, FtCoefficients(1.0, 0.0, 1.0))
    assert np.allclose(M, np.diag([1.0, 5.0 / 3.0]), atol=1e-14)


def test_ft_collapses_to_projector_form():
    # term-by-term assembly must equal sigma theta Pi + chi theta^2 U x U
    rng = np.random.default_rng(8)
    for _ in range(50):
        st = random_state(rng)
        co = FtCoefficients(rng.uniform(0.2, 3.0), rng.uniform(0.0, 2.0),
                            rng.uniform(0.0, 2.0))
        sigma, _ = ft_coefficients_at(st, RAD, co)
        U = st.u
        t = st.theta
        Pi = G2 + np.outer(U, U)
        want = sigma * t * Pi + co.chi * t ** 2 * np.outer(U, U)
        M = profile_matrix_ft(st, RAD, co)
        assert np.abs(M - want).max() <= 1e-11 * np.abs(want).max()


def test_ft_viscous_action_is_sigma_du():
    # with chi = 0 the matrix acts as sigma times the contravariant
    # velocity increment induced by dw
    rng = np.random.default_rng(5)
    for _ in range(100):
        st = random_state(rng)
        co = FtCoefficients(rng.uniform(0.2, 3.0), rng.uniform(0.0, 2.0))
        M = profile_matrix_ft(st, RAD, co)
        sigma, _ = ft_coefficients_at(st, RAD, co)
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
            up = FluidState.from_cov(w + e)
            dn = FluidState.from_cov(w - e)
            # lowered velocity G U^a
            J[:, j] = (G2 @ up.u - G2 @ dn.u) / (2 * h)
        assert np.abs(V - J).max() <= 1e-6 * np.abs(V).max()


# ------------------------------------------------------- Eckart

def test_eckart_rest_matrices():
    M = profile_matrix_eckart(REST, RAD, FtCoefficients(1.0))
    assert np.allclose(M, np.diag([0.0, 4.0 / 3.0]), atol=1e-14)
    M = profile_matrix_eckart(REST, RAD, FtCoefficients(1.0, 0.0, 0.7))
    assert np.allclose(M, np.diag([0.7, 4.0 / 3.0]), atol=1e-14)


def test_eckart_differs_from_ft_by_effective_viscosity():
    # same shear/bulk block, bare zeta instead of zeta_check
    rng = np.random.default_rng(21)
    st = random_state(rng)
    co = FtCoefficients(1.0, 0.5)
    Me = profile_matrix_eckart(st, RAD, co)
    sigma, zc = ft_coefficients_at(st, RAD, co)
    co_equiv = FtCoefficients(1.0, 0.5)
    Mf = profile_matrix_ft(st, RAD, co_equiv)
    # they disagree exactly by the (zeta_check - zeta) bulk correction
    assert not np.allclose(Me, Mf, rtol=1e-3)


# ------------------------------------------------------- BDN

def test_bdn_rest_matrices():
    M = profile_matrix_bdn(REST, BdnCoefficients(1.0, 4.0 / 3.0, 2.0))
    assert np.allclose(M, np.diag([-2.0, 0.0]), atol=1e-14)
    M = profile_matrix_bdn(REST, BdnCoefficients(1.0, 1.0, 1.0))
    assert np.allclose(M, np.diag([-1.0, 1.0 / 3.0]), atol=1e-14)
    M = profile_matrix_bdn(REST, BdnCoefficients(1.0, 4.0 / 3.0, 4.0))
    assert np.allclose(M, np.diag([-4.0, 0.0]), atol=1e-14)


def test_bdn_against_full_tensor_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        st = random_state(rng)
        eta, mu, nu = rng.uniform(0.2, 3.0, size=3)
        M = profile_matrix_bdn(st, BdnCoefficients(eta, mu, nu))
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


def bdn_det_symbolic(sympy):
    """det of a sympy port of bdn_matrix_full_tensor, as a polynomial in
    b = U^1 with U^0 = sqrt(1 + b^2)."""
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

    M = sympy.Matrix(2, 2, lambda a, c: Mfull(a, 1, c, 1))
    return sympy.expand(M.det()), (eta, mu, nu, b)


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


def test_bdn_det_matches_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(200):
        st = random_state(rng)
        eta, mu, nu = rng.uniform(0.2, 3.0, size=3)
        M = profile_matrix_bdn(st, BdnCoefficients(eta, mu, nu))
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
    m = make_model("eckart", RAD, eta=1.0)
    assert m.matrix(REST) == pytest.approx(np.diag([0.0, 4.0 / 3.0]))
    m = make_model("bdn", RAD, eta=1.0, mu=4.0 / 3.0, nu=2.0)
    assert "strictly_causal" in m.describe()


def test_model_validation():
    with pytest.raises(ValueError):
        make_model("ft-viscous", RAD, eta=1.0, chi=0.5)
    with pytest.raises(ValueError):
        make_model("bdn", RAD, mu=2.0)        # nu missing
    with pytest.raises(ValueError):
        make_model("nonsense", RAD, eta=1.0)
    # a coefficient the family does not take is an error, not dropped
    with pytest.raises(ValueError, match="ft-heat does not take mu"):
        make_model("ft-heat", RAD, eta=1.0, chi=0.5, mu=2.0)
    with pytest.raises(ValueError, match="bdn does not take chi, zeta"):
        make_model("bdn", RAD, mu=2.0, nu=2.0, chi=1.0, zeta=1.0)
    with pytest.raises(ValueError, match="etaa"):
        make_model("ft-viscous", RAD, etaa=1.0)
    with pytest.raises(TypeError):
        DissipationModel("bdn", FtCoefficients(1.0), RAD)
    with pytest.raises(TypeError):
        DissipationModel("ft-heat", BdnCoefficients(1.0, 2.0, 2.0), RAD)
    with pytest.raises(ValueError):
        DissipationModel("ft-heat", FtCoefficients(1.0), None)


def test_bdn_requires_radiation():
    with pytest.raises(EosError):
        make_model("bdn", MonomialEos(1, 5), mu=2.0, nu=2.0)
    # a radiation law written as a generic polynomial is accepted
    from fractions import Fraction
    gen = PolynomialEos([(Fraction(1, 3), 4)], name="rad-generic")
    m = make_model("bdn", gen, mu=2.0, nu=2.0)
    assert m.matrix(REST).shape == (2, 2)
