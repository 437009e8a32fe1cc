"""EOS layer, state kinematics, stress tensors."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from shockscan import (
    DomainError, EosError, FluidState, MonomialEos, PolynomialEos,
    check_strict_causality, flux, gnl_indicator, ideal_stress, make_eos,
    parse_eos_expression, radiation_eos, stress_hessian,
)
from shockscan.fluid_core import BarotropicEos

# metric restricted to the t-x block; same matrix raises and lowers
G2 = np.diag([-1.0, 1.0])


def random_state(rng, eos):
    v = rng.uniform(-0.9, 0.9)
    t = rng.uniform(0.6, 1.8)
    u0 = 1.0 / np.sqrt(1.0 - v * v)
    return FluidState(u0 / t, v * u0 / t)


# ---------------------------------------------------------------- EOS

def test_radiation_closed_forms():
    eos = radiation_eos()
    assert eos.p(1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert eos.rho(1.0) == pytest.approx(1.0, rel=1e-15)
    for t in (0.3, 1.0, 2.5):
        assert eos.cs2(t) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert eos.p_hat(6.0) == pytest.approx(2.0, rel=1e-15)
    assert eos.p_hat_p(6.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert eos.p_hat_pp(6.0) == 0.0


def test_monomial_linear_pressure_energy():
    eos = MonomialEos(1, 5)
    assert eos.p_hat(8.0) == pytest.approx(2.0, rel=1e-15)
    assert eos.cs2(1.7) == pytest.approx(0.25, rel=1e-14)
    # rho = (k-1) theta^k with unit coefficient
    assert eos.rho(2.0) == pytest.approx(4 * 2.0 ** 5, rel=1e-15)


def test_monomial_needs_supersolid_exponent():
    with pytest.raises(EosError):
        MonomialEos(1, 1)
    with pytest.raises(EosError):
        MonomialEos(1, Fraction(1, 2))


def test_eos_validation_rejects_flat_energy():
    # p = theta has rho' = theta * p'' = 0: theta(rho) not invertible
    with pytest.raises(EosError):
        PolynomialEos([(1, 1)])


def test_theta_of_rho_roundtrip():
    eos = PolynomialEos([(Fraction(1, 3), 4), (Fraction(1, 2), 3)])
    for t in np.geomspace(0.05, 50.0, 17):
        rho = eos.rho(t)
        assert eos.theta_of_rho(rho) == pytest.approx(t, rel=1e-12)
    mono = MonomialEos(1, 5)
    for t in (0.2, 1.0, 7.0):
        assert mono.theta_of_rho(mono.rho(t)) == pytest.approx(t, rel=1e-14)


def test_theta_of_rho_rejects_nonpositive():
    with pytest.raises(EosError):
        radiation_eos().theta_of_rho(0.0)
    with pytest.raises(EosError):
        MonomialEos(1, 3).theta_of_rho(-1.0)


def test_polynomial_derivative_chain():
    eos = PolynomialEos([(Fraction(1, 3), 4), (2, 2)])
    h = 1e-6
    for t in (0.5, 1.0, 3.0):
        fd1 = (eos.p(t + h) - eos.p(t - h)) / (2 * h)
        fd2 = (eos.dp(t + h) - eos.dp(t - h)) / (2 * h)
        fd3 = (eos.d2p(t + h) - eos.d2p(t - h)) / (2 * h)
        assert eos.dp(t) == pytest.approx(fd1, rel=1e-8)
        assert eos.d2p(t) == pytest.approx(fd2, rel=1e-8)
        assert eos.d3p(t) == pytest.approx(fd3, rel=1e-7)


def test_p_hat_second_derivative_fd():
    eos = PolynomialEos([(Fraction(1, 3), 4), (Fraction(1, 2), 3)])
    h = 1e-4
    for rho in (0.5, 2.0, 9.0):
        fd = (eos.p_hat_p(rho + h) - eos.p_hat_p(rho - h)) / (2 * h)
        assert eos.p_hat_pp(rho) == pytest.approx(fd, rel=1e-6)


class FractionPolynomial(BarotropicEos):
    """Evaluates the Fraction coefficient products on every call, as the
    EOS layer did before folding them at construction.  It shares no
    code with PolynomialEos, whose construction may bind p, dp, d2p and
    d3p to instance attributes that would shadow these methods."""

    def __init__(self, terms):
        self.terms = [(Fraction(c), Fraction(k)) for c, k in terms]
        super().__init__()

    def p(self, theta):
        return sum(float(c) * theta ** float(k) for c, k in self.terms)

    def dp(self, theta):
        return sum(float(c * k) * theta ** (float(k) - 1.0)
                   for c, k in self.terms)

    def d2p(self, theta):
        return sum(float(c * k * (k - 1)) * theta ** (float(k) - 2.0)
                   for c, k in self.terms)

    def d3p(self, theta):
        return sum(float(c * k * (k - 1) * (k - 2)) * theta ** (float(k) - 3.0)
                   for c, k in self.terms)


class FractionMonomial(FractionPolynomial):
    def __init__(self, coef, k):
        self.coef, self.k = Fraction(coef), Fraction(k)
        super().__init__([(coef, k)])

    def rho(self, theta):
        return float(self.coef * (self.k - 1)) * theta ** float(self.k)

    def theta_of_rho(self, rho):
        return (rho / float(self.coef * (self.k - 1))) ** (1.0 / float(self.k))

    def p_hat(self, rho):
        return rho / float(self.k - 1)

    def p_hat_p(self, rho):
        return 1.0 / float(self.k - 1)


@pytest.mark.parametrize("folded, ref", [
    (radiation_eos(), FractionMonomial(Fraction(1, 3), 4)),
    (make_eos("power-law:5/2"), FractionMonomial(1, Fraction(5, 2))),
    (parse_eos_expression("p(theta) = 1/3*theta^4 + 7/10*theta^3"),
     FractionPolynomial([(Fraction(1, 3), 4), (Fraction(7, 10), 3)])),
], ids=["radiation", "power-law:5/2", "polynomial"])
def test_folded_coefficients_bit_exact(folded, ref):
    # each folded coefficient is the Fraction product rounded once, so
    # every evaluation equals the per-call Fraction evaluation exactly;
    # 7/10 makes a product of rounded factors differ (0.7 * 6 != 4.2)
    assert not {"p", "dp", "d2p", "d3p"} & set(vars(ref))
    for t in np.geomspace(1e-3, 1e3, 100):
        for name in ("p", "dp", "d2p", "d3p", "rho"):
            assert getattr(folded, name)(t) == getattr(ref, name)(t), (name, t)
        rho = ref.rho(t)
        for name in ("theta_of_rho", "p_hat", "p_hat_p"):
            assert getattr(folded, name)(rho) == getattr(ref, name)(rho), \
                (name, t)


# ------------------------------------------------------- parsing

def test_parse_expression_radiation():
    eos = parse_eos_expression("# pure radiation\np(theta) = 1/3*theta^4\n")
    assert eos.terms == [(Fraction(1, 3), Fraction(4))]
    assert eos.p(1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_parse_expression_forms():
    eos = parse_eos_expression("p(theta) = theta^2 + 1/2 * theta^3")
    assert (Fraction(1), Fraction(2)) in eos.terms
    assert (Fraction(1, 2), Fraction(3)) in eos.terms
    # bare theta means exponent one; the EOS itself is invalid (rho' = 0
    # at no point, but p' includes a constant slope so it validates)
    eos2 = parse_eos_expression("p = 2*theta + theta^4")
    assert (Fraction(2), Fraction(1)) in eos2.terms


def test_parse_expression_errors():
    with pytest.raises(EosError):
        parse_eos_expression("")
    with pytest.raises(EosError):
        parse_eos_expression("p(theta) = theta^2\np(theta) = theta^3")
    with pytest.raises(EosError):
        parse_eos_expression("q(theta) = theta^2")
    with pytest.raises(EosError):
        parse_eos_expression("p(theta) = theta**2")
    # malformed rationals name the term instead of escaping as a bare
    # ValueError or ZeroDivisionError
    for text, term in (("p(theta) = theta^", "theta^"),
                       ("p(theta) = theta^4 - theta^3", "theta^4-theta^3"),
                       ("p(theta) = 1/0*theta^4", "1/0*theta^4")):
        with pytest.raises(EosError, match=re.escape(repr(term))):
            parse_eos_expression(text)
    with pytest.raises(EosError, match="power-law:abc"):
        make_eos("power-law:abc")


def test_make_eos_dispatch(tmp_path):
    assert make_eos("radiation").name == "radiation"
    assert float(make_eos("power-law:5").k) == 5.0
    f = tmp_path / "custom.eos"
    f.write_text("# custom\np(theta) = 1/3*theta^4 + 1/5*theta^2\n")
    eos = make_eos(f"file:{f}")
    assert eos.p(1.0) == pytest.approx(1.0 / 3.0 + 0.2, rel=1e-15)
    with pytest.raises(EosError):
        make_eos("dust")


# ------------------------------------------------------- state

def test_fluid_state_domain():
    with pytest.raises(DomainError):
        FluidState(1.0, 1.0)
    with pytest.raises(DomainError):
        FluidState(0.5, -0.6)
    st = FluidState(2.0, 1.0)
    assert st.theta == pytest.approx(3.0 ** -0.5, rel=1e-15)
    assert np.allclose(st.cov, [-2.0, 1.0])
    u = st.u
    assert u[0] ** 2 - u[1] ** 2 == pytest.approx(1.0, rel=1e-12)


def test_from_rho_u1_roundtrip():
    eos = radiation_eos()
    st = FluidState.from_rho_u1(eos, 5.0, 0.7)
    assert eos.rho(st.theta) == pytest.approx(5.0, rel=1e-12)
    assert st.u[1] == pytest.approx(0.7, rel=1e-12)
    st2 = FluidState.from_cov(st.cov)
    assert st2.psi0 == st.psi0 and st2.psi1 == st.psi1


# u1 in [0, 3] where glibc's hypot, and so np.hypot, misrounds
# sqrt(1 + u1^2) by one ulp (about 0.6% of uniform samples there)
MISROUNDED_U1 = (0.3736641175058505, 0.8827433440527177, 0.9637374280353758,
                 1.149442877946353, 1.4852167521480326, 1.5011144214956595,
                 1.6038195051619355, 2.8574021648048085)


@pytest.mark.parametrize("u1", MISROUNDED_U1)
def test_from_rho_u1_rounds_u0_correctly(u1):
    # radiation has theta = 1 exactly at rho = 1, so psi0 is u0 itself;
    # it must lie within half an ulp of sqrt(1 + u1^2) on either side,
    # the bounds compared exactly as squares of Fractions
    eos = radiation_eos()
    assert eos.theta_of_rho(1.0) == 1.0
    u0 = FluidState.from_rho_u1(eos, 1.0, u1).psi0
    lo = (Fraction(u0) + Fraction(math.nextafter(u0, 0.0))) / 2
    hi = (Fraction(u0) + Fraction(math.nextafter(u0, math.inf))) / 2
    assert lo * lo <= 1 + Fraction(u1) ** 2 <= hi * hi


# ------------------------------------------------------- stress tensors

def test_ideal_stress_rest_is_diag_rho_p():
    eos = radiation_eos()
    T = ideal_stress(FluidState(1.0, 0.0), eos)
    assert np.allclose(T, np.diag([1.0, 1.0 / 3.0]), atol=1e-15)


def test_ideal_stress_matches_fluid_form():
    # T^ab = (rho + p) u^a u^b + p g^ab
    rng = np.random.default_rng(7)
    eos = radiation_eos()
    for _ in range(20):
        st = random_state(rng, eos)
        rho, p = eos.rho(st.theta), eos.p(st.theta)
        u = st.u
        want = (rho + p) * np.outer(u, u) + p * G2
        assert np.allclose(ideal_stress(st, eos), want, rtol=1e-12)


def hessian_slices(state, eos):
    """(H0, H1): the b = 0 and b = 1 slices of the flux Hessian."""
    k000, k001, k011, k111 = stress_hessian(state, eos)
    return (np.array([[k000, k001], [k001, k011]]),
            np.array([[k001, k011], [k011, k111]]))


def test_stress_hessian_is_flux_jacobian():
    rng = np.random.default_rng(42)
    h = 1e-6
    for eos in (radiation_eos(), MonomialEos(1, 5)):
        for _ in range(25):
            st = random_state(rng, eos)
            w = st.cov
            for beta, K in enumerate(hessian_slices(st, eos)):
                J = np.zeros((2, 2))
                for j in range(2):
                    e = np.zeros(2)
                    e[j] = h
                    Tp = ideal_stress(FluidState(-(w + e)[0], (w + e)[1]), eos)
                    Tm = ideal_stress(FluidState(-(w - e)[0], (w - e)[1]), eos)
                    J[:, j] = (Tp[:, beta] - Tm[:, beta]) / (2 * h)
                scale = max(1.0, np.abs(K).max())
                assert np.abs(K - J).max() / scale < 1e-7


def test_hessian_mass_matrix_positive_definite():
    rng = np.random.default_rng(3)
    eos = radiation_eos()
    for _ in range(30):
        K0, _ = hessian_slices(random_state(rng, eos), eos)
        assert np.linalg.eigvalsh(K0).min() > 0.0


class _SymbolicState:
    """theta_u() of a state with symbolic theta and u^1."""

    def __init__(self, t, u0, u1):
        self._tu = (t, u0, u1)

    def theta_u(self):
        return self._tu


class _SymbolicEos:
    """dp and d2p of a generic ptilde, as sympy derivatives."""

    def __init__(self, sympy, p):
        self.dp = lambda t: sympy.diff(p(t), t)
        self.d2p = lambda t: sympy.diff(p(t), t, 2)


def test_stress_hessian_certificate():
    # for a generic ptilde the closed form equals the second derivatives
    # d^2(ptilde(theta) psi^b)/dpsi_a dpsi_c of its definition, with
    # theta = (psi_0^2 - psi_1^2)^(-1/2), evaluated at psi = u / theta
    sympy = pytest.importorskip("sympy")
    p = sympy.Function("p")
    t, b = sympy.symbols("theta b", positive=True)
    w = sympy.symbols("w0 w1", real=True)
    u0 = sympy.sqrt(1 + b ** 2)
    theta = (w[0] ** 2 - w[1] ** 2) ** sympy.Rational(-1, 2)
    at = {w[0]: -u0 / t, w[1]: b / t}
    psi_up = (-w[0], w[1])

    def exact(a, c, beta):
        d = sympy.diff(p(theta) * psi_up[beta], w[a], w[c])
        return sympy.simplify(d.subs(at).doit())

    k = stress_hessian(_SymbolicState(t, u0, b), _SymbolicEos(sympy, p))
    k = [sympy.nsimplify(x, rational=True) for x in k]
    index = {(0, 0, 0): 0, (0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1,
             (0, 1, 1): 2, (1, 0, 1): 2, (1, 1, 0): 2, (1, 1, 1): 3}
    for (a, c, beta), i in index.items():
        assert sympy.simplify(exact(a, c, beta) - k[i]) == 0, (a, c, beta)
    # the b = 0 and b = 1 slices share entries: H0[0,1] = H1[0,0] and
    # H0[1,1] = H1[0,1]
    assert sympy.simplify(exact(0, 1, 0) - exact(0, 0, 1)) == 0
    assert sympy.simplify(exact(1, 1, 0) - exact(0, 1, 1)) == 0


def test_flux_column():
    eos = radiation_eos()
    st = FluidState(2.0, 0.5)
    assert np.allclose(flux(st, eos), ideal_stress(st, eos)[:, 1])


# ------------------------------------------------------- derived scalars

def test_gnl_indicator_values():
    eos = radiation_eos()
    for rho in (0.1, 1.0, 42.0):
        assert gnl_indicator(eos, rho) == pytest.approx(4.0 / 9.0, rel=1e-13)
    # linear p = rho/(k-1): gnl = 2 (1 - 1/(k-1)) / (k-1)
    assert gnl_indicator(MonomialEos(1, 5), 2.0) == pytest.approx(
        2 * (1 - 0.25) * 0.25, rel=1e-13)
    assert abs(gnl_indicator(MonomialEos(1, 2), 1.0)) < 1e-14


def test_strict_causality_radiation():
    rng = np.random.default_rng(11)
    eos = radiation_eos()
    for _ in range(10):
        ok, report = check_strict_causality(random_state(rng, eos), eos)
        assert ok
        assert all(entry[2] for entry in report)


def test_strict_causality_luminal_eos_fails():
    # k = 2 has cs = 1: the contracted Hessian degenerates on null rays
    eos = MonomialEos(1, 2)
    ok, report = check_strict_causality(FluidState(1.0, 0.0), eos)
    assert not ok
    failed = [d for d, lam, passed in report if not passed]
    assert failed  # at least one null direction is marginal


def test_strict_causality_rejects_spacelike_direction():
    eos = radiation_eos()
    with pytest.raises(ValueError):
        check_strict_causality(FluidState(1.0, 0.0), eos,
                               directions=((1.0, 2.0),))
