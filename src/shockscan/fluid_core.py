"""Equation-of-state layer and kinematics of the canonical fluid state.

The state of the fluid is carried by the two active components
(psi0, psi1) of the vector psi^a = U^a / theta, restricted to the t-x
plane with metric g = diag(-1, +1).  Everything else (temperature,
velocity, energy density, sound speed) is derived from psi and from a
barotropic equation of state given as pressure over temperature,
p = ptilde(theta).
"""

from fractions import Fraction

import numpy as np

# metric restricted to the t-x block; same matrix raises and lowers
G2 = np.diag([-1.0, 1.0])

_THETA_TOL = 1e-13


class EosError(ValueError):
    pass


class DomainError(ValueError):
    """State outside psi0 > |psi1|."""
    pass


class BarotropicEos:
    """Pressure as a function of temperature with two derivatives.

    Subclasses provide p(theta), dp(theta), d2p(theta) and a validity
    interval.  Derived quantities:

        rho(theta)  = theta*p'(theta) - p(theta)
        drho(theta) = theta*p''(theta)          (must stay positive)
        cs2(theta)  = p'(theta) / (theta*p''(theta))

    Construction samples the validity interval and rejects an EOS whose
    pressure, its slope, or rho'(theta) fails to be positive; without
    rho' > 0 the map theta -> rho cannot be inverted.
    """

    name = "eos"
    theta_min = 1e-6
    theta_max = 1e6

    def __init__(self):
        self._validate()

    # subclass surface
    def p(self, theta):
        raise NotImplementedError

    def dp(self, theta):
        raise NotImplementedError

    def d2p(self, theta):
        raise NotImplementedError

    def _validate(self, samples=64):
        ts = np.geomspace(self.theta_min, self.theta_max, samples)
        for t in ts:
            if not (self.p(t) > 0.0):
                raise EosError(f"{self.name}: p(theta) <= 0 at theta={t:g}")
            if not (self.dp(t) > 0.0):
                raise EosError(f"{self.name}: p'(theta) <= 0 at theta={t:g}")
            if not (t * self.d2p(t) > 0.0):
                raise EosError(
                    f"{self.name}: rho'(theta) <= 0 at theta={t:g}, "
                    "theta(rho) not invertible")

    def rho(self, theta):
        return theta * self.dp(theta) - self.p(theta)

    def drho(self, theta):
        return theta * self.d2p(theta)

    def cs2(self, theta):
        return self.dp(theta) / (theta * self.d2p(theta))

    def theta_of_rho(self, rho):
        """Invert rho(theta) by safeguarded Newton.

        Bracket grown geometrically from theta = 1; rho is strictly
        increasing so the bracket is guaranteed once the endpoints
        straddle the target.  Relative tolerance 1e-13.
        """
        if rho <= 0.0:
            raise EosError(f"rho must be positive, got {rho:g}")
        lo, hi = 1.0, 1.0
        while self.rho(lo) > rho and lo > self.theta_min:
            lo *= 0.5
        while self.rho(hi) < rho and hi < self.theta_max:
            hi *= 2.0
        if not (self.rho(lo) <= rho <= self.rho(hi)):
            raise EosError(f"rho={rho:g} outside EOS validity range")
        t = 0.5 * (lo + hi)
        for _ in range(200):
            f = self.rho(t) - rho
            if f > 0.0:
                hi = t
            else:
                lo = t
            step = f / self.drho(t)
            tn = t - step
            if not (lo < tn < hi):
                tn = 0.5 * (lo + hi)
            if abs(tn - t) <= _THETA_TOL * t:
                return tn
            t = tn
        return t

    # pressure as a function of energy, through theta(rho)
    def p_hat(self, rho):
        return self.p(self.theta_of_rho(rho))

    def p_hat_p(self, rho):
        """dp/drho = cs^2, chain rule through theta."""
        return self.cs2(self.theta_of_rho(rho))

    def p_hat_pp(self, rho):
        t = self.theta_of_rho(rho)
        # d(cs2)/dtheta divided by rho'(theta)
        p1, p2 = self.dp(t), self.d2p(t)
        p3 = self.d3p(t)
        dcs2_dt = (p2 * (t * p2) - p1 * (p2 + t * p3)) / (t * p2) ** 2
        return dcs2_dt / self.drho(t)

    def d3p(self, theta):
        raise NotImplementedError


class PolynomialEos(BarotropicEos):
    """ptilde(theta) = sum of c_i * theta^k_i with rational coefficients.

    Coefficients are kept as Fractions so that test fixtures built from
    expression files evaluate reproducibly.  The coefficient of each
    derivative, c k (k-1)..., is formed as a Fraction and rounded to a
    float once, at construction, together with its exponent.
    """

    def __init__(self, terms, name=None):
        # terms: iterable of (coefficient, exponent)
        self.terms = [(Fraction(c), Fraction(k)) for c, k in terms]
        if not self.terms:
            raise EosError("empty polynomial EOS")
        if name:
            self.name = name
        self._p = tuple((float(c), float(k)) for c, k in self.terms)
        self._dp = tuple((float(c * k), float(k) - 1.0)
                         for c, k in self.terms)
        self._d2p = tuple((float(c * k * (k - 1)), float(k) - 2.0)
                          for c, k in self.terms)
        self._d3p = tuple((float(c * k * (k - 1) * (k - 2)), float(k) - 3.0)
                          for c, k in self.terms)
        super().__init__()

    def p(self, theta):
        return sum(c * theta ** k for c, k in self._p)

    def dp(self, theta):
        return sum(c * theta ** k for c, k in self._dp)

    def d2p(self, theta):
        return sum(c * theta ** k for c, k in self._d2p)

    def d3p(self, theta):
        return sum(c * theta ** k for c, k in self._d3p)


class MonomialEos(PolynomialEos):
    """ptilde(theta) = coef * theta^k, k > 1.

    Linear pressure-energy relation p_hat(rho) = rho/(k-1); the
    inversions are closed-form, which keeps Rankine-Hugoniot tests
    exact.  k = 2 is constructible (rho' > 0 holds) even though its
    sound speed is luminal; the causality check is where that surfaces.
    """

    def __init__(self, coef, k, name=None):
        if k <= 1:
            raise EosError("monomial EOS needs exponent k > 1")
        self.coef = Fraction(coef)
        self.k = Fraction(k)
        # rho = (k-1) coef theta^k, folded like the polynomial terms
        self._rho = (float(self.coef * (self.k - 1)), float(self.k))
        self._inv_k = 1.0 / float(self.k)
        # p_hat = rho / (k-1), with the divisor rounded once
        self._k1 = float(self.k - 1)
        super().__init__([(coef, k)], name=name or f"power-law:{k}")

    def rho(self, theta):
        c, k = self._rho
        return c * theta ** k

    def theta_of_rho(self, rho):
        if rho <= 0.0:
            raise EosError(f"rho must be positive, got {rho:g}")
        return (rho / self._rho[0]) ** self._inv_k

    def p_hat(self, rho):
        return rho / self._k1

    def p_hat_p(self, rho):
        return 1.0 / self._k1

    def p_hat_pp(self, rho):
        return 0.0


def radiation_eos():
    """Pure radiation fluid, ptilde = theta^4/3, p_hat = rho/3."""
    return MonomialEos(Fraction(1, 3), 4, name="radiation")


def parse_eos_expression(text, name=None):
    """Parse the expression-file grammar into a PolynomialEos.

    Grammar, one definition per file (comment lines start with #):

        p(theta) = 1/3*theta^4 + 2*theta^3

    Terms are separated by +, each term is RATIONAL*theta^INTEGER,
    RATIONAL either n or n/m, the coefficient may be omitted (means 1),
    the power may be omitted (means theta^1).
    """
    line = None
    for raw in text.splitlines():
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        if line is not None:
            raise EosError("EOS file must contain a single definition line")
        line = s
    if line is None:
        raise EosError("EOS file contains no definition")
    lhs, _, rhs = line.partition("=")
    if lhs.strip().replace(" ", "") not in ("p(theta)", "p"):
        raise EosError(f"EOS definition must start with 'p(theta) =', got {lhs!r}")
    terms = []
    for part in rhs.split("+"):
        part = part.strip().replace(" ", "")
        if not part:
            raise EosError("empty term in EOS expression")
        coef, _, power = part.partition("theta")
        coef = coef.rstrip("*")
        c = _rational(coef, f"term {part!r}") if coef else Fraction(1)
        if _ == "":
            # constant term has no theta factor
            k = Fraction(0)
        elif power.startswith("^"):
            k = _rational(power[1:], f"term {part!r}")
        elif power == "":
            k = Fraction(1)
        else:
            raise EosError(f"cannot parse term {part!r}")
        terms.append((c, k))
    return PolynomialEos(terms, name=name or "file-eos")


def _rational(text, what):
    """Fraction(text), or EosError naming what was being parsed."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise EosError(f"cannot parse {what}") from None


def make_eos(spec):
    """EOS from a name: 'radiation', 'power-law:K', or 'file:PATH'."""
    if spec == "radiation":
        return radiation_eos()
    if spec.startswith("power-law:"):
        k = _rational(spec.split(":", 1)[1], f"exponent of {spec!r}")
        return MonomialEos(1, k)
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        with open(path) as fh:
            return parse_eos_expression(fh.read())
    raise EosError(f"unknown EOS spec {spec!r}")


class FluidState:
    """Contravariant canonical state (psi0, psi1) with psi0 > |psi1|."""

    __slots__ = ("psi0", "psi1")

    def __init__(self, psi0, psi1):
        if not psi0 > abs(psi1):
            raise DomainError(
                f"state ({psi0:g}, {psi1:g}) outside psi0 > |psi1|")
        self.psi0 = float(psi0)
        self.psi1 = float(psi1)

    @property
    def psi(self):
        return np.array([self.psi0, self.psi1])

    @property
    def cov(self):
        # psi_a = g_ab psi^b
        return np.array([-self.psi0, self.psi1])

    @property
    def theta(self):
        return (self.psi0 ** 2 - self.psi1 ** 2) ** -0.5

    @property
    def u(self):
        return self.theta * self.psi

    def theta_u(self):
        """(theta, u^0, u^1) as floats."""
        t = self.theta
        return t, t * self.psi0, t * self.psi1

    @classmethod
    def from_cov(cls, w):
        return cls(-w[0], w[1])

    @classmethod
    def from_rho_u1(cls, eos, rho, u1):
        theta = eos.theta_of_rho(rho)
        u0 = np.hypot(1.0, u1)
        return cls(u0 / theta, u1 / theta)

    def __repr__(self):
        return f"FluidState({self.psi0:.17g}, {self.psi1:.17g})"


def ideal_stress(state, eos):
    """T^ab = theta^3 p'(theta) psi^a psi^b + p(theta) g^ab."""
    t = state.theta
    psi = state.psi
    return t ** 3 * eos.dp(t) * np.outer(psi, psi) + eos.p(t) * G2


def flux(state, eos):
    """The alpha-column of the momentum flux, T^{a1}: column 1 of
    ideal_stress, evaluated in the same order of operations."""
    t = state.theta
    c = t ** 3 * eos.dp(t)
    psi1 = state.psi1
    return np.array([c * (state.psi0 * psi1), c * (psi1 * psi1) + eos.p(t)])


def stress_hessian(state, eos):
    """Flux Hessian K^{acb} = d^2(ptilde psi^b)/dpsi_a dpsi_c, the
    derivative of T^{ab} = d(ptilde psi^b)/dpsi_a in the covariant state.
    K is symmetric in all three indices, so it is four numbers.  In
    u = theta psi, with a = 3 p' + theta p'' and u0^2 = 1 + u1^2, each
    is a sum of terms of one sign:

        k000 = theta^2 u0 (theta p'' + a u1^2)
        k001 = theta^2 u1 (2 p' + theta p'' + a u1^2)
        k011 = theta^2 u0 (p' + a u1^2)
        k111 = theta^2 u1 (3 p' + a u1^2)

    Returns (k000, k001, k011, k111).  H0 = [[k000, k001], [k001, k011]]
    is the positive definite mass matrix of the characteristic pencil,
    H1 = [[k001, k011], [k011, k111]] the flux Jacobian dF/dw.
    """
    t, u0, u1 = state.theta_u()
    p1, p2 = eos.dp(t), t * eos.d2p(t)
    au2 = (3.0 * p1 + p2) * u1 * u1
    t2 = t * t
    return (t2 * u0 * (p2 + au2), t2 * u1 * (2.0 * p1 + p2 + au2),
            t2 * u0 * (p1 + au2), t2 * u1 * (3.0 * p1 + au2))


def gnl_indicator(eos, rho):
    """Genuine nonlinearity of the acoustic mode at energy rho.

    (rho + p_hat) p_hat'' + 2 (1 - p_hat') p_hat'; positive values mean
    the mode is genuinely nonlinear.  The sign is reported as computed,
    nothing is rejected here.
    """
    ph = eos.p_hat(rho)
    p1 = eos.p_hat_p(rho)
    p2 = eos.p_hat_pp(rho)
    return (rho + ph) * p2 + 2.0 * (1.0 - p1) * p1


DEFAULT_DIRECTIONS = ((1.0, 0.0), (1.0, 1.0), (1.0, -1.0))


def check_strict_causality(state, eos, directions=DEFAULT_DIRECTIONS,
                           tol=1e-12):
    """Sampled negative-definiteness check of the contracted Hessian.

    directions: future non-spacelike contravariant vectors (T^0, T^1)
    with T^0 > 0 and |T^1| <= T^0.  Each is lowered with the metric and
    contracted against the stress Hessian; the causality condition
    requires the result to be negative definite for every direction.
    Default directions are both null rays plus the time axis; the null
    rays are where definiteness is tightest.

    Returns (overall_pass, per_direction) where per_direction is a list
    of (direction, eigenvalues, pass) entries.
    """
    k000, k001, k011, k111 = stress_hessian(state, eos)
    report = []
    ok = True
    for d in directions:
        d = np.asarray(d, dtype=float)
        if not (d[0] > 0.0 and abs(d[1]) <= d[0]):
            raise ValueError(f"direction {d} is not future non-spacelike")
        # contract with the lowered direction (-T^0, T^1)
        a, b = -d[0], d[1]
        off = a * k001 + b * k011
        K = [[a * k000 + b * k001, off], [off, a * k011 + b * k111]]
        lam = np.linalg.eigvalsh(K)
        # margin relative to the spectral scale; a luminal EOS lands on
        # the boundary (zero eigenvalue along a null ray) and must fail
        scale = float(np.abs(lam).max())
        this = bool(scale > 0.0 and lam.max() < -tol * scale)
        report.append((tuple(d), lam, this))
        ok = ok and this
    return ok, report
