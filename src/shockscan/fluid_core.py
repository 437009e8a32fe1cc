"""Equation-of-state layer and kinematics of the canonical fluid state.

The state of the fluid is carried by the two active components
(psi0, psi1) of the vector psi^a = U^a / theta, restricted to the t-x
plane with metric g = diag(-1, +1).  Everything else (temperature,
velocity, energy density, sound speed) is derived from psi and from a
barotropic equation of state given as pressure over temperature,
p = ptilde(theta).

The scalar layer runs on Python floats and imports no numpy;
FluidState.cov, the one helper that returns an array, imports it where
it builds one.
"""

import math
from fractions import Fraction

_THETA_TOL = 1e-13


def linspace(start, stop, n):
    """n evenly spaced floats from start to stop inclusive, as a list:
    np.linspace(start, stop, n) bit for bit.  Sample i is
    i * step + start with step = (stop - start) / (n - 1), or
    (i / (n - 1)) * (stop - start) + start when step underflows to 0,
    and the last sample is stop itself."""
    if n < 0:
        raise ValueError(f"number of samples, {n}, must be non-negative")
    div = n - 1
    delta = stop - start
    if div <= 0:
        return [0.0 * delta + start for _ in range(n)]
    step = delta / div
    if step == 0:
        ys = [i / div * delta + start for i in range(n)]
    else:
        ys = [i * step + start for i in range(n)]
    ys[-1] = float(stop)
    return ys


class EosError(ValueError):
    pass


class DomainError(ValueError):
    """State outside psi0 > |psi1|."""
    pass


class BarotropicEos:
    """Pressure as a function of temperature with three derivatives.

    Subclasses provide p(theta), dp(theta), d2p(theta), d3p(theta) and a
    validity interval.  Derived quantities:

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

    def d3p(self, theta):
        raise NotImplementedError

    def _validate(self, samples=64):
        # geometric samples of the validity interval, endpoints exact
        ts = [10.0 ** v for v in linspace(math.log10(self.theta_min),
                                          math.log10(self.theta_max),
                                          samples)]
        ts[0], ts[-1] = self.theta_min, self.theta_max
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


class PolynomialEos(BarotropicEos):
    """ptilde(theta) = sum of c_i * theta^k_i with rational coefficients.

    Coefficients are kept as Fractions so that test fixtures built from
    expression files evaluate reproducibly.  The coefficient of each
    derivative, c k (k-1)..., is formed as a Fraction and rounded to a
    float once, at construction, together with its exponent.  A
    one-term polynomial binds p, dp, d2p and d3p to the plain product
    c * theta ** k; with several terms each call sums them.
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
        if len(self.terms) == 1:
            self.p, self.dp, self.d2p, self.d3p = (
                _product(*fold[0])
                for fold in (self._p, self._dp, self._d2p, self._d3p))
        super().__init__()

    def __reduce__(self):
        # the bound products are closures: rebuild from the terms
        return type(self), (self.terms, self.name)

    def p(self, theta):
        return sum(c * theta ** k for c, k in self._p)

    def dp(self, theta):
        return sum(c * theta ** k for c, k in self._dp)

    def d2p(self, theta):
        return sum(c * theta ** k for c, k in self._d2p)

    def d3p(self, theta):
        return sum(c * theta ** k for c, k in self._d3p)


def _product(c, k):
    """theta -> c * theta ** k, a one-term PolynomialEos sum."""
    return lambda theta: c * theta ** k


class MonomialEos(PolynomialEos):
    """ptilde(theta) = coef * theta^k, k > 1.

    Linear pressure-energy relation p_hat(rho) = rho/(k-1); the
    inversions are closed-form, which keeps Rankine-Hugoniot tests
    exact.  k = 2 is constructible (rho' > 0 holds) even though its
    sound speed is luminal; q_max's genuine-nonlinearity warning and
    ft_coefficients are where that surfaces.
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

    def __reduce__(self):
        return type(self), (self.coef, self.k, self.name)

    def rho(self, theta):
        c, k = self._rho
        return c * theta ** k

    def theta_of_rho(self, rho):
        if rho <= 0.0:
            raise EosError(f"rho must be positive, got {rho:g}")
        return (rho / self._rho[0]) ** self._inv_k

    def p_hat(self, rho):
        return rho / self._k1


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
    def cov(self):
        # psi_a = g_ab psi^b
        import numpy as np
        return np.array([-self.psi0, self.psi1])

    @property
    def theta(self):
        return (self.psi0 ** 2 - self.psi1 ** 2) ** -0.5

    def theta_u(self):
        """(theta, u^0, u^1) as floats."""
        t = self.theta
        return t, t * self.psi0, t * self.psi1

    @classmethod
    def from_rho_u1(cls, eos, rho, u1):
        theta = eos.theta_of_rho(rho)
        u0 = math.hypot(1.0, u1)
        return cls(u0 / theta, u1 / theta)

    def __repr__(self):
        return f"FluidState({self.psi0:.17g}, {self.psi1:.17g})"


def flux(t, psi0, psi1, eos):
    """The alpha-column of the momentum flux, T^{a1}, as a pair of
    floats: column 1 of T^ab = theta^3 p'(theta) psi^a psi^b
    + p(theta) g^ab, with g = diag(-1, 1) the metric of the t-x plane,
    at the state (psi0, psi1) of temperature t."""
    c = t ** 3 * eos.dp(t)
    return c * (psi0 * psi1), c * (psi1 * psi1) + eos.p(t)


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

    Returns (k000, k001, k011, k111).  H1 = [[k001, k011], [k011, k111]]
    is the flux Jacobian dF/dw, which the rest-point linearization
    reads.  H0 = [[k000, k001], [k001, k011]] is the mass matrix of the
    characteristic pencil H1 v = lam H0 v.  char_speeds does not solve
    that pencil: it takes the speeds from velocity addition, which
    stays accurate where H0 is ill-conditioned.
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
    nothing is rejected here.  Evaluated at the one temperature
    t = theta(rho): p_hat = p(t), p_hat' = cs^2(t) and
    p_hat'' = (d cs^2/d theta) / rho'(theta).
    """
    t = eos.theta_of_rho(rho)
    p1, p2, p3 = eos.dp(t), eos.d2p(t), eos.d3p(t)
    dcs2_dt = (p2 * (t * p2) - p1 * (p2 + t * p3)) / (t * p2) ** 2
    pp = dcs2_dt / eos.drho(t)
    cs2 = eos.cs2(t)
    return (rho + eos.p(t)) * pp + 2.0 * (1.0 - cs2) * cs2
