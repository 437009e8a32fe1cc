"""Brent's bracketing root finder, a port of scipy.optimize.brentq.

The jump conditions and the event location of `rk45.integrate` find
their roots here.  The port follows scipy's `brentq.c` line for line:
the same bracket swap, the same interpolation and extrapolation tests,
the tolerance delta = (xtol + rtol |x|) / 2 and the same step rule.  So
it evaluates f at the same points and returns the same float as
`scipy.optimize.brentq` with the same arguments, without importing
scipy.
"""

import math
import sys

# scipy's defaults for xtol, rtol and maxiter
XTOL = 2e-12
RTOL = 4 * sys.float_info.epsilon
MAXITER = 100


def brentq(f, a, b, xtol=XTOL, rtol=RTOL, maxiter=MAXITER):
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Raises ValueError when f(a) and f(b) have the same sign or f returns
    NaN, and RuntimeError when maxiter iterations do not converge, as
    scipy.optimize.brentq does.  Requires xtol > 0 and rtol >= RTOL.
    """
    def call(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
