"""Numeric kernels: straight-line least squares, and the two-sided
Student-t and F upper-tail probabilities via the regularized incomplete
beta function.

``_line_fit`` is the package's one least-squares line kernel:
``coevolution.estimate_evolution``, the log-log regression behind the
evolutionary coefficient, builds its inference block on its sums, and the
S-curve fit (``logistic.fit_logistic``) takes its closed-form start from
it and its centred times from ``_centred``.

Everything here is scalar stdlib arithmetic with exactly-rounded sums
(``math.fsum``) and squares taken as products (``x * x``, one IEEE-754
operation; ``x ** 2`` calls the C library's ``pow``, which need not be
correctly rounded), so identical inputs give bit-identical outputs on any
platform.  The incomplete beta uses the modified Lentz continued
fraction, good to better than 10 significant digits for degrees of
freedom up to 1e6.  Every p value the package reports is an F(1, df)
upper tail from that one continued fraction: the two-sided Student-t
tail at t is ``f_sf(t * t, 1, df)``, since T^2 ~ F(1, df).  Nothing the
package computes needs a CDF or a quantile, so neither is offered.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import mul

from .errors import DegenerateX


def _t_ratio(estimate: float, se: float) -> float:
    if se > 0.0:
        return estimate / se
    if estimate == 0.0:
        return 0.0
    return math.copysign(math.inf, estimate)


def _centred(x: Sequence[float]) -> tuple[float, list[float], float]:
    """(mean, centred values, centred sum of squares) of x; a slope on x
    is undefined if the sum of squares overflows (``OverflowError``) or is
    zero (``DegenerateX``)."""
    xbar = math.fsum(x) / len(x)
    dx = [xi - xbar for xi in x]
    sxx = math.fsum(map(mul, dx, dx))
    if sxx == math.inf:
        raise OverflowError("x spread too wide: its sum of squares overflows")
    if sxx == 0.0:
        raise DegenerateX("x has zero variance; slope is unidentified")
    return xbar, dx, sxx


def _line_fit(x: Sequence[float], y: Sequence[float]) -> tuple[float, ...]:
    """(sse, slope, intercept, sxy, xbar, sxx) of the least-squares line
    y = intercept + slope * x, with xbar and sxx from ``_centred(x)``."""
    fsum = math.fsum
    xbar, dx, sxx = _centred(x)
    ybar = fsum(y) / len(y)
    sxy = fsum(d * (yi - ybar) for d, yi in zip(dx, y))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    sse = fsum((r := yi - (intercept + slope * xi)) * r for xi, yi in zip(x, y))
    return sse, slope, intercept, sxy, xbar, sxx


def _r_squared(y: Sequence[float], sse: float) -> float:
    """Coefficient of determination of a fit to y with SSE ``sse``, clamped
    to [0, 1]; a constant y explains nothing, so its r2 is 0 (the 0/0
    convention of ``_t_ratio``)."""
    ybar = math.fsum(y) / len(y)
    sst = math.fsum((d := yi - ybar) * d for yi in y)
    if sst > 0.0:
        return min(1.0, max(0.0, 1.0 - sse / sst))
    return 0.0


# ---------------------------------------------------------------------------
# Regularized incomplete beta and derived tail probabilities
# ---------------------------------------------------------------------------

_LENTZ_TINY = 1e-300
_LENTZ_EPS = 1e-16
_LENTZ_MAX_ITER = 500


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _LENTZ_TINY:
        d = _LENTZ_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _LENTZ_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < _LENTZ_TINY:
                d = _LENTZ_TINY
            c = 1.0 + aa / c
            if abs(c) < _LENTZ_TINY:
                c = _LENTZ_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _LENTZ_EPS:
            return h
    return h


def _stirling_tail(z: float) -> float:
    """Correction series of ln Gamma beyond (z-1/2)ln z - z + ln(2*pi)/2."""
    zi = 1.0 / z
    z2 = zi * zi
    return zi * (
        1.0 / 12.0 - z2 * (1.0 / 360.0 - z2 * (1.0 / 1260.0 - z2 / 1680.0))
    )


def _lgamma_diff(a: float, b: float) -> float:
    """ln Gamma(a + b) - ln Gamma(a) without cancellation for large a.

    Subtracting two lgamma values of order a*ln(a) loses ~1e-9 absolute
    precision by a = 5e5; the Stirling form keeps every term O(b*ln(a)).
    """
    if a < 50.0:
        return math.lgamma(a + b) - math.lgamma(a)
    return (
        (a - 0.5) * math.log1p(b / a)
        + b * math.log(a + b)
        - b
        + _stirling_tail(a + b)
        - _stirling_tail(a)
    )


def _ln_beta(a: float, b: float) -> float:
    """ln B(a, b), accurate even when one shape parameter is huge."""
    if a < b:
        a, b = b, a
    return math.lgamma(b) - _lgamma_diff(a, b)


def _incomplete_beta(a: float, b: float, x: float, xc: float) -> float:
    """I_x(a, b) given both x and its complement xc = 1 - x.

    The complement is passed explicitly (not recomputed as 1 - x) so that
    tails with x within rounding distance of 1 keep full precision in both
    the log term and the continued-fraction argument.
    """
    if x <= 0.0:
        return 0.0
    if xc <= 0.0:
        return 1.0
    ln_x = math.log(x) if x <= 0.5 else math.log1p(-xc)
    ln_xc = math.log(xc) if xc <= 0.5 else math.log1p(-x)
    front = math.exp(a * ln_x + b * ln_xc - _ln_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, xc) / b


def _check_df(df: int) -> int:
    if df != int(df) or df < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    return int(df)


def t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom: the
    F(1, df) upper tail at t^2, since T^2 ~ F(1, df)."""
    return f_sf(t * t, 1, df)


def f_sf(f: float, df1: int, df2: int) -> float:
    """Survival P(F >= f) for the F distribution with (df1, df2) df."""
    df1 = _check_df(df1)
    df2 = _check_df(df2)
    if math.isnan(f):
        raise ValueError("F statistic is NaN")
    if f <= 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    z = df1 * f
    return _incomplete_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + z), z / (df2 + z))

