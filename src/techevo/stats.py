"""Straight-line least squares with the full inference block, and
Student-t / F tail probabilities via the regularized incomplete beta
function.

``_LineFit`` is the package's one least-squares line kernel.  It does the
x-side work once, so the S-curve's k search (``logistic.fit_logistic``)
fits a line per saturation candidate on the same times through it, and
``ols_simple``, the log-log regression behind the evolutionary
coefficient, builds its inference block on the same sums.

Everything here is scalar stdlib arithmetic with exactly-rounded sums
(``math.fsum``) and squares taken as products (``x * x``, one IEEE-754
operation; ``x ** 2`` calls the C library's ``pow``, which need not be
correctly rounded), so identical inputs give bit-identical outputs on any
platform.  The incomplete beta uses the modified Lentz continued
fraction, good to better than 10 significant digits for degrees of
freedom up to 1e6.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ._record import Record
from .errors import DegenerateX, LengthMismatch, TooFewPoints


class OlsCore(Record):
    """Simple-regression result: coefficients, SEs, t's, fit statistics.

    ``f_stat`` comes from the ANOVA decomposition (regression sum of
    squares over residual mean square), not from squaring the t statistic,
    so the single-regressor identity F = t^2 is a genuine numerical check.
    The repr leaves out the residuals.
    """

    __slots__ = (
        "slope", "intercept", "se_slope", "se_intercept", "t_slope", "t_intercept",
        "r2", "r2_adj", "f_stat", "see", "sse", "n", "df", "residuals",
    )
    _hidden = ("residuals",)

    def __init__(
        self, slope: float, intercept: float, se_slope: float, se_intercept: float,
        t_slope: float, t_intercept: float, r2: float, r2_adj: float, f_stat: float,
        see: float, sse: float, n: int, df: int, residuals: tuple[float, ...],
    ) -> None:
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "se_slope", se_slope)
        object.__setattr__(self, "se_intercept", se_intercept)
        object.__setattr__(self, "t_slope", t_slope)
        object.__setattr__(self, "t_intercept", t_intercept)
        object.__setattr__(self, "r2", r2)
        object.__setattr__(self, "r2_adj", r2_adj)
        object.__setattr__(self, "f_stat", f_stat)
        object.__setattr__(self, "see", see)
        object.__setattr__(self, "sse", sse)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "df", df)
        object.__setattr__(self, "residuals", residuals)


def _t_ratio(estimate: float, se: float) -> float:
    if se > 0.0:
        return estimate / se
    if estimate == 0.0:
        return 0.0
    return math.copysign(math.inf, estimate)


class _LineFit:
    """Least-squares lines y = intercept + slope * x on one fixed x.

    The x-side work (mean, centred values, sum of squares) is done once, at
    construction; each ``fit`` then costs three exactly-rounded sums over
    the y values.  The S-curve's k search fits one line per saturation
    candidate on the same times, and ``ols_simple`` fits one.
    """

    __slots__ = ("x", "n", "xbar", "dx", "sxx")

    def __init__(self, x: Sequence[float]) -> None:
        self.x = x
        self.n = len(x)
        self.xbar = math.fsum(x) / self.n
        self.dx = [xi - self.xbar for xi in x]
        self.sxx = math.fsum(d * d for d in self.dx)
        if self.sxx == math.inf:
            raise OverflowError("x spread too wide: its sum of squares overflows")
        if self.sxx == 0.0:
            raise DegenerateX("x has zero variance; slope is unidentified")

    def fit(self, y: Sequence[float]) -> tuple[float, float, float, float]:
        """(sse, slope, intercept, sxy) of the least-squares line through y."""
        fsum = math.fsum
        ybar = fsum(y) / self.n
        sxy = fsum(d * (yi - ybar) for d, yi in zip(self.dx, y))
        slope = sxy / self.sxx
        intercept = ybar - slope * self.xbar
        sse = fsum((r := yi - (intercept + slope * xi)) * r for xi, yi in zip(self.x, y))
        return sse, slope, intercept, sxy

    def r2(self, y: Sequence[float], sse: float) -> float:
        """Coefficient of determination of a line through y with SSE ``sse``,
        clamped to [0, 1]."""
        ybar = math.fsum(y) / self.n
        sst = math.fsum((d := yi - ybar) * d for yi in y)
        if sst > 0.0:
            return min(1.0, max(0.0, 1.0 - sse / sst))
        return 1.0 if sse == 0.0 else 0.0


def ols_simple(x: Sequence[float], y: Sequence[float]) -> OlsCore:
    """Ordinary least squares of y on x with an intercept.

    Requires n >= 3 and non-constant x.  Residuals sum to zero and are
    orthogonal to x up to rounding; see^2 * (n - 2) equals the residual
    sum of squares by construction.
    """
    if len(x) != len(y):
        raise LengthMismatch(f"len(x)={len(x)} != len(y)={len(y)}")
    n = len(x)
    if n < 3:
        raise TooFewPoints(f"need >= 3 observations, got {n}")

    x = [float(v) for v in x]
    y = [float(v) for v in y]
    line = _LineFit(x)
    sse, slope, intercept, sxy = line.fit(y)
    residuals = tuple(yi - (intercept + slope * xi) for xi, yi in zip(x, y))
    r2 = line.r2(y, sse)
    df = n - 2
    r2_adj = 1.0 - (1.0 - r2) * (n - 1) / df

    see = math.sqrt(sse / df)
    se_slope = see / math.sqrt(line.sxx)
    se_intercept = see * math.sqrt(1.0 / n + line.xbar * line.xbar / line.sxx)

    # Regression sum of squares as slope * sxy (exact algebraic identity,
    # no catastrophic cancellation when r2 is close to 1).
    ssr = slope * sxy
    if sse > 0.0:
        f_stat = ssr / (sse / df)
    else:
        f_stat = math.inf if ssr > 0.0 else 0.0

    return OlsCore(
        slope=slope,
        intercept=intercept,
        se_slope=se_slope,
        se_intercept=se_intercept,
        t_slope=_t_ratio(slope, se_slope),
        t_intercept=_t_ratio(intercept, se_intercept),
        r2=r2,
        r2_adj=r2_adj,
        f_stat=f_stat,
        see=see,
        sse=sse,
        n=n,
        df=df,
        residuals=residuals,
    )


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
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = 1.0 + aa / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
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


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x!r} outside [0, 1]")
    return _incomplete_beta(a, b, x, 1.0 - x)


def _check_df(df: int) -> int:
    if df != int(df) or df < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    return int(df)


def t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom."""
    df = _check_df(df)
    if math.isnan(t):
        raise ValueError("t statistic is NaN")
    if math.isinf(t):
        return 0.0
    z = t * t
    return _incomplete_beta(df / 2.0, 0.5, df / (df + z), z / (df + z))


def t_cdf(t: float, df: int) -> float:
    """Student-t CDF; symmetric, so t_cdf(-t, df) = 1 - t_cdf(t, df)."""
    p = t_two_sided_p(abs(t), df)
    if t >= 0.0:
        return 1.0 - 0.5 * p
    return 0.5 * p


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


def t_quantile(p: float, df: int) -> float:
    """Inverse Student-t CDF by bisection on t_cdf (monotone, exact sums)."""
    df = _check_df(df)
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability {p!r} outside (0, 1)")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile(1.0 - p, df)
    hi = 1.0
    while t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e300:
            return math.inf
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
