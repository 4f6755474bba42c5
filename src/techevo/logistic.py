"""Symmetric logistic S-curve of a single technology.

The curve is ``value(t) = k / (1 + exp(a - b*t))``: it saturates at the
carrying capacity k, grows at rate b > 0, and passes through its
inflection point k/2 at t = a/b.  All logarithms are natural.

Fits minimize the SSE of the log values, where multiplicative noise is
additive: ``sum((ln v - c + softplus(a - b*t))**2)``, c = ln k.  For fixed
(a, b) the best c is the mean of ``ln v + softplus(a - b*t)``, so c is
projected out (variable projection, Golub & Pereyra 1973), capped at the
ceiling ln(max * k_search_factor), and (a, b) are found by Newton steps
with Marquardt (1963) damping from a closed-form Verhulst start.
"""

from __future__ import annotations

import math
import sys
from operator import mul

from ._record import Record
from .errors import ConfigError, DegenerateX, FittingError, NotSShaped
from .series import FmtSeries
from .stats import _centred, _line_fit, _r_squared


class LogisticParams(Record):
    """Parameters (a, b, k) of value(t) = k / (1 + exp(a - b*t))."""

    __slots__ = ("a", "b", "k")

    def _check(self) -> None:
        a, b, k = self.a, self.b, self.k
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(k)):
            raise ValueError("logistic parameters must be finite")
        if b <= 0.0:
            raise ValueError(f"growth rate b must be positive, got {b!r}")
        if k <= 0.0:
            raise ValueError(f"saturation level k must be positive, got {k!r}")

    @property
    def inflection_time(self) -> float:
        return self.a / self.b


#: Default upper bound on k over the observed maximum, and the floor of factors.
DEFAULT_K_SEARCH_FACTOR = 10.0
_MIN_FACTOR = 1.001
#: Long series are first fitted on every (n // _SUBSAMPLE_POINTS)-th point.
_SUBSAMPLE_POINTS = 512
#: Objective evaluations allowed per fit; reaching the cap raises FittingError.
MAX_EVALS = 100
#: Step sizes are the most a step moves a - b*t (|tau| <= 1).  The last step
#: is an undamped one of at most _STEP_TOL, or of at most _NEAR_TOL and
#: predicted to lower the SSE by at most _REL_DECREASE of itself.  Steps
#: longer than _STEP_MAX plus the present largest |a - b*t|, or to
#: |a - b*t| above _X_MAX, are rejected.
_STEP_TOL = 1e-7
_NEAR_TOL = 1e-3
_REL_DECREASE = 1e-6
_STEP_MAX = 2.0
_X_MAX = 1e6
#: Marquardt damping: the smallest tried, and the limit.
_LAMBDA_START = 1e-4
_LAMBDA_MAX = 1e20


class LogisticFit(Record):
    """Fitted parameters plus log-space diagnostics: ``sse_log``, the
    minimized SSE of ln v, ``r2_log`` = 1 - sse_log / SST of ln v clamped
    to [0, 1], ``k_at_bound``, k at the ceiling ``max * k_search_factor``,
    and ``sse_evals``, the SSE evaluations made, left out of the repr."""

    __slots__ = ("params", "sse_log", "r2_log", "k_at_bound", "sse_evals")
    _hidden = ("sse_evals",)


def logistic_value(params: LogisticParams, t: float) -> float:
    """Evaluate the S-curve at time t; strictly increasing in t."""
    x = params.a - params.b * t
    # Evaluate through exp of a non-positive argument so no finite t overflows.
    if x > 0.0:
        e = math.exp(-x)
        return params.k * e / (1.0 + e)
    return params.k / (1.0 + math.exp(x))


def _residuals(ys, taus, c_max, alpha, beta):
    """(sse, c, ws) of ln v = c - softplus(alpha - beta * tau): ws holds
    ln v + softplus, c its mean capped at ``c_max``, ws - c the residuals."""
    exp, log1p = math.exp, math.log1p
    # softplus(x) = max(x, 0) + ln(1 + e^-|x|), so no exponential overflows.
    ws = [
        y + (x + log1p(exp(-x)) if (x := alpha - beta * tau) > 0.0 else log1p(exp(x)))
        for y, tau in zip(ys, taus)
    ]
    c = min(math.fsum(ws) / len(ws), c_max)
    return math.fsum((r := w - c) * r for w in ws), c, ws


def _derivatives(taus, ws, c, alpha, beta, projected):
    """(g_a, g_b, H, J, means): half the gradient and Hessian H of the SSE
    in (alpha, beta), J the Gauss-Newton part of H, centred where c is
    ``projected`` (c moves with alpha and beta there), and means the
    gradient of the projected c, or None."""
    fsum, exp = math.fsum, math.exp
    # p = sigmoid(x), the slope of softplus; p * (1 - p) is its curvature.
    ps = [
        1.0 / (1.0 + exp(-x)) if (x := alpha - beta * t) > 0.0 else (e := exp(x)) / (1.0 + e)
        for t in taus
    ]
    rqs = [(w - c) * p * (1.0 - p) for w, p in zip(ws, ps)]
    # Centred and multiplied by tau inside each sum, not in new lists, which
    # at n = 10 000 would each hold 0.3 MB.
    n = len(ps)
    m, tm = (fsum(ps) / n, fsum(map(mul, taus, ps)) / n) if projected else (0.0, 0.0)
    j = (
        fsum((d := p - m) * d for p in ps),
        -fsum((p - m) * (tau * p - tm) for p, tau in zip(ps, taus)),
        fsum((d := tau * p - tm) * d for p, tau in zip(ps, taus)),
    )
    return (
        fsum((w - c) * (p - m) for w, p in zip(ws, ps)),
        -fsum((w - c) * (tau * p - tm) for w, p, tau in zip(ws, ps, taus)),
        (j[0] + fsum(rqs), j[1] - fsum(map(mul, rqs, taus)),
         j[2] + fsum(rq * tau * tau for rq, tau in zip(rqs, taus))),
        j,
        (m, -tm) if projected else None,
    )


def _newton_step(derivs, lam):
    """-H^-1 g for ``lam`` 0, else -(J + lam * D)^-1 g, D the diagonal of J
    floored above 0; None unless the matrix is positive definite."""
    g_a, g_b, hessian, (j_aa, j_ab, j_bb), _ = derivs
    if lam == 0.0:
        m_aa, m_ab, m_bb = hessian
    else:
        floor = 1e-6 * (j_aa + j_bb)
        m_aa, m_ab, m_bb = j_aa + lam * (j_aa + floor), j_ab, j_bb + lam * (j_bb + floor)
    det = m_aa * m_bb - m_ab * m_ab
    if not (m_aa > 0.0 and det > 0.0):
        return None
    return (m_ab * g_b - m_bb * g_a) / det, (m_ab * g_a - m_aa * g_b) / det


def _descend(ys, taus, c_max, alpha, beta, evals):
    """Damped Newton descent of the log-space SSE from (alpha, beta).

    Each pass tries the Newton step, then Marquardt steps from the damping
    that last succeeded, ten times more after each rejection.  A step is
    rejected unless its matrix is positive definite, it keeps b > 0 and
    the step bounds, and it lowers the SSE; one damped to ``_STEP_TOL``
    ends the descent.  A step that would lift the projected c past
    ``c_max`` is replaced by the step with c held there.  Returns (alpha,
    beta, sse, c, evals).
    """
    sse, c, ws = _residuals(ys, taus, c_max, alpha, beta)
    evals += 1
    derivs = _derivatives(taus, ws, c, alpha, beta, c < c_max)
    lam = _LAMBDA_START
    while True:
        damping = 0.0
        while True:
            step = _newton_step(derivs, damping)
            means = derivs[4]
            if step and means and c + means[0] * step[0] + means[1] * step[1] > c_max:
                derivs = _derivatives(taus, ws, c_max, alpha, beta, False)
                continue
            if step:
                size = abs(step[0]) + abs(step[1])
                if damping and size <= _STEP_TOL:
                    return alpha, beta, sse, c, evals
                last = damping == 0.0 and (size <= _STEP_TOL or size <= _NEAR_TOL and (
                    -(derivs[0] * step[0] + derivs[1] * step[1]) <= _REL_DECREASE * sse
                ))
                a1, b1 = alpha + step[0], beta + step[1]
                bounded = size <= _STEP_MAX + abs(alpha) + beta and abs(a1) + b1 <= _X_MAX
                if 0.0 < b1 and bounded:
                    if evals == MAX_EVALS:
                        raise FittingError(f"no convergence in {MAX_EVALS} evaluations")
                    trial = _residuals(ys, taus, c_max, a1, b1)
                    evals += 1
                    if trial[0] < sse:
                        # A step that moves c onto or off the ceiling is not the last.
                        last = last and (trial[1] < c_max) == (derivs[4] is not None)
                        alpha, beta, (sse, c, ws) = a1, b1, trial
                        if not last:
                            break
                if last:
                    return alpha, beta, sse, c, evals
            if damping >= _LAMBDA_MAX:
                return alpha, beta, sse, c, evals
            damping = damping * 10.0 if damping else lam
        derivs = _derivatives(taus, ws, c, alpha, beta, c < c_max)
        lam = max(damping / 10.0, _LAMBDA_START)


def _start(ys, taus, ts, scale_exp, factor):
    """Closed-form (alpha, beta) from the Verhulst form of the curve.

    d ln v/dt = b - (b/k) * v is linear in v: the least-squares line of the
    neighbour slopes Δln v/Δt on the neighbours' geometric mean value has
    intercept b and slope -b/k.  a is the mean of b*t + ln(k/v - 1), k/max
    kept in [1.5, factor] so every term is defined.  Where the line does
    not fall (before the inflection), b is the slope of ln v on t and
    k/max is 2; ``NotSShaped`` if neither rate is positive.
    """
    y_max = max(ys)
    try:
        us = [math.exp(0.5 * (y0 + y1) - y_max) for y0, y1 in zip(ys, ys[1:])]
        zs = [
            math.ldexp((y1 - y0) / (t1 - t0), scale_exp)
            for y0, y1, t0, t1 in zip(ys, ys[1:], ts, ts[1:])
        ]
        _, slope, beta, *_ = _line_fit(us, zs)
        kappa = -beta / slope
    except (ArithmeticError, ValueError, DegenerateX):  # overflows, inf - inf
        slope = beta = kappa = math.nan
    if not (slope < 0.0 < beta < _X_MAX and kappa < math.inf):
        beta, kappa = _line_fit(taus, ys)[1], 2.0
        if not beta > 0.0:
            raise NotSShaped("the series does not rise: its log values trend flat or down")
    kappa = min(max(kappa, 1.5), factor)
    # ln(kappa * max / v - 1), written so no exponential overflows.
    return math.fsum(
        [beta * tau + (y_max - y) + math.log(kappa - math.exp(y - y_max))
         for y, tau in zip(ys, taus)]
    ) / len(ys), beta


def fit_logistic(
    series: FmtSeries, k_search_factor: float = DEFAULT_K_SEARCH_FACTOR
) -> LogisticFit:
    """Fit (a, b, k), b > 0 and 0 < k <= max * k_search_factor, by least
    squares on the log values (see the module docstring).

    k may fall below the observed maximum, which multiplicative noise on a
    saturated series overshoots.  The search runs on times centred and
    scaled by a power of two into [-1, 1], exactly.  A series of n >= 1024
    points is started and first fitted on every (n // 512)-th point.

    ``ConfigError``: a factor not finite or not above 1.001, or whose
    ceiling overflows where the default's would not.  ``FittingError``: a
    maximum whose default ceiling overflows (about 1.8e307 and up), times
    whose centred sum of squares overflows (about 1e154 and up) or
    underflows to zero, or no convergence in ``MAX_EVALS`` evaluations.
    """
    ts, values = series.ts, series.values
    vmax = max(values)
    if not _MIN_FACTOR < k_search_factor < math.inf:
        raise ConfigError(
            f"k_search_factor must be finite and exceed {_MIN_FACTOR}, "
            f"got {k_search_factor!r}"
        )
    k_hi = vmax * k_search_factor
    if k_hi == math.inf:
        if vmax * DEFAULT_K_SEARCH_FACTOR < math.inf:
            raise ConfigError(
                f"series {series.name!r}: k-search factor {k_search_factor!r} times "
                f"the series maximum {vmax!r} overflows; the factor must stay "
                f"below about {sys.float_info.max / vmax:.6g}"
            )
        raise FittingError(
            f"series {series.name!r}: the series maximum {vmax!r} is too large "
            f"for the k-search ceiling max * factor, factor {k_search_factor!r} "
            "(arithmetic overflow)"
        )
    try:
        t_mean, dx, _ = _centred(ts)
    except (OverflowError, DegenerateX) as exc:
        raise FittingError(
            f"series {series.name!r}: times too far apart or too close together "
            "to fit (their centred sum of squares overflows or underflows)"
        ) from exc
    scale_exp = math.frexp(max(map(abs, dx)))[1]
    taus = [math.ldexp(d, -scale_exp) for d in dx]
    del dx  # the centred times would stay alive through the fit
    ys = [math.log(v) for v in values]
    c_max = math.log(k_hi)
    stride = max(1, len(ys) // _SUBSAMPLE_POINTS)
    try:
        sub_ys, sub_taus = ys[::stride], taus[::stride]
        alpha, beta = _start(sub_ys, sub_taus, ts[::stride], scale_exp, k_search_factor)
        evals = 0
        if stride > 1:
            alpha, beta, _, _, evals = _descend(sub_ys, sub_taus, c_max, alpha, beta, evals)
        alpha, beta, sse, c, evals = _descend(ys, taus, c_max, alpha, beta, evals)
    except FittingError as exc:
        exc.args = (f"series {series.name!r}: {exc}",)
        raise
    b = math.ldexp(beta, -scale_exp)
    a = alpha + b * t_mean
    if not (b > 0.0 and math.isfinite(a)):
        raise FittingError(f"series {series.name!r}: fitted b={b!r} (arithmetic underflow)")
    at_bound = c == c_max
    k = k_hi if at_bound else min(math.exp(c), k_hi)
    return LogisticFit(LogisticParams(a, b, k), sse, _r_squared(ys, sse), at_bound, evals)
