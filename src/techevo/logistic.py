"""Symmetric logistic S-curve of a single technology.

The curve is ``value(t) = k / (1 + exp(a - b*t))``: it saturates at the
carrying capacity k, grows at rate b > 0, and passes through its
inflection point k/2 at t = a/b.  Equivalently, the log-odds transform
``log((k - v) / v)`` of any point on the curve equals ``a - b*t``, which
is what makes fitting linear once k is known.

Fitting strategy: k is not observable, so it is searched.  For each
candidate k the series is linearized and a straight line is fitted by
least squares; the candidate minimizing the line's SSE wins.  The search
runs a geometric grid above the observed maximum and refines every local
basin the grid reveals by golden-section search.  All logarithms are
natural.

Only the log-odds side of the line fit depends on k.  The times, values,
maximum, mean time, centred times and their sum of squares are built once
per fit; each candidate then costs one log pass plus three exactly-rounded
sums (mean log-odds, cross-product, residual SSE).  The total sum of
squares, needed only for r², is computed once, at the winning k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import FittingError, KTooSmall, LevelOutOfRange, NotSShaped
from .series import FmtSeries

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class LogisticParams:
    """Parameters (a, b, k) of value(t) = k / (1 + exp(a - b*t))."""

    a: float
    b: float
    k: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b) and math.isfinite(self.k)):
            raise ValueError("logistic parameters must be finite")
        if self.b <= 0.0:
            raise ValueError(f"growth rate b must be positive, got {self.b!r}")
        if self.k <= 0.0:
            raise ValueError(f"saturation level k must be positive, got {self.k!r}")

    @property
    def inflection_time(self) -> float:
        return self.a / self.b


#: Geometric grid candidates over (max * _FLOOR_FACTOR, max * factor_max].
_N_GRID = 64
#: Grid floor as a multiple of the observed maximum.
_FLOOR_FACTOR = 1.001
#: Golden-section refinement stops below this relative bracket width.
_REL_TOL = 1e-9


@dataclass(frozen=True)
class KSearchConfig:
    """Upper bound of the saturation-level search.

    The grid has ``_N_GRID`` geometric candidates over
    ``(max_value * _FLOOR_FACTOR, max_value * factor_max]``; each traced
    local minimum is refined by golden-section search until the bracket's
    relative width drops below ``_REL_TOL``.  The interval between the
    observed maximum and the grid floor is always refined too, so a true
    saturation level closer than ``_FLOOR_FACTOR`` to the data is still
    reachable.
    """

    factor_max: float = 10.0

    def __post_init__(self) -> None:
        if not self.factor_max > _FLOOR_FACTOR:
            raise ValueError(
                f"factor_max must exceed {_FLOOR_FACTOR}, got {self.factor_max!r}"
            )


@dataclass(frozen=True)
class LogisticFit:
    """Fitted parameters plus linearized-regression diagnostics.

    ``k_search_trace`` records (k candidate, SSE) for every grid candidate
    and, last, the refined optimum actually returned.
    """

    params: LogisticParams
    sse_linearized: float
    r2_linearized: float
    k_search_trace: tuple[tuple[float, float], ...] = field(repr=False)


def logistic_value(params: LogisticParams, t: float) -> float:
    """Evaluate the S-curve at time t; strictly increasing in t."""
    x = params.a - params.b * t
    # Evaluate through exp of a non-positive argument so no finite t overflows.
    if x > 0.0:
        e = math.exp(-x)
        return params.k * e / (1.0 + e)
    return params.k / (1.0 + math.exp(x))


def solve_time(params: LogisticParams, level: float) -> float:
    """Invert the S-curve: the time at which it reaches ``level``.

    t = a/b - (1/b) * log((k - level) / level), defined for 0 < level < k.
    """
    if not (0.0 < level < params.k):
        raise LevelOutOfRange(
            f"level {level!r} outside (0, {params.k!r})"
        )
    return (params.a - math.log((params.k - level) / level)) / params.b


def linearize(series: FmtSeries, k: float) -> tuple[tuple[float, float], ...]:
    """Log-odds transform: rows of (t, log((k - v) / v)).

    On data exactly following the curve with saturation k, the output lies
    on the line y = a - b*t.
    """
    if k <= series.max_value:
        raise KTooSmall(
            f"k={k!r} must exceed the maximum observed value {series.max_value!r}"
        )
    return tuple((t, math.log((k - v) / v)) for t, v in series.points)


class _LineFitContext:
    """The k-independent parts of the linearized line fit of one series."""

    __slots__ = ("ts", "values", "vmax", "n", "xbar", "dx", "sxx")

    def __init__(self, series: FmtSeries) -> None:
        self.ts = series.ts
        self.values = series.values
        self.vmax = max(self.values)
        self.n = len(self.ts)
        self.xbar = math.fsum(self.ts) / self.n
        self.dx = [t - self.xbar for t in self.ts]
        self.sxx = math.fsum(d ** 2 for d in self.dx)

    def log_odds(self, k: float) -> list[float]:
        log = math.log
        return [log((k - v) / v) for v in self.values]

    def fit(self, k: float) -> tuple[float, float, float]:
        """(sse, slope, intercept) of the least-squares line through the
        log-odds at candidate k.

        Candidates not exceeding every observed value are infeasible (infinite
        SSE) rather than silently dropping the offending points.
        """
        if k <= self.vmax:
            return math.inf, math.nan, math.nan
        fsum = math.fsum
        ys = self.log_odds(k)
        ybar = fsum(ys) / self.n
        sxy = fsum(d * (y - ybar) for d, y in zip(self.dx, ys))
        slope = sxy / self.sxx
        intercept = ybar - slope * self.xbar
        sse = fsum((y - (intercept + slope * t)) ** 2 for t, y in zip(self.ts, ys))
        return sse, slope, intercept

    def sst(self, k: float) -> float:
        """Total sum of squares of the log-odds at k, the base of r²."""
        ys = self.log_odds(k)
        ybar = math.fsum(ys) / self.n
        return math.fsum((y - ybar) ** 2 for y in ys)


def fit_logistic(series: FmtSeries, search: KSearchConfig | None = None) -> LogisticFit:
    """Fit (a, b, k) to a series by linearized least squares with k-search.

    The slope of the best linearized fit is -b and its intercept is a;
    a non-positive b means the series does not rise like an S-curve.

    The SSE landscape in k is not globally unimodal: it diverges just
    above the observed maximum, dips at the physical saturation level,
    and decays toward a plateau as k grows (the exponential limit).  The
    grid therefore only locates candidate basins; each traced local
    minimum is refined by golden-section search, as is the leading
    interval below the grid floor, where a saturation level within
    ``_FLOOR_FACTOR`` of the data would otherwise be invisible.

    The series' times, values, maximum, mean time and centred times are
    extracted once per call; each candidate k then only linearizes and
    fits the line (see ``_LineFitContext``).  The total sum of squares
    behind ``r2_linearized`` is computed once, for the winning k.  Times so
    large that those sums overflow (about 1e154 and beyond) raise
    ``FittingError``.
    """
    cfg = KSearchConfig() if search is None else search
    try:
        ctx = _LineFitContext(series)
    except OverflowError as exc:
        raise FittingError(
            f"series {series.name!r}: times too large for the line fit "
            "(arithmetic overflow)"
        ) from exc
    vmax = ctx.vmax
    k_lo = vmax * _FLOOR_FACTOR
    k_hi = vmax * cfg.factor_max
    ratio = k_hi / k_lo
    edge = math.nextafter(vmax, math.inf)

    trace: list[tuple[float, float]] = []
    best_k = math.nan
    best = (math.inf, math.nan, math.nan)

    def evaluate(k: float) -> float:
        nonlocal best_k, best
        res = ctx.fit(k)
        if res[0] < best[0]:
            best_k, best = k, res
        return res[0]

    grid = [k_lo * ratio ** (i / _N_GRID) for i in range(1, _N_GRID + 1)]
    for k in grid:
        trace.append((k, evaluate(k)))
    sses = [s for _, s in trace]
    last = len(grid) - 1

    def refine(lo: float, hi: float) -> None:
        c = hi - _INV_PHI * (hi - lo)
        d = lo + _INV_PHI * (hi - lo)
        fc = evaluate(c)
        fd = evaluate(d)
        while hi - lo > _REL_TOL * hi:
            if fc <= fd:
                hi, d, fd = d, c, fc
                c = hi - _INV_PHI * (hi - lo)
                fc = evaluate(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + _INV_PHI * (hi - lo)
                fd = evaluate(d)

    refine(edge, grid[0])
    for i in range(len(grid)):
        left_higher = i == 0 or sses[i - 1] >= sses[i]
        right_higher = i == last or sses[i + 1] >= sses[i]
        if left_higher and right_higher:
            refine(grid[i - 1] if i > 0 else edge, grid[i + 1] if i < last else k_hi)

    sse, slope, intercept = best
    trace.append((best_k, sse))
    b = -slope
    if not b > 0.0:
        raise NotSShaped(
            f"series {series.name!r}: best linearized slope {slope!r} implies "
            f"non-positive growth rate"
        )
    sst = ctx.sst(best_k)
    if sst > 0.0:
        r2 = min(1.0, max(0.0, 1.0 - sse / sst))
    else:
        r2 = 1.0 if sse == 0.0 else 0.0
    return LogisticFit(
        params=LogisticParams(a=intercept, b=b, k=best_k),
        sse_linearized=sse,
        r2_linearized=r2,
        k_search_trace=tuple(trace),
    )
