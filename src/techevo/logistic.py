"""Symmetric logistic S-curve of a single technology.

The curve is ``value(t) = k / (1 + exp(a - b*t))``: it saturates at the
carrying capacity k, grows at rate b > 0, and passes through its
inflection point k/2 at t = a/b.  Equivalently, the log-odds transform
``log((k - v) / v)`` of any point on the curve equals ``a - b*t``, which
is what makes fitting linear once k is known.

Fitting strategy: k is not observable, so it is searched.  For each
candidate k the series is linearized and a straight line is fitted by
least squares; the candidate minimizing the line's SSE wins.  The search
evaluates one fixed list of candidates: floor candidates evenly spaced in
u = ln(k/max - 1), from k = max * (1 + 1e-15) up to the grid floor, then
a geometric grid up to the ceiling.  Every interior local minimum among
them is refined in u by Brent's method (parabolic steps with a
golden-section fallback), seeded with the candidates' own SSEs, until k
is known to about 1e-9 of its distance from the maximum.  All logarithms
are natural.

Only the log-odds side of the line fit depends on k.  The line is fitted
by ``stats._LineFit``, the least-squares kernel ``ols_simple`` also uses,
built once per fit on the series' times; each candidate then costs one
log pass plus the kernel's three exactly-rounded sums (mean log-odds,
cross-product, residual SSE).  The search carries one SSE per
candidate; the winner's line is refitted once, at the end, for its slope
and intercept, and the total sum of squares behind r² is computed from
the same log-odds.

The candidate scan only has to find the basins.  A long series (at least
``2 * _SCAN_POINTS`` points) is scanned on a fixed-stride subsample: every
``len // _SCAN_POINTS``-th point plus the point holding the maximum, with
its own ``_LineFit``.  Everything after the scan uses all the data: the
first and the ceiling candidates are re-evaluated, each basin of the scan
has its three candidates re-evaluated and steps one candidate downhill
until its middle is lowest, Brent refines it, and the lowest full-data
SSE wins.  A shorter series is scanned on all its points, so its scan
SSEs are its full-data SSEs and nothing is re-evaluated.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import (
    ConfigError,
    DegenerateX,
    FittingError,
    KTooSmall,
    LevelOutOfRange,
    NotSShaped,
)
from .series import FmtSeries
from .stats import _LineFit

#: Golden-section fraction 2 - phi of Brent's fallback step.
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0


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


#: Default ceiling of the k search as a multiple of the observed maximum.
DEFAULT_K_SEARCH_FACTOR = 10.0
#: Geometric grid candidates over (max * _FLOOR_FACTOR, max * k_search_factor].
_N_GRID = 64
#: Grid floor as a multiple of the observed maximum.
_FLOOR_FACTOR = 1.001
#: Floor candidates below the grid, evenly spaced in u = ln(k/max - 1) from
#: ln(_FLOOR_GAP) up to, and excluding, the first grid candidate's u.
_N_FLOOR = 16
_FLOOR_GAP = 1e-15
#: Brent refinement stops once its bracket in u is no wider than this.
_U_TOL = 1e-9
#: A series of n >= 2 * _SCAN_POINTS points is scanned on every
#: (n // _SCAN_POINTS)-th point plus its maximum's; shorter ones on all.
_SCAN_POINTS = 512


@dataclass(frozen=True)
class LogisticFit:
    """Fitted parameters plus linearized-regression diagnostics.

    ``k_search_trace`` records (k candidate, scan SSE) for every floor and
    grid candidate and, last, the refined optimum actually returned with
    its full-data SSE.  On a subsampled series (see ``fit_logistic``) the
    candidates' SSEs are those of the subsample; on a shorter one they are
    full-data SSEs.  ``sse_evals`` counts every SSE the search computed:
    the scan's, the full-data re-evaluations of candidates and Brent's
    steps; the one refit of the winner's line for its slope and intercept
    is not counted.
    """

    params: LogisticParams
    sse_linearized: float
    r2_linearized: float
    k_search_trace: tuple[tuple[float, float], ...] = field(repr=False)
    sse_evals: int = field(repr=False)


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


def _log_odds(values: tuple[float, ...], k: float) -> list[float]:
    log = math.log
    return [log((k - v) / v) for v in values]


def linearize(series: FmtSeries, k: float) -> tuple[tuple[float, float], ...]:
    """Log-odds transform: rows of (t, log((k - v) / v)).

    On data exactly following the curve with saturation k, the output lies
    on the line y = a - b*t.
    """
    if k <= series.max_value:
        raise KTooSmall(
            f"k={k!r} must exceed the maximum observed value {series.max_value!r}"
        )
    return tuple(zip(series.ts, _log_odds(series.values, k)))


def _line_fit(line: _LineFit, values: tuple[float, ...], vmax: float, k: float) -> float:
    """SSE of the least-squares line through the log-odds at candidate k;
    ``vmax`` is the maximum of ``values``.

    Candidates not exceeding every observed value are infeasible (infinite
    SSE) rather than silently dropping the offending points.
    """
    if k <= vmax:
        return math.inf
    return line.fit(_log_odds(values, k))[0]


def _brent(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    best: tuple[float, float],
    second: tuple[float, float],
    third: tuple[float, float],
) -> None:
    """Narrow a minimum of ``f`` bracketed by (lo, hi) with Brent's method.

    ``best``, ``second`` and ``third`` are (x, f(x)) points already
    evaluated, best first; ``best`` lies strictly inside the bracket.  The
    parabola through them is tried before any golden-section step, so three
    distinct points make the first step parabolic.  Stops once ``best`` is
    within ``_U_TOL / 2`` of both bracket ends, so the final bracket is no
    wider than ``_U_TOL``.  Steps are at least ``_U_TOL / 4``, so every
    evaluation narrows the bracket and the loop ends.  The caller keeps the
    best point through ``f``.

    On stopping, the vertex of the parabola through the three best points
    is evaluated once more if it lies inside the bracket: that one step
    lands on the bottom of a locally quadratic ``f``.
    """
    (x, fx), (w, fw), (v, fv) = best, second, third
    # Stand-ins for the last two steps, wide enough to admit a parabola.
    d = e = hi - lo
    while True:
        m = 0.5 * (lo + hi)
        tol1 = _U_TOL / 4.0
        tol2 = 2.0 * tol1
        # The parabola through x, w and v has its vertex at x + p / q.
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        if q > 0.0:
            p = -p
        q = abs(q)
        # Negated so that a non-finite bracket stops as well.
        if not abs(x - m) > tol2 - 0.5 * (hi - lo):
            if q > 0.0:
                u = x + p / q
                if lo < u < hi and u != x:
                    f(u)
            return
        parabolic = False
        if abs(e) > tol1:
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (lo - x) < p < q * (hi - x):
                d = p / q
                u = x + d
                if u - lo < tol2 or hi - u < tol2:
                    d = math.copysign(tol1, m - x)
                parabolic = True
        if not parabolic:
            e = (lo if x >= m else hi) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            if u >= x:
                lo = x
            else:
                hi = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                lo = u
            else:
                hi = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def fit_logistic(
    series: FmtSeries, k_search_factor: float = DEFAULT_K_SEARCH_FACTOR
) -> LogisticFit:
    """Fit (a, b, k) to a series by linearized least squares with k-search.

    The slope of the best linearized fit is -b and its intercept is a;
    a non-positive b means the series does not rise like an S-curve.

    The SSE landscape in k is not globally unimodal: it diverges just
    above the observed maximum, dips at the physical saturation level,
    and decays toward a plateau as k grows (the exponential limit).  The
    candidates therefore only locate basins: ``_N_FLOOR`` floor candidates
    evenly spaced in u = ln(k/max - 1) from ln(``_FLOOR_GAP``) up to the
    first grid candidate's u, then ``_N_GRID`` geometric ones over
    ``(max * _FLOOR_FACTOR, max * k_search_factor]`` (steps even in u grow
    with k and would miss a saturation level several times the maximum).
    Each interior local minimum is refined by Brent's method in u,
    starting from the three candidates around it, whose SSEs the search
    already holds, so its first step is parabolic, until its bracket in u
    is no wider than ``_U_TOL``, which pins k to about
    ``_U_TOL * (k - max)``.  The first candidate and the ceiling
    ``max * k_search_factor`` bound the search and are not refined.  The
    best full-data SSE ever evaluated is returned: the candidates' SSEs
    are scanned in candidate order, then Brent's steps in basin order,
    with a strict ``<``, so the first lowest wins and a nan never does,
    and only the winner's line is refitted, for its slope and intercept.

    A series of at least ``2 * _SCAN_POINTS`` points is scanned on a
    fixed-stride subsample (see the module docstring).  Only the scan
    sees the subsample: the bounds, each basin's candidates and its
    downhill steps are re-evaluated on all the data before Brent refines
    it there, so when the scan finds the winning basin the fit is the one
    a scan of all the data gives.  A shorter series is scanned on all its
    points and re-evaluates nothing.

    ``k_search_factor`` must be finite and exceed ``_FLOOR_FACTOR``, and a
    ceiling that overflows although the default factor's would not is the
    factor's fault too: both raise ``ConfigError`` before the series is
    searched.  A maximum so large that the default ceiling ``max * 10``
    overflows (about 1.8e307 or more) raises ``FittingError``, as do times
    so large that the line fit's sums overflow (about 1e154 and beyond) or
    so close together that their spread underflows to zero, and values
    whose log-odds overflow at every candidate k (a subnormal value beside
    ordinary ones).
    """
    ts, values = series.ts, series.values
    vmax = max(values)
    if not _FLOOR_FACTOR < k_search_factor < math.inf:
        raise ConfigError(
            f"k_search_factor must be finite and exceed {_FLOOR_FACTOR}, "
            f"got {k_search_factor!r}"
        )
    k_lo = vmax * _FLOOR_FACTOR
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
    # The scan's points: every stride-th one plus the maximum's.
    stride = max(1, len(values) // _SCAN_POINTS)
    keep = sorted({*range(0, len(values), stride), values.index(vmax)})
    scan_values = tuple(values[i] for i in keep)
    try:
        line = _LineFit(ts)
        scan_line = _LineFit([ts[i] for i in keep]) if stride > 1 else line
    except OverflowError as exc:
        raise FittingError(
            f"series {series.name!r}: times too large for the line fit "
            "(arithmetic overflow)"
        ) from exc
    except DegenerateX as exc:
        raise FittingError(
            f"series {series.name!r}: times too close together for the line "
            "fit (arithmetic underflow)"
        ) from exc

    def sse_at(k: float) -> float:
        return _line_fit(line, values, vmax, k)

    ratio = k_hi / k_lo
    scales = [ratio ** (i / _N_GRID) for i in range(1, _N_GRID + 1)]
    # u = ln(k/max - 1) of each grid candidate, from its exact multiple of max.
    grid_us = [math.log(_FLOOR_FACTOR * scale - 1.0) for scale in scales]
    u_floor = math.log(_FLOOR_GAP)
    step = (grid_us[0] - u_floor) / _N_FLOOR
    us = [u_floor + i * step for i in range(_N_FLOOR)]

    def k_of(u: float) -> float:
        return vmax + vmax * math.exp(u)

    ks = [k_of(u) for u in us] + [k_lo * scale for scale in scales[:-1]] + [k_hi]
    us += grid_us
    sses = [_line_fit(scan_line, scan_values, vmax, k) for k in ks]
    # Full-data SSEs by candidate index; a scan of all the data gives them all.
    full = {} if stride > 1 else dict(enumerate(sses))
    evals = len(ks)

    def full_sse(i: int) -> float:
        """Candidate i's full-data SSE, computed at most once."""
        nonlocal evals
        if i not in full:
            full[i] = sse_at(ks[i])
            evals += 1
        return full[i]

    # The first candidate and the last one, the ceiling, bound the search:
    # either may win, but neither is refined.  Each interior local minimum
    # of the scan is moved downhill, one candidate at a time, to a local
    # minimum of the full-data SSEs.  A run of equal SSEs is refined once,
    # from its left end, so a plateau of infeasible (infinite-SSE)
    # candidates is never refined.
    last = len(ks) - 1
    full_sse(0)
    full_sse(last)
    basins = set()
    for i in range(1, last):
        if not sses[i - 1] > sses[i] <= sses[i + 1]:
            continue
        j = i
        while 0 < j < last:
            left, mid, right = full_sse(j - 1), full_sse(j), full_sse(j + 1)
            if left > mid <= right:
                basins.add(j)
                break
            if right < mid:
                j += 1
            elif left <= mid:
                j -= 1
            else:  # a nan beside it: no basin here
                break

    # Strict <: the first lowest SSE wins, and a nan never does.
    best_sse, best_k = math.inf, math.nan
    for i in sorted(full):
        if full[i] < best_sse:
            best_sse, best_k = full[i], ks[i]

    def refine(u: float) -> float:
        nonlocal best_sse, best_k, evals
        k = k_of(u)
        sse = sse_at(k)
        evals += 1
        if sse < best_sse:
            best_sse, best_k = sse, k
        return sse

    for i in sorted(basins):
        left, right = (us[i - 1], full[i - 1]), (us[i + 1], full[i + 1])
        second, third = (left, right) if left[1] <= right[1] else (right, left)
        _brent(refine, left[0], right[0], (us[i], full[i]), second, third)

    if best_sse == math.inf:
        raise FittingError(
            f"series {series.name!r}: the log-odds overflow at every saturation "
            "candidate (arithmetic overflow), so no line can be fitted"
        )
    # The winner's line, refitted: the same computation on the same log-odds
    # as its evaluation, so it reproduces best_sse bit for bit.
    log_odds = _log_odds(values, best_k)
    _, slope, intercept, _ = line.fit(log_odds)
    b = -slope
    if not b > 0.0:
        raise NotSShaped(
            f"series {series.name!r}: best linearized slope {slope!r} implies "
            f"non-positive growth rate"
        )
    return LogisticFit(
        params=LogisticParams(a=intercept, b=b, k=best_k),
        sse_linearized=best_sse,
        r2_linearized=line.r2(log_odds, best_sse),
        k_search_trace=(*zip(ks, sses), (best_k, best_sse)),
        sse_evals=evals,
    )
