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
cross-product, residual SSE).  The total sum of squares, needed only for
r², is computed once, at the winning k.

A long series (``_PARALLEL_MIN_POINTS`` points or more) in a process that
may use a second CPU and runs no other Python thread splits its search
across two processes.  No candidate's SSE depends on another's, so a
child forked with ``os.fork`` evaluates the top half of the list while
this process evaluates the bottom half; the basins are refined here once
both are in.  The child's line fits come back over a pipe as native
doubles, and every fit is replayed in the serial order, so the result is
bit-identical to the in-process search.  Shorter series, a single usable CPU, another running
thread, a failed fork, a child that exits non-zero or one whose data comes
short all run the whole search in this process, through the same code.
"""

from __future__ import annotations

import math
import os
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


#: Geometric grid candidates over (max * _FLOOR_FACTOR, max * factor_max].
_N_GRID = 64
#: Grid floor as a multiple of the observed maximum.
_FLOOR_FACTOR = 1.001
#: Floor candidates below the grid, evenly spaced in u = ln(k/max - 1) from
#: ln(_FLOOR_GAP) up to, and excluding, the first grid candidate's u.
_N_FLOOR = 16
_FLOOR_GAP = 1e-15
#: Brent refinement stops once its bracket in u is no wider than this.
_U_TOL = 1e-9
#: Series with at least this many points split their k search across two
#: processes when a second CPU is usable; smaller ones search in-process.
_PARALLEL_MIN_POINTS = 500


@dataclass(frozen=True)
class KSearchConfig:
    """Upper bound of the saturation-level search.

    The search evaluates ``_N_FLOOR`` floor candidates k = max * (1 + e^u)
    with u evenly spaced from ln(``_FLOOR_GAP``) up to, and excluding, the
    first grid candidate's u = ln(k/max - 1), then ``_N_GRID`` geometric
    grid candidates over ``(max * _FLOOR_FACTOR, max * factor_max]``, the
    last one exactly ``max * factor_max``.  Each interior local minimum is
    refined by Brent's method in u until its bracket in u is no wider than
    ``_U_TOL``; as dk/du = k - max, that pins k to within about
    ``_U_TOL * (k - max)``.  A minimum at the ceiling is not refined:
    nothing above it is searched, so it brackets no interior minimum.  The
    grid stays geometric above ``max * _FLOOR_FACTOR`` because steps even
    in u grow with k and would miss a saturation level several times the
    data's maximum.
    """

    factor_max: float = 10.0

    def __post_init__(self) -> None:
        if not _FLOOR_FACTOR < self.factor_max < math.inf:
            raise ValueError(
                f"factor_max must be finite and exceed {_FLOOR_FACTOR}, "
                f"got {self.factor_max!r}"
            )


@dataclass(frozen=True)
class LogisticFit:
    """Fitted parameters plus linearized-regression diagnostics.

    ``k_search_trace`` records (k candidate, SSE) for every floor and grid
    candidate and, last, the refined optimum actually returned.
    ``sse_evals`` counts the candidates whose line fit the search computed,
    the floor and grid candidates included.
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


def _line_fit(
    line: _LineFit, values: tuple[float, ...], vmax: float, k: float
) -> tuple[float, float, float]:
    """(sse, slope, intercept) of the least-squares line through the
    log-odds at candidate k; ``vmax`` is the maximum of ``values``.

    Candidates not exceeding every observed value are infeasible (infinite
    SSE) rather than silently dropping the offending points.
    """
    if k <= vmax:
        return math.inf, math.nan, math.nan
    return line.fit(_log_odds(values, k))[:3]


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


#: One candidate's line fit as (k, sse, slope, intercept).
_Record = tuple[float, float, float, float]


def _line_fits(
    fit_at: Callable[[float], tuple[float, float, float]], ks: list[float]
) -> list[_Record]:
    """The line fit ``fit_at(k)`` of every candidate in ``ks``, in order."""
    return [(k, *fit_at(k)) for k in ks]


def _spare_cpu() -> bool:
    """Whether a forked child could run on a CPU beside this process.

    Not while another Python thread runs: a forked child holds only the
    forking thread, and a lock another thread held stays locked in it.
    """
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading and threading.active_count() > 1):
        return False
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:  # no affinity API on this platform
        return (os.cpu_count() or 1) > 1


def _split(
    own: Callable[[], list[_Record]], share: Callable[[], list[_Record]]
) -> list[_Record]:
    """``own() + share()``, with ``share`` run in a forked child while this
    process runs ``own``.

    The child sends its record count, then its records, as native doubles
    over a pipe and leaves with ``os._exit``.  When no child can be
    started, or it exits non-zero or its data comes short, this process
    runs ``share`` itself.  No child outlives the call: if ``own`` raises,
    the child is killed and reaped before the exception propagates.
    """
    import signal
    from array import array

    fds: tuple[int, ...] = ()
    try:
        fds = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return own() + share()
    r, w = fds
    if pid == 0:  # the child: never returns into the caller's frames
        code = 1
        try:
            os.close(r)
            records = share()
            payload = array("d", [len(records)])
            for record in records:
                payload.extend(record)
            with open(w, "wb") as pipe:
                pipe.write(payload.tobytes())
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    try:
        with open(r, "rb") as pipe:
            mine = own()
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    values = array("d")
    if status == 0 and len(data) % values.itemsize == 0:
        values.frombytes(data)
    if not values or len(values) != 1 + 4 * values[0]:
        return mine + share()
    flat = iter(values[1:])
    return mine + list(zip(flat, flat, flat, flat))


def fit_logistic(series: FmtSeries, search: KSearchConfig | None = None) -> LogisticFit:
    """Fit (a, b, k) to a series by linearized least squares with k-search.

    The slope of the best linearized fit is -b and its intercept is a;
    a non-positive b means the series does not rise like an S-curve.

    The SSE landscape in k is not globally unimodal: it diverges just
    above the observed maximum, dips at the physical saturation level,
    and decays toward a plateau as k grows (the exponential limit).  The
    candidates (see ``KSearchConfig``) therefore only locate basins: the
    floor candidates reach down to within 1e-15 of the maximum, and the
    geometric grid covers the rest up to the ceiling.  Each interior local
    minimum is refined by Brent's method in u = ln(k/max - 1), starting
    from the three candidates around it, whose SSEs the search already
    holds, so its first step is parabolic.  The first candidate and the
    ceiling ``max * factor_max`` bound the search and are not refined.
    The best candidate ever evaluated is returned.

    A series of at least ``_PARALLEL_MIN_POINTS`` points may have its
    search split across two processes (see the module docstring); the
    best candidate, its tie-breaking, ``k_search_trace`` and
    ``sse_evals`` are bit-identical either way.

    Times so large that the line fit's sums overflow (about 1e154 and
    beyond) or so close together that their spread underflows to zero
    raise ``FittingError``, as do values whose log-odds overflow at every
    candidate k (a maximum of about 1.8e307 or more, or a subnormal value
    beside ordinary ones).  A ceiling ``max * factor_max`` that overflows
    although the default factor's would not is the factor's fault and
    raises ``ConfigError``.
    """
    cfg = KSearchConfig() if search is None else search
    try:
        line = _LineFit(series.ts)
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
    values = series.values
    vmax = max(values)

    def fit_at(k: float) -> tuple[float, float, float]:
        return _line_fit(line, values, vmax, k)

    k_lo = vmax * _FLOOR_FACTOR
    k_hi = vmax * cfg.factor_max
    if k_hi == math.inf and vmax * KSearchConfig.factor_max < math.inf:
        raise ConfigError(
            f"series {series.name!r}: k-search factor {cfg.factor_max!r} times "
            f"the series maximum {vmax!r} overflows; the factor must stay "
            f"below about {sys.float_info.max / vmax:.6g}"
        )
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
    half = len(ks) // 2

    def own() -> list[_Record]:
        return _line_fits(fit_at, ks[:half])

    def share() -> list[_Record]:
        return _line_fits(fit_at, ks[half:])

    if len(values) >= _PARALLEL_MIN_POINTS and _spare_cpu():
        records = _split(own, share)
    else:
        records = own() + share()

    best_k = math.nan
    best = (math.inf, math.nan, math.nan)
    evals = 0

    def keep(k: float, sse: float, slope: float, intercept: float) -> float:
        nonlocal best_k, best, evals
        evals += 1
        if sse < best[0]:
            best_k, best = k, (sse, slope, intercept)
        return sse

    def refine(u: float) -> float:
        k = k_of(u)
        return keep(k, *fit_at(k))

    for record in records:
        keep(*record)
    sses = [sse for _, sse, _, _ in records]
    trace = list(zip(ks, sses))

    # Each interior local minimum is refined in u; the first candidate and
    # the last one, the ceiling, bound the search and are never refined.  A
    # run of equal SSEs is refined once, from its left end, so a plateau of
    # infeasible (infinite-SSE) candidates is never refined.
    for i in range(1, len(ks) - 1):
        left, right = (us[i - 1], sses[i - 1]), (us[i + 1], sses[i + 1])
        if left[1] > sses[i] <= right[1]:
            second, third = (left, right) if left[1] <= right[1] else (right, left)
            _brent(refine, left[0], right[0], (us[i], sses[i]), second, third)

    sse, slope, intercept = best
    if sse == math.inf:
        raise FittingError(
            f"series {series.name!r}: the log-odds overflow at every saturation "
            "candidate (arithmetic overflow), so no line can be fitted"
        )
    trace.append((best_k, sse))
    b = -slope
    if not b > 0.0:
        raise NotSShaped(
            f"series {series.name!r}: best linearized slope {slope!r} implies "
            f"non-positive growth rate"
        )
    return LogisticFit(
        params=LogisticParams(a=intercept, b=b, k=best_k),
        sse_linearized=sse,
        r2_linearized=line.r2(_log_odds(values, best_k), sse),
        k_search_trace=tuple(trace),
        sse_evals=evals,
    )
