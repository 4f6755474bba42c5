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
basin the grid reveals by Brent's method (parabolic steps with a
golden-section fallback), seeded with the grid's own SSEs.  All
logarithms are natural.

Only the log-odds side of the line fit depends on k.  The times, values,
maximum, mean time, centred times and their sum of squares are built once
per fit; each candidate then costs one log pass plus three exactly-rounded
sums (mean log-odds, cross-product, residual SSE).  The total sum of
squares, needed only for r², is computed once, at the winning k.

A long series (``_PARALLEL_MIN_POINTS`` points or more) in a process that
may use a second CPU and runs no other Python thread splits its search
across two processes.  The top of
the grid and the floor-interval refinement need no other grid SSE, so a
child forked with ``os.fork`` evaluates them while this process evaluates
the rest of the grid; the basins are refined here once both are in.  The
child's line fits come back over a pipe as native doubles, and every fit
is replayed in the serial order, so the result is bit-identical to the
in-process search.  Shorter series, a single usable CPU, another running
thread, a failed fork, a child that exits non-zero or one whose data comes
short all run the whole search in this process, through the same code.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import FittingError, KTooSmall, LevelOutOfRange, NotSShaped
from .series import FmtSeries

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
#: Brent refinement stops once its bracket is no wider than this multiple
#: of the best candidate in it.
_REL_TOL = 1e-9
#: Series with at least this many points split their k search across two
#: processes when a second CPU is usable; smaller ones search in-process.
_PARALLEL_MIN_POINTS = 500
#: The first grid index evaluated by the forked child, which takes the
#: grid's top 16 candidates and the floor interval.
_CHILD_GRID_START = 48


@dataclass(frozen=True)
class KSearchConfig:
    """Upper bound of the saturation-level search.

    The grid has ``_N_GRID`` geometric candidates over
    ``(max_value * _FLOOR_FACTOR, max_value * factor_max]``, the last one
    exactly ``max_value * factor_max``; each traced local minimum below
    that ceiling is refined by Brent's method until the bracket is no wider
    than ``_REL_TOL`` times the best candidate.  A minimum at the ceiling
    itself is not refined: nothing above it is searched, so it brackets no
    interior minimum.  The interval between the observed maximum and the
    grid floor is always refined too, so a true saturation level closer
    than ``_FLOOR_FACTOR`` to the data is still reachable.
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
    and, last, the refined optimum actually returned.  ``sse_evals`` counts
    the candidates whose line fit the search computed, grid included.
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


def _brent(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    best: tuple[float, float],
    second: tuple[float, float],
    third: tuple[float, float],
) -> None:
    """Narrow a minimum of ``f`` bracketed by (lo, hi) with Brent's method.

    ``best``, ``second`` and ``third`` are (k, f(k)) points already
    evaluated, best first; ``best`` lies strictly inside the bracket.  The
    parabola through them is tried before any golden-section step, so three
    distinct points make the first step parabolic.  Stops once ``best`` is
    within ``_REL_TOL / 2`` of its own k from both bracket ends, so the
    final bracket is no wider than ``_REL_TOL`` times it.  Steps are at
    least ``_REL_TOL / 4`` of k and at least one ulp, so every evaluation
    narrows the bracket and the loop ends even for subnormal k.  The caller
    keeps the best point through ``f``.

    On stopping, the vertex of the parabola through the three best points
    is evaluated once more if it lies inside the bracket.  Where k is close
    to the data's maximum the SSE is so steep that the bracket's last
    ``_REL_TOL`` still spans orders of magnitude of SSE; that one step lands
    on the bottom of the locally quadratic SSE.
    """
    (x, fx), (w, fw), (v, fv) = best, second, third
    # Stand-ins for the last two steps, wide enough to admit a parabola.
    d = e = hi - lo
    while True:
        m = 0.5 * (lo + hi)
        tol1 = max(_REL_TOL / 4.0 * x, math.ulp(x))
        tol2 = 2.0 * tol1
        # The parabola through x, w and v has its vertex at x + p / q.
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        if q > 0.0:
            p = -p
        q = abs(q)
        # Negated so that a non-finite bracket (k overflowed) stops as well.
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


def _grid_free_share(
    ctx: _LineFitContext, grid_tail: list[float], edge: float, floor_hi: float
) -> list[_Record]:
    """The part of a k search that needs no grid SSE before it starts: the
    top of the grid, then the floor interval (edge, floor_hi) refined by
    Brent's method from its golden-section point.  Returns every line fit
    in evaluation order."""
    records: list[_Record] = []

    def evaluate(k: float) -> float:
        sse, slope, intercept = ctx.fit(k)
        records.append((k, sse, slope, intercept))
        return sse

    for k in grid_tail:
        evaluate(k)
    golden = edge + _CGOLD * (floor_hi - edge)
    point = (golden, evaluate(golden))
    _brent(evaluate, edge, floor_hi, point, point, point)
    return records


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
    grid therefore only locates candidate basins; each traced local
    minimum is refined by Brent's method, as is the leading interval
    below the grid floor, where a saturation level within
    ``_FLOOR_FACTOR`` of the data would otherwise be invisible.  An
    interior grid minimum starts Brent from the three grid candidates
    around it, whose SSEs the grid already holds, so its first step is
    parabolic; the first grid candidate starts from itself and its right
    neighbour; the floor interval starts from its golden-section point.
    A minimum at the last grid candidate, the ceiling ``max * factor_max``,
    is not refined: it brackets no interior minimum, and the ceiling
    itself has been evaluated exactly.  The best candidate ever evaluated
    is returned.

    A series of at least ``_PARALLEL_MIN_POINTS`` points, in a process
    that may use more than one CPU and runs no other Python thread, has
    its search split across two processes.  A child forked with ``os.fork`` evaluates the top of the
    grid (from index ``_CHILD_GRID_START``) and the floor interval, neither
    of which needs any other grid SSE; meanwhile this process evaluates the
    rest of the grid.  The basins are refined here once both halves are
    in.  Every candidate's line fit is then replayed in the serial order
    (grid, floor interval, basins), so the best candidate, its
    tie-breaking, ``k_search_trace`` and ``sse_evals`` are bit-identical
    to a search run wholly in this process.  That is also what happens
    when the split's conditions do not hold, or when ``fork`` fails, the
    child exits non-zero or its data comes short: this process runs the
    child's share itself.

    The series' times, values, maximum, mean time and centred times are
    extracted once per call; each candidate k then only linearizes and
    fits the line (see ``_LineFitContext``).  The total sum of squares
    behind ``r2_linearized`` is computed once, for the winning k.  Times so
    large that those sums overflow (about 1e154 and beyond) raise
    ``FittingError``, as do values whose log-odds overflow at every
    candidate k (a maximum of about 1.8e307 or more, or a subnormal value
    beside ordinary ones).
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
    grid = [k_lo * ratio ** (i / _N_GRID) for i in range(1, _N_GRID)]
    grid.append(k_hi)

    def own() -> list[_Record]:
        return [(k, *ctx.fit(k)) for k in grid[:_CHILD_GRID_START]]

    def share() -> list[_Record]:
        return _grid_free_share(ctx, grid[_CHILD_GRID_START:], edge, grid[0])

    if ctx.n >= _PARALLEL_MIN_POINTS and _spare_cpu():
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

    def evaluate(k: float) -> float:
        return keep(k, *ctx.fit(k))

    for record in records:
        keep(*record)
    sses = [sse for _, sse, _, _ in records[:_N_GRID]]
    trace = list(zip(grid, sses))

    # The last grid candidate, the ceiling, is never refined.  The first
    # one's bracket starts at ``edge``, whose SSE is never evaluated, so its
    # right neighbour alone seeds Brent.
    for i in range(_N_GRID - 1):
        right = (grid[i + 1], sses[i + 1])
        left = (grid[i - 1], sses[i - 1]) if i > 0 else right
        if left[1] >= sses[i] <= right[1]:
            second, third = (left, right) if left[1] <= right[1] else (right, left)
            lo = grid[i - 1] if i > 0 else edge
            _brent(evaluate, lo, grid[i + 1], (grid[i], sses[i]), second, third)

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
        sse_evals=evals,
    )
