"""Coevolution of a subsystem technology against its host.

Two technologies advancing along logistic S-curves obey an exact coupling
between their odds transforms,

    H / (k1 - H) = c1 * (P / (k2 - P)) ** (b1 / b2),

with c1 = exp((b1 / b2) * a2 - a1) from eliminating t between the two
log-odds lines ln(k - v) - ln v = a - b*t.  In the pre-saturation regime
that coupling collapses to the power law P = A * H**B with B = b2 / b1.
The estimator here works directly on observed series: it regresses ln P
on ln H by ordinary least squares and reports the full single-regressor
inference block.  B is the evolutionary coefficient: how fast the
subsystem advances relative to its host.

All logs are natural; B itself is invariant to the base and to positive
rescaling of either series.
"""

from __future__ import annotations

import math

from ._record import Record
from .series import MIN_POINTS, AlignedPair
from .stats import _LineFit, _r_squared, _t_ratio, f_sf, t_two_sided_p


class EvolutionFit(Record):
    """Log-log OLS result for ln P = log_a + b * ln H.

    ``b`` is the evolutionary coefficient; ``a = exp(log_a)`` is the
    proportionality constant of P = a * H**b.  Hypothesis tests cover both
    b = 0 (is there a relation at all) and b = 1 (does the subsystem keep
    pace with its host), each two-sided with n - 2 degrees of freedom.
    The fields' order is the key order of the report's ``evolution`` block.

    The constructor takes regression summary numbers, a published table's
    or the OLS that ``estimate_evolution`` runs, and derives the rest: both
    t ratios and their p values, whichever of r2 and r2_adj is missing, F
    (t^2 when not given) with its p value, and a.  Published tables are
    rounded, so no cross-field identity (such as F = t^2) is enforced;
    those identities hold for estimator output.
    """

    __slots__ = (
        "log_a", "a", "b", "se_log_a", "se_b", "t_b", "p_b", "t_b_vs_1", "p_b_vs_1",
        "r2", "r2_adj", "f_stat", "p_f", "see", "n",
    )

    def __init__(
        self,
        b: float,
        se_b: float,
        n: int,
        log_a: float = 0.0,
        se_log_a: float = 0.0,
        r2_adj: float | None = None,
        r2: float | None = None,
        f_stat: float | None = None,
        see: float = 0.0,
    ) -> None:
        if n < MIN_POINTS:
            raise ValueError(f"n must be >= {MIN_POINTS}, got {n!r}")
        if se_b < 0.0 or se_log_a < 0.0:
            raise ValueError("standard errors cannot be negative")
        if r2 is None and r2_adj is not None:
            r2 = 1.0 - (1.0 - r2_adj) * (n - 2) / (n - 1)
        if r2 is None:
            r2 = 0.0
        if r2_adj is None:
            r2_adj = 1.0 - (1.0 - r2) * (n - 1) / (n - 2)
        t_b = _t_ratio(b, se_b)
        t_b_vs_1 = _t_ratio(b - 1.0, se_b)
        if f_stat is None:
            f_stat = t_b * t_b
        try:
            a = math.exp(log_a)
        except OverflowError:  # log_a past about 709.78 still holds the number
            a = math.inf
        super().__init__(
            log_a, a, b, se_log_a, se_b,
            t_b, t_two_sided_p(t_b, n - 2), t_b_vs_1, t_two_sided_p(t_b_vs_1, n - 2),
            r2, r2_adj, f_stat, f_sf(f_stat, 1, n - 2), see, n,
        )


def estimate_evolution(pair: AlignedPair) -> EvolutionFit:
    """Estimate the evolutionary coefficient from an aligned pair.

    Runs OLS of ln(sub) on ln(host) on the ``_LineFit`` kernel and hands
    its summary numbers to ``EvolutionFit``; exactly rounded sums make it
    bit-deterministic.  ``FmtSeries`` makes every log defined and
    ``AlignedPair`` guarantees n >= ``MIN_POINTS``.
    """
    x = list(map(math.log, pair.host_values))
    y = list(map(math.log, pair.sub_values))
    line = _LineFit(x)
    sse, b, log_a, sxy, ybar = line.fit(y)
    n = line.n
    df = n - 2
    see = math.sqrt(sse / df)
    # ANOVA F, not t^2, so F = t^2 stays a real check; the regression sum of
    # squares b * sxy does not cancel catastrophically when r2 is near 1.
    ssr = b * sxy
    if sse > 0.0:
        f_stat = ssr / (sse / df)
    else:
        f_stat = math.inf if ssr > 0.0 else 0.0
    return EvolutionFit(
        b=b,
        se_b=see / math.sqrt(line.sxx),
        n=n,
        log_a=log_a,
        se_log_a=see * math.sqrt(1.0 / n + line.xbar * line.xbar / line.sxx),
        r2=_r_squared(y, sse, ybar),
        f_stat=f_stat,
        see=see,
    )

