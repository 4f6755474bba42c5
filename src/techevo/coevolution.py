"""Coevolution of a subsystem technology against its host.

Two technologies advancing along logistic S-curves obey an exact coupling
between their odds transforms,

    H / (k1 - H) = c1 * (P / (k2 - P)) ** (b1 / b2),

and in the pre-saturation regime that coupling collapses to the power law
P = A * H**B with B = b2 / b1.  The estimator here works directly on
observed series: it regresses ln P on ln H by ordinary least squares and
reports the full single-regressor inference block.  B is the evolutionary
coefficient: how fast the subsystem advances relative to its host.

All logs are natural; B itself is invariant to the base and to positive
rescaling of either series.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import NonPositiveValue, ValueAtSaturation
from .logistic import LogisticParams
from .series import AlignedPair
from .stats import _t_ratio, f_sf, ols_simple, t_two_sided_p


class EvolutionFit(Record):
    """Log-log OLS result for ln P = log_a + b * ln H.

    ``b`` is the evolutionary coefficient; ``a = exp(log_a)`` is the
    proportionality constant of P = a * H**b.  Hypothesis tests cover both
    b = 0 (is there a relation at all) and b = 1 (does the subsystem keep
    pace with its host), each two-sided with n - 2 degrees of freedom.
    The fields' order is the key order of the report's ``evolution`` block.
    """

    __slots__ = (
        "log_a", "a", "b", "se_log_a", "se_b", "t_b", "p_b", "t_b_vs_1", "p_b_vs_1",
        "r2", "r2_adj", "f_stat", "p_f", "see", "n",
    )

    def __init__(
        self, log_a: float, a: float, b: float, se_log_a: float, se_b: float,
        t_b: float, p_b: float, t_b_vs_1: float, p_b_vs_1: float, r2: float,
        r2_adj: float, f_stat: float, p_f: float, see: float, n: int,
    ) -> None:
        if n < 3:
            raise ValueError(f"n must be >= 3, got {n!r}")
        if se_b < 0.0 or se_log_a < 0.0:
            raise ValueError("standard errors cannot be negative")
        object.__setattr__(self, "log_a", log_a)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "se_log_a", se_log_a)
        object.__setattr__(self, "se_b", se_b)
        object.__setattr__(self, "t_b", t_b)
        object.__setattr__(self, "p_b", p_b)
        object.__setattr__(self, "t_b_vs_1", t_b_vs_1)
        object.__setattr__(self, "p_b_vs_1", p_b_vs_1)
        object.__setattr__(self, "r2", r2)
        object.__setattr__(self, "r2_adj", r2_adj)
        object.__setattr__(self, "f_stat", f_stat)
        object.__setattr__(self, "p_f", p_f)
        object.__setattr__(self, "see", see)
        object.__setattr__(self, "n", n)

    @property
    def df(self) -> int:
        return self.n - 2


class RelationConstant(Record):
    """Constant c1 and exponent b1/b2 of the odds-coupling identity."""

    __slots__ = ("c1", "exponent")

    def __init__(self, c1: float, exponent: float) -> None:
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "exponent", exponent)


def estimate_evolution(pair: AlignedPair) -> EvolutionFit:
    """Estimate the evolutionary coefficient from an aligned pair.

    Runs OLS of ln(sub) on ln(host); deterministic (exactly-rounded sums),
    so identical inputs give bit-identical results.  Every value is
    positive (``FmtSeries`` guarantees it), so each log is defined.
    """
    x = [math.log(h) for h in pair.host_values]
    y = [math.log(p) for p in pair.sub_values]
    core = ols_simple(x, y)
    return evolution_fit_from_summary(
        b=core.slope,
        se_b=core.se_slope,
        n=core.n,
        log_a=core.intercept,
        se_log_a=core.se_intercept,
        r2=core.r2,
        r2_adj=core.r2_adj,
        f_stat=core.f_stat,
        see=core.see,
    )


def evolution_fit_from_summary(
    b: float,
    se_b: float,
    n: int,
    log_a: float = 0.0,
    se_log_a: float = 0.0,
    r2_adj: float | None = None,
    r2: float | None = None,
    f_stat: float | None = None,
    see: float = 0.0,
) -> EvolutionFit:
    """Build a fit from regression summary numbers: a published table's, or
    the OLS that ``estimate_evolution`` runs.

    t and p statistics are derived from the coefficients and SEs given.
    Published tables are rounded, so no cross-field identity (such as
    F = t^2) is enforced here; those identities hold for estimator output.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n!r}")
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
    return EvolutionFit(
        log_a=log_a,
        a=math.exp(log_a),
        b=b,
        se_log_a=se_log_a,
        se_b=se_b,
        t_b=t_b,
        p_b=t_two_sided_p(t_b, n - 2),
        t_b_vs_1=t_b_vs_1,
        p_b_vs_1=t_two_sided_p(t_b_vs_1, n - 2),
        r2=r2,
        r2_adj=r2_adj,
        f_stat=f_stat,
        p_f=f_sf(f_stat, 1, n - 2),
        see=see,
        n=n,
    )


def predict_subsystem(fit: EvolutionFit, h: float) -> float:
    """Predicted subsystem level a * h**b at host level h > 0."""
    if h <= 0.0:
        raise NonPositiveValue(f"host level {h!r} is not positive")
    return fit.a * h ** fit.b


def relation_constant(
    host_params: LogisticParams, sub_params: LogisticParams
) -> RelationConstant:
    """Constant and exponent coupling two logistic technologies.

    Eliminating time between the two linearized curves gives
    exponent = b1/b2 and c1 = exp((b1/b2) * a2 - a1).
    """
    exponent = host_params.b / sub_params.b
    c1 = math.exp(exponent * sub_params.a - host_params.a)
    return RelationConstant(c1=c1, exponent=exponent)


def check_relation(
    pair: AlignedPair, rc: RelationConstant, host_k: float, sub_k: float
) -> float:
    """Max absolute residual of the odds-coupling identity over the pair.

    On noise-free data generated from the parameters behind ``rc`` the
    residual is rounding noise; noisy data inflate it smoothly.  Values at
    or above their saturation level make the odds transform blow up and
    are rejected.
    """
    worst = 0.0
    for t, h, p in pair.rows:
        if h >= host_k:
            raise ValueAtSaturation(f"host value {h!r} >= k={host_k!r} at t={t!r}")
        if p >= sub_k:
            raise ValueAtSaturation(f"sub value {p!r} >= k={sub_k!r} at t={t!r}")
        lhs = h / (host_k - h)
        rhs = rc.c1 * (p / (sub_k - p)) ** rc.exponent
        worst = max(worst, abs(lhs - rhs))
    return worst
