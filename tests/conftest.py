"""Shared helpers: independent oracles and sampling utilities.

The oracles here deliberately take different computational routes from the
package (numpy normal equations vs. scalar centered sums, scipy special
functions vs. the in-package continued fraction) so agreement is evidence,
not tautology.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from techevo import FmtSeries, LogisticParams, align, logistic_value

FIXTURES = Path(__file__).parent / "fixtures"


def rel_err(value: float, reference: float) -> float:
    if value == reference:
        return 0.0
    return abs(value - reference) / max(abs(value), abs(reference))


def sample_series(
    params: LogisticParams, ts, name: str = "series", unit: str = ""
) -> FmtSeries:
    return FmtSeries(name, tuple((t, logistic_value(params, t)) for t in ts), unit)


def log_pair(x, y):
    """Aligned pair at t = 0, 1, ... with host exp(x) and sub exp(y), so that
    ``estimate_evolution`` regresses (about) y on x.

    ln(exp(v)) can differ from v by an ulp, so an oracle compared with the
    estimate should be given the pair's own logs, ``pair_logs(pair)``.
    """
    host = FmtSeries("host", tuple((float(i), math.exp(v)) for i, v in enumerate(x)))
    sub = FmtSeries("sub", tuple((float(i), math.exp(v)) for i, v in enumerate(y)))
    return align(host, sub)


def pair_logs(pair):
    """The (x, y) that ``estimate_evolution`` regresses: ln host, ln sub."""
    return (
        [math.log(v) for v in pair.host_values],
        [math.log(v) for v in pair.sub_values],
    )


def ols_normal_equations(x, y) -> dict:
    """Brute-force simple OLS by solving the 2x2 normal equations."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    X = np.column_stack([np.ones(n), x])
    xtx = X.T @ X
    beta = np.linalg.solve(xtx, X.T @ y)
    e = y - X @ beta
    sse = float(e @ e)
    s2 = sse / (n - 2)
    cov = s2 * np.linalg.inv(xtx)
    sst = float(np.sum((y - y.mean()) ** 2))
    return {
        "intercept": float(beta[0]),
        "slope": float(beta[1]),
        "se_intercept": math.sqrt(cov[0, 0]),
        "se_slope": math.sqrt(cov[1, 1]),
        "sse": sse,
        "r2": 1.0 - sse / sst if sst > 0 else 1.0,
        "see": math.sqrt(s2),
    }
