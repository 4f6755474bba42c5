"""Shared helpers: independent oracles and sampling utilities.

The oracles here deliberately take different computational routes from the
package (numpy normal equations vs. scalar centered sums, scipy special
functions vs. the in-package continued fraction) so agreement is evidence,
not tautology.  The closed forms the acceptance criteria check against (the
S-curve inverse, the odds coupling, the early-phase filter, the rescaling)
call nothing in the package; ``FmtSeries`` and ``align`` only hold results.

``process_path`` sets the process path of the commands a test runs.
"""

from __future__ import annotations

import inspect
import math
import os
import warnings
from itertools import compress
from pathlib import Path

import numpy as np
import pytest

import techevo._workers
from techevo import FmtSeries, LogisticParams, align, logistic_value

FIXTURES = Path(__file__).parent / "fixtures"


def rel_err(value: float, reference: float) -> float:
    if value == reference:
        return 0.0
    return abs(value - reference) / max(abs(value), abs(reference))


def sample_series(params: LogisticParams, ts, name: str = "series") -> FmtSeries:
    return FmtSeries(name, ts, [logistic_value(params, t) for t in ts])


def scaled(series, factor: float) -> FmtSeries:
    """``series`` with every value multiplied by ``factor``."""
    return FmtSeries(series.name, series.ts, [v * factor for v in series.values])


def solve_time(params, level: float) -> float:
    """The S-curve inverse: the time at which k / (1 + exp(a - b*t)) reaches
    ``level``, t = (a - ln((k - level) / level)) / b, for 0 < level < k."""
    assert 0.0 < level < params.k, (level, params.k)
    return (params.a - math.log((params.k - level) / level)) / params.b


def coupling_constant(host, sub) -> tuple[float, float]:
    """(c1, b1 / b2) of the odds-coupling identity of two logistic curves
    with parameters ``host`` and ``sub``,

        H / (k1 - H) = c1 * (P / (k2 - P)) ** (b1 / b2),
        c1 = exp((b1 / b2) * a2 - a1),

    which follows from eliminating t between their log-odds lines."""
    exponent = host.b / sub.b
    return math.exp(exponent * sub.a - host.a), exponent


def coupling_residual(pair, host, sub) -> float:
    """Max absolute residual over ``pair`` of the identity of
    ``coupling_constant``."""
    c1, exponent = coupling_constant(host, sub)
    worst = 0.0
    for h, p in zip(pair.host_values, pair.sub_values):
        assert h < host.k and p < sub.k, "a value at or above its saturation level"
        worst = max(worst, abs(h / (host.k - h) - c1 * (p / (sub.k - p)) ** exponent))
    return worst


def early_phase(pair, host_k: float, sub_k: float, cap: float):
    """The rows of ``pair`` where both values are at or below ``cap`` of
    their saturation levels, as a pair."""
    keep = [
        h <= cap * host_k and p <= cap * sub_k
        for h, p in zip(pair.host_values, pair.sub_values)
    ]
    ts = list(compress(pair.ts, keep))
    return align(
        FmtSeries(pair.host.name, ts, compress(pair.host_values, keep)),
        FmtSeries(pair.sub.name, ts, compress(pair.sub_values, keep)),
    )


def log_pair(x, y):
    """Aligned pair at t = 0, 1, ... with host exp(x) and sub exp(y), so that
    ``estimate_evolution`` regresses (about) y on x.

    ln(exp(v)) can differ from v by an ulp, so an oracle compared with the
    estimate should be given the pair's own logs, ``pair_logs(pair)``.
    """
    host = FmtSeries("host", range(len(x)), [math.exp(v) for v in x])
    sub = FmtSeries("sub", range(len(y)), [math.exp(v) for v in y])
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


class ProcessPath:
    """A test's process path and the ``os.fork`` calls its commands made."""

    def __init__(self, name: str):
        self.name = name
        self.forks: list[int] = []

    def assert_forks(self, count: int) -> None:
        """``count`` forks so far on the forked path, none on the serial one."""
        want = count if self.name == "forked" else 0
        assert len(self.forks) == want, f"{len(self.forks)} forks on the {self.name} path"


@pytest.fixture
def process_path(request, monkeypatch):
    """The process path of every command a test runs: "serial", or
    "forked" where the test parametrizes this fixture (``indirect=True``),
    which starts the sub's child wherever a command has work for one, even
    on 21 points.  Neither the CPUs nor numpy's BLAS threads choose it.
    Afterwards no child may be left and no file descriptor open."""
    path = ProcessPath(getattr(request, "param", "serial"))
    monkeypatch.setattr(techevo._workers, "fork_pays", lambda points: path.name == "forked")
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: path.forks.append(1) or fork())
    fds = sorted(os.listdir("/dev/fd"))
    with warnings.catch_warnings():
        # Python 3.12+ warns of a fork in a process of several threads.
        warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
        yield path
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/dev/fd")) == fds


def pytest_collection_modifyitems(config, items):
    """Of the classes that tests/test_forked_path.py collects again on the
    forked path, drop the tests that take no ``process_path``: they start
    no command, so the path is nothing to them."""
    dropped = [
        item
        for item in items
        if item.module.__name__ == "test_forked_path"
        and "process_path" not in inspect.signature(item.function).parameters
    ]
    if dropped:
        config.hook.pytest_deselected(items=dropped)
        items[:] = [item for item in items if item not in dropped]
