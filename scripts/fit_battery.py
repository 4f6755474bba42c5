#!/usr/bin/env python3
"""Fit a seeded battery of synthetic S-curves and print one digest.

The battery is the host and subsystem series of ``generate_pair`` over
every combination of n in N_POINTS and noise sigma in SIGMAS, with
PAIRS_PER_CELL random (a, b, k) pairs per combination drawn from a fixed
``random.Random`` seed: 200 series in all.  Each series is fitted with the
default bound on k; the digest is SHA-256 over the ``repr`` of every
outcome, one line each: (a, b, k, sse_log, r2_log, k_at_bound, sse_evals)
for a fit, the exception's type name for a failure.  ``repr`` of a float
round-trips exactly, so the digest changes if any fitted bit does.

Usage::

    PYTHONPATH=src python3 scripts/fit_battery.py
"""

from __future__ import annotations

import hashlib
import random

from techevo import (
    FmtSeries,
    LogisticFit,
    LogisticParams,
    SyntheticSpec,
    fit_logistic,
    generate_pair,
)

SEED = 20190913
N_POINTS = (5, 8, 21, 50, 200)
SIGMAS = (0.0, 0.01, 0.05, 0.2)
PAIRS_PER_CELL = 5


def _random_params(rng: random.Random) -> LogisticParams:
    return LogisticParams(
        a=rng.uniform(-3.0, 6.0), b=rng.uniform(0.05, 1.0), k=rng.uniform(1.0, 1000.0)
    )


def battery_cases() -> list[tuple[FmtSeries, LogisticParams, float]]:
    """(series, true parameters, noise sigma) for every battery series,
    host then sub for each pair, in a fixed order."""
    rng = random.Random(SEED)
    out: list[tuple[FmtSeries, LogisticParams, float]] = []
    for n in N_POINTS:
        for sigma in SIGMAS:
            for _ in range(PAIRS_PER_CELL):
                spec = SyntheticSpec(
                    host_params=_random_params(rng),
                    sub_params=_random_params(rng),
                    t_start=0.0,
                    t_end=rng.uniform(10.0, 30.0),
                    n_points=n,
                    noise_sigma=sigma,
                    seed=rng.getrandbits(64),
                )
                pair = generate_pair(spec)
                out.append((pair.host, spec.host_params, sigma))
                out.append((pair.sub, spec.sub_params, sigma))
    return out


def battery_series() -> list[FmtSeries]:
    """The battery's series, host then sub for each pair, in a fixed order."""
    return [series for series, _, _ in battery_cases()]


def fit_outcome(series: FmtSeries) -> LogisticFit | str:
    """The fit of ``series``, or the type name of the exception it raised."""
    try:
        return fit_logistic(series)
    except Exception as exc:  # every failure mode is part of the pinned outcome
        return type(exc).__name__


def outcome_line(outcome: LogisticFit | str) -> str:
    if isinstance(outcome, str):
        return outcome
    p = outcome.params
    return repr(
        (p.a, p.b, p.k, outcome.sse_log, outcome.r2_log, outcome.k_at_bound, outcome.sse_evals)
    )


def battery_digest(outcomes: list[LogisticFit | str]) -> str:
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(outcome_line(outcome).encode())
        h.update(b"\n")
    return h.hexdigest()


def main() -> None:
    outcomes = [fit_outcome(s) for s in battery_series()]
    errors = [o for o in outcomes if isinstance(o, str)]
    print(f"{len(outcomes)} series, {len(outcomes) - len(errors)} fits, {len(errors)} errors")
    print(battery_digest(outcomes))


if __name__ == "__main__":
    main()
