#!/usr/bin/env python3
"""Regenerate the committed test fixtures.

Two pairs:

* power_host/power_sub — tiny exact power law P = 2 * H**0.5 on square
  numbers; every estimator result on it is known in closed form.
* synth_host/synth_sub — host sampled noise-free from an S-curve, sub
  built from the power law P = 2.5 * H**0.35 with multiplicative
  log-normal noise (sigma = 0.05) from the pinned seeded generator, so
  the true evolutionary coefficient is 0.35 by construction.

Output is byte-deterministic; rerunning must reproduce the committed
files exactly.
"""

from __future__ import annotations

import math
from pathlib import Path

from techevo import (
    FmtSeries,
    LogisticParams,
    SplitMix64,
    logistic_value,
    serialize_fmt_csv,
)

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

SEED = 42
TRUE_B = 0.35
TRUE_A = 2.5
NOISE_SIGMA = 0.05


def power_pair() -> tuple[FmtSeries, FmtSeries]:
    ts = [float(i) for i in range(5)]
    host = FmtSeries("power_host", ts, [(t + 1.0) ** 2 for t in ts])
    sub = FmtSeries("power_sub", ts, [2.0 * (t + 1.0) for t in ts])
    return host, sub


def synth_pair() -> tuple[FmtSeries, FmtSeries]:
    params = LogisticParams(a=4.0, b=0.3, k=100.0)
    n = 26
    ts = [i * 2.0 for i in range(n)]
    host_vals = [logistic_value(params, t) for t in ts]
    rng = SplitMix64(SEED)
    sub_vals = [
        TRUE_A * h**TRUE_B * math.exp(NOISE_SIGMA * rng.normal()) for h in host_vals
    ]
    host = FmtSeries("synth_host", ts, host_vals)
    sub = FmtSeries("synth_sub", ts, sub_vals)
    return host, sub


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for series in (*power_pair(), *synth_pair()):
        path = FIXTURES / f"{series.name}.csv"
        path.write_text(serialize_fmt_csv(series), encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
