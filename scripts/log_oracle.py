#!/usr/bin/env python3
"""Best log-space least-squares fit of every battery series, by scipy.

For each of the 200 series of ``fit_battery.py`` this minimizes
``sum((ln v - ln k + softplus(a - b*t))**2)`` over (a, b, ln k) with
b >= 0 and k <= 10 * max, the default ceiling of ``fit_logistic``, from
80 fixed starts with ``scipy.optimize.least_squares``, and keeps the
lowest SSE.  ``tests/test_logistic.py`` checks that ``fit_logistic``
reaches these optima.  scipy and numpy are test-only dependencies; the
script takes about a minute or two.

Usage::

    PYTHONPATH=src python3 scripts/log_oracle.py           # rewrite the fixture
    PYTHONPATH=src python3 scripts/log_oracle.py --check   # compare with it

``--check`` exits 1 unless every recomputed SSE agrees with the committed
one within 1e-9 relative, or both lie below ``SSE_FLOOR``, which noise-free
series reach with rounding residue alone.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "battery_log_oracle.json"
CEILING_FACTOR = 10.0
#: Starts: saturation as a multiple of the maximum, inflection time and rate
#: on the series' time span scaled to [-1, 1]; 4 * 5 * 4 = 80 combinations.
START_KAPPAS = (1.05, 1.5, 3.0, 9.5)
START_INFLECTIONS = (-1.0, -0.5, 0.0, 0.5, 1.0)
START_RATES = (0.5, 2.0, 8.0, 32.0)
#: SSEs below this are rounding residue and agree with one another.
SSE_FLOOR = 1e-20
CHECK_REL_TOL = 1e-9


def _load_fit_battery():
    spec = importlib.util.spec_from_file_location(
        "fit_battery", Path(__file__).resolve().parent / "fit_battery.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def best_fit(ts, values) -> dict:
    """Lowest log-space SSE over the fixed starts, with its (a, b, k)."""
    t = np.asarray(ts, dtype=float)
    y = np.log(np.asarray(values, dtype=float))
    mid, half = 0.5 * (t[0] + t[-1]), 0.5 * (t[-1] - t[0])
    tau = (t - mid) / half
    c_max = math.log(CEILING_FACTOR * max(values))

    def residuals(p):
        alpha, beta, c = p
        return y - c + np.logaddexp(0.0, alpha - beta * tau)

    def jacobian(p):
        alpha, beta, c = p
        sig = 0.5 * (1.0 + np.tanh(0.5 * (alpha - beta * tau)))
        return np.column_stack([sig, -tau * sig, -np.ones_like(tau)])

    best = None
    for kappa in START_KAPPAS:
        for inflection in START_INFLECTIONS:
            for rate in START_RATES:
                c0 = min(math.log(kappa) + float(y.max()), c_max - 1e-9)
                res = least_squares(
                    residuals, [rate * inflection, rate, c0], jac=jacobian,
                    bounds=([-np.inf, 0.0, -np.inf], [np.inf, np.inf, c_max]),
                    method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=2000,
                )
                sse = float(np.sum(res.fun * res.fun))
                if best is None or sse < best[0]:
                    best = (sse, res.x)
    sse, (alpha, beta, c) = best
    b = beta / half
    return {"sse": sse, "a": alpha + b * mid, "b": b, "k": math.exp(c)}


def compute() -> list[dict]:
    fit_battery = _load_fit_battery()
    return [best_fit(s.ts, s.values) for s in fit_battery.battery_series()]


def agree(x: float, y: float) -> bool:
    if x < SSE_FLOOR and y < SSE_FLOOR:
        return True
    return abs(x - y) <= CHECK_REL_TOL * max(abs(x), abs(y))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed fixture instead of writing it")
    args = parser.parse_args()
    fits = compute()
    if args.check:
        committed = json.loads(FIXTURE.read_text(encoding="utf-8"))["fits"]
        bad = [i for i, (f, c) in enumerate(zip(fits, committed))
               if not agree(f["sse"], c["sse"])]
        if len(committed) != len(fits) or bad:
            print(f"oracle SSEs differ from {FIXTURE.name} at series {bad}")
            return 1
        print(f"{len(fits)} oracle SSEs agree with {FIXTURE.name}")
        return 0
    payload = {
        "ceiling_factor": CEILING_FACTOR,
        "sse_floor": SSE_FLOOR,
        "starts": len(START_KAPPAS) * len(START_INFLECTIONS) * len(START_RATES),
        "fits": fits,
    }
    FIXTURE.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
