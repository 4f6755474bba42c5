#!/usr/bin/env python3
"""Time each layer of techevo's pipeline and write ``BENCH_<label>.json``.

For each size n in SIZES the script makes the seeded pair ``simulate``
would write (its default curves, noise sigma 0.05), then times, in this
process and with no fork, the layers one ``simulate`` plus ``report`` op
goes through: generate and serialize (both series), parse (both series'
text), align, the host's and the sub's fit, estimate, classify, JSON plus
digest, and plot (both series, with their fitted curves).  Each time is
the median over REPEATS samples, a sample being the mean of as many
back-to-back calls as take about 2 ms.  Beside the times the file
holds counts that do not depend on the machine: SSE evaluations and
``k_at_bound`` per fit, points, and the bytes of each output.

Usage::

    PYTHONPATH=src python3 scripts/bench.py --label LABEL
    PYTHONPATH=src python3 scripts/bench.py --quick --label ci --out /tmp/bench.json

``--quick`` stops at n = 1 000 and takes 3 samples; it is a smoke run.
Compare times only between files written on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import techevo
from techevo import (
    LogisticParams,
    SyntheticSpec,
    align,
    classify_pathway,
    emit_plot_data,
    estimate_evolution,
    fit_logistic,
    parse_fmt_csv,
    report_to_json,
    run_pipeline,
    serialize_fmt_csv,
)
from techevo.cli import build_parser
from techevo.synthetic import generate_series

SIZES = (21, 1_000, 10_000)
QUICK_SIZES = (21, 1_000)
REPEATS = 9
QUICK_REPEATS = 3
NOISE_SIGMA = 0.05
SEED = 42
#: A sample runs the layer at least this long, so tiny inputs time well.
SAMPLE_S = 0.002
LAYERS = (
    "generate", "serialize", "parse", "align", "fit_host", "fit_sub",
    "estimate", "classify", "json", "plot",
)


def _spec(n: int) -> SyntheticSpec:
    """``simulate --n-points n``'s spec, with the parser's defaults."""
    args = build_parser("simulate").parse_args(
        ["simulate", "--n-points", str(n), "--noise-sigma", str(NOISE_SIGMA),
         "--seed", str(SEED)]
    )
    return SyntheticSpec(
        LogisticParams(*args.host_params), LogisticParams(*args.sub_params),
        args.t_start, args.t_end, args.n_points, args.noise_sigma, args.seed,
    )


def _median_s(call, repeats: int) -> float:
    """Median over ``repeats`` samples of one call's mean time."""
    start = perf_counter()
    call()
    number = max(1, int(SAMPLE_S / max(perf_counter() - start, 1e-9)))
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(number):
            call()
        samples.append((perf_counter() - start) / number)
    return statistics.median(samples)


def measure(n: int, repeats: int) -> dict:
    """The layer times (seconds) and the counts at size n."""
    spec = _spec(n)
    host, sub = generate_series(spec, "host"), generate_series(spec, "sub")
    texts = serialize_fmt_csv(host), serialize_fmt_csv(sub)
    fits = fit_logistic(host), fit_logistic(sub)
    pair = align(host, sub)
    evolution = estimate_evolution(pair)
    # The report as ``report`` builds it; a long pair forks once here,
    # outside the timings.
    report = run_pipeline(host, sub)
    plots = [emit_plot_data(s, f.params) for s, f in zip((host, sub), fits)]
    calls = {
        "generate": lambda: (generate_series(spec, "host"), generate_series(spec, "sub")),
        "serialize": lambda: (serialize_fmt_csv(host), serialize_fmt_csv(sub)),
        "parse": lambda: (parse_fmt_csv(texts[0], "host"), parse_fmt_csv(texts[1], "sub")),
        "align": lambda: align(host, sub),
        "fit_host": lambda: fit_logistic(host),
        "fit_sub": lambda: fit_logistic(sub),
        "estimate": lambda: estimate_evolution(pair),
        "classify": lambda: classify_pathway(evolution),
        "json": lambda: report_to_json(report),
        "plot": lambda: (emit_plot_data(host, fits[0].params),
                         emit_plot_data(sub, fits[1].params)),
    }
    seconds = {f"{name}_s": _median_s(calls[name], repeats) for name in LAYERS}
    counts = {
        "points": len(host) + len(sub),
        "fit_host_sse_evals": fits[0].sse_evals,
        "fit_sub_sse_evals": fits[1].sse_evals,
        "fit_host_k_at_bound": int(fits[0].k_at_bound),
        "fit_sub_k_at_bound": int(fits[1].k_at_bound),
        "serialize_bytes": sum(len(t.encode()) for t in texts),
        "json_bytes": len(report_to_json(report).encode()),
        "plot_bytes": sum(len(p.csv.encode()) + len(p.svg.encode()) for p in plots),
    }
    return {"seconds": seconds, "counts": counts}


def _commit() -> str:
    """The commit of the checkout the measured package was imported from."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(techevo.__file__).parent,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--quick", action="store_true",
                        help=f"sizes {QUICK_SIZES}, {QUICK_REPEATS} samples each")
    parser.add_argument("--out", type=Path, help="output file (default: BENCH_<label>.json)")
    args = parser.parse_args(argv)
    sizes, repeats = (QUICK_SIZES, QUICK_REPEATS) if args.quick else (SIZES, REPEATS)
    record = {
        "label": args.label,
        "commit": _commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "quick": args.quick,
        "repeats": repeats,
        "seed": SEED,
        "noise_sigma": NOISE_SIGMA,
        "sizes": {str(n): measure(n, repeats) for n in sizes},
    }
    out = args.out or Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for n, row in record["sizes"].items():
        times = "  ".join(f"{k[:-2]} {v * 1e3:.3f}" for k, v in row["seconds"].items())
        print(f"n={n} (ms): {times}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
