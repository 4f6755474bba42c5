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
holds counts that do not depend on the machine: per fit, its SSE
evaluations, ``k_at_bound`` and its residual and derivative passes (over
all n points and over the subsample a long series is first fitted on,
apart); points; and the bytes of each output.

Beside the layers each size has ``cli_report_s``, one whole in-process
``main(["report", ..., "--plot", ...])`` on the files ``simulate`` wrote,
and ``forks``, the ``os.fork`` calls of ``simulate``, ``report --plot``
and ``evolve``, on whatever process path this machine takes.  The file
also holds ``import_s``, the median time of ``import techevo.cli`` in a
fresh interpreter with its bytecode cached.

Usage::

    PYTHONPATH=src python3 scripts/bench.py --label LABEL
    PYTHONPATH=src python3 scripts/bench.py --quick --label ci --out /tmp/bench.json

``--quick`` stops at n = 1 000 and takes 3 samples; it is a smoke run.
Compare times only between files written on the same machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
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
from techevo import cli, logistic
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
#: The fit's passes over its points, by the ``logistic`` function making them.
PASSES = {"residual": "_residuals", "derivative": "_derivatives"}


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


def _import_s(repeats: int, work: Path) -> float:
    """Median time of ``import techevo.cli`` in a fresh interpreter, with
    the bytecode cached (under ``work``) by a first child not counted."""
    code = "import time; t = time.perf_counter(); import techevo.cli; "
    code += "print(time.perf_counter() - t)"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(Path(techevo.__file__).resolve().parent.parent)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    times = [
        float(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout)
        for _ in range(repeats + 1)
    ]
    return statistics.median(times[1:])


def _fit_counting_passes(series) -> tuple:
    """``fit_logistic(series)`` and its passes: for each kind in PASSES,
    how many ran over all the series' points and how many over a subsample."""
    passes = {f"{kind}_passes_{over}": 0 for kind in PASSES for over in ("full", "subsample")}
    originals = {kind: getattr(logistic, name) for kind, name in PASSES.items()}

    def counting(kind):
        def run(points, *args):
            over = "full" if len(points) == len(series) else "subsample"
            passes[f"{kind}_passes_{over}"] += 1
            return originals[kind](points, *args)
        return run

    for kind, name in PASSES.items():
        setattr(logistic, name, counting(kind))
    try:
        return fit_logistic(series), passes
    finally:
        for kind, name in PASSES.items():
            setattr(logistic, name, originals[kind])


def _cli(n: int, repeats: int, work: Path) -> tuple[float, dict]:
    """The time of one whole in-process ``report --plot`` at size n, and
    the ``os.fork`` calls of each command, with their files in ``work``."""
    host, sub = str(work / "host.csv"), str(work / "sub.csv")
    pair = ["--host", host, "--sub", sub, "--out", str(work / "r.json")]
    commands = {
        "simulate": ["simulate", "--n-points", str(n), "--noise-sigma", str(NOISE_SIGMA),
                     "--seed", str(SEED), "--out-host", host, "--out-sub", sub],
        "report": ["report", *pair, "--plot", str(work / "plots")],
        "evolve": ["evolve", *pair],
    }
    fork, calls, forks = os.fork, [], {}
    os.fork = lambda: calls.append(1) or fork()
    try:
        for name, argv in commands.items():
            calls.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != cli.EXIT_OK:
                    raise RuntimeError(f"{name} failed at n={n}")
            forks[name] = len(calls)
    finally:
        os.fork = fork
    return _median_s(lambda: cli.main(commands["report"]), repeats), forks


def measure(n: int, repeats: int, work: Path) -> dict:
    """The layer times (seconds), the counts and the forks at size n."""
    spec = _spec(n)
    host, sub = generate_series(spec, "host"), generate_series(spec, "sub")
    texts = serialize_fmt_csv(host), serialize_fmt_csv(sub)
    fits, passes = zip(_fit_counting_passes(host), _fit_counting_passes(sub))
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
    seconds["cli_report_s"], forks = _cli(n, repeats, work)
    counts = {
        "points": len(host) + len(sub),
        "fit_host_sse_evals": fits[0].sse_evals,
        "fit_sub_sse_evals": fits[1].sse_evals,
        "fit_host_k_at_bound": int(fits[0].k_at_bound),
        "fit_sub_k_at_bound": int(fits[1].k_at_bound),
        **{f"fit_{role}_{key}": count
           for role, counted in zip(("host", "sub"), passes) for key, count in counted.items()},
        "serialize_bytes": sum(len(t.encode()) for t in texts),
        "json_bytes": len(report_to_json(report).encode()),
        "plot_bytes": sum(len(p.csv.encode()) + len(p.svg.encode()) for p in plots),
    }
    return {"seconds": seconds, "counts": counts, "forks": forks}


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
    }
    with tempfile.TemporaryDirectory() as work:
        record["import_s"] = _import_s(repeats, Path(work))
        record["sizes"] = {str(n): measure(n, repeats, Path(work)) for n in sizes}
    out = args.out or Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"import techevo.cli: {record['import_s'] * 1e3:.1f} ms")
    for n, row in record["sizes"].items():
        times = "  ".join(f"{k[:-2]} {v * 1e3:.3f}" for k, v in row["seconds"].items())
        print(f"n={n} (ms): {times}  forks {row['forks']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
