"""Command-line front end.

Subcommands
-----------
fit       single-series S-curve fit
evolve    host + sub CSVs -> evolutionary coefficient + pathway
simulate  generate a seeded synthetic pair as CSV files
report    full pipeline with JSON/table output and optional plot artifacts

Exit codes
----------
0   success
2   usage error (argparse)
10  input/parse error (bad CSV, missing file)
11  alignment error (too few shared timestamps)
12  fitting error (not S-shaped, saturation violations, arithmetic overflow)
13  estimation error (degenerate regressor)
14  configuration error (bad alpha, k-search factor or simulate option)
1   unexpected internal error
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import (
    AlignmentError,
    ConfigError,
    EstimationError,
    FittingError,
    InputError,
    TechEvoError,
)
from .logistic import DEFAULT_K_SEARCH_FACTOR, LogisticParams, fit_logistic
from .pathway import DEFAULT_ALPHA
from .report import (
    _logistic_fit_dict,
    _quantize,
    emit_plot_data,
    emit_table,
    report_to_json,
    run_pipeline,
)
from .series import FmtSeries, parse_fmt_csv, serialize_fmt_csv
from .synthetic import SyntheticSpec, generate_pair

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_INPUT = 10
EXIT_ALIGNMENT = 11
EXIT_FITTING = 12
EXIT_ESTIMATION = 13
EXIT_CONFIG = 14

_ERROR_EXIT_CODES = (
    (InputError, EXIT_INPUT),
    (AlignmentError, EXIT_ALIGNMENT),
    (FittingError, EXIT_FITTING),
    (EstimationError, EXIT_ESTIMATION),
    (ConfigError, EXIT_CONFIG),
)


def _fail(exc: BaseException, code: int) -> int:
    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return code


def _stem(path: str) -> str:
    """The file name without its last suffix; a leading or trailing dot
    starts no suffix (``.h.csv`` -> ``.h``, ``.h`` -> ``.h``)."""
    name = os.path.basename(path)
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else name


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _read_series(path: str, name: str | None = None) -> FmtSeries:
    """Read and parse one CSV; the series is named after the file stem
    unless ``name`` is given."""
    return parse_fmt_csv(_read_text(path), name or _stem(path))


def _cmd_fit(args: argparse.Namespace) -> int:
    series = _read_series(args.csv, args.name)
    fit = fit_logistic(series, args.k_search_factor)
    payload = {
        "series": {"name": series.name, "n": len(series)},
        "fit": {
            **_logistic_fit_dict(fit),
            "inflection_time": fit.params.inflection_time,
        },
    }
    if args.format == "json":
        print(json.dumps(_quantize(payload), indent=2))
    else:
        f = payload["fit"]
        print(f"series: {series.name} (n={len(series)})")
        for key in ("a", "b", "k", "inflection_time", "sse_linearized", "r2_linearized"):
            print(f"{key:>16}: {f[key]:.12g}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    """``report``, and ``evolve``, whose parser sets --no-logistic and no plot."""
    host = _read_series(args.host)
    sub = _read_series(args.sub)
    factor = None if args.no_logistic else args.k_search_factor
    report = run_pipeline(
        host, sub, host_file=os.path.basename(args.host),
        sub_file=os.path.basename(args.sub), alpha=args.alpha, k_search_factor=factor,
    )
    text = report_to_json(report) if args.format == "json" else emit_table(report)
    if args.plot:
        # Plots are written before the report, so that a plot that cannot be
        # written leaves no report; the report's directory is checked first,
        # so that a report that cannot be written for want of it leaves no plots.
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise FileNotFoundError(f"no directory for the --out file {args.out!r}")
        os.makedirs(args.plot, exist_ok=True)
        fits = report["logistic_fits"]
        for label, series in (("host", host), ("sub", sub)):
            params = None
            if fits is not None:
                f = fits[label]
                params = LogisticParams(f["a"], f["b"], f["k"])
            plot = emit_plot_data(series, params)
            _write_text(os.path.join(args.plot, f"{label}.csv"), plot.csv)
            _write_text(os.path.join(args.plot, f"{label}.svg"), plot.svg)
            del plot  # free this plot's text before the next one is built
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        host_params=LogisticParams(*args.host_params),
        sub_params=LogisticParams(*args.sub_params),
        t_start=args.t_start,
        t_end=args.t_end,
        n_points=args.n_points,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    pair = generate_pair(spec)
    _write_text(args.out_host, serialize_fmt_csv(pair.host))
    _write_text(args.out_sub, serialize_fmt_csv(pair.sub))
    print(f"wrote {args.out_host} and {args.out_sub} (n={len(pair)}, seed={spec.seed})")
    return EXIT_OK


def _params_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'a,b,k', got {text!r}")
    try:
        a, b, k = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected three numbers, got {text!r}")
    return a, b, k


def _add_k_search_factor(p: argparse._ActionsContainer) -> None:
    """The k-search bound, taken by the commands that fit an S-curve."""
    p.add_argument(
        "--k-search-factor",
        type=float,
        default=DEFAULT_K_SEARCH_FACTOR,
        help="saturation search upper bound as a multiple of the observed maximum",
    )


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("json", "table"), default="json", help="output format"
    )


def _add_pair_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", required=True, help="host-technology CSV (t,value)")
    p.add_argument("--sub", required=True, help="subsystem-technology CSV (t,value)")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="significance level")
    _add_format(p)
    p.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="techevo",
        description="S-curve fitting and evolutionary-coefficient estimation "
        "for functional measures of technology",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one series' S-curve")
    p_fit.add_argument("csv", help="series CSV (t,value)")
    p_fit.add_argument("--name", help="series name (default: file stem)")
    _add_k_search_factor(p_fit)
    _add_format(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_evolve = sub.add_parser(
        "evolve", help="estimate the evolutionary coefficient and pathway"
    )
    _add_pair_args(p_evolve)
    p_evolve.set_defaults(func=_cmd_report, no_logistic=True, plot=None)

    p_report = sub.add_parser("report", help="full pipeline with artifacts")
    _add_pair_args(p_report)
    # --no-logistic fits no S-curve, so a k-search bound beside it is refused.
    fits = p_report.add_mutually_exclusive_group()
    _add_k_search_factor(fits)
    fits.add_argument(
        "--no-logistic", action="store_true", help="skip the per-series S-curve fits"
    )
    p_report.add_argument("--plot", help="directory for plot CSV/SVG artifacts")
    p_report.set_defaults(func=_cmd_report)

    p_sim = sub.add_parser("simulate", help="generate a seeded synthetic pair")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--host-params", type=_params_triple, default=(4.0, 0.3, 100.0),
        help="host a,b,k (default 4,0.3,100)",
    )
    p_sim.add_argument(
        "--sub-params", type=_params_triple, default=(3.0, 0.2, 50.0),
        help="subsystem a,b,k (default 3,0.2,50)",
    )
    p_sim.add_argument("--t-start", type=float, default=0.0)
    p_sim.add_argument("--t-end", type=float, default=40.0)
    p_sim.add_argument("--n-points", type=int, default=21)
    p_sim.add_argument("--noise-sigma", type=float, default=0.0)
    p_sim.add_argument("--out-host", default="host.csv")
    p_sim.add_argument("--out-sub", default="sub.csv")
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TechEvoError as exc:
        for err_type, code in _ERROR_EXIT_CODES:
            if isinstance(exc, err_type):
                return _fail(exc, code)
        return _fail(exc, EXIT_UNEXPECTED)
    except OSError as exc:
        return _fail(exc, EXIT_INPUT)
    except ValueError as exc:
        return _fail(exc, EXIT_CONFIG)


if __name__ == "__main__":
    raise SystemExit(main())
