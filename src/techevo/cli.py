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
14  configuration error (bad alpha)
1   unexpected internal error
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .errors import (
    AlignmentError,
    ConfigError,
    EstimationError,
    FittingError,
    InputError,
    TechEvoError,
)
from .logistic import KSearchConfig, LogisticParams, fit_logistic
from .report import (
    PipelineConfig,
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


def _read_series(path: str, name: str | None = None) -> FmtSeries:
    """Read and parse one CSV; the series is named after the file stem
    unless ``name`` is given."""
    p = Path(path)
    return parse_fmt_csv(p.read_text(encoding="utf-8"), name or p.stem)


def _cmd_fit(args: argparse.Namespace) -> int:
    series = _read_series(args.csv, args.name)
    fit = fit_logistic(series, KSearchConfig(factor_max=args.k_search_factor))
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


def _emit_report(args: argparse.Namespace, with_logistic: bool) -> int:
    config = PipelineConfig(
        alpha=args.alpha,
        k_search=KSearchConfig(factor_max=args.k_search_factor),
        with_logistic=with_logistic,
    )
    host = _read_series(args.host)
    sub = _read_series(args.sub)
    report = run_pipeline(
        host, sub, config, host_file=Path(args.host).name, sub_file=Path(args.sub).name
    )
    text = report_to_json(report) if args.format == "json" else emit_table(report)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)

    plot_dir = getattr(args, "plot", None)
    if plot_dir:
        directory = Path(plot_dir)
        directory.mkdir(parents=True, exist_ok=True)
        pairs = (
            ("host", host, report.logistic_host),
            ("sub", sub, report.logistic_sub),
        )
        for label, series, fit in pairs:
            plot = emit_plot_data(series, None if fit is None else fit.params)
            (directory / f"{label}.csv").write_text(plot.csv, encoding="utf-8")
            (directory / f"{label}.svg").write_text(plot.svg, encoding="utf-8")
            del plot  # free this plot's text before the next one is built
    return EXIT_OK


def _cmd_evolve(args: argparse.Namespace) -> int:
    return _emit_report(args, with_logistic=False)


def _cmd_report(args: argparse.Namespace) -> int:
    return _emit_report(args, with_logistic=not args.no_logistic)


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
    Path(args.out_host).write_text(serialize_fmt_csv(pair.host), encoding="utf-8")
    Path(args.out_sub).write_text(serialize_fmt_csv(pair.sub), encoding="utf-8")
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


def _add_output_args(p: argparse.ArgumentParser) -> None:
    """The k-search bound and output format, shared by fit, evolve and report."""
    p.add_argument(
        "--k-search-factor",
        type=float,
        default=10.0,
        help="saturation search upper bound as a multiple of the observed maximum",
    )
    p.add_argument(
        "--format", choices=("json", "table"), default="json", help="output format"
    )


def _add_pair_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", required=True, help="host-technology CSV (t,value)")
    p.add_argument("--sub", required=True, help="subsystem-technology CSV (t,value)")
    p.add_argument("--alpha", type=float, default=0.01, help="significance level")
    _add_output_args(p)
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
    _add_output_args(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_evolve = sub.add_parser(
        "evolve", help="estimate the evolutionary coefficient and pathway"
    )
    _add_pair_args(p_evolve)
    p_evolve.set_defaults(func=_cmd_evolve)

    p_report = sub.add_parser("report", help="full pipeline with artifacts")
    _add_pair_args(p_report)
    p_report.add_argument(
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
