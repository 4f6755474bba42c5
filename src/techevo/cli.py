"""Command-line front end.

Subcommands
-----------
fit       single-series S-curve fit
evolve    host + sub CSVs -> evolutionary coefficient + pathway
simulate  generate a seeded synthetic pair as CSV files
report    full pipeline with JSON/table output and optional plot artifacts

Exit codes
----------
0 on success and 2 on a usage error (argparse).  Every other failure exits
with the ``exit_code`` of its category in ``errors.py`` (10-14, or 1 for
the bare base class); a file that cannot be read or written, or is not
UTF-8, exits 10.  Every output path is checked before any input is read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import ConfigError, InputError, TechEvoError
from .logistic import DEFAULT_K_SEARCH_FACTOR, LogisticParams, fit_logistic
from .pathway import DEFAULT_ALPHA
from .report import (
    FLOAT_DIGITS,
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
        for key in ("a", "b", "k", "inflection_time", "sse_log", "r2_log"):
            print(f"{key:>16}: {f[key]:.{FLOAT_DIGITS}g}")
        print(f"{'k_at_bound':>16}: {f['k_at_bound']}")
    return EXIT_OK


#: The files ``report --plot DIR`` writes into DIR, in the order it writes them.
PLOT_FILES = ("host.csv", "host.svg", "sub.csv", "sub.svg")


def _check_files(reads: dict[str, str], writes: dict[str, str], made: str | None) -> None:
    """Refuse a ``made`` (the directory the command makes) under a path that
    is not a directory, an output that is a directory, is ``made`` or lies
    in a missing one but ``made``, then a file named twice but not only by
    inputs; a symlink's resolved path stands for the path.  A directory is
    known by its device and inode, or while it is missing by its resolved
    path (so ``link/..`` is where the system leads); a file by its device
    and inode, so a link to it names it, or while it is missing by its
    directory and name."""
    top = made
    while top and not os.path.lexists(top):
        top = os.path.dirname(top)
    if made and not os.path.isdir(top or "."):
        raise NotADirectoryError(f"cannot make {made!r}: {top!r} is not a directory")
    ids: dict[str, tuple[int, int] | str] = {}

    def dir_id(path: str) -> tuple[int, int] | str:
        if path not in ids:
            st = os.stat(path or ".") if os.path.isdir(path or ".") else None
            ids[path] = (st.st_dev, st.st_ino) if st else os.path.realpath(path)
        return ids[path]

    made_id = made and dir_id(made)
    seen: dict[tuple, str] = {}
    for option, path in (writes | reads).items():
        real = os.path.realpath(path) if os.path.islink(path) else path
        if option in writes:
            if os.path.isdir(path or ".") or isinstance(made_id, str) and dir_id(path) == made_id:
                raise IsADirectoryError(f"the {option} path {path!r} is a directory")
            if isinstance(folder := dir_id(os.path.dirname(real)), str) and folder != made_id:
                raise FileNotFoundError(f"no directory for the {option} file {path!r}")
        try:
            st = os.stat(path)
            file = st.st_dev, st.st_ino
        except OSError:
            file = dir_id(os.path.dirname(real)), os.path.basename(real)
        first = seen.setdefault(file, option)
        if first in writes and first != option:
            raise ConfigError(f"{first} and {option} name the same file {path!r}")


def _cmd_report(args: argparse.Namespace) -> int:
    """``report``, and ``evolve``, whose parser sets --no-logistic and no plot."""
    writes = {"--out": args.out} if args.out else {}
    writes |= {f"--plot {name}": os.path.join(args.plot, name) for name in PLOT_FILES if args.plot}
    _check_files({"--host": args.host, "--sub": args.sub}, writes, args.plot)
    host = _read_series(args.host)
    sub = _read_series(args.sub)
    factor = None if args.no_logistic else args.k_search_factor
    report = run_pipeline(host, sub, alpha=args.alpha, k_search_factor=factor)
    text = report_to_json(report) if args.format == "json" else emit_table(report)
    if args.plot:
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
    _check_files({}, {"--out-host": args.out_host, "--out-sub": args.out_sub}, None)
    # simulate's inputs are all options, so a spec it refuses is a ConfigError.
    try:
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
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
    """The bound on k, taken by the commands that fit an S-curve."""
    p.add_argument(
        "--k-search-factor",
        type=float,
        default=DEFAULT_K_SEARCH_FACTOR,
        help="upper bound on k as a multiple of the observed maximum",
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


def _add_fit_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("csv", help="series CSV (t,value)")
    p.add_argument("--name", help="series name (default: file stem)")
    _add_k_search_factor(p)
    _add_format(p)
    p.set_defaults(func=_cmd_fit)


def _add_evolve_args(p: argparse.ArgumentParser) -> None:
    _add_pair_args(p)
    p.set_defaults(func=_cmd_report, no_logistic=True, plot=None)


def _add_report_args(p: argparse.ArgumentParser) -> None:
    _add_pair_args(p)
    # --no-logistic fits no S-curve, so a bound on k beside it is refused.
    fits = p.add_mutually_exclusive_group()
    _add_k_search_factor(fits)
    fits.add_argument(
        "--no-logistic", action="store_true", help="skip the per-series S-curve fits"
    )
    p.add_argument("--plot", help="directory for plot CSV/SVG artifacts")
    p.set_defaults(func=_cmd_report)


def _add_simulate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--host-params", type=_params_triple, default=(4.0, 0.3, 100.0),
        help="host a,b,k (default 4,0.3,100)",
    )
    p.add_argument(
        "--sub-params", type=_params_triple, default=(3.0, 0.2, 50.0),
        help="subsystem a,b,k (default 3,0.2,50)",
    )
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=40.0)
    p.add_argument("--n-points", type=int, default=21)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--out-host", default="host.csv")
    p.add_argument("--out-sub", default="sub.csv")
    p.set_defaults(func=_cmd_simulate)


#: Subcommand -> (help line, function adding its arguments), in help order.
COMMANDS = {
    "fit": ("fit one series' S-curve", _add_fit_args),
    "evolve": ("estimate the evolutionary coefficient and pathway", _add_evolve_args),
    "report": ("full pipeline with artifacts", _add_report_args),
    "simulate": ("generate a seeded synthetic pair", _add_simulate_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone.

    A parser for one command parses, and refuses, that command's arguments
    exactly as the full one does; the usage line is spelled out so that it
    names every subcommand either way.
    """
    parser = argparse.ArgumentParser(
        prog="techevo",
        usage=f"%(prog)s [-h] [--version] {{{','.join(COMMANDS)}}} ...",
        description="S-curve fitting and evolutionary-coefficient estimation "
        "for functional measures of technology",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # Without prog, argparse would prefix each subcommand's usage with the
    # whole spelled-out usage line rather than with "techevo".
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, (help_line, add_arguments) in COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_line))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Only the named command's parser is built; anything else gets the full one.
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except TechEvoError as exc:
        return _fail(exc, exc.exit_code)
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(exc, InputError.exit_code)


if __name__ == "__main__":
    raise SystemExit(main())
