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
UTF-8, exits 10.  Every output is staged beside its target before any
input is read, and put in place only once every write has succeeded, so a
command that fails changes no file.

Processes
---------
On long series ``simulate`` makes and writes the subsystem's series in a
forked child while it makes the host's (``_workers.host_and_sub``), and
``report`` fits and plots it in one (``run_pipeline``).  Outputs, messages
and exit codes are those of one process.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
import time

from . import __version__
from ._workers import host_and_sub
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
from .synthetic import SyntheticSpec, generate_series

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
    """Write ``text`` over the start of ``path``, an existing file that is
    neither made nor truncated: a staged temporary file, or an output that
    is not a regular file."""
    with open(os.open(path, os.O_WRONLY), "w", encoding="utf-8") as f:
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


def _write_outputs(reads: dict[str, str], writes: dict[str, str], made: str | None, write):
    """Return ``write(temps)``, where ``temps`` maps each option of
    ``writes`` (option -> path) to the file to write that output to: an
    empty file made beside it (beside where it leads, if a symlink) and
    renamed onto it once ``write`` returns, or else removed along with the
    directories made.  An output that exists and is not a regular file (a
    FIFO, a device) is written in place.  Refused first: an empty ``made``
    or output path, as ``open("")`` refuses it; then, in ``writes | reads``
    order, a ``made`` (the directory to make) under a path that is not a
    directory, an output that is a directory, and a file named twice but
    not only by inputs (a file is known by its device and inode, or while
    missing by its directory's and its own name)."""
    if "" in (made, *writes.values()):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), "")
    missing = []  # the levels of made to make, deepest first
    top = made
    while top and not os.path.lexists(top):
        missing.append(top)
        top = os.path.dirname(top)
    if made and not os.path.isdir(top or "."):
        raise NotADirectoryError(f"cannot make {made!r}: {top!r} is not a directory")
    seen: dict[tuple, str] = {}
    temps = dict(writes)
    staged = []  # (temporary file, target, path)
    try:
        if missing:
            os.makedirs(made, exist_ok=True)
        for option, path in (writes | reads).items():
            if option in writes and os.path.isdir(path):
                raise IsADirectoryError(f"the {option} path {path!r} is a directory")
            try:
                try:
                    st = os.stat(path)
                except OSError:
                    st = None
                # A file to make or replace is the one a symlink leads to.
                regular = st is None or stat.S_ISREG(st.st_mode)
                real = os.path.realpath(path) if regular and os.path.islink(path) else path
                folder, name = os.path.split(real)
                if st:
                    file = st.st_dev, st.st_ino
                else:
                    st = os.stat(folder or ".")
                    file = st.st_dev, st.st_ino, name
                first = seen.setdefault(file, option)
                if first in writes and first != option:
                    raise ConfigError(f"{first} and {option} name the same file {path!r}")
                if option in writes and regular:
                    # Hidden; the time keeps a file left by a killed run that
                    # had this pid (say, pid 1 in a container) out of the way.
                    temp = os.path.join(folder, f".{name}.{os.getpid()}.{time.time_ns()}")
                    os.close(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
                    staged.append((temp, real, path))
                    temps[option] = temp
            except OSError as exc:  # named as the user named it
                raise OSError(exc.errno, exc.strerror, path)
        result = write(temps)
        for temp, real, path in staged:
            try:
                os.replace(temp, real)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path)
        staged = missing = []
        return result
    finally:
        for temp, _, _ in staged:
            try:
                os.unlink(temp)
            except OSError:
                pass
        for level in missing:
            try:
                os.rmdir(level)
            except OSError:
                pass


def _cmd_report(args: argparse.Namespace) -> int:
    """``report``, and ``evolve``, whose parser sets --no-logistic and no plot."""
    writes = {} if args.out is None else {"--out": args.out}
    if args.plot is not None:
        writes |= {f"--plot {name}": os.path.join(args.plot, name) for name in PLOT_FILES}

    def write(temps: dict[str, str]) -> int:
        host = _read_series(args.host)
        sub = _read_series(args.sub)

        def write_plot(label: str, series: FmtSeries, params: LogisticParams | None) -> None:
            data = emit_plot_data(series, params)
            _write_text(temps[f"--plot {label}.csv"], data.csv)
            _write_text(temps[f"--plot {label}.svg"], data.svg)

        factor = None if args.no_logistic else args.k_search_factor
        plot = write_plot if args.plot is not None else None
        report = run_pipeline(host, sub, alpha=args.alpha, k_search_factor=factor, plot=plot)
        text = report_to_json(report) if args.format == "json" else emit_table(report)
        if args.out is not None:
            _write_text(temps["--out"], text)
        else:
            sys.stdout.write(text)
        return EXIT_OK

    return _write_outputs({"--host": args.host, "--sub": args.sub}, writes, args.plot, write)


def _cmd_simulate(args: argparse.Namespace) -> int:
    def write(temps: dict[str, str]) -> str:
        def make(label: str, temp: str) -> None:
            _write_text(temp, serialize_fmt_csv(generate_series(spec, label)))

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
            # Each series is made and written on its own, the sub's in a
            # child where the series are long.
            host_and_sub(make, temps["--out-host"], temps["--out-sub"], spec.n_points)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return f"wrote {args.out_host} and {args.out_sub} (n={spec.n_points}, seed={spec.seed})"

    writes = {"--out-host": args.out_host, "--out-sub": args.out_sub}
    print(_write_outputs({}, writes, None, write))
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
