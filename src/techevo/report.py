"""Analysis reports: the full pipeline plus deterministic emission.

A report is a plain dict in the JSON layout, the tool's stable machine
interface; field names are snake_case and frozen.  ``run_pipeline``
builds one (floats unquantized, no ``digest``) and ``json.loads`` of a
saved report gives one back; ``report_to_json``, ``determinism_digest``
and ``emit_table`` take either.

``run_pipeline`` aligns two series, fits each series' S-curve (unless
``k_search_factor`` is None), estimates the evolutionary coefficient and
classifies the pathway at level ``alpha``.  The report serializes to
JSON with floats at 12 significant digits (stable across platforms) and
carries a SHA-256 digest over every field except the provenance
timestamp, so identical inputs are checkable at a glance.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

from . import __version__
from ._record import Record
from .coevolution import estimate_evolution
from .logistic import (
    DEFAULT_K_SEARCH_FACTOR,
    LogisticFit,
    LogisticParams,
    fit_logistic,
    logistic_value,
)
from .pathway import DEFAULT_ALPHA, classify_pathway
from .series import FmtSeries, align
from .stats import _t_ratio, t_two_sided_p

SCHEMA_VERSION = 1
TOOL_NAME = "techevo"

#: Significant digits for every float the tool emits.
FLOAT_DIGITS = 12


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def _logistic_fit_dict(fit: LogisticFit) -> dict:
    return {
        "a": fit.params.a,
        "b": fit.params.b,
        "k": fit.params.k,
        "sse_linearized": fit.sse_linearized,
        "r2_linearized": fit.r2_linearized,
    }


def run_pipeline(
    host: FmtSeries,
    sub: FmtSeries,
    *,
    host_file: str,
    sub_file: str,
    alpha: float = DEFAULT_ALPHA,
    k_search_factor: float | None = DEFAULT_K_SEARCH_FACTOR,
) -> dict:
    """Align, (optionally) fit, estimate and classify two series.

    Returns the report as a dict in the documented JSON layout, with
    unquantized floats and no ``digest``; ``report_to_json`` adds both.
    ``alpha`` is the level of the pathway test and ``k_search_factor``
    the ceiling of each series' k search, checked by ``fit_logistic``;
    None fits no S-curve and leaves ``logistic_fits`` None.  Reads and
    writes no file.  ``host_file`` and ``sub_file`` are the names the
    report records for its inputs; pass file names, not paths, so
    reports and digests stay identical across checkouts and working
    directories.  Errors from any stage propagate unchanged; the CLI maps
    them onto its exit-code contract.
    """
    pair = align(host, sub)

    fits = None
    if k_search_factor is not None:
        fits = {
            "host": _logistic_fit_dict(fit_logistic(host, k_search_factor)),
            "sub": _logistic_fit_dict(fit_logistic(sub, k_search_factor)),
        }

    evolution = estimate_evolution(pair)
    pathway = classify_pathway(evolution, alpha)

    return {
        "schema_version": SCHEMA_VERSION,
        "inputs": {
            "host_file": host_file,
            "sub_file": sub_file,
            "host_name": host.name,
            "sub_name": sub.name,
            "host_unit": host.unit,
            "sub_unit": sub.unit,
            "n_host": len(host),
            "n_sub": len(sub),
            "n_aligned": len(pair),
            "t_min": pair.rows[0][0],
            "t_max": pair.rows[-1][0],
        },
        "logistic_fits": fits,
        "evolution": evolution._asdict(),
        "pathway": pathway._asdict(),
        "provenance": {
            "tool": TOOL_NAME,
            "version": __version__,
            "config": {
                "alpha": alpha,
                "k_search_factor": k_search_factor,
                "with_logistic": k_search_factor is not None,
            },
            "timestamp": _utc_now(),
        },
    }


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _quantize(obj):
    """Round every float to FLOAT_DIGITS significant digits, recursively.

    Quantization is idempotent: re-serializing a parsed report reproduces
    the same bytes.
    """
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(format(obj, f".{FLOAT_DIGITS}g"))
    if isinstance(obj, dict):
        return {k: _quantize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantize(v) for v in obj]
    return obj


def determinism_digest(report: dict) -> str:
    """SHA-256 over the quantized report with the timestamp blanked.

    Identical inputs and config yield identical digests across runs; the
    timestamp is the one field allowed to differ.  Any ``digest`` the
    report already carries is left out.
    """
    d = _quantize(report)
    d.pop("digest", None)
    prov = dict(d.get("provenance") or {})
    prov.pop("timestamp", None)
    d["provenance"] = prov
    canonical = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def report_to_json(report: dict) -> str:
    """Pretty JSON with quantized floats and an embedded digest."""
    d = _quantize(report)
    d["digest"] = determinism_digest(d)
    return json.dumps(d, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Text table
# ---------------------------------------------------------------------------


def significance_stars(p: float) -> str:
    """Conventional stars: * at 10%, ** at 5%, *** at 1%."""
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


def _fmt_sign(p: float) -> str:
    if p < 0.0005:
        return "<0.001"
    return f"{p:.3f}"


def _fmt_p_phrase(p: float) -> str:
    if p < 0.0005:
        return "p < 0.001"
    return f"p = {p:.3f}"


def _fmt_stat(v: float) -> str:
    """Two decimals for table-sized magnitudes, scientific beyond."""
    if v < 1e6:
        return f"{v:.2f}"
    return f"{v:.6g}"


def emit_table(report: dict) -> str:
    """Fixed-width summary table: coefficients with SEs beneath-style cells,
    adjusted R² with the residual SE, F with its significance, and n."""
    ev = report["evolution"]
    p_const = t_two_sided_p(_t_ratio(ev["log_a"], ev["se_log_a"]), ev["n"] - 2)

    cells = [
        f"{ev['log_a']:.2f}{significance_stars(p_const)} ({ev['se_log_a']:.2f})",
        f"{ev['b']:.2f}{significance_stars(ev['p_b'])} ({ev['se_b']:.2f})",
        f"{ev['r2_adj']:.2f} ({ev['see']:.2f})",
        f"{_fmt_stat(ev['f_stat'])} ({_fmt_sign(ev['p_f'])})",
        str(ev["n"]),
    ]
    headers = ["Constant α", "Evolutionary coefficient β=B", "R² adj.", "F", "n"]
    subheaders = ["(St. Err.)", "(St. Err.)", "(St. Err. of the Estimate)", "(sign.)", ""]
    widths = [
        max(len(h), len(s), len(c)) for h, s, c in zip(headers, subheaders, cells)
    ]

    def row(items: list[str]) -> str:
        return "  ".join(item.ljust(w) for item, w in zip(items, widths)).rstrip()

    pw = report["pathway"]
    lines = [
        f"Dependent variable:   ln({report['inputs']['sub_name']})",
        f"Explanatory variable: ln({report['inputs']['host_name']})",
        "",
        row(headers),
        row(subheaders),
        row(cells),
        "",
        "Significance: * p<0.10, ** p<0.05, *** p<0.01 (two-sided).",
        f"Pathway: {pw['label']} (B {pw['direction']} 1, {_fmt_p_phrase(pw['p_b_vs_1'])} "
        f"vs B=1 at α={pw['alpha']:g})",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Plot artifacts
# ---------------------------------------------------------------------------

_SVG_W = 640.0
_SVG_H = 480.0
_SVG_MARGIN = 48.0
_CURVE_SAMPLES = 200


class PlotData(Record):
    """One series' plot artifacts: the CSV text and the SVG text."""

    __slots__ = ("csv", "svg")

    def __init__(self, csv: str, svg: str) -> None:
        object.__setattr__(self, "csv", csv)
        object.__setattr__(self, "svg", svg)


def emit_plot_data(series: FmtSeries, params: LogisticParams | None = None) -> PlotData:
    """Observed points (and fitted curve, if given) as CSV plus minimal SVG.

    Output is byte-deterministic: same series and parameters, same bytes.
    """
    ts = series.ts
    obs = series.values
    fitted = None
    if params is not None:
        fitted = [logistic_value(params, t) for t in ts]

    columns = (ts, obs) if fitted is None else (ts, obs, fitted)
    header = "t,observed" if fitted is None else "t,observed,fitted"
    csv_text = header + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in zip(*columns)
    )

    t0, t1 = ts[0], ts[-1]
    # Times are scaled by a power of two into [-1, 1] before they are
    # differenced.  Scaling is exact for every time that does not underflow,
    # so the coordinates are those of (t - t0) / (t1 - t0), yet a span wider
    # than the largest float (t from -1.7e308 to 1.7e308) cannot overflow
    # into inf and nan, nor can a subnormal span round to zero.
    t_exp = math.frexp(max(abs(t0), abs(t1)))[1]
    s0 = math.ldexp(t0, -t_exp)
    span = math.ldexp(t1, -t_exp) - s0
    y_high = max(obs) if fitted is None else max(max(obs), max(fitted))
    y_high *= 1.05

    def sx(t: float) -> float:
        return _SVG_MARGIN + (math.ldexp(t, -t_exp) - s0) / span * (_SVG_W - 2 * _SVG_MARGIN)

    def sy(v: float) -> float:
        return _SVG_H - _SVG_MARGIN - v / y_high * (_SVG_H - 2 * _SVG_MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W:.0f} {_SVG_H:.0f}">',
        f'<line x1="{_SVG_MARGIN:.2f}" y1="{_SVG_H - _SVG_MARGIN:.2f}" '
        f'x2="{_SVG_W - _SVG_MARGIN:.2f}" y2="{_SVG_H - _SVG_MARGIN:.2f}" stroke="#333"/>',
        f'<line x1="{_SVG_MARGIN:.2f}" y1="{_SVG_MARGIN:.2f}" '
        f'x2="{_SVG_MARGIN:.2f}" y2="{_SVG_H - _SVG_MARGIN:.2f}" stroke="#333"/>',
    ]
    if params is not None:
        pts = []
        for i in range(_CURVE_SAMPLES + 1):
            t = math.ldexp(s0 + span * i / _CURVE_SAMPLES, t_exp)
            pts.append(f"{sx(t):.2f},{sy(logistic_value(params, t)):.2f}")
        parts.append(
            '<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" '
            f'points="{" ".join(pts)}"/>'
        )
    for t, v in zip(ts, obs):
        parts.append(
            f'<circle cx="{sx(t):.2f}" cy="{sy(v):.2f}" r="3" fill="#d62728"/>'
        )
    parts.append("</svg>")
    return PlotData(csv=csv_text, svg="\n".join(parts) + "\n")
