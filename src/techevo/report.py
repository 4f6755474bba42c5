"""Analysis reports: the full pipeline plus deterministic emission.

A report is a plain dict in the JSON layout, the tool's stable machine
interface; field names are snake_case and frozen.  ``run_pipeline``
builds one (floats unquantized, no ``digest``) and ``json.loads`` of a
saved report gives one back; ``report_to_json``, ``determinism_digest``
and ``emit_table`` take either.

``run_pipeline`` aligns two series, fits each one's S-curve (unless
``k_search_factor`` is None) and passes it to an optional ``plot`` hook,
estimates the evolutionary coefficient and classifies the pathway at
level ``alpha``; on long series the subsystem's fit and plot are made in
one forked child, under ``_workers.host_and_sub``'s contract.
The report serializes to strict JSON with floats at 12 significant
digits (stable across platforms), a non-finite statistic written as the
string "inf", "-inf" or "nan", and carries a SHA-256 digest over every
field except the provenance timestamp, so identical inputs are checkable
at a glance.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

from . import __version__
from ._record import Record
from ._workers import host_and_sub
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

SCHEMA_VERSION = 3
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
        "sse_log": fit.sse_log,
        "r2_log": fit.r2_log,
        "k_at_bound": fit.k_at_bound,
    }


def run_pipeline(
    host: FmtSeries,
    sub: FmtSeries,
    *,
    alpha: float = DEFAULT_ALPHA,
    k_search_factor: float | None = DEFAULT_K_SEARCH_FACTOR,
    plot=None,
) -> dict:
    """Align, (optionally) fit, estimate and classify two series.

    Returns the report as a dict in the documented JSON layout, with
    unquantized floats and no ``digest``; ``report_to_json`` adds both.
    ``alpha`` is the level of the pathway test and ``k_search_factor``
    the upper bound on each series' k over its maximum, checked by
    ``fit_logistic``; None fits no S-curve and leaves ``logistic_fits``
    None.  ``plot(label, series, params)``, if given, is called for
    "host", then "sub", right after that series' fit and in the process
    that made it, with the fitted ``LogisticParams`` or None; the sub's
    call may run twice (``_workers.host_and_sub``).  Writes no file
    itself; the report names its inputs by the series' names.
    Errors propagate unchanged, in the order host fit, host plot, sub fit,
    sub plot, estimate, classify; the CLI maps them onto its exit codes.
    """
    pair = align(host, sub)

    def work(label: str, series: FmtSeries) -> dict | None:
        fit = None if k_search_factor is None else fit_logistic(series, k_search_factor)
        if plot is not None:
            plot(label, series, fit and fit.params)
        return fit and _logistic_fit_dict(fit)

    # Without a fit or a plot there is no work, so no child is started.
    busy = k_search_factor is not None or plot is not None
    fits = host_and_sub(work, host, sub, min(len(host), len(sub))) if busy else None

    evolution = estimate_evolution(pair)
    pathway = classify_pathway(evolution, alpha)

    return {
        "schema_version": SCHEMA_VERSION,
        "inputs": {
            "host_name": host.name,
            "sub_name": sub.name,
            "n_host": len(host),
            "n_sub": len(sub),
            "n_aligned": len(pair),
            "t_min": pair.ts[0],
            "t_max": pair.ts[-1],
        },
        "logistic_fits": None if k_search_factor is None else fits,
        "evolution": evolution._asdict(),
        "pathway": pathway._asdict(),
        "provenance": {
            "tool": TOOL_NAME,
            "version": __version__,
            "config": {
                "alpha": alpha,
                "k_search_factor": k_search_factor,
            },
            "timestamp": _utc_now(),
        },
    }


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _quantize(obj):
    """Round every float to FLOAT_DIGITS significant digits, recursively,
    and write a non-finite one as the string "inf", "-inf" or "nan".

    Quantization is idempotent: re-serializing a parsed report reproduces
    the same bytes.
    """
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(format(obj, f".{FLOAT_DIGITS}g")) if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _quantize(v) for k, v in obj.items()}
    return obj


def _digest_quantized(d: dict) -> str:
    """``determinism_digest`` of a report that ``_quantize`` has already
    returned; ``d`` is left as it is."""
    d = dict(d)
    d.pop("digest", None)
    prov = dict(d.get("provenance") or {})
    prov.pop("timestamp", None)
    d["provenance"] = prov
    canonical = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def determinism_digest(report: dict) -> str:
    """SHA-256 over the quantized report with the timestamp blanked.

    Identical inputs and config yield identical digests across runs; the
    timestamp is the one field allowed to differ.  Any ``digest`` the
    report already carries is left out.
    """
    return _digest_quantized(_quantize(report))


def report_to_json(report: dict) -> str:
    """Strict (RFC 8259) pretty JSON with quantized floats and an embedded
    digest."""
    d = _quantize(report)
    d["digest"] = _digest_quantized(d)
    return json.dumps(d, indent=2, allow_nan=False) + "\n"


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
        f"{_fmt_stat(float(ev['f_stat']))} ({_fmt_sign(ev['p_f'])})",
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
        f"Pathway: {pw['label']} (B {pw['direction']} 1, {_fmt_p_phrase(ev['p_b_vs_1'])} "
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


def emit_plot_data(series: FmtSeries, params: LogisticParams | None = None) -> PlotData:
    """Observed points (and fitted curve, if given) as CSV plus minimal SVG.

    Output is byte-deterministic: same series and parameters, same bytes.
    """
    ts, obs = series.ts, series.values
    if params is None:
        csv_text = "t,observed\n" + "".join([f"{t!r},{v!r}\n" for t, v in zip(ts, obs)])
        y_high = max(obs)
    else:
        fitted = [logistic_value(params, t) for t in ts]
        csv_text = "t,observed,fitted\n" + "".join(
            [f"{t!r},{v!r},{f!r}\n" for t, v, f in zip(ts, obs, fitted)]
        )
        y_high = max(max(obs), max(fitted))
    # Values are scaled down by a power of two, as the times are below, so
    # that 1.05 * max stays finite.
    v_scale = math.ldexp(1.0, -max(0, math.frexp(y_high)[1]))
    y_high = y_high * v_scale * 1.05

    t0, t1 = ts[0], ts[-1]
    # Times are scaled by a power of two into [-1, 1] before they are
    # differenced.  Scaling is exact for every time that does not underflow,
    # so the coordinates are those of (t - t0) / (t1 - t0), yet a span wider
    # than the largest float (t from -1.7e308 to 1.7e308) cannot overflow
    # into inf and nan, nor can a subnormal span round to zero.
    t_exp = math.frexp(max(abs(t0), abs(t1)))[1]
    s0 = math.ldexp(t0, -t_exp)
    span = math.ldexp(t1, -t_exp) - s0
    # A point (t, v) is drawn at x = x0 + (t scaled - s0) / span * x_width
    # and y = y0 - v scaled / y_high * y_height.
    ldexp = math.ldexp
    x0, x_width = _SVG_MARGIN, _SVG_W - 2 * _SVG_MARGIN
    y0, y_height = _SVG_H - _SVG_MARGIN, _SVG_H - 2 * _SVG_MARGIN

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W:.0f} {_SVG_H:.0f}">',
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{_SVG_W - _SVG_MARGIN:.2f}" y2="{y0:.2f}" '
        'stroke="#333"/>',
        f'<line x1="{x0:.2f}" y1="{_SVG_MARGIN:.2f}" x2="{x0:.2f}" y2="{y0:.2f}" stroke="#333"/>',
    ]
    if params is not None:
        curve_ts = [
            ldexp(s0 + span * i / _CURVE_SAMPLES, t_exp) for i in range(_CURVE_SAMPLES + 1)
        ]
        pts = " ".join([
            f"{x0 + (ldexp(t, -t_exp) - s0) / span * x_width:.2f},"
            f"{y0 - logistic_value(params, t) * v_scale / y_high * y_height:.2f}"
            for t in curve_ts
        ])
        parts.append(
            f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{pts}"/>'
        )
    parts += [
        f'<circle cx="{x0 + (ldexp(t, -t_exp) - s0) / span * x_width:.2f}" '
        f'cy="{y0 - v * v_scale / y_high * y_height:.2f}" r="3" fill="#d62728"/>'
        for t, v in zip(ts, obs)
    ]
    parts.append("</svg>")
    return PlotData(csv=csv_text, svg="\n".join(parts) + "\n")
