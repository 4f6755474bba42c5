"""Analysis reports: the full pipeline plus deterministic emission.

``run_pipeline`` aligns two series, optionally fits each series' S-curve,
estimates the evolutionary coefficient and classifies the pathway.  The
report serializes to JSON with floats at 12 significant digits (stable
across platforms) and carries a SHA-256 digest over every field except
the provenance timestamp, so identical inputs are checkable at a glance.

JSON field names are snake_case and frozen; they are the tool's stable
machine interface.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import math
from dataclasses import dataclass, field

from . import __version__
from .coevolution import EvolutionFit, estimate_evolution
from .logistic import (
    KSearchConfig,
    LogisticFit,
    LogisticParams,
    fit_logistic,
    logistic_value,
)
from .pathway import PathwayClass, classify_pathway
from .series import FmtSeries, align
from .stats import _t_ratio, t_two_sided_p

SCHEMA_VERSION = 1
TOOL_NAME = "techevo"

#: Significant digits for every float the tool emits.
FLOAT_DIGITS = 12


@dataclass(frozen=True)
class PipelineConfig:
    alpha: float = 0.01
    k_search: KSearchConfig = field(default_factory=KSearchConfig)
    with_logistic: bool = True


@dataclass(frozen=True)
class ReportInputs:
    host_file: str
    sub_file: str
    host_name: str
    sub_name: str
    host_unit: str
    sub_unit: str
    n_host: int
    n_sub: int
    n_aligned: int
    t_min: float
    t_max: float


@dataclass(frozen=True)
class Provenance:
    tool: str
    version: str
    config: dict
    timestamp: str


@dataclass(frozen=True)
class AnalysisReport:
    inputs: ReportInputs
    evolution: EvolutionFit
    pathway: PathwayClass
    logistic_host: LogisticFit | None
    logistic_sub: LogisticFit | None
    provenance: Provenance


def _utc_now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")


def run_pipeline(
    host: FmtSeries,
    sub: FmtSeries,
    config: PipelineConfig | None = None,
    *,
    host_file: str,
    sub_file: str,
) -> AnalysisReport:
    """Align, (optionally) fit, estimate and classify two series.

    Reads and writes no file.  ``host_file`` and ``sub_file`` are the
    names the report records for its inputs; pass file names, not paths,
    so reports and digests stay identical across checkouts and working
    directories.  Errors from any stage propagate unchanged; the CLI maps
    them onto its exit-code contract.
    """
    cfg = PipelineConfig() if config is None else config
    pair = align(host, sub)

    fit_host = fit_sub = None
    if cfg.with_logistic:
        fit_host = fit_logistic(host, cfg.k_search)
        fit_sub = fit_logistic(sub, cfg.k_search)

    evolution = estimate_evolution(pair)
    pathway = classify_pathway(evolution, cfg.alpha)

    inputs = ReportInputs(
        host_file=host_file,
        sub_file=sub_file,
        host_name=host.name,
        sub_name=sub.name,
        host_unit=host.unit,
        sub_unit=sub.unit,
        n_host=len(host),
        n_sub=len(sub),
        n_aligned=len(pair),
        t_min=pair.ts[0],
        t_max=pair.ts[-1],
    )
    provenance = Provenance(
        tool=TOOL_NAME,
        version=__version__,
        config={
            "alpha": cfg.alpha,
            # The k-search bound is recorded only when an S-curve is fitted.
            "k_search_factor": cfg.k_search.factor_max if cfg.with_logistic else None,
            "with_logistic": cfg.with_logistic,
        },
        timestamp=_utc_now(),
    )
    return AnalysisReport(
        inputs=inputs,
        evolution=evolution,
        pathway=pathway,
        logistic_host=fit_host,
        logistic_sub=fit_sub,
        provenance=provenance,
    )


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


def _logistic_fit_dict(fit: LogisticFit) -> dict:
    return {
        "a": fit.params.a,
        "b": fit.params.b,
        "k": fit.params.k,
        "sse_linearized": fit.sse_linearized,
        "r2_linearized": fit.r2_linearized,
    }


def report_to_dict(report: AnalysisReport) -> dict:
    """Plain-dict form of a report (the JSON layout, before quantization).

    The ``inputs``, ``evolution``, ``pathway`` and ``provenance`` blocks
    are their dataclasses' fields, in field order.
    """
    fits = {
        label: None if fit is None else _logistic_fit_dict(fit)
        for label, fit in (("host", report.logistic_host), ("sub", report.logistic_sub))
    }
    provenance = dict(vars(report.provenance))
    provenance["config"] = dict(report.provenance.config)
    return {
        "schema_version": SCHEMA_VERSION,
        "inputs": dict(vars(report.inputs)),
        "logistic_fits": fits if any(fits.values()) else None,
        "evolution": dict(vars(report.evolution)),
        "pathway": dict(vars(report.pathway)),
        "provenance": provenance,
    }


def determinism_digest(report: AnalysisReport | dict) -> str:
    """SHA-256 over the quantized report with the timestamp blanked.

    Identical inputs and config yield identical digests across runs; the
    timestamp is the one field allowed to differ.
    """
    d = report_to_dict(report) if isinstance(report, AnalysisReport) else dict(report)
    d = _quantize(d)
    d.pop("digest", None)
    prov = dict(d.get("provenance") or {})
    prov.pop("timestamp", None)
    d["provenance"] = prov
    canonical = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def report_to_json(report: AnalysisReport) -> str:
    """Pretty JSON with quantized floats and an embedded digest."""
    d = _quantize(report_to_dict(report))
    d["digest"] = determinism_digest(d)
    return json.dumps(d, indent=2) + "\n"


def report_from_json(text: str) -> AnalysisReport:
    """Rebuild a report from its JSON form.

    Search traces and evaluation counts are not serialized, so
    reconstructed logistic fits carry an empty trace and ``sse_evals=0``;
    every serialized field round-trips exactly.
    """
    d = json.loads(text)
    fits = d.get("logistic_fits")

    def _fit(sub: dict | None) -> LogisticFit | None:
        if sub is None:
            return None
        return LogisticFit(
            params=LogisticParams(a=sub["a"], b=sub["b"], k=sub["k"]),
            sse_linearized=sub["sse_linearized"],
            r2_linearized=sub["r2_linearized"],
            k_search_trace=(),
            sse_evals=0,
        )

    return AnalysisReport(
        inputs=ReportInputs(**d["inputs"]),
        evolution=EvolutionFit(**d["evolution"]),
        pathway=PathwayClass(**d["pathway"]),
        logistic_host=None if fits is None else _fit(fits.get("host")),
        logistic_sub=None if fits is None else _fit(fits.get("sub")),
        provenance=Provenance(**d["provenance"]),
    )


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


def emit_table(report: AnalysisReport) -> str:
    """Fixed-width summary table: coefficients with SEs beneath-style cells,
    adjusted R² with the residual SE, F with its significance, and n."""
    ev = report.evolution
    p_const = t_two_sided_p(_t_ratio(ev.log_a, ev.se_log_a), ev.n - 2)

    cells = [
        f"{ev.log_a:.2f}{significance_stars(p_const)} ({ev.se_log_a:.2f})",
        f"{ev.b:.2f}{significance_stars(ev.p_b)} ({ev.se_b:.2f})",
        f"{ev.r2_adj:.2f} ({ev.see:.2f})",
        f"{_fmt_stat(ev.f_stat)} ({_fmt_sign(ev.p_f)})",
        str(ev.n),
    ]
    headers = ["Constant α", "Evolutionary coefficient β=B", "R² adj.", "F", "n"]
    subheaders = ["(St. Err.)", "(St. Err.)", "(St. Err. of the Estimate)", "(sign.)", ""]
    widths = [
        max(len(h), len(s), len(c)) for h, s, c in zip(headers, subheaders, cells)
    ]

    def row(items: list[str]) -> str:
        return "  ".join(item.ljust(w) for item, w in zip(items, widths)).rstrip()

    pw = report.pathway
    lines = [
        f"Dependent variable:   ln({report.inputs.sub_name})",
        f"Explanatory variable: ln({report.inputs.host_name})",
        "",
        row(headers),
        row(subheaders),
        row(cells),
        "",
        "Significance: * p<0.10, ** p<0.05, *** p<0.01 (two-sided).",
        f"Pathway: {pw.label} (B {pw.direction} 1, {_fmt_p_phrase(pw.p_b_vs_1)} "
        f"vs B=1 at α={pw.alpha:g})",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Plot artifacts
# ---------------------------------------------------------------------------

_SVG_W = 640.0
_SVG_H = 480.0
_SVG_MARGIN = 48.0
_CURVE_SAMPLES = 200


@dataclass(frozen=True)
class PlotData:
    csv: str
    svg: str


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
