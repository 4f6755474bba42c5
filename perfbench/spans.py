"""Spans around the calls into techevo's layers, recorded from outside the package.

``Tracer.install`` replaces each traced function at the module attribute its
caller looks it up under (``techevo.report.fit_logistic`` is what
``run_pipeline`` calls) with a wrapper that records one span per call:
name, start, end, parent span and op id.  Nothing inside ``src/`` changes.
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = "cli.main"


def _parse_count(args, result):
    return {"series.parse_bytes": len(args[0])}


def _tail_count(args, result):
    return {"stats.tail_calls": 1}


# (module the caller imported the function into, attribute, span name, counter).
# A counter maps (args, result) to the work counts recorded with the span.
TARGETS = (
    ("techevo.cli", "run_pipeline", "report.pipeline", None),
    ("techevo.cli", "report_to_json", "report.json", lambda a, r: {"report.json_bytes": len(r)}),
    ("techevo.cli", "emit_plot_data", "report.plot",
     lambda a, r: {"report.plot_bytes": len(r.csv) + len(r.svg)}),
    ("techevo.cli", "parse_fmt_csv", "series.parse", _parse_count),
    ("techevo.cli", "serialize_fmt_csv", "series.serialize",
     lambda a, r: {"series.serialize_bytes": len(r)}),
    ("techevo.cli", "generate_pair", "synthetic.generate",
     lambda a, r: {"synthetic.points": len(r.host) + len(r.sub)}),
    ("techevo.report", "parse_fmt_csv", "series.parse", _parse_count),
    ("techevo.report", "align", "series.align", lambda a, r: {"series.align_rows": len(r)}),
    ("techevo.report", "fit_logistic", "logistic.fit",
     lambda a, r: {"logistic.fit_calls": 1, "logistic.fit_points": len(a[0])}),
    ("techevo.report", "estimate_evolution", "coevolution.estimate", None),
    ("techevo.report", "classify_pathway", "pathway.classify", None),
    ("techevo.coevolution", "ols_simple", "stats.ols", None),
    ("techevo.coevolution", "t_two_sided_p", "stats.tail", _tail_count),
    ("techevo.coevolution", "f_sf", "stats.tail", _tail_count),
)

#: Span name -> per-layer metric holding its self time.
SELF_METRIC = {
    ROOT: "cli.other_s",
    "report.pipeline": "report.other_s",
    "report.json": "report.json_s",
    "report.plot": "report.plot_s",
    "series.parse": "series.parse_s",
    "series.serialize": "series.serialize_s",
    "series.align": "series.align_s",
    "synthetic.generate": "synthetic.generate_s",
    "logistic.fit": "logistic.fit_s",
    "coevolution.estimate": "coevolution.estimate_s",
    "pathway.classify": "pathway.classify_s",
    "stats.ols": "stats.ols_s",
    "stats.tail": "stats.tail_s",
}
#: Span name -> per-layer metric holding its inclusive time.
TOTAL_METRIC = {"report.pipeline": "report.pipeline_s"}


class Tracer:
    """Records spans of the op currently running and keeps every op's spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op id]
        self.counts: list[dict[str, int]] = []  # per op
        self.results: dict[str, list] = defaultdict(list)  # current op: name -> [(args, result)]
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str, counter):
        def traced(*args, **kwargs):
            result = self._span(name, fn, args, kwargs)
            self.results[name].append((args, result))
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[-1][key] = self.counts[-1].get(key, 0) + value
            return result

        return traced

    def _span(self, name: str, fn, args, kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, len(self.counts) - 1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def op(self, fn, *args):
        """Run one op, ``fn(*args)``, as a new root span and return its result."""
        self.counts.append({})
        self.results.clear()
        return self._span(ROOT, fn, args, {})

    def per_op_layers(self) -> list[dict[str, float]]:
        """Per op: self time of every layer, inclusive pipeline time, and counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        ops = [defaultdict(float, counts) for counts in self.counts]
        for i, (name, start, end, _, op) in enumerate(self.spans):
            ops[op][SELF_METRIC[name]] += (end - start) - child_time[i]
            if name in TOTAL_METRIC:
                ops[op][TOTAL_METRIC[name]] += end - start
        return ops

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def layer_means(ops: list[dict[str, float]], names) -> dict[str, float]:
    """Mean per op of each named layer metric (0 where the layer never ran)."""
    return {name: statistics.fmean(op.get(name, 0.0) for op in ops) for name in names}
