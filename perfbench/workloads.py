"""Workloads of the techevo benchmark: seeded inputs, operations, output checks.

One operation ("op") is one unit of user work, run through ``techevo.cli.main``:

* ``report``: ``report --host H --sub P --out F --plot DIR`` on a pre-written
  pair.  Host = logistic (a=4, b=0.3, k=100) on t in [0, 40] times
  multiplicative log-normal noise sigma_h; sub = 2.5 * H_true**0.35 times
  log-normal noise (sigma 0.05), the recipe of ``scripts/make_fixtures.py``
  with a noisy host.  The true evolutionary coefficient is 0.35.
* ``simulate_evolve``: ``simulate --n-points N --noise-sigma 0.05 --seed s``,
  then ``evolve`` on the two files it just wrote.

Report inputs come from the benchmark's own ``random.Random(seed)``, never
from the package under test, so a change to the package cannot change them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

TRUE_A, TRUE_B_RATE, TRUE_K = 4.0, 0.3, 100.0
TRUE_COEFFICIENT = 0.35
SUB_SCALE = 2.5
SUB_SIGMA = 0.05
T_END = 40.0
#: Acceptance criterion 1: noise-free recovery within this relative error.
RECOVERY_REL_TOL = 1e-6
#: A fitted k this close (relative) to an end of the k search counts as on it.
BOUND_REL_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "report" or "simulate_evolve"
    n: int
    sigmas: tuple[float, ...]  # host sigma cycle (report) or simulate --noise-sigma
    pool: int  # distinct inputs; ops cycle through them in whole passes

    def tiny(self) -> "Workload":
        """The same workload shrunk for the smoke tests."""
        return replace(self, n=min(self.n, 60), pool=len(self.sigmas))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("report_small", "report", 21, (0.0, 0.01, 0.02, 0.05), 64),
        Workload("report_long", "report", 10_000, (0.0, 0.02), 2),
        Workload("simulate_evolve", "simulate_evolve", 10_000, (0.05,), 4),
    )
}


@dataclass
class Item:
    """One distinct input of a workload and the argv lists of its op."""

    index: int
    sigma: float
    n: int
    argvs: tuple[tuple[str, ...], ...]
    files: tuple[Path, Path]  # host and sub CSVs
    out: Path
    plot_dir: Path | None = None  # set for report ops only
    host_max: float = 0.0
    sub_max: float = 0.0
    expected: tuple[str, str] = ("", "")  # simulate_evolve: _points_digest of host, sub


@dataclass
class Outcome:
    """Result of checking one op's outputs."""

    ok: bool
    reason: str = ""
    digest: str = ""
    host_k: float = math.nan
    sub_k: float = math.nan
    b: float = math.nan
    at_bound: tuple[bool, ...] = ()


def _csv(points) -> str:
    return "t,value\n" + "".join(f"{t!r},{v!r}\n" for t, v in points)


def prepare(wl: Workload, seed: int, work: Path) -> list[Item]:
    """Write the workload's inputs under ``work`` and return its items."""
    inputs = work / "inputs" / wl.name
    inputs.mkdir(parents=True, exist_ok=True)
    out_dir = work / "ops" / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    items = []
    for i in range(wl.pool):
        sigma = wl.sigmas[i % len(wl.sigmas)]
        if wl.kind == "report":
            items.append(_report_item(wl, i, sigma, rng, inputs, out_dir))
        else:
            items.append(_simulate_item(wl, i, sigma, rng.getrandbits(32), out_dir))
    return items


def _report_item(wl, i, sigma, rng, inputs: Path, out_dir: Path) -> Item:
    ts = [T_END * j / (wl.n - 1) for j in range(wl.n)]
    h_true = [TRUE_K / (1.0 + math.exp(TRUE_A - TRUE_B_RATE * t)) for t in ts]
    host = [h * math.exp(sigma * rng.gauss(0.0, 1.0)) for h in h_true]
    sub = [
        SUB_SCALE * h**TRUE_COEFFICIENT * math.exp(SUB_SIGMA * rng.gauss(0.0, 1.0))
        for h in h_true
    ]
    # File stems become series names inside the report, so they are fixed
    # by the item index and digests repeat across runs of one seed.
    host_path = inputs / f"host_{i:03d}.csv"
    sub_path = inputs / f"sub_{i:03d}.csv"
    host_path.write_text(_csv(zip(ts, host)), encoding="utf-8")
    sub_path.write_text(_csv(zip(ts, sub)), encoding="utf-8")
    out = out_dir / "report.json"
    plot_dir = out_dir / "plots"
    argv = ("report", "--host", str(host_path), "--sub", str(sub_path),
            "--out", str(out), "--plot", str(plot_dir))
    return Item(i, sigma, wl.n, (argv,), (host_path, sub_path), out, plot_dir,
                max(host), max(sub))


def _simulate_item(wl, i, sigma, sim_seed: int, out_dir: Path) -> Item:
    from techevo import LogisticParams, SyntheticSpec, generate_pair

    host_path = out_dir / f"host_{i:03d}.csv"
    sub_path = out_dir / f"sub_{i:03d}.csv"
    out = out_dir / "evolve.json"
    simulate = ("simulate", "--n-points", str(wl.n), "--noise-sigma", repr(sigma),
                "--seed", str(sim_seed), "--out-host", str(host_path),
                "--out-sub", str(sub_path))
    evolve = ("evolve", "--host", str(host_path), "--sub", str(sub_path),
              "--out", str(out))
    # The simulate defaults, spelled out: the check compares the files
    # simulate writes against this pair.  Only digests are kept, so the
    # benchmark's own state does not add to the measured peak memory.
    pair = generate_pair(SyntheticSpec(
        host_params=LogisticParams(4.0, 0.3, 100.0),
        sub_params=LogisticParams(3.0, 0.2, 50.0),
        t_start=0.0, t_end=40.0, n_points=wl.n, noise_sigma=sigma, seed=sim_seed,
    ))
    expected = (_points_digest(pair.host.points), _points_digest(pair.sub.points))
    return Item(i, sigma, wl.n, (simulate, evolve), (host_path, sub_path), out,
                expected=expected)


def _points_digest(points) -> str:
    """SHA-256 of the points' reprs, which round-trip floats exactly."""
    return hashlib.sha256(repr(points).encode()).hexdigest()


def _rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _at_bound(k: float, vmax: float, factor: float) -> bool:
    ceiling = vmax * factor
    return k >= ceiling * (1.0 - BOUND_REL_TOL) or k <= vmax * (1.0 + BOUND_REL_TOL)


def _load_report(item: Item) -> tuple[dict | None, str]:
    from techevo import determinism_digest

    try:
        d = json.loads(item.out.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return None, f"unreadable report: {exc}"
    if d.get("digest") != determinism_digest(d):
        return None, "embedded digest does not recompute"
    return d, ""


def clear(item: Item) -> None:
    """Remove what an earlier op on ``item`` wrote, so a check sees only this op's output."""
    stale = [item.out]
    if item.plot_dir is None:
        stale.extend(item.files)
    else:
        stale.extend(item.plot_dir.glob("*"))
    for path in stale:
        path.unlink(missing_ok=True)


def check(item: Item) -> Outcome:
    """Check the outputs the op on ``item`` left behind."""
    d, reason = _load_report(item)
    if d is None:
        return Outcome(False, reason)
    if item.plot_dir is not None:
        return _check_report(item, d)
    return _check_simulate_evolve(item, d)


def _check_report(item: Item, d: dict) -> Outcome:
    fits = d["logistic_fits"]
    host, sub = fits["host"], fits["sub"]
    if item.sigma == 0.0:
        worst = max(_rel_err(host["a"], TRUE_A), _rel_err(host["b"], TRUE_B_RATE),
                    _rel_err(host["k"], TRUE_K))
        if not worst < RECOVERY_REL_TOL:
            return Outcome(False, f"noise-free host recovered with rel err {worst:.3g}")
    for label in ("host", "sub"):
        for ext, head in (("csv", "t,observed,fitted"), ("svg", "<svg")):
            path = item.plot_dir / f"{label}.{ext}"
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as exc:
                return Outcome(False, f"plot artifact missing: {exc}")
            if not text.startswith(head):
                return Outcome(False, f"plot artifact {path.name} malformed")
    factor = d["provenance"]["config"]["k_search_factor"]
    return Outcome(
        True, digest=d["digest"], host_k=host["k"], sub_k=sub["k"],
        b=d["evolution"]["b"],
        at_bound=(_at_bound(host["k"], item.host_max, factor),
                  _at_bound(sub["k"], item.sub_max, factor)),
    )


def _check_simulate_evolve(item: Item, d: dict) -> Outcome:
    from techevo import parse_fmt_csv

    for label, path, expected in zip(("host", "sub"), item.files, item.expected):
        parsed = parse_fmt_csv(path.read_text(encoding="utf-8"), label)
        if _points_digest(parsed.points) != expected:
            return Outcome(False, f"{label} CSV does not parse back to the generated series")
    if d["evolution"]["n"] != item.n:
        return Outcome(False, f"evolve report has n={d['evolution']['n']}")
    return Outcome(True, digest=d["digest"], b=d["evolution"]["b"])


def accuracy(wl: Workload, first: dict[int, Outcome]) -> dict[str, float]:
    """Accuracy of the fitted numbers over the distinct items run (report only).

    ``first`` maps item index to the outcome of its first op.
    """
    if wl.kind != "report":
        return {}
    ok = [o for o in first.values() if o.ok]
    if not ok:
        return {}
    flags = [f for o in ok for f in o.at_bound]
    return {
        "k_relerr_p50": statistics.median(abs(o.host_k - TRUE_K) / TRUE_K for o in ok),
        "k_at_bound_share": sum(flags) / len(flags),
        "b_abs_err_max": max(abs(o.b - TRUE_COEFFICIENT) for o in ok),
    }


def _q(value):
    """A number as the report serializes it (12 significant digits)."""
    return float(format(value, ".12g")) if isinstance(value, float) else value


def check_stages(item: Item, results: dict, digest: str) -> str:
    """Compare each traced stage's result with the report the op wrote.

    ``results`` maps span name to the (args, result) of each call in the op;
    stages the tracer could not wrap are skipped.  Returns "" when all agree.
    """
    d = json.loads(item.out.read_text(encoding="utf-8"))
    if d["digest"] != digest:
        return "traced op wrote a report with another digest than the untraced op"
    if "coevolution.estimate" in results:
        est = results["coevolution.estimate"][0][1]
        diff = [k for k, v in d["evolution"].items() if _q(getattr(est, k)) != v]
        if diff:
            return f"estimate_evolution differs from the report in {diff}"
    if "pathway.classify" in results:
        if results["pathway.classify"][0][1].label != d["pathway"]["label"]:
            return "classify_pathway label differs from the report"
    if "series.align" in results:
        if len(results["series.align"][0][1]) != d["inputs"]["n_aligned"]:
            return "align row count differs from the report"
    parsed = [r for _, r in results.get("series.parse", ())]
    if len(parsed) >= 2 and (len(parsed[0]), len(parsed[1])) != (
        d["inputs"]["n_host"], d["inputs"]["n_sub"]
    ):
        return "parsed series lengths differ from the report"
    if "logistic.fit" in results:
        fits = [r for _, r in results["logistic.fit"]]
        for label, fit in zip(("host", "sub"), fits):
            want = d["logistic_fits"][label]
            got = {k: _q(getattr(fit.params, k)) for k in ("a", "b", "k")}
            if any(got[k] != want[k] for k in got):
                return f"fit_logistic({label}) differs from the report"
    if "synthetic.generate" in results and len(parsed) >= 2:
        pair = results["synthetic.generate"][0][1]
        if (parsed[0].points, parsed[1].points) != (pair.host.points, pair.sub.points):
            return "series parsed by evolve differ from the generated pair"
    return ""
