#!/usr/bin/env python3
"""techevo benchmark: closed-loop CLI workloads, one caller on one thread.

    python3 perfbench/run.py --workload report_small --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
Each op calls ``techevo.cli.main`` in this process, and the next op starts
only after the previous one returned and its outputs were checked.

``--trace 0`` measures for ``--seconds`` and ends with the end-to-end
metrics.  ``--trace 1`` replays every op right after it ran, with a span
around every call into a layer, and ends with the per-layer metrics.  The last stdout line is always one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs, outputs,
spans and a run record go to ``.perfbench_work/`` in the checkout.
RATIONALE.md says why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PYCACHE = WORK / "pycache"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Units of the metrics printed beside the declared ones (see RATIONALE.md).
EXTRA_UNITS = {"op_ms_p50": "ms", "op_ms_tail": "ms", "ops_per_s": "1/s", "probe_ms": "ms",
               "failed_share": "share", "k_relerr_p50": "ratio",
               "k_at_bound_share": "share", "b_abs_err_max": "abs"}

#: The probe loop takes about 1.4 ms on a 2-core x86-64 VM.
PROBE_ITERATIONS = 20_000
PROBE_EVERY_S = 0.1
#: Fresh interpreters timed per run for setup_s, half before the ops and half
#: after them, so the median spans the run's machine state.
SETUP_CHILDREN = 10
CHILD = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import techevo.cli\n"
    "t1 = time.perf_counter()\n"
    "techevo.cli.build_parser()\n"
    "t2 = time.perf_counter()\n"
    "print(t2 - t0, t1 - t0)\n"
)


def setup_samples(children: int, warm: bool) -> list[list[float]]:
    """Time fresh interpreters importing techevo.cli and building its parser.

    Each sample is [import + build_parser seconds, import seconds], timed
    inside the child.  Children read bytecode from a cache under the work
    directory, which a discarded first child fills when ``warm`` is set: an
    installed package has its bytecode compiled too.  PYTHONDONTWRITEBYTECODE
    is dropped for them so the cache can be written.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    samples = []
    for _ in range(children + 1 if warm else children):
        proc = subprocess.run(
            [sys.executable, "-c", CHILD], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        samples.append([float(x) for x in proc.stdout.split()])
    return samples[1:] if warm else samples


def _main_all(argvs) -> list[int]:
    from techevo.cli import main

    return [main(list(argv)) for argv in argvs]


def run_op(item, tracer=None):
    """Run one op; returns (seconds, Outcome).  A raise or a non-zero exit fails it."""
    workloads.clear(item)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = perf_counter()
        try:
            codes = tracer.op(_main_all, item.argvs) if tracer else _main_all(item.argvs)
        except (Exception, SystemExit):
            return perf_counter() - t0, workloads.Outcome(False, traceback.format_exc(limit=4))
        seconds = perf_counter() - t0
    if any(codes):
        return seconds, workloads.Outcome(False, f"exit codes {codes}: {sink.getvalue()[-400:]}")
    return seconds, workloads.check(item)


def probe() -> float:
    """Seconds of one fixed pure-Python loop: the machine's speed right now.

    The loop is the benchmark's own code, so no change to techevo moves it;
    dividing an op's time by it cancels the drift in speed that a shared
    machine shows over seconds.
    """
    t0 = perf_counter()
    acc = 0.0
    for i in range(PROBE_ITERATIONS):
        acc += i * 0.5
    return perf_counter() - t0


def closed_loop(items, budget: float, tracer=None) -> tuple[list, list, list]:
    """Whole passes over the items until ``budget`` seconds have gone by.

    Returns (records, traced, probes): records and traced are lists of
    (item, seconds, Outcome); probes[i] is the median probe time of the pass
    that op i ran in.  After each op the loop probes once per
    PROBE_EVERY_S of op time, at least once.  With a tracer, every op is
    replayed right after it ran, with spans, so both runs see the same
    machine state and their difference is the tracing overhead.
    """
    records, traced, probes = [], [], []
    start = perf_counter()
    while not records or perf_counter() - start < budget:
        speed = []
        for item in items:
            records.append((item, *run_op(item)))
            speed.extend(probe() for _ in range(1 + int(records[-1][1] / PROBE_EVERY_S)))
            if tracer is not None:
                traced.append((item, *replay_op(item, tracer, records[-1][2])))
        probes.extend([statistics.median(speed)] * len(items))
    return records, traced, probes


def replay_op(item, tracer, untraced):
    """Run the op again under spans and check each traced stage against its report."""
    tracer.install()
    try:
        seconds, outcome = run_op(item, tracer)
    finally:
        tracer.uninstall()
    if outcome.ok and untraced.ok:
        reason = workloads.check_stages(item, tracer.results, untraced.digest)
        if reason:
            outcome.ok, outcome.reason = False, reason
    tracer.results.clear()  # free the op's objects outside the timed region
    return seconds, outcome


def enforce_repeatable(records) -> dict:
    """Fail any op whose digest differs from the first op on the same input."""
    first = {}
    for item, _, outcome in records:
        if not outcome.ok:
            continue
        seen = first.setdefault(item.index, outcome)
        if outcome.digest != seen.digest:
            outcome.ok = False
            outcome.reason = "report digest changed between repeats of one input"
    return first


def tail(values) -> tuple[float, float, int]:
    """Value at the highest percentile with at least 10 samples beyond it.

    With 10 or fewer samples no percentile qualifies and the maximum is given.
    Returns (value, percentile, sample count).
    """
    s = sorted(values)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n, n
    return s[-1], 100.0, n


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "techevo").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="shrink inputs and set-up for the smoke tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "techevo" / "cli.py").is_file():
        print(f"no techevo sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    end_to_end_units, per_layer_units = declared_metrics()

    wl = workloads.WORKLOADS[args.workload]
    if args.tiny:
        wl = wl.tiny()
    tag = f"{wl.name}_seed{args.seed}{'_tiny' if args.tiny else ''}"
    WORK.mkdir(exist_ok=True)
    half = 1 if args.tiny else SETUP_CHILDREN // 2
    children = setup_samples(half, warm=True)
    items = workloads.prepare(wl, args.seed, WORK)

    tracer = spans.Tracer() if args.trace else None
    records, traced, probes = closed_loop(items, args.seconds, tracer)
    children += setup_samples(half, warm=False)
    setup = {
        "setup_s": statistics.median(c[0] for c in children),
        "import_s": statistics.median(c[1] for c in children),
        "children": len(children),
        "bytecode_cached": any(PYCACHE.rglob("cli.*.pyc")),
        "parent_PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }
    first = enforce_repeatable(records)
    times = [seconds for _, seconds, _ in records]
    accuracy = workloads.accuracy(wl, first)

    layers = {}
    if tracer is not None:
        tracer.write(WORK / f"spans_{tag}.jsonl")
        per_op = tracer.per_op_layers()
        for op, (_, _, outcome) in zip(per_op, traced):
            op["logistic.k_at_bound"] = sum(outcome.at_bound)
        layers = spans.layer_means(per_op, per_layer_units)
        layers["cli.import_s"] = setup["import_s"]
        layers["trace.overhead_s"] = statistics.median(
            t - u for (_, t, _), (_, u, _) in zip(traced, records)
        )
        layers["logistic.k_relerr_p50"] = accuracy.get("k_relerr_p50", 0.0)

    all_records = records + traced
    failures = [(item.index, o.reason) for item, _, o in all_records if not o.ok]
    costs = [t / p for t, p in zip(times, probes)]
    cost_tail, tail_pct, tail_n = tail(costs)
    end_to_end = {
        "setup_s": setup["setup_s"],
        "op_cost_p50": statistics.median(costs),
        "op_cost_tail": cost_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "op_ms_p50": statistics.median(times) * 1e3,
        "op_ms_tail": tail(times)[0] * 1e3,
        "ops_per_s": len(times) / sum(times),
        "probe_ms": statistics.median(probes) * 1e3,
        "failed_share": sum(1 for _, _, o in records if not o.ok) / len(records),
        **accuracy,
    }

    record = {
        "workload": wl.name, "kind": wl.kind, "seed": args.seed, "n": wl.n,
        "sigmas": list(wl.sigmas), "pairs": wl.pool, "tiny": args.tiny,
        "seconds": args.seconds, "trace": args.trace, "ops": len(times),
        "traced_ops": len(traced),
        "tail_percentile": tail_pct, "tail_samples": tail_n,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(), "commit": commit(), "src_sha256": src_digest(),
        "setup": setup, "end_to_end": end_to_end, "extra": extra,
        "per_layer": layers,
        "untraced_targets": tracer.missing if tracer else [],
        "digest_set": hashlib.sha256("\n".join(
            f"{i}:{o.digest}" for i, o in sorted(first.items())).encode()).hexdigest(),
        "op_ms": [t * 1e3 for t in times],
        "probe_ms": [p * 1e3 for p in probes],
        "failures": failures[:20],
    }
    record_path = WORK / f"record_{tag}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# {wl.name}: seed={args.seed} n={wl.n} sigmas={list(wl.sigmas)} pairs={wl.pool} "
          f"ops={len(times)} traced_ops={len(traced)} failed={len(failures)}")
    print(f"# python {record['python']}, cpu_count {record['cpu_count']}, "
          f"commit {record['commit']}, bytecode cached {setup['bytecode_cached']}")
    for name, value in end_to_end.items():
        note = f"  (p{tail_pct:.2f} of {tail_n} ops)" if name == "op_cost_tail" else ""
        print(f"{name} = {value!r} {end_to_end_units[name]}{note}")
    for name, value in extra.items():
        print(f"{name} = {value!r} {EXTRA_UNITS[name]}")
    for name, value in layers.items():
        print(f"{name} = {value!r} {per_layer_units[name]}")
    for index, reason in failures[:5]:
        print(f"# failed op on input {index}: {reason}", file=sys.stderr)
    print(f"# run record: {record_path.relative_to(ROOT)}")

    metrics = layers if args.trace else end_to_end
    units = per_layer_units if args.trace else end_to_end_units
    print(json.dumps({
        "correct": not failures,
        "attempted": len(all_records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
