"""Benchmark of polylogic: three seeded workloads, one closed-loop client.

    python3 bench/run.py --workload frame-search --seed 1 --seconds 35 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
checkout the script sits in; without it the script exits 2.

A run builds the workload's operations from the seed, measures set-up
(a fresh interpreter importing polylogic and loading the inputs with the
program's own loaders), then repeats the operation list in passes,
one operation after another, until the next pass would end after
``--seconds``. Passes alternate between forward and reversed order. Every
answer is checked against a reference computed without the program.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` every other pass is traced and
the object holds the per-layer metrics. A full report (every operation,
failures, spreads, input properties, and the spans of traced passes) is
written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7

# A fresh interpreter pays this before a CLI call's first answer.
SETUP_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import polylogic
from polylogic.formula import parse
from polylogic.poset import poset_from_json
from polylogic.simplicial import complex_from_json
doc = json.load(sys.stdin)
[parse(t) for t in doc["formulas"]]
[poset_from_json(d) for d in doc["frames"]]
[complex_from_json(d) for d in doc["complexes"]]
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def cpu_counters():
    """(steal, total) jiffies from /proc/stat, or None where unavailable."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def measure_setup(workload) -> list[float]:
    data = json.dumps(workload.inputs()).encode()
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC)]
    times = []
    # The first call is not timed: it fills the bytecode cache unless the
    # environment forbids writing one (PYTHONDONTWRITEBYTECODE).
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, input=data, check=True, capture_output=True)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def run_passes(workload, loaded, seconds, tracer):
    """Closed loop over the operation list. Returns per-operation records
    (pass, op id, kind, latency, failure cause or None) and pass records."""
    import ops
    from polylogic.errors import PolylogicError

    records, passes = [], []
    start = time.perf_counter()
    while True:
        n = len(passes)
        elapsed = time.perf_counter() - start
        if n and elapsed + statistics.median(p["wall_s"] for p in passes) > seconds:
            break
        order = workload.ops if n % 4 in (0, 3) else workload.ops[::-1]
        traced = tracer is not None and n % 2 == 0
        gc.collect()
        if traced:
            tracer.install()
        t_pass = time.perf_counter()
        op_s = 0.0
        ok = 0
        for op in order:
            if traced:
                tracer.where = (n, op["id"])
            cause = None
            t0 = time.perf_counter()
            try:
                got = ops.execute(op, loaded)
            except PolylogicError as e:
                cause = f"{type(e).__name__}: {e}"
            except Exception as e:  # any crash is a failed operation, and is listed
                cause = f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            if cause is None:
                try:
                    wrong = ops.check(op, got, workload)
                except Exception as e:  # an answer the checker cannot read is wrong
                    wrong = f"unreadable answer ({type(e).__name__}: {e})"
                if wrong:
                    cause = f"wrong answer: {wrong}"
            op_s += dt
            ok += cause is None
            records.append({"pass": n, "op": op["id"], "kind": op["kind"],
                            "latency_s": dt, "cause": cause})
        if traced:
            tracer.uninstall()
            tracer.where = (None, None)
        passes.append({"pass": n, "traced": traced, "reversed": order is not workload.ops,
                       "wall_s": time.perf_counter() - t_pass, "op_s": op_s, "ok": ok,
                       "ops_per_s": ok / op_s})
    return records, passes


def tail(latencies):
    """Highest percentile with at least ten successful operations beyond it:
    (value, percentile, sample count)."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0, n
    return lat[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(records, passes, setup_times):
    good = [r["latency_s"] for r in records if r["cause"] is None]
    if not good:
        raise SystemExit("no operation succeeded")
    tail_s, tail_pct, n = tail(good)
    pass_rates = [p["ops_per_s"] for p in passes]
    pass_p50 = [
        1000 * statistics.median(r["latency_s"] for r in records
                                 if r["pass"] == p["pass"] and r["cause"] is None)
        for p in passes
    ]
    metrics = {
        "ops_per_s": (statistics.median(pass_rates), "1/s", pass_rates),
        "op_p50_ms": (1000 * statistics.median(good), "ms", pass_p50),
        "op_tail_ms": (1000 * tail_s, "ms", None),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", None),
        "ok_ratio": (len(good) / len(records), "ratio", None),
        "setup_s": (statistics.median(setup_times), "s", setup_times),
    }
    detail = {"op_tail_ms": {"percentile": tail_pct, "successful_ops": n}}
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polylogic" / "__init__.py").is_file():
        print(f"error: no polylogic package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, ROOT)
    setup_times = [] if args.trace else measure_setup(workload)

    import ops
    from tracing import Tracer, combine, per_layer_metrics

    loaded = ops.prepare(workload)
    tracer = Tracer() if args.trace else None
    cpu0 = cpu_counters()
    records, passes = run_passes(workload, loaded, args.seconds, tracer)
    cpu1 = cpu_counters()
    steal = None
    if cpu0 and cpu1 and cpu1[1] > cpu0[1]:
        steal = (cpu1[0] - cpu0[0]) / (cpu1[1] - cpu0[1])

    failures = collections.Counter((r["op"], r["kind"], r["cause"]) for r in records if r["cause"])
    wrong = [f for f in failures if f[2].startswith("wrong answer")]

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops_per_pass": len(workload.ops),
        "properties": workload.properties, "steal_share": steal, "passes": passes,
        "failures": [{"op": op, "kind": kind, "cause": cause, "count": c}
                     for (op, kind, cause), c in failures.items()],
        "operations": records,
    }
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} "
          f"x {len(workload.ops)} ops  steal {steal if steal is None else round(steal, 4)}")
    for (op, kind, cause), c in failures.items():
        print(f"  FAILED {op} ({kind}) x{c}: {cause}")

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        untraced = [p for p in passes if not p["traced"]]
        layer = combine([tracer.pass_metrics(p["pass"], p["op_s"]) for p in traced])
        plain = untraced or traced
        layer["trace.overhead_share"] = 1 - (
            statistics.median(p["ops_per_s"] for p in traced)
            / statistics.median(p["ops_per_s"] for p in plain))
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
        for k, v in metrics.items():
            print(f"  {k:45s} {v['value']:.6g} {v['unit']}")
        report["per_layer"] = metrics
        report["spans_fields"] = ["group", "start", "end", "parent", "pass", "op", "counts", "child_s"]
        report["spans"] = tracer.spans
    else:
        e2e, detail = end_to_end(records, passes, setup_times)
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}
        report["end_to_end"] = metrics
        report["spread"] = {k: quartiles(s) for k, (_, _, s) in e2e.items() if s}
        report["detail"] = detail
        for k, (v, u, s) in e2e.items():
            spread = ""
            if s:
                q1, q3 = quartiles(s)
                spread = f"  (quartiles {q1:.4g}..{q3:.4g} over {len(s)})"
            print(f"  {k:12s} {v:.6g} {u}{spread}")
        print(f"  op_tail_ms is the {detail['op_tail_ms']['percentile']:.2f}th percentile "
              f"of {detail['op_tail_ms']['successful_ops']} successful ops")

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report))

    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": sum(failures.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
