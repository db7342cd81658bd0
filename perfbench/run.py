"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch_month --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run that reports the per-layer metrics (and the tracing
overhead) and writes its spans under ``perfbench/traces/``.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With ``--trace 0`` the line before it, ``{"raw": {...}}``, gives the
timings as measured, before their host-speed adjustment
(``perfbench/stats.py``, ``HostSpeed``), and the median host factor.

The run exits non-zero, after printing what differed, when an output
check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Import the program from this checkout's sources and the benchmark as a
# package (the script's own directory would shadow stdlib names).
sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("batch_month", "batch_month_parallel", "serve_long_window", "shard_page_mixed")
#: Stands in for an infinite latency (a failed operation at a percentile).
MISSED_MS = 1e9


def _run_workload(name: str, seed: int, seconds: float, tracer):
    if name in ("batch_month", "batch_month_parallel"):
        from perfbench import batch

        return batch.run(seed, seconds, tracer, parallel=name == "batch_month_parallel")
    if name == "serve_long_window":
        from perfbench import serve

        return serve.run(seed, seconds, tracer)
    from perfbench import shard

    return shard.run(seed, seconds, tracer)


def _stop_children() -> None:
    """Stop and reap every process the run started.

    Worker pools are shut down by the program itself, but the stdlib's
    shared-memory resource tracker, started on the first segment, would
    outlive the run and be left unreaped when it exits.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from perfbench.spans import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    tracer = Tracer() if args.trace else None
    out = _run_workload(args.workload, args.seed, args.seconds, tracer)
    ops = out.ops
    if not args.trace:
        out.put("ok_ops_ratio", 1.0 - ops.total_failed / ops.total_attempted,
                ops.total_attempted)
    catalog = per_layer if args.trace else end_to_end

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, (value, n, note) in sorted(out.metrics.items()):
        unit = catalog.get(name, end_to_end.get(name, ""))
        samples = "" if n is None else f"  n={n}"
        print(f"  {name:<36} {value:>16.6g} {unit:<6}{samples}  {note}".rstrip())
    print(f"  failed_ops_ratio {ops.total_failed}/{ops.total_attempted}  ({ops.describe()})")
    if tracer is not None:
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed})
        print(f"  spans written to {path.relative_to(ROOT)}")
    for error in out.errors:
        print(f"CHECK FAILED: {error}")

    if not args.trace:
        # The figures as measured, before the host-speed adjustment.
        raw = {name: value for name, (value, _n, _note) in out.metrics.items()
               if name.startswith("raw.") or name == "host.factor_p50"}
        print(json.dumps({"raw": {k: MISSED_MS if math.isinf(v) else v for k, v in raw.items()}}))
    metrics = {}
    for name, unit in catalog.items():
        # A per-layer metric of a layer this workload never runs reads 0.
        value = out.metrics.get(name, (0.0, None, ""))[0] if args.trace else out.metrics[name][0]
        metrics[name] = {"value": MISSED_MS if math.isinf(value) else value, "unit": unit}
    print(json.dumps({
        "correct": not out.errors,
        "attempted": ops.total_attempted,
        "failed": ops.total_failed,
        "metrics": metrics,
    }))
    return 1 if out.errors else 0


if __name__ == "__main__":
    sys.exit(main())
