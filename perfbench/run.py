#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the repro CLI and service.

    python3 perfbench/run.py --workload figure2-cold --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a checkout (the sources are read from ``src/``).
``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics.  Human-readable lines come first; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import breakdown  # noqa: E402
import workloads  # noqa: E402
from workloads import BenchError, OpResult, percentile  # noqa: E402

E2E_UNITS = (
    ("op_p50_s", "s"), ("op_tail_s", "s"), ("ops_per_s", "1/s"),
    ("runs_per_s", "1/s"), ("ok_ratio", "ratio"), ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def run_measured(workload, seconds: float
                 ) -> "Tuple[Dict[str, float], List[OpResult], List[str]]":
    setup = workload.setup()
    measurement = workload.measure(seconds)
    ok = [op for op in measurement.ops if op.ok]
    walls = [op.wall for op in ok]
    q = workloads.tail_quantile(len(walls))
    op_seconds = sum(walls)
    metrics = {
        "op_p50_s": percentile(walls, 0.5),
        "op_tail_s": percentile(walls, q),
        "ops_per_s": len(ok) / measurement.elapsed,
        "runs_per_s": (sum(op.runs for op in ok) / op_seconds
                       if op_seconds else 0.0),
        "ok_ratio": len(ok) / len(measurement.ops),
        "peak_rss_mb": measurement.rss_mb,
        "setup_s": percentile(setup, 0.5),
    }
    notes = [f"  ops timed {len(measurement.ops)} (ok {len(ok)}), "
             f"op_tail_s is p{round(q * 100)}, "
             f"setup repeats {len(setup)}: "
             + " ".join(f"{wall:.3f}" for wall in setup)]
    fill = getattr(workload, "fill_s", None)
    if fill:
        notes.append(f"  store fill (direct serial runs of the mix) "
                     f"{fill:.3f} s")
    return metrics, measurement.ops + measurement.untimed, notes


def run_traced(workload, seconds: float
               ) -> "Tuple[Dict[str, float], List[OpResult], List[str]]":
    workload.setup()
    traced = workload.trace(seconds)
    import_s, bare_s = workload.ctx.import_times()
    metrics = breakdown.layer_metrics(traced.breakdowns,
                                      traced.worker_breakdowns)
    untraced = percentile([op.wall for op in traced.baseline if op.ok], 0.5)
    metrics["cli.import_s"] = import_s - bare_s
    metrics["interp.start_s"] = bare_s
    metrics["trace.untraced_op_p50_s"] = untraced
    metrics["trace.overhead_s"] = metrics["trace.op_wall_s"] - untraced
    notes = breakdown.render("traced ops", traced.breakdowns)
    if traced.worker_breakdowns:
        notes += breakdown.render("traced serial op (worker-side layers)",
                                  traced.worker_breakdowns)
    notes.append(f"  untraced baseline: {len(traced.baseline)} op(s), "
                 f"p50 {untraced:.4f} s; tracing overhead "
                 f"{metrics['trace.overhead_s']:.4f} s per op")
    return metrics, traced.baseline + traced.ops, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="passed to repro's --seed; also orders the "
                             "service mix")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (workloads.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {workloads.SRC}",
              file=sys.stderr)
        return 2
    scratch = workloads.ROOT / ".bench_work"
    work = scratch / f"{args.workload}-{os.getpid()}"
    ctx = workloads.Context(args.seed, work)
    workload = workloads.make(args.workload, ctx)
    try:
        if args.trace:
            metrics, ops, notes = run_traced(workload, args.seconds)
            units = breakdown.per_layer_units()
        else:
            metrics, ops, notes = run_measured(workload, args.seconds)
            units = E2E_UNITS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    failures = [op.error for op in ops if not op.ok]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"inflight={workloads.INFLIGHT} nproc={os.cpu_count()} "
          f"python={platform.python_version()}")
    for name, unit in units:
        print(f"  {name:<28} {metrics[name]:14.6f} {unit}")
    for line in notes:
        print(line)
    for error in failures[:5]:
        print(f"  FAILED: {error}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
