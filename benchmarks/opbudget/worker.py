"""One run of one workload, in a process of its own.

The parent (``harness.py``) starts this module fresh for every run:
allocator and cyclic-GC state leak from one run into the next inside an
interpreter (a second simulator run in the same process measured 2.2x
slower), and a fresh process is also what makes ``setup_s`` — process
start to end of warm-up — a real number.  The last line of standard
output is the run's record as one JSON object.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import shutil
import sys
import tempfile
from typing import Any, Dict, List, Optional

from . import layers
from .spans import Tracer
from .stats import summarize
from .workloads import (
    TAIL_FRACTIONS,
    WORKLOADS,
    Limit,
    Timed,
    Workload,
    run_sim,
    run_wire,
)

#: Scratch space for on-disk WALs, inside the checkout and git-ignored.
WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")


def run(
    workload: Workload,
    seed: int,
    limit: Limit,
    tracer: Optional[Tracer],
    writers: int = 1,
) -> Timed:
    if not workload.wire:
        return run_sim(workload, seed, limit, tracer)
    os.makedirs(WORK_DIR, exist_ok=True)
    wal_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    try:
        return asyncio.run(
            run_wire(workload, seed, limit, wal_dir, tracer, writers)
        )
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


def record(
    workload: Workload,
    seed: int,
    started_at: float,
    timed: Timed,
    tracer: Optional[Tracer],
    counts: Optional[layers.Counts],
) -> Dict[str, Any]:
    """The run's record: end-to-end numbers, gate verdict, layer budget."""
    out: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "traced": tracer is not None,
        "setup_s": timed.ready_at - started_at,
        "ops": timed.ops,
        "steps": len(timed.step_ms),
        "wall_s": timed.wall_s,
        "ops_per_s": timed.ops / timed.wall_s,
        "step_ms": summarize(timed.step_ms, TAIL_FRACTIONS),
        "failed": timed.failed,
        "gate": timed.gate,
        "signature": timed.signature,
        "exact": timed.exact,
    }
    if tracer is None:
        return out
    per_layer = layers.metrics(
        tracer, counts, ops=timed.ops, cpu_s=timed.cpu_s, sampled=timed.sampled
    )
    per_layer["proc.cpu_s"] = timed.cpu_s
    per_layer["proc.peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    per_layer["proc.gc_gen2_collections"] = float(timed.gen2_collections)
    per_layer["harness.self_share"] = timed.harness_s / timed.wall_s
    out["layers"] = per_layer
    out["missing"] = tracer.missing
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.opbudget.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    size = parser.add_mutually_exclusive_group(required=True)
    size.add_argument("--seconds", type=float, help="measure for this long")
    size.add_argument(
        "--smoke", action="store_true",
        help="self-test size: a fixed, small number of steps",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument(
        "--started-at", type=float, required=True,
        help="time.monotonic() of the parent just before it spawned us",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke_shape()
        limit = Limit(steps=workload.smoke_steps)
    else:
        limit = Limit(seconds=args.seconds)
    tracer = counts = None
    if args.trace:
        # Before any runtime object exists: wrappers sit on the classes.
        tracer = Tracer()
        counts = layers.install(tracer)
    timed = run(workload, args.seed, limit, tracer)
    out = record(workload, args.seed, args.started_at, timed, tracer, counts)
    if tracer is not None and args.trace_out:
        tracer.write(
            args.trace_out,
            {"workload": workload.name, "seed": args.seed, "ops": timed.ops},
        )
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
