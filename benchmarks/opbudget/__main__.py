"""The ledger: every workload, every metric, one provenance-stamped JSON.

    PYTHONPATH=src python -m benchmarks.opbudget

runs each workload ``--repeats`` times with tracing off (each repeat in
a fresh process, measuring for ``run_seconds`` of ``BENCHMARK.json`` as
the driver's runs do), checks every run, prints every end-to-end metric
by name with its unit and sample count, then makes one traced run per
workload for the per-layer table and writes it all to ``--out``.  Exits
non-zero if any correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

from . import harness, probe
from .workloads import TAIL_FRACTIONS, WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(HERE, "results", "BENCH_op_budget.json")


def _git_head() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.ROOT, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _over_repeats(values: List[float], unit: str, **extra: Any) -> Dict:
    return {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "unit": unit,
        "repeats": values,
        **extra,
    }


def measure_workload(
    workload: Workload, args: argparse.Namespace, units: Dict[str, str]
) -> Dict[str, Any]:
    """The untraced repeats of one workload, folded into medians."""
    runs = [
        harness.spawn(workload.name, args.seed, args.seconds)
        for _ in range(args.repeats)
    ]
    per_run = [harness.end_to_end(run) for run in runs]
    steps = runs[0]["steps"]
    end_to_end = {
        name: _over_repeats([values[name] for values in per_run], units[name])
        for name in per_run[0]
    }
    step_ms: Dict[str, Optional[Dict]] = {}
    for name in ("p50",) + workload.tails:
        reported = [run["step_ms"][name] for run in runs]
        step_ms[f"step_ms_{name}"] = (
            _over_repeats(
                [r["value"] for r in reported], "ms",
                samples=steps, beyond=reported[0]["beyond"],
            )
            if all(reported)
            else None  # refused: under ten samples beyond it
        )
    attempted = sum(run["ops"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    return {
        "end_to_end": end_to_end,
        "step_ms": step_ms,
        "ops_failed_share": {
            "value": failed / attempted, "unit": "ratio",
            "failed": failed, "attempted": attempted,
        },
        "gate": [failure for run in runs for failure in run["gate"]],
        "signature": runs[0]["signature"],
        # Of the first repeat: a run is sized by time, so they differ.
        "size": {"ops": runs[0]["ops"], "steps": steps},
    }


def print_end_to_end(workload: Workload, entry: Dict[str, Any]) -> None:
    """Every end-to-end metric by name, with unit and sample count."""
    steps = entry["size"]["steps"]
    repeats = len(entry["end_to_end"]["ops_per_s"]["repeats"])
    print(
        f"\n{workload.name}: {repeats} repeats of about "
        f"{entry['size']['ops']} timed ops in {steps} steps"
    )
    for name, metric in entry["end_to_end"].items():
        print(
            f"  {name:<18}{metric['value']:>12.4f} {metric['unit']:<6}"
            f" min {metric['min']:.4f} max {metric['max']:.4f}"
        )
    for tail in ("p50", *TAIL_FRACTIONS):
        name = f"step_ms_{tail}"
        metric = entry["step_ms"].get(name)
        if name not in entry["step_ms"]:
            note = "-  not reported on this workload (see README)"
        elif metric is None:
            note = f"-  refused: under 10 of {steps} samples beyond it"
        else:
            note = (
                f"{metric['value']:>12.4f} ms     min {metric['min']:.4f} "
                f"max {metric['max']:.4f}  ({steps} samples, "
                f"{metric['beyond']} beyond)"
            )
        print(f"  {name:<18}{note}")
    share = entry["ops_failed_share"]
    print(
        f"  {'ops_failed_share':<18}{share['value']:>12.4f} ratio "
        f" ({share['failed']} of {share['attempted']} ops)"
    )
    for failure in entry["gate"]:
        print(f"  GATE FAILED: {failure}")


def trace_workload(
    workload: Workload,
    args: argparse.Namespace,
    units: Dict[str, str],
    entry: Dict[str, Any],
) -> None:
    """Add the per-layer table of one traced run to ``entry``; print it."""
    trace_out = None
    if args.out and not args.smoke:
        trace_out = os.path.join(
            os.path.dirname(os.path.abspath(args.out)),
            f"trace_{workload.name}.jsonl.gz",
        )
    traced = harness.trace(
        workload.name, args.seed, args.seconds,
        reference_ops_per_s=entry["end_to_end"]["ops_per_s"]["value"],
        trace_out=trace_out,
    )
    print(f"  per layer (one traced run, {traced['ops']} ops):")
    per_layer = {}
    for name, unit in units.items():  # the contract's order
        if name not in traced["layers"]:
            continue  # an end-to-end name
        value = traced["layers"][name]
        per_layer[name] = {"value": value, "unit": unit}
        shown = "unset" if value is None else f"{value:.4f}"
        print(f"    {name:<48}{shown:>14} {unit}")
    entry["per_layer"] = per_layer
    entry["gate"] += traced["gate"]
    entry["exact"] = traced["exact"]
    entry["missing"] = traced["missing"]


def run_workload(
    workload: Workload, args: argparse.Namespace, units: Dict[str, str]
) -> Dict[str, Any]:
    entry = measure_workload(workload, args, units)
    print_end_to_end(workload, entry)
    trace_workload(workload, args, units, entry)
    return entry


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.opbudget", description=__doc__
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, one repeat: checks the harness, not the program",
    )
    parser.add_argument("--out", default=None, help="ledger JSON path")
    parser.add_argument(
        "--probe", choices=sorted(probe.PROBES),
        help="run a known-gap reproducer instead of the ledger",
    )
    args = parser.parse_args(argv)
    if args.probe:
        return probe.PROBES[args.probe](args.seed)
    spec = harness.contract()
    if args.smoke:
        args.repeats = 1
        args.seconds = None  # workers run their fixed smoke sizes
    else:
        args.seconds = float(spec["run_seconds"])
        if args.out is None:
            args.out = DEFAULT_OUT

    if args.out:
        # Traced workers drop their span dumps next to the ledger.
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    units = {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }
    ledger = {
        "provenance": {
            "git_head": _git_head(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "repeats": args.repeats,
            "smoke": args.smoke,
            "run_seconds": args.seconds,
        },
        "workloads": {
            w["name"]: run_workload(WORKLOADS[w["name"]], args, units)
            for w in spec["workloads"]
        },
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle, indent=2)
            handle.write("\n")
        print(f"\nledger written: {args.out}")
    failures = sum(len(w["gate"]) for w in ledger["workloads"].values())
    if failures:
        print(f"{failures} correctness gate failures", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
