"""The driver's entry point: one run of one workload, one JSON line.

    python3 benchmarks/opbudget/run.py --workload typing_1w --seed 7 \
        --seconds 30 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``, measured with tracing off; with ``--trace 1`` they
are the per-layer ones, from a traced run (the first third of the time
goes to an untraced run, the base of ``trace.overhead_share``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.opbudget import harness  # noqa: E402

#: The driver compares ``setup_s`` medians run against run and wants
#: several set-ups behind each value: this many more workers set up,
#: time one step and exit.  (The ledger has its repeats instead.)
SETUP_PROBES = 2


def main() -> int:
    spec = harness.contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=[w["name"] for w in spec["workloads"]],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        if args.trace:
            run = harness.trace(args.workload, args.seed, args.seconds)
            values = run["layers"]
            wanted = spec["per_layer"]
        else:
            run = harness.spawn(args.workload, args.seed, args.seconds)
            values = harness.end_to_end(run)
            values["setup_s"] = statistics.median(
                [run["setup_s"]]
                + [
                    harness.spawn(args.workload, args.seed, 0.0)["setup_s"]
                    for _ in range(SETUP_PROBES)
                ]
            )
            wanted = spec["end_to_end"]
    except harness.WorkerFailed as exc:
        print(f"opbudget: {exc}", file=sys.stderr)
        return 1
    for failure in run["gate"]:
        print(f"opbudget: gate: {failure}", file=sys.stderr)
    for target in run.get("missing", ()):
        print(f"opbudget: no such entry point: {target}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": harness.correct(run),
                "attempted": run["ops"],
                "failed": run["failed"],
                "metrics": {
                    # A metric whose entry point no longer resolves is
                    # null, never 0: it was not measured.
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
