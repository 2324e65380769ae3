"""Compare two ledgers under the benchmark's own bounds.

    python benchmarks/opbudget/compare.py before.json after.json

Every end-to-end metric of every workload gets a verdict: ``ok``,
``regressed`` (the second median is worse than the first by more than
the metric's bound) or ``unresolved`` (the spread between either side's
repeats is wider than the bound, so the comparison cannot tell — unless
every repeat of the second reads better than every repeat of the first).
One workload per row.  Exits 1 if anything regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):  # run as a script
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
from benchmarks.opbudget.stats import spread  # noqa: E402

CONTRACT = ROOT / "BENCHMARK.json"
#: Bounds of the step-time percentiles, which only the ledger carries
#: (no tail is supported on every workload, as the contract demands).
STEP_MS_BOUNDS = {
    "step_ms_p50": 0.15,
    "step_ms_p90": 0.15,
    "step_ms_p95": 0.15,
    "step_ms_p99": 0.20,
    "step_ms_p995": 0.20,
}
#: The one workload whose median has a bound of its own.
STEP_MS_P50_BOUNDS = {"fanout_1w3r": 0.20}


def verdict(
    before: List[float], after: List[float], bound: float, better: str
) -> str:
    sign = 1.0 if better == "lower" else -1.0
    a = [sign * v for v in before]  # now lower is always better
    b = [sign * v for v in after]
    if max(spread(before), spread(after)) > bound:
        return "ok" if max(b) < min(a) else "unresolved"
    base = statistics.median(a)
    return (
        "regressed"
        if statistics.median(b) - base > bound * abs(base)
        else "ok"
    )


def compare(
    before: Dict[str, Any], after: Dict[str, Any], spec: Dict[str, Any]
) -> Dict[str, Dict[str, str]]:
    """``{workload: {metric: verdict}}`` over what both ledgers hold."""
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    bounds.update({name: (b, "lower") for name, b in STEP_MS_BOUNDS.items()})
    table: Dict[str, Dict[str, str]] = {}
    for workload, first in before["workloads"].items():
        second = after["workloads"].get(workload)
        if second is None:
            continue
        row = table.setdefault(workload, {})
        for section in ("end_to_end", "step_ms"):
            for name, entry in first[section].items():
                other: Optional[Dict] = second[section].get(name)
                if entry is None or other is None:
                    continue
                bound, better = bounds[name]
                if name == "step_ms_p50":
                    bound = STEP_MS_P50_BOUNDS.get(workload, bound)
                row[name] = verdict(
                    entry["repeats"], other["repeats"], bound, better
                )
        share = second["ops_failed_share"]["value"]
        row["ops_failed_share"] = "ok" if share == 0 else "regressed"
    return table


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    ledgers = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            ledgers.append(json.load(handle))
    with open(CONTRACT, encoding="utf-8") as handle:
        spec = json.load(handle)
    table = compare(ledgers[0], ledgers[1], spec)
    regressed = 0
    for workload, row in table.items():
        print(
            f"{workload:<12} "
            + "  ".join(f"{name}={result}" for name, result in row.items())
        )
        regressed += sum(1 for result in row.values() if result == "regressed")
    unresolved = sum(
        1 for row in table.values() for r in row.values() if r == "unresolved"
    )
    print(f"{regressed} regressed, {unresolved} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
