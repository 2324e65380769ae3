"""Parent side of a run: spawn a worker, read its record.

A *run* of a workload is one fresh worker process that sets up, warms
up, measures and checks itself.  Workers run one after another, never
side by side: the machine has two cores and a second busy process would
share caches with the one being timed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

ROOT = Path(__file__).resolve().parents[2]
#: No single worker may outlive this; the driver allows a run 180 s.
WORKER_TIMEOUT = 150.0


class WorkerFailed(RuntimeError):
    """A worker exited non-zero or printed no record."""


def contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def spawn(
    name: str,
    seed: int,
    seconds: Optional[float],
    *,
    trace: bool = False,
    trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one worker to completion and return its record.

    The worker measures for ``seconds``; ``None`` asks for the fixed
    smoke sizes of the harness self-test instead.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    command = [
        sys.executable, "-m", "benchmarks.opbudget.worker",
        "--workload", name,
        "--seed", str(seed),
        "--trace", "1" if trace else "0",
    ]
    if seconds is None:
        command.append("--smoke")
    else:
        command += ["--seconds", repr(float(seconds))]
    if trace_out:
        command += ["--trace-out", trace_out]
    command += ["--started-at", repr(time.monotonic())]
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerFailed(
            f"{name} worker exited {done.returncode} "
            f"with {len(lines)} lines of output"
        )
    return json.loads(lines[-1])


def trace(
    name: str,
    seed: int,
    seconds: Optional[float],
    *,
    reference_ops_per_s: Optional[float] = None,
    trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """One traced run: the per-layer numbers, never the end-to-end ones.

    Tracing overhead is the untraced throughput over the traced one.
    The ledger passes the median of its untraced repeats as the
    reference; without one (the driver's ``--trace 1`` run) the first
    third of ``seconds`` goes to an untraced run.
    """
    if reference_ops_per_s is None:
        reference_s = seconds / 3.0
        seconds -= reference_s
        reference_ops_per_s = spawn(name, seed, reference_s)["ops_per_s"]
    run = spawn(name, seed, seconds, trace=True, trace_out=trace_out)
    run["layers"]["trace.overhead_share"] = (
        reference_ops_per_s / run["ops_per_s"] - 1.0
    )
    return run


def end_to_end(run: Dict[str, Any]) -> Dict[str, float]:
    """The contract's end-to-end metrics of one untraced run."""
    return {"setup_s": run["setup_s"], "ops_per_s": run["ops_per_s"]}


def correct(run: Dict[str, Any]) -> bool:
    return not run["gate"] and run["failed"] == 0
