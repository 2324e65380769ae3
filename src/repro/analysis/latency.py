"""Propagation-latency statistics for simulated runs.

Optimistic replication makes local edits instantaneous; what users of a
collaborative editor actually experience from *other* users is the
propagation latency — the simulated time from an operation's generation
to its application at each remote replica.  These helpers summarise that
distribution (mean / percentiles), which the latency benchmarks sweep
across network models and offline windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.common.stats import percentile
from repro.sim.runner import SimulationResult


@dataclass(frozen=True)
class LatencyStats:
    """Summary of a latency sample (simulated seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.3f}s p50={self.p50:.3f}s "
            f"p95={self.p95:.3f}s p99={self.p99:.3f}s max={self.maximum:.3f}s"
        )


def summarise(sample: Sequence[float]) -> LatencyStats:
    if not sample:
        raise ValueError("empty latency sample")
    return LatencyStats(
        count=len(sample),
        mean=sum(sample) / len(sample),
        p50=percentile(sample, 0.50),
        p95=percentile(sample, 0.95),
        p99=percentile(sample, 0.99),
        maximum=max(sample),
    )


def propagation_stats(result: SimulationResult) -> LatencyStats:
    """Latency summary over every (operation, remote replica) pair."""
    sample: List[float] = [
        delay
        for pairs in result.propagation_latencies().values()
        for _, delay in pairs
    ]
    return summarise(sample)


def staleness_per_operation(result: SimulationResult) -> List[float]:
    """Per-operation worst-case delay: when the *last* replica saw it."""
    return [
        max(delay for _, delay in pairs)
        for pairs in result.propagation_latencies().values()
        if pairs
    ]
