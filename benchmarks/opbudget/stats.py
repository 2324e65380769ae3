"""Percentiles that know their sample count, and the run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

from repro.analysis.latency import percentile

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample count does not support the requested percentile."""


def beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie above the ``fraction`` quantile."""
    return int(math.floor(count * (1.0 - fraction) + 1e-9))


def tail(samples: Sequence[float], fraction: float) -> float:
    """A tail percentile, refused when fewer than ten samples exceed it."""
    have = beyond(len(samples), fraction)
    if have < MIN_BEYOND:
        raise TooFewSamples(
            f"p{fraction * 100:g} of {len(samples)} samples has {have} "
            f"beyond it; {MIN_BEYOND} are needed"
        )
    return percentile(samples, fraction)


def summarize(samples: Sequence[float], tails: Dict[str, float]) -> Dict:
    """Median plus each named tail (``None`` where refused), with counts."""
    out: Dict[str, Optional[Dict]] = {
        "p50": {
            "value": statistics.median(samples),
            "samples": len(samples),
            "beyond": beyond(len(samples), 0.5),
        }
    }
    for name, fraction in tails.items():
        try:
            out[name] = {
                "value": tail(samples, fraction),
                "samples": len(samples),
                "beyond": beyond(len(samples), fraction),
            }
        except TooFewSamples:
            out[name] = None
    return out


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0
