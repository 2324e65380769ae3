"""Sample statistics shared by the simulator's and the wire's reports."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(sample: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    if not sample:
        raise ValueError("empty sample")
    ordered = sorted(sample)
    rank = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[rank]


def percentile_or_zero(sample: Sequence[float], fraction: float) -> float:
    """:func:`percentile` for a report line: no samples reads ``0.0``
    (a run that measured nothing still prints its verdict)."""
    return percentile(sample, fraction) if sample else 0.0
