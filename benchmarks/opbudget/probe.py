"""Known-gap reproducers: shapes the ledger cannot measure yet.

A probe is not part of the default run.  It prints ``PASS`` or ``FAIL``
with the first exception, and exits 0 or 1 to match.
"""

from __future__ import annotations

import logging

from . import worker
from .workloads import Limit, Workload


def multiwriter_gc(seed: int) -> int:
    """Two concurrent writers over the wire with GC on: 300 ops, depth 1.

    Expected to FAIL until ``NaryStateSpace.rebase_below`` also rebases
    the contexts of the operations stored on its transitions: it
    relabels node keys but leaves absolute contexts on
    ``Transition.operation``, and ``ot.transform.transform`` compares
    contexts, so the first op after a rebase that must be transformed
    against a pre-rebase sibling raises.  Single-writer runs never
    transform, which is why every wire workload here has one writer.
    """
    # The failing reader task's traceback would otherwise be logged at
    # interpreter exit, after the verdict.
    logging.getLogger("asyncio").setLevel(logging.CRITICAL)
    shape = Workload("probe_multiwriter_gc", warmup=0)
    try:
        timed = worker.run(shape, seed, Limit(steps=150), None, writers=2)
    except Exception as exc:  # the probe's job is to report whatever broke
        print(f"FAIL multiwriter-gc: {type(exc).__name__}: {exc}")
        return 1
    if timed.gate:
        print(f"FAIL multiwriter-gc: {timed.gate[0]}")
        return 1
    print(f"PASS multiwriter-gc: {timed.ops} ops from 2 writers converged")
    return 0


PROBES = {"multiwriter-gc": multiwriter_gc}
