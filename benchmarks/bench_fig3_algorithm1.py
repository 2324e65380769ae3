"""E3 — Figure 3 / Algorithm 1: OTs along the leftmost transitions.

Measures one Algorithm-1 integration against state-spaces with growing
leftmost paths: the cost is linear in the number of operations the new
operation is concurrent with.  The artifact also prices one CP1 square —
what it leaves allocated and what its hot calls cost — and the cyclic
collector's share of a ``sim_4w``-shaped simulator session under three
collector settings (plus the one the simulator ships), each in a fresh
process so its peak RSS is its own.
"""

import gc
import json
import os
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

import pytest

import repro
from repro.common import OpId
from repro.jupiter.nary import NaryStateSpace
from repro.jupiter.ordering import ServerOrderOracle
from repro.jupiter.state_space import Transition
from repro.ot import insert, transform

from benchmarks.conftest import print_banner, write_json

ROOT = Path(__file__).resolve().parents[1]

#: How a ``sim_4w``-shaped session is run under each collector setting.
#: ``shipped`` leaves ``SimulationRunner.run``'s own policy in force;
#: the others replace it with a no-op scope and set the collector first.
#: ``settle_ms`` is one gen-0 collection right after the session: what
#: the next allocation pays for the young objects the session left (all
#: of its survivors, once the collector was paused).
COLLECTOR_PROBE = r"""
import contextlib, gc, json, resource, sys, time
import repro.sim.runner as runner
from benchmarks.opbudget.workloads import _session

setting = sys.argv[1]
if setting != "shipped":
    runner._collector_scope = lambda pause: contextlib.nullcontext()
if setting == "gen0_20000":
    gc.set_threshold(20_000, *gc.get_threshold()[1:])
elif setting == "paused":
    gc.disable()
pauses, started = [], [0.0]

def observe(phase, info):
    if phase == "start":
        started[0] = time.perf_counter()
    else:
        pauses.append((started[0], time.perf_counter(), info["generation"]))

gc.callbacks.append(observe)
began = time.perf_counter()
result = _session(8, 400)
ended = time.perf_counter()
gc.collect(0)
settled = time.perf_counter()
gc.callbacks.remove(observe)
inside = [p for p in pauses if p[0] < ended]
wall = ended - began
converged = result.converged
del result
print(json.dumps({
    "converged": converged,
    "wall_s": round(wall, 4),
    "pause_share": round(sum(e - s for s, e, _ in inside) / wall, 4),
    "collections": [sum(g == n for *_, g in inside) for n in range(3)],
    "settle_ms": round((settled - ended) * 1e3, 2),
    "peak_rss_mb": round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
    ),
    "unreachable_after_drop": gc.collect(),
}))
"""

COLLECTOR_SETTINGS = ("default", "gen0_20000", "paused", "shipped")


def _space_with_path(length: int):
    """A server space whose leftmost path from σ0 has ``length`` ops."""
    oracle = ServerOrderOracle()
    space = NaryStateSpace(oracle)
    for i in range(length):
        op = insert(OpId(f"c{i % 3 + 1}", i + 1), "x", 0)
        oracle.assign(op.opid)
        # Chain the contexts so each op extends the path.
        op = op.with_context(frozenset(space.final_key))
        space.integrate(op)
    straggler = insert(OpId("c9", 1), "z", 0)  # context σ0: max-length path
    oracle.assign(straggler.opid)
    return space, straggler


def _concurrent(k: int):
    """A space holding ``k`` concurrent ops, and one more concurrent with
    all of them: integrating it closes ``k`` squares (the count test of
    ``tests/jupiter/test_nary.py``)."""
    oracle = ServerOrderOracle()
    space = NaryStateSpace(oracle)
    ops = [insert(OpId(f"c{i + 1}", 1), "x", 0) for i in range(k + 1)]
    for op in ops:
        oracle.assign(op.opid)
    for op in ops[:-1]:
        space.integrate(op)
    return space, ops[-1]


def _with_collector_timed(action):
    """Run ``action()``; return its wall seconds and the collector's."""
    paused, started = [0.0], [0.0]

    def observe(phase, _info):
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            paused[0] += time.perf_counter() - started[0]

    gc.callbacks.append(observe)
    try:
        began = time.perf_counter()
        action()
        return time.perf_counter() - began, paused[0]
    finally:
        gc.callbacks.remove(observe)


def square_allocations(k: int):
    """What integrating an op concurrent with ``k`` others leaves
    allocated: ``sys.getallocatedblocks``, ``gc.get_count()[0]`` and
    GC-tracked objects, as deltas over the ``k`` squares."""
    space, late = _concurrent(k)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        blocks = sys.getallocatedblocks()
        young = gc.get_count()[0]
        tracked = len(gc.get_objects())
        space.integrate(late)
        return {
            "k": k,
            "blocks": sys.getallocatedblocks() - blocks,
            "gen0_count": gc.get_count()[0] - young,
            "tracked_objects": len(gc.get_objects()) - tracked,
        }
    finally:
        if enabled:
            gc.enable()


def square_calls():
    """Nanoseconds of the calls a square makes — an edge, a transform
    onto a handed-over key, a new corner — and microseconds per square
    of a k = 8 integration, all with the collector paused."""
    space = NaryStateSpace(ServerOrderOracle())
    root = space.final_node
    op = insert(OpId("t", 1), "x", 0, root.key)
    other = insert(OpId("t", 2), "y", 1, root.key)
    context = root.key.extend(other.opid)
    corners = iter(
        [insert(OpId("n", i), "x", 0, root.key) for i in range(25_000)]
    )

    def ns(statement, number):
        return round(
            min(timeit.repeat(statement, number=number, repeat=5))
            / number * 1e9
        )

    def square_us():
        grown, straggler = _concurrent(8)
        began = time.perf_counter()
        grown.integrate(straggler)
        return (time.perf_counter() - began) / 8 * 1e6

    enabled = gc.isenabled()
    gc.disable()
    try:
        return {
            "transition_ns": ns(
                lambda: Transition(root.key, context, op), 20_000
            ),
            "transform_onto_handed_key_ns": ns(
                lambda: transform(op, other, context), 20_000
            ),
            "attach_new_corner_ns": ns(
                lambda: space._attach(root, next(corners)), 5_000
            ),
            "k8_square_us": round(
                statistics.median(square_us() for _ in range(300)), 2
            ),
        }
    finally:
        if enabled:
            gc.enable()


def collector_runs():
    """One ``sim_4w``-shaped session (4 clients, 400 ops, seed 8) per
    collector setting, each in a fresh interpreter running the ``repro``
    this process imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1]), str(ROOT)]
    )
    runs = {}
    for setting in COLLECTOR_SETTINGS:
        done = subprocess.run(
            [sys.executable, "-c", COLLECTOR_PROBE, setting],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        )
        runs[setting] = json.loads(done.stdout.strip().splitlines()[-1])
    return runs


def square_cost():
    """The ``square_cost`` block of the artifact."""
    allocations = [square_allocations(k) for k in range(1, 9)]
    first, last = allocations[0], allocations[-1]
    marginal = {
        name: round((last[name] - first[name]) / (last["k"] - first["k"]), 2)
        for name in ("blocks", "gen0_count", "tracked_objects")
    }
    return {
        "allocations": allocations,
        "marginal_square": marginal,
        "calls": square_calls(),
        "collector": collector_runs(),
    }


def test_fig3_artifact(benchmark):
    def regenerate():
        space, straggler = _space_with_path(3)
        executed = space.integrate(straggler)
        return space, executed

    space, executed = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    print_banner("Figure 3 / Algorithm 1: iterative OT along leftmost path")
    print(f"Executed form after 3 transformations: {executed.pretty()}")
    print(f"OT count: {space.ot_count} (3 for the straggler)")
    assert len(executed.context) == 3

    # Machine-readable scaling curve: one straggler integration against
    # growing leftmost paths.  Near-linear growth is the tentpole claim;
    # each point is one sample, with the collector's share of it beside.
    curve = []
    for path_length in (16, 64, 256, 1024):
        grown, late = _space_with_path(path_length)
        elapsed, paused = _with_collector_timed(lambda: grown.integrate(late))
        curve.append(
            {
                "path_length": path_length,
                "integrate_seconds": round(elapsed, 6),
                "gc_pause_share": round(paused / elapsed, 3),
                "us_per_square_without_pauses": round(
                    (elapsed - paused) / path_length * 1e6, 2
                ),
                "ot_count": path_length,
            }
        )
    cost = square_cost()
    print(f"{'path':>6} {'us/square':>10} {'gc share':>9}")
    for point in curve:
        print(
            f"{point['path_length']:>6} "
            f"{point['integrate_seconds'] / point['path_length'] * 1e6:>10.1f}"
            f" {point['gc_pause_share']:>9.1%}"
        )
    print(f"marginal square: {cost['marginal_square']}")
    print(f"hot calls: {cost['calls']}")
    for setting, run in cost["collector"].items():
        print(f"sim_4w session, collector {setting}: {run}")
    assert all(run["converged"] for run in cost["collector"].values())
    write_json(
        "fig3_algorithm1",
        {
            "executed": executed.pretty(),
            "ot_count": space.ot_count,
            "straggler_integration": curve,
            "square_cost": cost,
        },
        seed=None,  # the straggler construction is deterministic
        config={
            "path_lengths": [16, 64, 256, 1024],
            "square_k": list(range(1, 9)),
            "session": "sim_4w-shaped: 4 clients, 400 ops, seed 8",
            "collector_settings": list(COLLECTOR_SETTINGS),
        },
    )


@pytest.mark.parametrize("path_length", [1, 4, 16, 64])
def test_algorithm1_integration(benchmark, path_length):
    """Integration cost grows linearly with the leftmost-path length."""

    def run():
        space, straggler = _space_with_path(path_length)
        return space.integrate(straggler)

    executed = benchmark(run)
    assert len(executed.context) == path_length
