"""The four workloads: what each runs, and the loop that times it.

Every run is one OS process and one asyncio event loop.  The wire
workloads put a real ``NetServer`` and real ``NetClient``\\ s, built as
``repro serve`` / ``repro connect`` build them (obs on, GC on, batching
on, binary codec, default heartbeat), on loopback TCP in that one
process, so ``ops_per_s`` is client and server work combined on one
core.  They are **closed loops**: a *step* generates ``depth``
operations and then waits until every replica has converged; the step
time is the latency a user sees.

The op stream is the ``_spec`` rule of ``bench_history_scaling.py``
(200-character initial document; insert or delete with equal odds while
the document is at most 200 long, otherwise delete) drawn from
``random.Random(seed)``: the program only ever sees the generated
``OpSpec``\\ s.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.model.schedule import OpSpec
from repro.net.client import NetClient
from repro.net.codec import document_signature
from repro.net.server import NetServer
from repro.sim import SimulationRunner, UniformLatency, WorkloadConfig

from .spans import Tracer

INITIAL_TEXT = "x" * 200
#: Raw spans are kept for this many timed ops; aggregates for all.
RAW_SPAN_OPS = 2000
#: A step that has not converged by then has failed.
STEP_TIMEOUT = 120.0
#: Length of the simulator's warm-up sessions.
SIM_WARMUP_OPS = 100


@dataclass(frozen=True)
class Workload:
    """One shape of traffic.

    A run warms up for ``warmup`` steps and then measures for a time
    (``run_seconds`` of ``BENCHMARK.json``); ``depth`` is the ops one
    step generates — the burst length on the wire, the session length on
    the simulator.  The harness self-test instead measures
    ``smoke_steps`` steps of the shape ``smoke`` overrides.
    """

    name: str
    warmup: int
    depth: int = 1
    readers: int = 0
    wal_on_disk: bool = False
    #: the percentiles above the median the workload is about and a
    #: run's step count supports (ten samples beyond)
    tails: Tuple[str, ...] = ()
    smoke_steps: int = 0
    smoke: Dict[str, int] = field(default_factory=dict)

    @property
    def wire(self) -> bool:
        return self.name != "sim_4w"

    def smoke_shape(self) -> "Workload":
        return replace(self, **self.smoke)


WORKLOADS = {
    w.name: w
    for w in (
        # Interactive typing against a fleet-worker deployment: per-op
        # fixed costs dominate; compaction (every 64 ops) is the tail.
        Workload(
            "typing_1w", warmup=500, wal_on_disk=True,
            tails=("p95", "p995"), smoke_steps=300, smoke={"warmup": 50},
        ),
        # Paste: depth == snapshot_every, so each burst holds exactly
        # one compaction and contexts carry up to 63 pending extras.
        Workload(
            "burst_1w64", warmup=10, depth=64, tails=("p90",),
            smoke_steps=4, smoke={"warmup": 1},
        ),
        # Fan-out to idle readers, whose GC pins only move on the 5 s
        # heartbeat: the retained window and inline compaction grow.
        Workload(
            "fanout_1w3r", warmup=100, readers=3,
            tails=("p95", "p99"), smoke_steps=200, smoke={"warmup": 10},
        ),
        # Concurrent writers on the simulator: the only workload where
        # Algorithm 1 transforms.  A step is one 400-op session; the
        # warm-up is one short session.
        Workload(
            "sim_4w", warmup=1, depth=400,
            smoke_steps=3, smoke={"depth": 100},
        ),
    )
}

TAIL_FRACTIONS = {"p90": 0.90, "p95": 0.95, "p99": 0.99, "p995": 0.995}


class OpStream:
    """The seeded edit stream every wire workload draws from."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def next(self, document_length: int) -> OpSpec:
        rng = self._rng
        if document_length <= 200 and (
            document_length == 0 or rng.random() < 0.5
        ):
            return OpSpec("ins", rng.randint(0, document_length), "x")
        return OpSpec("del", rng.randint(0, document_length - 1))


@dataclass
class Limit:
    """Stop after ``steps`` timed steps or ``seconds``, whichever is set.

    A run times at least one step, so ``Limit(seconds=0)`` is a worker
    that sets up and does little else: a ``setup_s`` sample.
    """

    steps: Optional[int] = None
    seconds: Optional[float] = None

    def reached(self, done: int, started: float) -> bool:
        if self.steps is not None and done >= self.steps:
            return True
        return (
            self.seconds is not None
            and time.perf_counter() - started >= self.seconds
        )


@dataclass
class Timed:
    """What the timed phase of one run produced."""

    ready_at: float = 0.0  # monotonic clock when warm-up ended
    step_ms: List[float] = field(default_factory=list)
    ops: int = 0
    cpu_s: float = 0.0
    harness_s: float = 0.0
    gen2_collections: int = 0
    #: ops the gate could not confirm on every replica
    failed: int = 0
    gate: List[str] = field(default_factory=list)
    signature: str = ""
    #: counts that repeat bit for bit for a fixed seed and step count
    exact: Dict[str, int] = field(default_factory=dict)
    #: values read off public attributes, for the per-layer metrics
    sampled: Dict[str, float] = field(default_factory=lambda: dict(NOT_SAMPLED))

    @property
    def wall_s(self) -> float:
        """Timed wall: the sum of the step times."""
        return sum(self.step_ms) / 1e3


#: What ``Timed.sampled`` reads when a workload has no such thing.
NOT_SAMPLED = dict.fromkeys(
    (
        "window_max", "nodes_max", "entries_max", "server_ots", "gc_runs",
        "frames_sent", "evictions", "duplicates",
    ),
    0.0,
)


def _gen2() -> int:
    return gc.get_stats()[2]["collections"]


# ----------------------------------------------------------------------
# Wire workloads
# ----------------------------------------------------------------------
async def run_wire(
    workload: Workload,
    seed: int,
    limit: Limit,
    wal_dir: Optional[str],
    tracer: Optional[Tracer],
    writers: int = 1,
) -> Timed:
    """Set up, warm up, run the closed loop, check the result."""
    obs.enable(reset=True)
    server = NetServer(
        "127.0.0.1", 0, initial_text=INITIAL_TEXT,
        wal_dir=wal_dir if workload.wal_on_disk else None,
    )
    await server.start()
    names = [f"w{i + 1}" for i in range(writers)] + [
        f"r{i + 1}" for i in range(workload.readers)
    ]
    clients = [NetClient(name, "127.0.0.1", server.port) for name in names]
    try:
        for client in clients:
            await client.connect()
        return await _closed_loop(
            workload, server, clients, clients[:writers],
            OpStream(seed), limit, tracer,
        )
    finally:
        for client in clients:
            await client.close()
        await server.stop()


async def _closed_loop(
    workload: Workload,
    server: NetServer,
    clients: List[NetClient],
    writers: List[NetClient],
    stream: OpStream,
    limit: Limit,
    tracer: Optional[Tracer],
) -> Timed:
    now = time.perf_counter
    depth = workload.depth
    total = 0  # ops generated so far, warm-up included
    harness = 0.0

    async def step() -> bool:
        nonlocal total, harness
        for _ in range(depth):
            for writer in writers:
                drawn = now()
                spec = stream.next(len(writer.css.document))
                harness += now() - drawn
                await writer.generate(spec)
        total += depth * len(writers)
        for client in clients:
            if not await client.wait_converged(total, timeout=STEP_TIMEOUT):
                return False
        return True

    for _ in range(workload.warmup):
        if not await step():
            raise RuntimeError(f"{workload.name}: warm-up did not converge")
    warm_ops = total
    warm_ots = server.server.space.ot_count
    warm_gc_runs = server.shards[server.doc_id].gc_runs
    warm_frames = _frames_sent(server)
    out = Timed(ready_at=time.monotonic())
    window_max = nodes_max = steps = 0
    harness = 0.0
    gen2 = _gen2()
    cpu = time.process_time()
    if tracer is not None:
        tracer.active = True
    started = now()
    while True:
        if tracer is not None:
            tracer.op = steps
            tracer.keep_raw = total - warm_ops < RAW_SPAN_OPS
        began = now()
        converged = await step()
        ended = now()
        steps += 1
        out.step_ms.append((ended - began) * 1e3)
        if not converged:
            out.gate.append(f"step {steps} did not converge")
            break
        if tracer is not None:
            css = server.server
            window_max = max(window_max, css.oracle.last_serial - css.base)
            nodes_max = max(nodes_max, css.space.node_count())
        harness += now() - ended
        if limit.reached(steps, started):
            break
    if tracer is not None:
        tracer.active = False
    out.cpu_s = time.process_time() - cpu
    out.gen2_collections = _gen2() - gen2
    out.harness_s = harness
    out.ops = total - warm_ops
    _gate(out, server, clients, total, warm_ops)
    shard = server.shards[server.doc_id]
    out.exact = {
        "last_serial": server.wal.last_serial,
        "server_ots": server.server.space.ot_count - warm_ots,
    }
    out.sampled = {
        "window_max": float(window_max),
        "nodes_max": float(nodes_max),
        "entries_max": float(window_max),
        "server_ots": float(out.exact["server_ots"]),
        "gc_runs": float(shard.gc_runs - warm_gc_runs),
        "frames_sent": float(_frames_sent(server) - warm_frames),
        "evictions": float(server.evictions),
        "duplicates": float(server.duplicates_suppressed),
    }
    return out


def _frames_sent(server: NetServer) -> int:
    return sum(
        channel.outbound.frames_sent
        for channel in server.channels.values()
        if channel.outbound is not None
    )


def _gate(
    out: Timed,
    server: NetServer,
    clients: List[NetClient],
    total: int,
    warm_ops: int,
) -> None:
    """The correctness gate: a miss fails every op of the run."""
    expected = document_signature(server.server.document)
    out.signature = expected
    for client in clients:
        if client.signature() != expected:
            out.gate.append(f"{client.client_id}: signature differs")
        for counter in (
            "evictions", "op_rejections", "state_transfers", "reconnect_cycles"
        ):
            if getattr(client, counter):
                out.gate.append(
                    f"{client.client_id}: {counter}="
                    f"{getattr(client, counter)}"
                )
    if server.wal.last_serial != total:
        out.gate.append(
            f"server serialised {server.wal.last_serial} of {total} ops"
        )
    if server.evictions:
        out.gate.append(f"server evicted {server.evictions} sessions")
    if out.gate:
        out.failed = out.ops
    else:
        confirmed = min(client.delivered for client in clients) - warm_ops
        out.failed = out.ops - confirmed


# ----------------------------------------------------------------------
# The simulated workload
# ----------------------------------------------------------------------
def _session(seed: int, operations: int):
    return SimulationRunner(
        "css",
        WorkloadConfig(
            clients=4, operations=operations, rate_per_client=8.0,
            insert_ratio=0.55, seed=seed,
        ),
        UniformLatency(0.01, 0.4, seed=seed),
        observe_after_receive=False,
    ).run()


def run_sim(
    workload: Workload,
    seed: int,
    limit: Limit,
    tracer: Optional[Tracer],
) -> Timed:
    """Back-to-back simulator sessions; session ``i`` is seeded ``seed + i``.

    The previous session's cluster is dropped and collected *between*
    steps, outside the timed region: a session is measured on a clean
    heap, as a process that runs one session would see it.
    """
    obs.enable(reset=True)
    now = time.perf_counter
    session_ops = workload.depth
    for _ in range(workload.warmup):
        if not _session(seed, SIM_WARMUP_OPS).converged:
            raise RuntimeError("sim_4w: warm-up session did not converge")
    out = Timed(ready_at=time.monotonic())
    signatures: List[str] = []
    ots = nodes_max = entries_max = index = 0
    cpu_s = harness = 0.0
    gen2_collections = 0
    started = now()
    while True:
        gc.collect()
        gen2 = _gen2()
        cpu = time.process_time()
        if tracer is not None:
            tracer.op = index
            tracer.keep_raw = index * session_ops < RAW_SPAN_OPS
            tracer.active = True
        began = now()
        result = _session(seed + index, session_ops)
        ended = now()
        if tracer is not None:
            tracer.active = False
        cpu_s += time.process_time() - cpu
        gen2_collections += _gen2() - gen2
        out.ops += session_ops
        if not result.converged:
            out.gate.append(f"session {index} did not converge")
            out.failed += session_ops
        space = result.cluster.server.space
        ots += space.ot_count
        nodes_max = max(nodes_max, space.node_count())
        entries_max = max(
            entries_max, len(result.cluster.server.oracle.serial_items())
        )
        signatures.append(
            document_signature(result.cluster.server.document)
        )
        out.step_ms.append((ended - began) * 1e3)
        harness += now() - ended
        del result, space  # teardown is the program's time, not ours
        index += 1
        if limit.reached(index, started):
            break
    out.cpu_s = cpu_s
    out.gen2_collections = gen2_collections
    out.harness_s = harness
    out.signature = signatures[-1] if signatures else ""
    out.exact = {"server_ots": ots, "nodes_max": nodes_max}
    out.sampled.update(
        nodes_max=float(nodes_max),
        entries_max=float(entries_max),
        server_ots=float(ots),
    )
    return out
