"""E23 — healthy-client throughput with one wedged peer (overload armor).

The point of the per-peer outbound queue + eviction machinery is that
one slow consumer costs *that consumer* its connection, never the rest
of the room their throughput.  Before the armor, every broadcast
fan-out awaited ``drain()`` on every socket, so a single zero-window
peer head-of-line-blocked the serialisation path for everyone.

The bench runs the same in-process workload twice over real sockets:

* **baseline** — one healthy :class:`~repro.net.client.NetClient`
  driving ``OPERATIONS`` inserts of ``VALUE_BYTES`` payload each
  (values fat enough that the byte volume defeats kernel socket
  buffering — tiny frames would vanish into TCP buffers and measure
  nothing);
* **stalled** — the same workload with a raw peer that completes a
  hello and then never reads a byte.  Its broadcasts pile into a small
  outbound queue until the armor evicts it (queue overflow or write
  deadline, whichever lands first).

``BENCH_slow_consumer.json`` records both throughputs and their ratio.
``PERF_FLOOR_ENFORCE=1`` asserts the ratio against the
``slow_consumer`` entry of ``benchmarks/perf_floor.json``: the healthy
client must stay within 2x of the no-stall baseline — a revert of the
armor sends the ratio to the write-deadline scale (orders of magnitude)
and fails loudly.
"""

import asyncio
import json
import os
import time

from repro.model.schedule import OpSpec
from repro.net.client import NetClient
from repro.net.codec import encode_envelope
from repro.net.server import NetServer
from repro.net.transport import write_frame

from benchmarks.conftest import print_banner, write_json

FLOOR_PATH = os.path.join(os.path.dirname(__file__), "perf_floor.json")

OPERATIONS = 120
VALUE_BYTES = 4096
OUTBOUND_QUEUE = 32
WRITE_TIMEOUT = 0.5
SEED = 23


async def _drive(with_stalled_peer: bool):
    server = NetServer(
        "127.0.0.1",
        0,
        outbound_queue=OUTBOUND_QUEUE,
        write_timeout=WRITE_TIMEOUT,
        idle_timeout=None,
    )
    await server.start()
    stalled_writer = None
    if with_stalled_peer:
        _reader, stalled_writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        await write_frame(
            stalled_writer,
            encode_envelope(
                "hello", client="stall", delivered=0, epoch=0,
            ),
        )
        # Never read again: not the welcome, not a single broadcast.
    healthy = NetClient(
        "c1", "127.0.0.1", server.port, reconnect_seed=SEED
    )
    await healthy.connect()
    value = "x" * VALUE_BYTES
    started = time.perf_counter()
    for index in range(OPERATIONS):
        await healthy.generate(OpSpec("ins", index, value))
    converged = await healthy.wait_converged(OPERATIONS, timeout=120)
    wall = time.perf_counter() - started
    assert converged
    evictions = server.evictions
    serial = server.wal.last_serial
    if stalled_writer is not None:
        stalled_writer.close()
    await healthy.close()
    await server.stop()
    assert serial == OPERATIONS
    return OPERATIONS / wall if wall > 0 else 0.0, evictions


def _measure():
    baseline_ops, _ = asyncio.run(_drive(with_stalled_peer=False))
    stalled_ops, evictions = asyncio.run(_drive(with_stalled_peer=True))
    slowdown = baseline_ops / stalled_ops if stalled_ops > 0 else float("inf")
    return {
        "operations": OPERATIONS,
        "value_bytes": VALUE_BYTES,
        "outbound_queue": OUTBOUND_QUEUE,
        "write_timeout": WRITE_TIMEOUT,
        "seed": SEED,
        "baseline_ops_per_sec": baseline_ops,
        "stalled_ops_per_sec": stalled_ops,
        "slowdown": slowdown,
        "evictions": evictions,
    }


def test_slow_consumer_artifact(benchmark):
    result = benchmark.pedantic(_measure, rounds=1, iterations=1)
    print_banner(
        "Slow-consumer armor: healthy throughput with one wedged peer"
    )
    print(
        f"{'baseline':>10} {'stalled':>10} {'slowdown':>9} {'evictions':>10}"
    )
    print(
        f"{result['baseline_ops_per_sec']:>10.1f} "
        f"{result['stalled_ops_per_sec']:>10.1f} "
        f"{result['slowdown']:>9.2f} "
        f"{result['evictions']:>10}"
    )
    path = write_json(
        "slow_consumer",
        result,
        seed=SEED,
        config={
            "operations": OPERATIONS,
            "value_bytes": VALUE_BYTES,
            "outbound_queue": OUTBOUND_QUEUE,
            "write_timeout": WRITE_TIMEOUT,
        },
    )
    print(f"artifact: {path}")
    if os.environ.get("PERF_FLOOR_ENFORCE") == "1":
        with open(FLOOR_PATH) as handle:
            floor = json.load(handle)["slow_consumer"]
        assert floor["operations"] == OPERATIONS
        assert floor["value_bytes"] == VALUE_BYTES
        assert result["slowdown"] <= floor["max_slowdown"], (
            f"one stalled peer slowed the healthy client "
            f"{result['slowdown']:.2f}x (limit "
            f"{floor['max_slowdown']:.1f}x): the overload armor is not "
            f"isolating slow consumers"
        )
