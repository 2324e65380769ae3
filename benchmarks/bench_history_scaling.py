"""E23 — steady-state throughput must not degrade with history depth.

The active-window work makes the deployed path O(active window) instead
of O(total history): acked-prefix GC rebases the server's state-space
and trims both order oracles, the WAL checkpoints as the document at
the GC base plus the records past it, and sessions ship serial-encoded
compact contexts in positional hot frames.  This bench measures the
three claims end to end:

1. **Flatness** — one real TCP client drives 10,000 operations through
   a live ``NetServer`` (GC on, defaults); throughput over the window
   ending at op 10,000 must match the window ending at op 1,000.
   Without the GC path the state-space, oracle maps, and WAL grow with
   every serial and the late window pays for all of it.
2. **Wire bytes per op** — the same seeded op stream as written
   (positionally) and as compact JSON, which the bench spells itself
   with ``json.dumps``: a hot frame is never written as JSON.  Reported
   as bytes/op; the positional framing must stay at or below
   ``max_binary_ratio`` of the JSON bytes for the same envelopes.
3. **WAL bytes per checkpoint** — each GC pass rewrites the file as
   the document at the base plus the records past it; the bytes per
   rewrite are reported, and each must hold only the records of the
   trailing window.

``PERF_FLOOR_ENFORCE=1`` (the perf-smoke CI job) enforces the flatness
ratio and the positional/JSON byte ratio against ``perf_floor.json``.
"""

import asyncio
import json
import os
import random
import time

from repro.jupiter.css import CssClient, CssServer
from repro.jupiter.persistence import (
    ServerWriteAheadLog,
    compact_context,
    save_wal,
)
from repro.model.schedule import OpSpec
from repro.net.client import NetClient
from repro.net.codec import (
    compact_client_op_obj,
    encode_envelope,
    encode_frame_bytes,
)
from repro.net.server import NetServer

from benchmarks.conftest import print_banner, write_json

FLOOR_PATH = os.path.join(os.path.dirname(__file__), "perf_floor.json")

SEED = 7
TOTAL_OPS = 10_000
CHUNK = 100  # ops per burst; stays under the outbound queue bound
#: throughput windows compared for flatness: (start, end] op counts.
#: Wide (3k-op) windows average out scheduler noise; what matters is
#: the trend, and an O(total-history) regression shows up as the late
#: window paying for everything the early one did not have yet.
EARLY_WINDOW = (0, 3_000)
LATE_WINDOW = (7_000, 10_000)


def _spec(rng, document_length):
    if document_length <= 200 and (
        document_length == 0 or rng.random() < 0.5
    ):
        return OpSpec("ins", rng.randint(0, document_length), "x")
    return OpSpec("del", rng.randint(0, document_length - 1))


async def _drive_wire(total_ops):
    """One client, ``total_ops`` edits, cumulative time at each chunk."""
    server = NetServer(
        "127.0.0.1", 0, initial_text="x" * 200
    )
    await server.start()
    client = NetClient("c1", "127.0.0.1", server.port)
    await client.connect()
    rng = random.Random(SEED)
    marks = {0: 0.0}
    total = 0
    started = time.perf_counter()
    for end in range(CHUNK, total_ops + 1, CHUNK):
        for _ in range(CHUNK):
            await client.generate(_spec(rng, len(client.css.document)))
        total += CHUNK
        assert await client.wait_converged(total, timeout=120), (
            f"not converged on {total} ops within 120 s: the client "
            f"delivered {client.delivered}, the server logged "
            f"{server.wal.last_serial}"
        )
        marks[end] = time.perf_counter() - started
    summary = {
        "evictions": client.evictions,
        "gc_base": server.server.base,
        "space_nodes": server.server.space.node_count(),
        "server_order_entries": len(server.server.oracle.serial_items()),
        "client_order_entries": len(client.css.oracle.serial_items()),
    }
    assert summary["evictions"] == 0, (
        f"the client was evicted {summary['evictions']} times (bound 0)"
    )
    await client.close()
    await server.stop()
    return marks, summary


def _measure_flatness():
    marks, summary = asyncio.run(_drive_wire(TOTAL_OPS))

    def rate(window):
        start, end = window
        return (end - start) / (marks[end] - marks[start])

    early = rate(EARLY_WINDOW)
    late = rate(LATE_WINDOW)
    return {
        "ops": TOTAL_OPS,
        "ops_per_sec_at_1k": early,
        "ops_per_sec_at_10k": late,
        "flat_ratio": late / early,
        "wall_seconds": marks[TOTAL_OPS],
        **summary,
    }


def _measure_wire_bytes(operations=300):
    """Bytes/op for the same stream as written (positional) and as the
    compact JSON a frame off the hot shape would take."""
    names = ["c1"]
    server = CssServer("server", names)
    client = CssClient("c1")
    rng = random.Random(SEED)
    sizes = {"json": 0, "bin": 0}
    for seq in range(1, operations + 1):
        result = client.generate(_spec(rng, len(client.document)))
        message = result.outgoing
        frame = encode_envelope(
            "data", seq=seq, ack=seq - 1, epoch=0, pin=seq - 1,
            body=compact_client_op_obj(message, client.oracle),
        )
        sizes["json"] += len(json.dumps(frame, separators=(",", ":")))
        sizes["bin"] += len(encode_frame_bytes(frame))
        for _, broadcast in server.receive("c1", message):
            client.receive(broadcast)
        # Track the deployed path: both ends trim to the acked prefix.
        if seq % 64 == 0:
            floor = server.oracle.last_serial - 16
            server.rebase_to_serial(floor)
            client.rebase_to_serial(floor)
    per_op = {key: total / operations for key, total in sizes.items()}
    return {
        "operations": operations,
        "bytes_per_op": per_op,
        "binary_ratio": per_op["bin"] / per_op["json"],
    }


def _measure_wal_bytes(wal_path, operations=600):
    """Bytes written per checkpoint rewrite.

    Every 32 ops a GC pass rebases the server (and its one client) to
    8 serials behind the head and checkpoints the log, rewriting the
    file as ``ShardCore.write_compaction`` does on disk: the document at
    the base plus the records past it.  The rewrite costs the document,
    not the history: each one holds 8 records however many came before.
    """
    names = ["c1"]
    server = CssServer("server", names)
    client = CssClient("c1")
    wal = ServerWriteAheadLog("server", names)
    rng = random.Random(SEED)
    rewrites, retained = [], []
    for step in range(1, operations + 1):
        result = client.generate(_spec(rng, len(client.document)))
        message = result.outgoing
        broadcasts = server.receive("c1", message)
        wal.append(
            server.oracle.last_serial, "c1", message.operation,
            ctx=compact_context(message.operation, server.oracle),
        )
        for _, broadcast in broadcasts:
            client.receive(broadcast)
        if step % 32 == 0:
            floor = server.oracle.last_serial - 8
            server.rebase_to_serial(floor)
            client.rebase_to_serial(floor)
            wal.compact(server)
            save_wal(wal, wal_path)
            rewrites.append(os.path.getsize(wal_path))
            retained.append(len(wal.records))
    return {
        "operations": operations,
        "checkpoints": len(rewrites),
        "max_records_per_checkpoint": max(retained),
        "mean_checkpoint_bytes": sum(rewrites) / len(rewrites),
        "last_checkpoint_bytes": rewrites[-1],
        "document_length": len(server.document),
    }


def test_history_scaling_artifact(benchmark, tmp_path):
    def regenerate():
        return (
            _measure_flatness(),
            _measure_wire_bytes(),
            _measure_wal_bytes(str(tmp_path / "bench.wal")),
        )

    flatness, wire, wal = benchmark.pedantic(
        regenerate, rounds=1, iterations=1
    )

    print_banner("History scaling: flat steady-state deployed path")
    print(
        f"wire throughput: {flatness['ops_per_sec_at_1k']:.0f} ops/s at 1k "
        f"-> {flatness['ops_per_sec_at_10k']:.0f} ops/s at 10k "
        f"(ratio {flatness['flat_ratio']:.2f}, "
        f"{flatness['space_nodes']} live nodes after {TOTAL_OPS} ops)"
    )
    per_op = wire["bytes_per_op"]
    print(
        f"wire bytes/op:   json {per_op['json']:.0f}  "
        f"binary {per_op['bin']:.0f}  "
        f"(binary/json {wire['binary_ratio']:.2f})"
    )
    print(
        f"wal checkpoint:  {wal['mean_checkpoint_bytes']:.0f} B per rewrite "
        f"mean, {wal['last_checkpoint_bytes']:.0f} B last "
        f"({wal['checkpoints']} checkpoints, a document of "
        f"{wal['document_length']} elements)"
    )

    write_json(
        "history_scaling",
        {"flatness": flatness, "wire_bytes": wire, "wal_bytes": wal},
        seed=SEED,
        config={
            "total_ops": TOTAL_OPS,
            "chunk": CHUNK,
            "early_window": EARLY_WINDOW,
            "late_window": LATE_WINDOW,
        },
    )

    # The order oracles must track the active window, not total history.
    for side in ("server", "client"):
        entries = flatness[f"{side}_order_entries"]
        assert entries < TOTAL_OPS / 10, (
            f"the {side} order oracle holds {entries} entries "
            f"(bound < {TOTAL_OPS / 10:.0f})"
        )
    # A checkpoint keeps the records past the GC base, never history.
    assert wal["max_records_per_checkpoint"] == 8, (
        f"a checkpoint kept {wal['max_records_per_checkpoint']} records "
        "past an 8-serial window"
    )

    if os.environ.get("PERF_FLOOR_ENFORCE") == "1":
        with open(FLOOR_PATH) as handle:
            floor = json.load(handle)["history_scaling"]
        assert flatness["flat_ratio"] >= floor["min_flat_ratio"], (
            f"throughput at 10k ops fell to "
            f"{flatness['flat_ratio']:.2f}x of the 1k-op rate "
            f"(floor {floor['min_flat_ratio']})"
        )
        assert wire["binary_ratio"] <= floor["max_binary_ratio"], (
            f"binary frames are {wire['binary_ratio']:.2f}x the JSON "
            f"bytes (ceiling {floor['max_binary_ratio']})"
        )
