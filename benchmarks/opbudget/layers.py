"""Which calls are traced, and how spans become per-layer metrics.

A layer is a module of ``src/repro``; its metrics are named after it.
:func:`install` wraps the entry points of every layer (see
``spans.py`` for how), and :func:`metrics` turns the tracer's
aggregates, the counts taken at the same boundaries and the process
counters into exactly the ``per_layer`` names of ``BENCHMARK.json``.

``us`` metrics are self time per timed op; ``ms_per_run`` metrics are
inclusive time per call of something that runs rarely (a compaction, a
GC sweep).  A metric whose entry point could not be resolved is
``None`` here, ``null`` in every output, and its entry point is named
under ``missing`` and on stderr.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Optional

from .spans import SpanStats, Tracer

#: ``(target, layer)`` for every traced entry point.  The underscore
#: names are private hooks the budget cannot do without; they resolve by
#: ``getattr`` and a missing one only unsets its own metrics.
SPANS = [
    ("repro.net.client:NetClient.generate", "net.client"),
    ("repro.net.client:NetClient._handle_frame", "net.client"),
    ("repro.net.codec:encode_frame_bytes", "net.codec"),
    ("repro.net.codec:decode_envelope", "net.codec"),
    ("repro.net.codec:compact_client_op_obj", "net.codec"),
    ("repro.net.codec:compact_server_op_obj", "net.codec"),
    ("repro.net.codec:message_from_wire", "net.codec"),
    ("repro.net.transport:write_frame", "net.transport"),
    ("repro.net.transport:read_frame", "net.transport"),
    ("repro.net.transport:FrameSender.try_send", "net.transport"),
    ("repro.jupiter.session:SessionSender.send", "jupiter.session"),
    ("repro.jupiter.session:SessionSender.ack", "jupiter.session"),
    ("repro.jupiter.session:SessionReceiver.receive", "jupiter.session"),
    ("repro.net.server:NetServer._serialise", "net.server"),
    ("repro.net.server:NetServer._gc_shard", "net.server"),
    ("repro.jupiter.css:CssServer.receive", "jupiter.css"),
    ("repro.jupiter.css:CssClient.receive", "jupiter.css"),
    ("repro.jupiter.css:CssClient.generate", "jupiter.css"),
    ("repro.jupiter.css:CssServer.rebase_to_serial", "jupiter.css"),
    ("repro.jupiter.css:CssClient.rebase_to_serial", "jupiter.css"),
    ("repro.jupiter.nary:NaryStateSpace.integrate", "jupiter.nary"),
    ("repro.ot.transform:transform_pair", "ot.transform"),
    ("repro.jupiter.ordering:ServerOrderOracle.assign", "jupiter.ordering"),
    (
        "repro.jupiter.ordering:ServerOrderOracle.serialized_before",
        "jupiter.ordering",
    ),
    (
        "repro.jupiter.ordering:ServerOrderOracle.opids_between",
        "jupiter.ordering",
    ),
    ("repro.jupiter.ordering:ServerOrderOracle.trim_below", "jupiter.ordering"),
    ("repro.jupiter.ordering:ServerOrderOracle.before", "jupiter.ordering"),
    (
        "repro.jupiter.ordering:ClientOrderOracle.opids_between",
        "jupiter.ordering",
    ),
    ("repro.jupiter.ordering:ClientOrderOracle.trim_below", "jupiter.ordering"),
    ("repro.jupiter.ordering:ClientOrderOracle.before", "jupiter.ordering"),
    (
        "repro.document.list_document:ListDocument.insert",
        "document.list_document",
    ),
    (
        "repro.document.list_document:ListDocument.delete",
        "document.list_document",
    ),
    (
        "repro.document.list_document:ListDocument.copy",
        "document.list_document",
    ),
    (
        "repro.jupiter.persistence:ServerWriteAheadLog.append",
        "jupiter.persistence",
    ),
    ("repro.jupiter.persistence:compact_context", "jupiter.persistence"),
    (
        "repro.jupiter.persistence:ServerWriteAheadLog.compact",
        "jupiter.persistence",
    ),
    ("repro.net.server:_DocShard.append_disk", "jupiter.persistence"),
    ("repro.net.server:_DocShard.write_compaction", "jupiter.persistence"),
    ("repro.sim.runner:SimulationRunner.run", "sim.runner"),
]


class Counts:
    """Counts taken by span observers, at the boundary the span times."""

    def __init__(self) -> None:
        self.frames = 0
        self.frame_bytes = 0
        self.enqueued = 0
        self.queue_depth_max = 0
        self.delta_compactions = 0
        self.wal_bytes = 0
        self._wal_size: Optional[int] = None

    # Each observer receives ``(args, kwargs, result)`` of the call.
    def encoded(self, args, kwargs, result) -> None:
        # Every ``write_frame`` encodes exactly once; 4 is its length prefix.
        self.frames += 1
        self.frame_bytes += len(result) + 4

    def enqueued_frame(self, args, kwargs, result) -> None:
        if result:
            self.enqueued += 1
            depth = args[0].depth
            if depth > self.queue_depth_max:
                self.queue_depth_max = depth

    def compacted(self, args, kwargs, result) -> None:
        if args[0].last_compaction_mode == "delta":
            self.delta_compactions += 1

    def appended_to_disk(self, args, kwargs, result) -> None:
        self._wal_grew(args[0], rewritten=False)

    def compaction_written(self, args, kwargs, result) -> None:
        shard = args[0]
        self._wal_grew(
            shard, rewritten=shard.wal.last_compaction_mode != "delta"
        )

    def _wal_grew(self, shard: Any, rewritten: bool) -> None:
        path = shard.wal_path
        if path is None:
            return
        size = os.path.getsize(path)
        if rewritten:
            self.wal_bytes += size
        elif self._wal_size is not None:
            self.wal_bytes += size - self._wal_size
        # else: the first append seen only tells us where the file stood
        self._wal_size = size


def install(tracer: Tracer) -> Counts:
    """Wrap every entry point in :data:`SPANS`; return the count sink."""
    # Import every module that binds a traced function by name first, so
    # the identity scan in ``Tracer.wrap`` finds those bindings.
    import repro.net.client  # noqa: F401
    import repro.net.server  # noqa: F401
    import repro.sim  # noqa: F401

    counts = Counts()
    observers = {
        "repro.net.codec:encode_frame_bytes": counts.encoded,
        "repro.net.transport:FrameSender.try_send": counts.enqueued_frame,
        "repro.jupiter.persistence:ServerWriteAheadLog.compact": (
            counts.compacted
        ),
        "repro.net.server:_DocShard.append_disk": counts.appended_to_disk,
        "repro.net.server:_DocShard.write_compaction": (
            counts.compaction_written
        ),
    }
    for target, layer in SPANS:
        tracer.wrap(target, layer, observers.get(target))
    return counts


def metrics(
    tracer: Tracer,
    counts: Counts,
    *,
    ops: int,
    cpu_s: float,
    sampled: Dict[str, float],
) -> Dict[str, Optional[float]]:
    """The span-derived ``per_layer`` metrics of one traced run.

    ``sampled`` carries what the harness read off public attributes
    (window sizes, server counters); the ``proc.*``, ``harness.*`` and
    ``trace.*`` metrics are added by the caller, which owns those clocks.
    """
    stats = tracer.stats

    def self_us(*names: str) -> Optional[float]:
        """Self time per timed op, summed over ``names``."""
        if not names or any(name not in stats for name in names):
            return None
        return sum(stats[name].self_ns for name in names) / ops / 1e3

    def layer_us(layer: str) -> Optional[float]:
        return self_us(*(n for n, s in stats.items() if s.layer == layer))

    def per_call(unit_ns: float, *names: str) -> Optional[float]:
        """Inclusive time per call, in units of ``unit_ns``."""
        if any(name not in stats for name in names):
            return None
        calls = sum(stats[name].calls for name in names)
        total = sum(stats[name].total_ns for name in names)
        return total / calls / unit_ns if calls else 0.0

    def traced(name: str, value: Callable[[SpanStats], float]):
        """``value(stats)`` if the span was installed, else unset."""
        return value(stats[name]) if name in stats else None

    gc_runs = sampled["gc_runs"]
    frames_sent = sampled["frames_sent"]
    return {
        "net.client.generate_us": self_us("NetClient.generate"),
        "net.client.handle_us": self_us("NetClient._handle_frame"),
        "net.codec.encode_us": self_us("codec.encode_frame_bytes"),
        "net.codec.decode_us": self_us("codec.decode_envelope"),
        "net.codec.ctx_encode_us": self_us(
            "codec.compact_client_op_obj", "codec.compact_server_op_obj"
        ),
        "net.codec.ctx_decode_us": self_us("codec.message_from_wire"),
        "net.codec.bytes_per_op": traced(
            "codec.encode_frame_bytes", lambda _: counts.frame_bytes / ops
        ),
        "net.codec.frames_per_op": traced(
            "codec.encode_frame_bytes", lambda _: counts.frames / ops
        ),
        "net.transport.write_us": self_us("transport.write_frame"),
        "net.transport.read_wait_ms_total": traced(
            "transport.read_frame", lambda s: s.wait_ns / 1e6
        ),
        "net.transport.queue_depth_max": traced(
            "FrameSender.try_send", lambda _: float(counts.queue_depth_max)
        ),
        # Envelopes the server queued per frame it wrote: 1 unless the
        # writer task coalesced a burst into ``multi`` frames.
        "net.transport.ops_per_batch": traced(
            "FrameSender.try_send",
            lambda _: counts.enqueued / frames_sent if frames_sent else 0.0,
        ),
        "jupiter.session.us": layer_us("jupiter.session"),
        "net.server.serialise_us": self_us("NetServer._serialise"),
        "net.server.gc_runs": gc_runs,
        "net.server.gc_ms_per_run": traced(
            "NetServer._gc_shard",
            lambda s: s.total_ns / gc_runs / 1e6 if gc_runs else 0.0,
        ),
        "net.server.window_max": sampled["window_max"],
        "net.server.evictions": sampled["evictions"],
        "net.server.duplicates": sampled["duplicates"],
        "jupiter.css.server_receive_us": self_us("CssServer.receive"),
        "jupiter.css.client_receive_us": self_us("CssClient.receive"),
        "jupiter.css.client_generate_us": self_us("CssClient.generate"),
        "jupiter.css.rebase_ms_per_run": per_call(
            1e6, "CssServer.rebase_to_serial", "CssClient.rebase_to_serial"
        ),
        "jupiter.nary.integrate_us": self_us("NaryStateSpace.integrate"),
        "jupiter.nary.ot_per_op": sampled["server_ots"] / ops,
        "jupiter.nary.nodes_max": sampled["nodes_max"],
        "ot.transform.us_per_call": per_call(1e3, "transform.transform_pair"),
        "ot.transform.calls": traced(
            "transform.transform_pair", lambda s: float(s.calls)
        ),
        "jupiter.ordering.us": layer_us("jupiter.ordering"),
        "jupiter.ordering.entries_max": sampled["entries_max"],
        "document.list_document.us": layer_us("document.list_document"),
        "jupiter.persistence.append_us": self_us(
            "ServerWriteAheadLog.append", "persistence.compact_context"
        ),
        "jupiter.persistence.compact_ms_per_run": per_call(
            1e6, "ServerWriteAheadLog.compact"
        ),
        "jupiter.persistence.compactions": traced(
            "ServerWriteAheadLog.compact", lambda s: float(s.calls)
        ),
        "jupiter.persistence.compact_share": traced(
            "ServerWriteAheadLog.compact",
            lambda s: s.total_ns / 1e9 / cpu_s,
        ),
        "jupiter.persistence.delta_share": traced(
            "ServerWriteAheadLog.compact",
            lambda s: counts.delta_compactions / s.calls if s.calls else 0.0,
        ),
        "jupiter.persistence.disk_append_us": self_us("_DocShard.append_disk"),
        "jupiter.persistence.disk_compaction_ms_per_run": per_call(
            1e6, "_DocShard.write_compaction"
        ),
        "jupiter.persistence.wal_bytes_per_op": traced(
            "_DocShard.append_disk", lambda _: counts.wal_bytes / ops
        ),
        "sim.runner.overhead_us": self_us("SimulationRunner.run"),
        "proc.unattributed_share": 1.0 - tracer.total_self_ns() / 1e9 / cpu_s,
    }
