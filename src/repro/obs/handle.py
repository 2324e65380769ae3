"""The process-global observability handle.

Instrumented call sites throughout the repository hold a reference to
*the handle* (obtained once, at object construction, via
:func:`repro.obs.get_obs`) and poke named instruments on it::

    self._obs = get_obs()
    ...
    self._obs.ot_transforms.inc()

Two implementations share that surface:

* :class:`Obs` — the live handle: a :class:`~repro.obs.registry.MetricsRegistry`
  pre-declaring the repository's **canonical instrument set** (so every
  exposition contains every series, zero-valued or not — scrapers and
  dashboards never see series flicker in and out of existence), plus a
  :class:`~repro.obs.trace.TraceRing`.
* :class:`NoopObs` — the disabled singleton: every canonical attribute
  is one shared do-nothing instrument and ``enabled`` is ``False``.
  A disabled call site therefore costs an attribute load and an empty
  method call — and sites that would do real work first (read a clock,
  compute a length) guard on ``obs.enabled`` and skip even that.

Enable/disable swaps which object :func:`repro.obs.get_obs` returns;
objects constructed *before* ``enable()`` keep their no-op handle, which
is exactly the contract: observability is decided at process start,
before the instrumented objects exist.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.registry import (
    DEFAULT_SECONDS_BUCKETS,
    MetricsRegistry,
    render_snapshot,
)
from repro.obs.trace import DEFAULT_CAPACITY, TraceRing

#: Sub-second work: OT/serialisation latency, WAL compaction, recovery.
FAST_SECONDS_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: attribute name -> (metric name, help)
CANONICAL_COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    (
        "ot_transforms",
        "repro_ot_transforms_total",
        "OT transform_pair calls performed by Algorithm 1 integration",
    ),
    (
        "space_pruned",
        "repro_state_space_pruned_total",
        "State-space nodes reclaimed by GC pruning",
    ),
    (
        "ops_serialised",
        "repro_server_ops_serialised_total",
        "Client operations serialised by the CSS server",
    ),
    (
        "session_retransmits",
        "repro_session_retransmits_total",
        "Frames retransmitted by the reliable-session layer",
    ),
    (
        "session_duplicates",
        "repro_session_duplicates_total",
        "Duplicate frames suppressed by session receivers",
    ),
    (
        "session_gap_parks",
        "repro_session_gap_parks_total",
        "Out-of-order frames parked in session reorder buffers",
    ),
    (
        "session_acks",
        "repro_session_acks_total",
        "Cumulative acknowledgements processed by session senders",
    ),
    (
        "wal_appends",
        "repro_wal_appends_total",
        "Operations appended to the server write-ahead log",
    ),
    (
        "wal_compactions",
        "repro_wal_compactions_total",
        "Write-ahead log compactions performed",
    ),
    (
        "wal_records_truncated",
        "repro_wal_records_truncated_total",
        "Write-ahead log records truncated by compaction",
    ),
    (
        "net_frames_in",
        "repro_net_frames_received_total",
        "Wire frames read from TCP connections",
    ),
    (
        "net_frames_out",
        "repro_net_frames_sent_total",
        "Wire frames written to TCP connections",
    ),
    (
        "net_bytes_in",
        "repro_net_bytes_received_total",
        "Bytes read from TCP connections (headers + bodies)",
    ),
    (
        "net_bytes_out",
        "repro_net_bytes_sent_total",
        "Bytes written to TCP connections (headers + bodies)",
    ),
    (
        "net_reconnects",
        "repro_net_reconnects_total",
        "Client reconnections after the first successful connect",
    ),
    (
        "net_resync_frames",
        "repro_net_resync_frames_total",
        "Broadcast frames re-shipped from durable state on reconnect",
    ),
    (
        "view_changes",
        "repro_view_changes_total",
        "View changes completed by the replication layer",
    ),
    (
        "repl_appends",
        "repro_repl_appends_total",
        "Log records shipped to (and appended by) backup replicas",
    ),
    (
        "repl_stale_rejected",
        "repro_repl_stale_rejected_total",
        "Frames rejected because they carried a stale epoch",
    ),
    (
        "wal_torn_tail_dropped",
        "repro_wal_torn_tail_dropped_total",
        "Torn (truncated/garbage) final WAL records dropped at recovery",
    ),
    (
        "net_evictions",
        "repro_net_evictions_total",
        "Slow-consumer connections evicted (queue full, write stall, idle)",
    ),
    (
        "net_shed",
        "repro_net_shed_total",
        "Connections shed by admission control with a retry_after answer",
    ),
    (
        "net_write_stalls",
        "repro_net_write_stalls_total",
        "Frame writes that exceeded the write deadline",
    ),
    (
        "net_oversize_rejected",
        "repro_net_oversize_rejected_total",
        "Oversized frames rejected mid-session with an error envelope",
    ),
    (
        "fleet_redirects",
        "repro_fleet_redirects_total",
        "Client hellos answered by the fleet router with a redirect",
    ),
    (
        "fleet_registrations",
        "repro_fleet_registrations_total",
        "Worker registrations accepted by the fleet router",
    ),
    (
        "fleet_expirations",
        "repro_fleet_expirations_total",
        "Worker leases expired by the fleet router's failure detector",
    ),
    (
        "fleet_replacements",
        "repro_fleet_replacements_total",
        "Documents re-placed onto a surviving worker after a lease expiry",
    ),
    (
        "net_frames_coalesced",
        "repro_net_frames_coalesced_total",
        "Envelopes that rode inside a batched multi frame instead of alone",
    ),
    (
        "net_state_transfers",
        "repro_net_state_transfers_total",
        "Reconnects resynced by whole-state transfer after GC passed them",
    ),
)

CANONICAL_GAUGES: Tuple[Tuple[str, str, str], ...] = (
    (
        "space_nodes",
        "repro_state_space_nodes",
        "Live state-space node count of the last integrating replica",
    ),
    (
        "net_connected_clients",
        "repro_net_connected_clients",
        "Client channels with a live TCP writer",
    ),
    (
        "net_unacked_frames",
        "repro_net_unacked_frames",
        "Outgoing data frames awaiting cumulative acknowledgement",
    ),
    (
        "net_parked_frames",
        "repro_net_parked_frames",
        "Out-of-order broadcast frames parked awaiting a gap fill",
    ),
    (
        "document_length",
        "repro_document_length",
        "List length at the final state of the last integrating replica",
    ),
    (
        "repl_commit_quorum",
        "repro_repl_commit_quorum",
        "Replicas required for quorum commit (f+1 of the 2f+1 roster)",
    ),
    (
        "repl_commit_floor",
        "repro_repl_commit_floor",
        "Highest quorum-committed serial in the replicated log",
    ),
    (
        "net_outbound_queue",
        "repro_net_outbound_queue_depth",
        "Outbound frames parked in per-peer bounded send queues",
    ),
    (
        "fleet_live_workers",
        "repro_fleet_live_workers",
        "Workers holding a current lease with the fleet router",
    ),
    (
        "doc_space_nodes",
        "repro_doc_state_space_nodes",
        "Live state-space nodes per served document (the active window)",
    ),
    (
        "serialized_order_len",
        "repro_serialized_order_len",
        "Serialised-order entries retained past the GC base per document",
    ),
    (
        "wal_bytes_on_disk",
        "repro_wal_bytes_on_disk",
        "Size of the per-document write-ahead log file on disk, in bytes",
    ),
    (
        "gc_floor",
        "repro_gc_floor_serial",
        "Active-window GC floor: highest serial pruned from live state",
    ),
)

#: attribute name -> (metric name, help, buckets)
CANONICAL_HISTOGRAMS: Tuple[Tuple[str, str, str, Tuple[float, ...]], ...] = (
    (
        "net_rtt",
        "repro_net_rtt_seconds",
        "Client round-trip time: edit shipped to own echo applied",
        DEFAULT_SECONDS_BUCKETS,
    ),
    (
        "serialise_duration",
        "repro_server_serialise_seconds",
        "Server time to serialise + integrate one client operation",
        FAST_SECONDS_BUCKETS,
    ),
    (
        "wal_compaction_duration",
        "repro_wal_compaction_seconds",
        "Wall-clock duration of one WAL compaction",
        FAST_SECONDS_BUCKETS,
    ),
    (
        "wal_recovery_duration",
        "repro_wal_recovery_seconds",
        "Wall-clock duration of one WAL recovery (snapshot + replay)",
        FAST_SECONDS_BUCKETS,
    ),
    (
        "css_integrate_duration",
        "repro_css_integrate_duration_seconds",
        "Wall-clock duration of one Algorithm 1 integration",
        FAST_SECONDS_BUCKETS,
    ),
    (
        "failover_latency",
        "repro_failover_seconds",
        "Primary loss detected to first op committed by the new primary",
        DEFAULT_SECONDS_BUCKETS,
    ),
)


#: Canonical instruments that carry a ``doc`` label: the wire-layer
#: series a multi-document worker splits per document.  Call sites MUST
#: address these through ``.labels(doc)`` — a labelled parent's own
#: ``inc()``/``set()`` never reaches the exposition.  The label value is
#: ``""`` for traffic with no document context (admin, replication).
DOC_LABELLED = frozenset(
    {
        "net_frames_in",
        "net_frames_out",
        "net_connected_clients",
        "net_outbound_queue",
        "net_frames_coalesced",
        "net_state_transfers",
        "doc_space_nodes",
        "serialized_order_len",
        "wal_bytes_on_disk",
        "gc_floor",
    }
)


def _labelnames(attr: str) -> Tuple[str, ...]:
    return ("doc",) if attr in DOC_LABELLED else ()


class Obs:
    """The live observability handle: registry + canonical set + traces."""

    enabled = True

    def __init__(self, trace_capacity: int = DEFAULT_CAPACITY) -> None:
        self.registry = MetricsRegistry()
        self.trace_ring = TraceRing(trace_capacity)
        for attr, name, help_text in CANONICAL_COUNTERS:
            setattr(
                self,
                attr,
                self.registry.counter(
                    name, help_text, labelnames=_labelnames(attr)
                ),
            )
        for attr, name, help_text in CANONICAL_GAUGES:
            setattr(
                self,
                attr,
                self.registry.gauge(
                    name, help_text, labelnames=_labelnames(attr)
                ),
            )
        for attr, name, help_text, buckets in CANONICAL_HISTOGRAMS:
            setattr(
                self,
                attr,
                self.registry.histogram(name, help_text, buckets=buckets),
            )

    def trace(self, kind: str, **fields: Any) -> None:
        """Append one structured event to the trace ring."""
        self.trace_ring.append(kind, fields)

    def snapshot(self, include_trace: bool = False) -> Dict[str, Any]:
        """JSON-able snapshot of every instrument (optionally + traces)."""
        snapshot = self.registry.snapshot()
        if include_trace:
            snapshot["trace"] = self.trace_ring.events()
        return snapshot

    def render(self) -> str:
        """Prometheus text exposition of the live registry."""
        return render_snapshot(self.registry.snapshot())

    def trace_events(self) -> List[Dict[str, Any]]:
        return self.trace_ring.events()


class _NoopInstrument:
    """One shared instrument that absorbs every call."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, *values: str) -> "_NoopInstrument":
        return self

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0

    def quantile(self, q: float) -> float:
        return 0.0


NOOP_INSTRUMENT = _NoopInstrument()


class NoopObs:
    """The disabled handle: same surface, nothing recorded, ~zero cost."""

    enabled = False
    registry: Optional[MetricsRegistry] = None
    trace_ring: Optional[TraceRing] = None

    def trace(self, kind: str, **fields: Any) -> None:
        pass

    def snapshot(self, include_trace: bool = False) -> Dict[str, Any]:
        return {"version": 1, "metrics": []}

    def render(self) -> str:
        return ""

    def trace_events(self) -> List[Dict[str, Any]]:
        return []


# Every canonical instrument is a *class* attribute on NoopObs, so the
# disabled fast path is a plain attribute load — no __getattr__ dispatch.
for _attr, _name, _help in CANONICAL_COUNTERS + CANONICAL_GAUGES:
    setattr(NoopObs, _attr, NOOP_INSTRUMENT)
for _attr, _name, _help, _buckets in CANONICAL_HISTOGRAMS:
    setattr(NoopObs, _attr, NOOP_INSTRUMENT)
del _attr, _name, _help, _buckets
