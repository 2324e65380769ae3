"""The deployed CSS server: a real TCP listener around ``CssServer``.

One :class:`NetServer` hosts exactly the objects the simulator hosts —
a :class:`~repro.jupiter.css.CssServer`, a
:class:`~repro.jupiter.persistence.ServerWriteAheadLog`, and one
:class:`~repro.jupiter.session.SessionSender` /
:class:`~repro.jupiter.session.SessionReceiver` pair per client channel —
but drives them from asyncio connections instead of simulated events.

Connection lifecycle (the server side of the reconnect state machine in
``docs/ARCHITECTURE.md``):

1. A client's first frame is ``hello {client, delivered, codecs, pin}``,
   where ``delivered`` is its consumption cursor (how many broadcasts it
   has consumed, i.e. its receiver's cumulative ack), ``codecs`` the
   frame serialisations it offers (a hello without one is answered with
   a typed ``error`` and a hang-up) and ``pin`` its GC floor.
2. The server registers the client (late joiners are welcome: they
   simply resync from serial 0), answers ``welcome {ack, serial,
   resync}`` — ``ack`` being the server's cumulative ack of the
   client-to-server channel, which lets the client drop acknowledged
   pending frames and retransmit only the rest —
3. and then **resyncs from durable state**: every broadcast with a
   serial in ``delivered+1 .. last_serial`` is rebuilt from the
   write-ahead log (:meth:`ServerWriteAheadLog.broadcasts_for`) and
   re-shipped as an ordinary ``data`` frame whose channel sequence
   number *is* the serial.
4. Thereafter ``data`` frames flow both ways; the WAL is appended
   *before* any broadcast frame hits a socket, so a crash can never
   lose an operation the world has seen.

Because every broadcast goes to every client exactly once in serial
order, the server→client channel sequence number always equals the
broadcast serial — which is what makes the WAL a perfect retransmission
buffer: nothing needs to be kept in memory per disconnected client.

**Replicated deployment.**  Started with a ``roster`` (ordered
``(host, port)`` pairs, one per replica) the same class becomes one
replica of a 2f+1 quorum group.  Every replication *decision* — who
leads, which frames are stale, where the commit floor is, which log a
view change adopts — is :class:`repro.jupiter.replication.Replica`'s,
the pure core the simulator runs too; this module keeps the asyncio:

* the **primary** parks every broadcast frame and client acknowledgement
  under its serial and runs one shipping task per backup (dial, full-log
  ``repl_install``, then ``repl_append`` one ack at a time, backoff) —
  only while the core says it leads; each ack goes to the core, and the
  serials it answers are on ``f + 1`` disks and are flushed;
* a **backup** hands each ``repl_install`` / ``repl_append`` / ``repl_seek``
  to the core and writes back the reply it returns (a frame the core
  refuses as malformed closes the connection, typed, nothing changed),
  and answers client ``hello``\\ s with a ``redirect``;
* a backup that loses its feed sleeps a deterministic stagger
  (``failover_delay x views-until-my-turn``), stands for the next view
  it leads, carries ``repl_seek`` / ``repl_offer`` between the cores and,
  if its core adopted a log, rebuilds the CSS server from it by WAL
  replay and starts shipping;
* whatever makes the core stop leading (a higher view installed or
  promised here, a ``repl_deny`` from a backup) runs one cleanup: stop
  shipping, drop the parked frames, hang up the clients (the write path
  refuses a frame still buffered on a hung-up session), arm the failover
  watch.
"""

from __future__ import annotations

import asyncio
import logging
import os
import time
import urllib.parse
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.ids import SERVER_ID, ReplicaId
from repro.errors import ProtocolError
from repro.jupiter.css import CssServer
from repro.jupiter.messages import ServerEcho, ServerOperation
from repro.jupiter.persistence import (
    ServerWriteAheadLog,
    compact_context,
    load_wal,
)
from repro.jupiter.replication import Replica, primary_for
from repro.jupiter.session import counter
from repro.jupiter.shard import Session, ShardCore
from repro.net.codec import (
    DEFAULT_DOC,
    WireError,
    compact_server_op_obj,
    document_signature,
    encode_envelope,
    message_from_wire,
    negotiate_codec,
    roster_to_obj,
    server_echo_obj,
)
from repro.net.transport import (
    MAX_FRAME,
    OUTBOUND_QUEUE,
    WRITE_TIMEOUT,
    FrameSender,
    FrameTooLarge,
    admin_reply,
    drain_payload,
    read_first_frame,
    read_frame,
    run_listener,
    write_frame,
)
from repro.obs import get_obs

#: The server's named logger; silent unless the embedding process (the
#: ``repro serve`` CLI, a test harness) configures handlers and a level.
LOGGER = logging.getLogger("repro.net.server")


#: replication frame -> the core call that is its meaning, and its arguments
_REPL_CALLS = {
    "repl_seek": ("seek", ("view",)),
    "repl_install": ("install", ("view", "epoch", "committed", "log")),
    "repl_append": ("append", ("epoch", "committed", "record")),
}


class _ClientChannel(Session):
    """A :class:`Session` plus the live connection that serves it."""

    writer: Optional[asyncio.StreamWriter] = None
    #: bounded outbound queue + writer task wrapping ``writer``; all
    #: frames to this peer flow through it so one stalled socket
    #: never blocks the serialise/commit/broadcast loops
    outbound: Optional[FrameSender] = None


class _DocShard(ShardCore):
    """The core as this shell hosts it: its sessions carry their sockets."""

    session_type = _ClientChannel


def _doc_filename(doc: str) -> str:
    """Deterministic, filesystem-safe WAL filename for a document id."""
    return urllib.parse.quote(doc, safe="") + ".wal"


class NetServer:
    """Serve CSS documents over TCP — one or many behind one listener.

    This class is the asyncio shell: listener, admission, codec
    negotiation, per-peer queues and eviction, the replication transport
    and the admin plane.  What a document *decides* — registration,
    serialise, floors, GC, resync, recovery — is
    :class:`~repro.jupiter.shard.ShardCore`; frames become core calls
    here and their results become sends.

    **Multi-document hosting (the fleet tier's worker role).**  Every
    hosted document is a :class:`_DocShard` with its own ``CssServer``,
    write-ahead log, and per-client session pairs; a ``hello`` naming a
    ``doc`` is routed to (and lazily opens) that shard, a doc-less hello
    lands on the default ``doc_id``.  Serialization orders are fully
    independent across shards; admission control and the overload
    accounting are shared, because sockets and memory are.  With a
    ``wal_dir``, each shard's WAL lives in ``<wal_dir>/<doc>.wal`` —
    appended (and flushed) *before* any broadcast or ack leaves the
    process, rewritten on compaction — so a re-placed document's next
    owner recovers exactly the state the old owner acknowledged.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        initial_text: str = "",
        snapshot_every: int = 64,
        roster: Optional[Sequence[Tuple[str, int]]] = None,
        replica_index: int = 0,
        failover_delay: float = 0.5,
        max_connections: int = 64,
        max_queued_frames: int = 8192,
        outbound_queue: int = OUTBOUND_QUEUE,
        write_timeout: Optional[float] = WRITE_TIMEOUT,
        idle_timeout: Optional[float] = 60.0,
        retry_after: float = 1.0,
        doc_id: str = DEFAULT_DOC,
        wal_dir: Optional[str] = None,
        gc_interval: float = 0.25,
        gc_grace: float = 15.0,
        gc_threshold: int = 64,
    ) -> None:
        self.host = host
        self.port = port
        self.initial_text = initial_text
        self.snapshot_every = snapshot_every
        # -- steady-state knobs -----------------------------------------
        #: seconds between active-window GC sweeps (acked-prefix pruning)
        self.gc_interval = gc_interval
        #: how long a disconnected client's pin keeps holding the GC
        #: floor; past it the client is dropped from the floor and must
        #: accept a whole-state transfer on return
        self.gc_grace = gc_grace
        #: minimum floor advance (serials) before a rebase is worth its
        #: full-checkpoint cost — hysteresis against GC thrash
        self.gc_threshold = gc_threshold
        self._gc_task: Optional[asyncio.Task] = None
        # -- overload armor knobs --------------------------------------
        #: admission bound on concurrent client sessions
        self.max_connections = max_connections
        #: admission bound on the *total* outbound backlog (frames parked
        #: across every per-peer queue); new sessions are shed above it
        self.max_queued_frames = max_queued_frames
        #: per-peer outbound queue capacity (overflow evicts that peer)
        self.outbound_queue = outbound_queue
        #: write deadline applied to every server-side frame write
        self.write_timeout = write_timeout
        #: per-session read deadline; the client heartbeat (ping every
        #: HEARTBEAT_INTERVAL) keeps a healthy idle session far below it
        self.idle_timeout = idle_timeout
        #: seconds quoted in the retry_after envelope when shedding
        self.retry_after = retry_after
        self.evictions = 0
        self.shed_connections = 0
        self.oversize_rejected = 0
        # -- document shards -------------------------------------------
        #: the default document — what a doc-less ``hello`` lands on
        self.doc_id = str(doc_id)
        #: per-document WAL directory (one ``<doc>.wal`` file each);
        #: placement may move a document between fleet workers, but its
        #: log stays put — the next owner recovers from the same file
        self.wal_dir = wal_dir
        if wal_dir is not None and roster:
            raise ProtocolError(
                "wal_dir persistence is for standalone (fleet) workers; "
                "a replicated group's durability is the quorum"
            )
        self._obs = get_obs()
        self._logger = LOGGER
        self.started_at = time.monotonic()
        self.shards: Dict[str, _DocShard] = {}
        self._open_shard(self.doc_id)
        # -- replication state (inert in the standalone deployment) ----
        self.roster: Optional[List[Tuple[str, int]]] = (
            [(str(h), int(p)) for h, p in roster] if roster else None
        )
        ids = [f"{SERVER_ID}{i}" for i in range(len(roster or ()))]
        ids = ids or [SERVER_ID]
        if not 0 <= replica_index < len(ids):
            raise ProtocolError(
                f"replica index {replica_index} outside roster of {len(ids)}"
            )
        self.replica_index = replica_index
        self.failover_delay = failover_delay
        #: every replication decision — view, epoch, promise, commit
        #: floor, log adoption — is this core's; a standalone server is
        #: a roster of one whose write path never consults it
        self._replica = Replica(ids, ids[replica_index], self.wal)
        #: serial -> (origin channel, per-channel broadcast frames) parked
        #: until commit
        self._pending: Dict[
            int,
            Tuple[_ClientChannel, List[Tuple[_ClientChannel, Dict[str, Any]]]],
        ] = {}
        self._backup_tasks: Dict[int, asyncio.Task] = {}
        #: set when the log grew; every shipping task re-reads the log
        #: head after clearing it, so one event serves them all
        self._repl_wakeup = asyncio.Event()
        self._primary_feed: Optional[asyncio.StreamWriter] = None
        self._failover_task: Optional[asyncio.Task] = None
        #: when the feed loss that led to this replica's election was seen
        self._failover_started = 0.0
        self._asyncio_server: Optional[asyncio.base_events.Server] = None
        self._closed = asyncio.Event()
        if self.replicated:
            self._obs.repl_commit_quorum.set(self._replica.quorum)

    # ------------------------------------------------------------------
    # Replication roster
    # ------------------------------------------------------------------
    @property
    def replicated(self) -> bool:
        return self.roster is not None

    # Reads of the replica core (a standalone server is view 0's primary).
    @property
    def replica_id(self) -> ReplicaId:
        return self._replica.me

    @property
    def is_primary(self) -> bool:
        return self._replica.is_primary

    @property
    def view(self) -> int:
        return self._replica.view

    @property
    def epoch(self) -> int:
        return self._replica.epoch

    @property
    def committed(self) -> int:
        return self._replica.committed

    @property
    def view_changes(self) -> int:
        return self._replica.view_changes

    # ------------------------------------------------------------------
    # Document shards
    # ------------------------------------------------------------------
    # Read-only views onto the default shard, the one document a
    # replicated group serves and a single-document embedder reads.
    @property
    def server(self) -> CssServer:
        return self.shards[self.doc_id].server

    @property
    def wal(self) -> ServerWriteAheadLog:
        return self.shards[self.doc_id].wal

    @property
    def channels(self) -> Dict[ReplicaId, _ClientChannel]:
        return self.shards[self.doc_id].sessions

    @property
    def _commit(self) -> Optional[int]:
        """The core's ``commit``: the quorum floor; ``None`` standalone."""
        return self._replica.committed if self.replicated else None

    @property
    def duplicates_suppressed(self) -> int:
        """Server-wide: the shards' own traffic counters, summed."""
        return sum(s.duplicates_suppressed for s in self.shards.values())

    def _wal_path(self, doc: str) -> Optional[str]:
        """Where ``doc``'s WAL file lives (``None`` without a ``wal_dir``)."""
        if self.wal_dir is None:
            return None
        return os.path.join(self.wal_dir, _doc_filename(doc))

    def _open_shard(self, doc: str) -> _DocShard:
        """Return the shard for ``doc``, opening it lazily — from its
        ``<wal_dir>/<doc>.wal`` when there is one (:class:`ShardCore`
        replays it and rebuilds a channel for every logged origin)."""
        shard = self.shards.get(doc)
        if shard is not None:
            return shard
        wal_path = self._wal_path(doc)
        fresh = wal_path is None or not os.path.exists(wal_path)
        if fresh:
            # A new document is the recovery of an empty log.
            wal = ServerWriteAheadLog(
                SERVER_ID,
                [],
                snapshot_every=self.snapshot_every,
                initial_text=self.initial_text,
            )
            if wal_path is not None:
                os.makedirs(self.wal_dir, exist_ok=True)
        else:
            wal = load_wal(wal_path)
        shard = _DocShard(doc, wal, wal_path, time.monotonic())
        if not fresh:
            self._log(
                f"document {doc!r}: recovered through serial "
                f"{wal.last_serial} from {wal_path} "
                f"({len(shard.sessions)} known clients)"
            )
        self.shards[doc] = shard
        return shard

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._asyncio_server.sockets[0].getsockname()[1]
        role = ""
        if self.replicated:
            role = (
                f" as {self.replica_id} "
                f"({'primary' if self.is_primary else 'backup'} of view "
                f"{self.view}, roster of {len(self.roster)})"
            )
        self._log(f"listening on {self.host}:{self.port}{role}")
        if self.replicated and self.is_primary:
            self._start_replication()
        self._gc_task = asyncio.ensure_future(self._gc_loop())

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def stop(self) -> None:
        self._closed.set()
        self._stop_replication()
        if self._gc_task is not None:
            self._gc_task.cancel()
            self._gc_task = None
        if self._failover_task is not None:
            self._failover_task.cancel()
            self._failover_task = None
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
        for channel in self._all_channels():
            self._hang_up(channel)
        for shard in self.shards.values():
            shard.close()

    def _log(self, text: str) -> None:
        self._logger.info("%s", text)

    # ------------------------------------------------------------------
    # Garbage collection and the envelopes that carry a shard's state
    # ------------------------------------------------------------------
    def _gc_shard(self, shard: _DocShard) -> None:
        """One GC pass over ``shard``, logged and gauged."""
        obs = self._obs
        rebased = shard.collect(
            time.monotonic(), self.gc_grace, self.gc_threshold, self._commit
        )
        if rebased is not None:
            base, floor, pruned = rebased
            nodes = shard.server.space.node_count()
            obs.trace(
                "net.gc", doc=shard.doc, floor=floor, pruned=pruned, nodes=nodes
            )
            self._log(
                f"document {shard.doc!r}: GC rebased {base} -> {floor} "
                f"({pruned} states pruned, {nodes} live nodes)"
            )
        if obs.enabled:
            obs.doc_space_nodes.labels(shard.doc).set(
                shard.server.space.node_count()
            )
            obs.serialized_order_len.labels(shard.doc).set(
                shard.server.oracle.last_serial - shard.server.base
            )
            obs.gc_floor.labels(shard.doc).set(shard.server.base)
            if shard.wal_path is not None and os.path.exists(shard.wal_path):
                obs.wal_bytes_on_disk.labels(shard.doc).set(
                    os.path.getsize(shard.wal_path)
                )

    async def _gc_loop(self) -> None:
        """The periodic active-window sweep (primary role only)."""
        try:
            while not self._closed.is_set():
                await asyncio.sleep(self.gc_interval)
                if not self.is_primary:
                    continue
                for shard in list(self.shards.values()):
                    self._gc_shard(shard)
        except asyncio.CancelledError:
            pass

    def _broadcast_envelope(
        self,
        channel: _ClientChannel,
        broadcast: ServerOperation,
        body: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """One data frame for a broadcast.

        The operation's origin gets its echo, ``(opid, serial)``: live,
        re-shipped by a resync or flushed at commit alike.  Every other
        recipient gets the compact body (context serial-encoded, prefix
        implied by the serial); ``body`` is the one built at serialise
        time and shared by every reader's frame, rebuilt from the log
        for a resync.  The frame carries the shard's GC ``floor`` so the
        client can trim its own mirror of the state space.
        """
        shard = channel.shard
        if broadcast.origin == channel.client:
            body = server_echo_obj(
                ServerEcho(broadcast.operation.opid, broadcast.serial)
            )
        elif body is None:
            ctx = compact_context(broadcast.operation, shard.server.oracle)
            body = compact_server_op_obj(broadcast, ctx)
        return encode_envelope(
            "data",
            seq=broadcast.serial,
            ack=shard.ack_for(channel, self._commit),
            epoch=self._replica.epoch,
            floor=shard.server.base,
            body=body,
        )

    def _ack_envelope(self, channel: _ClientChannel) -> Dict[str, Any]:
        """The (commit-gated) acknowledgement of ``channel``'s c->s frames."""
        shard = channel.shard
        return encode_envelope(
            "ack",
            ack=shard.ack_for(channel, self._commit),
            epoch=self._replica.epoch,
            floor=shard.server.base,
        )

    def _update_connection_gauges(self) -> None:
        obs = self._obs
        if obs.enabled:
            for doc, shard in self.shards.items():
                obs.net_connected_clients.labels(doc).set(shard.connected)
                obs.net_outbound_queue.labels(doc).set(
                    self._queued_frames(shard)
                )
            channels = self._all_channels()
            obs.net_parked_frames.set(sum(len(c.parked) for c in channels))
            obs.net_unacked_frames.set(
                sum(c.sender.outstanding for c in channels)
            )

    # ------------------------------------------------------------------
    # Overload armor: per-peer outbound queues, eviction, admission
    # ------------------------------------------------------------------
    def _all_channels(self) -> List[_ClientChannel]:
        return [
            c
            for shard in self.shards.values()
            for c in shard.sessions.values()
        ]

    def _live_connections(self) -> int:
        """Live sessions across every shard (the admission bound)."""
        return sum(shard.connected for shard in self.shards.values())

    def _queued_frames(self, shard: Optional[_DocShard] = None) -> int:
        """Outbound backlog of ``shard``'s per-peer queues, or of every shard's."""
        channels = self._all_channels() if shard is None else shard.sessions.values()
        return sum(c.outbound.depth for c in channels if c.outbound is not None)

    def _attach(
        self, channel: _ClientChannel, writer: asyncio.StreamWriter
    ) -> FrameSender:
        """Wrap a fresh connection's writer in a bounded outbound queue.

        A reconnect supersedes the stale socket: the old sender (and
        whatever backlog it still held — the WAL re-ships it) is
        aborted.  The failure callback runs in the writer task when a
        write errors or overruns the deadline; it performs the eviction
        bookkeeping there so the serialise path never blocks on it.
        """
        if channel.outbound is not None:
            channel.outbound.abort()
        channel.writer = writer
        sender = FrameSender(
            writer,
            capacity=self.outbound_queue,
            write_timeout=self.write_timeout,
            label=channel.client,
            doc=channel.shard.doc,
        )

        def on_failure(reason: str) -> None:
            if channel.writer is writer:
                channel.writer = None
                channel.outbound = None
                channel.disconnected_at = time.monotonic()
                self._record_eviction(channel, f"write failed: {reason}")

        sender.on_failure = on_failure
        channel.outbound = sender
        return sender

    def _hang_up(self, channel: _ClientChannel) -> None:
        """Drop the backlog and sever ``channel``'s connection, if any."""
        if channel.outbound is not None:
            channel.outbound.abort()
            channel.outbound = None
        if channel.writer is not None:
            channel.writer.close()
            channel.writer = None
            channel.disconnected_at = time.monotonic()

    def _record_eviction(self, channel: _ClientChannel, reason: str) -> None:
        self.evictions += 1
        self._obs.net_evictions.inc()
        self._obs.trace("net.evict", client=channel.client, reason=reason)
        self._log(f"evicting {channel.client}: {reason}")
        self._update_connection_gauges()

    def _evict(self, channel: _ClientChannel, reason: str) -> None:
        """Drop a slow consumer; the WAL makes the eviction lossless.

        The typed ``evicted`` notice is *force*-enqueued past the full
        queue and the sender told to flush-then-close: a merely-slow
        peer reads the backlog plus the notice and reconnects cleanly; a
        wedged one hits the write deadline and is aborted by the writer
        task.  Either way this call returns immediately — eviction never
        blocks the serialise/commit loops.
        """
        sender = channel.outbound
        if sender is None:
            return
        channel.writer = None
        channel.outbound = None
        channel.disconnected_at = time.monotonic()
        sender.on_failure = None  # bookkeeping happens here, exactly once
        sender.try_send(
            encode_envelope("evicted", reason=reason, epoch=self.epoch),
            force=True,
        )
        sender.close_soon()
        self._record_eviction(channel, reason)

    def _send_to(self, channel: _ClientChannel, envelope: Dict[str, Any]) -> None:
        """Enqueue one frame for a peer; queue overflow evicts the peer."""
        sender = channel.outbound
        if sender is None or channel.writer is None:
            return  # offline: the WAL re-ships on reconnect
        if not sender.try_send(envelope):
            self._evict(
                channel,
                f"outbound queue overflow ({sender.capacity} frames queued)",
            )

    async def _shed(
        self, writer: asyncio.StreamWriter, name: str, reason: str
    ) -> None:
        """Refuse admission: answer ``retry_after`` and hang up."""
        self.shed_connections += 1
        self._obs.net_shed.inc()
        self._obs.trace("net.shed", client=name, reason=reason)
        self._log(f"shedding {name}: {reason}")
        await self._turn_away(
            writer,
            encode_envelope(
                "retry_after", seconds=self.retry_after, reason=reason
            ),
        )

    async def _turn_away(
        self, writer: asyncio.StreamWriter, envelope: Dict[str, Any]
    ) -> None:
        """Answer a connection this server will not serve, and hang up."""
        try:
            await write_frame(writer, envelope, timeout=self.write_timeout)
        except (WireError, ConnectionError):
            pass
        writer.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # The idle deadline covers the *first* frame too.
        frame = await read_first_frame(reader, self.idle_timeout, self._log)
        if frame is None:
            writer.close()
            return
        if frame["type"] == "admin":
            await self._handle_admin(frame, writer)
            return
        if frame["type"] in _REPL_CALLS:
            await self._handle_repl(frame, reader, writer)
            return
        if frame["type"] != "hello":
            self._log(f"first frame must be hello/admin, got {frame['type']!r}")
            writer.close()
            return
        await self._handle_session(frame, reader, writer)

    async def _handle_session(
        self,
        hello: Dict[str, Any],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        # A doc-less hello (every pre-fleet client) lands on the default
        # document; fleet clients name their document explicitly.
        name, doc = hello.get("client"), hello.get("doc") or self.doc_id
        try:  # before any shard is opened or session registered
            named = isinstance(name, str) and isinstance(doc, str)
            if not named or name in ("", SERVER_ID):
                raise ProtocolError(f"invalid client {name!r} or doc {doc!r}")
            delivered = counter(hello.get("delivered", 0), "delivered")
            pin = counter(hello["pin"], "pin") if "pin" in hello else None
            epoch = counter(hello.get("epoch", 0), "epoch")
        except ProtocolError as exc:
            self._log(f"{name} violated the protocol: {exc}")
            writer.close()
            return
        if self.replicated and (not self.is_primary or epoch > self.epoch):
            # A backup (or a primary the client knows to be deposed)
            # points the client at the primary of its view and hangs up.
            await self._send_redirect(writer, name)
            return
        try:
            if self.replicated and doc != self.doc_id:
                # The quorum replicates exactly one document; other docs
                # belong to the fleet tier's standalone workers.
                raise ProtocolError(f"only {self.doc_id!r} is replicated")
            shard = self._open_shard(doc)
        except ProtocolError as exc:
            self._log(f"{name}: cannot open document {doc!r}: {exc}")
            writer.close()
            return
        # Admission control: shed excess load *before* registering the
        # client.  A reconnect superseding the same client's live socket
        # is never shed — it replaces a connection, it does not add one.
        existing = shard.sessions.get(name)
        supersedes = existing is not None and existing.writer is not None
        if not supersedes and self._live_connections() >= self.max_connections:
            await self._shed(
                writer,
                name,
                f"at the {self.max_connections}-connection limit",
            )
            return
        if self._queued_frames() > self.max_queued_frames:
            await self._shed(
                writer,
                name,
                f"outbound backlog above {self.max_queued_frames} frames",
            )
            return
        # The session speaks the one wire dialect (compact contexts, GC
        # pins, floor rebasing, multi batching); the hello negotiates
        # only the byte codec, and one without an offer is not a session.
        codec = negotiate_codec(hello.get("codecs"))
        if codec is None:
            self._log(f"{name}: rejecting hello — no codec offer")
            await self._turn_away(
                writer,
                encode_envelope(
                    "error",
                    reason="hello must offer a codecs list",
                    epoch=self.epoch,
                ),
            )
            return
        now = time.monotonic()
        channel = shard.register(name, now)
        sender = self._attach(channel, writer)
        sender.codec = codec
        cursor, state, missed = shard.resync(
            channel, delivered, pin, now, self._commit
        )
        if state is not None:
            self._obs.net_state_transfers.labels(doc).inc()
        welcome = encode_envelope(
            "welcome",
            server=SERVER_ID,
            doc=doc,
            ack=shard.ack_for(channel, self._commit),
            serial=shard.wal.last_serial,
            resync=len(missed),
            initial=self.initial_text,
            view=self.view,
            epoch=self.epoch,
            roster=roster_to_obj(self.roster) if self.replicated else [],
            codec=codec,
            floor=shard.server.base,
        )
        if state is not None:
            welcome["state"] = state
        await sender.send_wait(welcome)
        self._obs.trace(
            "net.connect",
            client=name,
            doc=doc,
            connect=channel.connects,
            cursor=cursor,
            resync=len(missed),
            codec=codec,
            transfer=state is not None,
        )
        self._update_connection_gauges()
        # Resync from durable state: re-ship everything after the cursor.
        # send_wait backpressures *this* connection task when the burst
        # outruns the queue — a healthy late joiner is never evicted for
        # the server's own resync burst.
        if missed:
            self._obs.net_resync_frames.inc(len(missed))
        for broadcast in missed:
            delivered_ok = await sender.send_wait(
                self._broadcast_envelope(channel, broadcast)
            )
            if not delivered_ok:
                break  # the peer died (or stalled out) mid-resync
        self._log(
            f"{name} connected (connect #{channel.connects}, "
            f"cursor {cursor}, resynced {len(missed)})"
        )
        # One idle timer per connection, not a task and a timer per frame: it
        # re-arms against when the loop last went to wait; overdue, it cancels.
        loop, session = asyncio.get_running_loop(), asyncio.current_task()
        idle, waiting_since, expired = self.idle_timeout, loop.time(), False

        def idle_check() -> None:
            nonlocal idle_timer, expired
            remaining = waiting_since + idle - loop.time()
            if remaining > 0:
                idle_timer = loop.call_later(remaining, idle_check)
            else:
                expired = True
                session.cancel()

        idle_timer = None if idle is None else loop.call_later(idle, idle_check)
        try:
            while True:
                waiting_since = loop.time()
                try:
                    frame = await read_frame(reader, doc=doc)
                except FrameTooLarge as exc:
                    # Reject the op, keep the session: drain the body so
                    # framing stays aligned, answer a typed error.
                    await drain_payload(reader, exc.length)
                    self.oversize_rejected += 1
                    self._obs.net_oversize_rejected.inc()
                    self._log(
                        f"{name}: rejecting oversized frame "
                        f"({exc.length} > {MAX_FRAME} bytes)"
                    )
                    self._send_to(
                        channel,
                        encode_envelope(
                            "error",
                            reason="frame too large",
                            length=exc.length,
                            limit=MAX_FRAME,
                            epoch=self.epoch,
                        ),
                    )
                    continue
                if frame is None or frame["type"] == "bye":
                    break
                await self._handle_frame(channel, frame)
        except (WireError, ConnectionError, asyncio.IncompleteReadError) as exc:
            self._log(f"{name} dropped: {exc}")
        except ProtocolError as exc:
            # A malformed or out-of-contract peer loses its connection;
            # the server and every other client keep running.
            self._log(f"{name} violated the protocol: {exc}")
        except asyncio.CancelledError:
            # Event-loop teardown while idle — or the idle timer: no frame (the
            # heartbeat included) for a whole window, a gone or slow-loris peer.
            if expired:
                self._evict(channel, f"idle past the {idle:.3f}s deadline")
        finally:
            if idle_timer is not None:
                idle_timer.cancel()
            if channel.writer is writer:
                channel.writer = None
                channel.disconnected_at = time.monotonic()
                if channel.outbound is sender:
                    channel.outbound = None
                    await sender.aclose()
            # Otherwise the connection was superseded or evicted: the
            # sender owns the writer and closes it after its final flush
            # (closing here would race the evicted-notice delivery).
            self._obs.trace("net.disconnect", client=name)
            self._update_connection_gauges()

    async def _handle_frame(
        self, channel: _ClientChannel, frame: Dict[str, Any]
    ) -> None:
        if not isinstance(frame, dict) or not isinstance(frame.get("type"), str):
            raise ProtocolError(f"not a frame: {frame!r}")
        kind = frame["type"]
        if kind == "multi":
            # The peer coalesced a burst; the members are ordinary
            # frames and are handled in order.
            members = frame.get("frames")
            if not isinstance(members, list):
                raise ProtocolError("a multi carries a list of frames")
            for member in members:
                await self._handle_frame(channel, member)
            return
        if "pin" in frame:
            channel.report_pin(counter(frame["pin"], "pin"))
        if kind == "ping":
            self._send_to(channel, encode_envelope("pong", t=frame.get("t")))
            return
        if kind != "data":
            self._log(f"{channel.client}: ignoring frame type {kind!r}")
            return
        seq = counter(frame.get("seq"), "seq")
        ack = counter(frame.get("ack", 0), "ack")
        if not isinstance(frame.get("body"), dict):
            raise ProtocolError("a data frame's body must be an object")
        released = channel.shard.accept(channel, seq, ack, frame["body"])
        for body in released:
            await self._serialise(channel, body)
        self._update_connection_gauges()
        if released and not self.replicated:
            return  # the last echo carries the ack, taken after accept
        # A frame that released nothing is acknowledged on its own: a
        # duplicate means an earlier ack was lost.  A replicated server
        # acknowledges only what its quorum committed.
        self._send_to(channel, self._ack_envelope(channel))

    async def _serialise(
        self, origin: _ClientChannel, body: Dict[str, Any]
    ) -> None:
        """The write path: decode, serialise, log (write-ahead), broadcast.

        Replicated: the broadcast frames are *parked* under their serial
        and the backups woken; :meth:`_flush_committed` releases them (and the
        origin's acknowledgement) once the core says a quorum has the
        record.
        """
        shard = origin.shard
        replicated = self.replicated
        if replicated and not self._replica.is_primary:
            # Deposed with this frame already in the session's read buffer
            # (closing a writer does not empty its reader).  The served
            # state is stale and the log may be the one an install just
            # handed over: write nothing.  The client still holds the op
            # and retransmits it to whoever leads.
            raise ConnectionError("this replica no longer leads")
        # A body of the wrong kind is refused by the CSS server itself.
        payload = message_from_wire(body, shard.server.oracle)
        now = time.monotonic()
        serial, ctx, outgoing = shard.serialise(
            origin,
            payload,
            self._replica.epoch,
            now,
            self.gc_grace,
            self._commit,
        )
        # CSS redirects one operation, one context, to every reader: one
        # body, built only if someone but the origin receives it.
        readers = [b for channel, b in outgoing if channel is not origin]
        body = compact_server_op_obj(readers[0], ctx) if readers else None
        frames = [
            (channel, self._broadcast_envelope(channel, broadcast, body))
            for channel, broadcast in outgoing
        ]
        if replicated:
            self._pending[serial] = (origin, frames)
            self._repl_wakeup.set()
            # A quorum of one commits now; else the backups' acks will.
            self._flush_committed(self._replica.appended())
            return
        # Synchronous fan-out through the per-peer bounded queues: a
        # stalled recipient overflows *its* queue and is evicted; it can
        # never head-of-line-block this loop or any healthy peer.
        for channel, envelope in frames:
            self._send_to(channel, envelope)

    # ------------------------------------------------------------------
    # Replication: primary write path
    # ------------------------------------------------------------------
    async def _send_redirect(
        self, writer: asyncio.StreamWriter, client: str
    ) -> None:
        core = self._replica
        index = core.ids.index(primary_for(core.view, core.ids))
        if index == self.replica_index:
            # The highest view I know is my own, yet I will not serve:
            # deposed by a promise to a view nobody has started, or the
            # client has seen a newer epoch.  There is no primary to name.
            # Hang up — the client walks the roster as it does past a
            # dead primary, until an install tells me who leads.
            writer.close()
            return
        host, port = self.roster[index]
        await self._turn_away(
            writer,
            encode_envelope(
                "redirect",
                view=core.view,
                epoch=core.epoch,
                primary=index,
                host=host,
                port=port,
                roster=roster_to_obj(self.roster),
            ),
        )
        self._obs.trace(
            "net.redirect", client=client, view=core.view, primary=index
        )

    def _start_replication(self) -> None:
        """Spawn one shipping task per backup (primary only)."""
        for index in range(len(self.roster)):
            task = self._backup_tasks.get(index)
            if index != self.replica_index and (task is None or task.done()):
                self._backup_tasks[index] = asyncio.ensure_future(
                    self._replicate_to(index)
                )

    def _stop_replication(self) -> None:
        for task in self._backup_tasks.values():
            task.cancel()
        self._backup_tasks.clear()

    async def _replicate_to(self, index: int) -> None:
        """Ship the log to one backup while this replica leads.

        Every (re)connect starts with a full-log ``repl_install`` — this
        doubles as the VSR start-view after an election and as state
        transfer for a backup that lagged behind the compaction floor —
        and then streams ``repl_append`` frames one ack at a time.
        """
        core = self._replica
        rid = core.ids[index]
        host, port = self.roster[index]
        attempt = 0
        while not self._closed.is_set() and core.is_primary:
            writer = None
            try:
                reader, writer = await asyncio.open_connection(host, port)
                frame = encode_envelope(
                    "repl_install", sender=core.me, **core.start_view()
                )
                while core.is_primary:
                    await write_frame(
                        writer, frame, timeout=self.write_timeout
                    )
                    shipped = await self._await_repl_ack(reader, rid)
                    if shipped is None:
                        return  # denied: deposed
                    attempt = 0
                    while shipped >= self.wal.last_serial:
                        self._repl_wakeup.clear()
                        await self._repl_wakeup.wait()
                    record = self.wal.record_at(shipped + 1)
                    if record is None:
                        break  # compacted past the backup: re-install
                    frame = encode_envelope(
                        "repl_append",
                        epoch=core.epoch,
                        committed=core.committed,
                        record=record,
                    )
            except asyncio.CancelledError:
                return
            except (OSError, ConnectionError, ProtocolError, EOFError) as exc:
                attempt += 1
                if attempt == 1:
                    self._log(f"replica {rid} unreachable: {exc}")
                await asyncio.sleep(min(0.25 * attempt, 2.0))
            finally:
                if writer is not None:
                    writer.close()

    async def _await_repl_ack(
        self, reader: asyncio.StreamReader, rid: ReplicaId
    ) -> Optional[int]:
        """The backup's answer: its acked serial, fed to the core — or
        ``None`` after a ``repl_deny``, which deposes this primary."""
        frame = await read_frame(reader)
        if frame is None:
            raise ConnectionError(f"replica {rid} closed the repl stream")
        if frame["type"] == "repl_deny":
            self._replica.stand_down(frame.get("view"))
            self._depose()
            return None
        if frame["type"] != "repl_ack":
            raise WireError(
                f"replica {rid}: expected repl_ack, got {frame['type']!r}"
            )
        serial = frame.get("serial")
        self._flush_committed(
            self._replica.record_ack(rid, serial, frame.get("epoch"))
        )
        return serial

    def _depose(self) -> None:
        """The core stopped leading (a higher view was installed here,
        promised here, or quoted by a backup): become a plain backup."""
        self._log(f"deposed: standing down to a backup of view {self.view}")
        self._stop_replication()
        self._pending.clear()
        # Hanging up makes every client walk the roster to the new primary;
        # their un-acknowledged frames are still buffered for retransmission.
        for channel in self.channels.values():
            self._hang_up(channel)
        self._arm_failover()  # the view that deposed me may never start

    def _flush_committed(self, newly: range) -> None:
        """Flush newly committed serials, in order: each one's parked
        broadcasts and its origin's acknowledgement."""
        adopted: Dict[int, ServerOperation] = {}
        for serial in newly:
            origin, frames = self._pending.pop(serial, (None, None))
            if frames is None:
                # No parked frames: a record adopted through a view
                # change.  Rebuild its broadcast from the log for every
                # connected client; duplicate suppression absorbs overlap
                # with the welcome resync.
                if not adopted:
                    missed = self.wal.broadcasts_for(self.server, serial - 1)
                    adopted = {b.serial: b for b in missed}
                broadcast = adopted[serial]
                origin = self.channels.get(broadcast.origin)
                frames = [
                    (channel, self._broadcast_envelope(channel, broadcast))
                    for channel in self.channels.values()
                ]
            for channel, envelope in frames:
                self._send_to(channel, envelope)
            if origin is not None:
                self._send_to(origin, self._ack_envelope(origin))
        if self._replica.adoption_certified():
            latency = time.monotonic() - self._failover_started
            self._obs.failover_latency.observe(latency)
            self._obs.trace(
                "repl.failover_complete",
                view=self.view,
                serial=self.committed,
                latency=round(latency, 6),
            )
            self._log(
                f"failover complete: view {self.view} committed through "
                f"serial {self.committed} in {latency:.3f}s"
            )

    # ------------------------------------------------------------------
    # Replication: backup feed and view changes
    # ------------------------------------------------------------------
    async def _handle_repl(
        self,
        first: Dict[str, Any],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Answer a peer replica: one ``repl_seek`` (promise + offer, or
        deny), or a primary's install/append stream (the backup role).

        The core validates each frame before it changes anything; a
        malformed one closes the connection *without* ``repl_deny`` — a
        deny says "a higher view exists" and deposes the sender, while a
        dropped feed only makes a primary re-install on its next dial.
        """
        core = self._replica
        frame: Optional[Dict[str, Any]] = first
        try:
            if not self.replicated:
                raise ProtocolError("this server is standalone")
            while frame is not None and frame.get("type") in _REPL_CALLS:
                call, fields = _REPL_CALLS[frame["type"]]
                reply = getattr(core, call)(*map(frame.get, fields))
                if reply.deposed:
                    self._depose()
                if reply.kind == "repl_ack":
                    # A backup keeps only the log current; its CSS server
                    # and sessions are rebuilt from it on promotion.
                    self.shards[self.doc_id].wal = core.log
                    self._primary_feed = writer
                    if call == "install":
                        self._log(
                            f"installed view {core.view}: log through "
                            f"serial {core.log.last_serial}, committed "
                            f"{core.committed}"
                        )
                await write_frame(
                    writer,
                    encode_envelope(reply.kind, **reply.fields),
                    timeout=self.write_timeout,
                )
                if reply.kind != "repl_ack":
                    break
                frame = await read_frame(reader)
        except (WireError, ConnectionError, asyncio.IncompleteReadError):
            pass
        except ProtocolError as exc:
            self._log(f"a peer violated the replication protocol: {exc}")
        except asyncio.CancelledError:
            pass
        finally:
            writer.close()
            if self._primary_feed is writer:
                self._primary_feed = None
                if not self._closed.is_set() and not self.is_primary:
                    self._log(
                        f"replication feed from the view-{self.view} primary "
                        "lost; arming failover"
                    )
                    self._arm_failover()

    def _arm_failover(self) -> None:
        if self._failover_task is None or self._failover_task.done():
            self._failover_task = asyncio.ensure_future(self._failover_watch())

    async def _failover_watch(self) -> None:
        """Deterministically staggered election: the round-robin successor
        tries first; each further-away successor waits one more
        ``failover_delay`` so concurrent candidacies cannot collide
        unless an earlier candidate is dead too."""
        core = self._replica
        detected = time.monotonic()
        while not (self._closed.is_set() or core.is_primary):
            if self._primary_feed is not None:
                return  # a new primary announced itself in time
            view_seen = core.view
            await asyncio.sleep(
                self.failover_delay * (core.next_led - view_seen)
            )
            if core.view != view_seen or self._primary_feed is not None:
                continue
            if await self._run_election(detected):
                return
            await asyncio.sleep(self.failover_delay)

    async def _run_election(self, detected: float) -> bool:
        """Stand for the next view this replica leads: gather offers,
        let the core adopt, rebuild the serving state, start shipping."""
        core = self._replica
        target = core.candidacy()
        offers = []
        for index, (host, port) in enumerate(self.roster):
            if index == self.replica_index:
                continue
            reply = await self._seek_offer(host, port, target)
            if reply is None:
                continue
            if reply["type"] == "repl_deny":
                self._log(
                    f"election for view {target} denied: view "
                    f"{reply.get('view')} already exists"
                )
                return False
            offers.append(reply)
        try:
            change = core.adopt(target, offers)
        except ProtocolError as exc:
            self._log(f"election for view {target} failed: {exc}")
            return False
        if change is None:
            self._log(
                f"election for view {target} abandoned with "
                f"{len(offers) + 1} of {core.quorum} required offers"
            )
            return False
        # Rebuild the serving state from the adopted log — the path a
        # standalone restart takes, so seq == serial survives the view change.
        for channel in self.channels.values():
            self._hang_up(channel)
        self.shards[self.doc_id] = _DocShard(
            self.doc_id, core.log, now=time.monotonic()
        )
        self._pending = {}
        self._primary_feed = None
        self._update_connection_gauges()
        self._log(
            f"view {target}: this replica is now the primary (adopted "
            f"{change.adopted_from}'s log through serial "
            f"{change.adopted_last}, re-proposed {len(change.reproposed)}, "
            f"committed {core.committed})"
        )
        self._failover_started = detected
        self._start_replication()
        self._flush_committed(core.appended())  # a quorum of one commits now
        return True

    async def _seek_offer(
        self, host: str, port: int, target: int
    ) -> Optional[Dict[str, Any]]:
        writer = None
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout=2.0
            )
            await write_frame(
                writer,
                encode_envelope(
                    "repl_seek", view=target, sender=self.replica_id
                ),
            )
            reply = await asyncio.wait_for(read_frame(reader), timeout=2.0)
        except (OSError, ConnectionError, WireError, asyncio.TimeoutError):
            return None
        finally:
            if writer is not None:
                writer.close()
        if reply is None or reply.get("type") not in ("repl_offer", "repl_deny"):
            return None
        return reply

    # ------------------------------------------------------------------
    # Admin plane (used by the load generator and operators)
    # ------------------------------------------------------------------
    async def _handle_admin(
        self, frame: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        command = frame.get("cmd")
        # An admin frame may name a document; without one it addresses
        # the default — which keeps every pre-fleet consumer working.
        doc = str(frame.get("doc") or self.doc_id)
        shard = self.shards.get(doc)
        error = f"document {doc!r} is not hosted here"
        if shard is None and command in ("signature", "stats"):
            # A document placed here whose clients have not said hello
            # yet (a fleet re-placement) is recovered from its WAL file;
            # a query never creates a document.
            wal_path = self._wal_path(doc)
            if wal_path is not None and os.path.exists(wal_path):
                try:
                    shard = self._open_shard(doc)
                except ProtocolError as exc:
                    error = f"cannot open document {doc!r}: {exc}"
        replication = {
            "replicated": self.replicated,
            "replica": self.replica_id,
            "role": "primary" if self.is_primary else "backup",
            "view": self.view,
            "epoch": self.epoch,
            "committed": self.committed,
            "view_changes": self.view_changes,
        }
        identity = {
            "doc_id": self.doc_id,
            "role": "primary" if self.is_primary else "backup",
            "uptime_seconds": round(time.monotonic() - self.started_at, 6),
            "docs_hosted": len(self.shards),
        }
        if command in ("signature", "stats") and shard is None:
            reply = encode_envelope(
                "admin_reply",
                error=error,
                docs=sorted(self.shards),
                **identity,
            )
        elif command == "signature":
            # A backup's CssServer is stale by design (only its WAL is
            # fed); rebuild one from the log so signatures are comparable
            # across roles.
            server = shard.server if self.is_primary else shard.wal.recover()
            reply = encode_envelope(
                "admin_reply",
                doc=doc,
                signature=document_signature(server.document),
                serial=shard.wal.last_serial,
                document=server.document.as_string(),
                **replication,
            )
        elif command == "stats":
            reply = encode_envelope(
                "admin_reply",
                doc=doc,
                serial=shard.wal.last_serial,
                replication=replication,
                clients={
                    name: {
                        "delivered": c.delivered,
                        "connects": c.connects,
                        "connected": c.writer is not None,
                        "pin": c.pin,
                    }
                    for name, c in sorted(shard.sessions.items())
                },
                gc={
                    "base": shard.server.base,
                    "runs": shard.gc_runs,
                    "states_pruned": shard.states_pruned,
                    "record_floor": shard.record_floor,
                    "space_nodes": shard.server.space.node_count(),
                    "snapshot_nodes": dict(shard.wal.snapshot_nodes),
                },
                frames_received=sum(
                    s.frames_received for s in self.shards.values()
                ),
                resync_frames_sent=sum(
                    s.resync_frames_sent for s in self.shards.values()
                ),
                duplicates_suppressed=self.duplicates_suppressed,
                overload={
                    "connections": self._live_connections(),
                    "max_connections": self.max_connections,
                    "queued_frames": self._queued_frames(),
                    "max_queued_frames": self.max_queued_frames,
                    "evictions": self.evictions,
                    "shed": self.shed_connections,
                    "oversize_rejected": self.oversize_rejected,
                },
                wal={
                    "appends": shard.wal.appends,
                    "compactions": shard.wal.compactions,
                    "records_truncated": shard.wal.records_truncated,
                },
                docs={
                    name: {
                        "serial": s.wal.last_serial,
                        "clients": len(s.sessions),
                        "connected": s.connected,
                        "frames_received": s.frames_received,
                        "resync_frames_sent": s.resync_frames_sent,
                        "duplicates_suppressed": s.duplicates_suppressed,
                        "uptime_seconds": round(
                            time.monotonic() - s.opened_at, 6
                        ),
                    }
                    for name, s in sorted(self.shards.items())
                },
                **identity,
            )
        else:
            reply = admin_reply(command, self._obs)
        await self._turn_away(writer, reply)
        if command == "shutdown":
            await self.stop()


# ----------------------------------------------------------------------
# Process entry point (the ``repro serve`` verb)
# ----------------------------------------------------------------------
def run_server(announce: bool = False, **options: Any) -> int:
    """Blocking entry point for ``repro serve``.

    ``options`` are :class:`NetServer`'s constructor arguments, passed
    through by name; ``announce`` prints the ``REPRO-SERVE`` banner once
    the listener is bound.
    """
    return run_listener(
        lambda: NetServer(**options),
        announce,
        "REPRO-SERVE",
        lambda server: {
            "host": server.host,
            "port": server.port,
            "replica": server.replica_id,
            "docs": sorted(server.shards),
        },
    )
