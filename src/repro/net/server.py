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
replica of a 2f+1 quorum group (:mod:`repro.jupiter.replication`):

* the **primary** of the current view serialises as above, but parks
  every broadcast frame and client acknowledgement until a quorum of
  ``f + 1`` replicas (itself included) has durably appended the record —
  an acknowledged operation therefore survives the loss of any ``f``
  replicas, the primary included;
* **backups** maintain a mirrored WAL fed over ``repl_append`` frames
  and answer client ``hello``\\ s with a ``redirect`` to the primary;
* when a backup loses its replication feed it waits a deterministic
  stagger (``failover_delay x views-until-my-turn``), gathers
  ``repl_offer`` promises from a quorum, adopts the log with the maximal
  ``(last_epoch, last_serial)``, re-stamps the uncommitted suffix under
  the new epoch, rebuilds the CSS server by WAL replay, and installs the
  adopted log on every reachable replica — the VSR view change, with the
  epoch in every frame rejecting whatever a deposed primary still ships.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import time
import urllib.parse
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.ids import SERVER_ID, ReplicaId
from repro.errors import ProtocolError
from repro.jupiter.css import CssServer
from repro.jupiter.messages import ClientOperation, ServerOperation
from repro.jupiter.persistence import (
    ServerWriteAheadLog,
    compact_context,
    load_wal,
    record_operation,
)
from repro.jupiter.replication import elect, primary_for, quorum_size
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
)
from repro.net.transport import (
    MAX_FRAME,
    OUTBOUND_QUEUE,
    WRITE_TIMEOUT,
    FrameSender,
    FrameTooLarge,
    drain_payload,
    read_frame,
    write_frame,
)
from repro.obs import get_obs

#: The server's named logger; silent unless the embedding process (the
#: ``repro serve`` CLI, a test harness) configures handlers and a level.
LOGGER = logging.getLogger("repro.net.server")


class _Deposed(Exception):
    """A replica quoted a higher view: this primary must stand down."""


class _Reinstall(Exception):
    """The backup lags behind the compaction floor: full-log install."""


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
        quiet: bool = True,
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
        self.quiet = quiet
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
        if self.roster is not None and not (
            0 <= replica_index < len(self.roster)
        ):
            raise ProtocolError(
                f"replica index {replica_index} outside roster of "
                f"{len(self.roster)}"
            )
        self.replica_index = replica_index
        self.replica_ids: List[ReplicaId] = (
            [f"{SERVER_ID}{i}" for i in range(len(self.roster))]
            if self.roster
            else []
        )
        self.failover_delay = failover_delay
        self.view = 0
        #: epochs equal view numbers; stamped into every replicated frame
        self.epoch = 0
        #: highest view this replica promised to (repl_seek): frames from
        #: lower epochs are rejected even before the new view installs
        self.promised = 0
        #: quorum commit floor — the highest serial on f+1 disks
        self.committed = 0
        self.view_changes = 0
        #: per-replica durable high-water marks (primary bookkeeping);
        #: a dead backup's last ack stays — its disk outlives the process
        self._repl_acked: Dict[ReplicaId, int] = {}
        #: serial -> (origin channel, per-channel broadcast frames) parked
        #: until commit
        self._pending: Dict[
            int,
            Tuple[_ClientChannel, List[Tuple[_ClientChannel, Dict[str, Any]]]],
        ] = {}
        self._backup_tasks: Dict[int, asyncio.Task] = {}
        self._repl_wakeup: Dict[int, asyncio.Event] = {}
        self._primary_feed: Optional[asyncio.StreamWriter] = None
        self._failover_task: Optional[asyncio.Task] = None
        self._failover_started: Optional[float] = None
        self._failover_target = 0
        self._commit_lock = asyncio.Lock()
        self._asyncio_server: Optional[asyncio.base_events.Server] = None
        self._closed = asyncio.Event()
        if self.replicated:
            self._obs.repl_commit_quorum.set(self.quorum)

    # ------------------------------------------------------------------
    # Replication roster
    # ------------------------------------------------------------------
    @property
    def replicated(self) -> bool:
        return self.roster is not None

    @property
    def replica_id(self) -> ReplicaId:
        if not self.replicated:
            return SERVER_ID
        return self.replica_ids[self.replica_index]

    @property
    def quorum(self) -> int:
        return quorum_size(len(self.roster)) if self.replicated else 1

    @property
    def is_primary(self) -> bool:
        """Standalone servers are trivially primary."""
        return (
            not self.replicated
            or primary_for(self.view, self.replica_ids) == self.replica_id
        )

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
        return self.committed if self.replicated else None

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
        else:
            wal = load_wal(wal_path)
        shard = _DocShard(doc, wal, wal_path, time.monotonic())
        if not fresh:
            self._log(
                f"document {doc!r}: recovered through serial "
                f"{wal.last_serial} from {wal_path} "
                f"({len(shard.sessions)} known clients)"
            )
        elif wal_path is not None:
            os.makedirs(self.wal_dir, exist_ok=True)
            shard.rewrite_disk()
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
                if self.replicated and not self.is_primary:
                    continue
                for shard in list(self.shards.values()):
                    self._gc_shard(shard)
        except asyncio.CancelledError:
            pass

    def _broadcast_envelope(
        self,
        channel: _ClientChannel,
        broadcast: ServerOperation,
        ctx: Optional[List[Any]] = None,
    ) -> Dict[str, Any]:
        """One data frame for a broadcast.

        The body is compact (context serial-encoded, prefix implied by
        the serial); ``ctx`` is the encoding computed at serialise time,
        recomputed for a resync.  The frame carries the shard's GC
        ``floor`` so the client can trim its own mirror of the state
        space.
        """
        shard = channel.shard
        if ctx is None:
            ctx = compact_context(broadcast.operation, shard.server.oracle)
        return encode_envelope(
            "data",
            seq=broadcast.serial,
            ack=shard.ack_for(channel, self._commit),
            epoch=self.epoch,
            floor=shard.server.base,
            body=compact_server_op_obj(broadcast, ctx),
        )

    def _ack_envelope(self, channel: _ClientChannel) -> Dict[str, Any]:
        """The (commit-gated) acknowledgement of ``channel``'s c->s frames."""
        shard = channel.shard
        return encode_envelope(
            "ack",
            ack=shard.ack_for(channel, self._commit),
            epoch=self.epoch,
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
        try:
            # The idle deadline covers the *first* frame too: a peer
            # that connects and never completes a hello (the classic
            # slow-loris admission attack) must not park a socket
            # forever.
            frame = await asyncio.wait_for(
                read_frame(reader), timeout=self.idle_timeout
            )
        except asyncio.TimeoutError:
            self._log(
                "dropping half-open connection: no first frame within "
                f"the {self.idle_timeout:.3f}s idle deadline"
            )
            writer.close()
            return
        except WireError as exc:
            self._log(f"rejecting connection: {exc}")
            writer.close()
            return
        if frame is None:
            writer.close()
            return
        if frame["type"] == "admin":
            await self._handle_admin(frame, writer)
            return
        if frame["type"] in ("repl_install", "repl_append"):
            await self._handle_repl_feed(frame, reader, writer)
            return
        if frame["type"] == "repl_seek":
            await self._handle_seek(frame, writer)
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
        name = str(hello.get("client", ""))
        if not name or name == SERVER_ID:
            self._log(f"invalid client name {name!r}")
            writer.close()
            return
        # A doc-less hello (every pre-fleet client) lands on the default
        # document; fleet clients name their document explicitly.
        doc = str(hello.get("doc") or self.doc_id)
        if self.replicated and (
            not self.is_primary or int(hello.get("epoch", 0)) > self.epoch
        ):
            # A backup (or a primary the client knows to be deposed)
            # points the client at the primary of its view and hangs up.
            await self._send_redirect(writer, name)
            return
        if self.replicated and doc != self.doc_id:
            # The quorum replicates exactly one document; other docs
            # belong to the fleet tier's standalone workers.
            self._log(
                f"{name}: rejecting hello for {doc!r} — a replicated "
                f"group serves only {self.doc_id!r}"
            )
            writer.close()
            return
        try:
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
        pin = int(hello["pin"]) if "pin" in hello else None
        cursor, state, missed = shard.resync(
            channel, int(hello.get("delivered", 0)), pin, now, self._commit
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
        try:
            while True:
                try:
                    frame = await asyncio.wait_for(
                        read_frame(reader, doc=doc), timeout=self.idle_timeout
                    )
                except asyncio.TimeoutError:
                    # No frame (the heartbeat included) for a whole idle
                    # window: the peer is gone or wedged mid-frame (the
                    # slow-loris shape) — evict it.
                    self._evict(
                        channel,
                        f"idle past the {self.idle_timeout:.3f}s deadline",
                    )
                    break
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
            pass  # event-loop teardown while the connection was idle
        finally:
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
        kind = frame["type"]
        if kind == "multi":
            # The peer coalesced a burst; the members are ordinary
            # frames and are handled in order.
            for member in frame.get("frames", ()):
                await self._handle_frame(channel, member)
            return
        if "pin" in frame:
            channel.report_pin(int(frame["pin"]))
        if kind == "ping":
            self._send_to(channel, encode_envelope("pong", t=frame.get("t")))
            return
        if kind != "data":
            self._log(f"{channel.client}: ignoring frame type {kind!r}")
            return
        for body in channel.shard.accept(
            channel, int(frame["seq"]), int(frame.get("ack", 0)), frame["body"]
        ):
            await self._serialise(channel, body)
        self._update_connection_gauges()
        # Always re-acknowledge: a duplicate means an earlier ack was lost.
        self._send_to(channel, self._ack_envelope(channel))

    async def _serialise(
        self, origin: _ClientChannel, body: Dict[str, Any]
    ) -> None:
        """The write path: decode, serialise, log (write-ahead), broadcast.

        Replicated: the broadcast frames are *parked* under their serial
        and the backups woken; :meth:`_advance_commit` releases them (and
        the origin's acknowledgement) once a quorum has the record.
        """
        shard = origin.shard
        payload = message_from_wire(body, shard.server.oracle)
        if not isinstance(payload, ClientOperation):
            raise ProtocolError(
                f"{origin.client}: client data frames must carry "
                f"ClientOperation, got {type(payload).__name__}"
            )
        now = time.monotonic()
        serial, ctx, outgoing = shard.serialise(
            origin, payload, self.epoch, now, self.gc_grace, self._commit
        )
        frames = [
            (channel, self._broadcast_envelope(channel, broadcast, ctx))
            for channel, broadcast in outgoing
        ]
        if self.replicated:
            self._pending[serial] = (origin, frames)
            for event in self._repl_wakeup.values():
                event.set()
            await self._advance_commit()  # a quorum of one commits now
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
        primary = primary_for(self.view, self.replica_ids)
        index = self.replica_ids.index(primary)
        host, port = self.roster[index]
        await self._turn_away(
            writer,
            encode_envelope(
                "redirect",
                view=self.view,
                epoch=self.epoch,
                primary=index,
                host=host,
                port=port,
                roster=roster_to_obj(self.roster),
            ),
        )
        self._obs.trace(
            "net.redirect", client=client, view=self.view, primary=index
        )

    def _start_replication(self) -> None:
        """Spawn one shipping task per backup (primary only)."""
        for index in range(len(self.roster)):
            if index == self.replica_index:
                continue
            task = self._backup_tasks.get(index)
            if task is not None and not task.done():
                continue
            self._repl_wakeup[index] = asyncio.Event()
            self._backup_tasks[index] = asyncio.ensure_future(
                self._replicate_to(index)
            )

    def _stop_replication(self) -> None:
        for task in self._backup_tasks.values():
            task.cancel()
        self._backup_tasks.clear()

    async def _replicate_to(self, index: int) -> None:
        """Ship the log to one backup, forever: install, then appends.

        Every (re)connect starts with a full-log ``repl_install`` — this
        doubles as the VSR start-view after an election and as state
        transfer for a backup that lagged behind the compaction floor —
        and then streams ``repl_append`` frames one ack at a time.
        """
        rid = self.replica_ids[index]
        host, port = self.roster[index]
        wakeup = self._repl_wakeup[index]
        attempt = 0
        while not self._closed.is_set():
            view_at_start = self.view
            writer = None
            try:
                reader, writer = await asyncio.open_connection(host, port)
                await write_frame(
                    writer,
                    encode_envelope(
                        "repl_install",
                        view=self.view,
                        epoch=self.epoch,
                        committed=self.committed,
                        sender=self.replica_id,
                        log=self.wal.to_obj(),
                    ),
                    timeout=self.write_timeout,
                )
                shipped = await self._await_repl_ack(reader, rid)
                attempt = 0
                while self.view == view_at_start:
                    while shipped < self.wal.last_serial:
                        record = self.wal.record_at(shipped + 1)
                        if record is None:
                            raise _Reinstall()  # compacted past the backup
                        await write_frame(
                            writer,
                            encode_envelope(
                                "repl_append",
                                epoch=self.epoch,
                                committed=self.committed,
                                record=record,
                            ),
                            timeout=self.write_timeout,
                        )
                        shipped = await self._await_repl_ack(reader, rid)
                    wakeup.clear()
                    if shipped >= self.wal.last_serial:
                        await wakeup.wait()
            except _Reinstall:
                continue
            except _Deposed as exc:
                self._depose(int(exc.args[0]))
                return
            except asyncio.CancelledError:
                return
            except (OSError, ConnectionError, WireError, EOFError) as exc:
                attempt += 1
                if attempt == 1:
                    self._log(f"replica {rid} unreachable: {exc}")
                await asyncio.sleep(min(0.25 * attempt, 2.0))
            finally:
                if writer is not None:
                    writer.close()

    async def _await_repl_ack(
        self, reader: asyncio.StreamReader, rid: ReplicaId
    ) -> int:
        frame = await read_frame(reader)
        if frame is None:
            raise ConnectionError(f"replica {rid} closed the repl stream")
        if frame["type"] == "repl_deny":
            raise _Deposed(int(frame.get("view", self.view + 1)))
        if frame["type"] != "repl_ack":
            raise WireError(
                f"replica {rid}: expected repl_ack, got {frame['type']!r}"
            )
        serial = int(frame.get("serial", 0))
        if int(frame.get("epoch", self.epoch)) == self.epoch:
            if serial > self._repl_acked.get(rid, 0):
                self._repl_acked[rid] = serial
            await self._advance_commit()
        return serial

    def _depose(self, new_view: int) -> None:
        """A quorum moved on without us: stand down to backup."""
        if new_view <= self.view:
            new_view = self.view + 1
        self._log(
            f"deposed: view {new_view} exists, stepping down from view "
            f"{self.view}"
        )
        self.view = new_view
        self.epoch = max(self.epoch, new_view)
        self.promised = max(self.promised, new_view)
        self._stop_replication()
        self._pending.clear()
        # Hanging up makes every client walk the roster to the new
        # primary; nothing un-acknowledged is lost — their frames are
        # still buffered for retransmission.
        for channel in self.channels.values():
            self._hang_up(channel)

    async def _advance_commit(self) -> None:
        """Recompute the quorum floor and flush newly committed serials."""
        if not self.replicated or not self.is_primary:
            return
        async with self._commit_lock:
            acked = {rid: 0 for rid in self.replica_ids}
            acked.update(self._repl_acked)
            acked[self.replica_id] = self.wal.last_serial
            floor = sorted(acked.values(), reverse=True)[self.quorum - 1]
            while self.committed < floor:
                serial = self.committed + 1
                self.committed = serial
                await self._flush_committed(serial)
            self._obs.repl_commit_floor.set(self.committed)
            if (
                self._failover_started is not None
                and self.committed >= self._failover_target
            ):
                latency = time.monotonic() - self._failover_started
                self._failover_started = None
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

    async def _flush_committed(self, serial: int) -> None:
        """Release the parked broadcasts and origin ack for one serial."""
        origin, frames = self._pending.pop(serial, (None, None))
        if frames is None:
            # No parked frames: a record adopted through a view change.
            # Rebuild its broadcast from the log and ship it to every
            # connected client; duplicate suppression absorbs overlap
            # with the welcome resync.
            record = self.wal.record_at(serial)
            if record is None:
                raise ProtocolError(
                    f"commit floor reached serial {serial} but the record "
                    "was compacted; the commit-floor clamp is broken"
                )
            broadcast = ServerOperation(
                operation=record_operation(record, self.server.oracle),
                origin=record["origin"],
                serial=serial,
                prefix=self.server.oracle.serialized_before(serial),
            )
            origin = self.channels.get(record["origin"])
            ctx = record.get("ctx")
            frames = [
                (channel, self._broadcast_envelope(channel, broadcast, ctx))
                for channel in self.channels.values()
            ]
        for channel, envelope in frames:
            self._send_to(channel, envelope)
        if origin is not None:
            self._send_to(origin, self._ack_envelope(origin))

    # ------------------------------------------------------------------
    # Replication: backup feed and view changes
    # ------------------------------------------------------------------
    async def _handle_repl_feed(
        self,
        first: Dict[str, Any],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one primary's install/append stream (the backup role)."""
        if not self.replicated:
            self._log("rejecting repl frame: this server is standalone")
            writer.close()
            return
        frame: Optional[Dict[str, Any]] = first
        try:
            while frame is not None:
                kind = frame.get("type")
                if kind == "repl_install":
                    accepted = self._install_log(frame)
                elif kind == "repl_append":
                    accepted = self._append_record(frame)
                else:
                    break
                if not accepted:
                    await write_frame(
                        writer,
                        encode_envelope(
                            "repl_deny", view=max(self.view, self.promised)
                        ),
                        timeout=self.write_timeout,
                    )
                    break
                self._primary_feed = writer
                await write_frame(
                    writer,
                    encode_envelope(
                        "repl_ack",
                        serial=self.wal.last_serial,
                        epoch=self.epoch,
                    ),
                    timeout=self.write_timeout,
                )
                frame = await read_frame(reader)
        except (WireError, ConnectionError, asyncio.IncompleteReadError):
            pass
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
                    self._schedule_failover()

    def _install_log(self, frame: Dict[str, Any]) -> bool:
        view = int(frame.get("view", 0))
        if view < max(self.view, self.promised):
            self._obs.repl_stale_rejected.inc()
            return False
        new_view = view != self.view
        self.view = view
        self.epoch = int(frame.get("epoch", view))
        self.promised = max(self.promised, view)
        log = ServerWriteAheadLog.from_obj(frame["log"])
        # A backup keeps only the log current; its CSS server and
        # sessions are rebuilt from it on promotion.
        self.shards[self.doc_id].wal = log
        self.committed = max(self.committed, int(frame.get("committed", 0)))
        self._obs.repl_appends.inc(len(log.records))
        if new_view:
            self._log(
                f"installed view {view}: log through serial "
                f"{log.last_serial}, committed {self.committed}"
            )
        return True

    def _append_record(self, frame: Dict[str, Any]) -> bool:
        epoch = int(frame.get("epoch", -1))
        if epoch != self.epoch or self.promised > self.epoch:
            self._obs.repl_stale_rejected.inc()
            return False
        record = frame["record"]
        serial = int(record["serial"])
        if serial > self.wal.last_serial:
            origin = str(record["origin"])
            if origin not in self.wal.clients:
                # Client registrations are not shipped separately; a
                # backup learns each origin from its first replicated
                # record so that after a promotion `_become_primary`
                # rebuilds a channel (receiver fast-forwarded past the
                # origin's logged operations) for every such client.
                self.wal.clients.append(origin)
            # Stored verbatim: a compact-context record can only be
            # decoded against an oracle that witnessed the serials below
            # it, which a backup does not run — it stores the certified
            # bytes and decodes on promotion, when recovery rebuilds one.
            self.wal.append_record(dict(record))
            self._obs.repl_appends.inc()
        self.committed = max(self.committed, int(frame.get("committed", 0)))
        return True

    async def _handle_seek(
        self, frame: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        """Answer a view-change candidate: promise + offer, or deny."""
        view = int(frame.get("view", 0))
        if not self.replicated or view <= max(self.view, self.promised):
            self._obs.repl_stale_rejected.inc()
            reply = encode_envelope(
                "repl_deny", view=max(self.view, self.promised)
            )
        else:
            self.promised = view
            reply = encode_envelope(
                "repl_offer",
                view=view,
                replica=self.replica_id,
                last_epoch=self.wal.last_epoch,
                last_serial=self.wal.last_serial,
                committed=self.committed,
                log=self.wal.to_obj(),
            )
        await self._turn_away(writer, reply)

    def _schedule_failover(self) -> None:
        if self._failover_task is None or self._failover_task.done():
            self._failover_task = asyncio.ensure_future(self._failover_watch())

    async def _failover_watch(self) -> None:
        """Deterministically staggered election: the round-robin successor
        tries first; each further-away successor waits one more
        ``failover_delay`` so concurrent candidacies cannot collide
        unless an earlier candidate is dead too."""
        detected = time.monotonic()
        while not self._closed.is_set() and not self.is_primary:
            view_seen = self.view
            target = self.view + 1
            while primary_for(target, self.replica_ids) != self.replica_id:
                target += 1
            await asyncio.sleep(self.failover_delay * (target - view_seen))
            if self.view != view_seen or self._primary_feed is not None:
                return  # a new primary announced itself in time
            if await self._run_election(target, detected):
                return
            await asyncio.sleep(self.failover_delay)

    async def _run_election(self, target: int, detected: float) -> bool:
        """Gather a quorum of offers for view ``target`` and take over."""
        offers: Dict[ReplicaId, Tuple[int, int]] = {
            self.replica_id: (self.wal.last_epoch, self.wal.last_serial)
        }
        logs: Dict[ReplicaId, ServerWriteAheadLog] = {}
        committed = self.committed
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
            rid = str(reply["replica"])
            offers[rid] = (
                int(reply["last_epoch"]),
                int(reply["last_serial"]),
            )
            logs[rid] = ServerWriteAheadLog.from_obj(reply["log"])
            committed = max(committed, int(reply.get("committed", 0)))
        if len(offers) < self.quorum:
            self._log(
                f"election for view {target} failed: {len(offers)} of "
                f"{self.quorum} required offers"
            )
            return False
        winner = elect(offers)
        adopted = self.wal if winner == self.replica_id else logs[winner]
        adopted_last = adopted.last_serial
        if adopted_last < committed:
            raise ProtocolError(
                "quorum intersection violated: the adopted log ends at "
                f"serial {adopted_last} but {committed} is committed"
            )
        self.view = target
        self.epoch = target
        self.promised = target
        self.committed = committed
        # Re-stamp the uncommitted suffix under the new epoch: these are
        # the re-proposed records a deposed primary can no longer touch.
        reproposed = 0
        for record in adopted.records:
            if int(record["serial"]) > committed:
                record["epoch"] = target
                reproposed += 1
        if reproposed:
            adopted.last_epoch = target
        self._become_primary(adopted)
        self.view_changes += 1
        self._obs.view_changes.inc()
        self._obs.trace(
            "repl.view_change",
            view=target,
            primary=self.replica_id,
            adopted_from=winner,
            adopted_last=adopted_last,
            reproposed=reproposed,
        )
        self._log(
            f"view {target}: this replica is now the primary (adopted "
            f"{winner}'s log through serial {adopted_last}, "
            f"re-proposed {reproposed}, committed {committed})"
        )
        self._failover_started = detected
        self._failover_target = adopted_last
        self._repl_acked = {}
        self._start_replication()
        await self._advance_commit()  # a quorum of one commits immediately
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

    def _become_primary(self, adopted: ServerWriteAheadLog) -> None:
        """Install the adopted log and rebuild the serving state from it
        (a new :class:`ShardCore`, the path a standalone restart takes —
        so the seq==serial invariant survives the view change)."""
        for channel in self.channels.values():
            self._hang_up(channel)
        self.shards[self.doc_id] = _DocShard(self.doc_id, adopted, now=time.monotonic())
        self._pending = {}
        self._primary_feed = None
        self._update_connection_gauges()

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
            server = (
                shard.server
                if not self.replicated or self.is_primary
                else shard.wal.recover()
            )
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
        elif command == "metrics":
            obs = self._obs
            reply = encode_envelope(
                "admin_reply",
                enabled=obs.enabled,
                exposition=obs.render(),
                snapshot=obs.snapshot(),
            )
        elif command == "shutdown":
            reply = encode_envelope("admin_reply", stopping=True)
            await self._turn_away(writer, reply)
            await self.stop()
            return
        else:
            reply = encode_envelope(
                "admin_reply", error=f"unknown admin command {command!r}"
            )
        await self._turn_away(writer, reply)


# ----------------------------------------------------------------------
# Process entry point (the ``repro serve`` verb)
# ----------------------------------------------------------------------
async def _serve(announce: bool, **options: Any) -> int:
    server = NetServer(**options)
    await server.start()
    if announce:
        # One machine-parseable line; the load generator reads this to
        # discover the ephemeral port.
        print(
            "REPRO-SERVE "
            + json.dumps(
                {
                    "host": server.host,
                    "port": server.port,
                    "replica": server.replica_id,
                    "docs": sorted(server.shards),
                }
            ),
            flush=True,
        )
    await server.wait_closed()
    return 0


def run_server(
    announce: bool = False, quiet: bool = False, **options: Any
) -> int:
    """Blocking entry point for ``repro serve``.

    ``options`` are :class:`NetServer`'s constructor arguments, passed
    through by name (``quiet`` is spelled out because a served process
    logs by default, an embedded server does not); ``announce`` prints
    the ``REPRO-SERVE`` banner once the listener is bound.
    """
    try:
        return asyncio.run(_serve(announce, quiet=quiet, **options))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0
