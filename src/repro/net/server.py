"""The deployed CSS server: a real TCP listener around the server core.

One :class:`NetServer` drives the same
:class:`~repro.jupiter.server_core.ServerCore` the simulator drives, from
asyncio connections instead of simulated events.  The core decides a
session's hello, welcome, frames and acknowledgements (the connection
lifecycle is in its docstring), the write path, the commit gate and,
with its :class:`~repro.jupiter.replication.Replica`, every replication
decision; this module keeps the asyncio:

* the **primary** sends what the core releases and runs one shipping
  task per backup (dial, full-log ``repl_install``, then ``repl_append``
  one ack at a time, backoff) — only while the core says it leads; each
  ack goes to the core, and the serials it certifies are released;
* a **backup** hands each ``repl_install`` / ``repl_append`` / ``repl_seek``
  to the core and writes back the reply it returns (a frame the core
  refuses as malformed closes the connection, typed, nothing changed),
  and answers client ``hello``\\ s with the ``redirect`` the core decides;
* a backup that loses its feed sleeps a deterministic stagger
  (``failover_delay x views-until-my-turn``), stands for the next view
  it leads, carries ``repl_seek`` / ``repl_offer`` between the cores and,
  if the core elected it, hangs up the old sessions and starts shipping;
* whatever makes the core stop leading (a higher view installed or
  promised here, a ``repl_deny`` from a backup) runs one cleanup: stop
  shipping, drop what is parked, hang up the clients (the core refuses a
  frame still buffered on a hung-up session), arm the failover watch.
"""

from __future__ import annotations

import asyncio
import logging
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.ids import SERVER_ID, ReplicaId
from repro.errors import ProtocolError
from repro.jupiter.css import CssServer
from repro.jupiter.messages import ServerEcho, ServerOperation
from repro.jupiter.persistence import ServerWriteAheadLog
from repro.jupiter.replication import Replica
from repro.jupiter.server_core import (
    Answer,
    Redirect,
    Release,
    ServerCore,
    open_shard,
    wal_file,
)
from repro.jupiter.shard import Session, ShardCore
from repro.net.codec import (
    DEFAULT_DOC,
    WireError,
    compact_server_op_obj,
    document_signature,
    encode_envelope,
    message_from_wire,
    roster_to_obj,
    server_echo_obj,
)
from repro.net.transport import (
    MAX_FRAME,
    OUTBOUND_QUEUE,
    WRITE_TIMEOUT,
    FrameProtocol,
    FrameSender,
    FrameTooLarge,
    admin_reply,
    call,
    dial,
    read_first_frame,
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

    #: bounded outbound queue into the live connection; all frames to
    #: this peer flow through it so one stalled socket never blocks the
    #: serialise/commit/broadcast loops
    outbound: Optional[FrameSender] = None

    @property
    def writer(self) -> Optional[FrameProtocol]:
        """The live connection, ``None`` while offline."""
        return None if self.outbound is None else self.outbound.writer


class _DocShard(ShardCore):
    """The core as this shell hosts it: its sessions carry their sockets."""

    session_type = _ClientChannel


class NetServer:
    """Serve CSS documents over TCP — one or many behind one listener.

    This class is the asyncio shell: listener, admission, per-peer
    queues and eviction, the idle timer, the replication transport and
    the admin plane.  What a server *decides* is its
    :class:`~repro.jupiter.server_core.ServerCore`: frames become core
    calls here and their results become sends.  Hosting many
    documents (the fleet tier's worker role) shares admission and the
    overload accounting across them, because sockets and memory are.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        initial_text: str = "",
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
        # -- documents and replication ---------------------------------
        #: the default document — what a doc-less ``hello`` lands on
        self.doc_id = str(doc_id)
        if wal_dir is not None and roster:
            raise ProtocolError(
                "wal_dir persistence is for standalone (fleet) workers; "
                "a replicated group's durability is the quorum"
            )
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
        self._obs = get_obs()
        self._logger = LOGGER
        self.started_at = time.monotonic()
        shard = open_shard(
            _DocShard, self.doc_id, wal_file(wal_dir, self.doc_id),
            self.started_at, initial_text,
        )
        #: every replication decision — view, epoch, promise, commit
        #: floor, log adoption — is the replica core's; the documents,
        #: sessions, write path, commit gate, election and restart are
        #: the server core's (a standalone server: a roster of one, unasked)
        self._replica = Replica(ids, ids[replica_index], shard.wal)
        self._core = ServerCore(
            shard, self._replica, self.replicated, wal_dir=wal_dir,
            initial_text=initial_text,
        )
        self._backup_tasks: Dict[int, asyncio.Task] = {}
        #: set when the log grew; every shipping task re-reads the log
        #: head after clearing it, so one event serves them all
        self._repl_wakeup = asyncio.Event()
        self._primary_feed: Optional[FrameProtocol] = None
        self._failover_task: Optional[asyncio.Task] = None
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
    # Read-only views onto the core's documents, and onto the default
    # shard, the one a replicated group serves and a single-document
    # embedder reads.
    @property
    def shards(self) -> Dict[str, _DocShard]:
        return self._core.shards

    @property
    def server(self) -> CssServer:
        return self._core.shard.server

    @property
    def wal(self) -> ServerWriteAheadLog:
        return self._core.shard.wal

    @property
    def channels(self) -> Dict[ReplicaId, _ClientChannel]:
        return self._core.shard.sessions

    @property
    def duplicates_suppressed(self) -> int:
        """Server-wide: the shards' own traffic counters, summed."""
        return sum(s.duplicates_suppressed for s in self.shards.values())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._asyncio_server = await asyncio.get_running_loop().create_server(
            lambda: FrameProtocol(self._handle_connection), self.host, self.port
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
            time.monotonic(), self.gc_grace, self.gc_threshold, self._core.commit
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

        The operation's origin gets its echo, ``(opid, serial)``: released
        or re-shipped by a resync alike.  Every other recipient gets the
        form ``o{L}`` the operation executed as, at the serial before its
        own; ``body`` is the one built per release and shared by every
        reader's frame, rebuilt from the space for a resync.
        """
        if broadcast.origin == channel.client:
            body = server_echo_obj(
                ServerEcho(broadcast.operation.opid, broadcast.serial)
            )
        elif body is None:
            executed = channel.shard.server.executed_at(broadcast.serial)
            body = compact_server_op_obj(broadcast, executed)
        return self._stamped("data", channel, seq=broadcast.serial, body=body)

    def _stamped(
        self, kind: str, channel: _ClientChannel, **fields: Any
    ) -> Dict[str, Any]:
        """A frame to ``channel`` carrying the core's stamp."""
        return encode_envelope(kind, **self._core.stamp(channel), **fields)

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

    def _attach(self, channel: _ClientChannel, link: FrameProtocol) -> FrameSender:
        """Wrap a fresh connection in a bounded outbound queue.

        A reconnect supersedes the stale socket: the old sender (and
        whatever backlog it still held — the WAL re-ships it) is
        aborted.  The failure callback runs in the flush when a write
        errors or overruns the deadline; it performs the eviction
        bookkeeping there so the serialise path never blocks on it.
        """
        if channel.outbound is not None:
            channel.outbound.abort()

        def on_failure(reason: str) -> None:
            if channel.outbound is sender:
                channel.outbound = None
                channel.disconnected_at = time.monotonic()
                self._record_eviction(channel, f"write failed: {reason}")

        channel.outbound = sender = FrameSender(
            link,
            capacity=self.outbound_queue,
            write_timeout=self.write_timeout,
            on_failure=on_failure,
            doc=channel.shard.doc,
        )
        return sender

    def _hang_up(self, channel: _ClientChannel) -> None:
        """Drop the backlog and sever ``channel``'s connection, if any."""
        if channel.outbound is not None:
            channel.outbound.abort()
            channel.outbound = None
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
        wedged one hits the write deadline and is aborted by the
        sender.  Either way this call returns immediately — eviction
        never blocks the serialise/commit loops.
        """
        sender = channel.outbound
        if sender is None:
            return
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
        if sender is None:
            return  # offline: the WAL re-ships on reconnect
        if not sender.try_send(envelope):
            self._evict(
                channel,
                f"outbound queue overflow ({sender.capacity} frames queued)",
            )

    async def _turn_away(self, link: FrameProtocol, envelope: Dict[str, Any]) -> None:
        """Answer a connection this server will not serve, and hang up."""
        try:
            await write_frame(link, envelope, timeout=self.write_timeout)
        except (WireError, ConnectionError):
            pass
        link.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, link: FrameProtocol) -> None:
        # The idle deadline covers the *first* frame too.
        frame = await read_first_frame(link, self.idle_timeout, self._log)
        if frame is None:
            link.close()
        elif frame["type"] == "admin":
            await self._handle_admin(frame, link)
        elif frame["type"] in _REPL_CALLS:
            await self._handle_repl(frame, link)
        elif frame["type"] == "hello":
            await self._handle_session(frame, link)
        else:
            self._log(f"first frame must be hello/admin, got {frame['type']!r}")
            link.close()

    async def _handle_session(
        self, hello: Dict[str, Any], link: FrameProtocol
    ) -> None:
        name = hello.get("client")
        try:  # before any session is registered
            accepted = self._core.hello(hello, time.monotonic())
        except ProtocolError as exc:
            self._log(f"{name} violated the protocol: {exc}")
            link.close()
            return
        if isinstance(accepted, Redirect):
            # Point the client at its view's primary; with none to name, just
            # hang up: it walks the roster until an install says who leads.
            view, epoch, index = accepted
            if index is not None:
                host, port = self.roster[index]
                roster = roster_to_obj(self.roster)
                await self._turn_away(link, encode_envelope(
                    "redirect", view=view, epoch=epoch, primary=index,
                    host=host, port=port, roster=roster,
                ))
                self._obs.trace("net.redirect", client=name, view=view, primary=index)
            link.close()
            return
        shard, doc = accepted.shard, accepted.shard.doc
        # Admission control: shed excess load *before* registering the
        # client.  A reconnect superseding the same client's live socket
        # is never shed — it replaces a connection, it does not add one.
        existing = shard.sessions.get(name)
        supersedes = existing is not None and existing.writer is not None
        if not supersedes and self._live_connections() >= self.max_connections:
            reason = f"at the {self.max_connections}-connection limit"
        elif self._queued_frames() > self.max_queued_frames:
            reason = f"outbound backlog above {self.max_queued_frames} frames"
        else:
            reason = None
        if reason is not None:  # refuse admission: answer retry_after
            self.shed_connections += 1
            self._obs.net_shed.inc()
            self._obs.trace("net.shed", client=name, reason=reason)
            self._log(f"shedding {name}: {reason}")
            await self._turn_away(link, encode_envelope(
                "retry_after", seconds=self.retry_after, reason=reason
            ))
            return
        welcome = self._core.welcome(accepted, time.monotonic())
        channel, cursor, state, missed, fields = welcome
        link.doc = doc
        sender = self._attach(channel, link)
        roster = roster_to_obj(self.roster) if self.replicated else []
        reply = encode_envelope("welcome", **fields, roster=roster)
        if state is not None:
            reply["state"] = state
        await sender.send_wait(reply)
        self._obs.trace(
            "net.connect", client=name, doc=doc, connect=channel.connects,
            cursor=cursor, resync=len(missed), transfer=state is not None,
        )
        self._update_connection_gauges()
        # Resync from durable state: re-ship everything after the cursor.
        # send_wait backpressures *this* connection's task when the burst
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
        # From here each frame reaches the core from the callback that
        # received it, until the connection ends (EOF, ``bye``, a refused
        # frame, a reset, the idle deadline, a hang-up).  Frames that came
        # before waited in the link's buffer: no retransmit lands inside
        # the resync.  One idle timer per connection re-arms against the
        # last frame's arrival; overdue (no frame, not even the heartbeat,
        # for a whole window: a gone or slow-loris peer), it evicts.
        loop = asyncio.get_running_loop()
        idle, idle_timer = self.idle_timeout, None

        def idle_check() -> None:
            nonlocal idle_timer
            remaining = link.frame_at + idle - loop.time()
            if remaining > 0:
                idle_timer = loop.call_later(remaining, idle_check)
            else:
                idle_timer = None
                self._evict(channel, f"idle past the {idle:.3f}s deadline")
                link.end()

        def on_frame(frame: Dict[str, Any]) -> None:
            if frame["type"] == "bye":
                link.end()
            else:
                self._serialise(channel, frame)

        def on_oversized(exc: FrameTooLarge) -> None:
            # Reject the op, keep the session (its body is skipped).
            self.oversize_rejected += 1
            self._obs.net_oversize_rejected.inc()
            self._log(
                f"{name}: rejecting oversized frame ({exc.length} > {MAX_FRAME} bytes)"
            )
            self._send_to(channel, encode_envelope(
                "error", reason="frame too large", length=exc.length,
                limit=MAX_FRAME, epoch=self.epoch,
            ))

        def on_end(exc: Optional[BaseException]) -> None:
            # A malformed or out-of-contract peer loses its connection;
            # the server and every other client keep running.
            if isinstance(exc, ProtocolError) and not isinstance(exc, WireError):
                self._log(f"{name} violated the protocol: {exc}")
            elif exc is not None:
                self._log(f"{name} dropped: {exc}")
            if idle_timer is not None:
                idle_timer.cancel()
            if channel.outbound is sender:
                channel.outbound = None
                channel.disconnected_at = time.monotonic()
                sender.close_soon()
            # Otherwise the connection was superseded or evicted: its
            # sender closes the link after its final flush.
            self._obs.trace("net.disconnect", client=name)
            self._update_connection_gauges()

        if idle is not None:
            idle_timer = loop.call_later(idle, idle_check)
        link.start(on_frame, on_end, on_oversized)

    def _serialise(self, channel: _ClientChannel, frame: Dict[str, Any]) -> None:
        """The write path: one client frame through the core (the wire
        decode handed in); what it makes due leaves, the backups woken."""
        dues = self._core.receive(channel, frame, message_from_wire)
        for due in dues:
            if not isinstance(due, Answer):
                self._release(due)
                if self.replicated:
                    self._repl_wakeup.set()
            elif due.kind == "ack":
                self._send_to(channel, self._stamped("ack", channel))
            elif due.kind == "pong":
                self._send_to(channel, encode_envelope("pong", t=due.value))
            else:
                self._log(f"{channel.client}: ignoring frame type {due.value!r}")

    def _release(self, releases: List[Release]) -> None:
        """Send what the core released, in serial order, through the
        per-peer bounded queues: a stalled recipient overflows *its*
        queue and is evicted, never blocking this loop or a healthy peer.
        Every reader gets the one executed form, encoded once."""
        for _serial, origin, fanout, executed, ack_due in releases:
            readers = [b for channel, b in fanout if channel is not origin]
            body = compact_server_op_obj(readers[0], executed) if readers else None
            for channel, broadcast in fanout:
                self._send_to(
                    channel, self._broadcast_envelope(channel, broadcast, body)
                )
            if ack_due:
                self._send_to(origin, self._stamped("ack", origin))
        latency = self._core.failover_done(time.monotonic())
        if latency is not None:
            self._log(
                f"failover complete: view {self.view} committed through "
                f"serial {self.committed} in {latency:.3f}s"
            )

    # ------------------------------------------------------------------
    # Replication: primary write path
    # ------------------------------------------------------------------
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
            link = None
            try:
                link = await dial(host, port)
                frame = encode_envelope(
                    "repl_install", sender=core.me, **core.start_view()
                )
                while core.is_primary:
                    await write_frame(link, frame, timeout=self.write_timeout)
                    shipped = await self._await_repl_ack(link, rid)
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
            except (OSError, ConnectionError, ProtocolError) as exc:
                attempt += 1
                if attempt == 1:
                    self._log(f"replica {rid} unreachable: {exc}")
                await asyncio.sleep(min(0.25 * attempt, 2.0))
            finally:
                if link is not None:
                    link.close()

    async def _await_repl_ack(
        self, link: FrameProtocol, rid: ReplicaId
    ) -> Optional[int]:
        """The backup's answer: its acked serial, fed to the core — or
        ``None`` after a ``repl_deny``, which deposes this primary."""
        frame = await link.read()
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
        newly = self._replica.record_ack(rid, serial, frame.get("epoch"))
        self._release(self._core.certify(newly))
        return serial

    def _depose(self) -> None:
        """The core stopped leading (a higher view was installed here,
        promised here, or quoted by a backup): become a plain backup."""
        self._log(f"deposed: standing down to a backup of view {self.view}")
        self._stop_replication()
        self._core.depose()
        # Hanging up makes every client walk the roster to the new primary;
        # their un-acknowledged frames are still buffered for retransmission.
        for channel in self.channels.values():
            self._hang_up(channel)
        self._arm_failover()  # the view that deposed me may never start

    # ------------------------------------------------------------------
    # Replication: backup feed and view changes
    # ------------------------------------------------------------------
    async def _handle_repl(self, first: Dict[str, Any], link: FrameProtocol) -> None:
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
                reply = self._core.follow(call, map(frame.get, fields))
                if reply.deposed:
                    self._depose()
                if reply.kind == "repl_ack":
                    self._primary_feed = link
                    if call == "install":
                        self._log(
                            f"installed view {core.view}: log through "
                            f"serial {core.log.last_serial}, committed "
                            f"{core.committed}"
                        )
                await write_frame(
                    link,
                    encode_envelope(reply.kind, **reply.fields),
                    timeout=self.write_timeout,
                )
                if reply.kind != "repl_ack":
                    break
                frame = await link.read()
        except (WireError, ConnectionError, asyncio.CancelledError):
            pass
        except ProtocolError as exc:
            self._log(f"a peer violated the replication protocol: {exc}")
        finally:
            link.close()
            if self._primary_feed is link:
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
        let the core elect and restart, start shipping."""
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
        self._core.failover_from = detected
        stale = list(self.channels.values())
        try:
            releases = self._core.elect(target, offers, time.monotonic())
        except ProtocolError as exc:
            self._log(f"election for view {target} failed: {exc}")
            return False
        if releases is None:
            self._log(
                f"election for view {target} abandoned with "
                f"{len(offers) + 1} of {core.quorum} required offers"
            )
            return False
        # The core rebuilt the serving state from the adopted log — the
        # path a standalone restart takes, so seq == serial survives the
        # view change; the old shard's connections go.
        for channel in stale:
            self._hang_up(channel)
        self._primary_feed = None
        self._update_connection_gauges()
        self._log(
            f"view {target}: this replica is now the primary (log through "
            f"serial {core.log.last_serial}, committed {core.committed})"
        )
        self._start_replication()
        self._release(releases)
        return True

    async def _seek_offer(
        self, host: str, port: int, target: int
    ) -> Optional[Dict[str, Any]]:
        seek = encode_envelope("repl_seek", view=target, sender=self.replica_id)
        try:
            reply = await call(host, port, seek, timeout=2.0)
        except (OSError, ConnectionError, WireError, asyncio.TimeoutError):
            return None
        if reply is None or reply.get("type") not in ("repl_offer", "repl_deny"):
            return None
        return reply

    # ------------------------------------------------------------------
    # Admin plane (used by the load generator and operators)
    # ------------------------------------------------------------------
    async def _handle_admin(self, frame: Dict[str, Any], link: FrameProtocol) -> None:
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
            try:
                wal_path = wal_file(self._core.wal_dir, doc)
                if wal_path is not None and os.path.exists(wal_path):
                    shard = self._core.open(doc, time.monotonic())
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
                    "space_nodes": shard.server.space.node_count(),
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
            # The connection gauges are computed here, where they are
            # read, not after every client frame.
            self._update_connection_gauges()
            reply = admin_reply(command, self._obs)
        await self._turn_away(link, reply)
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
