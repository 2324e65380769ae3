"""The deployed CSS client: a ``CssClient`` behind a TCP connection.

A :class:`NetClient` owns exactly what a simulated client endpoint owns —
a :class:`~repro.jupiter.css.CssClient` plus a
:class:`~repro.jupiter.session.SessionSender` /
:class:`~repro.jupiter.session.SessionReceiver` pair — and keeps every
unacknowledged outgoing frame retransmittable, so a dropped connection
loses nothing:

* on (re)connect it sends ``hello {client, delivered, codecs, pin}``
  where ``delivered`` is its receiver's cumulative ack (broadcasts
  consumed), ``codecs`` the byte serialisations it offers and ``pin``
  the GC floor its unacknowledged operations need held;
* the server's ``welcome {ack, resync}`` tells it which of its pending
  frames the server already consumed (dropped from the buffer) and how
  many broadcasts will be re-shipped from the write-ahead log;
* it then retransmits its unacknowledged suffix in sequence order; the
  server's receiver suppresses any duplicates, restoring exactly-once.

Broadcast frames arriving out of order across a reconnect (live traffic
racing the WAL resync) are parked by sequence number and released to the
protocol strictly in order — the same discipline the simulator enforces.

**Reconnect pacing and jitter.**  Backoff reuses
:class:`~repro.jupiter.session.RetransmitPolicy`: the delay before dial
attempt ``n`` is ``base * factor**(n-1)`` capped at ``cap`` and inflated
by up to ``jitter`` (10%) of itself from an RNG seeded with
``reconnect_seed`` — deterministic per client, so tests replay exactly,
but de-correlated *across* clients, so a herd of reconnecting clients
does not stampede a recovering server in lockstep.  Two independent caps
bound the retrying: ``max_connect_attempts`` limits consecutive failed
dials inside one :meth:`NetClient.connect` call, and
``max_reconnect_attempts`` (``None`` = unlimited) limits how many times
:meth:`NetClient.wait_converged` will re-establish a dead connection
before raising :class:`ReconnectExhausted` — a clean terminal error
instead of retrying forever.

**Failover.**  Given a replica ``roster`` the client survives primary
loss: a dead connection advances round-robin through the roster (with
the same seeded backoff), a ``redirect`` frame from a backup jumps
straight to the primary of its view, and every frame's ``epoch`` is
checked so a deposed primary's stale broadcasts are dropped rather than
applied.  Acknowledgements from a replicated server are quorum-gated, so
an op the client saw acked is on f+1 disks and survives the failover.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.common.ids import SERVER_ID, ReplicaId
from repro.document.list_document import ListDocument
from repro.errors import ProtocolError
from repro.jupiter.css import CssClient
from repro.jupiter.messages import ClientOperation, ServerOperation
from repro.jupiter.persistence import opid_from_obj, space_from_obj
from repro.jupiter.session import (
    RetransmitPolicy,
    SessionReceiver,
    SessionSender,
)
from repro.model.schedule import OpSpec
from repro.net.codec import (
    CODEC_JSON,
    SUPPORTED_CODECS,
    compact_client_op_obj,
    document_signature,
    encode_envelope,
    message_from_wire,
    roster_from_obj,
)
from repro.net.transport import HEARTBEAT_INTERVAL, read_frame, write_frame
from repro.obs import get_obs

#: Most recent round-trip samples kept for the loadgen report; the full
#: distribution lives in the ``repro_net_rtt_seconds`` histogram, which
#: is bounded by construction, so the raw-sample window can be small.
RTT_SAMPLE_CAP = 2048


class ReconnectExhausted(ConnectionError):
    """The configured reconnect budget ran out: a clean terminal error.

    Subclasses :class:`ConnectionError` so existing callers that treat
    connection failures uniformly keep working, while tests (and the
    load generator) can tell "gave up by policy" from a raw socket error.
    """


class NetClient:
    """One deployed CSS client endpoint."""

    def __init__(
        self,
        client_id: ReplicaId,
        host: str = "127.0.0.1",
        port: int = 0,
        reconnect_seed: int = 0,
        max_connect_attempts: int = 8,
        roster: Optional[List[Tuple[str, int]]] = None,
        max_reconnect_attempts: Optional[int] = None,
        heartbeat_interval: Optional[float] = HEARTBEAT_INTERVAL,
        doc: str = "",
        codecs: Optional[List[str]] = None,
    ) -> None:
        self.client_id = client_id
        self.host = host
        self.port = port
        #: document this client edits; ``""`` lets the server choose its
        #: default (the pre-fleet behaviour).  A fleet router reads the
        #: field from the hello to pick the owning worker.
        self.doc = doc
        #: codec preference list offered in the hello; the server picks
        #: the first it supports.  A server refuses a hello with no offer.
        self.codecs: Tuple[str, ...] = (
            tuple(codecs) if codecs is not None else tuple(SUPPORTED_CODECS)
        )
        if not self.codecs:
            raise ValueError(f"{client_id}: the codec offer must not be empty")
        #: the codec the current connection negotiated
        self.codec = CODEC_JSON
        self.css = CssClient(client_id)
        self.sender = SessionSender((client_id, SERVER_ID))
        self.receiver = SessionReceiver((SERVER_ID, client_id))
        #: unacknowledged outgoing messages, seq -> ClientOperation.
        #: Each keeps the state key it was generated on — an absolute
        #: ``d`` plus the then-pending extras — so a (re)transmit reads
        #: its context off the pair, exactly, however far floors have
        #: trimmed the mirror since.
        self.unacked: Dict[int, ClientOperation] = {}
        #: per-seq generation floor (``delivered`` when the op was
        #: generated): the lowest serial the op's context can reference.
        #: The GC pin reported to the server is the minimum over these.
        self._gen_floor: Dict[int, int] = {}
        #: out-of-order broadcast *bodies* parked until the session
        #: releases them — decoded only at release, because a compact
        #: context resolves against the oracle's base at decode time
        self.parked: Dict[int, Dict[str, Any]] = {}
        #: reconnects answered by whole-state transfer (GC passed us)
        self.state_transfers = 0
        self.backoff = RetransmitPolicy(seed=reconnect_seed)
        self.max_connect_attempts = max_connect_attempts
        self.max_reconnect_attempts = max_reconnect_attempts
        #: replica roster for failover; updated from welcome/redirect
        self.roster: Optional[List[Tuple[str, int]]] = (
            [(str(h), int(p)) for h, p in roster] if roster else None
        )
        self._target = 0
        if self.roster and (host, port) in self.roster:
            self._target = self.roster.index((host, port))
        #: highest epoch observed; frames from lower epochs are stale
        self.epoch = 0
        self.view = 0
        self.redirects = 0
        self.reconnect_cycles = 0
        self.connects = 0
        self.resync_frames = 0
        #: seconds between keepalive pings on an idle connection (feeds
        #: the server's idle deadline); ``None`` disables the heartbeat
        self.heartbeat_interval = heartbeat_interval
        #: times this client was evicted as a slow consumer
        self.evictions = 0
        #: the most recent ``evicted`` envelope's reason, for diagnostics
        self.last_eviction: Optional[str] = None
        #: times admission control answered ``retry_after`` on connect
        self.shed_retries = 0
        #: operations the server rejected with a typed ``error`` envelope
        self.op_rejections = 0
        self.rtts: Deque[float] = deque(maxlen=RTT_SAMPLE_CAP)
        self._obs = get_obs()
        self._sent_at: Dict[Any, float] = {}
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._progress = asyncio.Event()

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._writer is not None

    @property
    def delivered(self) -> int:
        """Broadcasts consumed in order (the resync cursor)."""
        return self.receiver.cumulative_ack

    def _current_target(self) -> "Tuple[str, int]":
        if self.roster:
            return self.roster[self._target % len(self.roster)]
        return (self.host, self.port)

    def _advance_target(self) -> None:
        """Walk the roster round-robin after a failed dial/handshake."""
        if self.roster:
            self._target = (self._target + 1) % len(self.roster)

    def _absorb_redirect(self, frame: Dict[str, Any]) -> None:
        """Jump to the primary a backup pointed us at."""
        self.redirects += 1
        self.view = max(self.view, int(frame.get("view", 0)))
        self.epoch = max(self.epoch, int(frame.get("epoch", 0)))
        roster_obj = frame.get("roster")
        if roster_obj:
            self.roster = roster_from_obj(roster_obj)
        target = (str(frame.get("host", "")), int(frame.get("port", 0)))
        if self.roster and target in self.roster:
            self._target = self.roster.index(target)
        elif self.roster:
            self._target = int(frame.get("primary", 0)) % len(self.roster)
        else:
            self.host, self.port = target
        self._obs.trace(
            "net.redirected",
            client=self.client_id,
            view=self.view,
            target=f"{target[0]}:{target[1]}",
        )

    async def _failed(self, why: str, attempt: int, pause: float = 0.0) -> int:
        """Count one failed dial or handshake: back off (the seeded
        backoff, at least ``pause``), or give up by policy."""
        attempt += 1
        if attempt >= self.max_connect_attempts:
            raise ReconnectExhausted(
                f"{self.client_id}: {why} across {attempt} attempts"
            )
        await asyncio.sleep(max(pause, self.backoff.timeout(attempt)))
        return attempt

    async def connect(self) -> None:
        """Dial, handshake, resync, and start the reader task.

        With a roster, failed dials and ``redirect`` answers walk the
        replica list (seeded backoff between attempts) until a primary
        answers ``welcome``; ``max_connect_attempts`` failed dials raise
        :class:`ReconnectExhausted`.
        """
        attempt = 0
        # Redirect chains are bounded: a full roster sweep plus slack.
        redirect_budget = max(4, 2 * len(self.roster or ()))
        while True:
            host, port = self._current_target()
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError:
                self._advance_target()
                attempt = await self._failed("no server reachable", attempt)
                continue
            try:
                hello = encode_envelope(
                    "hello",
                    client=self.client_id,
                    delivered=self.delivered,
                    epoch=self.epoch,
                    doc=self.doc,
                    codecs=list(self.codecs),
                    pin=self._pin(),
                )
                await write_frame(writer, hello, doc=self.doc)
                first = await read_frame(reader, doc=self.doc)
            except (ConnectionError, OSError):
                writer.close()
                self._advance_target()
                attempt = await self._failed("handshake kept failing", attempt)
                continue
            if first is None or first.get("type") == "evicted":
                # The link died before a welcome arrived — the hello (or
                # the reply) was lost in transit, or the server's idle
                # deadline reaped the half-open session and its eviction
                # notice beat the close.  Either way: a failed attempt,
                # not a protocol violation.
                writer.close()
                self._advance_target()
                attempt = await self._failed("handshake kept dying", attempt)
                continue
            if first.get("type") == "retry_after":
                # Admission control shed us: honor the server's pacing
                # hint with the seeded backoff on top, so a shed herd
                # does not stampede back in lockstep.
                writer.close()
                self.shed_retries += 1
                self._obs.trace(
                    "net.shed_retry",
                    client=self.client_id,
                    seconds=first.get("seconds"),
                    reason=first.get("reason"),
                )
                attempt = await self._failed(
                    "shed by admission control",
                    attempt,
                    pause=float(first.get("seconds", 0.0)),
                )
                continue
            if first is not None and first.get("type") == "redirect":
                writer.close()
                self._absorb_redirect(first)
                redirect_budget -= 1
                if redirect_budget <= 0:
                    # Redirect loop: the roster disagrees about the
                    # primary (mid view-change).  Treat as a failed
                    # attempt and back off before trying again.
                    attempt = await self._failed("redirect loop", attempt)
                    redirect_budget = max(4, 2 * len(self.roster or ()))
                continue
            welcome = first
            break
        # The server may coalesce the welcome with the first
        # resync frames into one multi envelope; unwrap it and hold the
        # trailing members until the session state is set up below.
        trailing: List[Dict[str, Any]] = []
        if welcome is not None and welcome.get("type") == "multi":
            members = list(welcome.get("frames") or ())
            welcome = members[0] if members else None
            trailing = members[1:]
        self._reader, self._writer = reader, writer
        self.connects += 1
        if self.connects > 1:
            self._obs.net_reconnects.inc()
            self._obs.trace(
                "net.reconnect", client=self.client_id, attempt=self.connects
            )
        if welcome is None or welcome["type"] != "welcome":
            raise ProtocolError(
                f"{self.client_id}: expected welcome, got {welcome!r}"
            )
        self.view = max(self.view, int(welcome.get("view", 0)))
        self.epoch = max(self.epoch, int(welcome.get("epoch", 0)))
        self.codec = str(welcome.get("codec") or CODEC_JSON)
        roster_obj = welcome.get("roster")
        if roster_obj:
            self.roster = roster_from_obj(roster_obj)
        state = welcome.get("state")
        initial = welcome.get("initial") or ""
        if (
            initial
            and self.connects == 1
            and self.sender.next_seq == 1
            and state is None
        ):
            # First contact with a seeded document: adopt the server's
            # initial text before any history applies.  The canonical
            # ``from_string`` identities make both sides byte-identical.
            self.css = CssClient(
                self.client_id, ListDocument.from_string(initial)
            )
        if state is not None:
            # GC truncated the records our cursor needs: adopt the
            # server's snapshot wholesale instead of replaying them.
            self._adopt_state(state)
        resync = int(welcome.get("resync", 0))
        self.resync_frames += resync
        if resync:
            self._obs.net_resync_frames.inc(resync)
        self._absorb_ack(int(welcome.get("ack", 0)))
        floor = welcome.get("floor")
        if floor is not None:
            self._maybe_rebase(min(int(floor), self.delivered))
        # Retransmit the unacknowledged suffix in sequence order; the
        # server's session receiver suppresses anything it already has.
        if self.unacked:
            self._obs.session_retransmits.inc(len(self.unacked))
        for seq in sorted(self.unacked):
            await write_frame(
                writer,
                self._data_envelope(seq),
                doc=self.doc,
                codec=self.codec,
            )
        for member in trailing:
            self._handle_frame(member)
        self._reader_task = asyncio.ensure_future(self._read_loop(reader))
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None
        if self.heartbeat_interval is not None:
            self._heartbeat_task = asyncio.ensure_future(
                self._heartbeat_loop()
            )

    async def _heartbeat_loop(self) -> None:
        """Ping on idle so the server's read deadline sees a live peer."""
        try:
            while self._writer is not None:
                await asyncio.sleep(self.heartbeat_interval)
                await self.ping()
        except (ConnectionError, OSError):
            return  # the reader task notices the dead link and reconnects
        except asyncio.CancelledError:
            return

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                frame = await read_frame(reader, doc=self.doc)
                if frame is None:
                    return
                self._handle_frame(frame)
        except (ConnectionError, asyncio.CancelledError):
            return
        finally:
            self._progress.set()

    async def drop(self) -> None:
        """Abruptly sever the connection (no ``bye``), keeping all state."""
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None
        if self._reader_task is not None:
            self._reader_task.cancel()
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        self._reader = None

    async def close(self) -> None:
        """Graceful shutdown: say ``bye`` and release the socket."""
        if self._writer is not None:
            try:
                await write_frame(
                    self._writer, encode_envelope("bye"), doc=self.doc
                )
            except ConnectionError:
                pass
        await self.drop()

    # ------------------------------------------------------------------
    # Frame processing
    # ------------------------------------------------------------------
    def _absorb_ack(self, ack: int) -> None:
        ack = min(ack, self.sender.next_seq - 1)
        self.sender.ack(ack)
        for seq in [s for s in self.unacked if s <= ack]:
            del self.unacked[seq]
            self._gen_floor.pop(seq, None)
        obs = self._obs
        if obs.enabled:
            obs.net_unacked_frames.set(len(self.unacked))

    def _pin(self) -> int:
        """The GC pin: the floor the server must hold for this client.

        The minimum generation floor over the unacknowledged ops (each
        recorded as ``delivered`` at generate time — the lowest serial
        that op's context can reference), clamped to the consumption
        cursor so a resync always works from records.  With nothing
        outstanding the cursor itself is the pin.
        """
        if self._gen_floor:
            return min(min(self._gen_floor.values()), self.delivered)
        return self.delivered

    def _data_envelope(self, seq: int) -> Dict[str, Any]:
        """The data frame for unacked op ``seq``."""
        return encode_envelope(
            "data",
            seq=seq,
            ack=self.delivered,
            epoch=self.epoch,
            body=compact_client_op_obj(self.unacked[seq], self.css.oracle),
            pin=self._pin(),
        )

    def _maybe_rebase(self, floor: int) -> None:
        """Trim the local mirror to the server's GC floor.

        The server never advertises a floor above this client's pin, and
        a pin never passes its op's ``d``, so every unacknowledged op's
        state survives the rebase and every future broadcast decodes.
        Clamping to ``delivered`` keeps a floor that raced ahead of an
        in-flight resync from trimming serials not yet seen.
        """
        if floor > self.css.oracle.base:
            self.css.rebase_to_serial(floor)

    def _adopt_state(self, state: Dict[str, Any]) -> None:
        """Adopt a whole-state transfer (the post-grace resync path).

        Replaces the protocol state with the server's snapshot: the
        rebased space, the serial order past its base, and a session
        repositioned at ``op_seq`` (how many of our ops the server has
        serialised — seqs above it were never consumed, so their numbers
        are safely reused).  Unacknowledged-and-unserialised ops are
        dropped with the old state; everything the server ever
        acknowledged is inside the snapshot.
        """
        snap = state["snapshot"]
        op_seq = int(state["op_seq"])
        delivered = int(state["delivered"])
        css = CssClient(self.client_id)
        base = int(snap.get("base", 0))
        if base:
            css.oracle.trim_below(base)
        for opid_obj, serial in sorted(snap["serials"], key=lambda i: i[1]):
            css.oracle.record(opid_from_obj(opid_obj), int(serial))
        css.space = space_from_obj(snap["space"], css.oracle)
        css.restore_session(pending=[], next_seq=op_seq + 1)
        self.css = css
        self.unacked.clear()
        self.parked.clear()
        self._sent_at.clear()
        self._gen_floor.clear()
        self.sender = SessionSender((self.client_id, SERVER_ID))
        self.sender.restore({"next_seq": op_seq + 1, "acked": op_seq})
        self.receiver = SessionReceiver((SERVER_ID, self.client_id))
        self.receiver.fast_forward(delivered)
        self.state_transfers += 1
        self._obs.net_state_transfers.labels(self.doc).inc()
        self._obs.trace(
            "net.state_transfer",
            client=self.client_id,
            delivered=delivered,
            op_seq=op_seq,
            base=base,
        )

    def _handle_frame(self, frame: Dict[str, Any]) -> None:
        kind = frame["type"]
        if kind == "multi":
            # The server coalesced a burst; members are ordinary frames.
            for member in frame.get("frames", ()):
                self._handle_frame(member)
            return
        frame_epoch = int(frame.get("epoch", self.epoch))
        if frame_epoch > self.epoch:
            self.epoch = frame_epoch
        elif frame_epoch < self.epoch and kind == "data":
            # A deposed primary's leftover broadcast: it may carry an
            # operation the view change discarded.  Never apply it.
            self._obs.repl_stale_rejected.inc()
            return
        if kind == "ack":
            self._absorb_ack(int(frame.get("ack", 0)))
            floor = frame.get("floor")
            if floor is not None:
                self._maybe_rebase(min(int(floor), self.delivered))
            self._progress.set()
            return
        if kind == "pong":
            return
        if kind == "evicted":
            # The server dropped us as a slow consumer.  Nothing is
            # lost: the WAL re-ships every missed broadcast on the next
            # connect, and our unacked frames retransmit.  Record it and
            # let the read loop end when the server hangs up.
            self.evictions += 1
            self.last_eviction = str(frame.get("reason", ""))
            self._obs.trace(
                "net.evicted", client=self.client_id, reason=self.last_eviction
            )
            self._progress.set()
            return
        if kind == "error":
            # The server rejected one of our frames (e.g. oversized) but
            # kept the session alive.
            self.op_rejections += 1
            self._obs.trace(
                "net.op_rejected",
                client=self.client_id,
                reason=frame.get("reason"),
            )
            self._progress.set()
            return
        if kind != "data":
            return
        self._absorb_ack(int(frame.get("ack", 0)))
        seq = int(frame["seq"])
        # Park the encoded body; a compact context resolves against the
        # oracle's base, which moves as floors arrive — so decode only
        # at release, immediately before applying.
        released = self.receiver.receive(seq)
        if released == 0:
            if seq >= self.receiver.expected:
                self.parked[seq] = frame["body"]
        else:
            self.parked[seq] = frame["body"]
            first = self.receiver.expected - released
            for released_seq in range(first, self.receiver.expected):
                body = self.parked.pop(released_seq)
                payload = message_from_wire(body, self.css.oracle)
                if not isinstance(payload, ServerOperation):
                    raise ProtocolError(
                        f"{self.client_id}: server data frames must carry "
                        f"ServerOperation, got {type(payload).__name__}"
                    )
                self._apply(payload)
            obs = self._obs
            if obs.enabled:
                obs.net_parked_frames.set(len(self.parked))
        floor = frame.get("floor")
        if floor is not None:
            self._maybe_rebase(min(int(floor), self.delivered))
        self._progress.set()

    def _apply(self, broadcast: ServerOperation) -> None:
        is_echo = broadcast.origin == self.client_id
        opid = broadcast.operation.opid
        self.css.receive(broadcast)
        if is_echo and opid in self._sent_at:
            rtt = time.perf_counter() - self._sent_at.pop(opid)
            self.rtts.append(rtt)
            self._obs.net_rtt.observe(rtt)

    # ------------------------------------------------------------------
    # User operations
    # ------------------------------------------------------------------
    async def generate(self, spec: OpSpec) -> None:
        """Apply one user edit locally and ship it to the server."""
        result = self.css.generate(spec)
        seq = self.sender.send()
        self.unacked[seq] = result.outgoing
        self._gen_floor[seq] = self.delivered
        self._sent_at[result.operation.opid] = time.perf_counter()
        if self._writer is None:
            return  # offline: the message stays buffered for retransmission
        try:
            await write_frame(
                self._writer,
                self._data_envelope(seq),
                doc=self.doc,
                codec=self.codec,
            )
        except ConnectionError:
            self._writer = None

    async def ping(self) -> None:
        if self._writer is not None:
            # The heartbeat carries the pin so an idle client's GC
            # floor keeps tracking its cursor.
            envelope = encode_envelope(
                "ping", t=time.perf_counter(), pin=self._pin()
            )
            await write_frame(
                self._writer, envelope, doc=self.doc, codec=self.codec
            )

    # ------------------------------------------------------------------
    # Convergence
    # ------------------------------------------------------------------
    def converged(self, total_operations: int) -> bool:
        """All broadcasts consumed and nothing of ours still pending."""
        return (
            self.delivered >= total_operations
            and self.css.pending_count == 0
            and not self.unacked
        )

    async def wait_converged(
        self, total_operations: int, timeout: float = 30.0
    ) -> bool:
        """Wait until :meth:`converged`; reconnect if the link dies.

        Each re-established connection counts against
        ``max_reconnect_attempts`` (when configured); exhausting the
        budget raises :class:`ReconnectExhausted` instead of silently
        spinning until the timeout.
        """
        deadline = time.monotonic() + timeout
        while not self.converged(total_operations):
            if time.monotonic() > deadline:
                return False
            if not self.connected or (
                self._reader_task is not None and self._reader_task.done()
            ):
                self.reconnect_cycles += 1
                if (
                    self.max_reconnect_attempts is not None
                    and self.reconnect_cycles > self.max_reconnect_attempts
                ):
                    raise ReconnectExhausted(
                        f"{self.client_id}: gave up after "
                        f"{self.max_reconnect_attempts} reconnect attempts"
                    )
                await self.drop()
                await self.connect()
            self._progress.clear()
            try:
                await asyncio.wait_for(self._progress.wait(), timeout=0.5)
            except asyncio.TimeoutError:
                pass
        return True

    def signature(self) -> str:
        return document_signature(self.css.document)
