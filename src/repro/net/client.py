"""The deployed CSS client: a :class:`ClientCore` behind a TCP connection.

Every rule the client follows is
:class:`~repro.jupiter.client_core.ClientCore`'s.  :class:`NetClient` is
its asyncio shell: it dials with ``hello {client, delivered, codecs,
pin}``, turns the ``welcome`` and then every frame into one core call,
writes what the core leaves to send (the retransmit suffix, each new
op), and keeps what needs a socket or a clock: the roster walk, the
heartbeat, round-trip samples and :meth:`NetClient.wait_converged`.  A
frame the core refuses is treated like a dead link: one log line, hang
up, reconnect.

**Reconnect pacing and jitter.**  Backoff reuses
:class:`~repro.jupiter.session.RetransmitPolicy`: the delay before dial
attempt ``n`` is ``base * factor**(n-1)`` capped at ``cap`` and inflated
by up to ``jitter`` (10%) of itself from an RNG seeded with
``reconnect_seed`` — deterministic per client, but de-correlated
*across* clients, so a herd of reconnecting clients does not stampede a
recovering server in lockstep.  ``max_connect_attempts`` bounds
consecutive failed dials inside one :meth:`NetClient.connect`, and
``max_reconnect_attempts`` (``None`` = unlimited) how many times
:meth:`NetClient.wait_converged` re-establishes a dead connection before
raising :class:`ReconnectExhausted`.

**Failover.**  Given a replica ``roster`` the client survives primary
loss: a dead connection advances round-robin through the roster (with
the same seeded backoff), and a ``redirect`` frame from a backup jumps
straight to the primary of its view.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.common.ids import ReplicaId
from repro.errors import ProtocolError
from repro.jupiter.client_core import ClientCore
from repro.jupiter.messages import ServerEcho
from repro.jupiter.session import RetransmitPolicy
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

#: The client's named logger; silent unless the embedding process
#: configures handlers and a level.
LOGGER = logging.getLogger("repro.net.client")

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


class NetClient(ClientCore):
    """One deployed CSS client endpoint: the core, and its connection."""

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
        super().__init__(client_id, message_from_wire)
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
        self.redirects = 0
        self.reconnect_cycles = 0
        self.connects = 0
        #: seconds between keepalive pings on an idle connection (feeds
        #: the server's idle deadline); ``None`` disables the heartbeat
        self.heartbeat_interval = heartbeat_interval
        #: times admission control answered ``retry_after`` on connect
        self.shed_retries = 0
        self.rtts: Deque[float] = deque(maxlen=RTT_SAMPLE_CAP)
        self._sent_at: Dict[Any, float] = {}
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
        self.learn(frame.get("epoch", 0), frame.get("view", 0))
        if frame.get("roster"):
            self.roster = roster_from_obj(frame["roster"])
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
        :class:`ReconnectExhausted`.  A link still open is dropped first.
        """
        await self.drop()
        attempt = 0
        # Redirect chains are bounded: a full roster sweep plus slack.
        redirect_budget = max(4, 2 * len(self.roster or ()))
        while True:
            writer = None
            try:
                reader, writer = await asyncio.open_connection(
                    *self._current_target()
                )
                hello = encode_envelope(
                    "hello",
                    client=self.client_id,
                    delivered=self.delivered,
                    epoch=self.epoch,
                    doc=self.doc,
                    codecs=list(self.codecs),
                    pin=self.pin,
                )
                await write_frame(writer, hello, doc=self.doc)
                first = await read_frame(reader, doc=self.doc)
                if first is None or first.get("type") == "evicted":
                    # The hello (or the reply) was lost in transit, or
                    # the server's idle deadline reaped the half-open
                    # session and its eviction notice beat the close:
                    # a failed attempt, not a protocol violation.
                    raise ConnectionError("the link died before a welcome")
            except (ConnectionError, OSError):
                if writer is not None:
                    writer.close()
                self._advance_target()
                attempt = await self._failed("no server answered", attempt)
                continue
            if first.get("type") not in ("retry_after", "redirect"):
                break
            writer.close()
            if first["type"] == "retry_after":
                # Admission control shed us: honor the server's pacing
                # hint with the seeded backoff on top, so a shed herd
                # does not stampede back in lockstep.
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
            else:
                self._absorb_redirect(first)
                redirect_budget -= 1
                if redirect_budget <= 0:
                    # Redirect loop: the roster disagrees about the
                    # primary (mid view-change).  Treat as a failed
                    # attempt and back off before trying again.
                    attempt = await self._failed("redirect loop", attempt)
                    redirect_budget = max(4, 2 * len(self.roster or ()))
        self._writer = writer
        self.connects += 1
        if self.connects > 1:
            self._obs.net_reconnects.inc()
            self._obs.trace(
                "net.reconnect", client=self.client_id, attempt=self.connects
            )
        # The server may coalesce the welcome with the first resync
        # frames into one multi envelope; the trailing members are
        # handled once the welcome has set the session up.
        welcome, trailing, members = first, [], first.get("frames")
        if first.get("type") == "multi" and isinstance(members, list):
            welcome, *trailing = members or [None]
        if not isinstance(welcome, dict) or welcome.get("type") != "welcome":
            raise ProtocolError(
                f"{self.client_id}: expected welcome, got {welcome!r}"
            )
        self.codec = str(welcome.get("codec") or CODEC_JSON)
        if welcome.get("roster"):
            self.roster = roster_from_obj(welcome["roster"])
        retransmit = self.welcome(
            welcome.get("view", 0), welcome.get("epoch", 0),
            welcome.get("ack", 0), welcome.get("floor"),
            welcome.get("resync", 0), welcome.get("state"),
            welcome.get("initial") or "", first_contact=self.connects == 1,
        )
        if welcome.get("state") is not None:
            # GC truncated the records our cursor needed: our unacked
            # ops went with the state the core replaced.
            self._sent_at.clear()
            self._obs.net_state_transfers.labels(self.doc).inc()
        for seq in retransmit:
            await self._send(self._data_envelope(seq))
        for member in trailing:
            self._handle_frame(member)
        self._reader_task = asyncio.ensure_future(self._read_loop(reader))
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
        except (ConnectionError, OSError, asyncio.CancelledError):
            return  # the reader task notices a dead link and reconnects

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                frame = await read_frame(reader, doc=self.doc)
                if frame is None:
                    return
                self._handle_frame(frame)
        except ProtocolError as exc:
            # The core refused the frame before it changed anything: hang
            # up, as on a dead link, and let wait_converged reconnect.
            LOGGER.warning(
                "%s: the server violated the protocol: %s", self.client_id, exc
            )
            if self._writer is not None:
                self._writer.close()
                self._writer = None
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

    async def close(self) -> None:
        """Graceful shutdown: say ``bye`` and release the socket."""
        if self._writer is not None:
            try:
                await self._send(encode_envelope("bye"))
            except ConnectionError:
                pass
        await self.drop()

    # ------------------------------------------------------------------
    # Frame processing: one core call per frame
    # ------------------------------------------------------------------
    def _handle_frame(self, frame: Any) -> None:
        kind = frame.get("type") if isinstance(frame, dict) else None
        if not isinstance(kind, str):
            raise ProtocolError(f"not a frame: {frame!r}")
        epoch = frame.get("epoch", self.epoch)
        if kind == "data":
            for released in self.data(
                frame.get("seq"), frame.get("ack", 0), epoch,
                frame.get("floor"), frame.get("body"),
            ):
                if type(released) is ServerEcho:  # the echo of one of ours
                    sent = self._sent_at.pop(released.opid, None)
                    if sent is not None:
                        rtt = time.perf_counter() - sent
                        self.rtts.append(rtt)
                        self._obs.net_rtt.observe(rtt)
        elif kind == "ack":
            self.ack(frame.get("ack", 0), epoch, frame.get("floor"))
        elif kind == "multi":
            # The server coalesced a burst; members are ordinary frames.
            members = frame.get("frames")
            if not isinstance(members, list):
                raise ProtocolError("a multi carries a list of frames")
            for member in members:
                self._handle_frame(member)
            return
        elif not self.notice(kind, epoch, frame.get("reason", "")):
            return
        self._progress.set()

    def _data_envelope(self, seq: int) -> Dict[str, Any]:
        """The data frame for unacked op ``seq``."""
        return encode_envelope(
            "data",
            seq=seq,
            ack=self.delivered,
            epoch=self.epoch,
            body=compact_client_op_obj(self.unacked[seq], self.css.oracle),
            pin=self.pin,
        )

    # ------------------------------------------------------------------
    # User operations
    # ------------------------------------------------------------------
    async def generate(self, spec: OpSpec) -> None:
        """Apply one user edit locally and ship it to the server."""
        seq, result = super().generate(spec)
        self._sent_at[result.operation.opid] = time.perf_counter()
        if self._writer is None:
            return  # offline: the message stays buffered for retransmission
        try:
            await self._send(self._data_envelope(seq))
        except ConnectionError:
            self._writer = None

    async def ping(self) -> None:
        if self._writer is not None:
            # The heartbeat carries the pin so an idle client's GC
            # floor keeps tracking its cursor.
            await self._send(
                encode_envelope("ping", t=time.perf_counter(), pin=self.pin)
            )

    async def _send(self, envelope: Dict[str, Any]) -> None:
        await write_frame(
            self._writer, envelope, doc=self.doc, codec=self.codec
        )

    # ------------------------------------------------------------------
    # Convergence
    # ------------------------------------------------------------------
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
                await self.connect()
            self._progress.clear()
            try:
                await asyncio.wait_for(self._progress.wait(), timeout=0.5)
            except asyncio.TimeoutError:
                pass
        return True

    def signature(self) -> str:
        return document_signature(self.css.document)
