"""Framed transport: length-prefixed envelope frames on asyncio streams.

A frame on the wire is a 4-byte big-endian length followed by that many
bytes of one serialised envelope — binary or UTF-8 JSON, sniffed per
frame (see :func:`repro.net.codec.decode_envelope`).  Length-prefixing
restores message boundaries on top of TCP's byte stream; the envelope
carries the version and type.

TCP already gives each *connection* reliable FIFO bytes, so within one
connection the session layer's reorder buffer stays empty.  What TCP
does **not** give is continuity across connections — a client that
reconnects has no idea which of its frames the server processed, and
vice versa.  That is exactly the seam
:mod:`repro.jupiter.session` closes: every data frame carries the
channel sequence number and a cumulative ack, so after a reconnect the
sender retransmits its unacknowledged suffix and the receiver suppresses
the duplicates (see the reconnect state machine in
``docs/ARCHITECTURE.md``).

**Backpressure.**  ``await drain()`` is TCP flow control surfacing into
the application: a peer that stops reading eventually zero-windows the
connection and ``drain()`` never returns.  Awaiting it inline from a
shared code path (the server's serialise/commit loop) therefore lets one
stalled socket head-of-line-block every healthy session.  Two tools in
this module manufacture isolation instead:

* :func:`write_frame` accepts a ``timeout`` — a *write deadline* — so a
  wedged peer surfaces as :class:`~repro.net.codec.WireError` instead of
  an eternal await;
* :class:`FrameSender` decouples serialisation from I/O entirely: a
  bounded per-peer outbound queue drained by one dedicated writer task.
  Enqueueing is synchronous and never blocks; a peer whose queue fills
  or whose writes stall is *evicted* (the owner decides), and the
  write-ahead log re-ships everything it missed on reconnect.
"""

from __future__ import annotations

import asyncio
import json
import struct
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.net.codec import (
    CODEC_JSON,
    WIRE_VERSION,
    WireError,
    decode_envelope,
    encode_envelope,
    encode_frame_bytes,
)
from repro.obs import get_obs

#: Frame length header: 4-byte unsigned big-endian.
_HEADER = struct.Struct(">I")

#: Upper bound on one frame body; a resync of a very long run stays far
#: below this, and anything larger is junk or an attack.
MAX_FRAME = 16 * 1024 * 1024

#: Seconds between client heartbeat pings on an idle connection.
HEARTBEAT_INTERVAL = 5.0

#: Default write deadline: how long one frame may sit in ``drain()``
#: before the peer is declared wedged.  Far above any healthy RTT, far
#: below "forever".
WRITE_TIMEOUT = 10.0

#: Default bound on one peer's outbound queue.  Sized for bursts (a big
#: WAL resync) while still converting a genuinely stalled consumer into
#: an eviction within one burst.
OUTBOUND_QUEUE = 256

#: Most envelopes coalesced into one ``multi`` frame by a
#: :class:`FrameSender`; bounds per-frame latency.  A batch that still
#: encodes past :data:`MAX_FRAME` is split, see :meth:`FrameSender._write`.
BATCH_MAX = 64


class FrameTooLarge(WireError):
    """A frame exceeded :data:`MAX_FRAME`; ``length`` is the claimed size.

    Distinguished from other :class:`WireError`\\ s so a server can keep
    the session alive: the oversized body is still sitting in the stream
    and can be drained (:func:`drain_payload`) and rejected with a typed
    ``error`` envelope instead of killing the connection.
    """

    def __init__(self, message: str, length: int) -> None:
        super().__init__(message)
        self.length = length


async def read_frame(
    reader: asyncio.StreamReader, doc: str = ""
) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    ``doc`` labels the frame counter with the document this stream
    serves (``""`` for streams with no document context: handshakes,
    admin, replication).

    Raises :class:`FrameTooLarge` on an oversized length prefix (the
    body is *not* consumed — callers may :func:`drain_payload` it and
    continue) and :class:`~repro.net.codec.WireError` on a truncated
    frame or a body that fails envelope decoding.
    """
    header = await _read_exactly(reader, _HEADER.size, at_boundary=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FrameTooLarge(
            f"frame of {length} bytes exceeds the {MAX_FRAME} cap", length
        )
    body = await _read_exactly(reader, length, at_boundary=False)
    if body is None:  # pragma: no cover - needs a mid-frame EOF race
        raise WireError("connection closed mid-frame")
    obs = get_obs()
    if obs.enabled:
        obs.net_frames_in.labels(doc).inc()
        obs.net_bytes_in.inc(_HEADER.size + length)
    return decode_envelope(body)


async def read_first_frame(
    reader: asyncio.StreamReader,
    timeout: Optional[float],
    log: Callable[[str], None],
) -> Optional[Dict[str, Any]]:
    """A new connection's first frame, under a deadline.

    A peer that connects and never completes a frame (the classic
    slow-loris admission attack) must not park a socket forever, so
    every listener reads its first frame through here.  ``None`` means
    hang up: clean EOF, or a stall or a malformed frame, which is
    logged.
    """
    try:
        return await asyncio.wait_for(read_frame(reader), timeout=timeout)
    except asyncio.TimeoutError:
        log(
            "dropping half-open connection: no first frame within "
            f"the {timeout:.3f}s idle deadline"
        )
    except WireError as exc:
        log(f"rejecting connection: {exc}")
    return None


async def drain_payload(reader: asyncio.StreamReader, length: int) -> None:
    """Read and discard ``length`` bytes (an oversized frame's body).

    Raises :class:`~repro.net.codec.WireError` if the stream ends before
    the advertised body does.
    """
    remaining = length
    while remaining > 0:
        chunk = await reader.read(min(remaining, 256 * 1024))
        if not chunk:
            raise WireError(
                f"connection closed {remaining} bytes into an oversized body"
            )
        remaining -= len(chunk)


async def _read_exactly(
    reader: asyncio.StreamReader, count: int, at_boundary: bool
) -> Optional[bytes]:
    try:
        return await reader.readexactly(count)
    except asyncio.IncompleteReadError as exc:
        if at_boundary and not exc.partial:
            return None  # clean EOF between frames
        raise WireError(
            f"connection closed after {len(exc.partial)}/{count} bytes"
        ) from exc


async def write_frame(
    writer: asyncio.StreamWriter,
    envelope: Dict[str, Any],
    timeout: Optional[float] = None,
    doc: str = "",
    codec: str = CODEC_JSON,
) -> None:
    """Serialise and send one envelope, waiting for the buffer to drain.

    ``timeout`` is the write deadline: if ``drain()`` has not completed
    within it the transport is aborted and :class:`WireError` raised —
    a wedged (zero-window) peer surfaces as an error instead of an
    eternal await.  ``None`` waits forever (the pre-deadline behaviour,
    still appropriate for client-side writes where the event loop has
    nothing better to do).  The deadline costs a task and a timer, so it
    is armed only while the transport holds bytes the kernel did not take
    (with none, ``drain()`` cannot block).  ``doc`` labels the frame
    counter with the document this stream serves (``""`` = none).
    ``codec`` picks the byte serialisation — the session's negotiated
    codec; the receiver sniffs it per frame, so mixing is safe.
    """
    body = encode_frame_bytes(envelope, codec)
    if len(body) > MAX_FRAME:
        raise FrameTooLarge(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME} cap",
            len(body),
        )
    obs = get_obs()
    if obs.enabled:
        obs.net_frames_out.labels(doc).inc()
        obs.net_bytes_out.inc(_HEADER.size + len(body))
    writer.write(_HEADER.pack(len(body)) + body)
    if timeout is None or not writer.transport.get_write_buffer_size():
        await writer.drain()
        return
    try:
        await asyncio.wait_for(writer.drain(), timeout=timeout)
    except asyncio.TimeoutError:
        if obs.enabled:
            obs.net_write_stalls.inc()
        # Abort rather than close: close() would try to flush the very
        # buffer the peer refuses to read.
        writer.transport.abort()
        raise WireError(
            f"write stalled past the {timeout:.3f}s deadline "
            f"({envelope.get('type', '?')} frame)"
        )


def admin_reply(command: Any, obs: Any) -> Dict[str, Any]:
    """The reply to an admin command every listener answers alike.

    ``metrics`` scrapes the process's registry, ``shutdown`` is
    acknowledged (the caller stops once the reply is out), anything
    else is the unknown-command error.
    """
    if command == "metrics":
        return encode_envelope(
            "admin_reply",
            enabled=obs.enabled,
            exposition=obs.render(),
            snapshot=obs.snapshot(),
        )
    if command == "shutdown":
        return encode_envelope("admin_reply", stopping=True)
    return encode_envelope(
        "admin_reply", error=f"unknown admin command {command!r}"
    )


def run_listener(
    build: Callable[[], Any],
    announce: bool,
    marker: str,
    banner: Callable[[Any], Dict[str, Any]],
) -> int:
    """Blocking entry point of every listener verb (``serve``, ``fleet
    route``, ``fleet worker``, ``chaosproxy``).

    ``build`` runs inside the event loop (listeners create asyncio
    primitives when constructed).  With ``announce`` one
    machine-parseable ``marker {json}`` line is printed once the
    listener is bound — how a coordinator that asked for ``--port 0``
    learns the port.
    """

    async def main() -> int:
        listener = build()
        await listener.start()
        if announce:
            print(marker + " " + json.dumps(banner(listener)), flush=True)
        await listener.wait_closed()
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


class FrameSender:
    """Bounded outbound queue + dedicated writer task for one peer.

    The owner enqueues envelopes with :meth:`try_send` — synchronous,
    never blocking — and a single writer task drains the queue through
    :func:`write_frame` under the write deadline, preserving FIFO order
    per peer.  Failure is *fail-fast and typed*:

    * :meth:`try_send` returns ``False`` when the queue is at capacity —
      the consumer is slower than the producer by a whole queue's worth
      and the owner should evict it;
    * a write error or deadline overrun records ``failure``, closes the
      transport, and invokes ``on_failure`` exactly once, from the
      writer task (so the owner can do eviction bookkeeping without
      racing the serialisation path).

    Nothing queued is precious: every broadcast lives in the write-ahead
    log and is re-shipped on reconnect, so an evicted peer's unsent
    suffix is dropped on the floor by design.

    ``codec`` is the session's negotiated byte serialisation, set by the
    owner after the handshake (JSON until then).  The writer task drains
    *everything* queued at each wakeup and coalesces it into one
    ``multi`` frame (up to :data:`BATCH_MAX` envelopes), so a
    serialisation burst costs one syscall and one length prefix per tick
    instead of one per operation; a lone envelope travels as itself.
    """

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        *,
        capacity: int = OUTBOUND_QUEUE,
        write_timeout: Optional[float] = WRITE_TIMEOUT,
        on_failure: Optional[Callable[[str], None]] = None,
        label: str = "",
        doc: str = "",
    ) -> None:
        if capacity < 1:
            raise WireError(f"outbound queue capacity {capacity} must be >= 1")
        self.writer = writer
        self.capacity = capacity
        self.write_timeout = write_timeout
        self.label = label
        #: document the peer's session serves; labels the frame counters
        self.doc = doc
        #: negotiated wire codec for outbound frames (owner-set, mutable)
        self.codec = CODEC_JSON
        self.failure: Optional[str] = None
        self.closed = False
        self.frames_sent = 0
        self.frames_dropped = 0
        #: envelopes that rode inside a ``multi`` instead of alone
        self.frames_coalesced = 0
        self._queue: Deque[Dict[str, Any]] = deque()
        self._wakeup = asyncio.Event()
        self._space = asyncio.Event()
        self._space.set()
        #: invoked exactly once, from the writer task, on write
        #: error/stall; the owner may replace or clear it at any time
        self.on_failure = on_failure
        self._task = asyncio.ensure_future(self._run())

    @property
    def depth(self) -> int:
        """Frames currently queued (the per-peer backlog)."""
        return len(self._queue)

    def try_send(self, envelope: Dict[str, Any], force: bool = False) -> bool:
        """Enqueue one envelope; ``False`` if the queue is full or dead.

        ``force`` bypasses the capacity check — used for exactly one
        frame, the ``evicted`` notice, which must be *attempted* even
        though the queue just overflowed (a merely-slow peer will read
        it; a wedged one never will, and the abort cuts it off).
        """
        if self.closed or self.failure is not None:
            return False
        if not force and len(self._queue) >= self.capacity:
            return False
        self._queue.append(envelope)
        self._wakeup.set()
        return True

    async def send_wait(self, envelope: Dict[str, Any]) -> bool:
        """Enqueue, *awaiting* queue space instead of failing when full.

        For bursts that outrun the queue by design — the WAL resync on
        reconnect — where the producer is this peer's own connection
        task and blocking it is the correct backpressure (a healthy
        late joiner must not be evicted for the server's own burst).
        ``False`` once the sender is closed or failed.
        """
        while not self.closed and self.failure is None:
            if self.try_send(envelope):
                return True
            self._space.clear()
            await self._space.wait()
        return False

    async def _run(self) -> None:
        try:
            while True:
                while not self._queue:
                    if self.closed:
                        return
                    self._wakeup.clear()
                    await self._wakeup.wait()
                batched = [self._queue.popleft()]
                while self._queue and len(batched) < BATCH_MAX:
                    batched.append(self._queue.popleft())
                await self._write(batched)
                if len(self._queue) < self.capacity:
                    self._space.set()
        except asyncio.CancelledError:
            return
        except (WireError, ConnectionError, OSError) as exc:
            self.failure = str(exc)
            self.frames_dropped += len(self._queue)
            self._queue.clear()
            self.writer.transport.abort()
            if self.on_failure is not None:
                self.on_failure(self.failure)
        finally:
            self.closed = True
            self._space.set()  # wake any send_wait so it observes closure
            self.writer.close()

    async def _write(self, batched: List[Dict[str, Any]]) -> None:
        """Send ``batched`` in order: one frame, or as few as fit.

        A ``multi`` is capped by envelope count when it is gathered, but
        only encoding it tells its size in bytes: one that overruns
        :data:`MAX_FRAME` (a whole-state ``welcome`` next to a resync
        burst) is halved and each half sent the same way.  A *single*
        envelope over the cap still raises :class:`FrameTooLarge`.
        """
        envelope = batched[0]
        if len(batched) > 1:
            envelope = {"v": WIRE_VERSION, "type": "multi", "frames": batched}
        try:
            await write_frame(
                self.writer,
                envelope,
                timeout=self.write_timeout,
                doc=self.doc,
                codec=self.codec,
            )
        except FrameTooLarge:
            if len(batched) == 1:
                raise
            half = len(batched) // 2
            await self._write(batched[:half])
            await self._write(batched[half:])
            return
        self.frames_sent += 1
        if len(batched) > 1:
            self.frames_coalesced += len(batched)
            obs = get_obs()
            if obs.enabled:
                obs.net_frames_coalesced.labels(self.doc).inc(len(batched))

    def close_soon(self) -> None:
        """Flush the backlog from the writer task, then close.

        Synchronous and non-blocking — the eviction path calls this from
        the serialisation loop.  A merely-slow peer receives everything
        queued (its ``evicted`` notice included); a wedged one hits the
        write deadline on the next frame and is aborted.
        """
        self.closed = True
        self._wakeup.set()

    async def aclose(self) -> None:
        """Flush what is queued (bounded by the deadline) and close."""
        self.closed = True
        self._wakeup.set()
        if not self._task.done():
            try:
                await asyncio.wait_for(
                    self._task, timeout=self.write_timeout
                )
            except asyncio.TimeoutError:
                self._task.cancel()
        self.writer.close()

    def abort(self) -> None:
        """Drop the backlog and sever the connection immediately."""
        self.closed = True
        self.frames_dropped += len(self._queue)
        self._queue.clear()
        self._wakeup.set()
        if not self._task.done():
            self._task.cancel()
        self.writer.transport.abort()
