"""Framed transport: length-prefixed envelope frames over TCP.

A frame on the wire is a 4-byte big-endian length followed by that many
bytes of one serialised envelope — positional for a hot shape, UTF-8
JSON otherwise, told apart by the first byte (see
:func:`repro.net.codec.encode_frame_bytes`).  Every connection
the runtime opens or accepts is a :class:`FrameProtocol`: it frames the
bytes where they land, serves the first frames through an awaitable
read, then hands each frame to its session's handler from the callback
that received it.  :func:`read_frame` reads the same frames from a
``StreamReader`` through the same parser, :func:`_frame_end`.
Continuity across reconnects is :mod:`repro.jupiter.session`'s: seqs,
cumulative acks, retransmission and duplicate suppression.

**Backpressure.**  A peer that stops reading zero-windows its connection
and ``drain()`` never returns, so awaiting it on a shared path lets one
stalled socket block every session.  :func:`write_frame` takes a *write
deadline*, surfacing a wedged peer as :class:`~repro.net.codec.WireError`;
:class:`FrameSender` keeps serialisation off the socket altogether: a
bounded per-peer queue, flushed once per loop tick, whose overflow or
stalled write *evicts* the peer (the WAL re-ships what it missed).
"""

from __future__ import annotations

import asyncio
import json
import struct
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.errors import ProtocolError
from repro.net.codec import (
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

#: Bytes a connection buffers while nobody reads it (before a session
#: dispatches); past it the transport pauses until a read asks again.
_READ_AHEAD = 128 * 1024


class FrameTooLarge(WireError):
    """A frame over :data:`MAX_FRAME` (``length`` claimed): a session
    survives it, :class:`FrameProtocol` skips the body."""

    def __init__(self, length: int) -> None:
        super().__init__(f"frame of {length} bytes exceeds the {MAX_FRAME} cap")
        self.length = length


def _frame_end(buffer: bytes) -> int:
    """Bytes the frame at the head of ``buffer`` spans, prefix included
    (just the prefix while it is incomplete).  The one length-prefix
    parser: raises :class:`FrameTooLarge` on an oversized prefix."""
    if len(buffer) < _HEADER.size:
        return _HEADER.size
    (length,) = _HEADER.unpack_from(buffer)
    if length > MAX_FRAME:
        raise FrameTooLarge(length)
    return _HEADER.size + length


def _cut(buffer: bytes) -> WireError:
    """What a stream that ended ``buffer`` bytes into a frame reports."""
    have, want = len(buffer), _frame_end(buffer)
    if have >= _HEADER.size:
        have, want = have - _HEADER.size, want - _HEADER.size
    return WireError(f"connection closed after {have}/{want} bytes")


def _decoded(body: bytes, doc: str) -> Dict[str, Any]:
    """One received frame body, counted under ``doc``, decoded."""
    obs = get_obs()
    if obs.enabled:
        obs.net_frames_in.labels(doc).inc()
        obs.net_bytes_in.inc(_HEADER.size + len(body))
    return decode_envelope(body)


def _framed(envelope: Dict[str, Any], doc: str) -> bytes:
    """One envelope as its bytes on the wire, counted under ``doc``."""
    body = encode_frame_bytes(envelope)
    if len(body) > MAX_FRAME:
        raise FrameTooLarge(len(body))
    obs = get_obs()
    if obs.enabled:
        obs.net_frames_out.labels(doc).inc()
        obs.net_bytes_out.inc(_HEADER.size + len(body))
    return _HEADER.pack(len(body)) + body


async def read_frame(
    reader: asyncio.StreamReader, doc: str = ""
) -> Optional[Dict[str, Any]]:
    """One frame from a stream, counted under ``doc``; ``None`` on clean
    EOF at a frame boundary.  Raises :class:`FrameTooLarge` on an
    oversized prefix (the body is not consumed) and ``WireError`` on a
    truncated frame or a body that fails to decode."""
    buffer = bytearray()
    while len(buffer) < _frame_end(buffer):
        chunk = await reader.read(_frame_end(buffer) - len(buffer))
        if not chunk:
            if buffer:
                raise _cut(buffer)
            return None  # clean EOF between frames
        buffer += chunk
    return _decoded(bytes(buffer[_HEADER.size :]), doc)


async def read_first_frame(
    link: "FrameProtocol", timeout: Optional[float], log: Callable[[str], None]
) -> Optional[Dict[str, Any]]:
    """A new connection's first frame, under a deadline: a slow-loris
    peer must not park a socket forever.  ``None`` means hang up: EOF or
    a reset, or a stall or a bad frame (logged)."""
    try:
        return await asyncio.wait_for(link.read(), timeout=timeout)
    except asyncio.TimeoutError:
        log(
            "dropping half-open connection: no first frame within "
            f"the {timeout:.3f}s idle deadline"
        )
    except WireError as exc:
        log(f"rejecting connection: {exc}")
    except ConnectionError:
        pass
    return None


async def write_frame(
    writer: Any,
    envelope: Dict[str, Any],
    timeout: Optional[float] = None,
    doc: str = "",
) -> None:
    """Send one envelope on a :class:`FrameProtocol` (or a
    ``StreamWriter``) and drain it, under the write deadline ``timeout``
    (``None``: wait forever).  ``doc`` labels the frame counter."""
    writer.write(_framed(envelope, doc))
    await _drained(writer, timeout, envelope.get("type", "?"))


async def _drained(writer: Any, timeout: Optional[float], kind: str) -> None:
    """``writer.drain()``; past ``timeout`` the transport is aborted and
    ``WireError`` names the ``kind`` of frame.  The deadline costs a task
    and a timer, so it is armed only while the transport holds bytes."""
    if timeout is None or not writer.transport.get_write_buffer_size():
        await writer.drain()
        return
    try:
        await asyncio.wait_for(writer.drain(), timeout=timeout)
    except asyncio.TimeoutError:
        obs = get_obs()
        if obs.enabled:
            obs.net_write_stalls.inc()
        # Abort rather than close: close() would try to flush the very
        # buffer the peer refuses to read.
        writer.transport.abort()
        raise WireError(
            f"write stalled past the {timeout:.3f}s deadline ({kind} frame)"
        )


async def dial(host: str, port: int, doc: str = "") -> "FrameProtocol":
    """Connect to ``host:port``; the connection's :class:`FrameProtocol`."""
    loop = asyncio.get_running_loop()
    _, link = await loop.create_connection(lambda: FrameProtocol(doc=doc), host, port)
    return link


async def call(
    host: str, port: int, envelope: Dict[str, Any], timeout: float
) -> Optional[Dict[str, Any]]:
    """One request on a fresh connection: dial, send ``envelope``, read
    the answer (``None``: the peer hung up), hang up; each step under
    ``timeout`` (``asyncio.TimeoutError`` past it)."""
    link = await asyncio.wait_for(dial(host, port), timeout=timeout)
    try:
        await write_frame(link, envelope, timeout=timeout)
        return await asyncio.wait_for(link.read(), timeout=timeout)
    finally:
        link.close()


class FrameProtocol(asyncio.Protocol):
    """One framed connection, both ways, with no task per frame.

    Until :meth:`start`, frames wait in the buffer for :meth:`read` (the
    hello, the welcome, admin, the replication feed, the fleet's calls).
    Then each goes to ``on_frame`` from the ``data_received`` that
    completed it; an oversized frame is reported to ``on_oversized``
    (with none, it ends the connection) and its body skipped, framing
    kept.  ``on_end(exc)`` runs once when dispatch stops, and nothing is
    dispatched, or buffered, after it: ``None`` for a clean EOF or a
    local :meth:`close`/:meth:`end`, else the handler's
    ``ProtocolError``, the bad or truncated frame, or the reset.  It is
    also the connection's writer (``write``, ``drain``, ``close``,
    ``transport``); ``serve`` runs as the connection's task.
    """

    def __init__(self, serve: Optional[Callable] = None, doc: str = "") -> None:
        #: ``doc`` labels the frame counters; ``frame_at`` is the loop time
        #: of the last frame dispatched (the idle deadline's clock)
        self.doc, self.frame_at, self._serve, self.transport = doc, 0.0, serve, None
        self._buffer = bytearray()
        self._skip = 0  # what is left of an oversized body
        self._handlers: Optional[tuple] = None  # on_frame, on_end, on_oversized
        self._waiter: Optional[asyncio.Future] = None  # a read's or a drain's
        self._eof = self._lost = self._paused = self._stopped = False
        self._error: Optional[BaseException] = None

    def connection_made(self, transport: Any) -> None:
        self.transport, self._loop = transport, asyncio.get_running_loop()
        if self._serve is not None:
            self._task = self._loop.create_task(self._serve(self))

    def data_received(self, data: bytes) -> None:
        if self._stopped:
            return  # nobody will read it: a flooding peer costs nothing
        self._buffer += data
        if self._handlers is None and len(self._buffer) > _READ_AHEAD:
            self.transport.pause_reading()  # until a read asks again
        self._poke()

    def eof_received(self) -> bool:
        self._eof = True
        self._poke()
        return False  # the transport closes itself

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self._eof = self._lost = True
        self._error = exc
        self._poke()

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        self._wake()

    async def read(self) -> Optional[Dict[str, Any]]:
        """The next frame before :meth:`start`, ``None`` on clean EOF;
        raises as :func:`read_frame` does, or the reset."""
        while True:
            frame = self._take()
            if frame is not None:
                return frame
            if self._eof:
                error = self._ending()
                if error is not None:
                    raise error
                return None
            self.transport.resume_reading()
            await self._wait()

    def start(
        self,
        on_frame: Callable[[Dict[str, Any]], None],
        on_end: Callable[[Optional[BaseException]], None],
        on_oversized: Optional[Callable[[FrameTooLarge], None]] = None,
    ) -> None:
        """Dispatch what is buffered, then each frame as it lands."""
        self._handlers = (on_frame, on_end, on_oversized)
        self.frame_at = self._loop.time()
        self.transport.resume_reading()
        self._dispatch()

    def end(self, exc: Optional[BaseException] = None) -> None:
        """Stop dispatching and run ``on_end(exc)`` unless it has run; the
        connection stays open for an owner flushing a last frame."""
        self._stopped = True
        self._buffer.clear()
        handlers, self._handlers = self._handlers, None
        if handlers is not None:
            handlers[1](exc)

    def close(self) -> None:
        self._stopped = True
        self.transport.close()

    def write(self, data: bytes) -> None:
        if self._lost:  # a write into a dead transport fails, not vanishes
            raise ConnectionResetError("Connection lost")
        self.transport.write(data)

    async def drain(self) -> None:
        while self._paused and not self._lost:
            await self._wait()
        if self._lost:
            raise ConnectionResetError("Connection lost")

    def _take(self) -> Optional[Dict[str, Any]]:
        """The next whole frame out of the buffer, or ``None`` for not yet."""
        buffer = self._buffer
        end = _frame_end(buffer)
        if len(buffer) < end:
            return None
        body = bytes(buffer[_HEADER.size : end])
        del buffer[:end]
        return _decoded(body, self.doc)

    def _dispatch(self) -> None:
        on_frame, _, on_oversized = self._handlers
        try:
            while not self._stopped:
                if self._skip:
                    skipped = min(self._skip, len(self._buffer))
                    del self._buffer[:skipped]
                    self._skip -= skipped
                    if self._skip:
                        break
                try:
                    frame, handler = self._take(), on_frame
                except FrameTooLarge as exc:
                    if on_oversized is None:
                        raise
                    self._skip = _HEADER.size + exc.length  # skip the body
                    frame, handler = exc, on_oversized
                if frame is None:
                    break
                self.frame_at = self._loop.time()
                handler(frame)
        except (ProtocolError, ConnectionError) as exc:
            self.end(exc)
        if self._eof:
            self.end(None if self._stopped else self._ending())

    def _ending(self) -> Optional[BaseException]:
        """Why a stream that ended here ended: a cut frame, or the reset."""
        if self._skip:
            return WireError(
                f"connection closed {self._skip} bytes into an oversized body"
            )
        return _cut(self._buffer) if self._buffer else self._error

    def _poke(self) -> None:
        self._wake()
        if self._handlers is not None:
            self._dispatch()

    async def _wait(self) -> None:
        if self._waiter is None or self._waiter.done():
            self._waiter = self._loop.create_future()
        await self._waiter

    def _wake(self) -> None:
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)


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
    """Bounded outbound queue for one peer, flushed once per loop tick.

    :meth:`try_send` enqueues synchronously and never blocks; the first
    enqueue of a tick schedules one flush (``loop.call_soon``) that
    coalesces the queue, in order, into frames of up to
    :data:`BATCH_MAX` envelopes (a ``multi``, or a lone envelope as
    itself) and writes them — no task and no wakeup while the kernel
    takes every byte.  A transport left holding bytes (a slow peer)
    parks the sender on ``drain()`` under the write deadline, and the
    flush goes on once it drains.  Failure is fail-fast and typed: a
    full queue refuses (the owner evicts); a write error or overrun
    records ``failure``, aborts the transport and calls ``on_failure``
    exactly once, from the flush.  Nothing queued is precious: the WAL
    re-ships it on reconnect.
    """

    def __init__(
        self,
        writer: Any,
        *,
        capacity: int = OUTBOUND_QUEUE,
        write_timeout: Optional[float] = WRITE_TIMEOUT,
        on_failure: Optional[Callable[[str], None]] = None,
        doc: str = "",
    ) -> None:
        if capacity < 1:
            raise WireError(f"outbound queue capacity {capacity} must be >= 1")
        self.writer = writer
        self.capacity = capacity
        self.write_timeout = write_timeout
        #: the owner's failure hook; it may replace or clear it at any time
        self.on_failure = on_failure
        #: the document the peer's session serves (labels the counters)
        self.doc = doc
        self.failure: Optional[str] = None
        self.closed = False
        self.frames_sent = self.frames_dropped = 0
        #: envelopes that rode inside a ``multi`` instead of alone
        self.frames_coalesced = 0
        self._queue: Deque[Dict[str, Any]] = deque()
        self._loop = asyncio.get_running_loop()
        self._scheduled = False
        self._parked: Optional[asyncio.Task] = None  # the slow path's drain
        self._space: Optional[asyncio.Future] = None  # a send_wait's wait
        self._done = self._loop.create_future()  # closed: flushed or failed

    @property
    def depth(self) -> int:
        """Frames currently queued (the per-peer backlog)."""
        return len(self._queue)

    def try_send(self, envelope: Dict[str, Any], force: bool = False) -> bool:
        """Enqueue one envelope; ``False`` if the queue is full or dead.
        ``force`` passes a full queue: the ``evicted`` notice, which a
        merely-slow peer reads and a wedged one never will."""
        if self.closed or self.failure is not None:
            return False
        if not force and len(self._queue) >= self.capacity:
            return False
        self._queue.append(envelope)
        self._schedule()
        return True

    async def send_wait(self, envelope: Dict[str, Any]) -> bool:
        """Enqueue, awaiting space instead of refusing: a resync burst
        backpressures its own connection, never evicts a healthy late
        joiner.  ``False`` once the sender is closed or failed."""
        while not self.closed and self.failure is None:
            if self.try_send(envelope):
                return True
            self._space = self._loop.create_future()
            await self._space
        return False

    def close_soon(self) -> None:
        """Flush the backlog, then close; never blocks (eviction calls it
        from the serialise path, and a wedged peer meets the deadline)."""
        self.closed = True
        self._schedule()

    async def aclose(self) -> None:
        """Flush what is queued (bounded by the deadline) and close."""
        self.close_soon()
        await asyncio.wait([self._done], timeout=self.write_timeout)
        if not self._done.done():
            self.abort()

    def abort(self) -> None:
        """Drop the backlog and sever the connection immediately."""
        self.closed = True
        self.frames_dropped += len(self._queue)
        self._queue.clear()
        if self._parked is not None:
            self._parked.cancel()
            self._parked = None
        self.writer.transport.abort()
        self._finish()

    def _schedule(self) -> None:
        if not self._scheduled and self._parked is None:
            self._scheduled = True
            self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        self._scheduled = False
        queue = self._queue
        try:
            while queue:
                batched = [queue.popleft()]
                while queue and len(batched) < BATCH_MAX:
                    batched.append(queue.popleft())
                kind = self._write(batched)
                if self.writer.transport.get_write_buffer_size():
                    self._parked = asyncio.ensure_future(self._drain(kind))
                    return
        except (WireError, ConnectionError, OSError) as exc:
            return self._fail(str(exc))
        if self._space is not None and not self._space.done():
            self._space.set_result(None)
        if self.closed:
            self._finish()

    async def _drain(self, kind: str) -> None:
        try:
            await _drained(self.writer, self.write_timeout, kind)
        except asyncio.CancelledError:
            return  # aborted
        except (WireError, ConnectionError, OSError) as exc:
            self._parked = None
            return self._fail(str(exc))
        self._parked = None
        self._flush()

    def _write(self, batched: List[Dict[str, Any]]) -> str:
        """Write ``batched`` as one frame, or halves if a ``multi`` encodes
        past :data:`MAX_FRAME` (one envelope over it still raises
        :class:`FrameTooLarge`); the last frame's type."""
        envelope = batched[0]
        if len(batched) > 1:
            envelope = {"v": WIRE_VERSION, "type": "multi", "frames": batched}
        try:
            data = _framed(envelope, self.doc)
        except FrameTooLarge:
            if len(batched) == 1:
                raise
            self._write(batched[: len(batched) // 2])
            return self._write(batched[len(batched) // 2 :])
        self.writer.write(data)
        self.frames_sent += 1
        if len(batched) > 1:
            self.frames_coalesced += len(batched)
            obs = get_obs()
            if obs.enabled:
                obs.net_frames_coalesced.labels(self.doc).inc(len(batched))
        return str(envelope.get("type", "?"))

    def _fail(self, reason: str) -> None:
        self.failure = reason
        self.frames_dropped += len(self._queue)
        self._queue.clear()
        self.writer.transport.abort()
        if self.on_failure is not None:
            self.on_failure(reason)
        self._finish()

    def _finish(self) -> None:
        self.closed = True
        if self._space is not None and not self._space.done():
            self._space.set_result(None)  # a send_wait sees the closure
        if not self._done.done():
            self._done.set_result(None)
            self.writer.close()
