"""A session frame costs no task switch, and is framed as a stream frames it.

:class:`~repro.net.transport.FrameProtocol` owns every session
connection's bytes and hands each frame to its handler from the callback
that received it; :class:`~repro.net.transport.FrameSender` flushes once
per loop tick.  Two rules pin that down:

* an echoed op costs two ``call_soon`` calls (the server's flush and the
  wakeup of the client's converge wait), where a reader task per end, a
  writer task per peer and a ``wait_for`` per wait cost seven;
* the protocol dispatches exactly what :func:`~repro.net.transport.read_frame`
  reads from the same bytes over a ``StreamReader``, however the bytes
  are cut into chunks: the same frames, the oversized frame skipped with
  framing kept, the same error for a truncated tail; and a handler that
  refuses a frame ends the connection there, with nothing dispatched
  after it.

Beside them: an ended connection buffers no more of what its peer sends,
and a sender whose peer went away fails at its next flush.
"""

import asyncio
import logging
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import OpId
from repro.errors import ProtocolError
from repro.jupiter.messages import ServerEcho
from repro.model.schedule import OpSpec
from repro.net.client import NetClient
from repro.net.codec import (
    WireError,
    encode_envelope,
    encode_frame_bytes,
    server_echo_obj,
)
from repro.net.server import NetServer
from repro.net.transport import (
    FrameProtocol,
    FrameSender,
    FrameTooLarge,
    read_frame,
    write_frame,
)


# ----------------------------------------------------------------------
# Callbacks per echoed op
# ----------------------------------------------------------------------
class _CountingLoop(asyncio.SelectorEventLoop):
    """An event loop that counts every ``call_soon``."""

    calls = 0

    def call_soon(self, *args, **kwargs):
        self.calls += 1
        return super().call_soon(*args, **kwargs)


#: ``call_soon`` calls per echoed op, one writer at depth 1: the server's
#: outbound flush, and the future that wakes the client's converge wait
#: (nine runs of ``Handle._run`` and seven ``call_soon`` calls before the
#: read loops, the writer tasks and ``wait_for`` went)
CALL_SOON_PER_ECHO = 2


def test_an_echoed_op_costs_two_call_soons():
    async def scenario(loop, ops):
        server = NetServer("127.0.0.1", 0, initial_text="ab", gc_interval=3600)
        await server.start()
        client = NetClient("w1", "127.0.0.1", server.port, heartbeat_interval=None)
        await client.connect()
        total = 0

        async def echo():
            nonlocal total
            await client.generate(OpSpec("ins", 0, "x"))
            total += 1
            assert await client.wait_converged(total, timeout=10)

        for _ in range(10):  # warm-up: connections, codec, first compaction
            await echo()
        before = loop.calls
        for _ in range(ops):
            await echo()
        counted = loop.calls - before
        await client.close()
        await server.stop()
        return counted

    ops = 40
    loop = _CountingLoop()
    try:
        counted = loop.run_until_complete(scenario(loop, ops))
    finally:
        loop.close()
    assert counted == CALL_SOON_PER_ECHO * ops


# ----------------------------------------------------------------------
# The protocol frames as read_frame does
# ----------------------------------------------------------------------
#: the cap while these tests run, so an oversized frame stays small
CAP = 512


@pytest.fixture
def small_cap(monkeypatch):
    monkeypatch.setattr("repro.net.transport.MAX_FRAME", CAP)


def _frame(envelope):
    body = encode_frame_bytes(envelope)
    return struct.pack(">I", len(body)) + body


def _session_bytes():
    """A recorded server->client stream: a welcome coalesced with a
    resync broadcast, an ack, an echo, a broadcast, an oversized frame,
    a ping, and a tail the connection cut short."""
    broadcast_body = {
        "v": 2,
        "kind": "server_op",
        "body": {
            "operation": {
                "kind": "ins",
                "opid": ["c2", 1],
                "element": {"value": "q", "opid": ["c2", 1]},
                "position": 0,
            },
            "origin": "c2",
            "serial": 2,
        },
    }
    echo = encode_envelope(
        "data", seq=3, ack=1, epoch=0, floor=0,
        body=server_echo_obj(ServerEcho(OpId("c1", 1), 3)),
    )
    welcome = encode_envelope("welcome", ack=0, resync=1, epoch=0)
    resync = encode_envelope(
        "data", seq=2, ack=0, epoch=0, floor=0, body=broadcast_body
    )
    return b"".join(
        [
            _frame(encode_envelope("multi", frames=[welcome, resync])),
            _frame(encode_envelope("ack", ack=1, epoch=0, floor=0)),
            _frame(echo),
            _frame(encode_envelope("data", seq=4, ack=1, body=broadcast_body)),
            struct.pack(">I", CAP + 100) + b"j" * (CAP + 100),
            _frame(encode_envelope("ping", t=1.5)),
            struct.pack(">I", 60) + b"{" * 25,
        ]
    )


STREAM = _session_bytes()


async def _read_frame_events(stream):
    """What ``read_frame`` reads from ``stream`` over a ``StreamReader``,
    skipping an oversized body as a session must."""
    reader = asyncio.StreamReader()
    reader.feed_data(stream)
    reader.feed_eof()
    events = []
    while True:
        try:
            frame = await read_frame(reader)
        except FrameTooLarge as exc:
            await reader.readexactly(exc.length)
            events.append(("oversized", exc.length))
            continue
        except WireError as exc:
            events.append(("end", str(exc)))
            return events
        if frame is None:
            events.append(("end", None))
            return events
        events.append(("frame", frame))


class _Transport:
    """Enough of a transport for a protocol that is only fed bytes."""

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass

    def close(self):
        pass


async def _protocol_events(chunks, start_after=0, refuse_at=None):
    """What :class:`FrameProtocol` dispatches from ``chunks``.

    Dispatch starts after ``start_after`` chunks (earlier frames wait in
    the buffer); the handler refuses the ``refuse_at``-th frame."""
    events = []
    link = FrameProtocol()
    link.connection_made(_Transport())

    def on_frame(frame):
        if sum(kind == "frame" for kind, _ in events) == refuse_at:
            raise ProtocolError("refused")
        events.append(("frame", frame))

    def on_end(exc):
        events.append(("end", None if exc is None else str(exc)))

    def on_oversized(exc):
        events.append(("oversized", exc.length))

    def start():
        link.start(on_frame, on_end, on_oversized)

    for index, chunk in enumerate(chunks):
        if index == start_after:
            start()
        link.data_received(chunk)
    if start_after >= len(chunks):
        start()
    link.eof_received()
    return events


def _chunks(stream, cuts):
    edges = [0, *sorted(set(cuts)), len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:]) if b > a]


@pytest.mark.usefixtures("small_cap")
def test_the_recorded_stream_reads_as_expected():
    events = asyncio.run(_read_frame_events(STREAM))
    assert [kind for kind, _ in events] == [
        "frame", "frame", "frame", "frame", "oversized", "frame", "end",
    ]
    assert events[0][1]["type"] == "multi"
    assert events[4] == ("oversized", CAP + 100)
    assert events[-1] == ("end", "connection closed after 25/60 bytes")


@pytest.mark.usefixtures("small_cap")
@pytest.mark.parametrize("way", ["whole", "byte-by-byte"])
def test_whole_and_byte_by_byte_dispatch_what_read_frame_reads(way):
    chunks = [STREAM] if way == "whole" else [bytes([b]) for b in STREAM]
    expected = asyncio.run(_read_frame_events(STREAM))
    assert asyncio.run(_protocol_events(chunks)) == expected


@pytest.mark.usefixtures("small_cap")
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    cuts=st.lists(st.integers(1, len(STREAM) - 1), max_size=40),
    start_after=st.integers(0, 6),
    refuse_at=st.none() | st.integers(0, 4),  # the stream holds 5 frames
)
def test_any_chunking_dispatches_what_read_frame_reads(cuts, start_after, refuse_at):
    chunks = _chunks(STREAM, cuts)
    expected = asyncio.run(_read_frame_events(STREAM))
    if refuse_at is not None:
        # A refused frame ends the connection there: nothing after it.
        kept, frames = [], 0
        for kind, value in expected:
            if kind == "frame" and frames == refuse_at:
                break
            frames += kind == "frame"
            kept.append((kind, value))
        expected = [*kept, ("end", "refused")]
    assert asyncio.run(_protocol_events(chunks, start_after, refuse_at)) == expected


def test_a_refused_frame_closes_one_session_with_one_log_line(caplog):
    """A ping, a frame the server refuses and another ping, in one write:
    the first ping is answered, the refusal is logged once and hangs up,
    the second ping is never served, and the loop's exception handler
    sees nothing."""

    async def scenario():
        unhandled = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: unhandled.append(context)
        )
        server = NetServer("127.0.0.1", 0, initial_text="abc")
        await server.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        hello = encode_envelope("hello", client="rogue", delivered=0)
        await write_frame(writer, hello)
        assert (await read_frame(reader))["type"] == "welcome"
        refused = encode_envelope("data", seq="x", ack=0, body={})
        pings = [encode_envelope("ping", t=t) for t in (1, 2)]
        writer.write(b"".join(_frame(e) for e in (pings[0], refused, pings[1])))
        answers = []
        while True:
            frame = await asyncio.wait_for(read_frame(reader), timeout=5)
            if frame is None:
                break
            answers.append(frame)
        writer.close()
        await server.stop()
        return answers, unhandled

    with caplog.at_level(logging.INFO, logger="repro.net.server"):
        answers, unhandled = asyncio.run(scenario())
    assert [(a["type"], a["t"]) for a in answers] == [("pong", 1)]
    assert unhandled == []
    logged = [r.getMessage() for r in caplog.records]
    assert sum("violated the protocol" in line for line in logged) == 1, logged


# ----------------------------------------------------------------------
# An ended or lost connection
# ----------------------------------------------------------------------
def test_an_ended_connection_buffers_nothing_more():
    """After ``end()`` (a ``bye``, a refused frame, the idle deadline)
    the connection stays open while a last frame flushes; a peer that
    keeps sending meanwhile must not grow the buffer."""

    async def scenario():
        link = FrameProtocol()
        link.connection_made(_Transport())
        ended = []
        link.start(lambda frame: None, ended.append)
        link.data_received(STREAM[:10])  # a frame cut short
        link.end()
        for _ in range(100):
            link.data_received(b"\x00" * 4096)
        return ended, len(link._buffer)

    assert asyncio.run(scenario()) == ([None], 0)


def test_a_sender_on_a_lost_connection_fails_at_its_next_flush():
    """A peer that went away: the next flush fails the sender (the
    owner's ``on_failure`` runs once) instead of writing into a dead
    transport, as a resync to a peer that dropped must."""

    async def scenario():
        accepted = asyncio.get_running_loop().create_future()

        async def serve(link):
            accepted.set_result(link)

        listener = await asyncio.get_running_loop().create_server(
            lambda: FrameProtocol(serve), "127.0.0.1", 0
        )
        port = listener.sockets[0].getsockname()[1]
        _reader, writer = await asyncio.open_connection("127.0.0.1", port)
        link = await accepted
        writer.transport.abort()  # the peer goes away
        for _ in range(500):
            if link._lost:
                break
            await asyncio.sleep(0.01)
        failures = []
        sender = FrameSender(link, on_failure=failures.append)
        assert sender.try_send(encode_envelope("ping", t=1))
        await asyncio.wait_for(sender._done, timeout=5)
        listener.close()
        await listener.wait_closed()
        return failures, sender.failure, sender.frames_sent, sender.frames_dropped

    assert asyncio.run(scenario()) == (
        ["Connection lost"], "Connection lost", 0, 0
    )
