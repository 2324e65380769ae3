"""Overload-armor tests: write deadlines, per-peer queues, admission.

Covers the server's defenses against slow, wedged, and excess peers:

* :func:`~repro.net.transport.write_frame`'s write deadline surfaces a
  zero-window peer as a typed :class:`~repro.net.codec.WireError`
  instead of an eternal ``drain()``;
* :class:`~repro.net.transport.FrameSender` bounds the per-connection
  outbound queue and fails fast, exactly once, through ``on_failure``;
* an oversized frame mid-session is answered with a typed ``error``
  envelope and the session *stays alive* (regression: it used to kill
  the connection silently);
* admission control sheds connections over the limit with a
  ``retry_after`` envelope, which :class:`~repro.net.client.NetClient`
  honors with seeded backoff;
* a consumer that overflows its outbound queue is evicted — and the
  eviction is lossless, because the WAL resyncs it on reconnect.
"""

import asyncio
import logging
import struct

import pytest

from repro import obs
from repro.model.schedule import OpSpec
from repro.net.client import NetClient, ReconnectExhausted
from repro.net.codec import (
    WireError,
    decode_envelope,
    document_signature,
    encode_envelope,
)
from repro.net.server import NetServer
from repro.net.transport import (
    MAX_FRAME,
    FrameSender,
    read_frame,
    write_frame,
)


def _run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture(autouse=True)
def _observability_left_disabled():
    yield
    obs.disable()


async def _wedged_peer():
    """A listener that accepts and then never reads a single byte.

    The OS socket buffers absorb small writes invisibly, so tests that
    need a stalled ``drain()`` must push a payload far larger than the
    combined send/receive buffers (a few MB is plenty on localhost).
    """
    readers = []

    async def handle(reader, writer):
        readers.append((reader, writer))  # hold refs; never read

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1], readers


#: Large enough to overwhelm localhost socket buffers so drain() blocks.
_BIG_BODY = "x" * (8 * 1024 * 1024)


class TestWriteDeadline:
    def test_wedged_peer_surfaces_as_wire_error(self):
        async def scenario():
            listener, port, _readers = await _wedged_peer()
            _reader, writer = await asyncio.open_connection("127.0.0.1", port)
            handle = obs.enable(reset=True)
            with pytest.raises(WireError, match="stalled past the"):
                # One frame per iteration until the buffers fill and the
                # deadline fires; the first frames may slip through.
                for _ in range(8):
                    await write_frame(
                        writer,
                        encode_envelope("data", body=_BIG_BODY),
                        timeout=0.2,
                    )
            stalls = handle.net_write_stalls.value
            listener.close()
            return stalls

        assert _run(scenario()) == 1

    def test_no_deadline_and_healthy_peer_unaffected(self):
        async def scenario():
            async def echo(reader, writer):
                while await reader.read(65536):
                    pass

            listener = await asyncio.start_server(echo, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            _reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await write_frame(
                writer, encode_envelope("data", body=_BIG_BODY), timeout=10.0
            )
            writer.close()
            listener.close()
            return True

        assert _run(scenario())


class TestFrameSender:
    def test_try_send_false_at_capacity(self):
        async def scenario():
            listener, port, _readers = await _wedged_peer()
            _reader, writer = await asyncio.open_connection("127.0.0.1", port)
            sender = FrameSender(writer, capacity=4, write_timeout=None)
            # The writer task is blocked inside the first big write, so
            # the queue only drains once; overflow must refuse cleanly.
            accepted = 0
            refused = 0
            for _ in range(64):
                if sender.try_send(encode_envelope("data", body=_BIG_BODY)):
                    accepted += 1
                else:
                    refused += 1
            forced = sender.try_send(encode_envelope("evicted"), force=True)
            sender.abort()
            await asyncio.sleep(0)
            listener.close()
            return accepted, refused, forced

        accepted, refused, forced = _run(scenario())
        assert refused > 0
        assert accepted <= 6  # capacity + the one in flight + timing slack
        assert forced  # the eviction notice bypasses the bound

    def test_on_failure_fires_exactly_once_for_a_stalled_peer(self):
        async def scenario():
            listener, port, _readers = await _wedged_peer()
            _reader, writer = await asyncio.open_connection("127.0.0.1", port)
            failures = []
            sender = FrameSender(
                writer,
                capacity=16,
                write_timeout=0.2,
                on_failure=failures.append,
            )
            for _ in range(8):
                sender.try_send(encode_envelope("data", body=_BIG_BODY))
                # Let the writer take each frame on its own: a burst
                # this large would coalesce past the frame-size cap.
                while sender.depth and sender.failure is None:
                    await asyncio.sleep(0)

            async def _failed():
                while sender.failure is None:
                    await asyncio.sleep(0.01)

            await asyncio.wait_for(_failed(), timeout=10)
            await asyncio.sleep(0.05)  # would double-fire by now
            await sender.aclose()
            listener.close()
            return failures, sender.failure

        failures, failure = _run(scenario())
        assert len(failures) == 1
        assert "stalled past the" in failures[0]
        assert failure == failures[0]

    def test_close_soon_flushes_the_backlog_to_a_healthy_peer(self):
        async def scenario():
            received = []

            async def handle(reader, writer):
                while True:
                    frame = await read_frame(reader)
                    if frame is None:
                        return
                    received.extend(m["type"] for m in _members(frame))

            listener = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            _reader, writer = await asyncio.open_connection("127.0.0.1", port)
            sender = FrameSender(writer, capacity=8)
            for _ in range(3):
                assert sender.try_send(encode_envelope("ping"))
            assert sender.try_send(encode_envelope("evicted"), force=True)
            sender.close_soon()

            async def _drained():
                while len(received) < 4:
                    await asyncio.sleep(0.01)

            await asyncio.wait_for(_drained(), timeout=10)
            listener.close()
            return received

        assert _run(scenario()) == ["ping", "ping", "ping", "evicted"]

    def test_a_multi_past_the_frame_cap_is_split_not_fatal(self, monkeypatch):
        """Coalescing is bounded by encoded bytes, not only by count: a
        queued burst whose ``multi`` would overrun MAX_FRAME goes out as
        several frames, in order, and the healthy peer is not failed for
        the sender's own batching.  One envelope over the cap still is."""
        monkeypatch.setattr("repro.net.transport.MAX_FRAME", 2048)

        async def scenario():
            received = []

            async def handle(reader, writer):
                while True:
                    frame = await read_frame(reader)
                    if frame is None:
                        return
                    received.extend(m["seq"] for m in _members(frame))

            listener = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            _reader, writer = await asyncio.open_connection("127.0.0.1", port)
            sender = FrameSender(writer, capacity=32)
            for seq in range(12):  # ~8 KB queued before the writer wakes
                assert sender.try_send(
                    encode_envelope("data", seq=seq, body="x" * 600)
                )

            async def _drained():
                while len(received) < 12 and sender.failure is None:
                    await asyncio.sleep(0.01)

            await asyncio.wait_for(_drained(), timeout=10)
            burst = (list(received), sender.failure, sender.frames_sent)
            sender.try_send(encode_envelope("data", seq=99, body="x" * 4096))

            async def _failed():
                while sender.failure is None:
                    await asyncio.sleep(0.01)

            await asyncio.wait_for(_failed(), timeout=10)
            listener.close()
            return burst, sender.failure

        (order, failure, frames), oversized = _run(scenario())
        assert order == list(range(12))
        assert failure is None
        assert 1 < frames < 12  # split, yet still coalesced
        assert "exceeds the 2048 cap" in oversized


def _members(frame):
    """The envelopes one frame carries: a ``multi``'s members, or itself."""
    return frame["frames"] if frame["type"] == "multi" else [frame]


async def _handshake(port, client="raw", delivered=0):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    await write_frame(
        writer,
        encode_envelope(
            "hello",
            client=client,
            delivered=delivered,
            epoch=0,
        ),
    )
    # the welcome may arrive coalesced with the first resync frames
    welcome = _members(await read_frame(reader))[0]
    assert welcome["type"] == "welcome"
    return reader, writer


class TestOversizedFrameMidSession:
    def test_rejected_with_typed_error_and_session_survives(self, caplog):
        async def scenario():
            handle = obs.enable(reset=True)
            server = NetServer("127.0.0.1", 0)
            await server.start()
            reader, writer = await _handshake(server.port)
            # An over-cap frame, streamed raw: header promising more
            # than MAX_FRAME, then the body in slabs.
            length = MAX_FRAME + 1
            writer.write(struct.pack(">I", length))
            slab = b"j" * (1024 * 1024)
            sent = 0
            while sent < length:
                chunk = slab[: min(len(slab), length - sent)]
                writer.write(chunk)
                await writer.drain()
                sent += len(chunk)
            error = await asyncio.wait_for(read_frame(reader), timeout=10)
            # Regression: the session must survive — a ping still pongs.
            await write_frame(writer, encode_envelope("ping"))
            pong = await asyncio.wait_for(read_frame(reader), timeout=10)
            stats = (server.oversize_rejected, handle.net_oversize_rejected.value)
            writer.close()
            await server.stop()
            return error, pong, stats

        with caplog.at_level(logging.INFO, logger="repro.net.server"):
            error, pong, stats = _run(scenario())
        assert error["type"] == "error"
        assert error["reason"] == "frame too large"
        assert error["length"] == MAX_FRAME + 1
        assert error["limit"] == MAX_FRAME
        assert pong["type"] == "pong"
        assert stats == (1, 1)
        assert any("oversized frame" in r.message for r in caplog.records)


class TestAdmissionControl:
    def test_excess_connection_is_shed_with_retry_after(self):
        async def scenario():
            server = NetServer(
                "127.0.0.1", 0, max_connections=1,
                retry_after=3.5,
            )
            await server.start()
            _r1, w1 = await _handshake(server.port, client="c1")
            # The second distinct client is over the limit.
            reader2, writer2 = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            await write_frame(
                writer2,
                encode_envelope(
                    "hello", client="c2", delivered=0, epoch=0,
                ),
            )
            answer = await asyncio.wait_for(read_frame(reader2), timeout=10)
            shed = server.shed_connections
            writer2.close()
            w1.close()
            await server.stop()
            return answer, shed

        answer, shed = _run(scenario())
        assert answer["type"] == "retry_after"
        assert answer["seconds"] == 3.5
        assert "connection limit" in answer["reason"]
        assert shed == 1

    def test_reconnect_of_the_same_client_supersedes_not_shed(self):
        async def scenario():
            server = NetServer(
                "127.0.0.1", 0, max_connections=1
            )
            await server.start()
            _r1, w1 = await _handshake(server.port, client="c1")
            # The same client redialing (stale socket still open) must
            # replace its connection, never be shed.
            _r2, w2 = await _handshake(server.port, client="c1")
            shed = server.shed_connections
            connects = server.channels["c1"].connects
            w1.close()
            w2.close()
            await server.stop()
            return shed, connects

        shed, connects = _run(scenario())
        assert shed == 0
        assert connects == 2

    def test_client_honors_retry_after_and_eventually_connects(self):
        async def scenario():
            server = NetServer(
                "127.0.0.1", 0, max_connections=1,
                retry_after=0.1,
            )
            await server.start()
            squatter = NetClient("c1", "127.0.0.1", server.port)
            await squatter.connect()
            blocked = NetClient("c2", "127.0.0.1", server.port)
            connect_task = asyncio.ensure_future(blocked.connect())
            # Give admission control time to shed at least once, then
            # free the slot; the client's backoff loop must get in.
            await asyncio.sleep(0.3)
            await squatter.close()
            await asyncio.wait_for(connect_task, timeout=30)
            retries = blocked.shed_retries
            connected = blocked.connected
            await blocked.close()
            await server.stop()
            return retries, connected

        retries, connected = _run(scenario())
        assert retries >= 1
        assert connected

    def test_exhausted_retry_budget_raises_cleanly(self):
        async def scenario():
            server = NetServer(
                "127.0.0.1", 0, max_connections=1,
                retry_after=0.05,
            )
            await server.start()
            squatter = NetClient("c1", "127.0.0.1", server.port)
            await squatter.connect()
            blocked = NetClient(
                "c2", "127.0.0.1", server.port, max_connect_attempts=3
            )
            with pytest.raises(ReconnectExhausted, match="admission control"):
                await blocked.connect()
            await squatter.close()
            await server.stop()
            return True

        assert _run(scenario())


class TestSlowConsumerEviction:
    def test_queue_overflow_evicts_and_resync_is_lossless(self):
        async def scenario():
            server = NetServer(
                "127.0.0.1", 0, outbound_queue=4,
                write_timeout=None, idle_timeout=None,
            )
            await server.start()
            # A raw peer that says hello and then never reads: its
            # broadcasts pile into the 4-slot queue until eviction.
            slow_reader, slow_writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            await write_frame(
                slow_writer,
                encode_envelope(
                    "hello", client="slow", delivered=0, epoch=0,
                ),
            )
            # Do not read the welcome either; TCP buffers it invisibly,
            # but the *queue* (not the socket) is the bound under test.
            healthy = NetClient("c1", "127.0.0.1", server.port)
            await healthy.connect()
            for index in range(64):
                await healthy.generate(OpSpec("ins", index, "a"))
            assert await healthy.wait_converged(64, timeout=30)

            async def _evicted():
                while server.evictions == 0:
                    await asyncio.sleep(0.01)

            await asyncio.wait_for(_evicted(), timeout=10)
            evict_reason_sent = server.channels["slow"].writer is None
            # The evicted peer reconnects as a real client and resyncs
            # the whole history from the WAL: nothing was lost.
            resynced = NetClient("slow", "127.0.0.1", server.port)
            await resynced.connect()
            assert await resynced.wait_converged(64, timeout=30)
            same = (
                resynced.signature()
                == healthy.signature()
                == document_signature(server.server.document)
            )
            frames = resynced.resync_frames
            slow_writer.close()
            await healthy.close()
            await resynced.close()
            await server.stop()
            return evict_reason_sent, same, frames, server.evictions

        evicted, same, frames, evictions = _run(scenario())
        assert evicted
        assert same
        assert frames == 64  # the full history, re-earned from the WAL
        assert evictions >= 1

    def test_evicted_envelope_reaches_a_peer_that_still_reads(self):
        """Queue overflow with a peer that drains *slowly*: the typed
        ``evicted`` notice is force-queued and flushed before close."""

        async def scenario():
            server = NetServer(
                "127.0.0.1", 0, outbound_queue=2,
                write_timeout=None, idle_timeout=None,
            )
            await server.start()
            reader, writer = await _handshake(server.port, client="slow")
            healthy = NetClient("c1", "127.0.0.1", server.port)
            await healthy.connect()
            # Stop reading; let the healthy client overflow our queue.
            for index in range(32):
                await healthy.generate(OpSpec("ins", index, "b"))
            assert await healthy.wait_converged(32, timeout=30)

            async def _evicted():
                while server.evictions == 0:
                    await asyncio.sleep(0.01)

            await asyncio.wait_for(_evicted(), timeout=10)
            # Now drain everything still in flight: the last frame must
            # be the eviction notice.
            types = []
            while True:
                frame = await asyncio.wait_for(read_frame(reader), timeout=10)
                if frame is None:
                    break
                types.extend(m["type"] for m in _members(frame))
            writer.close()
            await healthy.close()
            await server.stop()
            return types

        types = _run(scenario())
        assert types[-1] == "evicted"
