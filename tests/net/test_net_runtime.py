"""In-process end-to-end tests for the asyncio wire runtime.

These run a real :class:`~repro.net.server.NetServer` on an ephemeral
localhost port and drive real :class:`~repro.net.client.NetClient`s over
TCP — one event loop, so they stay fast and deterministic, while the
bytes still cross actual sockets.
"""

import asyncio

import pytest

from repro.jupiter.css import CssClient
from repro.model.schedule import OpSpec
from repro.net.client import NetClient
from repro.net.codec import (
    compact_client_op_obj,
    document_signature,
    encode_envelope,
)
from repro.net.server import NetServer
from repro.net.transport import read_frame, write_frame


def _run(coroutine):
    return asyncio.run(coroutine)


async def _started_server(**kwargs) -> NetServer:
    server = NetServer("127.0.0.1", 0, **kwargs)
    await server.start()
    return server


class TestConvergence:
    def test_two_clients_converge_with_the_server(self):
        async def scenario():
            server = await _started_server()
            c1 = NetClient("c1", "127.0.0.1", server.port)
            c2 = NetClient("c2", "127.0.0.1", server.port)
            await c1.connect()
            await c2.connect()
            for index in range(4):
                await c1.generate(OpSpec("ins", index, "a"))
                await c2.generate(OpSpec("ins", 0, "b"))
            assert await c1.wait_converged(8, timeout=10)
            assert await c2.wait_converged(8, timeout=10)
            signatures = {
                c1.signature(),
                c2.signature(),
                document_signature(server.server.document),
            }
            await c1.close()
            await c2.close()
            await server.stop()
            return signatures

        assert len(_run(scenario())) == 1

    def test_initial_document_is_shared(self):
        async def scenario():
            server = await _started_server(initial_text="seed")
            c1 = NetClient("c1", "127.0.0.1", server.port)
            await c1.connect()
            await c1.generate(OpSpec("ins", 4, "!"))
            assert await c1.wait_converged(1, timeout=10)
            text = c1.css.document.as_string()
            await c1.close()
            await server.stop()
            return text

        assert _run(scenario()) == "seed!"


class TestReconnect:
    def test_dropped_client_resyncs_from_the_wal(self):
        async def scenario():
            server = await _started_server()
            c1 = NetClient("c1", "127.0.0.1", server.port)
            c2 = NetClient("c2", "127.0.0.1", server.port)
            await c1.connect()
            await c2.connect()
            await c1.generate(OpSpec("ins", 0, "a"))
            assert await c1.wait_converged(1, timeout=10)
            assert await c2.wait_converged(1, timeout=10)

            await c1.drop()
            # c1 keeps editing offline; c2 races ahead.
            await c1.generate(OpSpec("ins", 1, "x"))
            for index in range(3):
                await c2.generate(OpSpec("ins", 1, "b"))
            assert await c2.wait_converged(4, timeout=10)

            before = c1.resync_frames
            await c1.connect()
            resynced = c1.resync_frames - before
            assert await c1.wait_converged(5, timeout=10)
            assert await c2.wait_converged(5, timeout=10)
            same = (
                c1.signature()
                == c2.signature()
                == document_signature(server.server.document)
            )
            connects = server.channels["c1"].connects
            await c1.close()
            await c2.close()
            await server.stop()
            return resynced, same, connects

        resynced, same, connects = _run(scenario())
        assert resynced == 3  # the three broadcasts c1 missed offline
        assert same
        assert connects == 2

    def test_late_joiner_resyncs_from_serial_zero(self):
        # Regression: a client whose first hello arrives after serials
        # exist must get a channel sender positioned at the end of the
        # WAL, so its first *live* broadcast continues seq == serial.
        async def scenario():
            server = await _started_server()
            c1 = NetClient("c1", "127.0.0.1", server.port)
            await c1.connect()
            for index in range(5):
                await c1.generate(OpSpec("ins", index, "a"))
            assert await c1.wait_converged(5, timeout=10)

            c2 = NetClient("c2", "127.0.0.1", server.port)
            await c2.connect()
            assert await c2.wait_converged(5, timeout=10)
            resynced = c2.resync_frames

            # The next live broadcast must reach the late joiner too.
            await c1.generate(OpSpec("del", 0))
            assert await c1.wait_converged(6, timeout=10)
            assert await c2.wait_converged(6, timeout=10)
            same = c1.signature() == c2.signature()
            await c1.close()
            await c2.close()
            await server.stop()
            return resynced, same

        resynced, same = _run(scenario())
        assert resynced == 5
        assert same


class TestServerSessionDiscipline:
    def test_duplicate_data_frames_are_suppressed_and_reacked(self):
        async def scenario():
            server = await _started_server()
            scratch = CssClient("c1")
            payload = compact_client_op_obj(
                scratch.generate(OpSpec("ins", 0, "a")).outgoing, scratch.oracle
            )
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            await write_frame(
                writer,
                encode_envelope("hello", client="c1", delivered=0),
            )
            welcome = await read_frame(reader)
            assert welcome["type"] == "welcome"
            frame = encode_envelope("data", seq=1, ack=0, body=payload)
            await write_frame(writer, frame)
            await write_frame(writer, frame)  # retransmitted duplicate
            acks = []
            while len(acks) < 2:
                received = await read_frame(reader)
                # a burst may arrive coalesced into one multi frame; the
                # echo carries the first ack, an ack frame the re-ack
                for member in received.get("frames", [received]):
                    if member["type"] in ("data", "ack"):
                        acks.append(member["ack"])
            suppressed = server.duplicates_suppressed
            writer.close()
            await server.stop()
            return acks, suppressed, server.wal.last_serial

        acks, suppressed, serial = _run(scenario())
        assert acks == [1, 1]  # the echo's, then the duplicate's re-ack
        assert suppressed == 1
        assert serial == 1  # serialised exactly once

    def test_first_frame_must_be_hello_or_admin(self):
        async def scenario():
            server = await _started_server()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            await write_frame(writer, encode_envelope("ping"))
            closed = await read_frame(reader)  # server hangs up
            writer.close()
            await server.stop()
            return closed

        assert _run(scenario()) is None


class TestAdminPlane:
    def test_signature_and_stats_round_trip(self):
        async def scenario():
            server = await _started_server()
            c1 = NetClient("c1", "127.0.0.1", server.port)
            await c1.connect()
            await c1.generate(OpSpec("ins", 0, "z"))
            assert await c1.wait_converged(1, timeout=10)

            async def admin(command):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await write_frame(writer, encode_envelope("admin", cmd=command))
                reply = await read_frame(reader)
                writer.close()
                return reply

            signature = await admin("signature")
            stats = await admin("stats")
            unknown = await admin("frobnicate")
            await c1.close()
            await server.stop()
            return signature, stats, unknown, c1.signature()

        signature, stats, unknown, client_signature = _run(scenario())
        assert signature["signature"] == client_signature
        assert signature["serial"] == 1
        assert stats["clients"]["c1"]["connects"] == 1
        assert stats["frames_received"] == 1
        assert stats["wal"]["appends"] == 1
        assert "error" in unknown

    def test_shutdown_stops_the_server(self):
        async def scenario():
            server = await _started_server()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            await write_frame(writer, encode_envelope("admin", cmd="shutdown"))
            reply = await read_frame(reader)
            writer.close()
            await asyncio.wait_for(server.wait_closed(), timeout=5)
            return reply

        assert _run(scenario())["stopping"] is True


class TestClientEchoRtt:
    def test_echoes_record_round_trip_samples(self):
        async def scenario():
            server = await _started_server()
            c1 = NetClient("c1", "127.0.0.1", server.port)
            await c1.connect()
            for index in range(3):
                await c1.generate(OpSpec("ins", index, "r"))
            assert await c1.wait_converged(3, timeout=10)
            samples = list(c1.rtts)
            await c1.close()
            await server.stop()
            return samples

        samples = _run(scenario())
        assert len(samples) == 3
        assert all(s > 0 for s in samples)


class TestOneBodyPerOperation:
    def test_a_broadcast_is_built_and_spelled_once_for_all_recipients(
        self, monkeypatch
    ):
        """CSS sends every reader the same operation with the same
        context: the server builds one ``server_op`` body per operation
        and the positional writer spells its bytes once, whoever many readers
        there are.  The generator gets its echo instead."""
        from repro.net import codec, server as server_module

        built, packs = [], []
        real_build, real_pack = codec.compact_server_op_obj, codec._pack_message
        monkeypatch.setattr(
            server_module,
            "compact_server_op_obj",
            lambda *args: built.append(1) or real_build(*args),
        )

        def pack(out, message, kind):
            if kind == "server_op":
                packs.append("spliced" if message.packed else "spelled")
            elif kind == "server_echo":
                packs.append("echo")
            real_pack(out, message, kind)

        monkeypatch.setattr(codec, "_pack_message", pack)

        async def scenario():
            server = await _started_server()
            writer = NetClient("w1", "127.0.0.1", server.port)
            readers = [
                NetClient(f"r{i}", "127.0.0.1", server.port) for i in range(3)
            ]
            for client in [writer] + readers:
                await client.connect()
            for index in range(5):
                await writer.generate(OpSpec("ins", index, "a"))
            for client in [writer] + readers:
                assert await client.wait_converged(5, timeout=10)
            same = {c.signature() for c in [writer] + readers}
            for client in [writer] + readers:
                await client.close()
            await server.stop()
            return same

        assert len(_run(scenario())) == 1
        assert len(built) == 5
        assert packs.count("spelled") == 5 and packs.count("spliced") == 10
        assert packs.count("echo") == 5
