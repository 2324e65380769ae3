"""End-to-end tests for acked-prefix GC on the real TCP runtime.

The deployed path must stay O(active window): the GC loop rebases the
server's state-space to the acked-prefix floor, compacts the WAL behind
it, and pushes the new floor to clients so they trim too.  These tests
run a real :class:`~repro.net.server.NetServer` and real clients over
localhost sockets and assert the three user-visible consequences:

1. the server's live structures shrink while documents stay correct,
2. sessions inside the grace window resync losslessly from the WAL,
   sessions beyond it come back via a state transfer, and
3. a hello is served whatever ``codecs`` offer an older client put in
   it: nothing is negotiated.
"""

import asyncio

import pytest

from repro import obs
from repro.model.schedule import OpSpec
from repro.net.client import NetClient
from repro.net.codec import (
    DEFAULT_DOC,
    WIRE_VERSION,
    document_signature,
    encode_envelope,
)
from repro.net.server import NetServer
from repro.net.transport import read_frame, write_frame
from repro.obs import snapshot_value


def _run(coroutine):
    return asyncio.run(coroutine)


async def _started_server(**kwargs) -> NetServer:
    server = NetServer("127.0.0.1", 0, **kwargs)
    await server.start()
    return server


async def _eventually(predicate, timeout=10.0, interval=0.02) -> bool:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() >= deadline:
            return False
        await asyncio.sleep(interval)
    return True


# Aggressive GC so short tests cross the threshold quickly.
_FAST_GC = dict(
    gc_interval=0.02, gc_threshold=4, gc_grace=0.25
)


class TestLegacyCodecOffer:
    @pytest.mark.parametrize(
        "offer",
        [{}, {"codecs": []}, {"codecs": 7}, {"codecs": ["json"]},
         {"codecs": ["bin", "json"]}],
        ids=["bare", "empty", "not-a-list", "json-only", "bin-json"],
    )
    def test_a_hello_is_served_whatever_codec_offer_it_carries(self, offer):
        """An older client's hello offered a ``codecs`` list; the field
        is ignored like any unknown one, and the session is served."""

        async def scenario():
            server = await _started_server()
            bystander = NetClient("c1", "127.0.0.1", server.port)
            await bystander.connect()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            await write_frame(
                writer,
                encode_envelope("hello", client="raw", delivered=0, **offer),
            )
            welcome = await read_frame(reader)
            await bystander.generate(OpSpec("ins", 0, "x"))
            assert await bystander.wait_converged(1, timeout=10)
            broadcast = await asyncio.wait_for(read_frame(reader), timeout=10)
            registered = "raw" in server.channels
            writer.close()
            await bystander.close()
            await server.stop()
            return welcome, broadcast, registered

        welcome, broadcast, registered = _run(scenario())
        assert welcome["type"] == "welcome" and "codec" not in welcome
        assert broadcast["type"] == "data"
        assert broadcast["body"]["body"]["origin"] == "c1"
        assert registered


class TestActiveWindowGc:
    def test_gc_advances_base_and_bounds_the_state_space(self):
        async def scenario():
            server = await _started_server(**_FAST_GC)
            client = NetClient("c1", "127.0.0.1", server.port)
            await client.connect()
            for index in range(40):
                await client.generate(OpSpec("ins", index, "a"))
            assert await client.wait_converged(40, timeout=20)
            assert await _eventually(lambda: server.server.base >= 30)
            # Two more acked edits carry the floor back to the client.
            await client.generate(OpSpec("ins", 0, "z"))
            await client.generate(OpSpec("del", 0))
            assert await client.wait_converged(42, timeout=10)
            results = (
                server.server.base,
                server.server.space.node_count(),
                client.css.oracle.base,
                client.signature() == document_signature(
                    server.server.document
                ),
                server.shards[DEFAULT_DOC].gc_runs,
                server.shards[DEFAULT_DOC].wal.base,
            )
            await client.close()
            await server.stop()
            return results

        base, nodes, client_base, same, gc_runs, wal_base = _run(
            scenario()
        )
        assert base >= 30
        # Without GC the space would hold 40+ serialised states; the
        # active window keeps it to the unacked tail plus a few serials.
        assert nodes <= 16
        assert client_base > 0  # the floor reached the client too
        assert same
        assert gc_runs >= 1
        assert wal_base == base  # the WAL checkpointed at the rebase

    def test_disconnected_client_within_grace_pins_history(self):
        async def scenario():
            server = await _started_server(
                gc_interval=0.02, gc_threshold=4,
                gc_grace=30.0,
            )
            active = NetClient("c1", "127.0.0.1", server.port)
            away = NetClient("c2", "127.0.0.1", server.port)
            await active.connect()
            await away.connect()
            await active.generate(OpSpec("ins", 0, "a"))
            assert await active.wait_converged(1, timeout=10)
            assert await away.wait_converged(1, timeout=10)

            await away.drop()
            for index in range(20):
                await active.generate(OpSpec("ins", index + 1, "b"))
            assert await active.wait_converged(21, timeout=20)
            await asyncio.sleep(0.2)  # several GC ticks
            pinned_base = server.server.base

            before = away.state_transfers
            await away.connect()
            assert await away.wait_converged(21, timeout=10)
            results = (
                pinned_base,
                away.state_transfers - before,
                away.resync_frames,
                active.signature() == away.signature(),
            )
            await active.close()
            await away.close()
            await server.stop()
            return results

        pinned_base, transfers, resynced, same = _run(scenario())
        assert pinned_base <= 1  # the away session pinned serial 1
        assert transfers == 0  # ordinary WAL resync, no state transfer
        assert resynced >= 20
        assert same

    def test_offline_past_grace_returns_via_state_transfer(self):
        async def scenario():
            server = await _started_server(**_FAST_GC)
            active = NetClient("c1", "127.0.0.1", server.port)
            away = NetClient("c2", "127.0.0.1", server.port)
            await active.connect()
            await away.connect()
            for index in range(3):
                await active.generate(OpSpec("ins", index, "a"))
            assert await active.wait_converged(3, timeout=10)
            assert await away.wait_converged(3, timeout=10)

            await away.drop()
            await asyncio.sleep(0.4)  # past gc_grace
            for index in range(20):
                await active.generate(OpSpec("ins", index + 3, "b"))
            assert await active.wait_converged(23, timeout=20)
            # The away session stops counting; GC prunes past serial 3.
            assert await _eventually(lambda: server.server.base > 3)

            await away.connect()
            assert away.state_transfers == 1
            assert await away.wait_converged(23, timeout=10)

            # The transferred session keeps editing correctly.
            await away.generate(OpSpec("ins", 0, "z"))
            assert await away.wait_converged(24, timeout=10)
            assert await active.wait_converged(24, timeout=10)
            results = (
                active.signature()
                == away.signature()
                == document_signature(server.server.document),
                away.delivered,
            )
            await active.close()
            await away.close()
            await server.stop()
            return results

        same, delivered = _run(scenario())
        assert same
        assert delivered == 24


def test_offline_edit_survives_a_gc_sweep_while_away():
    """An op generated offline re-encodes exactly after the welcome's
    floor rebases the client past the states its context was built on:
    it carries ``(d, extras)`` from generation, and ``d`` is absolute."""

    async def scenario():
        server = await _started_server(
            gc_interval=0.05, gc_threshold=4
        )
        client = NetClient("c1", "127.0.0.1", server.port)
        await client.connect()
        for index in range(20):
            await client.generate(OpSpec("ins", index, "a"))
            assert await client.wait_converged(index + 1, timeout=10)
        await client.drop()
        # one sweep while away (well inside the 15 s default grace)
        assert await _eventually(lambda: server.server.base >= 16)
        await client.generate(OpSpec("ins", 0, "z"))
        await client.connect()
        converged = await client.wait_converged(21, timeout=10)
        results = (
            converged,
            client.state_transfers,
            client.css.oracle.base,
            server.server.oracle.last_serial,
            client.signature() == document_signature(server.server.document),
        )
        await client.close()
        await server.stop()
        return results

    converged, transfers, client_base, last_serial, same = _run(scenario())
    assert converged
    assert transfers == 0
    assert client_base >= 16  # the welcome's floor did rebase the client
    assert last_serial == 21
    assert same


class TestUnmatchedContextIsAViolation:
    """A peer whose context matches no state loses its session, typed:
    nothing is serialised and everybody else keeps converging."""

    # unknown-extra: a run longer than the ops its origin has serialised
    @pytest.mark.parametrize(
        "ctx", [[0, 0], [12, 1]], ids=["below-base", "unknown-extra"]
    )
    def test_forged_context_is_logged_and_serialises_nothing(self, ctx):
        async def scenario():
            server = await _started_server(
                gc_interval=0.02, gc_threshold=4
            )
            logged = []
            server._log = logged.append
            honest = NetClient(
                "c1", "127.0.0.1", server.port, heartbeat_interval=0.05
            )
            await honest.connect()
            for index in range(12):
                await honest.generate(OpSpec("ins", index, "a"))
            assert await honest.wait_converged(12, timeout=10)
            assert await _eventually(lambda: server.server.base >= 8)

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            await write_frame(
                writer,
                encode_envelope(
                    "hello", client="rogue", delivered=12
                ),
            )
            assert (await read_frame(reader))["type"] == "welcome"
            forged = {
                "v": WIRE_VERSION,
                "kind": "client_op",
                "body": {
                    "operation": {
                        "kind": "ins",
                        "opid": ["rogue", 2],
                        "element": {"value": "x", "opid": ["rogue", 2]},
                        "position": 0,
                    },
                    "ctx": ctx,
                },
            }
            await write_frame(
                writer, encode_envelope("data", seq=1, ack=12, body=forged)
            )
            hung_up = await read_frame(reader)
            writer.close()

            await honest.generate(OpSpec("ins", 0, "b"))
            carried_on = await honest.wait_converged(13, timeout=10)
            results = (
                hung_up,
                carried_on,
                server.server.oracle.last_serial,
                [line for line in logged if "violated the protocol" in line],
                honest.signature()
                == document_signature(server.server.document),
            )
            await honest.close()
            await server.stop()
            return results

        hung_up, carried_on, last_serial, violations, same = _run(scenario())
        assert hung_up is None  # the session was closed, not answered
        assert carried_on and same
        assert last_serial == 13  # the forged op never got a serial
        assert len(violations) == 1 and "rogue" in violations[0]


class TestMultiWriterGc:
    def test_two_concurrent_writers_survive_rebases(self):
        """Every step both writers edit before either hears the other,
        so the server transforms the second op against the first's
        stored transition — across dozens of rebases."""

        async def scenario():
            server = await _started_server(
                gc_interval=0.02,
                gc_threshold=16,
                gc_grace=0.25,
            )
            writers = [
                NetClient(name, "127.0.0.1", server.port)
                for name in ("w1", "w2")
            ]
            for writer in writers:
                await writer.connect()
            for step in range(150):
                for writer in writers:
                    await writer.generate(OpSpec("ins", 0, "ab"[step % 2]))
                for writer in writers:
                    assert await writer.wait_converged(
                        2 * (step + 1), timeout=20
                    )
            results = (
                [writer.signature() for writer in writers],
                document_signature(server.server.document),
                server.shards[DEFAULT_DOC].gc_runs,
                server.server.oracle.last_serial,
                server.server.space.ot_count,
            )
            for writer in writers:
                await writer.close()
            await server.stop()
            return results

        signatures, expected, gc_runs, last_serial, ots = _run(scenario())
        assert signatures == [expected, expected]
        assert last_serial == 300
        assert gc_runs > 0
        assert ots >= 150  # the writers really were concurrent


class TestGcDurability:
    def test_restart_recovers_a_gcd_wal(self, tmp_path):
        async def scenario():
            first = await _started_server(
                wal_dir=str(tmp_path), **_FAST_GC
            )
            writer = NetClient("w1", "127.0.0.1", first.port)
            await writer.connect()
            for index in range(24):
                await writer.generate(OpSpec("ins", index, "k"))
            assert await writer.wait_converged(24, timeout=20)
            assert await _eventually(lambda: first.server.base > 0)
            signature = writer.signature()
            base = first.server.base
            await writer.close()
            await first.stop()

            second = await _started_server(wal_dir=str(tmp_path))
            reader = NetClient("r1", "127.0.0.1", second.port)
            await reader.connect()
            # A fresh client's delivered=0 is below the GC'd record
            # floor, so it must arrive via state transfer.
            assert reader.state_transfers == 1
            assert await reader.wait_converged(24, timeout=10)
            results = (
                base,
                second.server.base,
                reader.signature() == signature,
            )
            await reader.close()
            await second.stop()
            return results

        base, recovered_base, same = _run(scenario())
        assert base > 0
        assert recovered_base >= base  # the rebase survived restart
        assert same


    def test_restart_ignores_a_leftover_scratch_file(self, tmp_path):
        """A kill mid-rewrite leaves ``<doc>.wal.tmp`` beside the intact
        log; the next owner recovers from the log and never reads it."""

        async def scenario():
            first = await _started_server(wal_dir=str(tmp_path))
            writer = NetClient("w1", "127.0.0.1", first.port)
            await writer.connect()
            for index in range(6):
                await writer.generate(OpSpec("ins", index, "k"))
            assert await writer.wait_converged(6, timeout=20)
            signature = writer.signature()
            await writer.close()
            await first.stop()
            (wal_file,) = tmp_path.glob("*.wal")
            scratch = wal_file.with_name(wal_file.name + ".tmp")
            scratch.write_text('{"version": 2, "snapsh', encoding="utf-8")

            second = await _started_server(wal_dir=str(tmp_path))
            shard = second.shards[DEFAULT_DOC]
            results = (
                shard.wal.last_serial,
                document_signature(shard.server.document) == signature,
            )
            await second.stop()
            return results

        last_serial, same = _run(scenario())
        assert last_serial == 6
        assert same


class TestGcObservability:
    def test_gauges_and_admin_stats_reflect_the_active_window(
        self, tmp_path
    ):
        obs.enable(reset=True)
        try:
            async def scenario():
                server = await _started_server(
                    wal_dir=str(tmp_path), **_FAST_GC
                )
                client = NetClient("c1", "127.0.0.1", server.port)
                await client.connect()
                for index in range(24):
                    await client.generate(OpSpec("ins", index, "m"))
                assert await client.wait_converged(24, timeout=20)
                assert await _eventually(lambda: server.server.base > 0)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await write_frame(
                    writer, encode_envelope("admin", cmd="stats")
                )
                stats = await read_frame(reader)
                writer.close()
                await client.close()
                await server.stop()
                return stats

            stats = _run(scenario())
            snapshot = obs.get_obs().snapshot()
            labels = [DEFAULT_DOC]
            nodes = snapshot_value(
                snapshot, "repro_doc_state_space_nodes", labels
            )
            window = snapshot_value(
                snapshot, "repro_serialized_order_len", labels
            )
            floor = snapshot_value(snapshot, "repro_gc_floor_serial", labels)
            wal_bytes = snapshot_value(
                snapshot, "repro_wal_bytes_on_disk", labels
            )
            assert nodes is not None and nodes <= 16
            assert window is not None and window <= 24
            assert floor is not None and floor > 0
            assert wal_bytes is not None and wal_bytes > 0
            gc_stats = stats["gc"]
            assert gc_stats["base"] > 0
            assert gc_stats["runs"] >= 1
            assert gc_stats["space_nodes"] <= 16
            # One checkpoint per rebase, in the admin block and the scrape.
            compactions = stats["wal"]["compactions"]
            assert compactions == gc_stats["runs"] == snapshot_value(
                snapshot, "repro_wal_compactions_total", []
            )
        finally:
            obs.disable()
