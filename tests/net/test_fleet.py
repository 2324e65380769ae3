"""The fleet tier: placement, registry leases, routing, re-placement.

In-process routers and workers on ephemeral ports, real TCP sockets,
one event loop per scenario — the same idiom as the other net tests.
The cross-process version of these drills lives in the fleet load
generator (``repro fleet loadgen``), exercised by the fleet-smoke CI
job; these tests pin the component contracts.
"""

import asyncio
import json

import pytest

from repro import obs
from repro.errors import ProtocolError
from repro.model.schedule import OpSpec
from repro.net.client import NetClient, ReconnectExhausted
from repro.net.codec import encode_envelope
from repro.net.fleet import (
    FleetRouter,
    FleetWorker,
    WorkerRegistry,
    place,
    placement_map,
    placement_skew,
)
from repro.net.server import NetServer
from repro.net.transport import read_frame, write_frame


def _run(coroutine):
    return asyncio.run(coroutine)


async def _admin(port: int, command: str, **fields):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        await write_frame(
            writer, encode_envelope("admin", cmd=command, **fields)
        )
        return await read_frame(reader)
    finally:
        writer.close()


# ----------------------------------------------------------------------
# Placement (pure)
# ----------------------------------------------------------------------
class TestPlacement:
    def test_deterministic_and_order_independent(self):
        workers = ["w0", "w1", "w2"]
        for doc in ("default", "doc-0", "doc-7", "a/b c"):
            owner = place(doc, workers)
            assert owner in workers
            assert place(doc, list(reversed(workers))) == owner
            assert place(doc, workers) == owner  # stable across calls

    def test_every_document_gets_exactly_one_owner(self):
        docs = [f"doc-{i}" for i in range(32)]
        assignment = placement_map(docs, ["w0", "w1", "w2"])
        assert sorted(assignment) == sorted(docs)
        assert set(assignment.values()) <= {"w0", "w1", "w2"}

    def test_minimal_movement_on_worker_loss(self):
        """Rendezvous property: only the dead worker's documents move."""
        docs = [f"doc-{i}" for i in range(64)]
        before = placement_map(docs, ["w0", "w1", "w2"])
        after = placement_map(docs, ["w0", "w2"])
        for doc in docs:
            if before[doc] != "w1":
                assert after[doc] == before[doc]
            else:
                assert after[doc] in ("w0", "w2")

    def test_empty_worker_set_raises(self):
        with pytest.raises(ProtocolError):
            place("doc", [])

    def test_skew_of_balanced_and_degenerate_assignments(self):
        assert placement_skew({}, []) == 1.0
        assert placement_skew({"a": "w0", "b": "w1"}, ["w0", "w1"]) == 1.0
        # Everything on one of two workers: max / mean = 2.
        skew = placement_skew({"a": "w0", "b": "w0"}, ["w0", "w1"])
        assert skew == 2.0


# ----------------------------------------------------------------------
# Registry (pure, injected clock)
# ----------------------------------------------------------------------
class TestWorkerRegistry:
    def test_lease_lifecycle_with_injected_clock(self):
        now = [0.0]
        registry = WorkerRegistry(lease_seconds=1.0, clock=lambda: now[0])
        registry.register("w0", "127.0.0.1", 1111)
        registry.register("w1", "127.0.0.1", 2222)
        assert registry.live() == ["w0", "w1"]
        now[0] = 0.9
        assert registry.heartbeat("w1", ["doc-0"])
        now[0] = 1.5  # w0 last heard at 0.0: lapsed; w1 at 0.9: alive
        lapsed = registry.expire()
        assert [info.worker_id for info in lapsed] == ["w0"]
        assert registry.live() == ["w1"]
        assert registry.get("w1").docs == {"doc-0"}
        # Expiry reports each worker exactly once.
        assert registry.expire() == []
        assert registry.expirations == 1

    def test_heartbeat_after_expiry_is_rejected(self):
        now = [0.0]
        registry = WorkerRegistry(lease_seconds=0.5, clock=lambda: now[0])
        registry.register("w0", "127.0.0.1", 1111)
        now[0] = 1.0
        registry.expire()
        assert registry.heartbeat("w0") is False
        with pytest.raises(ProtocolError):
            registry.addr("w0")
        # Re-registration restores the lease.
        registry.register("w0", "127.0.0.1", 3333)
        assert registry.addr("w0") == ("127.0.0.1", 3333)

    def test_empty_id_and_bad_lease_raise(self):
        with pytest.raises(ProtocolError):
            WorkerRegistry(lease_seconds=0.0)
        registry = WorkerRegistry()
        with pytest.raises(ProtocolError):
            registry.register("", "127.0.0.1", 1)


# ----------------------------------------------------------------------
# Router + workers, end to end in one loop
# ----------------------------------------------------------------------
async def _start_fleet(tmp_path, workers=("wa", "wb"), lease=1.2):
    router = FleetRouter("127.0.0.1", 0, lease_seconds=lease)
    await router.start()
    fleet = []
    for worker_id in workers:
        worker = FleetWorker(
            worker_id,
            "127.0.0.1",
            router.port,
            port=0,
            wal_dir=str(tmp_path),
        )
        await worker.start()
        fleet.append(worker)
    deadline = asyncio.get_event_loop().time() + 10.0
    while len(router.registry) < len(workers):
        if asyncio.get_event_loop().time() > deadline:
            raise AssertionError("workers never registered")
        await asyncio.sleep(0.02)
    return router, fleet


class TestFleetRouting:
    def test_clients_are_routed_per_document_and_serials_isolate(
        self, tmp_path
    ):
        async def scenario():
            router, fleet = await _start_fleet(tmp_path)
            by_id = {worker.worker_id: worker for worker in fleet}
            try:
                docs = ["doc-0", "doc-1", "doc-2"]
                clients = []
                for index, doc in enumerate(docs):
                    client = NetClient(
                        f"c{index}", "127.0.0.1", router.port, doc=doc
                    )
                    await client.connect()
                    clients.append(client)
                    for position in range(3):
                        await client.generate(OpSpec("ins", position, "x"))
                for client in clients:
                    assert await client.wait_converged(3, timeout=10)
                # Each hello went through the router exactly once.
                assert router.redirects == len(docs)
                stats = await _admin(router.port, "stats")
                assert stats["role"] == "router"
                assert stats["live_workers"] == 2
                # Serial orders are per document: every shard saw exactly
                # its own three operations, on the worker placement chose.
                for doc in docs:
                    owner = place(doc, ["wa", "wb"])
                    route = await _admin(router.port, "route", doc=doc)
                    assert route["worker"] == owner
                    shard = by_id[owner].server.shards[doc]
                    assert shard.wal.last_serial == 3
                view = await _admin(
                    by_id[place("doc-0", ["wa", "wb"])].port,
                    "signature",
                    doc="doc-0",
                )
                assert view["signature"] == clients[0].signature()
                for client in clients:
                    await client.close()
            finally:
                for worker in fleet:
                    await worker.stop()
                await router.stop()

        _run(scenario())

    def test_hello_with_no_live_workers_is_shed_with_retry_after(self):
        async def scenario():
            router = FleetRouter("127.0.0.1", 0)
            await router.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", router.port
                )
                await write_frame(
                    writer,
                    encode_envelope(
                        "hello", client="c1", delivered=0, doc="doc-0"
                    ),
                )
                reply = await read_frame(reader)
                writer.close()
                return reply
            finally:
                await router.stop()

        reply = _run(scenario())
        assert reply["type"] == "retry_after"
        assert reply["seconds"] > 0

    def test_a_connection_that_never_speaks_is_dropped(self):
        # The slow-loris guard NetServer has on its first frame: the
        # router reads its own under the write deadline it already had.
        async def scenario():
            router = FleetRouter("127.0.0.1", 0, write_timeout=0.2)
            await router.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", router.port
                )
                try:
                    return await asyncio.wait_for(reader.read(), timeout=1.0)
                finally:
                    writer.close()
            finally:
                await router.stop()

        assert _run(scenario()) == b""  # EOF: the router hung up

    def test_admin_metrics_shutdown_and_unknown_are_the_servers(self):
        async def scenario():
            router = FleetRouter("127.0.0.1", 0)
            server = NetServer("127.0.0.1", 0)
            await router.start()
            await server.start()
            replies = []
            for command in ("metrics", "frobnicate", "shutdown"):
                replies.append(
                    (
                        await _admin(router.port, command),
                        await _admin(server.port, command),
                    )
                )
            await asyncio.wait_for(router.wait_closed(), timeout=5.0)
            await asyncio.wait_for(server.wait_closed(), timeout=5.0)
            return replies

        for from_router, from_server in _run(scenario()):
            assert from_router == from_server

    def test_worker_stats_expose_identity_fields(self, tmp_path):
        async def scenario():
            router, fleet = await _start_fleet(tmp_path, workers=("wa",))
            try:
                stats = await _admin(fleet[0].port, "stats")
                return stats
            finally:
                for worker in fleet:
                    await worker.stop()
                await router.stop()

        stats = _run(scenario())
        assert stats["role"] == "primary"
        assert stats["doc_id"] == "default"
        assert stats["docs_hosted"] >= 1
        assert stats["uptime_seconds"] >= 0.0
        assert "default" in stats["docs"]


# ----------------------------------------------------------------------
# Redirect loops must exhaust cleanly, not spin
# ----------------------------------------------------------------------
async def _redirect_forever(port_of_other):
    """A server whose only answer to any hello is 'go elsewhere'."""

    async def handler(reader, writer):
        try:
            frame = await read_frame(reader)
            if frame is not None and frame.get("type") == "hello":
                await write_frame(
                    writer,
                    encode_envelope(
                        "redirect",
                        host="127.0.0.1",
                        port=port_of_other(),
                        primary=0,
                        view=0,
                        epoch=0,
                        roster=[],
                    ),
                )
        finally:
            writer.close()

    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


class TestRedirectExhaustion:
    def test_mutual_redirects_raise_reconnect_exhausted(self):
        """Two endpoints pointing at each other must end in a clean
        ReconnectExhausted once the budget runs out — not an unbounded
        redirect chase."""

        async def scenario():
            ports = {}
            server_a, port_a = await _redirect_forever(lambda: ports["b"])
            server_b, port_b = await _redirect_forever(lambda: ports["a"])
            ports["a"], ports["b"] = port_a, port_b
            client = NetClient(
                "c1", "127.0.0.1", port_a, max_connect_attempts=2
            )
            try:
                with pytest.raises(ReconnectExhausted):
                    await asyncio.wait_for(client.connect(), timeout=30.0)
            finally:
                server_a.close()
                server_b.close()
                await server_a.wait_closed()
                await server_b.wait_closed()

        _run(scenario())


# ----------------------------------------------------------------------
# Worker death: re-placement with zero lost acknowledged operations
# ----------------------------------------------------------------------
class TestWorkerDeathReplacement:
    def test_documents_move_to_survivor_and_keep_every_acked_op(
        self, tmp_path
    ):
        async def scenario():
            # Short lease so the drill runs in test time.
            router, fleet = await _start_fleet(tmp_path, lease=0.4)
            by_id = {worker.worker_id: worker for worker in fleet}
            try:
                # Pick a document the rendezvous hash places on 'wa'.
                doc = next(
                    f"doc-{i}"
                    for i in range(100)
                    if place(f"doc-{i}", ["wa", "wb"]) == "wa"
                )
                writer_client = NetClient(
                    "c1", "127.0.0.1", router.port, doc=doc
                )
                await writer_client.connect()
                for position in range(5):
                    await writer_client.generate(OpSpec("ins", position, "k"))
                assert await writer_client.wait_converged(5, timeout=10)
                signature = writer_client.signature()
                await writer_client.close()

                # Kill 'wa' (server + lease keeper die together, as in
                # SIGKILL) and let its lease lapse.
                await by_id["wa"].stop()
                deadline = asyncio.get_event_loop().time() + 10.0
                while True:
                    router._expire_lapsed()
                    if router.registry.live() == ["wb"]:
                        break
                    if asyncio.get_event_loop().time() > deadline:
                        raise AssertionError("lease never lapsed")
                    await asyncio.sleep(0.05)
                assert router.docs_seen[doc] == "wb"

                # A late client walks through the router to the new
                # owner, which recovers the shard from the shared WAL
                # directory: every acknowledged op is still there.
                reader_client = NetClient(
                    "c2", "127.0.0.1", router.port, doc=doc
                )
                await reader_client.connect()
                assert await reader_client.wait_converged(5, timeout=10)
                assert reader_client.signature() == signature
                await reader_client.close()
                shard = by_id["wb"].server.shards[doc]
                assert shard.wal.last_serial == 5
            finally:
                for worker in fleet:
                    await worker.stop()
                await router.stop()

        _run(scenario())


# ----------------------------------------------------------------------
# Shard durability: a restarted server recovers per-document WALs
# ----------------------------------------------------------------------
class TestShardRecovery:
    def test_restarted_server_recovers_every_document(self, tmp_path):
        async def scenario():
            first = NetServer(
                "127.0.0.1", 0, wal_dir=str(tmp_path)
            )
            await first.start()
            signatures = {}
            for doc in ("doc-a", "doc-b"):
                client = NetClient(
                    f"w-{doc}", "127.0.0.1", first.port, doc=doc
                )
                await client.connect()
                for position in range(4):
                    await client.generate(OpSpec("ins", position, "z"))
                assert await client.wait_converged(4, timeout=10)
                signatures[doc] = client.signature()
                await client.close()
            await first.stop()

            second = NetServer(
                "127.0.0.1", 0, wal_dir=str(tmp_path)
            )
            await second.start()
            for doc in ("doc-a", "doc-b"):
                client = NetClient(
                    f"r-{doc}", "127.0.0.1", second.port, doc=doc
                )
                await client.connect()
                assert await client.wait_converged(4, timeout=10)
                assert client.signature() == signatures[doc]
                await client.close()
            await second.stop()

        _run(scenario())

    def test_admin_query_recovers_a_logged_document_before_any_hello(
        self, tmp_path
    ):
        """A re-placed document's new owner must answer ``signature``
        from the WAL file alone — its clients may all have finished
        before the move — and a query must never create a document."""

        async def scenario():
            first = NetServer(
                "127.0.0.1", 0, wal_dir=str(tmp_path)
            )
            await first.start()
            client = NetClient("w1", "127.0.0.1", first.port, doc="doc-a")
            await client.connect()
            for position in range(4):
                await client.generate(OpSpec("ins", position, "z"))
            assert await client.wait_converged(4, timeout=10)
            before = await _admin(first.port, "signature", doc="doc-a")
            await client.close()
            await first.stop()

            second = NetServer(
                "127.0.0.1", 0, wal_dir=str(tmp_path)
            )
            await second.start()
            after = await _admin(second.port, "signature", doc="doc-a")
            stats = await _admin(second.port, "stats", doc="doc-a")
            unknown = await _admin(second.port, "signature", doc="doc-zz")
            hosted = sorted(second.shards)
            files = sorted(path.name for path in tmp_path.iterdir())
            await second.stop()
            return before, after, stats, unknown, hosted, files

        before, after, stats, unknown, hosted, files = _run(scenario())
        assert after["signature"] == before["signature"]
        assert after["serial"] == before["serial"] == 4
        assert stats["serial"] == 4
        assert "not hosted here" in unknown["error"]
        assert hosted == ["default", "doc-a"]
        assert files == ["default.wal", "doc-a.wal"]

    def test_replicated_server_rejects_wal_dir(self, tmp_path):
        with pytest.raises(ProtocolError):
            NetServer(
                "127.0.0.1",
                0,
                wal_dir=str(tmp_path),
                roster=[("127.0.0.1", 1), ("127.0.0.1", 2), ("127.0.0.1", 3)],
            )


# ----------------------------------------------------------------------
# Doc-labelled wire series
# ----------------------------------------------------------------------
class TestDocLabelledSeries:
    def test_frame_counters_carry_the_doc_label(self, tmp_path):
        async def scenario():
            server = NetServer(
                "127.0.0.1", 0, wal_dir=str(tmp_path)
            )
            await server.start()
            client = NetClient(
                "c1", "127.0.0.1", server.port, doc="doc-x"
            )
            await client.connect()
            await client.generate(OpSpec("ins", 0, "q"))
            assert await client.wait_converged(1, timeout=10)
            reply = await _admin(server.port, "metrics")
            await client.close()
            await server.stop()
            return reply

        obs.enable(reset=True)
        try:
            reply = _run(scenario())
        finally:
            obs.disable()
        text = reply["exposition"]
        assert 'repro_net_frames_received_total{doc="doc-x"}' in text
        assert 'repro_net_frames_sent_total{doc="doc-x"}' in text
        assert 'repro_net_connected_clients{doc="doc-x"}' in text


# ----------------------------------------------------------------------
# Multi-endpoint metrics merge (the ``repro metrics --addr`` path)
# ----------------------------------------------------------------------
def _snapshot(counter_value):
    return {
        "version": 1,
        "metrics": [
            {
                "name": "repro_wal_appends_total",
                "type": "counter",
                "help": "",
                "labelnames": [],
                "samples": [{"labels": [], "value": counter_value}],
            }
        ],
    }


class TestMetricsMultiAddr:
    def _invoke(self, monkeypatch, capsys, replies, argv):
        from repro import cli
        from repro.net import loadgen

        def fake_admin(host, port, command, **fields):
            reply = replies[f"{host}:{port}"]
            if isinstance(reply, Exception):
                raise reply
            return reply

        monkeypatch.setattr(loadgen, "admin", fake_admin)
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out

    def test_merge_sums_across_endpoints(self, monkeypatch, capsys):
        replies = {
            "h1:1": {"enabled": True, "snapshot": _snapshot(3.0)},
            "h2:2": {"enabled": True, "snapshot": _snapshot(4.0)},
        }
        code, out = self._invoke(
            monkeypatch,
            capsys,
            replies,
            ["metrics", "--addr", "h1:1", "--addr", "h2:2", "--json"],
        )
        assert code == 0
        merged = json.loads(out)
        (sample,) = merged["metrics"][0]["samples"]
        assert sample["value"] == 7.0

    def test_partial_reachability_still_succeeds(self, monkeypatch, capsys):
        replies = {
            "h1:1": ConnectionRefusedError("down"),
            "h2:2": {"enabled": True, "snapshot": _snapshot(4.0)},
        }
        code, out = self._invoke(
            monkeypatch,
            capsys,
            replies,
            ["metrics", "--addr", "h1:1", "--addr", "h2:2", "--json"],
        )
        assert code == 0
        merged = json.loads(out)
        assert merged["metrics"][0]["samples"][0]["value"] == 4.0

    def test_no_endpoint_reachable_exits_2(self, monkeypatch, capsys):
        replies = {
            "h1:1": ConnectionRefusedError("down"),
            "h2:2": OSError("also down"),
        }
        code, _out = self._invoke(
            monkeypatch,
            capsys,
            replies,
            ["metrics", "--addr", "h1:1", "--addr", "h2:2"],
        )
        assert code == 2

    def test_all_reachable_but_disabled_exits_1(self, monkeypatch, capsys):
        replies = {
            "h1:1": {"enabled": False, "snapshot": {"version": 1, "metrics": []}},
            "h2:2": {"enabled": False, "snapshot": {"version": 1, "metrics": []}},
        }
        code, _out = self._invoke(
            monkeypatch,
            capsys,
            replies,
            ["metrics", "--addr", "h1:1", "--addr", "h2:2"],
        )
        assert code == 1

    def test_bad_addr_exits_2(self, monkeypatch, capsys):
        code, _out = self._invoke(
            monkeypatch, capsys, {}, ["metrics", "--addr", "nonsense"]
        )
        assert code == 2
