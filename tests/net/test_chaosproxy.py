"""Unit tests for the seeded TCP chaos proxy.

These exercise the proxy as a byte pump against a trivial echo server —
no protocol above it — so each fault primitive (latency, reset,
partition, slow-loris stall) is observable in isolation.  The full
protocol-level property suite lives in ``test_chaos_net.py``.
"""

import asyncio
import time

import pytest

from repro.errors import SimulationError
from repro.net.chaosproxy import ChaosProxy
from repro.sim.faults import NetChaosPlan


def _run(coroutine):
    return asyncio.run(coroutine)


async def _echo_server():
    """An echo server that mirrors every byte it reads."""

    async def handle(reader, writer):
        try:
            while True:
                chunk = await reader.read(4096)
                if not chunk:
                    break
                writer.write(chunk)
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


async def _started_proxy(target_port, plan):
    proxy = ChaosProxy("127.0.0.1", target_port, plan=plan)
    await proxy.start()
    return proxy


class TestNetChaosPlan:
    def test_defaults_are_quiet(self):
        assert NetChaosPlan().quiet
        assert not NetChaosPlan(latency=0.01).quiet

    @pytest.mark.parametrize(
        "fields",
        [
            {"latency": -0.1},
            {"jitter": -0.1},
            {"bandwidth": -1},
            {"reset_after": 0.0},
            {"partition": "up"},
            {"partition": "c2s", "partition_for": 0.0},
            {"partition": "c2s", "partition_at": -1.0, "partition_for": 1.0},
            {"stall_at": -1.0, "stall_for": 1.0},
            {"stall_at": 0.5, "stall_for": 0.0},
        ],
    )
    def test_invalid_plans_are_rejected(self, fields):
        with pytest.raises(SimulationError):
            NetChaosPlan(**fields)

    def test_sample_is_deterministic_per_seed(self):
        plans = [NetChaosPlan.sample(seed) for seed in range(20)]
        again = [NetChaosPlan.sample(seed) for seed in range(20)]
        assert plans == again
        # Different seeds must actually explore the fault space.
        assert len(set(plans)) > 1
        assert any(p.reset_after is not None for p in plans)
        assert any(p.partition is not None for p in plans)
        assert any(p.stall_at is not None for p in plans)

    def test_sample_windows_land_inside_the_duration_hint(self):
        for seed in range(50):
            plan = NetChaosPlan.sample(seed, duration_hint=2.0)
            if plan.reset_after is not None:
                assert 0.0 < plan.reset_after <= 1.4
            if plan.partition is not None:
                assert plan.partition_at <= 1.0
            if plan.stall_at is not None:
                assert plan.stall_at <= 1.0

    def test_round_trips_through_obj(self):
        for seed in range(20):
            plan = NetChaosPlan.sample(seed)
            assert NetChaosPlan.from_obj(plan.to_obj()) == plan

    def test_from_obj_ignores_unknown_fields(self):
        obj = NetChaosPlan(latency=0.01).to_obj()
        obj["from_the_future"] = True
        assert NetChaosPlan.from_obj(obj) == NetChaosPlan(latency=0.01)


class TestProxyPassThrough:
    def test_quiet_plan_forwards_bytes_unchanged(self):
        async def scenario():
            server, port = await _echo_server()
            proxy = await _started_proxy(port, NetChaosPlan())
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", proxy.port
            )
            payload = b"x" * 10_000
            writer.write(payload)
            await writer.drain()
            echoed = await asyncio.wait_for(
                reader.readexactly(len(payload)), timeout=10
            )
            writer.close()
            await proxy.stop()
            server.close()
            return echoed == payload, proxy.stats()

        intact, stats = _run(scenario())
        assert intact
        assert stats["connections"] == 1
        assert stats["bytes_c2s"] == 10_000
        assert stats["bytes_s2c"] == 10_000
        assert stats["resets"] == 0

    def test_latency_delays_the_round_trip(self):
        async def scenario():
            server, port = await _echo_server()
            proxy = await _started_proxy(port, NetChaosPlan(latency=0.05))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", proxy.port
            )
            started = time.monotonic()
            writer.write(b"ping")
            await writer.drain()
            await asyncio.wait_for(reader.readexactly(4), timeout=10)
            elapsed = time.monotonic() - started
            writer.close()
            await proxy.stop()
            server.close()
            return elapsed

        # Both directions are shaped, so the round trip pays >= 2x.
        assert _run(scenario()) >= 0.1


class TestProxyReset:
    def test_reset_aborts_live_connections_exactly_once(self):
        async def scenario():
            server, port = await _echo_server()
            proxy = await _started_proxy(
                port, NetChaosPlan(reset_after=0.15)
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", proxy.port
            )
            writer.write(b"hi")
            await writer.drain()
            await asyncio.wait_for(reader.readexactly(2), timeout=10)
            # The reset lands mid-connection: the read returns EOF or a
            # connection error once the proxy aborts us.
            try:
                severed = (
                    await asyncio.wait_for(reader.read(1), timeout=10) == b""
                )
            except (ConnectionError, OSError):
                severed = True
            writer.close()

            # A *reconnect* must pass clean: the reset is one-shot.
            reader2, writer2 = await asyncio.open_connection(
                "127.0.0.1", proxy.port
            )
            writer2.write(b"again")
            await writer2.drain()
            echoed = await asyncio.wait_for(
                reader2.readexactly(5), timeout=10
            )
            writer2.close()
            await proxy.stop()
            server.close()
            return severed, echoed, proxy.stats()

        severed, echoed, stats = _run(scenario())
        assert severed
        assert echoed == b"again"
        assert stats["resets"] >= 1
        assert stats["connections"] == 2


class TestProxyStall:
    def test_stall_holds_the_connection_open_but_idle(self):
        async def scenario():
            server, port = await _echo_server()
            proxy = await _started_proxy(
                port, NetChaosPlan(stall_at=0.05, stall_for=0.4)
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", proxy.port
            )
            # Let the stall engage, then measure a round trip: it must
            # wait out the remainder of the stall window, yet the socket
            # itself never drops.
            await asyncio.sleep(0.15)
            started = time.monotonic()
            writer.write(b"late")
            await writer.drain()
            echoed = await asyncio.wait_for(
                reader.readexactly(4), timeout=10
            )
            elapsed = time.monotonic() - started
            writer.close()
            await proxy.stop()
            server.close()
            return echoed, elapsed, proxy.stats()

        echoed, elapsed, stats = _run(scenario())
        assert echoed == b"late"
        assert elapsed >= 0.2
        assert stats["stalls"] == 1


class TestProxyPartition:
    def test_one_way_partition_discards_bytes(self):
        """The window is long enough for the first write to land inside
        it on a loaded machine; the second is sent only once the proxy
        counted the first as discarded and its own clock left the
        window, so neither depends on how fast the bytes travel."""
        window = 1.5

        async def until(predicate):
            while not predicate():
                await asyncio.sleep(0.01)

        async def scenario():
            server, port = await _echo_server()
            proxy = await _started_proxy(
                port,
                NetChaosPlan(
                    partition="c2s", partition_at=0.0, partition_for=window
                ),
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", proxy.port
            )
            # Bytes sent during the window vanish: TCP delivered them to
            # the proxy, which read and discarded them.
            writer.write(b"lost")
            await writer.drain()
            await asyncio.wait_for(
                until(lambda: proxy.partitioned_bytes >= 4), timeout=10
            )
            await until(lambda: proxy._elapsed() >= window)
            writer.write(b"kept")
            await writer.drain()
            echoed = await asyncio.wait_for(
                reader.readexactly(4), timeout=10
            )
            writer.close()
            await proxy.stop()
            server.close()
            return echoed, proxy.stats()

        echoed, stats = _run(scenario())
        assert echoed == b"kept"
        assert stats["partitioned_bytes"] == 4
        assert stats["bytes_c2s"] == 4
