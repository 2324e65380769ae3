"""Tests for the multi-process load generator.

The smoke test here spawns real OS processes (one server, two clients)
and is deliberately small — the CI workflow runs the full-size recipe.
"""

import asyncio

import pytest

from repro.net.client import NetClient
from repro.net.loadgen import (
    _connect_with_retry,
    _free_ports,
    percentile,
    run_loadgen,
    run_worker,
    split_ops,
)
from repro.net.server import NetServer


class TestHelpers:
    def test_split_ops_distributes_remainder_first(self):
        assert split_ops(10, 3) == [4, 3, 3]
        assert split_ops(9, 3) == [3, 3, 3]
        assert split_ops(1, 1) == [1]

    def test_split_ops_covers_total(self):
        assert sum(split_ops(500, 7)) == 500

    def test_percentile_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 0.5) == 50.0
        assert percentile(samples, 1.0) == 100.0
        # Small samples are where a second rule would show: the ledger's
        # (repro.analysis.latency) and the reports' are one function.
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
        assert percentile([float(v) for v in range(1, 9)], 0.5) == 4.0
        assert percentile([float(v) for v in range(1, 7)], 0.9) == 6.0

    def test_percentile_of_nothing_is_zero(self):
        assert percentile([], 0.99) == 0.0

    def test_free_ports_are_distinct(self):
        ports = _free_ports(5, "127.0.0.1")
        assert len(set(ports)) == 5
        assert all(1024 < port < 65536 for port in ports)


class TestConnectRetry:
    def test_retries_until_the_server_comes_up(self):
        async def scenario():
            (port,) = _free_ports(1, "127.0.0.1")
            # A single dial per connect(): the retry loop under test is
            # the loadgen's, not the client's internal roster walk.
            client = NetClient(
                "c1", "127.0.0.1", port, max_connect_attempts=1
            )

            async def late_server():
                # The worker races a server that is still starting.
                await asyncio.sleep(0.3)
                server = NetServer("127.0.0.1", port)
                await server.start()
                return server

            starter = asyncio.ensure_future(late_server())
            attempts = await _connect_with_retry(client, connect_timeout=10.0)
            server = await starter
            connected = client.connected
            await client.close()
            await server.stop()
            return attempts, connected

        attempts, connected = asyncio.run(scenario())
        assert attempts >= 1  # at least one refused dial was absorbed
        assert connected

    def test_reraises_once_the_deadline_passes(self):
        async def scenario():
            (port,) = _free_ports(1, "127.0.0.1")  # released: nobody listens
            client = NetClient(
                "c1", "127.0.0.1", port, max_connect_attempts=1
            )
            with pytest.raises((ConnectionError, OSError)):
                await _connect_with_retry(client, connect_timeout=0.5)

        asyncio.run(scenario())


class TestValidation:
    def test_rejects_zero_clients(self):
        with pytest.raises(ValueError):
            run_loadgen(clients=0, ops=10)

    def test_rejects_fewer_ops_than_clients(self):
        with pytest.raises(ValueError):
            run_loadgen(clients=5, ops=3)

    def test_rejects_even_or_undersized_rosters(self):
        with pytest.raises(ValueError):
            run_loadgen(clients=1, ops=4, replicas=2)
        with pytest.raises(ValueError):
            run_loadgen(clients=1, ops=4, replicas=4)

    def test_kill_primary_needs_a_roster(self):
        with pytest.raises(ValueError):
            run_loadgen(clients=1, ops=4, kill_primary=True)


class TestOwnedProcesses:
    def test_a_failed_start_leaves_no_listener_running(self, monkeypatch):
        # The second replica fails to start: the first, already
        # announced and listening, must not outlive the coordinator.
        from repro.net import loadgen

        spawned = []
        real_spawn = loadgen._spawn
        real_announced = loadgen._spawn_announced

        def recording_spawn(command):
            process = real_spawn(command)
            spawned.append(process)
            return process

        def second_start_fails(marker, *command, **flags):
            if spawned:
                raise RuntimeError(f"{marker} process failed to start")
            return real_announced(marker, *command, **flags)

        monkeypatch.setattr(loadgen, "_spawn", recording_spawn)
        monkeypatch.setattr(loadgen, "_spawn_announced", second_start_fails)
        try:
            with pytest.raises(RuntimeError):
                run_loadgen(clients=1, ops=4, replicas=3, quiet=True)
            assert len(spawned) == 1
            assert spawned[0].poll() is not None
        finally:
            for process in spawned:
                process.kill()


class TestMultiProcessSmoke:
    def test_two_process_run_converges_with_a_reconnect(self):
        report = run_loadgen(
            clients=2,
            ops=24,
            seed=7,
            timeout=90.0,
            op_interval=0.01,
            quiet=True,
        )
        assert report["failures"] == []
        assert report["ok"], report
        assert report["converged"]
        assert report["signatures_identical"]
        # Workers plus the server-side view all report one signature.
        assert len(report["signatures"]) == 3
        assert report["serial"] == 24
        assert report["reconnects"] >= 1
        assert report["resync_on_reconnect"] > 0
        assert report["server_stats"]["wal"]["appends"] == 24


class TestDurationStop:
    def _run(self, **worker_kwargs):
        async def scenario():
            server = NetServer("127.0.0.1", 0)
            await server.start()
            try:
                return await run_worker(
                    host="127.0.0.1",
                    port=server.port,
                    client_id="c1",
                    seed=3,
                    op_interval=0.01,
                    timeout=20.0,
                    **worker_kwargs,
                )
            finally:
                await server.stop()

        return asyncio.run(scenario())

    def test_deadline_bounds_an_unlimited_run(self):
        report = self._run(ops=0, expect_total=0, duration=0.3)
        assert report["converged"]
        # ops=0 + duration means "generate until the deadline": the
        # worker must have produced a bounded, non-empty stream.
        assert 0 < report["ops"] <= 200
        assert report["duration"] >= 0.3

    def test_ops_cap_still_wins_when_it_is_hit_first(self):
        report = self._run(ops=5, expect_total=5, duration=30.0)
        assert report["converged"]
        assert report["ops"] == 5
        assert report["duration"] < 10.0

    def test_no_duration_keeps_the_legacy_contract(self):
        report = self._run(ops=4, expect_total=4)
        assert report["converged"]
        assert report["ops"] == 4
