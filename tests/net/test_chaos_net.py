"""Chaos-net property suite: convergence through a hostile transport.

Fifty sampled :class:`~repro.sim.faults.NetChaosPlan`\\ s drive real
:class:`~repro.net.client.NetClient`\\ s through a
:class:`~repro.net.chaosproxy.ChaosProxy` against a real
:class:`~repro.net.server.NetServer` — every byte crosses actual
sockets, and the proxy injects latency, jitter, bandwidth caps,
mid-stream resets, one-way partitions, and slow-loris stalls, none of
them aligned to frame boundaries.  Every 10th seed runs the replicated
roster (three replicas, proxy in front of the view-0 primary).

The property asserted is the paper's convergence guarantee surviving
the fault plan end to end:

* every client converges (all broadcasts consumed, nothing unacked);
* **zero acknowledged operations are lost** — the server serialises
  exactly the operations generated, so an eviction or a reset never
  swallows an op the session layer accepted;
* every replica's document signature is byte-identical.

Clients run a progress watchdog: if a convergence window passes with no
progress (a one-way partition can swallow a broadcast on a socket that
stays healthy — TCP cannot tell), the client drops and redials, and the
WAL resync makes that recovery lossless.  Server-side, a short idle
deadline plus the client heartbeat reap sessions the plan has wedged.
"""

import asyncio
import time

import pytest

from repro.model.schedule import OpSpec
from repro.net.chaosproxy import ChaosProxy
from repro.net.client import NetClient
from repro.net.codec import document_signature
from repro.net.server import NetServer
from repro.sim.faults import NetChaosPlan
from tests.net.test_failover import _reserve_ports

PLANS = 50
CLIENTS = 2
OPS_PER_CLIENT = 4
TOTAL_OPS = CLIENTS * OPS_PER_CLIENT
#: Windows sampled inside this hint land while the run is still active.
DURATION_HINT = 1.2
#: Short enough that a wedged session is reaped in test time, long
#: enough that a healthy-but-slow plan (latency + stall) is not.
IDLE_TIMEOUT = 2.0
HEARTBEAT = 0.4


def _run(coroutine):
    return asyncio.run(coroutine)


async def _converge_all(clients, total, timeout=30.0):
    """Drive every client to convergence, kicking wedged links.

    :meth:`NetClient.wait_converged` already redials a *dead* link; the
    kick covers the nastier case — a live socket whose bytes a one-way
    partition discarded.  Dropping forces a reconnect, and the WAL
    resync plus sender retransmission make the recovery lossless, which
    is exactly the property this suite exists to check.
    """
    deadline = time.monotonic() + timeout

    async def _converge_one(client):
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            if await client.wait_converged(
                total, timeout=min(2.0, remaining)
            ):
                return True
            await client.drop()

    # Concurrently: convergence is mutual.  A client may be waiting for
    # a broadcast only *another* client's retransmission can produce, so
    # every client's watchdog must keep running.
    results = await asyncio.gather(
        *(_converge_one(client) for client in clients)
    )
    return all(results)


async def _generate_interleaved(clients, rng_seed):
    """Spread the edit stream over time so faults land mid-run."""
    for round_index in range(OPS_PER_CLIENT):
        for offset, client in enumerate(clients):
            position = (round_index + offset) % max(
                1, len(client.css.document.read()) + 1
            )
            await client.generate(
                OpSpec("ins", position, f"{rng_seed % 10}")
            )
            await asyncio.sleep(0.02)


async def _chaos_case_single(seed):
    plan = NetChaosPlan.sample(seed, duration_hint=DURATION_HINT)
    server = NetServer(
        "127.0.0.1", 0, idle_timeout=IDLE_TIMEOUT
    )
    await server.start()
    proxy = ChaosProxy("127.0.0.1", server.port, plan=plan)
    await proxy.start()
    clients = [
        NetClient(
            f"c{index + 1}",
            "127.0.0.1",
            proxy.port,
            reconnect_seed=seed * 100 + index,
            heartbeat_interval=HEARTBEAT,
        )
        for index in range(CLIENTS)
    ]
    try:
        for client in clients:
            await client.connect()
        await _generate_interleaved(clients, seed)
        converged = await _converge_all(clients, TOTAL_OPS)
        signatures = {client.signature() for client in clients}
        signatures.add(document_signature(server.server.document))
        return {
            "plan": plan,
            "converged": converged,
            "serial": server.wal.last_serial,
            "signatures": signatures,
            "evictions": server.evictions,
        }
    finally:
        for client in clients:
            await client.close()
        await proxy.stop()
        await server.stop()


async def _chaos_case_replicated(seed):
    plan = NetChaosPlan.sample(seed, duration_hint=DURATION_HINT)
    ports = _reserve_ports(3)
    roster = [("127.0.0.1", port) for port in ports]
    servers = [
        NetServer(
            "127.0.0.1",
            port,
            roster=roster,
            replica_index=index,
            failover_delay=5.0,  # nobody dies here; don't race elections
            idle_timeout=IDLE_TIMEOUT,
        )
        for index, port in enumerate(ports)
    ]
    for server in servers[1:]:
        await server.start()
    await servers[0].start()

    async def _feeds_up():
        while any(s._primary_feed is None for s in servers[1:]):
            await asyncio.sleep(0.01)

    await asyncio.wait_for(_feeds_up(), timeout=10)
    primary = servers[0]
    proxy = ChaosProxy("127.0.0.1", primary.port, plan=plan)
    await proxy.start()
    clients = [
        NetClient(
            f"c{index + 1}",
            "127.0.0.1",
            proxy.port,
            reconnect_seed=seed * 100 + index,
            heartbeat_interval=HEARTBEAT,
        )
        for index in range(CLIENTS)
    ]
    try:
        for client in clients:
            await client.connect()
        await _generate_interleaved(clients, seed)
        converged = await _converge_all(clients, TOTAL_OPS)
        signatures = {client.signature() for client in clients}
        signatures.add(document_signature(primary.server.document))
        return {
            "plan": plan,
            "converged": converged,
            "serial": primary.wal.last_serial,
            "committed": primary.committed,
            "signatures": signatures,
        }
    finally:
        for client in clients:
            await client.close()
        await proxy.stop()
        for server in servers:
            await server.stop()


class TestChaosNetProperty:
    @pytest.mark.parametrize("seed", range(PLANS))
    def test_convergence_survives_the_sampled_plan(self, seed):
        replicated = seed % 10 == 0
        if replicated:
            result = _run(_chaos_case_replicated(seed))
        else:
            result = _run(_chaos_case_single(seed))
        plan = result["plan"]
        assert result["converged"], (
            f"seed {seed} plan {plan} failed to converge"
        )
        # Zero lost acknowledged ops: the serial order holds exactly the
        # operations generated — no op the session layer accepted was
        # swallowed by a reset, partition, stall, or eviction.
        assert result["serial"] == TOTAL_OPS, (
            f"seed {seed} plan {plan}: serialised {result['serial']} "
            f"of {TOTAL_OPS} ops"
        )
        assert len(result["signatures"]) == 1, (
            f"seed {seed} plan {plan}: replicas diverged"
        )
        if replicated:
            assert result["committed"] == TOTAL_OPS


class TestEvictedClientResyncs:
    def test_eviction_is_lossless(self):
        """A deliberately wedged client is evicted, then resyncs to the
        identical signature — the eviction state machine end to end."""

        async def scenario():
            server = NetServer(
                "127.0.0.1", 0, idle_timeout=0.5
            )
            await server.start()
            victim = NetClient(
                "c1", "127.0.0.1", server.port, heartbeat_interval=None
            )
            healthy = NetClient("c2", "127.0.0.1", server.port)
            await victim.connect()
            await healthy.connect()
            await victim.generate(OpSpec("ins", 0, "v"))
            await healthy.generate(OpSpec("ins", 0, "h"))
            # No heartbeat, no traffic: the idle deadline must reap c1.
            async def _evicted():
                while server.evictions == 0:
                    await asyncio.sleep(0.05)

            await asyncio.wait_for(_evicted(), timeout=10)
            assert server.channels["c1"].writer is None
            # The victim reconnects (wait_converged redials the dead
            # link) and must land on the same document as everyone else.
            assert await victim.wait_converged(2, timeout=10)
            assert await healthy.wait_converged(2, timeout=10)
            same = (
                victim.signature()
                == healthy.signature()
                == document_signature(server.server.document)
            )
            evicted_count = victim.evictions
            reason = victim.last_eviction
            await victim.close()
            await healthy.close()
            await server.stop()
            return same, evicted_count, reason

        same, evicted_count, reason = _run(scenario())
        assert same
        # The typed evicted envelope reached the victim before the close
        # (best effort — but the idle path flushes it synchronously).
        assert evicted_count >= 1
        assert "idle" in (reason or "")
