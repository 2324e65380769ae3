"""A seeded TCP chaos proxy: socket-level fault injection for the wire
runtime.

PR 1's :class:`~repro.sim.faults.FaultPlan` adversaries the *simulated*
network; this module is its twin for the real one.  A
:class:`ChaosProxy` listens on its own port, forwards every accepted
connection to the target server, and perturbs the byte stream according
to a declarative :class:`~repro.sim.faults.NetChaosPlan` — latency and
jitter, per-connection bandwidth caps, one mid-run reset of every live
connection, one-way partitions (bytes read and discarded, the TCP mirror
of a one-way channel outage), and per-connection slow-loris stalls where
the socket stays open but nothing moves.

Every random draw comes from one RNG seeded with the plan's seed, so a
run through the proxy replays deterministically up to OS scheduling.
The proxy never parses frames: it is a byte pump, which is exactly the
point — the session layer and the server's overload armor must survive
an adversary that knows nothing about message boundaries (a reset or a
stall lands mid-frame as often as not).

The chaos-net property suite (``tests/net/test_chaos_net.py``) drives
real clients through sampled plans against a real
:class:`~repro.net.server.NetServer` and asserts the paper's convergence
guarantee end to end: byte-identical document signatures and zero lost
acknowledged operations.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Optional, Set

from repro.net.transport import run_listener
from repro.sim.faults import NetChaosPlan

#: Forwarding slice: small enough that latency/bandwidth shaping applies
#: per-slice, large enough that a healthy proxy adds little overhead.
CHUNK = 4096


class ChaosProxy:
    """One seeded TCP proxy in front of one server.

    Start it, point clients at ``(host, port)``, and every byte flows
    through :meth:`_pump` twice (client→server and server→client), each
    direction shaped independently by the plan.
    """

    def __init__(
        self,
        target_host: str,
        target_port: int,
        plan: Optional[NetChaosPlan] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.target_host = target_host
        self.target_port = target_port
        self.plan = plan or NetChaosPlan()
        self.host = host
        self.port = port
        self._rng = random.Random(self.plan.seed)
        self._server: Optional[asyncio.base_events.Server] = None
        self._started_at = 0.0
        self._reset_done = False
        self._reset_task: Optional[asyncio.Task] = None
        self._live: Set[asyncio.StreamWriter] = set()
        self._closed = asyncio.Event()
        # -- stats -----------------------------------------------------
        self.connections = 0
        self.bytes_c2s = 0
        self.bytes_s2c = 0
        self.resets = 0
        self.stalls = 0
        self.partitioned_bytes = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        if self.plan.reset_after is not None:
            self._reset_task = asyncio.ensure_future(self._reset_watch())

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def stop(self) -> None:
        self._closed.set()
        if self._reset_task is not None:
            self._reset_task.cancel()
            self._reset_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._live):
            writer.transport.abort()
        self._live.clear()

    def _elapsed(self) -> float:
        """Seconds on the proxy clock (since :meth:`start`)."""
        return time.monotonic() - self._started_at

    # ------------------------------------------------------------------
    # Fault machinery
    # ------------------------------------------------------------------
    async def _reset_watch(self) -> None:
        """One mid-run reset: abort every live connection, exactly once.

        One-shot by design — a per-connection reset would fire on every
        reconnection forever and the run could never make progress.
        """
        await asyncio.sleep(self.plan.reset_after)
        if self._reset_done:
            return
        self._reset_done = True
        victims = list(self._live)
        for writer in victims:
            self.resets += 1
            writer.transport.abort()

    def _partitioned(self, direction: str) -> bool:
        plan = self.plan
        if plan.partition != direction:
            return False
        at = self._elapsed()
        return plan.partition_at <= at < plan.partition_at + plan.partition_for

    async def _pump(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        direction: str,
        stall_gate: "asyncio.Event",
    ) -> None:
        """Forward one direction of one connection, shaped by the plan."""
        plan = self.plan
        window_start = time.monotonic()
        window_bytes = 0
        try:
            while True:
                chunk = await reader.read(CHUNK)
                if not chunk:
                    break
                # The gate is checked *after* the read: a pump idling in
                # ``read`` when the stall engages must still hold any
                # chunk that arrives mid-stall until the window passes.
                await stall_gate.wait()
                if plan.latency or plan.jitter:
                    await asyncio.sleep(
                        plan.latency + self._rng.uniform(0.0, plan.jitter)
                    )
                if plan.bandwidth:
                    window_bytes += len(chunk)
                    owed = window_bytes / plan.bandwidth
                    spent = time.monotonic() - window_start
                    if owed > spent:
                        await asyncio.sleep(owed - spent)
                if self._partitioned(direction):
                    # One-way outage: the bytes vanish.  TCP's own
                    # retransmission cannot help — they were delivered
                    # to *us*; the session layer must re-earn delivery.
                    self.partitioned_bytes += len(chunk)
                    continue
                if direction == "c2s":
                    self.bytes_c2s += len(chunk)
                else:
                    self.bytes_s2c += len(chunk)
                writer.write(chunk)
                await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _stall_watch(self, gate: asyncio.Event) -> None:
        """Slow-loris one connection: hold both pumps shut for a while."""
        plan = self.plan
        await asyncio.sleep(plan.stall_at)
        self.stalls += 1
        gate.clear()
        await asyncio.sleep(plan.stall_for)
        gate.set()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            up_reader, up_writer = await asyncio.open_connection(
                self.target_host, self.target_port
            )
        except OSError:
            writer.transport.abort()
            return
        self.connections += 1
        self._live.add(writer)
        self._live.add(up_writer)
        stall_gate = asyncio.Event()
        stall_gate.set()
        stall_task: Optional[asyncio.Task] = None
        if self.plan.stall_at is not None:
            stall_task = asyncio.ensure_future(self._stall_watch(stall_gate))
        try:
            await asyncio.gather(
                self._pump(reader, up_writer, "c2s", stall_gate),
                self._pump(up_reader, writer, "s2c", stall_gate),
            )
        finally:
            if stall_task is not None:
                stall_task.cancel()
            self._live.discard(writer)
            self._live.discard(up_writer)
            writer.close()
            up_writer.close()

    def stats(self) -> dict:
        return {
            "connections": self.connections,
            "bytes_c2s": self.bytes_c2s,
            "bytes_s2c": self.bytes_s2c,
            "resets": self.resets,
            "stalls": self.stalls,
            "partitioned_bytes": self.partitioned_bytes,
        }


# ----------------------------------------------------------------------
# Process entry point (the ``repro chaosproxy`` verb)
# ----------------------------------------------------------------------
def run_chaosproxy(
    target_host: str, target_port: int, announce: bool = False, **options: Any
) -> int:
    """Blocking entry point for ``repro chaosproxy``; ``options`` are
    :class:`ChaosProxy`'s (``plan``, ``host``, ``port``)."""
    return run_listener(
        lambda: ChaosProxy(target_host, target_port, **options),
        announce,
        "REPRO-CHAOSPROXY",
        lambda proxy: {
            "host": proxy.host,
            "port": proxy.port,
            "target": f"{proxy.target_host}:{proxy.target_port}",
            "plan": proxy.plan.to_obj(),
        },
    )
