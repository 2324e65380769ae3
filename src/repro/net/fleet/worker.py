"""The fleet worker: a multi-document NetServer plus a lease keeper.

The serving half is entirely :class:`~repro.net.server.NetServer` — one
listener hosting a shard per document, each with its own serial order
and an on-disk WAL under the fleet's shared ``wal_dir``.  What this
module adds is the *membership* half: a background task that registers
with the router and then heartbeats on the cadence the router quotes
back, with seeded jitter so a fleet restarted in lockstep does not
heartbeat (or re-register) in lockstep.

The worker does not know which documents it owns — ownership is the
router's rendezvous argmax, and the worker simply serves whatever
``hello {doc}`` frames reach it (opening shards lazily, recovering any
existing ``<doc>.wal``).  That asymmetry is deliberate: re-placement
after a crash needs no handoff protocol, because the new owner's first
client hello triggers recovery from the shared per-document log.
"""

from __future__ import annotations

import asyncio
import logging
import random
from typing import Any, Dict, Optional

from repro.net.codec import WireError, encode_envelope
from repro.net.server import NetServer
from repro.net.transport import FrameProtocol, dial, run_listener, write_frame
from repro.obs import get_obs

LOGGER = logging.getLogger("repro.net.fleet.worker")


class FleetWorker:
    """One fleet member: serve documents, keep the lease alive."""

    def __init__(
        self,
        worker_id: str,
        router_host: str,
        router_port: int,
        heartbeat_seed: int = 0,
        **server_options: Any,
    ) -> None:
        self.worker_id = str(worker_id)
        self.router_host = router_host
        self.router_port = int(router_port)
        # One listener hosts many documents' sessions, hence a higher
        # admission bound than a standalone server's default.
        server_options.setdefault("max_connections", 256)
        self.server = NetServer(**server_options)
        #: seeded jitter: each heartbeat sleeps interval * (0.8 .. 1.0),
        #: deterministic per worker, de-correlated across the fleet
        self._rng = random.Random(heartbeat_seed)
        self.heartbeats_sent = 0
        self.registrations = 0
        self._obs = get_obs()
        self._logger = LOGGER
        self._lease_task: Optional[asyncio.Task] = None
        self._closed = asyncio.Event()

    def _log(self, text: str) -> None:
        self._logger.info("%s", text)

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    async def start(self) -> None:
        await self.server.start()
        self._lease_task = asyncio.ensure_future(self._lease_loop())
        self._log(
            f"fleet worker {self.worker_id} serving on "
            f"{self.server.host}:{self.server.port}, registering with "
            f"{self.router_host}:{self.router_port}"
        )

    async def wait_closed(self) -> None:
        await asyncio.wait(
            [
                asyncio.ensure_future(self._closed.wait()),
                asyncio.ensure_future(self.server.wait_closed()),
            ],
            return_when=asyncio.FIRST_COMPLETED,
        )

    async def stop(self) -> None:
        self._closed.set()
        if self._lease_task is not None:
            self._lease_task.cancel()
            self._lease_task = None
        await self.server.stop()

    # ------------------------------------------------------------------
    # Lease keeping
    # ------------------------------------------------------------------
    async def _call(
        self, link: FrameProtocol, kind: str, **fields: Any
    ) -> Dict[str, Any]:
        """One lease frame to the router, and its ``fleet_ack``."""
        await write_frame(link, encode_envelope(kind, worker=self.worker_id, **fields))
        ack = await link.read()
        if ack is None or ack.get("type") != "fleet_ack":
            raise WireError(f"expected fleet_ack, got {ack!r}")
        return ack

    async def _lease_loop(self) -> None:
        """Register, then heartbeat forever; reconnect on any failure.

        The router quotes the heartbeat ``interval`` in its ack; every
        sleep is jittered *downward* (0.8x .. 1.0x) so a heartbeat is
        never late by design, only by failure — and the jitter is seeded
        per worker so a synchronised fleet restart de-correlates.
        """
        backoff = 0
        while not self._closed.is_set():
            link = None
            try:
                link = await dial(self.router_host, self.router_port)
                ack = await self._call(
                    link, "fleet_register", host=self.server.host, port=self.server.port
                )
                self.registrations += 1
                backoff = 0
                interval = float(ack.get("interval", 0.3))
                self._obs.trace(
                    "fleet.registered",
                    worker=self.worker_id,
                    lease=ack.get("lease"),
                    interval=interval,
                )
                while not self._closed.is_set():
                    await asyncio.sleep(
                        interval * (0.8 + 0.2 * self._rng.random())
                    )
                    ack = await self._call(
                        link, "fleet_heartbeat", docs=sorted(self.server.shards)
                    )
                    self.heartbeats_sent += 1
                    if not ack.get("registered", True):
                        # Our lease lapsed (a long GC pause, a router
                        # restart): re-register on a fresh connection.
                        self._log(
                            f"{self.worker_id}: lease lapsed, re-registering"
                        )
                        break
            except asyncio.CancelledError:
                return
            except (OSError, ConnectionError, WireError) as exc:
                backoff += 1
                if backoff == 1:
                    self._log(
                        f"{self.worker_id}: router unreachable: {exc}"
                    )
                await asyncio.sleep(
                    min(0.1 * backoff, 1.0)
                    * (0.8 + 0.2 * self._rng.random())
                )
            finally:
                if link is not None:
                    link.close()


# ----------------------------------------------------------------------
# Process entry point (the ``repro fleet worker`` verb)
# ----------------------------------------------------------------------
def run_fleet_worker(
    worker_id: str,
    router_host: str,
    router_port: int,
    announce: bool = False,
    **options: Any,
) -> int:
    """Blocking entry point for ``repro fleet worker``; ``options`` are
    :class:`FleetWorker`'s (``heartbeat_seed`` plus NetServer's)."""
    return run_listener(
        lambda: FleetWorker(worker_id, router_host, router_port, **options),
        announce,
        "REPRO-FLEET-WORKER",
        lambda worker: {
            "worker": worker.worker_id,
            "host": worker.host,
            "port": worker.port,
        },
    )
