"""The fleet router: one process that maps ``doc_id -> worker``.

The router speaks the existing framed envelope protocol and *reuses*
the redirect machinery the replicated tier built: a client ``hello``
naming a document is answered with the same ``redirect {host, port,
roster}`` envelope a VSR backup sends, and the client's existing
redirect-budget/roster-walk logic does the rest.  The roster shipped in
every redirect is ``[router, owning worker]`` — so a client that loses
its worker walks back to the router and is re-routed to wherever the
document lives *now*.

Control plane (two new envelope types, documented in
:mod:`repro.net.codec`):

* ``fleet_register {worker, host, port}`` — a worker announces itself;
  answered with ``fleet_ack {lease, interval}`` quoting the lease and
  the heartbeat cadence the router expects;
* ``fleet_heartbeat {worker, docs}`` — lease renewal on the same
  connection, carrying the documents the worker currently hosts;
  answered with ``fleet_ack``.  A heartbeat for a lapsed lease is
  answered with ``fleet_ack {registered: false}`` — the worker must
  re-register (its ``(host, port)`` may be stale).

Lease expiry is the failure detector: a sweep task runs every half
lease, and when a worker lapses the router logs exactly which documents
move where (the rendezvous argmax over the survivors) — deterministic
re-placement, no assignment table to repair.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Any, Dict, Optional

from repro.net.codec import DEFAULT_DOC, WireError, encode_envelope
from repro.net.fleet.placement import place, placement_map, placement_skew
from repro.net.fleet.registry import WorkerRegistry
from repro.net.transport import (
    WRITE_TIMEOUT,
    admin_reply,
    FrameProtocol,
    read_first_frame,
    run_listener,
    write_frame,
)
from repro.obs import get_obs

LOGGER = logging.getLogger("repro.net.fleet.router")

#: Default lease; a worker missing four 0.3s heartbeats is declared dead.
DEFAULT_LEASE = 1.2

#: Default heartbeat cadence quoted to workers in ``fleet_ack``.
DEFAULT_HEARTBEAT = 0.3


class FleetRouter:
    """Route clients to document owners; keep the worker registry."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_seconds: float = DEFAULT_LEASE,
        heartbeat_interval: float = DEFAULT_HEARTBEAT,
        retry_after: float = 0.5,
        write_timeout: Optional[float] = WRITE_TIMEOUT,
    ) -> None:
        self.host = host
        self.port = port
        self.registry = WorkerRegistry(lease_seconds=lease_seconds)
        self.heartbeat_interval = heartbeat_interval
        #: seconds quoted in ``retry_after`` when no worker holds a lease
        self.retry_after = retry_after
        self.write_timeout = write_timeout
        self.started_at = time.monotonic()
        self.redirects = 0
        self.replacements = 0
        #: every document a client ever asked for -> its last known owner
        #: (re-placement bookkeeping; routing itself is stateless)
        self.docs_seen: Dict[str, str] = {}
        self._obs = get_obs()
        self._logger = LOGGER
        self._asyncio_server: Optional[asyncio.base_events.Server] = None
        self._sweep_task: Optional[asyncio.Task] = None
        self._closed = asyncio.Event()

    def _log(self, text: str) -> None:
        self._logger.info("%s", text)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._asyncio_server = await asyncio.get_running_loop().create_server(
            lambda: FrameProtocol(self._handle_connection), self.host, self.port
        )
        self.port = self._asyncio_server.sockets[0].getsockname()[1]
        self._sweep_task = asyncio.ensure_future(self._sweep_loop())
        self._log(
            f"fleet router listening on {self.host}:{self.port} "
            f"(lease {self.registry.lease_seconds:.3f}s, heartbeat "
            f"{self.heartbeat_interval:.3f}s)"
        )

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def stop(self) -> None:
        self._closed.set()
        if self._sweep_task is not None:
            self._sweep_task.cancel()
            self._sweep_task = None
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()

    # ------------------------------------------------------------------
    # Failure detection and re-placement
    # ------------------------------------------------------------------
    async def _sweep_loop(self) -> None:
        try:
            while not self._closed.is_set():
                await asyncio.sleep(self.registry.lease_seconds / 2.0)
                self._expire_lapsed()
        except asyncio.CancelledError:
            return

    def _expire_lapsed(self) -> None:
        for info in self.registry.expire():
            self._obs.fleet_expirations.inc()
            survivors = self.registry.live()
            moved = sorted(
                doc
                for doc, owner in self.docs_seen.items()
                if owner == info.worker_id
            )
            self._log(
                f"lease expired: {info.worker_id} "
                f"({info.host}:{info.port}, {info.heartbeats} heartbeats); "
                f"{len(moved)} documents to re-place over "
                f"{len(survivors)} survivors"
            )
            for doc in moved:
                if survivors:
                    new_owner = place(doc, survivors)
                    self.docs_seen[doc] = new_owner
                    self.replacements += 1
                    self._obs.fleet_replacements.inc()
                    self._log(f"re-placed {doc!r}: {info.worker_id} -> {new_owner}")
                else:
                    # Nobody to serve it; the next hello is shed with
                    # retry_after until a worker registers.
                    del self.docs_seen[doc]
            self._obs.trace(
                "fleet.expire", worker=info.worker_id, moved=len(moved)
            )
        self._obs.fleet_live_workers.set(len(self.registry))

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(self, link: FrameProtocol) -> None:
        # Only the first frame is on the clock; a registered worker's
        # heartbeat stream is policed by its lease, not by this deadline.
        frame = await read_first_frame(link, self.write_timeout, self._log)
        kind = None if frame is None else frame.get("type")
        try:
            if kind == "hello":
                await self._handle_hello(frame, link)
            elif kind == "fleet_register":
                await self._handle_worker(frame, link)
            elif kind == "admin":
                await self._handle_admin(frame, link)
            elif frame is not None:
                self._log(
                    f"first frame must be hello/fleet_register/admin, "
                    f"got {kind!r}"
                )
        except (WireError, ConnectionError):
            pass
        finally:
            link.close()

    async def _handle_hello(self, frame: Dict[str, Any], link: FrameProtocol) -> None:
        """Answer a client hello with a redirect to the document's owner."""
        doc = str(frame.get("doc") or DEFAULT_DOC)
        workers = self.registry.live()
        if not workers:
            reply = encode_envelope(
                "retry_after",
                seconds=self.retry_after,
                reason="no live workers hold a lease",
            )
        else:
            owner = place(doc, workers)
            self.docs_seen[doc] = owner
            host, port = self.registry.addr(owner)
            self.redirects += 1
            self._obs.fleet_redirects.inc()
            self._obs.trace(
                "fleet.route", client=str(frame.get("client", "")), doc=doc,
                worker=owner,
            )
            # The same envelope a VSR backup answers with; the roster lets
            # the client walk back to this router when the worker dies.
            reply = encode_envelope(
                "redirect",
                host=host,
                port=port,
                primary=1,
                view=0,
                epoch=0,
                roster=[[self.host, self.port], [host, port]],
            )
        await write_frame(link, reply, timeout=self.write_timeout)

    async def _handle_worker(self, first: Dict[str, Any], link: FrameProtocol) -> None:
        """Serve one worker's register + heartbeat stream."""
        frame: Optional[Dict[str, Any]] = first
        worker_id = ""
        while frame is not None:
            kind = frame.get("type")
            if kind == "fleet_register":
                worker_id = str(frame.get("worker", ""))
                info = self.registry.register(
                    worker_id,
                    str(frame.get("host", "")),
                    int(frame.get("port", 0)),
                )
                self._obs.fleet_registrations.inc()
                self._obs.fleet_live_workers.set(len(self.registry))
                self._obs.trace(
                    "fleet.register",
                    worker=worker_id,
                    addr=f"{info.host}:{info.port}",
                )
                self._log(
                    f"registered {worker_id} at {info.host}:{info.port} "
                    f"({len(self.registry)} live)"
                )
                registered = True
            elif kind == "fleet_heartbeat":
                worker_id = str(frame.get("worker", worker_id))
                registered = self.registry.heartbeat(
                    worker_id, frame.get("docs")
                )
            else:
                break
            await write_frame(
                link,
                encode_envelope(
                    "fleet_ack",
                    registered=registered,
                    lease=self.registry.lease_seconds,
                    interval=self.heartbeat_interval,
                ),
                timeout=self.write_timeout,
            )
            frame = await link.read()
        # The lease — not the connection — is the liveness signal: a
        # broken pipe here just means the worker will reconnect (or its
        # lease will lapse and the sweep re-places its docs).

    # ------------------------------------------------------------------
    # Admin plane
    # ------------------------------------------------------------------
    async def _handle_admin(self, frame: Dict[str, Any], link: FrameProtocol) -> None:
        command = frame.get("cmd")
        if command == "stats":
            self._expire_lapsed()  # stats reflect liveness *now*
            workers = self.registry.live()
            assignment = placement_map(sorted(self.docs_seen), workers) if workers else {}
            reply = encode_envelope(
                "admin_reply",
                role="router",
                doc_id="",
                docs_hosted=0,
                uptime_seconds=round(
                    time.monotonic() - self.started_at, 6
                ),
                workers={
                    worker: {
                        "host": self.registry.get(worker).host,
                        "port": self.registry.get(worker).port,
                        "heartbeats": self.registry.get(worker).heartbeats,
                        "docs": sorted(self.registry.get(worker).docs),
                    }
                    for worker in workers
                },
                live_workers=len(workers),
                registrations=self.registry.registrations,
                expirations=self.registry.expirations,
                redirects=self.redirects,
                replacements=self.replacements,
                docs_seen=len(self.docs_seen),
                placement=assignment,
                placement_skew=placement_skew(assignment, workers),
            )
        elif command == "route":
            doc = str(frame.get("doc") or DEFAULT_DOC)
            workers = self.registry.live()
            if not workers:
                reply = encode_envelope(
                    "admin_reply", error="no live workers hold a lease"
                )
            else:
                owner = place(doc, workers)
                host, port = self.registry.addr(owner)
                reply = encode_envelope(
                    "admin_reply",
                    doc=doc,
                    worker=owner,
                    host=host,
                    port=port,
                )
        else:
            reply = admin_reply(command, self._obs)
        await write_frame(link, reply, timeout=self.write_timeout)
        link.close()
        if command == "shutdown":
            await self.stop()


# ----------------------------------------------------------------------
# Process entry point (the ``repro fleet route`` verb)
# ----------------------------------------------------------------------
def run_router(announce: bool = False, **options: Any) -> int:
    """Blocking entry point for ``repro fleet route``; ``options`` are
    :class:`FleetRouter`'s constructor arguments."""
    return run_listener(
        lambda: FleetRouter(**options),
        announce,
        "REPRO-FLEET-ROUTER",
        lambda router: {"host": router.host, "port": router.port},
    )
