"""The server core: write path, commit gate, election and restart, once.

A :class:`ServerCore` owns a server's
:class:`~repro.jupiter.replication.Replica`, the
:class:`~repro.jupiter.shard.ShardCore` it serves, the serials parked
until their quorum commits and the failover in progress.  Like them it
imports no ``asyncio``, no sockets and nothing from ``repro.net``, and
reads no clock.  Each input returns the :class:`Release`\\ s it makes
due, in serial order; :class:`repro.net.server.NetServer` turns them
into frames, the fault-injected simulator (:mod:`repro.sim.runner`) into
recorded server steps and simulated transmits.  Standalone
(``replicated=False``, a roster of one never consulted) a write is
released at once; replicated, when the commit floor passes its serial.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.jupiter.messages import ClientOperation, ServerOperation
from repro.jupiter.persistence import ServerWriteAheadLog
from repro.jupiter.replication import Replica
from repro.jupiter.shard import Commit, Session, ShardCore
from repro.obs import get_obs
from repro.ot.operations import Operation


class Release(NamedTuple):
    """One committed serial, due to leave the server."""

    serial: int
    origin: Session
    #: each recipient session and the broadcast (the original) it is sent
    fanout: List[Tuple[Session, ServerOperation]]
    #: the form ``o{L}`` the operation executed as (what readers are sent)
    executed: Operation
    #: a commit-gated acknowledgement is owed to the origin (standalone,
    #: the echo carries it)
    ack_due: bool


class ServerCore:
    """One server's write path, commit gate, election and restart."""

    def __init__(self, shard: ShardCore, replica: Replica, replicated: bool) -> None:
        self.shard = shard
        #: the simulator's logical server moves to the successor's
        #: replica before an election; a process keeps its own
        self.replica = replica
        self.replicated = replicated
        self._parked: Dict[int, Tuple[Session, Any, Operation]] = {}
        #: when the failure an election answers was detected, on the
        #: driver's clock (the driver sets it), and the log head adopted
        self.failover_from: Optional[float] = None
        self._adopted_head: Optional[int] = None

    @property
    def commit(self) -> Commit:
        """The shard calls' ``commit``: the quorum floor; ``None`` standalone."""
        return self.replica.committed if self.replicated else None

    def write(
        self, session: Session, payload: ClientOperation, now: float, grace: float
    ) -> List[Release]:
        serial, executed, fanout = session.shard.serialise(
            session, payload, self.replica.epoch, now, grace, self.commit
        )
        if not self.replicated:
            return [Release(serial, session, fanout, executed, False)]
        self._parked[serial] = (session, fanout, executed)
        return self.certify(self.replica.appended())  # a quorum of one commits now

    def certify(self, newly: range) -> List[Release]:
        """Release the newly committed serials (``appended``, ``record_ack``).
        One with nothing parked is a record adopted in a view change: its
        broadcast is rebuilt from the log for every session (a client's
        duplicate suppression absorbs overlap with its resync)."""
        releases = []
        for serial in newly:
            parked = self._parked.pop(serial, None)
            if parked is None:
                shard = self.shard
                broadcast = shard.wal.broadcast_at(shard.server, serial)
                parked = (
                    shard.sessions[broadcast.origin],
                    [(session, broadcast) for session in shard.sessions.values()],
                    shard.server.executed_at(serial),
                )
            releases.append(Release(serial, *parked, True))
        return releases

    def elect(
        self, target: int, offers: Sequence[Dict[str, Any]], now: float
    ) -> Optional[List[Release]]:
        """Adopt view ``target``'s log and restart on it; ``None`` (and
        nothing changed) when the candidacy is void."""
        if self.replica.adopt(target, offers) is None:
            return None
        self._adopted_head = self.replica.log.last_serial
        return self.restart(self.replica.log, now)

    def restart(self, log: ServerWriteAheadLog, now: float) -> List[Release]:
        """Rebuild the shard from ``log`` as a process restart does; what
        was parked died with the old incarnation."""
        self.shard = type(self.shard)(self.shard.doc, log, now=now)
        self._parked.clear()
        return self.certify(self.replica.appended()) if self.replicated else []

    def depose(self) -> None:
        """The replica stopped leading: nothing parked commits here."""
        self._parked.clear()

    def failover_done(self, now: float) -> Optional[float]:
        """The failover's latency, observed once: when the commit floor,
        under this replica's lead, has reached the adopted log's head."""
        replica, head = self.replica, self._adopted_head
        if head is None or replica.committed < head or not replica.is_primary:
            return None
        latency = now - self.failover_from
        self.failover_from = self._adopted_head = None
        obs = get_obs()
        obs.failover_latency.observe(latency)
        obs.trace(
            "repl.failover_complete",
            view=replica.view,
            serial=replica.committed,
            latency=round(latency, 6),
        )
        return latency
