"""Schedule-driven execution of a client/server system (Section 4.4).

A :class:`Cluster` wires one server and ``n`` clients with FIFO channels,
executes a :class:`~repro.model.schedule.Schedule` step by step, records
the concrete :class:`~repro.model.execution.Execution` (do/send/receive
events), and keeps a per-replica *behaviour* log — the sequence of
(operation, document) pairs Definition 2.5 talks about — used by the
Theorem 7.1 equivalence experiments.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.common.ids import OpId, ReplicaId, SERVER_ID
from repro.document.list_document import ListDocument
from repro.errors import ScheduleError
from repro.jupiter.base import BaseClient, BaseServer
from repro.jupiter.broken import BrokenClient, BrokenServer
from repro.jupiter.classic import ClassicClient, ClassicServer
from repro.jupiter.cscw import CscwClient, CscwServer
from repro.jupiter.css import CssClient, CssServer
from repro.jupiter.vector import VectorClient, VectorServer
from repro.model.events import Message
from repro.model.execution import Execution, ExecutionRecorder
from repro.model.schedule import (
    ClientReceive,
    Drain,
    Generate,
    Read,
    Schedule,
    ServerReceive,
)


@dataclass(frozen=True)
class BehaviorEntry:
    """One step of a replica behaviour (Definition 2.5), for comparisons.

    ``action`` is ``"generate"``, ``"apply"`` (a remote operation was
    executed) or ``"ack"``; ``opid`` names the original operation;
    ``kind``/``position`` describe the executed (transformed) form; and
    ``document`` is the list contents afterwards.
    """

    action: str
    opid: Optional[OpId]
    kind: Optional[str]
    position: Optional[int]
    document: str


class Cluster:
    """One server + n clients + FIFO channels + an execution recorder."""

    def __init__(
        self,
        server: BaseServer,
        clients: Dict[ReplicaId, BaseClient],
        observe_after_receive: bool = True,
    ) -> None:
        self.server = server
        self.clients = dict(clients)
        self.observe_after_receive = observe_after_receive
        self.recorder = ExecutionRecorder()
        self._to_server: Dict[ReplicaId, Deque[Message]] = {
            name: deque() for name in clients
        }
        self._to_client: Dict[ReplicaId, Deque[Message]] = {
            name: deque() for name in clients
        }
        self.behaviors: Dict[ReplicaId, List[BehaviorEntry]] = {
            name: [] for name in [server.replica_id, *clients]
        }

    # ------------------------------------------------------------------
    # Step execution
    # ------------------------------------------------------------------
    def generate(self, client_id: ReplicaId, spec) -> Message:
        client = self._client(client_id)
        result = client.generate(spec)
        self.recorder.record_do(client_id, result.operation, result.returned)
        self._log(
            client_id, "generate", result.operation, client.document.as_string()
        )
        message = Message(client_id, SERVER_ID, result.outgoing)
        self.recorder.record_send(client_id, message)
        self._to_server[client_id].append(message)
        return message

    def server_receive(self, client_id: ReplicaId) -> Message:
        queue = self._to_server[self._require_client(client_id)]
        if not queue:
            raise ScheduleError(
                f"schedule delivers from {client_id} but its channel is empty"
            )
        outgoing = self.server.receive(client_id, queue[0].payload)
        return self.record_server_receive(
            client_id, outgoing, self.server.document.as_string()
        )

    def record_server_receive(
        self,
        client_id: ReplicaId,
        outgoing: Sequence[Tuple[ReplicaId, Any]],
        document: str,
    ) -> Message:
        """Record a server step already taken: ``client_id``'s next queued
        message left the server at ``document``, sending ``outgoing``.  The
        simulator calls this alone for a shard core once a serial commits."""
        message = self._to_server[client_id].popleft()
        self.recorder.record_receive(SERVER_ID, message)
        self._log(SERVER_ID, "apply", None, document)
        for recipient, payload in outgoing:
            reply = Message(SERVER_ID, recipient, payload)
            self.recorder.record_send(SERVER_ID, reply)
            self._to_client[recipient].append(reply)
        return message

    def client_receive(self, client_id: ReplicaId) -> Message:
        queue = self._to_client[self._require_client(client_id)]
        if not queue:
            raise ScheduleError(
                f"schedule delivers to {client_id} but its channel is empty"
            )
        message = queue.popleft()
        self.recorder.record_receive(client_id, message)
        client = self._client(client_id)
        result = client.receive(message.payload)
        if result.executed is not None:
            self._log(
                client_id, "apply", result.executed, client.document.as_string()
            )
            if self.observe_after_receive:
                # Expose the new state to the specification checkers as a
                # read: Definitions 3.2/3.3 quantify over *returned* lists,
                # and intermediate states like Figure 7's w13/w14 only
                # appear if somebody looks at them.
                self.recorder.record_do(client_id, None, result.returned)
        else:
            self._log(client_id, "ack", None, client.document.as_string())
        return message

    def read(self, replica_id: ReplicaId) -> None:
        if replica_id == self.server.replica_id:
            self.recorder.record_do(replica_id, None, self.server.read())
        else:
            self.recorder.record_do(replica_id, None, self._client(replica_id).read())

    def drain(self) -> None:
        """Deliver everything in flight, deterministically round-robin."""
        names = sorted(self.clients)
        while True:
            progressed = False
            for name in names:
                if self._to_server[name]:
                    self.server_receive(name)
                    progressed = True
            for name in names:
                if self._to_client[name]:
                    self.client_receive(name)
                    progressed = True
            if not progressed:
                return

    # ------------------------------------------------------------------
    # Whole-schedule execution
    # ------------------------------------------------------------------
    def run(self, schedule: Schedule) -> Execution:
        for step in schedule:
            if isinstance(step, Generate):
                self.generate(step.client, step.spec)
            elif isinstance(step, ServerReceive):
                self.server_receive(step.client)
            elif isinstance(step, ClientReceive):
                self.client_receive(step.client)
            elif isinstance(step, Read):
                self.read(step.replica)
            elif isinstance(step, Drain):
                self.drain()
            else:  # pragma: no cover - defensive
                raise ScheduleError(f"unknown schedule step {step!r}")
        return self.recorder.finish()

    # ------------------------------------------------------------------
    # Crash recovery (used by the fault-injected simulation loop)
    # ------------------------------------------------------------------
    def replace_client(
        self,
        client_id: ReplicaId,
        client: BaseClient,
        behaviors_keep: Optional[int] = None,
    ) -> None:
        """Swap in a replica restored from a checkpoint after a crash.

        The behaviour log is truncated to ``behaviors_keep`` entries —
        everything after the checkpoint was volatile and died with the
        process; the resync replay re-appends it deterministically, so
        the final log matches an uncrashed run of the same schedule
        (the Theorem 7.1 comparison the chaos harness performs).
        """
        self._require_client(client_id)
        if client.replica_id != client_id:
            raise ScheduleError(
                f"restored replica {client.replica_id} cannot replace "
                f"{client_id}"
            )
        self.clients[client_id] = client
        if behaviors_keep is not None:
            del self.behaviors[client_id][behaviors_keep:]

    def queued_payloads_to(self, client_id: ReplicaId) -> Tuple[Any, ...]:
        """Payloads queued on one server-to-client channel, send order.

        Server crash recovery cross-checks these against the broadcasts
        rebuilt from the write-ahead log: the queue is the server's
        volatile send buffer, and the WAL must reproduce it exactly.
        """
        self._require_client(client_id)
        return tuple(m.payload for m in self._to_client[client_id])

    def resync_deliver(self, client_id: ReplicaId, payload) -> None:
        """Re-process one lost-and-recovered server message.

        Unlike :meth:`client_receive` this bypasses the channel queue and
        the execution recorder: the message was already received (and
        recorded) once before the crash — recovery only replays its
        *effect* on the restored replica, logging the behaviour entry the
        crash erased.
        """
        client = self._client(client_id)
        result = client.receive(payload)
        if result.executed is not None:
            self._log(
                client_id, "apply", result.executed, client.document.as_string()
            )
        else:
            self._log(client_id, "ack", None, client.document.as_string())

    # ------------------------------------------------------------------
    # Dynamic membership (CSS only; see repro.jupiter.membership)
    # ------------------------------------------------------------------
    def add_client(self, client_id: ReplicaId) -> None:
        """Admit a new client to a running CSS cluster.

        The server cuts a join snapshot (Proposition 6.6 makes its space
        the universal starting point); the newcomer is wired with fresh
        FIFO channels and starts receiving every subsequently serialised
        operation like any veteran.
        """
        from repro.jupiter.membership import client_from_join, server_admit

        if client_id in self.clients:
            raise ScheduleError(f"client {client_id} already exists")
        payload = server_admit(self.server, client_id)
        self.clients[client_id] = client_from_join(payload)
        self._to_server[client_id] = deque()
        self._to_client[client_id] = deque()
        self.behaviors[client_id] = []
        # The join snapshot is communication: record it as a message so
        # the happens-before relation carries everything the server had
        # processed into the newcomer's causal past (otherwise its first
        # read would return elements "invisible" to it and condition 1a
        # of the list specifications would flag a phantom violation).
        join_message = Message(SERVER_ID, client_id, payload)
        self.recorder.record_send(SERVER_ID, join_message)
        self.recorder.record_receive(client_id, join_message)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def documents(self) -> Dict[ReplicaId, str]:
        """Current document at every replica (server included)."""
        result = {self.server.replica_id: self.server.document.as_string()}
        for name, client in self.clients.items():
            result[name] = client.document.as_string()
        return result

    def in_flight(self) -> int:
        """Number of undelivered messages."""
        return sum(len(q) for q in self._to_server.values()) + sum(
            len(q) for q in self._to_client.values()
        )

    def pending_to_client(self, client_id: ReplicaId) -> int:
        """Undelivered server-to-client messages for one client."""
        return len(self._to_client[client_id])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _client(self, client_id: ReplicaId) -> BaseClient:
        try:
            return self.clients[client_id]
        except KeyError:
            raise ScheduleError(f"unknown client {client_id}") from None

    def _require_client(self, client_id: ReplicaId) -> ReplicaId:
        if client_id not in self.clients:
            raise ScheduleError(f"unknown client {client_id}")
        return client_id

    def _log(
        self,
        replica_id: ReplicaId,
        action: str,
        operation,
        document: str,
    ) -> None:
        self.behaviors[replica_id].append(
            BehaviorEntry(
                action=action,
                opid=operation.opid if operation is not None else None,
                kind=operation.kind.value if operation is not None else None,
                position=operation.position if operation is not None else None,
                document=document,
            )
        )


def _crdt_protocols():
    """CRDT baselines, imported lazily to avoid an import cycle
    (``repro.crdt`` builds on the same base-client machinery)."""
    from repro.crdt.logoot import LogootClient, LogootServer
    from repro.crdt.rga import RgaClient, RgaServer
    from repro.crdt.treedoc import TreedocClient, TreedocServer
    from repro.crdt.woot import WootClient, WootServer

    return {
        "rga": (RgaServer, RgaClient),
        "logoot": (LogootServer, LogootClient),
        "treedoc": (TreedocServer, TreedocClient),
        "woot": (WootServer, WootClient),
    }


_PROTOCOLS = {
    "css": (CssServer, CssClient),
    "cscw": (CscwServer, CscwClient),
    "classic": (ClassicServer, ClassicClient),
    "vector": (VectorServer, VectorClient),
    "broken": (BrokenServer, BrokenClient),
}


def make_cluster(
    protocol: str,
    clients: Sequence[ReplicaId],
    initial_text: str = "",
    observe_after_receive: bool = True,
) -> Cluster:
    """Build a ready-to-run cluster for one of the implemented protocols.

    ``protocol`` is a Jupiter protocol (``"css"``, ``"cscw"``,
    ``"classic"``, ``"vector"``, ``"broken"``), a CRDT baseline
    (``"rga"``, ``"logoot"``, ``"treedoc"``, ``"woot"``) or a CSS variant:
    ``"css-gc"`` garbage-collects every replica's state-space, and
    ``"css-ref"`` runs the CSS replicas on
    :class:`~repro.jupiter.reference.ReferenceStateSpace`, the retained
    seed implementation, serving as the equivalence oracle and the
    perf-harness baseline.  All replicas start from the same initial
    document built from ``initial_text`` (shared element identities, as
    the paper's worked examples assume).
    """
    initial = ListDocument.from_string(initial_text) if initial_text else None
    if protocol == "css-gc":
        # CSS with state-space garbage collection at every replica.
        server = CssServer(SERVER_ID, list(clients), initial, gc=True)
        client_map = {
            name: CssClient(name, initial, gc=True, peers=list(clients))
            for name in clients
        }
        return Cluster(server, client_map, observe_after_receive)
    if protocol == "css-ref":
        from repro.jupiter.reference import ReferenceStateSpace

        server = CssServer(SERVER_ID, list(clients), initial)
        server.space = ReferenceStateSpace(server.oracle, initial)
        client_map = {}
        for name in clients:
            client = CssClient(name, initial)
            client.space = ReferenceStateSpace(client.oracle, initial)
            client_map[name] = client
        return Cluster(server, client_map, observe_after_receive)
    registry = dict(_PROTOCOLS)
    registry.update(_crdt_protocols())
    if protocol not in registry:
        raise ValueError(
            f"unknown protocol {protocol!r}; choose from "
            f"{sorted(registry) + ['css-gc', 'css-ref']}"
        )
    server_cls, client_cls = registry[protocol]
    server = server_cls(SERVER_ID, list(clients), initial)
    client_map = {name: client_cls(name, initial) for name in clients}
    return Cluster(server, client_map, observe_after_receive)
