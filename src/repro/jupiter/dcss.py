"""dCSS — the CSS protocol in a decentralised setting (§10 future work).

The paper closes by proposing to "extend the CSS protocol to a
distributed setting, by integrating the compact n-ary ordered state-space
with a distributed scheme to totally order operations".  This module
implements that extension:

* there is **no server**: peers broadcast operations to each other over
  FIFO channels;
* the total order ``⇒`` is the Lamport order ``(clock, site)`` — unique,
  total, and consistent with causality, so it can play the role the
  server's serialisation order plays in CSS;
* each peer holds one n-ary ordered state-space and processes operations
  with the same uniform Algorithm-1 rule as CSS.  Local operations
  integrate immediately (optimistic replication); remote operations wait
  in a hold-back queue until they are **stable** — no operation with a
  smaller Lamport timestamp can still arrive — and then integrate in
  exact total order.  Stability is tracked TIBOT-style from the clocks
  carried by operations and lightweight acknowledgements.

The correctness story mirrors CSS: every peer sees remote operations in
total order with its own pending operations interleaved, which is
precisely the situation of a CSS *client*; Proposition 6.6's induction
carries over, and the property tests verify compactness, convergence and
the weak list specification on random peer-to-peer executions.

Cost note: stability needs to hear from every peer, so quiescent peers
must acknowledge (here: one ack broadcast per remote operation
processed).  That is the classic latency/traffic price of removing the
server, and the dcss benchmark measures it against CSS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.common.ids import OpId, ReplicaId, SeqGenerator
from repro.common.priority import priority_of
from repro.document.elements import Element
from repro.document.list_document import ListDocument
from repro.errors import OrderingError, ProtocolError
from repro.jupiter.nary import NaryStateSpace
from repro.model.schedule import OpSpec
from repro.ot.operations import Operation, delete as make_delete, insert as make_insert

#: A Lamport timestamp: (clock, site); site breaks ties via priority.
Timestamp = Tuple[int, ReplicaId]


@dataclass(frozen=True)
class PeerOperation:
    """Broadcast of one original operation with its Lamport timestamp."""

    operation: Operation
    timestamp: Timestamp
    origin: ReplicaId

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"PeerOperation({self.operation} @ {self.timestamp})"


@dataclass(frozen=True)
class PeerAck:
    """A clock announcement: ``origin``'s Lamport clock reached ``clock``."""

    origin: ReplicaId
    clock: int


class LamportOrderOracle:
    """Total order on operations from their Lamport timestamps."""

    def __init__(self) -> None:
        self._timestamps: Dict[OpId, Timestamp] = {}

    def record(self, opid: OpId, timestamp: Timestamp) -> None:
        existing = self._timestamps.get(opid)
        if existing is not None and existing != timestamp:
            raise OrderingError(
                f"two timestamps for {opid}: {existing} and {timestamp}"
            )
        self._timestamps[opid] = timestamp

    def sort_key(self, timestamp: Timestamp) -> Tuple[int, object]:
        clock, site = timestamp
        return (clock, priority_of(site))

    def before(self, first: OpId, second: OpId) -> bool:
        try:
            first_ts = self._timestamps[first]
            second_ts = self._timestamps[second]
        except KeyError as missing:
            raise OrderingError(
                f"no timestamp recorded for {missing}"
            ) from None
        return self.sort_key(first_ts) < self.sort_key(second_ts)


@dataclass(frozen=True)
class PeerGenerateResult:
    """Outcome of a peer generating one user operation."""

    operation: Operation
    returned: Tuple[Element, ...]
    outgoing: List[Tuple[ReplicaId, Any]]


@dataclass(frozen=True)
class PeerReceiveResult:
    """Outcome of a peer processing one incoming message.

    ``integrated`` lists ``(broadcast, executed_form)`` pairs for the
    operations that became stable during this call (possibly several at
    once, possibly none — an operation may sit in the hold-back queue
    until later acknowledgements arrive); ``outgoing`` carries this
    peer's own acknowledgement broadcasts.

    Formally, delivery of a held-back operation *happens at integration
    time*: the hold-back queue belongs to the network layer, so the
    harness records the ``receive`` event when the operation integrates,
    keeping the derived visibility relation aligned with what the replica
    actually processed (Definition 4.5).
    """

    integrated: List[Tuple["PeerOperation", Operation]]
    returned: Tuple[Element, ...]
    outgoing: List[Tuple[ReplicaId, Any]]


class DcssPeer:
    """One dCSS peer: a compact state-space plus a stability queue."""

    def __init__(
        self,
        replica_id: ReplicaId,
        peers: List[ReplicaId],
        initial_document: Optional[ListDocument] = None,
    ) -> None:
        self.replica_id = replica_id
        self.peers = [p for p in peers if p != replica_id]
        self.oracle = LamportOrderOracle()
        self.space = NaryStateSpace(self.oracle, initial_document)
        self._seq = SeqGenerator(replica_id)
        self._clock = 0
        self._seen_clock: Dict[ReplicaId, int] = {p: 0 for p in self.peers}
        self._holdback: List[PeerOperation] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def document(self) -> ListDocument:
        return self.space.document

    @property
    def clock(self) -> int:
        return self._clock

    @property
    def holdback_size(self) -> int:
        return len(self._holdback)

    def read(self) -> Tuple[Element, ...]:
        return tuple(self.document.read())

    # ------------------------------------------------------------------
    # Local processing
    # ------------------------------------------------------------------
    def generate(self, spec: OpSpec) -> PeerGenerateResult:
        operation = self._operation_from_spec(spec)
        self._clock += 1
        timestamp: Timestamp = (self._clock, self.replica_id)
        self.oracle.record(operation.opid, timestamp)
        self.space.integrate(operation)
        broadcast = PeerOperation(operation, timestamp, self.replica_id)
        return PeerGenerateResult(
            operation=operation,
            returned=self.read(),
            outgoing=[(peer, broadcast) for peer in self.peers],
        )

    def _operation_from_spec(self, spec: OpSpec) -> Operation:
        context: FrozenSet[OpId] = self.space.final_key
        if spec.kind == "ins":
            if spec.position > len(self.document):
                raise ProtocolError(
                    f"{self.replica_id}: insert position {spec.position} "
                    "out of range"
                )
            return make_insert(
                self._seq.next_opid(), spec.value, spec.position, context
            )
        victim = self.document.element_at(spec.position)
        return make_delete(
            self._seq.next_opid(), victim, spec.position, context
        )

    # ------------------------------------------------------------------
    # Remote processing
    # ------------------------------------------------------------------
    def receive(self, payload: Any) -> PeerReceiveResult:
        outgoing: List[Tuple[ReplicaId, Any]] = []
        if isinstance(payload, PeerOperation):
            if payload.origin == self.replica_id:
                raise ProtocolError(
                    f"{self.replica_id}: received its own broadcast"
                )
            self.oracle.record(payload.operation.opid, payload.timestamp)
            self._witness(payload.origin, payload.timestamp[0])
            self._holdback.append(payload)
            # Announce the bumped clock so others' stability advances even
            # if this peer never generates operations itself.
            ack = PeerAck(self.replica_id, self._clock)
            outgoing = [(peer, ack) for peer in self.peers]
        elif isinstance(payload, PeerAck):
            self._witness(payload.origin, payload.clock)
        else:
            raise ProtocolError(
                f"{self.replica_id}: unexpected payload {payload!r}"
            )
        integrated = self._drain_stable()
        return PeerReceiveResult(
            integrated=integrated, returned=self.read(), outgoing=outgoing
        )

    def _witness(self, origin: ReplicaId, clock: int) -> None:
        if origin not in self._seen_clock:
            raise ProtocolError(
                f"{self.replica_id}: message from unknown peer {origin}"
            )
        if clock < self._seen_clock[origin]:
            raise ProtocolError(
                f"{self.replica_id}: clock of {origin} went backwards "
                f"({self._seen_clock[origin]} -> {clock}); FIFO violated"
            )
        self._seen_clock[origin] = clock
        self._clock = max(self._clock, clock) + 1

    def _stable(self, timestamp: Timestamp) -> bool:
        """No operation with a smaller timestamp can still arrive.

        Channels are FIFO and a peer's operation timestamps strictly
        exceed its clock at send time, so once every peer's announced
        clock reaches ``timestamp``'s clock, anything still in flight is
        ordered after it.
        """
        return all(
            seen >= timestamp[0] for seen in self._seen_clock.values()
        )

    def _drain_stable(self) -> List[Tuple[PeerOperation, Operation]]:
        integrated: List[Tuple[PeerOperation, Operation]] = []
        while True:
            ready = [
                entry
                for entry in self._holdback
                if self._stable(entry.timestamp)
            ]
            if not ready:
                return integrated
            entry = min(ready, key=lambda e: self.oracle.sort_key(e.timestamp))
            self._holdback.remove(entry)
            integrated.append((entry, self.space.integrate(entry.operation)))
