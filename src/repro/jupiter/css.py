"""The CSS (Compact State-Space) Jupiter protocol (Section 6).

Every replica — the server and each client — maintains a single n-ary
ordered state-space and processes *all* operations through the same
uniform rule (Section 6.2): find the matching state, save the operation
along the transition of the right order, transform it along the leftmost
transitions to the final state (Algorithm 1), execute the result.

The server serialises operations and redirects the **original** forms to
the other clients (footnote 7), plus an echo to the generator that carries
only ordering metadata (the serial number); the generator performs no OT
on its echo.  The echo takes one of two forms — the simulator hands the
generator the broadcast itself, the deployed server a
:class:`~repro.jupiter.messages.ServerEcho` ``(opid, serial)`` — and
:meth:`CssClient.receive` takes both through one rule.  Proposition 6.6
— all replicas that processed the same operations have the *same*
state-space — is checked in the test-suite by comparing the structures
these objects build.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Sequence, Tuple

from repro.common.ids import OpId, ReplicaId, SeqGenerator
from repro.document.list_document import ListDocument
from repro.errors import DocumentError, PositionError, ProtocolError
from repro.jupiter.base import BaseClient, BaseServer, GenerateResult, ReceiveResult
from repro.jupiter.messages import ClientOperation, ServerEcho, ServerOperation
from repro.jupiter.nary import NaryStateSpace
from repro.jupiter.ordering import ClientOrderOracle, ServerOrderOracle
from repro.jupiter.state_space import StateNode
from repro.model.schedule import OpSpec
from repro.obs import get_obs
from repro.ot.operations import Operation
from repro.ot.transform import transform


class _CssReplica:
    """What a CSS client and the server share: one space, its document,
    its garbage collection."""

    @property
    def document(self) -> ListDocument:
        return self.space.document

    def rebase_to_serial(self, floor_serial: int) -> int:
        """Active-window GC: prune *and rebase* below a serial floor.

        Safe when every operation this replica may still receive, hold
        pending or (the server) retain past the floor has a context
        containing serials 1..floor — the net runtime's pin-clamped
        fixpoint computes exactly such floors, and the server advertises
        no other.  Returns the number of pruned states.
        """
        if floor_serial <= self.oracle.base:
            return 0
        pruned = self.space.rebase_below(self.oracle.dense(floor_serial))
        self.pruned_states += pruned
        return pruned

    def _collect_garbage(self, peers: List[ReplicaId]) -> None:
        """Prune states below the meet of every peer's known progress.

        Only meaningful once every peer has been heard from — until then
        an unheard one could still send an operation with the empty
        context, so nothing can be discarded.
        """
        if any(peer not in self._known for peer in peers):
            return
        floor = None
        for peer in peers:
            state = self._known[peer]
            floor = state if floor is None else floor & state
        if floor:
            self.pruned_states += self.space.prune_below(floor)


class CssClient(_CssReplica, BaseClient):
    """A CSS client: one n-ary ordered state-space, uniform processing.

    With ``gc=True`` the client prunes state-space states that can no
    longer be matching states: the context of any future remote operation
    from origin ``cj`` contains everything ``cj`` had processed when it
    last spoke (learned from the contexts of its broadcast operations),
    so the meet of those known states over all other clients is a safe
    pruning floor.  This bounds the §10 metadata overhead for active
    systems; a silent client pins the floor, which the GC ablation
    benchmark demonstrates.
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        initial_document: Optional[ListDocument] = None,
        gc: bool = False,
        peers: Optional[List[ReplicaId]] = None,
    ) -> None:
        super().__init__(replica_id)
        self.oracle = ClientOrderOracle(replica_id)
        self.space = NaryStateSpace(self.oracle, initial_document)
        self._pending: List = []  # own operations awaiting their echo
        self._gc = gc
        if gc and peers is None:
            raise ProtocolError(
                "gc=True requires the peer roster: a client never heard "
                "from can still send an operation with the empty context"
            )
        self._peers = [p for p in (peers or []) if p != replica_id]
        self._known: dict = {}  # origin -> its last known state
        self.pruned_states = 0

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # Snapshot / restore seams (used by repro.jupiter.persistence)
    # ------------------------------------------------------------------
    @property
    def next_seq(self) -> int:
        """The sequence number the next generated operation will carry."""
        return self._seq.current

    def pending_opids(self) -> Tuple[OpId, ...]:
        """Own operations awaiting their server echo, in send order."""
        return tuple(self._pending)

    def restore_session(
        self, pending: Sequence[OpId], next_seq: int
    ) -> None:
        """Reinstall the send-side state a snapshot captured.

        ``pending`` is the echo-await queue and ``next_seq`` the sequence
        counter position; together with the state-space and the oracle's
        recorded serials they make a restored client byte-equivalent to
        the snapshotted one.
        """
        self._pending = list(pending)
        self._seq = SeqGenerator(self.replica_id, start=int(next_seq))

    # ------------------------------------------------------------------
    # Local processing (Section 5.2.1 — identical in CSS, see the Remark
    # after the uniform processing rule)
    # ------------------------------------------------------------------
    def generate(self, spec: OpSpec) -> GenerateResult:
        operation = self._operation_from_spec(spec, self.space.final_key)
        executed = self.space.integrate(operation)
        assert executed == operation, "local operations need no transforming"
        self._pending.append(operation.opid)
        return GenerateResult(
            operation=operation,
            returned=self.read(),
            outgoing=ClientOperation(operation),
        )

    # ------------------------------------------------------------------
    # Remote processing (uniform rule, Section 6.2)
    # ------------------------------------------------------------------
    def receive(self, payload: Any) -> ReceiveResult:
        if isinstance(payload, ServerEcho):
            return self._echo(payload.opid, payload.serial)
        if not isinstance(payload, ServerOperation):
            raise ProtocolError(
                f"{self.replica_id}: unexpected payload {payload!r}"
            )
        if payload.origin == self.replica_id:
            return self._echo(payload.operation.opid, payload.serial)
        # FIFO cross-check (Section 6.2): none of our pending operations
        # can have been serialised before this one.
        for pending in self._pending:
            if pending in payload.prefix:
                raise ProtocolError(
                    f"{self.replica_id}: pending {pending} appears in the "
                    f"prefix of {payload.operation.opid}; FIFO violated"
                )
        self.oracle.record(payload.operation.opid, payload.serial)
        executed = self.space.integrate(payload.operation)
        if self._gc:
            self._known[payload.origin] = payload.operation.resulting_state
            self._collect_garbage(self._peers)
        return ReceiveResult(executed=executed, returned=self.read())

    def _echo(self, opid: OpId, serial: int) -> ReceiveResult:
        """The echo of our own operation: ordering metadata only.  It must
        name the head of the pending queue, checked before the serial is
        recorded, so a refused echo leaves this client as it was."""
        if not self._pending or self._pending[0] != opid:
            raise ProtocolError(
                f"{self.replica_id}: echo for {opid} "
                f"does not match pending queue {self._pending}"
            )
        self.oracle.record(opid, serial)
        self._pending.pop(0)
        return ReceiveResult(executed=None, returned=self.read())


class CssServer(_CssReplica, BaseServer):
    """The CSS server: serialise, integrate, redirect originals.

    With ``gc=True`` the server prunes its state-space below the meet of
    every client's last-known state (taken from the contexts of the
    operations they send) — see :class:`CssClient` for the reasoning.
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        clients: List[ReplicaId],
        initial_document: Optional[ListDocument] = None,
        gc: bool = False,
    ) -> None:
        super().__init__(replica_id, clients)
        self.oracle = ServerOrderOracle()
        self.space = NaryStateSpace(self.oracle, initial_document)
        self._gc = gc
        self._known: dict = {}
        self.pruned_states = 0
        self._obs = get_obs()
        #: (final key, document) for the checks, advanced by each ``o{L}``:
        #: reading the space's own would hand its lazy documents over to
        #: the final state, so a checkpoint replays the window to its root
        self._final: Tuple[Any, Any] = (None, None)

    def receive(
        self, sender: ReplicaId, payload: Any
    ) -> List[Tuple[ReplicaId, Any]]:
        if not isinstance(payload, ClientOperation):
            raise ProtocolError(f"server: unexpected payload {payload!r}")
        obs = self._obs
        started = time.perf_counter() if obs.enabled else 0.0
        operation = payload.operation
        # Match before a serial is spent: a context naming no state of
        # ours, a position past the end of its document (a delete needs
        # an element at it, a NOP has no position) or an element that
        # contradicts the document must leave the total order untouched.
        source = self.space.node(operation.context)
        if (operation.position or 0) + operation.is_delete > source.length:
            raise PositionError(
                f"{operation.pretty()} out of range for the document of "
                f"length {source.length} at its context"
            )
        key, final = self._final
        if key is not self.space.final_key:  # a new, restored or swapped space
            final = self.space.document.copy()
        self._check_element(operation, source, final)
        serial = self.oracle.assign(operation.opid)
        prefix = self.oracle.serialized_before(serial)
        self.space.integrate(operation).apply(final)
        self._final = (self.space.final_key, final)
        if self._gc:
            self._known[sender] = operation.resulting_state
            self._collect_garbage(self.clients)
        broadcast = ServerOperation(
            operation=operation, origin=sender, serial=serial, prefix=prefix
        )
        if obs.enabled:
            obs.ops_serialised.inc()
            obs.serialise_duration.observe(time.perf_counter() - started)
        return [(client, broadcast) for client in self.clients]

    def _check_element(
        self, operation: Operation, source: StateNode, final: ListDocument
    ) -> None:
        """Refuse an operation every replica would fail to apply: an
        insert must bring a new element named by its own id, a delete
        must name the element it removes where it executes — its form
        ``o{L}`` after the transforms ``integrate`` will do, against the
        ``final`` document (the context's may be a long chain away).  A
        delete that collapses to a NOP needs no element."""
        element = operation.element
        if operation.is_insert:
            assert element is not None
            if element.opid != operation.opid or element.opid in final:
                raise DocumentError(
                    f"{operation.pretty()} must insert a new element named "
                    f"{operation.opid}, not {element.pretty()}"
                )
        elif operation.is_delete:
            assert element is not None
            executed = operation
            for step in self.space.leftmost_path(source.key):
                executed = transform(executed, step.operation, step.target)
            if executed.is_nop:
                return
            found = final.element_at(executed.position)
            if found.opid != element.opid:
                raise DocumentError(
                    f"{operation.pretty()} executes as {executed} but the "
                    f"document holds {found.pretty()} there"
                )

    @property
    def base(self) -> int:
        """Serial floor of the active window (0 = untrimmed)."""
        return self.oracle.base
