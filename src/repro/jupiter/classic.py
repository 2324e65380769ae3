"""Classic buffer-based Jupiter (Nichols et al., UIST'95 style).

The optimised implementation real systems deploy: no explicit state-spaces
at all.  Each client keeps only its document plus the buffer of *pending*
own operations (sent, echo not yet received), maintained in the
transformed form matching the current document; the server keeps, per
client, the *frontier* of transformed operations that client has not yet
acknowledged.  Incoming operations transform against the buffer/frontier
with the standard sequence transformation.

Behaviourally this is the CSCW protocol with the state-space bookkeeping
erased, so the equivalence tests run it side-by-side with CSS and CSCW
under identical schedules.  Operation contexts are still tracked exactly,
which means every buffered transformation is *checked*: a mis-aligned
buffer raises :class:`~repro.errors.ContextMismatchError` instead of
corrupting documents.

The client is also the deployed one.  By Theorem 7.1 and Proposition
7.4 a CSS server may send CSCW's broadcasts ``o{L}`` — the form
Algorithm 1 executes at the server — so
:class:`~repro.jupiter.client_core.ClientCore` runs a
:class:`ClassicClient` against the deployed
:class:`~repro.jupiter.css.CssServer`, and the generator's echo may be a
:class:`~repro.jupiter.messages.ServerEcho`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.common.ids import OpId, ReplicaId, SeqGenerator
from repro.document.list_document import ListDocument
from repro.errors import DocumentError, ProtocolError, TransformError
from repro.jupiter.base import BaseClient, BaseServer, GenerateResult, ReceiveResult
from repro.jupiter.keys import key_of
from repro.jupiter.messages import ClientOperation, ServerEcho, ServerOperation
from repro.jupiter.ordering import ClientOrderOracle, ServerOrderOracle
from repro.model.schedule import OpSpec
from repro.ot.operations import Operation
from repro.ot.sequences import transform_against_sequence


class ClassicClient(BaseClient):
    """Document + pending run; the minimal Jupiter client.

    A broadcast's operation is at the serials before its own: this
    client's state less its pending run.  It is transformed against the
    run (a CP1 square per pending op, each context-checked) and applied,
    or refused with :class:`~repro.errors.ProtocolError` before anything
    changes.  ``oracle`` learns each serial, so a context is a
    :class:`~repro.jupiter.keys.StateKey` ``(d, run)``, not the history.
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        initial_document: Optional[ListDocument] = None,
        *,
        serial: int = 0,
        next_seq: int = 1,
    ) -> None:
        super().__init__(replica_id)
        self._seq = SeqGenerator(replica_id, start=next_seq)
        self._document = (initial_document or ListDocument()).copy()
        #: the serials learned, from ``serial`` (a document handed over
        #: whole is at a serial whose predecessors it never saw)
        self.oracle = ClientOrderOracle(replica_id)
        self.oracle.trim_below(serial)
        self._pending: List[Operation] = []

    @property
    def document(self) -> ListDocument:
        return self._document

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def run_floor(self) -> int:
        """``d`` of the state the next edit is generated on: the last
        serial or, while ops await their echo, the serial prefix the
        pending run's contexts hold.  Reading it settles the run's key
        on serials learned since (an echoed head's); once a floor
        passes the key's ``d``, it no longer can."""
        if not self._pending:
            return self.oracle.last_serial
        return key_of(self.oracle, self._pending[-1].context).pair()[0]

    def generate(self, spec: OpSpec) -> GenerateResult:
        operation = self.edit(spec)
        outgoing = ClientOperation(operation)
        return GenerateResult(operation, self.read(), outgoing)

    def receive(self, payload: Any) -> ReceiveResult:
        return ReceiveResult(executed=self.take(payload), returned=self.read())

    def edit(self, spec: OpSpec) -> Operation:
        """:meth:`generate` without the read: apply one edit, on the state
        the last pending op reached (each is kept at the document's)."""
        pending, oracle = self._pending, self.oracle
        state = (
            pending[-1].resulting_state
            if pending
            else oracle.dense(oracle.last_serial)
        )
        operation = self._operation_from_spec(spec, state)
        operation.apply(self._document)
        pending.append(operation)
        return operation

    def take(self, payload: Any) -> Optional[Operation]:
        """:meth:`receive` without the read: the executed form, or
        ``None`` for the echo of our own operation."""
        if isinstance(payload, ServerEcho):
            return self._echo(payload.opid, payload.serial)
        if not isinstance(payload, ServerOperation):
            raise ProtocolError(
                f"{self.replica_id}: unexpected payload {payload!r}"
            )
        operation = payload.operation
        if payload.origin == self.replica_id:
            return self._echo(operation.opid, payload.serial)
        serial = self._next(payload.serial, operation.opid)
        try:
            if operation.context != self.oracle.dense(serial - 1):
                raise TransformError(f"{operation} is not at {serial - 1}")
            executed, shifted = transform_against_sequence(
                operation, self._pending
            )
            executed.apply(self._document)
        except (DocumentError, TransformError) as exc:
            raise ProtocolError(
                f"{self.replica_id}: broadcast #{serial} refused: {exc}"
            ) from exc
        self.oracle.record(operation.opid, serial)
        self._pending = shifted
        return executed

    def _next(self, serial: int, opid: OpId) -> int:
        """``serial``, checked to be the next, for an op not yet learned."""
        oracle = self.oracle
        if serial != oracle.last_serial + 1 or oracle.serial_of(opid):
            raise ProtocolError(f"{self.replica_id}: {opid} at #{serial}")
        return serial

    def _echo(self, opid: OpId, serial: int) -> None:
        """The head of the pending run is stable at the server."""
        if not self._pending or self._pending[0].opid != opid:
            raise ProtocolError(f"{self.replica_id}: unexpected echo {opid}")
        self.oracle.record(opid, self._next(serial, opid))
        del self._pending[0]


class ClassicServer(BaseServer):
    """Document + per-client frontier; the minimal Jupiter server."""

    def __init__(
        self,
        replica_id: ReplicaId,
        clients: List[ReplicaId],
        initial_document: Optional[ListDocument] = None,
    ) -> None:
        super().__init__(replica_id, clients)
        self.oracle = ServerOrderOracle()
        self._document = (initial_document or ListDocument()).copy()
        self._frontiers: Dict[ReplicaId, List[Operation]] = {
            client: [] for client in clients
        }

    @property
    def document(self) -> ListDocument:
        return self._document

    def frontier_size(self, client: ReplicaId) -> int:
        return len(self._frontiers[client])

    def receive(
        self, sender: ReplicaId, payload: Any
    ) -> List[Tuple[ReplicaId, Any]]:
        if not isinstance(payload, ClientOperation):
            raise ProtocolError(f"server: unexpected payload {payload!r}")
        if sender not in self._frontiers:
            raise ProtocolError(f"server: unknown client {sender}")
        operation = payload.operation
        serial = self.oracle.assign(operation.opid)
        prefix = self.oracle.serialized_before(serial)

        # Drop the frontier prefix the client had already seen when it
        # generated this operation (those ids are in its context); FIFO
        # guarantees the seen part is exactly a prefix.
        frontier = self._frontiers[sender]
        unseen_from = 0
        while (
            unseen_from < len(frontier)
            and frontier[unseen_from].opid in operation.context
        ):
            unseen_from += 1
        for stale in frontier[unseen_from:]:
            if stale.opid in operation.context:
                raise ProtocolError(
                    f"server: frontier for {sender} acknowledged out of "
                    f"order around {stale.opid}"
                )
        unseen = frontier[unseen_from:]

        transformed, shifted = transform_against_sequence(operation, unseen)
        self._frontiers[sender] = shifted
        transformed.apply(self._document)
        for client in self.clients:
            if client != sender:
                self._frontiers[client].append(transformed)

        broadcast = ServerOperation(
            operation=transformed, origin=sender, serial=serial, prefix=prefix
        )
        return [(client, broadcast) for client in self.clients]
