"""The CSCW Jupiter protocol (Section 5; Xu, Sun & Li, CSCW'14).

For a system with ``n`` clients the protocol maintains ``2n`` 2D
state-spaces: one ``DSS_ci`` per client and, at the server, one ``DSS_si``
per client.  The server transforms an incoming operation against its
global-dimension suffix (``L1``, Lemma 5.1), executes ``o{L1}``, records it
in every other client's server-side space, and propagates the
**transformed** operation — the optimisation that eliminates redundant OTs
at the clients and, per Section 7, obscured the similarity among replicas
that the CSS protocol makes explicit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.common.ids import ReplicaId
from repro.document.list_document import ListDocument
from repro.errors import ProtocolError
from repro.jupiter.base import BaseClient, BaseServer, GenerateResult, ReceiveResult
from repro.jupiter.messages import ClientOperation, ServerOperation
from repro.jupiter.ordering import ServerOrderOracle
from repro.jupiter.two_dim import Dimension, TwoDimStateSpace
from repro.model.schedule import OpSpec


class CscwClient(BaseClient):
    """A CSCW client with its 2D state-space ``DSS_ci``."""

    def __init__(
        self,
        replica_id: ReplicaId,
        initial_document: Optional[ListDocument] = None,
    ) -> None:
        super().__init__(replica_id)
        self.space = TwoDimStateSpace(initial_document)

    @property
    def document(self) -> ListDocument:
        return self.space.document

    # ------------------------------------------------------------------
    # Local processing (Section 5.2.1)
    # ------------------------------------------------------------------
    def generate(self, spec: OpSpec) -> GenerateResult:
        operation = self._operation_from_spec(spec, self.space.final_key)
        self.space.append_at_final(operation, Dimension.LOCAL)
        return GenerateResult(
            operation=operation,
            returned=self.read(),
            outgoing=ClientOperation(operation),
        )

    # ------------------------------------------------------------------
    # Remote processing (Section 5.2.3)
    # ------------------------------------------------------------------
    def receive(self, payload: Any) -> ReceiveResult:
        if not isinstance(payload, ServerOperation):
            raise ProtocolError(
                f"{self.replica_id}: unexpected payload {payload!r}"
            )
        if payload.origin == self.replica_id:
            # The CSCW server of the paper does not message the generator;
            # our uniform broadcast includes it, and CSCW clients simply
            # ignore the echo.
            return ReceiveResult(executed=None, returned=self.read())
        executed = self.space.integrate(payload.operation, Dimension.GLOBAL)
        return ReceiveResult(executed=executed, returned=self.read())


class CscwServer(BaseServer):
    """The CSCW server with one ``DSS_si`` per client (Section 5.2.2)."""

    def __init__(
        self,
        replica_id: ReplicaId,
        clients: List[ReplicaId],
        initial_document: Optional[ListDocument] = None,
    ) -> None:
        super().__init__(replica_id, clients)
        self.oracle = ServerOrderOracle()
        self.spaces: Dict[ReplicaId, TwoDimStateSpace] = {
            client: TwoDimStateSpace(initial_document) for client in clients
        }
        # The server document (footnote 6) mirrors the final state of any
        # DSS; we track it explicitly since the spaces are per-client.
        self._document = (initial_document or ListDocument()).copy()

    @property
    def document(self) -> ListDocument:
        return self._document

    def receive(
        self, sender: ReplicaId, payload: Any
    ) -> List[Tuple[ReplicaId, Any]]:
        if not isinstance(payload, ClientOperation):
            raise ProtocolError(f"server: unexpected payload {payload!r}")
        if sender not in self.spaces:
            raise ProtocolError(f"server: unknown client {sender}")
        operation = payload.operation
        serial = self.oracle.assign(operation.opid)
        prefix = self.oracle.serialized_before(serial)

        # Steps 1-3: integrate along the local dimension of DSS_s,sender,
        # transforming against the global suffix L1, and execute o{L1}.
        transformed = self.spaces[sender].integrate(operation, Dimension.LOCAL)
        transformed.apply(self._document)

        # Step 4: record o{L1} at the end of the global dimension of every
        # other client's space (its context is the current server state).
        for client in self.clients:
            if client != sender:
                self.spaces[client].append_at_final(transformed, Dimension.GLOBAL)

        # Step 5: propagate o{L1}; the echo to the generator is ignored by
        # CSCW clients but keeps broadcast behaviour uniform across
        # protocols (and carries the serial for the record).
        broadcast = ServerOperation(
            operation=transformed, origin=sender, serial=serial, prefix=prefix
        )
        return [(client, broadcast) for client in self.clients]
