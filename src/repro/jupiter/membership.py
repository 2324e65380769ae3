"""Dynamic membership: clients joining a running CSS system.

The original Jupiter model fixes the client set up front; a production
editor must admit collaborators mid-session.  Joining is built on two
facts this repository already establishes:

* Proposition 6.6 — the server's n-ary ordered state-space *is* the
  state-space every replica would have built, so a snapshot of it is a
  complete starting point for a newcomer;
* FIFO broadcasts — everything serialised after the snapshot reaches the
  newcomer in total order, exactly as it reaches the veterans.

``server_admit`` extends the roster and cuts a join payload: the
server's snapshot (:func:`~repro.jupiter.persistence.snapshot_server`)
plus the joiner's name.  ``client_from_join`` builds a fully initialised
:class:`~repro.jupiter.css.CssClient` from it through the one snapshot
reader, :func:`~repro.jupiter.persistence.client_from_snapshot`, which
state transfer and checkpoint restore use too.
The newcomer's first generated operation has the server state at
admission as its context, which every veteran's space contains, so no
special-casing is needed anywhere else.

Limitations (documented, asserted): admission is for the plain ``css``
protocol; the ``css-gc`` variant would additionally need to re-announce
the roster to every client (a newcomer with an empty known-state must
reset everyone's pruning floor).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.common.ids import ReplicaId
from repro.errors import ProtocolError
from repro.jupiter.css import CssClient, CssServer
from repro.jupiter.persistence import client_from_snapshot, snapshot_server


def server_admit(server: CssServer, client_id: ReplicaId) -> Dict[str, Any]:
    """Admit ``client_id`` and return its join payload.

    The payload contains everything the newcomer needs to be
    indistinguishable from a client that was present from the start and
    has processed every serialised operation.
    """
    if client_id in server.clients:
        raise ProtocolError(f"client {client_id} is already a member")
    if getattr(server, "_gc", False):
        raise ProtocolError(
            "dynamic admission is not supported with state-space GC "
            "enabled (the pruning floor would need a roster re-announce)"
        )
    server.clients.append(client_id)
    return {**snapshot_server(server), "client": client_id}


def client_from_join(payload: Dict[str, Any]) -> CssClient:
    """Build a ready-to-run client from a join payload."""
    return client_from_snapshot(str(payload["client"]), payload)
