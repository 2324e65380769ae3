"""Wire payloads exchanged between Jupiter clients and the server.

Channels are FIFO in both directions (Section 4.4).  Two payload shapes
cover all protocol variants, and a replica that missed broadcasts is
re-shipped the same :class:`ServerOperation` payloads:

* :class:`ClientOperation` — a client propagates a freshly generated
  original operation to the server;
* :class:`ServerOperation` — the server broadcasts a serialised operation.
  In the CSS protocol the embedded operation is the *original* one (the
  paper's footnote 7); in the CSCW and classic protocols it is the
  server-transformed form ``o{L1}``.  The broadcast also goes back to the
  generating client, which treats it purely as an acknowledgement carrying
  the serialisation index — the metadata-only substitution documented in
  DESIGN.md that lets CSS clients order sibling transitions.

The deployed server sends the generator only what it lacks — a
:class:`ServerEcho`, the operation's id and its serial — and every other
client the form the operation executed as at the server, which a buffer
client (:class:`repro.jupiter.classic.ClassicClient`) takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.common.ids import OpId, ReplicaId
from repro.ot.operations import Operation


@dataclass(frozen=True)
class ClientOperation:
    """A client-to-server message carrying one original operation."""

    operation: Operation

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"ClientOperation({self.operation})"


@dataclass(frozen=True)
class ServerOperation:
    """A server-to-client broadcast of one serialised operation.

    Attributes:
        operation: the operation (original for CSS, ``o{L1}`` otherwise).
        origin: the client that generated the operation.
        serial: the serialisation index — the Jupiter total order
            (Definition 4.3) is exactly the order of serials.
        prefix: ids of the operations serialised strictly before this one;
            carried for cross-checking the FIFO reasoning in Section 6.2
            (a receiver's pending local operation can never appear here).
    """

    operation: Operation
    origin: ReplicaId
    serial: int
    prefix: FrozenSet[OpId]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"ServerOperation(#{self.serial} {self.operation})"


@dataclass(frozen=True)
class ServerEcho:
    """The server's answer to an operation's generator (footnote 7).

    The generator already holds the operation and its context; what it
    lacks is the operation's place in the total order, so the echo is
    that and nothing else.

    Attributes:
        opid: the echoed operation, the head of its generator's pending
            queue.
        serial: its serialisation index.
    """

    opid: OpId
    serial: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"ServerEcho(#{self.serial} {self.opid})"
