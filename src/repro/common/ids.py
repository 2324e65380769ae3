"""Identifiers for replicas and operations.

The paper (Section 3.1) assumes all inserted elements are unique, "which can
be done by attaching replica identifiers and sequence numbers".  ``OpId`` is
exactly that pair.  Because there is a one-to-one correspondence between
insert operations and inserted elements, an ``OpId`` doubles as the identity
of the element the operation inserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Iterable

#: Replicas are named by plain strings, e.g. ``"c1"``, ``"c2"`` or ``"s"``.
ReplicaId = str

#: The conventional name of the central Jupiter server replica.
SERVER_ID: ReplicaId = "s"


@dataclass(frozen=True, order=True)
class OpId:
    """Globally unique identity of an *original* user operation.

    The identity survives operational transformation: a transformed
    operation ``o{L}`` keeps the ``OpId`` of ``org(o)`` (paper, Definition
    4.5).  The derived ordering (``replica`` then ``seq``) is arbitrary but
    deterministic; protocols must *not* use it as the Jupiter total order —
    that order is the server serialisation order (Definition 4.3).

    The hash is computed once and cached: ids live inside state keys,
    prefix sets and document id-sets, so the state-space hot path hashes
    the same id many thousands of times.
    """

    replica: ReplicaId
    seq: int
    _hash: int = field(
        default=0, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.replica, self.seq)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        # The same object, or a different cached hash, settles most.
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and (
            self.seq == other.seq and self.replica == other.replica
        )

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.replica}:{self.seq}"


class SeqGenerator:
    """Per-replica monotonic sequence-number source.

    >>> gen = SeqGenerator("c1")
    >>> gen.next_opid()
    OpId(replica='c1', seq=1)
    >>> gen.next_opid()
    OpId(replica='c1', seq=2)
    """

    def __init__(self, replica: ReplicaId, start: int = 1) -> None:
        self._replica = replica
        self._next = start

    @property
    def replica(self) -> ReplicaId:
        return self._replica

    @property
    def current(self) -> int:
        """The next sequence number that will be handed out."""
        return self._next

    def next_opid(self) -> OpId:
        """Return a fresh :class:`OpId` and advance the counter."""
        opid = OpId(self._replica, self._next)
        self._next += 1
        return opid


def format_opid_set(opids: Iterable[OpId]) -> str:
    """Render a set of operation ids compactly, for diagnostics.

    States in the paper are written like ``{1, 2, 3}``; we print
    ``{c1:1, c2:1, c3:1}`` (sorted) so messages stay deterministic.
    """
    inner = ", ".join(str(o) for o in sorted(opids))
    return "{" + inner + "}"


@dataclass(frozen=True)
class SerialNumber:
    """A server serialisation index.

    Serial numbers start at 1 and define the Jupiter total order
    (Definition 4.3): ``o ⇒ o'`` iff ``serial(o) < serial(o')``.
    """

    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"serial numbers start at 1, got {self.index}")

    def __lt__(self, other: "SerialNumber") -> bool:
        return self.index < other.index

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"#{self.index}"


# A replica state in the paper is the set of original operations processed
# (Definition 4.5): any hashable set of ids — a frozenset (the empty one is
# the initial state σ0) or a state-space's ``repro.jupiter.keys.StateKey``.
StateKey = AbstractSet[OpId]

EMPTY_STATE: StateKey = frozenset()


@dataclass
class SerialCounter:
    """Monotonic :class:`SerialNumber` source used by servers."""

    _next: int = field(default=1)

    def next_serial(self) -> SerialNumber:
        serial = SerialNumber(self._next)
        self._next += 1
        return serial

    @property
    def issued(self) -> int:
        """How many serial numbers have been handed out so far."""
        return self._next - 1
