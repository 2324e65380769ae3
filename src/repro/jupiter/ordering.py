"""Total-order oracles used to order sibling transitions (Section 6.1).

The children of a state in the n-ary ordered state-space are ordered by
the server's total order ``⇒`` on the original operations.  How a replica
*knows* that order differs by role:

* the **server** assigns serial numbers itself, so every operation it has
  ever seen has a known serial;
* a **client** learns serials from the server broadcasts.  Its own pending
  operations (generated locally, echo not yet received) have no serial
  yet, but FIFO channels make the comparison decidable anyway: if a remote
  operation arrives while a local operation is still pending, the server
  must have serialised the remote one first — had the local operation been
  serialised earlier, its echo would already have arrived (Section 6.2's
  reasoning about operations being "aware" of each other at the server).
"""

from __future__ import annotations

from repro.common.ids import OpId
from repro.errors import OrderingError
from repro.jupiter.keys import SerialLog, StateKey


class ServerOrderOracle(SerialLog):
    """Total order at the server: serials it assigned itself.

    ``start`` seats the oracle at a non-zero position: a server restored
    from a checkpoint taken after active-window GC only knows the serials
    past the checkpoint's rebase base, so its oracle begins there instead
    of at serial 1.
    """

    def assign(self, opid: OpId) -> int:
        """Serialise ``opid``: give it the next serial number."""
        if opid in self._serial_by_opid:
            raise OrderingError(f"operation {opid} serialised twice")
        return self._append(opid)

    def serialized_before(self, serial: int) -> StateKey:
        """The operations in ``(base, serial)`` (a message's prefix): the
        dense key ``{base + 1 .. serial - 1}``, an O(1) view over this
        log that answers ``in``, ``==`` and iteration like the set."""
        return self.dense(min(max(serial - 1, self._base), self.last_serial))

    def before(self, first: OpId, second: OpId) -> bool:
        """``first ⇒ second`` in the server total order."""
        try:
            return self._serial_by_opid[first] < self._serial_by_opid[second]
        except KeyError as missing:
            raise OrderingError(
                f"server asked to order unserialised operation {missing}"
            ) from None


class ClientOrderOracle(SerialLog):
    """Total order as known at a client.

    ``record(opid, serial)`` is called for every server broadcast
    (including the echo of the client's own operations).  ``before``
    resolves pending-vs-serialised comparisons with the FIFO argument
    above; two pending operations are never siblings (they are causally
    ordered at their common generator), so asking about them is an error.

    Broadcasts release in serial order, so the log is dense from where
    its owner seated it (``trim_below``): 0 for a fresh mirror, the
    transferred serial for a state transfer.
    """

    def __init__(self, replica: str) -> None:
        super().__init__()
        self._replica = replica

    def record(self, opid: OpId, serial: int) -> None:
        existing = self._serial_by_opid.get(opid)
        if existing is None:
            if serial != self.last_serial + 1:
                raise OrderingError(
                    f"{self._replica} learned serial {serial} for {opid} "
                    f"out of order (expected {self.last_serial + 1})"
                )
            self._append(opid)
        elif existing != serial:
            raise OrderingError(
                f"{self._replica} saw two serials for {opid}: "
                f"{existing} and {serial}"
            )

    def before(self, first: OpId, second: OpId) -> bool:
        first_serial = self._serial_by_opid.get(first)
        second_serial = self._serial_by_opid.get(second)
        if first_serial is not None and second_serial is not None:
            return first_serial < second_serial
        if first_serial is not None and second_serial is None:
            # ``second`` is pending here: the server cannot have
            # serialised it before ``first`` or its echo would have
            # arrived first (FIFO).
            return True
        if first_serial is None and second_serial is not None:
            return False
        raise OrderingError(
            f"{self._replica} asked to order two pending operations "
            f"{first} and {second}; pending operations are causally "
            "ordered and can never be sibling transitions"
        )
