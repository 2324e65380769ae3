"""Happens-before and derived relations (Definitions 2.7, 2.8, 4.1–4.3).

Happens-before is computed with vector clocks: one pass over the execution
assigns each event a clock; ``e hb e'`` is then a component-wise comparison.
This keeps relation queries cheap even for the large random executions used
by the property tests and benchmarks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.ids import OpId, ReplicaId
from repro.errors import MalformedExecutionError
from repro.model.events import ReceiveEvent, SendEvent
from repro.model.execution import Execution

VectorClock = Dict[ReplicaId, int]


class HappensBefore:
    """The happens-before partial order over the events of an execution.

    Construction is a single left-to-right pass: thread order bumps the
    replica's own component; a receive joins the clock of the matching
    send (message-delivery edges); transitivity falls out of the joins.
    """

    def __init__(self, execution: Execution) -> None:
        self._execution = execution
        self._clocks: List[VectorClock] = []
        per_replica_clock: Dict[ReplicaId, VectorClock] = {}
        send_clock_by_mid: Dict[int, VectorClock] = {}

        for event in execution:
            clock = dict(per_replica_clock.get(event.replica, {}))
            if isinstance(event, ReceiveEvent):
                sender_clock = send_clock_by_mid.get(event.message.mid)
                if sender_clock is None:
                    raise MalformedExecutionError(
                        f"receive of {event.message} without prior send"
                    )
                for replica, count in sender_clock.items():
                    if clock.get(replica, 0) < count:
                        clock[replica] = count
            clock[event.replica] = clock.get(event.replica, 0) + 1
            self._clocks.append(clock)
            per_replica_clock[event.replica] = clock
            if isinstance(event, SendEvent):
                send_clock_by_mid[event.message.mid] = clock

    @property
    def execution(self) -> Execution:
        return self._execution

    def happens_before(self, first_eid: int, second_eid: int) -> bool:
        """``e -hb-> e'`` (strict)."""
        if first_eid == second_eid:
            return False
        first = self._execution[first_eid]
        second_clock = self._clocks[second_eid]
        # e hb e' iff e' has seen at least as many events of R(e) as e's
        # own position in R(e)'s thread.
        own = self._clocks[first_eid][first.replica]
        return second_clock.get(first.replica, 0) >= own and first_eid < second_eid

    def concurrent(self, first_eid: int, second_eid: int) -> bool:
        return (
            first_eid != second_eid
            and not self.happens_before(first_eid, second_eid)
            and not self.happens_before(second_eid, first_eid)
        )

    def totally_before(self, first_eid: int, second_eid: int) -> bool:
        """A totally-before relation consistent with happens-before.

        The recording order of the execution is itself a consistent total
        order (Definition 2.8): events are appended as they occur, and a
        message is received only after it was sent.
        """
        return first_eid < second_eid


class CausalOrder:
    """Causal / concurrent / total order on *user operations* (§4.1).

    Operations are named by their :class:`~repro.common.ids.OpId`; this is
    the relation the OT protocols consult, so it is exposed independently
    of raw event ids.
    """

    def __init__(self, execution: Execution) -> None:
        self._hb = HappensBefore(execution)
        self._eid_by_opid: Dict[OpId, int] = {}
        for event in execution.do_events():
            if event.is_update:
                assert event.opid is not None
                if event.opid in self._eid_by_opid:
                    raise MalformedExecutionError(
                        f"operation {event.opid} generated twice"
                    )
                self._eid_by_opid[event.opid] = event.eid

    def opids(self) -> List[OpId]:
        return list(self._eid_by_opid)

    def eid_of(self, opid: OpId) -> int:
        return self._eid_by_opid[opid]

    def causally_before(self, first: OpId, second: OpId) -> bool:
        """``o → o'`` (Definition 4.1)."""
        return self._hb.happens_before(self.eid_of(first), self.eid_of(second))

    def concurrent(self, first: OpId, second: OpId) -> bool:
        """``o ∥ o'`` (Definition 4.2)."""
        return self._hb.concurrent(self.eid_of(first), self.eid_of(second))

    def totally_before(self, first: OpId, second: OpId) -> bool:
        """``o ⇒ o'`` (Definition 4.3), induced by the recording order."""
        return self.eid_of(first) < self.eid_of(second)

    def context_of(self, opid: OpId) -> Tuple[OpId, ...]:
        """All operations causally before ``opid``, i.e. its context."""
        return tuple(
            other
            for other in self._eid_by_opid
            if other != opid and self.causally_before(other, opid)
        )


def visibility_from_causality(
    execution: Execution,
) -> Dict[int, frozenset]:
    """``vis := →`` — the visibility relation used in the paper's §8.2.

    Maps each do-event id to the frozenset of do-event ids visible to it
    (those happening strictly before it).
    """
    hb = HappensBefore(execution)
    do_events = execution.do_events()
    visible: Dict[int, frozenset] = {}
    for event in do_events:
        visible[event.eid] = frozenset(
            other.eid
            for other in do_events
            if hb.happens_before(other.eid, event.eid)
        )
    return visible


def linearise(
    execution: Execution, hb: Optional[HappensBefore] = None
) -> List[int]:
    """A total order of event ids consistent with happens-before.

    The recording order already is one; exposed as a function so callers
    don't have to know that implementation detail.
    """
    del hb  # recording order is always consistent
    return [event.eid for event in execution]
