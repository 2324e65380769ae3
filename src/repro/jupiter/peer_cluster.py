"""Peer-to-peer execution harness for the decentralised CSS protocol.

The star-shaped :class:`~repro.jupiter.cluster.Cluster` models the paper's
client/server system; this harness models the §10 future-work setting —
a full mesh of peers with FIFO channels and no server.  It records the
same kind of concrete execution, so all specification checkers apply
unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Sequence, Tuple

from repro.common.ids import ReplicaId
from repro.document.list_document import ListDocument
from repro.errors import ScheduleError, SimulationError
from repro.jupiter.dcss import DcssPeer
from repro.model.events import Message
from repro.model.execution import Execution, ExecutionRecorder
from repro.model.schedule import OpSpec


class PeerCluster:
    """A full mesh of dCSS peers with FIFO channels."""

    def __init__(
        self,
        peers: Sequence[ReplicaId],
        initial_text: str = "",
        observe_after_receive: bool = True,
    ) -> None:
        if len(peers) < 2:
            raise ValueError("a peer-to-peer system needs at least 2 peers")
        initial = (
            ListDocument.from_string(initial_text) if initial_text else None
        )
        names = list(peers)
        self.peers: Dict[ReplicaId, DcssPeer] = {
            name: DcssPeer(name, names, initial) for name in names
        }
        self.observe_after_receive = observe_after_receive
        self.recorder = ExecutionRecorder()
        self._channels: Dict[Tuple[ReplicaId, ReplicaId], Deque[Message]] = {
            (a, b): deque() for a in names for b in names if a != b
        }
        # Operation messages held back by a peer's stability queue; their
        # receive events are recorded only at integration time (delivery
        # semantics of the hold-back queue, see PeerReceiveResult).
        self._held: Dict[Tuple[ReplicaId, object], Message] = {}

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------
    def generate(self, peer_id: ReplicaId, spec: OpSpec) -> None:
        peer = self._peer(peer_id)
        result = peer.generate(spec)
        self.recorder.record_do(peer_id, result.operation, result.returned)
        self._send_all(peer_id, result.outgoing)

    def deliver(self, receiver: ReplicaId, sender: ReplicaId) -> None:
        """Deliver the next message on the ``sender -> receiver`` channel."""
        channel = self._channels.get((sender, receiver))
        if channel is None:
            raise ScheduleError(f"no channel {sender} -> {receiver}")
        if not channel:
            raise ScheduleError(
                f"channel {sender} -> {receiver} is empty"
            )
        message = channel.popleft()
        peer = self._peer(receiver)
        payload = message.payload
        from repro.jupiter.dcss import PeerOperation

        if isinstance(payload, PeerOperation):
            # Hold the receive event until the operation integrates.
            self._held[(receiver, payload.operation.opid)] = message
        # Acknowledgements are network-layer control traffic: they carry
        # no replica-visible state, so they stay out of the recorded
        # execution entirely (their sends are unrecorded too).  Recording
        # them would add happens-before edges for operations a peer has
        # *heard of* but not yet integrated, which is not what
        # Definition 4.5 means by a processed operation.
        result = peer.receive(payload)
        for broadcast, _executed in result.integrated:
            held = self._held.pop((receiver, broadcast.operation.opid))
            self.recorder.record_receive(receiver, held)
        if result.integrated and self.observe_after_receive:
            self.recorder.record_do(receiver, None, result.returned)
        self._send_all(receiver, result.outgoing)

    def read(self, peer_id: ReplicaId) -> None:
        self.recorder.record_do(peer_id, None, self._peer(peer_id).read())

    def drain(self, max_rounds: int = 1_000_000) -> None:
        """Deliver everything (round-robin) until full quiescence.

        Quiescence means empty channels *and* empty hold-back queues; a
        non-empty hold-back queue with no messages in flight would be a
        stability deadlock, which we surface loudly.
        """
        names = sorted(self.peers)
        for _ in range(max_rounds):
            progressed = False
            for receiver in names:
                for sender in names:
                    if sender != receiver and self._channels[(sender, receiver)]:
                        self.deliver(receiver, sender)
                        progressed = True
            if not progressed:
                break
        stuck = {
            name: peer.holdback_size
            for name, peer in self.peers.items()
            if peer.holdback_size
        }
        if stuck:
            raise SimulationError(
                f"stability deadlock: hold-back queues non-empty at {stuck}"
            )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def documents(self) -> Dict[ReplicaId, str]:
        return {
            name: peer.document.as_string()
            for name, peer in self.peers.items()
        }

    def converged(self) -> bool:
        return len(set(self.documents().values())) == 1

    def state_spaces_identical(self) -> bool:
        """Proposition 6.6, decentralised edition."""
        spaces = [peer.space for peer in self.peers.values()]
        return all(s.same_structure(spaces[0]) for s in spaces[1:])

    def execution(self) -> Execution:
        return self.recorder.finish()

    def in_flight(self) -> int:
        return sum(len(channel) for channel in self._channels.values())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _peer(self, peer_id: ReplicaId) -> DcssPeer:
        try:
            return self.peers[peer_id]
        except KeyError:
            raise ScheduleError(f"unknown peer {peer_id}") from None

    def _send_all(
        self, sender: ReplicaId, outgoing: List[Tuple[ReplicaId, object]]
    ) -> None:
        from repro.jupiter.dcss import PeerOperation

        for recipient, payload in outgoing:
            message = Message(sender, recipient, payload)
            if isinstance(payload, PeerOperation):
                self.recorder.record_send(sender, message)
            self._channels[(sender, recipient)].append(message)
