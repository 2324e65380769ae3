"""Reliable sessions: exactly-once FIFO delivery over a lossy channel.

Every protocol in this repository (``ClassicClient``/``CscwClient``/
``CssClient`` and the server halves) assumes the paper's network model:
reliable exactly-once FIFO channels (Section 4.4).  This module rebuilds
that abstraction on top of a channel that may drop, duplicate and reorder
frames — without touching protocol internals:

* a :class:`SessionSender` stamps each outgoing protocol message with a
  per-channel monotone sequence number and keeps it retransmittable until
  a cumulative acknowledgement covers it;
* a :class:`SessionReceiver` suppresses duplicates, buffers out-of-order
  arrivals and releases frames to the protocol strictly in sequence
  order, acknowledging cumulatively;
* a :class:`RetransmitPolicy` turns attempt counts into timeout-driven
  resends with exponential backoff and seeded jitter (deterministic, so
  simulated runs replay exactly).

Crash recovery resumes a channel from durable counters: a fresh
receiver is fast-forwarded past what it had consumed
(:meth:`SessionReceiver.fast_forward`), a sender restored to its
checkpointed sequence state, and the broadcasts a restarted client had
consumed but lost are re-shipped in serial order — from the server's
log on reconnect (:meth:`~repro.jupiter.shard.ShardCore.resync`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.common.ids import ReplicaId
from repro.errors import ProtocolError
from repro.obs import get_obs

#: A directed channel, e.g. ``("c1", "s")``.
Channel = Tuple[ReplicaId, ReplicaId]


def counter(value: Any, what: str) -> int:
    """A counter a peer's frame carries — a sequence number, an ack, a
    cursor, an epoch, a view — or the peer's protocol violation: it must
    be a non-negative ``int``, and a ``bool`` is not one."""
    if type(value) is not int or value < 0:
        raise ProtocolError(
            f"frame field {what!r} must be a non-negative integer, "
            f"got {value!r}"
        )
    return value


class SessionSender:
    """Sender half of one directed channel.

    Sequence numbers start at 1 and are dense; ``acked`` is the highest
    *cumulatively* acknowledged sequence number, so the retransmittable
    window is exactly ``acked + 1 .. next_seq - 1``.
    """

    def __init__(self, channel: Channel) -> None:
        self.channel = channel
        self.next_seq = 1
        self.acked = 0
        self._obs = get_obs()

    def send(self) -> int:
        """Allocate the sequence number for the next outgoing frame."""
        seq = self.next_seq
        self.next_seq += 1
        return seq

    def ack(self, cumulative: int) -> None:
        """Process a cumulative acknowledgement (idempotent, monotone)."""
        if cumulative >= self.next_seq:
            raise ProtocolError(
                f"{self.channel}: ack {cumulative} beyond last sent "
                f"{self.next_seq - 1}"
            )
        self.acked = max(self.acked, cumulative)
        self._obs.session_acks.inc()

    def unacked(self) -> range:
        """Sequence numbers still awaiting acknowledgement."""
        return range(self.acked + 1, self.next_seq)

    @property
    def outstanding(self) -> int:
        return self.next_seq - 1 - self.acked

    # -- checkpointing --------------------------------------------------
    def state(self) -> Dict[str, int]:
        return {"next_seq": self.next_seq, "acked": self.acked}

    def restore(self, state: Dict[str, int]) -> None:
        self.next_seq = int(state["next_seq"])
        # Rolling ``acked`` back makes the sender re-offer frames the peer
        # already consumed; the peer's receiver suppresses them as
        # duplicates, so recovery errs on the safe side.
        self.acked = int(state["acked"])


class SessionReceiver:
    """Receiver half of one directed channel.

    ``expected`` is the next in-order sequence number; anything below it
    is a duplicate (suppressed), anything above it is parked in the
    reorder buffer until the gap fills.  :meth:`receive` returns how many
    frames became releasable *in order* — the caller hands exactly that
    many queued protocol messages to the replica, which is what restores
    exactly-once FIFO semantics.
    """

    def __init__(self, channel: Channel) -> None:
        self.channel = channel
        self.expected = 1
        self.buffer: set = set()
        self.duplicates = 0
        self.buffered = 0
        self._obs = get_obs()

    def receive(self, seq: int) -> int:
        """Accept frame ``seq``; return the number of frames released."""
        if seq < 1:
            raise ProtocolError(f"{self.channel}: invalid sequence {seq}")
        if seq < self.expected or seq in self.buffer:
            self.duplicates += 1
            self._obs.session_duplicates.inc()
            return 0
        if seq > self.expected:
            self.buffer.add(seq)
            self.buffered += 1
            self._obs.session_gap_parks.inc()
            return 0
        released = 1
        self.expected += 1
        while self.expected in self.buffer:
            self.buffer.remove(self.expected)
            self.expected += 1
            released += 1
        return released

    @property
    def cumulative_ack(self) -> int:
        """The acknowledgement to send: highest in-order frame consumed."""
        return self.expected - 1

    def drop_reorder_buffer(self) -> None:
        """Forget parked out-of-order frames (lost volatile state)."""
        self.buffer.clear()

    def fast_forward(self, consumed: int) -> None:
        """Resume a fresh receiver as if ``consumed`` frames were released.

        Server crash recovery rebuilds the server's receiver for each
        client channel from the write-ahead log: the log knows how many
        operations each origin had serialised, which is exactly how many
        frames that channel had consumed.  The reorder buffer stays empty
        — parked frames died with the process and the peers' senders
        still hold them unacknowledged, so retransmission re-delivers.
        """
        if consumed < 0:
            raise ProtocolError(
                f"{self.channel}: cannot fast-forward to {consumed} consumed"
            )
        if self.buffer:
            raise ProtocolError(
                f"{self.channel}: fast_forward on a receiver with parked "
                "frames; it is a recovery primitive for fresh receivers"
            )
        self.expected = consumed + 1


def release(
    receiver: SessionReceiver, parked: Dict[int, Any], seq: int, body: Any
) -> Optional[List[Any]]:
    """Take frame ``seq`` carrying ``body``; return the bodies now
    releasable, in sequence order — ``None`` for a duplicate.  A frame
    past a gap parks in ``parked``, as it arrived, until the gap fills.
    """
    released = receiver.receive(seq)
    if released:
        return [body] + [
            parked.pop(s) for s in range(seq + 1, receiver.expected)
        ]
    if seq < receiver.expected:
        return None
    parked[seq] = body
    return []


@dataclass
class RetransmitPolicy:
    """Exponential backoff with seeded jitter for retransmission timers.

    The timeout for attempt ``n`` (1-based) is ``base * factor**(n-1)``
    capped at ``cap``, inflated by up to ``jitter`` of itself from a
    dedicated RNG — deterministic per seed, so a fault-injected run is a
    pure function of its seeds.
    """

    base: float = 0.25
    factor: float = 2.0
    cap: float = 8.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base <= 0 or self.factor < 1.0 or self.cap < self.base:
            raise ProtocolError(
                f"invalid retransmit policy base={self.base} "
                f"factor={self.factor} cap={self.cap}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ProtocolError(f"jitter {self.jitter} not in [0, 1]")
        self._rng = random.Random(self.seed)

    def timeout(self, attempt: int) -> float:
        """Timeout before retransmission number ``attempt`` (1-based)."""
        raw = min(self.base * self.factor ** (attempt - 1), self.cap)
        return raw * (1.0 + self.jitter * self._rng.random())

