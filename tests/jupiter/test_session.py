"""Tests for the reliable-session layer (sequence numbers, acks, recovery)."""

import pytest

from repro.errors import ProtocolError
from repro.jupiter.session import (
    RetransmitPolicy,
    SessionReceiver,
    SessionSender,
)


class TestSessionSender:
    def test_sequence_numbers_are_dense_from_one(self):
        sender = SessionSender(("c1", "s"))
        assert [sender.send() for _ in range(4)] == [1, 2, 3, 4]

    def test_cumulative_ack_clears_prefix(self):
        sender = SessionSender(("c1", "s"))
        for _ in range(5):
            sender.send()
        sender.ack(3)
        assert list(sender.unacked()) == [4, 5]
        assert sender.outstanding == 2

    def test_acks_are_monotone(self):
        sender = SessionSender(("c1", "s"))
        for _ in range(4):
            sender.send()
        sender.ack(3)
        sender.ack(1)  # stale cumulative ack: ignored, not a rollback
        assert list(sender.unacked()) == [4]

    def test_ack_beyond_last_sent_is_rejected(self):
        sender = SessionSender(("c1", "s"))
        sender.send()
        with pytest.raises(ProtocolError):
            sender.ack(2)

    def test_state_roundtrip(self):
        sender = SessionSender(("c1", "s"))
        for _ in range(3):
            sender.send()
        sender.ack(1)
        twin = SessionSender(("c1", "s"))
        twin.restore(sender.state())
        assert list(twin.unacked()) == list(sender.unacked())
        assert twin.send() == sender.send()


class TestSessionReceiver:
    def test_in_order_frames_release_immediately(self):
        receiver = SessionReceiver(("s", "c1"))
        assert [receiver.receive(seq) for seq in (1, 2, 3)] == [1, 1, 1]
        assert receiver.cumulative_ack == 3

    def test_gap_buffers_until_filled(self):
        receiver = SessionReceiver(("s", "c1"))
        assert receiver.receive(1) == 1
        assert receiver.receive(3) == 0  # gap: held back
        assert receiver.receive(4) == 0
        assert receiver.receive(2) == 3  # releases 2, 3, 4 in one run
        assert receiver.cumulative_ack == 4
        assert receiver.buffered == 2

    def test_duplicates_are_suppressed(self):
        receiver = SessionReceiver(("s", "c1"))
        receiver.receive(1)
        assert receiver.receive(1) == 0
        receiver.receive(3)
        assert receiver.receive(3) == 0  # duplicate of a buffered frame
        assert receiver.duplicates == 2

    def test_drop_reorder_buffer_forgets_unreleased_frames(self):
        receiver = SessionReceiver(("s", "c1"))
        receiver.receive(1)
        receiver.receive(3)
        receiver.drop_reorder_buffer()
        # Frame 3 must be retransmitted: only then can 2, 3 release.
        assert receiver.receive(2) == 1
        assert receiver.receive(3) == 1
        assert receiver.cumulative_ack == 3


class TestFastForward:
    """Recovery edge cases: resuming a fresh receiver at a watermark."""

    def test_fast_forward_positions_the_watermark(self):
        receiver = SessionReceiver(("s", "c1"))
        receiver.fast_forward(5)
        assert receiver.expected == 6
        assert receiver.cumulative_ack == 5

    def test_fast_forward_past_zero_is_the_identity(self):
        receiver = SessionReceiver(("s", "c1"))
        receiver.fast_forward(0)
        assert receiver.expected == 1
        assert receiver.receive(1) == 1  # a fresh stream starts at one

    def test_frames_at_or_below_the_watermark_are_duplicates(self):
        receiver = SessionReceiver(("s", "c1"))
        receiver.fast_forward(3)
        assert receiver.receive(2) == 0  # suppressed, already consumed
        assert receiver.receive(3) == 0
        assert receiver.receive(4) == 1  # the stream resumes in order
        assert receiver.cumulative_ack == 4

    def test_negative_watermark_is_rejected(self):
        receiver = SessionReceiver(("s", "c1"))
        with pytest.raises(ProtocolError):
            receiver.fast_forward(-1)

    def test_parked_frames_forbid_fast_forward(self):
        receiver = SessionReceiver(("s", "c1"))
        receiver.receive(2)  # parked: frame 1 is still missing
        with pytest.raises(ProtocolError):
            receiver.fast_forward(7)

    def test_fast_forward_after_dropping_the_buffer_is_allowed(self):
        receiver = SessionReceiver(("s", "c1"))
        receiver.receive(2)
        receiver.drop_reorder_buffer()
        receiver.fast_forward(7)
        assert receiver.expected == 8


class TestRetransmitPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetransmitPolicy(base=0.25, factor=2.0, cap=8.0, jitter=0.0)
        timeouts = [policy.timeout(attempt) for attempt in range(1, 8)]
        assert timeouts[0] == pytest.approx(0.25)
        assert all(b >= a for a, b in zip(timeouts, timeouts[1:]))
        assert timeouts[-1] == pytest.approx(8.0)

    def test_jitter_is_seeded_and_bounded(self):
        first = RetransmitPolicy(jitter=0.1, seed=5)
        second = RetransmitPolicy(jitter=0.1, seed=5)
        draws = [first.timeout(1) for _ in range(10)]
        assert draws == [second.timeout(1) for _ in range(10)]
        base = RetransmitPolicy(jitter=0.0).timeout(1)
        assert all(base <= d <= base * 1.1 for d in draws)

