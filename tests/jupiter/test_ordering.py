"""Tests for the total-order oracles."""

import pytest

from repro.common import OpId
from repro.errors import OrderingError
from repro.jupiter.ordering import ClientOrderOracle, ServerOrderOracle


class TestServerOracle:
    def test_assign_is_monotonic(self):
        oracle = ServerOrderOracle()
        assert oracle.assign(OpId("c1", 1)) == 1
        assert oracle.assign(OpId("c2", 1)) == 2
        assert oracle.before(OpId("c1", 1), OpId("c2", 1))
        assert not oracle.before(OpId("c2", 1), OpId("c1", 1))

    def test_double_assignment_rejected(self):
        oracle = ServerOrderOracle()
        oracle.assign(OpId("c1", 1))
        with pytest.raises(OrderingError):
            oracle.assign(OpId("c1", 1))

    def test_prefix_collects_earlier_serials(self):
        oracle = ServerOrderOracle()
        first, second, third = OpId("c1", 1), OpId("c2", 1), OpId("c3", 1)
        oracle.assign(first)
        serial2 = oracle.assign(second)
        oracle.assign(third)
        assert oracle.serialized_before(serial2) == frozenset({first})

    def test_unknown_operation_raises(self):
        oracle = ServerOrderOracle()
        oracle.assign(OpId("c1", 1))
        with pytest.raises(OrderingError):
            oracle.before(OpId("c1", 1), OpId("ghost", 1))


class TestClientOracle:
    def test_serials_compare(self):
        oracle = ClientOrderOracle("c1")
        oracle.record(OpId("c2", 1), 1)
        oracle.record(OpId("c3", 1), 2)
        assert oracle.before(OpId("c2", 1), OpId("c3", 1))

    def test_serialized_before_pending(self):
        oracle = ClientOrderOracle("c1")
        oracle.record(OpId("c2", 1), 1)
        pending = OpId("c1", 1)
        assert oracle.before(OpId("c2", 1), pending)
        assert not oracle.before(pending, OpId("c2", 1))

    def test_two_pending_operations_rejected(self):
        oracle = ClientOrderOracle("c1")
        with pytest.raises(OrderingError):
            oracle.before(OpId("c1", 1), OpId("c1", 2))

    def test_conflicting_serials_rejected(self):
        oracle = ClientOrderOracle("c1")
        oracle.record(OpId("c2", 1), 1)
        with pytest.raises(OrderingError):
            oracle.record(OpId("c2", 1), 2)

    def test_re_recording_same_serial_is_idempotent(self):
        oracle = ClientOrderOracle("c1")
        oracle.record(OpId("c2", 1), 1)
        oracle.record(OpId("c2", 1), 1)
        assert oracle.serial_of(OpId("c2", 1)) == 1
