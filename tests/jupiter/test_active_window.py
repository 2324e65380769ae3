"""Active-window GC: oracle trimming and state-space key rebasing.

The flat-throughput work (ROADMAP item 2) hinges on two primitives:

* :meth:`ServerOrderOracle.trim_below` — the serialized-order prefix
  sets stop naming garbage-collected operations;
* :meth:`NaryStateSpace.rebase_below` — surviving state keys have the
  collected prefix *subtracted*, so key unions and hashes are O(active
  window) instead of O(history).

These tests drive the primitives directly and through the CSS replicas,
checking the rebased run stays byte-equivalent to an untrimmed twin.
"""

import pytest

from repro.common import OpId
from repro.errors import OrderingError, StateSpaceError
from repro.jupiter.css import CssClient, CssServer
from repro.jupiter.messages import ClientOperation
from repro.jupiter.nary import NaryStateSpace
from repro.jupiter.ordering import ClientOrderOracle, ServerOrderOracle
from repro.model.schedule import OpSpec
from repro.ot import insert


class TestOracleTrim:
    def build(self, count=6):
        oracle = ServerOrderOracle()
        opids = [OpId(f"c{i % 2 + 1}", i // 2 + 1) for i in range(count)]
        for opid in opids:
            oracle.assign(opid)
        return oracle, opids

    def test_serialized_before_full_when_untrimmed(self):
        oracle, opids = self.build()
        assert oracle.serialized_before(4) == frozenset(opids[:3])
        assert oracle.base == 0

    def test_trim_shrinks_prefix(self):
        oracle, opids = self.build()
        oracle.trim_below(3)
        assert oracle.base == 3
        assert oracle.serialized_before(6) == frozenset(opids[3:5])
        assert oracle.serialized_before(3) == frozenset()
        # Incremental growth across the trim floor stays consistent.
        assert oracle.serialized_before(7) == frozenset(opids[3:6])

    def test_opid_lookups(self):
        oracle, opids = self.build()
        assert oracle.opid_of(1) == opids[0]
        assert oracle.opids_between(2, 5) == frozenset(opids[2:5])
        assert oracle.opids_between(5, 5) == frozenset()
        with pytest.raises(OrderingError):
            oracle.opid_of(99)

    def test_trim_beyond_assigned_rejected(self):
        oracle, _ = self.build()
        with pytest.raises(OrderingError):
            oracle.trim_below(100)

    def test_resumed_oracle_starts_past_base(self):
        oracle = ServerOrderOracle(start=10)
        opid = OpId("c1", 7)
        assert oracle.assign(opid) == 11
        assert oracle.last_serial == 11
        assert oracle.opid_of(11) == opid
        assert oracle.serialized_before(11) == frozenset()
        with pytest.raises(OrderingError):
            oracle.opid_of(10)

    def test_client_oracle_serial_log(self):
        oracle = ClientOrderOracle("c1")
        a, b = OpId("c1", 1), OpId("c2", 1)
        oracle.record(a, 1)
        oracle.record(b, 2)
        assert oracle.opid_of(2) == b
        assert oracle.opids_between(0, 2) == frozenset({a, b})
        oracle.trim_below(1)
        assert oracle.base == 1
        with pytest.raises(OrderingError):
            oracle.opids_between(2, 4)


class TestRebaseBelow:
    def build(self, count=5):
        oracle = ServerOrderOracle()
        space = NaryStateSpace(oracle)
        ops = []
        for i in range(count):
            op = insert(OpId("c1", i + 1), chr(ord("a") + i), i)
            op = op.with_context(space.final_key)
            oracle.assign(op.opid)
            space.integrate(op)
            ops.append(op)
        return oracle, space, ops

    def test_rebase_shrinks_keys(self):
        oracle, space, ops = self.build()
        text = space.document.as_string()
        floor = frozenset(o.opid for o in ops[:3])
        space.rebase_below(floor)
        assert max(len(key) for key in space.states()) == 2
        assert space.final_key == frozenset(o.opid for o in ops[3:])
        assert space.document.as_string() == text

    def test_rebase_empty_floor_noop(self):
        _, space, _ = self.build()
        final = space.final_key
        assert space.rebase_below(frozenset()) == 0
        assert space.final_key is final

    def test_integrate_after_rebase(self):
        oracle, space, ops = self.build()
        floor = frozenset(o.opid for o in ops[:4])
        space.rebase_below(floor)
        op = insert(OpId("c2", 1), "X", 0)
        op = op.with_context(frozenset({ops[4].opid}))
        oracle.assign(op.opid)
        executed = space.integrate(op)
        assert executed.opid == op.opid
        assert space.document.as_string() == "Xabcde"

    def test_rebase_moves_stored_contexts_to_the_new_source_key(self):
        # A later operation is transformed against stored transitions,
        # and transform() pairs operations by context: a context left in
        # pre-rebase coordinates kills the first concurrent op after GC.
        _, space, ops = self.build()
        space.rebase_below(frozenset(o.opid for o in ops[:3]))
        transitions = list(space.transitions())
        assert transitions
        for transition in transitions:
            assert transition.operation.context is transition.source
            assert transition.source is space.node(transition.source).key

    def test_rebase_floor_not_processed_rejected(self):
        _, space, _ = self.build()
        with pytest.raises(StateSpaceError):
            space.rebase_below(frozenset({OpId("ghost", 1)}))


class TestCssRebaseEquivalence:
    """A rebased cluster stays equivalent to an untrimmed twin."""

    def run_cluster(self, rebase_at):
        names = ["c1", "c2"]
        server = CssServer("server", names)
        clients = {name: CssClient(name) for name in names}
        delivered = {name: 0 for name in names}

        def drive(origin, value, position):
            result = clients[origin].generate(
                OpSpec(kind="ins", position=position, value=value)
            )
            for target, broadcast in server.receive(
                origin, result.outgoing
            ):
                clients[target].receive(broadcast)
                delivered[target] = broadcast.serial
            return result

        texts = []
        for step in range(8):
            origin = names[step % 2]
            drive(origin, chr(ord("a") + step), step)
            texts.append(clients["c1"].document.as_string())
            if rebase_at is not None and step + 1 == rebase_at:
                server.rebase_to_serial(rebase_at)
                for client in clients.values():
                    client.rebase_to_serial(rebase_at)
        return server, clients, texts

    def test_documents_match_untrimmed_twin(self):
        _, _, plain = self.run_cluster(rebase_at=None)
        server, clients, rebased = self.run_cluster(rebase_at=4)
        assert plain == rebased
        assert server.base == 4
        assert max(len(key) for key in server.space.states()) <= 4
        docs = {c.document.as_string() for c in clients.values()}
        assert docs == {server.document.as_string()}

    def test_rebase_is_idempotent(self):
        server, _, _ = self.run_cluster(rebase_at=4)
        assert server.rebase_to_serial(4) == 0
        assert server.rebase_to_serial(3) == 0
