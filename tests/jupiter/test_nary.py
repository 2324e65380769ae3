"""Tests for the n-ary ordered state-space and Algorithm 1."""

import gc

import pytest

from repro.common import OpId
from repro.document import ListDocument
from repro.errors import StateSpaceError, UnknownStateError
from repro.jupiter.nary import NaryStateSpace
from repro.jupiter.ordering import ServerOrderOracle
from repro.ot import insert


def build_space(initial=""):
    oracle = ServerOrderOracle()
    document = ListDocument.from_string(initial) if initial else None
    return NaryStateSpace(oracle, document), oracle


def op(replica, seq, value, position, context=frozenset()):
    return insert(OpId(replica, seq), value, position, context)


class TestBasics:
    def test_initial_space(self):
        space, _ = build_space("ab")
        assert space.final_key == frozenset()
        assert space.document.as_string() == "ab"
        assert space.node_count() == 1
        assert space.transition_count() == 0

    def test_integrate_at_final_appends(self):
        space, oracle = build_space()
        o1 = op("c1", 1, "a", 0)
        oracle.assign(o1.opid)
        executed = space.integrate(o1)
        assert executed == o1
        assert space.final_key == frozenset({o1.opid})
        assert space.document.as_string() == "a"
        assert space.ot_count == 0

    def test_unknown_context_rejected(self):
        space, oracle = build_space()
        stray = op("c1", 1, "a", 0, context=frozenset({OpId("ghost", 1)}))
        oracle.assign(stray.opid)
        with pytest.raises(UnknownStateError):
            space.integrate(stray)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_concurrent_integration_builds_square(self, k):
        """Algorithm 1's cost model: an operation concurrent with k
        others walks a leftmost path of k steps, so integrating it does
        k transforms and creates k + 1 nodes and 2k + 1 transitions."""
        space, oracle = build_space()
        values = "abcdefghi"[: k + 1]
        ops = [op(f"c{i + 1}", 1, value, 0) for i, value in enumerate(values)]
        for each in ops:
            oracle.assign(each.opid)
        for each in ops[:-1]:
            space.integrate(each)
        nodes, transitions = space.node_count(), space.transition_count()
        ots = space.ot_count
        executed = space.integrate(ops[-1])
        # Every op is at position 0 and each replica outranks the one
        # before, so the last op keeps position 0 and lands leftmost.
        assert executed.position == 0
        assert space.document.as_string() == values[::-1]
        assert space.node_count() - nodes == k + 1
        assert space.transition_count() - transitions == 2 * k + 1
        assert space.ot_count - ots == k

    def test_a_square_retains_at_most_seven_objects(self):
        """The object budget of one CP1 square: two transformed
        operations, two edges, a node, its children list and its key.
        Counted as the growth, from k = 1 to k = 8, of the GC-tracked
        objects an integration leaves behind."""
        retained = {}
        for k in (1, 8):
            space, oracle = build_space()
            ops = [op(f"c{i + 1}", 1, "x", 0) for i in range(k + 1)]
            for each in ops:
                oracle.assign(each.opid)
            for each in ops[:-1]:
                space.integrate(each)
            gc.collect()
            enabled = gc.isenabled()
            gc.disable()
            try:
                before = len(gc.get_objects())
                space.integrate(ops[-1])
                retained[k] = len(gc.get_objects()) - before
            finally:
                if enabled:
                    gc.enable()
        assert (retained[8] - retained[1]) / 7 <= 7


class TestSiblingOrder:
    def test_children_ordered_by_serial(self):
        space, oracle = build_space()
        ops = [op("c1", 1, "a", 0), op("c2", 1, "b", 0), op("c3", 1, "c", 0)]
        for each in ops:
            oracle.assign(each.opid)
        # Integrate out of serial order: o2 then o1 is impossible at the
        # server (it serialises in arrival order), but the *client* replays
        # in serial order too; simulate server order here.
        for each in ops:
            space.integrate(each)
        root = space.node(frozenset())
        assert root.child_org_ids() == [o.opid for o in ops]
        assert space.children_are_ordered()
        assert space.max_out_degree() == 3


class TestAlgorithm1Figure3:
    """Example 6.1: o3 ∥ (o1 ∥ o2) → o4, total order o1⇒o2⇒o3⇒o4.

    A replica has processed o1, o2 and generated/processed o4 (context
    {1,2}); then the remote o3 (context {}) arrives and must transform
    along L = <o1, o2{1}, o4{1,2}> with every new transition inserted at
    its total-order position.
    """

    def setup_method(self):
        self.space, self.oracle = build_space()
        self.o1 = op("c1", 1, "a", 0)
        self.o2 = op("c2", 1, "b", 0)
        self.o3 = op("c3", 1, "c", 0)
        for o in (self.o1, self.o2, self.o3):
            self.oracle.assign(o.opid)
        self.space.integrate(self.o1)
        self.o2_ctx = self.o2.with_context(frozenset())
        self.space.integrate(self.o2_ctx)
        # o4 generated after o1, o2: context {1, 2}; serialised after o3.
        self.o4 = op(
            "c4", 1, "d", 0, context=frozenset({self.o1.opid, self.o2.opid})
        )
        self.oracle.assign(self.o4.opid)
        self.space.integrate(self.o4)
        # Now the remote o3 arrives.
        self.executed = self.space.integrate(self.o3)

    def test_final_state_contains_all(self):
        assert self.space.final_key == frozenset(
            {self.o1.opid, self.o2.opid, self.o3.opid, self.o4.opid}
        )

    def test_transformed_context(self):
        assert self.executed.context == frozenset(
            {self.o1.opid, self.o2.opid, self.o4.opid}
        )

    def test_new_transition_inserted_between_siblings(self):
        # At σ1 = {1}: children were [o2{1}]; o3{1} must come after o2
        # (serial 3 > 2) — and at σ12, o3{1,2} must come *before* o4{1,2}.
        sigma1 = self.space.node(frozenset({self.o1.opid}))
        assert sigma1.child_org_ids() == [self.o2.opid, self.o3.opid]
        sigma12 = self.space.node(frozenset({self.o1.opid, self.o2.opid}))
        assert sigma12.child_org_ids() == [self.o3.opid, self.o4.opid]

    def test_root_children_in_total_order(self):
        root = self.space.node(frozenset())
        assert root.child_org_ids() == [
            self.o1.opid,
            self.o2.opid,
            self.o3.opid,
        ]

    def test_ot_count_matches_path_length(self):
        # o2 transformed once (against o1); o4 not at all; o3 three times.
        assert self.space.ot_count == 1 + 0 + 3

    def test_leftmost_path_is_total_order_of_missing_ops(self):
        # Lemma 6.4: from {1}, leftmost transitions spell o2, o3, o4.
        path = self.space.leftmost_path(frozenset({self.o1.opid}))
        assert [t.org_id for t in path] == [
            self.o2.opid,
            self.o3.opid,
            self.o4.opid,
        ]


class TestInvariants:
    def test_lca_of_sibling_branches_is_root(self):
        space, oracle = build_space()
        o1, o2 = op("c1", 1, "a", 0), op("c2", 1, "b", 0)
        oracle.assign(o1.opid)
        oracle.assign(o2.opid)
        space.integrate(o1)
        space.integrate(o2)
        lca = space.lca(frozenset({o1.opid}), frozenset({o2.opid}))
        assert lca == frozenset()

    def test_lca_of_nested_states(self):
        space, oracle = build_space()
        o1, o2 = op("c1", 1, "a", 0), op("c2", 1, "b", 0)
        oracle.assign(o1.opid)
        oracle.assign(o2.opid)
        space.integrate(o1)
        space.integrate(o2)
        both = frozenset({o1.opid, o2.opid})
        assert space.lca(frozenset({o1.opid}), both) == frozenset({o1.opid})
        assert space.lca(both, both) == both

    def test_cp1_square_verified_on_attach(self):
        # The space recomputes the far corner document along both edges;
        # this is exercised by any square, so a plain concurrent pair
        # must not raise.
        space, oracle = build_space("xy")
        o1, o2 = op("c1", 1, "a", 1), op("c2", 1, "b", 1)
        oracle.assign(o1.opid)
        oracle.assign(o2.opid)
        space.integrate(o1)
        space.integrate(o2)
        assert space.document.as_string() in ("xbay", "xaby")

    def test_duplicate_integration_rejected(self):
        space, oracle = build_space()
        o1 = op("c1", 1, "a", 0)
        oracle.assign(o1.opid)
        space.integrate(o1)
        with pytest.raises(StateSpaceError):
            space.integrate(o1)

    def test_document_at_intermediate_state(self):
        space, oracle = build_space()
        o1, o2 = op("c1", 1, "a", 0), op("c2", 1, "b", 0)
        oracle.assign(o1.opid)
        oracle.assign(o2.opid)
        space.integrate(o1)
        space.integrate(o2)
        assert space.document_at(frozenset({o1.opid})).as_string() == "a"
        assert space.document_at(frozenset({o2.opid})).as_string() == "b"
