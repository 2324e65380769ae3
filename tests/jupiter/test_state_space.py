"""Tests for the shared state-space machinery (BaseStateSpace)."""

import pytest

from repro.common import OpId
from repro.document import ListDocument
from repro.errors import StateSpaceError, UnknownStateError
from repro.jupiter.nary import NaryStateSpace
from repro.jupiter.ordering import ServerOrderOracle
from repro.jupiter.state_space import Transition
from repro.ot import delete, insert


def space_with(*ops_spec, strict_cp1=False):
    """Build a server space from (replica, value, position, ctx_ids)."""
    oracle = ServerOrderOracle()
    space = NaryStateSpace(oracle, strict_cp1=strict_cp1)
    made = []
    for replica, value, position, ctx in ops_spec:
        op = insert(
            OpId(replica, 1), value, position, context=frozenset(ctx)
        )
        oracle.assign(op.opid)
        space.integrate(op)
        made.append(op)
    return space, made


class TestNodeAccess:
    def test_unknown_state_raises(self):
        space, _ = space_with()
        with pytest.raises(UnknownStateError):
            space.node(frozenset({OpId("ghost", 1)}))

    def test_has_state(self):
        space, (op,) = space_with(("c1", "a", 0, []))
        assert space.has_state(frozenset())
        assert space.has_state(frozenset({op.opid}))
        assert not space.has_state(frozenset({OpId("ghost", 1)}))

    def test_counts(self):
        space, _ = space_with(("c1", "a", 0, []), ("c2", "b", 0, []))
        assert space.node_count() == 4
        assert space.transition_count() == 4
        assert len(list(space.transitions())) == 4

    def test_final_node_document(self):
        space, _ = space_with(("c1", "a", 0, []))
        assert space.final_node.document.as_string() == "a"
        assert space.document.as_string() == "a"


class TestAttachGuards:
    def test_attach_with_wrong_context_rejected(self):
        space, _ = space_with(("c1", "a", 0, []))
        stray = insert(OpId("c9", 1), "z", 0, context={OpId("ghost", 1)})
        with pytest.raises(StateSpaceError):
            space._attach(space.node(frozenset()), stray)

    def test_broken_square_detected_strict(self):
        """If two edges into the same corner disagree on the document
        *order*, the strict structural CP1 check fires.  (The default
        length/fingerprint check cannot see pure order divergence — that
        is exactly the cost the ``strict_cp1`` flag buys back.)"""
        space, (op_a, op_b) = space_with(
            ("c1", "a", 0, []), ("c2", "b", 0, []), strict_cp1=True
        )
        corner = frozenset({op_a.opid, op_b.opid})
        # Forge an edge into the existing corner with a wrong position:
        # same element, same length, different resulting order.
        forged = insert(
            OpId("c2", 1), "b", 1, context=frozenset({op_a.opid})
        )
        with pytest.raises(StateSpaceError):
            space._attach(space.node(frozenset({op_a.opid})), forged)
        assert space.has_state(corner)

    def test_broken_square_content_divergence_detected_fast(self):
        """The default cheap CP1 check still catches edges whose derived
        length or content fingerprint disagrees with the stored corner."""
        space, (op_a, op_b) = space_with(
            ("c1", "a", 0, []), ("c2", "b", 0, [])
        )
        corner = frozenset({op_a.opid, op_b.opid})
        # Forge a *delete* edge into the existing corner: same opid, but
        # the derived length (1 - 1 = 0) cannot match the corner's 2.
        source = space.node(frozenset({op_a.opid}))
        victim = source.document.element_at(0)
        forged = delete(
            OpId("c2", 1), victim, 0, context=frozenset({op_a.opid})
        )
        with pytest.raises(StateSpaceError):
            space._attach(source, forged)
        assert space.has_state(corner)


class TestSignatures:
    def test_same_structure_reflexive(self):
        space, _ = space_with(("c1", "a", 0, []), ("c2", "b", 0, []))
        assert space.same_structure(space)

    def test_different_spaces_differ(self):
        one, _ = space_with(("c1", "a", 0, []))
        two, _ = space_with(("c2", "b", 0, []))
        assert not one.same_structure(two)

    def test_contains_structure_is_subset_check(self):
        big, _ = space_with(("c1", "a", 0, []), ("c2", "b", 0, []))
        small, _ = space_with(("c1", "a", 0, []))
        assert big.contains_structure(small)
        assert not small.contains_structure(big)

    def test_contains_ignores_missing_state(self):
        one, _ = space_with(("c1", "a", 0, []))
        other, _ = space_with(("c9", "z", 0, []))
        assert not one.contains_structure(other)


class TestTransitionObject:
    def test_org_id_is_operation_identity(self):
        op = insert(OpId("c1", 7), "x", 0)
        transition = Transition(frozenset(), frozenset({op.opid}), op)
        assert transition.org_id == OpId("c1", 7)
        assert "Ins(x, 0)" in str(transition)

    def test_source_is_the_operation_context(self):
        seen = frozenset({OpId("c2", 1)})
        op = insert(OpId("c1", 7), "x", 0, seen)
        transition = Transition(set(seen), seen | {op.opid}, op)
        assert transition.source is op.context
        with pytest.raises(StateSpaceError):
            Transition(frozenset(), frozenset({op.opid}), op)


class TestDocumentAt:
    def test_intermediate_documents(self):
        space, (op_a, op_b) = space_with(
            ("c1", "a", 0, []), ("c2", "b", 0, [])
        )
        assert space.document_at(frozenset()).as_string() == ""
        assert space.document_at(frozenset({op_a.opid})).as_string() == "a"
        both = frozenset({op_a.opid, op_b.opid})
        assert space.document_at(both).as_string() == "ba"


class TestReadingTheFinalStateAppliesOneOperation:
    def test_mean_chain_length_per_read_in_a_four_writer_session(
        self, monkeypatch
    ):
        """Algorithm 1 says the replica executes one operation per
        integration (``o{L}`` on the old final document).  A pending
        corner is materialised along the edge whose source already has a
        document, so a read re-applies that one operation, not the chain
        back to the last state anybody read (about 120 before)."""
        from repro.jupiter.state_space import StateNode
        from repro.sim import SimulationRunner, UniformLatency, WorkloadConfig

        chains = []
        materialise = StateNode._materialise

        def counting(node):
            length, cursor = 0, node
            while cursor._doc is None:
                length, cursor = length + 1, cursor._parent
            chains.append(length)
            materialise(node)

        monkeypatch.setattr(StateNode, "_materialise", counting)
        config = WorkloadConfig(
            clients=4, operations=200, rate_per_client=8.0,
            insert_ratio=0.55, seed=7,
        )
        result = SimulationRunner(
            "css", config, UniformLatency(0.01, 0.4, seed=7),
            observe_after_receive=False,
        ).run()
        assert result.converged
        assert len(chains) >= 4 * 200  # every replica read after every op
        assert sum(chains) / len(chains) <= 2
