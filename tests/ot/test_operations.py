"""Tests for the Operation data type."""

import pytest

from repro.common import OpId
from repro.document import Element, ListDocument
from repro.errors import TransformError
from repro.ot import OpKind, delete, insert, nop


class TestConstruction:
    def test_insert_carries_its_own_element(self):
        op = insert(OpId("c1", 1), "x", 0)
        assert op.is_insert
        assert op.element == Element("x", OpId("c1", 1))
        assert op.position == 0
        assert op.context == frozenset()

    def test_delete_carries_target_element(self):
        target = Element("b", OpId("init", 2))
        op = delete(OpId("c2", 1), target, 1)
        assert op.is_delete
        assert op.element is target

    def test_nop_has_no_position(self):
        op = nop(OpId("c1", 1))
        assert op.is_nop
        assert op.position is None

    def test_insert_rejects_negative_position(self):
        with pytest.raises(TransformError):
            insert(OpId("c1", 1), "x", -1)

    def test_operation_cannot_be_in_own_context(self):
        with pytest.raises(TransformError):
            insert(OpId("c1", 1), "x", 0, context={OpId("c1", 1)})

    def test_resulting_state_extends_context(self):
        ctx = frozenset({OpId("c9", 1)})
        op = insert(OpId("c1", 2), "x", 0, context=ctx)
        assert op.resulting_state == ctx | {OpId("c1", 2)}


class TestDerivation:
    def test_extended_by_adds_to_context(self):
        op = insert(OpId("c1", 1), "x", 3)
        other = OpId("c2", 1)
        extended = op.extended_by(other)
        assert extended.context == frozenset({other})
        assert extended.position == 3
        assert extended.opid == op.opid  # identity survives transformation

    def test_derivation_against_itself_is_refused(self):
        # With or without a context handed over, an operation never
        # lands in its own context: a handed-in context is not compared
        # with the union, but it is probed for the own id.
        op = insert(OpId("c1", 1), "x", 3, context={OpId("c2", 1)})
        other = OpId("c3", 1)
        with pytest.raises(TransformError):
            op.extended_by(op.opid)
        with pytest.raises(TransformError):
            op.moved_to(4, op.opid, op.context | {op.opid})
        with pytest.raises(TransformError):
            op.extended_by(other, op.context | {other, op.opid})

    def test_moved_to_changes_position_and_context(self):
        op = insert(OpId("c1", 1), "x", 3)
        moved = op.moved_to(4, OpId("c2", 1))
        assert moved.position == 4
        assert OpId("c2", 1) in moved.context

    def test_collapsed_becomes_nop(self):
        target = Element("b", OpId("init", 2))
        op = delete(OpId("c2", 1), target, 1)
        collapsed = op.collapsed(OpId("c3", 1))
        assert collapsed.kind is OpKind.NOP
        assert collapsed.position is None
        assert collapsed.opid == op.opid


class TestApply:
    def test_insert_apply(self):
        doc = ListDocument.from_string("ac")
        insert(OpId("c1", 1), "b", 1).apply(doc)
        assert doc.as_string() == "abc"

    def test_delete_apply_checks_target(self):
        doc = ListDocument.from_string("abc")
        target = doc.element_at(1)
        delete(OpId("c1", 1), target, 1).apply(doc)
        assert doc.as_string() == "ac"

    def test_nop_apply_changes_nothing(self):
        doc = ListDocument.from_string("abc")
        nop(OpId("c1", 1)).apply(doc)
        assert doc.as_string() == "abc"

    def test_str_rendering(self):
        op = insert(OpId("c1", 1), "x", 0)
        assert str(op) == "Ins(x, 0)[c1:1]"
        assert "ctx={}" in op.pretty()
