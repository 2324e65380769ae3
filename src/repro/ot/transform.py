"""Pairwise inclusion transformation for list operations.

``transform(o1, o2)`` computes ``o1{o2} = OT(o1, o2)``: the form of ``o1``
that has the same effect after ``o2`` has already been applied.  Both
operations must be defined on the same context (the same replica state);
the result is defined on ``C(o1) ∪ {org(o2)}`` (Definition 4.6).

The functions implement the standard position-shifting OT for a replicated
list (Ellis & Gibbs 1989; Imine et al. 2006) with the tie-breaking
convention of the paper's Figure 7: between two concurrent inserts at the
same position, the insert from the *higher-priority* replica stays to the
left.  This family satisfies CP1 (Definition 4.4), which the test-suite
verifies both on the paper's examples and property-based over random
operation pairs.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.ids import StateKey
from repro.errors import ContextMismatchError, TransformError
from repro.ot.operations import OpKind, Operation

_INS, _DEL, _NOP = OpKind.INS, OpKind.DEL, OpKind.NOP


def transform(
    o1: Operation, o2: Operation, context: Optional[StateKey] = None
) -> Operation:
    """Return ``o1{o2}``, the form of ``o1`` that applies after ``o2``.

    Raises :class:`ContextMismatchError` when the operations are not
    defined on the same context — transforming such a pair is meaningless
    and always indicates a protocol bug, so we fail fast.

    ``context`` optionally supplies the result's context
    ``C(o1) ∪ {org(o2)}`` when the caller already holds it — Algorithm 1
    does (it is a state key of the CP1 square being closed), and passing
    it spares one O(|context|) set union per transform.  A ``context``
    handed in must equal that union; it is probed only for ``o1``'s own
    id, not compared against the union.

    The result's position, from ``p1`` of ``o1`` and ``p2`` of ``o2`` (a
    NOP on either side changes only the context):

    =========  =======  =======  ============================================
    o1 / o2    p1 < p2  p1 > p2  p1 == p2
    Ins / Ins  p1       p1 + 1   p1 + 1 unless o1's replica outranks (Fig. 7)
    Ins / Del  p1       p1 - 1   p1
    Del / Ins  p1       p1 + 1   p1 + 1
    Del / Del  p1       p1 - 1   NOP if one element, else ``TransformError``
    =========  =======  =======  ============================================
    """
    if o1.context is not o2.context and o1.context != o2.context:
        raise ContextMismatchError(
            f"cannot transform {o1.pretty()} against {o2.pretty()}: "
            "contexts differ"
        )
    other = o2.opid
    if o1.opid == other:
        raise TransformError(
            f"cannot transform an operation against itself: {o1}"
        )
    kind, position = o1.kind, o1.position
    other_kind, other_position = o2.kind, o2.position
    if kind is _NOP or other_kind is _NOP or position < other_position:
        pass
    elif position > other_position:
        position += 1 if other_kind is _INS else -1
    elif other_kind is _INS:
        if kind is _DEL or not o1.priority > o2.priority:
            position += 1
    elif kind is _DEL:
        # Same position on the same context means the same element: the
        # other deletion already removed it, so this one degenerates to a
        # no-op.
        assert o1.element is not None and o2.element is not None
        if o1.element.opid != o2.element.opid:
            raise TransformError(
                f"concurrent deletions at position {position} target "
                f"different elements ({o1.element.pretty()} vs "
                f"{o2.element.pretty()}) despite equal contexts"
            )
        kind, position = _NOP, None
    return o1._derived(kind, position, other, context)


def transform_pair(
    o1: Operation,
    o2: Operation,
    contexts: Optional[Tuple[StateKey, StateKey]] = None,
) -> Tuple[Operation, Operation]:
    """Return ``(o1{o2}, o2{o1})`` — both sides of the CP1 square.

    This is the paper's ``(o1', o2') = OT(o1, o2)`` notation, producing the
    two far edges of the commutative diagram in Figure 1c.  ``contexts``
    optionally carries the two result contexts, ``C(o1) ∪ {org(o2)}`` then
    ``C(o2) ∪ {org(o1)}`` (see :func:`transform`).
    """
    if contexts is None:
        return transform(o1, o2), transform(o2, o1)
    return transform(o1, o2, contexts[0]), transform(o2, o1, contexts[1])
