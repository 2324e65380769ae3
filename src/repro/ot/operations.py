"""List operations for OT-based protocols.

An :class:`Operation` models both *original* user operations and their
*transformed* forms (paper, Definition 4.5): transformation never changes
the identity ``opid`` (which names ``org(o)``), only the position, possibly
the kind (a deletion may collapse to ``NOP``), and the context.

The context (Definition 4.6) is the set of original-operation ids the
operation is defined on: for an original operation it is the generating
replica's state; each transformation step ``OT(o, ox)`` extends it with
``org(ox)``.
"""

from __future__ import annotations

import enum
from collections.abc import Hashable, Set
from dataclasses import dataclass, field
from typing import Any, FrozenSet, Iterable, Optional

from repro.common.ids import OpId, StateKey, format_opid_set
from repro.common.priority import Priority, priority_of
from repro.document.elements import Element
from repro.document.list_document import ListDocument
from repro.errors import TransformError


def _as_context(context: Iterable[OpId]) -> StateKey:
    """A hashable set of ids is a context as it stands (a frozenset, or
    the state key of the space the operation lives in — kept, so context
    checks stay identity checks); anything else is frozen."""
    if isinstance(context, Set) and isinstance(context, Hashable):
        return context  # type: ignore[return-value]
    return frozenset(context)


class OpKind(enum.Enum):
    """The three operation shapes handled by the transformation functions."""

    INS = "ins"
    DEL = "del"
    NOP = "nop"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class Operation:
    """An insert, delete, or no-op on a list document.

    Attributes:
        kind: whether this is an ``INS``, ``DEL`` or ``NOP``.
        opid: identity of the original user operation ``org(o)``.
        element: the element being inserted or deleted (``None`` for NOP).
        position: zero-based target position (``None`` for NOP).
        context: ids of the original operations this operation is defined
            on — the replica state from which it was generated, extended by
            every operation it has been transformed against.
    """

    kind: OpKind
    opid: OpId
    element: Optional[Element]
    position: Optional[int]
    context: StateKey = field(default=frozenset())

    def __post_init__(self) -> None:
        if self.kind is OpKind.NOP:
            if self.position is not None:
                raise TransformError("NOP operations carry no position")
        else:
            if self.element is None:
                raise TransformError(f"{self.kind} requires an element")
            if self.position is None or self.position < 0:
                raise TransformError(
                    f"{self.kind} requires a non-negative position, "
                    f"got {self.position}"
                )
        if self.opid in self.context:
            raise TransformError(
                f"operation {self.opid} cannot appear in its own context"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_insert(self) -> bool:
        return self.kind is OpKind.INS

    @property
    def is_delete(self) -> bool:
        return self.kind is OpKind.DEL

    @property
    def is_nop(self) -> bool:
        return self.kind is OpKind.NOP

    @property
    def priority(self) -> Priority:
        """Tie-breaking priority, derived from the generating replica."""
        return priority_of(self.opid.replica)

    @property
    def resulting_state(self) -> StateKey:
        """The state reached by applying this operation to its context."""
        return self.context | {self.opid}

    def __str__(self) -> str:
        if self.is_nop:
            body = "Nop"
        else:
            name = "Ins" if self.is_insert else "Del"
            assert self.element is not None
            body = f"{name}({self.element.value}, {self.position})"
        return f"{body}[{self.opid}]"

    def pretty(self) -> str:
        """Verbose rendering including the context, e.g. ``o{1,2}``."""
        return f"{self} ctx={format_opid_set(self.context)}"

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_context(self, context: FrozenSet[OpId]) -> "Operation":
        """A copy of this operation defined on ``context``."""
        return Operation(
            self.kind, self.opid, self.element, self.position,
            _as_context(context),
        )

    def _derived(
        self,
        kind: OpKind,
        position: Optional[int],
        other_id: OpId,
        context: Optional[StateKey],
    ) -> "Operation":
        """This operation transformed against ``other_id``.  ``context``
        short-circuits the union when the caller already holds
        ``self.context | {other_id}`` (Algorithm 1 does: it is the state
        key of the square corner the derived operation attaches at).

        Only two of ``__post_init__``'s checks can fail on a transformed
        form; they run here, and the fields go straight into the slots
        (Algorithm 1 builds two of these per CP1 square)."""
        if context is None:
            context = self.context | {other_id}
        if position is not None and position < 0:
            raise TransformError(
                f"{kind} requires a non-negative position, got {position}"
            )
        if self.opid in context:
            raise TransformError(
                f"operation {self.opid} cannot appear in its own context"
            )
        operation = _new(Operation)
        _set_kind(operation, kind)
        _set_opid(operation, self.opid)
        _set_element(operation, self.element)
        _set_position(operation, position)
        _set_context(operation, context)
        return operation

    def extended_by(
        self, other_id: OpId, context: Optional[StateKey] = None
    ) -> "Operation":
        """A copy whose context additionally contains ``other_id``."""
        return self._derived(self.kind, self.position, other_id, context)

    def moved_to(
        self, position: int, other_id: OpId, context: Optional[StateKey] = None
    ) -> "Operation":
        """A copy at ``position`` whose context gained ``other_id``."""
        return self._derived(self.kind, position, other_id, context)

    def collapsed(
        self, other_id: OpId, context: Optional[StateKey] = None
    ) -> "Operation":
        """The NOP form of this operation (used when DEL targets vanish)."""
        return self._derived(OpKind.NOP, None, other_id, context)

    def inverse(self) -> "Operation":
        """The operation that undoes this one on the document it produced
        (``Ins(a, p)`` <-> ``Del(a, p)``; a no-op undoes itself)."""
        if self.is_nop:
            return self
        undo = OpKind.DEL if self.is_insert else OpKind.INS
        return Operation(undo, self.opid, self.element, self.position, self.context)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def apply(self, document: ListDocument) -> None:
        """Execute this operation on ``document`` in place.

        Raises :class:`~repro.errors.DocumentError` when the position or
        target element is invalid — in a correct protocol a transformed
        operation is always applicable to the state matching its context,
        so failures here surface protocol bugs instead of hiding them.
        """
        if self.is_nop:
            return
        assert self.element is not None and self.position is not None
        if self.is_insert:
            document.insert(self.element, self.position)
        else:
            document.delete(self.position, expected=self.element)


_new = object.__new__
_set_kind, _set_opid, _set_element, _set_position, _set_context = (
    Operation.__dict__[name].__set__
    for name in ("kind", "opid", "element", "position", "context")
)


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def insert(
    opid: OpId,
    value: Any,
    position: int,
    context: FrozenSet[OpId] = frozenset(),
) -> Operation:
    """Build an original ``Ins(value, position)`` operation.

    The inserted element's identity is the operation id itself, realising
    the one-to-one correspondence between elements and insert operations.
    """
    return Operation(
        kind=OpKind.INS,
        opid=opid,
        element=Element(value, opid),
        position=position,
        context=_as_context(context),
    )


def delete(
    opid: OpId,
    element: Element,
    position: int,
    context: FrozenSet[OpId] = frozenset(),
) -> Operation:
    """Build an original ``Del(element, position)`` operation.

    ``Del`` carries both the element and the position because OT works on
    positions while the list specifications refer to the deleted element
    (paper, footnote 2).
    """
    return Operation(
        kind=OpKind.DEL,
        opid=opid,
        element=element,
        position=position,
        context=_as_context(context),
    )


def nop(opid: OpId, context: FrozenSet[OpId] = frozenset()) -> Operation:
    """Build an explicit no-op (the idle operation of Imine et al.)."""
    return Operation(
        kind=OpKind.NOP,
        opid=opid,
        element=None,
        position=None,
        context=_as_context(context),
    )
