"""A mutable list document: the state a replicated-list replica exposes.

A :class:`ListDocument` is the "list object (representing documents)" of the
paper: an ordered sequence of unique :class:`~repro.document.elements.Element`
values supporting position-based insertion and deletion, plus a read that
returns the current contents.  It is deliberately a plain, strict data
structure — all replication logic lives in the protocol packages.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence

from repro.common.ids import OpId
from repro.document.elements import Element
from repro.errors import (
    DocumentError,
    DuplicateElementError,
    ElementNotFoundError,
    PositionError,
)


class ListDocument:
    """An ordered sequence of unique elements.

    Positions are zero-based, as in the paper's ``Ins(a, p)`` / ``Del(a, p)``
    signatures.  All mutating methods validate their arguments and raise
    subclasses of :class:`~repro.errors.DocumentError` on misuse; silent
    clamping would mask protocol bugs that the test-suite wants to catch.
    """

    __slots__ = ("_elements", "_ids", "_shared")

    def __init__(self, elements: Optional[Iterable[Element]] = None) -> None:
        self._elements: List[Element] = list(elements or [])
        self._ids = {e.opid for e in self._elements}
        self._shared = False
        if len(self._ids) != len(self._elements):
            raise DuplicateElementError(
                "initial contents contain duplicate element ids"
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements)

    def __getitem__(self, index: int) -> Element:
        return self._elements[index]

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Element):
            return item.opid in self._ids
        if isinstance(item, OpId):
            return item in self._ids
        return any(e.value == item for e in self._elements)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ListDocument):
            return self._elements == other._elements
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ListDocument({self.as_string()!r})"

    def read(self) -> Sequence[Element]:
        """Return the current contents (the paper's ``Read`` operation)."""
        return tuple(self._elements)

    def values(self) -> List[Any]:
        """The user-visible values, in list order."""
        return [e.value for e in self._elements]

    def as_string(self) -> str:
        """Concatenate the element values; handy for character documents."""
        return "".join(str(e.value) for e in self._elements)

    def index_of(self, opid: OpId) -> int:
        """Position of the element inserted by ``opid``.

        Raises :class:`ElementNotFoundError` if the element is absent
        (never inserted, or already deleted).
        """
        for index, element in enumerate(self._elements):
            if element.opid == opid:
                return index
        raise ElementNotFoundError(f"no element with id {opid} in document")

    def element_at(self, position: int) -> Element:
        """The element at ``position``; raises :class:`PositionError`."""
        if not 0 <= position < len(self._elements):
            raise PositionError(
                f"position {position} out of range for document of "
                f"length {len(self._elements)}"
            )
        return self._elements[position]

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, element: Element, position: int) -> None:
        """Insert ``element`` at ``position`` (the paper's ``Ins(a, p)``).

        Valid positions are ``0 .. len(self)`` inclusive: inserting at
        ``len(self)`` appends.
        """
        if not 0 <= position <= len(self._elements):
            raise PositionError(
                f"insert position {position} out of range for document of "
                f"length {len(self._elements)}"
            )
        if element.opid in self._ids:
            raise DuplicateElementError(
                f"element {element.pretty()} already present"
            )
        self._unshare()
        self._elements.insert(position, element)
        self._ids.add(element.opid)

    def delete(self, position: int, expected: Optional[Element] = None) -> Element:
        """Delete and return the element at ``position``.

        If ``expected`` is given, the element found at ``position`` must be
        that element; a mismatch indicates the caller's coordinates are
        stale, which in a correct OT protocol can never happen.
        """
        victim = self.element_at(position)
        if expected is not None and victim.opid != expected.opid:
            raise ElementNotFoundError(
                f"expected {expected.pretty()} at position {position}, "
                f"found {victim.pretty()}"
            )
        self._unshare()
        del self._elements[position]
        self._ids.discard(victim.opid)
        return victim

    def _unshare(self) -> None:
        if self._shared:
            self._elements = list(self._elements)
            self._ids = set(self._ids)
            self._shared = False

    def copy(self) -> "ListDocument":
        """An independent copy with the same contents.

        Copy-on-write: the copy shares the element list and id set with
        the original until either side next mutates, so copying a state
        that is only ever *read* (most CP1 corners) is O(1) instead of
        O(length).
        """
        clone = ListDocument.__new__(ListDocument)
        clone._elements = self._elements
        clone._ids = self._ids
        clone._shared = True
        self._shared = True
        return clone

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def to_obj(self) -> List[List[Any]]:
        """The contents as ``[value, replica, seq]`` triples, in order:
        the canonical form signatures hash and state transfers ship."""
        return [[e.value, e.opid.replica, e.opid.seq] for e in self._elements]

    @classmethod
    def from_obj(cls, obj: Any) -> "ListDocument":
        """Read :meth:`to_obj`'s triples back; a malformed triple or a
        repeated id raises :class:`~repro.errors.DocumentError`."""
        elements = []
        for triple in obj if type(obj) is list else [obj]:
            shape = [type(t) for t in triple[1:]] if type(triple) is list else []
            if shape != [str, int] or triple[2] < 0:
                raise DocumentError(f"malformed element {triple!r}")
            elements.append(Element(triple[0], OpId(triple[1], triple[2])))
        return cls(elements)

    @classmethod
    def from_string(cls, text: str, replica: str = "init") -> "ListDocument":
        """Build a document whose elements are the characters of ``text``.

        Element ids use the pseudo-replica ``replica`` with sequence
        numbers ``1..len(text)``; useful for setting up the paper's worked
        examples that start from a non-empty list such as ``"efecte"``.
        """
        elements = [
            Element(ch, OpId(replica, i + 1)) for i, ch in enumerate(text)
        ]
        return cls(elements)
