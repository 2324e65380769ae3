"""The retained slow-but-obviously-correct n-ary state-space.

This module preserves the *seed* implementation of the compact n-ary
ordered state-space, exactly as it behaved before the hot-path overhaul
(compact keys, lazy copy-on-write documents, corner reuse): plain
``frozenset`` unions per square, an eager document copy at every node,
and the full structural CP1 comparison at every square corner.

It exists for two reasons, following the verified-optimisation
methodology of Gomes et al. and Kleppmann's OpSets work — keep a slow
reference model and machine-check that the fast path is behaviourally
identical:

* the **oracle-equivalence property tests** run the same seeded random
  schedules through the optimised space and this one and require
  identical signatures, documents and prune behaviour at every replica;
* the **perf-regression harness** measures the baseline column of
  ``BENCH_scaling.json`` against it, so the speedup the optimised path
  claims is recomputed on the same machine that produced the "after"
  numbers.

Do not optimise this file.  Its value is that it stays boring.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.ids import StateKey, format_opid_set
from repro.document.list_document import ListDocument
from repro.errors import StateSpaceError, UnknownStateError
from repro.jupiter.nary import TotalOrderOracle
from repro.jupiter.state_space import Signature, StateNode, Transition
from repro.ot.operations import Operation
from repro.ot.transform import transform_pair


class ReferenceStateSpace:
    """Drop-in replacement for :class:`~repro.jupiter.nary.NaryStateSpace`
    with the seed's eager, fully-checked behaviour."""

    def __init__(
        self,
        oracle: TotalOrderOracle,
        initial_document: Optional[ListDocument] = None,
    ) -> None:
        document = (initial_document or ListDocument()).copy()
        root = StateNode(frozenset(), document)
        self._nodes: Dict[StateKey, StateNode] = {root.key: root}
        self.final_key: StateKey = root.key
        self.ot_count: int = 0
        self._oracle = oracle

    # ------------------------------------------------------------------
    # Node access (mirrors BaseStateSpace)
    # ------------------------------------------------------------------
    def node(self, key: StateKey) -> StateNode:
        try:
            return self._nodes[key]
        except KeyError:
            raise UnknownStateError(
                f"no state {format_opid_set(key)} in this state-space"
            ) from None

    def has_state(self, key: StateKey) -> bool:
        return key in self._nodes

    def states(self) -> List[StateKey]:
        return list(self._nodes)

    def node_count(self) -> int:
        return len(self._nodes)

    def transition_count(self) -> int:
        return sum(len(node.children) for node in self._nodes.values())

    def transitions(self):
        for node in self._nodes.values():
            yield from node.children

    @property
    def final_node(self) -> StateNode:
        return self._nodes[self.final_key]

    @property
    def document(self) -> ListDocument:
        return self.final_node.document

    def document_at(self, key: StateKey) -> ListDocument:
        return self.node(key).document

    def iter_documents(self) -> Iterator[Tuple[StateKey, ListDocument]]:
        for key, node in self._nodes.items():
            yield key, node.document

    # ------------------------------------------------------------------
    # Growth — the seed's eager _attach, verbatim semantics
    # ------------------------------------------------------------------
    def _attach(self, source: StateNode, operation: Operation) -> StateNode:
        if operation.context != source.key:
            raise StateSpaceError(
                f"operation {operation.pretty()} attached at state "
                f"{format_opid_set(source.key)} with a different context"
            )
        target_key = source.key | {operation.opid}
        existing = self._nodes.get(target_key)
        if existing is not None:
            recomputed = source.document.copy()
            operation.apply(recomputed)
            if recomputed != existing.document:
                raise StateSpaceError(
                    f"CP1 square broken at {format_opid_set(target_key)}: "
                    f"{recomputed.as_string()!r} != "
                    f"{existing.document.as_string()!r}"
                )
            return existing
        document = source.document.copy()
        operation.apply(document)
        node = StateNode(target_key, document)
        self._nodes[target_key] = node
        return node

    def _insert_ordered(self, source: StateNode, operation: Operation) -> None:
        target = self._attach(source, operation)
        transition = Transition(source.key, target.key, operation)
        for index, sibling in enumerate(source.children):
            if sibling.org_id == operation.opid:
                raise StateSpaceError(
                    f"duplicate transition for {operation.opid} at "
                    f"{format_opid_set(source.key)}"
                )
            if not self._oracle.before(sibling.org_id, operation.opid):
                source.children.insert(index, transition)
                return
        source.children.append(transition)

    # ------------------------------------------------------------------
    # Algorithm 1 — the seed's integrate, union recomputation and all
    # ------------------------------------------------------------------
    def leftmost_path(self, key: StateKey) -> List[Transition]:
        path: List[Transition] = []
        cursor = self.node(key)
        while cursor.key != self.final_key:
            if not cursor.children:
                raise StateSpaceError(
                    f"leftmost path from {format_opid_set(key)} got stuck "
                    f"at {format_opid_set(cursor.key)} before reaching the "
                    "final state"
                )
            step = cursor.children[0]
            path.append(step)
            cursor = self.node(step.target)
        return path

    def integrate(self, operation: Operation) -> Operation:
        source = self.node(operation.context)
        path = self.leftmost_path(source.key)

        self._insert_ordered(source, operation)
        new_corner = self.node(source.key | {operation.opid})

        current = operation
        for step in path:
            transformed, step_shifted = transform_pair(current, step.operation)
            self.ot_count += 1
            self._insert_ordered(new_corner, step_shifted)
            self._insert_ordered(self.node(step.target), transformed)
            new_corner = self.node(step.target | {operation.opid})
            current = transformed

        self.final_key = new_corner.key
        return current

    # ------------------------------------------------------------------
    # Invariants / comparison / GC
    # ------------------------------------------------------------------
    def max_out_degree(self) -> int:
        return max(
            (len(node.children) for node in self._nodes.values()), default=0
        )

    def children_are_ordered(self) -> bool:
        for node in self._nodes.values():
            ids = node.child_org_ids()
            for first, second in zip(ids, ids[1:]):
                if not self._oracle.before(first, second):
                    return False
        return True

    def signature(self) -> Signature:
        return {
            key: tuple(
                (
                    t.org_id,
                    t.operation.kind.value,
                    t.operation.position,
                    t.target,
                )
                for t in node.children
            )
            for key, node in self._nodes.items()
        }

    def same_structure(self, other) -> bool:
        return self.signature() == other.signature()

    def prune_below(self, floor: StateKey) -> int:
        floor = frozenset(floor)
        if not floor <= self.final_key:
            raise StateSpaceError(
                "prune floor mentions operations this replica has not "
                "processed"
            )
        doomed = [key for key in self._nodes if not floor <= key]
        for key in doomed:
            del self._nodes[key]
        return len(doomed)
