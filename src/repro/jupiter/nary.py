"""The n-ary ordered state-space and Algorithm 1 (Sections 6.1–6.2).

A state may have up to ``n`` child transitions (one per client, Lemma 6.1),
kept ordered left-to-right by the server total order on their original
operations.  Integrating an operation ``o`` whose context matches state
``σ``:

1. saves ``o`` at ``σ`` along the transition of the right order among all
   transitions from ``σ``;
2. transforms ``o`` with the sequence ``L`` of operations along the
   *leftmost* transitions from ``σ`` to the final state, adding the new
   transitions of each CP1 square in their appropriate order (Algorithm 1);
3. returns ``o{L}`` for the replica to execute — the document of the new
   final state already reflects it.

Each CP1 square is O(concurrency), one transform pair and two edges:
the corner node the previous square created (a new state: no siblings
to order) is carried into the next one, and its key is the previous
corner's extended by one id (:meth:`~repro.jupiter.keys.StateKey.extend`)
— never a union over the window.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Protocol, Set, Tuple

from repro.common.ids import OpId, StateKey, format_opid_set
from repro.document.list_document import ListDocument
from repro.errors import StateSpaceError
from repro.jupiter.keys import SerialLog, key_of
from repro.jupiter.state_space import BaseStateSpace, StateNode, Transition
from repro.obs import get_obs
from repro.ot.operations import Operation
from repro.ot.transform import transform_pair


class TotalOrderOracle(Protocol):
    """Anything that can decide ``first ⇒ second`` on original ids."""

    def before(self, first: OpId, second: OpId) -> bool:  # pragma: no cover
        ...


class NaryStateSpace(BaseStateSpace):
    """The CSS protocol's single compact state-space."""

    def __init__(
        self,
        oracle: TotalOrderOracle,
        initial_document: Optional[ListDocument] = None,
        *,
        strict_cp1: bool = False,
    ) -> None:
        # An oracle that owns a serial log names this space's keys by
        # serial; any other total order (dCSS's Lamport one) runs d = 0.
        self._log = oracle if isinstance(oracle, SerialLog) else None
        super().__init__(initial_document, strict_cp1=strict_cp1)
        self._oracle = oracle
        self._obs = get_obs()

    # ------------------------------------------------------------------
    # Ordered transition insertion
    # ------------------------------------------------------------------
    def _place(self, source: StateNode, transition: Transition) -> None:
        """Put ``transition`` among ``source``'s children in total order;
        the same scan refuses a second one for an original operation."""
        opid = transition.operation.opid
        children, before = source.children, self._oracle.before
        for index, sibling in enumerate(children):
            other = sibling.operation.opid
            if other == opid:
                raise StateSpaceError(
                    f"duplicate transition for {opid} at "
                    f"{format_opid_set(source.key)}"
                )
            if not before(other, opid):
                children.insert(index, transition)
                return
        children.append(transition)

    # ------------------------------------------------------------------
    # The leftmost path (Lemma 6.4)
    # ------------------------------------------------------------------
    def leftmost_path(self, key: StateKey) -> List[Transition]:
        """Transitions along leftmost children from ``key`` to the final
        state.  By Lemma 6.4 these are exactly the processed operations not
        in ``key``, in total order."""
        return [step for step, _node in self._leftmost(self.node(key))]

    def _leftmost(
        self, start: StateNode
    ) -> List[Tuple[Transition, StateNode]]:
        """The leftmost path from ``start``, each step with its target."""
        path: List[Tuple[Transition, StateNode]] = []
        cursor, final = start, self.final_node
        while cursor is not final:
            if not cursor.children:
                raise StateSpaceError(
                    f"leftmost path from {format_opid_set(start.key)} got "
                    f"stuck at {format_opid_set(cursor.key)} before "
                    "reaching the final state"
                )
            step = cursor.children[0]
            cursor = self.node(step.target)
            path.append((step, cursor))
        return path

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def integrate(self, operation: Operation) -> Operation:
        """Integrate ``operation`` and return its executed form ``o{L}``."""
        obs = self._obs
        started = time.perf_counter() if obs.enabled else 0.0
        source = self.node(operation.context)  # the matching state
        if operation.context is not source.key:
            # Re-seat the incoming operation on the matched node's own
            # key (a decoded pair, another replica's key or a literal
            # set names the same state): every later check is identity.
            operation = operation.with_context(source.key)
        if operation.opid in self.final_key:  # so every corner is a new state
            raise StateSpaceError(f"{operation.opid} is already integrated")
        path = self._leftmost(source)

        corner = self._attach(source, operation)
        self._place(source, Transition(source.key, corner.key, operation))

        current = operation
        for step, onward in path:
            # The two transformed forms attach at states whose keys this
            # loop already holds — hand them over so no key is rebuilt
            # per square.
            transformed, shifted = transform_pair(
                current, step.operation, contexts=(onward.key, corner.key)
            )
            self.ot_count += 1
            # Close the CP1 square: the shifted path operation leaves the
            # corner created one step ago, which has no sibling to order
            # against, and its target *is* the next corner...
            next_corner = self._attach(corner, shifted)
            corner.children.append(
                Transition(corner.key, next_corner.key, shifted)
            )
            # ...which the transformed operation reaches from the path's
            # next state, ordered among that state's transitions.
            self._attach(onward, transformed, next_corner)
            self._place(
                onward, Transition(onward.key, next_corner.key, transformed)
            )
            corner, current = next_corner, transformed

        self.final_key = corner.key
        if obs.enabled:
            obs.ot_transforms.inc(len(path))
            obs.space_nodes.set(len(self._nodes))
            obs.document_length.set(corner.length)
            obs.css_integrate_duration.observe(time.perf_counter() - started)
        return current

    # ------------------------------------------------------------------
    # Invariant checks used by the property tests (Lemmas 6.1–6.3, 8.4)
    # ------------------------------------------------------------------
    def max_out_degree(self) -> int:
        """For Lemma 6.1: must never exceed the number of clients."""
        return max(
            (len(node.children) for node in self._nodes.values()), default=0
        )

    def children_are_ordered(self) -> bool:
        """Sibling transitions must be strictly increasing in total order."""
        for node in self._nodes.values():
            ids = node.child_org_ids()
            for first, second in zip(ids, ids[1:]):
                if not self._oracle.before(first, second):
                    return False
        return True

    # ------------------------------------------------------------------
    # Garbage collection (the §10 metadata-overhead concern)
    # ------------------------------------------------------------------
    def prune_below(self, floor: StateKey) -> int:
        """Discard states that can never be matched again; return count.

        ``floor`` must be a lower bound on the context of every operation
        this replica may still have to integrate (for the server: the
        meet of all clients' known states; for a client: the meet of the
        other replicas' known states and its own).  Any future matching
        state, and every state on a transform path from it, is a superset
        of ``floor``, so states whose key does not contain ``floor`` are
        unreachable and safe to drop.

        An over-eager ``floor`` is *detected*, not silently absorbed: a
        later context lookup for a pruned state raises
        :class:`~repro.errors.UnknownStateError`.
        """
        floor = key_of(self._log, floor)
        if not floor <= self.final_key:
            raise StateSpaceError(
                "prune floor mentions operations this replica has not "
                "processed"
            )
        # Prune by d: a state holds the floor iff its dense prefix
        # reaches the floor's and it holds the floor's few extras.
        d, extras = floor.pair()
        doomed = [
            key
            for key in self._nodes
            if key.pair()[0] < d or (extras and not extras <= key)
        ]
        if doomed:
            doomed_set = set(doomed)
            # Materialise the documents of surviving nodes whose pending
            # chain starts at a doomed parent, so no survivor keeps a
            # pruned subgraph alive through its materialisation chain.
            for key, node in self._nodes.items():
                if key in doomed_set or node.materialised:
                    continue
                parent = node._parent
                if parent is not None and parent.key in doomed_set:
                    node._materialise()
            for key in doomed:
                del self._nodes[key]
        obs = self._obs
        if obs.enabled:
            obs.space_pruned.inc(len(doomed))
            obs.space_nodes.set(len(self._nodes))
        return len(doomed)

    def rebase_below(self, floor: StateKey) -> int:
        """Prune below ``floor`` *and* move the window floor up to it.

        :meth:`prune_below` bounds the node **count**; rebasing also
        trims the serial log, so the prefix every survivor contains
        stops being nameable, countable or stored anywhere.  ``floor``
        must be a dense serial prefix of the window.  Survivors' keys
        are untouched — ``d`` is absolute (which is also why the wire
        form is rebase-invariant), their window members are simply fewer
        afterwards — so every stored transition keeps its source, target
        and context objects; only the node table is re-hashed (a key
        hashes like the frozenset of its window members).  Contexts fed
        to the space from then on must be relative to the same floor
        (the net runtime's serial-encoded ones are).
        """
        floor = key_of(self._log, floor)
        pruned = self.prune_below(floor)
        if not floor:
            return pruned
        d, extras = floor.pair()
        if self._log is None or extras:
            raise StateSpaceError(
                "rebase floor is not a dense prefix of a serial log"
            )
        # prune_below settled every survivor's pair (a client's keys may
        # hold an echoed operation as an extra) while the log still named
        # the serials about to leave it.
        self._log.trim_below(d)
        self._nodes = {node.key: node for node in self._nodes.values()}
        return pruned

    def _ancestors(
        self,
        key: StateKey,
        parents: Optional[Dict[StateKey, List[StateKey]]] = None,
    ) -> Set[StateKey]:
        """All states with a path to ``key`` (including ``key`` itself).

        ``parents`` is the reverse-edge map; pass one (from
        :meth:`_parents_map`) to amortise it over several calls.
        """
        if parents is None:
            parents = self._parents_map()
        seen = {key}
        frontier = [key]
        while frontier:
            state = frontier.pop()
            for parent in parents[state]:
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return seen

    def _parents_map(self) -> Dict[StateKey, List[StateKey]]:
        parents: Dict[StateKey, List[StateKey]] = {
            state: [] for state in self._nodes
        }
        for transition in self.transitions():
            parents[transition.target].append(transition.source)
        return parents

    def lowest_common_ancestors(
        self, first: StateKey, second: StateKey
    ) -> List[StateKey]:
        """All LCAs of two states; Lemma 8.4 says there is exactly one.

        The reverse-edge map is built once and every candidate's ancestor
        set is memoised, so the lowest-filter is linear in the graph per
        distinct candidate instead of rebuilding the map per pair.
        """
        parents = self._parents_map()
        ancestor_sets: Dict[StateKey, Set[StateKey]] = {}

        def ancestors_of(key: StateKey) -> Set[StateKey]:
            cached = ancestor_sets.get(key)
            if cached is None:
                ancestor_sets[key] = cached = self._ancestors(key, parents)
            return cached

        common = ancestors_of(first) & ancestors_of(second)
        lowest = [
            candidate
            for candidate in common
            if not any(
                other != candidate and candidate in ancestors_of(other)
                for other in common
            )
        ]
        return lowest

    def lca(self, first: StateKey, second: StateKey) -> StateKey:
        """The unique lowest common ancestor of two states (Lemma 8.4).

        Raises :class:`StateSpaceError` if uniqueness fails — which the
        paper proves cannot happen for spaces built by the CSS protocol
        (Example 8.2 shows it *can* for naive unions of client spaces).
        """
        lowest = self.lowest_common_ancestors(first, second)
        if len(lowest) != 1:
            raise StateSpaceError(
                f"states {format_opid_set(first)} and "
                f"{format_opid_set(second)} have {len(lowest)} lowest "
                "common ancestors"
            )
        return lowest[0]
