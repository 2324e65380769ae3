"""Snapshot / restore and server durability for CSS replicas.

A production collaborative editor checkpoints replica state so a client
can restart without replaying its whole history.  This module serialises
every piece of a CSS replica — operations, state-space nodes and ordered
transitions, the order oracle, the pending queue — to plain JSON-able
dictionaries and restores them to working replicas.

Snapshots are *canonical*: every collection is emitted in a sorted or
protocol-defined order (serials by serial number, state keys sorted), so
the same replica always produces byte-identical JSON — which is what lets
tests and operators compare snapshots with plain string equality.

Round-trip fidelity is exact: a restored replica produces byte-identical
behaviour to the original (verified structurally in the tests by
comparing state-space signatures and resuming runs on the restored
replica).

The second half of the module is the **server durability subsystem**
(:class:`ServerWriteAheadLog`): the serialisation authority appends every
operation it serialises — with its assigned serial and origin — to a
write-ahead log *before* broadcasting it, periodically compacts the log
into a checkpoint plus a chain of deltas, and recovers after a crash by
restoring the latest snapshot and replaying the log suffix through a real
:class:`~repro.jupiter.css.CssServer`.  Recovery re-checks the paper's
ordering invariants as it goes: every replayed operation must receive
exactly the serial the log recorded (dense 1..n, no serial skipped or
reused), and the rebuilt state-space must match the logged history.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, TextIO, Tuple,
)

from repro.common.ids import EMPTY_STATE, OpId, ReplicaId, StateKey
from repro.document.elements import Element
from repro.document.list_document import ListDocument
from repro.errors import ProtocolError, ReproError
from repro.jupiter.css import CssClient, CssServer
from repro.jupiter.keys import key_of, run_length, run_pair
from repro.jupiter.messages import ClientOperation, ServerOperation
from repro.jupiter.nary import NaryStateSpace
from repro.jupiter.ordering import ServerOrderOracle
from repro.jupiter.session import counter
from repro.jupiter.state_space import StateNode, Transition
from repro.obs import get_obs
from repro.ot.operations import OpKind, Operation

FORMAT_VERSION = 2

#: A WAL header's version (its snapshots keep :data:`FORMAT_VERSION`).
#: 3: a record's ``ctx`` is ``[d, n]``; :func:`load_wal` converts a 2.
WAL_VERSION = 3
_LIST_FORM = 2


def _require_version(obj: Dict[str, Any], what: str) -> None:
    if obj.get("version") != FORMAT_VERSION:
        raise ProtocolError(
            f"unsupported {what} version {obj.get('version')!r}"
        )


# ----------------------------------------------------------------------
# Primitive codecs
# ----------------------------------------------------------------------
def opid_to_obj(opid: OpId) -> List[Any]:
    return [opid.replica, opid.seq]


def opid_from_obj(obj: List[Any]) -> OpId:
    """``[replica, seq]``: a string and a counter, never coerced."""
    replica, seq = obj
    if type(replica) is not str:
        raise ProtocolError(f"an opid's replica must be a string: {obj!r}")
    return OpId(replica, counter(seq, "opid seq"))


def opids_to_obj(opids: Iterable[OpId]) -> List[List[Any]]:
    """A set of ids in its canonical (sorted) encoding."""
    return sorted(opid_to_obj(o) for o in opids)


def element_to_obj(element: Element) -> Dict[str, Any]:
    return {"value": element.value, "opid": opid_to_obj(element.opid)}


def element_from_obj(obj: Dict[str, Any]) -> Element:
    return Element(obj["value"], opid_from_obj(obj["opid"]))


def operation_to_obj(
    operation: Operation, *, with_context: bool = True
) -> Dict[str, Any]:
    obj = {
        "kind": operation.kind.value,
        "opid": opid_to_obj(operation.opid),
        "element": (
            element_to_obj(operation.element)
            if operation.element is not None
            else None
        ),
        "position": operation.position,
    }
    if with_context:
        obj["context"] = opids_to_obj(operation.context)
    return obj


def operation_from_obj(
    obj: Dict[str, Any],
    context: Optional[StateKey] = None,
    opid: Optional[OpId] = None,
) -> Operation:
    """Decode an operation; ``context`` stands in for an elided one, and
    ``opid`` for its id already decoded."""
    position = obj["position"]
    if position is not None and type(position) is not int:
        raise ProtocolError(f"an operation's position must be an int: {obj!r}")
    return Operation(
        kind=OpKind(obj["kind"]),
        opid=opid_from_obj(obj["opid"]) if opid is None else opid,
        element=(
            element_from_obj(obj["element"])
            if obj["element"] is not None
            else None
        ),
        position=position,
        context=(
            frozenset(opid_from_obj(o) for o in obj["context"])
            if context is None
            else context
        ),
    )


# ----------------------------------------------------------------------
# Operation contexts as ``[d, n]``, on the wire and on disk
# ----------------------------------------------------------------------
# A context is the first ``d`` serials of the total order plus the ``n``
# operations its generator made just before it, still pending then: two
# counters whatever the history, and rebase-invariant, since a decoder
# resolves ``(its own base, d]`` against its own serial log.  A WAL
# record holds exactly the ``ctx`` its broadcast body carries.
def compact_context(operation: Operation, oracle) -> List[int]:
    """Encode ``operation.context`` as ``[d, n]``.

    Every context member must already be serialised (true whenever the
    server appends: FIFO channels serialise a client's earlier pending
    operations before the operation that references them).  ``d`` is the
    maximal dense serial prefix the context covers — at least the
    generator's own split, so every invariant proved for the generator's
    ``d`` holds for this one too.  A context that is a key of ``oracle``
    (every decoded or integrated one is) is read, not walked.
    """
    return run_pair(oracle, operation.context, operation.opid)


def operation_from_run(fields: Any, ctx: Any, oracle) -> Operation:
    """Decode a wire body's or a WAL record's operation, its ``[d, n]``
    typed, against an ``oracle`` that witnessed the serials it names."""
    opid = opid_from_obj(fields["opid"])
    d, n = (counter(value, "ctx") for value in ctx)
    return operation_from_obj(fields, oracle.key_from_run(d, n, opid), opid)


def record_operation(record: Dict[str, Any], oracle=None) -> Operation:
    """Decode a WAL record's operation, as :func:`operation_from_run`."""
    if oracle is None:
        raise ProtocolError("a WAL record needs an order oracle to decode")
    return operation_from_run(record["operation"], record["ctx"], oracle)


# ----------------------------------------------------------------------
# State-space codec
# ----------------------------------------------------------------------
# In the n-ary ordered state-space a transition's context *is* its
# source state (Definition 4.6) and a state's list is a function of its
# key, so neither is stored.  Nodes are written parents-first under a
# small integer id; only a node with no retained incoming transition
# (the root, or a survivor of ``prune_below``) carries its key and
# document.  Every other node is ``{"id", "from": [parent id, opid]}``:
# its key is the parent's plus that opid, its document the parent's with
# that transition's operation applied.  A transition is
# ``[operation without context, target id]``.
#
# The encoder's bookkeeping — the *shadow* — maps each encoded node's
# key to ``(id, child count, parent id)``.  A lone snapshot
# throws it away; the write-ahead log keeps it, which is what lets a
# delta compaction find and encode only the nodes that changed.
Shadow = Dict[StateKey, Tuple[int, int, Optional[int]]]


def _children_to_obj(node: StateNode, shadow: Shadow) -> List[List[Any]]:
    return [
        [
            operation_to_obj(t.operation, with_context=False),
            shadow[t.target][0],
        ]
        for t in node.children
    ]


def _encode_nodes(
    space: NaryStateSpace,
    shadow: Shadow,
    sources: Iterable[StateNode],
    fresh: Sequence[StateNode],
    next_id: int,
) -> Tuple[List[Dict[str, Any]], int]:
    """Enter ``fresh`` nodes into ``shadow``; return their encodings and
    the next unused id.

    Each node is encoded relative to the first transition into it found
    in ``sources`` (walked in order, sibling order within a node), so
    ``sources`` must hold every retained node with a transition into a
    fresh one; both sequences are in the space's table order.  A node
    the shadow already knows keeps its id, the others take ``next_id``
    onwards.  Costs the fresh nodes and the edges of ``sources`` —
    nothing proportional to key size or document length, except for
    nodes no source reaches.
    """
    wanted = {node.key for node in fresh}
    origin: Dict[StateKey, Transition] = {}
    for source in sources:
        for edge in source.children:
            if edge.target in wanted and edge.target not in origin:
                origin[edge.target] = edge
    for node in fresh:
        known = shadow.get(node.key)
        edge = origin.get(node.key)
        if known is None:
            node_id, next_id = next_id, next_id + 1
        else:
            node_id = known[0]
        shadow[node.key] = (
            node_id,
            len(node.children),
            None if edge is None else shadow[edge.source][0],
        )
    documents = dict(
        space.iter_documents(
            [node.key for node in fresh if node.key not in origin]
        )
    )
    encoded = []
    for node in fresh:
        node_id, _degree, parent_id = shadow[node.key]
        obj: Dict[str, Any] = {"id": node_id}
        if parent_id is None:
            obj["key"] = opids_to_obj(node.key)
            obj["document"] = [
                element_to_obj(e) for e in documents[node.key]
            ]
        else:
            obj["from"] = [parent_id, opid_to_obj(origin[node.key].org_id)]
        obj["children"] = _children_to_obj(node, shadow)
        encoded.append(obj)
    return encoded, next_id


def _space_to_obj(space: NaryStateSpace) -> Tuple[Dict[str, Any], Shadow]:
    """:func:`space_to_obj` plus the shadow the encoding was built on."""
    shadow: Shadow = {}
    nodes = list(space.nodes())
    obj = {
        "version": FORMAT_VERSION,
        "nodes": _encode_nodes(space, shadow, nodes, nodes, 0)[0],
        "final": shadow[space.final_key][0],
        "ot_count": space.ot_count,
    }
    return obj, shadow


def space_to_obj(space: NaryStateSpace) -> Dict[str, Any]:
    """Serialise a state-space in O(nodes + transitions + root document).

    Ids are positions in the space's table order, so the same space —
    or one restored from this object — serialises to identical bytes.
    """
    return _space_to_obj(space)[0]


def space_from_obj(obj: Dict[str, Any], oracle) -> NaryStateSpace:
    """Rebuild a state-space from its serialised form.

    Reconstruction bypasses :meth:`NaryStateSpace.integrate` — the stored
    structure already encodes every square and sibling order.  Nodes
    come back as the same lazy ``(parent, operation)`` nodes
    :meth:`~repro.jupiter.state_space.BaseStateSpace._attach` builds
    while integrating, and every transition is re-attached through it,
    so a restore re-runs the O(1) length/fingerprint CP1 check per edge
    instead of trusting stored documents.  A stored key becomes a key of
    ``oracle``'s serial log and every transition's context is its
    source's key object, so the rebuilt space hits the same identity
    fast paths as one grown through ``integrate()``.
    """
    _require_version(obj, "snapshot")
    space = NaryStateSpace(oracle)
    table = space._nodes  # populated wholesale during restore
    table.clear()
    by_id: Dict[int, StateNode] = {}
    edges: Dict[int, List[Tuple[Operation, int]]] = {}
    try:
        for node_obj in obj["nodes"]:
            node_id = int(node_obj["id"])
            if "from" in node_obj:
                parent_id, opid_obj = node_obj["from"]
                opid = opid_from_obj(opid_obj)
                node = space._attach(
                    by_id[parent_id],
                    next(
                        op for op, _ in edges[parent_id] if op.opid == opid
                    ),
                )
            else:
                key = key_of(space._log, map(opid_from_obj, node_obj["key"]))
                node = table[key] = StateNode(
                    key,
                    ListDocument(
                        element_from_obj(e) for e in node_obj["document"]
                    ),
                )
            by_id[node_id] = node
            edges[node_id] = [
                (operation_from_obj(op_obj, node.key), int(target_id))
                for op_obj, target_id in node_obj["children"]
            ]
        for node_id, node in by_id.items():
            for operation, target_id in edges[node_id]:
                target = by_id[target_id]
                if (
                    len(target.key) != len(node.key) + 1
                    or operation.opid not in target.key
                ):
                    raise ProtocolError(
                        "snapshot transition points at the wrong state"
                    )
                space._attach(node, operation, target)
                node.children.append(
                    Transition(node.key, target.key, operation)
                )
        space.final_key = by_id[int(obj["final"])].key
    except (KeyError, StopIteration):
        raise ProtocolError(
            "snapshot names a state or transition it does not hold"
        ) from None
    space.ot_count = int(obj.get("ot_count", 0))
    return space


# ----------------------------------------------------------------------
# Replica snapshots
# ----------------------------------------------------------------------
def snapshot_client(client: CssClient) -> Dict[str, Any]:
    """Serialise a CSS client (space, serial knowledge, pending queue).

    ``serials`` is emitted sorted by serial number (the canonical order of
    :meth:`~repro.jupiter.ordering.ClientOrderOracle.serial_items`), so
    snapshotting the same replica twice — or a replica restored from this
    snapshot — produces byte-identical JSON.
    """
    return {
        "version": FORMAT_VERSION,
        "replica": client.replica_id,
        "next_seq": client.next_seq,
        "space": space_to_obj(client.space),
        "serials": [
            [opid_to_obj(opid), serial]
            for opid, serial in client.oracle.serial_items()
        ],
        "pending": [opid_to_obj(opid) for opid in client.pending_opids()],
    }


def client_from_snapshot(replica: ReplicaId, obj: Any) -> CssClient:
    """Build a CSS client that starts from a snapshot.

    This is the one way a CSS client starts from a whole state — a late
    join, a checkpoint restore.  ``obj`` has the shape
    :func:`snapshot_server` writes (a :func:`snapshot_client` is that
    shape without ``base``, plus its session fields).  Proposition 6.6
    makes the space a complete starting point: the oracle is seated at
    ``base``, learns the serials, and the space is rebuilt against it.
    """
    _require_version(obj, "snapshot")
    client = CssClient(replica)
    client.oracle.trim_below(counter(obj.get("base", 0), "base"))
    for opid_obj, serial in sorted(obj["serials"], key=lambda i: i[1]):
        client.oracle.record(opid_from_obj(opid_obj), int(serial))
    client.space = space_from_obj(obj["space"], client.oracle)
    return client


def restore_client(obj: Dict[str, Any]) -> CssClient:
    client = client_from_snapshot(str(obj["replica"]), obj)
    client.restore_session(
        pending=[opid_from_obj(o) for o in obj["pending"]],
        next_seq=int(obj["next_seq"]),
    )
    return client


def checkpoint_client(
    client: CssClient,
    session: Optional[Dict[str, Any]] = None,
    behaviors_len: int = 0,
    delivered: int = 0,
) -> Dict[str, Any]:
    """Cut a crash-recovery checkpoint for one CSS client.

    A checkpoint is what survives a crash: the protocol snapshot
    (:func:`snapshot_client`) plus the durable transport metadata the
    reliable-session layer needs to resume — the client's sender-side
    sequence state (``session``), how many server messages it had
    consumed (``delivered``: the broadcasts past it are re-shipped after
    a restore), and how long its behaviour log was (entries after it are
    lost with the crash and reconstructed by that replay).
    """
    return {
        "version": FORMAT_VERSION,
        "client": snapshot_client(client),
        "session": dict(session or {}),
        "behaviors_len": int(behaviors_len),
        "delivered": int(delivered),
    }


def restore_checkpoint(obj: Dict[str, Any]) -> CssClient:
    """Rebuild the protocol replica held in a checkpoint.

    The transport metadata (``obj["session"]``, ``obj["delivered"]``,
    ``obj["behaviors_len"]``) stays with the caller — the event loop
    re-seeds its session endpoints and behaviour log from it.
    """
    _require_version(obj, "checkpoint")
    return restore_client(obj["client"])


def snapshot_server(server: CssServer) -> Dict[str, Any]:
    """Serialise a CSS server (space + active-window serialisation order).

    ``serials`` is sorted by serial number (see :func:`snapshot_client`),
    so the same server always snapshots to byte-identical JSON.  A server
    whose state was rebased by active-window GC snapshots only the
    serials past its ``base`` — everything below it left the state-space
    and the keys are already relative to it — so checkpoints stay
    O(active window).
    """
    return _server_snapshot(server, space_to_obj(server.space))


def _server_snapshot(
    server: CssServer, space_obj: Dict[str, Any]
) -> Dict[str, Any]:
    base = server.oracle.base
    snapshot = {
        "version": FORMAT_VERSION,
        "replica": server.replica_id,
        "clients": list(server.clients),
        "space": space_obj,
        "serials": [
            [opid_to_obj(opid), serial]
            for opid, serial in server.oracle.serial_items(after=base)
        ],
    }
    if base:
        snapshot["base"] = base
    return snapshot


def restore_server(obj: Dict[str, Any]) -> CssServer:
    _require_version(obj, "snapshot")
    server = CssServer(str(obj["replica"]), [str(c) for c in obj["clients"]])
    base = int(obj.get("base", 0))
    if base:
        # The snapshot was cut after active-window GC: re-seat the oracle
        # at the rebase floor so replayed serials resume densely there.
        oracle = ServerOrderOracle(start=base)
        server.oracle = oracle
    for opid_obj, serial in sorted(obj["serials"], key=lambda item: item[1]):
        assigned = server.oracle.assign(opid_from_obj(opid_obj))
        if assigned != int(serial):
            raise ProtocolError(
                "snapshot serial numbers are not a dense base+1..n sequence"
            )
    server.space = space_from_obj(obj["space"], server.oracle)
    return server


# ----------------------------------------------------------------------
# Server durability: write-ahead log + snapshot compaction + recovery
# ----------------------------------------------------------------------
def wal_record_to_obj(
    serial: int,
    origin: ReplicaId,
    operation: Operation,
    epoch: int = 0,
    *,
    ctx: Sequence[int],
) -> Dict[str, Any]:
    """One WAL entry: a serialised operation in server-serial order.

    ``epoch`` is the replication view under which the record was first
    proposed (0 for an unreplicated log).  View changes re-propose the
    uncommitted suffix under a higher epoch, so ``(epoch, serial)`` pairs
    totally order log prefixes across primaries.

    ``ctx`` is :func:`compact_context`'s; :func:`record_operation`
    decodes the record.
    """
    return {
        "serial": int(serial),
        "origin": origin,
        "epoch": int(epoch),
        "operation": operation_to_obj(operation, with_context=False),
        "ctx": [int(ctx[0]), int(ctx[1])],
    }


#: What decoding a malformed object raises; a validator turns it typed.
_MALFORMED = (LookupError, TypeError, ValueError, AttributeError, ReproError)


def _validate_wal_record(record: Any) -> Dict[str, Any]:
    """The one check of a record from a disk line, a ``repl_append`` or a
    shipped log: counters for ``serial``, ``epoch`` and ``ctx``'s
    ``[d, n]``, a named ``origin``, a decodable operation — never
    coerced; else :class:`ProtocolError`."""
    try:
        d, n = record["ctx"]
        counter(record["serial"], "serial")
        counter(record["epoch"], "epoch")
        counter(d, "ctx")
        counter(n, "ctx")
        if type(record["origin"]) is not str or not record["origin"]:
            raise ProtocolError(f"its origin is not a name: {record['origin']!r}")
        operation_from_obj(record["operation"], EMPTY_STATE)
    except _MALFORMED as exc:
        raise ProtocolError(f"malformed WAL record: {exc}") from exc
    return record


def _run_form(record: Any) -> Dict[str, Any]:
    """A version-2 record, whose ``ctx`` listed its extras' ids, spelled
    ``[d, n]``; refused unless the extras are the run before its op."""
    d, extras = record["ctx"]
    opid = opid_from_obj(record["operation"]["opid"])
    n = run_length(frozenset(map(opid_from_obj, extras)), opid)
    return {**record, "ctx": [d, n]}


def _validate_wal_delta(delta: Any) -> Dict[str, Any]:
    """Raise :class:`ProtocolError` unless ``delta`` is a delta-snapshot."""
    if not isinstance(delta, dict):
        raise ProtocolError(f"WAL delta is not an object: {delta!r}")
    for field in ("upto", "floor", "final", "added", "touched", "serials"):
        if field not in delta:
            raise ProtocolError(f"WAL delta missing field {field!r}")
    for node_obj in delta["added"]:
        if (
            "id" not in node_obj
            or "children" not in node_obj
            or not ("from" in node_obj or "key" in node_obj)
        ):
            raise ProtocolError(
                "WAL delta added-node missing id/children/from-or-key"
            )
    for patch in delta["touched"]:
        if "id" not in patch or "children" not in patch:
            raise ProtocolError("WAL delta touched-node missing id/children")
    return delta


def _validate_wal_header(header: Any, *versions: int) -> Dict[str, Any]:
    """Raise :class:`ProtocolError` unless ``header`` is a WAL header of
    one of ``versions``, every field typed, never coerced."""
    try:
        if header["version"] not in versions:
            raise ProtocolError(f"unsupported WAL version {header['version']!r}")
        clients, snapshot = header["clients"], header["snapshot"]
        names = [header["replica"], header.get("initial_text", ""), *clients]
        if type(clients) is not list or any(type(n) is not str for n in names):
            raise TypeError(f"its names must be strings: {names!r}")
        if snapshot is not None and type(snapshot) is not dict:
            raise TypeError(f"its snapshot is not an object: {snapshot!r}")
        counter(header["snapshot_every"], "snapshot_every")
        for delta in header.get("deltas", []):
            _validate_wal_delta(delta)
        _post_snapshot_serial(header)
    except _MALFORMED as exc:
        raise ProtocolError(f"malformed WAL header: {exc}") from exc
    return header


class ServerWriteAheadLog:
    """Durability for the serialisation authority.

    The server appends each operation it serialises — original form,
    origin client, assigned serial — *before* broadcasting it, so a crash
    can never lose serialised history: everything the server has told the
    world is on the log.  Periodically the log is *compacted*: a
    snapshot of the server replaces the record prefix it covers, except
    that records a lagging consumer still needs are retained (the
    ``retain_after`` low-water mark — the classic "keep the suffix beyond
    the minimum acknowledged cursor" rule), because the broadcast
    re-shipment of recovery (:meth:`broadcasts_for`) rebuilds
    ``ServerOperation`` payloads from records, not from the snapshot.

    Recovery (:meth:`recover`) restores the latest snapshot and replays
    the record suffix through a real :class:`CssServer` receive path,
    verifying that every replayed operation is assigned exactly the
    serial the log recorded — the dense 1..n sequence every proof in the
    paper leans on resumes precisely where the log left off, with no
    serial skipped or reused.

    Compaction is **incremental** and one rule picks its mode: a *full
    checkpoint* with no diff base (the first compaction, the first after
    a restore) or once a node left the space (active-window GC's rebase,
    or a ``prune_below``, which the deployed server never runs); a
    *delta* — nodes added or re-ordered and serials assigned since the
    previous compaction — every other time.  The chain needs no length
    limit: an integration whose leftmost path has k steps creates k + 1
    nodes and adds 2k + 1 transitions, each ending at a node it created
    and only k + 1 starting at an older one, and a delta never removes a
    node.  So a chain's ``added`` + ``touched`` entries are at most 2x
    the nodes created since its checkpoint, all still in the window, and
    the recovery fold stays O(window).
    Neither appends nor compactions re-read the log: the per-origin
    counts are kept as records arrive and truncation cuts a prefix.

    The whole structure is JSON-able (:meth:`to_obj` / :meth:`from_obj`);
    in a deployment each :meth:`append` would be an fsync'd disk write.
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        clients: Sequence[ReplicaId],
        snapshot_every: int = 8,
        initial_text: str = "",
    ) -> None:
        if snapshot_every < 1:
            raise ProtocolError("snapshot_every must be >= 1")
        self.replica_id = replica_id
        self.clients = list(clients)
        self.snapshot_every = snapshot_every
        self.initial_text = initial_text
        #: latest full checkpoint (``None`` until the first compaction)
        self.snapshot: Optional[Dict[str, Any]] = None
        #: delta snapshots taken since ``snapshot``, oldest first
        self.deltas: List[Dict[str, Any]] = []
        #: records after the truncation point, ascending contiguous serials
        self.records: List[Dict[str, Any]] = []
        self.appends = 0
        self.compactions = 0
        self.records_truncated = 0
        #: what the last :meth:`compact` emitted: ``"full"`` or ``"delta"``
        #: (``None`` before any compaction) — the disk layer appends the
        #: delta as one line instead of rewriting the file when "delta"
        self.last_compaction_mode: Optional[str] = None
        self.last_delta: Optional[Dict[str, Any]] = None
        #: epoch of the highest record witnessed (0 before any append)
        self.last_epoch = 0
        #: epoch of the highest truncated record, which ``last_epoch``
        #: falls back to with no record left; every compaction stores it
        self._truncated_epoch = 0
        #: what :meth:`origin_counts` answers, kept by :meth:`append_record`
        self._counts: Dict[ReplicaId, int] = {}
        self._next_serial = 1
        self._since_snapshot = 0
        #: state-space nodes serialised by compactions, by mode — equals
        #: the nodes that changed for a delta, the whole window for a full
        self.snapshot_nodes = {"full": 0, "delta": 0}
        # Diff base for the next delta: the encoder's shadow (the node's
        # key -> id, child count, parent id) as of the previous
        # compaction.  ``None`` (fresh or restored log) forces the next
        # compaction to be a full checkpoint.
        self._shadow: Optional[Shadow] = None
        self._next_id = 0
        self._shadow_upto = 0
        self._shadow_base = 0
        self._obs = get_obs()

    # -- write path ----------------------------------------------------
    @property
    def last_serial(self) -> int:
        """The highest serial the log has witnessed (0 when empty)."""
        return self._next_serial - 1

    def append(
        self,
        serial: int,
        origin: ReplicaId,
        operation: Operation,
        epoch: int = 0,
        *,
        ctx: Sequence[int],
    ) -> None:
        """Log one serialised operation (call *before* broadcasting it),
        its context ``[d, n]`` (see :func:`compact_context`)."""
        self.append_record(
            wal_record_to_obj(serial, origin, operation, epoch, ctx=ctx)
        )

    def append_record(self, record: Dict[str, Any]) -> None:
        """Append an encoded record: :meth:`append`'s, or a shipped one
        :meth:`~repro.jupiter.replication.Replica.append` checked."""
        serial, epoch = record["serial"], record["epoch"]
        origin, seq = record["operation"]["opid"]
        if serial != self._next_serial:
            raise ProtocolError(
                f"WAL append out of order: got serial {serial}, "
                f"expected {self._next_serial}"
            )
        if epoch < self.last_epoch:
            raise ProtocolError(
                f"WAL append with stale epoch {epoch} < {self.last_epoch}"
            )
        self.records.append(record)
        self.last_epoch = epoch
        if seq > self._counts.get(origin, 0):
            self._counts[origin] = seq
        self._next_serial += 1
        self.appends += 1
        self._since_snapshot += 1
        self._obs.wal_appends.inc()

    def _tail_epoch(self) -> int:
        """The epoch of the last serial: its record's, else the one the
        compaction that truncated it stored."""
        if self.records:
            return int(self.records[-1].get("epoch", 0))
        return self._truncated_epoch

    def _records_below(self, serial: int) -> int:
        """How many retained records have a serial below ``serial`` —
        a prefix, since records are contiguous."""
        if not self.records:
            return 0
        first = int(self.records[0]["serial"])
        return max(0, min(len(self.records), int(serial) - first))

    def record_at(self, serial: int) -> Optional[Dict[str, Any]]:
        """The retained record with ``serial``, or ``None`` if truncated.

        Records are contiguous, so this is an index, not a search.
        """
        if self.records:
            index = serial - int(self.records[0]["serial"])
            if 0 <= index < len(self.records):
                return self.records[index]
        return None

    def should_compact(self) -> bool:
        return self._since_snapshot >= self.snapshot_every

    def compact(
        self, server: CssServer, retain_after: Optional[int] = None
    ) -> int:
        """Snapshot ``server`` and truncate the record prefix it covers.

        ``retain_after`` is the low-water mark: records with a serial
        above it are kept even though the snapshot covers them, because a
        consumer (a client session cursor or a client-crash checkpoint)
        may still need their broadcast re-shipped.  Returns the number of
        records truncated.

        With no diff base, a moved rebase floor or a node gone from the
        space it emits a **full checkpoint**, O(window + document).
        Otherwise it emits a **delta** against the previous compaction —
        nodes added since, nodes whose ordered child-transition list grew
        (transition lists are insert-only, so a changed length is exactly
        a changed list), and the serials assigned since — found by one
        pointer walk over the live node table against the shadow (the
        one O(window) term) and encoded in O(changed nodes), with ids
        continuing from the checkpoint's.  Either stores the per-origin
        counts (a GC-trimmed snapshot keeps what recovery re-seeds
        sessions with) and the epoch of the highest truncated record.
        ``last_compaction_mode`` tells the disk layer which mode ran.
        """
        obs = self._obs
        started = time.perf_counter() if obs.enabled else 0.0
        base = server.oracle.base
        # What the snapshot/delta covers is the *server's* state, which
        # in replicated mode can trail the log (proposed-but-uncommitted
        # records are on the log, not in the served state yet).
        covered = server.oracle.last_serial
        floor = self.last_serial
        if retain_after is not None:
            floor = min(floor, int(retain_after))
        truncated = self._records_below(floor + 1)
        if truncated:
            self._truncated_epoch = int(
                self.records[truncated - 1].get("epoch", 0)
            )
        counts = dict(sorted(self._counts.items()))
        delta = None
        if self._shadow is not None and base == self._shadow_base:
            delta = self._diff(server.space, self._shadow)
        if delta is not None:
            mode = "delta"
            delta.update(
                upto=covered,
                floor=floor,
                base=base,
                serials=[
                    [opid_to_obj(opid), serial]
                    for opid, serial in server.oracle.serial_items(
                        after=self._shadow_upto
                    )
                ],
                origin_counts=counts,
                clients=list(server.clients),
                epoch=self._truncated_epoch,
            )
            self.deltas.append(delta)
            self.last_delta = delta
            serialised = len(delta["added"]) + len(delta["touched"])
        else:
            mode = "full"
            space_obj, self._shadow = _space_to_obj(server.space)
            self._next_id = len(self._shadow)
            self.snapshot = _server_snapshot(server, space_obj)
            self.snapshot["origin_counts"] = counts
            self.snapshot["epoch"] = self._truncated_epoch
            self.deltas = []
            self.last_delta = None
            serialised = len(self._shadow)
        self.last_compaction_mode = mode
        self.snapshot_nodes[mode] += serialised
        self._shadow_upto = covered
        self._shadow_base = base
        del self.records[:truncated]
        self.records_truncated += truncated
        self.compactions += 1
        self._since_snapshot = 0
        if obs.enabled:
            obs.wal_compactions.inc()
            obs.wal_records_truncated.inc(truncated)
            obs.wal_snapshot_nodes.labels(mode).inc(serialised)
            obs.wal_compaction_duration.observe(time.perf_counter() - started)
            obs.trace(
                "wal.compact",
                serial=self.last_serial,
                truncated=truncated,
                retained=len(self.records),
                mode=mode,
                nodes=serialised,
            )
        return truncated

    def _diff(
        self, space: NaryStateSpace, shadow: Shadow
    ) -> Optional[Dict[str, Any]]:
        """The node part of a delta; brings ``shadow`` up to ``space``.

        The shadow is keyed by the space's own key objects, so the
        walk over the node table is a hash probe that hits on identity
        per unchanged node and nothing else.  ``None``, with the shadow
        untouched, when a node left the space: a delta only adds.
        """
        added: List[StateNode] = []
        touched: List[StateNode] = []
        for node in space.nodes():
            entry = shadow.get(node.key)
            if entry is None:
                added.append(node)
            elif len(node.children) != entry[1]:
                touched.append(node)
        if len(shadow) + len(added) != space.node_count():
            return None
        # Every transition into a new node leaves a grown or a new node,
        # and new nodes sit after all old ones in the table.
        encoded, self._next_id = _encode_nodes(
            space, shadow, touched + added, added, self._next_id
        )
        patches = []
        for node in touched:
            node_id, _degree, parent_id = shadow[node.key]
            shadow[node.key] = (node_id, len(node.children), parent_id)
            patches.append(
                {"id": node_id, "children": _children_to_obj(node, shadow)}
            )
        return {
            "final": shadow[space.final_key][0],
            "ot_count": space.ot_count,
            "added": encoded,
            "touched": patches,
        }

    def _merged_snapshot(self) -> Optional[Dict[str, Any]]:
        """The full checkpoint with every delta folded in (obj level).

        Folding is by node id; ids only grow and a delta never removes a
        node, so the fold's insertion order stays parents-first.  A delta
        that removes nodes or touches one the log does not hold is
        refused.
        """
        if self.snapshot is None:
            return None
        if not self.deltas:
            return self.snapshot
        nodes = {n["id"]: n for n in self.snapshot["space"]["nodes"]}
        serials = [list(item) for item in self.snapshot["serials"]]
        for delta in self.deltas:
            if delta.get("removed"):
                raise ProtocolError(
                    "WAL delta removes nodes: only a full checkpoint may"
                )
            for patch in delta["touched"]:
                if patch["id"] not in nodes:
                    raise ProtocolError(
                        f"WAL delta touches node {patch['id']!r}, "
                        "which the log does not hold"
                    )
                nodes[patch["id"]] = {
                    **nodes[patch["id"]], "children": patch["children"]
                }
            for node_obj in delta["added"]:
                nodes[node_obj["id"]] = node_obj
            serials.extend(list(item) for item in delta["serials"])
        last = self.deltas[-1]
        merged = {
            "version": FORMAT_VERSION,
            "replica": self.snapshot["replica"],
            "clients": list(last.get("clients", self.snapshot["clients"])),
            "space": {
                "version": FORMAT_VERSION,
                "final": last["final"],
                "ot_count": int(last.get("ot_count", 0)),
                "nodes": list(nodes.values()),
            },
            "serials": serials,
        }
        merged_base = int(last.get("base", self.snapshot.get("base", 0)))
        if merged_base:
            merged["base"] = merged_base
        return merged

    # -- recovery ------------------------------------------------------
    def recover(self) -> CssServer:
        """Rebuild the server: latest snapshot + replay of the log suffix.

        The suffix replays through the real :meth:`CssServer.receive`
        path, so recovery exercises serialisation, integration and
        broadcast construction exactly as live traffic does.  Every
        replayed operation must be assigned the serial the log recorded.
        """
        obs = self._obs
        started = time.perf_counter() if obs.enabled else 0.0
        snapshot = self._merged_snapshot()
        if snapshot is not None:
            server = restore_server(snapshot)
        else:
            initial = (
                ListDocument.from_string(self.initial_text)
                if self.initial_text
                else None
            )
            server = CssServer(self.replica_id, list(self.clients), initial)
        for record in self.records:
            serial = int(record["serial"])
            if serial <= server.oracle.last_serial:
                continue  # snapshot already covers this retained record
            operation = record_operation(record, server.oracle)
            server.receive(record["origin"], ClientOperation(operation))
            assigned = server.oracle.serial_of(operation.opid)
            if assigned != serial:
                raise ProtocolError(
                    f"WAL replay assigned serial {assigned} to "
                    f"{operation.opid} but the log recorded {serial}; "
                    "the recovered order diverges from the logged one"
                )
        if server.oracle.last_serial != self.last_serial:
            raise ProtocolError(
                f"WAL recovery stopped at serial "
                f"{server.oracle.last_serial} but the log reaches "
                f"{self.last_serial}"
            )
        if obs.enabled:
            obs.wal_recovery_duration.observe(time.perf_counter() - started)
            obs.trace(
                "wal.recover",
                serial=self.last_serial,
                replayed=len(self.records),
                from_snapshot=self.snapshot is not None,
            )
        return server

    def broadcasts_for(
        self, server: CssServer, delivered: int
    ) -> List[ServerOperation]:
        """Rebuild the broadcasts a consumer with cursor ``delivered`` missed.

        What a (re)connecting session or a restarted server re-ships,
        from the replayed log: one :class:`ServerOperation` per serial in
        ``delivered + 1 .. last_serial``, with the prefix sets recomputed
        from the recovered server's oracle.
        """
        total = self.last_serial
        if not 0 <= delivered <= total:
            raise ProtocolError(
                f"resync cursor {delivered} outside the log's 0..{total}"
            )
        if delivered == total:
            return []
        if self.record_at(delivered + 1) is None:  # records run to the head
            raise ProtocolError(
                f"WAL compacted past a consumer: serial {delivered + 1} was "
                "truncated but a resync cursor still needs it (the "
                "retain_after low-water mark was too aggressive)"
            )
        wanted = range(delivered + 1, total + 1)
        return [self.broadcast_at(server, serial) for serial in wanted]

    def broadcast_at(self, server: CssServer, serial: int) -> ServerOperation:
        """The broadcast of one retained serial, rebuilt from its record."""
        record = self.record_at(serial)
        return ServerOperation(
            operation=record_operation(record, server.oracle),
            origin=record["origin"],
            serial=serial,
            prefix=server.oracle.serialized_before(serial),
        )

    def origin_counts(self) -> Dict[ReplicaId, int]:
        """Serialised operations per origin client (snapshot + suffix).

        This is exactly the per-channel consumption count the server's
        session receivers held before the crash: origin ``c`` had
        ``origin_counts()[c]`` frames consumed from its channel, so the
        recovered receiver resumes expecting frame ``count + 1``.

        Each origin's sequence numbers are dense from 1, so its count is
        the highest sequence it has logged: :meth:`append_record` keeps
        that running maximum in O(1) per record, and only a restore
        recomputes it (:meth:`_walk_origin_counts`).
        """
        return dict(self._counts)

    def _walk_origin_counts(self) -> Dict[ReplicaId, int]:
        """:meth:`origin_counts` from what the log stores.

        A *max-of-sequence-numbers* merge over the stored counts of
        earlier compactions (which may cover serials a GC-trimmed
        snapshot no longer lists), the snapshot and delta serial logs,
        and the record suffix.  Overlap between sources is harmless
        under max.
        """
        counts: Dict[ReplicaId, int] = {}

        def bump(origin: ReplicaId, seq: int) -> None:
            if seq > counts.get(origin, 0):
                counts[origin] = seq

        if self.snapshot is not None:
            for origin, count in self.snapshot.get(
                "origin_counts", {}
            ).items():
                bump(str(origin), int(count))
            for opid_obj, _serial in self.snapshot["serials"]:
                opid = opid_from_obj(opid_obj)
                bump(opid.replica, opid.seq)
        for delta in self.deltas:
            for origin, count in delta.get("origin_counts", {}).items():
                bump(str(origin), int(count))
            for opid_obj, _serial in delta["serials"]:
                opid = opid_from_obj(opid_obj)
                bump(opid.replica, opid.seq)
        for record in self.records:
            opid = opid_from_obj(record["operation"]["opid"])
            bump(opid.replica, opid.seq)
        return counts

    # -- codec ---------------------------------------------------------
    def to_obj(self) -> Dict[str, Any]:
        return {
            "version": WAL_VERSION,
            "replica": self.replica_id,
            "clients": list(self.clients),
            "snapshot_every": self.snapshot_every,
            "initial_text": self.initial_text,
            "snapshot": self.snapshot,
            "deltas": [dict(d) for d in self.deltas],
            "records": [dict(r) for r in self.records],
            "next_serial": self._next_serial,
        }

    @classmethod
    def from_obj(cls, obj: Any) -> "ServerWriteAheadLog":
        """Restore a log, shipped or loaded, else :class:`ProtocolError`:
        its header and records are checked, never coerced.  Headers from
        before the delta chain lost its length limit still load: the limit
        they carry is ignored, and with no record left their epoch reads 0."""
        try:
            _validate_wal_header(obj, WAL_VERSION)
            wal = cls(
                obj["replica"],
                list(obj["clients"]),
                snapshot_every=obj["snapshot_every"],
                initial_text=obj.get("initial_text", ""),
            )
            wal.snapshot = obj["snapshot"]
            wal.deltas = [dict(d) for d in obj.get("deltas", [])]
            wal.records = [dict(_validate_wal_record(r)) for r in obj["records"]]
            wal._next_serial = counter(obj["next_serial"], "next_serial")
            latest = wal.deltas[-1] if wal.deltas else wal.snapshot or {}
            wal._truncated_epoch = int(latest.get("epoch", 0))
            wal.last_epoch = wal._tail_epoch()
            wal._counts = wal._walk_origin_counts()
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            raise ProtocolError(f"undecodable WAL: {exc!r}") from exc
        # The diff shadow is not serialised: a restored log takes a full
        # checkpoint at its next compaction and resumes deltas from there.
        return wal


# ----------------------------------------------------------------------
# On-disk WAL: header + one JSON record per line, torn-tail tolerant
# ----------------------------------------------------------------------
def _wal_line(obj: Dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def append_wal_record(handle: TextIO, record: Dict[str, Any]) -> None:
    """Append one WAL record as one line through ``handle``, open for
    appending on a file :func:`save_wal` wrote.  Flushed, not fsynced:
    the line survives a process kill (the failure model the fleet tier
    tests), not a power loss."""
    handle.write(_wal_line(record))
    handle.flush()


def append_wal_delta(handle: TextIO, delta: Dict[str, Any]) -> None:
    """Append one delta snapshot as a ``{"delta": ...}`` line (``handle``
    as for :func:`append_wal_record`).

    :func:`load_wal` folds it into the header's deltas and drops the
    records at or below its floor.
    """
    append_wal_record(handle, {"delta": delta})


def save_wal(wal: ServerWriteAheadLog, path: str) -> None:
    """Persist a WAL as JSON-lines: one header line, one line per record.

    The record-per-line layout mirrors how an appending log hits disk: a
    crash mid-append leaves at most one truncated final line, which
    :func:`load_wal` detects and drops (the torn tail).  Delta snapshots
    accumulated in memory ride in the header here (this is the full
    rewrite a *full* checkpoint triggers); between rewrites
    :func:`append_wal_delta` adds each new delta as its own line.
    """
    header = wal.to_obj()
    records = header.pop("records")
    # Never truncate the live file: a kill mid-rewrite must leave the
    # old log, whole, under ``path`` (a stray ``.tmp`` is never read).
    scratch = path + ".tmp"
    with open(scratch, "w", encoding="utf-8") as handle:
        handle.write(_wal_line(header))
        for record in records:
            handle.write(_wal_line(record))
        handle.flush()
    os.replace(scratch, path)


def load_wal(path: str) -> ServerWriteAheadLog:
    """Load a WAL saved by :func:`save_wal`, tolerating a torn tail.

    A crash mid-append can leave the *final* line truncated or garbled.
    A torn record was never acknowledged to anyone (the append had not
    completed, so the op was neither broadcast nor quorum certified) and
    a torn delta line loses no history at all (the records it would have
    truncated are still on the earlier lines), so either is safe to
    drop: recovery logs a warning, bumps the ``wal_torn_tail_dropped``
    counter, and resumes from the previous line.  Corruption anywhere
    *before* the final line is not a torn tail — it means lost
    acknowledged history — and raises :class:`ProtocolError`.  So does
    a well-formed line out of sequence, wherever it sits (a torn write
    never yields one): a record whose serial does not follow the
    previous record line's, a delta that repeats serials the log
    already covers.

    A version-2 record's extras load counted, refused unless they are its
    op's run; :class:`~repro.jupiter.shard.ShardCore` rewrites the file.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().split("\n") if line.strip()]
    if not lines:
        raise ProtocolError(f"WAL file {path} is empty")
    try:
        header = json.loads(lines[0])
    except ValueError as error:
        raise ProtocolError(f"WAL header in {path} is corrupt: {error}")
    _validate_wal_header(header, WAL_VERSION, _LIST_FORM)
    list_form = header["version"] == _LIST_FORM
    records: List[Dict[str, Any]] = []
    deltas: List[Dict[str, Any]] = [
        dict(d) for d in (header.get("deltas") or [])
    ]
    covered = _post_snapshot_serial(header) - 1
    previous: Optional[int] = None
    torn: Optional[str] = None
    for index, line in enumerate(lines[1:], start=1):
        try:
            obj = json.loads(line)
            delta = None
            if isinstance(obj, dict) and "delta" in obj:
                delta = _validate_wal_delta(obj["delta"])
                upto, floor = int(delta["upto"]), int(delta["floor"])
                first = min(
                    (int(s) for _opid, s in delta["serials"]), default=upto + 1
                )
            else:
                record = _validate_wal_record(
                    _run_form(obj) if list_form else obj
                )
                serial = record["serial"]
        except (ValueError, TypeError, LookupError, ProtocolError) as error:
            if index < len(lines) - 1:
                raise ProtocolError(
                    f"WAL record {index} in {path} is corrupt mid-log "
                    f"(not a torn tail): {error}"
                )
            torn = str(error)
            break
        if delta is not None:
            # A delta's serials are the ones assigned since the previous
            # compaction, so they start past what the log covers; with
            # none, ``upto`` itself must not move back.
            if first <= covered:
                raise ProtocolError(
                    f"WAL delta {index} in {path} is out of sequence: it "
                    f"repeats serials up to {covered} the log already covers"
                )
            covered = upto
            deltas.append(delta)
            records = [r for r in records if int(r["serial"]) > floor]
        else:
            if previous is not None and serial != previous + 1:
                raise ProtocolError(
                    f"WAL record {index} in {path} is out of sequence: "
                    f"serial {serial} after {previous}"
                )
            previous = serial
            records.append(record)
    if torn is not None:
        warnings.warn(
            f"dropping torn final WAL record in {path}: {torn}",
            RuntimeWarning,
            stacklevel=2,
        )
        get_obs().wal_torn_tail_dropped.inc()
    header["version"] = WAL_VERSION
    header["records"] = records
    header["deltas"] = deltas
    header["next_serial"] = (
        int(records[-1]["serial"]) + 1
        if records
        else _post_snapshot_serial(header)
    )
    return ServerWriteAheadLog.from_obj(header)


def _post_snapshot_serial(header: Dict[str, Any]) -> int:
    """First serial after the header's compaction state (1 if none)."""
    deltas = header.get("deltas") or []
    if deltas:
        return int(deltas[-1]["upto"]) + 1
    snapshot = header.get("snapshot")
    if not snapshot:
        return 1
    serials = [int(serial) for _opid, serial in snapshot["serials"]]
    base = int(snapshot.get("base", 0))
    return max(serials, default=base) + 1
