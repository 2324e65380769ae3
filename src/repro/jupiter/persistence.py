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
write-ahead log *before* broadcasting it, checkpoints it after each GC
rebase as the document at the GC base plus the records past it, and
recovers after a crash by replaying those records from that document
through a real :class:`~repro.jupiter.css.CssServer` (Proposition 6.6:
the same operations build the same state space).  Recovery re-checks the
paper's ordering invariants as it goes: every replayed operation must
receive exactly the serial the log recorded (dense 1..n, no serial
skipped or reused).
"""

from __future__ import annotations

import json
import os
import time
import warnings
from typing import Any, Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

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

#: A WAL header's version.  4: the document at the GC base and the
#: records past it; :func:`load_wal` converts a 2 or a 3.
WAL_VERSION = 4


def _require_version(obj: Dict[str, Any], what: str) -> None:
    if obj.get("version") != FORMAT_VERSION:
        raise ProtocolError(
            f"unsupported {what} version {obj.get('version')!r}"
        )


# ----------------------------------------------------------------------
# Primitive encodings
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
# key, so neither is stored.  Nodes are written parents-first under their
# position in the space's table; only a node with no retained incoming
# transition (the root, or a survivor of ``prune_below``) carries its key
# and document.  Every other node is ``{"id", "from": [parent id,
# opid]}``: its key is the parent's plus that opid, its document the
# parent's with that transition's operation applied.  A transition is
# ``[operation without context, target id]``.
def space_to_obj(space: NaryStateSpace) -> Dict[str, Any]:
    """Serialise a state-space in O(nodes + transitions + root document).

    Ids are positions in the space's table order, so the same space —
    or one restored from this object — serialises to identical bytes.
    A node is encoded relative to the first transition into it, walking
    the table in order and each node's children in sibling order.
    """
    nodes = list(space.nodes())
    ids = {node.key: index for index, node in enumerate(nodes)}
    origin: Dict[StateKey, Transition] = {}
    for node in nodes:
        for edge in node.children:
            origin.setdefault(edge.target, edge)
    documents = dict(
        space.iter_documents([n.key for n in nodes if n.key not in origin])
    )
    encoded = []
    for node in nodes:
        obj: Dict[str, Any] = {"id": ids[node.key]}
        edge = origin.get(node.key)
        if edge is None:
            obj["key"] = opids_to_obj(node.key)
            obj["document"] = [element_to_obj(e) for e in documents[node.key]]
        else:
            obj["from"] = [ids[edge.source], opid_to_obj(edge.org_id)]
        obj["children"] = [
            [operation_to_obj(t.operation, with_context=False), ids[t.target]]
            for t in node.children
        ]
        encoded.append(obj)
    return {
        "version": FORMAT_VERSION,
        "nodes": encoded,
        "final": ids[space.final_key],
        "ot_count": space.ot_count,
    }


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
    base = server.oracle.base
    snapshot = {
        "version": FORMAT_VERSION,
        "replica": server.replica_id,
        "clients": list(server.clients),
        "space": space_to_obj(server.space),
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


def _validate_wal_header(header: Any) -> Dict[str, Any]:
    """Raise :class:`ProtocolError` unless ``header`` is a version-4 WAL
    header, every field typed, never coerced."""
    try:
        if header["version"] != WAL_VERSION:
            raise ProtocolError(f"unsupported WAL version {header['version']!r}")
        clients, counts = header["clients"], header["origin_counts"]
        names = [header["replica"], *clients, *counts]
        if type(clients) is not list or any(type(n) is not str for n in names):
            raise TypeError(f"its names must be strings: {names!r}")
        for name in ("base", "epoch", "ot_count"):
            counter(header[name], name)
        for count in counts.values():
            counter(count, "origin count")
        ListDocument.from_obj(header["document"])
    except _MALFORMED as exc:
        raise ProtocolError(f"malformed WAL header: {exc}") from exc
    return header


class ServerWriteAheadLog:
    """Durability for the serialisation authority.

    The server appends each operation it serialises — original form,
    origin client, assigned serial — *before* broadcasting it, so a crash
    can never lose serialised history: everything the server has told the
    world is on the log.

    A checkpoint is the document at the GC base plus the records past
    it.  Proposition 6.6 says replicas that processed the same operations
    have the same n-ary state space, so the log need not store the
    server's window: :meth:`recover` seats a :class:`CssServer` at
    ``base`` on that document and replays the records through the real
    :meth:`CssServer.receive` path, verifying that every replayed
    operation is assigned exactly the serial the log recorded — the
    dense 1..n sequence every proof in the paper leans on resumes
    precisely where the log left off, with no serial skipped or reused.
    :meth:`compact` runs after a GC rebase only: it takes the server's
    root document and drops the records at or below the new base.  No
    record at or below the base is ever re-shipped — a client whose
    cursor fell below it is resynced by whole-state transfer.

    Neither appends nor compactions re-read the log: the per-origin
    counts are kept as records arrive and truncation cuts a prefix.
    The whole structure is JSON-able (:meth:`to_obj` / :meth:`from_obj`).
    """

    #: what the disk layer rewrites after :meth:`compact`: the whole file
    last_compaction_mode = "full"

    def __init__(
        self,
        replica_id: ReplicaId,
        clients: Sequence[ReplicaId],
        initial_text: str = "",
    ) -> None:
        self.replica_id = replica_id
        self.clients = list(clients)
        #: the GC base, and the document at the state of serials 1..base
        #: as ``[value, replica, seq]`` triples
        self.base = 0
        self.document = ListDocument.from_string(initial_text).to_obj()
        #: transforms counted before the first record past the base
        self.ot_count = 0
        #: records past the base, ascending contiguous serials
        self.records: List[Dict[str, Any]] = []
        self.appends = 0
        self.compactions = 0
        self.records_truncated = 0
        #: epoch of the highest record witnessed (0 before any append)
        self.last_epoch = 0
        #: epoch of the highest truncated record, which ``last_epoch``
        #: falls back to with no record left; every compaction stores it
        self._truncated_epoch = 0
        #: what :meth:`origin_counts` answers, kept by :meth:`append_record`,
        #: and the counts at the base, which a checkpoint stores
        self._counts: Dict[ReplicaId, int] = {}
        self._base_counts: Dict[ReplicaId, int] = {}
        self._obs = get_obs()

    # -- write path ----------------------------------------------------
    @property
    def last_serial(self) -> int:
        """The highest serial the log has witnessed (its base when empty)."""
        return self.base + len(self.records)

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
        if serial != self.last_serial + 1:
            raise ProtocolError(
                f"WAL append out of order: got serial {serial}, "
                f"expected {self.last_serial + 1}"
            )
        if epoch < self.last_epoch:
            raise ProtocolError(
                f"WAL append with stale epoch {epoch} < {self.last_epoch}"
            )
        self.records.append(record)
        self.last_epoch = epoch
        if seq > self._counts.get(origin, 0):
            self._counts[origin] = seq
        self.appends += 1
        self._obs.wal_appends.inc()

    def record_at(self, serial: int) -> Optional[Dict[str, Any]]:
        """The record with ``serial``, or ``None`` at or below the base.

        Records are contiguous, so this is an index, not a search.
        """
        index = serial - self.base - 1
        if 0 <= index < len(self.records):
            return self.records[index]
        return None

    def compact(self, server: CssServer) -> int:
        """Checkpoint at ``server``'s GC base: keep the document there,
        drop the records at or below it; returns how many were dropped.

        O(document + records): the root of a rebased space is
        materialised.  ``ot_count`` keeps the live count minus what the
        retained records cost to integrate — an integration of k
        transforms adds k + 1 nodes, so the nodes past the root are the
        integrated records plus their transforms.
        """
        obs = self._obs
        started = time.perf_counter() if obs.enabled else 0.0
        oracle, space = server.oracle, server.space
        truncated = min(len(self.records), oracle.base - self.base)
        for record in self.records[:truncated]:
            origin, seq = record["operation"]["opid"]
            self._base_counts[origin] = max(self._base_counts.get(origin, 0), seq)
        if truncated:
            self._truncated_epoch = int(self.records[truncated - 1]["epoch"])
        self.base = oracle.base
        root = oracle.dense(oracle.base)
        self.document = next(space.iter_documents([root]))[1].to_obj()
        integrated = oracle.last_serial - oracle.base
        self.ot_count = space.ot_count - (space.node_count() - 1 - integrated)
        del self.records[:truncated]
        self.records_truncated += truncated
        self.compactions += 1
        if obs.enabled:
            obs.wal_compactions.inc()
            obs.wal_records_truncated.inc(truncated)
            obs.wal_compaction_duration.observe(time.perf_counter() - started)
            obs.trace(
                "wal.compact",
                serial=self.last_serial,
                truncated=truncated,
                retained=len(self.records),
            )
        return truncated

    # -- recovery ------------------------------------------------------
    def recover(self) -> CssServer:
        """Rebuild the server: the document at the base, then a replay
        of the records past it.

        The records replay through the real :meth:`CssServer.receive`
        path, so recovery exercises serialisation, integration and
        broadcast construction exactly as live traffic does.  Every
        replayed operation must be assigned the serial the log recorded.
        """
        obs = self._obs
        started = time.perf_counter() if obs.enabled else 0.0
        server = CssServer(self.replica_id, list(self.clients))
        server.oracle = ServerOrderOracle(start=self.base)
        server.space = NaryStateSpace(
            server.oracle, ListDocument.from_obj(self.document)
        )
        server.space.ot_count = self.ot_count
        for record in self.records:
            operation = record_operation(record, server.oracle)
            server.receive(record["origin"], ClientOperation(operation))
            assigned = server.oracle.serial_of(operation.opid)
            if assigned != record["serial"]:
                raise ProtocolError(
                    f"WAL replay assigned serial {assigned} to "
                    f"{operation.opid} but the log recorded "
                    f"{record['serial']}; the recovered order diverges "
                    "from the logged one"
                )
        if obs.enabled:
            obs.wal_recovery_duration.observe(time.perf_counter() - started)
            obs.trace(
                "wal.recover",
                serial=self.last_serial,
                replayed=len(self.records),
                base=self.base,
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
        if not self.base <= delivered <= total:
            raise ProtocolError(
                f"resync cursor {delivered} outside the log's "
                f"{self.base}..{total}: below the base only a whole-state "
                "transfer resyncs it"
            )
        wanted = range(delivered + 1, total + 1)
        return [self.broadcast_at(server, serial) for serial in wanted]

    def broadcast_at(self, server: CssServer, serial: int) -> ServerOperation:
        """The broadcast of one serial past the base, rebuilt from its record."""
        record = self.record_at(serial)
        return ServerOperation(
            operation=record_operation(record, server.oracle),
            origin=record["origin"],
            serial=serial,
            prefix=server.oracle.serialized_before(serial),
        )

    def origin_counts(self) -> Dict[ReplicaId, int]:
        """Serialised operations per origin client.

        This is exactly the per-channel consumption count the server's
        session receivers held before the crash: origin ``c`` had
        ``origin_counts()[c]`` frames consumed from its channel, so the
        recovered receiver resumes expecting frame ``count + 1``.  Each
        origin's sequence numbers are dense from 1, so its count is the
        highest sequence it has logged: the checkpoint stores the counts
        at its base, the records add theirs, and :meth:`append_record`
        keeps the running maximum.
        """
        return dict(self._counts)

    # -- codec ---------------------------------------------------------
    def to_obj(self) -> Dict[str, Any]:
        return {
            "version": WAL_VERSION,
            "replica": self.replica_id,
            "clients": list(self.clients),
            "base": self.base,
            "document": self.document,
            "origin_counts": dict(sorted(self._base_counts.items())),
            "epoch": self._truncated_epoch,
            "ot_count": self.ot_count,
            "records": [dict(r) for r in self.records],
        }

    @classmethod
    def from_obj(cls, obj: Any) -> "ServerWriteAheadLog":
        """Restore a log, shipped or loaded, else :class:`ProtocolError`:
        its header and records are checked, never coerced, and the
        records must run densely from ``base + 1``."""
        _validate_wal_header(obj)
        wal = cls(obj["replica"], list(obj["clients"]))
        wal.base, wal.document = obj["base"], obj["document"]
        wal.ot_count, wal._truncated_epoch = obj["ot_count"], obj["epoch"]
        wal._base_counts = dict(obj["origin_counts"])
        wal._counts = counts = dict(obj["origin_counts"])
        try:
            records = [dict(_validate_wal_record(r)) for r in obj["records"]]
        except (LookupError, TypeError) as exc:
            raise ProtocolError(f"undecodable WAL: {exc!r}") from exc
        for serial, record in enumerate(records, start=wal.base + 1):
            if record["serial"] != serial:
                raise ProtocolError(
                    f"WAL record serial {record['serial']} is out of "
                    f"sequence: serial {serial} belongs there"
                )
            origin, seq = record["operation"]["opid"]
            counts[origin] = max(counts.get(origin, 0), seq)
        wal.records = records
        wal.last_epoch = records[-1]["epoch"] if records else wal._truncated_epoch
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


def save_wal(wal: ServerWriteAheadLog, path: str) -> None:
    """Persist a WAL as JSON-lines: one header line, one line per record.

    The record-per-line layout mirrors how an appending log hits disk: a
    crash mid-append leaves at most one truncated final line, which
    :func:`load_wal` detects and drops (the torn tail).  A compaction
    rewrites the file: header (base document) plus the records past it.
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


def _read_lines(path: str, lines: List[str], parse) -> List[Any]:
    """``parse`` each line after the header.  A line that fails is a torn
    tail on the final line — dropped with a warning and a count — and
    corruption anywhere before it."""
    parsed = []
    for index, line in enumerate(lines[1:], start=1):
        try:
            parsed.append(parse(json.loads(line)))
        except (ValueError, TypeError, LookupError, ProtocolError) as error:
            if index < len(lines) - 1:
                raise ProtocolError(
                    f"WAL record {index} in {path} is corrupt mid-log "
                    f"(not a torn tail): {error}"
                )
            warnings.warn(
                f"dropping torn final WAL record in {path}: {error}",
                RuntimeWarning,
                stacklevel=3,
            )
            get_obs().wal_torn_tail_dropped.inc()
    return parsed


def load_wal(path: str) -> ServerWriteAheadLog:
    """Load a WAL saved by :func:`save_wal`, tolerating a torn tail.

    A crash mid-append can leave the *final* line truncated or garbled.
    A torn record was never acknowledged to anyone (the append had not
    completed, so the op was neither broadcast nor quorum certified), so
    it is safe to drop: recovery logs a warning, bumps the
    ``wal_torn_tail_dropped`` counter, and resumes from the previous
    line.  Corruption anywhere *before* the final line is not a torn
    tail — it means lost acknowledged history — and raises
    :class:`ProtocolError`.  So does a well-formed record out of
    sequence, wherever it sits (a torn write never yields one).

    A version-2 or -3 file is converted (:func:`_converted`);
    :class:`~repro.jupiter.shard.ShardCore` rewrites it before its first
    append.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().split("\n") if line.strip()]
    if not lines:
        raise ProtocolError(f"WAL file {path} is empty")
    try:
        header = json.loads(lines[0])
    except ValueError as error:
        raise ProtocolError(f"WAL header in {path} is corrupt: {error}")
    if isinstance(header, dict) and header.get("version") in _OLD_VERSIONS:
        return _converted(path, header, lines)
    _validate_wal_header(header)
    records = _read_lines(path, lines, _validate_wal_record)
    return ServerWriteAheadLog.from_obj({**header, "records": records})


# ----------------------------------------------------------------------
# Versions 2 and 3: a space-graph checkpoint plus delta lines, converted
# ----------------------------------------------------------------------
#: 2: a record's ``ctx`` listed its extras' ids; 3: ``[d, n]``
_OLD_VERSIONS = (2, 3)


def _run_form(record: Any) -> Dict[str, Any]:
    """A version-2 record, whose ``ctx`` listed its extras' ids, spelled
    ``[d, n]``; refused unless the extras are the run before its op."""
    d, extras = record["ctx"]
    opid = opid_from_obj(record["operation"]["opid"])
    n = run_length(frozenset(map(opid_from_obj, extras)), opid)
    return {**record, "ctx": [d, n]}


def _validate_old_delta(delta: Any) -> Dict[str, Any]:
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


def _validate_old_header(header: Dict[str, Any]) -> None:
    """Raise :class:`ProtocolError` unless ``header`` is a version-2 or
    -3 header, every field typed, never coerced."""
    try:
        clients, snapshot = header["clients"], header["snapshot"]
        names = [header["replica"], header.get("initial_text", ""), *clients]
        if type(clients) is not list or any(type(n) is not str for n in names):
            raise TypeError(f"its names must be strings: {names!r}")
        if snapshot is not None and type(snapshot) is not dict:
            raise TypeError(f"its snapshot is not an object: {snapshot!r}")
        counter(header["snapshot_every"], "snapshot_every")
        for delta in header.get("deltas", []):
            _validate_old_delta(delta)
        _post_snapshot_serial(header)
    except _MALFORMED as exc:
        raise ProtocolError(f"malformed WAL header: {exc}") from exc


def _post_snapshot_serial(header: Dict[str, Any]) -> int:
    """First serial after an old header's compaction state (1 if none)."""
    deltas = header.get("deltas") or []
    if deltas:
        return int(deltas[-1]["upto"]) + 1
    snapshot = header.get("snapshot")
    if not snapshot:
        return 1
    serials = [int(serial) for _opid, serial in snapshot["serials"]]
    base = int(snapshot.get("base", 0))
    return max(serials, default=base) + 1


def _merged_snapshot(
    snapshot: Optional[Dict[str, Any]], deltas: List[Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    """The full checkpoint with every delta folded in (obj level).

    Folding is by node id; ids only grow and a delta never removes a
    node, so the fold's insertion order stays parents-first.  A delta
    that removes nodes or touches one the log does not hold is refused.
    """
    if snapshot is None or not deltas:
        return snapshot
    nodes = {n["id"]: n for n in snapshot["space"]["nodes"]}
    serials = [list(item) for item in snapshot["serials"]]
    for delta in deltas:
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
    last = deltas[-1]
    merged = {
        "version": FORMAT_VERSION,
        "replica": snapshot["replica"],
        "clients": list(last.get("clients", snapshot["clients"])),
        "space": {
            "version": FORMAT_VERSION,
            "final": last["final"],
            "ot_count": int(last.get("ot_count", 0)),
            "nodes": list(nodes.values()),
        },
        "serials": serials,
    }
    merged_base = int(last.get("base", snapshot.get("base", 0)))
    if merged_base:
        merged["base"] = merged_base
    return merged


def _converted(
    path: str, header: Dict[str, Any], lines: List[str]
) -> ServerWriteAheadLog:
    """A version-2 or -3 file as a version-4 log, off the live path.

    The old fold — header checkpoint, delta lines, record suffix —
    recovers the old server; the log it yields sits at that server's last
    serial with no records.  Each client then resumes once by whole-state
    transfer, and no acknowledged operation is lost: every record on the
    file is in the document.  The old rules hold: a torn final line is
    dropped, a damaged line before it refuses the file, and so does a
    record out of sequence or a delta repeating serials the log covers.
    """
    _validate_old_header(header)
    list_form = header["version"] == 2

    def parse(obj: Any) -> Tuple[str, Dict[str, Any], int]:
        if isinstance(obj, dict) and "delta" in obj:
            delta = _validate_old_delta(obj["delta"])
            upto, floor = int(delta["upto"]), int(delta["floor"])
            first = min((int(s) for _o, s in delta["serials"]), default=upto + 1)
            return "delta", {**delta, "upto": upto, "floor": floor}, first
        record = _validate_wal_record(_run_form(obj) if list_form else obj)
        return "record", record, record["serial"]

    deltas = [dict(d) for d in header.get("deltas") or []]
    records: List[Dict[str, Any]] = []
    covered = _post_snapshot_serial(header) - 1
    for index, (kind, obj, first) in enumerate(_read_lines(path, lines, parse), 1):
        if kind == "delta":
            if first <= covered:
                raise ProtocolError(
                    f"WAL delta {index} in {path} is out of sequence: it "
                    f"repeats serials up to {covered} the log already covers"
                )
            covered = obj["upto"]
            deltas.append(obj)
            records = [r for r in records if r["serial"] > obj["floor"]]
        elif records and obj["serial"] != records[-1]["serial"] + 1:
            raise ProtocolError(
                f"WAL record {index} in {path} is out of sequence: "
                f"serial {obj['serial']} after {records[-1]['serial']}"
            )
        else:
            records.append(obj)
    try:
        merged = _merged_snapshot(header["snapshot"], deltas)
        if merged is not None:
            server = restore_server(merged)
        else:
            initial = ListDocument.from_string(header.get("initial_text", ""))
            server = CssServer(header["replica"], list(header["clients"]), initial)
        for record in records:
            if record["serial"] > server.oracle.last_serial:
                operation = record_operation(record, server.oracle)
                server.receive(record["origin"], ClientOperation(operation))
    except _MALFORMED as exc:
        raise ProtocolError(f"undecodable WAL {path}: {exc!r}") from exc
    last = records[-1]["serial"] if records else covered
    if server.oracle.last_serial != last:
        raise ProtocolError(
            f"WAL recovery stopped at serial {server.oracle.last_serial} "
            f"but the log reaches {last}"
        )
    latest = deltas[-1] if deltas else header["snapshot"] or {}
    counts = dict(latest.get("origin_counts", {}))
    for opid, _serial in server.oracle.serial_items(after=server.oracle.base):
        counts[opid.replica] = max(counts.get(opid.replica, 0), opid.seq)
    return ServerWriteAheadLog.from_obj({
        "version": WAL_VERSION,
        "replica": header["replica"],
        "clients": list(dict.fromkeys([*header["clients"], *server.clients])),
        "base": last,
        "document": server.document.to_obj(),
        "origin_counts": counts,
        "epoch": records[-1]["epoch"] if records else latest.get("epoch", 0),
        "ot_count": server.space.ot_count,
        "records": [],
    })
