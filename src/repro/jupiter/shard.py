"""The shard core: what one hosted document decides, once, with no I/O.

A :class:`ShardCore` holds every per-document rule of the deployed
server.  It imports no ``asyncio``, no sockets and nothing from
``repro.net``, and reads no clock — ``now`` is an argument — so the
rules run under a fake clock exactly as under
:class:`repro.net.server.NetServer`, the asyncio shell that turns frames
into these calls and their results into sends.

``commit`` is ``None`` on a standalone server and the quorum commit
floor in a replicated group, where it clamps both session floors and the
acknowledgement — an uncommitted record is never truncated, acknowledged
or re-shipped: a view change may still lose or re-propose it — and
disables the grace window (a state transfer would ship the uncommitted
suffix past the commit gate).
"""

from __future__ import annotations

import weakref
from itertools import takewhile
from typing import Any, Dict, List, Optional, TextIO, Tuple

from repro.common.ids import SERVER_ID, ReplicaId
from repro.errors import (
    DocumentError,
    ProtocolError,
    StateSpaceError,
    TransformError,
)
from repro.jupiter.css import CssServer
from repro.jupiter.messages import ClientOperation, ServerOperation
from repro.jupiter.persistence import (
    ServerWriteAheadLog,
    append_wal_record,
    compact_context,
    save_wal,
)
from repro.jupiter.replication import committed_origin_ack
from repro.jupiter.session import SessionReceiver, SessionSender, release
from repro.ot.operations import Operation

#: the quorum commit floor of a replicated group; ``None`` standalone
Commit = Optional[int]


class Session:
    """The protocol half of one client's channel on one shard."""

    def __init__(self, client: ReplicaId, shard: Any = None, now: float = 0.0) -> None:
        self.client = client
        #: its shard — one client name may hold sessions on several
        self.shard = shard
        self.sender = SessionSender((SERVER_ID, client))
        self.receiver = SessionReceiver((client, SERVER_ID))
        #: out-of-order payloads parked until the session releases them
        self.parked: Dict[int, Any] = {}
        #: the client's consumption cursor (its last reported cumulative ack)
        self.delivered = 0
        self.connects = 0
        #: the client's GC pin: the lowest context floor any of its
        #: still-unacknowledged operations may carry.  Reported in every
        #: hello, data frame and ping; the shard never rebases past the
        #: minimum pin, so an in-flight or retransmitted operation can
        #: always be attached.
        self.pin = 0
        #: when the session lost its connection (``None`` while
        #: connected); drives the GC grace window for laggards.  A
        #: session rebuilt from a recovered WAL starts the clock at
        #: construction — its client may be long gone.
        self.disconnected_at: Optional[float] = now

    def report_pin(self, pin: int) -> None:
        """The GC pin only ever ratchets up: a frame reordered behind a
        newer one must not drag the floor back down."""
        self.pin = max(self.pin, pin)


class ShardCore:
    """One hosted document: its CSS server, WAL, sessions, and disk file.

    Each shard carries an independent serialization order (its own
    serial counter, WAL, and per-client session pairs); nothing but the
    listener and the admission/overload accounting is shared between
    shards, which is exactly what makes multi-document hosting a safe
    generalisation — the per-document protocol is byte-identical to a
    single-document server.

    A shard is always built from its log — restart, fleet re-placement
    and promotion alike, a new document being an empty log's recovery:
    the CSS server replays the records past the base document and every
    logged client gets a session positioned on it (:meth:`_open`).
    """

    #: what registration and recovery build; the asyncio shell's has a
    #: socket on top
    session_type = Session

    def __init__(
        self,
        doc: str,
        wal: ServerWriteAheadLog,
        wal_path: Optional[str] = None,
        now: float = 0.0,
    ) -> None:
        self.doc = doc
        self.wal = wal
        counts = wal.origin_counts()
        for origin in counts:
            # Belt and braces: any origin present in the log gets a
            # session even if its registration record predates the
            # client-list snapshot.
            if origin != SERVER_ID and origin not in wal.clients:
                wal.clients.append(origin)
        self.server: CssServer = wal.recover()
        self.sessions: Dict[ReplicaId, Session] = {
            name: self._open(name, now, counts.get(name, 0))
            for name in wal.clients
        }
        #: when the shard was opened (uptime accounting)
        self.opened_at = now
        #: on-disk WAL file (``None`` = in-memory only; a replicated
        #: group's durability is the quorum)
        self.wal_path = wal_path
        #: the file's append handle, opened by the first append after a
        #: rewrite; released by :meth:`close` or when the shard is dropped
        self._wal_file: Optional[TextIO] = None
        self._release_wal_file = None
        self.frames_received = 0
        self.resync_frames_sent = 0
        self.duplicates_suppressed = 0
        #: serial -> context floor ``d`` of the record at that serial,
        #: for every *retained* WAL record.  The GC fixpoint lowers a
        #: candidate floor until every retained record past it decodes
        #: against the new base (``d >= floor``); entries leave the map
        #: when compaction truncates their records.
        self.ctx_floors: Dict[int, int] = {
            record["serial"]: record["ctx"][0] for record in wal.records
        }
        self.gc_runs = 0
        self.states_pruned = 0
        # A converted or torn-tailed file gets no line appended to it.
        self.rewrite_disk()

    @property
    def connected(self) -> int:
        """How many sessions have a live connection."""
        return sum(s.disconnected_at is None for s in self.sessions.values())

    def _open(self, name: ReplicaId, now: float, logged: int = 0) -> Session:
        """A fresh session positioned on the log: its c->s receiver past
        the ``logged`` operations of its origin, its s->c sender one past
        the last serial, so seq == serial survives recovery."""
        session = self.session_type(name, self, now)
        session.sender.next_seq = self.wal.last_serial + 1
        session.receiver.fast_forward(logged)
        return session

    def register(self, name: ReplicaId, now: float) -> Session:
        """The session for ``name``, registering a first-time client."""
        session = self.sessions.get(name)
        if session is None:
            # A late joiner never receives live frames for serials that
            # predate its registration — those arrive via the WAL resync,
            # which stamps seq = serial — so it, too, starts where the
            # log ends (seq == serial on every s->c channel).
            session = self._open(name, now)
            self.sessions[name] = session
            self.server.clients.append(name)
            self.wal.clients.append(name)
        return session

    # ------------------------------------------------------------------
    # The receive and write paths
    # ------------------------------------------------------------------
    def accept(
        self, session: Session, seq: int, ack: Optional[int], body: Any
    ) -> List[Any]:
        """Take one data frame (``ack=None``: it carries no ack, as the
        simulator's do); return the bodies now releasable, in order.

        Bodies park *encoded*: a compact context resolves against the
        oracle's base at decode time, and GC may advance the base before
        release — the caller decodes right before :meth:`serialise`.
        """
        self.frames_received += 1
        if ack is not None:
            self.take_ack(session, ack)
        bodies = release(session.receiver, session.parked, seq, body)
        if bodies is None:
            self.duplicates_suppressed += 1
            return []
        return bodies

    def take_ack(self, session: Session, ack: int) -> None:
        """The client's cumulative s->c ack: its cursor, the compaction floor."""
        ack = min(ack, session.sender.next_seq - 1)
        session.sender.ack(ack)
        session.delivered = max(session.delivered, ack)

    def serialise(
        self, session: Session, payload: ClientOperation, epoch: int
    ) -> Tuple[int, Operation, List[Tuple[Session, ServerOperation]]]:
        """The write path: serialise, log (write-ahead), number the fan-out.

        Returns the serial, the form ``o{L}`` the operation executed as
        (what the readers are sent) and the broadcast, the original, for
        each recipient session.  Synchronous: two callers can never
        interleave here, which is what keeps the s->c sequence number
        equal to the serial on every channel of the shard.
        """
        try:
            outgoing = self.server.receive(session.client, payload)
        except (StateSpaceError, DocumentError, TransformError) as exc:
            # A context that matches no state here, a position past the
            # end of its document or an element that contradicts it is
            # the peer's protocol violation, not this shard's crash;
            # nothing was serialised.
            operation = payload.operation
            raise ProtocolError(
                f"{session.client}: {operation} on ctx {operation.context!r} "
                f"cannot be integrated: {exc}"
            ) from exc
        serial = self.server.oracle.last_serial
        # The WAL record keeps the original, its context serial-encoded
        # (O(active window) instead of O(context)): recovery replays it.
        ctx = compact_context(payload.operation, self.server.oracle)
        self.ctx_floors[serial] = int(ctx[0])
        self.wal.append(
            serial, session.client, payload.operation, epoch=epoch, ctx=ctx
        )
        # Disk before any broadcast or acknowledgement: a SIGKILLed
        # fleet worker can never have acked an operation its WAL file
        # does not hold.
        self.append_disk()
        fanout = [(self.sessions[name], broadcast) for name, broadcast in outgoing]
        for recipient, _broadcast in fanout:
            seq = recipient.sender.send()
            if seq != serial:
                raise ProtocolError(
                    f"s->c seq {seq} for {recipient.client} diverged from "
                    f"serial {serial}; the channel numbering invariant is broken"
                )
        return serial, self.server.executed, fanout

    def resync(
        self,
        session: Session,
        delivered: int,
        pin: Optional[int],
        now: float,
        commit: Commit = None,
    ) -> Tuple[int, Optional[Dict[str, Any]], List[ServerOperation]]:
        """A session (re)connects: ratchet its cursors and decide how it
        catches up.  Returns ``(cursor, state, missed)`` — where its
        cursor stands after the reply, a whole-state transfer for the
        welcome (or ``None``), the broadcasts to re-ship from records —
        all that stays unacknowledged on the s->c channel."""
        last = self.wal.last_serial
        delivered = max(0, min(delivered, last))
        session.report_pin(pin or 0)
        session.disconnected_at = None
        session.delivered = max(session.delivered, delivered)
        session.connects += 1
        if min(delivered, delivered if pin is None else pin) < self.server.base:
            # The records this cursor needs were checkpointed away with
            # the state its first re-shipped serial executed at, or the
            # client's unacknowledged ops pin below the rebase floor
            # (either way: it outlived its GC grace): resync by
            # whole-state transfer.  The client adopts the document,
            # drops its unacknowledged ops (never serialised — their
            # seqs are reused), and continues from the log head.
            session.delivered = session.pin = last
            session.sender.ack(last)
            state = {
                "document": self.server.document.to_obj(),
                "op_seq": self.wal.origin_counts().get(session.client, 0),
                "delivered": last,
            }
            return last, state, []
        session.sender.ack(session.delivered)
        missed = self.wal.broadcasts_for(self.server, delivered)
        if commit is not None:
            # Never re-ship an uncommitted broadcast: a client must not
            # consume an operation a view change could still lose.  The
            # suffix is released by the server core once quorum-certified.
            missed = [b for b in missed if b.serial <= commit]
        self.resync_frames_sent += len(missed)
        return delivered, None, missed

    def ack_for(self, session: Session, commit: Commit = None) -> int:
        """The c->s acknowledgement the client may act on.

        Standalone: the receiver's cumulative ack (the WAL record is
        already durable).  Replicated: clamped to the quorum commit
        floor, so a client never drops a retransmittable frame whose
        operation could still be lost in a view change.
        """
        ack = session.receiver.cumulative_ack
        if commit is not None:
            ack = min(ack, committed_origin_ack(self.wal, commit, session.client))
        return ack

    # ------------------------------------------------------------------
    # Floors and garbage collection
    # ------------------------------------------------------------------
    def floor(self, now: float, grace: float, commit: Commit = None) -> int:
        """Minimum reported GC pin across the roster, grace applied.

        A pin is the client's own claim that nothing it will ever send
        again references a context below it.  It folds in the client's
        delivered cursor *and* the generation floors of its unacked ops,
        and it rides every data frame, ping, and hello, so it is
        complete on its own; the server-side ``delivered`` (which only
        advances on piggybacked data-frame acks and goes stale the
        moment a client stops editing) must NOT be min'd in, or an idle
        roster wedges the rebase floor at its last burst.

        Disconnected sessions hold their floor only for ``grace``
        seconds; past it they stop counting, and a returning client is
        resynced by whole-state transfer instead of records.  Under a
        ``commit`` floor there is no grace, and the result is clamped to
        it (see the module docstring).
        """
        counted = [
            session.pin
            for session in self.sessions.values()
            if commit is not None
            or session.disconnected_at is None
            or now - session.disconnected_at <= grace
        ]
        floor = min(counted, default=self.wal.last_serial)
        return floor if commit is None else min(floor, commit)

    def decodable_floor(self, floor: int) -> int:
        """Lower a candidate rebase floor until the log decodes above it.

        Every *retained* record (serial above the floor) must carry a
        context floor ``d`` at or above the new base, or a resyncing
        client could not resolve its compact context.  Any violating
        record drags the floor down to its ``d``; the loop re-checks the
        records the lower floor now retains, and terminates because the
        floor strictly decreases toward the current base.
        """
        base = self.server.base
        while floor > base:
            low = min(
                (d for serial, d in self.ctx_floors.items() if serial > floor),
                default=floor,
            )
            if low >= floor:
                return floor
            floor = low
        return base

    def collect(
        self, now: float, grace: float, threshold: int, commit: Commit = None
    ) -> Optional[Tuple[int, int, int]]:
        """One GC pass: rebase + checkpoint once the floor is
        ``threshold`` serials past the base (hysteresis against thrash).
        Returns ``(old base, new base, states pruned)`` or ``None``."""
        floor = self.decodable_floor(self.floor(now, grace, commit))
        base = self.server.base
        if floor - base < threshold:
            return None
        pruned = self.server.rebase_to_serial(floor)
        self.compact()
        self.gc_runs += 1
        self.states_pruned += pruned
        return base, floor, pruned

    # ------------------------------------------------------------------
    # The log and its disk file
    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Checkpoint the log at the server's base, persist that, forget
        the floors of the records it dropped (a prefix of the map)."""
        self.wal.compact(self.server)
        self.write_compaction()
        low = self.wal.base + 1
        for serial in list(takewhile(lambda s: s < low, self.ctx_floors)):
            del self.ctx_floors[serial]

    def rewrite_disk(self) -> None:
        """Write the full WAL (header + records) — open and compaction.
        The append handle is closed first: ``save_wal`` replaces the
        file, and appends through the old handle would land in the
        unlinked one."""
        if self.wal_path is not None:
            self.close()
            save_wal(self.wal, self.wal_path)

    def close(self) -> None:
        """Release the WAL file's append handle (the next append reopens)."""
        if self._release_wal_file is not None:
            self._release_wal_file()
            self._wal_file = self._release_wal_file = None

    def _wal_handle(self) -> TextIO:
        if self._wal_file is None:
            handle = open(self.wal_path, "a", encoding="utf-8")
            self._release_wal_file = weakref.finalize(self, handle.close)
            self._wal_file = handle
        return self._wal_file

    def write_compaction(self) -> None:
        """Persist the compaction that just ran: rewrite the file as the
        base document plus the records past it.  Its own name, because
        the op-cost ledger times the disk side of a checkpoint by it."""
        self.rewrite_disk()

    def append_disk(self) -> None:
        """Append the newest record as one line to the open file; flushed
        before any broadcast or acknowledgement leaves the process, so an
        acknowledged operation survives a SIGKILL (``load_wal`` drops a
        torn final line, never an acked one)."""
        if self.wal_path is not None:
            append_wal_record(self._wal_handle(), self.wal.records[-1])
