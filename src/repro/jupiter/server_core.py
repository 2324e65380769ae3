"""The server core: a server's sessions, writes, commit gate, election
and restart, once.

A :class:`ServerCore` owns a server's documents — one
:class:`~repro.jupiter.shard.ShardCore` each, with its own serial order,
opened lazily (from ``<wal_dir>/<doc>.wal`` when there is one) — its
:class:`~repro.jupiter.replication.Replica`, the serials parked until
their quorum commits and the failover in progress.  It imports no
``asyncio``, no sockets and nothing from ``repro.net``, and reads no
clock: :class:`repro.net.server.NetServer` turns bytes into its calls
and their results into frames, the fault-injected simulator
(:mod:`repro.sim.runner`) into recorded steps and simulated transmits.
Standalone (``replicated=False``, a roster of one never consulted) a
write is released at once; replicated, when the commit floor passes it.

A connection's life (the server column of the reconnect state machine
in ``docs/ARCHITECTURE.md``):

1. :meth:`~ServerCore.hello` checks the client's name, its consumption
   cursor ``delivered`` (its receiver's cumulative ack) and GC ``pin``
   before anything registers, redirects it when this replica will not
   serve, and opens its document.
2. :meth:`~ServerCore.welcome` registers it (a late joiner resyncs from
   serial 0); the welcome's ``ack`` lets it drop acknowledged pending
   frames and retransmit only the rest, and ``resync`` counts the
   broadcasts ``delivered+1 .. last_serial`` then re-shipped from the
   log as ordinary ``data`` frames whose sequence number *is* the serial
   — or, past GC, the welcome carries the whole state.
3. Each client frame goes through :meth:`~ServerCore.receive`; the log
   is appended before any broadcast leaves, so a crash never loses an
   operation the world has seen.

Every broadcast goes to every client once, in serial order, so the s->c
sequence number always equals the serial: the log is the retransmission
buffer, and nothing is kept per disconnected client.
"""

from __future__ import annotations

import logging
import os
import urllib.parse
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple
from typing import Optional, Sequence, Tuple, Type, Union

from repro.common.ids import SERVER_ID
from repro.errors import ProtocolError
from repro.jupiter.messages import ClientOperation, ServerOperation
from repro.jupiter.persistence import ServerWriteAheadLog, load_wal
from repro.jupiter.replication import Replica, Reply, primary_for
from repro.jupiter.session import counter
from repro.jupiter.shard import Commit, Session, ShardCore
from repro.obs import get_obs
from repro.ot.operations import Operation

#: silent unless the embedding process (``repro serve``) configures logging
LOGGER = logging.getLogger("repro.jupiter.server_core")


class Release(NamedTuple):
    """One committed serial, due to leave the server."""

    serial: int
    origin: Session
    #: each recipient session and the broadcast (the original) it is sent
    fanout: List[Tuple[Session, ServerOperation]]
    #: the form ``o{L}`` the operation executed as (what readers are sent)
    executed: Operation
    #: a commit-gated acknowledgement is owed to the origin (standalone,
    #: the echo carries it)
    ack_due: bool


class Hello(NamedTuple):
    """A hello this server serves, its document opened."""

    client: str
    shard: ShardCore
    delivered: int
    pin: Optional[int]


class Redirect(NamedTuple):
    """A hello this replica will not serve: its view and that view's
    primary (``None``: this replica, deposed or behind the client's epoch)."""

    view: int
    epoch: int
    primary: Optional[int]


class Welcome(NamedTuple):
    """A registered session, how it catches up (:meth:`ShardCore.resync`)
    and the welcome frame's fields."""

    session: Session
    cursor: int
    state: Optional[Dict[str, Any]]
    missed: List[ServerOperation]
    fields: Dict[str, Any]


class Answer(NamedTuple):
    """What a frame is owed besides broadcasts: an ``ack``, a ``pong``
    (``value``: the ping's ``t``), or ``ignored`` (``value``: its type)."""

    kind: str
    value: Any = None


def wal_file(wal_dir: Optional[str], doc: str) -> Optional[str]:
    """Where ``doc``'s WAL lives (``None`` without a ``wal_dir``).  A
    document no file can be named after is refused typed."""
    if wal_dir is None:
        return None
    try:
        name = urllib.parse.quote(doc, safe="") + ".wal"
    except UnicodeEncodeError as exc:  # a lone surrogate, decoded from JSON
        raise ProtocolError(f"document {doc!r} has no UTF-8 name") from exc
    if len(name + ".tmp") > 255:  # NAME_MAX; a rewrite goes through <name>.tmp
        raise ProtocolError(f"document {doc[:32]!r}... names too long a file")
    return os.path.join(wal_dir, name)


def open_shard(
    shard_type: Type[ShardCore], doc: str, path: Optional[str], now: float,
    initial_text: str,
) -> ShardCore:
    """``doc``'s shard, recovered from its WAL file when there is one; a
    new document is the recovery of an empty log."""
    if path is None or not os.path.exists(path):
        if path is not None:
            os.makedirs(os.path.dirname(path), exist_ok=True)
        log = ServerWriteAheadLog(SERVER_ID, [], initial_text)
        return shard_type(doc, log, path, now)
    shard = shard_type(doc, load_wal(path), path, now)
    LOGGER.info(
        "document %r: recovered through serial %d from %s (%d known clients)",
        doc, shard.wal.last_serial, path, len(shard.sessions),
    )
    return shard


class ServerCore:
    """One server's documents, sessions, writes, commit gate and views."""

    def __init__(
        self, shard: ShardCore, replica: Replica, replicated: bool, *,
        wal_dir: Optional[str] = None, initial_text: str = "",
    ) -> None:
        #: the default document — what a doc-less hello lands on, and the
        #: one a replicated group serves — and every document opened
        self.doc_id = shard.doc
        self.shards: Dict[str, ShardCore] = {shard.doc: shard}
        self.wal_dir = wal_dir
        self.initial_text = initial_text
        #: the simulator's logical server moves to the successor's
        #: replica before an election; a process keeps its own
        self.replica = replica
        self.replicated = replicated
        self._parked: Dict[int, Tuple[Session, Any, Operation]] = {}
        #: when the failure an election answers was detected, on the
        #: driver's clock (the driver sets it), and the log head adopted
        self.failover_from: Optional[float] = None
        self._adopted_head: Optional[int] = None

    @property
    def shard(self) -> ShardCore:
        """The default document's shard."""
        return self.shards[self.doc_id]

    @property
    def commit(self) -> Commit:
        """The shard calls' ``commit``: the quorum floor; ``None`` standalone."""
        return self.replica.committed if self.replicated else None

    def open(self, doc: str, now: float) -> ShardCore:
        """The shard for ``doc``, opened lazily (:func:`open_shard`)."""
        if doc not in self.shards:
            self.shards[doc] = open_shard(
                type(self.shard), doc, wal_file(self.wal_dir, doc), now,
                self.initial_text,
            )
        return self.shards[doc]

    def hello(self, frame: Dict[str, Any], now: float) -> Union[Hello, Redirect]:
        """Check and route a ``hello``, registering nothing: its names and
        counters (a violation raises typed), whether this replica serves
        it, its document (a quorum replicates only the default one)."""
        name, doc = frame.get("client"), frame.get("doc") or self.doc_id
        named = isinstance(name, str) and isinstance(doc, str)
        if not named or name in ("", SERVER_ID):
            raise ProtocolError(f"invalid client {name!r} or doc {doc!r}")
        delivered = counter(frame.get("delivered", 0), "delivered")
        pin = counter(frame["pin"], "pin") if "pin" in frame else None
        epoch = counter(frame.get("epoch", 0), "epoch")
        replica = self.replica
        if self.replicated and (not replica.is_primary or epoch > replica.epoch):
            index = replica.ids.index(primary_for(replica.view, replica.ids))
            mine = replica.ids[index] == replica.me
            return Redirect(replica.view, replica.epoch, None if mine else index)
        if self.replicated and doc != self.doc_id:
            raise ProtocolError(f"{doc!r}: only {self.doc_id!r} is replicated")
        return Hello(name, self.open(doc, now), delivered, pin)

    def welcome(self, hello: Hello, now: float) -> Welcome:
        """Register the hello's client — after admission, never before —
        and decide how it catches up, under the commit floor."""
        shard = hello.shard
        session = shard.register(hello.client, now)
        cursor, state, missed = shard.resync(
            session, hello.delivered, hello.pin, now, self.commit
        )
        if state is not None:
            get_obs().net_state_transfers.labels(shard.doc).inc()
        fields = dict(
            self.stamp(session), server=SERVER_ID, doc=shard.doc,
            serial=shard.wal.last_serial, resync=len(missed),
            initial=self.initial_text, view=self.replica.view,
        )
        return Welcome(session, cursor, state, missed, fields)

    def stamp(self, session: Session) -> Dict[str, int]:
        """What every ``data``, ``ack`` and ``welcome`` carries: the
        (commit-gated) ack of the session's c->s frames, the epoch and the
        shard's GC ``floor``, to which the client trims its serial log."""
        shard = session.shard
        ack = shard.ack_for(session, self.commit)
        return {"ack": ack, "epoch": self.replica.epoch, "floor": shard.server.base}

    def receive(
        self, session: Session, frame: Any,
        decode: Callable[[Any, Any], ClientOperation],
    ) -> Iterator[Union[List[Release], Answer]]:
        """One client frame: yields each write's releases, then any
        :class:`Answer` owed; a violation raises typed only after all
        before it was yielded, so nothing serialised goes unsent.  Bodies
        park encoded: ``decode(body, oracle)`` runs just before the write."""
        if not isinstance(frame, dict) or not isinstance(frame.get("type"), str):
            raise ProtocolError(f"not a frame: {frame!r}")
        kind = frame["type"]
        if kind == "multi":  # a coalesced burst of ordinary frames
            members = frame.get("frames")
            if not isinstance(members, list):
                raise ProtocolError("a multi carries a list of frames")
            for member in members:
                yield from self.receive(session, member, decode)
            return
        if "pin" in frame:
            session.report_pin(counter(frame["pin"], "pin"))
        if kind != "data":
            pong = kind == "ping"
            yield Answer("pong", frame.get("t")) if pong else Answer("ignored", kind)
            return
        seq = counter(frame.get("seq"), "seq")
        ack = counter(frame.get("ack", 0), "ack")
        if not isinstance(frame.get("body"), dict):
            raise ProtocolError("a data frame's body must be an object")
        shard = session.shard
        released = shard.accept(session, seq, ack, frame["body"])
        for body in released:
            if self.replicated and not self.replica.is_primary:
                # Deposed with this frame already read (a hang-up closes the
                # writer, not the read buffer): stale, so write nothing.
                raise ConnectionError("this replica no longer leads")
            yield self.write(session, decode(body, shard.server.oracle))
        if not released or self.replicated:
            # A duplicate means an earlier ack was lost; a standalone echo
            # carries the ack, a quorum acks only what it committed.
            yield Answer("ack")

    def write(self, session: Session, payload: ClientOperation) -> List[Release]:
        serial, executed, fanout = session.shard.serialise(
            session, payload, self.replica.epoch
        )
        if not self.replicated:
            return [Release(serial, session, fanout, executed, False)]
        self._parked[serial] = (session, fanout, executed)
        return self.certify(self.replica.appended())  # a quorum of one commits now

    def certify(self, newly: range) -> List[Release]:
        """Release the newly committed serials (``appended``, ``record_ack``).
        One with nothing parked is a record adopted in a view change: its
        broadcast is rebuilt from the log for every session (a client's
        duplicate suppression absorbs overlap with its resync)."""
        releases = []
        for serial in newly:
            parked = self._parked.pop(serial, None)
            if parked is None:
                shard = self.shard
                broadcast = shard.wal.broadcast_at(shard.server, serial)
                parked = (
                    shard.sessions[broadcast.origin],
                    [(session, broadcast) for session in shard.sessions.values()],
                    shard.server.executed_at(serial),
                )
            releases.append(Release(serial, *parked, True))
        return releases

    def follow(self, call: str, fields: Iterable[Any]) -> Reply:
        """A peer's ``repl_<call>``, answered by the replica.  A backup's
        default shard holds only the replica's log (an install replaces
        it); its server and sessions are rebuilt from it on promotion."""
        reply = getattr(self.replica, call)(*fields)
        if reply.kind == "repl_ack":
            self.shard.wal = self.replica.log
        return reply

    def elect(
        self, target: int, offers: Sequence[Dict[str, Any]], now: float
    ) -> Optional[List[Release]]:
        """Adopt view ``target``'s log and restart on it; ``None`` (and
        nothing changed) when the candidacy is void."""
        if self.replica.adopt(target, offers) is None:
            return None
        self._adopted_head = self.replica.log.last_serial
        return self.restart(self.replica.log, now)

    def restart(self, log: ServerWriteAheadLog, now: float) -> List[Release]:
        """Rebuild the default shard from ``log`` as a process restart
        does; what was parked died with the old incarnation."""
        self.shards[self.doc_id] = type(self.shard)(self.doc_id, log, now=now)
        self._parked.clear()
        return self.certify(self.replica.appended()) if self.replicated else []

    def depose(self) -> None:
        """The replica stopped leading: nothing parked commits here."""
        self._parked.clear()

    def failover_done(self, now: float) -> Optional[float]:
        """The failover's latency, observed once: when the commit floor,
        under this replica's lead, has reached the adopted log's head."""
        replica, head = self.replica, self._adopted_head
        if head is None or replica.committed < head or not replica.is_primary:
            return None
        latency = now - self.failover_from
        self.failover_from = self._adopted_head = None
        obs = get_obs()
        obs.failover_latency.observe(latency)
        obs.trace(
            "repl.failover_complete",
            view=replica.view,
            serial=replica.committed,
            latency=round(latency, 6),
        )
        return latency
