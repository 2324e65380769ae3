"""Quorum replication for the server write-ahead log: the replica core.

Jupiter is star-shaped: one server assigns the dense serial order, so a
WAL only survives a *restart* — a dead server machine still takes the
document down.  This module replicates the log across ``2f + 1`` replicas
in the primary-backup style of Viewstamped Replication ("Vive la
Différence: Paxos vs. Viewstamped Replication vs. Zab", PAPERS.md):

* The **primary** of the current view assigns serials and ships each
  record to the backups.  An operation is **committed** — and only then
  acknowledged to its origin and broadcast — once ``f + 1`` replicas
  (primary included) have durably appended it, so it survives any ``f``
  failures: every election quorum intersects its write quorum.
* A **view change** is deterministic: view ``v`` is led by
  ``roster[v % len(roster)]``; a candidate gathers promises and logs from
  a quorum, adopts the log with the maximal ``(last_epoch, last_serial)``
  — the longest quorum-certified prefix — re-proposes the uncommitted
  suffix under the new **epoch** (stamped into every record and frame,
  so whatever a deposed primary still has in flight is refused as
  stale), and installs the adopted log on every backup (VSR start-view).
* **Compaction is clamped to the commit floor**: the uncommitted suffix
  is exactly what a view change must re-propose.

Every replication decision lives once, in :class:`Replica` — one
replica's ``view / epoch / promised / committed / acked`` and its log,
with no I/O, no clock and no ``repro.net``.  Its calls are the frames'
meaning (``repl_install``, ``repl_append``, ``repl_ack``, ``repl_seek`` /
``repl_offer``, ``repl_deny``) and each *validates before it mutates*: a
malformed frame raises :class:`ProtocolError` and leaves the replica as
it was, a stale one is answered ``repl_deny``.  Two runtimes make the
same calls: :class:`repro.net.server.NetServer` over asyncio sockets, and
the fault-injected simulator (:mod:`repro.sim.runner`), which holds one
bare core per roster member and carries their frames over a simulated
backbone — so the failover suites and ``bench_failover`` execute the
deployed rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.ids import ReplicaId
from repro.errors import ProtocolError
from repro.jupiter.persistence import ServerWriteAheadLog, _validate_wal_record
from repro.jupiter.session import counter
from repro.obs import get_obs


def quorum_size(replicas: int) -> int:
    """``f + 1`` for a roster of ``2f + 1`` (majority for any size)."""
    return replicas // 2 + 1


def primary_for(view: int, roster: Sequence[ReplicaId]) -> ReplicaId:
    """The deterministic primary of ``view``: round-robin over the roster."""
    return roster[view % len(roster)]


def next_view(
    view: int, roster: Sequence[ReplicaId], alive: Sequence[ReplicaId]
) -> int:
    """The lowest view above ``view`` whose designated primary is alive."""
    living = set(alive)
    if not living:
        raise ProtocolError("cannot advance the view: no replica is alive")
    candidate = view + 1
    while primary_for(candidate, roster) not in living:
        candidate += 1
    return candidate


def elect(candidates: Dict[ReplicaId, Tuple[int, int]]) -> ReplicaId:
    """The replica whose log wins adoption.

    ``candidates`` maps replica id to ``(last_epoch, last_serial)``.  The
    longest quorum-certified prefix lives in the log with the maximal
    ``(last_epoch, last_serial)`` — epoch dominates, because a record
    re-proposed under a later epoch supersedes any same-serial record a
    stale replica may still hold.  Ties break to the lexicographically
    smallest replica id so every observer elects the same log.
    """
    if not candidates:
        raise ProtocolError("cannot elect a log from zero candidates")
    return min(
        candidates,
        key=lambda rid: (-candidates[rid][0], -candidates[rid][1], rid),
    )


def committed_origin_ack(
    log: "ServerWriteAheadLog", committed: int, origin: ReplicaId
) -> int:
    """How many of ``origin``'s operations sit at or under the commit floor.

    This — not the session receiver's cumulative receipt — is the
    acknowledgement a replicated primary may send to a client: an op
    acked with this counter is on ``f + 1`` disks and survives any view
    change.  Works on any log whose uncommitted suffix is retained
    (which the commit-floor compaction clamp guarantees).
    """
    uncommitted = sum(
        1
        for record in log.records
        if int(record["serial"]) > committed and record["origin"] == origin
    )
    return log.origin_counts().get(origin, 0) - uncommitted


@dataclass
class ViewChange:
    """The outcome of one deterministic view change."""

    view: int
    epoch: int
    primary: ReplicaId
    #: replica whose log was adopted (may be the new primary itself)
    adopted_from: ReplicaId
    #: highest serial in the adopted log
    adopted_last: int
    #: adopted-but-uncommitted records, re-stamped with the new epoch
    reproposed: List[Dict[str, Any]] = field(default_factory=list)


class Reply(NamedTuple):
    """A replica's answer to one frame: the reply frame's type and fields."""

    kind: str
    fields: Dict[str, Any]
    #: answering made a sitting primary stand down — its shell hangs up
    #: its clients and stops shipping
    deposed: bool = False

    @property
    def accepted(self) -> bool:
        return self.kind != "repl_deny"


class Replica:
    """One replica's replication state machine: pure, no I/O, no clock.

    Invariants after every call: ``epoch <= view <= promised``, and
    ``view``, ``promised`` and ``committed`` never decrease.  ``view`` is
    the highest view this replica knows to exist, ``epoch`` the view
    whose log it holds (set only by :meth:`install` and :meth:`adopt`),
    ``promised`` the lowest view it still accepts frames from.  State is
    durable in the model — a crashed replica resumes with all of it.
    """

    def __init__(
        self, ids: Sequence[ReplicaId], me: ReplicaId, log: ServerWriteAheadLog
    ) -> None:
        if len(set(ids)) != len(ids):
            raise ProtocolError(f"duplicate replica ids in roster {ids}")
        if me not in ids:
            raise ProtocolError(f"replica {me!r} is not in roster {ids}")
        self.ids = list(ids)
        self.me = me
        self.log = log
        self.view = 0
        #: epochs equal view numbers; stamped into every record and frame
        self.epoch = 0
        self.promised = 0
        #: quorum commit floor — the highest serial known to be on f+1 disks
        self.committed = 0
        #: per-replica durable high-water marks (primary bookkeeping); a
        #: dead backup's last ack stays — its disk outlives the process
        self.acked: Dict[ReplicaId, int] = {rid: 0 for rid in self.ids}
        self.view_changes = 0
        self.stale_rejected = 0
        #: head of the log the last :meth:`adopt` took over, until
        #: :meth:`adoption_certified` has reported the floor reaching it
        self._adopted_head: Optional[int] = None
        self._obs = get_obs()

    @property
    def quorum(self) -> int:
        return quorum_size(len(self.ids))

    @property
    def is_primary(self) -> bool:
        """Leading means: the view is mine, I hold its log (I adopted it,
        or it is the bootstrap view 0), and I promised nothing higher."""
        return (
            self.epoch == self.view == self.promised
            and primary_for(self.view, self.ids) == self.me
        )

    def _hold(self, log: ServerWriteAheadLog) -> None:
        log.replica_id = self.log.replica_id
        self.log = log

    def _deny(self) -> Reply:
        self.stale_rejected += 1
        self._obs.repl_stale_rejected.inc()
        return Reply("repl_deny", {"view": self.promised})

    def _ack(self, was_primary: bool) -> Reply:
        return Reply(
            "repl_ack",
            {"serial": self.log.last_serial, "epoch": self.epoch},
            was_primary and not self.is_primary,
        )

    # -- primary side ----------------------------------------------------
    def appended(self) -> range:
        """My log head is durable: count it; returns the newly committed
        serials (a quorum of one commits at once).  Only a leader's
        appends count — a deposed primary certifies nothing."""
        if not self.is_primary:
            return range(0)
        return self._certify(self.me, self.log.last_serial)

    def record_ack(self, rid: ReplicaId, serial: Any, epoch: Any) -> range:
        """A backup's ``repl_ack``; returns the newly committed serials,
        for the caller to acknowledge and broadcast in order."""
        serial, epoch = counter(serial, "serial"), counter(epoch, "epoch")
        if rid not in self.acked:
            raise ProtocolError(f"ack from unknown replica {rid!r}")
        if epoch != self.epoch or not self.is_primary:
            self._deny()  # counted; an ack is not answered
            return range(0)
        if serial > self.log.last_serial:
            raise ProtocolError(
                f"{rid} acked serial {serial} past the log head "
                f"{self.log.last_serial}"
            )
        return self._certify(rid, serial)

    def _certify(self, rid: ReplicaId, serial: int) -> range:
        if serial > self.acked[rid]:
            self.acked[rid] = serial
        floor = sorted(self.acked.values(), reverse=True)[self.quorum - 1]
        first = self.committed + 1
        if floor > self.committed:
            self.committed = floor
            self._obs.repl_commit_floor.set(floor)
        return range(first, self.committed + 1)

    def adoption_certified(self) -> bool:
        """``True`` once per adoption: when the commit floor, under my
        lead, has reached the head of the adopted log — failover is over."""
        head = self._adopted_head
        if head is None or self.committed < head or not self.is_primary:
            return False
        self._adopted_head = None
        return True

    def start_view(self) -> Dict[str, Any]:
        """The ``repl_install`` fields: my view and my whole log."""
        return {
            "view": self.view,
            "epoch": self.epoch,
            "committed": self.committed,
            "log": self.log.to_obj(),
        }

    def stand_down(self, view: Any) -> None:
        """A ``repl_deny`` quoted ``view``: it exists or is promised, so
        stop leading (or seeking) anything below it."""
        view = max(counter(view, "view"), self.view + 1)
        self.view = view
        self.promised = max(self.promised, view)

    # -- backup side -----------------------------------------------------
    def learn_commit(self, committed: int) -> None:
        self.committed = max(self.committed, committed)

    def install(
        self, view: Any, epoch: Any, committed: Any, log: Any
    ) -> Reply:
        """``repl_install``: adopt the view's log wholesale (start-view,
        and state transfer for a backup that lagged or rejoined)."""
        view = counter(view, "view")
        committed = counter(committed, "committed")
        if counter(epoch, "epoch") != view:
            raise ProtocolError(f"install of view {view} under epoch {epoch}")
        if view < self.promised or primary_for(view, self.ids) == self.me:
            return self._deny()  # stale, or a view only I can start
        decoded = ServerWriteAheadLog.from_obj(log)
        was_primary = self.is_primary
        # A view's log only grows and mine is a prefix of it, so a copy
        # no longer than mine is an old one — a dead connection's install
        # landing behind its successor's.  Like a duplicate ship it is
        # acknowledged; it must not shrink what I acknowledged already.
        if view > self.epoch or decoded.last_serial > self.log.last_serial:
            self.view = self.epoch = self.promised = view
            self._hold(decoded)
            self._obs.repl_appends.inc(len(decoded.records))
        self.learn_commit(committed)
        return self._ack(was_primary)

    def append(self, epoch: Any, committed: Any, record: Any) -> Reply:
        """``repl_append``: one shipped record, checked as a disk line
        is and stored verbatim — a record only decodes against an oracle
        that witnessed the serials below it, which a backup does not run."""
        epoch = counter(epoch, "epoch")
        committed = counter(committed, "committed")
        record = _validate_wal_record(record)
        if epoch != self.epoch or self.promised > epoch or self.is_primary:
            return self._deny()
        if record["serial"] > self.log.last_serial:
            self.log.append_record(dict(record))  # dense, epoch-monotone
            origin = record["origin"]
            if origin not in self.log.clients:
                # Client registrations are not shipped separately: a
                # backup learns each origin from its first record, so a
                # promotion rebuilds a session for every such client.
                self.log.clients.append(origin)
            self._obs.repl_appends.inc()
        # else a duplicate ship (re-proposal overlap): acknowledged again
        self.learn_commit(committed)
        return self._ack(False)

    def seek(self, view: Any) -> Reply:
        """``repl_seek``: promise ``view`` and offer my log, or deny."""
        view = counter(view, "view")
        if view <= self.promised:
            return self._deny()
        was_primary = self.is_primary
        self.promised = view
        return Reply(
            "repl_offer",
            {
                "view": view,
                "replica": self.me,
                "last_epoch": self.log.last_epoch,
                "last_serial": self.log.last_serial,
                "committed": self.committed,
                "log": self.log.to_obj(),
            },
            was_primary,
        )

    # -- election --------------------------------------------------------
    @property
    def next_led(self) -> int:
        """The next view this replica would lead (the stagger's rank)."""
        return next_view(self.promised, self.ids, [self.me])

    def candidacy(self) -> int:
        """Stand for the next view I lead: promise it, return it."""
        self.promised = self.next_led
        return self.promised

    def adopt(
        self, target: int, offers: Sequence[Dict[str, Any]]
    ) -> Optional[ViewChange]:
        """Take over view ``target`` with the ``repl_offer``\\ s gathered.

        ``None`` — and nothing changed — when the candidacy is void: a
        higher view was promised or learnt while the offers were awaited,
        or they (plus my own log) fall short of a quorum.
        """
        if primary_for(target, self.ids) != self.me:
            raise ProtocolError(f"{self.me} cannot lead view {target}")
        logs = {self.me: (self.log.last_epoch, self.log.last_serial)}
        committed = self.committed
        by_replica = {}
        for offer in offers:
            rid = offer.get("replica")
            if (
                rid == self.me
                or rid not in self.ids
                or offer.get("view") != target
            ):
                raise ProtocolError(
                    f"offer for view {target} from {rid!r} is not one"
                )
            logs[rid] = (
                counter(offer.get("last_epoch"), "last_epoch"),
                counter(offer.get("last_serial"), "last_serial"),
            )
            committed = max(
                committed, counter(offer.get("committed"), "committed")
            )
            by_replica[rid] = offer
        if (
            self.promised > target
            or self.view >= target
            or len(logs) < self.quorum
        ):
            return None
        winner = elect(logs)
        # Always a fresh copy, my own log included: a new view starts from
        # a log with no compaction state of an earlier incarnation.
        adopted = ServerWriteAheadLog.from_obj(
            self.log.to_obj()
            if winner == self.me
            else by_replica[winner]["log"]
        )
        adopted_last = adopted.last_serial
        if adopted_last < committed:
            raise ProtocolError(
                "quorum intersection violated: the adopted log ends at "
                f"serial {adopted_last} but {committed} is committed"
            )
        # Re-stamp the uncommitted suffix under the new epoch: these are
        # the re-proposed records a deposed primary can no longer touch.
        reproposed = [
            record
            for record in adopted.records
            if int(record["serial"]) > committed
        ]
        for record in reproposed:
            record["epoch"] = target
        if reproposed:
            adopted.last_epoch = target
        self._hold(adopted)
        self.view = self.epoch = self.promised = target
        self.committed = committed
        # Acks from earlier views stand only up to the commit floor: a
        # stale replica may hold a divergent uncommitted tail, which the
        # start-view install replaces.
        self.acked = {rid: committed for rid in self.ids}
        self.acked[self.me] = adopted_last
        self._adopted_head = adopted_last
        self.view_changes += 1
        self._obs.view_changes.inc()
        self._obs.trace(
            "repl.view_change",
            view=target,
            primary=self.me,
            adopted_from=winner,
            adopted_last=adopted_last,
            reproposed=len(reproposed),
        )
        return ViewChange(
            target, target, self.me, winner, adopted_last, reproposed
        )

