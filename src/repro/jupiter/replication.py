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
it was, a stale one is answered ``repl_deny``.  Two drivers run it:
:class:`repro.net.server.NetServer` over asyncio sockets, and
:class:`ReplicatedWal` — N replicas in one process — for the simulator,
the failover suites and ``bench_failover``, so every failover plan the
simulator samples executes the deployed rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.ids import ReplicaId
from repro.errors import ProtocolError
from repro.jupiter.css import CssServer
from repro.jupiter.persistence import ServerWriteAheadLog
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
    #: records only the dead primary held — proposals the crash lost
    #: (never acknowledged to anyone: acks are gated on the commit floor);
    #: only the god's-eye :class:`ReplicatedWal` can know them
    lost: List[Dict[str, Any]] = field(default_factory=list)


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


def _decode_log(obj: Any) -> ServerWriteAheadLog:
    try:
        return ServerWriteAheadLog.from_obj(obj)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise ProtocolError(f"undecodable replicated log: {exc!r}") from exc


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
        decoded = _decode_log(log)
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
        """``repl_append``: one shipped record, stored verbatim — a
        compact-context record only decodes against an oracle that
        witnessed the serials below it, which a backup does not run."""
        epoch = counter(epoch, "epoch")
        committed = counter(committed, "committed")
        if not (
            isinstance(record, dict) and {"origin", "operation"} <= set(record)
        ):
            raise ProtocolError(f"malformed replicated record {record!r}")
        serial = counter(record.get("serial"), "serial")
        counter(record.get("epoch", 0), "record epoch")
        if epoch != self.epoch or self.promised > epoch or self.is_primary:
            return self._deny()
        if serial > self.log.last_serial:
            self.log.append_record(dict(record))  # dense, epoch-monotone
            origin = str(record["origin"])
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
        adopted = _decode_log(
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


class ReplicatedWal:
    """A quorum-replicated write-ahead log: N replicas in one process.

    The primary's log *is* a plain WAL — serial assignment, recovery and
    broadcast rebuild go through it unchanged.  This class owns only what
    a process boundary would: which replicas are ``alive`` (a dead one
    receives nothing; its disk — its core — keeps everything) and the
    god's-eye reads the simulator asks for.  The caller owns transport
    and its latencies: it ships what :meth:`propose` and
    :meth:`start_view_payload` return and feeds the acks back through
    :meth:`acknowledge`.
    """

    def __init__(
        self,
        roster: Sequence[ReplicaId],
        clients: Sequence[ReplicaId],
        snapshot_every: int = 8,
        initial_text: str = "",
    ) -> None:
        if not roster:
            raise ProtocolError("replica roster must not be empty")
        self.roster = list(roster)
        self.cores: Dict[ReplicaId, Replica] = {
            rid: Replica(
                roster,
                rid,
                ServerWriteAheadLog(
                    rid, clients, snapshot_every, initial_text
                ),
            )
            for rid in self.roster
        }
        self.alive: Dict[ReplicaId, bool] = {rid: True for rid in self.roster}
        get_obs().repl_commit_quorum.set(self.quorum)

    # -- reads of the cores (no replication state is stored here) ---------
    @property
    def quorum(self) -> int:
        return quorum_size(len(self.roster))

    @property
    def view(self) -> int:
        """The highest view any replica has started or installed."""
        return max(core.epoch for core in self.cores.values())

    @property
    def epoch(self) -> int:
        return self.view

    @property
    def committed(self) -> int:
        """The group's floor: the highest any replica knows committed."""
        return max(core.committed for core in self.cores.values())

    @property
    def primary(self) -> ReplicaId:
        return primary_for(self.view, self.roster)

    @property
    def _leader(self) -> Replica:
        return self.cores[self.primary]

    @property
    def acked(self) -> Dict[ReplicaId, int]:
        return self._leader.acked

    @property
    def logs(self) -> Dict[ReplicaId, ServerWriteAheadLog]:
        return {rid: core.log for rid, core in self.cores.items()}

    @property
    def primary_log(self) -> ServerWriteAheadLog:
        return self._leader.log

    @property
    def view_changes(self) -> int:
        return sum(core.view_changes for core in self.cores.values())

    @property
    def stale_rejected(self) -> int:
        return sum(core.stale_rejected for core in self.cores.values())

    def alive_replicas(self) -> List[ReplicaId]:
        return [rid for rid in self.roster if self.alive[rid]]

    # -- primary write path ---------------------------------------------
    def propose(self, origin: ReplicaId, operation) -> Dict[str, Any]:
        """Assign the next serial and append to the primary's log (its
        own durable append counts toward the quorum at once); returns the
        record for the caller to ship to each alive backup."""
        leader = self._leader
        log = leader.log
        log.append(log.last_serial + 1, origin, operation, epoch=leader.epoch)
        leader.appended()
        return log.records[-1]

    def backup_append(
        self, replica: ReplicaId, record: Dict[str, Any], epoch: int
    ) -> bool:
        """Durably append one shipped record on a backup.  ``False`` — no
        ack is due — when it was shipped under a stale epoch (a deposed
        primary's leftover) or the backup is down."""
        if not self.alive[replica]:
            return False
        core = self.cores[replica]
        return core.append(epoch, self.committed, record).accepted

    def acknowledge(self, replica: ReplicaId, serial: int, epoch: int) -> int:
        """Record a backup's durable-append ack; return how many serials
        it newly pushed under the commit floor — the caller acknowledges
        and broadcasts exactly those operations, in serial order."""
        return len(self._leader.record_ack(replica, serial, epoch))

    def failover_certified(self) -> bool:
        """``True`` once per view change: when the new primary has
        quorum-committed the whole adopted log."""
        return self._leader.adoption_certified()

    # -- liveness and view changes ---------------------------------------
    def crash(self, replica: ReplicaId) -> bool:
        """Mark a replica dead; ``True`` when it was the primary (the
        caller must then run :meth:`view_change`)."""
        if replica not in self.alive:
            raise ProtocolError(f"unknown replica {replica!r}")
        self.alive[replica] = False
        return replica == self.primary

    def view_change(self) -> ViewChange:
        """Elect the next view after a primary failure.

        The successor — the round-robin next replica that is alive —
        stands for its next view, every other survivor answers its seek,
        and it adopts the best log among them.  Commit knowledge is a
        frame field on the wire; here the group's floor reaches the
        survivors first, so the caller never rebuilds the server from
        less than the dead primary had released.  The caller ships
        :meth:`start_view_payload` to each alive backup and feeds the
        acks through :meth:`install_view` / :meth:`acknowledge`.
        """
        survivors = self.alive_replicas()
        if len(survivors) < self.quorum:
            raise ProtocolError(
                f"view change impossible: {len(survivors)} replicas alive, "
                f"quorum is {self.quorum}"
            )
        deposed, floor = self._leader, self.committed
        following = next_view(self.view, self.roster, survivors)
        successor = self.cores[primary_for(following, self.roster)]
        for rid in survivors:
            self.cores[rid].learn_commit(floor)
        target = successor.candidacy()
        replies = [
            self.cores[rid].seek(target)
            for rid in survivors
            if rid != successor.me
        ]
        change = successor.adopt(
            target, [reply.fields for reply in replies if reply.accepted]
        )
        if change is None:
            raise ProtocolError(f"view {target} found no quorum of offers")
        change.lost = [
            record
            for record in deposed.log.records
            if int(record["serial"]) > change.adopted_last
        ]
        return change

    def start_view_payload(self) -> Dict[str, Any]:
        """The VSR start-view message: the primary's full log state."""
        return self._leader.start_view()

    def install_view(
        self, replica: ReplicaId, payload: Dict[str, Any], epoch: int
    ) -> Optional[int]:
        """A backup adopts the new view's log; returns its ack serial, or
        ``None`` — no ack is due — when the install was stale (a newer
        view superseded it in flight) or the replica is down."""
        if not self.alive[replica]:
            return None
        reply = self.cores[replica].install(
            epoch, epoch, payload["committed"], payload["log"]
        )
        return reply.fields["serial"] if reply.accepted else None

    def restore(self, replica: ReplicaId) -> None:
        """A dead replica rejoins as a backup via state transfer: it
        installs the current primary's log (its own stale tail is
        discarded wholesale) and the caller feeds the ack through
        :meth:`acknowledge`.  The view's own primary restarts on its disk."""
        if self.alive[replica]:
            raise ProtocolError(f"replica {replica!r} is already alive")
        self.alive[replica] = True
        if replica != self.primary:
            self.install_view(replica, self.start_view_payload(), self.epoch)
        get_obs().trace(
            "repl.rejoin",
            replica=replica,
            at_serial=self.cores[replica].log.last_serial,
        )

    # -- committed-prefix views ------------------------------------------
    def committed_ack(self, origin: ReplicaId) -> int:
        """How many of ``origin``'s operations are quorum-committed — the
        only acknowledgement the primary may send to a client."""
        return committed_origin_ack(self.primary_log, self.committed, origin)

    def committed_log(self) -> ServerWriteAheadLog:
        """A clone of the primary's log truncated to the commit floor:
        the log a failover recovery may replay — everything in it is
        quorum-certified, so the rebuilt server matches what every client
        could have observed."""
        log = ServerWriteAheadLog.from_obj(self.primary_log.to_obj())
        log.truncate_from(self.committed + 1)
        return log

    def compact(
        self, server: CssServer, retain_after: Optional[int] = None
    ) -> int:
        """Compact the primary's log, clamped to the commit floor: an
        uncommitted record is exactly what the next view change
        re-proposes, so ``retain_after`` (the client-cursor low-water
        mark) is tightened to ``min(retain_after, committed)``."""
        floor = self.committed
        if retain_after is not None:
            floor = min(floor, int(retain_after))
        return self.primary_log.compact(server, retain_after=floor)
