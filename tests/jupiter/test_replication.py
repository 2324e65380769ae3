"""Tests for the quorum replication layer (repro.jupiter.replication).

The election rules are pure functions, so they are tested directly.  The
rest drives three bare :class:`Replica` cores and a
:class:`~repro.jupiter.shard.ShardCore` on the primary's log, with the
calls the networked runtime and the simulator make — the shard
serialises, the primary counts its own append, records ship to the
backups, acks come back, a survivor stands for the next view — and every
transition is checked against the VSR safety argument: a committed
operation is on ``f + 1`` disks, so it survives into the adopted log of
any view change.
"""

import pytest

from repro.common.ids import SERVER_ID
from repro.errors import ProtocolError
from repro.jupiter.css import CssClient
from repro.jupiter.persistence import ServerWriteAheadLog
from repro.jupiter.replication import (
    Replica,
    committed_origin_ack,
    elect,
    next_view,
    primary_for,
    quorum_size,
)
from repro.jupiter.shard import ShardCore
from repro.model import OpSpec

ROSTER = ["s0", "s1", "s2"]


class TestElectionRules:
    def test_quorum_is_a_majority(self):
        assert quorum_size(1) == 1
        assert quorum_size(3) == 2
        assert quorum_size(5) == 3
        assert quorum_size(7) == 4

    def test_primary_rotates_round_robin(self):
        assert primary_for(0, ROSTER) == "s0"
        assert primary_for(1, ROSTER) == "s1"
        assert primary_for(2, ROSTER) == "s2"
        assert primary_for(3, ROSTER) == "s0"

    def test_next_view_skips_dead_primaries(self):
        assert next_view(0, ROSTER, alive=["s1", "s2"]) == 1
        assert next_view(0, ROSTER, alive=["s2"]) == 2
        # The successor of the successor wraps around the roster.
        assert next_view(2, ROSTER, alive=["s0", "s1"]) == 3

    def test_next_view_requires_a_survivor(self):
        with pytest.raises(ProtocolError):
            next_view(0, ROSTER, alive=[])

    def test_elect_prefers_the_longest_log(self):
        assert elect({"s1": (0, 5), "s2": (0, 3)}) == "s1"

    def test_elect_epoch_dominates_length(self):
        # A shorter log written under a later epoch supersedes a longer
        # stale one: its records were re-proposed by a newer view.
        assert elect({"s1": (2, 3), "s2": (1, 9)}) == "s1"

    def test_elect_breaks_ties_deterministically(self):
        assert elect({"s2": (1, 4), "s1": (1, 4)}) == "s1"

    def test_elect_requires_candidates(self):
        with pytest.raises(ProtocolError):
            elect({})


def empty_log(clients=("c1", "c2")):
    return ServerWriteAheadLog(SERVER_ID, list(clients))


def driven_replicated(ops_per_client=3, clients=("c1", "c2"), heard=False):
    """Three bare cores, and the primary's shard on its log: each client
    op is released by its session and serialised into s0's log, which
    counts its own append (``heard``: and every editor takes each
    broadcast at once).  Nothing is shipped to the backups: each test
    decides what the network delivered."""
    cores = {rid: Replica(ROSTER, rid, empty_log(clients)) for rid in ROSTER}
    primary = cores["s0"]
    shard = ShardCore("doc", primary.log)
    editors = {name: CssClient(name) for name in clients}
    letters = iter("abcdefghijkl")
    for seq in range(1, ops_per_client + 1):
        for name in clients:
            spec = OpSpec("ins", 0, next(letters))
            payload = editors[name].generate(spec).outgoing
            session = shard.sessions[name]
            for body in shard.accept(session, seq, 0, payload):
                fanout = shard.serialise(session, body, primary.epoch)[2]
                for recipient, broadcast in fanout if heard else ():
                    editors[recipient.client].receive(broadcast)
            primary.appended()
    return cores, shard


def replicate(cores, records, backups=("s1", "s2"), ack=True, leader="s0"):
    """Ship ``records`` to ``backups`` (and optionally ack) in order."""
    primary = cores[leader]
    for record in records:
        for backup in backups:
            reply = cores[backup].append(
                primary.epoch, primary.committed, record
            )
            if reply.accepted and ack:
                primary.record_ack(backup, **reply.fields)


def view_change(cores, survivors):
    """Elect the next view among ``survivors`` as the simulator does: the
    group's commit floor reaches every survivor first, the round-robin
    successor stands, every other survivor answers its seek."""
    view = max(core.epoch for core in cores.values())
    floor = max(core.committed for core in cores.values())
    for rid in survivors:
        cores[rid].learn_commit(floor)
    successor = cores[primary_for(next_view(view, ROSTER, survivors), ROSTER)]
    target = successor.candidacy()
    replies = [
        cores[rid].seek(target) for rid in survivors if rid != successor.me
    ]
    return successor.adopt(
        target, [reply.fields for reply in replies if reply.accepted]
    )


def serials(records):
    return [int(record["serial"]) for record in records]


def lost(dead, change):
    """Records only the dead primary held: proposals the crash lost."""
    return [
        r for r in dead.log.records if int(r["serial"]) > change.adopted_last
    ]


class TestRosterValidation:
    def test_empty_roster_rejected(self):
        with pytest.raises(ProtocolError):
            Replica([], "s0", empty_log())

    def test_duplicate_replica_ids_rejected(self):
        with pytest.raises(ProtocolError):
            Replica(["s0", "s0", "s1"], "s0", empty_log())


class TestCommitFloor:
    def test_propose_counts_the_primary_but_commits_nothing(self):
        cores, shard = driven_replicated(ops_per_client=1)
        assert serials(shard.wal.records) == [1, 2]
        assert cores["s0"].acked["s0"] == 2
        assert cores["s0"].committed == 0  # one disk is not a quorum

    def test_first_backup_ack_reaches_quorum(self):
        cores, shard = driven_replicated(ops_per_client=1)
        assert cores["s1"].append(0, 0, shard.wal.records[0]).accepted
        newly = cores["s0"].record_ack("s1", 1, epoch=0)
        assert list(newly) == [1]
        assert cores["s0"].committed == 1

    def test_third_ack_moves_nothing(self):
        cores, shard = driven_replicated(ops_per_client=1)
        replicate(cores, shard.wal.records, backups=("s1",))
        assert cores["s0"].committed == 2
        assert cores["s2"].append(0, 2, shard.wal.records[0]).accepted
        assert not cores["s0"].record_ack("s2", 1, epoch=0)

    def test_one_ack_commits_the_whole_shipped_prefix(self):
        cores, shard = driven_replicated(ops_per_client=2)
        for record in shard.wal.records:
            assert cores["s1"].append(0, 0, record).accepted
        # A single cumulative ack for the last serial certifies 1..4.
        assert list(cores["s0"].record_ack("s1", 4, epoch=0)) == [1, 2, 3, 4]
        assert cores["s0"].committed == 4

    def test_duplicate_ship_is_acked_not_reappended(self):
        cores, shard = driven_replicated(ops_per_client=1)
        record = shard.wal.records[0]
        assert cores["s1"].append(0, 0, record).accepted
        assert cores["s1"].append(0, 0, record).accepted  # retransmit
        assert cores["s1"].log.last_serial == 1

    def test_stale_epoch_ship_rejected(self):
        cores, shard = driven_replicated(ops_per_client=1)
        backup = cores["s1"]
        rejected_before = backup.stale_rejected
        assert not backup.append(7, 0, shard.wal.records[0]).accepted
        assert backup.log.last_serial == 0
        assert backup.stale_rejected == rejected_before + 1

    def test_stale_epoch_ack_never_commits(self):
        cores, shard = driven_replicated(ops_per_client=1)
        assert cores["s1"].append(0, 0, shard.wal.records[0]).accepted
        assert not cores["s0"].record_ack("s1", 1, epoch=7)
        assert cores["s0"].committed == 0

    def test_dead_backup_rejects_ships(self):
        # A backup that was down missed serial 1: the next ship cannot
        # land past the gap, and the rejoin's install re-seats it.
        cores, shard = driven_replicated(ops_per_client=1)
        backup = cores["s1"]
        with pytest.raises(ProtocolError, match="out of order"):
            backup.append(0, 0, shard.wal.records[1])
        assert backup.log.last_serial == 0
        assert backup.install(**cores["s0"].start_view()).fields["serial"] == 2

    def test_committed_ack_gates_on_the_floor(self):
        cores, shard = driven_replicated(ops_per_client=2)
        primary = cores["s0"]
        c1, c2 = shard.sessions["c1"], shard.sessions["c2"]
        # c1 holds serials 1 and 3, c2 holds 2 and 4; commit only 1..2.
        replicate(cores, shard.wal.records[:2], backups=("s1",))
        assert primary.committed == 2
        assert shard.ack_for(c1, primary.committed) == 1
        assert shard.ack_for(c2, primary.committed) == 1
        assert shard.ack_for(c1) == 2  # what a standalone shard would ack
        replicate(cores, shard.wal.records[2:], backups=("s1",))
        assert shard.ack_for(c1, primary.committed) == 2
        assert shard.ack_for(c2, primary.committed) == 2

    def test_committed_origin_ack_matches_on_any_log_copy(self):
        cores, shard = driven_replicated(ops_per_client=2)
        replicate(cores, shard.wal.records, backups=("s1", "s2"))
        committed = cores["s0"].committed
        # A promoted backup acks from its own copy of the log; it must
        # agree with what the primary's shard acked.
        for rid in ROSTER:
            assert committed_origin_ack(
                cores[rid].log, committed, "c1"
            ) == shard.ack_for(shard.sessions["c1"], committed)


class TestViewChange:
    def test_crash_of_a_backup_needs_no_view_change(self):
        # s2 is down: s1's ack alone still makes the quorum under s0.
        cores, shard = driven_replicated()
        replicate(cores, shard.wal.records, backups=("s1",))
        assert cores["s0"].is_primary
        assert cores["s0"].committed == 6

    def test_crash_of_the_primary_demands_one(self):
        # With s0 down nothing it shipped commits, and no survivor leads
        # until one adopts a log in a view of its own.
        cores, shard = driven_replicated()
        replicate(cores, shard.wal.records, ack=False)
        assert not any(cores[rid].is_primary for rid in ("s1", "s2"))
        assert view_change(cores, ["s1", "s2"]).primary == "s1"
        assert cores["s1"].is_primary

    def test_unknown_replica_rejected(self):
        cores, _shard = driven_replicated()
        with pytest.raises(ProtocolError):
            cores["s0"].record_ack("s9", 1, epoch=0)

    def test_view_change_below_quorum_is_impossible(self):
        cores, _shard = driven_replicated()
        assert view_change(cores, ["s2"]) is None
        assert not cores["s2"].is_primary

    def test_adopts_the_longest_log_and_reproposes_the_suffix(self):
        cores, shard = driven_replicated(ops_per_client=2)
        records = shard.wal.records
        # Serials 1..2 committed everywhere; 3..4 reached s1 but the
        # acks were lost, so they are durable-but-uncommitted.
        replicate(cores, records[:2], backups=("s1", "s2"))
        replicate(cores, records[2:], backups=("s1",), ack=False)
        assert cores["s0"].committed == 2
        change = view_change(cores, ["s1", "s2"])
        assert (change.view, change.epoch, change.primary) == (1, 1, "s1")
        assert change.adopted_from == "s1"
        assert change.adopted_last == 4
        assert serials(change.reproposed) == [3, 4]
        assert all(int(r["epoch"]) == 1 for r in change.reproposed)
        assert lost(cores["s0"], change) == []
        # The adopted log itself carries the re-stamped suffix.
        assert cores["s1"].log.last_epoch == 1
        assert sum(core.view_changes for core in cores.values()) == 1

    def test_unreplicated_suffix_is_lost_but_was_never_acked(self):
        cores, shard = driven_replicated(ops_per_client=2)
        replicate(cores, shard.wal.records[:2], backups=("s1", "s2"))
        # Serials 3..4 never left the primary's disk.
        change = view_change(cores, ["s1", "s2"])
        assert change.adopted_last == 2
        dropped = lost(cores["s0"], change)
        assert serials(dropped) == [3, 4]
        # Nothing lost was acknowledged: the commit floor never covered it.
        assert cores["s1"].committed == 2
        for record in dropped:
            session = shard.sessions[record["origin"]]
            assert shard.ack_for(session, cores["s0"].committed) <= 1

    def test_commit_floor_always_survives_adoption(self):
        cores, shard = driven_replicated(ops_per_client=2)
        replicate(cores, shard.wal.records, backups=("s1", "s2"))
        assert cores["s0"].committed == 4
        change = view_change(cores, ["s1", "s2"])
        assert change.adopted_last >= cores["s1"].committed == 4
        assert lost(cores["s0"], change) == []

    def test_stale_acks_are_clamped_to_the_floor(self):
        cores, shard = driven_replicated(ops_per_client=2)
        replicate(cores, shard.wal.records[:2], backups=("s1", "s2"))
        replicate(cores, shard.wal.records[2:], backups=("s1",), ack=False)
        view_change(cores, ["s1", "s2"])
        # s2's old ack (2) stands; the dead s0's ack falls back to the
        # floor — its uncommitted tail may diverge from the adopted log.
        acked = cores["s1"].acked
        assert acked["s0"] == 2
        assert acked["s2"] == 2
        assert acked["s1"] == 4  # the new primary adopted through 4

    def test_install_view_brings_a_backup_onto_the_adopted_log(self):
        cores, shard = driven_replicated(ops_per_client=2)
        replicate(cores, shard.wal.records[:2], backups=("s1", "s2"))
        replicate(cores, shard.wal.records[2:], backups=("s1",), ack=False)
        view_change(cores, ["s1", "s2"])
        leader = cores["s1"]
        reply = cores["s2"].install(**leader.start_view())
        assert reply.fields == {"serial": 4, "epoch": 1}
        assert cores["s2"].log.records == leader.log.records
        # The install's ack re-certifies the re-proposed suffix.
        assert list(leader.record_ack("s2", **reply.fields)) == [3, 4]
        assert leader.committed == 4

    def test_install_view_under_a_stale_epoch_is_dropped(self):
        cores, shard = driven_replicated(ops_per_client=1)
        replicate(cores, shard.wal.records, backups=("s1", "s2"))
        view_change(cores, ["s1", "s2"])
        start = cores["s1"].start_view()
        stale = cores["s2"].install(0, 0, start["committed"], start["log"])
        assert not stale.accepted

    def test_deposed_primaries_leftover_ships_are_rejected(self):
        cores, shard = driven_replicated(ops_per_client=2)
        replicate(cores, shard.wal.records[:2], backups=("s1", "s2"))
        view_change(cores, ["s1", "s2"])  # epoch is now 1
        # A frame the dead view-0 primary still had in flight.
        assert not cores["s2"].append(0, 2, shard.wal.records[2]).accepted

    def test_rejoin_restores_a_dead_replica_from_the_primary(self):
        cores, shard = driven_replicated(ops_per_client=2)
        replicate(cores, shard.wal.records, backups=("s1",))
        # s2 was down throughout: it rejoins by the primary's install.
        primary = cores["s0"]
        reply = cores["s2"].install(**primary.start_view())
        primary.record_ack("s2", **reply.fields)
        assert cores["s2"].log.last_serial == primary.log.last_serial
        assert primary.acked["s2"] == primary.log.last_serial

    def test_second_failover_rotates_past_the_first_successor(self):
        cores, shard = driven_replicated(ops_per_client=2)
        replicate(cores, shard.wal.records, backups=("s1", "s2"))
        assert view_change(cores, ["s1", "s2"]).primary == "s1"
        cores["s0"].install(**cores["s1"].start_view())  # s0 rejoins
        change = view_change(cores, ["s0", "s2"])
        assert change.primary == "s2"
        assert (cores["s2"].view, cores["s2"].epoch) == (2, 2)
        assert change.adopted_last == 4


class TestCompactionClampedToTheCommitFloor:
    """``broadcasts_for`` across a checkpoint boundary.  A GC pass the
    commit floor did not clamp could checkpoint past records a lagging
    consumer still needs; the quorum commit floor in
    :meth:`ShardCore.floor` prevents it."""

    @staticmethod
    def compact_at(shard, pin, commit):
        """A GC pass where the shard's floor says, every client's pin at
        ``pin``."""
        for session in shard.sessions.values():
            session.report_pin(pin)
        shard.collect(0.0, 0.0, 1, commit)

    def test_compaction_never_crosses_the_commit_floor(self):
        cores, shard = driven_replicated(ops_per_client=3, heard=True)
        replicate(cores, shard.wal.records[:2], backups=("s1", "s2"))
        assert cores["s0"].committed == 2
        # The clients' pins say 6 is safe; the commit floor says 2.
        self.compact_at(shard, 6, cores["s0"].committed)
        assert serials(shard.wal.records) == [3, 4, 5, 6]

    def test_lagging_consumer_reads_across_the_boundary(self):
        cores, shard = driven_replicated(ops_per_client=3, heard=True)
        replicate(cores, shard.wal.records[:2], backups=("s1", "s2"))
        self.compact_at(shard, 6, cores["s0"].committed)
        recovered = shard.wal.recover()
        payloads = shard.wal.broadcasts_for(recovered, delivered=2)
        assert [p.serial for p in payloads] == [3, 4, 5, 6]

    def test_unclamped_compaction_would_strand_the_consumer(self):
        cores, shard = driven_replicated(ops_per_client=3, heard=True)
        replicate(cores, shard.wal.records, backups=("s1", "s2"))
        # A standalone floor (no commit) follows the pins: 1..4 go ...
        self.compact_at(shard, 4, None)
        recovered = shard.wal.recover()
        with pytest.raises(ProtocolError):
            # ... and a consumer whose cursor sits at 2 can no longer be
            # served: the error path the clamp exists to rule out.
            shard.wal.broadcasts_for(recovered, delivered=2)

    def test_uncommitted_suffix_survives_to_be_reproposed(self):
        cores, shard = driven_replicated(ops_per_client=3, heard=True)
        replicate(cores, shard.wal.records[:2], backups=("s1", "s2"))
        replicate(cores, shard.wal.records[2:], backups=("s1",), ack=False)
        self.compact_at(shard, 6, cores["s0"].committed)
        change = view_change(cores, ["s1", "s2"])
        # Everything above the floor was retained, so the view change
        # re-proposes the full uncommitted suffix — nothing is lost.
        assert serials(change.reproposed) == [3, 4, 5, 6]
        assert lost(cores["s0"], change) == []
