"""The server core on its own: three replica cores, real shards, no I/O.

:class:`~repro.jupiter.server_core.ServerCore` decides what a server
parks until its quorum commits, what each commit releases, how an
election restarts the shard on the adopted log and when the failover is
over; :class:`~repro.net.server.NetServer` and the fault-injected
simulator turn its releases into frames and recorded steps.  These tests
drive it with the calls both make.
"""

import os
import subprocess
import sys

from repro.common.ids import SERVER_ID
from repro.jupiter.css import CssClient
from repro.jupiter.persistence import ServerWriteAheadLog
from repro.jupiter.replication import Replica
from repro.jupiter.server_core import ServerCore
from repro.jupiter.shard import ShardCore
from repro.model import OpSpec

ROSTER = ["s0", "s1", "s2"]
CLIENTS = ("c1", "c2")


def empty_log():
    return ServerWriteAheadLog(SERVER_ID, list(CLIENTS), snapshot_every=1000)


class Group:
    """Three replica cores; ``s0`` serves view 0, the others back it up."""

    def __init__(self, replicated=True):
        self.replicas = {rid: Replica(ROSTER, rid, empty_log()) for rid in ROSTER}
        self.core = self.serve("s0", replicated)
        self.editors = {name: CssClient(name) for name in CLIENTS}
        self.seq = dict.fromkeys(CLIENTS, 0)

    def serve(self, rid, replicated=True):
        """The core a process builds on ``rid``'s log."""
        replica = self.replicas[rid]
        return ServerCore(ShardCore("doc", replica.log), replica, replicated)

    def write(self, name):
        """``name`` types one character and the serving core writes it."""
        payload = self.editors[name].generate(OpSpec("ins", 0, "x")).outgoing
        self.seq[name] += 1
        session = self.core.shard.sessions[name]
        (body,) = self.core.shard.accept(session, self.seq[name], 0, payload)
        return self.deliver(self.core.write(session, body, 0.0, 0.0))

    def ship(self, rid):
        """The primary's newest record reaches ``rid``, whose ack the
        primary certifies: what that released, delivered."""
        primary = self.core.replica
        record = primary.log.records[-1]
        reply = self.replicas[rid].append(primary.epoch, primary.committed, record)
        return self.deliver(self.core.certify(primary.record_ack(rid, **reply.fields)))

    def deliver(self, releases):
        """Every editor receives what was released, as its frames would
        carry it, so the next op's context moves on."""
        for release in releases:
            for session, broadcast in release.fanout:
                self.editors[session.client].receive(broadcast)
        return releases

    def fail_over(self, to="s1", detected=10.0):
        """``s0`` died: ``to`` stands for the next view it leads with the
        other survivor's offer, and its core elects."""
        candidate = self.replicas[to]
        (voter,) = (r for rid, r in self.replicas.items() if rid not in ("s0", to))
        target = candidate.candidacy()
        self.core = self.serve(to)
        self.core.failover_from = detected
        return self.core.elect(target, [voter.seek(target).fields], detected + 1)

    def install(self, rid):
        """The new primary's start-view reaches ``rid``; its ack certified."""
        primary = self.core.replica
        ack = self.replicas[rid].install(**primary.start_view()).fields
        return self.core.certify(primary.record_ack(rid, **ack))


def test_a_standalone_write_is_released_at_once_its_echo_carrying_the_ack():
    group = Group(replicated=False)
    (release,) = group.write("c1")
    shard = group.core.shard
    assert release.serial == 1 and not release.ack_due
    assert release.origin is shard.sessions["c1"]
    assert [s.client for s, _b in release.fanout] == list(CLIENTS)
    assert release.executed == shard.server.executed_at(1)
    assert group.core.commit is None


def test_a_replicated_write_parks_until_a_backup_certifies_it():
    group = Group()
    assert group.write("c1") == []
    (release,) = group.ship("s1")
    assert (release.serial, release.ack_due) == (1, True)
    assert release.origin is group.core.shard.sessions["c1"]
    assert group.core.commit == 1


def test_what_a_deposed_primary_parked_never_leaves_it():
    group = Group()
    group.write("c1")
    # A candidate's seek deposes s0, whose shell runs the one cleanup.
    assert group.core.replica.seek(1).deposed
    group.core.depose()
    assert group.ship("s1") == []


def test_an_adopted_record_is_released_as_the_live_one_would_have_been():
    """s1 holds serial 2 but learnt no commit for it: the new view
    re-proposes it, and once s2 has it the core rebuilds its release from
    the log — the same broadcast and executed form s0 would have sent."""
    group = Group()
    group.write("c1")
    group.ship("s1")  # serial 1 commits; s1 learns nothing yet
    group.write("c2")
    served = group.core.shard
    expected = (
        served.server.executed_at(2),
        served.wal.broadcast_at(served.server, 2),
    )
    group.ship("s1")  # serial 2 reaches s1, shipped under commit 1
    assert group.fail_over() == []
    (release,) = group.install("s2")
    assert (release.serial, release.ack_due) == (2, True)
    assert release.origin is group.core.shard.sessions["c2"]
    assert [s.client for s, _b in release.fanout] == list(CLIENTS)
    assert {b for _s, b in release.fanout} == {expected[1]}
    assert release.executed == expected[0]


def test_the_failover_ends_once_when_the_commit_reaches_the_adopted_head():
    group = Group()
    group.write("c1")
    group.ship("s1")
    group.write("c2")
    group.ship("s1")
    assert group.fail_over(detected=10.0) == []
    assert group.core.failover_done(11.0) is None  # serial 2 is not re-committed
    assert [r.serial for r in group.install("s2")] == [2]
    assert group.core.failover_done(12.5) == 2.5
    assert group.core.failover_done(13.0) is None


class TestAReconnectPastTheNewPrimarysCommitFloor:
    """Commit knowledge lags on the wire: a backup learns the floor from
    the frames that ship the next record.  So a client that consumed
    serial 4 from the old primary can reconnect to a new one whose floor
    is 3 — and its cursor and pin must not drag GC past that floor, or
    the uncommitted serial 4 is truncated before the view re-commits it.
    """

    def elected(self):
        group = Group()
        for name in ("c1", "c2", "c1", "c2"):
            group.write(name)
            group.ship("s1")
        assert group.core.commit == 4 and group.replicas["s1"].committed == 3
        assert group.fail_over() == []
        core = group.core
        assert core.commit == 3
        for name in CLIENTS:
            session = core.shard.sessions[name]
            assert core.shard.resync(session, 4, 4, 11.0, core.commit) == (4, None, [])
        return group, core

    def test_gc_stops_at_the_commit_floor(self):
        _group, core = self.elected()
        assert core.shard.floor(11.0, 0.0, core.commit, pins=True) == 3
        assert core.shard.collect(11.0, 0.0, 1, core.commit) == (0, 3, 3)
        assert core.shard.wal.record_at(4) is not None

    def test_the_suffix_recommits_and_is_released_from_the_log(self):
        group, core = self.elected()
        core.shard.collect(11.0, 0.0, 1, core.commit)
        (release,) = group.install("s2")
        assert (release.serial, release.origin.client) == (4, "c2")
        assert release.executed == core.shard.server.executed_at(4)
        assert core.failover_done(12.0) == 2.0


def test_the_server_core_imports_no_event_loop_no_socket_and_no_net_package():
    probe = (
        "import sys, repro.jupiter.server_core; "
        "bad = {'asyncio', 'socket', 'repro.net'} & set(sys.modules); "
        "assert not bad, bad"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))}
    subprocess.run([sys.executable, "-c", probe], check=True, env=env)
