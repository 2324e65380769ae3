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

import pytest

from repro.common.ids import SERVER_ID
from repro.errors import ProtocolError
from repro.jupiter.css import CssClient
from repro.jupiter.persistence import ServerWriteAheadLog
from repro.jupiter.replication import Replica
from repro.jupiter.server_core import Answer, Hello, Redirect, ServerCore
from repro.jupiter.shard import ShardCore
from repro.model import OpSpec

ROSTER = ["s0", "s1", "s2"]
CLIENTS = ("c1", "c2")


def empty_log():
    return ServerWriteAheadLog(SERVER_ID, list(CLIENTS))


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
        return self.deliver(self.core.write(session, body))

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
        assert core.shard.floor(11.0, 0.0, core.commit) == 3
        assert core.shard.collect(11.0, 0.0, 1, core.commit) == (0, 3, 3)
        assert core.shard.wal.record_at(4) is not None

    def test_the_suffix_recommits_and_is_released_from_the_log(self):
        group, core = self.elected()
        core.shard.collect(11.0, 0.0, 1, core.commit)
        (release,) = group.install("s2")
        assert (release.serial, release.origin.client) == (4, "c2")
        assert release.executed == core.shard.server.executed_at(4)
        assert core.failover_done(12.0) == 2.0


def registered(core):
    return {doc: sorted(shard.sessions) for doc, shard in core.shards.items()}


class TestTheHello:
    """A hello is checked and routed before anything registers."""

    @pytest.mark.parametrize(
        "fields",
        [
            {"delivered": "x"},
            {"delivered": True},
            {"pin": -7},
            {"pin": 1.5},
            {"epoch": "x"},
            {"client": ["a"]},
            {"client": ""},
            {"client": SERVER_ID},
            {"doc": [1]},
        ],
    )
    def test_a_malformed_one_is_refused_with_nothing_registered(self, fields):
        core = Group(replicated=False).core
        with pytest.raises(ProtocolError):
            core.hello({"client": "c3", "delivered": 0, **fields}, 0.0)
        assert registered(core) == {"doc": list(CLIENTS)}

    def test_a_backup_redirects_to_its_views_primary(self):
        backup = Group().serve("s1")
        assert backup.hello({"client": "c3"}, 0.0) == Redirect(0, 0, 0)
        assert registered(backup) == {"doc": list(CLIENTS)}

    def test_a_newer_epoch_is_redirected_with_no_primary_to_name(self):
        core = Group().core
        assert core.hello({"client": "c1", "epoch": 1}, 0.0) == Redirect(0, 0, None)

    def test_a_replicated_core_serves_one_document(self):
        core = Group().core
        with pytest.raises(ProtocolError, match="only 'doc' is replicated"):
            core.hello({"client": "c1", "doc": "other"}, 0.0)
        assert set(core.shards) == {"doc"}

    def test_a_standalone_core_opens_another_document_lazily(self):
        core = Group(replicated=False).core
        hello = core.hello({"client": "c3", "doc": "other", "pin": 0}, 0.0)
        assert hello == Hello("c3", core.shards["other"], 0, 0)
        assert registered(core) == {"doc": list(CLIENTS), "other": []}
        core.welcome(hello, 0.0)
        assert registered(core)["other"] == ["c3"]


class TestTheWelcome:
    """How a (re)connecting client catches up: records, or the state."""

    def written(self, count):
        group = Group(replicated=False)
        for index in range(count):
            group.write(CLIENTS[index % 2])
        return group.core

    def welcome(self, core, delivered, pin=None):
        return core.welcome(Hello("c1", core.shard, delivered, pin), 1.0)

    def test_a_cursor_within_the_records_is_resynced_from_them(self):
        core = self.written(4)
        welcome = self.welcome(core, 2)
        assert welcome.state is None
        assert [b.serial for b in welcome.missed] == [3, 4]
        assert (welcome.fields["resync"], welcome.fields["serial"]) == (2, 4)
        assert welcome.fields["ack"] == 2  # c1 wrote serials 1 and 3

    def test_a_cursor_below_the_record_floor_gets_the_state(self):
        core = self.written(4)
        for session in core.shard.sessions.values():
            session.report_pin(3)
        core.shard.collect(0.0, 0.0, 1)
        assert core.shard.wal.base == 3  # records run from 4
        welcome = self.welcome(core, 2)
        assert welcome.missed == [] and welcome.fields["resync"] == 0
        assert welcome.state["delivered"] == welcome.cursor == 4

    def test_a_pin_below_the_base_gets_the_state(self):
        core = self.written(4)
        for session in core.shard.sessions.values():
            session.report_pin(4)
        assert core.shard.collect(0.0, 0.0, 1) == (0, 4, 4)
        assert self.welcome(core, 4, pin=4).state is None
        welcome = self.welcome(core, 4, pin=2)
        assert welcome.state is not None and welcome.missed == []


def data(seq, ack=0):
    return {"type": "data", "seq": seq, "ack": ack, "body": {"seq": seq}}


class TestTheFrame:
    """One client frame: what it writes and what else it is owed."""

    def frames(self, group, name="c1", count=2):
        """``name``'s next ``count`` ops and a decode for their bodies."""
        payloads = {}
        for seq in range(1, count + 1):
            edit = group.editors[name].generate(OpSpec("ins", 0, "x"))
            payloads[seq] = edit.outgoing
        return group.core.shard.sessions[name], lambda body, _: payloads[body["seq"]]

    def test_a_released_standalone_frame_owes_no_ack_and_its_duplicate_does(self):
        group = Group(replicated=False)
        session, decode = self.frames(group)
        (written,) = group.core.receive(session, data(1), decode)
        assert [r.serial for r in written] == [1]
        again = list(group.core.receive(session, data(1), decode))
        assert again == [Answer("ack")]
        assert group.core.shard.duplicates_suppressed == 1

    def test_a_parked_frame_owes_an_ack_and_is_written_once_released(self):
        group = Group(replicated=False)
        session, decode = self.frames(group)
        assert list(group.core.receive(session, data(2), decode)) == [
            Answer("ack")
        ]
        assert session.parked and group.core.shard.wal.last_serial == 0
        written = list(group.core.receive(session, data(1), decode))
        assert [[r.serial for r in w] for w in written] == [[1], [2]]
        assert not session.parked

    def test_a_replicated_frame_always_owes_the_commit_gated_ack(self):
        group = Group()
        session, decode = self.frames(group, count=1)
        due = list(group.core.receive(session, data(1), decode))
        assert due == [[], Answer("ack")]  # parked until a backup acks
        assert group.core.stamp(session)["ack"] == 0

    def test_a_multi_is_its_members_in_order(self):
        group = Group(replicated=False)
        session, decode = self.frames(group)
        multi = {
            "type": "multi",
            "frames": [data(1), {"type": "ping", "t": 7, "pin": 1}, {"type": "bye"}],
        }
        due = list(group.core.receive(session, multi, decode))
        assert [r.serial for r in due[0]] == [1]
        assert due[1:] == [Answer("pong", 7), Answer("ignored", "bye")]
        assert session.pin == 1

    @pytest.mark.parametrize(
        "frame",
        [
            {"type": "multi", "frames": [1]},
            {"type": "multi", "frames": {}},
            {"type": "data", "seq": "x", "ack": 0, "body": {}},
            {"type": "data", "seq": 1, "ack": -1, "body": {}},
            {"type": "data", "seq": 1, "ack": 0, "body": []},
            {"type": "ping", "pin": "x"},
        ],
    )
    def test_a_malformed_frame_is_refused_typed_with_nothing_written(self, frame):
        group = Group(replicated=False)
        session, decode = self.frames(group)
        with pytest.raises(ProtocolError):
            list(group.core.receive(session, frame, decode))
        assert group.core.shard.wal.last_serial == 0

    def test_a_deposed_core_writes_nothing(self):
        group = Group()
        session, decode = self.frames(group, count=1)
        assert group.core.replica.seek(1).deposed
        group.core.depose()
        with pytest.raises(ConnectionError):
            list(group.core.receive(session, data(1), decode))
        shard = group.core.shard
        assert shard.wal.last_serial == shard.server.oracle.last_serial == 0


def test_the_server_core_imports_no_event_loop_no_socket_and_no_net_package():
    probe = (
        "import sys, repro.jupiter.server_core; "
        "bad = {'asyncio', 'socket', 'repro.net'} & set(sys.modules); "
        "assert not bad, bad"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))}
    subprocess.run([sys.executable, "-c", probe], check=True, env=env)
