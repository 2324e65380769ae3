"""The shard core's decisions, under a fake clock and no event loop.

Every rule here used to need a socket and a sleep to observe (the
end-to-end cover stays in ``tests/net/test_gc_net.py``): which sessions
hold the GC floors and for how long, what a commit floor clamps, how far
the decodability fixpoint falls, when a reconnect is served from records
and when by state transfer, and that a shard rebuilt from its saved log
is the live one.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.common.ids import SERVER_ID, OpId
from repro.errors import PositionError, ProtocolError
from repro.jupiter.css import CssClient
from repro.jupiter.messages import ClientOperation
from repro.jupiter.persistence import ServerWriteAheadLog, load_wal
from repro.jupiter.shard import ShardCore
from repro.document import ListDocument
from repro.model.schedule import OpSpec
from repro.net.codec import document_signature
from repro.ot import Operation, OpKind, delete, insert
from tests.jupiter import test_wal_v3_conversion as v3

GRACE = 15.0


class Rig:
    """A core, two editors, and the hand that carries frames between them."""

    def __init__(self, wal_path=None, initial_text=""):
        wal = ServerWriteAheadLog(
            SERVER_ID, [],
            initial_text=initial_text,
        )
        self.core = ShardCore("doc", wal, wal_path)
        self.core.rewrite_disk()
        self.clients = {
            name: CssClient(name, ListDocument.from_string(initial_text))
            for name in ("a", "b")
        }
        self.inbox = {name: [] for name in self.clients}
        self.seq = {name: 0 for name in self.clients}
        self.now = 100.0
        for name in self.clients:
            self.core.resync(self.core.register(name, self.now), 0, 0, self.now)

    def session(self, name):
        return self.core.sessions[name]

    def edit(self, name, value="x", spec=None):
        """``name`` types one character (or makes the edit ``spec``) and
        the core serialises it."""
        spec = spec or OpSpec("ins", 0, value)
        outgoing = self.clients[name].generate(spec).outgoing
        self.seq[name] += 1
        session = self.session(name)
        for body in self.core.accept(session, self.seq[name], 0, outgoing):
            _serial, _ctx, fanout = self.core.serialise(
                session, body, 0
            )
            for recipient, broadcast in fanout:
                self.inbox[recipient.client].append(broadcast)

    def deliver(self, name):
        """``name`` consumes everything broadcast to it so far."""
        for broadcast in self.inbox[name]:
            self.clients[name].receive(broadcast)
        self.inbox[name].clear()

    def collect(self, threshold):
        """One GC pass; the editors follow the floor as the wire's
        ``floor`` field would make them."""
        rebased = self.core.collect(self.now, GRACE, threshold)
        if rebased is not None:
            for client in self.clients.values():
                client.rebase_to_serial(rebased[1])
        return rebased

    def typed(self, count):
        """``a`` types ``count`` characters; both editors see them all."""
        for _ in range(count):
            self.edit("a")
        self.deliver("a")
        self.deliver("b")


class TestFloors:
    def test_pin_floor_ignores_a_stale_delivered_cursor(self):
        rig = Rig()
        rig.typed(6)
        for name in ("a", "b"):
            # the cursor froze at the last piggybacked ack; the pin rides
            # every frame and kept moving
            rig.session(name).delivered = 1
            rig.session(name).report_pin(5)
        assert rig.core.floor(rig.now, GRACE) == 5

    def test_the_pin_only_ratchets_up(self):
        rig = Rig()
        rig.session("a").report_pin(4)
        rig.session("a").report_pin(2)  # a frame reordered behind a newer one
        assert rig.session("a").pin == 4

    def test_a_disconnected_session_holds_the_floor_until_grace(self):
        rig = Rig()
        rig.typed(6)
        rig.session("a").report_pin(6)
        rig.session("b").report_pin(2)
        rig.session("b").disconnected_at = rig.now
        assert rig.core.floor(rig.now + GRACE, GRACE) == 2
        assert rig.core.floor(rig.now + GRACE + 0.001, GRACE) == 6

    def test_nobody_counted_means_the_log_head(self):
        rig = Rig()
        rig.typed(3)
        for name in ("a", "b"):
            rig.session(name).disconnected_at = rig.now
        assert rig.core.floor(rig.now + GRACE + 1, GRACE) == 3

    def test_commit_clamps_both_floors_and_disables_grace(self):
        rig = Rig()
        rig.typed(6)
        for name in ("a", "b"):
            rig.session(name).delivered = 6
            rig.session(name).report_pin(6)
        long_after = rig.now + 100 * GRACE
        assert rig.core.floor(rig.now, GRACE, commit=4) == 4
        # an uncommitted suffix must never ride a state transfer, so a
        # replicated group never drops a laggard from the floor
        rig.session("b").disconnected_at = rig.now
        rig.session("b").pin = rig.session("b").delivered = 1
        assert rig.core.floor(long_after, GRACE) == 6
        assert rig.core.floor(long_after, GRACE, commit=4) == 1

    def test_commit_clamps_the_acknowledgement(self):
        rig = Rig()
        rig.edit("a")
        rig.edit("b")
        rig.edit("a")
        session = rig.session("a")
        assert rig.core.ack_for(session) == 2
        assert rig.core.ack_for(session, commit=3) == 2
        assert rig.core.ack_for(session, commit=2) == 1  # serial 3 is a's
        assert rig.core.ack_for(session, commit=0) == 0


class TestFixpointAndCollect:
    def lagging_writer(self):
        """``b`` types against serials 1..2 while ``a`` reaches 4."""
        rig = Rig()
        rig.edit("a")
        rig.edit("a")
        rig.deliver("b")
        rig.edit("a")
        rig.edit("a")
        rig.edit("b", "y")  # serial 5, context floor d = 2
        return rig

    def test_the_fixpoint_drops_to_a_retained_records_d(self):
        rig = self.lagging_writer()
        assert rig.core.ctx_floors[5] == 2
        assert rig.core.decodable_floor(4) == 2  # serial 5 must still decode
        assert rig.core.decodable_floor(5) == 5  # ...unless it is not retained
        assert rig.core.decodable_floor(2) == 2
        assert rig.core.decodable_floor(0) == 0

    def test_collect_rebases_to_the_decodable_floor_past_the_threshold(self):
        rig = self.lagging_writer()
        rig.deliver("a")
        rig.deliver("b")
        for name in ("a", "b"):
            rig.session(name).report_pin(4)
        assert rig.collect(threshold=3) is None
        assert rig.core.server.base == 0
        base, floor, _pruned = rig.collect(threshold=2)
        assert (base, floor) == (0, 2)
        assert rig.core.server.base == 2
        assert rig.core.gc_runs == 1
        assert rig.core.wal.base == 2  # the WAL checkpointed at it
        assert sorted(rig.core.ctx_floors) == [3, 4, 5]


class TestResync:
    def compacted(self):
        rig = Rig()
        rig.typed(6)
        for name in ("a", "b"):
            rig.session(name).report_pin(3)
        rig.collect(threshold=1)
        assert rig.core.wal.base == rig.core.server.base == 3
        return rig

    def test_records_at_the_record_floor(self):
        rig = self.compacted()
        cursor, state, missed = rig.core.resync(rig.session("b"), 3, 3, rig.now)
        assert (cursor, state) == (3, None)
        assert [b.serial for b in missed] == [4, 5, 6]

    def test_state_transfer_one_below_it(self):
        rig = self.compacted()
        session = rig.session("b")
        cursor, state, missed = rig.core.resync(session, 2, 2, rig.now)
        assert cursor == 6 and missed == []
        assert state["delivered"] == 6 and state["op_seq"] == 0
        assert session.delivered == session.pin == 6

    def test_state_transfer_when_the_pin_fell_below_the_base(self):
        rig = self.compacted()
        for name in ("a", "b"):
            rig.session(name).report_pin(5)
        rig.collect(threshold=1)
        assert rig.core.server.base == 5
        # the cursor is servable from records; the unacked ops are not
        _cursor, state, _missed = rig.core.resync(rig.session("a"), 6, 4, rig.now)
        assert state is not None and state["op_seq"] == 6
        _cursor, state, missed = rig.core.resync(rig.session("b"), 5, 5, rig.now)
        assert state is None and [b.serial for b in missed] == [6]

    def test_an_uncommitted_suffix_is_not_reshipped(self):
        rig = self.compacted()
        _cursor, state, missed = rig.core.resync(
            rig.session("b"), 3, 3, rig.now, commit=5
        )
        assert state is None and [b.serial for b in missed] == [4, 5]

    def test_resync_acknowledges_the_channel_up_to_the_cursor(self, tmp_path):
        """A rebuilt shard's senders hold the whole log unacknowledged
        until each client's hello says how much of it it consumed."""
        path = str(tmp_path / "doc.wal")
        rig = Rig(path)
        for name in "ababa":
            rig.edit(name, name)
        rebuilt = ShardCore("doc", load_wal(path), path, now=rig.now)
        b, a = rebuilt.sessions["b"], rebuilt.sessions["a"]
        assert list(b.sender.unacked()) == [1, 2, 3, 4, 5]
        _cursor, state, missed = rebuilt.resync(b, 5, 5, rig.now)
        assert (state, missed, b.sender.outstanding) == (None, [], 0)
        _cursor, _state, missed = rebuilt.resync(a, 3, 3, rig.now)
        assert [m.serial for m in missed] == list(a.sender.unacked()) == [4, 5]

    def test_resync_connects_the_session(self):
        rig = Rig()
        session = rig.session("a")
        session.disconnected_at = rig.now
        rig.core.resync(session, 0, None, rig.now + 1)
        assert session.disconnected_at is None
        assert session.connects == 2


class TestWritePathAndRecovery:
    def test_a_gap_parks_and_a_duplicate_is_counted(self):
        rig = Rig()
        session = rig.session("a")
        assert rig.core.accept(session, 2, 0, "second") == []
        assert rig.core.accept(session, 1, 0, "first") == ["first", "second"]
        assert rig.core.accept(session, 1, 0, "first") == []
        assert rig.core.duplicates_suppressed == 1
        assert session.parked == {}

    def test_serialise_refuses_a_channel_whose_seq_left_the_serial(self):
        rig = Rig()
        rig.edit("a")
        rig.session("b").sender.send()  # a frame the log never saw
        with pytest.raises(ProtocolError, match="diverged from serial"):
            rig.edit("a")

    def test_an_unmatched_context_is_the_peers_violation(self):
        """A context naming no state here is typed, and spends nothing:
        no serial, no log record, no broadcast."""
        rig = Rig()
        rig.typed(3)
        stray = CssClient("b")  # never saw serials 1..3
        stray.generate(OpSpec("ins", 0, "p"))
        forged = stray.generate(OpSpec("ins", 0, "q")).outgoing  # ctx {b:1}
        with pytest.raises(ProtocolError, match="b: .*cannot be integrated"):
            rig.core.serialise(rig.session("b"), forged, 0)
        assert rig.core.server.oracle.last_serial == 3
        assert rig.core.wal.last_serial == 3
        rig.typed(1)  # the shard carries on
        assert rig.core.server.oracle.last_serial == 4

    @pytest.mark.parametrize("kind, position", [("ins", 4), ("del", 3)])
    def test_a_position_past_the_end_spends_no_serial(self, kind, position):
        """The matched state holds three elements: an insert at 4 or a
        delete at 3 is refused before the order oracle assigns."""
        rig = Rig()
        rig.typed(3)
        server = rig.core.server
        context = server.space.final_key
        if kind == "ins":
            operation = insert(OpId("b", 1), "z", position, context)
        else:
            element = next(iter(server.document))
            operation = delete(OpId("b", 1), element, position, context)
        forged = ClientOperation(operation)
        with pytest.raises(PositionError):
            rig.core.server.receive("b", forged)
        with pytest.raises(ProtocolError, match="b: .*out of range"):
            rig.core.serialise(rig.session("b"), forged, 0)
        assert rig.core.server.oracle.last_serial == 3
        assert rig.core.wal.last_serial == 3
        rig.typed(1)  # the shard carries on
        assert rig.core.server.oracle.last_serial == 4

    @pytest.mark.parametrize(
        "shape",
        [
            "insert-names-another-element",
            "insert-reuses-an-element-id",
            "delete-names-a-ghost",
            "stale-delete-names-another-element",
            "stale-delete-collides-with-a-concurrent-one",
        ],
    )
    def test_an_element_that_lies_spends_no_serial(self, shape):
        """Over "abc", ``a`` typed three characters at the front: the
        document is a:3 a:2 a:1 init:1 init:2 init:3.  Each forged
        operation would make every replica fail to apply it; it is
        refused typed before the order oracle assigns, the document
        still reads, and the shard carries on."""
        rig = Rig(initial_text="abc")
        rig.typed(3)
        server = rig.core.server
        element = {e.opid: e for e in server.document}
        a1, a2, b1 = OpId("a", 1), OpId("a", 2), OpId("b", 1)
        final, at = server.space.final_key, server.oracle.dense
        if shape == "insert-names-another-element":
            forged = Operation(OpKind.INS, b1, element[a1], 0, final)
        elif shape == "insert-reuses-an-element-id":
            forged = insert(OpId("init", 1), "z", 0, final)
        elif shape == "delete-names-a-ghost":
            ghost = insert(OpId("ghost", 9), "q", 0).element
            forged = delete(b1, ghost, 1, final)
        elif shape == "stale-delete-names-another-element":
            # Where b stands (a:1 only) position 0 holds a:1, not a:2.
            forged = delete(b1, element[a2], 0, at(1))
        else:
            # a deletes a:3 at position 0; b, at a's previous state,
            # deletes a:2 "at position 0": the transform meets two
            # deletions of different elements at one position.
            rig.edit("a", spec=OpSpec("del", 0))
            forged = delete(b1, element[a2], 0, at(3))
        last, text = server.oracle.last_serial, server.document.as_string()
        with pytest.raises(ProtocolError, match="b: .*cannot be integrated"):
            rig.core.serialise(
                rig.session("b"), ClientOperation(forged), 0
            )
        assert server.oracle.last_serial == rig.core.wal.last_serial == last
        assert server.document.as_string() == text
        rig.typed(1)  # the next honest operation is accepted
        assert server.oracle.last_serial == last + 1
        assert server.document.as_string() == "x" + text

    def test_a_stale_delete_that_names_its_element_is_accepted(self):
        """The check transforms the delete the way ``integrate`` will:
        b, at a's first state, deletes a:1 at position 0, which by now
        sits at position 2."""
        rig = Rig()
        rig.typed(3)
        server = rig.core.server
        first = next(e for e in server.document if e.opid == OpId("a", 1))
        honest = delete(OpId("b", 1), first, 0, server.oracle.dense(1))
        rig.core.serialise(
            rig.session("b"), ClientOperation(honest), 0
        )
        assert server.oracle.last_serial == 4
        assert [e.opid for e in server.document] == [
            OpId("a", 3), OpId("a", 2)
        ]

    def test_a_shard_rebuilt_from_its_saved_log_is_the_live_one(self, tmp_path):
        path = str(tmp_path / "doc.wal")
        rig = Rig(path)
        for round_ in range(5):
            rig.edit("a")
            rig.edit("b", "y")
            rig.edit("a")
            rig.deliver("a")
            rig.deliver("b")
            if round_ == 2:
                for name in ("a", "b"):
                    rig.session(name).report_pin(7)
                assert rig.collect(threshold=4)
        live = rig.core
        assert live.wal.compactions == 1  # one checkpoint per rebase
        rebuilt = ShardCore("doc", load_wal(path), path, now=rig.now)
        assert rebuilt.server.space.signature() == live.server.space.signature()
        assert rebuilt.server.base == live.server.base > 0
        assert rebuilt.ctx_floors == live.ctx_floors
        assert sorted(rebuilt.sessions) == ["a", "b"]
        for name, session in rebuilt.sessions.items():
            assert session.sender.next_seq == live.sessions[name].sender.next_seq
            assert session.receiver.expected == (
                live.sessions[name].receiver.expected
            )
            assert session.disconnected_at == rig.now  # the grace clock runs


class TestDeltaLinesOnRecovery:
    """What the version-3 converter makes of a delta line it did not
    write: a log in the previous dialect (an empty ``removed`` on every
    delta) recovers as before; a delta that removes nodes, or touches one
    the log does not hold, is refused typed."""

    def logged(self, tmp_path, rewrite):
        """The version-3 fixture — a checkpoint past a GC rebase, delta
        lines, a record suffix — each delta line passed through
        ``rewrite``."""
        path = v3.copied(tmp_path, "doc.wal")
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        deltas = [i for i, line in enumerate(lines) if '"delta"' in line]
        assert deltas and deltas[-1] < len(lines) - 1
        for i in deltas:
            obj = json.loads(lines[i])
            rewrite(obj["delta"])
            lines[i] = json.dumps(obj, sort_keys=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return path

    def test_a_log_with_empty_removed_lists_recovers_the_live_shard(
        self, tmp_path
    ):
        path = self.logged(tmp_path, lambda d: d.update(removed=[]))
        rebuilt = ShardCore("doc", load_wal(path), path)
        assert rebuilt.server.oracle.last_serial == v3.expected()["records"]
        signature = document_signature(rebuilt.server.document)
        assert signature == v3.expected()["signature"]

    def test_a_delta_that_removes_nodes_is_refused(self, tmp_path):
        path = self.logged(tmp_path, lambda d: d.update(removed=[0]))
        with pytest.raises(ProtocolError, match="removes nodes"):
            ShardCore("doc", load_wal(path))

    def test_a_delta_touching_a_node_the_log_lacks_is_refused(self, tmp_path):
        path = self.logged(
            tmp_path,
            lambda d: d["touched"].append({"id": 999, "children": []}),
        )
        with pytest.raises(ProtocolError, match="999"):
            ShardCore("doc", load_wal(path))


def test_the_core_imports_no_event_loop_no_socket_and_no_net_package():
    probe = (
        "import sys, repro.jupiter.shard; "
        "bad = {'asyncio', 'socket', 'repro.net'} & set(sys.modules); "
        "assert not bad, bad"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))}
    subprocess.run([sys.executable, "-c", probe], check=True, env=env)


def test_the_replica_core_is_as_pure_and_is_exported():
    """The replication rules run under the simulator and under asyncio
    alike: their module may know neither."""
    probe = (
        "import sys, repro.jupiter.replication; "
        "bad = {'asyncio', 'socket', 'repro.net'} & set(sys.modules); "
        "assert not bad, bad; "
        "from repro.jupiter import Replica; "
        "assert Replica is repro.jupiter.replication.Replica"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))}
    subprocess.run([sys.executable, "-c", probe], check=True, env=env)


def test_a_client_imports_what_it_uses():
    """``import repro.net.client`` is what every spawned ``repro
    connect`` and every ledger worker pays before ``main()``: the package
    ``__init__``s resolve their exports lazily, so it must not drag in
    the fleet, the load generators or the protocol zoo."""
    probe = (
        "import sys, repro.net.client; "
        "bad = {'repro.net.fleet', 'repro.net.loadgen', "
        "'repro.net.chaosproxy', 'repro.sim.fuzz', 'repro.jupiter.broken', "
        "'repro.analysis.equivalence'} & set(sys.modules); "
        "assert not bad, bad"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))}
    subprocess.run([sys.executable, "-c", probe], check=True, env=env)
