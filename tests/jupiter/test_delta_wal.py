"""Serial-encoded record contexts, and checkpoints of the log that holds them.

WAL records carry the ``[d, n]`` serial encoding of their contexts
instead of O(history) absolute ones.  These tests drive a live CSS
cluster mirrored into a :class:`ServerWriteAheadLog` and check that a
checkpoint — the document at the GC base plus the records past it —
recovers the live server, including after active-window GC rebased the
floor.  The delta lines of the previous format live only in the
converter; ``TestDeltaDisk`` checks what it makes of them, on the
version-3 fixture (``tests/jupiter/wal_v3_three_writers.wal``).
"""

import json

import pytest

from repro import obs
from repro.common import OpId
from repro.errors import ProtocolError
from repro.jupiter.css import CssClient, CssServer
from repro.net.codec import document_signature
from repro.jupiter.messages import ClientOperation
from repro.jupiter.ordering import ServerOrderOracle
from repro.jupiter.persistence import (
    ServerWriteAheadLog,
    append_wal_record,
    compact_context,
    load_wal,
    record_operation,
    save_wal,
    snapshot_server,
    wal_record_to_obj,
)
from repro.model.schedule import OpSpec
from repro.ot import insert
from tests.jupiter import test_wal_v3_conversion as v3


@pytest.fixture(autouse=True)
def _observability_left_disabled():
    yield
    obs.disable()


class Rig:
    """Two CSS clients + server, server traffic mirrored into a WAL."""

    def __init__(self):
        self.names = ["c1", "c2"]
        self.server = CssServer("server", self.names)
        self.clients = {name: CssClient(name) for name in self.names}
        self.wal = ServerWriteAheadLog(
            "server", self.names
        )
        self.steps = 0

    def _ship(self, origin, outgoing):
        operation = outgoing.operation
        broadcasts = self.server.receive(origin, outgoing)
        ctx = compact_context(operation, self.server.oracle)
        self.wal.append(
            self.server.oracle.last_serial, origin, operation, ctx=ctx
        )
        for target, broadcast in broadcasts:
            self.clients[target].receive(broadcast)

    def step(self, count=1):
        for _ in range(count):
            origin = self.names[self.steps % 2]
            value = chr(ord("a") + self.steps % 26)
            result = self.clients[origin].generate(
                OpSpec(kind="ins", position=0, value=value)
            )
            self._ship(origin, result.outgoing)
            self.steps += 1

    def step_concurrent(self):
        """c1 generates two ops; c2's op is serialised between them.

        The second c1 operation's context then has a serial gap — its
        compact encoding needs an "extras" entry, not just ``d``.
        """
        first = self.clients["c1"].generate(
            OpSpec(kind="ins", position=0, value="x")
        )
        second = self.clients["c1"].generate(
            OpSpec(kind="ins", position=0, value="y")
        )
        wedge = self.clients["c2"].generate(
            OpSpec(kind="ins", position=0, value="z")
        )
        self._ship("c2", wedge.outgoing)
        self._ship("c1", first.outgoing)
        self._ship("c1", second.outgoing)
        self.steps += 3

    def rebase(self, serial):
        self.server.rebase_to_serial(serial)
        for client in self.clients.values():
            client.rebase_to_serial(serial)

    def assert_recovers(self):
        recovered = self.wal.recover()
        assert recovered.space.signature() == self.server.space.signature()
        assert recovered.document.as_string() == (
            self.server.document.as_string()
        )
        assert recovered.oracle.last_serial == self.wal.last_serial
        return recovered


class TestCompactContext:
    def build_oracle(self, count=5):
        oracle = ServerOrderOracle()
        opids = [OpId(f"c{i % 2 + 1}", i // 2 + 1) for i in range(count)]
        for opid in opids:
            oracle.assign(opid)
        return oracle, opids

    def test_dense_context_has_no_extras(self):
        oracle, opids = self.build_oracle()
        op = insert(OpId("c9", 1), "v", 0, context=set(opids[:3]))
        assert compact_context(op, oracle) == [3, 0]

    def test_gap_becomes_extras(self):
        oracle, opids = self.build_oracle()
        # c2's third op saw serials 1-2 and its own c2.2 (serial 4)
        op = insert(OpId("c2", 3), "v", 0, context={*opids[:2], opids[3]})
        encoded = compact_context(op, oracle)
        assert encoded == [2, 1]
        assert oracle.key_from_run(*encoded, op.opid) == frozenset(
            {*opids[:2], opids[3]}
        )

    def test_a_gap_that_is_not_the_generators_run_is_refused(self):
        oracle, opids = self.build_oracle()
        op = insert(
            OpId("c9", 1), "v", 0, context={*opids[:3], opids[4]}
        )
        with pytest.raises(ProtocolError, match="not the run before"):
            compact_context(op, oracle)

    def test_decode_is_rebase_invariant(self):
        oracle, opids = self.build_oracle()
        op = insert(OpId("c9", 1), "v", 0, context={*opids[:4]})
        encoded = compact_context(op, oracle)
        full = oracle.key_from_run(*encoded, op.opid)
        oracle.trim_below(2)
        trimmed = oracle.key_from_run(*encoded, op.opid)
        assert trimmed == full - frozenset(opids[:2])

    def test_floor_below_decoder_base_rejected(self):
        oracle, _ = self.build_oracle()
        oracle.trim_below(3)
        with pytest.raises(ProtocolError):
            oracle.key_from_run(2, 0, OpId("c9", 1))

    def test_record_round_trip(self):
        oracle, opids = self.build_oracle()
        op = insert(OpId("c2", 3), "v", 0, context={*opids[:2], opids[3]})
        record = wal_record_to_obj(
            6, "c2", op, ctx=compact_context(op, oracle)
        )
        assert "context" not in record["operation"]
        oracle.assign(op.opid)
        assert record_operation(record, oracle) == op

    def test_compact_record_needs_an_oracle(self):
        oracle, opids = self.build_oracle()
        op = insert(OpId("c9", 1), "v", 0, context=set(opids[:2]))
        record = wal_record_to_obj(
            6, "c9", op, ctx=compact_context(op, oracle)
        )
        with pytest.raises(ProtocolError):
            record_operation(record)


class TestDeltaCompaction:
    def test_the_first_compaction_is_full(self):
        """Every compaction rewrites the whole log: the base document
        plus the records past it."""
        rig = Rig()
        rig.step(4)
        rig.rebase(2)
        assert rig.wal.compact(rig.server) == 2
        assert rig.wal.last_compaction_mode == "full"
        assert [r["serial"] for r in rig.wal.records] == [3, 4]
        assert rig.assert_recovers().oracle.base == 2

    def test_concurrent_extras_survive_recovery(self):
        # Replay compact-context records with extras: the burst lands
        # after the checkpoint, so recovery must decode the serial gap
        # through the oracle it seated at the base.
        rig = Rig()
        rig.step(3)
        rig.rebase(3)
        rig.wal.compact(rig.server)
        rig.step_concurrent()
        rig.assert_recovers()
        rig.step(2)
        rig.rebase(7)
        rig.wal.compact(rig.server)
        rig.step_concurrent()
        assert rig.assert_recovers().oracle.base == 7

    def test_running_counts_equal_the_walk_after_restore(self):
        rig = Rig()
        for _ in range(3):
            rig.step(5)
            rig.step_concurrent()
            rig.rebase(rig.wal.last_serial - 2)
            rig.wal.compact(rig.server)
        rig.step(3)
        live = rig.wal.origin_counts()
        restored = ServerWriteAheadLog.from_obj(rig.wal.to_obj())
        assert restored.origin_counts() == live == {"c1": 17, "c2": 10}


class TestEpochSurvivesCompaction:
    """A log whose records a compaction truncated still knows the epoch
    of its last serial — restored in memory, from disk, and after a cut."""

    def compacted(self):
        wal = ServerWriteAheadLog("s", ["c1"])
        self.server = CssServer("s", ["c1"])
        self.write(wal, (1, 2, 3), epoch=3)
        self.server.rebase_to_serial(3)
        wal.compact(self.server)
        assert wal.records == [] and wal.last_epoch == 3
        return wal

    def write(self, wal, seqs, epoch):
        for seq in seqs:
            context = self.server.space.final_key
            operation = insert(OpId("c1", seq), "x", 0, context)
            self.server.receive("c1", ClientOperation(operation))
            ctx = compact_context(operation, self.server.oracle)
            wal.append(seq, "c1", operation, epoch=epoch, ctx=ctx)

    def refuses_a_stale_append(self, wal):
        operation = insert(OpId("c1", 4), "y", 0, context=set())
        with pytest.raises(ProtocolError, match="stale epoch 1 < 3"):
            wal.append(4, "c1", operation, epoch=1, ctx=[3, 0])

    def test_in_memory_round_trip(self):
        restored = ServerWriteAheadLog.from_obj(self.compacted().to_obj())
        assert restored.last_epoch == 3
        self.refuses_a_stale_append(restored)

    def test_on_disk_round_trip(self, tmp_path):
        path = str(tmp_path / "s.wal")
        wal = self.compacted()
        save_wal(wal, path)
        loaded = load_wal(path)
        assert loaded.last_epoch == 3
        self.refuses_a_stale_append(loaded)
        # ...and through a checkpoint that truncated every later record
        self.write(wal, (4, 5), epoch=4)
        with open(path, "a", encoding="utf-8") as handle:
            for record in wal.records:
                append_wal_record(handle, record)
        assert load_wal(path).last_epoch == 4
        self.server.rebase_to_serial(5)
        wal.compact(self.server)
        save_wal(wal, path)
        assert wal.records == [] and load_wal(path).last_epoch == 4

    def test_a_header_from_before_the_epoch_field_still_loads(self, tmp_path):
        """A version-3 header whose snapshot carries no epoch converts."""
        self.server = CssServer("s", ["c1"])
        self.write(ServerWriteAheadLog("s", ["c1"]), (1, 2, 3), epoch=3)
        snapshot = snapshot_server(self.server)
        header = {
            "version": 3, "replica": "s", "clients": ["c1"],
            "checkpoint_every": 16, "snapshot_every": 16,
            "snapshot": snapshot, "deltas": [], "next_serial": 4,
        }
        path = tmp_path / "s.wal"
        path.write_text(json.dumps(header) + "\n", encoding="utf-8")
        restored = load_wal(str(path))
        assert restored.last_epoch == 0  # such a header never recorded it
        assert restored.last_serial == 3
        assert restored.origin_counts() == {"c1": 3}
        assert restored.recover().document.as_string() == "xxx"


class TestDeltaDisk:
    """The converter's rules for the delta lines of a version-3 file."""

    def fixture_lines(self):
        with open(v3.FIXTURE, encoding="utf-8") as handle:
            return handle.read().splitlines()

    def loaded(self, tmp_path, lines):
        path = tmp_path / "server.wal"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return load_wal(str(path))

    def last_delta(self, lines):
        return max(i for i, line in enumerate(lines) if '"delta"' in line)

    def test_header_deltas_round_trip(self, tmp_path):
        """Delta lines folded into the header convert as they did apart."""
        lines = self.fixture_lines()
        header = json.loads(lines[0])
        cut = self.last_delta(lines)
        header["deltas"] = [
            json.loads(line)["delta"] for line in lines[1:cut + 1]
            if '"delta"' in line
        ]
        floor = header["deltas"][-1]["floor"]
        kept = [
            line for line in lines[1:cut + 1]
            if '"delta"' not in line and json.loads(line)["serial"] > floor
        ]
        folded = [json.dumps(header), *kept, *lines[cut + 1:]]
        apart = self.loaded(tmp_path, lines)
        assert self.loaded(tmp_path, folded).to_obj() == apart.to_obj()
        assert apart.last_serial == v3.expected()["records"]

    def test_appended_delta_line_truncates_records(self, tmp_path):
        """A delta line drops the records at or below its floor, so the
        converter replays only the ones past it."""
        lines = self.fixture_lines()
        cut = self.last_delta(lines)
        wal = self.loaded(tmp_path, lines[:cut + 1])
        assert wal.last_serial == json.loads(lines[cut])["delta"]["upto"]
        assert wal.records == []
        # The records between the last delta and the file's end replay on top.
        full = self.loaded(tmp_path, lines).recover()
        assert document_signature(full.document) == v3.expected()["signature"]

    def test_torn_delta_tail_is_lossless(self, tmp_path):
        lines = self.fixture_lines()
        cut = self.last_delta(lines)
        whole = self.loaded(tmp_path, lines[:cut]).to_obj()
        handle = obs.enable(reset=True)
        with pytest.warns(RuntimeWarning, match="torn"):
            torn = self.loaded(
                tmp_path, lines[:cut] + [lines[cut][: len(lines[cut]) // 2]]
            )
        assert handle.wal_torn_tail_dropped.value == 1
        # The delta is gone but every record it covered is still there.
        assert torn.to_obj() == whole

    def test_torn_delta_in_the_middle_refuses_to_load(self, tmp_path):
        lines = self.fixture_lines()
        cut = self.last_delta(lines)
        lines[cut] = lines[cut][: len(lines[cut]) // 2]
        with pytest.raises(ProtocolError, match="mid-log"):
            self.loaded(tmp_path, lines)
