"""Incremental WAL compaction and serial-encoded record contexts.

The flat-throughput work replaces "rewrite the whole state-space every
compaction" with a chain of delta snapshots hanging off a periodic full
checkpoint, and replaces O(history) absolute contexts in WAL records
with the ``[d, n]`` serial encoding.  These tests drive a live CSS
cluster mirrored into a :class:`ServerWriteAheadLog` and check that
recovery from checkpoint + deltas + record suffix is byte-equivalent to
the live server — including after active-window GC rebased the floor,
and including a torn final delta line on disk.
"""

import json

import pytest

from repro import obs
from repro.common import OpId
from repro.errors import ProtocolError
from repro.jupiter import persistence
from repro.jupiter.css import CssClient, CssServer
from repro.jupiter.messages import ClientOperation
from repro.jupiter.ordering import ServerOrderOracle
from repro.jupiter.persistence import (
    ServerWriteAheadLog,
    append_wal_delta,
    append_wal_record,
    compact_context,
    load_wal,
    record_operation,
    save_wal,
    wal_record_to_obj,
)
from repro.model.schedule import OpSpec
from repro.ot import insert


@pytest.fixture(autouse=True)
def _observability_left_disabled():
    yield
    obs.disable()


class Rig:
    """Two CSS clients + server, server traffic mirrored into a WAL."""

    def __init__(self, snapshot_every=100):
        self.names = ["c1", "c2"]
        self.server = CssServer("server", self.names)
        self.clients = {name: CssClient(name) for name in self.names}
        self.wal = ServerWriteAheadLog(
            "server", self.names, snapshot_every=snapshot_every
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
    def test_second_compaction_is_a_delta(self):
        rig = Rig()
        rig.step(4)
        rig.wal.compact(rig.server)
        assert rig.wal.last_compaction_mode == "full"
        rig.step(3)
        rig.wal.compact(rig.server)
        assert rig.wal.last_compaction_mode == "delta"
        assert len(rig.wal.deltas) == 1
        assert rig.wal.last_delta["upto"] == 7
        rig.assert_recovers()

    def test_delta_chain_with_retained_records_recovers(self):
        rig = Rig()
        for _ in range(4):
            rig.step(3)
            rig.wal.compact(rig.server, retain_after=rig.wal.last_serial - 2)
        assert rig.wal.last_compaction_mode == "delta"
        assert len(rig.wal.records) == 2
        recovered = rig.assert_recovers()
        assert recovered.space.signature() == rig.server.space.signature()

    def test_the_first_compaction_is_full(self):
        rig = Rig()
        rig.step(2)
        rig.wal.compact(rig.server)
        assert rig.wal.last_compaction_mode == "full"
        assert rig.wal.deltas == []
        rig.assert_recovers()

    def test_forty_compactions_without_a_rebase_are_deltas(self):
        rig = Rig()
        rig.step(2)
        rig.wal.compact(rig.server)
        modes = []
        for _ in range(40):
            rig.step(2)
            rig.wal.compact(rig.server)
            modes.append(rig.wal.last_compaction_mode)
        assert modes == ["delta"] * 40
        assert len(rig.wal.deltas) == 40
        rig.assert_recovers()

    def test_a_restored_log_checkpoints_full_then_deltas(self):
        rig = Rig()
        rig.step(2)
        rig.wal.compact(rig.server)
        rig.step(2)
        rig.wal.compact(rig.server)
        rig.wal = ServerWriteAheadLog.from_obj(rig.wal.to_obj())
        modes = []
        for _ in range(3):
            rig.step(2)
            rig.wal.compact(rig.server)
            modes.append(rig.wal.last_compaction_mode)
        assert modes == ["full", "delta", "delta"]
        rig.assert_recovers()

    def test_rebase_forces_a_full_checkpoint(self):
        rig = Rig()
        rig.step(4)
        rig.wal.compact(rig.server)
        rig.step(2)
        rig.wal.compact(rig.server)
        assert rig.wal.last_compaction_mode == "delta"
        rig.step(2)
        rig.rebase(6)
        rig.step(2)
        rig.wal.compact(rig.server)
        assert rig.wal.last_compaction_mode == "full"
        assert rig.wal.snapshot["base"] == 6
        recovered = rig.assert_recovers()
        assert recovered.oracle.base == 6
        rig.step(2)
        rig.wal.compact(rig.server)
        assert rig.wal.last_compaction_mode == "delta"
        rig.assert_recovers()

    def test_a_prune_without_a_rebase_forces_a_full_checkpoint(self):
        """A delta only adds: once ``prune_below`` took nodes out of the
        space, the next compaction is a full checkpoint, and the diff
        base it leaves behind resumes deltas."""
        rig = Rig()
        rig.step(4)
        rig.wal.compact(rig.server)
        rig.step(2)
        oracle = rig.server.oracle
        assert rig.server.space.prune_below(oracle.opids_between(0, 3)) > 0
        rig.wal.compact(rig.server)
        assert rig.wal.last_compaction_mode == "full"
        assert rig.wal.deltas == [] and "base" not in rig.wal.snapshot
        rig.assert_recovers()
        rig.step(2)
        rig.wal.compact(rig.server)
        assert rig.wal.last_compaction_mode == "delta"
        assert "removed" not in rig.wal.last_delta
        rig.assert_recovers()

    def test_concurrent_extras_survive_recovery(self):
        # Replay (not just restore) compact-context records with extras:
        # the burst lands *after* the last compaction, so recovery must
        # decode the serial gap through the restored oracle.
        rig = Rig()
        rig.step(3)
        rig.wal.compact(rig.server)
        rig.step_concurrent()
        rig.assert_recovers()
        rig.step(2)
        rig.wal.compact(rig.server)
        assert rig.wal.last_compaction_mode == "delta"
        rig.step_concurrent()
        rig.assert_recovers()

    def test_obj_round_trip_restarts_the_chain_full(self):
        rig = Rig()
        rig.step(4)
        rig.wal.compact(rig.server)
        rig.step(2)
        rig.wal.compact(rig.server)
        clone = ServerWriteAheadLog.from_obj(rig.wal.to_obj())
        assert clone.deltas == rig.wal.deltas
        recovered = clone.recover()
        assert recovered.space.signature() == rig.server.space.signature()
        rig_server = rig.server
        clone.compact(rig_server)
        assert clone.last_compaction_mode == "full"
        assert clone.deltas == []

    def test_origin_counts_survive_trim_and_deltas(self):
        rig = Rig()
        rig.step(6)
        rig.rebase(5)
        rig.wal.compact(rig.server)
        rig.step(4)
        rig.wal.compact(rig.server)
        assert rig.wal.last_compaction_mode == "delta"
        counts = rig.wal.origin_counts()
        assert counts == {"c1": 5, "c2": 5}

    def test_running_counts_equal_the_walk_after_restore(self):
        rig = Rig()
        for retained in (0, 2, 0):
            rig.step(5)
            rig.step_concurrent()
            rig.wal.compact(
                rig.server, retain_after=rig.wal.last_serial - retained
            )
        rig.step(3)
        live = rig.wal.origin_counts()
        restored = ServerWriteAheadLog.from_obj(rig.wal.to_obj())
        assert restored.origin_counts() == live == {"c1": 17, "c2": 10}


class TestEpochSurvivesCompaction:
    """A log whose records a compaction truncated still knows the epoch
    of its last serial — restored in memory, from disk, and after a cut."""

    def compacted(self):
        wal = ServerWriteAheadLog("s", ["c1"], snapshot_every=1)
        self.server = CssServer("s", ["c1"])
        self.write(wal, (1, 2, 3), epoch=3)
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
        # ...and through a delta line that truncated every later record
        self.write(wal, (4, 5), epoch=4)
        with open(path, "a", encoding="utf-8") as handle:
            for record in wal.records:
                append_wal_record(handle, record)
            wal.compact(self.server)
            assert wal.last_compaction_mode == "delta" and wal.records == []
            append_wal_delta(handle, wal.last_delta)
        assert load_wal(path).last_epoch == 4

    def test_a_header_from_before_the_epoch_field_still_loads(self):
        obj = self.compacted().to_obj()
        del obj["snapshot"]["epoch"]
        obj["checkpoint_every"] = 16
        restored = ServerWriteAheadLog.from_obj(obj)
        assert restored.last_epoch == 0  # such a header never recorded it
        assert restored.last_serial == 3
        assert restored.origin_counts() == {"c1": 3}
        assert restored.recover().document.as_string() == "xxx"


class TestDeltaDisk:
    def saved(self, tmp_path, rig):
        path = tmp_path / "server.wal"
        save_wal(rig.wal, str(path))
        return path

    def test_header_deltas_round_trip(self, tmp_path):
        rig = Rig()
        rig.step(4)
        rig.wal.compact(rig.server)
        rig.step(3)
        rig.wal.compact(rig.server)
        rig.step(2)
        path = self.saved(tmp_path, rig)
        loaded = load_wal(str(path))
        assert loaded.deltas == rig.wal.deltas
        assert loaded.last_serial == rig.wal.last_serial
        recovered = loaded.recover()
        assert recovered.space.signature() == rig.server.space.signature()

    def test_appended_delta_line_truncates_records(self, tmp_path):
        rig = Rig()
        rig.step(4)
        rig.wal.compact(rig.server)
        path = self.saved(tmp_path, rig)
        # The disk layer appends records as lines, then a delta line,
        # then more records — a full rewrite only on full checkpoints.
        with open(path, "a", encoding="utf-8") as handle:
            rig.step(3)
            for record in rig.wal.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            rig.wal.compact(rig.server)
            assert rig.wal.last_compaction_mode == "delta"
            handle.write(
                json.dumps({"delta": rig.wal.last_delta}, sort_keys=True)
                + "\n"
            )
        loaded = load_wal(str(path))
        assert loaded.records == []
        assert loaded.last_serial == 7
        recovered = loaded.recover()
        assert recovered.space.signature() == rig.server.space.signature()

    def test_torn_delta_tail_is_lossless(self, tmp_path):
        rig = Rig()
        rig.step(4)
        rig.wal.compact(rig.server)
        path = self.saved(tmp_path, rig)
        with open(path, "a", encoding="utf-8") as handle:
            rig.step(3)
            for record in rig.wal.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            rig.wal.compact(rig.server)
            line = json.dumps({"delta": rig.wal.last_delta}, sort_keys=True)
            handle.write(line[: len(line) // 2])  # crash mid-write
        handle = obs.enable(reset=True)
        with pytest.warns(RuntimeWarning, match="torn"):
            loaded = load_wal(str(path))
        assert handle.wal_torn_tail_dropped.value == 1
        # The delta is gone but every record it covered is still there.
        assert loaded.deltas == []
        assert loaded.last_serial == 7
        recovered = loaded.recover()
        assert recovered.space.signature() == rig.server.space.signature()

    def test_torn_delta_in_the_middle_refuses_to_load(self, tmp_path):
        rig = Rig()
        rig.step(4)
        rig.wal.compact(rig.server)
        path = self.saved(tmp_path, rig)
        with open(path, "a", encoding="utf-8") as handle:
            rig.step(2)
            record_lines = [
                json.dumps(r, sort_keys=True) for r in rig.wal.records
            ]
            rig.wal.compact(rig.server)
            line = json.dumps({"delta": rig.wal.last_delta}, sort_keys=True)
            handle.write(line[: len(line) // 2] + "\n")
            handle.write(record_lines[0] + "\n")
        with pytest.raises(ProtocolError, match="mid-log"):
            load_wal(str(path))


class TestCompactionCostsWhatChanged:
    """A count guard, no timing: a delta compaction serialises the nodes
    that changed since the previous one, whatever the window holds."""

    @staticmethod
    def edit(server, writer, wal):
        outgoing = writer.generate(OpSpec("ins", 0, "x")).outgoing
        for _target, broadcast in server.receive("w1", outgoing):
            writer.receive(broadcast)
        wal.append(
            server.oracle.last_serial,
            "w1",
            outgoing.operation,
            ctx=compact_context(outgoing.operation, server.oracle),
        )

    def grow(self, window, snapshot_every=64):
        """One writer, no GC: the window is every node ever created.

        Returns, per delta compaction, the nodes it serialised (read off
        ``repro_wal_snapshot_nodes_total{mode="delta"}``, the instrument
        production scrapes) and the bytes of its on-disk line.
        """
        handle = obs.enable(reset=True)
        server = CssServer("server", ["w1"])
        writer = CssClient("w1")
        wal = ServerWriteAheadLog(
            "server", ["w1"], snapshot_every=snapshot_every
        )
        counter = handle.wal_snapshot_nodes.labels("delta")
        deltas = []
        for _ in range(window):
            self.edit(server, writer, wal)
            if wal.should_compact():
                before = counter.value
                wal.compact(server)
                if wal.last_compaction_mode == "delta":
                    line = json.dumps({"delta": wal.last_delta}, sort_keys=True)
                    deltas.append((counter.value - before, len(line)))
        assert server.space.node_count() == window + 1
        assert wal.snapshot_nodes["delta"] == counter.value
        # One full checkpoint, the first compaction: 64 ops, 65 nodes.
        assert wal.snapshot_nodes["full"] == 65 == (
            handle.wal_snapshot_nodes.labels("full").value
        )
        return deltas

    def test_delta_serialises_changed_nodes_at_every_window_size(self):
        line_bytes = {}
        for window in (128, 256, 512):
            deltas = self.grow(window)
            assert len(deltas) == window // 64 - 1
            # 64 new nodes, plus the one old node that grew a child.
            assert [count for count, _ in deltas] == [65] * len(deltas)
            line_bytes[window] = deltas[-1][1]
        # Ids, serials and keys are not in a line per unchanged node: the
        # last line at 512 nodes is the size of the last one at 128, give
        # or take a digit per number.
        assert line_bytes[512] <= 1.05 * line_bytes[128]

    def test_a_delta_reads_no_serial_of_the_window_back(self, monkeypatch):
        """The per-origin counts are kept by the appends: a delta at a
        2,000-node window decodes no stored opid."""
        server, writer = CssServer("server", ["w1"]), CssClient("w1")
        wal = ServerWriteAheadLog("server", ["w1"], snapshot_every=64)
        for _ in range(2048):
            self.edit(server, writer, wal)
            if wal.should_compact():
                wal.compact(server)
        for _ in range(64):
            self.edit(server, writer, wal)
        decoded = []
        monkeypatch.setattr(persistence, "opid_from_obj", decoded.append)
        wal.compact(server)
        assert wal.last_compaction_mode == "delta"
        assert server.space.node_count() > 2000
        assert decoded == []
        assert wal.origin_counts() == {"w1": 2112}
