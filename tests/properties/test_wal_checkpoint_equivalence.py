"""Property suite: a checkpoint recovers exactly the live server.

A checkpoint is the document at the GC base plus the records past it;
Proposition 6.6 (replicas that processed the same operations have the
same n-ary state space) is what lets recovery replay those records from
that document instead of storing the window.  Each seeded run drives
three concurrent writers against the deployed
:class:`~repro.jupiter.shard.ShardCore` — its ``serialise``, its
decodability fixpoint and its ``collect`` — with a disk file under it.
The writers are deployed client cores
(:class:`~repro.jupiter.client_core.ClientCore`) on encoded frames, so
a GC pass collects at the pins they report themselves with their ops in
flight, and every such op must decode.  At every ``collect``, and at
random points between rebases, the server recovered from the log — via
``to_obj``/``from_obj`` and via ``load_wal`` of its file — must equal
the live one: state-space signature, final key, the serial order past
the base, every state's document and every transition's ``Operation``.
"""

import json
import random

import pytest

from repro.errors import ProtocolError
from repro.jupiter.client_core import ClientCore
from repro.jupiter.persistence import (
    ServerWriteAheadLog,
    load_wal,
    restore_server,
    snapshot_server,
)
from repro.jupiter.shard import ShardCore
from repro.model.schedule import OpSpec
from repro.net.codec import (
    compact_client_op_obj,
    compact_server_op_obj,
    message_from_wire,
)
from tests.jupiter import test_wal_v3_conversion as v3

NAMES = ["c1", "c2", "c3"]


class Driver:
    """A seeded interleaving of edits, deliveries and GC passes."""

    def __init__(self, seed, path):
        self.rng = random.Random(seed)
        self.clients = {
            name: ClientCore(name, message_from_wire) for name in NAMES
        }
        self.wal = ServerWriteAheadLog("server", NAMES)
        self.shard = ShardCore("doc", self.wal, str(path))
        self.shard.rewrite_disk()
        self.server = self.shard.server
        for session in self.shard.sessions.values():
            session.disconnected_at = None  # the whole roster is connected
        #: data frames in flight, each ``(seq, ack, pin or floor, body)``
        self.uplink = {name: [] for name in NAMES}
        self.downlink = {name: [] for name in NAMES}
        self.rebases = 0
        #: the replication epoch the shard serialises under (monotone)
        self.epoch = 0

    # -- traffic -------------------------------------------------------
    def edit(self, name):
        core = self.clients[name]
        length = len(core.css.document)
        if length and self.rng.random() < 0.3:
            spec = OpSpec("del", self.rng.randrange(length))
        else:
            spec = OpSpec(
                "ins", self.rng.randrange(length + 1), self.rng.choice("xyz")
            )
        seq, _result = core.generate(spec)
        body = compact_client_op_obj(core.unacked[seq], core.css.oracle)
        self.uplink[name].append((seq, core.delivered, core.pin, body))

    def serialise(self, name):
        seq, ack, pin, body = self.uplink[name].pop(0)
        origin = self.shard.sessions[name]
        origin.report_pin(pin)
        for released in self.shard.accept(origin, seq, ack, body):
            payload = message_from_wire(released, self.server.oracle)
            serial, ctx, fanout = self.shard.serialise(
                origin, payload, self.epoch
            )
            out = compact_server_op_obj(fanout[0][1], ctx)
            floor = self.server.base
            for session, _broadcast in fanout:
                ack = self.shard.ack_for(session)
                self.downlink[session.client].append((serial, ack, floor, out))

    def deliver(self, name):
        serial, ack, floor, body = self.downlink[name].pop(0)
        self.clients[name].data(serial, ack, self.epoch, floor, body)

    def drain(self):
        while any(self.uplink.values()) or any(self.downlink.values()):
            for name in NAMES:
                while self.uplink[name]:
                    self.serialise(name)
                while self.downlink[name]:
                    self.deliver(name)

    # -- GC ------------------------------------------------------------
    def rebase(self):
        """The deployed GC pass with ops still in flight: every core
        reports its own pin, ``collect`` lowers the least to a decodable
        floor, rebases and checkpoints, and an ack carries the floor back
        — ahead of any broadcast still in flight."""
        pins = {name: core.pin for name, core in self.clients.items()}
        for name, pin in pins.items():
            self.shard.sessions[name].report_pin(pin)
        _base, floor, _pruned = self.shard.collect(0.0, 0.0, threshold=0)
        assert floor == self.server.oracle.base <= min(pins.values())
        for name, core in self.clients.items():
            ack = self.shard.ack_for(self.shard.sessions[name])
            core.ack(ack, self.epoch, floor)
        self.rebases += 1

    def run(self, actions, check):
        for _ in range(actions):
            roll = self.rng.random()
            name = self.rng.choice(NAMES)
            if roll < 0.42:
                self.edit(name)
            elif roll < 0.66:
                if self.uplink[name]:
                    self.serialise(name)
                    if self.rng.random() < 0.1:
                        check(self)  # recovery replays a record suffix
            elif roll < 0.92:
                if self.downlink[name]:
                    self.deliver(name)
            else:
                self.rebase()
                check(self)
        self.drain()
        self.rebase()
        check(self)


def assert_same_server(restored, live):
    assert restored.space.signature() == live.space.signature()
    assert restored.space.final_key == live.space.final_key
    assert restored.oracle.base == live.oracle.base
    assert restored.oracle.serial_items(
        after=restored.oracle.base
    ) == live.oracle.serial_items(after=live.oracle.base)
    assert [
        (key, document.as_string(), [e.opid for e in document])
        for key, document in restored.space.iter_documents()
    ] == [
        (key, document.as_string(), [e.opid for e in document])
        for key, document in live.space.iter_documents()
    ]
    # Full Operation equality: kind, opid, element, position *and* the
    # context the records leave out.
    assert [t.operation for t in restored.space.transitions()] == [
        t.operation for t in live.space.transitions()
    ]
    assert restored.space.ot_count == live.space.ot_count


def check_restores(driver):
    live = driver.server
    via_obj = ServerWriteAheadLog.from_obj(
        json.loads(json.dumps(driver.wal.to_obj()))
    )
    assert_same_server(via_obj.recover(), live)
    on_disk = load_wal(driver.shard.wal_path)
    assert on_disk.to_obj() == via_obj.to_obj()
    assert_same_server(on_disk.recover(), live)


@pytest.mark.parametrize("seed", range(30))
def test_restore_equals_live_server(seed, tmp_path):
    driver = Driver(seed, tmp_path / "doc.wal")
    driver.run(200, check_restores)
    assert driver.rebases >= 2 and driver.server.base > 0


def test_the_suite_reaches_every_path(tmp_path):
    """Across the seeds: rebases that dropped records, checkpoints with
    records past the base, and records whose context carries a run."""
    dropped = past_base = runs = 0
    for seed in range(10):
        driver = Driver(seed, tmp_path / f"doc{seed}.wal")

        def probe(driver):
            nonlocal past_base, runs
            past_base += bool(driver.wal.records)
            runs += any(r["ctx"][1] for r in driver.wal.records)

        driver.run(200, probe)
        dropped += driver.wal.records_truncated > 0
    assert dropped == 10 and past_base and runs


class TestDiskDamage:
    """``load_wal``'s torn-tail and mid-log rules, on version-4 record
    lines and, through the converter, on version-3 delta lines."""

    def build(self, tmp_path):
        driver = Driver(7, tmp_path / "doc.wal")
        for name in NAMES * 3:
            driver.edit(name)
        driver.drain()
        driver.rebase()  # the checkpoint: rewrites the file
        for name in NAMES * 2:
            driver.edit(name)
        driver.drain()  # six record lines after the header
        path = tmp_path / "doc.wal"
        assert len(path.read_text(encoding="utf-8").splitlines()) == 7
        return driver, path

    def test_torn_final_record_is_dropped(self, tmp_path):
        driver, path = self.build(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text(
            "\n".join(lines[:-1] + [lines[-1][:25]]), encoding="utf-8"
        )
        with pytest.warns(RuntimeWarning, match="torn"):
            loaded = load_wal(str(path))
        assert loaded.last_serial == driver.wal.last_serial - 1
        assert loaded.base == driver.wal.base > 0
        loaded.recover()

    def test_damaged_record_mid_log_refuses_to_load(self, tmp_path):
        _driver, path = self.build(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ProtocolError, match="mid-log"):
            load_wal(str(path))

    def test_record_missing_a_field_is_not_a_record(self, tmp_path):
        _driver, path = self.build(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[2])
        del record["ctx"]
        lines[2] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ProtocolError, match="mid-log"):
            load_wal(str(path))

    # The same rules on the delta lines of a version-3 file, which the
    # converter reads: the checked-in fixture.
    def v3_lines(self, tmp_path):
        path = tmp_path / "v3.wal"
        v3.copied(tmp_path, path.name)
        lines = path.read_text(encoding="utf-8").splitlines()
        last = max(i for i, line in enumerate(lines) if '"delta"' in line)
        return path, lines, last

    def test_torn_final_delta_is_lossless(self, tmp_path):
        path, lines, last = self.v3_lines(tmp_path)
        path.write_text("\n".join(lines[:last]), encoding="utf-8")
        whole = load_wal(str(path))
        torn = lines[last][: len(lines[last]) // 2]
        path.write_text("\n".join(lines[:last] + [torn]), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="torn"):
            loaded = load_wal(str(path))
        assert loaded.to_obj() == whole.to_obj()
        assert_same_server(loaded.recover(), whole.recover())

    def test_damaged_delta_mid_log_refuses_to_load(self, tmp_path):
        path, lines, last = self.v3_lines(tmp_path)
        lines[last] = lines[last][: len(lines[last]) // 2]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ProtocolError, match="mid-log"):
            load_wal(str(path))

    def test_delta_missing_a_node_field_is_not_a_delta(self, tmp_path):
        path, lines, last = self.v3_lines(tmp_path)
        delta = json.loads(lines[last])
        del delta["delta"]["added"][0]["id"]
        lines[last] = json.dumps(delta, sort_keys=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ProtocolError, match="mid-log"):
            load_wal(str(path))

    def test_v1_snapshot_is_refused(self, tmp_path):
        driver, _path = self.build(tmp_path)
        obj = driver.wal.to_obj()
        obj["version"] = 1
        with pytest.raises(ProtocolError, match="unsupported WAL version"):
            ServerWriteAheadLog.from_obj(obj)
        snapshot = snapshot_server(driver.server)
        snapshot["space"]["version"] = 1
        with pytest.raises(ProtocolError, match="unsupported snapshot"):
            restore_server(snapshot)
