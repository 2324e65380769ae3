"""Property suite: checkpoint + deltas restore to exactly the live server.

Snapshot format v2 stores no transition context, no key and no document
for a node some retained transition reaches — all three are implied by
the node's parent — and a delta compaction encodes only the nodes that
changed, under ids that continue from the checkpoint's.  Each seeded run
drives three concurrent writers against a CSS server mirrored into a
write-ahead log *and* its on-disk file — through the deployed
:class:`~repro.jupiter.shard.ShardCore`: its ``serialise``, its
compaction, its decodability fixpoint and its ``collect`` — with
compactions, ``prune_below`` and rebases interleaved, and — after every
compaction and in the middle of record suffixes — requires the server
recovered from the log, via ``to_obj``/``from_obj`` and via the file,
to equal the live one in everything the encoding elides.  The writers are
deployed client cores (:class:`~repro.jupiter.client_core.ClientCore`)
on encoded frames, so a GC pass collects at the pins they report
themselves with their ops in flight, and every such op must decode.
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

NAMES = ["c1", "c2", "c3"]


class Driver:
    """A seeded interleaving of edits, deliveries, compactions and GC."""

    def __init__(self, seed, path):
        self.rng = random.Random(seed)
        self.clients = {
            name: ClientCore(name, message_from_wire) for name in NAMES
        }
        self.wal = ServerWriteAheadLog("server", NAMES, snapshot_every=10_000)
        self.shard = ShardCore("doc", self.wal, str(path))
        self.shard.rewrite_disk()
        self.server = self.shard.server
        for session in self.shard.sessions.values():
            session.disconnected_at = None  # the whole roster is connected
        #: data frames in flight, each ``(seq, ack, pin or floor, body)``
        self.uplink = {name: [] for name in NAMES}
        self.downlink = {name: [] for name in NAMES}
        self.modes = []
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
                origin, payload, self.epoch, 0.0, 0.0
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

    # -- persistence and GC --------------------------------------------
    def compact(self):
        last = self.wal.last_serial
        self.shard.compact(self.rng.randint(max(0, last - 6), last))
        self.modes.append(self.wal.last_compaction_mode)

    def candidate(self):
        """Any floor a quiescent roster could report."""
        return self.rng.randint(
            self.server.oracle.base, self.server.oracle.last_serial
        )

    def prune(self):
        """Server-side ``prune_below`` without a rebase (the css-gc path)."""
        self.drain()
        base = self.server.oracle.base
        floor = self.shard.decodable_floor(self.candidate())
        if floor > base:
            self.server.space.prune_below(
                self.server.oracle.opids_between(base, floor)
            )
        self.compact()

    def rebase(self):
        """The deployed GC pass with ops still in flight: every core
        reports its own pin, ``collect`` lowers the least to a decodable
        floor, rebases and checkpoints, and an ack carries the floor back.

        Broadcasts are delivered first: :meth:`compact` truncates at any
        serial, not at the cursors, so the fixpoint cannot see the
        records of broadcasts still in flight."""
        for name in NAMES:
            while self.downlink[name]:
                self.deliver(name)
        pins = {name: core.pin for name, core in self.clients.items()}
        for name, pin in pins.items():
            self.shard.sessions[name].report_pin(pin)
        _base, floor, _pruned = self.shard.collect(0.0, 0.0, threshold=0)
        assert floor == self.server.oracle.base <= min(pins.values())
        for name, core in self.clients.items():
            ack = self.shard.ack_for(self.shard.sessions[name])
            core.ack(ack, self.epoch, floor)
        self.modes.append(self.wal.last_compaction_mode)

    def run(self, actions, check):
        for _ in range(actions):
            roll = self.rng.random()
            name = self.rng.choice(NAMES)
            if roll < 0.40:
                self.edit(name)
            elif roll < 0.62:
                if self.uplink[name]:
                    self.serialise(name)
                    if self.modes and self.rng.random() < 0.2:
                        check(self)  # recovery replays a record suffix
            elif roll < 0.84:
                if self.downlink[name]:
                    self.deliver(name)
            elif roll < 0.94:
                self.compact()
                check(self)
            elif roll < 0.97:
                self.prune()
                check(self)
            else:
                self.rebase()
                check(self)
        self.drain()
        self.compact()
        check(self)


def assert_same_server(restored, live):
    assert restored.space.signature() == live.space.signature()
    assert restored.space.final_key == live.space.final_key
    assert restored.space.ot_count == live.space.ot_count
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
    # context the encoding left out.
    assert [t.operation for t in restored.space.transitions()] == [
        t.operation for t in live.space.transitions()
    ]
    assert json.dumps(snapshot_server(restored), sort_keys=True) == (
        json.dumps(snapshot_server(live), sort_keys=True)
    )


def check_restores(driver):
    live = driver.server
    via_obj = ServerWriteAheadLog.from_obj(
        json.loads(json.dumps(driver.wal.to_obj()))
    )
    assert_same_server(via_obj.recover(), live)
    on_disk = load_wal(driver.shard.wal_path)
    assert on_disk.last_serial == driver.wal.last_serial
    assert on_disk.deltas == json.loads(json.dumps(driver.wal.deltas))
    assert_same_server(on_disk.recover(), live)
    assert json.dumps(snapshot_server(live)) == json.dumps(
        snapshot_server(live)
    )


@pytest.mark.parametrize("seed", range(30))
def test_restore_equals_live_server(seed, tmp_path):
    driver = Driver(seed, tmp_path / "doc.wal")
    driver.run(120, check_restores)
    assert "full" in driver.modes


@pytest.mark.parametrize("seed", range(8))
def test_a_chain_encodes_at_most_twice_the_nodes_it_grew(seed, tmp_path):
    """The chain needs no length limit: without a ``prune_below`` (which
    the deployed server never runs) nothing leaves the space between
    checkpoints, every transition Algorithm 1 adds ends at a node the
    same integration created, and it adds one transition from an older
    node per node it creates — so the nodes a chain encodes stay within
    2x the nodes created since its checkpoint, and the merged snapshot
    is the live server at every link."""
    rig = Driver(seed, tmp_path / "doc.wal")
    rng, space = rig.rng, rig.server.space
    chains = []
    for _ in range(240):
        roll, name = rng.random(), rng.choice(NAMES)
        if roll < 0.45:
            rig.edit(name)
        elif roll < 0.70:
            if rig.uplink[name]:
                rig.serialise(name)
        elif roll < 0.90:
            if rig.downlink[name]:
                rig.deliver(name)
        else:
            if roll < 0.98:
                rig.compact()
            else:
                rig.rebase()
            if rig.wal.last_compaction_mode == "full":
                chains.append([space.node_count(), 0, 0])
            else:
                delta = rig.wal.last_delta
                chain = chains[-1]
                chain[1] += len(delta["added"]) + len(delta["touched"])
                chain[2] += 1
                assert chain[1] <= 2 * (space.node_count() - chain[0])
            merged = restore_server(rig.wal._merged_snapshot())
            assert merged.space.signature() == space.signature()
    assert max(links for _nodes, _encoded, links in chains) >= 3


def test_the_suite_reaches_every_path(tmp_path):
    """Across the seeds: checkpoints and deltas."""
    modes = set()
    for seed in range(10):
        driver = Driver(seed, tmp_path / f"doc{seed}.wal")
        driver.run(120, lambda driver: None)
        modes.update(driver.modes)
    assert modes == {"full", "delta"}


class TestDiskDamage:
    """``load_wal``'s torn-tail and mid-log rules, on v2 delta lines."""

    def build(self, tmp_path):
        driver = Driver(7, tmp_path / "doc.wal")
        for name in NAMES * 3:
            driver.edit(name)
        driver.drain()
        driver.compact()  # the full checkpoint: rewrites the file
        for name in NAMES * 2:
            driver.edit(name)
        driver.drain()
        driver.compact()  # a delta line
        assert driver.modes == ["full", "delta"]
        for name in NAMES:
            driver.edit(name)
        driver.drain()  # three record lines after the delta
        return driver, tmp_path / "doc.wal"

    def test_torn_final_record_is_dropped(self, tmp_path):
        driver, path = self.build(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text(
            "\n".join(lines[:-1] + [lines[-1][:25]]), encoding="utf-8"
        )
        with pytest.warns(RuntimeWarning, match="torn"):
            loaded = load_wal(str(path))
        assert loaded.last_serial == driver.wal.last_serial - 1
        assert loaded.deltas == json.loads(json.dumps(driver.wal.deltas))
        loaded.recover()

    def test_torn_final_delta_is_lossless(self, tmp_path):
        driver, path = self.build(tmp_path)
        driver.compact()
        assert driver.modes[-1] == "delta"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[-1].startswith('{"delta"')
        path.write_text(
            "\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]),
            encoding="utf-8",
        )
        with pytest.warns(RuntimeWarning, match="torn"):
            loaded = load_wal(str(path))
        assert len(loaded.deltas) == len(driver.wal.deltas) - 1
        assert_same_server(loaded.recover(), driver.server)

    def test_damaged_delta_mid_log_refuses_to_load(self, tmp_path):
        _driver, path = self.build(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        index = next(
            i for i, line in enumerate(lines) if line.startswith('{"delta"')
        )
        lines[index] = lines[index][: len(lines[index]) // 2]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ProtocolError, match="mid-log"):
            load_wal(str(path))

    def test_delta_missing_a_node_field_is_not_a_delta(self, tmp_path):
        _driver, path = self.build(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        index = next(
            i for i, line in enumerate(lines) if line.startswith('{"delta"')
        )
        delta = json.loads(lines[index])
        del delta["delta"]["added"][0]["id"]
        lines[index] = json.dumps(delta, sort_keys=True)
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
