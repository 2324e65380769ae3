"""A version-3 WAL file — a space-graph checkpoint, delta lines — still serves.

Version 3 of the WAL header held a state-space checkpoint taken past a
GC rebase, delta lines appended after it and a record suffix; version 4
holds the document at the GC base and the records past it.
``wal_v3_three_writers.wal`` was written by the last version-3 build:
three writers whose ops interleave at the server, one GC rebase (so the
checkpoint's base is past 0), delta checkpoints after it and records
past the last one.  ``wal_v3_three_writers.json`` records its last
serial and the document signature every replica converged on.

:func:`~repro.jupiter.persistence.load_wal` converts such a file: the
old fold recovers the server, and the log it yields sits at that
server's last serial with no records, so each client resumes once by a
whole-state transfer and no acknowledged operation is lost.

Regenerate both only on purpose, with a version-3 build first on the
path (this file's top-level imports exist in both)::

    PYTHONPATH=<v3 tree>/src python tests/jupiter/test_wal_v3_conversion.py
"""

import asyncio
import json
import os
import random
import shutil
import sys

from repro.common.ids import SERVER_ID
from repro.jupiter.client_core import ClientCore
from repro.jupiter.persistence import ServerWriteAheadLog, load_wal
from repro.jupiter.shard import ShardCore
from repro.model.schedule import OpSpec
from repro.net.codec import (
    compact_client_op_obj,
    compact_server_op_obj,
    document_signature,
    message_from_wire,
)

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "wal_v3_three_writers.wal")
EXPECTED = os.path.join(HERE, "wal_v3_three_writers.json")
NAMES = ["w1", "w2", "w3"]
NOW = 100.0


class ThreeWriters:
    """Deployed client cores on encoded frames against a shard core."""

    def __init__(self, shard, seed=11):
        self.shard = shard
        self.rng = random.Random(seed)
        self.clients = {name: ClientCore(name, message_from_wire) for name in NAMES}
        for session in shard.sessions.values():
            session.disconnected_at = None

    def round(self, burst):
        """Each writer makes ``burst`` edits unseen by the others; the
        server takes them in turn and every broadcast is delivered."""
        made = {name: [] for name in NAMES}
        for name, core in self.clients.items():
            for _ in range(burst):
                length = len(core.css.document)
                if length and self.rng.random() < 0.3:
                    spec = OpSpec("del", self.rng.randrange(length))
                else:
                    where = self.rng.randint(0, length)
                    spec = OpSpec("ins", where, self.rng.choice("xyz"))
                seq, _ = core.generate(spec)
                body = compact_client_op_obj(core.unacked[seq], core.css.oracle)
                made[name].append((seq, core.delivered, core.pin, body))
        downlink = []
        for turn in zip(*made.values()):
            for name, (seq, ack, pin, body) in zip(made, turn):
                session = self.shard.sessions[name]
                session.report_pin(pin)
                server = self.shard.server
                for released in self.shard.accept(session, seq, ack, body):
                    payload = message_from_wire(released, server.oracle)
                    serial, executed, fanout = self.shard.serialise(
                        session, payload, 0, NOW, 0.0
                    )
                    out = compact_server_op_obj(fanout[0][1], executed)
                    downlink.append((serial, out))
        for serial, out in downlink:
            for name, core in self.clients.items():
                ack = self.shard.ack_for(self.shard.sessions[name])
                core.data(serial, ack, 0, self.shard.server.base, out)

    def rebase(self):
        """A GC pass at the pins the quiescent writers report."""
        for name, core in self.clients.items():
            self.shard.sessions[name].report_pin(core.pin)
        _old, floor, _pruned = self.shard.collect(NOW, 0.0, threshold=0)
        for name, core in self.clients.items():
            core.ack(self.shard.ack_for(self.shard.sessions[name]), 0, floor)

    def signatures(self):
        found = {document_signature(c.css.document) for c in self.clients.values()}
        found.add(document_signature(self.shard.server.document))
        return found


def write_fixture():
    """Write the fixture and its expectations (run on a version-3 build)."""
    if os.path.exists(FIXTURE):
        os.remove(FIXTURE)
    wal = ServerWriteAheadLog(SERVER_ID, list(NAMES), snapshot_every=8)
    shard = ShardCore("default", wal, FIXTURE)
    writers = ThreeWriters(shard)
    for _ in range(4):
        writers.round(burst=3)
    writers.rebase()
    for _ in range(3):
        writers.round(burst=3)
    writers.round(burst=1)
    shard.close()
    signatures = writers.signatures()
    assert len(signatures) == 1, "the writers did not converge"
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(
            {"records": wal.last_serial, "signature": signatures.pop()},
            handle,
            indent=1,
        )
        handle.write("\n")


def expected():
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def lines(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def copied(tmp_path, name="default.wal"):
    path = str(tmp_path / name)
    shutil.copyfile(FIXTURE, path)
    return path


def first_append(shard, name):
    """A new writer joins ``shard`` — by the whole-state transfer a log
    converted at its last serial gives it — and makes one edit."""
    session = shard.register(name, NOW)
    _cursor, state, missed = shard.resync(session, 0, 0, NOW)
    assert state is not None and missed == []
    core = ClientCore(name, message_from_wire)
    core.welcome(0, 0, shard.ack_for(session), shard.server.base, state=state)
    seq, _ = core.generate(OpSpec("ins", 0, "q"))
    body = compact_client_op_obj(core.unacked[seq], core.css.oracle)
    for released in shard.accept(session, seq, 0, body):
        shard.serialise(session, message_from_wire(released, shard.server.oracle), 0)


def test_the_fixture_is_what_it_claims():
    header, *rest = lines(FIXTURE)
    assert header["version"] == 3 and header["snapshot"]["base"] > 0
    kinds = ["delta" if "delta" in line else "record" for line in rest]
    assert "delta" in kinds and kinds[-1] == "record"
    records = [line for line in rest if "delta" not in line]
    assert records[-1]["serial"] == expected()["records"]
    assert {r["origin"] for r in records} == set(NAMES)


def test_the_file_converts_and_recovers_the_recorded_signature(tmp_path):
    wal = load_wal(copied(tmp_path))
    assert wal.base == wal.last_serial == expected()["records"]
    assert wal.records == []
    header, *rest = lines(FIXTURE)
    seqs = [r["operation"]["opid"] for r in rest if "delta" not in r]
    for name in NAMES:
        assert wal.origin_counts()[name] == max(s for o, s in seqs if o == name)
    recovered = wal.recover()
    assert recovered.oracle.last_serial == expected()["records"]
    assert document_signature(recovered.document) == expected()["signature"]


def test_a_fresh_reader_converges_on_it_over_a_net_server(tmp_path):
    from repro.net.client import NetClient
    from repro.net.server import NetServer

    copied(tmp_path)

    async def scenario():
        server = NetServer("127.0.0.1", 0, wal_dir=str(tmp_path))
        await server.start()
        reader = NetClient("r1", "127.0.0.1", server.port)
        await reader.connect()
        try:
            converged = await reader.wait_converged(
                expected()["records"], timeout=20
            )
            return converged, reader.state_transfers, reader.signature()
        finally:
            await reader.close()
            await server.stop()

    converged, transfers, signature = asyncio.run(scenario())
    assert converged and transfers == 1
    assert signature == expected()["signature"]


def test_the_shard_rewrites_it_as_v4_before_its_first_append(tmp_path):
    path = copied(tmp_path)
    shard = ShardCore("default", load_wal(path), path)
    header, *rest = lines(path)
    assert header["version"] == 4 and rest == []
    assert header["base"] == expected()["records"]
    first_append(shard, "w4")
    shard.close()
    reloaded = load_wal(path)
    assert reloaded.last_serial == expected()["records"] + 1
    assert reloaded.records == shard.wal.records
    assert reloaded.recover().document == shard.server.document


if __name__ == "__main__":
    sys.exit(write_fixture())
