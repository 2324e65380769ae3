"""A WAL file written before contexts were ``[d, n]`` still serves.

Version 2 of the WAL header stored each record's context as
``[d, [extra opids]]``; version 3 stores ``[d, n]``, the spelling the
wire uses.  ``wal_v2_two_writers.wal`` was written by the last version-2
build: two writers whose ops interleave at the server (so most contexts
carry extras), a full checkpoint in the header and delta lines after
it.  ``wal_v2_two_writers.json`` records how many records it holds and
the document signature every replica converged on.

Regenerate both only on purpose, with a version-2 build first on the
path (this file's top-level imports exist in both)::

    PYTHONPATH=<v2 tree>/src python tests/jupiter/test_wal_conversion.py
"""

import json
import os
import random
import shutil
import sys

import pytest

from repro.common.ids import SERVER_ID
from repro.errors import ProtocolError
from repro.jupiter.css import CssClient
from repro.jupiter.persistence import ServerWriteAheadLog, load_wal
from repro.jupiter.shard import ShardCore
from repro.model.schedule import OpSpec
from repro.net.codec import compact_server_op_obj, document_signature

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "wal_v2_two_writers.wal")
EXPECTED = os.path.join(HERE, "wal_v2_two_writers.json")
GRACE = 15.0
NOW = 100.0


class Writers:
    """A disk-backed shard core and clients whose frames it serialises."""

    def __init__(self, core, names):
        self.core = core
        self.clients = {name: CssClient(name) for name in names}
        self.inbox = {name: [] for name in names}
        self.seq = {name: 0 for name in names}
        self.bodies = []  # (broadcast, ctx) for each serialised op
        for name in names:
            session = core.register(name, NOW)
            self.inbox[name] += core.resync(session, 0, 0, NOW)[2]

    def send(self, name, message):
        self.seq[name] += 1
        session = self.core.sessions[name]
        for body in self.core.accept(session, self.seq[name], 0, message):
            _serial, ctx, fanout = self.core.serialise(
                session, body, 0, NOW, GRACE
            )
            self.bodies.append((fanout[0][1], ctx))
            for recipient, broadcast in fanout:
                if recipient.client in self.inbox:
                    self.inbox[recipient.client].append(broadcast)

    def deliver(self):
        for name, client in self.clients.items():
            for broadcast in self.inbox[name]:
                client.receive(broadcast)
            self.inbox[name].clear()


def interleave(writers, rounds, burst, seed=7):
    """Each round both writers make ``burst`` edits unseen by the other,
    and the server takes them alternately: an op's own earlier edits of
    the round are serialised past the other writer's, so they are extras
    of its context."""
    rng = random.Random(seed)
    for _ in range(rounds):
        made = {}
        for name, client in writers.clients.items():
            made[name] = []
            for _ in range(burst):
                length = len(client.document)
                if length and rng.random() < 0.3:
                    spec = OpSpec("del", rng.randrange(length))
                else:
                    where = rng.randint(0, length)
                    spec = OpSpec("ins", where, rng.choice("xyz"))
                made[name].append(client.generate(spec).outgoing)
        for turn in zip(*made.values()):
            for name, message in zip(made, turn):
                writers.send(name, message)
        writers.deliver()


def write_fixture():
    """Write the fixture and its expectations (run on a version-2 build)."""
    if os.path.exists(FIXTURE):
        os.remove(FIXTURE)
    wal = ServerWriteAheadLog(SERVER_ID, [], snapshot_every=8)
    core = ShardCore("default", wal, FIXTURE)
    core.rewrite_disk()
    writers = Writers(core, ["w1", "w2"])
    interleave(writers, rounds=5, burst=6)
    core.close()
    signatures = {
        document_signature(c.document) for c in writers.clients.values()
    }
    signatures.add(document_signature(core.server.document))
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


def copied(tmp_path):
    path = str(tmp_path / "default.wal")
    shutil.copyfile(FIXTURE, path)
    return path


def test_the_fixture_is_what_it_claims():
    header, *rest = lines(FIXTURE)
    records = [line for line in rest if "delta" not in line]
    assert header["version"] == 2 and header["snapshot"] is not None
    assert any("delta" in line for line in rest)
    assert len(records) == expected()["records"]
    extras = [r for r in records if r["ctx"][1]]
    assert len(extras) * 2 > len(records)
    assert {r["origin"] for r in extras} == {"w1", "w2"}


def test_a_version_2_file_loads_spelled_d_n(tmp_path):
    wal = load_wal(copied(tmp_path))
    assert wal.last_serial == expected()["records"]
    for record in wal.records:
        assert [type(v) for v in record["ctx"]] == [int, int]
    assert any(r["ctx"][1] for r in wal.records)
    recovered = wal.recover().document
    assert document_signature(recovered) == expected()["signature"]


def foreign_extras(path, which):
    """Give record line ``which`` (of the records) extras that are not
    its op's run: another writer's id."""
    header, *rest = lines(path)
    at = [i for i, line in enumerate(rest) if "delta" not in line][which]
    rest[at]["ctx"][1] = [["w9", 1]]
    with open(path, "w", encoding="utf-8") as handle:
        for line in [header, *rest]:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
    return rest[at]["serial"]


def test_extras_that_are_not_the_run_mid_log_are_corruption(tmp_path):
    path = copied(tmp_path)
    foreign_extras(path, 30)
    with pytest.raises(ProtocolError, match="mid-log"):
        load_wal(path)


def test_extras_that_are_not_the_run_on_the_final_line_are_torn(tmp_path):
    path = copied(tmp_path)
    last = foreign_extras(path, -1)
    assert last == expected()["records"] and "delta" not in lines(path)[-1]
    with pytest.warns(RuntimeWarning, match="torn final WAL record"):
        assert load_wal(path).last_serial == last - 1


def test_a_fresh_reader_resyncs_to_the_recorded_signature(tmp_path):
    reader = Writers(ShardCore("default", load_wal(copied(tmp_path))), ["r"])
    assert len(reader.inbox["r"]) == expected()["records"]
    reader.deliver()
    signature = document_signature(reader.clients["r"].document)
    assert signature == expected()["signature"]


def test_the_file_is_rewritten_before_its_first_append(tmp_path):
    path = copied(tmp_path)
    core = ShardCore("default", load_wal(path), path)
    header, *rest = lines(path)
    assert header["version"] == 3 and not any("delta" in x for x in rest)
    writer = Writers(core, ["w3"])
    writer.deliver()
    edit = writer.clients["w3"].generate(OpSpec("ins", 0, "q"))
    writer.send("w3", edit.outgoing)
    core.close()
    reloaded = load_wal(path)
    assert reloaded.last_serial == expected()["records"] + 1
    assert reloaded.records == core.wal.records
    for line in lines(path)[1:]:
        assert [type(v) for v in line["ctx"]] == [int, int]


def test_a_broadcast_body_carries_the_ctx_its_record_holds(tmp_path):
    path = str(tmp_path / "default.wal")
    wal = ServerWriteAheadLog(SERVER_ID, [], snapshot_every=8)
    writers = Writers(ShardCore("default", wal, path), ["w1", "w2"])
    interleave(writers, rounds=2, burst=4)
    writers.core.close()
    loaded = load_wal(path)
    assert any(ctx[1] for _broadcast, ctx in writers.bodies)
    for broadcast, ctx in writers.bodies:
        body = compact_server_op_obj(broadcast, ctx)["body"]
        assert body["ctx"] == loaded.record_at(broadcast.serial)["ctx"]


if __name__ == "__main__":
    sys.exit(write_fixture())
