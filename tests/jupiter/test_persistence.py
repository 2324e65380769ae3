"""Tests for CSS replica snapshot/restore and the server write-ahead log."""

import json

import pytest

from repro.common import OpId
from repro.errors import ProtocolError, StateSpaceError
from repro.jupiter import make_cluster
from repro.jupiter.cluster import Cluster
from repro.jupiter.keys import key_of
from repro.jupiter.ordering import ServerOrderOracle
from repro.jupiter.persistence import (
    ServerWriteAheadLog,
    checkpoint_client,
    compact_context,
    element_from_obj,
    element_to_obj,
    operation_from_obj,
    operation_to_obj,
    opid_from_obj,
    opid_to_obj,
    record_operation,
    restore_checkpoint,
    restore_client,
    restore_server,
    snapshot_client,
    snapshot_server,
    space_from_obj,
    space_to_obj,
    wal_record_to_obj,
)
from repro.model import OpSpec, ScheduleBuilder
from repro.ot import delete, insert


def mid_run_cluster():
    """A CSS cluster stopped mid-run: operations in flight, pending acks."""
    cluster = make_cluster("css", ["c1", "c2", "c3"])
    schedule = (
        ScheduleBuilder()
        .ins("c1", 0, "a")
        .ins("c2", 0, "b")
        .server_recv("c1")
        .server_recv("c2")
        .client_recv("c1", times=2)  # echo + b
        .ins("c1", 1, "x")  # pending operation
        .build()
    )
    cluster.run(schedule)
    return cluster


class TestOperationCodec:
    def test_insert_round_trip(self):
        op = insert(OpId("c1", 1), "x", 3, context={OpId("c2", 1)})
        assert operation_from_obj(operation_to_obj(op)) == op

    def test_delete_round_trip(self):
        base = insert(OpId("c9", 1), "v", 0)
        op = delete(OpId("c1", 2), base.element, 0, context={base.opid})
        assert operation_from_obj(operation_to_obj(op)) == op

    def test_obj_is_json_serialisable(self):
        op = insert(OpId("c1", 1), "x", 3)
        encoded = json.dumps(operation_to_obj(op))
        assert operation_from_obj(json.loads(encoded)) == op


class TestSpaceCodec:
    def test_space_round_trip_preserves_structure(self):
        cluster = mid_run_cluster()
        space = cluster.clients["c1"].space
        obj = json.loads(json.dumps(space_to_obj(space)))
        restored = space_from_obj(obj, cluster.clients["c1"].oracle)
        assert restored.same_structure(space)
        assert restored.final_key == space.final_key
        assert restored.document.as_string() == space.document.as_string()
        assert restored.ot_count == space.ot_count

    def test_version_check(self):
        cluster = mid_run_cluster()
        obj = space_to_obj(cluster.server.space)
        obj["version"] = 99
        with pytest.raises(ProtocolError):
            space_from_obj(obj, cluster.server.oracle)


class TestClientSnapshot:
    def test_round_trip_mid_run(self):
        cluster = mid_run_cluster()
        original = cluster.clients["c1"]
        restored = restore_client(
            json.loads(json.dumps(snapshot_client(original)))
        )
        assert restored.replica_id == "c1"
        assert restored.space.same_structure(original.space)
        assert restored.pending_count == original.pending_count
        assert restored.document.as_string() == original.document.as_string()

    def test_restored_client_resumes_the_run(self):
        """Swap a restored client into the cluster and drain to the same
        final state as an undisturbed run."""
        reference = mid_run_cluster()
        reference.drain()

        crashed = mid_run_cluster()
        snapshot = json.loads(json.dumps(snapshot_client(crashed.clients["c1"])))
        resumed = Cluster(
            crashed.server,
            {**crashed.clients, "c1": restore_client(snapshot)},
        )
        # Carry over the undelivered channels from the crashed cluster.
        resumed._to_server = crashed._to_server
        resumed._to_client = crashed._to_client
        resumed.drain()
        assert resumed.documents() == reference.documents()

    def test_restored_client_generates_fresh_opids(self):
        cluster = mid_run_cluster()
        restored = restore_client(snapshot_client(cluster.clients["c1"]))
        from repro.model import OpSpec

        result = restored.generate(OpSpec("ins", 0, "z"))
        # c1 had generated 2 operations; the next must be seq 3.
        assert result.operation.opid == OpId("c1", 3)


class TestServerSnapshot:
    def test_round_trip(self):
        cluster = mid_run_cluster()
        restored = restore_server(
            json.loads(json.dumps(snapshot_server(cluster.server)))
        )
        assert restored.space.same_structure(cluster.server.space)
        assert restored.clients == cluster.server.clients
        assert restored.document.as_string() == cluster.server.document.as_string()

    def test_restored_server_continues_serialising(self):
        cluster = mid_run_cluster()
        restored = restore_server(snapshot_server(cluster.server))
        # Two operations were serialised; the next serial must be 3.
        next_serial = restored.oracle.assign(OpId("c9", 1))
        assert next_serial == 3

    def test_corrupt_serials_rejected(self):
        cluster = mid_run_cluster()
        obj = snapshot_server(cluster.server)
        obj["serials"][0][1] = 42
        with pytest.raises(ProtocolError):
            restore_server(obj)


class TestSnapshotDeterminism:
    """Snapshots are canonical: same state, byte-identical JSON."""

    def test_client_snapshot_twice_is_byte_identical(self):
        client = mid_run_cluster().clients["c1"]
        assert json.dumps(snapshot_client(client)) == json.dumps(
            snapshot_client(client)
        )

    def test_client_snapshot_survives_restore_byte_identically(self):
        """restore -> snapshot reproduces the exact bytes: the canonical
        (serial-sorted) ordering does not depend on insertion history."""
        snap = snapshot_client(mid_run_cluster().clients["c1"])
        again = snapshot_client(restore_client(snap))
        assert json.dumps(snap) == json.dumps(again)

    def test_server_snapshot_survives_restore_byte_identically(self):
        snap = snapshot_server(mid_run_cluster().server)
        again = snapshot_server(restore_server(snap))
        assert json.dumps(snap) == json.dumps(again)

    def test_serials_emitted_sorted_by_serial(self):
        cluster = mid_run_cluster()
        for snap in (
            snapshot_client(cluster.clients["c1"]),
            snapshot_server(cluster.server),
        ):
            serials = [serial for _opid, serial in snap["serials"]]
            assert serials == sorted(serials)


class TestJsonRoundTrips:
    """Every codec in the module survives dumps -> loads -> decode."""

    def test_opid(self):
        opid = OpId("c7", 42)
        assert opid_from_obj(json.loads(json.dumps(opid_to_obj(opid)))) == opid

    def test_element(self):
        element = insert(OpId("c1", 1), "x", 0).element
        decoded = element_from_obj(
            json.loads(json.dumps(element_to_obj(element)))
        )
        assert decoded == element

    def test_checkpoint(self):
        cluster = mid_run_cluster()
        checkpoint = checkpoint_client(
            cluster.clients["c1"],
            session={"next_seq": 3, "acked": 1},
            behaviors_len=4,
            delivered=2,
        )
        decoded = json.loads(json.dumps(checkpoint))
        assert decoded["session"] == {"next_seq": 3, "acked": 1}
        assert decoded["behaviors_len"] == 4
        assert decoded["delivered"] == 2
        restored = restore_checkpoint(decoded)
        assert restored.space.same_structure(cluster.clients["c1"].space)

    def test_checkpoint_version_check(self):
        checkpoint = checkpoint_client(mid_run_cluster().clients["c1"])
        checkpoint["version"] = 99
        with pytest.raises(ProtocolError):
            restore_checkpoint(checkpoint)

    def test_wal_record(self):
        oracle = ServerOrderOracle()
        oracle.assign(OpId("c2", 1))
        op = insert(OpId("c1", 1), "x", 3, context={OpId("c2", 1)})
        ctx = compact_context(op, oracle)
        record = json.loads(
            json.dumps(wal_record_to_obj(5, "c1", op, ctx=ctx))
        )
        assert record["serial"] == 5
        assert record["origin"] == "c1"
        assert record_operation(record, oracle) == op

    def test_wal(self):
        cluster, wal = driven_wal()
        wal.compact(cluster.server)
        decoded = ServerWriteAheadLog.from_obj(
            json.loads(json.dumps(wal.to_obj()))
        )
        assert decoded.last_serial == wal.last_serial
        assert decoded.records == wal.records
        assert decoded.recover().space.signature() == (
            cluster.server.space.signature()
        )


def driven_wal(ops_per_client=3):
    """A CSS cluster whose server traffic is mirrored into a WAL, the way
    the fault-injected runner does it: append after each serialisation,
    before the broadcast would hit the wire."""
    cluster = make_cluster("css", ["c1", "c2"])
    wal = ServerWriteAheadLog(
        cluster.server.replica_id, ["c1", "c2"]
    )
    letters = iter("abcdefghijkl")
    for _ in range(ops_per_client):
        for client in ("c1", "c2"):
            cluster.generate(client, OpSpec("ins", 0, next(letters)))
            message = cluster.server_receive(client)
            operation = message.payload.operation
            wal.append(
                cluster.server.oracle.last_serial,
                client,
                operation,
                ctx=compact_context(operation, cluster.server.oracle),
            )
    return cluster, wal


class TestWriteAheadLog:
    def test_append_enforces_dense_serial_order(self):
        cluster, wal = driven_wal(ops_per_client=1)
        op = insert(OpId("c9", 1), "z", 0)
        with pytest.raises(ProtocolError):
            wal.append(wal.last_serial + 2, "c1", op, ctx=[0, 0])  # skips
        with pytest.raises(ProtocolError):
            wal.append(wal.last_serial, "c1", op, ctx=[0, 0])  # reuses

    def test_cold_recovery_replays_every_record(self):
        cluster, wal = driven_wal()
        recovered = wal.recover()
        assert recovered.space.signature() == cluster.server.space.signature()
        assert recovered.oracle.last_serial == wal.last_serial
        assert recovered.document.as_string() == (
            cluster.server.document.as_string()
        )

    def test_recovered_server_resumes_serial_assignment(self):
        cluster, wal = driven_wal()
        recovered = wal.recover()
        assert recovered.oracle.assign(OpId("c9", 1)) == wal.last_serial + 1

    def test_compaction_truncates_and_recovery_still_matches(self):
        cluster, wal = driven_wal()
        cluster.server.rebase_to_serial(6)
        truncated = wal.compact(cluster.server)
        assert truncated == 6
        assert wal.records == []
        assert wal.records_truncated == 6
        recovered = wal.recover()
        assert recovered.space.signature() == cluster.server.space.signature()
        assert recovered.oracle.last_serial == wal.last_serial

    def test_record_at_indexes_the_retained_suffix(self):
        cluster, wal = driven_wal()
        assert wal.record_at(0) is None
        assert wal.record_at(wal.last_serial + 1) is None
        cluster.server.rebase_to_serial(2)
        wal.compact(cluster.server)
        assert wal.record_at(2) is None  # at the base
        for serial in (3, 4, 5, 6):
            assert wal.record_at(serial)["serial"] == serial
        assert wal.record_at(7) is None
        cluster.server.rebase_to_serial(6)
        wal.compact(cluster.server)
        assert wal.record_at(6) is None  # nothing past the base

    def test_compacting_past_a_consumer_is_detected(self):
        cluster, wal = driven_wal()
        cluster.server.rebase_to_serial(6)
        wal.compact(cluster.server)
        recovered = wal.recover()
        assert wal.broadcasts_for(recovered, delivered=6) == []
        with pytest.raises(ProtocolError):
            wal.broadcasts_for(recovered, delivered=4)  # needs 5 and 6

    def test_broadcasts_rebuild_the_send_buffer_exactly(self):
        cluster, wal = driven_wal()
        recovered = wal.recover()
        for client in ("c1", "c2"):
            payloads = wal.broadcasts_for(recovered, delivered=0)
            assert tuple(payloads) == cluster.queued_payloads_to(client)

    def test_broadcast_cursor_validated(self):
        _cluster, wal = driven_wal()
        recovered = wal.recover()
        with pytest.raises(ProtocolError):
            wal.broadcasts_for(recovered, delivered=-1)
        with pytest.raises(ProtocolError):
            wal.broadcasts_for(recovered, delivered=wal.last_serial + 1)

    def test_origin_counts_across_compaction(self):
        cluster, wal = driven_wal()
        before = wal.origin_counts()
        assert before == {"c1": 3, "c2": 3}
        # The checkpoint keeps the counts of the records it drops.
        cluster.server.rebase_to_serial(3)
        wal.compact(cluster.server)
        assert wal.origin_counts() == before
        assert ServerWriteAheadLog.from_obj(wal.to_obj()).origin_counts() == before

    def test_reordered_log_is_detected_on_recovery(self):
        _cluster, wal = driven_wal()
        wal.records[0], wal.records[1] = wal.records[1], wal.records[0]
        with pytest.raises(ProtocolError):
            wal.recover()

    def test_version_check(self):
        _cluster, wal = driven_wal()
        obj = wal.to_obj()
        obj["version"] = 99
        with pytest.raises(ProtocolError):
            ServerWriteAheadLog.from_obj(obj)


class TestRestoreSeams:
    """The public session seams persistence (and recovery) build on."""

    def test_next_seq_tracks_generations(self):
        client = mid_run_cluster().clients["c1"]
        assert client.next_seq == 3  # two operations generated

    def test_pending_opids_names_the_unacknowledged_operation(self):
        client = mid_run_cluster().clients["c1"]
        assert client.pending_opids() == (OpId("c1", 2),)

    def test_restore_session_resumes_numbering(self):
        client = mid_run_cluster().clients["c1"]
        client.restore_session(pending=[OpId("c1", 2)], next_seq=7)
        assert client.next_seq == 7
        assert client.pending_opids() == (OpId("c1", 2),)
        result = client.generate(OpSpec("ins", 0, "z"))
        assert result.operation.opid == OpId("c1", 7)

    def test_restore_session_with_empty_pending_set(self):
        # A replica restored from a checkpoint taken at a quiescent
        # moment has nothing in flight: the pending queue empties and
        # only the numbering cursor survives.
        client = mid_run_cluster().clients["c1"]
        assert client.pending_count == 1  # the in-flight 'x'
        client.restore_session(pending=[], next_seq=3)
        assert client.pending_count == 0
        assert client.pending_opids() == ()
        assert client.next_seq == 3
        result = client.generate(OpSpec("ins", 0, "q"))
        assert result.operation.opid == OpId("c1", 3)


class TestInternedKeysSurviveRestore:
    """Snapshots stay on the plain sorted-set wire form, but a restored
    space must key every node on its own serial log so it hits the same
    identity fast paths as a space grown through integrate()."""

    def test_restored_space_keys_are_interned(self):
        client = mid_run_cluster().clients["c1"]
        restored = restore_client(snapshot_client(client))
        space = restored.space
        for key in space.states():
            assert key_of(restored.oracle, frozenset(key)) == key
            assert key_of(restored.oracle, key) is key
            assert space.node(frozenset(key)).key is key
        assert space.node(frozenset(space.final_key)).key is space.final_key
        # Transition targets are the same instances as the node keys.
        for transition in space.transitions():
            assert transition.target is space.node(
                frozenset(transition.target)
            ).key
        # ...and they cost the restored replica what they cost the live one.
        assert sorted(len(k.pair()[1]) for k in space.states()) == sorted(
            len(k.pair()[1]) for k in client.space.states()
        )

    def test_restored_space_is_lazy_and_contexts_are_source_keys(self):
        """What the snapshot leaves out comes back the way ``_attach``
        builds it: documents pending on ``(parent, operation)``, and
        each transition's context the source's own key object."""
        client = mid_run_cluster().clients["c1"]
        obj = json.loads(json.dumps(space_to_obj(client.space)))
        roots = [node for node in obj["nodes"] if "key" in node]
        assert [node["key"] for node in roots] == [[]]
        assert all(
            "document" not in node and "key" not in node
            for node in obj["nodes"]
            if "from" in node
        )
        assert "context" not in json.dumps(obj)
        space = space_from_obj(obj, client.oracle)
        lazy = [key for key in space.states() if not space.node(key).materialised]
        assert len(lazy) == len(obj["nodes"]) - 1
        for transition in space.transitions():
            assert transition.operation.context is transition.source
        assert [t.operation for t in space.transitions()] == [
            t.operation for t in client.space.transitions()
        ]
        assert {
            key: doc.as_string() for key, doc in space.iter_documents()
        } == {
            key: doc.as_string() for key, doc in client.space.iter_documents()
        }

    def test_restore_rechecks_cp1_instead_of_trusting_the_snapshot(self):
        client = mid_run_cluster().clients["c1"]
        obj = json.loads(json.dumps(space_to_obj(client.space)))
        edge = next(
            child
            for node in obj["nodes"]
            for child in node["children"]
            if child[0]["kind"] == "ins"
        )
        edge[0]["element"]["opid"] = ["ghost", 1]  # another element
        with pytest.raises(StateSpaceError, match="CP1"):
            space_from_obj(obj, client.oracle)

    def test_dangling_ids_are_refused(self):
        client = mid_run_cluster().clients["c1"]
        obj = space_to_obj(client.space)
        obj["final"] = 10_000
        with pytest.raises(ProtocolError, match="does not hold"):
            space_from_obj(obj, client.oracle)

    def test_restored_space_matches_and_keeps_integrating(self):
        cluster = mid_run_cluster()
        client = cluster.clients["c1"]
        restored = restore_client(snapshot_client(client))
        assert restored.space.signature() == client.space.signature()
        # The restored replica grows through the identity fast path.
        result = restored.generate(OpSpec("ins", 0, "z"))
        assert result.operation.opid.replica == "c1"
        assert restored.space.final_key == (
            client.space.final_key | {result.operation.opid}
        )

    def test_snapshot_of_lazy_space_does_not_pin_documents(self):
        cluster = mid_run_cluster()
        space = cluster.server.space
        lazy_before = [
            key
            for key in space.states()
            if not space.node(key).materialised
        ]
        snapshot_server(cluster.server)
        still_lazy = [
            key
            for key in lazy_before
            if not space.node(key).materialised
        ]
        # iter_documents used a transient memo: nothing new was pinned.
        assert still_lazy == lazy_before
