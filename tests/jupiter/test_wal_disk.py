"""On-disk WAL tests: JSON-lines layout and torn-tail tolerance.

A crash mid-append leaves at most one truncated final line.  That
record was never acknowledged (the append had not completed), so
:func:`load_wal` may drop it — with a warning and a counter bump, never
silently.  Corruption anywhere *earlier* is lost acknowledged history
and must refuse to load.
"""

import json

import pytest

from repro import obs
from repro.common import OpId
from repro.errors import ProtocolError
from repro.jupiter.persistence import ServerWriteAheadLog, load_wal, save_wal
from repro.jupiter.replication import Replica

from tests.jupiter import test_wal_v3_conversion as v3
from tests.jupiter.test_persistence import driven_wal


@pytest.fixture(autouse=True)
def _observability_left_disabled():
    # The tier-1 suite runs with the process-global obs handle disabled;
    # tests that enable it to read counters must restore that.
    yield
    obs.disable()


def saved_wal(tmp_path, **kwargs):
    cluster, wal = driven_wal(**kwargs)
    path = tmp_path / "server.wal"
    save_wal(wal, str(path))
    return cluster, wal, path


def damage_line(path, index, text):
    """Replace line ``index`` (0 = header) of the WAL file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def truncate_line(path, index, keep=20):
    lines = path.read_text(encoding="utf-8").splitlines()
    damage_line(path, index, lines[index][:keep])


class TestRoundTrip:
    def test_load_restores_records_and_serials(self, tmp_path):
        cluster, wal, path = saved_wal(tmp_path)
        loaded = load_wal(str(path))
        assert loaded.records == wal.records
        assert loaded.last_serial == wal.last_serial
        recovered = loaded.recover()
        assert recovered.space.signature() == cluster.server.space.signature()

    def test_compacted_wal_round_trips(self, tmp_path):
        cluster, wal = driven_wal()
        cluster.server.rebase_to_serial(6)
        wal.compact(cluster.server)
        path = tmp_path / "server.wal"
        save_wal(wal, str(path))
        loaded = load_wal(str(path))
        assert loaded.to_obj() == wal.to_obj()
        assert (loaded.base, loaded.last_serial) == (6, wal.last_serial)
        recovered = loaded.recover()
        assert recovered.space.signature() == cluster.server.space.signature()
        assert recovered.document == cluster.server.document

    def test_loaded_wal_resumes_appends(self, tmp_path):
        _cluster, wal, path = saved_wal(tmp_path)
        loaded = load_wal(str(path))
        op = loaded.records[-1]  # any well-formed operation obj will do
        from repro.jupiter.persistence import operation_from_obj

        loaded.append(
            wal.last_serial + 1,
            "c1",
            operation_from_obj(op["operation"], frozenset()),
            ctx=op["ctx"],
        )
        assert loaded.last_serial == wal.last_serial + 1


class TestAtomicRewrite:
    """A full rewrite never truncates the live file in place."""

    def test_rewrite_goes_through_a_scratch_file(self, tmp_path, monkeypatch):
        cluster, wal, path = saved_wal(tmp_path)
        before = path.read_text(encoding="utf-8")
        wal.compact(cluster.server)

        def killed(source, target):
            raise KeyboardInterrupt("killed before the rename")

        monkeypatch.setattr("repro.jupiter.persistence.os.replace", killed)
        with pytest.raises(KeyboardInterrupt):
            save_wal(wal, str(path))
        # The kill left the new log beside the old one, which is whole.
        assert path.read_text(encoding="utf-8") == before
        assert (tmp_path / "server.wal.tmp").exists()

    def test_leftover_scratch_file_is_ignored(self, tmp_path):
        cluster, wal, path = saved_wal(tmp_path)
        (tmp_path / "server.wal.tmp").write_text(
            '{"version": 2, "half a head', encoding="utf-8"
        )
        loaded = load_wal(str(path))
        assert loaded.last_serial == wal.last_serial
        recovered = loaded.recover()
        assert recovered.space.signature() == cluster.server.space.signature()
        # ...and the next rewrite simply replaces the stale scratch file.
        save_wal(loaded, str(path))
        assert not (tmp_path / "server.wal.tmp").exists()
        assert load_wal(str(path)).last_serial == wal.last_serial


class TestTornTail:
    def test_truncated_final_record_is_dropped_with_a_warning(self, tmp_path):
        _cluster, wal, path = saved_wal(tmp_path)
        truncate_line(path, -1)  # the crash cut the last append short
        with pytest.warns(RuntimeWarning, match="torn final WAL record"):
            loaded = load_wal(str(path))
        assert loaded.last_serial == wal.last_serial - 1
        assert [r["serial"] for r in loaded.records] == [
            r["serial"] for r in wal.records[:-1]
        ]

    def test_garbled_final_record_is_also_a_torn_tail(self, tmp_path):
        _cluster, wal, path = saved_wal(tmp_path)
        damage_line(path, -1, '{"serial": "what", "garbage": tru')
        with pytest.warns(RuntimeWarning):
            loaded = load_wal(str(path))
        assert loaded.last_serial == wal.last_serial - 1

    def test_torn_tail_bumps_the_counter(self, tmp_path):
        _cluster, _wal, path = saved_wal(tmp_path)
        truncate_line(path, -1)
        handle = obs.enable(reset=True)
        with pytest.warns(RuntimeWarning):
            load_wal(str(path))
        assert handle.wal_torn_tail_dropped.value == 1

    def test_clean_load_leaves_the_counter_alone(self, tmp_path):
        _cluster, _wal, path = saved_wal(tmp_path)
        handle = obs.enable(reset=True)
        load_wal(str(path))
        assert handle.wal_torn_tail_dropped.value == 0

    def test_recovery_resumes_from_the_surviving_prefix(self, tmp_path):
        _cluster, wal, path = saved_wal(tmp_path)
        truncate_line(path, -1)
        with pytest.warns(RuntimeWarning):
            loaded = load_wal(str(path))
        recovered = loaded.recover()
        # The dropped record's serial is reassigned: the log stays dense.
        assert recovered.oracle.last_serial == wal.last_serial - 1
        assert recovered.oracle.assign(OpId("c9", 1)) == wal.last_serial

    def test_torn_tail_warns_exactly_once_counts_once_recovers_dense(
        self, tmp_path
    ):
        # The full torn-tail contract in one pass: exactly one
        # RuntimeWarning (not one per surviving record), exactly one
        # counter bump, and a recovery whose serial order is dense —
        # the next assignment continues right after the surviving
        # prefix, no gap where the dropped record was.
        _cluster, wal, path = saved_wal(tmp_path)
        truncate_line(path, -1)
        handle = obs.enable(reset=True)
        with pytest.warns(RuntimeWarning) as caught:
            loaded = load_wal(str(path))
        torn = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(torn) == 1
        assert handle.wal_torn_tail_dropped.value == 1
        serials = [r["serial"] for r in loaded.records]
        assert serials == list(
            range(serials[0], serials[0] + len(serials))
        )
        recovered = loaded.recover()
        assert recovered.oracle.last_serial == wal.last_serial - 1
        assert recovered.oracle.assign(OpId("c9", 1)) == wal.last_serial

    def test_torn_only_record_falls_back_to_the_snapshot_serial(
        self, tmp_path
    ):
        cluster, wal = driven_wal()
        cluster.server.rebase_to_serial(wal.last_serial)
        wal.compact(cluster.server)  # the base document covers everything
        path = tmp_path / "server.wal"
        save_wal(wal, str(path))
        assert len(path.read_text().splitlines()) == 1  # header only
        loaded = load_wal(str(path))
        assert loaded.last_serial == wal.last_serial


class TestRealCorruption:
    def test_mid_log_corruption_refuses_to_load(self, tmp_path):
        _cluster, _wal, path = saved_wal(tmp_path)
        truncate_line(path, 2)  # an *interior* record: acknowledged history
        with pytest.raises(ProtocolError, match="mid-log"):
            load_wal(str(path))

    def test_corrupt_header_refuses_to_load(self, tmp_path):
        _cluster, _wal, path = saved_wal(tmp_path)
        truncate_line(path, 0, keep=10)
        with pytest.raises(ProtocolError, match="header"):
            load_wal(str(path))

    def test_empty_file_refuses_to_load(self, tmp_path):
        path = tmp_path / "server.wal"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ProtocolError, match="empty"):
            load_wal(str(path))

    def test_final_record_with_a_skipped_serial_is_mid_log_damage(
        self, tmp_path
    ):
        # A well-formed JSON line whose serial breaks the dense order is
        # not a torn tail: the validator rejects it and, being the final
        # line, it is dropped as torn — but a *skipped* serial in the
        # middle is fatal.
        _cluster, _wal, path = saved_wal(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        del lines[2]  # remove an interior record: serials skip
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ProtocolError):
            load_wal(str(path)).recover()


#: A record field mistyped, which the loader once coerced or passed on.
MISTYPED_RECORDS = {
    "serial-float": lambda r: {**r, "serial": r["serial"] + 0.5},
    "serial-string": lambda r: {**r, "serial": str(r["serial"])},
    "origin-int": lambda r: {**r, "origin": 7},
    "epoch-string": lambda r: {**r, "epoch": "0"},
    "epoch-float": lambda r: {**r, "epoch": 0.9},
    "ctx-d-bool": lambda r: {**r, "ctx": [True, r["ctx"][1]]},
}


@pytest.mark.parametrize("shape", sorted(MISTYPED_RECORDS))
class TestRecordFieldsAreTyped:
    """Every path into a log checks a record's fields, never coerces."""

    def test_mid_log_it_is_corruption(self, tmp_path, shape):
        _cluster, wal, path = saved_wal(tmp_path)
        mistyped = MISTYPED_RECORDS[shape](wal.records[1])
        damage_line(path, 2, json.dumps(mistyped))
        with pytest.raises(ProtocolError, match="mid-log"):
            load_wal(str(path))

    def test_on_the_final_line_it_is_a_torn_tail(self, tmp_path, shape):
        _cluster, wal, path = saved_wal(tmp_path)
        mistyped = MISTYPED_RECORDS[shape](wal.records[-1])
        damage_line(path, -1, json.dumps(mistyped))
        with pytest.warns(RuntimeWarning, match="torn final WAL record"):
            loaded = load_wal(str(path))
        assert loaded.records == wal.records[:-1]

    def test_a_shipped_record_is_refused_and_the_log_kept(self, shape):
        _cluster, wal = driven_wal()
        backup = Replica(
            ["s0", "s1", "s2"], "s1", ServerWriteAheadLog("s1", [])
        )
        backup.append(0, 0, wal.records[0])
        before = backup.log.to_obj()
        with pytest.raises(ProtocolError):
            backup.append(0, 0, MISTYPED_RECORDS[shape](wal.records[1]))
        assert backup.log.to_obj() == before

    def test_a_shipped_log_is_refused(self, shape):
        _cluster, wal = driven_wal()
        log = wal.to_obj()
        log["records"][1] = MISTYPED_RECORDS[shape](log["records"][1])
        backup = Replica(
            ["s0", "s1", "s2"], "s1", ServerWriteAheadLog("s1", [])
        )
        with pytest.raises(ProtocolError):
            backup.install(3, 3, 0, log)  # view 3 is led by s0
        assert backup.view == 0 and backup.log.last_serial == 0


#: A WAL header that is not one, which once escaped untyped or coerced.
MALFORMED_HEADERS = {
    "a-list": lambda h: [h],
    "a-string": lambda h: "header",
    "no-clients": lambda h: {k: v for k, v in h.items() if k != "clients"},
    "clients-an-int": lambda h: {**h, "clients": 5},
    "base-a-string": lambda h: {**h, "base": "3"},
    "document-a-dict": lambda h: {**h, "document": {"a": 1}},
    "origin-count-a-float": lambda h: {**h, "origin_counts": {"c1": 1.0}},
    # a version-3 header's own fields, which the converter reads
    "deltas-a-dict": lambda h: {**h, "deltas": {"a": 1}},
    "snapshot-a-list": lambda h: {**h, "snapshot": [1]},
    "snapshot_every-a-string": lambda h: {**h, "snapshot_every": "8"},
}
OLD_HEADER_FIELDS = ("deltas", "snapshot")


@pytest.mark.parametrize("shape", sorted(MALFORMED_HEADERS))
def test_a_malformed_header_is_refused_typed(tmp_path, shape):
    if shape.startswith(OLD_HEADER_FIELDS):
        path = tmp_path / "v3.wal"
        v3.copied(tmp_path, path.name)
    else:
        _cluster, _wal, path = saved_wal(tmp_path)
    header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    damage_line(path, 0, json.dumps(MALFORMED_HEADERS[shape](header)))
    with pytest.raises(ProtocolError, match="WAL header"):
        load_wal(str(path))
