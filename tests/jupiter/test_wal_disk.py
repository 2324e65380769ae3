"""On-disk WAL tests: JSON-lines layout and torn-tail tolerance.

A crash mid-append leaves at most one truncated final line.  That
record was never acknowledged (the append had not completed), so
:func:`load_wal` may drop it — with a warning and a counter bump, never
silently.  Corruption anywhere *earlier* is lost acknowledged history
and must refuse to load.
"""

import pytest

from repro import obs
from repro.common import OpId
from repro.errors import ProtocolError
from repro.jupiter.persistence import load_wal, save_wal

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
        cluster, wal = driven_wal(snapshot_every=2)
        wal.compact(cluster.server, retain_after=3)
        path = tmp_path / "server.wal"
        save_wal(wal, str(path))
        loaded = load_wal(str(path))
        assert loaded.records == wal.records
        assert loaded.last_serial == wal.last_serial
        recovered = loaded.recover()
        assert recovered.space.signature() == cluster.server.space.signature()

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
        cluster, wal = driven_wal(snapshot_every=2)
        wal.compact(cluster.server)  # snapshot covers everything
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
