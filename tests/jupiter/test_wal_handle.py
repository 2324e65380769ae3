"""The shard's WAL file stays open between appends, and never goes stale.

A disk-backed :class:`~repro.jupiter.shard.ShardCore` appends each
record and delta line through one handle it keeps open.  A full
checkpoint replaces the file (``save_wal`` writes a scratch file and
renames it over the log), so the core must close the handle before the
rename and append through a fresh one after it — appends through the old
handle would land in the unlinked file, and a restart would not see
them.  Each step below checks the file against the log in memory.
"""

import asyncio
import gc
import os
import warnings

import pytest

from repro.jupiter.persistence import load_wal
from repro.model.schedule import OpSpec
from repro.net.client import NetClient
from repro.net.server import NetServer
from tests.jupiter.test_shard_core import Rig

FDS = "/proc/self/fd"


def descriptors_on(path):
    """How many of this process's descriptors are open on ``path``."""
    if not os.path.isdir(FDS):
        pytest.skip("no /proc/self/fd to count descriptors with")
    count = 0
    for fd in os.listdir(FDS):
        try:
            count += os.readlink(os.path.join(FDS, fd)) == path
        except OSError:
            pass  # the descriptor listdir itself used, closed since
    return count


def on_disk(rig, path):
    """The log as a restart would load it, beside the one in memory.  The
    client roster is left out: the header lists who had registered at
    the last rewrite, and recovery adds every origin its records name."""
    loaded, live = load_wal(path).to_obj(), rig.core.wal.to_obj()
    for obj in (loaded, live):
        del obj["clients"]
    return loaded, live


def test_every_append_across_checkpoint_rewrites_is_in_the_file(tmp_path):
    path = str(tmp_path / "doc.wal")
    rig = Rig(wal_path=path, snapshot_every=4)
    modes, rewrites = [], 0
    for step in range(40):
        rig.edit("a" if step % 3 else "b")
        loaded, live = on_disk(rig, path)
        assert loaded == live, f"step {step}: the file lost an append"
        modes.append(rig.core.wal.last_compaction_mode)
        if step % 8 == 7:
            for name in ("a", "b"):
                rig.deliver(name)
                rig.session(name).report_pin(rig.core.wal.last_serial)
            if rig.collect(threshold=1) is not None:
                rewrites += 1
            loaded, live = on_disk(rig, path)
            assert loaded == live, f"step {step}: the rewrite is not the log"
    assert rewrites >= 2 and rig.core.gc_runs == rewrites
    assert "delta" in modes  # delta lines went through the handle too
    recovered = load_wal(path).recover()
    assert recovered.document.as_string() == rig.core.server.document.as_string()
    rig.core.close()


def test_close_releases_the_descriptor_and_the_next_append_reopens(tmp_path):
    path = str(tmp_path / "doc.wal")
    rig = Rig(wal_path=path)
    assert descriptors_on(path) == 0  # the first append opens it
    rig.edit("a")
    assert descriptors_on(path) == 1
    rig.core.rewrite_disk()
    assert descriptors_on(path) == 0
    rig.edit("a")
    rig.edit("b")
    assert descriptors_on(path) == 1
    rig.core.close()
    rig.core.close()  # idempotent
    assert descriptors_on(path) == 0
    rig.edit("a")
    loaded, live = on_disk(rig, path)
    assert loaded == live and len(live["records"]) == 4
    rig.core.close()
    assert descriptors_on(path) == 0


def test_a_dropped_shard_releases_its_file_without_a_warning(tmp_path):
    path = str(tmp_path / "doc.wal")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rig = Rig(wal_path=path)
        rig.edit("a")
        assert descriptors_on(path) == 1
        del rig
        gc.collect()
    assert descriptors_on(path) == 0
    assert not [w for w in caught if w.category is ResourceWarning]


def test_a_stopped_server_holds_no_wal_file_open(tmp_path):
    async def scenario():
        server = NetServer(wal_dir=str(tmp_path))
        await server.start()
        client = NetClient("c1", "127.0.0.1", server.port)
        await client.connect()
        for index in range(3):
            await client.generate(OpSpec("ins", index, "w"))
        assert await client.wait_converged(3, timeout=10)
        path = server.shards[server.doc_id].wal_path
        held = descriptors_on(path)
        await client.close()
        await server.stop()
        return path, held

    path, held = asyncio.run(scenario())
    assert held == 1
    assert descriptors_on(path) == 0
    assert load_wal(path).last_serial == 3
