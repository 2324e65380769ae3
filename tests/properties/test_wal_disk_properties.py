"""Hypothesis over the on-disk write-ahead log (ROADMAP 3a, ``load_wal``).

Each example drives the deployed :class:`~repro.jupiter.shard.ShardCore`
with an on-disk file through a drawn sequence of edits, serialisations
(some under a bumped replication epoch) and GC passes (each a checkpoint
rewrite), and then checks three claims about the file it left:

* ``load_wal(path)`` is the live log — ``origin_counts``, ``last_epoch``,
  ``last_serial`` — and recovers the live server: document and space
  signature;
* every truncation of a final record line the shard *appended* (a
  checkpoint rewrite is an atomic rename and is never torn) is dropped
  as a torn tail — the warning plus the counter — and what is left
  loads as the log minus that record;
* a duplicated or reordered line never recovers a different document
  silently: the file loads equal or raises :class:`ProtocolError`;
* in a version-3 file the converter reads (the checked-in fixture), a
  node id rewritten to one the file does not hold — a node's own, its
  ``from`` parent, a transition target, ``final`` or a touched node, in
  the header's checkpoint or in a delta line — is refused with
  :class:`ProtocolError` or converts to the intact file's log, and never
  escapes as another exception.
"""

import json
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import ProtocolError
from repro.jupiter.persistence import ServerWriteAheadLog, load_wal
from tests.jupiter import test_wal_v3_conversion as v3
from tests.properties.test_wal_checkpoint_equivalence import NAMES, Driver

#: weighted: most steps append (edit at a client, serialise its oldest
#: unserialised edit) or deliver; a few collect (a GC pass and its
#: checkpoint) or start a new epoch
STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["append"] * 5 + ["deliver"] * 3 + ["collect"] * 2 + ["epoch"]
        ),
        st.sampled_from(NAMES),
    ),
    min_size=8,
    max_size=40,
)
#: where in a line to cut it, or which lines to disturb (taken modulo)
PICKS = st.integers(min_value=0, max_value=10**6)


@pytest.fixture(autouse=True)
def _observability_left_disabled():
    yield
    obs.disable()


def drive(directory, seed, steps):
    """Run ``steps``; return the rig and how many lines the file had
    after its last rewrite (lines past that were appended)."""
    rig = Driver(seed, os.path.join(directory, "doc.wal"))
    shard, rewritten = rig.shard, [len(read_lines(rig))]
    rewrite = shard.rewrite_disk

    def tracked():
        rewrite()
        rewritten[0] = len(read_lines(rig))

    shard.rewrite_disk = tracked
    for action, name in steps:
        if action == "append":
            rig.edit(name)
            rig.serialise(name)
        elif action == "deliver":
            if rig.downlink[name]:
                rig.deliver(name)
        elif action == "collect":
            rig.rebase()
        else:
            rig.epoch += 1
    return rig, rewritten[0]


def read_lines(rig):
    with open(rig.shard.wal_path, encoding="utf-8") as handle:
        return handle.read().splitlines()


def write_lines(directory, lines, name):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
    return path


def assert_same_log(loaded, expected, server):
    assert loaded.origin_counts() == expected.origin_counts()
    assert loaded.last_epoch == expected.last_epoch
    assert loaded.last_serial == expected.last_serial
    recovered = loaded.recover()
    assert recovered.space.signature() == server.space.signature()
    assert recovered.document.as_string() == server.document.as_string()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), steps=STEPS)
def test_the_file_recovers_the_live_server(seed, steps):
    with tempfile.TemporaryDirectory() as directory:
        rig, _rewritten = drive(directory, seed, steps)
        assert_same_log(
            load_wal(rig.shard.wal_path), rig.wal, rig.server
        )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), steps=STEPS, pick=PICKS)
def test_a_torn_appended_line_is_dropped_whole(seed, steps, pick):
    with tempfile.TemporaryDirectory() as directory:
        rig, rewritten = drive(directory, seed, steps)
        lines = read_lines(rig)
        if len(lines) == rewritten:
            return  # the final line came with an atomic rewrite
        final = lines[-1]
        torn = final[: 1 + pick % (len(final) - 1)]
        path = write_lines(directory, lines[:-1] + [torn], "torn.wal")
        handle = obs.enable(reset=True)
        with pytest.warns(RuntimeWarning, match="torn"):
            loaded = load_wal(path)
        assert handle.wal_torn_tail_dropped.value == 1
        obj = rig.wal.to_obj()
        obj["records"].pop()
        expected = ServerWriteAheadLog.from_obj(obj)
        assert_same_log(loaded, expected, expected.recover())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    steps=STEPS,
    duplicate=st.booleans(),
    first=PICKS,
    second=PICKS,
)
def test_a_moved_line_loads_equal_or_is_refused(
    seed, steps, duplicate, first, second
):
    with tempfile.TemporaryDirectory() as directory:
        rig, _rewritten = drive(directory, seed, steps)
        header, *body = read_lines(rig)
        if len(body) < 2:
            return
        i = first % len(body)
        if duplicate:
            body.insert(second % (len(body) + 1), body[i])
        else:
            j = (i + 1 + second % (len(body) - 1)) % len(body)
            body[i], body[j] = body[j], body[i]
        path = write_lines(directory, [header] + body, "moved.wal")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                recovered = load_wal(path).recover()
        except ProtocolError:
            return
        live = rig.server.document
        assert recovered.document.as_string() == live.as_string()
        assert [e.opid for e in recovered.document] == [e.opid for e in live]


def _id_sites(space_nodes, holder, touched=()):
    """Every node id in one checkpoint or delta: ``(kind, container,
    index)`` triples that ``container[index] = dangling`` rewrites."""
    for node in space_nodes:
        yield "id", node, "id"
        if "from" in node:
            yield "from", node["from"], 0
    for node in list(space_nodes) + list(touched):
        for child in node["children"]:
            yield "target", child, 1
    yield "final", holder, "final"
    for patch in touched:
        yield "touched", patch, "id"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["id", "from", "target", "final", "touched"]),
    pick=PICKS,
)
def test_a_dangling_node_id_is_refused_or_harmless(kind, pick):
    with tempfile.TemporaryDirectory() as directory:
        with open(v3.FIXTURE, encoding="utf-8") as handle:
            objs = [json.loads(line) for line in handle if line.strip()]
        sites, held = [], set()
        space = objs[0]["snapshot"]["space"]
        sites += _id_sites(space["nodes"], space)
        for obj in objs[1:]:
            if "delta" in obj:
                delta = obj["delta"]
                sites += _id_sites(delta["added"], delta, delta["touched"])
        for _kind, container, index in sites:
            held.add(container[index])
        sites = [site for site in sites if site[0] == kind]
        if not sites:
            return
        _kind, container, index = sites[pick % len(sites)]
        container[index] = max(held) + 1000
        path = write_lines(
            directory,
            [json.dumps(obj, sort_keys=True) for obj in objs],
            "dangling.wal",
        )
        try:
            converted = load_wal(path)
        except ProtocolError:
            return
        assert converted.to_obj() == load_wal(v3.FIXTURE).to_obj()
