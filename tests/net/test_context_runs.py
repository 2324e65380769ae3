"""A context on the wire is ``[d, n]``: every serial up to ``d`` plus the
``n`` operations its generator made just before it.

The count comes from a peer and bounds nothing by its size, so every
``(d, n, seq)`` a hostile client frame can carry is refused typed or
resolves to exactly the state it names on a live shard.  A broadcast
names no context: a client core resolves it at the serial before its
own, whatever its opid, or refuses it typed.
Over seeded multi-writer schedules, ``key_from_run``'s O(1) branch and
its general one name the state ``key_from_pair`` names over the run, as
a set and in hash.  And a client frame does not grow with its pending
run.
"""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.ids import SERVER_ID, OpId
from repro.errors import ProtocolError, ReproError
from repro.jupiter.client_core import ClientCore
from repro.jupiter.keys import SerialLog
from repro.jupiter.persistence import ServerWriteAheadLog
from repro.jupiter.shard import ShardCore
from repro.model.schedule import OpSpec
from repro.net.codec import (
    WIRE_VERSION,
    compact_client_op_obj,
    compact_server_op_obj,
    encode_envelope,
    encode_frame_bytes,
    message_from_wire,
)

NAMES = ["a", "b", "c"]


class Rig:
    """A shard core, client cores, and the frames in flight between them."""

    def __init__(self, seed=0):
        self.rng = random.Random(seed)
        self.shard = ShardCore(
            "doc", ServerWriteAheadLog(SERVER_ID, [])
        )
        self.cores = {n: ClientCore(n, message_from_wire) for n in NAMES}
        for name in NAMES:
            self.shard.resync(self.shard.register(name, 0.0), 0, 0, 0.0)
        self.uplink = {name: [] for name in NAMES}
        self.downlink = {name: [] for name in NAMES}
        #: serial -> the encoded broadcast every client receives
        self.bodies = {}

    def edit(self, name):
        core = self.cores[name]
        seq, _ = core.generate(OpSpec("ins", 0, self.rng.choice("xyz")))
        body = compact_client_op_obj(core.unacked[seq], core.css.oracle)
        self.uplink[name].append((seq, core.pin, body))

    def serialise(self, name):
        seq, pin, body = self.uplink[name].pop(0)
        session = self.shard.sessions[name]
        session.report_pin(pin)
        for released in self.shard.accept(session, seq, 0, body):
            payload = message_from_wire(released, self.shard.server.oracle)
            serial, ctx, fanout = self.shard.serialise(
                session, payload, 0
            )
            self.bodies[serial] = compact_server_op_obj(fanout[0][1], ctx)
            for recipient, _ in fanout:
                self.downlink[recipient.client].append(serial)

    def deliver(self, name):
        serial = self.downlink[name].pop(0)
        ack = self.shard.ack_for(self.shard.sessions[name])
        self.cores[name].data(
            serial, ack, 0, self.shard.server.base, self.bodies[serial]
        )

    def rebase(self):
        """The deployed GC pass: every broadcast delivered, every core's
        own pin reported, the floor collected and acknowledged back."""
        for name in NAMES:
            while self.downlink[name]:
                self.deliver(name)
            self.shard.sessions[name].report_pin(self.cores[name].pin)
        self.shard.collect(0.0, 0.0, threshold=0)
        for name, core in self.cores.items():
            ack = self.shard.ack_for(self.shard.sessions[name])
            core.ack(ack, 0, self.shard.server.base)

    def run(self, steps):
        for _ in range(steps):
            roll, name = self.rng.random(), self.rng.choice(NAMES)
            if roll < 0.45:  # a keystroke, or now and then a paste
                for _ in range(self.rng.choice((1, 1, 4))):
                    self.edit(name)
            elif roll < 0.7:
                if self.uplink[name]:
                    self.serialise(name)
            elif roll < 0.97:
                if self.downlink[name]:
                    self.deliver(name)
            else:
                self.rebase()
        while any(self.uplink.values()) or any(self.downlink.values()):
            for name in NAMES:
                while self.uplink[name]:
                    self.serialise(name)
                while self.downlink[name]:
                    self.deliver(name)


def history():
    """A shard that serialised a1 a2 b1 a3 b2 — a's run broken by b — and
    a client core ``c`` that has applied all five."""
    rig = Rig()
    for name in "aabab":
        rig.edit(name)
    for name in "aabab":
        rig.serialise(name)
    for serial in range(1, 6):
        rig.downlink["c"].remove(serial)
        rig.cores["c"].data(serial, 0, 0, None, rig.bodies[serial])
    return rig


def exact(oracle, d, n, opid):
    """The state ``[d, n]`` of ``opid`` names, as a plain set."""
    run = {OpId(opid.replica, seq) for seq in range(opid.seq - n, opid.seq)}
    return frozenset(oracle.opids_between(oracle.base, d)) | run


def hostile_op(opid, d=None, n=None, **server_fields):
    """A client op on ``[d, n]`` or, given a broadcast's fields, a
    broadcast, which carries no context."""
    body = {
        "operation": {
            "kind": "ins",
            "opid": list(opid),
            "element": {"value": "h", "opid": list(opid)},
            "position": 0,
        },
        **(server_fields or {"ctx": [d, n]}),
    }
    kind = "server_op" if server_fields else "client_op"
    return {"v": WIRE_VERSION, "kind": kind, "body": body}


counts = st.one_of(st.integers(0, 8), st.integers(0, 2**63))
#: a4 on [2, 2]: its run's last op, a3, sits at serial d + n = 4, yet
#: serials 3..4 are b1 a3 and a2 is inside d — not the run a4 names
SPLIT_RUN = example(replica="a", d=2, n=2, seq=4)


class TestHostileRunCounts:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["a", "b", "h"]), counts, counts, counts)
    @SPLIT_RUN
    def test_a_shard_refuses_typed_or_resolves_the_exact_state(
        self, replica, d, n, seq
    ):
        rig = history()
        shard, oracle = rig.shard, rig.shard.server.oracle
        session = shard.sessions["c"]
        before = (oracle.last_serial, shard.server.document.as_string())
        try:
            payload = message_from_wire(
                hostile_op((replica, seq), d, n), oracle
            )
            shard.serialise(session, payload, 0)
        except ProtocolError:
            assert (oracle.last_serial, shard.server.document.as_string()) == before
            return
        context = payload.operation.context
        assert frozenset(context) == exact(oracle, d, n, OpId(replica, seq))
        assert hash(context) == hash(exact(oracle, d, n, OpId(replica, seq)))
        assert oracle.last_serial == before[0] + 1

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["a", "b", "h"]), counts)
    def test_a_client_core_refuses_typed_or_resolves_the_exact_state(
        self, replica, seq
    ):
        rig = history()
        core = rig.cores["c"]
        decoded = []

        def decode(body, oracle):
            decoded.append(message_from_wire(body, oracle))
            return decoded[-1]

        core.decode = decode
        oracle = core.css.oracle
        body = hostile_op((replica, seq), origin=replica, serial=6)
        try:
            core.data(6, 0, 0, None, body)
        except ProtocolError:
            if not decoded:
                return
        except ReproError:
            # resolved, then refused by the integration (a state this
            # space lacks, an id it holds), not by the resolver
            assert decoded
        context = decoded[0].operation.context
        assert frozenset(context) == exact(oracle, 5, 0, OpId(replica, seq))
        assert hash(context) == hash(exact(oracle, 5, 0, OpId(replica, seq)))

    def test_a_run_logged_out_of_order_is_refused_before_a_serial(self):
        """Nothing orders a peer's own seqs, so a hostile ``h`` can log
        h2, b's op, then h1.  h3 on ``[0, 2]`` names {h1, h2}, a state the
        shard holds, but its key would settle to ``[1, {h1}]``: extras
        that are not h3's run, which the broadcast would refuse after the
        serial was spent.  The resolver refuses it first."""
        rig = Rig()
        shard = rig.shard
        session = shard.register("h", 0.0)
        rig.downlink["h"] = []

        def send(seq, d, n):
            op = hostile_op(("h", seq), d, n)
            payload = message_from_wire(op, shard.server.oracle)
            serial, ctx, fanout = shard.serialise(session, payload, 0)
            return compact_server_op_obj(fanout[0][1], ctx)

        send(2, 0, 0)
        rig.edit("b")
        rig.serialise("b")
        send(1, 0, 0)
        with pytest.raises(ProtocolError, match="not serialised past 0"):
            send(3, 0, 2)
        assert shard.server.oracle.last_serial == 3


def test_both_branches_name_the_state_key_from_pair_names(monkeypatch):
    """Seeded schedules of three writers, pastes and rebases: every
    context either resolver branch builds, at the shard and at each
    client, equals ``key_from_pair`` over the run as a set and in hash."""
    real_run, real_pair = SerialLog.key_from_run, SerialLog.key_from_pair
    branches, resolving = Counter(), []

    def key_from_pair(log, d, extras):
        extras = list(extras)
        if resolving and extras:
            resolving[-1] = "general"
        return real_pair(log, d, extras)

    def key_from_run(log, d, n, opid):
        resolving.append("fast" if n else "empty")
        key = real_run(log, d, n, opid)
        branches[resolving.pop()] += 1
        run = [OpId(opid.replica, seq) for seq in range(opid.seq - n, opid.seq)]
        reference = real_pair(log, d, run)
        assert key == reference and frozenset(key) == frozenset(reference)
        assert hash(key) == hash(reference) == hash(frozenset(reference))
        return key

    monkeypatch.setattr(SerialLog, "key_from_pair", key_from_pair)
    monkeypatch.setattr(SerialLog, "key_from_run", key_from_run)
    for seed in range(12):
        rig = Rig(seed)
        rig.run(160)
        documents = {
            core.css.document.as_string() for core in rig.cores.values()
        }
        assert documents == {rig.shard.server.document.as_string()}
    assert branches["fast"] and branches["general"], branches


def test_a_client_frame_does_not_grow_with_its_pending_run():
    """63 pending ops cost at most one varint over none: the context
    counts the run instead of listing it."""
    core = ClientCore("c1", message_from_wire)
    sizes = []
    for _ in range(64):
        seq, _ = core.generate(OpSpec("ins", 0, "x"))
        envelope = encode_envelope(
            "data", seq=seq, ack=0, epoch=0, pin=0,
            body=compact_client_op_obj(core.unacked[seq], core.css.oracle),
        )
        sizes.append(len(encode_frame_bytes(envelope)))
    assert core.css.pending_count == 64
    assert sizes[-1] <= sizes[0] + 1, sizes
