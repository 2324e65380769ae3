"""The client core's rules, bare: no socket, no event loop, no clock.

A :class:`~repro.jupiter.shard.ShardCore` serialises and a hand carries
the encoded broadcasts to the cores, choosing the acks, epochs, floors
and arrival order a wire would — what the pin holds, how far an ack or a
floor trims, what a whole-state transfer replaces, which frames are
stale, and that every refused frame leaves the core as it was.
"""

import os
import subprocess
import sys

import pytest

from repro.common.ids import SERVER_ID
from repro.errors import ProtocolError
from repro.jupiter.client_core import ClientCore
from repro.jupiter.persistence import ServerWriteAheadLog
from repro.jupiter.shard import ShardCore
from repro.model.schedule import OpSpec
from repro.net.codec import (
    compact_client_op_obj,
    compact_server_op_obj,
    document_signature,
    message_from_wire,
)


class Rig:
    """A shard core, client cores (two by default), and the broadcasts in
    between."""

    def __init__(self, names="ab"):
        wal = ServerWriteAheadLog(SERVER_ID, [])
        self.shard = ShardCore("doc", wal)
        self.cores = {n: ClientCore(n, message_from_wire) for n in names}
        #: serial -> the encoded broadcast every client receives
        self.bodies = {}
        for name in self.cores:
            self.shard.resync(self.shard.register(name, 0.0), 0, 0, 0.0)

    def edit(self, name, value="x", reach_server=True):
        core = self.cores[name]
        seq, _result = core.generate(OpSpec("ins", 0, value))
        if reach_server:
            session = self.shard.sessions[name]
            body = compact_client_op_obj(core.unacked[seq], core.css.oracle)
            for released in self.shard.accept(session, seq, 0, body):
                payload = message_from_wire(released, self.shard.server.oracle)
                serial, ctx, fanout = self.shard.serialise(
                    session, payload, 0
                )
                self.bodies[serial] = compact_server_op_obj(fanout[0][1], ctx)
        return seq

    def data(self, name, serial, ack=0, epoch=0, floor=None):
        return self.cores[name].data(
            serial, ack, epoch, floor, self.bodies[serial]
        )


def state(core):
    return (
        core.epoch,
        core.view,
        core.delivered,
        core.sender.next_seq,
        core.sender.acked,
        sorted(core.unacked),
        dict(core.gen_floors),
        dict(core.parked),
        core.css.oracle.base,
        document_signature(core.css.document),
    )


class TestPinAndAck:
    def test_the_pin_is_the_lowest_generation_floor_clamped_to_delivered(
        self,
    ):
        rig = Rig()
        a = rig.cores["a"]
        rig.edit("a")  # serial 1, generated at delivered 0
        rig.edit("b")
        rig.edit("b")
        for serial in (1, 2, 3):
            rig.data("a", serial)  # its own op's ack is still withheld
        assert (a.delivered, a.gen_floors, a.pin) == (3, {1: 0}, 0)
        rig.edit("a")  # serial 4, generated at delivered 3
        assert a.gen_floors == {1: 0, 2: 3} and a.pin == 0
        a.ack(1, 0, None)
        assert a.gen_floors == {2: 3} and a.pin == 3
        rig.data("a", 4, ack=2)
        assert not a.unacked and a.pin == a.delivered == 4

    def test_an_acked_op_awaiting_its_echo_still_holds_the_pin(self):
        """An ack can precede the echo (a welcome's ack precedes the
        echoes its resync re-ships): the next op is still generated on
        the run of the acked one, so a GC pass at the pin must leave that
        run's ``d`` in the window."""
        rig = Rig(["c1", "c2", "c3"])
        rig.edit("c3", "p")  # serial 1
        rig.edit("c3", "q")  # serial 2, generated on the run of serial 1
        for name in rig.cores:
            rig.data(name, 1)  # c3's is the echo of its own serial 1
        for _ in range(2):
            for name, core in rig.cores.items():
                rig.shard.sessions[name].report_pin(core.pin)
            rig.shard.collect(0.0, 0.0, threshold=0)
            floor = rig.shard.server.base
            for name, core in rig.cores.items():
                ack = rig.shard.ack_for(rig.shard.sessions[name])
                core.ack(ack, 0, floor)  # serial 2's echo is still in flight
        c3 = rig.cores["c3"]
        assert not c3.unacked and c3.css.pending_count == 1
        rig.edit("c3", "r")  # refused as "context floor 0 is outside the window"
        assert rig.shard.wal.last_serial == 3
        rig.data("c3", 2)
        rig.data("c3", 3)
        for name in ("c1", "c2"):
            for serial in (2, 3):
                rig.data(name, serial)
        signatures = {
            document_signature(core.css.document)
            for core in rig.cores.values()
        }
        assert signatures == {document_signature(rig.shard.server.document)}

    def test_the_ack_is_clamped_to_the_last_seq_sent(self):
        core = ClientCore("a", message_from_wire)
        core.generate(OpSpec("ins", 0, "x"))
        core.generate(OpSpec("ins", 0, "y"))
        core.ack(7, 0, None)  # a sender's ack would refuse 7 outright
        assert core.sender.acked == 2 and not core.unacked


class TestFloors:
    def test_a_rebase_never_passes_delivered(self):
        rig = Rig()
        for value in "pqrst":
            rig.edit("b", value)
        b = rig.cores["b"]
        for serial in range(1, 6):
            rig.data("b", serial, ack=serial)
        a = rig.cores["a"]
        rig.data("a", 1)
        rig.data("a", 2)
        a.ack(0, 0, 5)  # the floor raced ahead of a's resync
        assert a.css.oracle.base == a.delivered == 2
        for serial in (3, 4, 5):
            rig.data("a", serial, floor=5)
        assert a.css.oracle.base == 5
        assert a.css.document.as_string() == b.css.document.as_string()

    def test_a_state_transfer_drops_unacked_ops_and_repositions_both_halves(
        self,
    ):
        rig = Rig()
        a = rig.cores["a"]
        rig.edit("a", "p")  # serial 1: a's one op the server holds
        rig.edit("a", "q", reach_server=False)  # never serialised
        for value in "rstuv":
            rig.edit("b", value)
        rebase(rig.shard)  # a's cursor, 0, is below the base
        session = rig.shard.sessions["a"]
        _cursor, transfer, missed = rig.shard.resync(session, 0, 0, 0.0)
        assert transfer is not None and missed == []
        retransmit = a.welcome(
            0, 0, rig.shard.ack_for(session), rig.shard.server.base,
            state=transfer,
        )
        assert retransmit == [] and not a.unacked and not a.gen_floors
        assert a.state_transfers == 1
        assert (a.sender.next_seq, a.sender.acked) == (2, 1)
        assert a.receiver.expected == 7 and a.delivered == 6
        assert document_signature(a.css.document) == document_signature(
            rig.shard.server.document
        )
        rig.edit("a", "w")  # seq 2 is reused, and serialises at 7
        assert rig.shard.wal.last_serial == 7


def rebase(shard):
    """A GC pass at the log head, checkpointing the log there."""
    for session in shard.sessions.values():
        session.report_pin(shard.wal.last_serial)
    assert shard.collect(0.0, 0.0, threshold=1)[1] == shard.wal.base > 0


class TestEpochsAndRelease:
    def test_a_stale_epoch_data_frame_is_dropped_and_a_stale_ack_is_not(
        self,
    ):
        rig = Rig()
        rig.edit("b")
        a = rig.cores["a"]
        a.generate(OpSpec("ins", 0, "x"))
        a.learn(2)
        assert rig.data("a", 1, ack=1, epoch=1) == []
        assert a.delivered == 0 and a.parked == {} and a.unacked
        a.ack(1, 1, None)
        assert a.epoch == 2 and not a.unacked
        assert [b.serial for b in rig.data("a", 1, epoch=2)] == [1]

    def test_out_of_order_and_duplicate_frames_release_in_order_once(self):
        rig = Rig()
        for value in "pqr":
            rig.edit("b", value)
        assert rig.data("a", 3) == [] and rig.data("a", 2) == []
        assert sorted(rig.cores["a"].parked) == [2, 3]
        assert rig.data("a", 3) == []  # a parked frame again
        released = rig.data("a", 1)
        assert [b.serial for b in released] == [1, 2, 3]
        assert rig.data("a", 2) == []  # consumed already
        a = rig.cores["a"]
        assert a.parked == {} and a.delivered == 3
        assert a.css.document.as_string() == "rqp"


def spoiled_transfer(spoil):
    """A real whole-state transfer, one field of it spoiled."""
    rig = Rig()
    rig.edit("b")
    rig.edit("b")
    rebase(rig.shard)  # a's cursor, 0, is below the base
    _cursor, transfer, _missed = rig.shard.resync(
        rig.shard.sessions["a"], 0, 0, 0.0
    )
    spoil(transfer)
    return transfer


def hostile_welcome(spoil):
    return lambda c: c.welcome(0, 0, 0, None, 0, spoiled_transfer(spoil))


@pytest.mark.parametrize(
    "refused",
    [
        lambda c: c.data("x", 0, 0, None, {}),
        lambda c: c.data(1, -5, 0, None, {}),
        lambda c: c.data(1, 0, 0, "high", {}),
        lambda c: c.data(1, 0, 0, None, 7),
        lambda c: c.data(0, 0, 0, None, {}),
        lambda c: c.ack(0, True, None),
        lambda c: c.ack(-5, 0, None),
        lambda c: c.learn(1.5),
        lambda c: c.welcome(0, 0, 0, None, 0, {"snapshot": {}, "op_seq": 0}),
        hostile_welcome(lambda t: t.pop("document")),
        hostile_welcome(lambda t: t.update(delivered="x")),
        hostile_welcome(lambda t: t["document"].append(t["document"][0])),
        hostile_welcome(lambda t: t.update(op_seq=-1)),
        lambda c: c.welcome(0, 0, 0, None, "2"),
        hostile_welcome(lambda t: t["document"][0].pop()),
        hostile_welcome(lambda t: t["document"][0].__setitem__(2, True)),
        hostile_welcome(lambda t: t.update(document={"x": 1})),
    ],
)
def test_a_refused_frame_changes_nothing(refused):
    rig = Rig()
    rig.edit("b")
    rig.edit("b")
    a = rig.cores["a"]
    a.generate(OpSpec("ins", 0, "x"))
    rig.data("a", 2)  # parked behind serial 1
    before = state(a)
    with pytest.raises(ProtocolError):
        refused(a)
    assert state(a) == before


def test_the_core_is_as_pure_and_is_exported():
    """The client's rules run bare and under asyncio alike: their module
    may know neither.  A client keeps no state space, so it loads none."""
    probe = (
        "import sys, repro.jupiter.client_core; "
        "bad = {'asyncio', 'socket', 'repro.net', 'repro.jupiter.nary', "
        "'repro.jupiter.state_space', 'repro.jupiter.css'} & set(sys.modules); "
        "assert not bad, bad; "
        "from repro.jupiter import ClientCore; "
        "assert ClientCore is repro.jupiter.client_core.ClientCore"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))}
    subprocess.run([sys.executable, "-c", probe], check=True, env=env)
