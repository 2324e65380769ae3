"""A malformed server frame drops the link, typed — and nothing else.

A raw-socket fake server welcomes the client, sends one hostile frame,
and serves honestly on the next connection.  Each shape used to reach
the client's frame handler unchecked: a non-integer ``seq`` or ``floor``
escaped as ``ValueError``, a ``multi`` whose ``frames`` is not a list as
``TypeError``, a member without a ``type`` as ``KeyError`` — each
killing the read task through asyncio's unhandled-exception handler —
while a negative ``ack`` and a boolean ``epoch`` were taken without
complaint.  Now the client core refuses each before it changes
anything, and the read loop treats the refusal like a dead link: one
log line, hang up, reconnect.

Three shapes carry a body the client refuses only once it reads it: an
empty ``server_op`` body, an echo naming an op of ours that is not the
head of the pending queue, and an echo naming another replica's op.
Each used to count its seq (and an echo to record its serial) before
the refusal, so the honest re-ship of that seq was dropped as a
duplicate and the client never converged.
"""

import asyncio
import copy
import logging

import pytest

from repro.common import OpId
from repro.common.ids import SERVER_ID
from repro.errors import ProtocolError
from repro.jupiter.client_core import ClientCore
from repro.jupiter.messages import ServerEcho
from repro.jupiter.persistence import ServerWriteAheadLog
from repro.jupiter.shard import ShardCore
from repro.model.schedule import OpSpec
from repro.net.client import NetClient
from repro.net.codec import (
    WIRE_VERSION,
    WireError,
    compact_client_op_obj,
    compact_server_op_obj,
    decode_envelope,
    document_signature,
    encode_envelope,
    encode_frame_bytes,
    message_from_wire,
    server_echo_obj,
)
from repro.net.transport import read_frame, write_frame


def _refused_body(body):
    """A well-formed first data frame whose body the client refuses."""
    return ("data", {"seq": 1, "ack": 0, "epoch": 0, "floor": 0, "body": body})


#: shape -> the hostile frame's type and fields
HOSTILE_SERVER_FRAMES = {
    "data-seq-not-an-integer": ("data", {"seq": "x", "ack": 0, "body": {}}),
    "ack-floor-not-an-integer": ("ack", {"ack": 0, "floor": "high"}),
    "multi-frames-not-a-list": ("multi", {"frames": 7}),
    "multi-member-without-a-type": ("multi", {"frames": [{"ack": 0}]}),
    "ack-negative": ("ack", {"ack": -5}),
    "epoch-a-bool": ("ack", {"ack": 0, "epoch": True}),
    "server-op-body-empty": _refused_body(
        {"v": WIRE_VERSION, "kind": "server_op", "body": {}}
    ),
    "echo-not-the-pending-head": _refused_body(
        server_echo_obj(ServerEcho(OpId("c1", 9), 1))
    ),
    "echo-of-another-replicas-op": _refused_body(
        server_echo_obj(ServerEcho(OpId("c2", 1), 1))
    ),
}


@pytest.mark.parametrize("shape", sorted(HOSTILE_SERVER_FRAMES))
def test_the_link_drops_typed_and_an_honest_reconnect_converges(
    shape, caplog
):
    kind, fields = HOSTILE_SERVER_FRAMES[shape]

    async def scenario():
        unhandled = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: unhandled.append(context)
        )
        hellos, handlers = [], []
        hung_up = asyncio.Event()

        async def serve(reader, writer):
            handlers.append(asyncio.current_task())
            hellos.append(await read_frame(reader))
            await write_frame(
                writer,
                encode_envelope(
                    "welcome", ack=0, resync=0, epoch=0,
                    view=0, roster=[], floor=0,
                ),
            )
            if len(hellos) == 1:
                await write_frame(writer, encode_envelope(kind, **fields))
                await reader.read()  # until the client hangs up
                hung_up.set()
            else:
                op = (await read_frame(reader))["body"]  # the retransmit
                echo = {**op, "kind": "server_op"}
                echo["body"] = {**op["body"], "origin": "c1", "serial": 1}
                await write_frame(
                    writer,
                    encode_envelope(
                        "data", seq=1, ack=1, epoch=0, floor=0, body=echo
                    ),
                )
                await reader.read()
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = NetClient("c1", "127.0.0.1", port, heartbeat_interval=None)
        await client.generate(OpSpec("ins", 0, "z"))  # offline: buffered
        await client.connect()
        converged = await client.wait_converged(1, timeout=10)
        state = {
            "converged": converged,
            "hung_up": hung_up.is_set(),
            "connections": len(hellos),
            "epoch": client.epoch,
            "text": client.css.document.as_string(),
            "unhandled": unhandled,
        }
        await client.close()
        await asyncio.wait(handlers, timeout=5)
        server.close()
        await server.wait_closed()
        return state

    with caplog.at_level(logging.INFO, logger="repro.net.client"):
        state = asyncio.run(scenario())
    assert state == {
        "converged": True,
        "hung_up": True,
        "connections": 2,
        "epoch": 0,
        "text": "z",
        "unhandled": [],
    }
    logged = [r.message for r in caplog.records]
    assert sum("violated the protocol" in line for line in logged) == 1, logged


# ----------------------------------------------------------------------
# A bad broadcast, bare: refused before the buffer client changes
# ----------------------------------------------------------------------
INITIAL = "ab"


class Story:
    """A shard seeded with ``ab``, a client core ``b`` and a client
    ``a`` (its frame handler, no socket).  ``b`` makes serials 1..4:
    ``apb``, ``pb``, ``pbq``, ``rpbq``.  ``a`` has applied 1 and 2, holds
    the ``parked`` ones and one op of its own pending, never yet sent:
    it reads ``pxb``.  Serial 3 is next."""

    def __init__(self, parked=(4,)):
        wal = ServerWriteAheadLog(
            SERVER_ID, [], initial_text=INITIAL
        )
        self.shard = ShardCore("doc", wal)
        self.cores = {
            "a": NetClient("a", heartbeat_interval=None),
            "b": ClientCore("b", message_from_wire),
        }
        self.bodies = {}
        for name, core in self.cores.items():
            self.shard.resync(self.shard.register(name, 0.0), 0, 0, 0.0)
            core.welcome(0, 0, 0, 0, initial=INITIAL, first_contact=True)
        for spec in ("ins", 1, "p"), ("del", 0), ("ins", 2, "q"), ("ins", 0, "r"):
            self.send("b", OpSpec(*spec))
        self.a = self.cores["a"]
        for serial in (1, 2, *parked):
            self.a.data(serial, 0, 0, 0, self.bodies[serial])
        self.held, _ = ClientCore.generate(self.a, OpSpec("ins", 1, "x"))

    def send(self, name, spec=None):
        core = self.cores[name]
        seq = core.generate(spec)[0] if spec else self.held
        session = self.shard.sessions[name]
        body = compact_client_op_obj(core.unacked[seq], core.css.oracle)
        for released in self.shard.accept(session, seq, 0, body):
            payload = message_from_wire(released, self.shard.server.oracle)
            serial, executed, fanout = self.shard.serialise(
                session, payload, 0
            )
            self.bodies[serial] = compact_server_op_obj(fanout[0][1], executed)
        core.data(serial, seq, 0, 0, self.bodies[serial])

    def spoiled(self, spoil):
        body = copy.deepcopy(self.bodies[3])
        spoil(body["body"], body["body"]["operation"])
        return body


def core_state(core):
    """Everything a refused broadcast must leave as it was."""
    css = core.css
    return (
        css.document.to_obj(),
        [(op.opid, op.kind, op.position) for op in css._pending],
        core.receiver.expected,
        core.delivered,
        dict(core.parked),
        css.oracle.serial_items(),
        css.oracle.base,
        sorted(core.unacked),
    )


#: a bad serial-3 broadcast -> how it was spoiled
BAD_BROADCASTS = {
    "position-past-the-end": lambda body, op: op.update(position=99),
    "re-inserts-an-id-already-present": lambda body, op: op.update(
        opid=["init", 2], element={"value": "b", "opid": ["init", 2]}
    ),
    "deletes-a-different-element": lambda body, op: op.update(
        kind="del", position=0, element={"value": "b", "opid": ["init", 2]}
    ),
    "serial-not-the-next": lambda body, op: body.update(serial=4),
}


@pytest.mark.parametrize("shape", sorted(BAD_BROADCASTS))
def test_a_bad_broadcast_is_refused_and_the_honest_re_ship_applies(shape):
    story = Story()
    a = story.a
    before = core_state(a)
    with pytest.raises(ProtocolError):
        a.data(3, 0, 0, 0, story.spoiled(BAD_BROADCASTS[shape]))
    assert core_state(a) == before
    released = a.data(3, 0, 0, 0, story.bodies[3])
    assert [b.serial for b in released] == [3, 4]
    story.send("a")  # the held op reaches the server at last: serial 5
    story.cores["b"].data(5, 0, 0, 0, story.bodies[5])
    signature = document_signature(story.shard.server.document)
    assert {document_signature(c.css.document) for c in story.cores.values()} == {
        signature
    }


def test_a_broadcast_naming_another_context_decodes_at_serial_minus_one():
    """A broadcast is at the serial before its own: a ``ctx`` it names
    anyway is an unknown field, ignored, and the body applies as the
    honest one does."""
    stray, honest = Story(), Story()
    body = stray.spoiled(lambda body, op: body.update(ctx=[1, 0]))
    oracle = stray.a.css.oracle
    assert message_from_wire(body, oracle).operation.context == oracle.dense(2)
    assert [b.serial for b in stray.a.data(3, 0, 0, 0, body)] == [3, 4]
    honest.a.data(3, 0, 0, 0, honest.bodies[3])
    assert core_state(stray.a) == core_state(honest.a)


def test_every_truncation_and_byte_flip_of_a_broadcast_frame_is_typed():
    """A hot ``server_op`` frame, cut at every offset and with each byte
    replaced by every other value: a typed ``WireError``, a refusal that
    left the client as it was, or a frame the client took — never an
    untyped exception.  Nothing is parked behind it: a successor the
    client refuses after taking a well-formed forgery stays parked, but
    the forgery was taken."""
    story = Story(parked=())
    frame = encode_envelope(
        "data", seq=3, ack=0, epoch=0, floor=0, body=story.bodies[3]
    )
    raw = encode_frame_bytes(frame)
    assert raw[1] == 0x11
    variants = [raw[:cut] for cut in range(1, len(raw))]
    variants += [
        raw[:at] + bytes([byte]) + raw[at + 1 :]
        for at in range(1, len(raw))
        for byte in range(256)
        if byte != raw[at]
    ]
    outcomes = {"wire": 0, "refused": 0, "taken": 0}
    pristine = copy.deepcopy(story.a)
    for variant in variants:
        try:
            decoded = decode_envelope(variant)
        except WireError:
            outcomes["wire"] += 1
            continue
        client = copy.deepcopy(pristine)
        before = core_state(client)
        try:
            NetClient._handle_frame(client, decoded)
        except ProtocolError:
            assert core_state(client) == before
            outcomes["refused"] += 1
        else:
            outcomes["taken"] += 1
    assert all(outcomes.values()), outcomes
