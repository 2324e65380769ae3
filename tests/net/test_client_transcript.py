"""A client's whole conversation, byte for byte, with no socket.

One scripted story drives a :class:`~repro.net.client.NetClient` through
every rule it keeps: a first-contact welcome with a trailing ``multi``,
in-order, out-of-order and duplicate broadcasts, an ``ack`` carrying a GC
floor, a records reconnect with a retransmit suffix, a whole-state
transfer, a stale-epoch broadcast and a redirect.  The server side is a
bare :class:`~repro.jupiter.shard.ShardCore` fed by hand; the sockets are
fakes that record every envelope the client writes and every address it
dials.  ``client_transcript.json`` is that transcript (frames in,
envelopes out, the client's state after each step), captured before the
client's rules moved into :class:`~repro.jupiter.client_core.ClientCore`:
the same story must still write the same bytes and end in the same
state.  Regenerate it (``PYTHONPATH=src python
tests/net/test_client_transcript.py``) only when a client rule changes
on purpose.
"""

import asyncio
import json
import os

from repro.common.ids import SERVER_ID
from repro.document.list_document import ListDocument
from repro.jupiter.css import CssClient
from repro.jupiter.persistence import ServerWriteAheadLog
from repro.jupiter.shard import ShardCore
from repro.model.schedule import OpSpec
from repro.net import client as client_module
from repro.net.codec import (
    compact_client_op_obj,
    compact_server_op_obj,
    encode_envelope,
    message_from_wire,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "client_transcript.json")
INITIAL = "ab"
GRACE = 15.0
ROSTER = [["h0", 1], ["h1", 2]]


def _plain(obj):
    return json.loads(json.dumps(obj))


class World:
    """The server side of the story: a shard core and one peer editor."""

    def __init__(self):
        wal = ServerWriteAheadLog(
            SERVER_ID, [], initial_text=INITIAL
        )
        self.core = ShardCore("doc", wal)
        self.peer = CssClient("c2", ListDocument.from_string(INITIAL))
        self.peer_inbox = []
        self.peer_seq = 0
        self.bodies = {}
        self.now = 100.0
        self.core.resync(self.core.register("c2", self.now), 0, 0, self.now)

    def _serialise(self, name, seq, ack, body):
        session = self.core.sessions[name]
        for released in self.core.accept(session, seq, ack, body):
            payload = message_from_wire(released, self.core.server.oracle)
            serial, ctx, fanout = self.core.serialise(
                session, payload, 0
            )
            self.bodies[serial] = _plain(
                compact_server_op_obj(fanout[0][1], ctx)
            )
            for recipient, broadcast in fanout:
                if recipient.client == "c2":
                    self.peer_inbox.append(broadcast)

    def take(self, envelope):
        """A data frame the client wrote reaches the server."""
        self.core.sessions["c1"].report_pin(envelope["pin"])
        self._serialise(
            "c1", envelope["seq"], envelope["ack"], envelope["body"]
        )

    def catch_up_peer(self):
        for broadcast in self.peer_inbox:
            self.peer.receive(broadcast)
        self.peer_inbox.clear()
        self.core.sessions["c2"].report_pin(self.core.wal.last_serial)

    def peer_edit(self, spec):
        self.catch_up_peer()
        outgoing = self.peer.generate(spec).outgoing
        self.peer_seq += 1
        body = _plain(compact_client_op_obj(outgoing, self.peer.oracle))
        self._serialise("c2", self.peer_seq, 0, body)

    def data(self, serial, epoch=0):
        return encode_envelope(
            "data",
            seq=serial,
            ack=self.core.ack_for(self.core.sessions["c1"]),
            epoch=epoch,
            floor=self.core.server.base,
            body=self.bodies[serial],
        )

    def ack(self, epoch=0):
        return encode_envelope(
            "ack",
            ack=self.core.ack_for(self.core.sessions["c1"]),
            epoch=epoch,
            floor=self.core.server.base,
        )

    def welcome(self, hello, epoch=0, view=0, roster=()):
        """What ``NetServer._handle_session`` answers ``hello``: the
        welcome, and the broadcasts its cursor missed."""
        session = self.core.register("c1", self.now)
        _cursor, state, missed = self.core.resync(
            session, hello["delivered"], hello["pin"], self.now
        )
        welcome = encode_envelope(
            "welcome",
            server=SERVER_ID,
            doc="doc",
            ack=self.core.ack_for(session),
            serial=self.core.wal.last_serial,
            resync=len(missed),
            initial=INITIAL,
            view=view,
            epoch=epoch,
            roster=list(roster),
            floor=self.core.server.base,
        )
        if state is not None:
            welcome["state"] = state
        return _plain(welcome), [
            self.data(broadcast.serial, epoch) for broadcast in missed
        ]

    def collect(self, c1_away=False):
        """A GC pass, with ``c1`` either counted or past its grace."""
        self.catch_up_peer()
        now = self.now + (GRACE + 1 if c1_away else 0)
        return self.core.collect(now, GRACE, threshold=1)


class Link:
    """One fake connection: its first read answers the hello written on
    it, and it has nothing more to say."""

    def __init__(self, answer, log):
        self.answer = answer
        self.log = log
        self.hello = None

    async def read(self):
        answer, self.answer = self.answer, None
        if answer is None:
            return None
        frame = _plain(answer(self.hello))
        self.log.append(["read", frame])
        return frame

    def start(self, on_frame, on_end, on_oversized=None):
        pass

    def close(self):
        pass


def run_story():
    """Play the story; return its transcript."""
    world = World()
    log = []
    answers = []
    client = client_module.NetClient(
        "c1", "127.0.0.1", 1, heartbeat_interval=None
    )

    async def dial(host, port, doc=""):
        log.append(["dial", host, port])
        return Link(answers.pop(0), log)

    async def write_frame(writer, envelope, **kwargs):
        envelope = _plain(envelope)
        if envelope["type"] == "hello":
            writer.hello = envelope
        envelope.pop("t", None)  # a ping's clock reading
        log.append(["write", envelope])

    def feed(frame):
        frame = _plain(frame)
        log.append(["read", frame])
        client._handle_frame(frame)

    def state(step):
        log.append(
            [
                "state",
                step,
                {
                    "signature": client.signature(),
                    "delivered": client.delivered,
                    "unacked": sorted(client.unacked),
                    "base": client.css.oracle.base,
                    "epoch": client.epoch,
                    "view": client.view,
                    "state_transfers": client.state_transfers,
                },
            ]
        )

    def last_write():
        return next(e[1] for e in reversed(log) if e[0] == "write")

    async def generate(spec, online=True):
        await client.generate(spec)
        if online:
            world.take(last_write())

    def welcome_with_trailing_multi(hello):
        welcome, missed = world.welcome(hello)
        return encode_envelope("multi", frames=[welcome, *missed])

    def plain_welcome(**stamp):
        def answer(hello):
            welcome, missed = world.welcome(hello, **stamp)
            answer.missed = missed
            return welcome

        return answer

    async def story():
        world.peer_edit(OpSpec("ins", 0, "p"))
        world.peer_edit(OpSpec("ins", 1, "q"))
        # 1. First contact: initial text, a floor, a trailing multi.
        answers.append(welcome_with_trailing_multi)
        await client.connect()
        state("first contact")
        # 2. Two edits; broadcasts out of order, then a duplicate.
        await generate(OpSpec("ins", 0, "x"))
        await generate(OpSpec("ins", 1, "y"))
        world.peer_edit(OpSpec("del", 0))
        feed(world.data(4))
        state("parked")
        feed(world.data(3))
        feed(world.data(3))
        feed(world.data(5))
        state("released")
        # 3. The pin rides a ping; GC moves the floor; an ack carries it.
        await client.ping()
        world.core.sessions["c1"].report_pin(last_write()["pin"])
        world.collect()
        feed(world.ack())
        state("rebased")
        # 4. A records reconnect: one op acked by the welcome, one
        #    generated offline and retransmitted.
        await generate(OpSpec("ins", 0, "v"))
        await client.drop()
        await generate(OpSpec("ins", 0, "u"), online=False)
        world.peer_edit(OpSpec("ins", 0, "r"))
        reconnect = plain_welcome()
        answers.append(reconnect)
        await client.connect()
        world.take(last_write())
        for frame in reconnect.missed:
            feed(frame)
        feed(world.data(8))
        state("records reconnect")
        # 5. GC passes the absent client: a whole-state transfer under a
        #    new epoch drops its offline op.
        await client.drop()
        world.core.sessions["c1"].disconnected_at = world.now
        for value in "stu":
            world.peer_edit(OpSpec("ins", 0, value))
        await generate(OpSpec("ins", 0, "t"), online=False)
        world.collect(c1_away=True)
        answers.append(plain_welcome(epoch=1, view=1))
        await client.connect()
        state("state transfer")
        # 6. A deposed primary's broadcast is dropped; its twin is not.
        world.peer_edit(OpSpec("ins", 0, "z"))
        feed(world.data(12, epoch=0))
        state("stale epoch")
        feed(world.data(12, epoch=1))
        await generate(OpSpec("del", 0))
        # 7. A redirect to the primary of view 2, which answers.
        await client.drop()
        answers.append(
            lambda _hello: encode_envelope(
                "redirect", view=2, epoch=2, primary=1, host="h1", port=2,
                roster=ROSTER,
            )
        )
        redirected = plain_welcome(epoch=2, view=2, roster=ROSTER)
        answers.append(redirected)
        await client.connect()
        for frame in redirected.missed:
            feed(frame)
        await generate(OpSpec("ins", 1, "w"))
        await client.ping()
        state("redirected")
        await client.drop()

    saved = (client_module.dial, client_module.write_frame)
    client_module.dial = dial
    client_module.write_frame = write_frame
    try:
        asyncio.run(story())
    finally:
        client_module.dial, client_module.write_frame = saved
    return log


def test_the_client_writes_what_it_wrote_and_ends_where_it_ended():
    with open(FIXTURE, encoding="utf-8") as handle:
        expected = json.load(handle)
    transcript = run_story()
    assert [e for e in transcript if e[0] != "state"] == [
        e for e in expected if e[0] != "state"
    ]
    assert [e for e in transcript if e[0] == "state"] == [
        e for e in expected if e[0] == "state"
    ]


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(
            run_story(), handle, indent=0, separators=(",", ":"),
            sort_keys=True,
        )
        handle.write("\n")
