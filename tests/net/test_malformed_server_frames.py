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
"""

import asyncio
import logging

import pytest

from repro.model.schedule import OpSpec
from repro.net.client import NetClient
from repro.net.codec import encode_envelope
from repro.net.transport import read_frame, write_frame

#: shape -> the hostile frame's type and fields
HOSTILE_SERVER_FRAMES = {
    "data-seq-not-an-integer": ("data", {"seq": "x", "ack": 0, "body": {}}),
    "ack-floor-not-an-integer": ("ack", {"ack": 0, "floor": "high"}),
    "multi-frames-not-a-list": ("multi", {"frames": 7}),
    "multi-member-without-a-type": ("multi", {"frames": [{"ack": 0}]}),
    "ack-negative": ("ack", {"ack": -5}),
    "epoch-a-bool": ("ack", {"ack": 0, "epoch": True}),
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
                    "welcome", ack=0, resync=0, codec="json", epoch=0,
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
