"""A malformed client frame ends that connection, typed — nothing else.

Each shape below decodes far enough to reach the session's frame handler
(or, for the nesting bomb, the generic binary reader) and used to escape
it as an untyped exception — ``TypeError``, ``ValueError``, ``KeyError``,
``RecursionError``, ``TransformError`` — that killed the connection task
through asyncio's unhandled-exception handler instead of the session's
``violated the protocol`` / ``dropped`` log lines.  A position past the
end of its context's document used to escape as ``PositionError`` after
the order oracle had spent a serial on it, so the shard's next honest
operation failed its WAL append.  An insert reusing an existing
element's id, or a delete naming an element that is not at its
position, used to be serialised and broadcast: the next honest client
died applying it.
"""

import asyncio
import struct

import pytest

from repro.model.schedule import OpSpec
from repro.net.client import NetClient
from repro.net.codec import (
    BINARY_MAGIC,
    WIRE_VERSION,
    WireError,
    decode_envelope,
    document_signature,
    encode_envelope,
    encode_frame_bytes,
)
from repro.net.server import NetServer
from repro.net.transport import read_frame, write_frame


def _client_op(position, kind="ins", element=("x", ["rogue", 1])):
    value, element_id = element
    return {
        "v": WIRE_VERSION,
        "kind": "client_op",
        "body": {
            "operation": {
                "kind": kind,
                "opid": ["rogue", 1],
                "element": {"value": value, "opid": element_id},
                "position": position,
            },
            "ctx": [0, []],
        },
    }


def _data(body):
    return encode_frame_bytes(
        encode_envelope("data", seq=1, ack=0, epoch=0, pin=0, body=body)
    )


#: shape -> (frame bytes, what the server's log line must say)
MALFORMED_CLIENT_FRAMES = {
    "multi-member-not-a-frame": (
        encode_frame_bytes(encode_envelope("multi", frames=[1])),
        "rogue violated the protocol: not a frame",
    ),
    "data-seq-not-an-integer": (
        encode_frame_bytes(encode_envelope("data", seq="x", ack=0, body={})),
        "rogue violated the protocol: frame field 'seq'",
    ),
    "data-without-seq": (
        encode_frame_bytes(encode_envelope("data", ack=0, body={})),
        "rogue violated the protocol: frame field 'seq'",
    ),
    "binary-nesting-bomb": (
        bytes([BINARY_MAGIC]) + b"\x06\x01" * 3000 + b"\x00",
        "rogue dropped: binary frame nests deeper",
    ),
    "operation-with-negative-position": (
        _data(_client_op(-5)),
        "rogue dropped: malformed client_op body",
    ),
    "operation-past-the-end": (
        _data(_client_op(100)),
        "rogue violated the protocol: rogue: ",
    ),
    # The server's document is "abc", elements init:1..3.
    "insert-reusing-an-element-id": (
        _data(_client_op(0, element=("x", ["init", 1]))),
        "rogue violated the protocol: rogue: ",
    ),
    "delete-naming-another-element": (
        _data(_client_op(1, "del", element=("q", ["ghost", 9]))),
        "rogue violated the protocol: rogue: ",
    ),
}


class TestMalformedClientFrames:
    @pytest.mark.parametrize("shape", sorted(MALFORMED_CLIENT_FRAMES))
    def test_the_connection_is_closed_typed_and_nobody_else_notices(self, shape):
        raw, line = MALFORMED_CLIENT_FRAMES[shape]

        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: unhandled.append(context)
            )
            server = NetServer("127.0.0.1", 0, initial_text="abc")
            await server.start()
            logged = []
            server._log = logged.append
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            await write_frame(
                writer,
                encode_envelope(
                    "hello", client="rogue", delivered=0, codecs=["bin", "json"]
                ),
            )
            assert (await read_frame(reader))["type"] == "welcome"
            writer.write(struct.pack(">I", len(raw)) + raw)
            hung_up = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()

            honest = NetClient("c1", "127.0.0.1", server.port)
            await honest.connect()
            await honest.generate(OpSpec("ins", 0, "z"))
            converged = await honest.wait_converged(1, timeout=10)
            state = {
                "hung_up": hung_up,
                "logged": logged,
                "unhandled": unhandled,
                "converged": converged,
                "same": honest.signature()
                == document_signature(server.server.document),
                "text": server.server.document.as_string(),
            }
            await honest.close()
            await server.stop()
            return state

        state = _run(scenario())
        assert state["hung_up"] == b""  # closed, and nothing said first
        assert any(line in entry for entry in state["logged"]), state["logged"]
        assert state["unhandled"] == []
        assert state["converged"] and state["same"]
        assert state["text"] == "zabc"

    def test_the_nesting_bomb_is_a_wire_error_for_every_caller(self):
        with pytest.raises(WireError):
            decode_envelope(MALFORMED_CLIENT_FRAMES["binary-nesting-bomb"][0])


def _run(coroutine):
    return asyncio.run(coroutine)
