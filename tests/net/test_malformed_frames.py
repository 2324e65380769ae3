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
import os
import struct
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.common.ids import SERVER_ID
from repro.jupiter.persistence import ServerWriteAheadLog, save_wal
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


def _client_op(position, kind="ins", element=("x", ["rogue", 1]), ctx=(0, 0)):
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
            "ctx": list(ctx),
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
    # Up to wire version 5 a value tag opened a generic tagged frame (0x06
    # a list); no frame is spelled that way now.
    "old-value-tag-nesting-bomb": (
        bytes([BINARY_MAGIC]) + b"\x06\x01" * 3000 + b"\x00",
        "rogue dropped: unknown binary layout tag 0x06",
    ),
    "json-nesting-bomb": (
        b'{"v":%d,"type":"data","x":%s%s}'
        % (WIRE_VERSION, b"[" * 100_000, b"]" * 100_000),
        "rogue dropped: frame is not valid UTF-8 JSON",
    ),
    "operation-with-negative-position": (
        _data(_client_op(-5)),
        "rogue dropped: malformed client_op body",
    ),
    "operation-past-the-end": (
        _data(_client_op(100)),
        "rogue violated the protocol: rogue: ",
    ),
    # Both used to be read as something else: 1.5 spent a serial and
    # escaped serialisation untyped, "0" was taken for 0.
    "operation-with-fractional-position": (
        _data(_client_op(1.5)),
        "rogue violated the protocol: an operation's position must be an int",
    ),
    "context-floor-not-an-integer": (
        _data(_client_op(0, ctx=("0", 0))),
        "rogue violated the protocol: frame field 'ctx' must be",
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
                encode_envelope("hello", client="rogue", delivered=0),
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
        for shape in ("old-value-tag-nesting-bomb", "json-nesting-bomb"):
            with pytest.raises(WireError):
                decode_envelope(MALFORMED_CLIENT_FRAMES[shape][0])


async def _against_a_live_server(probe, **options):
    """Run ``probe(server, reader, writer)`` on a raw connection to a
    server holding "abc" (built with ``options``), then let an honest
    client type "z" at 0.  Returns what the probe returned and what
    everyone else saw."""
    unhandled = []
    asyncio.get_running_loop().set_exception_handler(
        lambda _loop, context: unhandled.append(context)
    )
    server = NetServer("127.0.0.1", 0, initial_text="abc", **options)
    await server.start()
    logged = []
    server._log = logged.append
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    seen = await probe(server, reader, writer)
    writer.close()

    honest = NetClient("c1", "127.0.0.1", server.port)
    await honest.connect()
    await honest.generate(OpSpec("ins", 0, "z"))
    converged = await honest.wait_converged(1, timeout=10)
    state = {
        "logged": logged,
        "unhandled": unhandled,
        "converged": converged
        and honest.signature() == document_signature(server.server.document),
        "text": server.server.document.as_string(),
    }
    await honest.close()
    await server.stop()
    return seen, state


def _registered(server):
    return {doc: sorted(shard.sessions) for doc, shard in server.shards.items()}


#: hello fields -> what the server's log line must say
MALFORMED_HELLOS = {
    "delivered-not-an-integer": (
        {"delivered": "x"},
        "rogue violated the protocol: frame field 'delivered'",
    ),
    "delivered-a-bool": (
        {"delivered": True},
        "rogue violated the protocol: frame field 'delivered'",
    ),
    "pin-not-an-integer": (
        {"pin": "x"},
        "rogue violated the protocol: frame field 'pin'",
    ),
    "pin-negative": (
        {"pin": -7},
        "rogue violated the protocol: frame field 'pin'",
    ),
    "pin-a-float": (
        {"pin": 1.5},
        "rogue violated the protocol: frame field 'pin'",
    ),
    "epoch-not-an-integer": (
        {"epoch": "x"},
        "rogue violated the protocol: frame field 'epoch'",
    ),
    "client-a-list": (
        {"client": ["a"]},
        "['a'] violated the protocol: invalid client ['a']",
    ),
    "doc-a-list": (
        {"doc": [1]},
        "rogue violated the protocol: invalid client 'rogue' or doc [1]",
    ),
}


class TestMalformedHellos:
    """A hello's counters and names are checked before it can open a
    document or register a session: a bad one used to register a
    phantom session (and escape untyped), or was read as something else
    (``pin: 1.5`` as 1, ``client: ["a"]`` as the name ``"['a']"``)."""

    @pytest.mark.parametrize("shape", sorted(MALFORMED_HELLOS))
    def test_refused_typed_before_anything_registers(self, shape):
        fields, line = MALFORMED_HELLOS[shape]

        async def probe(server, reader, writer):
            hello = {
                "client": "rogue",
                "delivered": 0,
                **fields,
            }
            await write_frame(writer, encode_envelope("hello", **hello))
            hung_up = await asyncio.wait_for(reader.read(), timeout=5)
            return hung_up, _registered(server)

        (hung_up, registered), state = _run(_against_a_live_server(probe))
        assert hung_up == b""  # closed, and nothing said first
        assert any(line in entry for entry in state["logged"]), state["logged"]
        assert state["unhandled"] == []
        assert registered == {"default": []}
        assert state["converged"] and state["text"] == "zabc"


class TestADocumentNoFileCanBeNamedAfter:
    """A hello naming a document whose WAL file name is longer than a
    file system takes (300 characters) on a ``wal_dir`` server used to
    raise ``OSError`` out of the session task, unhandled, and the client
    read EOF with no reason logged.  The core refuses the name typed,
    before anything is opened or registered."""

    def test_refused_typed_and_no_file_appears(self, tmp_path):
        async def probe(server, reader, writer):
            hello = {"client": "rogue", "doc": "d" * 300}
            await write_frame(writer, encode_envelope("hello", **hello))
            hung_up = await asyncio.wait_for(reader.read(), timeout=5)
            return hung_up, _registered(server), sorted(os.listdir(tmp_path))

        seen, state = _run(_against_a_live_server(probe, wal_dir=str(tmp_path)))
        hung_up, registered, files = seen
        assert hung_up == b""  # closed, and nothing said first
        line = "rogue violated the protocol: document 'ddd"
        assert any(line in entry for entry in state["logged"]), state["logged"]
        assert state["unhandled"] == []
        assert registered == {"default": []}
        assert files == ["default.wal"]
        assert sorted(os.listdir(tmp_path)) == ["default.wal"]
        assert state["converged"] and state["text"] == "zabc"


#: admin frame fields -> the typed error the reply carries
MALFORMED_ADMIN_FRAMES = {
    "cmd-a-list": ({"cmd": ["stats"]}, "unknown admin command ['stats']"),
    "cmd-missing": ({}, "unknown admin command None"),
    "cmd-unknown": ({"cmd": "reboot"}, "unknown admin command 'reboot'"),
    "doc-a-list": (
        {"cmd": "stats", "doc": [1]},
        "document '[1]' is not hosted here",
    ),
    "doc-a-dict": (
        {"cmd": "signature", "doc": {"a": 1}},
        "document \"{'a': 1}\" is not hosted here",
    ),
}


class TestMalformedAdminFrames:
    """An admin frame of the wrong shape is answered with a typed error,
    and the server keeps serving."""

    @pytest.mark.parametrize("shape", sorted(MALFORMED_ADMIN_FRAMES))
    def test_answered_with_a_typed_error(self, shape):
        fields, error = MALFORMED_ADMIN_FRAMES[shape]

        async def probe(server, reader, writer):
            await write_frame(writer, encode_envelope("admin", **fields))
            reply = await asyncio.wait_for(read_frame(reader), timeout=5)
            return reply, _registered(server)

        (reply, registered), state = _run(_against_a_live_server(probe))
        assert reply["type"] == "admin_reply"
        assert reply["error"] == error
        assert registered == {"default": []}
        assert state["unhandled"] == []
        assert state["converged"] and state["text"] == "zabc"


#: JSON strings include lone surrogates (a ``\\ud800`` escape decodes),
#: and a document name becomes a file name
TEXT = st.text(
    st.sampled_from("\ud800\udfff/%.\x00\u00e9")
    | st.characters(blacklist_categories=()),
    max_size=12,
)
#: any JSON value an admin frame's ``cmd`` or ``doc`` may carry
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)
#: ``shutdown`` is left out: it stops the server, by design
COMMANDS = st.sampled_from(["signature", "stats", "metrics"]) | JSON_VALUES.filter(
    lambda cmd: cmd != "shutdown"
)
#: the hosted document, one placed here with a WAL file, one with none
DOCS = st.sampled_from(["default", "placed", "absent"]) | JSON_VALUES


class TestAdminFuzz:
    """Any ``cmd`` and ``doc``: each admin frame is answered by exactly
    one ``admin_reply`` or hung up on typed, the server then still serves
    a client, and it opens a shard for no document without a WAL file."""

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.lists(st.tuples(COMMANDS, DOCS), min_size=1, max_size=5))
    @example([("stats", "\ud800"), ("signature", "placed")])
    def test_one_typed_answer_per_frame_and_the_server_serves_on(self, frames):
        with tempfile.TemporaryDirectory() as wal_dir:
            placed = ServerWriteAheadLog(SERVER_ID, [], initial_text="pq")
            save_wal(placed, os.path.join(wal_dir, "placed.wal"))
            answers, state = _run(_admin_frames(wal_dir, frames))
        for first, rest in answers:
            assert first is None or first["type"] == "admin_reply", first
            assert rest == b""  # nothing after the one answer
        # A hang-up is a frame the codec refused, and the log says so.
        hung_up = sum(first is None for first, _rest in answers)
        assert hung_up == len(state["rejected"]), state["rejected"]
        assert state["unhandled"] == []
        assert state["converged"]
        assert state["shards"] <= {"default", "placed"}
        assert state["files"] == ["default.wal", "placed.wal"]


async def _admin_frames(wal_dir, frames):
    """Send each ``(cmd, doc)`` admin frame on its own connection to a
    fleet-style server (``wal_dir``), then let an honest client type."""
    unhandled = []
    asyncio.get_running_loop().set_exception_handler(
        lambda _loop, context: unhandled.append(context)
    )
    server = NetServer("127.0.0.1", 0, initial_text="abc", wal_dir=wal_dir)
    await server.start()
    logged = []
    server._log = logged.append
    answers = []
    for cmd, doc in frames:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        await write_frame(writer, encode_envelope("admin", cmd=cmd, doc=doc))
        first = await asyncio.wait_for(read_frame(reader), timeout=5)
        rest = await asyncio.wait_for(reader.read(), timeout=5)
        writer.close()
        answers.append((first, rest))
    honest = NetClient("c1", "127.0.0.1", server.port)
    await honest.connect()
    await honest.generate(OpSpec("ins", 0, "z"))
    state = {
        "rejected": [line for line in logged if "rejecting connection" in line],
        "unhandled": unhandled,
        "converged": await honest.wait_converged(1, timeout=10)
        and honest.signature() == document_signature(server.server.document),
        "shards": set(server.shards),
        "files": sorted(os.listdir(wal_dir)),
    }
    await honest.close()
    await server.stop()
    return answers, state


def _run(coroutine):
    return asyncio.run(coroutine)
