"""Tests for the frame spellings and frame batching.

A frame's shape picks its bytes: the hot ``data``/``ack``/``multi``
shapes are positional, every other frame is compact JSON, and nothing
is negotiated.  Every test here asserts the round trip through
``encode_frame_bytes``/``decode_envelope`` reproduces the envelope dict
exactly, and a reader takes either spelling of any frame.
"""

import asyncio
import copy
import json
import struct

import pytest

from repro import obs
from repro.common import OpId
from repro.errors import ProtocolError
from repro.jupiter.messages import ClientOperation, ServerEcho, ServerOperation
from repro.jupiter.ordering import ClientOrderOracle
from repro.net.codec import (
    BINARY_MAGIC,
    WIRE_VERSION,
    WireError,
    compact_client_op_obj,
    compact_server_op_obj,
    decode_envelope,
    encode_envelope,
    encode_frame_bytes,
    message_from_wire,
    server_echo_obj,
)
from repro.net.transport import BATCH_MAX, FrameSender
from repro.ot import insert


def _json(envelope):
    """The JSON spelling of any frame, hot shapes included."""
    return json.dumps(envelope, separators=(",", ":")).encode("utf-8")


#: the two spellings a reader takes: the writer's pick, and plain JSON
SPELLINGS = {"bin": encode_frame_bytes, "json": _json}


def _round_trip(envelope, spell=encode_frame_bytes):
    return decode_envelope(spell(envelope))


def _server_op_message(serial=1):
    op = insert(OpId("c2", serial + 1), "y", 0, context={OpId("c2", serial)})
    return compact_server_op_obj(
        ServerOperation(
            operation=op,
            origin="c2",
            serial=serial,
            prefix=frozenset({OpId("c1", 1)}),
        ),
        op,
    )


# Representative envelopes of every frame type that crosses the wire.
_ENVELOPES = {
    "hello": encode_envelope(
        "hello", client="c1", doc="default", delivered=0, pin=0,
    ),
    "welcome": encode_envelope(
        "welcome", client="c1", doc="default",
        snapshot={"text": "abc", "serial": 3},
    ),
    "data": encode_envelope("data", seq=4, ack=2, message=_server_op_message()),
    "client_op": encode_envelope(
        "data", seq=1, ack=0,
        message=compact_client_op_obj(
            ClientOperation(
                operation=insert(OpId("c1", 1), "x", 0, context=set())
            ),
            ClientOrderOracle("c1"),
        ),
    ),
    "ack": encode_envelope("ack", ack=17),
    "ping": encode_envelope("ping"),
    "pong": encode_envelope("pong"),
    "bye": encode_envelope("bye", reason="client shutdown"),
    "error": encode_envelope("error", message="bad frame"),
    "evicted": encode_envelope("evicted", reason="slow consumer"),
    "admin": encode_envelope("admin", command="metrics"),
    "multi": encode_envelope(
        "multi",
        frames=[encode_envelope("ack", ack=1), encode_envelope("ping")],
    ),
    "repl_append": encode_envelope(
        "repl_append", epoch=2,
        record={"serial": 9, "origin": "c1", "epoch": 2,
                "operation": {"kind": "ins"}},
    ),
    "repl_ack": encode_envelope("repl_ack", epoch=2, serial=9, replica="b1"),
    "fleet_register": encode_envelope(
        "fleet_register", worker="w1", host="127.0.0.1", port=9001,
        docs=["default"],
    ),
    "fleet_heartbeat": encode_envelope("fleet_heartbeat", worker="w1"),
    "redirect": encode_envelope(
        "redirect", doc="default", host="10.0.0.2", port=9002,
    ),
}


class TestBinaryRoundTrip:
    @pytest.mark.parametrize("name", sorted(_ENVELOPES))
    def test_every_envelope_type(self, name):
        assert _round_trip(_ENVELOPES[name]) == _ENVELOPES[name]

    @pytest.mark.parametrize("name", sorted(_ENVELOPES))
    def test_json_codec_unchanged(self, name):
        """None of these is a hot shape: each is written as JSON."""
        raw = encode_frame_bytes(_ENVELOPES[name])
        assert raw == _json(_ENVELOPES[name])
        assert json.loads(raw) == _ENVELOPES[name]
        assert decode_envelope(raw) == _ENVELOPES[name]

    def test_scalar_zoo(self):
        envelope = encode_envelope(
            "data",
            ints=[0, 1, -1, 63, 64, -64, -65, 2**31, -(2**31), 2**53],
            floats=[0.0, -2.5, 1e300],
            misc=[None, True, False, "", "unicode: é✓", {"nested": [{}]}],
        )
        assert _round_trip(envelope) == envelope

    @pytest.mark.parametrize(
        "envelope",
        [
            {"v": WIRE_VERSION, "type": "ack", "ack": 2**70},
            {"v": WIRE_VERSION, "type": "ack", "ack": -(2**70)},
            {"v": WIRE_VERSION, "type": "ack", "ack": 2**70, "epoch": 0, "floor": 0},
        ],
        ids=["generic", "generic-negative", "positional"],
    )
    def test_the_writer_refuses_an_int_its_reader_would(self, envelope):
        """The positional reader stops a varint at ten bytes, so the
        positional writer refuses an int past it: the frame is JSON."""
        raw = encode_frame_bytes(envelope)
        assert raw == _json(envelope)
        assert decode_envelope(raw) == envelope
        envelope["ack"] = 2**70 - 1 if envelope["ack"] > 0 else -(2**69)
        raw = encode_frame_bytes(envelope)
        assert (raw[0] == BINARY_MAGIC) == ("floor" in envelope)
        assert decode_envelope(raw) == envelope

    def test_binary_is_self_identifying(self):
        raw = encode_frame_bytes(_hot_frames()["server-data"])
        assert raw[0] == BINARY_MAGIC
        # JSON objects start with '{' — the magic byte can never collide.
        assert json.dumps({}).encode()[0] != BINARY_MAGIC
        assert encode_frame_bytes(_ENVELOPES["ping"])[:1] == b"{"

    def test_binary_data_frame_is_much_smaller_than_json(self):
        envelope = _hot_frames()["server-data"]
        binary = encode_frame_bytes(envelope)
        assert len(binary) <= 0.6 * len(_json(envelope))

    def test_unknown_codec_rejected(self):
        """There is no codec argument: every codec name is unknown."""
        for codec in ("gzip", "json", "bin"):
            with pytest.raises(TypeError):
                encode_frame_bytes(_ENVELOPES["ping"], codec)
            with pytest.raises(TypeError):
                decode_envelope(_json(_ENVELOPES["ping"]), codec)


class TestUnknownFieldTolerance:
    """Forward compatibility: a reader carries fields it doesn't know."""

    @pytest.mark.parametrize("spelling", sorted(SPELLINGS))
    def test_extra_envelope_field_survives(self, spelling):
        envelope = dict(_ENVELOPES["ack"])
        envelope["future_field"] = {"deep": [1, "two", None]}
        assert _round_trip(envelope, SPELLINGS[spelling]) == envelope

    @pytest.mark.parametrize("spelling", sorted(SPELLINGS))
    def test_extra_body_field_survives(self, spelling):
        envelope = encode_envelope("data", seq=1, message=_server_op_message())
        envelope["message"]["body"]["shard_hint"] = 7
        assert _round_trip(envelope, SPELLINGS[spelling]) == envelope


class TestBinaryDecodeErrors:
    def test_truncated_varint(self):
        # an ack's first counter, its continuation bit set, then nothing
        with pytest.raises(WireError, match="truncated"):
            decode_envelope(bytes([BINARY_MAGIC, 0x12, 0x80]))

    def test_truncated_string(self):
        # a broadcast whose opid replica declares 10 bytes; 2 follow
        head = bytes([BINARY_MAGIC, 0x11, 1, 0, 0, 0, 0, 10])
        with pytest.raises(WireError, match="inside a string"):
            decode_envelope(head + b"ab")

    def test_truncated_empty_frame(self):
        with pytest.raises(WireError):
            decode_envelope(bytes([BINARY_MAGIC]))

    def test_unknown_tag(self):
        """0x00-0x08 included: up to wire version 5 those value tags
        opened a generic tagged frame; no frame is spelled that way now."""
        for tag in [0x7F, *range(0x09)]:
            with pytest.raises(WireError, match=f"layout tag 0x{tag:02x}"):
                decode_envelope(bytes([BINARY_MAGIC, tag, 0x01, 0x02]))

    def test_trailing_garbage(self):
        for envelope in (_ENVELOPES["ping"], _hot_frames()["ack"]):
            with pytest.raises(WireError):
                decode_envelope(encode_frame_bytes(envelope) + b"\x00")

    def test_top_level_must_be_a_dict(self):
        for raw in (b"true", b"[1]", b'"v"'):
            with pytest.raises(WireError, match="must be a JSON object"):
                decode_envelope(raw)

    def test_non_string_dict_key_rejected_on_encode(self):
        """A key JSON cannot write is refused typed (an ``int`` key is
        written as its string, as ``json.dumps`` does)."""
        with pytest.raises(WireError):
            encode_frame_bytes({"v": 1, "type": "data", "m": {(1,): "x"}})

    def test_an_integer_past_the_digit_limit_is_a_wire_error(self):
        raw = b'{"v":%d,"type":"ping","t":%s}' % (WIRE_VERSION, b"9" * 5000)
        with pytest.raises(WireError, match="UTF-8 JSON"):
            decode_envelope(raw)


def _hot_frames():
    """The four shapes written positionally."""
    client = encode_envelope(
        "data", seq=3, ack=2, epoch=1, body=_ENVELOPES["client_op"]["message"],
        pin=2,
    )
    server = encode_envelope(
        "data", seq=4, ack=2, epoch=1, floor=1, body=_server_op_message()
    )
    ack = encode_envelope("ack", ack=3, epoch=1, floor=1)
    return {
        "client-data": client,
        "server-data": server,
        "ack": ack,
        "multi": encode_envelope("multi", frames=[server, ack]),
    }


class TestPositionalLayouts:
    """The hot shapes are spelled positionally, and everything about the
    dictionary model still holds; off its exact shape a frame takes the
    generic spelling, JSON."""

    @pytest.mark.parametrize("name", sorted(_hot_frames()))
    def test_a_hot_frame_is_positional_and_round_trips(self, name):
        envelope = _hot_frames()[name]
        raw = encode_frame_bytes(envelope)
        assert raw[0] == BINARY_MAGIC and raw[1] >= 0x10
        assert decode_envelope(raw) == envelope
        assert 3 * len(raw) <= len(_json(envelope))
        assert decode_envelope(_json(envelope)) == envelope

    @pytest.mark.parametrize("name", sorted(_hot_frames()))
    def test_an_unknown_field_sends_it_down_the_generic_path(self, name):
        envelope = _hot_frames()[name]
        envelope["future_field"] = [1, "two"]
        raw = encode_frame_bytes(envelope)
        assert raw == _json(envelope)
        assert decode_envelope(raw) == envelope

    def test_a_counter_that_is_not_a_natural_number_is_generic(self):
        for bad in (-1, True, 1.0, "1", None):
            envelope = _hot_frames()["ack"]
            envelope["floor"] = bad
            raw = encode_frame_bytes(envelope)
            assert raw == _json(envelope)
            decoded = decode_envelope(raw)
            assert decoded == envelope
            assert type(decoded["floor"]) is type(bad)

    @pytest.mark.parametrize(
        "value", [7, None, ["x"], {"v": 1}, 1.5, True],
        ids=["int", "none", "list", "dict", "float", "bool"],
    )
    @pytest.mark.parametrize("name", ["client-data", "server-data", "multi"])
    def test_an_element_value_that_is_not_a_str_is_json(self, name, value):
        envelope = copy.deepcopy(_hot_frames()[name])
        body = envelope["frames"][0] if name == "multi" else envelope
        body["body"]["body"]["operation"]["element"]["value"] = value
        raw = encode_frame_bytes(envelope)
        assert raw == _json(envelope)
        assert decode_envelope(raw) == envelope

    def test_an_element_value_is_written_without_a_tag(self):
        envelope = _hot_frames()["client-data"]
        raw = encode_frame_bytes(envelope)
        # magic, tag, four counters, kind byte, opid (c1, 1), position 0,
        # then the value: its length and its bytes, nothing before them
        assert raw[6:14] == b"\x00\x02c1\x01\x00" + b"\x01x"

    def test_unknown_layout_tag_rejected(self):
        with pytest.raises(WireError, match="layout tag"):
            decode_envelope(bytes([BINARY_MAGIC, 0x15, 0, 0, 0]))

    @pytest.mark.parametrize("name", sorted(_hot_frames()))
    def test_trailing_bytes_rejected(self, name):
        raw = encode_frame_bytes(_hot_frames()[name])
        with pytest.raises(WireError, match="trailing"):
            decode_envelope(raw + b"\x00")

    def test_bad_kind_byte_and_bad_utf8_rejected(self):
        raw = bytearray(encode_frame_bytes(_hot_frames()["client-data"]))
        kind_at = 2 + 4  # magic, tag, four one-byte counters
        assert raw[kind_at] == 0 and raw[kind_at + 1 : kind_at + 4] == b"\x02c1"
        with pytest.raises(WireError, match="kind byte"):
            decode_envelope(bytes(raw[:kind_at]) + b"\x04" + bytes(raw[kind_at + 1 :]))
        raw[kind_at + 2] = 0xFF
        with pytest.raises(WireError, match="UTF-8"):
            decode_envelope(bytes(raw))

    def test_an_old_version_hello_is_refused(self):
        hello = dict(_ENVELOPES["hello"], v=WIRE_VERSION - 1, codecs=["bin"])
        with pytest.raises(WireError, match="wire version 5"):
            decode_envelope(encode_frame_bytes(hello))

    def test_a_shared_body_is_spelled_once(self):
        body = _server_op_message()
        first = encode_envelope("data", seq=4, ack=0, epoch=0, floor=0, body=body)
        assert body.packed is None
        raw = encode_frame_bytes(first)
        assert body.packed is not None and raw.endswith(body.packed)
        second = encode_envelope("data", seq=4, ack=3, epoch=0, floor=2, body=body)
        spliced = encode_frame_bytes(second)
        assert spliced.endswith(body.packed)
        assert decode_envelope(spliced) == second
        # JSON reads it as the dict it is, spliced or not.
        assert decode_envelope(_json(second)) == second
        second["hint"] = 1
        assert encode_frame_bytes(second) == _json(second)
        assert decode_envelope(encode_frame_bytes(second)) == second


def _echo_frame(seq=7, serial=None, opid=("c1", 3)):
    return encode_envelope(
        "data", seq=seq, ack=2, epoch=1, floor=1,
        body=server_echo_obj(
            ServerEcho(OpId(*opid), seq if serial is None else serial)
        ),
    )


class TestServerEcho:
    """The generator's echo: ``(opid, serial)`` in the ``data`` frame,
    spelled positionally with the serial read off the frame's ``seq``."""

    @pytest.mark.parametrize("spelling", sorted(SPELLINGS))
    def test_an_echo_round_trips_to_an_equal_dictionary(self, spelling):
        envelope = _echo_frame()
        decoded = _round_trip(envelope, SPELLINGS[spelling])
        assert decoded == envelope
        assert message_from_wire(
            decoded["body"], ClientOrderOracle("c1")
        ) == ServerEcho(OpId("c1", 3), 7)

    def test_an_echo_is_positional_and_smaller_than_a_broadcast(self):
        raw = encode_frame_bytes(_echo_frame())
        assert raw[1] == 0x14
        # magic, tag, four counters, then the opid: a string and a counter
        assert raw[6:] == b"\x02c1\x03"
        broadcast = encode_envelope(
            "data", seq=1, ack=2, epoch=1, floor=1, body=_server_op_message()
        )
        assert len(raw) < len(encode_frame_bytes(broadcast))

    @pytest.mark.parametrize(
        "change",
        [
            lambda e: e["body"]["body"].update(serial=8),
            lambda e: e["body"]["body"].update(serial=True),
            lambda e: e["body"]["body"].update(hint=1),
            lambda e: e["body"].update(hint=1),
            lambda e: e.update(hint=1),
            lambda e: e["body"]["body"].pop("serial"),
            lambda e: e["body"]["body"].update(opid=["c1", -1]),
            lambda e: e["body"].update(v=WIRE_VERSION - 1),
            lambda e: e.pop("floor"),
        ],
        ids=[
            "serial-not-seq", "serial-a-bool", "body-field", "message-field",
            "envelope-field", "no-serial", "negative-opid-seq", "old-message",
            "no-floor",
        ],
    )
    def test_an_echo_off_its_exact_shape_is_written_generically(self, change):
        envelope = _echo_frame()
        change(envelope)
        raw = encode_frame_bytes(envelope)
        assert raw == _json(envelope)
        assert decode_envelope(raw) == envelope

    def test_truncations_and_trailing_bytes_raise_wire_errors(self):
        raw = encode_frame_bytes(_echo_frame())
        for cut in range(1, len(raw)):
            with pytest.raises(WireError):
                decode_envelope(raw[:cut])
        with pytest.raises(WireError, match="trailing"):
            decode_envelope(raw + b"\x00")

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"opid": ["c1", 1]},
            {"opid": ["c1"], "serial": 1},
            {"opid": "c1", "serial": 1},
            {"opid": ["c1", 1], "serial": -1},
        ],
        ids=["empty", "no-serial", "short-opid", "opid-a-string", "negative"],
    )
    def test_a_malformed_echo_body_is_refused_typed(self, body):
        message = {"v": WIRE_VERSION, "kind": "server_echo", "body": body}
        with pytest.raises(ProtocolError):
            message_from_wire(message, ClientOrderOracle("c1"))


class _FakeTransport:
    """A transport that took every byte: nothing is ever buffered."""

    def get_write_buffer_size(self):
        return 0


class _FakeWriter:
    """Collects written bytes; enough of StreamWriter for FrameSender."""

    def __init__(self):
        self.chunks = []
        self.transport = _FakeTransport()

    def write(self, data):
        self.chunks.append(data)

    async def drain(self):
        pass

    def close(self):
        pass

    @property
    def data(self):
        return b"".join(self.chunks)


def _frames_from(data: bytes):
    frames = []
    offset = 0
    while offset < len(data):
        (length,) = struct.unpack(">I", data[offset:offset + 4])
        frames.append(decode_envelope(data[offset + 4:offset + 4 + length]))
        offset += 4 + length
    return frames


class TestSenderBatching:
    def _drain(self, *, hot=False, count=5, burst=True):
        async def scenario():
            writer = _FakeWriter()
            sender = FrameSender(writer, doc="d")
            for index in range(count):
                # a hot ack carries its epoch and floor; a bare one is JSON
                fields = {"epoch": 0, "floor": 0} if hot else {}
                assert sender.try_send(
                    encode_envelope("ack", ack=index, **fields)
                )
                if not burst:
                    # let the writer task flush before the next enqueue
                    while sender.depth:
                        await asyncio.sleep(0)
            await sender.aclose()
            return sender, writer.data

        return asyncio.run(scenario())

    def test_burst_coalesces_into_one_multi_frame(self):
        sender, data = self._drain()
        frames = _frames_from(data)
        assert len(frames) == 1
        assert frames[0]["type"] == "multi"
        assert [f["ack"] for f in frames[0]["frames"]] == [0, 1, 2, 3, 4]
        assert sender.frames_coalesced == 5

    def test_unbatched_sender_writes_one_frame_each(self):
        # Coalescing is what the writer does when it is behind; a sender
        # that keeps up has nothing to batch and wraps nothing.
        sender, data = self._drain(burst=False)
        frames = _frames_from(data)
        assert [f["ack"] for f in frames] == [0, 1, 2, 3, 4]
        assert all(f["type"] == "ack" for f in frames)
        assert sender.frames_coalesced == 0

    def test_single_envelope_never_wrapped(self):
        sender, data = self._drain(count=1)
        frames = _frames_from(data)
        assert len(frames) == 1 and frames[0]["type"] == "ack"
        assert sender.frames_coalesced == 0

    def test_batch_respects_cap(self):
        sender, data = self._drain(count=BATCH_MAX + 3)
        frames = _frames_from(data)
        assert frames[0]["type"] == "multi"
        assert len(frames[0]["frames"]) == BATCH_MAX

    def test_batched_binary_frames_decode(self):
        sender, data = self._drain(hot=True)
        assert data[4] == BINARY_MAGIC
        frames = _frames_from(data)
        assert [f["ack"] for f in frames[0]["frames"]] == [0, 1, 2, 3, 4]

    def test_multi_envelope_carries_wire_version(self):
        _, data = self._drain()
        assert data[4:5] == b"{"
        assert _frames_from(data)[0]["v"] == WIRE_VERSION

    def test_a_buffer_that_never_drains_still_meets_the_write_deadline(self):
        """With nothing buffered a write skips the deadline's task and
        timer; a transport that *does* hold bytes must still be bounded."""

        class _Wedged:
            aborted = False

            def get_write_buffer_size(self):
                return 4096

            def abort(self):
                self.aborted = True

        class _WedgedWriter(_FakeWriter):
            async def drain(self):
                await asyncio.Event().wait()

        async def scenario():
            handle = obs.enable(reset=True)
            try:
                writer = _WedgedWriter()
                writer.transport = _Wedged()
                failures = []
                sender = FrameSender(
                    writer, write_timeout=0.05, on_failure=failures.append
                )
                assert sender.try_send(encode_envelope("ack", ack=1))
                await asyncio.wait_for(sender._done, timeout=5)
                stalls = handle.net_write_stalls.value
            finally:
                obs.disable()
            return sender, writer, failures, stalls

        sender, writer, failures, stalls = asyncio.run(scenario())
        assert stalls == 1
        assert writer.transport.aborted and sender.closed
        assert len(failures) == 1 and failures[0] == sender.failure
        assert "write stalled" in sender.failure and "(ack frame)" in sender.failure
