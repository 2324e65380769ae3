"""Property tests for the frame codec — the bytes that cross the trust
boundary (ROADMAP 3a, codec half).

Three claims: a hot frame round-trips exactly under both codecs and its
positional spelling is never longer than its generic one; whatever
follows the binary magic byte decodes to a dictionary or raises
:class:`WireError`, nothing else; and so does every truncation and every
single-byte mutation of a valid hot frame.  The generator's echo makes
the same claims, and one off its exact shape — a serial that is not its
frame's ``seq``, a field it does not know — is written generically.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import codec
from repro.net.codec import (
    BINARY_MAGIC,
    CODEC_BINARY,
    CODEC_JSON,
    WIRE_VERSION,
    WireError,
    decode_envelope,
    encode_envelope,
    encode_frame_bytes,
)

counters = st.one_of(st.integers(0, 300), st.integers(0, 2**63))
names = st.text(min_size=1, max_size=12)  # any script, no surrogates
opids = st.tuples(names, counters).map(list)
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**63), 2**63),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=8,
)
elements = st.one_of(
    st.none(), st.fixed_dictionaries({"value": json_values, "opid": opids})
)


def operations(max_extras):
    return st.fixed_dictionaries(
        {
            "operation": st.fixed_dictionaries(
                {
                    "kind": st.sampled_from(["ins", "del"]),
                    "opid": opids,
                    "element": elements,
                    "position": counters,
                }
            ),
            "ctx": st.tuples(counters, counters).map(list),
        }
    )


def _message(kind, body):
    return {"v": WIRE_VERSION, "kind": kind, "body": body}


def hot_frames(max_extras=63):
    client = st.builds(
        lambda seq, ack, epoch, pin, body: encode_envelope(
            "data", seq=seq, ack=ack, epoch=epoch,
            body=_message("client_op", body), pin=pin,
        ),
        counters, counters, counters, counters, operations(max_extras),
    )
    server = st.builds(
        lambda seq, ack, epoch, floor, body, origin, serial: encode_envelope(
            "data", seq=seq, ack=ack, epoch=epoch, floor=floor,
            body=_message("server_op", dict(body, origin=origin, serial=serial)),
        ),
        counters, counters, counters, counters, operations(max_extras),
        names, counters,
    )
    ack = st.builds(
        lambda ack, epoch, floor: encode_envelope(
            "ack", ack=ack, epoch=epoch, floor=floor
        ),
        counters, counters, counters,
    )
    single = st.one_of(client, server, ack)
    multi = st.lists(single, max_size=4).map(
        lambda frames: encode_envelope("multi", frames=frames)
    )
    return st.one_of(single, multi)


def _generic_bytes(envelope):
    out = bytearray([BINARY_MAGIC])
    codec._encode_binary_value(out, envelope)
    return bytes(out)


def _dict_or_wire_error(raw):
    try:
        decoded = decode_envelope(raw)
    except WireError:
        return
    assert isinstance(decoded, dict)


class TestHotFramesRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(hot_frames())
    def test_exactly_under_both_codecs_and_never_longer_than_generic(
        self, envelope
    ):
        positional = encode_frame_bytes(envelope, CODEC_BINARY)
        assert positional[1] >= 0x10
        assert decode_envelope(positional) == envelope
        generic = _generic_bytes(envelope)
        assert generic[1] < 0x10
        assert decode_envelope(generic) == envelope
        assert len(positional) <= len(generic)
        textual = encode_frame_bytes(envelope, CODEC_JSON)
        assert decode_envelope(textual) == envelope


class TestHostileBytes:
    @settings(max_examples=400, deadline=None)
    @given(st.binary(max_size=64))
    def test_anything_after_the_magic_is_a_dict_or_a_wire_error(self, tail):
        _dict_or_wire_error(bytes([BINARY_MAGIC]) + tail)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([0x10, 0x11, 0x12, 0x13]), st.binary(max_size=64))
    def test_so_is_anything_after_a_layout_tag(self, tag, tail):
        _dict_or_wire_error(bytes([BINARY_MAGIC, tag]) + tail)

    @settings(max_examples=10, deadline=None)
    @given(hot_frames(max_extras=2))
    def test_every_truncation_and_single_byte_mutation_of_a_hot_frame(
        self, envelope
    ):
        raw = encode_frame_bytes(envelope, CODEC_BINARY)
        for cut in range(1, len(raw)):
            _dict_or_wire_error(raw[:cut])
        for at in range(1, len(raw)):
            for byte in range(256):
                if byte != raw[at]:
                    _dict_or_wire_error(
                        raw[:at] + bytes([byte]) + raw[at + 1 :]
                    )


def echo_frames():
    """The generator's echo, in a data frame whose ``seq`` is its serial."""
    return st.builds(
        lambda seq, ack, epoch, floor, opid: encode_envelope(
            "data", seq=seq, ack=ack, epoch=epoch, floor=floor,
            body=_message("server_echo", {"opid": opid, "serial": seq}),
        ),
        counters, counters, counters, counters, opids,
    )


class TestServerEcho:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(echo_frames(), st.lists(echo_frames(), max_size=3).map(
        lambda frames: encode_envelope("multi", frames=frames)
    )))
    def test_exactly_under_both_codecs_and_never_longer_than_generic(
        self, envelope
    ):
        positional = encode_frame_bytes(envelope, CODEC_BINARY)
        assert positional[1] >= 0x10
        assert decode_envelope(positional) == envelope
        generic = _generic_bytes(envelope)
        assert decode_envelope(generic) == envelope
        assert len(positional) <= len(generic)
        textual = encode_frame_bytes(envelope, CODEC_JSON)
        assert decode_envelope(textual) == envelope

    @settings(max_examples=150, deadline=None)
    @given(
        echo_frames(),
        st.one_of(
            counters.map(lambda serial: ("serial", serial)),
            st.tuples(names, json_values),
        ),
    )
    def test_off_its_exact_shape_it_is_written_generically(
        self, envelope, field
    ):
        key, value = field
        body = envelope["body"]["body"]
        if key == "serial" and value == envelope["seq"]:
            value += 1
        elif key in body:
            key += "_"
        body[key] = value
        raw = encode_frame_bytes(envelope, CODEC_BINARY)
        assert raw[1] < 0x10
        assert decode_envelope(raw) == envelope
        assert decode_envelope(encode_frame_bytes(envelope, CODEC_JSON)) == envelope

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    def test_anything_after_its_layout_tag_is_a_dict_or_a_wire_error(
        self, tail
    ):
        _dict_or_wire_error(bytes([BINARY_MAGIC, 0x14]) + tail)

    @settings(max_examples=20, deadline=None)
    @given(echo_frames())
    def test_every_truncation_and_trailing_byte_is_a_wire_error(
        self, envelope
    ):
        raw = encode_frame_bytes(envelope, CODEC_BINARY)
        for cut in range(1, len(raw)):
            with pytest.raises(WireError):
                decode_envelope(raw[:cut])
        with pytest.raises(WireError, match="trailing"):
            decode_envelope(raw + b"\x00")

    def test_a_version_3_hello_is_refused_under_both_codecs(self):
        hello = encode_envelope("hello", client="c1", codecs=["bin"], pin=0)
        hello["v"] = 3
        for codec_name in (CODEC_BINARY, CODEC_JSON):
            with pytest.raises(WireError, match="wire version 3"):
                decode_envelope(encode_frame_bytes(hello, codec_name))
