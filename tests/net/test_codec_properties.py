"""Property tests for the frame codec — the bytes that cross the trust
boundary (ROADMAP 3a, codec half).

A frame has two possible spellings: positional, for exactly a hot shape,
and compact JSON for everything else.  Three claims: a hot frame
round-trips exactly under both and its positional spelling is never
longer than its JSON one, while a frame off the exact shape (an element
value that is not a ``str``, a serial that is not its frame's ``seq``, a
field no layout has) is written as JSON and decodes equal; whatever
follows the positional magic byte decodes to a dictionary or raises
:class:`WireError`, nothing else; and every truncation of a frame of
either spelling raises :class:`WireError`, while every single-byte
replacement decodes to a dictionary or raises it.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.codec import (
    BINARY_MAGIC,
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
not_a_str = json_values.filter(lambda value: not isinstance(value, str))


def _json(envelope):
    """The JSON spelling of any frame, hot shapes included."""
    return json.dumps(envelope, separators=(",", ":")).encode("utf-8")


def operations(values):
    element = st.fixed_dictionaries({"value": values, "opid": opids})
    return st.fixed_dictionaries(
        {
            "operation": st.fixed_dictionaries(
                {
                    "kind": st.sampled_from(["ins", "del"]),
                    "opid": opids,
                    "element": st.one_of(st.none(), element),
                    "position": counters,
                }
            ),
            "ctx": st.tuples(counters, counters).map(list),
        }
    )


def _message(kind, body):
    return {"v": WIRE_VERSION, "kind": kind, "body": body}


def hot_frames(values=st.text(max_size=8)):
    """Frames of exactly a hot shape, their element values drawn from
    ``values`` (a ``str`` keeps the frame positional)."""
    client = st.builds(
        lambda seq, ack, epoch, pin, body: encode_envelope(
            "data", seq=seq, ack=ack, epoch=epoch,
            body=_message("client_op", body), pin=pin,
        ),
        counters, counters, counters, counters, operations(values),
    )
    server = st.builds(
        lambda seq, ack, epoch, floor, body, origin, serial: encode_envelope(
            "data", seq=seq, ack=ack, epoch=epoch, floor=floor,
            body=_message(
                "server_op",
                dict(operation=body["operation"], origin=origin, serial=serial),
            ),
        ),
        counters, counters, counters, counters, operations(values),
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


#: frames no layout has: any other type, any fields
cold_frames = st.builds(
    lambda kind, fields: encode_envelope(kind, **fields),
    st.sampled_from(["welcome", "ping", "pong", "error", "evicted", "hello"]),
    st.dictionaries(
        st.text(max_size=8).filter(lambda key: key not in ("v", "type")),
        json_values,
        max_size=4,
    ),
)


def _elements(envelope):
    frames = envelope.get("frames", [envelope])
    return [
        frame["body"]["body"]["operation"]["element"]
        for frame in frames
        if "body" in frame
        and frame["body"]["body"]["operation"]["element"] is not None
    ]


def _dict_or_wire_error(raw):
    try:
        decoded = decode_envelope(raw)
    except WireError:
        return
    assert isinstance(decoded, dict)


def _every_truncation_and_single_byte_mutation(raw):
    for cut in range(len(raw)):
        with pytest.raises(WireError):
            decode_envelope(raw[:cut])
    for at in range(len(raw)):
        for byte in range(256):
            if byte != raw[at]:
                _dict_or_wire_error(raw[:at] + bytes([byte]) + raw[at + 1 :])


class TestHotFramesRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(hot_frames())
    def test_exactly_under_both_codecs_and_never_longer_than_json(
        self, envelope
    ):
        positional = encode_frame_bytes(envelope)
        assert positional[0] == BINARY_MAGIC and positional[1] >= 0x10
        assert decode_envelope(positional) == envelope
        textual = _json(envelope)
        assert decode_envelope(textual) == envelope
        assert len(positional) <= len(textual)

    @settings(max_examples=150, deadline=None)
    @given(hot_frames(values=not_a_str))
    def test_an_element_value_that_is_not_a_str_makes_the_frame_json(
        self, envelope
    ):
        raw = encode_frame_bytes(envelope)
        if _elements(envelope):
            assert raw == _json(envelope)
        else:
            assert raw[0] == BINARY_MAGIC  # no element: still exactly hot
        assert decode_envelope(raw) == envelope

    @settings(max_examples=100, deadline=None)
    @given(cold_frames)
    def test_every_other_frame_is_json_and_decodes_equal(self, envelope):
        raw = encode_frame_bytes(envelope)
        assert raw == _json(envelope)
        assert decode_envelope(raw) == envelope


class TestHostileBytes:
    @settings(max_examples=400, deadline=None)
    @given(st.binary(max_size=64))
    def test_anything_after_the_magic_is_a_dict_or_a_wire_error(self, tail):
        _dict_or_wire_error(bytes([BINARY_MAGIC]) + tail)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([0x10, 0x11, 0x12, 0x13]), st.binary(max_size=64))
    def test_so_is_anything_after_a_layout_tag(self, tag, tail):
        _dict_or_wire_error(bytes([BINARY_MAGIC, tag]) + tail)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    def test_so_is_any_non_magic_byte_string(self, raw):
        if raw[:1] != bytes([BINARY_MAGIC]):
            _dict_or_wire_error(raw)

    @settings(max_examples=10, deadline=None)
    @given(hot_frames())
    def test_every_truncation_and_single_byte_mutation_of_a_hot_frame(
        self, envelope
    ):
        """Both spellings of it: the positional one a writer sends, and
        the JSON one a reader must take as well."""
        _every_truncation_and_single_byte_mutation(encode_frame_bytes(envelope))
        _every_truncation_and_single_byte_mutation(_json(envelope))

    @settings(max_examples=5, deadline=None)
    @given(cold_frames)
    def test_every_truncation_and_single_byte_mutation_of_a_json_frame(
        self, envelope
    ):
        _every_truncation_and_single_byte_mutation(encode_frame_bytes(envelope))


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
    def test_exactly_under_both_codecs_and_never_longer_than_json(
        self, envelope
    ):
        positional = encode_frame_bytes(envelope)
        assert positional[1] >= 0x10
        assert decode_envelope(positional) == envelope
        textual = _json(envelope)
        assert decode_envelope(textual) == envelope
        assert len(positional) <= len(textual)

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
        raw = encode_frame_bytes(envelope)
        assert raw == _json(envelope)
        assert decode_envelope(raw) == envelope

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
        for raw in (encode_frame_bytes(envelope), _json(envelope)):
            for cut in range(len(raw)):
                with pytest.raises(WireError):
                    decode_envelope(raw[:cut])
            with pytest.raises(WireError):
                decode_envelope(raw + b"\x00")

    @pytest.mark.parametrize("version", [3, 5])
    def test_an_older_version_hello_is_refused(self, version):
        hello = encode_envelope("hello", client="c1", codecs=["bin"], pin=0)
        hello["v"] = version
        with pytest.raises(WireError, match=f"wire version {version}"):
            decode_envelope(encode_frame_bytes(hello))
