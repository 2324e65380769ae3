"""Tests for the wire codec: envelopes, message round-trips, signatures."""

import dataclasses
import json

import pytest

from repro.common import OpId
from repro.document.list_document import ListDocument
from repro.errors import ProtocolError
from repro.jupiter.messages import ClientOperation, ServerOperation
from repro.jupiter.ordering import ClientOrderOracle
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
)
from repro.ot import delete, insert


def _insert_op(replica="c1", seq=1, value="x", position=0, context=()):
    return insert(OpId(replica, seq), value, position, context=set(context))


def _delete_op():
    base = _insert_op("c9", 1, "v")
    return delete(OpId("c1", 2), base.element, 0, context={base.opid})


def _oracle(*serialised):
    """An order oracle that has witnessed ``serialised`` as serials 1..n."""
    oracle = ClientOrderOracle("c1")
    for serial, opid in enumerate(serialised, start=1):
        oracle.record(opid, serial)
    return oracle


def _client_ins():
    """An insert whose context mixes a dense prefix and an own op past a
    gap, as the server sees it once another writer's op came between."""
    message = ClientOperation(
        operation=_insert_op(seq=2, context={OpId("c2", 3), OpId("c1", 1)})
    )
    return message, _oracle(OpId("c2", 3), OpId("c3", 1), OpId("c1", 1))


def _client_del():
    return ClientOperation(operation=_delete_op()), _oracle(OpId("c9", 1))


def _server_op(serial=2):
    op = _insert_op("c2", serial, "y", 0, context={OpId("c1", 1)})
    message = ServerOperation(
        operation=op,
        origin="c2",
        serial=serial,
        prefix=frozenset({OpId("c1", 1)}),
    )
    return message, _oracle(OpId("c1", 1))


def _encode(message, oracle):
    if isinstance(message, ClientOperation):
        return compact_client_op_obj(message, oracle)
    return compact_server_op_obj(message, message.operation)


def _implied_prefix(message):
    """What a decoder rebuilds: the prefix set is implied by the serial."""
    if isinstance(message, ServerOperation):
        return dataclasses.replace(message, prefix=frozenset())
    return message


class TestMessageRoundTrips:
    """Compact bodies decode back to the message they encoded."""

    def test_client_operation_insert(self):
        message, oracle = _client_ins()
        obj = compact_client_op_obj(message, oracle)
        # the serialised member rides as the dense prefix, the own op
        # past the gap as a count
        assert obj["body"]["ctx"] == [1, 1]
        assert message_from_wire(obj, oracle) == message

    def test_client_operation_delete(self):
        message, oracle = _client_del()
        assert message_from_wire(_encode(message, oracle), oracle) == message

    def test_server_operation(self):
        message, oracle = _server_op()
        obj = _encode(message, oracle)
        assert "prefix" not in obj["body"]
        assert message_from_wire(obj, oracle) == _implied_prefix(message)

    def test_server_operation_empty_prefix(self):
        message = ServerOperation(
            operation=_insert_op(), origin="c1", serial=1, prefix=frozenset()
        )
        oracle = _oracle()
        assert message_from_wire(_encode(message, oracle), oracle) == message

    @pytest.mark.parametrize(
        "build",
        [_client_ins, _client_del, _server_op],
        ids=["client_ins", "client_del", "server_op"],
    )
    def test_json_text_round_trip(self, build):
        message, oracle = build()
        text = json.dumps(_encode(message, oracle))
        decoded = message_from_wire(json.loads(text), oracle)
        assert decoded == _implied_prefix(message)

    def test_json_text_is_canonical(self):
        pending = [OpId("c1", seq) for seq in (1, 2, 3)]
        texts = set()
        for context in (pending, pending[::-1]):
            message = ClientOperation(
                operation=_insert_op(seq=4, context=context)
            )
            texts.add(
                json.dumps(
                    compact_client_op_obj(message, _oracle()), sort_keys=True
                )
            )
        assert len(texts) == 1


class TestMessageEnvelope:
    """The envelope rules, checked before a body is ever interpreted."""

    def _obj(self):
        message, oracle = _client_ins()
        return compact_client_op_obj(message, oracle), message, oracle

    def test_carries_wire_version_and_kind(self):
        obj, _, _ = self._obj()
        assert obj["v"] == WIRE_VERSION
        assert obj["kind"] == "client_op"
        assert _encode(*_server_op())["kind"] == "server_op"

    def test_unknown_envelope_fields_are_ignored(self):
        obj, message, oracle = self._obj()
        obj["future_extension"] = {"nested": True}
        assert message_from_wire(obj, oracle) == message

    def test_unknown_body_fields_are_ignored(self):
        obj, message, oracle = self._obj()
        obj["body"]["priority"] = "high"
        assert message_from_wire(obj, oracle) == message

    def test_version_mismatch_rejected(self):
        obj, _, oracle = self._obj()
        obj["v"] = 99
        with pytest.raises(WireError):
            message_from_wire(obj, oracle)

    def test_missing_version_rejected(self):
        obj, _, oracle = self._obj()
        del obj["v"]
        with pytest.raises(WireError):
            message_from_wire(obj, oracle)

    def test_unknown_kind_rejected(self):
        obj, _, oracle = self._obj()
        obj["kind"] = "telepathy"
        with pytest.raises(WireError):
            message_from_wire(obj, oracle)

    @pytest.mark.parametrize("body", [None, ["not", "a", "body"], "text"])
    def test_non_object_body_rejected(self, body):
        obj, _, oracle = self._obj()
        obj["body"] = body
        with pytest.raises(WireError):
            message_from_wire(obj, oracle)

    def test_malformed_body_rejected(self):
        for build, field in (
            (_client_ins, "ctx"),
            (_client_ins, "operation"),
            (_server_op, "serial"),
        ):
            message, oracle = build()
            obj = _encode(message, oracle)
            del obj["body"][field]
            with pytest.raises(WireError):
                message_from_wire(obj, oracle)

    def test_non_dict_rejected(self):
        with pytest.raises(WireError):
            message_from_wire(["not", "an", "envelope"], _oracle())

    def test_invalid_json_text_rejected(self):
        with pytest.raises(WireError):
            decode_envelope(b"{nope")

    def test_unencodable_payload_rejected(self):
        frame = encode_envelope("data", seq=1, body=object())
        with pytest.raises(WireError):
            encode_frame_bytes(frame)

    def test_wire_error_is_a_protocol_error(self):
        assert issubclass(WireError, ProtocolError)


class TestFrameEnvelope:
    def test_encode_sets_version_and_type(self):
        frame = encode_envelope("hello", client="c1", delivered=0)
        assert frame == {
            "v": WIRE_VERSION, "type": "hello", "client": "c1", "delivered": 0
        }

    def test_reserved_keys_rejected(self):
        with pytest.raises(WireError):
            encode_envelope("hello", v=2)
        with pytest.raises(WireError):
            encode_envelope("hello", type="other")

    def test_decode_round_trip(self):
        frame = encode_envelope("data", seq=4, ack=2)
        raw = json.dumps(frame).encode("utf-8")
        assert decode_envelope(raw) == frame

    def test_decode_tolerates_unknown_fields(self):
        raw = json.dumps(
            {"v": WIRE_VERSION, "type": "ping", "shiny": "new"}
        ).encode()
        assert decode_envelope(raw)["type"] == "ping"

    def test_decode_rejects_bad_version(self):
        raw = json.dumps({"v": 99, "type": "ping"}).encode()
        with pytest.raises(WireError):
            decode_envelope(raw)

    def test_decode_rejects_missing_type(self):
        raw = json.dumps({"v": WIRE_VERSION}).encode()
        with pytest.raises(WireError):
            decode_envelope(raw)

    def test_decode_rejects_non_object(self):
        with pytest.raises(WireError):
            decode_envelope(b"[1, 2, 3]")

    def test_decode_rejects_junk_bytes(self):
        with pytest.raises(WireError):
            decode_envelope(b"\xff\xfe not json")


class TestDocumentSignature:
    def test_equal_documents_equal_signatures(self):
        a = ListDocument.from_string("hello")
        b = ListDocument.from_string("hello")
        assert document_signature(a) == document_signature(b)

    def test_same_text_different_identities_differ(self):
        a = ListDocument.from_string("hi", replica="init")
        b = ListDocument.from_string("hi", replica="other")
        assert document_signature(a) != document_signature(b)

    def test_order_matters(self):
        a = ListDocument.from_string("ab")
        b = ListDocument(reversed(list(ListDocument.from_string("ab"))))
        assert document_signature(a) != document_signature(b)

    def test_empty_document_is_stable(self):
        assert document_signature(ListDocument()) == document_signature(
            ListDocument()
        )
