"""Wire codec: versioned envelopes for the protocol messages.

Three :mod:`repro.jupiter.messages` payload types cross a socket —
:class:`~repro.jupiter.messages.ClientOperation` (client to server),
:class:`~repro.jupiter.messages.ServerOperation` (the broadcast to every
other client) and :class:`~repro.jupiter.messages.ServerEcho` (the
generator's ``(opid, serial)``) — each wrapped in a message
**envelope**::

    {"v": 4, "kind": "server_op", "body": {...}}

whose body carries the operation with a *serial-encoded* context (see
:func:`compact_client_op_obj`), or only the id and serial for a
``server_echo``.  That is the only wire dialect; what a ``hello``
negotiates is the byte serialisation of frames: ``bin`` (tagged values,
and positional layouts for the hot ``data``/``ack``/``multi`` shapes) or
``json``, the handshake and debug codec; an envelope decodes to an equal
dictionary under either.  Two compatibility rules:

* the envelope ``v`` must match :data:`WIRE_VERSION` exactly — a peer
  speaking a different wire version is rejected loudly rather than
  misinterpreted;
* *unknown fields* anywhere (envelope or body) are tolerated and
  ignored, so a newer peer may add fields without breaking an older one.
  Decoders read only the keys they know.

The module also provides :func:`document_signature` — the canonical
digest the load generator compares across process boundaries to check
convergence (byte-identical documents, element identities included).
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.document.list_document import ListDocument
from repro.errors import ProtocolError, TransformError
from repro.jupiter.messages import ClientOperation, ServerEcho, ServerOperation
from repro.jupiter.keys import run_pair
from repro.jupiter.persistence import (
    operation_from_run,
    operation_to_obj,
    opid_from_obj,
    opid_to_obj,
)
from repro.jupiter.session import counter

#: Version of the frame envelope; bumped on any incompatible change.
#: 2: ``bin`` spells the hot frames positionally.  3: a context is
#: ``[d, n]``, a count where 2 listed ids.  4: the generator's echo is
#: a ``server_echo`` ``(opid, serial)``, with a layout of its own.  The
#: handshake is JSON, so a peer of another version is refused at its
#: ``hello``.
WIRE_VERSION = 4

#: Frame byte serialisations a peer offers in its ``hello`` (``codecs``
#: field, preference order) and the server picks from in its ``welcome``
#: (``codec`` field).  JSON is the mandatory fallback: the handshake
#: itself is always JSON, so every peer speaks it.
CODEC_JSON = "json"
CODEC_BINARY = "bin"
SUPPORTED_CODECS = (CODEC_BINARY, CODEC_JSON)

#: First byte of every binary-codec frame.  JSON frames start with
#: ``{`` (0x7B) or whitespace, never 0xB2, so the decoder sniffs the
#: serialisation per frame — which is what makes the handshake safe:
#: hello/welcome are always JSON, and the first binary frame after a
#: ``welcome`` needs no synchronisation point.
BINARY_MAGIC = 0xB2

#: Document served when a ``hello`` carries no ``doc`` field.  The field
#: is optional: a doc-less hello lands on this document.
DEFAULT_DOC = "default"


class WireError(ProtocolError):
    """A frame or message cannot be decoded (bad version, junk, oversize)."""


# ----------------------------------------------------------------------
# Serial-encoded message bodies (the active-window wire form)
# ----------------------------------------------------------------------
# A body's context is ``ctx: [d, n]``, the pair a WAL record holds (see
# repro.jupiter.persistence), and it omits the redundant ``prefix`` set:
# the serial number determines it.
def compact_client_op_obj(message: ClientOperation, oracle) -> Dict[str, Any]:
    """Encode a client operation with a serial-encoded context.

    ``oracle`` is the generator's
    :class:`~repro.jupiter.ordering.ClientOrderOracle`; context members
    it cannot name a serial for are the client's own still-pending
    operations, and only their number rides.  The context is the key of
    the state the operation was generated on, so this reads its pair:
    ``d`` is absolute, and the same bytes come out however far the base
    has moved since (the advertised floor never passes the operation's
    pin, and the pin never passes ``d``).
    """
    operation = message.operation
    return {
        "v": WIRE_VERSION,
        "kind": "client_op",
        "body": {
            "operation": operation_to_obj(operation, with_context=False),
            "ctx": run_pair(oracle, operation.context, operation.opid),
        },
    }


class ServerOpBody(dict):
    """A ``server_op`` message envelope, built once per operation and put
    in every recipient's frame: the ``bin`` codec spells it for the first
    and splices ``packed`` into the rest.  Read-only once framed."""

    packed: Optional[bytes] = None


def compact_server_op_obj(
    message: ServerOperation, ctx: Sequence[int]
) -> Dict[str, Any]:
    """Encode a broadcast with the context its WAL record holds.

    ``ctx`` is the ``[d, n]`` the server computed when it appended the
    record (:func:`~repro.jupiter.persistence.compact_context`), shipped
    as it is.  The ``prefix`` set is omitted entirely: the recipient
    knows every serial below ``serial``, so the number *is* the prefix.
    """
    return ServerOpBody(
        v=WIRE_VERSION,
        kind="server_op",
        body={
            "operation": operation_to_obj(message.operation, with_context=False),
            "ctx": ctx,
            "origin": message.origin,
            "serial": int(message.serial),
        },
    )


def server_echo_obj(echo: ServerEcho) -> Dict[str, Any]:
    """Encode the generator's echo: the operation's id and its serial,
    all the generator lacks (it holds the operation and its context)."""
    return {
        "v": WIRE_VERSION,
        "kind": "server_echo",
        "body": {"opid": opid_to_obj(echo.opid), "serial": echo.serial},
    }


def message_from_wire(obj: Dict[str, Any], oracle) -> Any:
    """Decode a message envelope, resolving its serial-encoded context.

    The dense prefix resolves against ``oracle`` — the *decoder's* order
    oracle — so this must be called at integration time, after every
    serial below the context floor has been witnessed (frame release
    order guarantees exactly that on both ends).  The envelope comes
    from outside the process: a wrong version, an unknown kind, a
    non-object body or a malformed body raise :class:`WireError`, a
    field of the wrong type or a context this oracle cannot name
    :class:`ProtocolError`; unknown fields are ignored.
    """
    if not isinstance(obj, dict):
        raise WireError(
            f"message envelope must be an object, got {type(obj).__name__}"
        )
    if obj.get("v") != WIRE_VERSION:
        raise WireError(f"unsupported wire version {obj.get('v')!r}")
    kind = obj.get("kind")
    if kind not in ("client_op", "server_op", "server_echo"):
        raise WireError(f"unknown message kind {kind!r}")
    body = obj.get("body")
    if not isinstance(body, dict):
        raise WireError(
            f"message body must be an object, got {type(body).__name__}"
        )
    try:
        if kind == "server_echo":
            return ServerEcho(
                opid=opid_from_obj(body["opid"]),
                serial=counter(body["serial"], "serial"),
            )
        operation = operation_from_run(body["operation"], body["ctx"], oracle)
        if kind == "client_op":
            return ClientOperation(operation=operation)
        return ServerOperation(
            operation=operation,
            origin=str(body["origin"]),
            serial=counter(body["serial"], "serial"),
            # The prefix set is implied by the serial; the FIFO
            # cross-check it feeds is vacuous here.
            prefix=frozenset(),
        )
    except (KeyError, TypeError, ValueError, TransformError) as exc:  # position=-5
        raise WireError(f"malformed {kind} body: {exc!r}") from exc


# ----------------------------------------------------------------------
# Replica rosters (the replicated-deployment control plane)
# ----------------------------------------------------------------------
def roster_to_obj(roster: Sequence[Tuple[str, int]]) -> List[List[Any]]:
    """Serialise a replica roster (ordered ``(host, port)`` pairs).

    The roster order is load-bearing: the index of each entry is the
    replica's identity (``s0``, ``s1``, ...) and the view-change rule
    ``primary(view) = roster[view mod len(roster)]`` is evaluated against
    it, so every replica and client must hold the *same ordered* roster.
    """
    return [[str(host), int(port)] for host, port in roster]


def roster_from_obj(obj: Any) -> List[Tuple[str, int]]:
    """Decode a roster; raises :class:`WireError` on malformed entries."""
    if not isinstance(obj, list) or not obj:
        raise WireError(f"roster must be a non-empty list, got {obj!r}")
    roster: List[Tuple[str, int]] = []
    for entry in obj:
        try:
            host, port = entry
            roster.append((str(host), int(port)))
        except (TypeError, ValueError) as exc:
            raise WireError(f"malformed roster entry {entry!r}: {exc}") from exc
    return roster


def parse_roster(text: str) -> List[Tuple[str, int]]:
    """Parse a ``host:port,host:port,...`` roster string (CLI format)."""
    roster: List[Tuple[str, int]] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        host, _, port = item.rpartition(":")
        if not host or not port.isdigit():
            raise WireError(
                f"malformed roster entry {item!r}: expected host:port"
            )
        roster.append((host, int(port)))
    if not roster:
        raise WireError(f"roster {text!r} contains no host:port entries")
    return roster


# ----------------------------------------------------------------------
# Frame envelopes (control plane + data plane of the transport)
# ----------------------------------------------------------------------
# In a replicated deployment four frame types join the original eight
# (hello/welcome/data/ack/ping/pong/bye/admin), all plain envelopes:
#
# * ``redirect {view, epoch, primary, host, port, roster}`` — a backup's
#   answer to a client ``hello``: go talk to the primary of my view.
# * ``repl_install {view, epoch, committed, log}`` — primary -> backup:
#   adopt this full log (sent on (re)connect and as the VSR start-view).
# * ``repl_append {epoch, committed, record}`` — primary -> backup: one
#   shipped WAL record; the piggybacked ``committed`` floor lets backups
#   track what is quorum-certified without extra round trips.
# * ``repl_ack {serial, epoch}`` / ``repl_deny {view}`` — backup ->
#   primary: durable-append acknowledgement, or a refusal quoting a
#   higher view (the sender is a deposed primary and must stand down).
# * ``repl_seek {view}`` / ``repl_offer {view, replica, last_epoch,
#   last_serial, committed, log}`` — a view-change candidate gathering
#   quorum: each offer is a promise to reject epochs below ``view``.
#
# Every replicated data/ack/welcome frame also carries ``epoch`` so
# stale-primary frames are rejected instead of misapplied.
#
# The overload-armor layer adds three server -> client envelopes:
#
# * ``evicted {reason, epoch}`` — the server dropped this connection as
#   a slow consumer (queue overflow, write stall, idle deadline); the
#   WAL resync on reconnect makes the eviction lossless.
# * ``retry_after {seconds, reason}`` — admission control refused the
#   connection; the client backs off at least ``seconds`` and redials.
# * ``error {reason, length, limit, epoch}`` — one frame was rejected
#   (e.g. oversized) but the session stays alive.
#
# The fleet tier (:mod:`repro.net.fleet`) adds a control plane between
# workers and the router, plus one field on the session handshake:
#
# * ``hello`` gains an optional ``doc`` field naming the document the
#   session is for (default :data:`DEFAULT_DOC`); ``welcome`` echoes it.
# * ``fleet_register {worker, host, port}`` — worker -> router: join the
#   fleet; answered with ``fleet_ack {lease, interval}`` quoting the
#   lease the worker must keep renewed and the heartbeat interval.
# * ``fleet_heartbeat {worker, docs}`` — worker -> router: renew the
#   lease, reporting the documents currently hosted; answered with
#   ``fleet_ack``.
# * A client ``hello`` sent *to the router* is answered with the same
#   ``redirect`` envelope the replication layer uses — ``{host, port,
#   roster}`` pointing at the worker that owns ``doc`` — so the
#   client's existing redirect/roster-walk machinery needs nothing new.
def encode_envelope(frame_type: str, **fields: Any) -> Dict[str, Any]:
    """Build one wire frame: ``{"v": 2, "type": ..., **fields}``."""
    if "v" in fields or "type" in fields:
        raise WireError("'v' and 'type' are reserved envelope keys")
    envelope: Dict[str, Any] = {"v": WIRE_VERSION, "type": frame_type}
    envelope.update(fields)
    return envelope


def decode_envelope(raw: bytes) -> Dict[str, Any]:
    """Parse and version-check one frame body, sniffing the codec.

    A body starting with :data:`BINARY_MAGIC` is a binary-codec frame;
    anything else is UTF-8 JSON.  Returns the decoded dictionary;
    callers dispatch on ``frame["type"]`` and read only the fields they
    know (unknown fields are tolerated by both codecs — a frame carrying
    one is written generically, self-describing, so a decoder carries
    unfamiliar keys through just like ``json.loads`` does).
    """
    if raw[:1] == _BINARY_MAGIC_BYTE:
        try:
            read = _unpack_hot if raw[1] > _TAG_REF else _read_binary_value
            obj, end = read(raw, 1)
        except (IndexError, struct.error):
            raise WireError("binary frame truncated") from None
        if end != len(raw):
            raise WireError(f"binary frame has {len(raw) - end} trailing bytes")
    else:
        try:
            obj = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise WireError(f"frame is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise WireError(f"frame must be a JSON object, got {type(obj).__name__}")
    if obj.get("v") != WIRE_VERSION:
        raise WireError(f"unsupported wire version {obj.get('v')!r}")
    if not isinstance(obj.get("type"), str):
        raise WireError("frame has no 'type' field")
    return obj


def encode_frame_bytes(
    envelope: Dict[str, Any], codec: str = CODEC_JSON
) -> bytes:
    """Serialise one envelope dictionary under ``codec``."""
    if codec == CODEC_BINARY:
        out = bytearray(_BINARY_MAGIC_BYTE)
        if not _pack_hot(out, envelope):
            _encode_binary_value(out, envelope)
        return bytes(out)
    if codec == CODEC_JSON:
        return json.dumps(envelope, separators=(",", ":")).encode("utf-8")
    raise WireError(f"unknown wire codec {codec!r}")


def negotiate_codec(offered: Any) -> Optional[str]:
    """Server-side codec pick from a hello's ``codecs`` offer.

    The first supported entry wins; an offer naming only codecs this
    server has never heard of lands on JSON, which every peer speaks.
    ``None`` when there is no offer at all (field missing, empty, or not
    a list) — the hello is not a session this server can serve.
    """
    if not isinstance(offered, (list, tuple)) or not offered:
        return None
    for name in offered:
        if name in SUPPORTED_CODECS:
            return str(name)
    return CODEC_JSON


# ----------------------------------------------------------------------
# Binary frame serialisation (negotiated codec "bin")
# ----------------------------------------------------------------------
# After the magic byte, a frame's second byte says how the rest is
# spelled.  A *value tag* (0x00-0x08) opens the generic encoding: a
# self-describing tagged serialisation of the same envelope dictionaries
# the JSON codec carries — nothing schema-specific, so the unknown-fields
# rule holds byte-for-byte — with varint integers, length-prefixed
# strings and a static intern table that turns every well-known key and
# type name into a 2-byte reference (APPEND-ONLY: an index, once shipped,
# means that string forever).  Every cold frame travels that way.  A
# *layout tag* (>= 0x10) opens a hot shape spelled positionally — fields
# in a fixed order, no keys, no per-value tags, no ``v`` (the tag implies
# it); ``docs/ARCHITECTURE.md`` has the byte table.  *Exact-shape rule*:
# an envelope is written positionally only when its key sets are exactly
# the known ones and every counter is a non-negative ``int``; anything
# else (an unknown field, a foreign body, a multi with a cold member, an
# echo whose serial is not its frame's ``seq``) is written generically,
# so every envelope decodes to an equal dictionary.
_BINARY_MAGIC_BYTE = bytes([BINARY_MAGIC])

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_LIST = 0x06
_TAG_DICT = 0x07
_TAG_REF = 0x08

#: layout tag -> (frame type, its counters in wire order, message kind),
#: and for the writer (frame type, carries a ``floor``, message kind) ->
#: layout tag.  An echo's serial is its frame's ``seq``: only the opid
#: follows the counters.
_LAYOUTS = {
    0x10: ("data", ("seq", "ack", "epoch", "pin"), "client_op"),
    0x11: ("data", ("seq", "ack", "epoch", "floor"), "server_op"),
    0x12: ("ack", ("ack", "epoch", "floor"), None),
    0x14: ("data", ("seq", "ack", "epoch", "floor"), "server_echo"),
}
_LAYOUT_MULTI = 0x13
_LAYOUT_TAGS = {
    (t, "floor" in names, kind): tag for tag, (t, names, kind) in _LAYOUTS.items()
}
_OP_KINDS = ("ins", "del")
_MAX_DEPTH = 32  #: containers nest this deep at most (real frames: < 10)

_INTERNED = (
    # envelope / session
    "v", "type", "hello", "welcome", "data", "ack", "ping", "pong", "bye",
    "admin", "error", "multi", "redirect", "evicted", "retry_after",
    "client", "doc", "seq", "serial", "origin", "epoch", "message",
    "frames", "codec", "codecs", "features", "batch", "floor", "pin",
    "reason", "resync", "delivered", "payloads", "command",
    # message envelopes
    "kind", "body", "client_op", "server_op", "resync_request",
    "resync_response", "operation", "prefix", "position", "context",
    "element", "value", "opid", "replica", "ins", "del", "ctx", "base",
    # replication / fleet control plane
    "view", "primary", "host", "port", "roster", "committed", "record",
    "log", "lease", "interval", "worker", "docs", "repl_install",
    "repl_append", "repl_ack", "repl_deny", "repl_seek", "repl_offer",
    "fleet_register", "fleet_heartbeat", "fleet_ack",
    # state transfer
    "space", "serials", "snapshot", "next_seq", "clients", "state",
    # wire version 4
    "server_echo",
)
_INTERN_INDEX = {text: index for index, text in enumerate(_INTERNED)}


def _write_varint(out: bytearray, value: int) -> None:
    if value >> 70:  # ten bytes: what the reader takes, the writer emits
        raise WireError(f"integer {value} does not fit a binary varint")
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _encode_binary_value(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        zigzag = (value << 1) if value >= 0 else ((-value << 1) - 1)
        _write_varint(out, zigzag)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out.extend(struct.pack(">d", value))
    elif isinstance(value, str):
        index = _INTERN_INDEX.get(value)
        if index is not None:
            out.append(_TAG_REF)
            _write_varint(out, index)
        else:
            out.append(_TAG_STR)
            _pack_str(out, value)
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        _write_varint(out, len(value))
        for item in value:
            _encode_binary_value(out, item)
    elif isinstance(value, dict):
        out.append(_TAG_DICT)
        _write_varint(out, len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise WireError(
                    f"binary codec requires string keys, got {key!r}"
                )
            _encode_binary_value(out, key)
            _encode_binary_value(out, item)
    else:
        raise WireError(
            f"binary codec cannot encode {type(value).__name__}"
        )


def _pack_counters(out: bytearray, values: Sequence[Any]) -> None:
    for value in values:
        if type(value) is not int or value < 0 or value >> 70:
            raise ValueError  # no counter; past 70 bits the generic writer's
        while value > 0x7F:
            out.append(value & 0x7F | 0x80)
            value >>= 7
        out.append(value)


def _pack_str(out: bytearray, text: Any) -> None:
    if not isinstance(text, str):
        raise ValueError
    encoded = text.encode("utf-8")
    _write_varint(out, len(encoded))
    out += encoded


def _pack_opid(out: bytearray, opid: Any) -> None:
    if type(opid) is not list or len(opid) != 2:
        raise ValueError
    _pack_str(out, opid[0])
    _pack_counters(out, opid[1:])


def _pack_message(out: bytearray, message: Any, kind: str) -> None:
    """Append a message envelope: operation, context, (broadcast) origin
    — or an echo's opid (its serial, the frame's ``seq``, is checked by
    the caller)."""
    if kind == "server_echo":
        shape = message["v"], message["kind"], len(message), len(message["body"])
        if shape != (WIRE_VERSION, kind, 3, 2):
            raise ValueError
        _pack_opid(out, message["body"]["opid"])
        return
    server = kind == "server_op"
    if server and type(message) is ServerOpBody and message.packed is not None:
        out += message.packed  # an earlier recipient's frame spelled it
        return
    start = len(out)
    body = message["body"]
    operation = body["operation"]
    element = operation["element"]
    ctx = body["ctx"]
    shape = message["v"], message["kind"], type(ctx)
    sizes = len(message), len(body), len(operation), len(ctx)
    if (
        shape != (WIRE_VERSION, kind, list)
        or sizes != (3, 4 if server else 2, 4, 2)
        or element is not None and len(element) != 2
    ):
        raise ValueError
    out.append(_OP_KINDS.index(operation["kind"]) | (element is None) << 1)
    _pack_opid(out, operation["opid"])
    _pack_counters(out, (operation["position"],))
    if element is not None:
        _encode_binary_value(out, element["value"])
        _pack_opid(out, element["opid"])
    _pack_counters(out, ctx)
    if server:
        _pack_str(out, body["origin"])
        _pack_counters(out, (body["serial"],))
        if type(message) is ServerOpBody:
            message.packed = bytes(out[start:])


def _pack_hot(out: bytearray, envelope: Any, nested: bool = False) -> bool:
    """Append ``envelope`` positionally — or, when it is not exactly a hot
    shape (a ``ValueError`` below, or what reading the wrong structure
    raises; length plus the keys read pin a key set), nothing: ``False``."""
    mark = len(out)
    try:
        kind = envelope["type"]
        if envelope["v"] != WIRE_VERSION:
            raise ValueError
        if kind == "multi":
            frames = envelope["frames"]
            if nested or len(envelope) != 3 or type(frames) is not list:
                raise ValueError
            out.append(_LAYOUT_MULTI)
            _write_varint(out, len(frames))
            if not all(_pack_hot(out, member, True) for member in frames):
                raise ValueError
        else:
            message = envelope["body"] if "body" in envelope else None
            message_kind = None if message is None else message["kind"]
            tag = _LAYOUT_TAGS[kind, "floor" in envelope, message_kind]
            counters = _LAYOUTS[tag][1]
            if len(envelope) != 2 + len(counters) + (message is not None):
                raise ValueError
            out.append(tag)
            _pack_counters(out, [envelope[name] for name in counters])
            if message_kind == "server_echo":
                serial = message["body"]["serial"]
                if type(serial) is not int or serial != envelope["seq"]:
                    raise ValueError
            if message is not None:
                _pack_message(out, message, message_kind)
    except (KeyError, TypeError, ValueError):
        del out[mark:]
        return False
    return True


_Read = Tuple[Any, int]  #: every reader: the value, the offset just past it


def _read_varint(raw: bytes, offset: int) -> _Read:
    result = shift = 0
    while True:
        byte = raw[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise WireError("binary varint exceeds ten bytes")


def _unpack_str(raw: bytes, offset: int) -> _Read:
    length = raw[offset]
    offset += 1
    if length > 0x7F:
        length, offset = _read_varint(raw, offset - 1)
    end = offset + length
    if end > len(raw):
        raise WireError("binary frame truncated inside a string")
    try:
        return raw[offset:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise WireError(f"binary string is not UTF-8: {exc}") from exc


def _read_binary_value(raw: bytes, offset: int, depth: int = 0) -> _Read:
    tag = raw[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT:
        zigzag, offset = _read_varint(raw, offset)
        return (zigzag >> 1) if not zigzag & 1 else -((zigzag + 1) >> 1), offset
    if tag == _TAG_FLOAT:
        return struct.unpack_from(">d", raw, offset)[0], offset + 8
    if tag == _TAG_STR:
        return _unpack_str(raw, offset)
    if tag == _TAG_REF:
        index, offset = _read_varint(raw, offset)
        if index >= len(_INTERNED):
            raise WireError(f"binary intern reference {index} out of range")
        return _INTERNED[index], offset
    if tag not in (_TAG_LIST, _TAG_DICT):
        raise WireError(f"unknown binary value tag 0x{tag:02x}")
    if depth >= _MAX_DEPTH:
        raise WireError(f"binary frame nests deeper than {_MAX_DEPTH}")
    count, offset = _read_varint(raw, offset)
    if tag == _TAG_LIST:
        items = []
        for _ in range(count):
            item, offset = _read_binary_value(raw, offset, depth + 1)
            items.append(item)
        return items, offset
    result: Dict[str, Any] = {}
    for _ in range(count):
        key, offset = _read_binary_value(raw, offset, depth + 1)
        if not isinstance(key, str):
            raise WireError(f"binary dictionary key is not a string: {key!r}")
        result[key], offset = _read_binary_value(raw, offset, depth + 1)
    return result, offset


def _unpack_opid(raw: bytes, offset: int) -> _Read:
    replica, offset = _unpack_str(raw, offset)
    seq, offset = _read_varint(raw, offset)
    return [replica, seq], offset


def _unpack_message(raw: bytes, offset: int, kind: str, seq: int) -> _Read:
    """Read what :func:`_pack_message` wrote, as the message envelope; an
    echo's serial is its frame's ``seq``."""
    if kind == "server_echo":
        opid, offset = _unpack_opid(raw, offset)
        body = {"opid": opid, "serial": seq}
        return {"v": WIRE_VERSION, "kind": kind, "body": body}, offset
    op_kind = raw[offset]
    if op_kind > 3:
        raise WireError(f"unknown operation kind byte 0x{op_kind:02x}")
    operation = {"kind": _OP_KINDS[op_kind & 1], "element": None}
    operation["opid"], offset = _unpack_opid(raw, offset + 1)
    operation["position"], offset = _read_varint(raw, offset)
    if not op_kind & 2:
        value, offset = _read_binary_value(raw, offset, 1)
        opid, offset = _unpack_opid(raw, offset)
        operation["element"] = {"value": value, "opid": opid}
    d, offset = _read_varint(raw, offset)
    n, offset = _read_varint(raw, offset)
    body = {"operation": operation, "ctx": [d, n]}
    if kind == "server_op":
        body["origin"], offset = _unpack_str(raw, offset)
        body["serial"], offset = _read_varint(raw, offset)
    return {"v": WIRE_VERSION, "kind": kind, "body": body}, offset


def _unpack_hot(raw: bytes, offset: int, nested: bool = False) -> _Read:
    """Read one positional frame (its layout tag is at ``offset``)."""
    tag = raw[offset]
    offset += 1
    if tag == _LAYOUT_MULTI and not nested:
        count, offset = _read_varint(raw, offset)
        frames = []
        for _ in range(count):
            member, offset = _unpack_hot(raw, offset, True)
            frames.append(member)
        return {"v": WIRE_VERSION, "type": "multi", "frames": frames}, offset
    if tag not in _LAYOUTS:
        raise WireError(f"unknown binary layout tag 0x{tag:02x}")
    frame_type, counters, message_kind = _LAYOUTS[tag]
    envelope: Dict[str, Any] = {"v": WIRE_VERSION, "type": frame_type}
    for name in counters:
        envelope[name], offset = _read_varint(raw, offset)
    if message_kind is not None:
        envelope["body"], offset = _unpack_message(
            raw, offset, message_kind, envelope["seq"]
        )
    return envelope, offset


# ----------------------------------------------------------------------
# Convergence signatures
# ----------------------------------------------------------------------
def document_signature(document: ListDocument) -> str:
    """Canonical digest of a document, element identities included.

    Two replicas converged (Theorem 6.7) iff their documents agree as
    *identified* element sequences — same values in the same order with
    the same originating :class:`~repro.common.ids.OpId`\\ s.  Hashing the
    canonical JSON of exactly that sequence lets processes compare state
    by exchanging one short hex string.
    """
    canon = [
        [element.value, element.opid.replica, element.opid.seq]
        for element in document.read()
    ]
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
