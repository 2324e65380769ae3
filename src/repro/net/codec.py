"""Wire codec: versioned envelopes for the protocol messages.

Two :mod:`repro.jupiter.messages` payload types cross a socket —
:class:`~repro.jupiter.messages.ClientOperation` (client to server) and
:class:`~repro.jupiter.messages.ServerOperation` (the broadcast) — each
wrapped in a message **envelope**::

    {"v": 1, "kind": "server_op", "body": {...}}

whose body carries the operation with a *serial-encoded* context (see
:func:`compact_client_op_obj`).  That is the only wire dialect; what a
``hello`` negotiates is the byte serialisation of frames (``bin``, with
``json`` as the debug fallback).  Two compatibility rules:

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
from repro.errors import ProtocolError
from repro.jupiter.messages import ClientOperation, ServerOperation
from repro.jupiter.keys import key_of
from repro.jupiter.persistence import (
    context_from_compact,
    operation_from_obj,
    operation_to_obj,
    opids_to_obj,
)

#: Version of the frame envelope; bumped on any incompatible change.
#: The binary codec is *not* a version bump: the envelope model (a dict
#: with ``v``/``type`` and tolerated unknown fields) is unchanged — only
#: the byte serialisation differs, and it is negotiated per session.
WIRE_VERSION = 1

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
# An operation's context is the set of everything its generator had
# processed: a dense serial prefix of the total order plus a handful of
# "extras" (the generator's own operations still awaiting their echo).
# Sessions ship it as ``ctx: [d, [extra opids]]`` — O(extras)
# instead of O(history) — and omit the redundant ``prefix`` set (the
# serial number determines it).  The encoding is rebase-invariant: the
# decoder resolves the dense prefix ``(its own GC base, d]`` against its
# serial log, so the same bytes decode correctly on replicas whose
# active windows start at different floors.
def compact_client_op_obj(message: ClientOperation, oracle) -> Dict[str, Any]:
    """Encode a client operation with a serial-encoded context.

    ``oracle`` is the generator's
    :class:`~repro.jupiter.ordering.ClientOrderOracle`; context members
    it cannot name a serial for are the client's own still-pending
    operations and ride as extras.  The context is the key of the state
    the operation was generated on, so this reads its pair: ``d`` is
    absolute, and the same bytes come out however far the base has
    moved since (the advertised floor never passes the operation's pin,
    and the pin never passes ``d``).
    """
    operation = message.operation
    d, extras = key_of(oracle, operation.context).pair()
    return {
        "v": WIRE_VERSION,
        "kind": "client_op",
        "body": {
            "operation": operation_to_obj(operation, with_context=False),
            "ctx": [d, opids_to_obj(extras)],
        },
    }


def compact_server_op_obj(
    message: ServerOperation, ctx: Sequence[Any]
) -> Dict[str, Any]:
    """Encode a broadcast with the serial-encoded context the WAL holds.

    ``ctx`` is the ``[d, [extra opid objs]]`` pair the server computed
    when it appended the record (:func:`~repro.jupiter.persistence.compact_context`).
    The ``prefix`` set is omitted entirely: the recipient knows every
    serial below ``serial``, so the number *is* the prefix.
    """
    return {
        "v": WIRE_VERSION,
        "kind": "server_op",
        "body": {
            "operation": operation_to_obj(
                message.operation, with_context=False
            ),
            "ctx": [int(ctx[0]), list(ctx[1])],
            "origin": message.origin,
            "serial": int(message.serial),
        },
    }


def message_from_wire(obj: Dict[str, Any], oracle) -> Any:
    """Decode a message envelope, resolving its serial-encoded context.

    The dense prefix resolves against ``oracle`` — the *decoder's* order
    oracle — so this must be called at integration time, after every
    serial below the context floor has been witnessed (frame release
    order guarantees exactly that on both ends).  The envelope comes
    from outside the process: a wrong version, an unknown kind, a
    non-object body or a malformed body raise :class:`WireError`;
    unknown fields are ignored.
    """
    if not isinstance(obj, dict):
        raise WireError(
            f"message envelope must be an object, got {type(obj).__name__}"
        )
    if obj.get("v") != WIRE_VERSION:
        raise WireError(f"unsupported wire version {obj.get('v')!r}")
    kind = obj.get("kind")
    if kind not in ("client_op", "server_op"):
        raise WireError(f"unknown message kind {kind!r}")
    body = obj.get("body")
    if not isinstance(body, dict):
        raise WireError(
            f"message body must be an object, got {type(body).__name__}"
        )
    try:
        operation = operation_from_obj(
            body["operation"], context_from_compact(body["ctx"], oracle)
        )
        if kind == "client_op":
            return ClientOperation(operation=operation)
        return ServerOperation(
            operation=operation,
            origin=str(body["origin"]),
            serial=int(body["serial"]),
            # The prefix set is implied by the serial; the FIFO
            # cross-check it feeds is vacuous here.
            prefix=frozenset(),
        )
    except (KeyError, TypeError, ValueError) as exc:
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
    """Build one wire frame: ``{"v": 1, "type": ..., **fields}``."""
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
    know (unknown fields are tolerated by both codecs — the binary
    serialisation is self-describing, so a decoder carries unfamiliar
    keys through just like ``json.loads`` does).
    """
    if raw[:1] == _BINARY_MAGIC_BYTE:
        obj = _decode_binary_value(raw, 1)
    else:
        try:
            obj = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
# A self-describing tagged encoding of the same envelope dictionaries the
# JSON codec carries — nothing schema-specific, so the unknown-fields
# compatibility rule holds byte-for-byte.  The win over JSON comes from
# three things: varint integers (serials, seqs, positions), length-
# prefixed strings (no quoting), and a static intern table that turns
# every well-known key and type name into a 2-byte reference.  The table
# is part of the codec definition: entries are APPEND-ONLY (an index,
# once shipped, means that string forever).
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
)
_INTERN_INDEX = {text: index for index, text in enumerate(_INTERNED)}


def _write_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


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
            encoded = value.encode("utf-8")
            out.append(_TAG_STR)
            _write_varint(out, len(encoded))
            out.extend(encoded)
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


def _decode_binary_value(raw: bytes, offset: int) -> Any:
    value, end = _read_binary_value(raw, offset)
    if end != len(raw):
        raise WireError(
            f"binary frame has {len(raw) - end} trailing bytes"
        )
    return value


def _read_varint(raw: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(raw):
            raise WireError("binary frame truncated inside a varint")
        byte = raw[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise WireError("binary varint exceeds 64 bits")


def _read_binary_value(raw: bytes, offset: int) -> Tuple[Any, int]:
    if offset >= len(raw):
        raise WireError("binary frame truncated at a value tag")
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
        if offset + 8 > len(raw):
            raise WireError("binary frame truncated inside a float")
        return struct.unpack_from(">d", raw, offset)[0], offset + 8
    if tag == _TAG_STR:
        length, offset = _read_varint(raw, offset)
        if offset + length > len(raw):
            raise WireError("binary frame truncated inside a string")
        try:
            text = raw[offset : offset + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"binary string is not UTF-8: {exc}") from exc
        return text, offset + length
    if tag == _TAG_REF:
        index, offset = _read_varint(raw, offset)
        if index >= len(_INTERNED):
            raise WireError(f"binary intern reference {index} out of range")
        return _INTERNED[index], offset
    if tag == _TAG_LIST:
        count, offset = _read_varint(raw, offset)
        items = []
        for _ in range(count):
            item, offset = _read_binary_value(raw, offset)
            items.append(item)
        return items, offset
    if tag == _TAG_DICT:
        count, offset = _read_varint(raw, offset)
        result: Dict[str, Any] = {}
        for _ in range(count):
            key, offset = _read_binary_value(raw, offset)
            if not isinstance(key, str):
                raise WireError(
                    f"binary dictionary key is not a string: {key!r}"
                )
            item, offset = _read_binary_value(raw, offset)
            result[key] = item
        return result, offset
    raise WireError(f"unknown binary value tag 0x{tag:02x}")


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
