"""Length-prefixed framing and typed envelopes for the serving wire.

The network gateway and client speak a simple, strictly validated stream
protocol over TCP (or any asyncio stream pair):

Frame layout (all integers little-endian)::

    length  u32      byte count of everything after this prefix
    body    ...      envelope: u8 tag + tag-specific fields (below)
    crc32   u32      zlib.crc32 over the body

Envelope kinds (one dataclass each)::

    HELLO      client -> gateway   protocol version, tenant id, client name
    HELLO_ACK  gateway -> client   protocol version, server name, in-flight
                                   window (0 = unbounded)
    REQUEST    client -> gateway   connection-scoped request id, hosted
                                   program name, optional relative deadline,
                                   RFHE ciphertext payload blobs
    RESPONSE   gateway -> client   request id, batch size/batched flag,
                                   server-side latency, RFHE result blobs
    ERROR      either direction    request id (0 = connection-level), the
                                   stable :mod:`repro.serve.errors` code,
                                   message, JSON details (retry_after, the
                                   missing evaluation keys, ...)
    GOODBYE    either direction    orderly shutdown of one connection

Request ids are **per connection** and chosen by the client, which is what
lets many requests be in flight on one connection at once (the gateway
answers in completion order, not submission order).  Strings are
length-prefixed UTF-8; payloads are the untouched RFHE container blobs of
:mod:`repro.serve.serialization` — the envelope does not re-encode
ciphertexts, it moves them.

Two guarantees are enforced *here*, below both endpoints:

* **No secret keys on the wire.**  Encoding or decoding a REQUEST/RESPONSE
  whose payload header says :data:`~repro.serve.serialization.KIND_SECRET_KEY`
  raises the typed :class:`~repro.serve.errors.SecretKeyOnWireError` —
  the client cannot send one and the gateway will not accept one (and vice
  versa).  Payloads whose headers do not parse are left for the receiving
  endpoint's full ``deserialize`` to reject with a payload-level error.
* **Malformed frames are typed.**  Unknown envelope tags, truncation,
  checksum mismatches and oversize length prefixes raise
  :class:`~repro.serve.errors.ProtocolError`; a stream that produced one
  is not safe to keep parsing, so endpoints report it and close.

:class:`FrameTransport` wraps an asyncio ``(reader, writer)`` pair with
write serialization (many request tasks share one socket) and the
per-connection frame/byte counters the gateway and client surface in their
``stats()``.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from ..errors import (
    ProtocolError,
    SecretKeyOnWireError,
    SerializationError,
    ServeError,
    error_from_wire,
)
from ..serialization import KIND_SECRET_KEY, _Reader, kind_name, payload_kind

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "Hello",
    "HelloAck",
    "Request",
    "Response",
    "Error",
    "Goodbye",
    "Envelope",
    "encode_envelope",
    "decode_envelope",
    "encode_frame",
    "FrameTransport",
]

PROTOCOL_VERSION = 1

# Generous for the repo's parameter range: a level-8 N=2^12 word-size
# ciphertext is ~300 KiB, so even wide multi-ciphertext requests fit with
# orders of magnitude to spare, while a corrupted length prefix cannot ask
# an endpoint to buffer gigabytes.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

TAG_HELLO = 1
TAG_HELLO_ACK = 2
TAG_REQUEST = 3
TAG_RESPONSE = 4
TAG_ERROR = 5
TAG_GOODBYE = 6

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------

@dataclass
class Hello:
    """Client handshake: protocol version and the tenant this connection
    will submit as (one connection serves exactly one tenant)."""

    protocol_version: int
    tenant_id: str
    client_name: str = ""


@dataclass
class HelloAck:
    """Gateway handshake reply; ``max_inflight`` is the per-connection
    in-flight request window (0 = unbounded) the client should respect."""

    protocol_version: int
    server_name: str = ""
    max_inflight: int = 0


@dataclass
class Request:
    """One inference request: RFHE ciphertext blobs for a hosted program."""

    request_id: int
    program: str
    payloads: List[bytes]
    deadline_seconds: Optional[float] = None


@dataclass
class Response:
    """The served result of one request (one output blob per input)."""

    request_id: int
    payloads: List[bytes]
    batch_size: int = 1
    batched: bool = False
    latency_seconds: float = 0.0


@dataclass
class Error:
    """A typed failure; ``request_id`` 0 means the whole connection."""

    request_id: int
    code: int
    message: str
    details: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_exception(cls, exc: ServeError, request_id: int = 0) -> "Error":
        wire = exc.to_wire()
        return cls(request_id=request_id, code=wire["code"],
                   message=wire["message"], details=wire["details"])

    def to_exception(self) -> ServeError:
        return error_from_wire(self.code, self.message, self.details)


@dataclass
class Goodbye:
    """Orderly connection shutdown (either direction)."""

    reason: str = ""


Envelope = Union[Hello, HelloAck, Request, Response, Error, Goodbye]


# ---------------------------------------------------------------------------
# Field codecs
# ---------------------------------------------------------------------------

class _Codec(NamedTuple):
    """How one field crosses the wire: ``put`` appends its bytes to the
    parts of a body, ``take`` reads it back from the body's cursor."""

    put: Callable[[List[bytes], Any], None]
    take: Callable[[_Reader], Any]


def _fixed(fmt: struct.Struct) -> _Codec:
    return _Codec(lambda parts, value: parts.append(fmt.pack(value)),
                  lambda reader: reader.unpack(fmt)[0])


def _string(prefix: struct.Struct, what: str) -> _Codec:
    """Length-prefixed UTF-8; ``prefix`` is u16 for names, u32 for fields
    that may outgrow it (messages, JSON)."""
    limit = 1 << (8 * prefix.size)

    def put(parts, value):
        raw = value.encode("utf-8")
        if len(raw) >= limit:
            raise ProtocolError(
                f"{what} field of {len(raw)} bytes exceeds u{8 * prefix.size}")
        parts += (prefix.pack(len(raw)), raw)

    def take(reader):
        (length,) = reader.unpack(prefix)
        try:
            return reader.take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"undecodable {what} field: {exc}") from None

    return _Codec(put, take)


def _guard_payload(blob: bytes, action: str) -> None:
    """Refuse to move a secret key; ignore blobs whose headers don't parse."""
    try:
        kind = payload_kind(blob)
    except SerializationError:
        return
    if kind == KIND_SECRET_KEY:
        raise SecretKeyOnWireError(
            f"refusing to {action} a {kind_name(kind)} payload: secret keys "
            "never belong on the serving wire")


def _put_payloads(parts: List[bytes], payloads: List[bytes]) -> None:
    if len(payloads) > 0xFFFF:
        raise ProtocolError(f"{len(payloads)} payloads exceed the u16 count")
    parts.append(_U16.pack(len(payloads)))
    for blob in payloads:
        if not isinstance(blob, (bytes, bytearray, memoryview)):
            raise ProtocolError(
                f"payload must be bytes, got {type(blob).__name__}")
        _guard_payload(blob, "send")
        parts += (_U32.pack(memoryview(blob).nbytes), blob)


def _take_payloads(reader: _Reader) -> List[bytes]:
    (count,) = reader.unpack(_U16)
    payloads = []
    for _ in range(count):
        (length,) = reader.unpack(_U32)
        blob = reader.take(length)
        _guard_payload(blob, "accept")
        payloads.append(blob)
    return payloads


def _put_details(parts: List[bytes], details: Dict[str, Any]) -> None:
    try:
        raw = json.dumps(details or {}, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"error details are not JSON-encodable: {exc}")
    _TEXT.put(parts, raw)


def _take_details(reader: _Reader) -> Dict[str, Any]:
    try:
        details = json.loads(_TEXT.take(reader))
    except ValueError as exc:
        raise ProtocolError(f"undecodable error details: {exc}") from None
    if not isinstance(details, dict):
        raise ProtocolError(
            f"error details must be an object, got {type(details).__name__}")
    return details


def _put_opt_f64(parts: List[bytes], value: Optional[float]) -> None:
    parts.append(_F64.pack(math.nan if value is None else float(value)))


def _take_opt_f64(reader: _Reader) -> Optional[float]:
    (value,) = reader.unpack(_F64)
    return None if math.isnan(value) else value


_U16_FIELD = _fixed(_U16)
_U32_FIELD = _fixed(_U32)
_U64_FIELD = _fixed(_U64)
_F64_FIELD = _fixed(_F64)
_STR = _string(_U16, "string")
_TEXT = _string(_U32, "text")
_BOOL = _Codec(lambda parts, value: parts.append(_U8.pack(1 if value else 0)),
               lambda reader: bool(reader.unpack(_U8)[0]))
_OPT_F64 = _Codec(_put_opt_f64, _take_opt_f64)  # NaN: no deadline
_PAYLOADS = _Codec(_put_payloads, _take_payloads)
_DETAILS = _Codec(_put_details, _take_details)


# ---------------------------------------------------------------------------
# Envelope codec
# ---------------------------------------------------------------------------

# Each envelope's tag and its fields in wire order: the one statement of
# the body layout, which both directions of the codec walk.
_LAYOUT: Dict[type, Tuple[int, Tuple[Tuple[str, _Codec], ...]]] = {
    Hello: (TAG_HELLO, (("protocol_version", _U16_FIELD),
                        ("tenant_id", _STR),
                        ("client_name", _STR))),
    HelloAck: (TAG_HELLO_ACK, (("protocol_version", _U16_FIELD),
                               ("server_name", _STR),
                               ("max_inflight", _U32_FIELD))),
    Request: (TAG_REQUEST, (("request_id", _U64_FIELD),
                            ("program", _STR),
                            ("deadline_seconds", _OPT_F64),
                            ("payloads", _PAYLOADS))),
    Response: (TAG_RESPONSE, (("request_id", _U64_FIELD),
                              ("batch_size", _U32_FIELD),
                              ("batched", _BOOL),
                              ("latency_seconds", _F64_FIELD),
                              ("payloads", _PAYLOADS))),
    Error: (TAG_ERROR, (("request_id", _U64_FIELD),
                        ("code", _U32_FIELD),
                        ("message", _TEXT),
                        ("details", _DETAILS))),
    Goodbye: (TAG_GOODBYE, (("reason", _STR),)),
}
_BY_TAG = {tag: (cls, fields) for cls, (tag, fields) in _LAYOUT.items()}


def encode_envelope(envelope: Envelope) -> bytes:
    """Envelope -> frame body (tag + fields, no length prefix / crc)."""
    layout = _LAYOUT.get(type(envelope))
    if layout is None:
        raise ProtocolError(f"cannot encode {type(envelope).__name__}")
    tag, fields = layout
    parts = [_U8.pack(tag)]
    for name, codec in fields:
        codec.put(parts, getattr(envelope, name))
    return b"".join(parts)


def decode_envelope(body: bytes) -> Envelope:
    """Frame body -> envelope, strictly validated."""
    reader = _Reader(bytes(body), error=ProtocolError, what="envelope")
    (tag,) = reader.unpack(_U8)
    if tag not in _BY_TAG:
        raise ProtocolError(f"unknown envelope tag {tag}")
    cls, fields = _BY_TAG[tag]
    envelope = cls(**{name: codec.take(reader) for name, codec in fields})
    reader.expect_left(0)
    return envelope


def encode_frame(envelope: Envelope) -> bytes:
    """Envelope -> one complete wire frame (length prefix + body + crc)."""
    body = encode_envelope(envelope)
    return (_U32.pack(len(body) + _U32.size) + body
            + _U32.pack(zlib.crc32(body) & 0xFFFFFFFF))


def _decode_frame_body(data: bytes) -> Envelope:
    if len(data) < _U32.size:
        raise ProtocolError("frame too short to carry a checksum")
    body, trailer = data[:-_U32.size], data[-_U32.size:]
    (crc_stored,) = _U32.unpack(trailer)
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise ProtocolError("frame checksum mismatch (corrupted in transit)")
    return decode_envelope(body)


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------

class FrameTransport:
    """Framed envelopes over one asyncio stream pair, with counters.

    * ``send`` is serialized by an internal lock, so the gateway's many
      per-request tasks (and the client's submit path) can share one
      socket without interleaving frames.
    * ``receive`` returns ``None`` exactly once, on a clean EOF at a frame
      boundary; EOF inside a frame is a :class:`ProtocolError`.
    * ``frames_sent`` / ``frames_received`` / ``bytes_sent`` /
      ``bytes_received`` count every frame either way — the per-connection
      counters the gateway and client surface in their ``stats()``.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, *,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
        self.reader = reader
        self.writer = writer
        self.max_frame_bytes = int(max_frame_bytes)
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self._write_lock = asyncio.Lock()

    @property
    def peername(self) -> str:
        try:
            peer = self.writer.get_extra_info("peername")
        except Exception:  # pragma: no cover - transport already gone
            peer = None
        if peer is None:
            return "?"
        return ":".join(str(part) for part in peer[:2])

    async def send(self, envelope: Envelope) -> int:
        """Write one frame; returns the bytes put on the wire."""
        frame = encode_frame(envelope)
        async with self._write_lock:
            self.writer.write(frame)
            await self.writer.drain()
            self.frames_sent += 1
            self.bytes_sent += len(frame)
        return len(frame)

    async def receive(self) -> Optional[Envelope]:
        """Read one frame; ``None`` on clean EOF at a frame boundary."""
        try:
            prefix = await self.reader.readexactly(_U32.size)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise ProtocolError(
                f"connection closed inside a length prefix "
                f"({len(exc.partial)}/{_U32.size} bytes)") from None
        except (ConnectionResetError, BrokenPipeError):
            return None
        (length,) = _U32.unpack(prefix)
        if length > self.max_frame_bytes:
            raise ProtocolError(
                f"frame of {length} bytes exceeds the {self.max_frame_bytes}"
                f"-byte bound")
        try:
            data = await self.reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(
                f"connection closed inside a frame "
                f"({len(exc.partial)}/{length} bytes)") from None
        self.frames_received += 1
        self.bytes_received += len(prefix) + len(data)
        return _decode_frame_body(data)

    def close(self) -> None:
        if not self.writer.is_closing():
            self.writer.close()

    async def wait_closed(self) -> None:
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass

    def stats(self) -> Dict[str, int]:
        return {
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }
