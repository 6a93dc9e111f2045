"""Compact versioned binary serialization for RNS/CKKS values.

The packed limb-major ``(L, N)`` stores make wire encoding a near-direct
dump: every value is a header plus rows of reduced residues in little-endian
fixed-width words.  The word width is 4 bytes when every modulus fits in 32
bits (the rule by which the numpy backend picks its 32-bit kernels) and
8 bytes otherwise, so word-size parameter sets serialize at half cost.

Container layout (all integers little-endian)::

    magic   4 bytes  b"RFHE"
    version u16      FORMAT_VERSION
    kind    u8       KIND_* tag
    word    u8       bytes per residue word (4 or 8)
    payload ...      kind-specific body (below)
    crc32   u32      zlib.crc32 over everything above

Payload bodies share one polynomial block encoding::

    meta:   u8 domain ("coeff"=0 / "eval"=1), u32 L, u32 N, L x u64 moduli
    rows:   L rows of N words each, in the *current* domain (no conversion
            on either side — an NTT-resident ciphertext ships its eval rows)

* ``KIND_RNS_POLY``:   meta + rows
* ``KIND_CIPHERTEXT``: i32 level, f64 scale, meta, c0 rows, c1 rows
  (c0/c1 share basis and domain by :class:`CKKSCiphertext` invariant)
* ``KIND_KSK``:        i32 level, u32 num_digits, meta (shared by all digit
  polynomials — they live over one extended basis), then per digit: b rows,
  a rows
* ``KIND_PUBLIC_KEY``: meta + b rows + a rows
* ``KIND_SECRET_KEY``: u32 N, N x i8 centred ternary coefficients

Loading is strict: magic, version, kind, checksum, word width, domain tag,
basis well-formedness, level/limb-count consistency, residue range (every
word < its modulus) and exact payload length are all validated, with typed
:class:`SerializationError` subclasses instead of garbage values.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import List, Sequence, Tuple

from ..fhe.backend import active_backend
from ..fhe.ckks.ciphertext import CKKSCiphertext
from ..fhe.ckks.keys import CKKSPublicKey, CKKSSecretKey, KeySwitchKey
from ..fhe.params import _cached_basis
from ..fhe.rns import RNSPolynomial
from .errors import CorruptPayloadError, SerializationError, UnsupportedVersionError

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "KIND_RNS_POLY",
    "KIND_CIPHERTEXT",
    "KIND_KSK",
    "KIND_PUBLIC_KEY",
    "KIND_SECRET_KEY",
    "payload_kind",
    "kind_name",
    "serialize",
    "deserialize",
    "serialize_rns_polynomial",
    "deserialize_rns_polynomial",
    "serialize_ciphertext",
    "deserialize_ciphertext",
    "serialize_keyswitch_key",
    "deserialize_keyswitch_key",
    "serialize_public_key",
    "deserialize_public_key",
    "serialize_secret_key",
    "deserialize_secret_key",
]

MAGIC = b"RFHE"
FORMAT_VERSION = 1

KIND_RNS_POLY = 1
KIND_CIPHERTEXT = 2
KIND_KSK = 3
KIND_PUBLIC_KEY = 4
KIND_SECRET_KEY = 5

_KIND_NAMES = {
    KIND_RNS_POLY: "rns_polynomial",
    KIND_CIPHERTEXT: "ciphertext",
    KIND_KSK: "keyswitch_key",
    KIND_PUBLIC_KEY: "public_key",
    KIND_SECRET_KEY: "secret_key",
}

_DOMAIN_TO_TAG = {"coeff": 0, "eval": 1}
_TAG_TO_DOMAIN = {0: "coeff", 1: "eval"}

_HEADER = struct.Struct("<HBB")  # version, kind, word — after the 4-byte magic
_MAX_LIMBS = 1 << 16
_MAX_LOG_DEGREE = 26


def payload_kind(data) -> int:
    """The ``KIND_*`` tag of an RFHE blob, read from the header only.

    Cheap (no checksum pass, no body decode) — this is what the framed
    transport uses to refuse :data:`KIND_SECRET_KEY` payloads before
    moving or decoding them.  Raises :class:`SerializationError` when the
    blob is too short to carry a header or the magic does not match; the
    returned tag is *not* validated against the known kinds (a full
    :func:`deserialize` does that).
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise SerializationError(f"expected bytes, got {type(data).__name__}")
    data = bytes(data)
    if len(data) < len(MAGIC) + _HEADER.size:
        raise SerializationError(
            f"payload of {len(data)} bytes is too short to carry a header")
    if data[:4] != MAGIC:
        raise SerializationError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    return data[6]


def kind_name(kind: int) -> str:
    """Human-readable name of a ``KIND_*`` tag (``"unknown"`` otherwise)."""
    return _KIND_NAMES.get(kind, "unknown")


# ---------------------------------------------------------------------------
# Low-level reader
# ---------------------------------------------------------------------------

class _Reader:
    """Cursor over a payload that raises on any out-of-bounds read."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise SerializationError(
                f"truncated payload: wanted {count} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def unpack(self, fmt: struct.Struct):
        return fmt.unpack(self.take(fmt.size))

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise SerializationError(
                f"trailing bytes: payload has {len(self.data) - self.pos} "
                "unread bytes")


_U32 = struct.Struct("<I")
_CT_HEAD = struct.Struct("<id")   # level, scale
_KSK_HEAD = struct.Struct("<iI")  # level, num_digits
_META_HEAD = struct.Struct("<BII")  # domain, L, N


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _word_for_moduli(moduli: Sequence[int]) -> int:
    return 4 if max(moduli).bit_length() <= 32 else 8


def _poly_rows(poly: RNSPolynomial) -> List[List[int]]:
    """Current-domain residue rows as python ints (dtype-agnostic)."""
    return active_backend().store_rows(poly.store())


def _encode_meta(poly: RNSPolynomial) -> bytes:
    moduli = poly.basis.moduli
    return (_META_HEAD.pack(_DOMAIN_TO_TAG[poly.domain], len(moduli),
                            poly.ring_degree)
            + struct.pack(f"<{len(moduli)}Q", *moduli))


def _encode_rows(rows: Sequence[Sequence[int]], word: int) -> bytes:
    code = "I" if word == 4 else "Q"
    parts = [struct.pack(f"<{len(row)}{code}", *row) for row in rows]
    return b"".join(parts)


def _decode_meta(reader: _Reader) -> Tuple[str, int, int, Tuple[int, ...]]:
    domain_tag, num_limbs, ring_degree = reader.unpack(_META_HEAD)
    if domain_tag not in _TAG_TO_DOMAIN:
        raise SerializationError(f"unknown domain tag {domain_tag}")
    if not 1 <= num_limbs <= _MAX_LIMBS:
        raise SerializationError(f"limb count {num_limbs} out of range")
    if ring_degree < 1 or ring_degree & (ring_degree - 1) or \
            ring_degree > 1 << _MAX_LOG_DEGREE:
        raise SerializationError(
            f"ring degree {ring_degree} is not a supported power of two")
    moduli = struct.unpack(f"<{num_limbs}Q", reader.take(8 * num_limbs))
    if any(q < 2 for q in moduli):
        raise SerializationError("modulus smaller than 2")
    return _TAG_TO_DOMAIN[domain_tag], num_limbs, ring_degree, moduli


def _decode_rows(reader: _Reader, moduli: Sequence[int], ring_degree: int,
                 word: int) -> List[List[int]]:
    code = "I" if word == 4 else "Q"
    row_fmt = struct.Struct(f"<{ring_degree}{code}")
    rows = []
    for q in moduli:
        row = list(reader.unpack(row_fmt))
        if max(row) >= q:
            raise SerializationError(
                f"residue out of range for modulus {q}")
        rows.append(row)
    return rows


def _basis_for(moduli: Sequence[int]):
    try:
        return _cached_basis(tuple(int(q) for q in moduli))
    except ValueError as exc:
        raise SerializationError(f"invalid RNS basis: {exc}") from None


def _adopt(ring_degree: int, moduli: Sequence[int], rows: List[List[int]],
           domain: str) -> RNSPolynomial:
    basis = _basis_for(moduli)
    store = active_backend().pack_limbs(rows, tuple(basis.moduli))
    return RNSPolynomial._from_store(ring_degree, basis, store, domain=domain)


def _container(kind: int, word: int, payload: bytes) -> bytes:
    body = MAGIC + _HEADER.pack(FORMAT_VERSION, kind, word) + payload
    return body + _U32.pack(zlib.crc32(body) & 0xFFFFFFFF)


def _open(data: bytes, expect_kind: "int | None" = None) -> Tuple[int, int, _Reader]:
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise SerializationError(f"expected bytes, got {type(data).__name__}")
    data = bytes(data)
    if len(data) < len(MAGIC) + _HEADER.size + _U32.size:
        raise SerializationError(
            f"truncated payload: {len(data)} bytes is smaller than the "
            "fixed container overhead")
    if data[:4] != MAGIC:
        raise SerializationError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    version, kind, word = _HEADER.unpack(data[4:8])
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"format version {version} not supported (this build speaks "
            f"version {FORMAT_VERSION})")
    (crc_stored,) = _U32.unpack(data[-4:])
    if zlib.crc32(data[:-4]) & 0xFFFFFFFF != crc_stored:
        raise CorruptPayloadError("checksum mismatch (truncated or corrupted)")
    if kind not in _KIND_NAMES:
        raise SerializationError(f"unknown kind tag {kind}")
    if word not in (4, 8):
        raise SerializationError(f"unsupported word size {word}")
    if expect_kind is not None and kind != expect_kind:
        raise SerializationError(
            f"expected a {_KIND_NAMES[expect_kind]} payload, got "
            f"{_KIND_NAMES[kind]}")
    return kind, word, _Reader(data[8:-4])


# ---------------------------------------------------------------------------
# RNS polynomial
# ---------------------------------------------------------------------------

def serialize_rns_polynomial(poly: RNSPolynomial) -> bytes:
    word = _word_for_moduli(poly.basis.moduli)
    payload = _encode_meta(poly) + _encode_rows(_poly_rows(poly), word)
    return _container(KIND_RNS_POLY, word, payload)


def deserialize_rns_polynomial(data: bytes) -> RNSPolynomial:
    _, word, reader = _open(data, expect_kind=KIND_RNS_POLY)
    domain, _, ring_degree, moduli = _decode_meta(reader)
    rows = _decode_rows(reader, moduli, ring_degree, word)
    reader.expect_end()
    return _adopt(ring_degree, moduli, rows, domain)


# ---------------------------------------------------------------------------
# Ciphertext
# ---------------------------------------------------------------------------

def serialize_ciphertext(ct: CKKSCiphertext) -> bytes:
    word = _word_for_moduli(ct.c0.basis.moduli)
    payload = (_CT_HEAD.pack(ct.level, float(ct.scale))
               + _encode_meta(ct.c0)
               + _encode_rows(_poly_rows(ct.c0), word)
               + _encode_rows(_poly_rows(ct.c1), word))
    return _container(KIND_CIPHERTEXT, word, payload)


def deserialize_ciphertext(data: bytes) -> CKKSCiphertext:
    _, word, reader = _open(data, expect_kind=KIND_CIPHERTEXT)
    level, scale = reader.unpack(_CT_HEAD)
    if not math.isfinite(scale) or scale <= 0:
        raise SerializationError(f"invalid ciphertext scale {scale!r}")
    domain, num_limbs, ring_degree, moduli = _decode_meta(reader)
    if num_limbs != level + 1:
        raise SerializationError(
            f"ciphertext at level {level} must carry {level + 1} limbs, "
            f"got {num_limbs}")
    c0_rows = _decode_rows(reader, moduli, ring_degree, word)
    c1_rows = _decode_rows(reader, moduli, ring_degree, word)
    reader.expect_end()
    return CKKSCiphertext(
        c0=_adopt(ring_degree, moduli, c0_rows, domain),
        c1=_adopt(ring_degree, moduli, c1_rows, domain),
        level=level,
        scale=scale,
    )


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------

def serialize_keyswitch_key(key: KeySwitchKey) -> bytes:
    if not key.digit_keys:
        raise SerializationError("keyswitch key has no digits")
    first = key.digit_keys[0][0]
    for b, a in key.digit_keys:
        if b.basis is not first.basis and b.basis != first.basis:
            raise SerializationError("digit keys must share one basis")
        if b.domain != first.domain or a.domain != first.domain:
            raise SerializationError("digit keys must share one domain")
    word = _word_for_moduli(first.basis.moduli)
    parts = [_KSK_HEAD.pack(key.level, len(key.digit_keys)),
             _encode_meta(first)]
    for b, a in key.digit_keys:
        parts.append(_encode_rows(_poly_rows(b), word))
        parts.append(_encode_rows(_poly_rows(a), word))
    return _container(KIND_KSK, word, b"".join(parts))


def deserialize_keyswitch_key(data: bytes) -> KeySwitchKey:
    _, word, reader = _open(data, expect_kind=KIND_KSK)
    level, num_digits = reader.unpack(_KSK_HEAD)
    if level < 0:
        raise SerializationError(f"negative keyswitch level {level}")
    if not 1 <= num_digits <= _MAX_LIMBS:
        raise SerializationError(f"digit count {num_digits} out of range")
    domain, _, ring_degree, moduli = _decode_meta(reader)
    digit_keys = []
    for _ in range(num_digits):
        b_rows = _decode_rows(reader, moduli, ring_degree, word)
        a_rows = _decode_rows(reader, moduli, ring_degree, word)
        digit_keys.append((_adopt(ring_degree, moduli, b_rows, domain),
                           _adopt(ring_degree, moduli, a_rows, domain)))
    reader.expect_end()
    return KeySwitchKey(level=level, digit_keys=digit_keys)


def serialize_public_key(key: CKKSPublicKey) -> bytes:
    word = _word_for_moduli(key.b.basis.moduli)
    payload = (_encode_meta(key.b)
               + _encode_rows(_poly_rows(key.b), word)
               + _encode_rows(_poly_rows(key.a), word))
    return _container(KIND_PUBLIC_KEY, word, payload)


def deserialize_public_key(data: bytes) -> CKKSPublicKey:
    _, word, reader = _open(data, expect_kind=KIND_PUBLIC_KEY)
    domain, _, ring_degree, moduli = _decode_meta(reader)
    b_rows = _decode_rows(reader, moduli, ring_degree, word)
    a_rows = _decode_rows(reader, moduli, ring_degree, word)
    reader.expect_end()
    return CKKSPublicKey(b=_adopt(ring_degree, moduli, b_rows, domain),
                         a=_adopt(ring_degree, moduli, a_rows, domain))


def serialize_secret_key(key: CKKSSecretKey) -> bytes:
    coeffs = key.coefficients
    if any(abs(c) > 127 for c in coeffs):
        raise SerializationError("secret coefficients exceed the i8 range")
    payload = _U32.pack(len(coeffs)) + struct.pack(f"<{len(coeffs)}b", *coeffs)
    return _container(KIND_SECRET_KEY, 8, payload)


def deserialize_secret_key(data: bytes) -> CKKSSecretKey:
    _, _, reader = _open(data, expect_kind=KIND_SECRET_KEY)
    (count,) = reader.unpack(_U32)
    if count < 1 or count > 1 << _MAX_LOG_DEGREE:
        raise SerializationError(f"coefficient count {count} out of range")
    coeffs = struct.unpack(f"<{count}b", reader.take(count))
    reader.expect_end()
    return CKKSSecretKey(coefficients=tuple(coeffs))


# ---------------------------------------------------------------------------
# Generic dispatch
# ---------------------------------------------------------------------------

def serialize(obj) -> bytes:
    """Serialize any supported value (dispatch on type)."""
    if isinstance(obj, CKKSCiphertext):
        return serialize_ciphertext(obj)
    if isinstance(obj, RNSPolynomial):
        return serialize_rns_polynomial(obj)
    if isinstance(obj, KeySwitchKey):
        return serialize_keyswitch_key(obj)
    if isinstance(obj, CKKSPublicKey):
        return serialize_public_key(obj)
    if isinstance(obj, CKKSSecretKey):
        return serialize_secret_key(obj)
    raise SerializationError(f"cannot serialize {type(obj).__name__}")


_DESERIALIZERS = {
    KIND_RNS_POLY: deserialize_rns_polynomial,
    KIND_CIPHERTEXT: deserialize_ciphertext,
    KIND_KSK: deserialize_keyswitch_key,
    KIND_PUBLIC_KEY: deserialize_public_key,
    KIND_SECRET_KEY: deserialize_secret_key,
}


def deserialize(data: bytes):
    """Deserialize any supported payload (dispatch on the kind tag)."""
    kind, _, _ = _open(data)
    return _DESERIALIZERS[kind](data)
