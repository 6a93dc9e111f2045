"""Compact versioned binary serialization for RNS/CKKS values.

The packed limb-major ``(L, N)`` stores make wire encoding a near-direct
dump: every value is a header plus rows of reduced residues in little-endian
fixed-width words.  The word width is 4 bytes when every modulus fits in 32
bits (the rule by which the numpy backend picks its 32-bit kernels) and
8 bytes otherwise, so word-size parameter sets serialize at half cost.

This module packs headers and metadata only.  Rows cross in one backend
dispatch per polynomial, store -> words
(:meth:`~repro.fhe.backend.ArithmeticBackend.limbs_to_words`) and words ->
validated store (``limbs_from_words``): on numpy one ``astype().tobytes()``
/ one ``frombuffer`` plus a vectorised range check, with no python ints in
between.  The golden row codec — ``struct`` over python-int rows, the only
path without numpy and for moduli above the vectorised word cap — is the
base-class implementation of those two kernels in :mod:`repro.fhe.backend`.
A 4-byte-word blob decodes on numpy into a 32-bit store that owns exactly
its ``L * N * 4`` bytes; it widens when the first kernel reads it.

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
:class:`SerializationError` subclasses instead of garbage values.  The
header fixes the row bytes a payload must hold; that length is compared
with what is left *before* a row is decoded, so no allocation follows an
unvalidated count.  Saving refuses a value that does not fit its word.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import List, NamedTuple, Sequence, Type

from ..fhe.backend import active_backend
from ..fhe.ckks.ciphertext import CKKSCiphertext
from ..fhe.ckks.keys import CKKSPublicKey, CKKSSecretKey, KeySwitchKey
from ..fhe.params import _cached_basis
from ..fhe.rns import RNSBasis, RNSPolynomial
from .errors import (
    CorruptPayloadError,
    SerializationError,
    ServeError,
    UnsupportedVersionError,
)

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
# Four times the longest in-tree chain (``ckks-default``: 36 + 12 special =
# 48 limbs).  The count is checked before the moduli are read: ``RNSBasis``
# runs a pairwise gcd and one ``product // q`` per limb, which a header
# announcing 65536 distinct moduli would turn into ~2e9 gcd calls.  Digit
# counts share the bound (a keyswitch key has at most one digit per limb).
_MAX_LIMBS = 4 * 48
_MAX_LOG_DEGREE = 26


def _header_view(data, least: int) -> memoryview:
    """A blob as a flat byte view (no copy) of at least ``least`` bytes that
    starts with the magic."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise SerializationError(f"expected bytes, got {type(data).__name__}")
    view = memoryview(data)
    if not view.c_contiguous:
        view = memoryview(view.tobytes())
    view = view.cast("B")
    if len(view) < least:
        raise SerializationError(
            f"truncated payload: {len(view)} bytes is smaller than the "
            f"{least} bytes of container overhead")
    if view[:4] != MAGIC:
        raise SerializationError(
            f"bad magic {bytes(view[:4])!r}, expected {MAGIC!r}")
    return view


def payload_kind(data) -> int:
    """The ``KIND_*`` tag of an RFHE blob, read from the header only.

    Cheap (no checksum pass, no body decode, no copy) — this is what the
    framed transport uses to refuse :data:`KIND_SECRET_KEY` payloads before
    moving or decoding them.  Raises :class:`SerializationError` when the
    blob is too short to carry a header or the magic does not match; the
    returned tag is *not* validated against the known kinds (a full
    :func:`deserialize` does that).
    """
    return _header_view(data, len(MAGIC) + _HEADER.size)[6]


def kind_name(kind: int) -> str:
    """Human-readable name of a ``KIND_*`` tag (``"unknown"`` otherwise)."""
    return _KIND_NAMES.get(kind, "unknown")


# ---------------------------------------------------------------------------
# Byte cursor
# ---------------------------------------------------------------------------

class _Reader:
    """Cursor over a byte buffer that raises ``error`` on any read past its
    end.  The one cursor of the serving wire: a container's reader carries
    its header's ``kind`` and ``word``; the frame codec reads envelopes with
    ``error=ProtocolError``."""

    __slots__ = ("data", "pos", "kind", "word", "error", "what")

    def __init__(self, data, kind: int = 0, word: int = 0, *,
                 error: Type[ServeError] = SerializationError,
                 what: str = "payload"):
        self.data = data
        self.pos = 0
        self.kind = kind
        self.word = word
        self.error = error
        self.what = what

    def _truncated(self, count: int) -> ServeError:
        return self.error(
            f"truncated {self.what}: wanted {count} bytes at offset "
            f"{self.pos}, have {len(self.data) - self.pos}")

    def take(self, count: int):
        end = self.pos + count
        if end > len(self.data):
            raise self._truncated(count)
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def unpack(self, fmt: struct.Struct):
        return fmt.unpack(self.take(fmt.size))

    def expect_left(self, count: int) -> None:
        """Exactly ``count`` unread bytes remain — checked before they are
        decoded, so no allocation follows an unvalidated length."""
        extra = len(self.data) - self.pos - count
        if extra < 0:
            raise self._truncated(count)
        if extra:
            raise self.error(
                f"trailing bytes: {self.what} has {extra} unread bytes")


_U32 = struct.Struct("<I")
_CT_HEAD = struct.Struct("<id")   # level, scale
_KSK_HEAD = struct.Struct("<iI")  # level, num_digits
_META_HEAD = struct.Struct("<BII")  # domain, L, N


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _container(kind: int, word: int, payload: bytes) -> bytes:
    body = MAGIC + _HEADER.pack(FORMAT_VERSION, kind, word) + payload
    return body + _U32.pack(zlib.crc32(body) & 0xFFFFFFFF)


def _encode_polys(kind: int, head: bytes,
                  polys: Sequence[RNSPolynomial]) -> bytes:
    """The row-carrying container: ``head``, the meta block the polynomials
    share, then each one's current-domain rows (one dispatch apiece)."""
    moduli = polys[0].basis.moduli
    word = 4 if max(moduli).bit_length() <= 32 else 8
    parts = [head,
             _META_HEAD.pack(_DOMAIN_TO_TAG[polys[0].domain], len(moduli),
                             polys[0].ring_degree),
             struct.pack(f"<{len(moduli)}Q", *moduli)]
    backend = active_backend()
    try:
        parts.extend(backend.limbs_to_words(p.store(), word) for p in polys)
    except ValueError as exc:  # a value that does not fit the word
        raise SerializationError(str(exc)) from None
    return _container(kind, word, b"".join(parts))


class _Meta(NamedTuple):
    """The block the polynomials of one payload share."""
    domain: str
    ring_degree: int
    basis: RNSBasis


def _decode_meta(reader: _Reader) -> _Meta:
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
    try:
        basis = _cached_basis(moduli)
    except ValueError as exc:
        raise SerializationError(f"invalid RNS basis: {exc}") from None
    return _Meta(_TAG_TO_DOMAIN[domain_tag], ring_degree, basis)


def _decode_polys(reader: _Reader, meta: _Meta,
                  count: int) -> List[RNSPolynomial]:
    """The ``count`` polynomials under ``meta`` that end every row-carrying
    payload: exactly ``count * L * N * word`` bytes, one dispatch apiece."""
    domain, ring_degree, basis = meta
    size = len(basis) * ring_degree * reader.word
    reader.expect_left(count * size)
    backend = active_backend()
    try:
        stores = [backend.limbs_from_words(reader.take(size), basis.moduli,
                                           ring_degree, reader.word)
                  for _ in range(count)]
    except ValueError as exc:  # a residue that is not below its modulus
        raise SerializationError(str(exc)) from None
    return [RNSPolynomial._from_store(ring_degree, basis, store, domain=domain)
            for store in stores]


def _open(data, expect_kind: "int | None" = None) -> _Reader:
    """Validate the container — one header check, one checksum pass — and
    return a reader over its payload.  An already opened reader passes
    through, which is how :func:`deserialize` hands one on."""
    if isinstance(data, _Reader):
        return data
    view = _header_view(data, len(MAGIC) + _HEADER.size + _U32.size)
    version, kind, word = _HEADER.unpack_from(view, 4)
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"format version {version} not supported (this build speaks "
            f"version {FORMAT_VERSION})")
    (crc_stored,) = _U32.unpack_from(view, len(view) - 4)
    if zlib.crc32(view[:-4]) & 0xFFFFFFFF != crc_stored:
        raise CorruptPayloadError("checksum mismatch (truncated or corrupted)")
    if kind not in _KIND_NAMES:
        raise SerializationError(f"unknown kind tag {kind}")
    if word not in (4, 8):
        raise SerializationError(f"unsupported word size {word}")
    if expect_kind is not None and kind != expect_kind:
        raise SerializationError(
            f"expected a {_KIND_NAMES[expect_kind]} payload, got "
            f"{_KIND_NAMES[kind]}")
    return _Reader(view[8:-4], kind, word)


# ---------------------------------------------------------------------------
# RNS polynomial
# ---------------------------------------------------------------------------

def serialize_rns_polynomial(poly: RNSPolynomial) -> bytes:
    return _encode_polys(KIND_RNS_POLY, b"", [poly])


def deserialize_rns_polynomial(data) -> RNSPolynomial:
    reader = _open(data, KIND_RNS_POLY)
    (poly,) = _decode_polys(reader, _decode_meta(reader), 1)
    return poly


# ---------------------------------------------------------------------------
# Ciphertext
# ---------------------------------------------------------------------------

def serialize_ciphertext(ct: CKKSCiphertext) -> bytes:
    return _encode_polys(KIND_CIPHERTEXT,
                         _CT_HEAD.pack(ct.level, float(ct.scale)),
                         [ct.c0, ct.c1])


def deserialize_ciphertext(data) -> CKKSCiphertext:
    reader = _open(data, KIND_CIPHERTEXT)
    level, scale = reader.unpack(_CT_HEAD)
    if not math.isfinite(scale) or scale <= 0:
        raise SerializationError(f"invalid ciphertext scale {scale!r}")
    meta = _decode_meta(reader)
    if len(meta.basis) != level + 1:
        raise SerializationError(
            f"ciphertext at level {level} must carry {level + 1} limbs, "
            f"got {len(meta.basis)}")
    c0, c1 = _decode_polys(reader, meta, 2)
    return CKKSCiphertext(c0=c0, c1=c1, level=level, scale=scale)


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
    return _encode_polys(KIND_KSK,
                         _KSK_HEAD.pack(key.level, len(key.digit_keys)),
                         [poly for pair in key.digit_keys for poly in pair])


def deserialize_keyswitch_key(data) -> KeySwitchKey:
    reader = _open(data, KIND_KSK)
    level, num_digits = reader.unpack(_KSK_HEAD)
    if level < 0:
        raise SerializationError(f"negative keyswitch level {level}")
    if not 1 <= num_digits <= _MAX_LIMBS:
        raise SerializationError(f"digit count {num_digits} out of range")
    polys = _decode_polys(reader, _decode_meta(reader), 2 * num_digits)
    return KeySwitchKey(level=level,
                        digit_keys=list(zip(polys[0::2], polys[1::2])))


def serialize_public_key(key: CKKSPublicKey) -> bytes:
    return _encode_polys(KIND_PUBLIC_KEY, b"", [key.b, key.a])


def deserialize_public_key(data) -> CKKSPublicKey:
    reader = _open(data, KIND_PUBLIC_KEY)
    b, a = _decode_polys(reader, _decode_meta(reader), 2)
    return CKKSPublicKey(b=b, a=a)


def serialize_secret_key(key: CKKSSecretKey) -> bytes:
    coeffs = key.coefficients
    if any(abs(c) > 127 for c in coeffs):
        raise SerializationError("secret coefficients exceed the i8 range")
    payload = _U32.pack(len(coeffs)) + struct.pack(f"<{len(coeffs)}b", *coeffs)
    return _container(KIND_SECRET_KEY, 8, payload)


def deserialize_secret_key(data) -> CKKSSecretKey:
    reader = _open(data, KIND_SECRET_KEY)
    (count,) = reader.unpack(_U32)
    if count < 1 or count > 1 << _MAX_LOG_DEGREE:
        raise SerializationError(f"coefficient count {count} out of range")
    reader.expect_left(count)
    return CKKSSecretKey(
        coefficients=struct.unpack(f"<{count}b", reader.take(count)))


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


def deserialize(data):
    """Deserialize any supported payload (dispatch on the kind tag)."""
    reader = _open(data)
    return _DESERIALIZERS[reader.kind](reader)
