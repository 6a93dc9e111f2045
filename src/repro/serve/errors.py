"""Typed error hierarchy of the serving layer.

Every failure mode a client can trigger has its own exception type, so
callers (and the fault-injection tests) can tell a malformed payload from a
mis-provisioned tenant from a transient execution failure without string
matching.  The hierarchy:

* :class:`ServeError` — root of everything the serving layer raises.

  * :class:`SerializationError` — malformed wire payloads; refined into
    :class:`UnsupportedVersionError` (readable header, unknown format
    version), :class:`CorruptPayloadError` (checksum mismatch — covers
    truncation and bit flips past the header), and
    :class:`SecretKeyOnWireError` (the transport refused to move a secret
    key in either direction).
  * :class:`RequestRejected` — a request refused *before* any homomorphic
    work starts.  The scheduler validates at submit time and keeps serving
    subsequent requests; each subclass names one rejection reason.
    Admission control adds :class:`RateLimitedError` (per-tenant token
    bucket empty), :class:`OverloadedError` (global queue-depth
    backpressure), and :class:`CircuitOpenError` (the tenant/program
    circuit breaker is shedding load after repeated execution failures).
  * :class:`DeadlineExceededError` — a request that was admitted but whose
    per-request deadline elapsed before (or while) it executed.
  * :class:`ExecutionError` — a request that passed validation but failed
    during homomorphic execution, after the unbatched fallback and the
    retry policy were exhausted; refined into :class:`CorruptResultError`
    when the failure was an output-integrity check rather than a raised
    kernel error.
  * :class:`ProtocolError` / :class:`ConnectionClosedError` — wire-level
    failures of the framed transport (:mod:`repro.serve.net`): a malformed
    or out-of-sequence frame, and a connection that went away with
    requests outstanding.

Wire contract: every class carries a **stable integer** ``code`` (part of
the network protocol — never renumber a shipped code) and round-trips
through ``to_wire()`` / :func:`error_from_wire`, so a rejection raised
inside the scheduler arrives at a remote client as the *same* typed
exception, machine-readable details (``retry_after_seconds``, the missing
evaluation keys, ...) included.  A class names those details once, in its
``details`` tuple; constructor, attributes and wire form all follow it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple, Type

__all__ = [
    "ServeError",
    "SerializationError",
    "UnsupportedVersionError",
    "CorruptPayloadError",
    "SecretKeyOnWireError",
    "RequestRejected",
    "UnknownTenantError",
    "UnknownProgramError",
    "ParameterMismatchError",
    "LevelMismatchError",
    "ScaleMismatchError",
    "OversizeBatchError",
    "SchemeMismatchError",
    "MissingKeyError",
    "RateLimitedError",
    "OverloadedError",
    "CircuitOpenError",
    "DeadlineExceededError",
    "ExecutionError",
    "CorruptResultError",
    "ProtocolError",
    "ConnectionClosedError",
    "error_from_wire",
    "wire_code_registry",
]


# code -> class; filled by ServeError.__init_subclass__ as classes are
# defined, so the registry can never drift from the hierarchy.
_ERROR_CODES: "Dict[int, Type[ServeError]]" = {}


class ServeError(Exception):
    """Base class of every serving-layer error.

    ``code`` is the stable wire identifier of the class: the framed
    transport ships ``(code, message, details)`` and the receiving side
    rebuilds the typed exception with :func:`error_from_wire`.  Codes are
    part of the network protocol — new classes take fresh codes, existing
    codes are never reused or renumbered.
    """

    code = 1
    #: Names of the machine-readable extras a class carries, declared once:
    #: each is a keyword of the constructor, an attribute of the instance
    #: (``None`` when not given) and a key of the wire details.
    details: Tuple[str, ...] = ()

    def __init__(self, message: str = "", **details: Any):
        unknown = set(details) - set(self.details)
        if unknown:
            raise TypeError(f"{type(self).__name__} has no details "
                            f"{sorted(unknown)}")
        super().__init__(message)
        for name in self.details:
            setattr(self, name, details.get(name))

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "code" not in cls.__dict__:
            raise TypeError(
                f"{cls.__name__} must declare its own stable wire `code`")
        taken = _ERROR_CODES.get(cls.code)
        if taken is not None and taken is not cls:
            raise TypeError(
                f"wire code {cls.code} of {cls.__name__} already belongs to "
                f"{taken.__name__}")
        _ERROR_CODES[cls.code] = cls

    # -- wire round-trip -----------------------------------------------------
    def wire_details(self) -> Dict[str, Any]:
        """Machine-readable, JSON-encodable extras: the declared details."""
        return {name: getattr(self, name) for name in self.details}

    def to_wire(self) -> Dict[str, Any]:
        """The ``{code, message, details}`` triple an ERROR envelope ships."""
        return {"code": self.code, "message": str(self),
                "details": self.wire_details()}

    @classmethod
    def from_wire_details(cls, message: str,
                          details: Dict[str, Any]) -> "ServeError":
        """Rebuild an instance from a wire triple's declared details."""
        return cls(message, **{name: details.get(name) for name in cls.details})


_ERROR_CODES[ServeError.code] = ServeError


def wire_code_registry() -> "Dict[int, Type[ServeError]]":
    """A copy of the stable ``code -> error class`` wire registry."""
    return dict(_ERROR_CODES)


def error_from_wire(code: int, message: str,
                    details: "Optional[Dict[str, Any]]" = None) -> ServeError:
    """Rebuild the typed exception a peer serialized with ``to_wire()``.

    Unknown codes (a newer peer) degrade to a plain :class:`ServeError`
    whose instance ``code`` preserves the received value, so callers can
    still branch on it.
    """
    cls = _ERROR_CODES.get(int(code))
    if cls is None:
        exc = ServeError(message)
        exc.code = int(code)
        return exc
    return cls.from_wire_details(message, dict(details or {}))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class SerializationError(ServeError):
    """A wire payload that cannot be decoded into a well-formed value."""

    code = 10


class UnsupportedVersionError(SerializationError):
    """The payload declares a format version this build does not speak."""

    code = 11


class CorruptPayloadError(SerializationError):
    """The payload checksum does not match (truncation or corruption)."""

    code = 12


class SecretKeyOnWireError(SerializationError):
    """The transport refused to send or accept a secret-key payload.

    Secret keys never belong on the serving wire: the gateway decrypts
    nothing, so the only thing shipping one can do is leak it.  Both the
    client and the gateway enforce this on *send and receive* — a peer
    that ships one anyway is treated as a protocol violation and the
    connection is closed.
    """

    code = 13


# ---------------------------------------------------------------------------
# Request validation
# ---------------------------------------------------------------------------

class RequestRejected(ServeError):
    """A request the scheduler refused at validation time.

    Rejections are per-request: the scheduler's queues and every other
    in-flight request are unaffected.
    """

    code = 20


class UnknownTenantError(RequestRejected):
    """The request names a tenant that was never registered."""

    code = 21


class UnknownProgramError(RequestRejected):
    """The request names a hosted program that was never registered."""

    code = 22


class ParameterMismatchError(RequestRejected):
    """The ciphertext was produced under different CKKS parameters
    (ring degree or modulus chain) than the server hosts."""

    code = 23


class LevelMismatchError(RequestRejected):
    """The ciphertext level does not match the hosted program's input level."""

    code = 24


class ScaleMismatchError(RequestRejected):
    """The ciphertext scale is incompatible with the hosted program."""

    code = 25


class OversizeBatchError(RequestRejected):
    """The request carries more ciphertexts than the scheduler's batch bound."""

    code = 26


class MissingKeyError(RequestRejected):
    """The tenant's key set lacks evaluation keys the program needs.

    ``missing`` lists ``("galois", element, level)`` /
    ``("relin", level)`` tuples — exactly the keys that would have to be
    provisioned for the request to be servable.
    """

    code = 27
    details = ("missing",)

    def __init__(self, message: str = "",
                 missing: "Optional[Sequence[Sequence]]" = None):
        # JSON turns the tuples into lists on the wire; make them tuples.
        super().__init__(message,
                         missing=[tuple(entry) for entry in missing or ()])


class SchemeMismatchError(RequestRejected):
    """The payload's FHE scheme does not match the hosted program's.

    Hybrid programs declare the scheme of each named input (a CKKS
    ciphertext versus a TFHE LWE ciphertext); submitting a payload of the
    wrong scheme — or a pure-CKKS payload to a program whose pipeline
    expects the hybrid input form — is rejected before any homomorphic
    work starts.  ``expected`` / ``got`` name the two schemes.
    """

    code = 31
    details = ("expected", "got")


# ---------------------------------------------------------------------------
# Admission control and load shedding
# ---------------------------------------------------------------------------

class RateLimitedError(RequestRejected):
    """The tenant's token bucket is empty: the request exceeds its rate.

    ``retry_after_seconds`` estimates when the bucket refills enough to
    admit one request (clients should back off at least that long).
    """

    code = 28
    details = ("retry_after_seconds",)


class OverloadedError(RequestRejected):
    """Backpressure: a pending-queue or in-flight window is at capacity."""

    code = 29


class CircuitOpenError(RequestRejected):
    """The (tenant, program) circuit breaker is open and shedding load.

    The breaker opened after consecutive execution failures; it half-opens
    to probe recovery after ``retry_after_seconds``.
    """

    code = 30
    details = ("retry_after_seconds",)


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------

class DeadlineExceededError(ServeError):
    """The request's deadline elapsed before a result could be returned.

    Unlike :class:`RequestRejected` this can happen *after* admission: the
    batch window plus execution (or the retry backoff) overran the
    deadline, and the pending future is failed rather than left hanging.
    """

    code = 40


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

class ExecutionError(ServeError):
    """Homomorphic execution of a validated request failed.

    Raised only after the scheduler's graceful degradation (re-running the
    request unbatched, then the retry policy) also failed; the original
    exception is chained as ``__cause__``.
    """

    code = 50
    details = ("cause",)

    @property
    def cause(self) -> Optional[str]:
        """The chained exception's type name: the chained exception cannot
        cross the wire, but its name is worth a remote operator's while.
        Given on construction (an error rebuilt from the wire), else read
        off ``__cause__``."""
        if self._cause is None and self.__cause__ is not None:
            return type(self.__cause__).__name__
        return self._cause

    @cause.setter
    def cause(self, value: Optional[str]) -> None:
        self._cause = value


class CorruptResultError(ExecutionError):
    """Execution produced an output that failed the integrity check.

    Raised when the resilience policy's ``output_validator`` rejects a
    computed ciphertext (e.g. a corrupted kernel result caught by a range
    or reference check) and retries could not produce a clean one.
    """

    code = 51


# ---------------------------------------------------------------------------
# Framed transport
# ---------------------------------------------------------------------------

class ProtocolError(ServeError):
    """A malformed or out-of-sequence frame on the network transport.

    Raised for unreadable frames (bad envelope tag, truncation, checksum
    mismatch, oversize length prefix) and handshake violations (first
    envelope not HELLO, protocol version mismatch, duplicate in-flight
    request id).  A connection that produced one is not trustworthy to
    keep parsing — the peer reports the error and closes it.
    """

    code = 60


class ConnectionClosedError(ServeError):
    """The connection went away with requests outstanding (client side).

    Every pending future is failed with this instead of hanging when the
    gateway says GOODBYE, the socket hits EOF, or the client is closed
    locally.
    """

    code = 61
