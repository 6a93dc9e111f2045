"""Suite for the ``repro.serve.net`` streaming gateway.

* **Framing**: envelope round-trips, transport counters, and strict frame
  validation — unknown tags, truncation, checksum mismatches, oversize
  length prefixes, and mid-frame EOF all raise typed
  :class:`ProtocolError`.
* **Wire errors**: the stable code registry is total and collision-free,
  every error round-trips through ``to_wire()`` / ``error_from_wire`` with
  its machine-readable details (missing keys, retry-after), and unknown
  codes degrade without losing the code.
* **Security**: secret keys are refused on both sides of the wire — the
  client cannot encode one and the gateway answers a hand-crafted
  secret-key frame with the :class:`SecretKeyOnWireError` code and hangs
  up.
* **Differential**: the loopback gate — concurrent requests through
  ``ServingClient -> ServingGateway`` decrypt bit-exact to the same
  requests via in-process ``InferenceServer.submit`` and the eager
  reference.
* **Liveness**: gateway drain with in-flight wire requests, client
  timeouts with orphaned-reply accounting, backpressure windows, and a
  >=500-request loopback chaos soak (rate-limited tenant + injected
  kernel faults) through :func:`chaos_soak_gate` where every wire
  rejection carries its stable error code.

Everything here runs on the pure-python backend: this file is part of the
no-numpy CI leg.
"""

import asyncio
import hashlib
import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe.backend import PythonBackend
from repro.fhe.ckks.ciphertext import CKKSCiphertext, CKKSPlaintext
from repro.fhe.ckks.evaluator import CKKSEvaluator
from repro.fhe.ckks.keys import CKKSKeyGenerator
from repro.fhe.params import CKKSParameters
from repro.fhe.program import HETrace, ProgramExecutor
from repro.fhe.rns import RNSPolynomial
from repro.serve import (
    AdmissionController,
    CircuitOpenError,
    ConnectionClosedError,
    CorruptResultError,
    DeadlineExceededError,
    ExecutionError,
    FaultInjectingBackend,
    FaultSchedule,
    FaultSpec,
    InferenceRequest,
    InferenceServer,
    LoadGenerator,
    ManualClock,
    MissingKeyError,
    OverloadedError,
    ProtocolError,
    RateLimitedError,
    ResiliencePolicy,
    RetryPolicy,
    SchemeMismatchError,
    SecretKeyOnWireError,
    SerializationError,
    ServeError,
    ServingClient,
    ServingGateway,
    UnknownProgramError,
    UnknownTenantError,
    chaos_soak_gate,
    error_from_wire,
    kind_name,
    payload_kind,
    serialize_ciphertext,
    serialize_secret_key,
    wire_code_registry,
)
from repro.serve import errors as errors_mod
from repro.serve.net.framing import (
    PROTOCOL_VERSION,
    TAG_REQUEST,
    Error,
    FrameTransport,
    Goodbye,
    Hello,
    HelloAck,
    Request,
    Response,
    _F64,
    _U16,
    _U32,
    _U64,
    _U8,
    decode_envelope,
    encode_envelope,
    encode_frame,
)
from repro.serve.serialization import (
    FORMAT_VERSION,
    KIND_CIPHERTEXT,
    KIND_SECRET_KEY,
    MAGIC,
)

PYTHON = PythonBackend()
TOY = CKKSParameters.toy()


# ---------------------------------------------------------------------------
# Helpers (shared idiom with tests/test_serve.py)
# ---------------------------------------------------------------------------

def _random_poly(params, seed, level=None):
    degree = params.ring_degree
    basis = params.basis(params.max_level if level is None else level)
    return RNSPolynomial.sample_uniform(degree, basis, random.Random(seed ^ 0x53EB7E))


def _random_ct(params, seed, level=None, scale=None):
    level = params.max_level if level is None else level
    return CKKSCiphertext(
        c0=_random_poly(params, seed, level),
        c1=_random_poly(params, seed + 1, level),
        level=level,
        scale=float(params.scale) if scale is None else float(scale),
    )


def _random_pt(params, seed, level=None):
    level = params.max_level if level is None else level
    return CKKSPlaintext(poly=_random_poly(params, seed, level), level=level,
                         scale=float(params.scale))


def _keyed(params, seed=11):
    return CKKSKeyGenerator(params, seed=seed, error_stddev=0.0).generate()


def _rows(ct):
    c0 = ct.c0.to_coeff()
    c1 = ct.c1.to_coeff()
    return (
        tuple(map(tuple, c0.coefficient_rows())),
        tuple(map(tuple, c1.coefficient_rows())),
    )


def _dense_tracer(pts):
    def tracer(x):
        acc = x.rotate(1) * pts[0] + x.rotate(2) * pts[1] + x * pts[2]
        return acc + x.conjugate() * pts[3]
    return tracer


def _dense_server(params, backend, seed=11, tenants=("t0",), **kwargs):
    kwargs.setdefault("batch_window", 0.001)
    server = InferenceServer(params, backend=backend, **kwargs)
    keys = _keyed(params, seed)
    for tenant in tenants:
        server.register_tenant(tenant, keys)
    pts = [_random_pt(params, 400 + j) for j in range(4)]
    tracer = _dense_tracer(pts)
    server.register_program("dense", tracer)
    return server, keys, tracer


def _eager_outputs(params, keys, backend, tracer, cts):
    evaluator = CKKSEvaluator(params, keys, backend=backend)
    outputs = []
    for ct in cts:
        trace = HETrace(params)
        x = trace.input("x", level=ct.level, scale=ct.scale)
        trace.output("y", tracer(x))
        outputs.append(
            ProgramExecutor(evaluator).run_eager(trace.program, {"x": ct})["y"]
        )
    return outputs


class _NullWriter:
    """Just enough StreamWriter surface for receive-only transports."""

    def write(self, data):
        pass

    async def drain(self):
        pass

    def is_closing(self):
        return False

    def close(self):
        pass

    async def wait_closed(self):
        pass

    def get_extra_info(self, name):
        return None


def _fed_transport(*chunks, limit=None):
    """A transport whose read side holds exactly ``chunks`` then EOF.

    Must be called from inside a running event loop (StreamReader binds
    to it).
    """
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    reader.feed_eof()
    kwargs = {} if limit is None else {"max_frame_bytes": limit}
    return FrameTransport(reader, _NullWriter(), **kwargs)


def _receive_fed(*chunks, limit=None):
    """Receive one envelope from fed bytes, in a fresh loop."""
    async def scenario():
        return await _fed_transport(*chunks, limit=limit).receive()

    return asyncio.run(scenario())


async def _raw_connect(gateway, tenant="t0", version=PROTOCOL_VERSION):
    """A hand-driven connection below the ServingClient conveniences."""
    reader, writer = await asyncio.open_connection(*gateway.address)
    transport = FrameTransport(reader, writer)
    await transport.send(Hello(protocol_version=version, tenant_id=tenant))
    ack = await transport.receive()
    return transport, ack


async def _poll(predicate, *, timeout=5.0, drain=None):
    """Await a condition the event loop resolves asynchronously."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if drain is not None:
            drain()
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached before timeout")
        await asyncio.sleep(0.005)


# ---------------------------------------------------------------------------
# Framing: envelope codec round-trips
# ---------------------------------------------------------------------------

_CT_BLOB = serialize_ciphertext(_random_ct(TOY, 1))

ENVELOPES = [
    Hello(protocol_version=1, tenant_id="org-a", client_name="edge-7"),
    HelloAck(protocol_version=1, server_name="gw", max_inflight=16),
    Request(request_id=9, program="dense", payloads=[_CT_BLOB, _CT_BLOB],
            deadline_seconds=None),
    Request(request_id=2 ** 40, program="dense", payloads=[_CT_BLOB],
            deadline_seconds=1.5),
    Response(request_id=9, payloads=[_CT_BLOB], batch_size=5, batched=True,
             latency_seconds=0.25),
    Error(request_id=3, code=28, message="slow down",
          details={"retry_after_seconds": 0.5}),
    Error(request_id=0, code=60, message="bad frame", details={}),
    Goodbye(reason="draining"),
]


@pytest.mark.parametrize("envelope", ENVELOPES,
                         ids=lambda e: type(e).__name__)
def test_envelope_roundtrip(envelope):
    assert decode_envelope(encode_envelope(envelope)) == envelope


def test_transport_roundtrip_counts_frames_and_bytes():
    frames = b"".join(encode_frame(e) for e in ENVELOPES)

    async def scenario():
        transport = _fed_transport(frames)
        received = []
        while True:
            envelope = await transport.receive()
            if envelope is None:
                break
            received.append(envelope)
        # A second receive after clean EOF stays None instead of raising.
        assert await transport.receive() is None
        return received, transport

    received, transport = asyncio.run(scenario())
    assert received == ENVELOPES
    assert transport.frames_received == len(ENVELOPES)
    assert transport.bytes_received == len(frames)


@pytest.mark.parametrize("mutate, match", [
    (lambda body: _U8.pack(200) + body[1:], "unknown envelope tag"),
    (lambda body: body[:-3], "truncated"),
    (lambda body: body + b"\x00\x00", "trailing bytes"),
], ids=["unknown-tag", "truncated", "trailing"])
def test_malformed_envelopes_raise_protocol_error(mutate, match):
    body = encode_envelope(Goodbye(reason="ok"))
    with pytest.raises(ProtocolError, match=match):
        decode_envelope(mutate(body))


def test_corrupted_frame_fails_checksum():
    frame = bytearray(encode_frame(Hello(1, "org-a")))
    frame[7] ^= 0x40  # flip one bit inside the body
    with pytest.raises(ProtocolError, match="checksum"):
        _receive_fed(bytes(frame))


def test_eof_inside_a_frame_raises():
    frame = encode_frame(Goodbye(reason="interrupted"))
    with pytest.raises(ProtocolError, match="closed inside a frame"):
        _receive_fed(frame[:-2])
    with pytest.raises(ProtocolError, match="length prefix"):
        _receive_fed(frame[:2])


def test_oversize_frame_refused_before_buffering():
    frame = encode_frame(Request(request_id=1, program="dense",
                                 payloads=[_CT_BLOB]))
    with pytest.raises(ProtocolError, match="exceeds the"):
        _receive_fed(frame, limit=64)


# Payloads the frame moves untouched: a blob whose header says ciphertext
# (so the secret-key guard reads it) and one whose header does not parse.
_PIN_BLOB = (MAGIC + struct.pack("<HBB", FORMAT_VERSION, KIND_CIPHERTEXT, 8)
             + bytes((7 * i + 3) % 256 for i in range(300)))
_PIN_RAW = bytes(range(256))


class TestFrameFormatPinned:
    """The frame layout is part of the protocol: the sha256 of
    ``encode_frame`` for one fixed instance of every envelope kind,
    recorded before the envelope codec became one layout table.  A digest
    that moves is a wire break, not a refactor."""

    ENVELOPES = {
        "hello": Hello(protocol_version=1, tenant_id="org-a",
                       client_name="edge-7"),
        "hello_ack": HelloAck(protocol_version=1, server_name="gw",
                              max_inflight=16),
        "request": Request(request_id=9, program="dense",
                           payloads=[_PIN_BLOB, _PIN_RAW]),
        "request_deadline": Request(request_id=2 ** 40, program="dénse",
                                    payloads=[_PIN_BLOB],
                                    deadline_seconds=1.5),
        "response": Response(request_id=9, payloads=[_PIN_BLOB],
                             batch_size=5, batched=True,
                             latency_seconds=0.25),
        "error": Error(request_id=3, code=27, message="keys absent: ü",
                       details={"missing": [["galois", 5, 2], ["relin", 1]],
                                "retry_after_seconds": 0.5}),
        "goodbye": Goodbye(reason="draining"),
    }

    DIGESTS = {
        "hello": "36c6d0f60a6be4fe9e3f5c74e7c4d4717a70bd43e8404c6f4c6065288c4bcca3",
        "hello_ack": "2e8625120205ca36bde30a2d3a201bbc9558156fdf0e88c13ffd30337ef1ffd8",
        "request": "acc7e424830c7a7d6e92b652618196e8cc3570a912039f8c7dbc44da33dab1b3",
        "request_deadline": "97cc5decc029d611da96985d366f9dbaec1bf1daee24959ebe68d24430392e60",
        "response": "d96e4b357edb8a1b4cbe797a607f7d01987223ce2455ff0a14fa3e2cc1527804",
        "error": "bada549c48c4f258745d725b7a9d774dde7ab0ad12420df5ec3ed40bbd8835f3",
        "goodbye": "e537af54995af671bab3116b0f74401f8039209acd4052d559365c5766599d84",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_frame_digest(self, name):
        envelope = self.ENVELOPES[name]
        frame = encode_frame(envelope)
        assert hashlib.sha256(frame).hexdigest() == self.DIGESTS[name]
        assert _receive_fed(frame) == envelope


# ---------------------------------------------------------------------------
# Wire error codes
# ---------------------------------------------------------------------------

def test_wire_code_registry_is_total_and_collision_free():
    registry = wire_code_registry()
    classes = [getattr(errors_mod, name) for name in errors_mod.__all__
               if isinstance(getattr(errors_mod, name), type)]
    assert len(classes) >= 21
    for cls in classes:
        assert isinstance(cls.__dict__.get("code"), int), cls
        assert registry[cls.code] is cls
    codes = [cls.code for cls in classes]
    assert len(codes) == len(set(codes))


def test_error_wire_roundtrips_preserve_details():
    missing = MissingKeyError("keys absent",
                              missing=[("galois", 3, 2), ("relin", 1)])
    wire = missing.to_wire()
    back = error_from_wire(wire["code"], wire["message"], wire["details"])
    assert isinstance(back, MissingKeyError)
    assert back.missing == [("galois", 3, 2), ("relin", 1)]

    limited = RateLimitedError("slow down", retry_after_seconds=0.75)
    wire = limited.to_wire()
    back = error_from_wire(wire["code"], wire["message"], wire["details"])
    assert isinstance(back, RateLimitedError)
    assert back.retry_after_seconds == pytest.approx(0.75)

    opened = CircuitOpenError("shedding", retry_after_seconds=2.0)
    back = Error.from_exception(opened, request_id=5).to_exception()
    assert isinstance(back, CircuitOpenError)
    assert back.retry_after_seconds == pytest.approx(2.0)

    failure = ExecutionError("kernel down")
    failure.__cause__ = RuntimeError("boom")
    assert failure.cause == "RuntimeError"
    assert failure.to_wire()["details"] == {"cause": "RuntimeError"}
    # The client-side error names the cause it never saw raised.
    back = Error.from_exception(failure, request_id=6).to_exception()
    assert type(back) is ExecutionError and back.__cause__ is None
    assert back.cause == "RuntimeError"
    assert back.to_wire() == failure.to_wire()


# Sample details for every class that declares some; the rest carry none.
_SAMPLE_DETAILS = {
    MissingKeyError: {"missing": [("galois", 3, 2), ("relin", 1)]},
    SchemeMismatchError: {"expected": "hybrid", "got": "ckks"},
    RateLimitedError: {"retry_after_seconds": 0.75},
    CircuitOpenError: {"retry_after_seconds": 2.0},
    ExecutionError: {"cause": "RuntimeError"},
    CorruptResultError: {"cause": "ValueError"},
}


@pytest.mark.parametrize("cls", sorted(wire_code_registry().values(),
                                       key=lambda cls: cls.code),
                         ids=lambda cls: cls.__name__)
def test_every_registered_error_roundtrips_through_the_wire(cls):
    """Every class in the registry crosses an ERROR frame as itself, with
    its message and its details."""
    details = _SAMPLE_DETAILS.get(cls, {})
    sent = cls(f"{cls.__name__} happened", **details)
    frame = Error.from_exception(sent, request_id=7)
    body = encode_envelope(frame)
    received = decode_envelope(body)
    assert encode_envelope(received) == body
    back = received.to_exception()
    assert type(back) is cls and back.code == cls.code
    assert str(back) == str(sent)
    assert back.to_wire() == sent.to_wire()
    for name, value in details.items():
        assert getattr(back, name) == value


def test_scheme_mismatch_holds_code_31_and_roundtrips():
    registry = wire_code_registry()
    assert registry[31] is SchemeMismatchError
    mismatch = SchemeMismatchError("hybrid program, CKKS-only tenant",
                                   expected="hybrid", got="ckks")
    wire = mismatch.to_wire()
    assert wire["code"] == 31
    assert wire["details"] == {"expected": "hybrid", "got": "ckks"}
    back = error_from_wire(wire["code"], wire["message"], wire["details"])
    assert isinstance(back, SchemeMismatchError)
    assert isinstance(back, errors_mod.RequestRejected)  # pre-execution reject
    assert back.expected == "hybrid" and back.got == "ckks"

    back = Error.from_exception(mismatch, request_id=9).to_exception()
    assert isinstance(back, SchemeMismatchError)
    assert back.expected == "hybrid" and back.got == "ckks"


def test_duplicate_wire_codes_are_rejected_at_class_definition():
    """The registry auto-fills from the hierarchy; a class reusing a
    shipped code (31 belongs to SchemeMismatchError) cannot be defined."""
    with pytest.raises(TypeError, match="already belongs"):
        type("RogueError", (ServeError,), {"code": 31})
    with pytest.raises(TypeError, match="stable wire"):
        type("CodelessError", (ServeError,), {})


def test_unknown_wire_code_degrades_without_losing_it():
    exc = error_from_wire(9001, "from the future", {"x": 1})
    assert type(exc) is ServeError
    assert exc.code == 9001


def test_new_error_classes_must_declare_fresh_codes():
    with pytest.raises(TypeError, match="must declare"):
        type("Anonymous", (ServeError,), {})
    with pytest.raises(TypeError, match="already belongs"):
        type("Imposter", (ServeError,), {"code": ProtocolError.code})


# ---------------------------------------------------------------------------
# Payload kind peeking and the secret-key guard
# ---------------------------------------------------------------------------

def test_payload_kind_peeks_the_header():
    assert payload_kind(_CT_BLOB) == KIND_CIPHERTEXT
    assert kind_name(KIND_CIPHERTEXT) == "ciphertext"
    keys = _keyed(TOY)
    blob = serialize_secret_key(keys.secret)
    assert payload_kind(blob) == KIND_SECRET_KEY
    assert kind_name(KIND_SECRET_KEY) == "secret_key"
    with pytest.raises(SerializationError):
        payload_kind(b"nope")
    with pytest.raises(SerializationError):
        payload_kind(b"JUNKjunkJUNK")


def test_secret_key_refused_at_encode_time_both_envelopes():
    blob = serialize_secret_key(_keyed(TOY).secret)
    with pytest.raises(SecretKeyOnWireError):
        encode_envelope(Request(request_id=1, program="dense",
                                payloads=[blob]))
    with pytest.raises(SecretKeyOnWireError):
        encode_envelope(Response(request_id=1, payloads=[blob]))
    # ...and at decode time, for a peer that bypassed the send-side guard.
    body = (_U8.pack(TAG_REQUEST) + _U64.pack(1)
            + _U16.pack(len(b"dense")) + b"dense"
            + _F64.pack(float("nan"))
            + _U16.pack(1) + _U32.pack(len(blob)) + blob)
    with pytest.raises(SecretKeyOnWireError):
        decode_envelope(body)


_SECRET_BLOB = serialize_secret_key(_keyed(TOY).secret)


def _request_body(blob: bytes) -> bytes:
    return (_U8.pack(TAG_REQUEST) + _U64.pack(1)
            + _U16.pack(len(b"dense")) + b"dense"
            + _F64.pack(float("nan"))
            + _U16.pack(1) + _U32.pack(len(blob)) + blob)


@given(position=st.integers(0, 1 << 16), flip=st.integers(1, 255),
       cut=st.integers(0, 1 << 16),
       buffer=st.sampled_from([bytes, bytearray, memoryview]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_secret_key_guard_holds_under_mutation(position, flip, cut, buffer):
    """Whatever happens behind the 8 header bytes — a flipped byte, a cut
    body, a stale checksum — a blob that says it is a secret key is refused
    in both directions, from any buffer type."""
    blob = bytearray(_SECRET_BLOB)
    blob[8 + position % (len(blob) - 8)] ^= flip
    del blob[8 + cut % (len(blob) - 7):]
    with pytest.raises(SecretKeyOnWireError):
        encode_envelope(Request(request_id=1, program="dense",
                                payloads=[buffer(blob)]))
    with pytest.raises(SecretKeyOnWireError):
        decode_envelope(_request_body(bytes(blob)))


def test_payloads_pack_identically_from_any_buffer_type():
    expected = _request_body(_CT_BLOB)
    for buffer in (bytes, bytearray, memoryview):
        request = Request(request_id=1, program="dense",
                          payloads=[buffer(_CT_BLOB)])
        assert encode_envelope(request) == expected


def test_gateway_refuses_secret_key_frames_and_hangs_up():
    async def scenario():
        server, keys, _ = _dense_server(TOY, PYTHON)
        gateway = await ServingGateway(server).start()
        try:
            transport, ack = await _raw_connect(gateway)
            assert isinstance(ack, HelloAck)
            blob = serialize_secret_key(keys.secret)
            # Hand-craft the frame the framing layer refuses to build.
            body = (_U8.pack(TAG_REQUEST) + _U64.pack(1)
                    + _U16.pack(len(b"dense")) + b"dense"
                    + _F64.pack(float("nan"))
                    + _U16.pack(1) + _U32.pack(len(blob)) + blob)
            frame = (_U32.pack(len(body) + 4) + body
                     + _U32.pack(zlib.crc32(body) & 0xFFFFFFFF))
            transport.writer.write(frame)
            await transport.writer.drain()
            refusal = await transport.receive()
            assert isinstance(refusal, Error)
            assert refusal.request_id == 0
            assert refusal.code == SecretKeyOnWireError.code
            assert isinstance(refusal.to_exception(), SecretKeyOnWireError)
            assert await transport.receive() is None  # connection closed
            transport.close()
        finally:
            await gateway.close()
        assert gateway.stats()["secret_key_refusals"] == 1

    asyncio.run(scenario())


def test_client_submit_refuses_secret_key_payload():
    async def scenario():
        server, keys, _ = _dense_server(TOY, PYTHON)
        gateway = await ServingGateway(server).start()
        try:
            host, port = gateway.address
            async with await ServingClient.connect(
                    host, port, tenant_id="t0") as client:
                with pytest.raises(SecretKeyOnWireError):
                    await client.transport.send(Request(
                        request_id=1, program="dense",
                        payloads=[serialize_secret_key(keys.secret)]))
                assert client.transport.frames_sent == 1  # only the HELLO
        finally:
            await gateway.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Loopback differential gate
# ---------------------------------------------------------------------------

def test_loopback_wire_path_is_bit_exact_vs_in_process():
    server, keys, tracer = _dense_server(TOY, PYTHON)
    cts = [_random_ct(TOY, 7 * i) for i in range(5)]

    async def scenario():
        gateway = await ServingGateway(server).start()
        host, port = gateway.address
        async with await ServingClient.connect(
                host, port, tenant_id="t0", client_name="diff") as client:
            futures = [await client.submit("dense", [ct]) for ct in cts]
            wired = await asyncio.gather(*futures)
        gw_stats = gateway.stats()
        await gateway.close()
        return wired, gw_stats

    wired, gw_stats = asyncio.run(scenario())
    # Same requests, in-process — and the eager sequential reference.
    direct = server.serve(
        [InferenceRequest.single("t0", "dense", ct) for ct in cts])
    references = _eager_outputs(TOY, keys, PYTHON, tracer, cts)
    for wire_response, direct_response, reference in zip(
            wired, direct, references):
        assert wire_response.batched and wire_response.batch_size == 5
        assert _rows(wire_response.ciphertexts[0]) == _rows(reference)
        assert _rows(direct_response.ciphertexts[0]) == _rows(reference)
        assert wire_response.server_latency_seconds > 0
        assert wire_response.latency_seconds >= \
            wire_response.server_latency_seconds

    assert gw_stats["responses"] == 5 and gw_stats["wire_errors"] == 0
    totals = gw_stats["transport_totals"]
    assert totals["frames_received"] >= 6  # HELLO + 5 requests
    assert totals["bytes_sent"] > 5 * len(_CT_BLOB)  # responses went back

    stats = server.stats()
    assert stats["tenants"]["t0"]["submitted"] == 10
    assert stats["tenants"]["t0"]["served"] == 10
    assert stats["tenants"]["t0"]["rejected"] == 0
    assert stats["tenants"]["t0"]["failed"] == 0


# ---------------------------------------------------------------------------
# Handshake
# ---------------------------------------------------------------------------

def test_handshake_rejects_unknown_tenant():
    async def scenario():
        server, _, _ = _dense_server(TOY, PYTHON)
        gateway = await ServingGateway(server).start()
        try:
            host, port = gateway.address
            with pytest.raises(UnknownTenantError):
                await ServingClient.connect(host, port, tenant_id="ghost")
        finally:
            await gateway.close()
        assert gateway.stats()["handshake_failures"] == 1

    asyncio.run(scenario())


def test_handshake_rejects_protocol_version_mismatch():
    async def scenario():
        server, _, _ = _dense_server(TOY, PYTHON)
        gateway = await ServingGateway(server).start()
        try:
            transport, reply = await _raw_connect(gateway, version=99)
            assert isinstance(reply, Error)
            assert reply.code == ProtocolError.code
            assert "version 99" in reply.message
            transport.close()
        finally:
            await gateway.close()

    asyncio.run(scenario())


def test_first_envelope_must_be_hello():
    async def scenario():
        server, _, _ = _dense_server(TOY, PYTHON)
        gateway = await ServingGateway(server).start()
        try:
            reader, writer = await asyncio.open_connection(*gateway.address)
            transport = FrameTransport(reader, writer)
            await transport.send(Request(request_id=1, program="dense",
                                         payloads=[_CT_BLOB]))
            reply = await transport.receive()
            assert isinstance(reply, Error)
            assert reply.code == ProtocolError.code
            assert "HELLO" in reply.message
            transport.close()
        finally:
            await gateway.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Typed error propagation over the wire
# ---------------------------------------------------------------------------

def test_unknown_program_arrives_typed():
    async def scenario():
        server, _, _ = _dense_server(TOY, PYTHON)
        gateway = await ServingGateway(server).start()
        try:
            host, port = gateway.address
            async with await ServingClient.connect(
                    host, port, tenant_id="t0") as client:
                future = await client.submit("nope", [_random_ct(TOY, 1)])
                with pytest.raises(UnknownProgramError, match="nope"):
                    await future
                assert client.stats()["errors"] == 1
        finally:
            await gateway.close()

    asyncio.run(scenario())


def test_rate_limit_crosses_wire_with_retry_after():
    async def scenario():
        clock = ManualClock()
        server, _, _ = _dense_server(
            TOY, PYTHON, clock=clock,
            admission=AdmissionController(
                tenant_limits={"t0": (1.0, 1.0)}, clock=clock))
        gateway = await ServingGateway(server).start()
        try:
            host, port = gateway.address
            async with await ServingClient.connect(
                    host, port, tenant_id="t0") as client:
                first = await client.submit("dense", [_random_ct(TOY, 1)])
                second = await client.submit("dense", [_random_ct(TOY, 2)])
                with pytest.raises(RateLimitedError) as info:
                    await second
                assert info.value.retry_after_seconds is not None
                assert info.value.retry_after_seconds > 0
                assert info.value.code == RateLimitedError.code
                await first
        finally:
            await gateway.close()

    asyncio.run(scenario())


def test_client_retry_honours_server_retry_after_hint():
    async def scenario():
        clock = ManualClock()
        server, _, _ = _dense_server(
            TOY, PYTHON, clock=clock,
            admission=AdmissionController(
                tenant_limits={"t0": (1.0, 1.0)}, clock=clock))
        gateway = await ServingGateway(server).start()
        try:
            host, port = gateway.address
            delays = []

            async def sleeper(seconds):
                delays.append(seconds)
                clock.advance(seconds)  # refills the token bucket
                await asyncio.sleep(0)

            async with await ServingClient.connect(
                    host, port, tenant_id="t0",
                    retry=RetryPolicy(max_attempts=3),
                    sleep=sleeper) as client:
                await (await client.submit(
                    "dense", [_random_ct(TOY, 1)]))  # drains the bucket
                response = await client.call("dense", [_random_ct(TOY, 2)])
                assert response.ciphertexts
                stats = client.stats()
                assert stats["retries"] >= 1
            # The bucket refills one token per second; the backoff the
            # client actually waited was stretched to the server's hint.
            assert delays and delays[0] >= 1.0
        finally:
            await gateway.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Backpressure: the per-connection in-flight window
# ---------------------------------------------------------------------------

def test_window_overflow_is_refused_on_the_wire():
    async def scenario():
        server, _, _ = _dense_server(TOY, PYTHON, batch_window=60.0)
        gateway = await ServingGateway(
            server, max_inflight_per_connection=2).start()
        try:
            transport, ack = await _raw_connect(gateway)
            assert ack.max_inflight == 2
            for rid in (1, 2, 3):
                await transport.send(Request(
                    request_id=rid, program="dense",
                    payloads=[serialize_ciphertext(_random_ct(TOY, rid))]))
            refusal = await transport.receive()
            assert isinstance(refusal, Error)
            assert refusal.request_id == 3
            assert refusal.code == OverloadedError.code
            assert isinstance(refusal.to_exception(), OverloadedError)
            # The two admitted requests still complete once flushed.
            server.drain()
            answered = {(await transport.receive()).request_id
                        for _ in range(2)}
            assert answered == {1, 2}
            await transport.send(Goodbye())
            transport.close()
        finally:
            await gateway.close()
        assert gateway.stats()["window_rejections"] == 1

    asyncio.run(scenario())


def test_client_blocks_on_the_advertised_window():
    async def scenario():
        server, _, _ = _dense_server(TOY, PYTHON, batch_window=60.0)
        gateway = await ServingGateway(
            server, max_inflight_per_connection=2).start()
        try:
            host, port = gateway.address
            async with await ServingClient.connect(
                    host, port, tenant_id="t0") as client:
                assert client.max_inflight == 2
                first = await client.submit("dense", [_random_ct(TOY, 1)])
                second = await client.submit("dense", [_random_ct(TOY, 2)])
                third = asyncio.ensure_future(
                    client.submit("dense", [_random_ct(TOY, 3)]))
                await asyncio.sleep(0.05)
                assert not third.done()  # blocked on the window, not wired
                assert client.transport.frames_sent == 3  # HELLO + 2
                await _poll(lambda: server.queue_depth == 2)
                server.drain()
                await asyncio.gather(first, second)
                future3 = await third  # window slot freed, request sent
                await _poll(lambda: future3.done(), drain=server.drain)
                assert (await future3).ciphertexts
                assert client.stats()["served"] == 3
        finally:
            await gateway.close()

    asyncio.run(scenario())


def test_duplicate_request_id_is_a_protocol_error():
    async def scenario():
        server, _, _ = _dense_server(TOY, PYTHON, batch_window=60.0)
        gateway = await ServingGateway(server).start()
        try:
            transport, _ = await _raw_connect(gateway)
            payload = [serialize_ciphertext(_random_ct(TOY, 4))]
            await transport.send(Request(request_id=7, program="dense",
                                         payloads=payload))
            await transport.send(Request(request_id=7, program="dense",
                                         payloads=payload))
            refusal = await transport.receive()
            assert isinstance(refusal, Error)
            assert refusal.request_id == 7
            assert refusal.code == ProtocolError.code
            server.drain()
            answer = await transport.receive()
            assert isinstance(answer, Response) and answer.request_id == 7
            transport.close()
        finally:
            await gateway.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Drain, shutdown, and client liveness
# ---------------------------------------------------------------------------

def test_gateway_drain_resolves_every_inflight_wire_request():
    async def scenario():
        server, keys, tracer = _dense_server(TOY, PYTHON, batch_window=60.0)
        gateway = await ServingGateway(server).start()
        host, port = gateway.address
        cts = [_random_ct(TOY, 31 * i) for i in range(4)]
        client = await ServingClient.connect(host, port, tenant_id="t0")
        futures = [await client.submit("dense", [ct]) for ct in cts]
        # Nothing resolves on its own: the batch window is an hour.
        await asyncio.sleep(0.05)
        assert not any(f.done() for f in futures)
        await gateway.drain()
        results = await asyncio.gather(*futures)
        references = _eager_outputs(TOY, keys, PYTHON, tracer, cts)
        for result, reference in zip(results, references):
            assert _rows(result.ciphertexts[0]) == _rows(reference)
        # The GOODBYE reached the client: it is closed, nothing pending.
        await _poll(lambda: client.closed)
        assert client.inflight == 0
        with pytest.raises(ConnectionClosedError):
            await client.submit("dense", [cts[0]])
        await client.close()
        await gateway.close()
        assert gateway.open_connections == 0
        assert server.pending_count == 0 and server.queue_depth == 0

    asyncio.run(scenario())


def test_client_goodbye_closes_cleanly_and_fails_nothing():
    async def scenario():
        server, _, _ = _dense_server(TOY, PYTHON)
        gateway = await ServingGateway(server).start()
        host, port = gateway.address
        async with await ServingClient.connect(
                host, port, tenant_id="t0", client_name="brief") as client:
            response = await (await client.submit(
                "dense", [_random_ct(TOY, 5)]))
            assert response.ciphertexts
        assert client.closed and client.inflight == 0
        await _poll(lambda: gateway.open_connections == 0)
        stats = gateway.stats()
        assert stats["connections_opened"] == 1
        assert stats["connections_closed"] == 1
        # Closed-connection transport counters fold into the totals.
        assert stats["transport_totals"]["frames_received"] >= 3
        await gateway.close()

    asyncio.run(scenario())


def test_client_timeout_raises_and_orphans_the_late_reply():
    async def scenario():
        server, _, _ = _dense_server(TOY, PYTHON, batch_window=60.0)
        gateway = await ServingGateway(server).start()
        try:
            host, port = gateway.address
            async with await ServingClient.connect(
                    host, port, tenant_id="t0") as client:
                with pytest.raises(DeadlineExceededError):
                    await client.call("dense", [_random_ct(TOY, 6)],
                                      timeout=0.05, max_attempts=1)
                server.drain()  # the reply still arrives — late
                await _poll(lambda: client.stats()["orphaned"] == 1)
                assert client.inflight == 0
                assert client.stats()["timeouts"] == 1
        finally:
            await gateway.close()

    asyncio.run(scenario())


def test_connection_loss_fails_pending_futures():
    async def scenario():
        server, _, _ = _dense_server(TOY, PYTHON, batch_window=60.0)
        gateway = await ServingGateway(server).start()
        host, port = gateway.address
        client = await ServingClient.connect(host, port, tenant_id="t0")
        future = await client.submit("dense", [_random_ct(TOY, 8)])
        # Kill the server side abruptly: no GOODBYE, no drain.
        for conn in list(gateway._connections):
            conn.transport.close()
        with pytest.raises((ConnectionClosedError, ServeError)):
            await future
        assert client.inflight == 0
        await client.close()
        server.drain()
        await gateway.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Loopback chaos soak through the wire
# ---------------------------------------------------------------------------

def test_wire_chaos_soak_resolves_every_request_with_stable_codes():
    clock = ManualClock()
    schedule = FaultSchedule(
        [FaultSpec("keyswitch_rows", "raise", start_call=40,
                   max_injections=4)], seed=9)
    chaos = FaultInjectingBackend(PYTHON, schedule)
    tenants = ["org-a", "org-b", "org-c/free", "org-d"]
    server, keys, tracer = _dense_server(
        TOY, chaos, tenants=tuple(tenants), clock=clock,
        admission=AdmissionController(
            tenant_limits={"org-c/free": (50.0, 4.0)}, clock=clock),
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=1),
            failure_threshold=1, reset_timeout=0.5))

    reference_cache = {}

    def reference_rows(ct):
        key = _rows(ct)
        if key not in reference_cache:
            reference_cache[key] = _rows(_eager_outputs(
                TOY, keys, PYTHON, tracer, [ct])[0])
        return reference_cache[key]

    def verify(request, response):
        return _rows(response.ciphertexts[0]) == \
            reference_rows(request.ciphertexts[0])

    pool = [_random_ct(TOY, 1000 + i) for i in range(4)]
    wire_rejections = []

    async def soak():
        gateway = await ServingGateway(server).start()
        host, port = gateway.address
        clients = {tenant: await ServingClient.connect(
            host, port, tenant_id=tenant) for tenant in tenants}

        async def submit_over_wire(request):
            client = clients[request.tenant_id]
            try:
                return await (await client.submit(
                    request.program, request.ciphertexts,
                    deadline_seconds=request.deadline_seconds))
            except ServeError as exc:
                wire_rejections.append(exc)
                raise

        generator = LoadGenerator(
            server, tenants, ["dense"],
            lambda tenant, rng: rng.choice(pool),
            seed=3, requests_per_pass=26, verify_fn=verify,
            submit_async=submit_over_wire)
        for _ in range(15):
            await generator.run_pass_async()
            clock.advance(0.5)  # breakers half-open, buckets refill
        assert schedule.exhausted()
        clock.advance(0.5)
        for _ in range(5):  # recovery tail: breakers probe and close
            await generator.run_pass_async()
            clock.advance(0.5)
        for client in clients.values():
            await client.close()
        gw_stats = gateway.stats()
        await gateway.close()
        return generator, gw_stats

    generator, gw_stats = asyncio.run(soak())
    agg = chaos_soak_gate(generator, min_requests=500, min_tenants=3)
    assert agg["requests"] == 520
    assert agg["served"] + agg["rejected"] + agg["failed"] == 520
    assert agg["failed"] >= 1        # injected kernel faults bit someone
    assert agg["mismatched"] == 0    # every served response bit-exact
    assert agg["rejection_types"].get("RateLimitedError", 0) >= 1
    assert agg["gates"]["breaker_opened"] >= 1
    assert agg["gates"]["breaker_closed"] >= 1

    # Every wire-delivered rejection arrived typed, carrying the stable
    # code its class owns in the registry.
    assert wire_rejections
    registry = wire_code_registry()
    for exc in wire_rejections:
        assert registry[exc.code] is type(exc)

    # The gateway pushed every request through one transport layer.
    assert gw_stats["requests"] == 520
    assert gw_stats["responses"] == agg["served"]
    assert gw_stats["wire_errors"] == agg["rejected"] + agg["failed"]

    # Per-tenant accounting survived the trip.
    tenant_stats = server.stats()["tenants"]
    assert sum(t["submitted"] for t in tenant_stats.values()) == 520
    assert tenant_stats["org-c/free"]["rejected"] >= 1
