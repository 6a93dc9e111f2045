"""Suite for the ``repro.serve`` serving layer.

* **Differential**: ``test_batched_equals_sequential`` — N concurrent
  requests through the batching scheduler decrypt bit-exact to the same
  requests run one-by-one through the eager executor, on both backends and
  across parameter shapes.
* **Serialization**: property-style round-trips (ciphertexts in both
  domains, keyswitch/public/secret keys) across every params.py combo, both
  backends, and the uint32 narrow-store mode; truncated / corrupted /
  wrong-version / wrong-kind payloads raise typed errors.
* **Caches**: LRU eviction order, capacity enforcement, hit/miss/eviction
  counters, and the regression that a plan-cache hit skips re-planning
  (planner-call counter), including ``BSGSLinearTransform``'s migrated
  per-level cache.
* **Fault injection**: unknown tenants/programs, mismatched levels/scales/
  parameters, oversize batches, and missing evaluation keys are rejected
  with typed errors — and the scheduler keeps serving the healthy requests
  in the same pass.

Only the encoder-based tests need numpy; scheduler, serialization, cache,
and fault-injection tests run on the pure-python backend and are part of
the no-numpy CI leg.
"""

import hashlib
import random
import struct
import zlib
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import modmath
from repro.fhe.backend import PythonBackend, available_backends, use_backend
from repro.fhe.ckks.ciphertext import CKKSCiphertext, CKKSPlaintext
from repro.fhe.ckks.evaluator import CKKSEvaluator
from repro.fhe.ckks.keys import (
    CKKSKeyGenerator,
    CKKSKeySet,
    galois_element_for_rotation,
)
from repro.fhe.params import CKKSParameters
from repro.fhe.program import HETrace, LRUCache, ProgramExecutor
from repro.fhe.rns import RNSBasis, RNSPolynomial
from repro.serve import (
    CorruptPayloadError,
    ExecutionError,
    InferenceRequest,
    InferenceServer,
    LevelMismatchError,
    MissingKeyError,
    OversizeBatchError,
    ParameterMismatchError,
    ScaleMismatchError,
    SchemeMismatchError,
    SerializationError,
    UnknownProgramError,
    UnknownTenantError,
    UnsupportedVersionError,
    deserialize,
    deserialize_ciphertext,
    deserialize_keyswitch_key,
    deserialize_public_key,
    deserialize_rns_polynomial,
    deserialize_secret_key,
    percentile,
    serialize,
    serialize_ciphertext,
    serialize_keyswitch_key,
    serialize_public_key,
    serialize_rns_polynomial,
    serialize_secret_key,
)
from repro.serve import serialization as wire

numpy_missing = "numpy" not in available_backends()
needs_numpy = pytest.mark.skipif(numpy_missing, reason="numpy backend unavailable")

PYTHON = PythonBackend()

if not numpy_missing:
    from repro.fhe.backend import NumpyBackend

    PACKED = NumpyBackend(min_vector_length=0, min_ntt_length=0)
    BACKENDS = [PYTHON, PACKED]
else:  # pragma: no cover - exercised only on numpy-less installs
    PACKED = None
    BACKENDS = [PYTHON]

BACKEND_IDS = [b.name for b in BACKENDS]

PARAM_SETS = [
    CKKSParameters.toy(),
    CKKSParameters.toy(ring_degree=128, max_level=4, dnum=2),
    CKKSParameters.small(ring_degree=256),
    CKKSParameters(
        ring_degree=64, max_level=3, dnum=2, scale_bits=24, modulus_bits=28,
        special_modulus_bits=30, security_bits=0, name="ckks-u32",
    ),
]
PARAM_IDS = [
    f"{p.name}-N{p.ring_degree}-L{p.max_level}-{p.modulus_bits}bit"
    for p in PARAM_SETS
]

TOY = CKKSParameters.toy()


# ---------------------------------------------------------------------------
# Helpers (the test_program.py idiom)
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


def _random_pt(params, seed, level=None, scale=None):
    level = params.max_level if level is None else level
    return CKKSPlaintext(
        poly=_random_poly(params, seed, level),
        level=level,
        scale=float(params.scale) if scale is None else float(scale),
    )


def _keyed(params, seed=11):
    return CKKSKeyGenerator(params, seed=seed, error_stddev=0.0).generate()


def _rows(ct):
    c0 = ct.c0.to_coeff()
    c1 = ct.c1.to_coeff()
    return (
        tuple(map(tuple, c0.coefficient_rows())),
        tuple(map(tuple, c1.coefficient_rows())),
    )


def _poly_rows(poly):
    return tuple(map(tuple, poly.to_coeff().coefficient_rows()))


def _decrypt_rows(keys, ct):
    """c0 + c1*s over the ciphertext basis — the decrypted plaintext rows."""
    s = keys.secret.as_rns(ct.c0.ring_degree, ct.c0.basis)
    return _poly_rows(ct.c0.to_coeff() + ct.c1.to_coeff() * s)


def _dense_tracer(pts):
    """A BSGS-flavoured shape: rotations, conjugation, plaintext MACs."""
    def tracer(x):
        acc = x.rotate(1) * pts[0] + x.rotate(2) * pts[1] + x * pts[2]
        return acc + x.conjugate() * pts[3]
    return tracer


def _dense_server(params, backend, seed=11, **kwargs):
    kwargs.setdefault("batch_window", 0.001)
    server = InferenceServer(params, backend=backend, **kwargs)
    keys = _keyed(params, seed)
    server.register_tenant("t0", keys)
    pts = [_random_pt(params, 400 + j) for j in range(4)]
    tracer = _dense_tracer(pts)
    server.register_program("dense", tracer)
    return server, keys, tracer


def _eager_outputs(params, keys, backend, tracer, cts):
    """The sequential reference: each request alone, eager call sequence."""
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


# ---------------------------------------------------------------------------
# Differential: batched == sequential
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
@pytest.mark.parametrize("params", PARAM_SETS[:2] + PARAM_SETS[3:], ids=[
    PARAM_IDS[0], PARAM_IDS[1], PARAM_IDS[3]])
def test_batched_equals_sequential(params, backend):
    server, keys, tracer = _dense_server(params, backend)
    cts = [_random_ct(params, 7 * i) for i in range(5)]
    requests = [InferenceRequest.single("t0", "dense", ct) for ct in cts]
    responses = server.serve(requests)
    references = _eager_outputs(params, keys, backend, tracer, cts)
    for response, reference in zip(responses, references):
        assert len(response.ciphertexts) == 1
        assert response.batched and response.batch_size == 5
        assert _rows(response.ciphertexts[0]) == _rows(reference)
        assert _decrypt_rows(keys, response.ciphertexts[0]) == \
            _decrypt_rows(keys, reference)
    stats = server.stats()
    assert stats["served"] == 5 and stats["rejected"] == 0
    assert stats["batches"] == 1 and stats["batched_requests"] == 5
    # The joint plan actually batches: one stacked conversion group spans
    # all five requests' input conversions.
    planned = server.plan_cache.get(("dense", params.max_level,
                                     float(params.scale), 5))
    assert planned.stats["stacked_conversion_groups"] >= 1


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
def test_multiply_program_batched_equals_sequential(backend):
    """A relin-bearing shape (x*x) batches bit-exact too."""
    params = TOY
    server = InferenceServer(params, backend=backend, batch_window=0.001)
    keys = _keyed(params)
    server.register_tenant("t0", keys)
    tracer = lambda x: (x * x).rescale()  # noqa: E731
    server.register_program("square", tracer)
    cts = [_random_ct(params, 91 * (i + 1)) for i in range(4)]
    responses = server.serve(
        [InferenceRequest.single("t0", "square", ct) for ct in cts])
    references = _eager_outputs(params, keys, backend, tracer, cts)
    for response, reference in zip(responses, references):
        assert _rows(response.ciphertexts[0]) == _rows(reference)


def test_max_batch_size_chunks_oversized_buckets():
    server, keys, tracer = _dense_server(TOY, PYTHON, max_batch_size=2)
    cts = [_random_ct(TOY, 13 * i) for i in range(5)]
    responses = server.serve(
        [InferenceRequest.single("t0", "dense", ct) for ct in cts])
    references = _eager_outputs(TOY, keys, PYTHON, tracer, cts)
    for response, reference in zip(responses, references):
        assert _rows(response.ciphertexts[0]) == _rows(reference)
    assert server.stats()["batch_size_histogram"] == {1: 1, 2: 2}


def test_multi_ciphertext_request_and_tenant_key_sharing():
    """Tenants sharing one key set batch together; multi-ct requests fan
    their ciphertexts into the same bucket and reassemble in order."""
    server, keys, tracer = _dense_server(TOY, PYTHON)
    server.register_tenant("t1", keys)       # same key set object: may batch
    cts = [_random_ct(TOY, 17 * i) for i in range(4)]
    requests = [
        InferenceRequest(tenant_id="t0", program="dense",
                         ciphertexts=[cts[0], cts[1]]),
        InferenceRequest.single("t1", "dense", cts[2]),
        InferenceRequest.single("t0", "dense", cts[3]),
    ]
    responses = server.serve(requests)
    references = _eager_outputs(TOY, keys, PYTHON, tracer, cts)
    assert [_rows(c) for c in responses[0].ciphertexts] == \
        [_rows(references[0]), _rows(references[1])]
    assert _rows(responses[1].ciphertexts[0]) == _rows(references[2])
    assert _rows(responses[2].ciphertexts[0]) == _rows(references[3])
    stats = server.stats()
    assert stats["batches"] == 1 and stats["batched_requests"] == 4


def test_distinct_key_sets_never_batch_together():
    params = TOY
    server = InferenceServer(params, backend=PYTHON, batch_window=0.001)
    keys_a, keys_b = _keyed(params, 11), _keyed(params, 12)
    server.register_tenant("a", keys_a)
    server.register_tenant("b", keys_b)
    pts = [_random_pt(params, 400 + j) for j in range(4)]
    server.register_program("dense", _dense_tracer(pts))
    requests = [
        InferenceRequest.single("a", "dense", _random_ct(params, 1)),
        InferenceRequest.single("b", "dense", _random_ct(params, 2)),
        InferenceRequest.single("a", "dense", _random_ct(params, 3)),
    ]
    responses = server.serve(requests)
    assert [r.batch_size for r in responses] == [2, 1, 2]
    assert server.stats()["batch_size_histogram"] == {1: 1, 2: 1}


def test_batch_failure_degrades_to_unbatched(monkeypatch):
    server, keys, tracer = _dense_server(TOY, PYTHON)
    cts = [_random_ct(TOY, 31 * i) for i in range(4)]
    real_run = ProgramExecutor.run

    def flaky(self, program, inputs, optimize=True):
        if len(inputs) > 1:
            raise RuntimeError("stacked dispatch exploded")
        return real_run(self, program, inputs, optimize)

    monkeypatch.setattr(ProgramExecutor, "run", flaky)
    responses = server.serve(
        [InferenceRequest.single("t0", "dense", ct) for ct in cts])
    references = _eager_outputs(TOY, keys, PYTHON, tracer, cts)
    for response, reference in zip(responses, references):
        assert not response.batched and response.batch_size == 1
        assert _rows(response.ciphertexts[0]) == _rows(reference)
    stats = server.stats()
    assert stats["unbatched_fallbacks"] == 1
    assert stats["served"] == 4


def test_unrecoverable_execution_failure_is_typed(monkeypatch):
    server, _, _ = _dense_server(TOY, PYTHON)

    def broken(self, program, inputs, optimize=True):
        raise RuntimeError("backend on fire")

    monkeypatch.setattr(ProgramExecutor, "run", broken)
    results = server.serve(
        [InferenceRequest.single("t0", "dense", _random_ct(TOY, 5))],
        return_exceptions=True)
    assert isinstance(results[0], ExecutionError)
    # The original kernel failure is chained, so its traceback survives
    # into the client-visible error instead of being flattened to a string.
    assert isinstance(results[0].__cause__, RuntimeError)
    assert "backend on fire" in str(results[0].__cause__)


def test_server_roundtrips_serialized_requests():
    """Wire-in, wire-out: a serialized request served and re-serialized."""
    server, keys, tracer = _dense_server(TOY, PYTHON)
    ct = _random_ct(TOY, 77)
    with use_backend(PYTHON):
        arriving = deserialize_ciphertext(serialize_ciphertext(ct))
        response = server.serve(
            [InferenceRequest.single("t0", "dense", arriving)])[0]
        wire_out = serialize_ciphertext(response.ciphertexts[0])
        reference = _eager_outputs(TOY, keys, PYTHON, tracer, [ct])[0]
        assert _rows(deserialize_ciphertext(wire_out)) == _rows(reference)


# ---------------------------------------------------------------------------
# Serialization round-trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
@pytest.mark.parametrize("params", PARAM_SETS, ids=PARAM_IDS)
class TestSerializationRoundTrip:
    def test_ciphertext_both_domains_and_levels(self, params, backend):
        with use_backend(backend):
            for level in (params.max_level, 0):
                ct = _random_ct(params, 5 + level, level=level)
                for domain_ct in (ct, CKKSCiphertext(
                        ct.c0.to_eval(), ct.c1.to_eval(), ct.level, ct.scale)):
                    back = deserialize_ciphertext(
                        serialize_ciphertext(domain_ct))
                    assert back.level == domain_ct.level
                    assert back.scale == domain_ct.scale
                    assert back.c0.domain == domain_ct.c0.domain
                    assert back.c0.basis == domain_ct.c0.basis
                    assert _rows(back) == _rows(ct)

    def test_rns_polynomial(self, params, backend):
        with use_backend(backend):
            poly = _random_poly(params, 21)
            back = deserialize_rns_polynomial(serialize_rns_polynomial(poly))
            assert _poly_rows(back) == _poly_rows(poly)
            eval_poly = poly.to_eval()
            back = deserialize_rns_polynomial(
                serialize_rns_polynomial(eval_poly))
            assert back.domain == "eval"
            assert _poly_rows(back) == _poly_rows(poly)

    def test_keys(self, params, backend):
        with use_backend(backend):
            keys = _keyed(params)
            element = galois_element_for_rotation(params.ring_degree, 1)
            for key in (keys.relinearization_key(params.max_level),
                        keys.galois_key(element, params.max_level)):
                back = deserialize_keyswitch_key(serialize_keyswitch_key(key))
                assert back.level == key.level
                assert len(back.digit_keys) == len(key.digit_keys)
                for (b0, a0), (b1, a1) in zip(key.digit_keys, back.digit_keys):
                    assert _poly_rows(b0) == _poly_rows(b1)
                    assert _poly_rows(a0) == _poly_rows(a1)
            public = deserialize_public_key(serialize_public_key(keys.public))
            assert _poly_rows(public.b) == _poly_rows(keys.public.b)
            assert _poly_rows(public.a) == _poly_rows(keys.public.a)
            secret = deserialize_secret_key(serialize_secret_key(keys.secret))
            assert secret.coefficients == keys.secret.coefficients

    def test_generic_dispatch(self, params, backend):
        with use_backend(backend):
            ct = _random_ct(params, 3)
            assert isinstance(deserialize(serialize(ct)), CKKSCiphertext)
            poly = _random_poly(params, 4)
            assert isinstance(deserialize(serialize(poly)), RNSPolynomial)


def test_deserialized_keys_rotate_identically():
    """A tenant restored purely from serialized key material evaluates
    bit-identically to the original key set."""
    params = TOY
    with use_backend(PYTHON):
        keys = _keyed(params)
        element = galois_element_for_rotation(params.ring_degree, 1)
        galois = deserialize_keyswitch_key(serialize_keyswitch_key(
            keys.galois_key(element, params.max_level)))
        restored = CKKSKeySet(
            params=params,
            secret=deserialize_secret_key(serialize_secret_key(keys.secret)),
            public=deserialize_public_key(serialize_public_key(keys.public)),
            _galois_keys={(element, params.max_level): galois},
        )
        ct = _random_ct(params, 55)
        original = CKKSEvaluator(params, keys, backend=PYTHON).rotate(ct, 1)
        rebuilt = CKKSEvaluator(params, restored, backend=PYTHON).rotate(ct, 1)
        assert _rows(original) == _rows(rebuilt)


def test_word_size_narrows_for_u32_chains():
    """Chains of <= 32-bit moduli serialize with 4-byte words (half cost)."""
    u32_params = PARAM_SETS[3]
    with use_backend(PYTHON):
        narrow = serialize_ciphertext(_random_ct(u32_params, 9))
        assert narrow[7] == 4  # word byte of the container header
        wide = serialize_ciphertext(_random_ct(TOY, 9))
        assert wide[7] == 8
        n, level = u32_params.ring_degree, u32_params.max_level
        payload = 2 * (level + 1) * n
        assert len(narrow) < 4 * payload + 256  # rows dominated by 4B words


@pytest.mark.skipif(numpy_missing, reason="numpy backend unavailable")
def test_serialization_cross_backend():
    """Bytes written under one backend load bit-exact under another."""
    ct = _random_ct(TOY, 123)
    with use_backend(PYTHON):
        blob_py = serialize_ciphertext(ct)
    with use_backend(PACKED):
        blob_np = serialize_ciphertext(ct)
        assert blob_py == blob_np
        assert _rows(deserialize_ciphertext(blob_py)) == _rows(ct)
    with use_backend(PYTHON):
        assert _rows(deserialize_ciphertext(blob_np)) == _rows(ct)


class TestSerializationValidation:
    @pytest.fixture()
    def blob(self):
        with use_backend(PYTHON):
            return serialize_ciphertext(_random_ct(TOY, 42))

    def test_truncation(self, blob):
        for cut in (3, 10, len(blob) // 2, len(blob) - 1):
            with pytest.raises(SerializationError):
                deserialize_ciphertext(blob[:cut])

    def test_corruption(self, blob):
        for offset in (9, len(blob) // 2, len(blob) - 6):
            broken = bytearray(blob)
            broken[offset] ^= 0xFF
            with pytest.raises(CorruptPayloadError):
                deserialize_ciphertext(bytes(broken))

    def test_trailing_garbage(self, blob):
        with pytest.raises(CorruptPayloadError):
            deserialize_ciphertext(blob + b"\x00")

    def test_wrong_version(self, blob):
        import struct
        import zlib
        future = bytearray(blob)
        future[4:6] = struct.pack("<H", 99)
        body = bytes(future[:-4])
        future[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(UnsupportedVersionError):
            deserialize_ciphertext(bytes(future))

    def test_bad_magic(self, blob):
        with pytest.raises(SerializationError):
            deserialize_ciphertext(b"XXXX" + blob[4:])

    def test_wrong_kind(self):
        with use_backend(PYTHON):
            poly_blob = serialize_rns_polynomial(_random_poly(TOY, 2))
        with pytest.raises(SerializationError, match="expected a ciphertext"):
            deserialize_ciphertext(poly_blob)

    def test_not_bytes_and_empty(self):
        with pytest.raises(SerializationError):
            deserialize(12345)
        with pytest.raises(SerializationError):
            deserialize(b"")

    def test_residue_out_of_range(self):
        """A residue >= its modulus is refused even under a valid checksum."""
        import struct
        with use_backend(PYTHON):
            poly = _random_poly(TOY, 6, level=0)
            blob = serialize_ciphertext(_random_ct(TOY, 6, level=0))
        q = poly.basis.moduli[0]
        payload = bytearray(blob[8:-4])
        # ct head (12) + meta head (9) + one modulus (8) = first row word.
        payload[29:37] = struct.pack("<Q", q)
        with pytest.raises(SerializationError, match="residue out of range"):
            deserialize_ciphertext(
                wire._container(wire.KIND_CIPHERTEXT, 8, bytes(payload)))

    def test_level_limb_mismatch(self):
        """A ciphertext header whose level disagrees with its limb count."""
        import struct
        with use_backend(PYTHON):
            blob = serialize_ciphertext(_random_ct(TOY, 6, level=1))
        payload = bytearray(blob[8:-4])
        payload[0:4] = struct.pack("<i", 0)  # claim level 0, carry 2 limbs
        with pytest.raises(SerializationError, match="must carry"):
            deserialize_ciphertext(
                wire._container(wire.KIND_CIPHERTEXT, 8, bytes(payload)))


# ---------------------------------------------------------------------------
# The wire format is pinned, and the codec moves arrays
# ---------------------------------------------------------------------------

#: The two pinned sets of ``TestKeyMaterialPinned``: 8-byte and 4-byte words.
WIRE_SETS = {
    "small-40bit": CKKSParameters.small(ring_degree=256, max_level=3),
    "word-30bit": CKKSParameters(
        ring_degree=256, max_level=4, dnum=2, scale_bits=26, modulus_bits=30,
        special_modulus_bits=32, security_bits=0),
}


def _wire_values(params):
    """One value of every row-carrying kind, from real key generation and a
    real (symmetric, integer-message) encryption — no encoder, so the same
    bytes exist on the no-numpy leg.  Built under the active backend."""
    keys = _keyed(params)
    n, basis = params.ring_degree, params.basis()
    mask = RNSPolynomial.sample_uniform(n, basis, random.Random(0xF4E5))
    message = RNSPolynomial.from_integer_coefficients(n, basis, list(range(-8, 9)))
    fresh = CKKSCiphertext(
        c0=message - mask * keys.secret.as_rns(n, basis), c1=mask,
        level=params.max_level, scale=float(params.scale))
    element = galois_element_for_rotation(n, 1)
    return {
        "ciphertext-coeff": fresh,
        "ciphertext-eval": CKKSCiphertext(
            fresh.c0.to_eval(), fresh.c1.to_eval(), fresh.level, fresh.scale),
        "rns-polynomial": fresh.c0.keep_limbs(2),
        "relinearization-key": keys.relinearization_key(1),
        "galois-key": keys.galois_key(element, params.max_level),
        "public-key": keys.public,
    }


class TestWireFormatPinned:
    """``FORMAT_VERSION`` 1 did not move — as a test, not a claim.

    The digests were recorded at the commit *before* the row codec became a
    backend kernel (one ``struct.pack`` per row over ``store_rows()``
    lists), where both backends already wrote the same bytes.
    """

    PINNED = {
        "small-40bit": {
            "ciphertext-coeff": "ada5a4459a6be1c3f32d35488a7ad0b7f33c622745b4b7964b092d399481af5e",
            "ciphertext-eval": "2bbf3b0df563125eb90b4ac62fac3de665d559f3ec5659b878b8937ea5d3791c",
            "rns-polynomial": "c3e5a76a9e9037050018bed7b0a8089db4aca293277b17527dc8c2fa85b00432",
            "relinearization-key": "d6fcb176a82bec03b3ce950c263944f274377985374a96c6a2e9d909f25dddbd",
            "galois-key": "f06589ce7e916d72b11a8890b81cf591efd1f07755972392e7c0c95684e8acee",
            "public-key": "e3669f302db004ac70a52f391efa412d9943d23ade257bc509389e67d1a26084",
        },
        "word-30bit": {
            "ciphertext-coeff": "720bd7b8aa1bb0eba8327bf89a2b56eee3aa1bafd86ff2bf24cd9881a6fd682b",
            "ciphertext-eval": "b9b13b563a7829094b3233bc0439d9af93d002853bc074cf6ba20613ad6f4be9",
            "rns-polynomial": "5b09797cf80bbab12d3c242fea3eb79451c0a7e7e9fa5034ca5463c0364780fd",
            "relinearization-key": "17a2782d82766f38ff13062f9a3e806174fcee4056c3deeb33290a04cdf8e3ee",
            "galois-key": "b54a2e9d8c1c1da481035762037134e6bfc67bc29150a86d84ea08a8d53d5de4",
            "public-key": "78e5e4a6a842994bd3da95a5a6ab5e17d3b54ab7f146b9bb2a82c7c8ecd0c778",
        },
    }

    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_blob_digests_match_parent_commit(self, name, backend):
        with use_backend(backend):
            blobs = {kind: serialize(value)
                     for kind, value in _wire_values(WIRE_SETS[name]).items()}
            assert {kind: hashlib.sha256(blob).hexdigest()
                    for kind, blob in blobs.items()} == self.PINNED[name]
            word = 8 if name == "small-40bit" else 4
            for blob in blobs.values():
                assert blob[7] == word
                assert serialize(deserialize(blob)) == blob


#: 28..32 bits run the single-word kernels, 36 and 62 the Montgomery ones;
#: 63 is above the vectorised cap, so numpy hands the rows to the golden codec.
ROUND_TRIP_WIDTHS = (28, 29, 30, 31, 32, 36, 62, 63)
ROUND_TRIP_N = 16


@lru_cache(maxsize=None)
def _round_trip_prime(bits, index):
    return modmath.find_ntt_prime(bits, ROUND_TRIP_N, index=index)


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
@given(widths=st.lists(st.sampled_from(ROUND_TRIP_WIDTHS), min_size=1, max_size=4),
       domain=st.sampled_from(["coeff", "eval"]), seed=st.integers(0, 1 << 32))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_round_trip_any_width_at_every_level(backend, widths, domain, seed):
    """Level ``len(widths) - 1`` ciphertexts over mixed-width bases: rows,
    domain, basis and the blob itself survive the round trip."""
    moduli = [_round_trip_prime(bits, widths[:i].count(bits))
              for i, bits in enumerate(widths)]
    basis = RNSBasis(moduli)
    rng = random.Random(seed)
    rows = [[[0, q - 1] + [rng.randrange(q) for _ in range(ROUND_TRIP_N - 2)]
             for q in moduli] for _ in range(2)]
    with use_backend(backend):
        c0, c1 = (RNSPolynomial._from_store(
            ROUND_TRIP_N, basis, backend.pack_limbs(part, tuple(moduli)),
            domain=domain) for part in rows)
        blob = serialize_ciphertext(
            CKKSCiphertext(c0, c1, level=len(moduli) - 1, scale=2.0 ** 20))
        assert blob[7] == (4 if max(widths) <= 32 else 8)
        back = deserialize_ciphertext(blob)
        assert (back.level, back.scale) == (len(moduli) - 1, 2.0 ** 20)
        assert back.c0.domain == back.c1.domain == domain
        assert back.c0.basis == basis
        assert [backend.store_rows(p.store()) for p in (back.c0, back.c1)] == rows
        assert serialize_ciphertext(back) == blob


def _uniform_ct(params, seed):
    """A ciphertext whose stores the active backend sampled (packed arrays
    on numpy — nothing is waiting to be packed on first use)."""
    rng = random.Random(seed)
    n, basis = params.ring_degree, params.basis()
    return CKKSCiphertext(
        c0=RNSPolynomial.sample_uniform(n, basis, rng),
        c1=RNSPolynomial.sample_uniform(n, basis, rng),
        level=params.max_level, scale=float(params.scale))


@needs_numpy
@pytest.mark.parametrize("params", [TOY, PARAM_SETS[3]], ids=["word8", "word4"])
def test_numpy_round_trip_never_builds_python_int_rows(params):
    """A counting shim as the active backend: no ``store_rows`` /
    ``pack_limbs`` dispatch, nested ones included."""
    seen = []

    class Counting(NumpyBackend):
        def store_rows(self, store):
            seen.append("store_rows")
            return super().store_rows(store)

        def pack_limbs(self, rows, moduli):
            seen.append("pack_limbs")
            return super().pack_limbs(rows, moduli)

    with use_backend(Counting(min_vector_length=0, min_ntt_length=0)):
        ct = _uniform_ct(params, 17)
        assert seen == []
        back = deserialize_ciphertext(serialize_ciphertext(ct))
        assert seen == []
        assert _rows(back) == _rows(ct)
        assert seen != []           # the shim does count: reading rows dispatches


@needs_numpy
def test_decoded_store_rests_at_wire_width_until_a_kernel_reads_it():
    """N=1024, L=8 — the serve workloads' ciphertext.  Contents are compared
    through ``coefficient_rows()``; the width is a property of the store at
    rest only (kernel outputs are 64-bit as ever)."""
    narrow = CKKSParameters(
        ring_degree=1024, max_level=8, dnum=3, scale_bits=26, modulus_bits=30,
        special_modulus_bits=32, security_bits=0)
    wide = CKKSParameters.small(ring_degree=1024, max_level=8)
    for params, word in ((narrow, 4), (wide, 8)):
        with use_backend(PACKED):
            ct = _uniform_ct(params, 29)
            blob = serialize_ciphertext(ct)
            back = deserialize_ciphertext(blob)
            stores = [back.c0.store(), back.c1.store()]
            assert sum(store.nbytes for store in stores) == 2 * 9 * 1024 * word
            # Each store owns its rows: neither the blob nor the other
            # polynomial is kept alive through a view.
            assert all(store.base is None for store in stores)
            assert _rows(back) == _rows(ct)
            total = back.c0 + back.c1
            assert total.store().dtype.itemsize == 8
            assert _poly_rows(total) == _poly_rows(ct.c0 + ct.c1)
            assert serialize_ciphertext(back) == blob


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
def test_value_outside_the_word_is_a_typed_encode_error(backend):
    """Was ``struct.error`` from the golden path; a plain ``astype`` would
    have shipped the low 32 bits instead."""
    params = PARAM_SETS[3]
    n, basis = params.ring_degree, params.basis(1)
    moduli = tuple(basis.moduli)

    def poly_with(value, pack=True):
        rows = [[1] * n for _ in moduli]
        rows[1][5] = value
        store = backend.pack_limbs(rows, moduli) if pack else rows
        return RNSPolynomial._from_store(n, basis, store)

    with use_backend(backend):
        with pytest.raises(SerializationError, match="limb 1 holds .* 4-byte word"):
            serialize_rns_polynomial(poly_with(1 << 33))
        with pytest.raises(SerializationError, match="limb 1 holds .* 4-byte word"):
            serialize_rns_polynomial(poly_with(1 << 33, pack=False))
        # In [q, 2^32) it is not the encoder's call: the value ships, and
        # the decoder refuses it.
        blob = serialize_rns_polynomial(poly_with(moduli[1]))
        with pytest.raises(SerializationError,
                           match=f"residue out of range for modulus {moduli[1]}"):
            deserialize_rns_polynomial(blob)
        wide_basis = TOY.basis(1)
        rows = [[1] * TOY.ring_degree for _ in wide_basis]
        rows[0][0] = 1 << 64
        with pytest.raises(SerializationError, match="limb 0 holds .* 8-byte word"):
            serialize_rns_polynomial(
                RNSPolynomial._from_store(TOY.ring_degree, wide_basis, rows))


@lru_cache(maxsize=None)
def _valid_blobs():
    """``(loader, blob)`` for all five kinds, in 8-byte and 4-byte words."""
    out = []
    with use_backend(PYTHON):
        for params in (TOY, PARAM_SETS[3]):
            keys = _keyed(params)
            out += [
                (deserialize_ciphertext,
                 serialize_ciphertext(_random_ct(params, 8, level=1))),
                (deserialize_rns_polynomial,
                 serialize_rns_polynomial(_random_poly(params, 9, level=0))),
                (deserialize_keyswitch_key,
                 serialize_keyswitch_key(keys.relinearization_key(0))),
                (deserialize_public_key, serialize_public_key(keys.public)),
                (deserialize_secret_key, serialize_secret_key(keys.secret)),
            ]
    return tuple(out)


def test_one_checksum_pass_per_blob_from_any_buffer_type(monkeypatch):
    """Generic ``deserialize`` used to open the container twice."""
    passes = []
    crc32 = zlib.crc32
    monkeypatch.setattr(
        zlib, "crc32", lambda *args: passes.append(len(args[0])) or crc32(*args))
    for load, blob in _valid_blobs():
        for buffer in (blob, bytearray(blob), memoryview(blob)):
            for entry in (load, deserialize):
                with use_backend(PYTHON):
                    del passes[:]
                    value = entry(buffer)
                    assert passes == [len(blob) - 4]
                    assert serialize(value) == blob
            assert wire.payload_kind(buffer) == blob[6]


def _restamped(blob) -> bytes:
    """``blob`` under a fresh checksum, so a mutation reaches the body."""
    return bytes(blob[:-4]) + struct.pack("<I", zlib.crc32(bytes(blob[:-4])))


def _only_typed_errors(blob):
    try:
        return deserialize(blob)
    except SerializationError:
        return None


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
class TestDecoderFuzz:
    """Random and mutated bytes into ``deserialize``: a value or a
    :class:`SerializationError` subclass comes out, nothing else."""

    @given(raw=st.binary(max_size=96), kind=st.integers(0, 7),
           word=st.sampled_from([4, 8, 0, 2, 16]), body=st.binary(max_size=160))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_random_bytes(self, backend, raw, kind, word, body):
        with use_backend(backend):
            for blob in (raw, wire.MAGIC + raw, bytearray(raw),
                         wire._container(kind, word, body)):
                _only_typed_errors(blob)

    @given(which=st.integers(0, 9), flip=st.integers(1, 255),
           position=st.one_of(st.integers(0, 80), st.integers(0, 1 << 20)))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_one_flipped_byte(self, backend, which, position, flip):
        _, blob = _valid_blobs()[which]
        broken = bytearray(blob)
        broken[position % (len(blob) - 4)] ^= flip
        with use_backend(backend):
            # Under the old checksum no flip gets past the container...
            with pytest.raises(SerializationError):
                deserialize(bytes(broken))
            # ...and re-stamped, the body decoders meet it.
            _only_typed_errors(_restamped(broken))

    #: Payload offsets (after the 8 container bytes) of every u32/i32 length
    #: or count field, by position in ``_valid_blobs()``: level, digit count,
    #: L, N, secret coefficient count.
    FIELDS = {0: (8, 21, 25), 1: (9, 13), 2: (8, 12, 17, 21), 3: (9, 13), 4: (8,)}

    @given(which=st.integers(0, 9), pick=st.integers(0, 3),
           value=st.one_of(
               st.sampled_from([0, 1, 2, 3, 0xFFFF, 1 << 16, (1 << 16) + 1,
                                1 << 26, 1 << 27, 1 << 31, (1 << 32) - 1]),
               st.integers(0, (1 << 32) - 1)))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_one_rewritten_length_field(self, backend, which, pick, value):
        _, blob = _valid_blobs()[which]
        offsets = self.FIELDS[which % 5]
        broken = bytearray(blob)
        struct.pack_into("<I", broken, offsets[pick % len(offsets)], value)
        with use_backend(backend):
            _only_typed_errors(_restamped(broken))


def _recording(base, **kwargs):
    """A ``base`` backend whose row decoder records what it is handed and
    insists it is exactly the rows the header promised."""
    class Recording(base):
        def limbs_from_words(self, words, moduli, length, word):
            assert len(words) == len(moduli) * length * word
            self.decoded.append(len(words))
            return super().limbs_from_words(words, moduli, length, word)

    backend = Recording(**kwargs)
    backend.decoded = []
    return backend


RECORDERS = [lambda: _recording(PythonBackend)]
if not numpy_missing:
    RECORDERS.append(
        lambda: _recording(NumpyBackend, min_vector_length=0, min_ntt_length=0))


@pytest.mark.parametrize("recorder", RECORDERS, ids=BACKEND_IDS)
def test_no_row_is_decoded_from_an_unvalidated_length(recorder, monkeypatch):
    """A header that claims more rows than the payload holds is refused
    before the row decoder (``struct`` / ``np.frombuffer``) sees a byte."""
    backend = recorder()
    if backend.name == "numpy":
        import numpy as np
        frombuffer = np.frombuffer
        monkeypatch.setattr(np, "frombuffer", lambda *args, **kwargs: (
            backend.decoded.append("frombuffer"), frombuffer(*args, **kwargs))[1])
    with use_backend(backend):
        for which in (0, 1, 2, 3, 5, 6, 7, 8):
            load, blob = _valid_blobs()[which]
            degree_at = TestDecoderFuzz.FIELDS[which % 5][-1]
            (degree,) = struct.unpack_from("<I", blob, degree_at)
            claims = [(degree_at, 2 * degree)]              # twice the ring
            if which % 5 == 2:
                (digits,) = struct.unpack_from("<I", blob, 12)
                claims.append((12, digits + 1))             # one more digit
            for offset, value in claims:
                broken = bytearray(blob)
                struct.pack_into("<I", broken, offset, value)
                with pytest.raises(SerializationError, match="truncated payload"):
                    load(_restamped(broken))
                assert backend.decoded == []
            # Half the ring is a *shorter* claim: trailing bytes, same rule.
            broken = bytearray(blob)
            struct.pack_into("<I", broken, degree_at, degree // 2)
            with pytest.raises(SerializationError, match="trailing bytes"):
                load(_restamped(broken))
            assert backend.decoded == []
            load(blob)
            assert backend.decoded != []
            del backend.decoded[:]


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
@pytest.mark.parametrize("params", [TOY, PARAM_SETS[3]], ids=["word8", "word4"])
def test_residue_range_is_checked_at_every_corner(backend, params):
    """First and last coefficient of the first and last limb."""
    with use_backend(PYTHON):
        blob = serialize_rns_polynomial(_random_poly(params, 9, level=1))
    word, degree = blob[7], params.ring_degree
    moduli = struct.unpack_from("<2Q", blob, 17)
    rows_at = 17 + 2 * 8        # container 8, meta head 9, two moduli
    for limb in (0, 1):
        for index in (0, degree - 1):
            broken = bytearray(blob)
            struct.pack_into("<I" if word == 4 else "<Q", broken,
                             rows_at + (limb * degree + index) * word,
                             moduli[limb])
            with use_backend(backend):
                with pytest.raises(
                        SerializationError,
                        match=f"residue out of range for modulus {moduli[limb]}"):
                    deserialize_rns_polynomial(_restamped(broken))


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
def test_limb_count_is_bounded_before_a_basis_is_built(backend, monkeypatch):
    """A header may announce at most ``_MAX_LIMBS`` limbs (digits): one more
    is refused before ``RNSBasis`` — a pairwise gcd and a big-integer
    division per limb — sees a modulus; the bound itself still decodes."""
    bound, degree = wire._MAX_LIMBS, 2
    moduli = [3]
    while len(moduli) <= bound:
        moduli.append(modmath.next_prime(moduli[-1]))

    def poly(count):
        return RNSPolynomial._from_store(
            degree, RNSBasis(moduli[:count]),
            backend.pack_limbs([[q - 1, 0] for q in moduli[:count]],
                               tuple(moduli[:count])))

    with use_backend(backend):
        at_bound, over = (serialize_rns_polynomial(poly(count))
                          for count in (bound, bound + 1))
        ksk = bytearray(_valid_blobs()[2][1])
        struct.pack_into("<I", ksk, 12, bound + 1)
        built = []
        init = RNSBasis.__init__
        monkeypatch.setattr(RNSBasis, "__init__", lambda self, moduli: (
            built.append(len(moduli)), init(self, moduli))[1])
        for blob in (over, _restamped(over[:17] + over[-4:])):  # whole, header only
            with pytest.raises(SerializationError,
                               match=f"limb count {bound + 1} out of range"):
                deserialize_rns_polynomial(blob)
        with pytest.raises(SerializationError,
                           match=f"digit count {bound + 1} out of range"):
            deserialize_keyswitch_key(_restamped(ksk))
        assert built == []
        back = deserialize_rns_polynomial(at_bound)
        assert len(back.basis) == bound
        assert _poly_rows(back) == tuple((q - 1, 0) for q in moduli[:bound])


# ---------------------------------------------------------------------------
# Cache behavior
# ---------------------------------------------------------------------------

class TestLRUCache:
    def test_capacity_and_eviction_order(self):
        cache = LRUCache(2)
        assert cache.put("a", 1) is None
        assert cache.put("b", 2) is None
        assert cache.put("c", 3) == "a"      # oldest evicted
        assert len(cache) == 2
        assert "a" not in cache and "b" in cache and "c" in cache
        assert list(cache.keys()) == ["b", "c"]

    def test_get_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1           # promotes a over b
        assert cache.put("c", 3) == "b"
        assert list(cache.keys()) == ["a", "c"]

    def test_update_promotes_without_evicting(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.put("a", 10) is None
        assert cache.get("a") == 10
        assert cache.put("c", 3) == "b"

    def test_counters_and_stats(self):
        cache = LRUCache(2)
        assert cache.get("missing") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        cache.put("b", 2)
        cache.put("c", 3)
        stats = cache.stats()
        assert stats == {"size": 2, "capacity": 2, "hits": 1, "misses": 1,
                         "evictions": 1, "hit_rate": 0.5}

    def test_get_or_create(self):
        cache = LRUCache(2)
        calls = []
        assert cache.get_or_create("k", lambda: calls.append(1) or 41) == 41
        assert cache.get_or_create("k", lambda: calls.append(1) or 42) == 41
        assert len(calls) == 1
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestPlanCache:
    """The server's plan cache, read through ``stats()["plan_cache"]``:
    every miss is one planner call, and a hit plans nothing."""

    def _server(self, capacity):
        server, _, _ = _dense_server(TOY, PYTHON,
                                     plan_cache_capacity=capacity)
        server.register_program("sum", lambda x: x + x)
        server.register_program("low", lambda x: x + x,
                                level=TOY.max_level - 1)
        return server

    def _serve_one(self, server, program, level=None):
        server.serve([InferenceRequest.single(
            "t0", program, _random_ct(TOY, 5, level=level))])
        return server.stats()["plan_cache"]

    def test_hit_skips_replanning(self):
        server = self._server(capacity=4)
        # Validation plans width 1 (a miss); execution at width 1 hits it.
        stats = self._serve_one(server, "sum")
        assert stats["planner_calls"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        stats = self._serve_one(server, "sum")
        assert stats["planner_calls"] == 1     # the regression counter
        assert stats["hits"] == 3 and stats["misses"] == 1
        stats = self._serve_one(server, "low", level=TOY.max_level - 1)
        assert stats["planner_calls"] == 2
        assert stats["hits"] == 4 and stats["misses"] == 2
        assert stats["planner_calls"] == stats["misses"]
        assert stats["size"] == 2 and stats["evictions"] == 0

    def test_capacity_evicts_and_replans(self):
        server = self._server(capacity=1)
        self._serve_one(server, "sum")
        self._serve_one(server, "low", level=TOY.max_level - 1)  # evicts sum
        stats = self._serve_one(server, "sum")                   # re-plans
        assert stats["planner_calls"] == 3
        assert stats["evictions"] == 2
        assert stats["size"] == 1 and stats["capacity"] == 1


def test_server_plan_cache_hit_skips_replanning():
    server, _, _ = _dense_server(TOY, PYTHON)
    cts = [_random_ct(TOY, 3 * i) for i in range(3)]
    server.serve([InferenceRequest.single("t0", "dense", ct) for ct in cts])
    calls_first = server.stats()["plan_cache"]["planner_calls"]
    server.serve([InferenceRequest.single("t0", "dense", ct) for ct in cts])
    # Second identical pass: every plan (validation width-1 and joint
    # width-3) is a cache hit; the planner never runs again.
    stats = server.stats()["plan_cache"]
    assert stats["planner_calls"] == calls_first
    assert stats["hits"] > 0


def test_server_key_cache_reuse_across_batches():
    server, _, _ = _dense_server(TOY, PYTHON)
    request = [InferenceRequest.single("t0", "dense", _random_ct(TOY, 1))]
    server.serve(request)
    misses = server.stats()["key_cache"]["misses"]
    server.serve([InferenceRequest.single("t0", "dense", _random_ct(TOY, 2))])
    stats = server.stats()["key_cache"]
    assert stats["misses"] == misses           # no new key materialization
    assert stats["hits"] >= misses


_CACHE_KEYS = {"size", "capacity", "hits", "misses", "evictions", "hit_rate"}


def test_server_stats_schema_is_pinned():
    """The key set of ``stats()``, nested, on a served server — operators
    and the repo benchmark read these names (values are not pinned)."""
    server, _, _ = _dense_server(TOY, PYTHON)
    server.serve([InferenceRequest.single("t0", "dense", _random_ct(TOY, i))
                  for i in range(2)])
    stats = server.stats()
    assert set(stats) == {
        "submitted", "served", "rejected", "failed", "batches",
        "batched_requests", "unbatched_fallbacks", "retries",
        "execution_failures", "deadline_exceeded",
        "output_validation_failures", "rejections", "failures", "tenants",
        "batch_size_histogram", "batching_efficiency", "plan_cache",
        "key_cache", "admission", "breakers", "pending", "queue_depth",
    }
    assert set(stats["plan_cache"]) == _CACHE_KEYS | {"planner_calls"}
    assert set(stats["key_cache"]) == _CACHE_KEYS
    assert set(stats["breakers"]) == {"open_now", "transitions", "states"}
    assert set(stats["breakers"]["transitions"]) == {
        "opened", "half_opened", "closed"}
    assert set(stats["breakers"]["states"]) == {"t0/dense"}
    assert set(stats["tenants"]) == {"t0"}
    assert set(stats["tenants"]["t0"]) == {
        "submitted", "served", "rejected", "failed"}
    assert stats["admission"] is None


@needs_numpy
def test_bsgs_plan_cache_is_lru_with_stats():
    """The transform's per-level plan dict migrated to the bounded LRU."""
    from repro.fhe.ckks.context import CKKSContext
    from repro.fhe.ckks.linear_transform import BSGSLinearTransform

    params = CKKSParameters.toy()
    context = CKKSContext(params, seed=3, error_stddev=0.0, backend=PACKED)
    dimension = 4
    rng = random.Random(0)
    matrix = [[complex(rng.uniform(-1, 1)) for _ in range(dimension)]
              for _ in range(dimension)]
    transform = BSGSLinearTransform.from_matrix(context.encoder, matrix)
    vector = [complex(rng.uniform(-1, 1)) for _ in range(dimension)]
    tiled = vector * (params.slots // dimension)
    ct = context.encrypt_vector(tiled)
    first = transform.apply(context.evaluator, ct)
    stats = transform._programs.stats()
    assert stats["misses"] == 1 and stats["hits"] == 0
    second = transform.apply(context.evaluator, ct)
    stats = transform._programs.stats()
    assert stats["misses"] == 1 and stats["hits"] == 1  # hit skipped re-plan
    assert _rows(first) == _rows(second)
    assert isinstance(transform._programs, LRUCache)


def test_percentile_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 99) == 5.0
    assert percentile(values, 0) == 1.0
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_percentile_edge_cases():
    # Singleton: every quantile is the one element.
    assert percentile([3.5], 0) == 3.5
    assert percentile([3.5], 50) == 3.5
    assert percentile([3.5], 100) == 3.5
    # Two elements: nearest-rank puts p50 on the first, p99/p100 on the
    # second, and sorting is the function's job, not the caller's.
    assert percentile([9.0, 1.0], 0) == 1.0
    assert percentile([9.0, 1.0], 50) == 1.0
    assert percentile([9.0, 1.0], 51) == 9.0
    assert percentile([9.0, 1.0], 99) == 9.0
    assert percentile([9.0, 1.0], 100) == 9.0
    # Out-of-range quantiles are rejected, not clamped.
    with pytest.raises(ValueError):
        percentile([1.0], -1)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_drain_flushes_armed_timer_and_inflight_pendings():
    """drain() resolves queued work immediately, without the batch window."""
    import asyncio

    server, keys, tracer = _dense_server(TOY, PYTHON, batch_window=60.0)
    cts = [_random_ct(TOY, 13 * (i + 1)) for i in range(3)]

    async def scenario():
        tasks = [
            asyncio.ensure_future(server.submit(
                InferenceRequest.single("t0", "dense", ct)))
            for ct in cts
        ]
        await asyncio.sleep(0)  # let every submit enqueue and arm the timer
        assert server.queue_depth == 3 and server.pending_count == 3
        assert any(not t.done() for t in server._timers.values())
        server.drain()
        assert server.queue_depth == 0
        return await asyncio.gather(*tasks)

    responses = asyncio.run(scenario())
    references = _eager_outputs(TOY, keys, PYTHON, tracer, cts)
    for response, reference in zip(responses, references):
        assert _rows(response.ciphertexts[0]) == _rows(reference)
    stats = server.stats()
    assert stats["served"] == 3 and stats["pending"] == 0
    # the 60s batch window never fired: drain did the flush
    assert stats["batch_size_histogram"] == {3: 1}


def test_drain_is_a_noop_on_an_idle_server():
    server, _, _ = _dense_server(TOY, PYTHON)
    server.drain()
    assert server.queue_depth == 0 and server.pending_count == 0
    assert server.stats()["batches"] == 0


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

class TestFaultInjection:
    def test_unknown_tenant_and_program(self):
        server, _, _ = _dense_server(TOY, PYTHON)
        ct = _random_ct(TOY, 1)
        with pytest.raises(UnknownTenantError):
            server.serve([InferenceRequest.single("ghost", "dense", ct)])
        with pytest.raises(UnknownProgramError):
            server.serve([InferenceRequest.single("t0", "ghost", ct)])

    def test_level_mismatch(self):
        server, _, _ = _dense_server(TOY, PYTHON)
        low = _random_ct(TOY, 1, level=TOY.max_level - 1)
        with pytest.raises(LevelMismatchError):
            server.serve([InferenceRequest.single("t0", "dense", low)])

    def test_scale_mismatch(self):
        params = TOY
        server = InferenceServer(params, backend=PYTHON, batch_window=0.001)
        server.register_tenant("t0", _keyed(params))
        pts = [_random_pt(params, 400 + j) for j in range(4)]
        server.register_program("dense", _dense_tracer(pts),
                                scale=float(params.scale))
        off_scale = _random_ct(params, 1, scale=3.0 * params.scale)
        with pytest.raises(ScaleMismatchError):
            server.serve([InferenceRequest.single("t0", "dense", off_scale)])

    def test_parameter_mismatch(self):
        server, _, _ = _dense_server(TOY, PYTHON)
        foreign = _random_ct(PARAM_SETS[1], 1)
        with pytest.raises(ParameterMismatchError):
            server.serve([InferenceRequest.single("t0", "dense", foreign)])
        with pytest.raises(ParameterMismatchError):
            server.serve([InferenceRequest(
                tenant_id="t0", program="dense", ciphertexts=["junk"])])

    def test_oversize_batch(self):
        server, _, _ = _dense_server(TOY, PYTHON, max_batch_size=2)
        cts = [_random_ct(TOY, i) for i in range(3)]
        with pytest.raises(OversizeBatchError):
            server.serve([InferenceRequest(
                tenant_id="t0", program="dense", ciphertexts=cts)])

    def test_missing_rotation_keys(self):
        """A tenant with a frozen (generator-less) key set lacking the
        program's rotation keys is rejected with the missing list."""
        params = TOY
        server = InferenceServer(params, backend=PYTHON, batch_window=0.001)
        keys = _keyed(params)
        server.register_tenant("frozen", keys.frozen())
        pts = [_random_pt(params, 400 + j) for j in range(4)]
        server.register_program("dense", _dense_tracer(pts))
        with pytest.raises(MissingKeyError) as excinfo:
            server.serve([InferenceRequest.single(
                "frozen", "dense", _random_ct(params, 1))])
        missing = excinfo.value.missing
        assert missing and all(entry[0] == "galois" for entry in missing)

    def test_missing_relin_key(self):
        params = TOY
        server = InferenceServer(params, backend=PYTHON, batch_window=0.001)
        keys = _keyed(params)
        server.register_tenant("frozen", keys.frozen())
        server.register_program("square", lambda x: (x * x).rescale())
        with pytest.raises(MissingKeyError) as excinfo:
            server.serve([InferenceRequest.single(
                "frozen", "square", _random_ct(params, 1))])
        assert ("relin", params.max_level) in excinfo.value.missing

    def test_provisioned_frozen_tenant_is_served(self):
        """Minimal provisioning via the plan's required elements suffices."""
        params = TOY
        keys = _keyed(params)
        pts = [_random_pt(params, 400 + j) for j in range(4)]
        tracer = _dense_tracer(pts)
        # Provision exactly what the plan needs, then freeze.
        probe = InferenceServer(params, backend=PYTHON)
        probe.register_tenant("t", keys)
        probe.register_program("dense", tracer)
        planned = probe._planned(probe._programs["dense"], params.max_level,
                                 float(params.scale), 1)
        keys.ensure_galois_keys(planned.required_galois_elements())
        server = InferenceServer(params, backend=PYTHON, batch_window=0.001)
        server.register_tenant("frozen", keys.frozen())
        server.register_program("dense", tracer)
        ct = _random_ct(params, 8)
        response = server.serve(
            [InferenceRequest.single("frozen", "dense", ct)])[0]
        reference = _eager_outputs(params, keys, PYTHON, tracer, [ct])[0]
        assert _rows(response.ciphertexts[0]) == _rows(reference)

    def test_scheduler_keeps_serving_after_rejections(self):
        """Bad requests fail typed; good requests in the same pass succeed,
        and a later pass still works."""
        server, keys, tracer = _dense_server(TOY, PYTHON)
        good = [_random_ct(TOY, 100 + i) for i in range(2)]
        requests = [
            InferenceRequest.single("ghost", "dense", _random_ct(TOY, 1)),
            InferenceRequest.single("t0", "dense", good[0]),
            InferenceRequest.single("t0", "dense",
                                    _random_ct(TOY, 2, level=0)),
            InferenceRequest.single("t0", "dense", good[1]),
        ]
        results = server.serve(requests, return_exceptions=True)
        assert isinstance(results[0], UnknownTenantError)
        assert isinstance(results[2], LevelMismatchError)
        references = _eager_outputs(TOY, keys, PYTHON, tracer, good)
        assert _rows(results[1].ciphertexts[0]) == _rows(references[0])
        assert _rows(results[3].ciphertexts[0]) == _rows(references[1])
        stats = server.stats()
        assert stats["rejected"] == 2 and stats["served"] == 2
        assert stats["rejections"] == {"UnknownTenantError": 1,
                                       "LevelMismatchError": 1}
        # The scheduler is not wedged: a fresh pass serves normally.
        again = server.serve(
            [InferenceRequest.single("t0", "dense", good[0])])[0]
        assert _rows(again.ciphertexts[0]) == _rows(references[0])

    def test_per_tenant_counters_and_has_tenant(self):
        server, _, _ = _dense_server(TOY, PYTHON)
        server.register_tenant("t1", _keyed(TOY, seed=23))
        assert server.has_tenant("t0") and server.has_tenant("t1")
        assert not server.has_tenant("ghost")
        results = server.serve([
            InferenceRequest.single("t0", "dense", _random_ct(TOY, 1)),
            InferenceRequest.single("t0", "dense", _random_ct(TOY, 2)),
            InferenceRequest.single("t1", "dense", _random_ct(TOY, 3)),
            InferenceRequest.single("t1", "nope", _random_ct(TOY, 4)),
            InferenceRequest.single("ghost", "dense", _random_ct(TOY, 5)),
        ], return_exceptions=True)
        assert isinstance(results[3], UnknownProgramError)
        assert isinstance(results[4], UnknownTenantError)
        tenants = server.stats()["tenants"]
        assert tenants["t0"] == {"submitted": 2, "served": 2,
                                 "rejected": 0, "failed": 0}
        assert tenants["t1"] == {"submitted": 2, "served": 1,
                                 "rejected": 1, "failed": 0}
        # Even never-registered tenant ids are accounted, as rejections.
        assert tenants["ghost"] == {"submitted": 1, "served": 0,
                                    "rejected": 1, "failed": 0}

    def test_registration_validation(self):
        server, _, _ = _dense_server(TOY, PYTHON)
        with pytest.raises(ValueError):
            server.register_tenant("t0", _keyed(TOY))   # duplicate id
        with pytest.raises(ValueError):
            server.register_program("dense", lambda x: x)  # duplicate name
        with pytest.raises(ValueError):
            server.register_tenant("other", _keyed(PARAM_SETS[1]))
        with pytest.raises(ValueError):
            InferenceServer(TOY, max_batch_size=0)


# ---------------------------------------------------------------------------
# Hybrid programs behind the scheduler
# ---------------------------------------------------------------------------

class TestSchemeMismatch:
    """Scheme validation of hosted hybrid programs (wire code 31)."""

    @staticmethod
    def _hybrid_tracer():
        def tracer(x):
            lwe = x.extract_lwe(0).keyswitch_to_tfhe()
            return x.trace.repack([lwe.keyswitch_to_ckks()])
        return tracer

    def _hybrid_server(self):
        from repro.fhe.conversion.bridge import SchemeBridge
        from repro.fhe.tfhe import TFHEContext
        from repro.workloads.hybrid_workloads import hybrid_query_parameters

        params, tparams = hybrid_query_parameters()
        server = InferenceServer(params, backend=PYTHON, batch_window=0.001)
        server.register_program("filter", self._hybrid_tracer(),
                                level=1, scale=float(params.scale),
                                scheme="hybrid", tfhe_params=tparams)
        keys = _keyed(params)
        tfhe = TFHEContext(tparams, seed=7)
        bridge = SchemeBridge(params, keys.secret, tfhe, seed=7)
        server.register_tenant("provisioned", keys, tfhe=tfhe, bridge=bridge)
        server.register_tenant("ckks-only", keys)
        return server, params

    def test_unprovisioned_tenant_is_rejected_with_code_31(self):
        server, params = self._hybrid_server()
        ct = _random_ct(params, 1, level=1)
        with pytest.raises(SchemeMismatchError) as excinfo:
            server.serve([InferenceRequest.single("ckks-only", "filter", ct)])
        assert excinfo.value.code == 31
        assert excinfo.value.expected == "hybrid"
        assert excinfo.value.got == "ckks"

    def test_provisioned_tenant_is_served_after_a_rejection(self):
        """The rejection is per-request: the same server keeps serving a
        tenant that holds TFHE/bridge material."""
        server, params = self._hybrid_server()
        ct = _random_ct(params, 1, level=1)
        with pytest.raises(SchemeMismatchError):
            server.serve([InferenceRequest.single("ckks-only", "filter", ct)])
        response = server.serve(
            [InferenceRequest.single("provisioned", "filter", ct)])[0]
        assert len(response.ciphertexts) == 1
        assert response.ciphertexts[0].level == 0    # repacked at level 0

    def test_lwe_payload_to_ckks_program_is_rejected(self):
        from repro.fhe.params import TFHEParameters
        from repro.fhe.tfhe import LWEContext

        server, _, _ = _dense_server(TOY, PYTHON)
        lwe = LWEContext(TFHEParameters.hybrid(), seed=0).encrypt(1)
        with pytest.raises(SchemeMismatchError) as excinfo:
            server.serve([InferenceRequest(
                tenant_id="t0", program="dense", ciphertexts=[lwe])])
        assert excinfo.value.expected == "ckks"
        assert excinfo.value.got == "tfhe"

    def test_declared_scheme_must_match_the_trace(self):
        """A program whose registration disagrees with what its trace
        actually does is caught when the plan is first built."""
        from repro.workloads.hybrid_workloads import hybrid_query_parameters

        params, tparams = hybrid_query_parameters()
        server = InferenceServer(params, backend=PYTHON, batch_window=0.001)
        server.register_tenant("t0", _keyed(params))
        # Declared hybrid, traces pure CKKS.
        server.register_program("pure", lambda x: x + x, level=1,
                                scale=float(params.scale),
                                scheme="hybrid", tfhe_params=tparams)
        # Declared CKKS, traces hybrid ops.
        server.register_program("sneaky", self._hybrid_tracer(), level=1,
                                scale=float(params.scale),
                                tfhe_params=tparams)
        ct = _random_ct(params, 1, level=1)
        with pytest.raises(SchemeMismatchError):
            server.serve([InferenceRequest.single("t0", "pure", ct)])
        with pytest.raises(SchemeMismatchError):
            server.serve([InferenceRequest.single("t0", "sneaky", ct)])

    def test_hybrid_registration_requires_tfhe_params(self):
        server = InferenceServer(TOY, backend=PYTHON, batch_window=0.001)
        with pytest.raises(ValueError, match="TFHE parameter"):
            server.register_program("filter", self._hybrid_tracer(),
                                    scheme="hybrid")
        with pytest.raises(ValueError, match="scheme"):
            server.register_program("filter", self._hybrid_tracer(),
                                    scheme="bfv")
