"""Integration tests for the CKKS <-> TFHE scheme conversion (Algorithms 3-5)."""

import pytest

from repro.fhe.ckks import CKKSContext
from repro.fhe.conversion import (
    ckks_to_lwe_ciphertexts,
    lwe_to_rlwe_embedding,
    pack_lwes,
    repack_lwe_ciphertexts,
    sample_extract_rlwe,
)
from repro.fhe.params import CKKSParameters
from repro.fhe.tfhe.lwe import LWECiphertext, LWESecretKey, LWEContext
from repro.fhe.params import TFHEParameters


@pytest.fixture(scope="module")
def ckks_context():
    # Single-level context: conversion operates on level-0 (single-limb) data.
    params = CKKSParameters(
        ring_degree=64, max_level=1, dnum=1, scale_bits=12, modulus_bits=30,
        special_modulus_bits=32, security_bits=0, name="ckks-conversion-test",
    )
    return CKKSContext(params, seed=11, error_stddev=0.0)


def lwe_phase(lwe: LWECiphertext, secret_coefficients) -> int:
    q = lwe.modulus
    inner = sum(a * s for a, s in zip(lwe.a, secret_coefficients)) % q
    value = (lwe.b - inner) % q
    return value - q if value > q // 2 else value


class TestCKKSToTFHE:
    def test_sample_extract_recovers_coefficient(self, ckks_context):
        params = ckks_context.params
        coefficients = [100 * (i + 1) for i in range(8)]
        plaintext = ckks_context.encoder.encode_coefficients(coefficients, level=0)
        ciphertext = ckks_context.encrypt_symmetric(plaintext)
        secret = ckks_context.keys.secret.coefficients
        for index in range(8):
            lwe = sample_extract_rlwe(ciphertext, index)
            assert lwe_phase(lwe, secret) == coefficients[index]

    def test_extract_requires_level_zero(self, ckks_context):
        plaintext = ckks_context.encoder.encode_coefficients([1], level=1)
        ciphertext = ckks_context.encrypt_symmetric(plaintext)
        with pytest.raises(ValueError):
            sample_extract_rlwe(ciphertext, 0)

    def test_algorithm3_extracts_strided_slots(self, ckks_context):
        params = ckks_context.params
        n = params.ring_degree
        nslot = 4
        stride = n // nslot
        coefficients = [0] * n
        for j in range(nslot):
            coefficients[j * stride] = 500 + j
        plaintext = ckks_context.encoder.encode_coefficients(coefficients, level=0)
        ciphertext = ckks_context.encrypt_symmetric(plaintext)
        lwes = ckks_to_lwe_ciphertexts(ciphertext, nslot)
        secret = ckks_context.keys.secret.coefficients
        for j, lwe in enumerate(lwes):
            assert lwe_phase(lwe, secret) == 500 + j

    def test_extracted_lwe_feeds_tfhe_linear_ops(self, ckks_context):
        """Extracted LWE ciphertexts support TFHE-style additive homomorphism."""
        coefficients = [300, 150] + [0] * 62
        plaintext = ckks_context.encoder.encode_coefficients(coefficients, level=0)
        ciphertext = ckks_context.encrypt_symmetric(plaintext)
        lwe0 = sample_extract_rlwe(ciphertext, 0)
        lwe1 = sample_extract_rlwe(ciphertext, 1)
        secret = ckks_context.keys.secret.coefficients
        assert lwe_phase(lwe0 + lwe1, secret) == 450
        assert lwe_phase(lwe0 - lwe1, secret) == 150


class TestTFHEToCKKS:
    def test_ring_embedding_preserves_constant_coefficient(self, ckks_context):
        coefficients = [1234] + [0] * 63
        plaintext = ckks_context.encoder.encode_coefficients(coefficients, level=0)
        ciphertext = ckks_context.encrypt_symmetric(plaintext)
        lwe = sample_extract_rlwe(ciphertext, 0)
        embedded = lwe_to_rlwe_embedding(lwe, ckks_context.evaluator)
        decrypted = ckks_context.decrypt(embedded)
        constant = decrypted.poly.centered_coefficients()[0]
        assert constant == 1234

    def test_pack_two_lwes(self, ckks_context):
        # Messages are scaled up so the (absolute) keyswitch noise of the
        # packing automorphisms stays small relative to them.
        params = ckks_context.params
        n = params.ring_degree
        scale = params.scale
        messages = [700 * scale, -300 * scale]
        coefficients = [messages[0], messages[1]] + [0] * (n - 2)
        plaintext = ckks_context.encoder.encode_coefficients(coefficients, level=0)
        ciphertext = ckks_context.encrypt_symmetric(plaintext)
        lwes = [sample_extract_rlwe(ciphertext, i) for i in range(2)]
        packed = repack_lwe_ciphertexts(lwes, ckks_context.evaluator)
        decrypted = ckks_context.decrypt(packed).poly.centered_coefficients()
        stride = n // 2
        noise_budget = scale // 2
        assert abs(decrypted[0] - messages[0]) <= noise_budget
        assert abs(decrypted[stride] - messages[1]) <= noise_budget

    @pytest.mark.parametrize("nslot", [4, 8])
    def test_full_repacking_round_trip(self, ckks_context, nslot):
        """CKKS -> LWE extraction -> repacking -> CKKS recovers the messages."""
        params = ckks_context.params
        n = params.ring_degree
        scale = params.scale
        messages = [100 * scale * (j + 1) * (-1) ** j for j in range(nslot)]
        coefficients = [0] * n
        for j, message in enumerate(messages):
            coefficients[j] = message
        plaintext = ckks_context.encoder.encode_coefficients(coefficients, level=0)
        ciphertext = ckks_context.encrypt_symmetric(plaintext)
        lwes = [sample_extract_rlwe(ciphertext, j) for j in range(nslot)]
        packed = repack_lwe_ciphertexts(lwes, ckks_context.evaluator)
        decrypted = ckks_context.decrypt(packed).poly.centered_coefficients()
        stride = n // nslot
        noise_budget = scale // 2
        for j, message in enumerate(messages):
            assert abs(decrypted[j * stride] - message) <= noise_budget, (
                f"slot {j}: got {decrypted[j * stride]}, want {message}"
            )

    def test_pack_rejects_non_power_of_two(self, ckks_context):
        lwe = LWECiphertext(a=[0] * 64, b=0, modulus=ckks_context.params.basis(0).moduli[0])
        embedded = lwe_to_rlwe_embedding(lwe, ckks_context.evaluator)
        with pytest.raises(ValueError):
            pack_lwes([embedded] * 3, ckks_context.evaluator)

    def test_pack_rejects_empty_list(self, ckks_context):
        with pytest.raises(ValueError):
            pack_lwes([], ckks_context.evaluator)

    def test_embedding_dimension_mismatch_raises(self, ckks_context):
        lwe = LWECiphertext(a=[0] * 10, b=0, modulus=ckks_context.params.basis(0).moduli[0])
        with pytest.raises(ValueError):
            lwe_to_rlwe_embedding(lwe, ckks_context.evaluator)
