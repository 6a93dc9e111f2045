"""Unit and integration tests for the functional CKKS implementation."""

import math
import random

import numpy as np
import pytest

from repro.fhe.ckks import CKKSContext, CKKSEncoder, measure_noise
from repro.fhe.ckks.bootstrap import BootstrapPlan, linear_transform_plan
from repro.fhe.params import CKKSParameters


def word_size_parameters(ring_degree):
    """The 30-bit, L = 8 chain ``benchmarks/e2e`` runs on."""
    return CKKSParameters(
        ring_degree=ring_degree, max_level=8, dnum=3, scale_bits=26,
        modulus_bits=30, special_modulus_bits=32, security_bits=0)


@pytest.fixture(scope="module")
def toy_context():
    return CKKSContext(CKKSParameters.toy(ring_degree=64, max_level=3, dnum=2), seed=1)


@pytest.fixture(scope="module")
def deep_context():
    return CKKSContext(CKKSParameters.toy(ring_degree=128, max_level=4, dnum=2), seed=2)


def assert_close(actual, expected, tolerance=1e-2):
    assert len(actual) >= len(expected)
    for a, e in zip(actual, expected):
        assert abs(a - e) < tolerance, f"{a} != {e} (tol {tolerance})"


class TestEncoder:
    def test_encode_decode_roundtrip(self, toy_context):
        values = [1.5, -2.25, 3.0 + 1.0j, 0.125]
        plaintext = toy_context.encoder.encode(values)
        decoded = toy_context.encoder.decode(plaintext, num_values=4)
        assert_close(decoded, values, tolerance=1e-3)

    def test_encode_full_vector(self, toy_context):
        slots = toy_context.params.slots
        values = [complex(i % 5, -(i % 3)) for i in range(slots)]
        decoded = toy_context.encoder.decode(toy_context.encoder.encode(values))
        assert_close(decoded, values, tolerance=1e-3)

    def test_too_many_values_raises(self, toy_context):
        slots = toy_context.params.slots
        with pytest.raises(ValueError):
            toy_context.encoder.encode([1.0] * (slots + 1))

    def test_encode_at_lower_level(self, toy_context):
        plaintext = toy_context.encoder.encode([1.0, 2.0], level=1)
        assert plaintext.level == 1
        assert len(plaintext.poly.basis) == 2


    def test_value_that_would_wrap_raises(self):
        """2^36 in a 30-bit modulus used to decode to -7.9996 in silence."""
        encoder = CKKSEncoder(word_size_parameters(64))
        with pytest.raises(ValueError, match=r"needs 37 bits.* has 30"):
            encoder.encode([1000.0] * 32, level=0)
        assert_close(encoder.decode(encoder.encode([1000.0] * 32, level=1)),
                     [1000.0] * 32, tolerance=1e-3)
        # The largest magnitude level 0 holds, and the first it does not.
        half = encoder.params.basis(0).product // 2
        edge = half / encoder.params.scale
        assert encoder.encode([edge] * 32, level=0).poly.infinity_norm() == half
        with pytest.raises(ValueError, match="too large for level 0"):
            encoder.encode([edge + 2.0 / encoder.params.scale] * 32, level=0)

    def test_non_finite_values_and_bad_scales_raise(self, toy_context):
        encoder = toy_context.encoder
        for value in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
            with pytest.raises(ValueError, match="non-finite"):
                encoder.encode([1.0, value])
        for scale in (0.0, -4.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="scale must be positive"):
                encoder.encode([1.0], scale=scale)

    def test_decode_count_outside_the_slots_raises(self, toy_context):
        encoder = toy_context.encoder
        plaintext = encoder.encode([1.0, 2.0])
        slots = toy_context.params.slots
        assert encoder.decode(plaintext, num_values=0) == []
        assert len(encoder.decode(plaintext, num_values=slots)) == slots
        for count in (-1, slots + 1):
            with pytest.raises(ValueError, match="num_values"):
                encoder.decode(plaintext, num_values=count)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("ring_degree", [64, 1024, 2048])
    def test_residues_equal_the_conjugated_table_expression(self, ring_degree, backend):
        """``encode`` conjugates the slot vector, not the ``n x N`` table, and
        hands the rounded coefficients over as one array: the residues are
        those of the expression it replaced, bit for bit."""
        params = word_size_parameters(ring_degree)
        encoder = CKKSEncoder(params, backend=backend)
        rng = random.Random(ring_degree)
        vectors = [
            [rng.randrange(-11, 12) / 8.0 for _ in range(params.slots)],
            [complex(rng.gauss(0, 3), rng.gauss(0, 3)) for _ in range(params.slots // 2)],
            [2.0 ** 37 * ring_degree, -1e11j, 3.0],     # 2^64 wide: python ints
        ]
        for level, values in zip((params.max_level, 0, 3), vectors):
            vector = np.zeros(params.slots, dtype=np.complex128)
            vector[:len(values)] = values
            coefficients = (2.0 / ring_degree) * np.real(
                np.conj(encoder._eval_matrix).T @ vector)
            integers = [int(c) for c in np.rint(coefficients * params.scale).astype(object)]
            plaintext = encoder.encode(values, level=level)
            assert plaintext.poly.coefficient_rows() == [
                [c % q for c in integers] for q in params.basis(level).moduli]
        assert max(map(abs, integers)) > 1 << 62


class TestNoise:
    """Noise and precision as numbers (``measure_noise``), not a tolerance."""

    SIGMA = 3.2

    @pytest.fixture(scope="class")
    def client(self):
        """The ``client_keygen_encrypt`` tenant of ``benchmarks/e2e``."""
        return CKKSContext(word_size_parameters(1024), seed=7, error_stddev=self.SIGMA)

    def test_fresh_encryption_is_below_its_analytic_bound(self, client):
        """``c0 + c1 s - m = e v + e0 + e1 s`` with rounded-gaussian ``e*`` and
        dense ternary ``v, s``: each coefficient has variance ``sigma^2 (1 +
        4N/3)``.  Six of those deviations bound the norm; the measurement is
        within two bits of the bound, so the bound says something."""
        n = client.params.ring_degree
        bound = 6 * self.SIGMA * math.sqrt(1 + 4 * n / 3)
        rng = random.Random(1)
        for _ in range(4):
            values = [rng.randrange(-11, 12) / 8.0 for _ in range(client.params.slots)]
            plaintext = client.encoder.encode(values)
            noise = measure_noise(client.encrypt(plaintext), client.keys.secret, plaintext)
            assert bound / 4 < noise < bound
            assert measure_noise(client.encrypt_symmetric(plaintext),
                                 client.keys.secret, plaintext) < noise

    def test_noise_is_the_same_number_in_either_domain(self, client):
        plaintext = client.encoder.encode([0.5, -1.25])
        ciphertext = client.encrypt(plaintext)
        resident = client.evaluator.to_eval(ciphertext)
        assert resident.domain == "eval"
        assert (measure_noise(resident, client.keys.secret, plaintext)
                == measure_noise(ciphertext, client.keys.secret, plaintext) > 0)

    def test_round_trip_precision_in_bits(self, client):
        """What ``benchmarks/e2e`` checks as ``abs(a - e) < 5e-2``: encode ->
        decode alone keeps 20 bits (rounding at scale 2^26); through a fresh
        encryption the noise above leaves 12, the six-sigma slot bound."""
        params = client.params
        n = params.ring_degree
        rng = random.Random(2)

        def bits(decoded, values):
            return -math.log2(max(abs(a - e) for a, e in zip(decoded, values)))

        slot_bound = (6 * self.SIGMA * math.sqrt(1 + 4 * n / 3)
                      * math.sqrt(n / 2) / params.scale)
        for _ in range(4):
            values = [rng.randrange(-11, 12) / 8.0 for _ in range(params.slots)]
            plaintext = client.encoder.encode(values)
            assert bits(client.encoder.decode(plaintext), values) >= 20
            through = bits(client.decrypt_vector(client.encrypt(plaintext)), values)
            assert 12 <= -math.log2(slot_bound) <= through <= 14


class TestEncryptDecrypt:
    def test_symmetric_roundtrip(self, toy_context):
        values = [3.5, -1.25, 0.75]
        ct = toy_context.encrypt_symmetric(toy_context.encoder.encode(values))
        assert_close(toy_context.decrypt_vector(ct, 3), values)

    def test_public_key_roundtrip(self, toy_context):
        values = [2.0, -4.5, 1.0 + 2.0j]
        ct = toy_context.encrypt_vector(values)
        assert_close(toy_context.decrypt_vector(ct, 3), values, tolerance=5e-2)

    def test_fresh_ciphertext_level_and_scale(self, toy_context):
        ct = toy_context.encrypt_vector([1.0])
        assert ct.level == toy_context.params.max_level
        assert ct.scale == pytest.approx(float(toy_context.params.scale))


class TestHomomorphicAddition:
    def test_add(self, toy_context):
        a = toy_context.encrypt_vector([1.0, 2.0, 3.0])
        b = toy_context.encrypt_vector([0.5, -1.0, 4.0])
        result = toy_context.evaluator.add(a, b)
        assert_close(toy_context.decrypt_vector(result, 3), [1.5, 1.0, 7.0], tolerance=5e-2)

    def test_sub(self, toy_context):
        a = toy_context.encrypt_vector([5.0, 2.0])
        b = toy_context.encrypt_vector([1.0, 7.0])
        result = toy_context.evaluator.sub(a, b)
        assert_close(toy_context.decrypt_vector(result, 2), [4.0, -5.0], tolerance=5e-2)

    def test_add_plain(self, toy_context):
        a = toy_context.encrypt_vector([1.0, 1.0])
        plain = toy_context.encoder.encode([2.0, -3.0])
        result = toy_context.evaluator.add_plain(a, plain)
        assert_close(toy_context.decrypt_vector(result, 2), [3.0, -2.0], tolerance=5e-2)

    def test_negate(self, toy_context):
        a = toy_context.encrypt_vector([1.0, -2.0])
        result = toy_context.evaluator.negate(a)
        assert_close(toy_context.decrypt_vector(result, 2), [-1.0, 2.0], tolerance=5e-2)

    def test_level_mismatch_raises(self, toy_context):
        a = toy_context.encrypt_vector([1.0])
        b = toy_context.evaluator.mod_down_to(toy_context.encrypt_vector([1.0]), 1)
        with pytest.raises(ValueError):
            toy_context.evaluator.add(a, b)


class TestHomomorphicMultiplication:
    def test_multiply_plain_and_rescale(self, toy_context):
        a = toy_context.encrypt_vector([1.5, -2.0])
        plain = toy_context.encoder.encode([2.0, 3.0])
        product = toy_context.evaluator.multiply_plain(a, plain)
        rescaled = toy_context.evaluator.rescale(product)
        assert rescaled.level == a.level - 1
        assert_close(toy_context.decrypt_vector(rescaled, 2), [3.0, -6.0], tolerance=5e-2)

    def test_multiply_ciphertexts(self, toy_context):
        a = toy_context.encrypt_vector([2.0, 3.0, -1.0])
        b = toy_context.encrypt_vector([4.0, -2.0, 5.0])
        product = toy_context.evaluator.multiply(a, b)
        rescaled = toy_context.evaluator.rescale(product)
        assert_close(toy_context.decrypt_vector(rescaled, 3), [8.0, -6.0, -5.0], tolerance=0.2)

    def test_square(self, toy_context):
        a = toy_context.encrypt_vector([3.0, -2.0])
        squared = toy_context.evaluator.rescale(toy_context.evaluator.square(a))
        assert_close(toy_context.decrypt_vector(squared, 2), [9.0, 4.0], tolerance=0.2)

    def test_multiply_scalar(self, toy_context):
        a = toy_context.encrypt_vector([1.0, -2.0])
        result = toy_context.evaluator.multiply_scalar(a, 4)
        assert_close(toy_context.decrypt_vector(result, 2), [4.0, -8.0], tolerance=0.2)

    def test_multiplication_depth_two(self, deep_context):
        ev = deep_context.evaluator
        a = deep_context.encrypt_vector([1.5])
        b = deep_context.encrypt_vector([2.0])
        c = deep_context.encrypt_vector([-1.0])
        ab = ev.rescale(ev.multiply(a, b))
        c_aligned = ev.mod_down_to(c, ab.level)
        abc = ev.rescale(ev.multiply(ab, c_aligned))
        assert_close(deep_context.decrypt_vector(abc, 1), [-3.0], tolerance=0.5)


class TestRotation:
    def test_rotate_by_one(self, toy_context):
        slots = toy_context.params.slots
        values = [float(i) for i in range(slots)]
        ct = toy_context.encrypt_vector(values)
        rotated = toy_context.evaluator.rotate(ct, 1)
        expected = values[1:] + values[:1]
        assert_close(toy_context.decrypt_vector(rotated), expected, tolerance=0.1)

    def test_rotate_roundtrip(self, toy_context):
        slots = toy_context.params.slots
        values = [float(i % 7) for i in range(slots)]
        ct = toy_context.encrypt_vector(values)
        rotated = toy_context.evaluator.rotate(toy_context.evaluator.rotate(ct, 3), -3)
        assert_close(toy_context.decrypt_vector(rotated), values, tolerance=0.1)

    def test_conjugate(self, toy_context):
        values = [1.0 + 2.0j, -3.0 - 1.0j]
        ct = toy_context.encrypt_vector(values)
        conjugated = toy_context.evaluator.conjugate(ct)
        expected = [v.conjugate() for v in values]
        assert_close(toy_context.decrypt_vector(conjugated, 2), expected, tolerance=0.1)

    def test_inner_sum(self, toy_context):
        slots = toy_context.params.slots
        values = [1.0] * slots
        ct = toy_context.encrypt_vector(values)
        summed = toy_context.evaluator.inner_sum(ct, slots)
        decoded = toy_context.decrypt_vector(summed, 1)
        assert abs(decoded[0] - slots) < 0.5


class TestLevelManagement:
    def test_rescale_reduces_level_and_scale(self, toy_context):
        a = toy_context.encrypt_vector([1.0])
        plain = toy_context.encoder.encode([1.0])
        product = toy_context.evaluator.multiply_plain(a, plain)
        rescaled = toy_context.evaluator.rescale(product)
        assert rescaled.level == a.level - 1
        assert rescaled.scale < product.scale

    def test_rescale_at_level_zero_raises(self, toy_context):
        a = toy_context.evaluator.mod_down_to(toy_context.encrypt_vector([1.0]), 0)
        with pytest.raises(ValueError):
            toy_context.evaluator.rescale(a)

    def test_mod_down_to_preserves_value(self, toy_context):
        a = toy_context.encrypt_vector([2.5, -1.5])
        lowered = toy_context.evaluator.mod_down_to(a, 1)
        assert lowered.level == 1
        assert_close(toy_context.decrypt_vector(lowered, 2), [2.5, -1.5], tolerance=5e-2)

    def test_mod_down_to_higher_level_raises(self, toy_context):
        a = toy_context.evaluator.mod_down_to(toy_context.encrypt_vector([1.0]), 1)
        with pytest.raises(ValueError):
            toy_context.evaluator.mod_down_to(a, 2)

    def test_align(self, toy_context):
        a = toy_context.encrypt_vector([1.0])
        b = toy_context.evaluator.mod_down_to(toy_context.encrypt_vector([2.0]), 1)
        a2, b2 = toy_context.evaluator.align(a, b)
        assert a2.level == b2.level == 1


class TestBootstrapPlan:
    def test_operations_cover_declared_level_consumption(self):
        plan = BootstrapPlan(ring_degree=65536, start_level=35, levels_consumed=15)
        histogram = plan.operation_histogram()
        assert histogram["HMult"] > 0
        assert histogram["HRotate"] > 0
        assert plan.end_level == 20

    def test_linear_transform_plan_counts(self):
        plan = linear_transform_plan(slots=4096, level=30)
        assert plan.baby_steps * plan.giant_steps >= 4096
        assert plan.num_rotations == plan.baby_steps + plan.giant_steps - 2

    def test_invalid_level_consumption(self):
        with pytest.raises(ValueError):
            BootstrapPlan(start_level=10, levels_consumed=10)

    def test_operation_levels_are_decreasing(self):
        plan = BootstrapPlan(ring_degree=4096, start_level=20, levels_consumed=15, slots=2048)
        levels = [op.level for op in plan.operations()]
        assert levels == sorted(levels, reverse=True)
