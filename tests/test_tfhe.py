"""Unit and integration tests for the functional TFHE implementation."""

import hashlib
import itertools
import random

import pytest

from repro.fhe.backend import (
    KERNELS,
    ArithmeticBackend,
    NumpyBackend,
    PythonBackend,
    WrappedBackend,
    available_backends,
    use_backend,
)
from repro.fhe.ckks.keys import CKKSKeyGenerator
from repro.fhe.conversion.bridge import SchemeBridge
from repro.fhe.params import TFHEParameters
from repro.fhe.polynomial import _ntt_context
from repro.fhe.rns import RNSBasis, RNSPolynomial
from repro.fhe.tfhe import (
    LWECiphertext,
    LWEContext,
    TFHEContext,
    TFHEGateEvaluator,
    external_product,
    gadget_factors,
)
from repro.fhe.tfhe.batched import (
    batched_lwe_keyswitch,
    batched_programmable_bootstrap,
    sign_test_vector,
)
from repro.fhe.tfhe.ggsw import (
    GGSWCiphertext,
    GGSWContext,
    cmux,
    ggsw_coefficient_rows,
)
from repro.fhe.tfhe.glwe import GLWECiphertext, GLWEContext
from repro.fhe.tfhe.pbs import (
    BootstrappingKey,
    blind_rotate,
    blind_rotate_wave,
    lwe_keyswitch,
    modulus_switch,
    sample_extract,
    signed_decompose,
)
from repro.workloads.hybrid_workloads import hybrid_query_parameters

from test_ntt import non_ntt_prime


def _ring(n, q, coefficients):
    """A message: the one-limb polynomial over ``RNSBasis([q])``."""
    return RNSPolynomial.from_integer_coefficients(n, RNSBasis([q]), coefficients)


@pytest.fixture(scope="module")
def toy_params():
    return TFHEParameters.toy()


@pytest.fixture(scope="module")
def toy_context(toy_params):
    return TFHEContext(toy_params, seed=3)


class TestLWE:
    def test_encrypt_decrypt_all_messages(self, toy_params):
        context = LWEContext(toy_params, seed=0)
        for message in range(toy_params.plaintext_modulus):
            assert context.decrypt(context.encrypt(message)) == message

    def test_homomorphic_addition(self, toy_params):
        context = LWEContext(toy_params, seed=1)
        a = context.encrypt(1)
        b = context.encrypt(2)
        assert context.decrypt(a + b) == 3

    def test_homomorphic_subtraction_and_negation(self, toy_params):
        context = LWEContext(toy_params, seed=2)
        a = context.encrypt(3)
        b = context.encrypt(1)
        assert context.decrypt(a - b) == 2
        assert context.decrypt(-b) == (toy_params.plaintext_modulus - 1)

    def test_scalar_multiply(self, toy_params):
        context = LWEContext(toy_params, seed=3)
        a = context.encrypt(1)
        assert context.decrypt(a.scalar_multiply(3)) == 3

    def test_trivial_ciphertext(self, toy_params):
        context = LWEContext(toy_params, seed=4)
        trivial = context.trivial(context.encode(2))
        assert context.decrypt(trivial) == 2
        assert all(x == 0 for x in trivial.a)

    def test_incompatible_ciphertexts_raise(self, toy_params):
        context = LWEContext(toy_params, seed=5)
        a = context.encrypt(0)
        bad = context.trivial(0, dimension=toy_params.lwe_dimension + 1)
        with pytest.raises(ValueError):
            _ = a + bad

    def test_phase_is_centred(self, toy_params):
        context = LWEContext(toy_params, seed=6)
        phase = context.phase(context.encrypt(0))
        assert abs(phase) < toy_params.modulus // 8


class TestGLWE:
    def test_phase_recovers_message(self, toy_params):
        context = GLWEContext(toy_params, seed=0)
        q = toy_params.modulus
        n = toy_params.polynomial_size
        message = _ring(n, q, [toy_params.delta * (i % 3) for i in range(n)])
        ciphertext = context.encrypt(message, noise_stddev=0.0)
        assert context.phase(ciphertext) == message

    def test_additive_homomorphism(self, toy_params):
        context = GLWEContext(toy_params, seed=1)
        q = toy_params.modulus
        n = toy_params.polynomial_size
        m1 = _ring(n, q, [100, 200, 300])
        m2 = _ring(n, q, [50, -100, 25])
        c1 = context.encrypt(m1, noise_stddev=0.0)
        c2 = context.encrypt(m2, noise_stddev=0.0)
        assert context.phase(c1 + c2) == m1 + m2

    def test_monomial_rotation(self, toy_params):
        context = GLWEContext(toy_params, seed=2)
        q = toy_params.modulus
        n = toy_params.polynomial_size
        message = _ring(n, q, [1000] + [0] * (n - 1))
        ciphertext = context.encrypt(message, noise_stddev=0.0)
        rotated = ciphertext.multiply_by_monomial(3)
        assert context.phase(rotated) == message.multiply_by_monomial(3)

    def test_trivial_encryption(self, toy_params):
        q = toy_params.modulus
        n = toy_params.polynomial_size
        message = _ring(n, q, [42])
        from repro.fhe.tfhe.glwe import GLWECiphertext
        trivial = GLWECiphertext.trivial(message, toy_params.glwe_dimension)
        context = GLWEContext(toy_params, seed=3)
        assert context.phase(trivial) == message


class TestGadgetDecomposition:
    def test_gadget_factors_are_decreasing(self):
        factors = gadget_factors(1 << 32, 1 << 8, 3)
        assert factors == sorted(factors, reverse=True)
        assert factors[0] == (1 << 24)

    @pytest.mark.parametrize("base_log,levels", [(4, 6), (8, 3), (16, 2)])
    def test_scalar_signed_decomposition(self, base_log, levels):
        base = 1 << base_log
        modulus = (1 << 32) - 5
        rng = random.Random(base_log)
        factors = gadget_factors(modulus, base, levels)
        for _ in range(50):
            value = rng.randrange(modulus)
            digits = signed_decompose(value, base, levels, modulus)
            assert all(abs(d) <= base // 2 + 1 for d in digits)
            reconstructed = sum(d * f for d, f in zip(digits, factors)) % modulus
            error = min((reconstructed - value) % modulus, (value - reconstructed) % modulus)
            assert error <= modulus // base ** levels + base


class TestExternalProduct:
    def test_external_product_multiplies_messages(self, toy_params):
        glwe_context = GLWEContext(toy_params, seed=4)
        ggsw_context = GGSWContext(toy_params, glwe_context)
        q = toy_params.modulus
        n = toy_params.polynomial_size
        message = _ring(n, q, [toy_params.delta, 0, toy_params.delta // 2])
        glwe = glwe_context.encrypt(message, noise_stddev=0.0)
        for scalar in (0, 1):
            ggsw = ggsw_context.encrypt_scalar(scalar, noise_stddev=0.0)
            result = external_product(ggsw, glwe)
            phase = glwe_context.phase(result)
            expected = message * scalar
            error = (phase - expected).infinity_norm()
            assert error < toy_params.delta // 8

    def test_external_product_by_monomial(self, toy_params):
        glwe_context = GLWEContext(toy_params, seed=5)
        ggsw_context = GGSWContext(toy_params, glwe_context)
        q = toy_params.modulus
        n = toy_params.polynomial_size
        message = _ring(n, q, [toy_params.delta] + [0] * (n - 1))
        glwe = glwe_context.encrypt(message, noise_stddev=0.0)
        monomial = _ring(n, q, [0, 0, 1])
        ggsw = ggsw_context.encrypt_polynomial(monomial, noise_stddev=0.0)
        result = external_product(ggsw, glwe)
        phase = glwe_context.phase(result)
        expected = message.multiply_by_monomial(2)
        assert (phase - expected).infinity_norm() < toy_params.delta // 8

    def test_cmux_selects_between_ciphertexts(self, toy_params):
        glwe_context = GLWEContext(toy_params, seed=6)
        ggsw_context = GGSWContext(toy_params, glwe_context)
        q = toy_params.modulus
        n = toy_params.polynomial_size
        m_true = _ring(n, q, [toy_params.delta * 1])
        m_false = _ring(n, q, [toy_params.delta * 3])
        c_true = glwe_context.encrypt(m_true, noise_stddev=0.0)
        c_false = glwe_context.encrypt(m_false, noise_stddev=0.0)
        for bit, expected in ((1, m_true), (0, m_false)):
            selector = ggsw_context.encrypt_scalar(bit, noise_stddev=0.0)
            chosen = cmux(selector, c_true, c_false)
            phase = glwe_context.phase(chosen)
            assert (phase - expected).infinity_norm() < toy_params.delta // 4


class TestPBSBuildingBlocks:
    def test_modulus_switch_scales_phase(self, toy_params):
        context = LWEContext(toy_params, seed=7)
        ciphertext = context.encrypt(1)
        switched = modulus_switch(ciphertext, 2 * toy_params.polynomial_size)
        assert switched.modulus == 2 * toy_params.polynomial_size
        assert all(0 <= x < switched.modulus for x in switched.a)

    def test_sample_extract_constant_coefficient(self, toy_params):
        glwe_context = GLWEContext(toy_params, seed=8)
        q = toy_params.modulus
        n = toy_params.polynomial_size
        message = _ring(n, q, [toy_params.delta * 2, toy_params.delta, 0])
        ciphertext = glwe_context.encrypt(message, noise_stddev=0.0)
        from repro.fhe.tfhe.lwe import LWESecretKey
        flattened = LWESecretKey(tuple(glwe_context.secret.flattened_lwe_coefficients()))
        lwe_context = LWEContext(toy_params, seed=8)
        for index in (0, 1, 2, n - 1):
            extracted = sample_extract(ciphertext, index)
            phase = lwe_context.phase(extracted, secret=flattened)
            expected = message.centered_coefficients()[index]
            assert abs(phase - expected) < toy_params.delta // 8

    def test_sample_extract_index_out_of_range(self, toy_params):
        glwe_context = GLWEContext(toy_params, seed=9)
        ciphertext = glwe_context.encrypt(
            _ring(toy_params.polynomial_size, toy_params.modulus, [0]), noise_stddev=0.0
        )
        with pytest.raises(ValueError):
            sample_extract(ciphertext, toy_params.polynomial_size)

    def test_keyswitch_preserves_message(self, toy_context):
        params = toy_context.params
        # Encrypt under the flattened GLWE key, switch to the LWE key.
        from repro.fhe.tfhe.lwe import LWESecretKey
        flattened = LWESecretKey(
            tuple(toy_context.glwe.secret.flattened_lwe_coefficients())
        )
        for message in range(params.plaintext_modulus):
            ciphertext = toy_context.lwe.encrypt(message, secret=flattened)
            switched = lwe_keyswitch(
                ciphertext, toy_context.keyswitching_key, params.lwe_dimension
            )
            assert toy_context.lwe.decrypt(switched) == message


class TestProgrammableBootstrap:
    def test_identity_bootstrap(self, toy_context):
        t = toy_context.params.plaintext_modulus
        for message in range(t // 2):  # padding-bit restriction
            ciphertext = toy_context.encrypt(message)
            refreshed = toy_context.programmable_bootstrap(ciphertext)
            assert toy_context.decrypt(refreshed) == message

    def test_function_bootstrap(self, toy_context):
        t = toy_context.params.plaintext_modulus
        function = lambda m: (3 * m + 1) % (t // 2)
        for message in range(t // 2):
            ciphertext = toy_context.encrypt(message)
            result = toy_context.bootstrap_function(ciphertext, function)
            assert toy_context.decrypt(result) == function(message)

    def test_bootstrap_after_additions(self, toy_context):
        # Accumulate additions, then refresh; message must survive.
        a = toy_context.encrypt(1)
        b = toy_context.encrypt(0)
        combined = a + b
        refreshed = toy_context.programmable_bootstrap(combined)
        assert toy_context.decrypt(refreshed) == 1


class TestGates:
    @pytest.fixture(scope="class")
    def gates(self, toy_context):
        return TFHEGateEvaluator(toy_context)

    def test_encrypt_decrypt_bits(self, gates):
        assert gates.decrypt(gates.encrypt(True)) is True
        assert gates.decrypt(gates.encrypt(False)) is False

    def test_not_gate(self, gates):
        assert gates.decrypt(gates.not_(gates.encrypt(True))) is False
        assert gates.decrypt(gates.not_(gates.encrypt(False))) is True

    @pytest.mark.parametrize("a,b", list(itertools.product([False, True], repeat=2)))
    def test_binary_gates(self, gates, a, b):
        ca, cb = gates.encrypt(a), gates.encrypt(b)
        assert gates.decrypt(gates.nand(ca, cb)) == (not (a and b))
        assert gates.decrypt(gates.and_(ca, cb)) == (a and b)
        assert gates.decrypt(gates.or_(ca, cb)) == (a or b)
        assert gates.decrypt(gates.xor(ca, cb)) == (a != b)
        assert gates.decrypt(gates.xnor(ca, cb)) == (a == b)
        assert gates.decrypt(gates.nor(ca, cb)) == (not (a or b))

    @pytest.mark.parametrize("selector", [False, True])
    def test_mux(self, gates, selector):
        result = gates.mux(gates.encrypt(selector), gates.encrypt(True), gates.encrypt(False))
        assert gates.decrypt(result) == selector

    def test_equality_circuit(self, gates):
        a_bits = [gates.encrypt(b) for b in (True, False, True)]
        b_bits = [gates.encrypt(b) for b in (True, False, True)]
        c_bits = [gates.encrypt(b) for b in (True, True, True)]
        assert gates.decrypt(gates.equality(a_bits, b_bits)) is True
        assert gates.decrypt(gates.equality(a_bits, c_bits)) is False

    def test_less_than_circuit(self, gates):
        def encrypt_number(value, width=3):
            return [gates.encrypt(bool((value >> i) & 1)) for i in range(width)]
        assert gates.decrypt(gates.less_than(encrypt_number(2), encrypt_number(5))) is True
        assert gates.decrypt(gates.less_than(encrypt_number(5), encrypt_number(2))) is False
        assert gates.decrypt(gates.less_than(encrypt_number(3), encrypt_number(3))) is False


class TestBatchedBootstrap:
    """The shared-dispatch PBS batching behind the planner's wave groups."""

    @pytest.fixture(scope="class")
    def hybrid_context(self):
        return TFHEContext(TFHEParameters.hybrid(), seed=3)

    def test_batched_pbs_is_bit_identical_to_sequential(self, hybrid_context):
        context = hybrid_context
        messages = [0, 1, 2, 3, 1]
        ciphertexts = [context.encrypt(m) for m in messages]
        batched = batched_programmable_bootstrap(context, ciphertexts)
        for ct, message, out in zip(ciphertexts, messages, batched):
            reference = context.programmable_bootstrap(ct)
            assert out.a == reference.a and out.b == reference.b
            assert context.decrypt(out) == message

    def test_batched_pbs_with_mixed_test_vectors(self, hybrid_context):
        """A sign table and a LUT in one batch (how `pbs` and
        `gate_bootstrap` nodes share a wave) still match sequential PBS."""
        context = hybrid_context
        ciphertexts = [context.encrypt(1), context.encrypt(3)]
        vectors = [sign_test_vector(context, 8), context.identity_test_vector()]
        batched = batched_programmable_bootstrap(context, ciphertexts, vectors)
        for ct, tv, out in zip(ciphertexts, vectors, batched):
            reference = context.programmable_bootstrap(ct, tv)
            assert out.a == reference.a and out.b == reference.b

    def test_batched_pbs_rejects_mismatched_vectors(self, hybrid_context):
        with pytest.raises(ValueError, match="one test vector"):
            batched_programmable_bootstrap(
                hybrid_context, [hybrid_context.encrypt(0)], [])


# ---------------------------------------------------------------------------
# Array-resident blind rotation
# ---------------------------------------------------------------------------

def _numpy_backends():
    """Named numpy instances (empty without numpy): vectorized at every size
    and default crossovers."""
    if "numpy" not in available_backends():
        return {}
    return {
        "numpy": NumpyBackend(min_vector_length=0, min_ntt_length=0),
        "numpy-default": NumpyBackend(),
    }


NUMPY_BACKENDS = _numpy_backends()
#: The list-API reference runs on the fastest exact backend available.
REFERENCE_BACKEND = NUMPY_BACKENDS.get("numpy", PythonBackend())
WAVE_PARAMS = {
    "hybrid": TFHEParameters.hybrid(),   # 31-bit modulus
    "toy": TFHEParameters.toy(),         # 32-bit
    "small": TFHEParameters.small(),     # 32-bit, n_lwe = 32
}


class _Wave:
    """Sixteen inputs of one parameter set and their list-API references."""

    def __init__(self, params):
        self.params = params
        self.context = context = TFHEContext(params, seed=5)
        n = params.polynomial_size
        rng = random.Random(17)
        self.ciphertexts = [
            context.encrypt(rng.randrange(params.plaintext_modulus))
            for _ in range(16)
        ]
        # A zero mask coefficient modulus-switches to a_i == 0: member 1 sits
        # out iteration 3 (and, alone in a wave of one, skips it outright).
        self.ciphertexts[1].a[3] = 0
        self.vectors = [
            (sign_test_vector(context, 1 << 10), context.identity_test_vector(),
             context.make_test_vector(lambda m: (3 * m + 1) % 4))[i % 3]
            for i in range(16)
        ]
        self.switched = [modulus_switch(ct, 2 * n) for ct in self.ciphertexts]
        assert self.switched[1].a[3] == 0
        self._accumulators = {}

    def reference(self, member):
        """``tv * X^-b`` then one list-level ``cmux`` per non-zero ``a_i``."""
        if member not in self._accumulators:
            lwe = self.switched[member]
            with use_backend(REFERENCE_BACKEND):
                accumulator = self.vectors[member].multiply_by_monomial(-lwe.b)
                for a_i, ggsw in zip(lwe.a, self.context.bootstrapping_key.ggsw_rows):
                    if a_i != 0:
                        accumulator = cmux(
                            ggsw, accumulator.multiply_by_monomial(a_i), accumulator)
            self._accumulators[member] = accumulator
        return self._accumulators[member]

    def reference_rows(self, size):
        return [row for m in range(size) for row in self.reference(m).coefficient_rows()]

    def reference_outputs(self, size):
        """The list-level tail: ``sample_extract`` then ``lwe_keyswitch``."""
        with use_backend(REFERENCE_BACKEND):
            return [
                lwe_keyswitch(sample_extract(self.reference(m), 0),
                              self.context.keyswitching_key,
                              self.params.lwe_dimension)
                for m in range(size)
            ]


@pytest.fixture(scope="module")
def waves():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = _Wave(WAVE_PARAMS[name])
        return cache[name]
    return get


def _same(outputs, references):
    return [(o.a, o.b, o.modulus) for o in outputs] == \
        [(r.a, r.b, r.modulus) for r in references]


class TestResidentWaveParity:
    """The resident loop == an explicit per-member ``cmux`` loop, bit for bit."""

    @pytest.mark.parametrize("size", [1, 2, 16])
    @pytest.mark.parametrize("backend", sorted(NUMPY_BACKENDS))
    @pytest.mark.parametrize("name", sorted(WAVE_PARAMS))
    def test_numpy_wave_matches_list_api(self, waves, name, backend, size):
        wave, backend = waves(name), NUMPY_BACKENDS[backend]
        with use_backend(backend):
            store = blind_rotate_wave(
                wave.vectors[:size], wave.switched[:size],
                wave.context.bootstrapping_key)
            assert backend.store_rows(store) == wave.reference_rows(size)
            outputs = batched_programmable_bootstrap(
                wave.context, wave.ciphertexts[:size], wave.vectors[:size])
        assert _same(outputs, wave.reference_outputs(size))

    # The golden loops are slow at N = 256: the python backend takes the full
    # wave on the toy ring and the two-member wave (zero a_i included) elsewhere.
    @pytest.mark.parametrize("name,size", [
        ("toy", 1), ("toy", 2), ("toy", 16),
        ("hybrid", 1), ("hybrid", 2), ("small", 2),
    ])
    def test_python_wave_matches_list_api(self, waves, name, size):
        wave, backend = waves(name), PythonBackend()
        with use_backend(backend):
            store = blind_rotate_wave(
                wave.vectors[:size], wave.switched[:size],
                wave.context.bootstrapping_key)
            assert backend.store_rows(store) == wave.reference_rows(size)
            outputs = batched_programmable_bootstrap(
                wave.context, wave.ciphertexts[:size], wave.vectors[:size])
        assert _same(outputs, wave.reference_outputs(size))

    def test_single_entry_point_is_the_wave_of_one(self, waves):
        wave = waves("toy")
        for member in (0, 1):
            accumulator = blind_rotate(
                wave.vectors[member], wave.switched[member],
                wave.context.bootstrapping_key)
            assert accumulator.coefficient_rows() == \
                wave.reference(member).coefficient_rows()
            output = wave.context.programmable_bootstrap(
                wave.ciphertexts[member], wave.vectors[member])
            assert _same([output], wave.reference_outputs(member + 1)[member:])

    def test_key_handle_built_by_one_backend_serves_another(self, waves):
        """Instances that share a ``name`` share the cached handle: a list
        store built below the crossovers feeds the vectorized kernels."""
        if not NUMPY_BACKENDS:
            pytest.skip("numpy backend unavailable")
        wave = _Wave(WAVE_PARAMS["toy"])
        key = wave.context.bootstrapping_key
        for backend in ("numpy-default", "numpy"):
            with use_backend(NUMPY_BACKENDS[backend]):
                store = blind_rotate_wave(wave.vectors[:2], wave.switched[:2], key)
                assert NUMPY_BACKENDS[backend].store_rows(store) == \
                    wave.reference_rows(2)
        assert list(key._eval_cache) == ["numpy"]

    def test_glwe_dimension_two(self):
        """k = 2: three rows per member, two mask components in the tail."""
        params = TFHEParameters(
            polynomial_size=32, lwe_dimension=6, glwe_dimension=2, bsk_levels=3,
            bsk_base_log=6, ksk_levels=4, ksk_base_log=4, modulus_bits=32,
            noise_stddev=0.0, security_bits=0, name="tfhe-k2")
        wave = _Wave(params)
        for backend in [PythonBackend()] + [NUMPY_BACKENDS[b] for b in sorted(NUMPY_BACKENDS)]:
            with use_backend(backend):
                store = blind_rotate_wave(
                    wave.vectors[:3], wave.switched[:3],
                    wave.context.bootstrapping_key)
                assert backend.store_rows(store) == wave.reference_rows(3)
                outputs = batched_programmable_bootstrap(
                    wave.context, wave.ciphertexts[:3], wave.vectors[:3])
            assert _same(outputs, wave.reference_outputs(3))
        assert wave.context.decrypt(outputs[0]) == wave.context.decrypt(
            wave.context.programmable_bootstrap(wave.ciphertexts[0], wave.vectors[0]))

    def test_non_ntt_ring_raises(self):
        """Over a prime ring with no 2N-th root of unity, encryption, the
        phase, the list-level external product and the blind-rotation wave
        all raise; trivial ciphertexts and monomial rotations stay legal."""
        n = 8
        q = non_ntt_prime(16, n)
        params = TFHEParameters(
            polynomial_size=n, lwe_dimension=3, bsk_levels=2, bsk_base_log=4,
            ksk_levels=2, ksk_base_log=4, modulus_bits=16, noise_stddev=0.0,
            security_bits=0, name="tfhe-non-ntt")
        params.__dict__["modulus"] = q
        glwe = GLWEContext(params, seed=2)
        message = _ring(n, q, list(range(0, n << 12, 1 << 12)))
        vector = GLWECiphertext.trivial(message, params.glwe_dimension)
        assert vector.multiply_by_monomial(3).body == message.multiply_by_monomial(3)
        zero = GGSWCiphertext(
            rows=[[GLWECiphertext.trivial(_ring(n, q, []), params.glwe_dimension)
                   for _ in range(params.bsk_levels)]
                  for _ in range(params.glwe_dimension + 1)],
            base=1 << params.bsk_base_log, levels=params.bsk_levels)
        key = BootstrappingKey([zero] * params.lwe_dimension)
        switched = [LWECiphertext(a=[3, 0, 9], b=5, modulus=2 * n),
                    LWECiphertext(a=[0, 7, 15], b=12, modulus=2 * n)]
        for refused in (lambda: glwe.encrypt(message),
                        lambda: glwe.phase(vector),
                        lambda: GGSWContext(params, glwe).encrypt_scalar(1),
                        lambda: cmux(zero, vector, vector),
                        lambda: blind_rotate_wave([vector, vector], switched, key)):
            with pytest.raises(ValueError, match="not NTT-friendly"):
                refused()
        assert not key._eval_cache


class TestWaveEntryValidation:
    """A ciphertext that does not fit the key is refused, not truncated."""

    def test_single_entry_rejects_wrong_dimension(self, toy_context):
        short = LWECiphertext(a=[1] * 15, b=0, modulus=toy_context.params.modulus)
        with pytest.raises(ValueError, match=r"dimension 16 .* got dimension 15"):
            toy_context.programmable_bootstrap(short)

    def test_batched_entry_rejects_wrong_dimension(self, toy_context):
        good = toy_context.encrypt(1)
        long = LWECiphertext(a=[1] * 17, b=0, modulus=toy_context.params.modulus)
        with pytest.raises(ValueError, match=r"dimension 16 .* got dimension 17"):
            batched_programmable_bootstrap(toy_context, [good, long])

    def test_blind_rotate_rejects_an_unswitched_modulus(self, toy_context):
        ciphertext = toy_context.encrypt(1)
        with pytest.raises(
            ValueError,
            match=rf"2N = 128, got dimension 16 and modulus {ciphertext.modulus}",
        ):
            blind_rotate(toy_context.identity_test_vector(), ciphertext,
                         toy_context.bootstrapping_key)

    def test_keyswitch_rejects_wrong_dimension_or_modulus(self, toy_context):
        params, ksk = toy_context.params, toy_context.keyswitching_key
        width = params.glwe_lwe_dimension
        with pytest.raises(ValueError, match=f"dimension 3 .* expects {width}"):
            batched_lwe_keyswitch(
                [LWECiphertext(a=[0] * 3, b=0, modulus=params.modulus)],
                ksk, params.lwe_dimension)
        with pytest.raises(ValueError, match=f"modulus 97, key expects {width} and"):
            batched_lwe_keyswitch(
                [LWECiphertext(a=[0] * width, b=0, modulus=97)],
                ksk, params.lwe_dimension)


class _CountingBackend(WrappedBackend):
    """Log the kernel name of every top-level call: the inner backend's own
    nested kernel calls are not seen, so only what the TFHE layer dispatches
    is logged."""

    prefix = "counting"

    def __init__(self, inner):
        super().__init__(inner)
        self.log = []

    def _dispatch(self, kernel, func, args, kwargs):
        self.log.append(kernel)
        return func(*args, **kwargs)


class TestResidency:
    """The wave stays in the backend: counted, not timed."""

    @pytest.fixture()
    def hybrid(self):
        context = TFHEContext(TFHEParameters.hybrid(), seed=3)
        ciphertexts = [context.encrypt(i % 4) for i in range(16)]
        return context, ciphertexts, [sign_test_vector(context, 1 << 16)] * 16

    def test_wave_of_sixteen_is_a_fixed_handful_of_dispatches(self, hybrid):
        context, ciphertexts, vectors = hybrid
        counting = _CountingBackend(REFERENCE_BACKEND)
        with use_backend(counting):
            first = batched_programmable_bootstrap(context, ciphertexts, vectors)
            handle = context.bootstrapping_key._eval_cache[counting.name]
            log, counting.log = counting.log, []
            second = batched_programmable_bootstrap(context, ciphertexts, vectors)
        # A fixed handful whatever n_lwe: the CMux loop is one dispatch.
        assert len(log) <= 12
        # From the initial rotation to SampleExtract nothing is read back:
        # the initial rotation, then the whole loop.
        resident = log[log.index("rows_monomial_multiply"):
                       log.index("limbs_signed_permute")]
        assert resident == ["rows_monomial_multiply", "blind_rotate_rows"]
        # The key handle is built once: the second wave only reads it.
        assert context.bootstrapping_key._eval_cache[counting.name] is handle
        assert log.count("ntt_forward_batch") == 1
        assert counting.log.count("ntt_forward_batch") == 0
        assert counting.log.count("pack_limbs") == log.count("pack_limbs") - 2
        assert _same(first, second)

    def test_wrapped_backend_caches_under_its_own_name(self, hybrid):
        context, ciphertexts, vectors = hybrid
        clean = REFERENCE_BACKEND
        with use_backend(clean):
            expected = batched_programmable_bootstrap(
                context, ciphertexts[:2], vectors[:2])
        bsk, ksk = context.bootstrapping_key, context.keyswitching_key
        clean_handle = bsk._eval_cache[clean.name]
        clean_matrices = dict(ksk._flat_cache)
        wrapped = WrappedBackend(clean)
        with use_backend(wrapped):
            outputs = batched_programmable_bootstrap(
                context, ciphertexts[:2], vectors[:2])
        assert _same(outputs, expected)
        assert sorted(bsk._eval_cache) == sorted([clean.name, wrapped.name])
        assert bsk._eval_cache[clean.name] is clean_handle
        assert bsk._eval_cache[wrapped.name] is not clean_handle
        assert {name for name, _ in ksk._flat_cache} == {clean.name, wrapped.name}
        assert all(ksk._flat_cache[key] is value
                   for key, value in clean_matrices.items())

    def test_gate_bootstrap_is_one_pbs_on_the_contexts_pinned_backend(self):
        counting = _CountingBackend(REFERENCE_BACKEND)
        context = TFHEContext(TFHEParameters.toy(), seed=5, backend=counting)
        gates = TFHEGateEvaluator(context)
        a, b = gates.encrypt(True), gates.encrypt(False)
        eighth = context.params.modulus // 8
        with use_backend(PythonBackend()):    # the active backend is not the pinned one
            context.programmable_bootstrap(a)            # builds the key handle
            counting.log = []
            out = gates.nand(a, b)
            gate_log, counting.log = counting.log, []
            reference = context.programmable_bootstrap(
                context.lwe.trivial(eighth) - a - b,
                sign_test_vector(context, eighth))
        assert gate_log.count("rows_monomial_multiply") == 1
        assert gate_log.count("blind_rotate_rows") == 1
        assert gate_log == counting.log
        assert _same([out], [reference])
        assert gates.decrypt(out) is True


_BACKEND_CLASSES = [PythonBackend] + ([NumpyBackend] if NUMPY_BACKENDS else [])


def _public_callables(obj):
    return {name for name in dir(obj)
            if not name.startswith("_") and callable(getattr(obj, name))}


def test_every_override_keeps_the_kernel_signature():
    """Census: a public kernel overridden in a backend takes the parameters
    of its ``ArithmeticBackend`` definition — names, order, kinds, defaults.

    Wrappers (``WrappedBackend`` and its subclasses, the timing backend)
    forward whatever they are given, so an optional argument added to the
    golden kernel and missed in one override would surface only on the
    backend a run did not pick.  Lives here, not beside the caller census in
    ``test_backend_parity.py``, because that module is skipped whole without
    numpy: this one runs on every CI leg (the python backend alone there).
    """
    import inspect

    def parameters(kernel):
        return [(p.name, p.kind, p.default)
                for p in inspect.signature(kernel).parameters.values()]

    mismatched = [
        f"{cls.__name__}.{name}"
        for cls in _BACKEND_CLASSES for name in vars(cls) if name in KERNELS
        and parameters(getattr(cls, name)) != parameters(getattr(ArithmeticBackend, name))
    ]
    assert mismatched == []


class TestWrappedBackend:
    """The one wrapping base: it forwards ``KERNELS``, all of them and
    nothing else, changes no result and counts top-level calls only."""

    def test_forwards_exactly_the_kernels_from_the_class(self):
        wrapped = WrappedBackend(PythonBackend())
        assert _public_callables(wrapped) == set(KERNELS)
        assert all(name in vars(WrappedBackend) for name in KERNELS)
        assert vars(wrapped).keys() == {"inner", "calls", "name"}
        assert wrapped.name == "wrapped:python"

    def test_no_backend_defines_a_kernel_outside_the_list(self):
        """A public callable outside ``KERNELS`` would be missed by every
        wrapper, silently."""
        for cls in _BACKEND_CLASSES:
            assert _public_callables(cls) - set(KERNELS) == set(), cls.__name__

    @pytest.mark.parametrize("inner", [PythonBackend(), *NUMPY_BACKENDS.values()],
                             ids=["python", *NUMPY_BACKENDS])
    def test_results_are_bit_identical_to_the_inner_backend(self, inner):
        params = TFHEParameters.toy()
        wrapped = WrappedBackend(inner)
        outputs = []
        for backend in (inner, wrapped):
            context = TFHEContext(params, seed=9, backend=backend)
            ciphertexts = [context.encrypt(m % 2) for m in range(4)]
            with use_backend(backend):
                outputs.append(batched_programmable_bootstrap(
                    context, ciphertexts, [context.identity_test_vector()] * 4))
        assert _same(outputs[1], outputs[0])
        assert wrapped.calls["rows_monomial_multiply"] == 1
        assert wrapped.calls["blind_rotate_rows"] == 1

    @pytest.mark.skipif(not NUMPY_BACKENDS, reason="numpy backend unavailable")
    def test_a_numpy_fallback_through_super_counts_once(self):
        """Below the crossover the numpy tensor product is the golden one,
        whose three ``limbs_mul`` and one ``limbs_add`` run on ``inner``."""
        inner = NUMPY_BACKENDS["numpy-default"]
        wrapped = WrappedBackend(inner)
        rows, moduli = [[1, 2, 3, 4]], (17,)
        product = wrapped.limbs_tensor_product(rows, rows, rows, rows, moduli)
        assert wrapped.calls == {"limbs_tensor_product": 1}
        assert [inner.store_rows(d) for d in product] == [
            [[1, 4, 9, 16]], [[2, 8, 1, 15]], [[1, 4, 9, 16]]]


class TestGLWEIsOneStore:
    """A GLWE ciphertext is one ``(k + 1, N)`` store: each linear
    homomorphism is one kernel over all of it, and nothing is read back.
    Counted, not timed; the phase checks each result."""

    @pytest.mark.parametrize("glwe_dimension", [1, 2])
    @pytest.mark.parametrize("inner", [PythonBackend(), *NUMPY_BACKENDS.values()],
                             ids=["python", *NUMPY_BACKENDS])
    def test_linear_ops_dispatch_one_kernel(self, inner, glwe_dimension):
        params = TFHEParameters(
            polynomial_size=64, lwe_dimension=4, glwe_dimension=glwe_dimension,
            noise_stddev=0.0, security_bits=0, name=f"tfhe-k{glwe_dimension}")
        n, q = params.polynomial_size, params.modulus
        context = GLWEContext(params, seed=12)
        m1 = _ring(n, q, [params.delta * (i % 3) for i in range(n)])
        m2 = _ring(n, q, [params.delta * (i % 2) for i in range(n)])
        with use_backend(inner):
            a, b = context.encrypt(m1), context.encrypt(m2)
        for kernel, op in (("limbs_add", lambda x, y: x + y),
                           ("limbs_sub", lambda x, y: x - y),
                           ("limbs_neg", lambda x, y: -x),
                           ("limbs_signed_permute",
                            lambda x, y: x.multiply_by_monomial(5))):
            wrapped = WrappedBackend(inner)
            with use_backend(wrapped):
                result = op(a, b)
            assert wrapped.calls == {kernel: 1}, kernel
            assert context.phase(result) == op(m1, m2), kernel


@pytest.mark.skipif(not NUMPY_BACKENDS, reason="numpy backend unavailable")
class TestFreshWaveStores:
    """What a batch transform returns is always a fresh store: it aliases
    neither its input nor an earlier result, so a cached evaluation key is
    never overwritten by the next wave."""

    @pytest.fixture(scope="class")
    def ring(self):
        from repro.fhe.ntt import NTTContext

        q = TFHEParameters.hybrid().modulus
        rng = random.Random(23)

        def rows(count):
            return NUMPY_BACKENDS["numpy"].pack_limbs(
                [[rng.randrange(q) for _ in range(256)] for _ in range(count)],
                (q,) * count)
        return NTTContext(256, q), rows

    @pytest.mark.parametrize("kernel", ["ntt_forward_batch", "ntt_inverse_batch"])
    def test_a_batch_transform_returns_a_fresh_store(self, ring, kernel):
        np = pytest.importorskip("numpy")
        context, rows = ring
        transform = getattr(NUMPY_BACKENDS["numpy"], kernel)
        store = rows(160)
        kept = store.copy()
        out = transform(context, store)
        again = transform(context, store)
        assert not np.shares_memory(out, store) and not np.shares_memory(out, again)
        assert np.array_equal(store, kept) and np.array_equal(out, again)

    def test_waves_of_changing_size_match_the_python_backend(self):
        context = TFHEContext(TFHEParameters.hybrid(), seed=3)
        ciphertexts = [context.encrypt(i % 4) for i in range(16)]
        vectors = [sign_test_vector(context, 1 << 16)] * 16
        with use_backend(PythonBackend()):
            expected = batched_programmable_bootstrap(context, ciphertexts, vectors)
        backend = NumpyBackend()
        params = context.params
        with use_backend(backend):
            key_bytes = context.bootstrapping_key.eval_store(
                _ntt_context(params.polynomial_size, params.modulus), backend
            ).tobytes()
            for size in (16, 4, 16):
                outputs = batched_programmable_bootstrap(
                    context, ciphertexts[:size], vectors[:size])
                assert _same(outputs, expected[:size])
        # Three waves later the cached evaluation key is the bytes it was:
        # it came out of a transform, and no later transform wrote over it.
        assert context.bootstrapping_key._eval_cache[backend.name].tobytes() == key_bytes


def _tfhe_key_material_digest(params, backend):
    """sha256 over everything ``seed=11`` generates for one TFHE instance:
    ``bsk``, ``ksk``, the bridge's ``c2t``/``t2c`` and one fresh encryption."""
    ckks_params, _ = hybrid_query_parameters()
    digest = hashlib.sha256()
    with use_backend(backend):
        secret = CKKSKeyGenerator(ckks_params, seed=11, error_stddev=0.0).generate().secret
        tfhe = TFHEContext(params, seed=11, backend=backend)
        bridge = SchemeBridge(ckks_params, secret, tfhe, seed=11)
        for ggsw in tfhe.bootstrapping_key.ggsw_rows:
            for row in ggsw_coefficient_rows(ggsw):
                digest.update(repr(list(row)).encode())
        for ksk in (tfhe.keyswitching_key, bridge.c2t, bridge.t2c):
            for row in ksk.rows:
                for lwe in row:
                    digest.update(repr((list(lwe.a), lwe.b)).encode())
        fresh = tfhe.encrypt(1)
        digest.update(repr((list(fresh.a), fresh.b)).encode())
    return digest.hexdigest()


class TestTFHEKeyMaterialPinned:
    """TFHE and bridge keys did not change — as a test, not a claim.

    The digests were recorded at the commit *before* LWE masks moved onto
    ``sample_uniform_limbs`` (one ``randrange`` per mask coefficient), where
    both backends already agreed.
    """

    PINNED = {
        "hybrid": "95c4824b941a24ad1aac244c25f7389e9530f0672627e514769464fc3f0bb36e",
        "toy": "07fd94c27be01b4d66eea3c1cb9ddae220ee734b000a4cc00886f375f3cb0cf9",
    }

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_digest_matches_parent_commit(self, name, backend):
        params = getattr(TFHEParameters, name)()
        assert _tfhe_key_material_digest(params, backend) == self.PINNED[name]


def _wave_output_digest(backend):
    """sha256 over the sixteen ``(a, b)`` outputs of one sign-PBS wave."""
    digest = hashlib.sha256()
    with use_backend(backend):
        context = TFHEContext(TFHEParameters.hybrid(), seed=3)
        ciphertexts = [context.encrypt(i % 4) for i in range(16)]
        vectors = [sign_test_vector(context, 1 << 16)] * 16
        for lwe in batched_programmable_bootstrap(context, ciphertexts, vectors):
            digest.update(repr((list(lwe.a), lwe.b)).encode())
    return digest.hexdigest()


class TestWaveOutputPinned:
    """A wave of sixteen bootstraps still produces the same ciphertexts.

    The TFHE twin of ``TestEvaluationPinned``: the digest was recorded at the
    commit *before* the blind rotation's transforms took a caller-owned
    scratch and its MAC started reducing once per group (fresh temporaries,
    one ``%`` per product), where both backends already agreed.
    """

    PINNED = "c5aecb526dc94bb99b300f2f97cc5bdc8b60d066acc9642730b410a16c31f208"

    @pytest.mark.parametrize("backend", available_backends())
    def test_digest_matches_parent_commit(self, backend):
        assert _wave_output_digest(backend) == self.PINNED
