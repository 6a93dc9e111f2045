"""Differential tests: the numpy backend must agree bit-for-bit with python.

The python backend is the golden reference (the original seed
implementation).  For every ported kernel these tests run both backends on
identical randomized (seeded) inputs across every prime/degree combination
the parameter sets in :mod:`repro.fhe.params` produce — CKKS toy/small RNS
chains and special moduli (40-42 bit), the TFHE 32-bit primes, plus stress
primes up to the 61-62-bit word cap — and assert exact equality.

The numpy backend under test is constructed with both crossover thresholds
at 0 so the vectorized code paths are exercised even at tiny ring degrees
(with default thresholds small inputs would silently take the python
fallback and the comparison would be vacuous).
"""

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

try:
    import numpy as np
except ImportError:  # the whole module is skipped below
    np = None

from repro.fhe import backend as backend_module
from repro.fhe import modmath, native
from repro.fhe.backend import (
    KERNELS,
    ArithmeticBackend,
    NumpyBackend,
    PythonBackend,
    available_backends,
    get_backend,
    set_active_backend,
    use_backend,
)
from repro.fhe.ckks.context import CKKSContext
from repro.fhe.ckks.encoder import CKKSEncoder
from repro.fhe.ckks.evaluator import CKKSEvaluator
from repro.fhe.ckks.keys import galois_element_for_rotation
from repro.fhe.ntt import NTTContext
from repro.fhe.params import CKKSParameters, TFHEParameters
from repro.fhe.polynomial import (
    automorphism_spec,
    galois_eval_spec,
    monomial_spec,
    sample_ternary,
)
from repro.fhe.program import HETrace, ProgramExecutor, plan_program
from repro.fhe.rns import (
    RNSBasis,
    RNSPolynomial,
    _bconv_plan,
    exact_basis_conversion,
    fast_basis_conversion,
    sample_batch,
    sample_error,
)
from repro.fhe.tfhe.pbs import TFHEContext

numpy_missing = "numpy" not in available_backends()
pytestmark = pytest.mark.skipif(numpy_missing, reason="numpy backend unavailable")

PYTHON = PythonBackend()
#: Thresholds at 0: force the vectorized path at every size.
NUMPY = None if numpy_missing else NumpyBackend(min_vector_length=0, min_ntt_length=0)
#: Crossovers above every store and ring these tests build.
ABOVE_EVERY_SIZE = 1 << 62


class _NoEntryPoints:
    """A library whose every entry point fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"{name} ran below the crossovers")


@pytest.fixture
def below_the_crossovers(monkeypatch):
    """``NUMPY`` with its crossovers above every size, for the test: each
    store kernel is the golden body, handed numpy stores, and no library
    entry point is reachable (its transform tables start empty, so none
    built at the zero crossovers serves the test)."""
    monkeypatch.setattr(NUMPY, "min_vector_length", ABOVE_EVERY_SIZE)
    monkeypatch.setattr(NUMPY, "min_ntt_length", ABOVE_EVERY_SIZE)
    monkeypatch.setattr(NUMPY, "_ntt_tables", {})
    monkeypatch.setattr(NUMPY, "_lib", _NoEntryPoints())


def _parameter_set_moduli():
    """Every (modulus, ring_degree) pair the functional parameter sets use."""
    combos = []
    for params in (CKKSParameters.toy(), CKKSParameters.small(ring_degree=256)):
        for q in params.moduli:
            combos.append((q, params.ring_degree))
        for p in params.special_moduli:
            combos.append((p, params.ring_degree))
    for params in (TFHEParameters.toy(), TFHEParameters.small()):
        combos.append((params.modulus, params.polynomial_size))
    # Stress the word-size boundary of the vectorized backend: the largest
    # primes the paper's parameter space can produce are <= 61 bits.
    combos.append((modmath.find_ntt_prime(58, 64), 64))
    combos.append((modmath.find_ntt_prime(61, 128), 128))
    combos.append((modmath.find_ntt_prime(62, 64), 64))
    # De-duplicate while keeping order for stable test IDs.
    seen = set()
    unique = []
    for combo in combos:
        if combo not in seen:
            seen.add(combo)
            unique.append(combo)
    return unique


MODULUS_COMBOS = _parameter_set_moduli()


def _vectors(q, n, seed, count=2):
    rng = random.Random((seed * 0x9E3779B1 + q + n) & 0xFFFFFFFF)
    return [[rng.randrange(q) for _ in range(n)] for _ in range(count)]


@pytest.mark.parametrize("q,n", MODULUS_COMBOS)
class TestElementwiseParity:
    def test_add_sub_neg(self, q, n):
        """On one-row stores and through the ring ops of a one-limb
        :class:`RNSPolynomial` built on them."""
        a, b = _vectors(q, n, 1)
        moduli = (q,)
        sa, sb = NUMPY.pack_limbs([a], moduli), NUMPY.pack_limbs([b], moduli)
        golden = [PYTHON.limbs_add([a], [b], moduli), PYTHON.limbs_sub([a], [b], moduli),
                  PYTHON.limbs_neg([a], moduli)]
        assert golden == [[[(x + y) % q for x, y in zip(a, b)]],
                          [[(x - y) % q for x, y in zip(a, b)]], [[-x % q for x in a]]]
        assert [_rows(NUMPY.limbs_add(sa, sb, moduli)), _rows(NUMPY.limbs_sub(sa, sb, moduli)),
                _rows(NUMPY.limbs_neg(sa, moduli))] == golden
        for backend in (PYTHON, NUMPY):
            with use_backend(backend):
                x, y = _ring(n, q, a), _ring(n, q, b)
                assert [(x + y).coefficient_rows(), (x - y).coefficient_rows(),
                        (-x).coefficient_rows()] == golden

    def test_mul(self, q, n):
        a, b = _vectors(q, n, 2)
        moduli = (q,)
        sa, sb = NUMPY.pack_limbs([a], moduli), NUMPY.pack_limbs([b], moduli)
        golden = PYTHON.limbs_mul([a], [b], moduli)
        assert golden == [[x * y % q for x, y in zip(a, b)]]
        assert _rows(NUMPY.limbs_mul(sa, sb, moduli)) == golden

    def test_scalar_mul(self, q, n):
        (a,) = _vectors(q, n, 3, count=1)
        moduli = (q,)
        sa = NUMPY.pack_limbs([a], moduli)
        for scalar in (0, 1, q - 1, q // 3):
            golden = PYTHON.limbs_scalar_mul([a], [scalar], moduli)
            assert golden == [[x * scalar % q for x in a]]
            assert _rows(NUMPY.limbs_scalar_mul(sa, [scalar], moduli)) == golden
            for backend in (PYTHON, NUMPY):
                with use_backend(backend):
                    assert (_ring(n, q, a) * scalar).coefficient_rows() == golden

    def test_batched_sub_scaled(self, q, n):
        a, b = _vectors(q, n, 4)
        moduli = (q,)
        sa, sb = NUMPY.pack_limbs([a], moduli), NUMPY.pack_limbs([b], moduli)
        for scalar in (1, q - 1, q // 7 + 1, -(1 << 70) - 3):
            golden = PYTHON.batched_sub_scaled([a], [b], [scalar], moduli)
            assert golden == [[((x - y) * scalar) % q for x, y in zip(a, b)]]
            # A full store, and one row shared by every limb.
            assert _rows(NUMPY.batched_sub_scaled(sa, sb, [scalar], moduli)) == golden
            assert _rows(NUMPY.batched_sub_scaled(
                sa, sb[0], [scalar], moduli, b_modulus=q)) == golden

    def test_weighted_sum(self, q, n):
        """One weight vector against four rows: ``mat_mulmod`` lists in,
        lists out, as the LWE keyswitch calls it."""
        rows = _vectors(q, n, 5, count=4)
        rng = random.Random(q ^ n)
        weights = [rng.randrange(q) for _ in rows]
        expected = [[sum(w * x for w, x in zip(weights, column)) % q
                     for column in zip(*rows)]]
        assert PYTHON.mat_mulmod([weights], rows, q) == expected
        assert NUMPY.mat_mulmod([weights], rows, q) == expected

    def test_limb_kernels_are_plain_modular_arithmetic(self, q, n):
        """The element-wise store kernels on a two-limb store of this
        modulus, on both backends, against their integer definitions."""
        a, b, c, d = _vectors(q, n, 20, count=4)
        moduli, scalars = (q, q), [q // 5 + 1, q - 2]
        add = [[(x + y) % q for x, y in zip(u, v)] for u, v in ((a, b), (c, d))]
        sub = [[(x - y) % q for x, y in zip(u, v)] for u, v in ((a, b), (c, d))]
        mul = [[x * y % q for x, y in zip(u, v)] for u, v in ((a, b), (c, d))]
        neg = [[-x % q for x in u] for u in (a, c)]
        scaled = [[x * s % q for x in u] for u, s in zip((a, c), scalars)]
        cross = [[(x * w + y * z) % q for x, y, z, w in zip(a, b, c, d)]]
        for backend, pack in ((PYTHON, lambda rows: rows),
                              (NUMPY, lambda rows: NUMPY.pack_limbs(rows, moduli[:len(rows)]))):
            sa, sb = pack([a, c]), pack([b, d])
            assert _rows(backend.limbs_add(sa, sb, moduli)) == add
            assert _rows(backend.limbs_sub(sa, sb, moduli)) == sub
            assert _rows(backend.limbs_mul(sa, sb, moduli)) == mul
            assert _rows(backend.limbs_neg(sa, moduli)) == neg
            assert _rows(backend.limbs_scalar_mul(sa, scalars, moduli)) == scaled
            # One limb of ``(a + b Y)(c + d Y)``: a c, a d + b c, b d.
            d0, d1, d2 = backend.limbs_tensor_product(
                pack([a]), pack([b]), pack([c]), pack([d]), (q,))
            assert _rows(d0) == [[x * z % q for x, z in zip(a, c)]]
            assert _rows(d1) == cross
            assert _rows(d2) == [[y * w % q for y, w in zip(b, d)]]


@pytest.mark.parametrize("q,n", MODULUS_COMBOS)
class TestNTTParity:
    def test_forward_inverse(self, q, n):
        """:meth:`NTTContext.forward` / ``inverse`` on each backend, and the
        one-row store through ``batched_ntt`` / ``batched_intt``."""
        golden_context = NTTContext(n, q, backend=PYTHON)
        context = NTTContext(n, q, backend=NUMPY)
        (a,) = _vectors(q, n, 6, count=1)
        fwd_py = golden_context.forward(a)
        fwd_np = context.forward(a)
        assert fwd_np == fwd_py
        assert context.inverse(fwd_np) == golden_context.inverse(fwd_py) == a
        out = NUMPY.batched_ntt([context], NUMPY.pack_limbs([a], (q,)))
        assert _rows(out) == [fwd_py]
        assert _rows(NUMPY.batched_intt([context], out)) == [a]

    def test_negacyclic_convolution(self, q, n):
        golden_context = NTTContext(n, q, backend=PYTHON)
        context = NTTContext(n, q, backend=NUMPY)
        a, b = _vectors(q, n, 7)
        golden = golden_context.negacyclic_convolution(a, b)
        assert context.negacyclic_convolution(a, b) == golden
        sa, sb = (NUMPY.pack_limbs([row], (q,)) for row in (a, b))
        assert _rows(NUMPY.limbs_convolution([context], sa, sb)) == [golden]

    def test_batched_transforms_are_per_limb(self, q, n):
        """``batched_ntt`` / ``batched_intt`` over a three-limb store of this
        modulus are the golden transforms of its rows, limb by limb."""
        context = NTTContext(n, q)
        rows = _vectors(q, n, 8, count=3)
        contexts = (context,) * len(rows)
        forward = PYTHON.ntt_forward_batch(context, rows)
        assert PYTHON.batched_ntt(contexts, rows) == forward
        out = NUMPY.batched_ntt(contexts, NUMPY.pack_limbs(rows, (q,) * len(rows)))
        assert _rows(out) == forward
        assert _rows(NUMPY.batched_intt(contexts, out)) == rows
        assert PYTHON.batched_intt(contexts, forward) == rows

    def test_stacked_transforms_and_limb_convolution(self, q, n):
        """Several stores through one stacked dispatch equal one batched
        transform per store; the limb convolution is the row convolution."""
        context = NTTContext(n, q)
        stores = [_vectors(q, n, 9 + k, count=2) for k in range(3)]
        contexts = (context, context)
        packed = [NUMPY.pack_limbs(rows, (q, q)) for rows in stores]
        forward = [PYTHON.batched_ntt(contexts, rows) for rows in stores]
        assert PYTHON.stacked_ntt(contexts, stores) == forward
        out = NUMPY.stacked_ntt(contexts, packed)
        assert [_rows(store) for store in out] == forward
        assert [_rows(store) for store in NUMPY.stacked_intt(contexts, out)] == stores
        golden = PYTHON.limbs_convolution(contexts, stores[0], stores[1])
        assert _rows(NUMPY.limbs_convolution(contexts, packed[0], packed[1])) == golden


@pytest.mark.usefixtures("below_the_crossovers")
class TestNTTParityBelowTheCrossovers(TestNTTParity):
    """Every :class:`TestNTTParity` leg again below the crossovers: no
    transform tables, so each numpy transform kernel is the golden one,
    handed numpy stores, and no library entry point runs."""


def _unreduced_entry_points(backend, n, q, a, b):
    """What the entry points that take unreduced integers return on
    ``backend``: a one-limb ``RNSPolynomial``, its sum and ``reduce_limbs``, plus the
    ring product and the three :class:`NTTContext` methods when ``q`` is an
    NTT prime."""
    with use_backend(backend):
        x, y = _ring(n, q, a), _ring(n, q, b)
        out = [_row(x), _row(x + y),
               _rows(backend.reduce_limbs(a, (q,), n))]
        if modmath.is_prime(q) and (q - 1) % (2 * n) == 0:
            context = NTTContext(n, q)
            out += [_row(x * y), context.forward(a),
                    context.inverse(b), context.negacyclic_convolution(a, b)]
    return out


class TestUnreducedInputParity:
    """Backends must agree even on not-yet-reduced / negative inputs."""

    def test_out_of_range_values(self):
        q = modmath.find_ntt_prime(40, 64)
        rng = random.Random(11)
        a = [rng.randrange(-5 * q, 5 * q) for _ in range(64)]
        b = [rng.randrange(2**70) for _ in range(64)]
        golden = _unreduced_entry_points(PYTHON, 64, q, a, b)
        assert golden[0] == [v % q for v in a]
        assert len(golden) == 7
        assert _unreduced_entry_points(NUMPY, 64, q, a, b) == golden

    def test_big_modulus_falls_back_exactly(self):
        # A CRT-product modulus far beyond 62 bits must still work on the
        # numpy backend (via its exact python fallback).
        q = (1 << 100) + 7
        rng = random.Random(12)
        a = [rng.randrange(-q, 2 * q) for _ in range(32)]
        b = [rng.randrange(q) for _ in range(32)]
        golden = _unreduced_entry_points(PYTHON, 32, q, a, b)
        assert golden[0] == [v % q for v in a]
        assert _unreduced_entry_points(NUMPY, 32, q, a, b) == golden


class TestRNSParity:
    def _rns_poly(self, params, seed):
        basis = params.basis()
        rng = random.Random(seed)
        coeffs = [rng.randrange(basis.product) for _ in range(params.ring_degree)]
        return RNSPolynomial.from_integer_coefficients(params.ring_degree, basis, coeffs)

    def test_rescale_parity(self):
        params = CKKSParameters.toy(ring_degree=128)
        poly = self._rns_poly(params, 13)
        with use_backend(PYTHON):
            expected = poly.rescale()
        with use_backend(NUMPY):
            actual = poly.rescale()
        assert actual == expected

    def test_fast_basis_conversion_parity(self):
        params = CKKSParameters.toy(ring_degree=128)
        poly = self._rns_poly(params, 14)
        target = RNSBasis(list(params.special_moduli))
        with use_backend(PYTHON):
            expected = fast_basis_conversion(poly, target)
        with use_backend(NUMPY):
            actual = fast_basis_conversion(poly, target)
        assert actual == expected
        # And the approximate conversion stays within the documented slack of
        # the exact one regardless of backend (sanity, not parity).
        exact = exact_basis_conversion(poly, target)
        assert actual.ring_degree == exact.ring_degree

    def test_polynomial_ops_parity(self):
        q = modmath.find_ntt_prime(40, 256)
        rng = random.Random(15)
        a = _ring(256, q, [rng.randrange(q) for _ in range(256)])
        b = _ring(256, q, [rng.randrange(q) for _ in range(256)])
        with use_backend(PYTHON):
            expected = (a + b, a - b, -a, a * b, a * 12345)
        with use_backend(NUMPY):
            actual = (a + b, a - b, -a, a * b, a * 12345)
        assert actual == expected


def _sampler_moduli_sets():
    """Every modulus tuple the parameter sets sample under, plus edge cases."""
    sets = []
    for params in (CKKSParameters.toy(), CKKSParameters.small(ring_degree=256)):
        sets.append(tuple(params.moduli) + tuple(params.special_moduli))
    for params in (TFHEParameters.toy(), TFHEParameters.small()):
        sets.append((params.modulus,))
    # One- and two-word draws, the worst acceptance rate (a power of two
    # rejects half the candidates), and the word cap.
    sets += [(2,), (3,), (1 << 32,), (modmath.find_ntt_prime(36, 64),),
             (modmath.find_ntt_prime(62, 64),)]
    return sets


class _SubclassedRandom(random.Random):
    """A subclass may override the primitives, so it must take the golden loop."""


class TestSamplerParity:
    """``sample_uniform_limbs``: same values *and* same generator state."""

    @pytest.mark.parametrize("length", [1, 7, 256])
    @pytest.mark.parametrize("moduli", _sampler_moduli_sets(),
                             ids=lambda m: f"{len(m)}x{max(m).bit_length()}b")
    def test_values_and_stream_match_golden(self, moduli, length):
        fast_rng, golden_rng = random.Random(length), random.Random(length)
        actual = NUMPY.sample_uniform_limbs(fast_rng, moduli, length)
        expected = PYTHON.sample_uniform_limbs(golden_rng, moduli, length)
        assert isinstance(actual, np.ndarray)       # not the silent fallback
        assert actual.tolist() == expected
        assert fast_rng.getstate() == golden_rng.getstate()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), q=st.integers(2, 2**62 - 1),
           length=st.integers(0, 48))
    def test_any_seed_modulus_length(self, seed, q, length):
        fast_rng, golden_rng = random.Random(seed), random.Random(seed)
        actual = NUMPY.sample_uniform_limbs(fast_rng, (q, q), length)
        assert actual.tolist() == PYTHON.sample_uniform_limbs(golden_rng, (q, q), length)
        assert fast_rng.getstate() == golden_rng.getstate()

    @pytest.mark.parametrize("rng_type,q", [
        (_SubclassedRandom, 97),
        (random.Random, (1 << 62) + 57),            # 63 bits: above the word cap
    ])
    def test_fallback_is_the_golden_loop(self, rng_type, q):
        fast_rng, golden_rng = rng_type(5), rng_type(5)
        actual = NUMPY.sample_uniform_limbs(fast_rng, (q,), 33)
        assert actual == PYTHON.sample_uniform_limbs(golden_rng, (q,), 33)
        assert fast_rng.getstate() == golden_rng.getstate()

    def test_polynomial_sampler_shares_the_kernel(self):
        q = TFHEParameters.small().modulus
        golden_rng = random.Random(8)
        expected = _ring(64, q, [golden_rng.randrange(q) for _ in range(64)])
        for backend in (PYTHON, NUMPY):
            with use_backend(backend):
                assert RNSPolynomial.sample_uniform(
                    64, RNSBasis([q]), random.Random(8)) == expected


    @pytest.mark.parametrize("degree", [64, 1024, 2048])
    def test_ternary_sampler_is_the_choice_loop(self, degree):
        """The dense ternary draw is the uniform kernel under ``(3,)`` minus
        one: the values of ``rng.choice((-1, 0, 1))`` per coefficient, and
        the generator left where that loop leaves it."""
        for seed in range(20):
            golden_rng = random.Random(seed)
            expected = [golden_rng.choice((-1, 0, 1)) for _ in range(degree)]
            for backend in (PYTHON, NUMPY):
                with use_backend(backend):
                    rng = random.Random(seed)
                    assert sample_ternary(degree, rng) == expected
                    assert rng.getstate() == golden_rng.getstate()


class _CountingMath:
    """``math`` with its ``log`` calls counted (one per scalar recomputation
    in the block gaussian sampler)."""

    def __init__(self):
        self.logs = 0

    def log(self, x):
        self.logs += 1
        return math.log(x)

    def __getattr__(self, name):
        return getattr(math, name)


class TestErrorSamplerParity:
    """``sample_error_limbs``: the block draw returns the integers of the
    scalar ``round(rng.gauss(0.0, stddev))`` loop and leaves the generator —
    ``gauss_next`` included — where that loop leaves it."""

    #: 30-, 32- and 40-bit limbs: both word sizes of the reduction.
    MODULI = tuple(modmath.find_ntt_prime(bits, 64) for bits in (30, 32, 40))

    def _both(self, seed, length, pending, stddev=3.2, moduli=MODULI,
              rng_type=random.Random):
        fast_rng, golden_rng = rng_type(seed), rng_type(seed)
        if pending:                     # an earlier scalar draw left its twin
            assert fast_rng.gauss(0.0, 1.0) == golden_rng.gauss(0.0, 1.0)
            assert fast_rng.gauss_next is not None
        actual = NUMPY.sample_error_limbs(fast_rng, moduli, length, stddev)
        expected = PYTHON.sample_error_limbs(golden_rng, moduli, length, stddev)
        assert isinstance(actual, np.ndarray) and actual.dtype == np.uint64
        assert actual.tolist() == expected
        assert fast_rng.getstate() == golden_rng.getstate()
        assert fast_rng.gauss_next == golden_rng.gauss_next
        return expected

    @pytest.mark.parametrize("pending", [False, True], ids=["fresh", "twin-pending"])
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 64, 255, 1024])
    def test_values_and_stream_match_golden(self, length, pending):
        rows = self._both(length, length, pending)
        assert [len(row) for row in rows] == [length] * len(self.MODULI)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(0, 70),
           pending=st.booleans(),
           stddev=st.sampled_from([3.2, 0.4, 1.0, 19.5, 1024.0]))
    def test_any_seed_length_twin_and_stddev(self, seed, length, pending, stddev):
        self._both(seed, length, pending, stddev)

    @pytest.mark.parametrize("guard,recomputed", [(0.5, "all"), (0.0, "none")])
    def test_guard_path_agrees(self, monkeypatch, guard, recomputed):
        """Every entry redone with ``math`` (guard 1/2), none (guard 0) and
        the shipped guard all give the golden integers."""
        counting = _CountingMath()
        monkeypatch.setattr(backend_module, "_GAUSS_GUARD", guard)
        monkeypatch.setattr(backend_module, "math", counting)
        for seed, length, pending in [(1, 600, False), (2, 257, True), (3, 2, False)]:
            counting.logs = 0
            self._both(seed, length, pending)
            block = (length - pending) // 2 * 2
            assert counting.logs == (block if recomputed == "all" else 0)

    def test_shipped_guard_is_wide_and_rarely_taken(self):
        """The guard is far wider than any numpy-vs-libm difference yet
        catches almost nothing: 2^16 draws agree and recompute a handful."""
        counting = _CountingMath()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backend_module, "math", counting)
            self._both(16, 1 << 16, False, moduli=self.MODULI[:1])
        assert counting.logs <= 8       # expected 2 * 2^-20 * 2^16 = 1/8

    @pytest.mark.parametrize("rng_type,q,stddev", [
        (_SubclassedRandom, 97, 3.2),
        (random.Random, (1 << 62) + 57, 3.2),       # 63 bits: above the word cap
        (random.Random, 97, float(1 << 17)),        # draws too wide for the guard
    ])
    def test_fallback_is_the_golden_loop(self, monkeypatch, rng_type, q, stddev):
        def no_block(*args):
            raise AssertionError("block draw on a fallback input")

        monkeypatch.setattr(NumpyBackend, "_gauss_pairs", staticmethod(no_block))
        fast_rng, golden_rng = rng_type(5), rng_type(5)
        actual = NUMPY.sample_error_limbs(fast_rng, (q,), 33, stddev)
        expected = PYTHON.sample_error_limbs(golden_rng, (q,), 33, stddev)
        assert _rows(actual) == expected
        assert fast_rng.getstate() == golden_rng.getstate()

    def test_polynomial_sampler_shares_the_kernel(self):
        q = TFHEParameters.small().modulus
        golden_rng = random.Random(8)
        expected = _ring(
            64, q, [round(golden_rng.gauss(0.0, 3.2)) for _ in range(64)])
        for backend in (PYTHON, NUMPY):
            with use_backend(backend):
                rng = random.Random(8)
                assert sample_error(64, RNSBasis([q]), rng, 3.2) == expected
                assert rng.getstate() == golden_rng.getstate()


#: Bases of the batch sampler's parity: both word sizes, the ternary draw's
#: modulus and one 63-bit modulus, above the numpy backend's word cap.
_BATCH_BASES = [
    (modmath.find_ntt_prime(30, 64), modmath.find_ntt_prime(32, 64)),
    (modmath.find_ntt_prime(40, 64),), (3,), ((1 << 62) + 57,),
]


class TestSampleBatchParity:
    """``sample_limbs``: one store per draw, the golden loop's, and the
    generator left where that loop leaves it — through the native pass and
    through every fallback to the golden loop: a ``random.Random``
    subclass, a pending ``gauss_next``, an odd length before an error draw,
    a ``stddev`` above 2^16 and a 63-bit modulus."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(0, 40),
           subclassed=st.booleans(), pending=st.booleans(),
           draws=st.lists(st.tuples(
               st.sampled_from(_BATCH_BASES),
               st.sampled_from([None, None, 3.2, 0.5, 19.5, float(1 << 17)])),
               max_size=6))
    def test_any_batch(self, seed, length, subclassed, pending, draws):
        rng_type = _SubclassedRandom if subclassed else random.Random
        fast_rng, golden_rng = rng_type(seed), rng_type(seed)
        if pending:
            assert fast_rng.gauss(0.0, 1.0) == golden_rng.gauss(0.0, 1.0)
        actual = NUMPY.sample_limbs(fast_rng, draws, length)
        expected = PYTHON.sample_limbs(golden_rng, draws, length)
        assert [_rows(store) for store in actual] == expected
        assert fast_rng.getstate() == golden_rng.getstate()

    def test_a_key_group_is_its_draws_one_by_one(self):
        """At ``client_keygen_encrypt``'s shape (masks and errors over 12
        limbs of N = 1024, key by key), the batch returns what the per-draw
        samplers return, in the same stream, on the numpy backend."""
        params = CKKSParameters(ring_degree=1024, max_level=8, dnum=3, scale_bits=26,
                                modulus_bits=30, special_modulus_bits=32,
                                security_bits=0)
        moduli = tuple(params.extended_basis(params.max_level).moduli)
        draws = [(moduli, stddev) for _ in range(6) for stddev in (None, 3.2)]
        fast_rng, golden_rng = random.Random(9), random.Random(9)
        actual = NUMPY.sample_limbs(fast_rng, draws, 1024)
        for store, (basis, stddev) in zip(actual, draws):
            expected = (NUMPY.sample_uniform_limbs(golden_rng, basis, 1024)
                        if stddev is None
                        else NUMPY.sample_error_limbs(golden_rng, basis, 1024, stddev))
            assert np.array_equal(store, expected)
        assert fast_rng.getstate() == golden_rng.getstate()

    def test_polynomial_batch_is_the_per_draw_calls(self):
        """``sample_batch`` draws what ``RNSPolynomial.sample_uniform`` and
        ``sample_error`` draw one after another; an error at ``stddev <= 0``
        is zero and draws nothing."""
        basis = RNSBasis(list(_BATCH_BASES[0]))
        draws = [(basis, None), (basis, 0.0), (basis, 3.2), (basis, -1.0), (basis, None)]
        for backend in (PYTHON, NUMPY):
            with use_backend(backend):
                rng, golden = random.Random(4), random.Random(4)
                expected = [RNSPolynomial.sample_uniform(64, basis, golden)
                            if stddev is None else sample_error(64, basis, golden, stddev)
                            for _, stddev in draws]
                assert sample_batch(64, rng, draws) == expected
                assert rng.getstate() == golden.getstate()


class TestReduceLimbsParity:
    MODULI = (97, modmath.find_ntt_prime(30, 64), modmath.find_ntt_prime(61, 128))

    def _both(self, coefficients, length=16):
        actual = NUMPY.reduce_limbs(coefficients, self.MODULI, length)
        expected = PYTHON.reduce_limbs(coefficients, self.MODULI, length)
        assert NUMPY.store_rows(actual) == expected
        return actual, expected

    def test_negative_and_unreduced_inputs(self):
        rng = random.Random(21)
        coefficients = [rng.randrange(-(1 << 63), 1 << 63) for _ in range(14)]
        coefficients += [-(1 << 63), (1 << 63) - 1]
        actual, expected = self._both(coefficients)
        assert isinstance(actual, np.ndarray)
        assert expected[0][:3] == [c % 97 for c in coefficients[:3]]

    def test_short_input_is_zero_padded(self):
        actual, expected = self._both([-1, 2, -3])
        assert isinstance(actual, np.ndarray)
        assert [row[3:] for row in expected] == [[0] * 13] * 3
        self._both(())

    def test_beyond_int64_falls_back_exactly(self):
        actual, _ = self._both([1 << 63, -(1 << 63) - 1, 3**80, -(5**60)])
        assert isinstance(actual, list)

    def test_over_long_input_raises(self):
        for backend in (NUMPY, PYTHON):
            with pytest.raises(ValueError, match="too many coefficients"):
                backend.reduce_limbs([1] * 17, self.MODULI, 16)
        with pytest.raises(ValueError, match="too many coefficients"):
            RNSPolynomial.from_integer_coefficients(4, RNSBasis([97, 193]), [1] * 5)


#: (modulus, ring degree) pairs the wave kernels must agree on: the TFHE
#: word sizes (31 and 32 bit, direct products), a 36-bit prime on the
#: Montgomery path, and a 63-bit one above ``NUMPY_MAX_MODULUS_BITS`` that
#: must take the golden loops.
WAVE_COMBOS = [
    (TFHEParameters.hybrid().modulus, 256),
    (TFHEParameters.toy().modulus, 64),
    (modmath.find_ntt_prime(36, 64), 64),
    (modmath.find_ntt_prime(63, 32), 32),
]


def _wave_store(q, n, rows, seed):
    rng = random.Random(seed * 7919 + q % 1009 + n)
    return [[rng.randrange(q) for _ in range(n)] for _ in range(rows)]


def _rows(store):
    return PYTHON.store_rows(store)


def _ring(n, q, coefficients):
    """The one-limb polynomial of ``coefficients`` over ``RNSBasis([q])``."""
    return RNSPolynomial.from_integer_coefficients(n, RNSBasis([q]), coefficients)


def _row(poly):
    (row,) = poly.coefficient_rows()
    return row


def _decompose_reference(row, q, factors):
    """The signed gadget digits of one row, most significant first: each
    coefficient centred (``modmath.centered``), then the greedy rounded
    quotient per factor, reduced into ``[0, q)``."""
    digits = [[0] * len(row) for _ in factors]
    for idx, value in enumerate(row):
        residual = modmath.centered(value, q)
        for level, factor in enumerate(factors):
            digit = 0 if factor == 0 else (2 * residual + factor) // (2 * factor)
            residual -= digit * factor
            digits[level][idx] = digit % q
    return digits


def _primes(bits, count, skip=0):
    """``count`` distinct primes just below ``2^bits`` (after ``skip``)."""
    return tuple(modmath.find_ntt_primes(bits, 64, skip + count)[skip:])


def _edge_store(moduli, seed, n=64):
    """Rows under ``moduli``: the first half of every row at ``q - 1``, the
    rest uniform."""
    rng = random.Random(seed)
    return [[q - 1] * (n // 2) + [rng.randrange(q) for _ in range(n // 2)]
            for q in moduli]


def _reference_lift(rows, moduli):
    """The python path the kernel replaced: ``RNSBasis.reconstruct`` once per
    coefficient, then ``modmath.centered``."""
    basis = RNSBasis(moduli)
    return [modmath.centered(basis.reconstruct(residues), basis.product)
            for residues in zip(*rows)]


#: Nine NTT primes per limb width the lift is checked at.
_LIFT_PRIMES = {bits: _primes(bits, 9) for bits in (30, 40, 62)}


def _lift_edges(moduli):
    """Values around what one word certifies (``+-P/2``, ``P`` the prefix
    product) and around the wrap of the whole basis (``+-Q/2``)."""
    prefix, _ = backend_module._garner_prefix(tuple(moduli))
    product = math.prod(moduli)
    return [sign * (bound // 2) + delta
            for bound in (prefix, product) for sign in (1, -1)
            for delta in (-1, 0, 1, 2)] + [0, 1, -1]


class TestCenteredLiftParity:
    """``limbs_centered_lift``: python == numpy == ``reconstruct`` +
    ``centered`` for every store — certified by the word-sized prefix or
    lifted by the golden CRT, never assumed small."""

    def _both(self, values, moduli):
        rows = [[v % q for v in values] for q in moduli]
        expected = _reference_lift(rows, moduli)
        assert PYTHON.limbs_centered_lift(rows, moduli) == expected
        # Non-array stores and the packed one.
        for store in (rows, [tuple(row) for row in rows],
                      np.array(rows, dtype=np.uint64)):
            actual = NUMPY.limbs_centered_lift(store, moduli)
            assert actual == expected
            assert all(type(c) is int for c in actual)
        return expected

    @pytest.mark.parametrize("params", [
        CKKSParameters.toy(),
        CKKSParameters.small(ring_degree=256),
        CKKSParameters(ring_degree=256, max_level=8, dnum=3, scale_bits=26,
                       modulus_bits=30, special_modulus_bits=32, security_bits=0),
    ], ids=lambda p: f"{p.modulus_bits}bit-L{p.max_level}")
    def test_params_bases(self, params):
        """Every level's basis and the widest keyswitch basis: messages of a
        few, ``scale``, ``scale^2`` and ``Q`` bits, both signs."""
        rng = random.Random(params.modulus_bits)
        bases = [params.basis(level) for level in range(params.max_level + 1)]
        bases.append(params.extended_basis(params.max_level))
        for basis in bases:
            widths = (3, params.scale_bits + 4, 2 * params.scale_bits + 4,
                      basis.product.bit_length() + 2)
            values = [rng.randrange(-(1 << bits), 1 << bits)
                      for bits in widths for _ in range(8)]
            self._both(values + _lift_edges(basis.moduli), tuple(basis.moduli))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(),
           widths=st.lists(st.sampled_from([30, 40, 62]), min_size=1, max_size=9))
    def test_any_basis_and_magnitude(self, data, widths):
        moduli = tuple(_LIFT_PRIMES[bits][i] for i, bits in enumerate(widths))
        product = math.prod(moduli)
        edges = _lift_edges(moduli)
        values = data.draw(st.lists(
            st.sampled_from(edges) | st.integers(-product, product)
            | st.integers(-(1 << 70), 1 << 70),
            min_size=1, max_size=24))
        self._both(values, moduli)

    def test_golden_lifts_exactly_what_the_prefix_cannot_certify(self, monkeypatch):
        moduli = _LIFT_PRIMES[30][:5]
        prefix, steps = backend_module._garner_prefix(moduli)
        assert len(steps) == 1 and prefix == moduli[0] * moduli[1]
        golden = ArithmeticBackend.limbs_centered_lift
        seen = []

        def counting(self, store, basis):
            seen.append(PYTHON.store_rows(store))
            return golden(self, store, basis)

        monkeypatch.setattr(ArithmeticBackend, "limbs_centered_lift", counting)
        narrow = [0, 5, -5, prefix // 2, -(prefix // 2)]
        store = np.array([[v % q for v in narrow] for q in moduli], dtype=np.uint64)
        assert NUMPY.limbs_centered_lift(store, moduli) == narrow
        assert seen == []                           # all certified: no CRT
        wide = [prefix // 2 + 1, -(prefix // 2) - 1, 3**70, -(3**70)]
        mixed = [narrow[0], wide[0], narrow[1], wide[1], wide[2], narrow[3], wide[3]]
        store = np.array([[v % q for v in mixed] for q in moduli], dtype=np.uint64)
        assert NUMPY.limbs_centered_lift(store, moduli) == mixed
        assert seen == [[[v % q for v in wide] for q in moduli]]    # once, those four

    def test_single_limb_and_the_whole_basis_in_one_word(self):
        """Nothing left to verify against: the prefix *is* the basis."""
        for moduli in (_LIFT_PRIMES[62][:1], _LIFT_PRIMES[30][:2], (97,), (2, 97)):
            assert backend_module._garner_prefix(moduli)[0] == math.prod(moduli)
            self._both(list(range(-100, 101)) + _lift_edges(moduli), moduli)

    def test_above_the_word_cap_is_the_golden_crt(self, monkeypatch):
        def no_garner(*args):
            raise AssertionError("word-sized lift on a 63-bit modulus")

        moduli = (modmath.find_ntt_prime(63, 32), 97)
        product = math.prod(moduli)
        monkeypatch.setattr(backend_module, "_garner_prefix", no_garner)
        self._both([0, -1, 96, 1 << 65, product // 2, product // 2 + 1], moduli)

    def test_row_count_must_match_the_moduli(self):
        for backend in (PYTHON, NUMPY):
            with pytest.raises(ValueError, match="row count"):
                backend.limbs_centered_lift([[1, 2], [3, 4]], (97, 193, 257))

    def test_polynomial_views_derive_from_the_lift(self):
        """``centered_coefficients`` is the accessor; ``[0, Q)`` coefficients,
        the big-modulus polynomial and the norm are derived from it, and an
        evaluation-resident polynomial converts first."""
        params = CKKSParameters.toy()
        basis = params.basis(2)
        n, product = params.ring_degree, basis.product
        rng = random.Random(5)
        values = [rng.randrange(-(1 << 40), 1 << 40) for _ in range(n - 2)]
        values += [product // 2, -(product // 2)]
        for backend in (PYTHON, NUMPY):
            with use_backend(backend):
                poly = RNSPolynomial.from_integer_coefficients(n, basis, values)
                for view in (poly, poly.to_eval()):
                    assert view.centered_coefficients() == values
                    assert view.to_integer_coefficients() == [v % product for v in values]
                    assert view.infinity_norm() == product // 2
                big = poly.to_polynomial()
                assert big == _ring(n, product, values)
                assert big.centered_coefficients() == values
                assert big.infinity_norm() == product // 2


@pytest.fixture(params=["library", "golden"])
def library(request):
    """The native loops; and the golden kernels, on numpy stores, that the
    numpy backend runs below its crossovers (``below_the_crossovers``)."""
    if request.param == "golden":
        request.getfixturevalue("below_the_crossovers")


@pytest.mark.usefixtures("library")
class TestReductionBudget:
    """``stacked_pmult_mac`` and ``bconv_matmul`` sum unreduced products and
    reduce once per output element: operands at ``q - 1`` past the term
    counts where 30-, 31- and 32-bit products would fill a word, and BConv
    around the 64 bits one ``weight * scaled`` sum would need, in the native
    loop and in the golden kernels on numpy stores.
    (``external_product_mac``'s edges ride its own wave-kernel test below.)"""

    def _pmult_mac(self, bits, terms, seed=0):
        moduli = _primes(bits, 2)
        stores = [[_edge_store(moduli, seed + 3 * i + part) for i in range(terms)]
                  for part in range(3)]
        expected = PYTHON.stacked_pmult_mac(*stores, moduli)
        actual = NUMPY.stacked_pmult_mac(*stores, moduli)
        assert tuple(map(_rows, actual)) == tuple(map(_rows, expected))
        return actual

    # 16, 4 and 1 products of these widths fill a word: one more each.
    @pytest.mark.parametrize("bits,terms", [(30, 17), (31, 5), (32, 3)])
    def test_pmult_mac_past_the_budget(self, bits, terms):
        acc0, _ = self._pmult_mac(bits, terms)
        # terms * (q - 1)^2 = terms (mod q) where every operand is q - 1.
        assert [int(row[0]) for row in acc0] == [terms] * 2

    def _bconv(self, source_bits, target_bits, sources, seed=0):
        source = RNSBasis(_primes(source_bits, sources))
        target = RNSBasis(_primes(target_bits, 3, skip=sources))
        plan = _bconv_plan(source, target)
        store = _edge_store(source.moduli, seed)
        for row, q, inv in zip(store, source.moduli, plan.inverses):
            row[1] = (q - 1) * modmath.mod_inverse(inv, q) % q   # scales to q - 1
        expected = PYTHON.bconv_matmul(store, plan)
        assert _rows(NUMPY.bconv_matmul(store, plan)) == expected

    # bits(q) + bits(p) + ceil(log2(sources)): 64, 65 and 65.
    @pytest.mark.parametrize("source_bits,target_bits,sources",
                             [(30, 32, 4), (30, 32, 5), (32, 32, 2)])
    def test_bconv_around_a_64_bit_sum(self, source_bits, target_bits, sources):
        self._bconv(source_bits, target_bits, sources)

    # ``library`` holds for every example: no state to reset between them.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(28, 32), st.integers(28, 32), st.integers(1, 20),
           st.integers(0, 1 << 16))
    def test_sweep(self, bits, target_bits, terms, seed):
        self._pmult_mac(bits, terms, seed)
        self._bconv(bits, target_bits, terms, seed)


@pytest.mark.parametrize("q,n", WAVE_COMBOS)
class TestWaveKernelParity:
    """The store-in/store-out kernels of one blind-rotation step."""

    def test_rows_monomial_multiply_matches_the_ring(self, q, n):
        rows = _wave_store(q, n, 6, 1)
        edge = [0, n, 2 * n - 1, -1, 5 * n + 3, -(2 * n) - 7]
        for group, degs in ((2, edge[:3]), (2, edge[3:]), (1, edge)):
            expected = [
                _row(_ring(n, q, rows[i]).multiply_by_monomial(degs[i // group]))
                for i in range(len(rows))
            ]
            assert PYTHON.rows_monomial_multiply(rows, q, degs, group) == expected
            packed = NUMPY.pack_limbs(rows, (q,) * len(rows))
            assert _rows(NUMPY.rows_monomial_multiply(packed, q, degs, group)) == expected

    @given(st.lists(st.integers(min_value=-(1 << 20), max_value=1 << 20),
                    min_size=1, max_size=5),
           st.integers(min_value=1, max_value=3), st.integers(0, 1 << 16))
    @settings(max_examples=20, deadline=None)
    def test_rows_monomial_multiply_any_degrees(self, q, n, degrees, group, seed):
        rows = _wave_store(q, n, len(degrees) * group, seed)
        expected = PYTHON.rows_monomial_multiply(rows, q, degrees, group)
        packed = NUMPY.pack_limbs(rows, (q,) * len(rows))
        assert _rows(NUMPY.rows_monomial_multiply(packed, q, degrees, group)) == expected
        assert expected == [
            _row(_ring(n, q, row).multiply_by_monomial(degrees[i // group]))
            for i, row in enumerate(rows)
        ]

    def test_rows_monomial_multiply_rejects_ragged_blocks(self, q, n):
        rows = _wave_store(q, n, 3, 2)
        for backend in (PYTHON, NUMPY):
            with pytest.raises(ValueError, match="do not split"):
                backend.rows_monomial_multiply(rows, q, [1, 2], 2)

    @pytest.mark.usefixtures("library")
    def test_gadget_decompose_rows_is_stacked_gadget_decompose(self, q, n):
        rows = _wave_store(q, n, 4, 3)
        rows[0][:3] = [0, q - 1, q // 2]
        factors = [q // (1 << (6 * (j + 1))) for j in range(5)] + [0]
        expected = [
            digits for row in rows for digits in _decompose_reference(row, q, factors)
        ]
        assert PYTHON.gadget_decompose_rows(rows, q, factors) == expected
        packed = NUMPY.pack_limbs(rows, (q,) * len(rows))
        assert _rows(NUMPY.gadget_decompose_rows(packed, q, factors)) == expected

    @pytest.mark.usefixtures("library")
    def test_external_product_mac_is_a_sum_per_member_and_component(self, q, n):
        members, per_member, width = 3, 4, 2
        fwd = _wave_store(q, n, members * per_member, 4)
        key = _wave_store(q, n, per_member * width, 5)
        expected = [
            [sum(fwd[m * per_member + r][i] * key[r * width + c][i]
                 for r in range(per_member)) % q for i in range(n)]
            for m in range(members) for c in range(width)
        ]
        assert PYTHON.external_product_mac(fwd, key, members, q) == expected
        out = NUMPY.external_product_mac(
            NUMPY.pack_limbs(fwd, (q,) * len(fwd)),
            NUMPY.pack_limbs(key, (q,) * len(key)), members, q)
        assert _rows(out) == expected
        for backend in (PYTHON, NUMPY):
            for rows, count in ((fwd, 5), ([], 1), (fwd, 0), (fwd, len(fwd) + 1)):
                with pytest.raises(ValueError, match="row counts"):
                    backend.external_product_mac(rows, key, count, q)
        # Every digit and key residue at ``edge - 1``, at member row counts
        # where 64-bit sums of such products would fill a word at the 31-
        # and 32-bit moduli (4 and 1) and past it: the class's own modulus,
        # 2^32 (no NTT modulus, so the class cannot carry it) and a 20-bit
        # prime.
        for edge in sorted({q, 1 << 32, modmath.find_ntt_prime(20, 64)}):
            for per_member in (1, 2, 4, 5, 11):
                fwd = [[edge - 1] * 8] * (members * per_member)
                key = [[edge - 1] * 8] * (per_member * width)
                expected = PYTHON.external_product_mac(fwd, key, members, edge)
                # per_member * (edge - 1)^2 = per_member (mod edge).
                assert expected == [[per_member % edge] * 8] * (members * width)
                out = NUMPY.external_product_mac(
                    NUMPY.pack_limbs(fwd, (edge,) * len(fwd)),
                    NUMPY.pack_limbs(key, (edge,) * len(key)), members, edge)
                assert _rows(out) == expected

    def test_ntt_batches_preserve_the_container(self, q, n):
        context = NTTContext(n, q)
        rows = _wave_store(q, n, 5, 6)
        forward = PYTHON.ntt_forward_batch(context, rows)
        assert NUMPY.ntt_forward_batch(context, rows) == forward       # lists -> lists
        packed = NUMPY.pack_limbs(rows, (q,) * len(rows))
        before = _rows(packed)
        out = NUMPY.ntt_forward_batch(context, packed)
        assert _rows(out) == forward and _rows(packed) == before       # input untouched
        assert _rows(NUMPY.ntt_inverse_batch(context, out)) == rows
        assert NUMPY.ntt_inverse_batch(context, forward) == rows
        if q.bit_length() <= 62:
            assert isinstance(out, np.ndarray)                          # store -> store
            assert isinstance(NUMPY.ntt_inverse_batch(context, out), np.ndarray)

    def test_mat_mulmod_store_in_equals_list_in(self, q, n):
        members, levels, width, columns = 3, 4, 8, 5
        digits = _wave_store(q, width, members * levels, 7)
        digits[1] = [0] * width
        matrix = _wave_store(q, columns, levels * width, 8)
        joined = [
            [w for part in digits[m * levels:(m + 1) * levels] for w in part]
            for m in range(members)
        ]
        expected = PYTHON.mat_mulmod(joined, matrix, q)
        assert expected == [
            [sum(w * row[c] for w, row in zip(weights, matrix)) % q
             for c in range(columns)]
            for weights in joined
        ]
        assert NUMPY.mat_mulmod(joined, matrix, q) == expected          # lists -> lists
        assert PYTHON.mat_mulmod(digits, matrix, q) == expected         # rows concatenate
        out = NUMPY.mat_mulmod(
            NUMPY.pack_limbs(digits, (q,) * len(digits)),
            NUMPY.pack_limbs(matrix, (q,) * len(matrix)), q)
        assert _rows(out) == expected
        for backend in (PYTHON, NUMPY):
            with pytest.raises(ValueError, match="do not concatenate"):
                backend.mat_mulmod(digits[:-1], matrix, q)


#: A 28- and a 32-bit prime (word 32), the smallest Montgomery width the
#: parameter sets use and the 62-bit cap (word 64).
STACK_OF_ONE_N = 32
STACK_OF_ONE_PRIMES = [
    modmath.find_ntt_prime(bits, STACK_OF_ONE_N) for bits in (28, 32, 36, 62)
]


@pytest.mark.parametrize("q", STACK_OF_ONE_PRIMES,
                         ids=[f"{q.bit_length()}bit" for q in STACK_OF_ONE_PRIMES])
class TestSingleRowIsStackOfOne:
    """A single row is the stack of one: each store kernel on a one-row
    store == the python golden, and the entry points that take one row
    (a one-limb :class:`RNSPolynomial`, :class:`NTTContext`) are row 0 of it.

    Those entry points also take unreduced and negative input (stores are
    reduced by contract, so the kernels see the reduced row), and below the
    size thresholds the default numpy backend answers with the golden body.
    """

    N = STACK_OF_ONE_N

    def _inputs(self, q, seed):
        rng = random.Random(seed)
        raw = [[rng.randrange(-3 * q, 3 * q) for _ in range(self.N)] for _ in range(2)]
        raw[0][:3] = [0, -q, 2 * q - 1]
        return raw, [[v % q for v in row] for row in raw]

    @given(seed=st.integers(0, 1 << 32), scalar=st.integers(-(1 << 70), 1 << 70))
    @settings(max_examples=25, deadline=None)
    def test_elementwise(self, q, seed, scalar):
        (a, b), (ra, rb) = self._inputs(q, seed)
        moduli = (q,)
        sa, sb = NUMPY.pack_limbs([ra], moduli), NUMPY.pack_limbs([rb], moduli)
        with use_backend(NUMPY):
            x, y = _ring(self.N, q, a), _ring(self.N, q, b)
            rows = [x + y, x - y, -x, x * scalar]
        for row, stack, golden in zip(rows, (
            NUMPY.limbs_add(sa, sb, moduli), NUMPY.limbs_sub(sa, sb, moduli),
            NUMPY.limbs_neg(sa, moduli), NUMPY.limbs_scalar_mul(sa, [scalar], moduli),
        ), (
            PYTHON.limbs_add([ra], [rb], moduli), PYTHON.limbs_sub([ra], [rb], moduli),
            PYTHON.limbs_neg([ra], moduli),
            PYTHON.limbs_scalar_mul([ra], [scalar], moduli),
        )):
            assert isinstance(stack, np.ndarray)
            assert _row(row) == _rows(stack)[0] == golden[0]
        product = NUMPY.limbs_mul(sa, sb, moduli)
        assert isinstance(product, np.ndarray)
        assert _rows(product) == PYTHON.limbs_mul([ra], [rb], moduli) == \
            [[u * v % q for u, v in zip(ra, rb)]]
        assert PYTHON.limbs_scalar_mul([ra], [scalar], moduli) == \
            [[u * scalar % q for u in ra]]

    @given(seed=st.integers(0, 1 << 32), degree=st.integers(-200, 200))
    @settings(max_examples=25, deadline=None)
    def test_permute_and_decompose(self, q, seed, degree):
        (a, _), (ra, _) = self._inputs(q, seed)
        moduli = (q,)
        sa = NUMPY.pack_limbs([ra], moduli)
        for spec, op in ((monomial_spec(self.N, degree % (2 * self.N)),
                          lambda p: p.multiply_by_monomial(degree)),
                         (automorphism_spec(self.N, (2 * degree + 1) % (2 * self.N)),
                          lambda p: p.automorphism(2 * degree + 1))):
            golden = PYTHON.limbs_signed_permute([ra], moduli, spec)
            assert _rows(NUMPY.limbs_signed_permute(sa, moduli, spec)) == golden
            with use_backend(NUMPY):
                assert op(_ring(self.N, q, a)).coefficient_rows() == golden
        factors = [q // (1 << (6 * (j + 1))) for j in range(3)] + [0]
        golden = PYTHON.gadget_decompose_rows([ra], q, factors)
        assert golden == _decompose_reference(ra, q, factors)
        assert _rows(NUMPY.gadget_decompose_rows(sa, q, factors)) == golden

    @given(seed=st.integers(0, 1 << 32))
    @settings(max_examples=25, deadline=None)
    def test_transforms(self, q, seed):
        (a, b), (ra, rb) = self._inputs(q, seed)
        golden_context = NTTContext(self.N, q)
        context = NTTContext(self.N, q, backend=NUMPY)
        sa, sb = NUMPY.pack_limbs([ra], (q,)), NUMPY.pack_limbs([rb], (q,))
        for row, stack, golden in (
            (context.forward(a), NUMPY.batched_ntt([context], sa),
             PYTHON.batched_ntt([golden_context], [ra])),
            (context.inverse(a), NUMPY.batched_intt([context], sa),
             PYTHON.batched_intt([golden_context], [ra])),
            (context.negacyclic_convolution(a, b),
             NUMPY.limbs_convolution([context], sa, sb),
             PYTHON.limbs_convolution([golden_context], [ra], [rb])),
        ):
            assert isinstance(row, list) and isinstance(stack, np.ndarray)
            assert row == _rows(stack)[0] == golden[0]

    @given(seed=st.integers(0, 1 << 32), count=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_same_modulus_batch_is_a_stack_of_equal_contexts(self, q, seed, count):
        context = NTTContext(self.N, q, backend=NUMPY)
        rows = _wave_store(q, self.N, count, seed)
        packed = NUMPY.pack_limbs(rows, (q,) * count)
        for batch, stacked, single, golden in (
            (NUMPY.ntt_forward_batch, NUMPY.batched_ntt, context.forward,
             PYTHON.batched_ntt),
            (NUMPY.ntt_inverse_batch, NUMPY.batched_intt, context.inverse,
             PYTHON.batched_intt),
        ):
            expected = golden((context,) * count, rows)
            assert [single(row) for row in rows] == expected
            for given_rows in (rows, packed):
                out = batch(context, given_rows)
                # Lists in, lists out; store in, store out.
                assert isinstance(out, type(given_rows))
                assert _rows(out) == expected
                assert _rows(stacked((context,) * count, given_rows)) == expected

    def test_below_the_crossovers_the_golden_backend_answers(self, q, monkeypatch):
        """Below the size thresholds the default numpy backend answers with
        the golden body, handed lists or numpy stores: no library entry point
        runs and no array comes back.  The multiply-accumulates and the
        fixed-scalar products get every operand at ``q - 1`` — on numpy
        stores, each a uint64 scalar the golden body must not multiply in
        64 bits."""
        monkeypatch.setattr(native, "library", _NoEntryPoints)
        default = NumpyBackend()
        assert self.N < default.min_ntt_length < default.min_vector_length
        _, (a, b) = self._inputs(q, 5)
        top = [q - 1] * self.N
        context = NTTContext(self.N, q)
        contexts = (context,)
        spec = monomial_spec(self.N, 3)
        factors = [q // (1 << 6), q // (1 << 12)]
        moduli = (q,)
        others = tuple(p for p in STACK_OF_ONE_PRIMES if p != q)
        plan = _bconv_plan(RNSBasis(moduli), RNSBasis(others))

        def eval_mac(k, s):
            handles = [(k.limbs_eval_key(contexts, s([top])),
                        k.limbs_eval_key(contexts, s([a]))) for _ in range(2)]
            return k.limbs_eval_mac(contexts, [s([top]), s([top])], handles)

        cases = {
            "limbs_add": lambda k, s: k.limbs_add(s([a]), s([b]), moduli),
            "limbs_sub": lambda k, s: k.limbs_sub(s([a]), s([b]), moduli),
            "limbs_neg": lambda k, s: k.limbs_neg(s([a]), moduli),
            "limbs_mul": lambda k, s: k.limbs_mul(s([a]), s([b]), moduli),
            "limbs_scalar_mul": lambda k, s: [
                k.limbs_scalar_mul(s([a]), [-7], moduli),
                k.limbs_scalar_mul(s([top]), [q - 1], moduli)],
            "limbs_signed_permute": lambda k, s: k.limbs_signed_permute(
                s([a]), moduli, spec),
            "gadget_decompose_rows": lambda k, s: k.gadget_decompose_rows(
                s([a, top]), q, factors),
            "ntt_forward_batch": lambda k, s: k.ntt_forward_batch(context, s([a])),
            "ntt_inverse_batch": lambda k, s: k.ntt_inverse_batch(context, s([a])),
            "limbs_convolution": lambda k, s: k.limbs_convolution(
                contexts, s([a]), s([b])),
            "limbs_eval_mac": eval_mac,
            "stacked_pmult_mac": lambda k, s: k.stacked_pmult_mac(
                [s([top])] * 3, [s([a])] * 3, [s([top])] * 3, moduli),
            "bconv_matmul": lambda k, s: k.bconv_matmul([s([top]), s([a])], plan),
            "external_product_mac": lambda k, s: k.external_product_mac(
                s([top] * 4), s([top] * 4), 2, q),
            "batched_sub_scaled": lambda k, s: [
                k.batched_sub_scaled(s([top]), s([b]), [q - 1], moduli),
                k.batched_sub_scaled(s([b]), s([top])[0], [q - 1], moduli, q)],
            "limbs_centered_lift": lambda k, s: k.limbs_centered_lift(
                s([top, [others[0] - 1] * self.N]), (q, others[0])),
        }

        def lists(rows):
            return rows

        def store(rows):
            return np.array(rows, dtype=np.uint64)

        for name, run in cases.items():
            golden = _plain(run(PYTHON, lists))
            assert golden == _plain(run(NUMPY, store)), name
            for pack in (lists, store):
                out = run(default, pack)
                assert not _holds_array(out), name
                assert _plain(out) == golden, name


def _holds_array(value):
    """``value`` is or holds (in nested lists and tuples) a numpy array."""
    if isinstance(value, (list, tuple)):
        return any(map(_holds_array, value))
    return isinstance(value, np.ndarray)


def test_every_public_kernel_has_a_caller():
    """Census: a public ``ArithmeticBackend`` method that no module under
    ``src/repro`` other than ``fhe/backend.py`` references is dead weight
    every backend must keep carrying.  Calls inside the backend module do
    not count — a golden body calling its own helper kernel is no caller.
    Delete it, fold it into the body that uses it, or give it a caller."""
    import ast
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    referenced = {
        node.attr
        for path in root.rglob("*.py") if path != root / "fhe" / "backend.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }
    assert sorted(set(KERNELS) - referenced) == []


# ---------------------------------------------------------------------------
# Store width: a 32-bit store is the same store
# ---------------------------------------------------------------------------
#
# ``limbs_from_words`` leaves 4-byte wire words as uint32 rows; every kernel
# widens what it reads (``NumpyBackend._matrix``).  The census below keeps
# that true for kernels not written yet: each public kernel either takes no
# store, or has a case here that runs it on 64-bit, 32-bit and mixed copies
# of one reduced input.

#: Public kernels that never receive a store: the ones that make a store
#: out of something else.
STORELESS_KERNELS = {
    "limbs_zero", "reduce_limbs", "sample_uniform_limbs", "sample_error_limbs",
    "sample_limbs", "limbs_from_words",
}


def _width_cases(moduli, n, seed):
    """``{kernel: run}`` with ``run(backend, store)`` applying the kernel to
    fixed reduced inputs, every store operand built by ``store(rows)``.
    Values stay below 2^32 so a 32-bit copy of each input exists."""
    rng = random.Random(seed)

    def rows(mods):
        return [[rng.randrange(min(q, 1 << 32)) for _ in range(n)] for q in mods]

    a, b, c, d, e, f = (rows(moduli) for _ in range(6))
    contexts = [NTTContext(n, q) for q in moduli]
    q = moduli[0]
    wave = (q,) * 4
    w, v = rows(wave), rows(wave)
    key = rows((q,) * 24)
    matrix = [[rng.randrange(min(q, 1 << 32)) for _ in range(3)] for _ in range(n)]
    scalars = [rng.randrange(m) for m in moduli]
    perm, gather = automorphism_spec(n, 5), galois_eval_spec(n, 5)
    plan = _bconv_plan(RNSBasis(moduli[:2]), RNSBasis(moduli[2:]))
    factors = [q // (1 << (6 * (j + 1))) for j in range(3)]

    def eval_mac(k, s):
        handles = [(k.limbs_eval_key(contexts, s(c)), k.limbs_eval_key(contexts, s(d)))
                   for _ in range(2)]
        return k.limbs_eval_mac(contexts, [s(a), s(b)], handles)

    def keyswitch(k, s):
        # Q_l is the first two moduli, P the other two.
        handles = [(k.limbs_eval_key(contexts, s(c)), k.limbs_eval_key(contexts, s(d)))
                   for _ in range(2)]
        special = math.prod(moduli[2:])
        return k.keyswitch_rows(
            contexts, [([s(a), s(b)], handles, gather), ([s(e), s(f)], handles, None)],
            _bconv_plan(RNSBasis(moduli[2:]), RNSBasis(moduli[:2])),
            [modmath.mod_inverse(special % m, m) for m in moduli[:2]])

    return {
        "store_rows": lambda k, s: k.store_rows(s(a)),
        "pack_limbs": lambda k, s: k.pack_limbs(s(a), moduli),
        "limbs_to_words": lambda k, s: [k.limbs_to_words(s(a), 8)] + (
            [k.limbs_to_words(s(a), 4)] if max(moduli) < 1 << 32 else []),
        "limbs_add": lambda k, s: k.limbs_add(s(a), s(b), moduli),
        "limbs_sub": lambda k, s: k.limbs_sub(s(a), s(b), moduli),
        "limbs_neg": lambda k, s: k.limbs_neg(s(a), moduli),
        "limbs_centered_lift": lambda k, s: k.limbs_centered_lift(s(a), moduli),
        "limbs_mul": lambda k, s: k.limbs_mul(s(a), s(b), moduli),
        "limbs_scalar_mul": lambda k, s: k.limbs_scalar_mul(s(a), scalars, moduli),
        "batched_sub_scaled": lambda k, s: [
            k.batched_sub_scaled(s(a), s(b), scalars, moduli),
            k.batched_sub_scaled(s(a), s(b)[0], scalars, moduli, b_modulus=q),
        ],
        "bconv_matmul": lambda k, s: k.bconv_matmul([s(a[:2]), s(b[:2])], plan),
        "batched_ntt": lambda k, s: k.batched_ntt(contexts, s(a)),
        "batched_intt": lambda k, s: k.batched_intt(contexts, s(a)),
        "stacked_ntt": lambda k, s: k.stacked_ntt(contexts, [s(a), s(b)]),
        "stacked_intt": lambda k, s: k.stacked_intt(contexts, [s(a), s(b)]),
        "limbs_convolution": lambda k, s: k.limbs_convolution(contexts, s(a), s(b)),
        "limbs_eval_key": eval_mac,
        "limbs_eval_mac": eval_mac,
        "limbs_tensor_product": lambda k, s: k.limbs_tensor_product(
            s(a), s(b), s(c), s(d), moduli),
        "keyswitch_rows": keyswitch,
        "stacked_pmult_mac": lambda k, s: k.stacked_pmult_mac(
            [s(a), s(b)], [s(c), s(d)], [s(e), s(f)], moduli),
        "replicate_row": lambda k, s: k.replicate_row(s(a)[0], moduli),
        "limbs_signed_permute": lambda k, s: k.limbs_signed_permute(s(a), moduli, perm),
        "limbs_gather": lambda k, s: k.limbs_gather(s(a), gather),
        "ntt_forward_batch": lambda k, s: k.ntt_forward_batch(contexts[0], s(w)),
        "ntt_inverse_batch": lambda k, s: k.ntt_inverse_batch(contexts[0], s(w)),
        "rows_monomial_multiply": lambda k, s: k.rows_monomial_multiply(
            s(w), q, [3, n + 5], 2),
        "gadget_decompose_rows": lambda k, s: k.gadget_decompose_rows(s(w), q, factors),
        "external_product_mac": lambda k, s: k.external_product_mac(s(w), s(v), 2, q),
        "blind_rotate_rows": lambda k, s: k.blind_rotate_rows(
            contexts[0], s(w), [[3, n + 5], [0, 7]], s(key), factors, 2),
        "mat_mulmod": lambda k, s: k.mat_mulmod(s(w), s(matrix), q),
    }


def _plain(value):
    """Kernel output as nested python lists; an array must be 64-bit."""
    if isinstance(value, np.ndarray):
        assert value.dtype == np.uint64
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def test_every_store_kernel_has_a_width_case():
    cases = set(_width_cases(tuple(modmath.find_ntt_primes(30, 32, 4)), 32, 0))
    # Names a deleted kernel would otherwise leave behind in the list.
    assert sorted(STORELESS_KERNELS - set(KERNELS)) == []
    assert not cases & STORELESS_KERNELS
    assert set(KERNELS) == cases | STORELESS_KERNELS


@pytest.mark.parametrize("bits", [30, 36], ids=["word32", "word64-reads-narrow"])
def test_store_kernels_ignore_store_width(bits):
    """64-bit, 32-bit and mixed-width copies of one reduced input give
    bit-identical 64-bit output, equal to golden.  At 36 bits the narrow
    store is what a 4-byte-word blob over wide moduli decodes to."""
    n = 32
    moduli = tuple(modmath.find_ntt_primes(bits, n, 4))
    for name, run in _width_cases(moduli, n, bits).items():
        golden = _plain(run(PYTHON, lambda rows: rows))
        for widths in ((np.uint64,), (np.uint32,),
                       (np.uint32, np.uint64), (np.uint64, np.uint32)):
            width = itertools.cycle(widths)
            out = run(NUMPY, lambda rows: np.array(rows, dtype=next(width)))
            assert _plain(out) == golden, (name, widths)


def _key_material_digest(params, backend):
    """sha256 over the coefficient rows of everything ``seed=11`` generates.

    Plaintexts are exact integer coefficients and the word-32 transforms are
    exact by budget, so nothing BLAS-dependent enters a pinned value.  One
    float path does: every error polynomial is ``round(gauss(0, 3.2))`` (the
    contexts use the default ``error_stddev``), i.e. libm's ``log`` / ``cos``
    / ``sin`` — and, on numpy, numpy's.  What the digests assume is that a
    draw never lands within a last-bits difference of a rounding boundary on
    this machine's libm; the numpy block sampler assumes no more than that
    (libm and numpy agree far inside its 2^-20 guard, and what falls inside
    is recomputed with ``math``: ``TestErrorSamplerParity::
    test_guard_path_agrees`` / ``test_shipped_guard_is_wide_and_rarely_taken``).
    """
    with use_backend(backend):
        ctx = CKKSContext(params, seed=11, backend=backend)
        element = galois_element_for_rotation(params.ring_degree, 1)
        galois = ctx.keys.galois_key(element, params.max_level)
        relin = ctx.keys.relinearization_key(1)
        fresh = ctx.encrypt(ctx.encoder.encode_coefficients(list(range(-8, 9))))
        symmetric = ctx.encrypt_symmetric(
            ctx.encoder.encode_coefficients([3, -1, 4, -1, 5], level=1))
        polys = [ctx.keys.public.b, ctx.keys.public.a]
        for key in (galois, relin):
            for b, a in key.digit_keys:
                polys += [b, a]
        polys += [fresh.c0, fresh.c1, symmetric.c0, symmetric.c1]
        digest = hashlib.sha256()
        for poly in polys:
            digest.update(repr(poly.coefficient_rows()).encode())
    return digest.hexdigest()


class TestKeyMaterialPinned:
    """Keys and fresh ciphertexts did not change — as a test, not a claim.

    The digests were recorded at the commit *before* key generation and
    encryption moved onto ``sample_uniform_limbs``/``reduce_limbs`` (scalar
    ``randrange`` loops, per-limb comprehensions, ``limbs_convolution`` per
    digit), where both backends already agreed.
    """

    PINNED = {
        "small-40bit": (
            CKKSParameters.small(ring_degree=256, max_level=3),
            "b94931408241816a54031b6497a7ba0ad313db25df0eacc2244b613f4715686d",
        ),
        "word-30bit": (
            CKKSParameters(ring_degree=256, max_level=4, dnum=2, scale_bits=26,
                           modulus_bits=30, special_modulus_bits=32,
                           security_bits=0),
            "2c3344b237b0c8bef67f782b452f8febdbbe83fe1cbc7b923a8d8dae5da44a7a",
        ),
    }

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_digest_matches_parent_commit(self, name, backend):
        params, expected = self.PINNED[name]
        assert _key_material_digest(params, backend) == expected


def _planned_evaluation_digest(params, backend):
    """sha256 over the output rows of a planned dense -> rescale -> square ->
    rescale program (a 2x2 BSGS: hoisted baby rotation, two plaintext MACs,
    one giant rotation).  Input and diagonals are integer coefficient
    encodings and the digest covers residues only, so nothing float-derived
    enters it."""
    with use_backend(backend):
        ctx = CKKSContext(params, seed=11, backend=backend)
        scale = float(params.scale)

        def encode(coefficients):
            return ctx.encoder.encode_coefficients(coefficients, scale=scale)

        diagonals = [
            [encode([(7 * j + 3 * i + k) % 17 - 8 for k in range(9)])
             for i in range(2)]
            for j in range(2)
        ]
        ctx.keys.ensure_rotation_keys([1, 2], params.max_level)
        trace = HETrace(params)
        source = trace.input("x")
        babies = [source.rotate(i) for i in range(2)]
        blocks = [babies[0] * row[0] + babies[1] * row[1] for row in diagonals]
        hidden = (blocks[0] + blocks[1].rotate(2)).rescale()
        trace.output("y", (hidden * hidden).rescale())
        executor = ProgramExecutor(CKKSEvaluator(params, ctx.keys, backend=backend))
        inputs = {"x": ctx.encrypt(encode(list(range(-8, 9))))}
        y = executor.run(plan_program(trace.program), inputs)["y"]
        digest = hashlib.sha256()
        for poly in (y.c0, y.c1):
            digest.update(repr(poly.coefficient_rows()).encode())
    return digest.hexdigest()


class TestEvaluationPinned:
    """A planned keyswitch-heavy program still produces the same ciphertext.

    The digests were recorded at the commit *before* the hoisted keyswitch
    moved its ModDown into the evaluation domain and the MAC kernels
    started reducing once per budget (coefficient-domain ModDown, one ``%``
    per product), where both backends already agreed.
    """

    PINNED = {
        "small-40bit": "a4543e59b37b08bee7692f77a4ae81f37587a771e7ab884bec82668944e43e76",
        "word-30bit": "decb184cde58ed3267ab28a8b641152ae8237287937d6aed9e5a17419b299c09",
    }

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_digest_matches_parent_commit(self, name, backend):
        params, _ = TestKeyMaterialPinned.PINNED[name]
        assert _planned_evaluation_digest(params, backend) == self.PINNED[name]


class TestSharedEncoderTables:
    def test_one_read_only_matrix_per_ring_degree(self):
        params = CKKSParameters.toy(ring_degree=64)
        first = CKKSEncoder(params)
        second = CKKSEncoder(CKKSParameters.small(ring_degree=64, max_level=2))
        assert first._eval_matrix is second._eval_matrix
        assert first._rotation_group is second._rotation_group
        assert not first._eval_matrix.flags.writeable
        assert not first._rotation_group.flags.writeable
        with pytest.raises(ValueError):
            first._eval_matrix[0, 0] = 0
        assert CKKSEncoder(CKKSParameters.toy(ring_degree=128))._eval_matrix.shape == (64, 128)

    def test_encode_decode_unchanged(self):
        """Against the per-context formula the shared table replaced."""
        params = CKKSParameters.toy(ring_degree=64)
        n, degree = params.slots, params.ring_degree
        group = np.array([pow(5, j, 2 * degree) for j in range(n)], dtype=np.float64)
        reference = np.exp(1j * (np.pi * group / degree))[:, None] ** \
            np.arange(degree, dtype=np.float64)[None, :]
        encoder = CKKSEncoder(params)
        assert np.array_equal(encoder._eval_matrix, reference)

        values = [1.5 - 0.5j, -2.0, 0.25j, 3.0]
        vector = np.zeros(n, dtype=np.complex128)
        vector[: len(values)] = values
        coefficients = (2.0 / degree) * np.real(np.conj(reference).T @ vector)
        integers = [int(c) for c in np.rint(coefficients * params.scale).astype(object)]
        plaintext = encoder.encode(values)
        assert plaintext.poly.coefficient_rows() == [
            [c % q for c in integers] for q in params.basis()
        ]
        slots = reference @ np.array(integers, dtype=np.float64) / plaintext.scale
        assert encoder.decode(plaintext, num_values=4) == [complex(v) for v in slots[:4]]


class TestEndToEndParity:
    """Whole-scheme flows must produce identical ciphertexts on both backends."""

    def test_ckks_multiply_rescale_parity(self):
        params = CKKSParameters.toy(ring_degree=64, max_level=2)
        results = {}
        for name in ("python", "numpy"):
            ctx = CKKSContext(params, seed=99, error_stddev=0.0, backend=name)
            pt = ctx.encoder.encode([1.5 - 0.5j, 2.0, 0.25j])
            ct = ctx.encrypt(pt)
            product = ctx.evaluator.rescale(ctx.evaluator.multiply(ct, ct))
            results[name] = (
                product.c0.to_integer_coefficients(),
                product.c1.to_integer_coefficients(),
            )
        assert results["python"] == results["numpy"]

    def test_tfhe_pbs_parity(self):
        params = TFHEParameters.toy()
        outputs = {}
        for name in ("python", "numpy"):
            ctx = TFHEContext(params, seed=5, backend=name)
            ct = ctx.encrypt(1)
            refreshed = ctx.programmable_bootstrap(ct)
            outputs[name] = (refreshed.a, refreshed.b, ctx.decrypt(refreshed))
        assert outputs["python"] == outputs["numpy"]
        assert outputs["python"][2] == 1


class TestBackendSelection:
    def test_registry_round_trip(self):
        assert get_backend("python").name == "python"
        assert get_backend("numpy").name in ("numpy", "python")  # graceful fallback
        with pytest.raises(ValueError):
            get_backend("fortran")

    @pytest.fixture()
    def restore_active_backend(self):
        """Snapshot the process-wide backend so selection tests cannot leak
        their choice into the rest of the pytest process (which would defeat
        the REPRO_BACKEND CI matrix legs)."""
        from repro.fhe.backend import active_backend
        previous = active_backend()
        yield
        set_active_backend(previous)

    def test_use_backend_restores_previous(self, restore_active_backend):
        previous = set_active_backend("python")
        assert previous.name == "python"
        with use_backend("numpy") as active:
            assert active.name == "numpy"
        from repro.fhe.backend import active_backend
        assert active_backend().name == "python"

    def test_env_variable_selects_backend(self, monkeypatch, restore_active_backend):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        set_active_backend(None)
        from repro.fhe.backend import active_backend
        assert active_backend().name == "python"
