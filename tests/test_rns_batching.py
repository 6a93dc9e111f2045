"""Parity suite for packed limb-major RNS execution.

The packed path (one ``(L, N)`` backend matrix per RNS polynomial, one
batched kernel dispatch per RNS operation) must be bit-exact against the
per-limb golden reference — the pure-python backend looping the original
scalar kernels — for every prime/degree combination the parameter sets in
:mod:`repro.fhe.params` produce.  Two dispatch shapes are compared:

* ``python`` — per-limb loops over exact big-int kernels (golden),
* ``numpy``  — fully packed single-dispatch kernels, with the crossover
               thresholds at 0 so the vectorized paths run even at tiny
               ring degrees.

Covered: rescale, exact and fast basis conversion, ModDown, the full hybrid
keyswitch (twice — the second call exercises the evaluation-domain key
cache), element-wise arithmetic, limb-stack convolution (including the
direct single-word path on <= 32-bit TFHE-style moduli), automorphisms and
monomial rotations, gadget decomposition, and cross-backend store interop.
"""

import random

import pytest

from repro.fhe import modmath
from repro.fhe.backend import (
    PythonBackend,
    available_backends,
    use_backend,
)
from repro.fhe.ckks.keys import CKKSKeyGenerator
from repro.fhe.ckks.keyswitch import hybrid_keyswitch, mod_down
from repro.fhe.params import CKKSParameters, TFHEParameters
from repro.fhe.polynomial import automorphism_spec, monomial_spec
from repro.fhe.rns import (
    RNSBasis,
    RNSPolynomial,
    _bconv_plan,
    _limb_contexts,
    exact_basis_conversion,
    fast_basis_conversion,
)

numpy_missing = "numpy" not in available_backends()

PYTHON = PythonBackend()

if not numpy_missing:
    from repro.fhe.backend import NumpyBackend

    #: Thresholds at 0: force the vectorized paths at every size.
    PACKED = NumpyBackend(min_vector_length=0, min_ntt_length=0)
else:  # pragma: no cover - exercised only on numpy-less installs
    PACKED = None

needs_numpy = pytest.mark.skipif(numpy_missing, reason="numpy backend unavailable")


def _bases():
    """Every multi-limb basis the functional parameter sets give rise to."""
    cases = []
    for params in (CKKSParameters.toy(), CKKSParameters.small(ring_degree=256)):
        cases.append((params.ring_degree, params.basis()))
        cases.append((params.ring_degree, params.extended_basis()))
    # TFHE-style word-size primes: exercises the direct single-word (u32)
    # packed kernels with a multi-limb stack.
    for degree in (TFHEParameters.toy().polynomial_size,
                   TFHEParameters.small().polynomial_size):
        moduli = [modmath.find_ntt_prime(30 + i, degree, index=i) for i in range(3)]
        cases.append((degree, RNSBasis(moduli)))
    return cases


BASES = _bases()
BASIS_IDS = [f"N{n}-L{len(b)}-{max(b.moduli).bit_length()}bit" for n, b in BASES]


def _random_poly(degree, basis, seed):
    return RNSPolynomial.sample_uniform(degree, basis, random.Random(seed ^ 0xBA5E))


def _rows(poly):
    return poly.coefficient_rows()


@needs_numpy
@pytest.mark.parametrize("degree,basis", BASES, ids=BASIS_IDS)
class TestPackedParity:
    """Packed numpy vs per-limb python golden, bit-exact, per basis."""

    def _golden_and_packed(self, operation, *polys):
        with use_backend(PYTHON):
            expected = operation(*polys)
        with use_backend(PACKED):
            actual = operation(*polys)
        return expected, actual

    def test_arithmetic(self, degree, basis):
        a = _random_poly(degree, basis, 1)
        b = _random_poly(degree, basis, 2)
        for op in (
            lambda x, y: x + y,
            lambda x, y: x - y,
            lambda x, y: -x,
            lambda x, y: x * 12345,
        ):
            expected, actual = self._golden_and_packed(op, a, b)
            assert _rows(actual) == _rows(expected)

    def test_limb_convolution(self, degree, basis):
        a = _random_poly(degree, basis, 3)
        b = _random_poly(degree, basis, 4)
        expected, actual = self._golden_and_packed(lambda x, y: x * y, a, b)
        assert _rows(actual) == _rows(expected)

    def test_rescale(self, degree, basis):
        poly = _random_poly(degree, basis, 5)
        expected, actual = self._golden_and_packed(lambda p: p.rescale(), poly)
        assert _rows(actual) == _rows(expected)

    def test_fast_basis_conversion(self, degree, basis):
        poly = _random_poly(degree, basis, 6)
        target = RNSBasis(
            [modmath.find_ntt_prime(44, degree, index=50 + i) for i in range(3)]
        )
        expected, actual = self._golden_and_packed(
            lambda p: fast_basis_conversion(p, target), poly
        )
        assert _rows(actual) == _rows(expected)

    def test_exact_basis_conversion(self, degree, basis):
        poly = _random_poly(degree, basis, 7)
        target = RNSBasis(
            [modmath.find_ntt_prime(44, degree, index=60 + i) for i in range(2)]
        )
        expected, actual = self._golden_and_packed(
            lambda p: exact_basis_conversion(p, target), poly
        )
        assert _rows(actual) == _rows(expected)

    def test_automorphism_and_monomial(self, degree, basis):
        poly = _random_poly(degree, basis, 8)
        for op in (
            lambda p: p.automorphism(5),
            lambda p: p.automorphism(2 * degree - 1),
            lambda p: p.multiply_by_monomial(3),
            lambda p: p.multiply_by_monomial(-7),
        ):
            expected, actual = self._golden_and_packed(op, poly)
            assert _rows(actual) == _rows(expected)

    def test_batched_ntt_roundtrip(self, degree, basis):
        contexts = _limb_contexts(degree, basis)
        poly = _random_poly(degree, basis, 9)
        with use_backend(PACKED):
            store = poly.store()
            fwd = PACKED.batched_ntt(contexts, store)
            back = PACKED.batched_intt(contexts, fwd)
        expected_fwd = PYTHON.batched_ntt(contexts, poly.coefficient_rows())
        assert PACKED.store_rows(fwd) == expected_fwd
        assert PACKED.store_rows(back) == poly.coefficient_rows()

    def test_eval_key_mac(self, degree, basis):
        contexts = _limb_contexts(degree, basis)
        x = _random_poly(degree, basis, 10)
        k0 = _random_poly(degree, basis, 11)
        k1 = _random_poly(degree, basis, 12)
        with use_backend(PYTHON):
            expected = [_rows(x * k0), _rows(x * k1)]
        with use_backend(PACKED):
            handles = [
                PACKED.limbs_eval_key(contexts, k0.store()),
                PACKED.limbs_eval_key(contexts, k1.store()),
            ]
            fwd = PACKED.batched_ntt(contexts, x.store())
            results = PACKED.stacked_intt(
                contexts, PACKED.limbs_eval_mac(contexts, [fwd], [handles]))
        assert [PACKED.store_rows(r) for r in results] == expected

    def test_store_interop(self, degree, basis):
        poly = _random_poly(degree, basis, 13)
        rows = poly.coefficient_rows()
        # Pack under numpy, consume under python (and vice versa).
        with use_backend(PACKED):
            packed_poly = RNSPolynomial._from_store(
                degree, basis, PACKED.pack_limbs(rows, tuple(basis.moduli))
            )
        with use_backend(PYTHON):
            total = packed_poly + poly
            assert _rows(total) == _rows(poly + poly)
        with use_backend(PACKED):
            assert packed_poly == poly
        assert packed_poly.keep_limbs(1).coefficient_rows() == [rows[0]]
        assert packed_poly.limb_slice(0, 2).coefficient_rows() == rows[:2]


@needs_numpy
class TestKeyswitchParity:
    """End-to-end hybrid keyswitch: identical on every dispatch shape."""

    @pytest.fixture(scope="class")
    def fixture(self):
        params = CKKSParameters.toy(ring_degree=64, max_level=3, dnum=2)
        keygen = CKKSKeyGenerator(params, seed=3, error_stddev=0.0)
        keys = keygen.generate()
        level = params.max_level
        relin = keygen.make_relinearization_key(keys, level)
        d = _random_poly(params.ring_degree, params.basis(level), 15)
        return params, relin, d, level

    def _run(self, fixture, backend):
        params, relin, d, level = fixture
        c0, c1 = hybrid_keyswitch(d, relin, params, level, backend=backend)
        return _rows(c0), _rows(c1)

    def test_all_backends_agree(self, fixture):
        expected = self._run(fixture, PYTHON)
        assert self._run(fixture, PACKED) == expected
        # Second packed call exercises the evaluation-domain key cache.
        assert self._run(fixture, PACKED) == expected

    def test_mod_down_parity(self, fixture):
        params, _relin, _d, level = fixture
        poly = _random_poly(
            params.ring_degree, params.extended_basis(level), 16
        )
        with use_backend(PYTHON):
            expected = _rows(mod_down(poly, params, level))
        with use_backend(PACKED):
            actual = _rows(mod_down(poly, params, level))
        assert actual == expected


@needs_numpy
class TestGadgetDecomposeParity:
    @pytest.mark.parametrize("bits", [20, 32, 40, 62])
    def test_matches_reference(self, bits):
        degree = 64
        q = modmath.find_ntt_prime(bits, degree)
        rng = random.Random(bits)
        # Include boundary values around the centring threshold.
        coeffs = [rng.randrange(q) for _ in range(degree - 4)]
        coeffs += [0, q - 1, q // 2, q // 2 + 1]
        factors = [q // (8 ** (j + 1)) for j in range(5)]
        expected = PYTHON.gadget_decompose_rows([coeffs], q, factors)
        packed = PACKED.gadget_decompose_rows([coeffs], q, factors)
        assert PACKED.store_rows(packed) == expected

    @pytest.mark.parametrize("bits", [32, 62])
    def test_matches_centered_reference(self, bits):
        """Digit extraction must centre with the exact integer threshold of
        modmath.centered — the float-rounded q/2 diverges above 2^53."""
        q = modmath.find_ntt_prime(bits, 64)
        coeffs = [0, 1, q - 1, q // 2, q // 2 + 1, q // 2 + 2]
        factors = [q // (16 ** (j + 1)) for j in range(3)]
        expected = []
        for _ in factors:
            expected.append([0] * len(coeffs))
        for idx, c in enumerate(coeffs):
            residual = modmath.centered(c, q)
            for level, factor in enumerate(factors):
                digit = 0 if factor == 0 else (2 * residual + factor) // (2 * factor)
                residual -= digit * factor
                expected[level][idx] = digit % q
        assert PYTHON.gadget_decompose_rows([coeffs], q, factors) == expected
        packed = PACKED.gadget_decompose_rows([coeffs], q, factors)
        assert PACKED.store_rows(packed) == expected

    def test_polynomial_decompose_both_backends(self):
        """A one-limb polynomial's store, built and decomposed under each
        backend, gives the same digits (the GLWE external product's use)."""
        q = modmath.find_ntt_prime(32, 128)
        rng = random.Random(99)
        coeffs = [rng.randrange(q) for _ in range(128)]
        factors = [q // (1 << (7 * (j + 1))) for j in range(3)]
        digits = []
        for backend in (PYTHON, PACKED):
            with use_backend(backend):
                poly = RNSPolynomial.from_integer_coefficients(
                    128, RNSBasis([q]), coeffs)
                digits.append(backend.store_rows(
                    backend.gadget_decompose_rows(poly.store(), q, factors)))
        assert digits[0] == digits[1] == PYTHON.gadget_decompose_rows(
            [coeffs], q, factors)


class TestBasisHashingAndPlans:
    """RNSBasis is hashable and BConv plans are cached per basis pair."""

    def test_hash_consistent_with_eq(self):
        a = RNSBasis([5, 7, 9])
        b = RNSBasis([5, 7, 9])
        c = RNSBasis([5, 7, 11])
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_bconv_plan_cached_per_pair(self):
        degree = 16
        source = RNSBasis([modmath.find_ntt_prime(24, degree, index=i) for i in range(2)])
        target = RNSBasis([modmath.find_ntt_prime(30, degree, index=5)])
        plan_a = _bconv_plan(source, target)
        plan_b = _bconv_plan(
            RNSBasis(list(source.moduli)), RNSBasis(list(target.moduli))
        )
        assert plan_a is plan_b
        assert plan_a.weights == tuple(
            tuple(comp % p for comp in source._crt_complements)
            for p in target.moduli
        )

    def test_python_packed_semantics(self):
        """The packed entry points work (as per-limb loops) without numpy."""
        degree = 16
        basis = RNSBasis([modmath.find_ntt_prime(24, degree, index=i) for i in range(3)])
        with use_backend(PYTHON):
            poly = _random_poly(degree, basis, 17)
            total = poly + poly
            assert _rows(total) == [
                [(2 * c) % q for c in row]
                for row, q in zip(poly.coefficient_rows(), basis.moduli)
            ]
            assert _rows(poly.rescale()) is not None
            assert poly.store() == poly.coefficient_rows()
