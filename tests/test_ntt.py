"""Unit and property tests for the negacyclic NTT and its four-step split."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import modmath
from repro.fhe.backend import NumpyBackend, PythonBackend, available_backends, use_backend
from repro.fhe.ntt import NTTContext, bit_reverse_permutation


def make_context(degree=64, bits=24):
    return NTTContext(degree, modmath.find_ntt_prime(bits, degree))


def _backend_instances():
    """Both backends, with the numpy thresholds forced to 0 so the
    vectorized paths are exercised at every test size."""
    backends = [PythonBackend()]
    if "numpy" in available_backends():
        backends.append(NumpyBackend(min_vector_length=0, min_ntt_length=0))
    return backends


BACKENDS = _backend_instances()
BACKEND_IDS = [backend.name for backend in BACKENDS]


def naive_negacyclic_multiply(a, b, modulus):
    n = len(a)
    result = [0] * n
    for i in range(n):
        for j in range(n):
            k = i + j
            term = a[i] * b[j]
            if k >= n:
                result[k - n] = (result[k - n] - term) % modulus
            else:
                result[k] = (result[k] + term) % modulus
    return result


def non_ntt_prime(bits, degree):
    """The largest prime below ``2**bits`` that has no 2N-th root of unity
    (``p != 1 mod 2N``), so every ring product over it must raise."""
    p = (1 << bits) - 1
    while not (modmath.is_prime(p) and (p - 1) % (2 * degree)):
        p -= 2
    return p


def _root_powers(context, root):
    """``root^e mod q`` for ``e`` in ``[0, 2N)`` (``root^(2N) = 1``)."""
    n, q = context.ring_degree, context.modulus
    powers = [1] * (2 * n)
    for e in range(1, 2 * n):
        powers[e] = powers[e - 1] * root % q
    return powers


def _split(context, rows):
    n = context.ring_degree
    if n % rows:
        raise ValueError(f"{rows} rows do not divide N={n}")
    return n, n // rows, bit_reverse_permutation(rows), bit_reverse_permutation(n // rows)


def four_step_forward(context, coeffs, rows):
    """The four-step (Bailey) split of the negacyclic NTT, written out.

    Trinity's NTTU / CU split (priced in ``repro.core.ntt_strategies``) for
    any ``rows x cols`` view, the oracle the direct transforms of both
    backends are checked against.  With ``i = cols i1 + i2`` and ``k = k1 + rows k2``: phase 1 is
    a length-``rows`` negacyclic transform down each column, then a
    twiddle ``psi^(i2 (2 k1 + 1))``, then phase 2 a length-``cols`` cyclic
    transform along each row.  Slot ``(a, b)`` holds
    ``X[brv(a) + rows brv(b)]``, the direct transform's bit-reversed order.
    """
    n, cols, brv_r, brv_c = _split(context, rows)
    q = context.modulus
    w = _root_powers(context, context.psi)
    inner = [
        [sum(w[cols * i1 * (2 * k1 + 1) % (2 * n)] * coeffs[cols * i1 + i2]
             for i1 in range(rows)) * w[i2 * (2 * k1 + 1) % (2 * n)] % q
         for i2 in range(cols)]
        for k1 in range(rows)
    ]
    return [
        sum(w[2 * rows * brv_c[b] * i2 % (2 * n)] * inner[brv_r[a]][i2]
            for i2 in range(cols)) % q
        for a in range(rows) for b in range(cols)
    ]


def four_step_inverse(context, values, rows):
    """The mirrored flow of :func:`four_step_forward`, scaled by ``N^-1``."""
    n, cols, brv_r, brv_c = _split(context, rows)
    q = context.modulus
    w = _root_powers(context, context.psi_inv)
    # values[a * cols + b] is X[k1 + rows k2] for k1 = brv(a), k2 = brv(b).
    spectrum = {
        (brv_r[a], brv_c[b]): values[a * cols + b]
        for a in range(rows) for b in range(cols)
    }
    inner = [
        [sum(w[2 * rows * k2 * i2 % (2 * n)] * spectrum[k1, k2]
             for k2 in range(cols)) * w[i2 * (2 * k1 + 1) % (2 * n)] % q
         for i2 in range(cols)]
        for k1 in range(rows)
    ]
    return [
        sum(w[cols * i1 * (2 * k1 + 1) % (2 * n)] * inner[k1][i2]
            for k1 in range(rows)) * context.n_inv % q
        for i1 in range(rows) for i2 in range(cols)
    ]


class TestBitReverse:
    def test_length_8(self):
        assert bit_reverse_permutation(8) == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_length_1(self):
        assert bit_reverse_permutation(1) == [0]

    def test_is_an_involution(self):
        perm = bit_reverse_permutation(64)
        assert [perm[perm[i]] for i in range(64)] == list(range(64))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            bit_reverse_permutation(12)


class TestNTTContext:
    @pytest.mark.parametrize("degree", [4, 16, 64, 256, 1024])
    def test_forward_inverse_roundtrip(self, degree):
        context = make_context(degree)
        rng = random.Random(degree)
        coeffs = [rng.randrange(context.modulus) for _ in range(degree)]
        assert context.inverse(context.forward(coeffs)) == coeffs

    def test_forward_of_constant_one(self):
        context = make_context(16)
        values = context.forward([1] + [0] * 15)
        assert values == [1] * 16

    def test_forward_is_linear(self):
        context = make_context(32)
        rng = random.Random(7)
        q = context.modulus
        a = [rng.randrange(q) for _ in range(32)]
        b = [rng.randrange(q) for _ in range(32)]
        fa, fb = context.forward(a), context.forward(b)
        fsum = context.forward([(x + y) % q for x, y in zip(a, b)])
        assert fsum == [(x + y) % q for x, y in zip(fa, fb)]

    @pytest.mark.parametrize("degree", [8, 32, 128])
    def test_convolution_matches_schoolbook(self, degree):
        context = make_context(degree)
        rng = random.Random(degree * 3)
        q = context.modulus
        a = [rng.randrange(q) for _ in range(degree)]
        b = [rng.randrange(q) for _ in range(degree)]
        assert context.negacyclic_convolution(a, b) == naive_negacyclic_multiply(a, b, q)

    def test_convolution_with_x_is_a_shift(self):
        context = make_context(16)
        q = context.modulus
        a = list(range(1, 17))
        x = [0, 1] + [0] * 14
        result = context.negacyclic_convolution(a, x)
        expected = [(-a[15]) % q] + a[:15]
        assert result == expected

    def test_wrong_length_raises(self):
        context = make_context(16)
        with pytest.raises(ValueError):
            context.forward([1, 2, 3])
        with pytest.raises(ValueError):
            context.inverse([1, 2, 3])

    def test_rejects_non_ntt_friendly_modulus(self):
        with pytest.raises(ValueError):
            NTTContext(64, 17)  # 17 - 1 is not divisible by 128

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            NTTContext(64, 128 * 4 + 1)  # 513 = 27 * 19

    @given(st.integers(min_value=0, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_parseval_like_energy_preservation(self, seed):
        # The NTT is a bijection: distinct inputs map to distinct outputs.
        context = make_context(32)
        rng = random.Random(seed)
        q = context.modulus
        a = [rng.randrange(q) for _ in range(32)]
        b = list(a)
        b[0] = (b[0] + 1) % q
        assert context.forward(a) != context.forward(b)


class TestFourStepNTT:
    """The four-step split against the direct radix-2 transform, on the
    golden backend (``TestNTTPropertiesPerBackend`` checks it on both)."""

    @pytest.mark.parametrize("degree,rows", [(16, 4), (64, 8), (256, 16), (256, 4), (1024, 32)])
    def test_matches_direct_forward(self, degree, rows):
        context = make_context(degree)
        rng = random.Random(degree + rows)
        coeffs = [rng.randrange(context.modulus) for _ in range(degree)]
        with use_backend(PythonBackend()):
            assert four_step_forward(context, coeffs, rows) == context.forward(coeffs)

    @pytest.mark.parametrize("degree,rows", [(64, 8), (256, 16)])
    def test_inverse_roundtrip(self, degree, rows):
        context = make_context(degree)
        rng = random.Random(degree * 7)
        coeffs = [rng.randrange(context.modulus) for _ in range(degree)]
        values = four_step_forward(context, coeffs, rows)
        assert four_step_inverse(context, values, rows) == coeffs
        with use_backend(PythonBackend()):
            assert four_step_inverse(context, values, rows) == context.inverse(values)


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
class TestNTTPropertiesPerBackend:
    """The satellite property suite: every law must hold on every backend."""

    @pytest.mark.parametrize("degree", [8, 64, 1024])
    def test_roundtrip(self, backend, degree):
        """intt(ntt(x)) == x at N in {8, 64, 1024}."""
        context = make_context(degree, bits=40)
        rng = random.Random(degree * 11)
        coeffs = [rng.randrange(context.modulus) for _ in range(degree)]
        with use_backend(backend):
            assert context.inverse(context.forward(coeffs)) == coeffs

    @pytest.mark.parametrize("degree,rows", [(8, 2), (64, 8), (1024, 32), (1024, 8)])
    def test_four_step_matches_direct(self, backend, degree, rows):
        """The backend's transform vs the four-step split, both directions
        (30-bit: the numpy backend runs its word-32 core)."""
        context = make_context(degree, bits=30)
        rng = random.Random(degree + rows)
        coeffs = [rng.randrange(context.modulus) for _ in range(degree)]
        with use_backend(backend):
            values = context.forward(coeffs)
            assert values == four_step_forward(context, coeffs, rows)
            assert context.inverse(values) == four_step_inverse(context, values, rows) == coeffs

    @pytest.mark.parametrize("degree", [8, 64, 1024])
    def test_convolution_matches_schoolbook(self, backend, degree):
        """NTT negacyclic convolution vs the O(N^2) schoolbook multiply."""
        context = make_context(degree, bits=40)
        rng = random.Random(degree * 13)
        q = context.modulus
        a = [rng.randrange(q) for _ in range(degree)]
        b = [rng.randrange(q) for _ in range(degree)]
        expected = naive_negacyclic_multiply(a, b, q)
        with use_backend(backend):
            assert context.negacyclic_convolution(a, b) == expected

    def test_linearity_and_convolution_theorem(self, backend):
        """forward is linear and diagonalizes the ring product."""
        context = make_context(64, bits=40)
        rng = random.Random(17)
        q = context.modulus
        a = [rng.randrange(q) for _ in range(64)]
        b = [rng.randrange(q) for _ in range(64)]
        with use_backend(backend):
            fa, fb = context.forward(a), context.forward(b)
            fsum = context.forward([(x + y) % q for x, y in zip(a, b)])
            assert fsum == [(x + y) % q for x, y in zip(fa, fb)]
            product = context.inverse([(x * y) % q for x, y in zip(fa, fb)])
            assert product == context.negacyclic_convolution(a, b)

    def test_pinned_backend_on_context(self, backend):
        """An NTTContext constructed with backend= uses it regardless of the
        process-wide selection."""
        degree = 64
        q = modmath.find_ntt_prime(40, degree)
        pinned = NTTContext(degree, q, backend=backend)
        rng = random.Random(19)
        coeffs = [rng.randrange(q) for _ in range(degree)]
        reference = NTTContext(degree, q)
        with use_backend(PythonBackend()):
            expected = reference.forward(coeffs)
        assert pinned.forward(coeffs) == expected
        assert pinned.active_backend() is backend
