"""Unit and property tests for ring elements over one modulus: the one-limb
:class:`~repro.fhe.rns.RNSPolynomial`, and what :mod:`repro.fhe.polynomial`
keeps (the structural specs and the ternary sampler)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import modmath
from repro.fhe.backend import active_backend
from repro.fhe.polynomial import sample_ternary
from repro.fhe.rns import RNSBasis, RNSPolynomial, exact_basis_conversion, sample_error
from repro.fhe.tfhe.ggsw import gadget_factors
from repro.fhe.tfhe.lwe import LWECiphertext
from repro.fhe.tfhe.pbs import modulus_switch

DEGREE = 32
MODULUS = modmath.find_ntt_prime(24, DEGREE)


def ring(coefficients, degree=DEGREE, modulus=MODULUS):
    return RNSPolynomial.from_integer_coefficients(
        degree, RNSBasis([modulus]), coefficients)


def random_poly(seed, degree=DEGREE, modulus=MODULUS):
    rng = random.Random(seed)
    return ring([rng.randrange(modulus) for _ in range(degree)], degree, modulus)


def one():
    return ring([1])


def is_zero(poly):
    return poly.infinity_norm() == 0


def row(poly):
    (coefficients,) = poly.coefficient_rows()
    return coefficients


coefficient_lists = st.lists(
    st.integers(min_value=-(10**6), max_value=10**6), min_size=DEGREE, max_size=DEGREE
)


class TestConstruction:
    def test_zero_padding(self):
        assert row(ring([1, 2, 3], 8, 17)) == [1, 2, 3, 0, 0, 0, 0, 0]

    def test_negative_coefficients_are_reduced(self):
        assert row(ring([-1, -2, 16, 18], 4, 17)) == [16, 15, 16, 1]

    def test_too_many_coefficients(self):
        with pytest.raises(ValueError):
            ring([1] * 5, 4, 17)

    def test_non_power_of_two_degree(self):
        basis = RNSBasis([17])
        for build in (lambda n: RNSPolynomial(n, basis),
                      lambda n: RNSPolynomial.from_integer_coefficients(n, basis, [1]),
                      lambda n: RNSPolynomial.sample_uniform(n, basis, random.Random(0))):
            for degree in (3, 12, 0):
                with pytest.raises(ValueError, match="power of two"):
                    build(degree)
            assert build(16).ring_degree == 16

    def test_zero_and_one(self):
        zero = RNSPolynomial(8, RNSBasis([17]))
        unit = ring([1], 8, 17)
        assert is_zero(zero)
        assert not is_zero(unit)
        assert row(unit)[0] == 1

    def test_monomial_wraps_negacyclically(self):
        mono = ring([3], 4, 17).multiply_by_monomial(5)   # 3 * X^5 = -3 * X
        assert row(mono) == [0, 14, 0, 0]


class TestArithmetic:
    def test_add_sub_roundtrip(self):
        a, b = random_poly(1), random_poly(2)
        assert (a + b) - b == a

    def test_negation(self):
        a = random_poly(3)
        assert is_zero(a + (-a))

    @given(coefficient_lists, coefficient_lists)
    @settings(max_examples=30, deadline=None)
    def test_addition_commutes(self, coeffs_a, coeffs_b):
        a, b = ring(coeffs_a), ring(coeffs_b)
        assert a + b == b + a

    @given(coefficient_lists, coefficient_lists)
    @settings(max_examples=20, deadline=None)
    def test_multiplication_commutes(self, coeffs_a, coeffs_b):
        a, b = ring(coeffs_a), ring(coeffs_b)
        assert a * b == b * a

    @given(coefficient_lists, coefficient_lists, coefficient_lists)
    @settings(max_examples=15, deadline=None)
    def test_distributivity(self, ca, cb, cc):
        a, b, c = ring(ca), ring(cb), ring(cc)
        assert a * (b + c) == a * b + a * c

    def test_multiplication_by_one_is_identity(self):
        a = random_poly(4)
        assert a * one() == a

    def test_scalar_multiplication(self):
        a = random_poly(5)
        assert a * 3 == a + a + a

    def test_incompatible_rings_raise(self):
        a = ring([1], 8, 17)
        b = ring([1], 8, 19)
        with pytest.raises(ValueError):
            _ = a + b

    def test_x_to_the_n_is_minus_one(self):
        x = ring([0, 1])
        power = one()
        for _ in range(DEGREE):
            power = power * x
        assert power == -one()


class TestMonomialAndAutomorphism:
    def test_multiply_by_monomial_matches_polynomial_multiplication(self):
        a = random_poly(6)
        for degree in (0, 1, 5, DEGREE - 1, DEGREE, DEGREE + 3, 2 * DEGREE - 1):
            direct = a * one().multiply_by_monomial(degree)
            assert a.multiply_by_monomial(degree) == direct

    def test_multiply_by_negative_monomial_roundtrip(self):
        a = random_poly(7)
        assert a.multiply_by_monomial(5).multiply_by_monomial(-5) == a

    def test_full_rotation_is_negation(self):
        a = random_poly(8)
        assert a.multiply_by_monomial(DEGREE) == -a
        assert a.multiply_by_monomial(2 * DEGREE) == a

    def test_automorphism_identity(self):
        a = random_poly(9)
        assert a.automorphism(1) == a

    def test_automorphism_composition(self):
        a = random_poly(10)
        g1, g2 = 5, 9
        assert a.automorphism(g1).automorphism(g2) == a.automorphism(g1 * g2 % (2 * DEGREE))

    def test_automorphism_is_ring_homomorphism(self):
        a, b = random_poly(11), random_poly(12)
        g = 5
        assert (a * b).automorphism(g) == a.automorphism(g) * b.automorphism(g)
        assert (a + b).automorphism(g) == a.automorphism(g) + b.automorphism(g)

    def test_automorphism_requires_odd_exponent(self):
        with pytest.raises(ValueError):
            random_poly(13).automorphism(4)


def decompose(poly, base, levels):
    """The signed gadget digits of a one-limb polynomial: one
    ``gadget_decompose_rows`` dispatch on its store (most significant first)."""
    (q,) = poly.basis.moduli
    backend = active_backend()
    digits = backend.gadget_decompose_rows(
        poly.store(), q, gadget_factors(q, base, levels))
    return [RNSPolynomial._from_store(poly.ring_degree, poly.basis, digits[j:j + 1])
            for j in range(levels)]


class TestDecomposition:
    @pytest.mark.parametrize("base_log,levels", [(4, 4), (6, 3), (8, 2)])
    def test_reconstruction_error_is_bounded(self, base_log, levels):
        base = 1 << base_log
        modulus = modmath.find_ntt_prime(30, DEGREE)
        rng = random.Random(base_log * levels)
        poly = ring([rng.randrange(modulus) for _ in range(DEGREE)], modulus=modulus)
        digits = decompose(poly, base, levels)
        factors = gadget_factors(modulus, base, levels)
        reconstructed = RNSPolynomial(DEGREE, poly.basis)
        for digit, factor in zip(digits, factors):
            reconstructed = reconstructed + digit * factor
        error = (poly - reconstructed).infinity_norm()
        # Error bounded by half the smallest gadget factor (plus digit rounding).
        assert error <= modulus // base ** levels // 2 + base

    def test_digits_are_small(self):
        base, levels = 16, 4
        poly = random_poly(20)
        for digit in decompose(poly, base, levels):
            assert digit.infinity_norm() <= base // 2 + 1

    def test_decompose_zero(self):
        zero = RNSPolynomial(DEGREE, RNSBasis([MODULUS]))
        for digit in decompose(zero, 8, 3):
            assert is_zero(digit)

    def test_invalid_base(self):
        with pytest.raises(ValueError, match="base must be >= 2"):
            decompose(random_poly(21), 1, 3)


class TestModulusSwitching:
    def test_switch_preserves_scaled_value(self):
        """The scale-and-round that survives is the LWE one PBS runs."""
        q_from = modmath.find_ntt_prime(30, DEGREE)
        q_to = 2 * DEGREE
        rng = random.Random(99)
        coeffs = [rng.randrange(q_from) for _ in range(DEGREE)]
        switched = modulus_switch(
            LWECiphertext(a=coeffs[1:], b=coeffs[0], modulus=q_from), q_to)
        assert switched.modulus == q_to
        for original, new in zip(coeffs, [switched.b] + switched.a):
            expected = original * q_to / q_from
            distance = abs(new - expected)
            assert min(distance, q_to - distance) <= 0.5

    def test_lift_modulus_preserves_small_values(self):
        poly = ring([1, -2, 3, -4], modulus=97)
        lifted = exact_basis_conversion(poly, RNSBasis([MODULUS]))
        assert lifted.centered_coefficients()[:4] == [1, -2, 3, -4]


class TestNTTRepresentation:
    def test_roundtrip(self):
        a = random_poly(30)
        assert a.to_eval().to_coeff() == a

    def test_pointwise_multiplication_in_ntt_domain(self):
        a, b = random_poly(31), random_poly(32)
        assert (a.to_eval() * b.to_eval()).to_coeff() == a * b

    def test_non_ntt_friendly_modulus_raises(self):
        # 23 is prime but 23 != 1 mod 16: every ring product refuses it, while
        # construction and addition stay legal.
        a = ring([1, 2], 8, 23)
        assert row(a + a)[:2] == [2, 4]
        for product in (a.to_eval, lambda: a * a):
            with pytest.raises(ValueError, match="not NTT-friendly"):
                product()


class TestSampling:
    def test_uniform_sampling_range(self):
        rng = random.Random(0)
        poly = RNSPolynomial.sample_uniform(64, RNSBasis([97]), rng)
        assert all(0 <= c < 97 for c in row(poly))

    def test_ternary_sampling_values(self):
        rng = random.Random(1)
        assert set(sample_ternary(64, rng)) <= {-1, 0, 1}

    def test_ternary_hamming_weight(self):
        rng = random.Random(2)
        assert sum(1 for c in sample_ternary(64, rng, hamming_weight=16) if c != 0) == 16

    def test_gaussian_sampling_is_small(self):
        rng = random.Random(3)
        poly = sample_error(64, RNSBasis([MODULUS]), rng, stddev=3.2)
        assert poly.infinity_norm() < 40
