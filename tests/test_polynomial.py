"""Unit and property tests for ring-element arithmetic (repro.fhe.polynomial)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import modmath
from repro.fhe.polynomial import (
    Polynomial,
    sample_gaussian,
    sample_ternary,
    sample_uniform,
)

DEGREE = 32
MODULUS = modmath.find_ntt_prime(24, DEGREE)


def random_poly(seed, degree=DEGREE, modulus=MODULUS):
    rng = random.Random(seed)
    return Polynomial(degree, modulus, [rng.randrange(modulus) for _ in range(degree)])


coefficient_lists = st.lists(
    st.integers(min_value=-(10**6), max_value=10**6), min_size=DEGREE, max_size=DEGREE
)


class TestConstruction:
    def test_zero_padding(self):
        poly = Polynomial(8, 17, [1, 2, 3])
        assert poly.coefficients == [1, 2, 3, 0, 0, 0, 0, 0]

    def test_negative_coefficients_are_reduced(self):
        poly = Polynomial(4, 17, [-1, -2, 16, 18])
        assert poly.coefficients == [16, 15, 16, 1]

    def test_too_many_coefficients(self):
        with pytest.raises(ValueError):
            Polynomial(4, 17, [1] * 5)

    def test_non_power_of_two_degree(self):
        with pytest.raises(ValueError):
            Polynomial(12, 17)

    def test_zero_and_one(self):
        zero = Polynomial.zero(8, 17)
        one = Polynomial.one(8, 17)
        assert zero.is_zero()
        assert not one.is_zero()
        assert one.coefficients[0] == 1

    def test_monomial_wraps_negacyclically(self):
        mono = Polynomial.monomial(4, 17, 5, 3)   # 3 * X^5 = -3 * X
        assert mono.coefficients == [0, 14, 0, 0]


class TestArithmetic:
    def test_add_sub_roundtrip(self):
        a, b = random_poly(1), random_poly(2)
        assert (a + b) - b == a

    def test_negation(self):
        a = random_poly(3)
        assert (a + (-a)).is_zero()

    @given(coefficient_lists, coefficient_lists)
    @settings(max_examples=30, deadline=None)
    def test_addition_commutes(self, coeffs_a, coeffs_b):
        a = Polynomial(DEGREE, MODULUS, coeffs_a)
        b = Polynomial(DEGREE, MODULUS, coeffs_b)
        assert a + b == b + a

    @given(coefficient_lists, coefficient_lists)
    @settings(max_examples=20, deadline=None)
    def test_multiplication_commutes(self, coeffs_a, coeffs_b):
        a = Polynomial(DEGREE, MODULUS, coeffs_a)
        b = Polynomial(DEGREE, MODULUS, coeffs_b)
        assert a * b == b * a

    @given(coefficient_lists, coefficient_lists, coefficient_lists)
    @settings(max_examples=15, deadline=None)
    def test_distributivity(self, ca, cb, cc):
        a = Polynomial(DEGREE, MODULUS, ca)
        b = Polynomial(DEGREE, MODULUS, cb)
        c = Polynomial(DEGREE, MODULUS, cc)
        assert a * (b + c) == a * b + a * c

    def test_multiplication_by_one_is_identity(self):
        a = random_poly(4)
        assert a * Polynomial.one(DEGREE, MODULUS) == a

    def test_scalar_multiplication(self):
        a = random_poly(5)
        assert a.scalar_multiply(3) == a + a + a

    def test_incompatible_rings_raise(self):
        a = Polynomial(8, 17, [1])
        b = Polynomial(8, 19, [1])
        with pytest.raises(ValueError):
            _ = a + b

    def test_x_to_the_n_is_minus_one(self):
        x = Polynomial.monomial(DEGREE, MODULUS, 1)
        power = Polynomial.one(DEGREE, MODULUS)
        for _ in range(DEGREE):
            power = power * x
        assert power == -Polynomial.one(DEGREE, MODULUS)


class TestMonomialAndAutomorphism:
    def test_multiply_by_monomial_matches_polynomial_multiplication(self):
        a = random_poly(6)
        for degree in (0, 1, 5, DEGREE - 1, DEGREE, DEGREE + 3, 2 * DEGREE - 1):
            direct = a * Polynomial.monomial(DEGREE, MODULUS, degree)
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


class TestDecomposition:
    @pytest.mark.parametrize("base_log,levels", [(4, 4), (6, 3), (8, 2)])
    def test_reconstruction_error_is_bounded(self, base_log, levels):
        base = 1 << base_log
        modulus = modmath.find_ntt_prime(30, DEGREE)
        rng = random.Random(base_log * levels)
        poly = Polynomial(DEGREE, modulus, [rng.randrange(modulus) for _ in range(DEGREE)])
        digits = poly.decompose(base, levels)
        factors = [modulus // base ** (j + 1) for j in range(levels)]
        reconstructed = Polynomial.zero(DEGREE, modulus)
        for digit, factor in zip(digits, factors):
            reconstructed = reconstructed + digit.scalar_multiply(factor)
        error = (poly - reconstructed).infinity_norm()
        # Error bounded by half the smallest gadget factor (plus digit rounding).
        assert error <= modulus // base ** levels // 2 + base

    def test_digits_are_small(self):
        base, levels = 16, 4
        poly = random_poly(20)
        for digit in poly.decompose(base, levels):
            assert digit.infinity_norm() <= base // 2 + 1

    def test_decompose_zero(self):
        zero = Polynomial.zero(DEGREE, MODULUS)
        for digit in zero.decompose(8, 3):
            assert digit.is_zero()

    def test_invalid_base(self):
        with pytest.raises(ValueError):
            random_poly(21).decompose(1, 3)


class TestModulusSwitching:
    def test_switch_preserves_scaled_value(self):
        q_from = modmath.find_ntt_prime(30, DEGREE)
        q_to = modmath.find_ntt_prime(20, DEGREE)
        rng = random.Random(99)
        coeffs = [rng.randrange(q_from) for _ in range(DEGREE)]
        poly = Polynomial(DEGREE, q_from, coeffs)
        switched = poly.switch_modulus(q_to)
        for original, new in zip(poly.centered_coefficients(), switched.centered_coefficients()):
            expected = original * q_to / q_from
            assert abs(new - expected) <= 1.0

    def test_lift_modulus_preserves_small_values(self):
        poly = Polynomial(DEGREE, 97, [1, -2, 3, -4])
        lifted = poly.lift_modulus(MODULUS)
        assert lifted.centered_coefficients()[:4] == [1, -2, 3, -4]


class TestNTTRepresentation:
    def test_roundtrip(self):
        a = random_poly(30)
        assert Polynomial.from_ntt(DEGREE, MODULUS, a.to_ntt()) == a

    def test_pointwise_multiplication_in_ntt_domain(self):
        a, b = random_poly(31), random_poly(32)
        product_via_ntt = Polynomial.from_ntt(
            DEGREE, MODULUS, [x * y % MODULUS for x, y in zip(a.to_ntt(), b.to_ntt())]
        )
        assert product_via_ntt == a * b

    def test_non_ntt_friendly_modulus_raises(self):
        # 23 is prime but 23 != 1 mod 16: every ring product refuses it, while
        # construction, addition and the modulus switch to 2N stay legal.
        a = Polynomial(8, 23, [1, 2])
        assert (a + a).coefficients[:2] == [2, 4]
        assert a.switch_modulus(16).modulus == 16
        for product in (a.to_ntt, lambda: a * a):
            with pytest.raises(ValueError, match="not NTT-friendly"):
                product()


class TestSampling:
    def test_uniform_sampling_range(self):
        rng = random.Random(0)
        poly = sample_uniform(64, 97, rng)
        assert all(0 <= c < 97 for c in poly.coefficients)

    def test_ternary_sampling_values(self):
        rng = random.Random(1)
        poly = sample_ternary(64, 97, rng)
        assert set(poly.centered_coefficients()) <= {-1, 0, 1}

    def test_ternary_hamming_weight(self):
        rng = random.Random(2)
        poly = sample_ternary(64, 97, rng, hamming_weight=16)
        assert sum(1 for c in poly.centered_coefficients() if c != 0) == 16

    def test_gaussian_sampling_is_small(self):
        rng = random.Random(3)
        poly = sample_gaussian(64, MODULUS, rng, stddev=3.2)
        assert poly.infinity_norm() < 40
