"""Unit and property tests for the RNS representation and BConv."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import modmath
from repro.fhe.rns import (
    RNSBasis,
    RNSPolynomial,
    exact_basis_conversion,
    fast_basis_conversion,
)

from test_ntt import naive_negacyclic_multiply, non_ntt_prime

DEGREE = 16


def make_basis(count, bits=24, offset=0):
    return RNSBasis(
        [modmath.find_ntt_prime(bits, DEGREE, index=offset + i) for i in range(count)]
    )


class TestRNSBasis:
    def test_product(self):
        basis = RNSBasis([5, 7, 9])
        assert basis.product == 315

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            RNSBasis([6, 9])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RNSBasis([7, 7])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RNSBasis([])

    @given(st.integers(min_value=0, max_value=315 - 1))
    @settings(max_examples=100, deadline=None)
    def test_crt_roundtrip(self, value):
        basis = RNSBasis([5, 7, 9])
        assert basis.reconstruct(basis.to_residues(value)) == value

    def test_subset_and_extend(self):
        basis = make_basis(3)
        assert len(basis.subset(2)) == 2
        extra = modmath.find_ntt_prime(26, DEGREE)
        assert len(basis.extend([extra])) == 4

    def test_subset_bounds(self):
        basis = make_basis(2)
        with pytest.raises(ValueError):
            basis.subset(0)
        with pytest.raises(ValueError):
            basis.subset(3)


class TestRNSPolynomial:
    def test_integer_roundtrip(self):
        basis = make_basis(3)
        rng = random.Random(0)
        coeffs = [rng.randrange(basis.product) for _ in range(DEGREE)]
        poly = RNSPolynomial.from_integer_coefficients(DEGREE, basis, coeffs)
        assert poly.to_integer_coefficients() == coeffs

    def test_addition_matches_big_integer_addition(self):
        basis = make_basis(3)
        rng = random.Random(1)
        a_coeffs = [rng.randrange(basis.product) for _ in range(DEGREE)]
        b_coeffs = [rng.randrange(basis.product) for _ in range(DEGREE)]
        a = RNSPolynomial.from_integer_coefficients(DEGREE, basis, a_coeffs)
        b = RNSPolynomial.from_integer_coefficients(DEGREE, basis, b_coeffs)
        expected = [(x + y) % basis.product for x, y in zip(a_coeffs, b_coeffs)]
        assert (a + b).to_integer_coefficients() == expected

    def test_multiplication_matches_big_modulus_polynomial(self):
        basis = make_basis(2)
        rng = random.Random(2)
        a_coeffs = [rng.randrange(1000) for _ in range(DEGREE)]
        b_coeffs = [rng.randrange(1000) for _ in range(DEGREE)]
        a = RNSPolynomial.from_integer_coefficients(DEGREE, basis, a_coeffs)
        b = RNSPolynomial.from_integer_coefficients(DEGREE, basis, b_coeffs)
        assert (a * b).to_integer_coefficients() == naive_negacyclic_multiply(
            a_coeffs, b_coeffs, basis.product)

    def test_non_ntt_modulus_in_basis_raises(self):
        """A basis holding a non-NTT prime carries residues, sums and BConv
        (all coefficient-wise), but every ring product over it raises."""
        basis = RNSBasis([make_basis(1).moduli[0], non_ntt_prime(24, DEGREE)])
        coeffs = list(range(DEGREE))
        poly = RNSPolynomial.from_integer_coefficients(DEGREE, basis, coeffs)
        assert (poly + poly).to_integer_coefficients() == [2 * c for c in coeffs]
        target = make_basis(3, offset=1)
        fast = fast_basis_conversion(poly, target)
        for c, residues in zip(coeffs, zip(*fast.coefficient_rows())):
            assert (target.reconstruct(list(residues)) - c) % basis.product == 0
        for product in (poly.to_eval, lambda: poly * poly):
            with pytest.raises(ValueError, match="not NTT-friendly"):
                product()

    def test_scalar_multiplication(self):
        basis = make_basis(2)
        poly = RNSPolynomial.from_integer_coefficients(DEGREE, basis, list(range(DEGREE)))
        tripled = poly * 3
        assert tripled.to_integer_coefficients() == [3 * c for c in range(DEGREE)]

    def test_incompatible_bases_raise(self):
        a = RNSPolynomial(DEGREE, make_basis(2))
        b = RNSPolynomial(DEGREE, make_basis(3))
        with pytest.raises(ValueError):
            _ = a + b

    def test_level_and_drop_last_limb(self):
        basis = make_basis(3)
        poly = RNSPolynomial.from_integer_coefficients(DEGREE, basis, [5] * DEGREE)
        assert poly.level == 2
        dropped = poly.drop_last_limb()
        assert dropped.level == 1
        assert dropped.to_integer_coefficients() == [5] * DEGREE

    def test_cannot_drop_only_limb(self):
        basis = make_basis(1)
        poly = RNSPolynomial(DEGREE, basis)
        with pytest.raises(ValueError):
            poly.drop_last_limb()


class TestRescale:
    def test_rescale_divides_by_last_modulus(self):
        basis = make_basis(3)
        q_last = basis.moduli[-1]
        rng = random.Random(3)
        # Use values that are exact multiples of q_last so rescale is exact.
        coeffs = [rng.randrange(basis.product // q_last) * q_last for _ in range(DEGREE)]
        poly = RNSPolynomial.from_integer_coefficients(DEGREE, basis, coeffs)
        rescaled = poly.rescale()
        assert rescaled.to_integer_coefficients() == [c // q_last for c in coeffs]

    def test_rescale_rounding_error_is_small(self):
        basis = make_basis(3)
        q_last = basis.moduli[-1]
        rng = random.Random(4)
        coeffs = [rng.randrange(basis.product // 4) for _ in range(DEGREE)]
        poly = RNSPolynomial.from_integer_coefficients(DEGREE, basis, coeffs)
        rescaled = poly.rescale().to_integer_coefficients()
        for original, result in zip(coeffs, rescaled):
            assert abs(result - original / q_last) <= 1.0

    def test_rescale_single_limb_raises(self):
        poly = RNSPolynomial(DEGREE, make_basis(1))
        with pytest.raises(ValueError):
            poly.rescale()


class TestBasisConversion:
    def test_exact_conversion_preserves_small_values(self):
        source = make_basis(2)
        target = make_basis(2, bits=26, offset=4)
        coeffs = [5, -7, 123, -456] + [0] * (DEGREE - 4)
        poly = RNSPolynomial.from_integer_coefficients(
            DEGREE, source, [c % source.product for c in coeffs]
        )
        converted = exact_basis_conversion(poly, target)
        centred = converted.centered_coefficients()
        assert centred[:4] == [5, -7, 123, -456]

    def test_fast_conversion_error_is_a_small_multiple_of_source_product(self):
        # Target basis strictly larger than (len(source)+1) * Q so the value
        # x + u*Q is representable without wrap-around in the target.
        source = make_basis(2, bits=20)
        target = make_basis(3, bits=30, offset=5)
        rng = random.Random(5)
        coeffs = [rng.randrange(source.product) for _ in range(DEGREE)]
        poly = RNSPolynomial.from_integer_coefficients(DEGREE, source, coeffs)
        fast = fast_basis_conversion(poly, target)
        for idx in range(DEGREE):
            residues = [row[idx] for row in fast.coefficient_rows()]
            value = target.reconstruct(residues)
            # fast conversion returns x + u * Q with 0 <= u < len(source basis)
            difference = value - coeffs[idx]
            assert difference % source.product == 0
            assert 0 <= difference // source.product < len(source.moduli)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_fast_conversion_of_constants(self, value):
        source = make_basis(2)
        target = make_basis(1, bits=30, offset=6)
        poly = RNSPolynomial.from_integer_coefficients(
            DEGREE, source, [value] + [0] * (DEGREE - 1)
        )
        fast = fast_basis_conversion(poly, target)
        recovered = fast.coefficient_rows()[0][0]
        q = target.moduli[0]
        # Correct up to a small multiple of the source product.
        assert (recovered - value) % q in {
            (k * source.product) % q for k in range(len(source.moduli))
        }
