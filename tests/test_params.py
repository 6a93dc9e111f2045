"""Tests for the parameter sets (Table IV) and their derived quantities."""

import pytest

from repro.fhe import modmath
from repro.fhe.params import (
    CKKS_DEFAULT,
    CKKS_KEYSWITCH_BREAKDOWN,
    CKKSParameters,
    CONVERSION_DEFAULT,
    ConversionParameters,
    TFHE_PARAMETER_SETS,
    TFHE_SET_I,
    TFHE_SET_II,
    TFHE_SET_III,
    TFHEParameters,
)


class TestPaperParameterSets:
    def test_ckks_default_matches_table_iv(self):
        assert CKKS_DEFAULT.ring_degree == 65536
        assert CKKS_DEFAULT.max_level == 35
        assert CKKS_DEFAULT.dnum == 3
        assert CKKS_DEFAULT.security_bits == 128

    def test_keyswitch_breakdown_set(self):
        assert CKKS_KEYSWITCH_BREAKDOWN.max_level == 23
        assert CKKS_KEYSWITCH_BREAKDOWN.dnum == 3

    def test_tfhe_sets_match_table_iv(self):
        assert (TFHE_SET_I.polynomial_size, TFHE_SET_I.lwe_dimension,
                TFHE_SET_I.glwe_dimension, TFHE_SET_I.bsk_levels) == (1024, 500, 1, 2)
        assert (TFHE_SET_II.polynomial_size, TFHE_SET_II.lwe_dimension,
                TFHE_SET_II.bsk_levels) == (1024, 630, 3)
        assert (TFHE_SET_III.polynomial_size, TFHE_SET_III.lwe_dimension,
                TFHE_SET_III.bsk_levels) == (2048, 592, 3)
        assert TFHE_SET_I.security_bits == 80
        assert TFHE_SET_II.security_bits == 110
        assert TFHE_SET_III.security_bits == 128

    def test_parameter_set_registry(self):
        assert set(TFHE_PARAMETER_SETS) == {"Set-I", "Set-II", "Set-III"}

    def test_conversion_default_matches_benchmark(self):
        assert CONVERSION_DEFAULT.ckks.ring_degree == 2 ** 14
        assert CONVERSION_DEFAULT.ckks.max_level == 8


class TestCKKSDerivedQuantities:
    def test_alpha_and_beta(self):
        # L = 35, dnum = 3 -> alpha = 12 moduli per digit, 3 digits at full level.
        assert CKKS_DEFAULT.alpha == 12
        assert CKKS_DEFAULT.beta(CKKS_DEFAULT.max_level) == 3
        assert CKKS_DEFAULT.beta(0) == 1
        # The digit layout is beta(level) runs of alpha moduli, the last short.
        assert CKKS_DEFAULT.digit_slices(35) == ((0, 12), (12, 24), (24, 36))
        assert CKKS_DEFAULT.digit_slices(13) == ((0, 12), (12, 14))
        assert CKKS_DEFAULT.digit_slices(0) == ((0, 1),)

    def test_slots(self):
        assert CKKS_DEFAULT.slots == 32768

    def test_scale(self):
        params = CKKSParameters.toy()
        assert params.scale == 1 << params.scale_bits

    def test_functional_moduli_are_ntt_friendly(self):
        params = CKKSParameters.toy()
        for q in params.moduli + params.special_moduli:
            assert modmath.is_prime(q)
            assert q % (2 * params.ring_degree) == 1
        assert len(set(params.moduli + params.special_moduli)) == \
            params.num_moduli + params.num_special_moduli

    def test_basis_levels(self):
        params = CKKSParameters.toy(max_level=3)
        assert len(params.basis(0)) == 1
        assert len(params.basis()) == 4
        assert len(params.extended_basis(1)) == 2 + params.num_special_moduli
        with pytest.raises(ValueError):
            params.basis(9)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CKKSParameters(ring_degree=100, max_level=3, dnum=2)
        with pytest.raises(ValueError):
            CKKSParameters(ring_degree=64, max_level=0, dnum=2)
        with pytest.raises(ValueError):
            CKKSParameters(ring_degree=64, max_level=3, dnum=0)


class TestTFHEDerivedQuantities:
    def test_external_product_branches(self):
        assert TFHE_SET_I.external_product_branches == 4     # (k+1) * l_b = 2 * 2
        assert TFHE_SET_III.external_product_branches == 6    # 2 * 3

    def test_glwe_lwe_dimension(self):
        assert TFHE_SET_III.glwe_lwe_dimension == 2048

    def test_functional_modulus_is_ntt_friendly(self):
        params = TFHEParameters.toy()
        assert modmath.is_prime(params.modulus)
        assert params.modulus % (2 * params.polynomial_size) == 1

    def test_bases_are_powers_of_two(self):
        assert TFHE_SET_I.bsk_base == 1 << TFHE_SET_I.bsk_base_log
        assert TFHE_SET_I.ksk_base == 1 << TFHE_SET_I.ksk_base_log

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TFHEParameters(polynomial_size=100, lwe_dimension=10)
        with pytest.raises(ValueError):
            TFHEParameters(polynomial_size=64, lwe_dimension=0)
        with pytest.raises(ValueError):
            TFHEParameters(polynomial_size=64, lwe_dimension=8, glwe_dimension=0)


class TestConversionParameters:
    def test_nslot_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            ConversionParameters(ckks=CKKSParameters.toy(), tfhe=TFHEParameters.toy(), nslot=3)

    def test_nslot_bounded_by_ring_degree(self):
        with pytest.raises(ValueError):
            ConversionParameters(
                ckks=CKKSParameters.toy(ring_degree=64), tfhe=TFHEParameters.toy(), nslot=128
            )
