"""Homomorphic boolean gates via gate bootstrapping (CGGI).

Bits are encoded on the torus as ``+q/8`` (True) and ``-q/8`` (False).  Every
binary gate is one affine combination of the input ciphertexts followed by a
single gate bootstrap whose test vector maps a positive phase to ``+q/8`` and
a negative phase to ``-q/8``.  NOT is free (negation).

These gates are what the paper's TFHE NN-x benchmark and the HE3DB filter
stage are ultimately built from; the gate evaluator also powers the
``examples/hybrid_database.py`` example.
"""

from __future__ import annotations

from typing import Iterable, List

from .batched import sign_test_vector
from .lwe import LWECiphertext
from .pbs import TFHEContext

__all__ = ["TFHEGateEvaluator"]


class TFHEGateEvaluator:
    """Encrypt bits and evaluate boolean circuits with gate bootstrapping."""

    def __init__(self, context: TFHEContext):
        self.context = context
        self.params = context.params
        q = self.params.modulus
        self._true_encoding = q // 8
        self._false_encoding = (-(q // 8)) % q
        self._sign_test_vector = sign_test_vector(context, self._true_encoding)

    # -- encoding ----------------------------------------------------------
    def encrypt(self, bit: bool) -> LWECiphertext:
        """Encrypt one boolean under the LWE key."""
        encoded = self._true_encoding if bit else self._false_encoding
        return self.context.lwe.encrypt_raw(encoded)

    def decrypt(self, ciphertext: LWECiphertext) -> bool:
        """Decrypt a boolean: the sign of the phase is the bit."""
        return self.context.phase(ciphertext) > 0

    def trivial(self, bit: bool) -> LWECiphertext:
        """A noiseless public constant."""
        encoded = self._true_encoding if bit else self._false_encoding
        return self.context.lwe.trivial(encoded)

    # -- gate bootstrap ---------------------------------------------------------
    def bootstrap_sign(self, ciphertext: LWECiphertext) -> LWECiphertext:
        """Map any ciphertext to a fresh encryption of ``sign(phase)`` (+-q/8).

        One PBS of the context (on the backend it pins) against the constant
        ``q/8`` test vector."""
        return self.context.programmable_bootstrap(
            ciphertext, self._sign_test_vector)

    # -- gates -----------------------------------------------------------------
    def not_(self, a: LWECiphertext) -> LWECiphertext:
        """NOT is ciphertext negation: no bootstrap required."""
        return -a

    def nand(self, a: LWECiphertext, b: LWECiphertext) -> LWECiphertext:
        """NAND: bootstrap(q/8 - a - b)."""
        combined = self.context.lwe.trivial(self.params.modulus // 8) - a - b
        return self.bootstrap_sign(combined)

    def and_(self, a: LWECiphertext, b: LWECiphertext) -> LWECiphertext:
        """AND: bootstrap(-q/8 + a + b)."""
        combined = self.context.lwe.trivial((-(self.params.modulus // 8)) % self.params.modulus) + a + b
        return self.bootstrap_sign(combined)

    def or_(self, a: LWECiphertext, b: LWECiphertext) -> LWECiphertext:
        """OR: bootstrap(q/8 + a + b)."""
        combined = self.context.lwe.trivial(self.params.modulus // 8) + a + b
        return self.bootstrap_sign(combined)

    def nor(self, a: LWECiphertext, b: LWECiphertext) -> LWECiphertext:
        """NOR: NOT(OR) computed in a single bootstrap."""
        combined = self.context.lwe.trivial(self.params.modulus // 8) + a + b
        return -self.bootstrap_sign(combined)

    def xor(self, a: LWECiphertext, b: LWECiphertext) -> LWECiphertext:
        """XOR: bootstrap(q/4 + 2*(a + b))."""
        combined = self.context.lwe.trivial(self.params.modulus // 4) + (a + b).scalar_multiply(2)
        return self.bootstrap_sign(combined)

    def xnor(self, a: LWECiphertext, b: LWECiphertext) -> LWECiphertext:
        """XNOR: NOT(XOR) in a single bootstrap."""
        combined = self.context.lwe.trivial(self.params.modulus // 4) + (a + b).scalar_multiply(2)
        return -self.bootstrap_sign(combined)

    def mux(self, selector: LWECiphertext, when_true: LWECiphertext,
            when_false: LWECiphertext) -> LWECiphertext:
        """MUX(s, a, b) = (s AND a) OR (NOT s AND b): three bootstraps."""
        first = self.and_(selector, when_true)
        second = self.and_(self.not_(selector), when_false)
        return self.or_(first, second)

    # -- small circuits (used by examples / integration tests) ---------------------
    def equality(self, a_bits: Iterable[LWECiphertext], b_bits: Iterable[LWECiphertext]) -> LWECiphertext:
        """Bitwise equality of two encrypted bit-vectors."""
        result: LWECiphertext | None = None
        for a_bit, b_bit in zip(a_bits, b_bits):
            bit_equal = self.xnor(a_bit, b_bit)
            result = bit_equal if result is None else self.and_(result, bit_equal)
        if result is None:
            return self.trivial(True)
        return result

    def less_than(self, a_bits: List[LWECiphertext], b_bits: List[LWECiphertext]) -> LWECiphertext:
        """Unsigned comparison ``a < b`` over little-endian encrypted bit-vectors."""
        if len(a_bits) != len(b_bits):
            raise ValueError("bit vectors must have the same length")
        result = self.trivial(False)
        for a_bit, b_bit in zip(a_bits, b_bits):  # little-endian scan
            bit_equal = self.xnor(a_bit, b_bit)
            bit_less = self.and_(self.not_(a_bit), b_bit)
            result = self.or_(bit_less, self.and_(bit_equal, result))
        return result
