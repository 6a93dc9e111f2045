"""High-level CKKS context: one object bundling encoder, keys, and evaluator.

:class:`CKKSContext` is the entry point the examples and integration tests
use: it owns a key set, encodes/encrypts vectors, evaluates, and decrypts.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from ..backend import ArithmeticBackend, active_backend, use_backend
from ..params import CKKSParameters
from ..polynomial import TERNARY_MODULI, ternary_coefficients
from ..rns import RNSBasis, RNSPolynomial, _limb_contexts, sample_batch
from .ciphertext import CKKSCiphertext, CKKSPlaintext
from .encoder import CKKSEncoder
from .evaluator import CKKSEvaluator
from .keys import CKKSKeyGenerator, CKKSKeySet, CKKSSecretKey

__all__ = ["CKKSContext", "measure_noise"]

#: The one-limb "basis" an encryption's dense ternary ``v`` is drawn under.
_TERNARY = RNSBasis(TERNARY_MODULI)


def _phase(ciphertext: CKKSCiphertext, secret: CKKSSecretKey) -> RNSPolynomial:
    """``c0 + c1 * s``, coefficient-resident.

    Computed in the ciphertext's own domain against the secret's cached
    evaluation image: a coefficient-resident pair pays one transform in (for
    ``c1``) and one out (for the product), an evaluation-resident pair only
    the one out — the decrypt side of the domain-residency convention.
    """
    c0, c1 = ciphertext.c0, ciphertext.c1
    product = c1.to_eval() * secret.as_eval(c1.ring_degree, c1.basis)
    if c0.domain == "eval":
        return (c0 + product).to_coeff()
    return c0 + product.to_coeff()


def measure_noise(ciphertext: CKKSCiphertext, secret: CKKSSecretKey,
                  expected: CKKSPlaintext) -> int:
    """Infinity norm of ``ciphertext``'s decryption error against ``expected``.

    The centred difference between ``c0 + c1 * s`` and the plaintext
    polynomial the ciphertext should hold (same level), in units of one
    integer coefficient: ``log2(scale / noise)`` is the bits of message that
    survive.  For tests and noise budgets — it needs the secret key.
    """
    return (_phase(ciphertext, secret) - expected.poly.to_coeff()).infinity_norm()


class CKKSContext:
    """A ready-to-use CKKS instance (keys + encoder + evaluator).

    ``backend`` pins the arithmetic backend for every operation rooted at
    this context — key generation, encryption, evaluation, decryption — so
    an end-to-end flow runs entirely on the chosen implementation.
    """

    def __init__(self, params: CKKSParameters, seed: int = 0, error_stddev: float = 3.2,
                 backend: "ArithmeticBackend | str | None" = None,
                 secret_hamming_weight: "int | None" = None):
        self.params = params
        self.rng = random.Random(seed ^ 0x5EED)
        self.error_stddev = error_stddev
        self.backend = backend
        self.keygen = CKKSKeyGenerator(
            params, seed=seed, error_stddev=error_stddev,
            secret_hamming_weight=secret_hamming_weight, backend=backend,
        )
        self.keys: CKKSKeySet = self.keygen.generate()
        self.encoder = CKKSEncoder(params, backend=backend)
        self.evaluator = CKKSEvaluator(params, self.keys, backend=backend)

    # -- encryption -----------------------------------------------------------
    def encrypt(self, plaintext: CKKSPlaintext) -> CKKSCiphertext:
        """Public-key encryption of an encoded plaintext."""
        with use_backend(self.backend):
            return self._encrypt(plaintext)

    def _encrypt(self, plaintext: CKKSPlaintext) -> CKKSCiphertext:
        params = self.params
        n = params.ring_degree
        basis = params.basis(plaintext.level)
        moduli = tuple(basis.moduli)
        contexts = _limb_contexts(n, basis)
        backend = active_backend()
        # Restrict the public key to the plaintext's level.
        pk_b = self.keys.public.b.keep_limbs(plaintext.level + 1)
        pk_a = self.keys.public.a.keep_limbs(plaintext.level + 1)
        # ``v``, ``e0``, ``e1`` in one batch, in that order.
        ternary, e0, e1 = sample_batch(n, self.rng, [
            (_TERNARY, None), (basis, self.error_stddev), (basis, self.error_stddev)])
        v = RNSPolynomial.from_integer_coefficients(
            n, basis, ternary_coefficients(ternary.store()))
        # One stacked forward transform (v serves both products) and one
        # stacked inverse, instead of a dispatch per polynomial.
        b_eval, a_eval, v_eval = backend.stacked_ntt(
            contexts, [pk_b.store(), pk_a.store(), v.store()])
        c0, c1 = (
            RNSPolynomial._from_store(n, basis, store)
            for store in backend.stacked_intt(contexts, [
                backend.limbs_mul(b_eval, v_eval, moduli),
                backend.limbs_mul(a_eval, v_eval, moduli),
            ])
        )
        return CKKSCiphertext(c0=c0 + e0 + plaintext.poly, c1=c1 + e1,
                              level=plaintext.level, scale=plaintext.scale)

    def encrypt_symmetric(self, plaintext: CKKSPlaintext) -> CKKSCiphertext:
        """Secret-key encryption (fresh uniform mask, lower noise)."""
        params = self.params
        n = params.ring_degree
        basis = params.basis(plaintext.level)
        with use_backend(self.backend):
            s = self.keys.secret.as_rns(n, basis)
            a, e = sample_batch(
                n, self.rng, [(basis, None), (basis, self.error_stddev)])
            c0 = -(a * s) + e + plaintext.poly
        return CKKSCiphertext(c0=c0, c1=a, level=plaintext.level, scale=plaintext.scale)

    # -- decryption ------------------------------------------------------------
    def decrypt(self, ciphertext: CKKSCiphertext) -> CKKSPlaintext:
        """Decrypt to a plaintext polynomial (``c0 + c1 * s``).

        Evaluation-resident ciphertexts are converted at this boundary — the
        decrypt side of the domain-residency convention.
        """
        with use_backend(self.backend):
            poly = _phase(ciphertext, self.keys.secret)
        return CKKSPlaintext(poly=poly, level=ciphertext.level, scale=ciphertext.scale)

    # -- convenience round-trips -------------------------------------------------
    def encrypt_vector(self, values: Sequence[complex], level: int | None = None) -> CKKSCiphertext:
        """Encode and encrypt a complex vector in one call."""
        return self.encrypt(self.encoder.encode(values, level=level))

    def decrypt_vector(self, ciphertext: CKKSCiphertext, num_values: int | None = None) -> List[complex]:
        """Decrypt and decode back to a complex vector."""
        return self.encoder.decode(self.decrypt(ciphertext), num_values=num_values)
