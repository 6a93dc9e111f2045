"""GLWE ciphertexts: the ring ciphertext type used inside TFHE bootstrapping.

A GLWE ciphertext under a secret ``(S_1, ..., S_k)`` of ring polynomials is

    (A_1, ..., A_k, B)   with   B = sum_i A_i * S_i + M + E,

all in ``R_q = Z_q[X]/(X^N + 1)``.  For ``k = 1`` this is an RLWE ciphertext;
for ``N = 1`` it degenerates to LWE.  The *phase* is ``B - sum_i A_i * S_i``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from ..backend import ArithmeticBackend, active_backend, use_backend
from ..params import TFHEParameters
from ..polynomial import Polynomial, monomial_spec, sample_gaussian, sample_uniform

__all__ = ["GLWESecretKey", "GLWECiphertext", "GLWEContext"]


@dataclass(frozen=True)
class GLWESecretKey:
    """A GLWE secret: ``k`` binary polynomials of degree ``N``."""

    polynomials: Tuple[Polynomial, ...]

    @property
    def glwe_dimension(self) -> int:
        return len(self.polynomials)

    @property
    def ring_degree(self) -> int:
        return self.polynomials[0].ring_degree

    def flattened_lwe_coefficients(self) -> List[int]:
        """The secret viewed as a length-(k*N) LWE key (for SampleExtract)."""
        coefficients: List[int] = []
        for poly in self.polynomials:
            coefficients.extend(poly.centered_coefficients())
        return coefficients


@dataclass
class GLWECiphertext:
    """A GLWE ciphertext ``(A_1, ..., A_k, B)``."""

    mask: List[Polynomial]
    body: Polynomial

    @property
    def glwe_dimension(self) -> int:
        return len(self.mask)

    @property
    def ring_degree(self) -> int:
        return self.body.ring_degree

    @property
    def modulus(self) -> int:
        return self.body.modulus

    # -- linear homomorphisms -------------------------------------------------
    def __add__(self, other: "GLWECiphertext") -> "GLWECiphertext":
        self._check(other)
        return GLWECiphertext(
            mask=[a + b for a, b in zip(self.mask, other.mask)],
            body=self.body + other.body,
        )

    def __sub__(self, other: "GLWECiphertext") -> "GLWECiphertext":
        self._check(other)
        return GLWECiphertext(
            mask=[a - b for a, b in zip(self.mask, other.mask)],
            body=self.body - other.body,
        )

    def __neg__(self) -> "GLWECiphertext":
        return GLWECiphertext(mask=[-a for a in self.mask], body=-self.body)

    def multiply_by_monomial(self, degree: int) -> "GLWECiphertext":
        """Rotate: multiply every component by ``X^degree`` (negacyclic).

        All ``k + 1`` components ride one batched signed-permutation
        dispatch — this runs twice per blind-rotation iteration.
        """
        n = self.ring_degree
        q = self.modulus
        backend = active_backend()
        spec = monomial_spec(n, degree % (2 * n))
        rows = self.coefficient_rows()
        out = backend.store_rows(
            backend.limbs_signed_permute(rows, (q,) * len(rows), spec)
        )
        return GLWECiphertext.from_rows(n, q, out)

    def coefficient_rows(self) -> List[List[int]]:
        """The ``k + 1`` component rows, mask first — a ciphertext's block of
        a blind-rotation wave store."""
        return [poly.coefficients for poly in self.mask] + [self.body.coefficients]

    @classmethod
    def from_rows(cls, ring_degree: int, modulus: int, rows) -> "GLWECiphertext":
        """Inverse of :meth:`coefficient_rows` (rows already reduced)."""
        polys = [Polynomial._from_reduced(ring_degree, modulus, row) for row in rows]
        return cls(mask=polys[:-1], body=polys[-1])

    def _check(self, other: "GLWECiphertext") -> None:
        if (
            self.glwe_dimension != other.glwe_dimension
            or self.ring_degree != other.ring_degree
            or self.modulus != other.modulus
        ):
            raise ValueError("GLWE ciphertexts are incompatible")

    @classmethod
    def zero(cls, glwe_dimension: int, ring_degree: int, modulus: int) -> "GLWECiphertext":
        """The trivial encryption of zero (all components zero)."""
        return cls(
            mask=[Polynomial.zero(ring_degree, modulus) for _ in range(glwe_dimension)],
            body=Polynomial.zero(ring_degree, modulus),
        )

    @classmethod
    def trivial(cls, message: Polynomial, glwe_dimension: int) -> "GLWECiphertext":
        """A noiseless public encryption (zero mask, body = message)."""
        return cls(
            mask=[Polynomial.zero(message.ring_degree, message.modulus) for _ in range(glwe_dimension)],
            body=message,
        )


class GLWEContext:
    """Encrypt/decrypt polynomial messages under a TFHE parameter set.

    ``backend`` pins the arithmetic backend used by this context's ring
    operations (encryption mask products and phase computation).
    """

    def __init__(self, params: TFHEParameters, seed: int = 0,
                 backend: "ArithmeticBackend | str | None" = None):
        self.params = params
        self.backend = backend
        self.rng = random.Random(seed ^ 0x61E3)
        n = params.polynomial_size
        q = params.modulus
        self.secret = GLWESecretKey(
            tuple(
                Polynomial(n, q, [self.rng.randrange(2) for _ in range(n)])
                for _ in range(params.glwe_dimension)
            )
        )

    def encrypt(self, message: Polynomial, noise_stddev: float | None = None) -> GLWECiphertext:
        """Encrypt a plaintext polynomial (already encoded/scaled by the caller)."""
        params = self.params
        n = params.polynomial_size
        q = params.modulus
        stddev = params.noise_stddev if noise_stddev is None else noise_stddev
        mask = [sample_uniform(n, q, self.rng) for _ in range(params.glwe_dimension)]
        if stddev > 0:
            error = sample_gaussian(n, q, self.rng, stddev)
        else:
            error = Polynomial.zero(n, q)
        with use_backend(self.backend):
            body = error + message
            for a, s in zip(mask, self.secret.polynomials):
                body = body + a * s
        return GLWECiphertext(mask=mask, body=body)

    def phase(self, ciphertext: GLWECiphertext) -> Polynomial:
        """``B - sum_i A_i * S_i``: the encoded message plus noise."""
        with use_backend(self.backend):
            result = ciphertext.body
            for a, s in zip(ciphertext.mask, self.secret.polynomials):
                result = result - a * s
        return result
