"""GLWE ciphertexts: the ring ciphertext type used inside TFHE bootstrapping.

A GLWE ciphertext under a secret ``(S_1, ..., S_k)`` of ring polynomials is

    (A_1, ..., A_k, B)   with   B = sum_i A_i * S_i + M + E,

all in ``R_q = Z_q[X]/(X^N + 1)``.  For ``k = 1`` this is an RLWE ciphertext;
for ``N = 1`` it degenerates to LWE.  The *phase* is ``B - sum_i A_i * S_i``.

Messages, secrets and every component are one-limb
:class:`~repro.fhe.rns.RNSPolynomial` values over ``RNSBasis([q])``, and a
ciphertext is one ``(k + 1, N)`` backend store — the block it occupies in a
blind-rotation wave — so each linear homomorphism is one kernel dispatch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..backend import ArithmeticBackend, active_backend, use_backend
from ..params import TFHEParameters
from ..polynomial import monomial_spec
from ..rns import RNSBasis, RNSPolynomial, sample_error
from .lwe import sample_mask

__all__ = ["GLWESecretKey", "GLWECiphertext", "GLWEContext"]


@dataclass(frozen=True)
class GLWESecretKey:
    """A GLWE secret: ``k`` binary polynomials of degree ``N``."""

    polynomials: Tuple[RNSPolynomial, ...]

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


class GLWECiphertext:
    """A GLWE ciphertext ``(A_1, ..., A_k, B)``: one ``(k + 1, N)`` backend
    store over the one-limb ``basis``, mask rows first (adopted, not copied;
    immutable by convention)."""

    __slots__ = ("ring_degree", "basis", "_rows")

    def __init__(self, ring_degree: int, basis: RNSBasis, store):
        self.ring_degree = ring_degree
        self.basis = basis
        self._rows = store

    @classmethod
    def _pack(cls, ring_degree: int, basis: RNSBasis, rows) -> "GLWECiphertext":
        store = active_backend().pack_limbs(rows, tuple(basis.moduli) * len(rows))
        return cls(ring_degree, basis, store)

    @classmethod
    def from_components(cls, components: Sequence[RNSPolynomial]) -> "GLWECiphertext":
        """The ciphertext whose components, mask first, are these one-limb
        polynomials: one ``pack_limbs`` dispatch."""
        first = components[0]
        return cls._pack(first.ring_degree, first.basis,
                         [row for poly in components for row in poly.store()])

    @classmethod
    def trivial(cls, message: RNSPolynomial, glwe_dimension: int) -> "GLWECiphertext":
        """A noiseless public encryption (zero mask, body = message)."""
        zero = [0] * message.ring_degree
        return cls._pack(message.ring_degree, message.basis,
                         [zero] * glwe_dimension + list(message.store()))

    @property
    def glwe_dimension(self) -> int:
        return len(self._rows) - 1

    @property
    def modulus(self) -> int:
        return self.basis.moduli[0]

    @property
    def mask(self) -> List[RNSPolynomial]:
        return [self._component(i) for i in range(self.glwe_dimension)]

    @property
    def body(self) -> RNSPolynomial:
        return self._component(self.glwe_dimension)

    def _component(self, index: int) -> RNSPolynomial:
        return RNSPolynomial._from_store(
            self.ring_degree, self.basis, self._rows[index:index + 1])

    def store(self):
        """The ``(k + 1, N)`` backend store — a ciphertext's block of a
        blind-rotation wave store."""
        return self._rows

    def coefficient_rows(self) -> List[List[int]]:
        """The ``k + 1`` component rows, mask first, as python ints."""
        return active_backend().store_rows(self._rows)

    def _moduli(self) -> tuple:
        return (self.modulus,) * len(self._rows)

    def _adopt(self, store) -> "GLWECiphertext":
        return GLWECiphertext(self.ring_degree, self.basis, store)

    # -- linear homomorphisms: one whole-store kernel each -------------------
    def __add__(self, other: "GLWECiphertext") -> "GLWECiphertext":
        self._check(other)
        return self._adopt(
            active_backend().limbs_add(self._rows, other._rows, self._moduli()))

    def __sub__(self, other: "GLWECiphertext") -> "GLWECiphertext":
        self._check(other)
        return self._adopt(
            active_backend().limbs_sub(self._rows, other._rows, self._moduli()))

    def __neg__(self) -> "GLWECiphertext":
        return self._adopt(active_backend().limbs_neg(self._rows, self._moduli()))

    def multiply_by_monomial(self, degree: int) -> "GLWECiphertext":
        """Rotate: multiply every component by ``X^degree`` (negacyclic) —
        this runs twice per blind-rotation iteration."""
        n = self.ring_degree
        spec = monomial_spec(n, degree % (2 * n))
        return self._adopt(active_backend().limbs_signed_permute(
            self._rows, self._moduli(), spec))

    def _check(self, other: "GLWECiphertext") -> None:
        if (
            self.glwe_dimension != other.glwe_dimension
            or self.ring_degree != other.ring_degree
            or self.basis != other.basis
        ):
            raise ValueError("GLWE ciphertexts are incompatible")


class GLWEContext:
    """Encrypt/decrypt polynomial messages under a TFHE parameter set.

    Messages are one-limb polynomials over :attr:`basis`.  ``backend`` pins
    the arithmetic backend used by this context's ring operations
    (encryption and phase computation).
    """

    def __init__(self, params: TFHEParameters, seed: int = 0,
                 backend: "ArithmeticBackend | str | None" = None):
        self.params = params
        self.backend = backend
        self.rng = random.Random(seed ^ 0x61E3)
        self.basis = RNSBasis([params.modulus])
        n = params.polynomial_size
        self.secret = GLWESecretKey(
            tuple(
                RNSPolynomial.from_integer_coefficients(
                    n, self.basis, sample_mask(self.rng, 2, n))
                for _ in range(params.glwe_dimension)
            )
        )

    def encrypt(self, message: RNSPolynomial, noise_stddev: float | None = None) -> GLWECiphertext:
        """Encrypt a plaintext polynomial (already encoded/scaled by the caller)."""
        params = self.params
        n = params.polynomial_size
        stddev = params.noise_stddev if noise_stddev is None else noise_stddev
        with use_backend(self.backend):
            mask = [RNSPolynomial.sample_uniform(n, self.basis, self.rng)
                    for _ in range(params.glwe_dimension)]
            body = sample_error(n, self.basis, self.rng, stddev) + message
            for a, s in zip(mask, self.secret.polynomials):
                body = body + a * s
            return GLWECiphertext.from_components(mask + [body])

    def phase(self, ciphertext: GLWECiphertext) -> RNSPolynomial:
        """``B - sum_i A_i * S_i``: the encoded message plus noise."""
        with use_backend(self.backend):
            result = ciphertext.body
            for a, s in zip(ciphertext.mask, self.secret.polynomials):
                result = result - a * s
        return result
