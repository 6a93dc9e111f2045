"""LWE ciphertexts: the scalar ciphertext type of TFHE.

An LWE ciphertext of a message ``m`` under a binary secret ``s`` of dimension
``n`` is ``(a, b)`` with ``a`` uniform in ``Z_q^n`` and

    b = <a, s> + encode(m) + e        (mod q),

where ``encode(m) = m * Delta`` places the message in the top bits of the
modulus.  The *phase* ``b - <a, s>`` recovers ``encode(m) + e`` and rounding
recovers ``m``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..backend import active_backend
from ..modmath import centered
from ..params import TFHEParameters

__all__ = ["LWESecretKey", "LWECiphertext", "LWEContext", "sample_mask"]


@dataclass(frozen=True)
class LWESecretKey:
    """A binary LWE secret of dimension ``n``."""

    coefficients: Tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.coefficients)


@dataclass
class LWECiphertext:
    """An LWE ciphertext ``(a, b)`` with explicit modulus."""

    a: List[int]
    b: int
    modulus: int

    @property
    def dimension(self) -> int:
        return len(self.a)

    # -- linear homomorphisms (free operations on LWE) -------------------------
    def __add__(self, other: "LWECiphertext") -> "LWECiphertext":
        self._check(other)
        q = self.modulus
        return LWECiphertext(
            a=[(x + y) % q for x, y in zip(self.a, other.a)],
            b=(self.b + other.b) % q,
            modulus=q,
        )

    def __sub__(self, other: "LWECiphertext") -> "LWECiphertext":
        self._check(other)
        q = self.modulus
        return LWECiphertext(
            a=[(x - y) % q for x, y in zip(self.a, other.a)],
            b=(self.b - other.b) % q,
            modulus=q,
        )

    def __neg__(self) -> "LWECiphertext":
        q = self.modulus
        return LWECiphertext(a=[(-x) % q for x in self.a], b=(-self.b) % q, modulus=q)

    def scalar_multiply(self, scalar: int) -> "LWECiphertext":
        """Multiply the ciphertext (and hence the message) by an integer."""
        q = self.modulus
        return LWECiphertext(
            a=[(x * scalar) % q for x in self.a], b=(self.b * scalar) % q, modulus=q
        )

    def add_constant(self, value: int) -> "LWECiphertext":
        """Add a plaintext constant (already encoded/scaled) to the message."""
        return LWECiphertext(a=list(self.a), b=(self.b + value) % self.modulus, modulus=self.modulus)

    def _check(self, other: "LWECiphertext") -> None:
        if self.modulus != other.modulus or self.dimension != other.dimension:
            raise ValueError("LWE ciphertexts are incompatible")


def sample_mask(rng: random.Random, modulus: int, dimension: int) -> List[int]:
    """A uniform LWE mask (a binary secret at ``modulus`` 2), drawn by the
    active backend's block sampler.

    Consumes ``rng`` exactly like ``dimension`` calls of
    ``rng.randrange(modulus)`` (the sampler's contract), so key material is
    the same on every backend.
    """
    backend = active_backend()
    store = backend.sample_uniform_limbs(rng, (modulus,), dimension)
    return backend.store_rows(store)[0]


class LWEContext:
    """Encrypt/decrypt scalar messages under a TFHE parameter set."""

    def __init__(self, params: TFHEParameters, seed: int = 0):
        self.params = params
        self.rng = random.Random(seed ^ 0x1F3E)
        self.secret = LWESecretKey(tuple(sample_mask(self.rng, 2, params.lwe_dimension)))

    # -- encoding -----------------------------------------------------------------
    def encode(self, message: int) -> int:
        """Scale a message in ``[0, t)`` into the top bits of the modulus."""
        t = self.params.plaintext_modulus
        return (message % t) * (self.params.modulus // t)

    def decode(self, value: int) -> int:
        """Round a phase back to a message in ``[0, t)``."""
        t = self.params.plaintext_modulus
        q = self.params.modulus
        return round(value * t / q) % t

    # -- encryption ------------------------------------------------------------------
    def encrypt(self, message: int, secret: LWESecretKey | None = None,
                noise_stddev: float | None = None) -> LWECiphertext:
        """Encrypt a message in ``[0, plaintext_modulus)``."""
        return self.encrypt_raw(self.encode(message), secret=secret, noise_stddev=noise_stddev)

    def encrypt_raw(self, encoded: int, secret: LWESecretKey | None = None,
                    noise_stddev: float | None = None) -> LWECiphertext:
        """Encrypt an already-encoded value (used by keyswitch key generation)."""
        secret = secret or self.secret
        q = self.params.modulus
        stddev = self.params.noise_stddev if noise_stddev is None else noise_stddev
        a = sample_mask(self.rng, q, secret.dimension)
        noise = round(self.rng.gauss(0.0, stddev)) if stddev > 0 else 0
        b = (sum(x * s for x, s in zip(a, secret.coefficients)) + encoded + noise) % q
        return LWECiphertext(a=a, b=b, modulus=q)

    def trivial(self, encoded: int, dimension: int | None = None) -> LWECiphertext:
        """A noiseless ciphertext of an encoded value with zero mask (public)."""
        dimension = self.params.lwe_dimension if dimension is None else dimension
        return LWECiphertext(a=[0] * dimension, b=encoded % self.params.modulus,
                             modulus=self.params.modulus)

    # -- decryption ------------------------------------------------------------------
    def phase(self, ciphertext: LWECiphertext, secret: LWESecretKey | None = None) -> int:
        """The raw phase ``b - <a, s>`` (encoded message plus noise), centred."""
        secret = secret or self.secret
        q = ciphertext.modulus
        inner = sum(x * s for x, s in zip(ciphertext.a, secret.coefficients)) % q
        return centered((ciphertext.b - inner) % q, q)

    def decrypt(self, ciphertext: LWECiphertext, secret: LWESecretKey | None = None) -> int:
        """Decrypt back to a message in ``[0, plaintext_modulus)``."""
        return self.decode(self.phase(ciphertext, secret))
