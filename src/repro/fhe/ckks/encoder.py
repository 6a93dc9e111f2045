"""CKKS canonical-embedding encoder.

Maps complex vectors of ``N/2`` slots to integer plaintext polynomials and
back, scaled by ``Delta``.  The embedding evaluates a real-coefficient
polynomial at the primitive 2N-th roots of unity ``zeta_j = exp(i*pi*g_j/N)``
with ``g_j = 5^j mod 2N`` (the same rotation group that CKKS HRotate uses),
so that slot rotation corresponds to the ring automorphism ``X -> X^(5^r)``.

The implementation uses a dense O(n*N) matrix product via numpy; the ring
degrees used functionally (N <= 4096) keep this instantaneous, and the
hardware model never calls it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Sequence

try:  # numpy is an optional extra; the encoder is the only hard consumer.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    np = None

from ..backend import ArithmeticBackend, use_backend
from ..params import CKKSParameters
from ..rns import RNSPolynomial
from .ciphertext import CKKSPlaintext

__all__ = ["CKKSEncoder"]


# The tables depend on the ring degree alone, and the (N/2) x N complex power
# is the most expensive part of building a context, so every encoder of one
# ring degree shares one read-only copy.  Bounded: a matrix is 8 * N^2 bytes
# (32 MB at N = 2048).
@lru_cache(maxsize=4)
def _embedding_tables(ring_degree: int):
    """``(rotation group, decode matrix)`` of one ring degree, both read-only."""
    n = ring_degree // 2
    # Rotation group: powers of 5 modulo 2N; one root per slot.
    group = np.empty(n, dtype=np.int64)
    value = 1
    for j in range(n):
        group[j] = value
        value = (value * 5) % (2 * ring_degree)
    # Evaluation points zeta_j and the n x N Vandermonde-style matrix
    # A[j, k] = zeta_j^k used for decoding (and its conjugate for encoding).
    angles = np.pi * group.astype(np.float64) / ring_degree
    zetas = np.exp(1j * angles)
    powers = np.arange(ring_degree, dtype=np.float64)
    matrix = zetas[:, None] ** powers[None, :]
    group.setflags(write=False)
    matrix.setflags(write=False)
    return group, matrix


class CKKSEncoder:
    """Encode/decode complex slot vectors for one CKKS parameter set.

    ``backend`` pins the arithmetic backend used for the RNS decomposition
    part of encode/decode (the float canonical embedding itself always uses
    numpy and is unavailable without it).
    """

    def __init__(self, params: CKKSParameters,
                 backend: "ArithmeticBackend | str | None" = None):
        if np is None:
            raise RuntimeError(
                "CKKSEncoder requires numpy (install the 'numpy' extra); "
                "the rest of the FHE layer runs without it on the python backend"
            )
        self.params = params
        self.backend = backend
        self._rotation_group, self._eval_matrix = _embedding_tables(params.ring_degree)

    # -- encoding ---------------------------------------------------------
    def encode(self, values: Sequence[complex], level: int | None = None,
               scale: float | None = None) -> CKKSPlaintext:
        """Encode up to ``N/2`` complex values into a plaintext polynomial.

        Raises ``ValueError`` for a non-finite value, a ``scale`` that is
        not positive and finite, or a value whose scaled coefficient falls
        outside ``(-Q_l/2, Q_l/2]`` — it would wrap modulo ``Q_l`` and decode
        to something else.  Integer coefficients that are *meant* modulo
        ``Q_l`` go through :meth:`encode_coefficients`.
        """
        params = self.params
        n = params.slots
        level = params.max_level if level is None else level
        scale = float(params.scale) if scale is None else float(scale)
        if not 0.0 < scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {scale}")
        vector = np.zeros(n, dtype=np.complex128)
        values = np.asarray(list(values), dtype=np.complex128)
        if values.size > n:
            raise ValueError(f"too many values: {values.size} > {n} slots")
        if not np.isfinite(values).all():
            raise ValueError("cannot encode a non-finite value")
        vector[: values.size] = values
        # Inverse canonical embedding: m_k = (2/N) * Re( sum_j z_j * conj(zeta_j^k) ),
        # as Re(conj(.)) of the product with the matrix itself: conjugating
        # the n-vector instead of the n x N table copies nothing.
        coefficients = (2.0 / params.ring_degree) * np.real(
            self._eval_matrix.T @ np.conj(vector)
        )
        scaled = np.rint(coefficients * scale)
        basis = params.basis(level)
        peak = int(np.abs(scaled).max())
        if peak > basis.product // 2:                   # Q_l is odd
            raise ValueError(
                f"value too large for level {level} at scale 2^{math.log2(scale):.1f}: "
                f"a scaled coefficient needs {peak.bit_length() + 1} bits, "
                f"the modulus has {basis.product.bit_length()}"
            )
        # Rounded floats below 2^62 are exact int64s; anything wider goes
        # the exact python-int way.
        scaled = scaled.astype(np.int64) if peak < 1 << 62 else [int(c) for c in scaled]
        with use_backend(self.backend):
            poly = RNSPolynomial.from_integer_coefficients(
                params.ring_degree, basis, scaled
            )
        return CKKSPlaintext(poly=poly, level=level, scale=scale)

    def encode_coefficients(self, coefficients: Sequence[int],
                            level: int | None = None,
                            scale: float = 1.0) -> CKKSPlaintext:
        """Encode raw integer coefficients directly (no embedding, no scaling)."""
        params = self.params
        level = params.max_level if level is None else level
        basis = params.basis(level)
        poly = RNSPolynomial.from_integer_coefficients(
            params.ring_degree, basis, [int(c) for c in coefficients]
        )
        return CKKSPlaintext(poly=poly, level=level, scale=float(scale))

    # -- decoding ---------------------------------------------------------
    def decode(self, plaintext: CKKSPlaintext, num_values: int | None = None) -> List[complex]:
        """Decode a plaintext polynomial back to its complex slot values.

        The coefficients are read through
        :meth:`RNSPolynomial.centered_coefficients` — one
        ``limbs_centered_lift`` dispatch, exact whatever the magnitude.
        """
        params = self.params
        n = params.slots
        num_values = n if num_values is None else num_values
        if not 0 <= num_values <= n:
            raise ValueError(f"num_values must be in [0, {n}], got {num_values}")
        with use_backend(self.backend):
            centred = plaintext.poly.centered_coefficients()
        slots = self._eval_matrix @ np.asarray(centred, dtype=np.float64) / plaintext.scale
        return slots[:num_values].tolist()
