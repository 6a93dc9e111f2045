"""Number Theoretic Transform over Z_q[X]/(X^N + 1).

Implements the negacyclic (a.k.a. *twisted*) NTT used throughout CKKS and the
NTT-substituted TFHE of the paper: :class:`NTTContext` holds the precomputed
tables (psi powers, bit-reversed twiddles) for one ``(N, q)`` pair, with
forward/inverse transforms and negacyclic convolution.

Trinity computes an NTT as the four-step (Bailey) split: the NTTU runs
phase 1, the CUs run phase 2, with a twiddle in between.  The cost model
prices that split (``repro.core.ntt_strategies``), and ``tests/test_ntt.py``
keeps it written out (``four_step_forward`` / ``four_step_inverse``) as an
oracle against the direct transform.  The library computes the direct
radix-2 transform: the golden python loops, and the numpy backend's C
butterflies of :mod:`repro.fhe.native`.

The transforms execute on the active :mod:`repro.fhe.backend`
(:func:`~repro.fhe.backend.active_backend`): the exact pure-Python reference
by default, or the vectorized numpy backend when selected.  Both produce
bit-identical results (enforced by ``tests/test_backend_parity.py``); an
:class:`NTTContext` can also pin a specific backend via its ``backend``
argument.
"""

from __future__ import annotations

from typing import List, Sequence

from .backend import ArithmeticBackend, _bit_reverse_indices, active_backend
from .modmath import find_2nth_root_of_unity, is_prime, mod_inverse

__all__ = ["NTTContext", "bit_reverse_permutation"]


def bit_reverse_permutation(length: int) -> List[int]:
    """Return the bit-reversal permutation of ``range(length)`` (power of two)."""
    return list(_bit_reverse_indices(length))


class NTTContext:
    """Precomputed negacyclic NTT for a fixed ring degree and prime modulus.

    ``backend`` pins the arithmetic backend used by this context's
    transforms; the default (``None``) resolves the process-wide active
    backend at every call, so a context transparently follows
    :func:`~repro.fhe.backend.use_backend` selections.
    """

    def __init__(self, ring_degree: int, modulus: int,
                 backend: "ArithmeticBackend | None" = None):
        if ring_degree <= 0 or ring_degree & (ring_degree - 1):
            raise ValueError("ring_degree must be a power of two")
        if not is_prime(modulus):
            raise ValueError(f"modulus {modulus} must be prime")
        if (modulus - 1) % (2 * ring_degree) != 0:
            raise ValueError(
                f"modulus {modulus} is not NTT-friendly for N={ring_degree}"
            )
        self.ring_degree = ring_degree
        self.modulus = modulus
        self.backend = backend
        self.psi = find_2nth_root_of_unity(ring_degree, modulus)
        self.psi_inv = mod_inverse(self.psi, modulus)
        self.n_inv = mod_inverse(ring_degree, modulus)
        self._psi_powers = self._powers(self.psi)
        self._psi_inv_powers = self._powers(self.psi_inv)
        self._fwd_twiddles = self._bit_reversed_powers(self._psi_powers)
        self._inv_twiddles = self._bit_reversed_powers(self._psi_inv_powers)

    def _powers(self, base: int) -> List[int]:
        powers = [1] * self.ring_degree
        for i in range(1, self.ring_degree):
            powers[i] = (powers[i - 1] * base) % self.modulus
        return powers

    def _bit_reversed_powers(self, powers: List[int]) -> List[int]:
        return [powers[i] for i in _bit_reverse_indices(self.ring_degree)]

    def active_backend(self) -> ArithmeticBackend:
        """The backend this context's transforms run on right now."""
        return self.backend if self.backend is not None else active_backend()

    # -- forward / inverse ------------------------------------------------
    def forward(self, coefficients: Sequence[int]) -> List[int]:
        """Negacyclic forward NTT (coefficient -> evaluation representation)."""
        return self.active_backend().ntt_forward(self, coefficients)

    def inverse(self, values: Sequence[int]) -> List[int]:
        """Negacyclic inverse NTT (evaluation -> coefficient representation)."""
        return self.active_backend().ntt_inverse(self, values)

    # -- convenience ------------------------------------------------------
    def negacyclic_convolution(
        self, a: Sequence[int], b: Sequence[int]
    ) -> List[int]:
        """Multiply two polynomials in Z_q[X]/(X^N+1) via the NTT."""
        return self.active_backend().negacyclic_convolution(self, a, b)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NTTContext(N={self.ring_degree}, q={self.modulus})"
