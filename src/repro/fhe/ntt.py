"""Number Theoretic Transform over Z_q[X]/(X^N + 1).

Implements the negacyclic (a.k.a. *twisted*) NTT used throughout CKKS and the
NTT-substituted TFHE of the paper:

* :class:`NTTContext` — precomputed tables (psi powers, bit-reversed twiddles)
  for one ``(N, q)`` pair, with forward/inverse transforms and negacyclic
  convolution.
* :func:`four_step_ntt` / :func:`four_step_intt` — the four-step (Bailey)
  decomposition of a large NTT into two passes of smaller NTTs with a twisting
  step in between.  This mirrors exactly the hardware split used by Trinity
  (NTTU computes phase-1, the CUs compute phase-2), and it is validated
  against the direct transform in the tests.  The numpy backend's own
  transform core for moduli up to 32 bits *is* that split — phase 1 and
  phase 2 as two exact matrix products with the twiddle in between
  (``repro.fhe.backend._MatrixNTT``) — so every CKKS limb and TFHE wave
  transform runs it, not only these two functions.

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

__all__ = ["NTTContext", "bit_reverse_permutation", "four_step_ntt", "four_step_intt"]


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
        self.omega = (self.psi * self.psi) % modulus
        self.omega_inv = mod_inverse(self.omega, modulus)
        self.n_inv = mod_inverse(ring_degree, modulus)
        self._psi_powers = self._powers(self.psi)
        self._psi_inv_powers = self._powers(self.psi_inv)
        self._fwd_twiddles = self._bit_reversed_powers(self.psi)
        self._inv_twiddles = self._bit_reversed_powers(self.psi_inv)
        self._four_step_twiddle_cache: dict = {}

    def _powers(self, base: int) -> List[int]:
        powers = [1] * self.ring_degree
        for i in range(1, self.ring_degree):
            powers[i] = (powers[i - 1] * base) % self.modulus
        return powers

    def _bit_reversed_powers(self, base: int) -> List[int]:
        powers = self._psi_powers if base == self.psi else None
        if powers is None:
            powers = [1] * self.ring_degree
            for i in range(1, self.ring_degree):
                powers[i] = (powers[i - 1] * base) % self.modulus
        order = bit_reverse_permutation(self.ring_degree)
        return [powers[order[i]] for i in range(self.ring_degree)]

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

    def pointwise_multiply(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """Element-wise modular multiplication (evaluation representation)."""
        return self.active_backend().mul(a, b, self.modulus)

    # -- four-step twiddle tables ------------------------------------------
    def four_step_twiddles(self, rows: int, inverse: bool = False) -> List[int]:
        """Flattened ``omega^(r*c)`` table for the four-step decomposition.

        Stored column-major — entry ``c * rows + r`` holds
        ``omega^(+-r*c)`` — to match the matrix layout of
        :func:`four_step_ntt`.  Cached per ``(rows, inverse)``.
        """
        key = (rows, inverse)
        table = self._four_step_twiddle_cache.get(key)
        if table is None:
            n = self.ring_degree
            q = self.modulus
            cols = n // rows
            base = self.omega_inv if inverse else self.omega
            table = [0] * n
            for c in range(cols):
                factor = pow(base, c, q)
                value = 1
                offset = c * rows
                for r in range(rows):
                    table[offset + r] = value
                    value = (value * factor) % q
            self._four_step_twiddle_cache[key] = table
        return table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NTTContext(N={self.ring_degree}, q={self.modulus})"


def _four_step_geometry(context: NTTContext, rows: int) -> int:
    n = context.ring_degree
    if n % rows != 0:
        raise ValueError("rows must divide the ring degree")
    cols = n // rows
    if rows & (rows - 1) or cols & (cols - 1):
        raise ValueError("rows and cols must both be powers of two")
    return cols


def four_step_ntt(context: NTTContext, coefficients: Sequence[int], rows: int) -> List[int]:
    """Compute the negacyclic NTT using the four-step (Bailey) decomposition.

    The length-N transform is computed as ``rows`` x ``cols`` smaller
    transforms with an element-wise *twisting* in between — the same split the
    Trinity NTTU + CU pipeline performs in hardware.  The output matches
    :meth:`NTTContext.forward` exactly (asserted by the test-suite).

    Steps (negacyclic variant):
      1. pre-twist by psi^i (turns the negacyclic transform into a cyclic one),
      2. column NTTs of size ``rows`` (phase-1, done by the NTTU),
      3. twiddle-factor twist by omega^(r*c) plus transpose,
      4. row NTTs of size ``cols`` (phase-2, done by the CUs),
      and a final index permutation back to the standard NTT output order.

    The whole decomposition is a single backend dispatch
    (:meth:`ArithmeticBackend.four_step_ntt`): the python backend composes
    the element-wise and cyclic-batch primitives with list gather/scatter in
    between, while the numpy backend keeps every transpose and permutation
    resident as array operations.
    """
    _four_step_geometry(context, rows)
    return context.active_backend().four_step_ntt(context, coefficients, rows)


def four_step_intt(context: NTTContext, values: Sequence[int], rows: int) -> List[int]:
    """Inverse of :func:`four_step_ntt` (validated against ``NTTContext.inverse``)."""
    _four_step_geometry(context, rows)
    return context.active_backend().four_step_intt(context, values, rows)
