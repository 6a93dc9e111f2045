"""Ring-level tables and the ternary sampler of Z_q[X]/(X^N + 1).

A ring element is an :class:`~repro.fhe.rns.RNSPolynomial`; one over a
single modulus ``q`` is the one-limb polynomial over ``RNSBasis([q])``.
This module holds what every ring element shares:

* the cached :class:`~repro.fhe.ntt.NTTContext` of each ``(N, q)``
  (:func:`_ntt_context`; a modulus that is not NTT-friendly for ``N``
  raises ``ValueError``),
* the specs of the structural maps the store kernels apply: monomial
  multiplication ``P(X) * X^r`` (TFHE rotations), the automorphism
  ``X -> X^k`` (CKKS HRotate, the field trace) and its evaluation-domain
  gather,
* :func:`sample_ternary`, the secret and encryption-randomness sampler,
  and :func:`ternary_coefficients`, its dense draw read back from a store
  (an encryption draws that row in one batch with its errors).
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Dict, List, Tuple

from .backend import GatherSpec, PermSpec, _bit_reverse_indices, active_backend
from .ntt import NTTContext

__all__ = [
    "monomial_spec",
    "automorphism_spec",
    "galois_eval_spec",
    "sample_ternary",
    "ternary_coefficients",
    "TERNARY_MODULI",
]

#: ``rng.choice((-1, 0, 1))`` is ``randrange(3) - 1``: a dense ternary
#: polynomial is a uniform draw under this one modulus, shifted down by one.
TERNARY_MODULI = (3,)

# NTT contexts are cached per (N, q): building twiddle tables is the expensive
# part and both CKKS limbs and TFHE rings reuse the same few moduli heavily.
_NTT_CACHE: Dict[Tuple[int, int], NTTContext] = {}


def _ntt_context(ring_degree: int, modulus: int) -> NTTContext:
    """The cached NTT context of ``(N, q)``; ``NTTContext`` raises
    ``ValueError`` when ``q`` is not NTT-friendly for ``N``."""
    key = (ring_degree, modulus)
    if key not in _NTT_CACHE:
        _NTT_CACHE[key] = NTTContext(ring_degree, modulus)
    return _NTT_CACHE[key]


# Blind rotation draws monomial degrees from the full [0, 2N) range, so the
# cache must hold at least 2N distinct specs for the largest functional ring
# (N = 2048) or the hottest TFHE loop would rebuild an O(N) spec per CMux.
@lru_cache(maxsize=4096)
def monomial_spec(ring_degree: int, degree: int) -> PermSpec:
    """Signed permutation of ``P(X) -> P(X) * X^degree`` (negacyclic wrap)."""
    n = ring_degree
    degree %= 2 * n
    dest = [0] * n
    negate = [False] * n
    for i in range(n):
        k = i + degree
        sign = False
        while k >= n:
            k -= n
            sign = not sign
        dest[i] = k
        negate[i] = sign
    return PermSpec(dest, negate)


@lru_cache(maxsize=4096)
def automorphism_spec(ring_degree: int, power: int) -> PermSpec:
    """Signed permutation of the ring automorphism ``X -> X^power`` (power odd)."""
    n = ring_degree
    power %= 2 * n
    if power % 2 == 0:
        raise ValueError("automorphism exponent must be odd")
    dest = [0] * n
    negate = [False] * n
    for i in range(n):
        k = (i * power) % (2 * n)
        sign = False
        if k >= n:
            k -= n
            sign = True
        dest[i] = k
        negate[i] = sign
    return PermSpec(dest, negate)


@lru_cache(maxsize=4096)
def galois_eval_spec(ring_degree: int, galois_element: int) -> GatherSpec:
    """Evaluation-domain image of the automorphism ``X -> X^g`` as a gather.

    The negacyclic NTT used here outputs ``forward(P)[i] = P(psi^e_i)`` with
    ``e_i = 2 * bitrev(i) + 1`` (Cooley-Tukey, merged psi twisting).  Since
    ``sigma_g(P)(psi^e) = P(psi^(e*g mod 2N))`` and ``g`` is odd, the
    automorphism permutes those odd evaluation points among themselves:

        forward(sigma_g(P))[i] = forward(P)[src[i]],  e_{src[i]} = e_i * g.

    No sign flips, no arithmetic — which is why hoisted rotations can apply
    the Galois map to already-transformed keyswitch digits for the cost of a
    slot gather.  The identity is exact over Z_q, so the eval-domain path is
    bit-identical to transforming ``sigma_g(P)`` from scratch.
    """
    n = ring_degree
    g = galois_element % (2 * n)
    if g % 2 == 0:
        raise ValueError("automorphism exponent must be odd")
    brv = _bit_reverse_indices(n)
    exponent_of = [2 * brv[i] + 1 for i in range(n)]
    index_of = {e: i for i, e in enumerate(exponent_of)}
    return GatherSpec(
        [index_of[(e * g) % (2 * n)] for e in exponent_of]
    )


# -- random sampling -----------------------------------------------------------

def sample_ternary(ring_degree: int, rng: random.Random,
                   hamming_weight: int | None = None) -> List[int]:
    """``ring_degree`` ternary coefficients in ``{-1, 0, 1}`` (secrets, the
    encryption randomness ``v``).

    When ``hamming_weight`` is given, exactly that many coefficients are
    non-zero (the sparse-ternary secrets used by CKKS bootstrapping papers).
    """
    if hamming_weight is None:
        # The block sampler draws the values ``rng.choice`` would, from the
        # same stream.
        return ternary_coefficients(active_backend().sample_uniform_limbs(
            rng, TERNARY_MODULI, ring_degree))
    coeffs = [0] * ring_degree
    hamming_weight = min(hamming_weight, ring_degree)
    positions = rng.sample(range(ring_degree), hamming_weight)
    for pos in positions:
        coeffs[pos] = rng.choice((-1, 1))
    return coeffs


def ternary_coefficients(store) -> List[int]:
    """The dense ternary coefficients of a uniform draw under
    :data:`TERNARY_MODULI` (a one-row store)."""
    return [draw - 1 for draw in active_backend().store_rows(store)[0]]
