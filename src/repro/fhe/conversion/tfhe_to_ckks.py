"""Scheme conversion TFHE -> CKKS (Algorithms 4 and 5): LWE repacking.

The conversion packs ``nslot`` LWE ciphertexts into a single RLWE (CKKS)
ciphertext in three steps:

1. **Ring Embedding** — re-interpret each LWE ciphertext ``(a, b)`` as an
   RLWE ciphertext whose plaintext's *constant coefficient* is the LWE
   message (all other coefficients are meaningless),
2. **Ciphertext Packing** (:func:`pack_lwes`, Algorithm 4) — a recursive
   even/odd merge: each merge step uses one monomial rotation and one
   homomorphic automorphism (HRotate) and doubles the number of packed
   messages, spreading them to coefficient positions ``j * N / nslot``,
3. **Field Trace** (:func:`field_trace`, Algorithm 5) — ``log2(N / nslot)``
   automorphism-and-add steps that annihilate every unwanted coefficient.

After the trace, coefficient ``j * N / nslot`` of the decrypted polynomial
equals ``N * mu_j`` where ``mu_j`` is the j-th LWE message (each of the
``log2(N)`` automorphism levels doubles the wanted coefficients); callers that
need unscaled messages multiply the inputs by ``N^{-1} mod q`` first, which is
what :func:`repack_lwe_ciphertexts` does.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..ckks.ciphertext import CKKSCiphertext
from ..ckks.evaluator import CKKSEvaluator
from ..modmath import mod_inverse
from ..polynomial import Polynomial
from ..rns import RNSPolynomial
from ..tfhe.lwe import LWECiphertext

__all__ = ["lwe_to_rlwe_embedding", "pack_lwes", "field_trace",
           "repack_lwe_ciphertexts", "repack_galois_elements"]


def _merge_galois_element(nslot: int) -> int:
    """PackLWEs merging ``nslot`` messages: fixes coefficients at multiples of
    ``2N / nslot`` and negates the odd multiples of ``N / nslot``."""
    return nslot + 1


def _trace_galois_elements(ring_degree: int, nslot: int) -> List[int]:
    """Field Trace: ``2N / 2^k + 1`` for ``k = 1 .. log2(N / nslot)``."""
    steps = int(math.log2(ring_degree // nslot))
    return [(2 * ring_degree) // (1 << k) + 1 for k in range(1, steps + 1)]


def repack_galois_elements(ring_degree: int, nslot: int) -> List[int]:
    """Every Galois element :func:`repack_lwe_ciphertexts` keyswitches
    through (one merge element per PackLWEs doubling, then the Field Trace):
    the list the program planner asks keys for."""
    merges = [_merge_galois_element(1 << r) for r in range(1, nslot.bit_length())]
    return merges + _trace_galois_elements(ring_degree, nslot)


def lwe_to_rlwe_embedding(lwe: LWECiphertext, evaluator: CKKSEvaluator,
                          scale: float = 1.0) -> CKKSCiphertext:
    """Ring Embedding: build an RLWE ciphertext whose constant coeff is the LWE message.

    The LWE ciphertext must have dimension N (i.e. be keyed by the CKKS secret
    coefficients, as produced by :func:`...ckks_to_tfhe.sample_extract_rlwe`).
    Under the CKKS convention ``m = c0 + c1 * s`` we need the constant
    coefficient of ``c1 * s`` to equal ``-<a, s>``; the embedding
    ``c1[0] = -a[0], c1[i] = a[N - i]`` achieves exactly that.
    """
    params = evaluator.params
    n = params.ring_degree
    if lwe.dimension != n:
        raise ValueError(
            f"LWE dimension {lwe.dimension} must equal the CKKS ring degree {n}"
        )
    basis = params.basis(0)
    q = basis.moduli[0]
    if lwe.modulus != q:
        raise ValueError("LWE modulus must match the level-0 CKKS modulus")
    c1_coeffs = [0] * n
    c1_coeffs[0] = (-lwe.a[0]) % q
    for i in range(1, n):
        c1_coeffs[i] = lwe.a[n - i] % q
    c0_coeffs = [0] * n
    c0_coeffs[0] = lwe.b % q
    c0 = RNSPolynomial(n, basis, [Polynomial(n, q, c0_coeffs)])
    c1 = RNSPolynomial(n, basis, [Polynomial(n, q, c1_coeffs)])
    return CKKSCiphertext(c0=c0, c1=c1, level=0, scale=scale)


def _rotate_monomial(ciphertext: CKKSCiphertext, degree: int) -> CKKSCiphertext:
    """Multiply both components by ``X^degree`` (the plain Rotate of Algorithm 4).

    One batched signed-permutation dispatch per component (all limbs at once).
    """
    return CKKSCiphertext(
        c0=ciphertext.c0.multiply_by_monomial(degree),
        c1=ciphertext.c1.multiply_by_monomial(degree),
        level=ciphertext.level,
        scale=ciphertext.scale,
    )


def pack_lwes(ciphertexts: Sequence[CKKSCiphertext], evaluator: CKKSEvaluator) -> CKKSCiphertext:
    """Algorithm 4 (PackLWEs): recursively merge ring-embedded ciphertexts.

    After packing ``nslot`` ciphertexts, the plaintext coefficient at position
    ``j * N / nslot`` equals ``nslot * mu_j`` (plus not-yet-cancelled garbage
    at other positions, removed later by the field trace).
    """
    ciphertexts = list(ciphertexts)
    nslot = len(ciphertexts)
    if nslot == 0:
        raise ValueError("cannot pack an empty list of ciphertexts")
    if nslot & (nslot - 1):
        raise ValueError("the number of ciphertexts must be a power of two")
    if nslot == 1:
        return ciphertexts[0]
    n = evaluator.params.ring_degree
    evens = pack_lwes(ciphertexts[0::2], evaluator)
    odds = pack_lwes(ciphertexts[1::2], evaluator)
    shift = n // nslot
    rotated_odds = _rotate_monomial(odds, shift)
    combined = evaluator.add(evens, rotated_odds)
    difference = evaluator.sub(evens, rotated_odds)
    # HRotate by the merge element: the sum doubles the wanted coefficients
    # of both halves.
    rotated = evaluator.apply_galois(difference, _merge_galois_element(nslot))
    return evaluator.add(combined, rotated)


def field_trace(ciphertext: CKKSCiphertext, nslot: int, evaluator: CKKSEvaluator) -> CKKSCiphertext:
    """Algorithm 5 (Field Trace): cancel every coefficient not at a slot position.

    Applies ``log2(N / nslot)`` steps of ``ct <- ct + sigma_g(ct)`` with
    ``g = 2N / 2^k + 1``; each step doubles the wanted coefficients and kills
    half of the remaining garbage positions.
    """
    result = ciphertext
    for element in _trace_galois_elements(evaluator.params.ring_degree, nslot):
        result = evaluator.add(result, evaluator.apply_galois(result, element))
    return result


def repack_lwe_ciphertexts(lwe_ciphertexts: Sequence[LWECiphertext],
                           evaluator: CKKSEvaluator) -> CKKSCiphertext:
    """Full TFHE -> CKKS conversion (Ring Embedding + PackLWEs + Field Trace).

    The inputs are pre-multiplied by ``N^{-1} mod q`` so the packed plaintext
    coefficient at position ``j * N / nslot`` equals ``mu_j`` exactly (instead
    of ``N * mu_j``).
    """
    params = evaluator.params
    n = params.ring_degree
    q = params.basis(0).moduli[0]
    n_inverse = mod_inverse(n % q, q)
    nslot = len(lwe_ciphertexts)
    embedded = [
        lwe_to_rlwe_embedding(lwe.scalar_multiply(n_inverse), evaluator)
        for lwe in lwe_ciphertexts
    ]
    packed = pack_lwes(embedded, evaluator)
    return field_trace(packed, nslot, evaluator)
