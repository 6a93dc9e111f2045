"""Scheme conversion TFHE -> CKKS (Algorithms 4 and 5): LWE repacking.

The conversion packs ``nslot`` LWE ciphertexts into a single RLWE (CKKS)
ciphertext in three steps:

1. **Ring Embedding** — re-interpret each LWE ciphertext ``(a, b)`` as an
   RLWE ciphertext whose plaintext's *constant coefficient* is the LWE
   message (all other coefficients are meaningless),
2. **Ciphertext Packing** (:func:`pack_lwes`, Algorithm 4) — the even/odd
   merge tree: each merge uses one monomial rotation and one homomorphic
   automorphism (HRotate) and doubles the number of packed messages,
   spreading them to coefficient positions ``j * N / nslot``,
3. **Field Trace** (:func:`field_trace`, Algorithm 5) — ``log2(N / nslot)``
   automorphism-and-add steps that annihilate every unwanted coefficient.

After the trace, coefficient ``j * N / nslot`` of the decrypted polynomial
equals ``N * mu_j`` where ``mu_j`` is the j-th LWE message (each of the
``log2(N)`` automorphism levels doubles the wanted coefficients); callers that
need unscaled messages multiply the inputs by ``N^{-1} mod q`` first, which is
what :func:`repack_lwe_ciphertexts` does.

Both run a level of the merge tree at a time: a level's ``m`` ciphertexts
are one member-major store per component, so its rotation, add, sub and
automorphism are one dispatch each and its Galois keyswitches one naive
keyswitch wave; a Field Trace step is the same step with ``m = 1``.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..backend import active_backend, use_backend
from ..ckks.ciphertext import CKKSCiphertext
from ..ckks.evaluator import CKKSEvaluator
from ..ckks.keyswitch import _hybrid_keyswitch
from ..modmath import mod_inverse
from ..polynomial import automorphism_spec, monomial_spec
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


def _check_count(nslot: int, ring_degree: int) -> None:
    if nslot == 0:
        raise ValueError("cannot pack an empty list of ciphertexts")
    if nslot & (nslot - 1):
        raise ValueError("the number of ciphertexts must be a power of two")
    if nslot > ring_degree:
        raise ValueError(f"{nslot} LWE ciphertexts do not fit ring degree "
                         f"{ring_degree}: each message needs its own coefficient")


def _check_members(members, **expected) -> None:
    for index, member in enumerate(members):
        for name, want in expected.items():
            if getattr(member, name) != want:
                raise ValueError(f"member {index} has {name.replace('_', ' ')} "
                                 f"{getattr(member, name)}; the repack expects {want}")


def repack_galois_elements(ring_degree: int, nslot: int) -> List[int]:
    """Every Galois element :func:`repack_lwe_ciphertexts` keyswitches
    through (one merge element per PackLWEs doubling, then the Field Trace):
    the list the program planner asks keys for."""
    _check_count(nslot, ring_degree)
    merges = [_merge_galois_element(1 << r) for r in range(1, nslot.bit_length())]
    return merges + _trace_galois_elements(ring_degree, nslot)


def _embed(lwes: Sequence[LWECiphertext], evaluator: CKKSEvaluator, scalar: int = 1):
    """Ring Embedding of every LWE ciphertext times ``scalar``, as the two
    level-0 stores of a level: ``c1 = -sigma_{2N-1}(a)`` (one signed
    permutation of all the masks, the sign folded into one scalar product)
    and ``c0`` zero but for ``b`` in its constant coefficient."""
    n, q = evaluator.params.ring_degree, evaluator.params.moduli[0]
    backend = active_backend()
    _check_count(len(lwes), n)
    _check_members(lwes, dimension=n, modulus=q)
    moduli = (q,) * len(lwes)
    c1 = backend.limbs_scalar_mul(backend.limbs_signed_permute(
        backend.pack_limbs([[x % q for x in lwe.a] for lwe in lwes], moduli),
        moduli, automorphism_spec(n, 2 * n - 1)), (q - scalar,) * len(lwes), moduli)
    c0 = backend.pack_limbs([[lwe.b * scalar % q] + [0] * (n - 1) for lwe in lwes],
                            moduli)
    return c0, c1


def lwe_to_rlwe_embedding(lwe: LWECiphertext, evaluator: CKKSEvaluator,
                          scale: float = 1.0) -> CKKSCiphertext:
    """Ring Embedding: build an RLWE ciphertext whose constant coeff is the LWE message.

    The LWE ciphertext must have dimension N (i.e. be keyed by the CKKS secret
    coefficients, as produced by :func:`...ckks_to_tfhe.sample_extract_rlwe`).
    Under the CKKS convention ``m = c0 + c1 * s`` we need the constant
    coefficient of ``c1 * s`` to equal ``-<a, s>``; the embedding
    ``c1[0] = -a[0], c1[i] = a[N - i]`` achieves exactly that.
    """
    with use_backend(evaluator.backend):
        return _ciphertext(_embed([lwe], evaluator), 0, scale, evaluator)


def _ciphertext(stores, level: int, scale: float, evaluator) -> CKKSCiphertext:
    n, basis = evaluator.params.ring_degree, evaluator.params.basis(level)
    c0, c1 = (RNSPolynomial._from_store(n, basis, store) for store in stores)
    return CKKSCiphertext(c0=c0, c1=c1, level=level, scale=scale)


def _galois_step(base, source, element: int, level: int, evaluator: CKKSEvaluator):
    """``evaluator.add(base, evaluator.apply_galois(source, g))`` for every
    member of a level at once (``(c0, c1)`` store pairs)."""
    params, backend = evaluator.params, active_backend()
    n, basis = params.ring_degree, params.basis(level)
    moduli = tuple(basis.moduli) * (len(source[1]) // len(basis))
    spec = automorphism_spec(n, element)
    rotated0, rotated1 = (backend.limbs_signed_permute(s, moduli, spec) for s in source)
    pairs = _hybrid_keyswitch(
        [RNSPolynomial._from_store(n, basis, rotated1[k:k + len(basis)])
         for k in range(0, len(moduli), len(basis))],
        evaluator.keys.galois_key(element, level), params, level)
    f0, f1 = (backend.pack_limbs([row for pair in pairs for row in pair[c].store()],
                                 moduli) for c in (0, 1))
    return (backend.limbs_add(backend.limbs_add(base[0], rotated0, moduli), f0, moduli),
            backend.limbs_add(base[1], f1, moduli))


def _pack(stores, level: int, evaluator: CKKSEvaluator):
    """Algorithm 4 on the stores of a level: member ``j`` merges with member
    ``j + m/2``, the odd half rotated by ``X^{N / merged}``."""
    n, backend = evaluator.params.ring_degree, active_backend()
    basis = tuple(evaluator.params.basis(level).moduli)
    rows, merged = len(stores[0]), 1
    while rows > len(basis):
        rows, merged = rows // 2, merged * 2
        moduli = basis * (rows // len(basis))
        spec = monomial_spec(n, n // merged)
        evens = [store[:rows] for store in stores]
        odds = [backend.limbs_signed_permute(s[rows:], moduli, spec) for s in stores]
        # HRotate by the merge element: the sum doubles the wanted
        # coefficients of both halves.
        stores = _galois_step(
            [backend.limbs_add(e, o, moduli) for e, o in zip(evens, odds)],
            [backend.limbs_sub(e, o, moduli) for e, o in zip(evens, odds)],
            _merge_galois_element(merged), level, evaluator)
    return stores


def pack_lwes(ciphertexts: Sequence[CKKSCiphertext], evaluator: CKKSEvaluator) -> CKKSCiphertext:
    """Algorithm 4 (PackLWEs): merge ring-embedded ciphertexts, a level of
    the merge tree at a time.

    After packing ``nslot`` ciphertexts, the plaintext coefficient at position
    ``j * N / nslot`` equals ``nslot * mu_j`` (plus not-yet-cancelled garbage
    at other positions, removed later by the field trace).  Members must
    share ring degree, level and scale.
    """
    ciphertexts = list(ciphertexts)
    _check_count(len(ciphertexts), evaluator.params.ring_degree)
    first = ciphertexts[0]
    _check_members(ciphertexts, ring_degree=evaluator.params.ring_degree,
                   level=first.level, scale=first.scale)
    with use_backend(evaluator.backend):
        members = [evaluator.to_coeff(ct) for ct in ciphertexts]
        moduli = tuple(first.c0.basis.moduli) * len(members)
        stores = [active_backend().pack_limbs(
            [row for ct in members for row in getattr(ct, c).store()], moduli)
            for c in ("c0", "c1")]
        return _ciphertext(_pack(stores, first.level, evaluator),
                           first.level, first.scale, evaluator)


def field_trace(ciphertext: CKKSCiphertext, nslot: int, evaluator: CKKSEvaluator) -> CKKSCiphertext:
    """Algorithm 5 (Field Trace): cancel every coefficient not at a slot position.

    Applies ``log2(N / nslot)`` steps of ``ct <- ct + sigma_g(ct)`` with
    ``g = 2N / 2^k + 1``; each step doubles the wanted coefficients and kills
    half of the remaining garbage positions.
    """
    _check_count(nslot, evaluator.params.ring_degree)
    with use_backend(evaluator.backend):
        ct = evaluator.to_coeff(ciphertext)
        stores = (ct.c0.store(), ct.c1.store())
        for element in _trace_galois_elements(evaluator.params.ring_degree, nslot):
            stores = _galois_step(stores, stores, element, ct.level, evaluator)
        return _ciphertext(stores, ct.level, ct.scale, evaluator)


def repack_lwe_ciphertexts(lwe_ciphertexts: Sequence[LWECiphertext],
                           evaluator: CKKSEvaluator) -> CKKSCiphertext:
    """Full TFHE -> CKKS conversion (Ring Embedding + PackLWEs + Field Trace).

    The inputs are pre-multiplied by ``N^{-1} mod q`` so the packed plaintext
    coefficient at position ``j * N / nslot`` equals ``mu_j`` exactly (instead
    of ``N * mu_j``).  A wrong count (none, not a power of two, more than
    ``N``) or a member of the wrong dimension or modulus raises
    ``ValueError`` before any arithmetic.
    """
    n, q = evaluator.params.ring_degree, evaluator.params.moduli[0]
    nslot = len(lwe_ciphertexts)
    with use_backend(evaluator.backend):
        stores = _pack(_embed(lwe_ciphertexts, evaluator, mod_inverse(n % q, q)),
                       0, evaluator)
        return field_trace(_ciphertext(stores, 0, 1.0, evaluator), nslot, evaluator)
