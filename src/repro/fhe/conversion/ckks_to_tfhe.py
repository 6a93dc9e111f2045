"""Scheme conversion CKKS -> TFHE (Algorithm 3): SampleExtract on RLWE.

A CKKS ciphertext at level 0 is an RLWE ciphertext ``(c0, c1)`` with
``c0 + c1 * s ~ Delta * m(X)``.  Extracting coefficient ``i`` produces an LWE
ciphertext of ``Delta * m_i`` under the CKKS secret viewed as an LWE key of
dimension N.  The conversion is purely a data-rearrangement (no keyswitching),
which is why the paper maps it onto the Rotator unit alone.
"""

from __future__ import annotations

from typing import List

from ..ckks.ciphertext import CKKSCiphertext
from ..tfhe.lwe import LWECiphertext

__all__ = ["sample_extract_rlwe", "ckks_to_lwe_ciphertexts"]


def sample_extract_rlwe(ciphertext: CKKSCiphertext, index: int) -> LWECiphertext:
    """Extract coefficient ``index`` of a single-limb CKKS ciphertext as LWE.

    The returned LWE ciphertext ``(a, b)`` satisfies
    ``b + <a, s> = (c0 + c1 * s)[index]`` where ``s`` is the CKKS secret's
    coefficient vector — i.e. the LWE convention here is ``phase = b + <a, s>``
    rewritten to the standard ``b - <a, -s>``; we return it with the mask
    already negated so the standard ``b - <a, s>`` convention holds.
    """
    if len(ciphertext.c0.basis) != 1:
        raise ValueError("sample_extract_rlwe expects a single-limb (level-0) ciphertext")
    n = ciphertext.ring_degree
    if not 0 <= index < n:
        raise ValueError(f"index {index} out of range [0, {n})")
    q = ciphertext.c0.basis.moduli[0]
    c0 = ciphertext.c0.coefficient_rows()[0]
    c1 = ciphertext.c1.coefficient_rows()[0]
    # (c1 * s)[index] = sum_j m_j * s_j with m_j = c1[index-j] for j <= index
    # and m_j = -c1[index-j+N] for j > index.  phase = b - <a, s> with a = -m.
    a: List[int] = []
    for j in range(n):
        if j <= index:
            a.append((-c1[index - j]) % q)
        else:
            a.append(c1[index - j + n] % q)
    return LWECiphertext(a=a, b=c0[index] % q, modulus=q)


def ckks_to_lwe_ciphertexts(ciphertext: CKKSCiphertext, nslot: int,
                            stride: int | None = None) -> List[LWECiphertext]:
    """Algorithm 3: extract ``nslot`` coefficients as LWE ciphertexts.

    ``stride`` controls which coefficients are extracted (defaults to
    ``N / nslot`` so the extracted positions match what PackLWEs later fills).
    """
    n = ciphertext.ring_degree
    stride = (n // nslot) if stride is None else stride
    return [sample_extract_rlwe(ciphertext, i * stride) for i in range(nslot)]
