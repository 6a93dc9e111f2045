"""Batched programmable bootstrapping: a wave of PBS in one backend store.

The planner groups independent ``pbs``/``gate_bootstrap`` nodes into one
dispatch (``attrs["pbs_group"]``); this module is the execution side.  All
members share the bootstrapping key, so the wave's ``M * (k + 1)``
accumulator rows ride :func:`~repro.fhe.tfhe.pbs.blind_rotate_wave` as a
single store — all ``n_lwe`` CMux iterations are one ``blind_rotate_rows``
dispatch — and the tail stays in the backend too: SampleExtract at index 0
is one signed permutation of the mask rows, and the keyswitch decomposes
that store and multiplies it against the cached flattened key in one
``digits @ ksk`` product (:func:`batched_lwe_keyswitch` is the same product
for ciphertexts that arrive as lists, e.g. at the scheme bridge).
``LWECiphertext`` objects are built once, from the final sums.

The result is bit-identical to running :meth:`TFHEContext.programmable_bootstrap`
per ciphertext: decomposition, MAC reduction, the transforms and the
keyswitch sum are exact integer operations applied row-wise.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence

from ..backend import ArithmeticBackend, PermSpec, active_backend, use_backend
from ..rns import RNSPolynomial
from .ggsw import gadget_factors
from .glwe import GLWECiphertext
from .lwe import LWECiphertext
from .pbs import KeySwitchingKey, TFHEContext, blind_rotate_wave, modulus_switch

__all__ = [
    "sign_test_vector",
    "batched_programmable_bootstrap",
    "batched_lwe_keyswitch",
]


def sign_test_vector(context: TFHEContext, amplitude: int) -> GLWECiphertext:
    """The constant test vector of a sign bootstrap.

    Blind rotation by a phase in ``[0, q/2)`` leaves the constant coefficient
    at ``+amplitude``; a phase in ``[-q/2, 0)`` crosses the negacyclic wrap
    and yields ``-amplitude``.  Adding ``amplitude`` afterwards maps the two
    outcomes to ``{2 * amplitude, 0}``; the executor does that for a
    ``gate_bootstrap`` node.
    """
    params = context.params
    n = params.polynomial_size
    table = RNSPolynomial.from_integer_coefficients(
        n, context.glwe.basis, [amplitude] * n)
    return GLWECiphertext.trivial(table, params.glwe_dimension)


@lru_cache(maxsize=None)
def _extract_spec(ring_degree: int) -> PermSpec:
    """SampleExtract at index 0 as a signed permutation of one mask row.

    ``a[0] = A[0]`` and ``a[j] = -A[N - j]`` for ``j > 0`` (see
    :func:`~repro.fhe.tfhe.pbs.sample_extract`).
    """
    n = ring_degree
    return PermSpec([(n - i) % n for i in range(n)], [i != 0 for i in range(n)])


def _keyswitch_wave(components, bodies: Sequence[int], ksk: KeySwitchingKey,
                    output_dimension: int,
                    backend: ArithmeticBackend) -> List[LWECiphertext]:
    """``(0, .., 0, b) - sum_ij Decomp(a_i)_j * ksk[i][j]`` for a whole wave.

    ``components`` are ``(M, W)`` mask stores that side by side make up the
    wave's ``(M, input_dimension)`` mask (one store for plain LWE inputs,
    ``k`` for a GLWE-extracted wave); ``bodies`` the ``M`` input bodies.
    """
    q = ksk.modulus
    factors = gadget_factors(q, ksk.base, ksk.levels)
    width = ksk.input_dimension // len(components)
    moduli = (q,) * len(bodies)
    sums = None
    for store, key in zip(components, ksk.flat_stores(width, backend)):
        digits = backend.gadget_decompose_rows(store, q, factors)
        partial = backend.mat_mulmod(digits, key, q)
        sums = partial if sums is None else backend.limbs_add(sums, partial, moduli)
    return [
        LWECiphertext(
            a=row[:output_dimension], b=(b + row[output_dimension]) % q, modulus=q
        )
        for b, row in zip(bodies, backend.store_rows(sums))
    ]


def batched_lwe_keyswitch(
    ciphertexts: Sequence[LWECiphertext],
    ksk: KeySwitchingKey,
    output_dimension: int,
) -> List[LWECiphertext]:
    """Switch many LWE ciphertexts to ``ksk``'s key in one shared dispatch.

    Bit-identical to calling :func:`~repro.fhe.tfhe.pbs.lwe_keyswitch` per
    ciphertext: the accumulation is the same exact modular sum
    ``(0, .., 0, b') - sum_ij Decomp(a'_i)_j * ksk[i][j]``, evaluated as a
    single ``digits @ (-ksk)`` matrix product over every member at once
    instead of one single-vector ``mat_mulmod`` per member.  Zero digits
    contribute nothing either way, so skipping the sparsity filter changes
    no output bit.
    """
    if not ciphertexts:
        return []
    q = ksk.modulus
    for ciphertext in ciphertexts:
        if len(ciphertext.a) != ksk.input_dimension or ciphertext.modulus != q:
            raise ValueError(
                f"keyswitch input has dimension {len(ciphertext.a)} and "
                f"modulus {ciphertext.modulus}, key expects "
                f"{ksk.input_dimension} and {q}"
            )
    backend = active_backend()
    masks = backend.pack_limbs(
        [ciphertext.a for ciphertext in ciphertexts], (q,) * len(ciphertexts)
    )
    return _keyswitch_wave(
        [masks], [ciphertext.b for ciphertext in ciphertexts], ksk,
        output_dimension, backend,
    )


def batched_programmable_bootstrap(
    context: TFHEContext,
    ciphertexts: Sequence[LWECiphertext],
    test_vectors: "Sequence[GLWECiphertext] | None" = None,
) -> List[LWECiphertext]:
    """Run PBS on every ciphertext as one array-resident wave.

    ``test_vectors`` may differ per member (a LUT per ``pbs`` node, a sign
    table per ``gate_bootstrap``); defaults to the identity table.  Returns
    outputs in input order, each bit-identical to the sequential PBS.
    """
    params = context.params
    with use_backend(context.backend):
        if test_vectors is None:
            test_vectors = [context.identity_test_vector()] * len(ciphertexts)
        if len(test_vectors) != len(ciphertexts):
            raise ValueError("need one test vector per ciphertext")
        if not ciphertexts:
            return []
        n, k = params.polynomial_size, params.glwe_dimension
        switched = [modulus_switch(ct, 2 * n) for ct in ciphertexts]
        accumulator = blind_rotate_wave(
            test_vectors, switched, context.bootstrapping_key
        )
        # Component c of every member is the strided row slice [c::k+1].
        backend = active_backend()
        moduli = (params.modulus,) * len(ciphertexts)
        masks = [
            backend.limbs_signed_permute(
                accumulator[c::k + 1], moduli, _extract_spec(n)
            )
            for c in range(k)
        ]
        bodies = [row[0] for row in backend.store_rows(accumulator[k::k + 1])]
        return _keyswitch_wave(
            masks, bodies, context.keyswitching_key, params.lwe_dimension, backend
        )
