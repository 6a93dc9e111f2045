"""The key bridge between the CKKS and TFHE key domains.

Extraction (:func:`..ckks_to_tfhe.sample_extract_rlwe`) produces LWE
ciphertexts of dimension N under the *CKKS secret's coefficient vector*
modulo the level-0 CKKS prime ``q0``; the TFHE evaluator wants dimension
``n_lwe`` ciphertexts under the small binary key modulo the TFHE prime
``q_t`` (and repacking wants the reverse).  The :class:`SchemeBridge` holds
the two LWE key-switching keys that cross this gap:

* **c2t** — ``ksk[i][j]`` encrypts ``s_i * g_j`` (CKKS secret coefficient
  ``s_i``, centred ternary) under the small TFHE key modulo ``q_t``, using
  the TFHE parameter set's own ksk gadget.  ``switch_to_tfhe`` is then
  ModSwitch(q0 -> q_t) followed by the standard :func:`lwe_keyswitch`.
* **t2c** — ``ksk[i][j]`` encrypts ``s'_i * g_j`` (TFHE secret bit) under
  the CKKS-coefficient key modulo ``q0``.  The gadget is chosen per-modulus
  so decomposition is *exact* (some ``base^j`` lands in ``(q0/2, q0]``, so a
  gadget factor equals 1): with zero-noise key material the switch then adds
  no error beyond ModSwitch rounding, which is what keeps the hybrid
  differential tests bit-stable.

Both directions reuse :class:`~repro.fhe.tfhe.pbs.KeySwitchingKey` and
:func:`~repro.fhe.tfhe.pbs.lwe_keyswitch` verbatim — the bridge is key
material, not a new algorithm.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..params import CKKSParameters
from ..tfhe.ggsw import gadget_factors
from ..tfhe.lwe import LWECiphertext, sample_mask
from ..tfhe.pbs import KeySwitchingKey, TFHEContext, lwe_keyswitch, modulus_switch

__all__ = ["SchemeBridge", "exact_gadget"]


def exact_gadget(modulus: int, max_base_log: int = 16) -> Tuple[int, int]:
    """``(base, levels)`` whose signed decomposition is exact for ``modulus``.

    Exactness needs a gadget factor ``modulus // base**j == 1``, i.e.
    ``base**j`` in ``(modulus/2, modulus]`` — with power-of-two bases that
    means ``base_log * levels == modulus.bit_length() - 1``.  We pick the
    largest divisor ``<= max_base_log`` so the chain stays short (prime bit
    counts degrade to base 2, which is slow but still exact).
    """
    bits = modulus.bit_length() - 1
    for base_log in range(min(max_base_log, bits), 0, -1):
        if bits % base_log == 0:
            return 1 << base_log, bits // base_log
    return 2, bits  # pragma: no cover - base_log 1 always divides


class SchemeBridge:
    """Key-switching keys crossing the CKKS<->TFHE key boundary.

    ``ckks_secret`` is the CKKS secret key (its ``coefficients`` tuple is the
    LWE key extraction produces ciphertexts under); ``tfhe`` supplies the
    small binary key and the TFHE-side encryption context.  ``seed`` makes
    key generation deterministic, matching the repo's other key material.
    """

    def __init__(self, ckks_params: CKKSParameters, ckks_secret,
                 tfhe: TFHEContext, seed: int = 0):
        self.ckks_params = ckks_params
        self.tfhe = tfhe
        self.q0 = ckks_params.moduli[0]
        self.rng = random.Random(seed ^ 0x5B1D)
        self._ckks_coeffs = tuple(ckks_secret.coefficients)
        self.c2t = self._make_c2t()
        self.t2c = self._make_t2c()

    # -- key generation ------------------------------------------------------
    def _make_c2t(self) -> KeySwitchingKey:
        """Encrypt each CKKS secret coefficient under the small TFHE key."""
        params = self.tfhe.params
        q = params.modulus
        base, levels = params.ksk_base, params.ksk_levels
        factors = gadget_factors(q, base, levels)
        rows = [
            [self.tfhe.lwe.encrypt_raw((coeff * factor) % q) for factor in factors]
            for coeff in self._ckks_coeffs
        ]
        return KeySwitchingKey(rows=rows, base=base, levels=levels, modulus=q)

    def _make_t2c(self) -> KeySwitchingKey:
        """Encrypt each TFHE secret bit under the CKKS-coefficient key."""
        q = self.q0
        base, levels = exact_gadget(q)
        factors = gadget_factors(q, base, levels)
        key = self._ckks_coeffs
        noise = self.tfhe.params.noise_stddev
        rows: List[List[LWECiphertext]] = []
        for bit in self.tfhe.lwe.secret.coefficients:
            row = []
            for factor in factors:
                a = sample_mask(self.rng, q, len(key))
                e = round(self.rng.gauss(0.0, noise)) if noise > 0 else 0
                b = (sum(x * s for x, s in zip(a, key)) + bit * factor + e) % q
                row.append(LWECiphertext(a=a, b=b, modulus=q))
            rows.append(row)
        return KeySwitchingKey(rows=rows, base=base, levels=levels, modulus=q)

    # -- the two switches ----------------------------------------------------
    def switch_to_tfhe(self, lwe: LWECiphertext) -> LWECiphertext:
        """CKKS-extracted LWE (dim N, mod q0) -> small TFHE key (n_lwe, q_t)."""
        if lwe.modulus != self.q0:
            raise ValueError(
                f"expected a mod-{self.q0} extracted ciphertext, got {lwe.modulus}"
            )
        switched = modulus_switch(lwe, self.tfhe.params.modulus)
        return lwe_keyswitch(switched, self.c2t, self.tfhe.params.lwe_dimension)

    def switch_to_ckks(self, lwe: LWECiphertext) -> LWECiphertext:
        """Small-key TFHE LWE (n_lwe, q_t) -> CKKS-coefficient key (N, q0)."""
        if lwe.modulus != self.tfhe.params.modulus:
            raise ValueError(
                f"expected a mod-{self.tfhe.params.modulus} TFHE ciphertext, "
                f"got {lwe.modulus}"
            )
        switched = modulus_switch(lwe, self.q0)
        return lwe_keyswitch(switched, self.t2c, self.ckks_params.ring_degree)

    # -- batched crossings ----------------------------------------------------
    def switch_many_to_tfhe(self, lwes: List[LWECiphertext]) -> List[LWECiphertext]:
        """Batched :meth:`switch_to_tfhe`: one keyswitch dispatch for a wave.

        Bit-identical to mapping :meth:`switch_to_tfhe` — all members share
        the ``c2t`` key, so their gadget digits stack into a single
        ``digits @ ksk`` product (see
        :func:`~repro.fhe.tfhe.batched.batched_lwe_keyswitch`).
        """
        from ..tfhe.batched import batched_lwe_keyswitch

        for lwe in lwes:
            if lwe.modulus != self.q0:
                raise ValueError(
                    f"expected a mod-{self.q0} extracted ciphertext, "
                    f"got {lwe.modulus}"
                )
        switched = [
            modulus_switch(lwe, self.tfhe.params.modulus) for lwe in lwes
        ]
        return batched_lwe_keyswitch(
            switched, self.c2t, self.tfhe.params.lwe_dimension
        )

    def switch_many_to_ckks(self, lwes: List[LWECiphertext]) -> List[LWECiphertext]:
        """Batched :meth:`switch_to_ckks` over the shared ``t2c`` key."""
        from ..tfhe.batched import batched_lwe_keyswitch

        for lwe in lwes:
            if lwe.modulus != self.tfhe.params.modulus:
                raise ValueError(
                    f"expected a mod-{self.tfhe.params.modulus} TFHE "
                    f"ciphertext, got {lwe.modulus}"
                )
        switched = [modulus_switch(lwe, self.q0) for lwe in lwes]
        return batched_lwe_keyswitch(
            switched, self.t2c, self.ckks_params.ring_degree
        )

    # -- decryption helpers (tests / examples only) --------------------------
    def ckks_key_phase(self, lwe: LWECiphertext) -> int:
        """Centred phase of a dim-N ciphertext under the CKKS-coefficient key."""
        from ..modmath import centered

        q = lwe.modulus
        inner = sum(x * s for x, s in zip(lwe.a, self._ckks_coeffs)) % q
        return centered((lwe.b - inner) % q, q)
