"""Parameter sets for CKKS, TFHE, and the scheme conversion (paper Table IV).

Two kinds of parameter objects live here:

* **Paper-scale** parameter sets (``CKKS_DEFAULT``, ``TFHE_SET_I/II/III``,
  ``CONVERSION_DEFAULT``) — these carry the *shape* parameters (N, L, dnum,
  k, lb, n_lwe, ...) that the kernel-level cost model and the hardware
  simulator consume.  They never materialise moduli, keys, or ciphertexts,
  so using N = 2^16 costs nothing.
* **Functional** parameter sets (``toy``/``small`` factories) — reduced-size
  versions with real NTT-friendly prime moduli, used by the functional CKKS /
  TFHE / conversion implementations and by the unit, integration, and
  property tests.  They keep every structural knob of the full sets (RNS
  limbs, dnum digits, decomposition levels) but shrink N so the pure-Python
  arithmetic stays fast.

The dataclasses are frozen: a parameter set is a value, not a mutable object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Tuple

from .modmath import find_ntt_prime
from .rns import RNSBasis


@lru_cache(maxsize=1024)
def _cached_basis(moduli: Tuple[int, ...]) -> RNSBasis:
    """One RNSBasis per modulus tuple — basis objects (and their CRT
    constants) recur on every Rescale/KeySwitch, so build each once."""
    return RNSBasis(moduli)

__all__ = [
    "CKKSParameters",
    "TFHEParameters",
    "ConversionParameters",
    "CKKS_DEFAULT",
    "CKKS_KEYSWITCH_BREAKDOWN",
    "TFHE_SET_I",
    "TFHE_SET_II",
    "TFHE_SET_III",
    "TFHE_PARAMETER_SETS",
    "CONVERSION_DEFAULT",
]


@dataclass(frozen=True)
class CKKSParameters:
    """Shape and (optionally) concrete moduli of a CKKS instantiation.

    Attributes mirror the notation of the paper (Table I): ``ring_degree`` is
    N, ``max_level`` is L, ``dnum`` the keyswitch decomposition number, and
    ``alpha = ceil((L+1)/dnum)`` the number of RNS moduli per digit.
    """

    ring_degree: int
    max_level: int
    dnum: int
    scale_bits: int = 40
    modulus_bits: int = 36
    special_modulus_bits: int = 36
    security_bits: int = 128
    name: str = "ckks"

    def __post_init__(self) -> None:
        if self.ring_degree & (self.ring_degree - 1):
            raise ValueError("ring_degree must be a power of two")
        if self.max_level < 1:
            raise ValueError("max_level must be >= 1")
        if self.dnum < 1:
            raise ValueError("dnum must be >= 1")

    # -- shape-derived quantities (used by the cost model) --------------------
    @property
    def num_moduli(self) -> int:
        """Number of RNS moduli in the full chain (L + 1)."""
        return self.max_level + 1

    @property
    def alpha(self) -> int:
        """Number of RNS moduli per keyswitch digit, ``ceil((L+1)/dnum)``."""
        return math.ceil((self.max_level + 1) / self.dnum)

    @property
    def num_special_moduli(self) -> int:
        """Number of special (P) moduli used by hybrid keyswitch (= alpha)."""
        return self.alpha

    @property
    def slots(self) -> int:
        """Number of plaintext slots (N / 2)."""
        return self.ring_degree // 2

    def beta(self, level: int) -> int:
        """Number of keyswitch digits at ``level``: ``ceil((l+1)/alpha)``.

        (The paper's Table I writes this as ``ceil((l+1)/dnum)`` using dnum
        for the per-digit modulus count; with alpha = moduli-per-digit the
        digit count is ``ceil((l+1)/alpha)``, which never exceeds dnum.)
        """
        return math.ceil((level + 1) / self.alpha)

    def digit_slices(self, level: int) -> Tuple[Tuple[int, int], ...]:
        """Index ranges ``[start, stop)`` of the keyswitch digits at ``level``:
        ``beta(level)`` runs of ``alpha`` moduli, the last one possibly short."""
        alpha = self.alpha
        return tuple((start, min(start + alpha, level + 1))
                     for start in range(0, level + 1, alpha))

    # -- functional instantiation (lazy; only touched by the FHE layer) -------
    @cached_property
    def moduli(self) -> Tuple[int, ...]:
        """The concrete RNS moduli q_0..q_L (NTT-friendly primes)."""
        return tuple(
            find_ntt_prime(self.modulus_bits, self.ring_degree, index=i)
            for i in range(self.num_moduli)
        )

    @cached_property
    def special_moduli(self) -> Tuple[int, ...]:
        """The special moduli p_0..p_{alpha-1} used by hybrid keyswitch."""
        return tuple(
            find_ntt_prime(
                self.special_modulus_bits, self.ring_degree, index=self.num_moduli + i
            )
            for i in range(self.num_special_moduli)
        )

    def basis(self, level: int | None = None) -> RNSBasis:
        """RNS basis C_l for the given level (defaults to the top level)."""
        level = self.max_level if level is None else level
        if not 0 <= level <= self.max_level:
            raise ValueError(f"level {level} out of range [0, {self.max_level}]")
        return _cached_basis(self.moduli[: level + 1])

    def extended_basis(self, level: int | None = None) -> RNSBasis:
        """Basis C_l ∪ P used during hybrid keyswitch."""
        level = self.max_level if level is None else level
        return _cached_basis(self.moduli[: level + 1] + self.special_moduli)

    def special_basis(self) -> RNSBasis:
        """The basis formed by the special (P) moduli alone (ModDown's source)."""
        return _cached_basis(self.special_moduli)

    @property
    def scale(self) -> int:
        """The CKKS scale factor Delta."""
        return 1 << self.scale_bits

    # -- factories -------------------------------------------------------------
    @classmethod
    def toy(cls, ring_degree: int = 64, max_level: int = 3, dnum: int = 2) -> "CKKSParameters":
        """A tiny functional parameter set for fast unit tests."""
        return cls(
            ring_degree=ring_degree,
            max_level=max_level,
            dnum=dnum,
            scale_bits=40,
            modulus_bits=40,
            special_modulus_bits=42,
            security_bits=0,
            name="ckks-toy",
        )

    @classmethod
    def small(cls, ring_degree: int = 1024, max_level: int = 5, dnum: int = 3) -> "CKKSParameters":
        """A small but realistic functional parameter set for integration tests."""
        return cls(
            ring_degree=ring_degree,
            max_level=max_level,
            dnum=dnum,
            scale_bits=40,
            modulus_bits=40,
            special_modulus_bits=42,
            security_bits=0,
            name="ckks-small",
        )


@dataclass(frozen=True)
class TFHEParameters:
    """Shape and (optionally) concrete moduli of a TFHE instantiation.

    Follows the paper's Table IV: ``polynomial_size`` is the GLWE ring degree
    N, ``lwe_dimension`` is n_lwe, ``glwe_dimension`` is k, and
    ``bsk_levels`` (l_b) / ``ksk_levels`` (l_k) are the gadget decomposition
    depths of the bootstrapping and keyswitching keys.
    """

    polynomial_size: int
    lwe_dimension: int
    glwe_dimension: int = 1
    bsk_levels: int = 2
    bsk_base_log: int = 8
    ksk_levels: int = 2
    ksk_base_log: int = 4
    modulus_bits: int = 32
    plaintext_modulus: int = 4
    noise_stddev: float = 3.2
    security_bits: int = 128
    name: str = "tfhe"

    def __post_init__(self) -> None:
        if self.polynomial_size & (self.polynomial_size - 1):
            raise ValueError("polynomial_size must be a power of two")
        if self.lwe_dimension < 1:
            raise ValueError("lwe_dimension must be >= 1")
        if self.glwe_dimension < 1:
            raise ValueError("glwe_dimension must be >= 1")

    # -- shape-derived quantities ------------------------------------------------
    @property
    def glwe_lwe_dimension(self) -> int:
        """Dimension of the LWE ciphertext extracted from a GLWE (k * N)."""
        return self.glwe_dimension * self.polynomial_size

    @property
    def external_product_branches(self) -> int:
        """Number of NTT/MAC branches per external product: (k + 1) * l_b."""
        return (self.glwe_dimension + 1) * self.bsk_levels

    @property
    def bsk_base(self) -> int:
        return 1 << self.bsk_base_log

    @property
    def ksk_base(self) -> int:
        return 1 << self.ksk_base_log

    # -- functional instantiation --------------------------------------------------
    @cached_property
    def modulus(self) -> int:
        """NTT-friendly prime closest to 2^modulus_bits (the paper's FFT->NTT swap)."""
        return find_ntt_prime(self.modulus_bits, self.polynomial_size, index=0)

    @property
    def delta(self) -> int:
        """Encoding scale: messages are placed in the top bits, q / (2 * t)."""
        return self.modulus // (2 * self.plaintext_modulus)

    # -- factories -----------------------------------------------------------------
    @classmethod
    def toy(cls) -> "TFHEParameters":
        """A tiny functional parameter set: fast PBS in pure Python."""
        return cls(
            polynomial_size=64,
            lwe_dimension=16,
            glwe_dimension=1,
            bsk_levels=3,
            bsk_base_log=6,
            ksk_levels=4,
            ksk_base_log=4,
            modulus_bits=32,
            plaintext_modulus=4,
            noise_stddev=0.0,
            security_bits=0,
            name="tfhe-toy",
        )

    @classmethod
    def small(cls) -> "TFHEParameters":
        """A mid-size functional set exercising realistic decomposition depths."""
        return cls(
            polynomial_size=256,
            lwe_dimension=32,
            glwe_dimension=1,
            bsk_levels=3,
            bsk_base_log=7,
            ksk_levels=5,
            ksk_base_log=3,
            modulus_bits=32,
            plaintext_modulus=4,
            noise_stddev=0.0,
            security_bits=0,
            name="tfhe-small",
        )

    @classmethod
    def hybrid(cls) -> "TFHEParameters":
        """The functional set used by hybrid CKKS<->TFHE programs.

        The gadget chains are *exact*: ``modulus`` is the NTT prime just
        below 2^31, and ``base^levels = 2^30`` makes the last gadget factor
        ``q // 2^30 = 1``, so signed decomposition reconstructs values with
        zero residual.  With ``noise_stddev = 0`` the whole PBS pipeline is
        then errorless up to modulus-switch rounding, which is what lets the
        hybrid example assert exact plaintext results after repacking.
        """
        return cls(
            polynomial_size=256,
            lwe_dimension=16,
            glwe_dimension=1,
            bsk_levels=5,
            bsk_base_log=6,
            ksk_levels=5,
            ksk_base_log=6,
            modulus_bits=31,
            plaintext_modulus=4,
            noise_stddev=0.0,
            security_bits=0,
            name="tfhe-hybrid",
        )


@dataclass(frozen=True)
class ConversionParameters:
    """Parameters for the CKKS<->TFHE conversion benchmark (Section V-B3).

    The paper fixes N = 2^14 and L = 8 for the repacking experiment and
    sweeps the number of packed LWE ciphertexts ``n_slot``.
    """

    ckks: CKKSParameters
    tfhe: TFHEParameters
    nslot: int = 32
    name: str = "conversion"

    def __post_init__(self) -> None:
        if self.nslot & (self.nslot - 1):
            raise ValueError("nslot must be a power of two")
        if self.nslot > self.ckks.ring_degree:
            raise ValueError("nslot cannot exceed the CKKS ring degree")


# ---------------------------------------------------------------------------
# Paper parameter sets (Table IV)
# ---------------------------------------------------------------------------

#: Default CKKS set used by every CKKS benchmark: N = 2^16, L = 35, dnum = 3.
CKKS_DEFAULT = CKKSParameters(
    ring_degree=65536, max_level=35, dnum=3, scale_bits=36, modulus_bits=36,
    special_modulus_bits=36, security_bits=128, name="ckks-default",
)

#: The KeySwitch configuration used for the Fig. 2 breakdown (L = 23, dnum = 3).
CKKS_KEYSWITCH_BREAKDOWN = CKKSParameters(
    ring_degree=65536, max_level=23, dnum=3, scale_bits=36, modulus_bits=36,
    special_modulus_bits=36, security_bits=128, name="ckks-keyswitch-breakdown",
)

#: TFHE Set-I (Table IV): N = 1024, n_lwe = 500, k = 1, l_b = 2, 80-bit security.
TFHE_SET_I = TFHEParameters(
    polynomial_size=1024, lwe_dimension=500, glwe_dimension=1, bsk_levels=2,
    bsk_base_log=10, ksk_levels=2, ksk_base_log=8, modulus_bits=32,
    security_bits=80, name="tfhe-set-i",
)

#: TFHE Set-II (Table IV): N = 1024, n_lwe = 630, k = 1, l_b = 3, 110-bit security.
TFHE_SET_II = TFHEParameters(
    polynomial_size=1024, lwe_dimension=630, glwe_dimension=1, bsk_levels=3,
    bsk_base_log=7, ksk_levels=3, ksk_base_log=6, modulus_bits=32,
    security_bits=110, name="tfhe-set-ii",
)

#: TFHE Set-III (Table IV): N = 2048, n_lwe = 592, k = 1, l_b = 3, 128-bit security.
TFHE_SET_III = TFHEParameters(
    polynomial_size=2048, lwe_dimension=592, glwe_dimension=1, bsk_levels=3,
    bsk_base_log=7, ksk_levels=3, ksk_base_log=6, modulus_bits=32,
    security_bits=128, name="tfhe-set-iii",
)

#: All three TFHE sets keyed the way the paper's tables label them.
TFHE_PARAMETER_SETS = {
    "Set-I": TFHE_SET_I,
    "Set-II": TFHE_SET_II,
    "Set-III": TFHE_SET_III,
}

#: Scheme-conversion benchmark parameters (Section V-B3): N = 2^14, L = 8.
CONVERSION_DEFAULT = ConversionParameters(
    ckks=CKKSParameters(
        ring_degree=16384, max_level=8, dnum=3, scale_bits=36, modulus_bits=36,
        special_modulus_bits=36, security_bits=128, name="ckks-conversion",
    ),
    tfhe=TFHE_SET_III,
    nslot=32,
    name="conversion-default",
)
