"""Functional RNS-CKKS implementation (Cheon-Kim-Kim-Song, RNS variant).

The package provides the arithmetic-FHE half of the paper's workload space:

* :mod:`encoder` — canonical-embedding encoding/decoding of complex vectors,
* :mod:`ciphertext` — plaintext / ciphertext value types,
* :mod:`keys` — secret/public/evaluation/rotation key generation,
* :mod:`keyswitch` — the hybrid (dnum) keyswitch of Algorithm 1,
* :mod:`evaluator` — HAdd, PAdd, PMult, HMult, HRotate, Rescale, plus the
  hoisted-rotation and NTT-resident execution pipeline,
* :mod:`linear_transform` — diagonal-encoded BSGS plaintext-matrix x
  ciphertext products over hoisted rotations,
* :mod:`bootstrap` — the operation-level bootstrapping pipeline used by the
  workload generators (CoeffToSlot -> EvalMod -> SlotToCoeff),
* :mod:`bootstrap_exec` — the *functional* packed bootstrapping: the same
  pipeline as traced+planned :class:`~repro.fhe.program.HEProgram`\\ s that
  actually refresh a level-0 ciphertext (requires numpy).

Everything is exact-arithmetic pure Python over the reduced parameter sets
from :mod:`repro.fhe.params`; the hardware model uses only the *structure* of
these algorithms (via :mod:`repro.kernels`), never the data.
"""

from .ciphertext import CKKSCiphertext, CKKSPlaintext
from .encoder import CKKSEncoder
from .evaluator import CKKSEvaluator
from .keys import CKKSKeyGenerator, CKKSKeySet
from .context import CKKSContext, measure_noise
from .linear_transform import BSGSLinearTransform
from .bootstrap_exec import PackedBootstrap, mod_raise

__all__ = [
    "CKKSCiphertext",
    "CKKSPlaintext",
    "CKKSEncoder",
    "CKKSEvaluator",
    "CKKSKeyGenerator",
    "CKKSKeySet",
    "CKKSContext",
    "measure_noise",
    "BSGSLinearTransform",
    "PackedBootstrap",
    "mod_raise",
]
