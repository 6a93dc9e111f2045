"""Functional FHE substrate: modular arithmetic, NTT, RNS, CKKS, TFHE, conversion.

This package is the *algorithmic* half of the reproduction — everything the
Trinity accelerator computes, implemented exactly so that kernel structure,
operation counts, and correctness properties can be derived and tested rather
than assumed.

Arithmetic backends
-------------------
All ring arithmetic dispatches through a pluggable backend
(:mod:`repro.fhe.backend`).  Two implementations ship:

* ``"python"`` — exact pure-Python integers; the golden reference.
* ``"numpy"`` — vectorized ``uint64`` arithmetic (direct-word products for
  <=32-bit moduli; transforms and multiply-accumulates in a small C library
  up to 62-bit moduli, compiled on first use); roughly an order of
  magnitude faster on realistic ring degrees.

Selecting a backend:

* process-wide: set the ``REPRO_BACKEND`` environment variable to ``python``
  or ``numpy`` before importing, or call
  :func:`repro.fhe.backend.set_active_backend` at runtime;
* scoped: ``with repro.fhe.backend.use_backend("numpy"): ...``;
* per object: pass ``backend=`` to :class:`~repro.fhe.ckks.CKKSContext`,
  :class:`~repro.fhe.ckks.CKKSEvaluator`,
  :class:`~repro.fhe.tfhe.TFHEContext`, or
  :class:`~repro.fhe.ntt.NTTContext`.

**Exactness guarantee:** every backend computes identical integers — the
numpy backend is a bit-for-bit drop-in, not an approximation.  The
differential suite ``tests/test_backend_parity.py`` runs every ported kernel
on both backends over every parameter-set modulus/degree combination and
asserts exact equality, and moduli outside a backend's fast-path range fall
back to the exact python path automatically.  NumPy itself is optional:
without it, everything runs on the python backend.
"""

from . import backend, modmath, ntt, params, polynomial, program, rns
from .backend import active_backend, available_backends, get_backend, set_active_backend, use_backend
from .params import (
    CKKS_DEFAULT,
    CKKS_KEYSWITCH_BREAKDOWN,
    CKKSParameters,
    CONVERSION_DEFAULT,
    ConversionParameters,
    TFHE_PARAMETER_SETS,
    TFHE_SET_I,
    TFHE_SET_II,
    TFHE_SET_III,
    TFHEParameters,
)

__all__ = [
    "backend",
    "modmath",
    "ntt",
    "params",
    "polynomial",
    "program",
    "rns",
    "active_backend",
    "available_backends",
    "get_backend",
    "set_active_backend",
    "use_backend",
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
