"""Pluggable vectorized arithmetic backends for the FHE layer.

Every hot kernel of the functional FHE substrate — element-wise modular
arithmetic, the negacyclic NTT and the RNS compose/decompose primitives — is
expressed against the small :class:`ArithmeticBackend` interface defined
here.  Two implementations are registered:

* ``"python"`` — the exact pure-Python reference (arbitrary-precision ints,
  the original seed implementation).  It is the *golden* backend: every other
  backend must agree with it bit-for-bit, which the differential suite in
  ``tests/test_backend_parity.py`` enforces.
* ``"numpy"`` — vectorized ``uint64`` arithmetic, one kernel family over
  ``(L, N)`` row stacks: a CKKS limb stack, a TFHE wave under one modulus
  and a single coefficient row (the stack of one) run the same transform
  and element-wise code.  The family is parameterised by *word size* only.
  Products of operands up to 32 bits are computed directly in a 64-bit
  word.  The negacyclic NTT and the multiply-accumulates are C
  (:mod:`repro.fhe.native`) at both word sizes: below 2^32, and for the
  33..62-bit primes of :mod:`repro.fhe.params` with 128-bit products.
  Where no library loaded, every transform and multiply-accumulate is the
  golden kernel.  The word size is read off the moduli; there is no switch
  to set.
  It subclasses the python backend: moduli that do not fit this scheme
  (>= 2^62, or even moduli in a transform) transparently fall back to the
  inherited golden kernels, as do tiny vectors where conversion overhead
  would dominate.

Selection
---------
The process-wide *active* backend is resolved, in order, from:

1. an explicit :func:`set_active_backend` / :func:`use_backend` call,
2. the ``REPRO_BACKEND`` environment variable (``python`` or ``numpy``),
3. the default: ``numpy`` when importable, else ``python``.

NumPy is an optional dependency: requesting the numpy backend on a machine
without it degrades gracefully to the python backend (with a warning).
"""

from __future__ import annotations

import math
import operator
import os
import random
import struct
import warnings
from contextlib import contextmanager
from functools import lru_cache
from typing import Dict, Iterator, List, Sequence

try:  # NumPy is optional -- the python backend has no dependencies at all.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    _np = None

from . import native as _native

__all__ = [
    "ArithmeticBackend",
    "PythonBackend",
    "NumpyBackend",
    "PermSpec",
    "GatherSpec",
    "BConvPlan",
    "available_backends",
    "get_backend",
    "active_backend",
    "set_active_backend",
    "use_backend",
    "BACKEND_ENV_VAR",
]

#: Environment variable consulted when no backend has been selected explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Largest modulus bit-length the numpy backend handles without falling back.
NUMPY_MAX_MODULUS_BITS = 62

#: How close to a half-integer a block gaussian draw may come before it is
#: recomputed with ``math.*`` (``NumpyBackend.sample_error_limbs``): numpy's
#: ``log`` / ``cos`` / ``sin`` are not guaranteed bit-equal to libm's, so the
#: block draw returns the scalar loop's integers whenever the two agree to
#: this much on ``z * sigma``.  Measured over 2^20 draws at sigma = 3.2: the
#: floats differ in 0.14% of entries, by at most 1.8e-15 — 2^29 times less.
_GAUSS_GUARD = 2.0 ** -20
#: ... which holds while the draws stay small: at ``|z * sigma| <= 8.6 * 2^16``
#: a float64 ulp is 2^-33.  A wider ``sigma`` takes the scalar loop.
_GAUSS_MAX_STDDEV = float(1 << 16)


@lru_cache(maxsize=64)
def _bit_reverse_indices(length: int) -> tuple:
    """Bit-reversal permutation of ``range(length)`` (length a power of two)."""
    if length & (length - 1):
        raise ValueError("length must be a power of two")
    bits = length.bit_length() - 1
    result = [0] * length
    for i in range(length):
        rev = 0
        value = i
        for _ in range(bits):
            rev = (rev << 1) | (value & 1)
            value >>= 1
        result[i] = rev
    return tuple(result)


@lru_cache(maxsize=256)
def _crt_terms(moduli: tuple) -> tuple:
    """``(Q, terms)`` with ``x = sum_i r_i * terms[i] mod Q`` the CRT
    reconstruction: ``terms[i] = (Q/q_i) * ((Q/q_i)^{-1} mod q_i)``."""
    product = math.prod(moduli)
    return product, tuple(
        (product // q) * pow(product // q, -1, q) for q in moduli)


@lru_cache(maxsize=256)
def _garner_prefix(moduli: tuple) -> tuple:
    """Mixed-radix constants of the longest limb prefix one word can lift.

    ``(P, steps)``: ``P = q_0 ... q_{k-1}`` is the largest prefix product
    below ``2^62`` (so a centred value and the sums that build it fit an
    int64) and ``steps[j-1] = (P_j, P_j^{-1} mod q_j)`` with ``P_j = q_0 ...
    q_{j-1}`` for Garner's digit ``j`` in ``1 .. k-1``.  ``k = 1`` always
    exists for the moduli the numpy backend accepts (each below ``2^62``).
    """
    product = moduli[0]
    steps = []
    for q in moduli[1:]:
        if (product * q).bit_length() > NUMPY_MAX_MODULUS_BITS:
            break
        steps.append((product, pow(product, -1, q)))
        product *= q
    return product, tuple(steps)


class PermSpec:
    """A signed coefficient permutation of a power-of-two ring.

    ``dest[i]`` is the destination index of source coefficient ``i`` and
    ``negate[i]`` says whether it picks up a minus sign.  Both monomial
    multiplication and the Galois automorphisms of ``Z_q[X]/(X^N+1)`` have
    exactly this shape, so one backend kernel serves both.  ``cache`` is
    scratch space where a backend may stash derived tables (e.g. numpy index
    arrays) keyed by its own name; specs are built once per ``(N, exponent)``
    and cached by the ring layer, so the tables amortize.
    """

    __slots__ = ("dest", "negate", "cache")

    def __init__(self, dest: Sequence[int], negate: Sequence[bool]):
        self.dest = tuple(dest)
        self.negate = tuple(negate)
        self.cache: Dict[str, object] = {}


class GatherSpec:
    """A plain (sign-free) coefficient gather: ``out[i] = in[src[i]]``.

    The evaluation-domain image of a Galois automorphism has exactly this
    shape on power-of-two cyclotomics: ``sigma_g`` permutes the odd powers of
    ``psi`` the NTT evaluates at, so it permutes the evaluation values with no
    sign flips (see :func:`repro.fhe.polynomial.galois_eval_spec`).  ``cache``
    holds backend-derived index tables keyed by backend name; specs are built
    once per ``(N, g)`` and lru-cached by the ring layer.
    """

    __slots__ = ("src", "cache")

    def __init__(self, src: Sequence[int]):
        self.src = tuple(src)
        self.cache: Dict[str, object] = {}


class BConvPlan:
    """Precomputed tables for one ``source basis -> target basis`` BConv.

    ``inverses[i]`` is ``(Q/q_i)^{-1} mod q_i`` and ``weights[j][i]`` the
    complement ``(Q/q_i) mod p_j`` — i.e. the ``(target x source)`` matrix of
    the fast-basis-conversion matrix product.  Plans are built once per
    ``(source, target)`` basis pair (see :mod:`repro.fhe.rns`); ``cache``
    holds backend-derived tables (Shoup constants etc.) keyed by backend
    name.
    """

    __slots__ = ("source_moduli", "target_moduli", "inverses", "weights", "cache")

    def __init__(self, source_moduli, target_moduli, inverses, weights):
        self.source_moduli = tuple(int(q) for q in source_moduli)
        self.target_moduli = tuple(int(p) for p in target_moduli)
        self.inverses = tuple(int(v) for v in inverses)
        self.weights = tuple(tuple(int(w) for w in row) for row in weights)
        self.cache: Dict[str, object] = {}


class ArithmeticBackend:
    """Interface every arithmetic backend implements.

    All methods are *exact* and never alias their inputs.  There are two
    calling conventions:

    * **Rows** — the single-row kernels (``add`` ... ``weighted_sum``,
      ``signed_permute``, ``gadget_decompose``, ``ntt_forward`` /
      ``ntt_inverse`` / ``negacyclic_convolution``) take Python-int
      sequences, already reduced or not — reduction modulo ``q`` is part of
      the contract — and return fresh Python lists reduced into ``[0, q)``.
    * **Stores** — every other kernel takes and returns *limb stores*:
      opaque, backend-owned stacks of rows that are already reduced (see
      "packed limb-major kernels" below).  A plain list of rows is always
      accepted as a store; what comes back is the backend's own form.  The
      same-modulus batch kernels (``ntt_forward_batch``, ``mat_mulmod``)
      preserve the form they are given: store in, store out; lists in,
      lists out.  How wide a store's elements are is the backend's own
      business and never part of a value: ``limbs_from_words`` may keep
      4-byte wire words narrow at rest, every kernel accepts any width its
      backend produces and returns its usual one, and stores compare
      through ``store_rows`` (``coefficient_rows()``), not by dtype.

    The NTT entry points receive the :class:`~repro.fhe.ntt.NTTContext`
    (duck typed — only its precomputed tables are read), so backends can
    cache their own derived tables per modulus tuple.
    """

    name: str = "abstract"

    # -- element-wise modular vector ops ----------------------------------
    def add(self, a: Sequence[int], b: Sequence[int], q: int) -> List[int]:
        raise NotImplementedError

    def sub(self, a: Sequence[int], b: Sequence[int], q: int) -> List[int]:
        raise NotImplementedError

    def neg(self, a: Sequence[int], q: int) -> List[int]:
        raise NotImplementedError

    def mul(self, a: Sequence[int], b: Sequence[int], q: int) -> List[int]:
        raise NotImplementedError

    def scalar_mul(self, a: Sequence[int], scalar: int, q: int) -> List[int]:
        raise NotImplementedError

    def weighted_sum(self, rows: Sequence[Sequence[int]], weights: Sequence[int], q: int) -> List[int]:
        """``sum_i rows[i] * weights[i] mod q`` — the BConv accumulation kernel."""
        raise NotImplementedError

    # -- packed limb-major (RNS) kernels -----------------------------------
    #
    # A *limb store* is an opaque, backend-owned representation of an RNS
    # polynomial: ``L`` coefficient rows, row ``i`` reduced modulo
    # ``moduli[i]``.  The reference representation (this base class, and the
    # fallback of every vectorized backend) is a plain list of coefficient
    # lists; the numpy backend packs the rows into a single ``(L, N)``
    # uint64 matrix so that a whole RNS operation is one vectorized
    # dispatch.  Both representations support ``len()`` and row slicing
    # (``store[a:b]``), and stores are immutable by convention — kernels
    # always allocate their outputs.  The base implementations below loop
    # over the per-limb scalar kernels and are therefore the bit-exact
    # golden reference for every vectorized override.
    #
    # Two kernels are the wire codec — ``limbs_to_words`` (store ->
    # little-endian fixed-width words) and ``limbs_from_words`` (words ->
    # validated store) — so a ciphertext crosses a socket without becoming
    # python ints.  The base implementations are the golden ``struct`` row
    # codec: the only path without numpy and for moduli above the
    # vectorised word cap.
    #
    # Three more kernels *create* stores, so key generation and encryption
    # never build per-coefficient Python lists around the arithmetic:
    # ``reduce_limbs`` (signed integers -> residue rows, one dispatch) and the
    # two samplers ``sample_uniform_limbs`` / ``sample_error_limbs`` (uniform
    # residues, a rounded-gaussian polynomial, drawn from a
    # ``random.Random``).  A sampler's contract is stronger than bit-exact
    # output: every override must also leave the generator in the state the
    # golden scalar loop leaves it in, so keys and ciphertexts are identical
    # across backends for one seed.  One kernel goes the other way —
    # ``limbs_centered_lift``, residue rows -> signed integers — and is the
    # only place a decode boundary reconstructs anything.
    #
    # The family is not CKKS-only: nothing requires the row moduli to
    # differ.  A TFHE PBS wave is the same store with ``moduli = (q,) *
    # rows`` — ``limbs_add`` / ``limbs_sub`` / ``limbs_signed_permute``
    # serve it unchanged, and the wave-specific kernels (per-block monomial
    # rotation, row-wise gadget decomposition, the external-product MAC,
    # store-preserving same-modulus NTT batches, ``mat_mulmod``) live in the
    # "same-modulus row stores" section below.

    @staticmethod
    def store_rows(store) -> List[List[int]]:
        """Materialize a limb store as a list of python-int coefficient rows."""
        tolist = getattr(store, "tolist", None)
        if tolist is not None:
            return tolist()
        return [row if isinstance(row, list) else list(row) for row in store]

    @staticmethod
    def _row_ints(row) -> List[int]:
        """Materialize a single coefficient row as a list of python ints."""
        tolist = getattr(row, "tolist", None)
        if tolist is not None:
            return tolist()
        return row if isinstance(row, list) else list(row)

    @staticmethod
    def _is_store(rows) -> bool:
        """True when ``rows`` is a limb store (matrix) rather than one row."""
        ndim = getattr(rows, "ndim", None)
        if ndim is not None:
            return ndim == 2
        return len(rows) > 0 and not isinstance(rows[0], int)

    def pack_limbs(self, rows, moduli) -> object:
        """Pack already-reduced coefficient rows into this backend's store."""
        return self.store_rows(rows)

    def unpack_limbs(self, store) -> List[List[int]]:
        """Inverse of :meth:`pack_limbs` (always python-int rows)."""
        return self.store_rows(store)

    def limbs_to_words(self, store, word: int) -> bytes:
        """A store as little-endian ``word``-byte words, row after row.

        The wire form of :mod:`repro.serve.serialization`.  Values are
        written as they stand (reduction is the store's contract, not
        checked here); one that does not fit the word raises ``ValueError``
        naming its limb instead of being truncated.
        """
        code = "I" if word == 4 else "Q"
        parts = []
        for limb, row in enumerate(self.store_rows(store)):
            try:
                parts.append(struct.pack(f"<{len(row)}{code}", *row))
            except struct.error:
                raise ValueError(
                    f"limb {limb} holds a value that does not fit a "
                    f"{word}-byte word") from None
        return b"".join(parts)

    def limbs_from_words(self, words, moduli, length: int, word: int) -> object:
        """Inverse of :meth:`limbs_to_words`: a validated store.

        ``words`` is any bytes-like buffer of exactly ``len(moduli) *
        length * word`` bytes.  A wrong size, or a row holding a value that
        is not below its modulus, raises ``ValueError`` — what comes back
        is reduced, as every store kernel assumes.
        """
        row_format = struct.Struct(f"<{length}{'I' if word == 4 else 'Q'}")
        if len(words) != len(moduli) * row_format.size:
            raise ValueError(
                f"{len(words)} bytes do not hold {len(moduli)} rows of "
                f"{length} {word}-byte words")
        rows = []
        for limb, q in enumerate(moduli):
            row = list(row_format.unpack_from(words, limb * row_format.size))
            if max(row) >= q:
                raise ValueError(f"residue out of range for modulus {q}")
            rows.append(row)
        return rows

    def limbs_zero(self, count: int, length: int) -> object:
        """An all-zero store of ``count`` rows of ``length`` coefficients."""
        return [[0] * length for _ in range(count)]

    def reduce_limbs(self, coefficients, moduli, length: int) -> object:
        """Signed integers reduced under every modulus: an ``(L, length)`` store.

        ``coefficients`` may be negative, unreduced or arbitrarily large;
        fewer than ``length`` of them are zero-padded, more raise
        ``ValueError``.
        """
        if len(coefficients) > length:
            raise ValueError(
                f"too many coefficients: {len(coefficients)} > {length}"
            )
        padding = [0] * (length - len(coefficients))
        return [[int(c) % q for c in coefficients] + padding for q in moduli]

    def limbs_centered_lift(self, store, moduli) -> List[int]:
        """Inverse of :meth:`reduce_limbs`: the exact centred CRT lift.

        Entry ``k`` is the one integer in ``(-Q/2, Q/2]``, ``Q`` the product
        of the (pairwise coprime) moduli, whose residue under ``moduli[i]``
        is ``store[i][k]`` — every decode boundary reads a polynomial
        through here.  What comes back is a list of python ints, not a
        store: a lifted coefficient is as wide as ``Q``.
        """
        rows = self.store_rows(store)
        if len(rows) != len(moduli):
            raise ValueError("residue row count does not match the moduli")
        product, terms = _crt_terms(tuple(moduli))
        half = product // 2
        lifted = []
        for residues in zip(*rows):
            value = sum(map(operator.mul, residues, terms)) % product
            lifted.append(value - product if value > half else value)
        return lifted

    def sample_uniform_limbs(self, rng, moduli, length: int) -> object:
        """A store of uniform residues: row ``i`` drawn from ``[0, moduli[i])``.

        The golden path is ``rng.randrange(q)``, ``length`` times per limb,
        limb after limb.  Overrides must return the same values *and* leave
        ``rng`` in the same state.
        """
        return [[rng.randrange(q) for _ in range(length)] for q in moduli]

    def sample_error_limbs(self, rng, moduli, length: int, stddev: float) -> object:
        """A store of one rounded-gaussian polynomial under every modulus.

        The golden path is ``round(rng.gauss(0.0, stddev))``, ``length``
        times, then :meth:`reduce_limbs`.  The contract is the uniform
        sampler's: overrides return the same residues *and* leave ``rng`` —
        its ``gauss_next`` included — in the same state.
        """
        draws = [round(rng.gauss(0.0, stddev)) for _ in range(length)]
        return self.reduce_limbs(draws, moduli, length)

    def limbs_add(self, a, b, moduli):
        return [
            self.add(x, y, q)
            for x, y, q in zip(self.store_rows(a), self.store_rows(b), moduli)
        ]

    def limbs_sub(self, a, b, moduli):
        return [
            self.sub(x, y, q)
            for x, y, q in zip(self.store_rows(a), self.store_rows(b), moduli)
        ]

    def limbs_neg(self, a, moduli):
        return [self.neg(x, q) for x, q in zip(self.store_rows(a), moduli)]

    def limbs_mul(self, a, b, moduli):
        """Element-wise per-limb product (NTT-domain pointwise multiply)."""
        return [
            self.mul(x, y, q)
            for x, y, q in zip(self.store_rows(a), self.store_rows(b), moduli)
        ]

    def limbs_scalar_mul(self, a, scalars, moduli):
        """Per-limb scalar product: row ``i`` times ``scalars[i]`` mod ``q_i``."""
        return [
            self.scalar_mul(x, s, q)
            for x, s, q in zip(self.store_rows(a), scalars, moduli)
        ]

    def batched_sub_scaled(self, a, b, scalars, moduli, b_modulus: "int | None" = None):
        """Row-wise fused Rescale/ModDown: ``(a_i - b_i) * scalars[i] mod q_i``.

        ``b`` is either a full store (one row per limb, e.g. ModDown's
        converted P-part, already reduced per target modulus) or a single
        row shared by every limb (Rescale's dropped limb).  ``b_modulus``
        optionally names the modulus a single-row ``b`` is reduced under;
        the values are re-reduced per target limb either way, the hint just
        lets vectorized backends pick a cheaper reduction.
        """
        rows_a = self.store_rows(a)
        if self._is_store(b):
            rows_b = self.store_rows(b)
        else:
            row = self._row_ints(b)
            rows_b = [row] * len(rows_a)
        return [
            [((u - v) * (s % q)) % q for u, v in zip(x, y)]
            for x, y, s, q in zip(rows_a, rows_b, scalars, moduli)
        ]

    def bconv_matmul(self, stores, plan: "BConvPlan"):
        """Fast basis conversion as one modular matrix product (**BConv**)
        for every store of a member wave.

        Computes ``y_j = sum_i [x_i * (Q/q_i)^{-1} mod q_i] * (Q/q_i) mod p_j``
        for every target modulus using the precomputed tables in ``plan``.
        ``stores`` is a list of stores over the plan's source moduli; returns
        one store over the target moduli per member, in order, which
        vectorized backends convert in one dispatch (as :meth:`stacked_ntt`
        stacks its stores).  A bare store is a wave of one and returns a
        bare store.
        """
        if len(stores) and not self._is_store(stores[0]):
            return self.bconv_matmul([stores], plan)[0]
        out = []
        for store in stores:
            scaled = [
                self.scalar_mul(row, inv, q)
                for row, inv, q in zip(self.store_rows(store), plan.inverses,
                                       plan.source_moduli)
            ]
            out.append([
                self.weighted_sum(scaled, weights, p)
                for weights, p in zip(plan.weights, plan.target_moduli)
            ])
        return out

    def batched_ntt(self, contexts, store):
        """Forward NTT of every limb row (row ``i`` under ``contexts[i]``)."""
        return [
            self.ntt_forward(ctx, row)
            for ctx, row in zip(contexts, self.store_rows(store))
        ]

    def batched_intt(self, contexts, store):
        """Inverse NTT of every limb row (row ``i`` under ``contexts[i]``)."""
        return [
            self.ntt_inverse(ctx, row)
            for ctx, row in zip(contexts, self.store_rows(store))
        ]

    def limbs_convolution(self, contexts, a, b):
        """Negacyclic convolution of matching limb rows."""
        return [
            self.negacyclic_convolution(ctx, x, y)
            for ctx, x, y in zip(contexts, self.store_rows(a), self.store_rows(b))
        ]

    def limbs_eval_key(self, contexts, store):
        """Prepare a fixed multiplicand (an evaluation key) for repeated
        limb-wise products.

        Returns an opaque ``(form, payload, raw_store)`` handle consumed by
        :meth:`limbs_eval_mac`.  Every handle keeps a reference to the raw
        coefficient store (the key object owns it anyway), so any backend
        can always recompute from it; the payload carries the key's forward
        NTT in the internal form named by ``form``, so repeated keyswitches
        against the same key skip half the transforms.  Forms belong to the
        implementation that produced them and are checked there: this class
        knows ``"raw"`` (no payload yet) and ``"eval"`` (the plain, fully
        reduced transform).  The base handle starts ``"raw"`` and
        :meth:`limbs_eval_mac` fills it in on first use — which is why it
        is a mutable list here.
        """
        return ["raw", None, store]

    def limbs_eval_mac(self, contexts, digit_stores, key_handles):
        """Evaluation-domain MAC of several decomposition digits against keys.

        ``digit_stores[j]`` holds the fully-reduced forward transform of
        digit ``j`` (an eval-domain limb store) and ``key_handles[j]`` the
        tuple of prepared per-component key handles for that digit (from
        :meth:`limbs_eval_key`).  Returns one eval-domain store per key
        component: ``acc_c = sum_j digit_stores[j] * key_handles[j][c]``
        (pointwise per limb, fully reduced after every step).  The shared
        inverse transform is the caller's job — hoisted keyswitch
        accumulates *all* digits here and pays one ``batched_intt`` per
        component instead of one per digit.
        """
        moduli = tuple(ctx.modulus for ctx in contexts)
        accs = None
        for store, handles in zip(digit_stores, key_handles):
            terms = []
            for handle in handles:
                if handle[0] == "eval":
                    key_eval = handle[1]
                else:
                    # "raw", or another implementation's form: start again
                    # from the raw store every handle carries.
                    key_eval = self.batched_ntt(contexts, handle[2])
                    if handle[0] == "raw":
                        # Cache the transform on the (key-owned) handle so
                        # repeated keyswitches against this key pay it once.
                        handle[:2] = "eval", key_eval
                terms.append(self.limbs_mul(store, key_eval, moduli))
            if accs is None:
                accs = terms
            else:
                accs = [
                    self.limbs_add(acc, term, moduli)
                    for acc, term in zip(accs, terms)
                ]
        return accs

    def limbs_tensor_product(self, a0, a1, b0, b1, moduli):
        """CKKS degree-2 tensor product in the evaluation domain.

        All four inputs are eval-domain limb stores of the two ciphertexts'
        components; returns ``(d0, d1, d2) = (a0*b0, a0*b1 + a1*b0, a1*b1)``
        computed pointwise per limb.  Vectorized backends run the four
        products as one broadcast dispatch.
        """
        d0 = self.limbs_mul(a0, b0, moduli)
        d1 = self.limbs_add(
            self.limbs_mul(a0, b1, moduli), self.limbs_mul(a1, b0, moduli), moduli
        )
        d2 = self.limbs_mul(a1, b1, moduli)
        return d0, d1, d2

    def stacked_intt(self, contexts, stores):
        """Inverse NTT of several limb stores as one stacked dispatch.

        Every store shares the same per-limb contexts; vectorized backends
        stack them into one ``(C, L, N)`` array and run the inverse stages
        once, so e.g. the two accumulator components of a hoisted keyswitch
        pay a single ``(2, L, N)`` transform.  Returns one store per input,
        bit-identical to per-store :meth:`batched_intt`.
        """
        return [self.batched_intt(contexts, store) for store in stores]

    def stacked_ntt(self, contexts, stores):
        """Forward counterpart of :meth:`stacked_intt` (one stacked dispatch)."""
        return [self.batched_ntt(contexts, store) for store in stores]

    def stacked_gather(self, stores, spec):
        """Apply one sign-free gather to several limb stores at once.

        The batched form of :meth:`limbs_gather` — hoisted keyswitch uses it
        to permute all decomposition digits of a rotation in one dispatch.
        """
        return [self.limbs_gather(store, spec) for store in stores]

    def stacked_pmult_mac(self, c0_stores, c1_stores, pt_stores, moduli):
        """Fused multi-ciphertext plaintext MAC (one ``(2, C, L, N)`` dispatch).

        Computes ``acc_c = sum_i pt_i * c_i`` pointwise per limb for both
        ciphertext components: ``c0_stores``/``c1_stores`` hold the ``C``
        evaluation-domain component stores and ``pt_stores`` the matching
        evaluation-domain plaintext stores.  This is how the program
        planner executes an independent same-shape group of PMult/HAdd
        nodes (a BSGS inner sum) as one stacked dispatch.  Fully reduced
        and bit-identical to the per-ciphertext ``limbs_mul``/``limbs_add``
        chain (modular addition is exact in any order).
        """
        if not c0_stores or not (
            len(c0_stores) == len(c1_stores) == len(pt_stores)
        ):
            raise ValueError("stacked_pmult_mac needs matching non-empty stores")
        acc0 = acc1 = None
        for c0, c1, pt in zip(c0_stores, c1_stores, pt_stores):
            t0 = self.limbs_mul(c0, pt, moduli)
            t1 = self.limbs_mul(c1, pt, moduli)
            acc0 = t0 if acc0 is None else self.limbs_add(acc0, t0, moduli)
            acc1 = t1 if acc1 is None else self.limbs_add(acc1, t1, moduli)
        return acc0, acc1

    def replicate_row(self, row, moduli):
        """One coefficient row reduced into every modulus of ``moduli``.

        Returns a store with ``len(moduli)`` rows — the broadcast step of the
        evaluation-domain Rescale, where the dropped limb's coefficients are
        re-reduced under each remaining modulus before being transformed.
        """
        values = self._row_ints(row)
        return [[v % q for v in values] for q in moduli]

    def signed_permute(self, values, q: int, spec: "PermSpec") -> List[int]:
        """Apply a signed coefficient permutation (monomial mul / automorphism)."""
        out = [0] * len(values)
        dest = spec.dest
        negate = spec.negate
        for i, value in enumerate(values):
            value = int(value) % q
            out[dest[i]] = (q - value) % q if negate[i] else value
        return out

    def limbs_signed_permute(self, store, moduli, spec: "PermSpec"):
        """Apply one signed permutation to every limb row."""
        return [
            self.signed_permute(row, q, spec)
            for row, q in zip(self.store_rows(store), moduli)
        ]

    def limbs_gather(self, store, spec: "GatherSpec"):
        """Apply one sign-free gather to every limb row.

        ``out[limb][i] = store[limb][spec.src[i]]`` — the evaluation-domain
        Galois automorphism (a pure slot permutation, no negation, no
        arithmetic), so no moduli are needed.
        """
        src = spec.src
        return [[row[j] for j in src] for row in self.store_rows(store)]

    # -- same-modulus row stores (TFHE blind rotation) ---------------------
    #
    # A PBS wave is one ``(M * (k + 1), N)`` store whose rows all share the
    # TFHE modulus (``moduli = (q,) * rows``), member-major: rows
    # ``[m * (k + 1), (m + 1) * (k + 1))`` are member ``m``'s GLWE
    # components.  The kernels below, with ``limbs_add`` / ``limbs_sub``,
    # are one CMux step on the whole wave; every one of them maps a store
    # to a store, so the accumulator never becomes Python lists between
    # the initial rotation and SampleExtract.

    def ntt_forward_batch(self, context, rows):
        """Independent forward NTTs of several rows under one modulus.

        Store-preserving: a store comes back as a store, a list of rows as
        a list of rows.  What comes back is always fresh: it never aliases
        the input or an earlier result.
        """
        return [self.ntt_forward(context, row) for row in rows]

    def ntt_inverse_batch(self, context, rows):
        """Independent inverse NTTs of several rows under one modulus."""
        return [self.ntt_inverse(context, row) for row in rows]

    def rows_monomial_multiply(self, store, q: int, degrees, group: int):
        """Multiply row block ``g`` of ``store`` by ``X^degrees[g]`` (negacyclic).

        The many-degree sibling of :meth:`limbs_signed_permute`: rows
        ``[g * group, (g + 1) * group)`` all rotate by ``degrees[g]`` (any
        integer, taken modulo ``2N``) — one blind-rotation step rotates
        every wave member by its own ``a_i``.
        """
        rows = self.store_rows(store)
        if len(rows) != len(degrees) * group:
            raise ValueError(
                f"{len(rows)} rows do not split into {len(degrees)} "
                f"blocks of {group}"
            )
        out = []
        for index, row in enumerate(rows):
            n = len(row)
            shift = int(degrees[index // group]) % (2 * n)
            split = n - shift % n
            # row[split:] wraps past X^N and picks up a sign; a shift of N or
            # more is a further factor X^N = -1, which flips the other part.
            flipped, kept = row[split:], row[:split]
            if shift >= n:
                out.append(flipped + [(q - v) % q for v in kept])
            else:
                out.append([(q - v) % q for v in flipped] + kept)
        return out

    def gadget_decompose_rows(self, store, q: int, factors):
        """Signed gadget decomposition of every row: ``R`` rows in,
        ``R * len(factors)`` rows out (row ``r``'s digits, most significant
        first, at ``[r * levels, (r + 1) * levels)``) — exactly the stacked
        :meth:`gadget_decompose` of each row.
        """
        out = []
        for row in self.store_rows(store):
            out.extend(self.gadget_decompose(row, q, factors))
        return out

    def external_product_mac(self, fwd, key_rows, members: int, q: int):
        """Evaluation-domain MAC of a whole wave against one GGSW key slice.

        ``fwd`` holds the ``members * R`` transformed digit rows
        (member-major) and ``key_rows`` the ``R * (k + 1)`` transformed key
        rows of one GGSW ciphertext (row ``r * (k + 1) + c`` is component
        ``c`` of GLWE row ``r``).  Returns the ``members * (k + 1)`` rows
        ``out[m, c] = sum_r fwd[m, r] * key[r, c] mod q``, member-major.
        """
        digits = self.store_rows(fwd)
        key = self.store_rows(key_rows)
        # Counts are checked before anything divides by them.
        if (
            not digits or not 0 < members <= len(digits)
            or len(digits) % members or len(key) % (len(digits) // members)
        ):
            raise ValueError("external_product_mac: row counts do not match")
        per_member = len(digits) // members
        width = len(key) // per_member
        out = []
        for m in range(members):
            rows = digits[m * per_member:(m + 1) * per_member]
            for c in range(width):
                products = [map(operator.mul, row, key[r * width + c])
                            for r, row in enumerate(rows)]
                out.append([sum(terms) % q for terms in zip(*products)])
        return out

    def mat_mulmod(self, rows, matrix, q: int):
        """Exact ``rows @ matrix mod q``; a store in gives a store out.

        The batched-keyswitch shape: ``rows`` holds one weight vector per
        PBS-wave member (its gadget digits) and ``matrix`` the flattened
        key-switching rows they all share — either may be a store, so a
        cached key matrix is converted once, not per call.  Rows narrower
        than ``matrix`` is tall concatenate, consecutive rows forming one
        weight vector: the ``(M * levels, W)`` output of
        :meth:`gadget_decompose_rows` multiplies a ``(levels * W, C)`` key
        as it stands.  The base implementation reduces each output row to
        one :meth:`weighted_sum` over the non-zero weights, so it is the
        bit-exact golden reference for vectorized overrides.
        """
        matrix = self.store_rows(matrix)
        rows = self.store_rows(rows)
        inner = len(matrix)
        width = len(matrix[0]) if matrix else 0
        if inner and rows and len(rows[0]) != inner:
            span, rest = divmod(inner, len(rows[0]))
            if rest or len(rows) % span:
                raise ValueError(
                    f"{len(rows)} rows of {len(rows[0])} do not concatenate "
                    f"to weight vectors of {inner}"
                )
            rows = [
                [w for part in rows[r:r + span] for w in part]
                for r in range(0, len(rows), span)
            ]
        out: List[List[int]] = []
        for row in rows:
            live = [(w % q, m) for w, m in zip(row, matrix) if w % q]
            if not live:
                out.append([0] * width)
                continue
            out.append(self.weighted_sum(
                [m for _, m in live], [w for w, _ in live], q
            ))
        return out

    def gadget_decompose(self, coefficients, modulus: int, factors) -> List[List[int]]:
        """Signed gadget decomposition of one coefficient row.

        Returns ``len(factors)`` digit rows (most significant first, reduced
        into ``[0, modulus)``) using the same greedy residual-based digit
        extraction as :meth:`Polynomial.decompose` — this *is* that kernel,
        hoisted into the backend so it can vectorize.
        """
        digits = [[0] * len(coefficients) for _ in factors]
        half = modulus // 2
        for idx, coefficient in enumerate(coefficients):
            residual = int(coefficient) % modulus
            if residual > half:
                residual -= modulus
            for level, factor in enumerate(factors):
                digit = 0 if factor == 0 else (2 * residual + factor) // (2 * factor)
                residual -= digit * factor
                digits[level][idx] = digit % modulus
        return digits

    # -- NTT kernels -------------------------------------------------------
    def ntt_forward(self, context, coefficients: Sequence[int]) -> List[int]:
        raise NotImplementedError

    def ntt_inverse(self, context, values: Sequence[int]) -> List[int]:
        raise NotImplementedError

    def negacyclic_convolution(self, context, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """Multiply two polynomials in Z_q[X]/(X^N+1) via the NTT."""
        fa = self.ntt_forward(context, a)
        fb = self.ntt_forward(context, b)
        return self.ntt_inverse(context, self.mul(fa, fb, context.modulus))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"

    @staticmethod
    def _check_length(context, sequence: Sequence[int]) -> None:
        if len(sequence) != context.ring_degree:
            raise ValueError(
                f"expected {context.ring_degree} elements, got {len(sequence)}"
            )


class PythonBackend(ArithmeticBackend):
    """Exact pure-Python reference backend (the seed implementation)."""

    name = "python"

    # -- element-wise ------------------------------------------------------
    def add(self, a, b, q):
        return [(x + y) % q for x, y in zip(a, b)]

    def sub(self, a, b, q):
        return [(x - y) % q for x, y in zip(a, b)]

    def neg(self, a, q):
        return [(-x) % q for x in a]

    def mul(self, a, b, q):
        return [(int(x) * int(y)) % q for x, y in zip(a, b)]

    def scalar_mul(self, a, scalar, q):
        scalar %= q
        return [(x * scalar) % q for x in a]

    def weighted_sum(self, rows, weights, q):
        if len(rows) != len(weights):
            raise ValueError("rows and weights must have equal length")
        if not rows:
            raise ValueError("weighted_sum needs at least one row")
        length = len(rows[0])
        result = [0] * length
        for row, weight in zip(rows, weights):
            weight %= q
            for idx in range(length):
                result[idx] = (result[idx] + row[idx] * weight) % q
        return result

    # -- NTT ---------------------------------------------------------------
    def ntt_forward(self, context, coefficients):
        self._check_length(context, coefficients)
        n = context.ring_degree
        q = context.modulus
        values = [int(c) % q for c in coefficients]
        twiddles = context._fwd_twiddles
        # Cooley-Tukey, decimation in time, merged psi twisting (Longa-Naehrig).
        t = n
        m = 1
        while m < n:
            t //= 2
            for i in range(m):
                j1 = 2 * i * t
                j2 = j1 + t
                s = twiddles[m + i]
                for j in range(j1, j2):
                    u = values[j]
                    v = (values[j + t] * s) % q
                    values[j] = (u + v) % q
                    values[j + t] = (u - v) % q
            m *= 2
        return values

    def ntt_inverse(self, context, values):
        self._check_length(context, values)
        n = context.ring_degree
        q = context.modulus
        coeffs = [int(v) % q for v in values]
        twiddles = context._inv_twiddles
        # Gentleman-Sande, decimation in frequency, merged psi^-1 twisting.
        t = 1
        m = n
        while m > 1:
            j1 = 0
            h = m // 2
            for i in range(h):
                j2 = j1 + t
                s = twiddles[h + i]
                for j in range(j1, j2):
                    u = coeffs[j]
                    v = coeffs[j + t]
                    coeffs[j] = (u + v) % q
                    coeffs[j + t] = ((u - v) * s) % q
                j1 += 2 * t
            t *= 2
            m = h
        n_inv = context.n_inv
        return [(c * n_inv) % q for c in coeffs]


# ---------------------------------------------------------------------------
# NumPy backend: one vectorized uint64 kernel family
# ---------------------------------------------------------------------------
#
# Everything below works on ``(..., L, n)`` uint64 arrays: ``L`` rows, row
# ``i`` reduced modulo ``moduli[i]``, with the per-row constants held as
# ``(L, 1)`` columns.  A CKKS limb stack has ``L`` distinct moduli; a single
# coefficient row is the stack of one; a TFHE wave (any number of rows under
# one modulus) also uses ``L = 1`` constants, because a leading axis of one
# broadcasts over the rows for free.  The only thing that differs between
# parameter sets is the *word size*, read off the moduli:
#
# * word 32 — every modulus fits 32 bits, so a product of two reduced values
#   fits one 64-bit word: ``beta = 2^32`` Shoup constants, values fully
#   reduced after every step;
# * word 64 — moduli up to 62 bits: the library's Harvey-lazy transforms
#   and 128-bit multiply-accumulate, ``beta = 2^64`` constants.
#
# Transforms pick the library's entry of the word size in
# :func:`_native_transform`, fixed-operand products branch in
# :func:`_fixed_mul`, eval-domain products in :func:`_eval_mul`; nothing else
# does.  The library's multiply-accumulate (:func:`_mac`), ``mac32`` or
# ``mac64``, is what the keyswitch MAC, the plaintext MAC, BConv and the
# TFHE external product run on, and it holds the TFHE gadget decomposition
# below 2^32 (:func:`_decompose32`).  Without the library every transform
# and multiply-accumulate, at either word size, is the golden kernel
# (``super()``): there are no transform tables then.  The fixed-scalar
# products (:func:`_fixed_mul`), the element-wise kernels and the int64
# gadget decomposition stay numpy either way.

if _np is not None:
    _M32 = _np.uint64(0xFFFFFFFF)
    _S32 = _np.uint64(32)

    def _word(moduli) -> int:
        """Word size of the fixed-operand constants for these moduli."""
        return 32 if all(int(q).bit_length() <= 32 for q in moduli) else 64

    def _shoup32_mul(y, w, s32, q_u):
        """``w * y mod q`` for ``q < 2^32`` via *direct* single-word products.

        ``s32 = floor(w * 2^32 / q)``.  Every product fits one 64-bit word,
        and the result comes out fully reduced into ``[0, q)``.  Precondition:
        ``y < 2^32`` (holds whenever the operands stay reduced below ``q``).
        """
        t = (y * s32) >> _S32
        r = y * w - t * q_u          # true value in [0, 2q); wraps cancel
        return _np.minimum(r, r - q_u)

    def _shoup_mul_relaxed(y, w, ws_lo, ws_hi, q_u):
        """``w * y mod q`` up to THREE extra ``q``: result in ``[0, 4q)``,
        for any uint64 ``y`` (the word-64 fixed-scalar multiply).

        ``ws = floor(w * 2^64 / q)`` comes split into 32-bit halves.  The
        high word of ``y * ws`` is estimated without the low-low partial
        product: with ``t' = hi*hi + (hi*lo >> 32) + (lo*hi >> 32)`` the
        exact quotient satisfies ``t' <= t <= t' + 2``, so the remainder
        picks up at most ``2q`` beyond the lazy ``[0, 2q)`` bound; callers
        reduce from ``[0, 4q)`` (requires ``4q < 2^64``).
        """
        y_lo = y & _M32
        y_hi = y >> _S32
        mid1 = y_hi * ws_lo
        mid2 = y_lo * ws_hi
        mid1 >>= _S32
        mid2 >>= _S32
        t = y_hi * ws_hi
        t += mid1
        t += mid2
        t *= q_u
        result = y * w
        result -= t
        return result               # wraps mod 2^64; true value is < 4q

    def _fixed_operand(rows, moduli, word: int) -> tuple:
        """Fixed multiplicands with their Shoup constants, one row per modulus.

        ``rows[i]`` holds the operands used under ``moduli[i]`` (reduced
        here).  Returns the ``(L, len(rows[i]))`` uint64 arrays the Shoup
        multiplies take after ``y``: ``(w, floor(w * 2^32 / q))`` for word
        32, and ``(w, lo, hi)`` — ``floor(w * 2^64 / q)`` pre-split into
        32-bit halves so the hot loops skip two mask/shift ops — for word 64.
        """
        w, shoup = [], []
        for row, q in zip(rows, moduli):
            for v in row:
                v = int(v) % q
                w.append(v)
                shoup.append((v << word) // q)

        shape = (len(moduli), len(rows[0]) if rows else 0)

        def array(flat):
            # Flat then reshaped: numpy converts nested lists far slower.
            return _np.array(flat, dtype=_np.uint64).reshape(shape)

        if word == 32:
            return array(w), array(shoup)
        return (
            array(w),
            array([s & 0xFFFFFFFF for s in shoup]),
            array([s >> 32 for s in shoup]),
        )

    def _fixed_mul(y, operand, q, word: int):
        """``y * w mod q`` against a :func:`_fixed_operand`, fully reduced.

        The one place a fixed-operand product branches on the word size.
        Word 32 needs ``y < 2^32`` (reduced inputs); word 64 takes any
        uint64 ``y``.
        """
        if word == 32:
            return _shoup32_mul(y, *operand, q)
        v = _shoup_mul_relaxed(y, *operand, q)
        v = _np.minimum(v, v - (q + q))
        return _np.minimum(v, v - q)

    def _shoup_table(context, word: int):
        """The native core's constants for one ``(N, q)``: one array of
        uint32 (word 32) or uint64 (word 64) in the layout given at the top
        of ``native.c``."""
        q, n_inv = context.modulus, context.n_inv
        parts = [_np.array([q, n_inv, (n_inv << word) // q, 0], dtype=_np.uint64)]
        for twiddles in (context._fwd_twiddles, context._inv_twiddles):
            w = _np.array(twiddles, dtype=_np.uint64)
            # floor(w 2^64 / q) needs 128 bits: python ints.
            shoup = ((w << _S32) // _np.uint64(q) if word == 32
                     else [(int(v) << 64) // q for v in twiddles])
            parts += [w, _np.array(shoup, dtype=_np.uint64)]
        return _np.concatenate(parts).astype(f"uint{word}")

    class _NTTTables:
        """Transform tables for a tuple of same-degree NTT contexts.

        Per-limb constants are ``(L, 1)`` columns, so a kernel handles every
        limb of an ``(..., L, n)`` stack at once under its own modulus; a
        single context is ``L = 1``, which also serves any number of rows
        under that one modulus.  The transform's tables are held once per
        ``(N, q)`` in the cached single-context tables (a tuple of contexts
        only collects references, so a modulus costs the same however many
        bases it appears in): ``shoup`` / ``addresses``, the ``native``
        library's constants at either word size.  Tables exist only where
        the library loaded.
        """

        __slots__ = ("n", "word", "q", "native", "shoup", "addresses")

        def __init__(self, contexts, word: int, singles=None):
            self.n = contexts[0].ring_degree
            self.word = word
            moduli = [ctx.modulus for ctx in contexts]
            self.q = _np.array(moduli, dtype=_np.uint64)[:, None]
            self.native = _native.library()
            self.shoup = ([_shoup_table(contexts[0], word)] if singles is None
                          else [single.shoup[0] for single in singles])
            self.addresses = _np.array(
                [table.ctypes.data for table in self.shoup], dtype=_np.uintp)

    def _native_transform(tabs, x, inverse: bool):
        """The native core: its forward (or inverse) transform of the word
        size in place over a fresh C-ordered uint64 copy of ``x``, row ``r``
        under limb ``r % L``."""
        out = _np.array(x, dtype=_np.uint64, order="C")
        rows, limbs = out.size // tabs.n, len(tabs.shoup)
        if out.shape[-1] != tabs.n or rows % limbs:
            raise ValueError(f"{out.shape} is not rows of {tabs.n} over {limbs} limbs")
        name = f"ntt{tabs.word}_{'inverse' if inverse else 'forward'}"
        getattr(tabs.native, name)(out.ctypes.data, rows, tabs.n, limbs,
                                   tabs.addresses.ctypes.data)
        return out

    def _ntt(tabs, x):
        """Forward negacyclic NTT of every row of ``x``, fully reduced.

        ``x`` is a uint64 ``(..., L, n)`` array and is only read.  Word-32
        rows arrive reduced below ``q`` (no Harvey-lazy input may reach the
        32-bit Shoup multiply); stores are reduced by contract and the
        list-in kernels reduce through :meth:`NumpyBackend._to_array`.
        Word-64 rows may be anywhere below ``2q``.
        """
        return _native_transform(tabs, x, inverse=False)

    def _intt(tabs, x):
        """Inverse of :func:`_ntt`, including the ``n^-1`` scaling."""
        return _native_transform(tabs, x, inverse=True)

    def _eval_mul(tabs, x, y):
        """Pointwise ``x * y mod q_i`` of two fully reduced transforms.

        The one place an evaluation-domain product branches on the word
        size: word 32 is one 64-bit multiply plus one remainder, word 64 a
        one-term :func:`_mac`.
        """
        if tabs.word == 32:
            return (x * y) % tabs.q
        return _product(tabs.native, x, y, tabs.q)

    def _convolve(tabs, x, y):
        """Negacyclic products of matching rows of two coefficient arrays;
        both forward transforms ride one stacked array."""
        z = _ntt(tabs, _np.stack([x, y]))
        return _intt(tabs, _eval_mul(tabs, z[0], z[1]))

    def _row_table(mats, rows: int, n: int):
        """C-ordered uint64 copies (where needed) of the ``(rows, n)`` arrays
        ``mats`` and the ``(len(mats), rows)`` addresses of their rows; a
        wrong shape, which the C loop could not see, raises ``ValueError``."""
        held = [_np.ascontiguousarray(m, dtype=_np.uint64) for m in mats]
        if any(m.shape != (rows, n) for m in held):
            raise ValueError(f"{[m.shape for m in held]} are not ({rows}, {n}) stores")
        bases = _np.array([m.ctypes.data for m in held], dtype=_np.uintp)
        return held, bases[:, None] + _np.arange(rows, dtype=_np.uintp) * _np.uintp(8 * n)

    def _mac(lib, word: int, a, b, q, n: int, b_step: int, held):
        """``sum_k a[..., k] * b[..., k] mod q[...]``, the native
        multiply-accumulate of the word size (``mac32`` / ``mac64``), as a
        fresh ``(..., n)`` uint64 array.

        ``a`` / ``b`` are ``(..., terms)`` tables of addresses into ``held``
        (which this frame keeps alive until the C call returns): of rows of
        ``n`` reduced values, or for ``b_step = 0`` of one scalar each.
        ``q`` broadcasts to ``a.shape[:-1]``.
        """
        if a.shape != b.shape:
            raise ValueError(f"address tables {a.shape} and {b.shape} differ")
        shape = a.shape[:-1]
        a = _np.ascontiguousarray(a, dtype=_np.uintp)
        b = _np.ascontiguousarray(b, dtype=_np.uintp)
        q = _np.ascontiguousarray(_np.broadcast_to(q, shape), dtype=_np.uint64)
        out = _np.empty(shape + (n,), dtype=_np.uint64)
        getattr(lib, f"mac{word}")(out.ctypes.data, q.size, a.shape[-1], n,
                                   a.ctypes.data, b.ctypes.data, b_step,
                                   q.ctypes.data)
        return out

    def _product(lib, x, y, q):
        """``x * y mod q`` of reduced word-64 arrays that broadcast
        together, ``q`` a column against their rows: a one-term ``mac64``."""
        x, y = _np.broadcast_arrays(x, y)
        n = x.shape[-1]
        rows = x.size // n if n else 0
        held, table = _row_table([x.reshape(rows, n), y.reshape(rows, n)], rows, n)
        q = _np.broadcast_to(q, x.shape[:-1] + (1,)).reshape(rows)
        return _mac(lib, 64, table[0][:, None], table[1][:, None], q, n, 1,
                    held).reshape(x.shape)

    def _decompose32(lib, x, q: int, factors):
        """The golden signed gadget decomposition of every row of the
        ``(rows, n)`` uint64 array ``x`` (values below ``q < 2^32``, every
        factor in ``[0, q)``) in the native library, as a fresh
        ``(rows * len(factors), n)`` uint64 array, level-innermost."""
        x = _np.ascontiguousarray(x)
        table = _np.array(factors, dtype=_np.uint64)
        out = _np.empty((len(x) * len(table), x.shape[1]), dtype=_np.uint64)
        lib.decompose32(out.ctypes.data, x.ctypes.data, *x.shape, int(q),
                        len(table), table.ctypes.data)
        return out


class NumpyBackend(PythonBackend):
    """Vectorized uint64 backend (direct-word or Shoup reduction, and the
    native library's transforms and multiply-accumulates).

    Every kernel it cannot vectorize falls back to the golden one it
    inherits, through ``super()``.  ``min_vector_length`` /
    ``min_ntt_length`` tune the crossovers below which that happens
    (list<->array round-trips dominate for tiny rings; measured break-even
    is ~512 elements for the element-wise ops and ~128 points for the
    transforms).  Set both to 0 to force the vectorized path everywhere (the
    parity tests do).

    Stores are ``(L, N)`` uint64 matrices — except one decoded from 4-byte
    wire words, which rests as uint32 (its wire size) until the first kernel
    reads it through :meth:`_matrix`; kernel outputs are always uint64.  The
    single-row kernels (``add`` ... ``negacyclic_convolution``) keep the
    list-in / list-out contract of the interface — they reduce unreduced
    input and cross over to the python backend below the thresholds — and
    run the same array cores as the limb-stack kernels on a ``(1, N)`` view.

    Every transform-carrying kernel goes through :func:`_ntt` / :func:`_intt`:
    the C loops of :mod:`repro.fhe.native` at the word size of the moduli.
    Each transform and multiply-accumulate kernel has one fast body, the
    library's: where it did not load they are the golden kernels, at either
    word size.  That is the price of an install without a compiler: the
    transform-bound workloads of ``benchmarks/e2e`` run 60-120x fewer
    operations per second than with the library (2-core x86 container).
    Tables are cached per context tuple in :meth:`_tables`; what costs
    memory is held once per ``(N, q)``.
    """

    name = "numpy"

    def __init__(self, min_vector_length: int = 512, min_ntt_length: int = 128):
        if _np is None:  # pragma: no cover - guarded by get_backend
            raise RuntimeError("numpy is not available")
        self.min_vector_length = min_vector_length
        self.min_ntt_length = min_ntt_length
        self._ntt_tables: Dict[tuple, "_NTTTables | None"] = {}
        self._q_col_cache: Dict[tuple, object] = {}

    # -- what can be vectorized --------------------------------------------
    @staticmethod
    def _moduli_fit(moduli) -> bool:
        """Every modulus is within the vectorized word cap."""
        return all(int(q).bit_length() <= NUMPY_MAX_MODULUS_BITS for q in moduli)

    def _linear_ok(self, q: int, *sequences) -> bool:
        """Whether a single-row kernel should run vectorized: the modulus
        fits a word with headroom and every row clears the size crossover.
        Fixed-operand (Shoup) multiplies need nothing more."""
        if q.bit_length() > NUMPY_MAX_MODULUS_BITS:
            return False
        return all(len(s) >= self.min_vector_length for s in sequences)

    def _mul_ok(self, q: int, *sequences) -> bool:
        """:meth:`_linear_ok`, and products of two variable operands reduce
        (directly in one word, or on the native ``mac64``)."""
        return self._linear_ok(q, *sequences) and (
            q <= (1 << 32) or _native.library() is not None
        )

    def _limbs_ok(self, moduli, matrix) -> bool:
        if matrix is None:
            return False
        return self._moduli_fit(moduli) and matrix.size >= self.min_vector_length

    @staticmethod
    def _to_array(values: Sequence[int], q: int):
        """uint64 array of ``values`` reduced into ``[0, q)`` (exact)."""
        try:
            arr = _np.array(values, dtype=_np.uint64)
        except (OverflowError, TypeError, ValueError):
            arr = _np.array([int(v) % q for v in values], dtype=_np.uint64)
            return arr
        q_u = _np.uint64(q)
        if (arr >= q_u).any():
            arr = arr % q_u
        return arr

    def _row(self, values: Sequence[int], q: int):
        """One coefficient row as a fresh reduced ``(1, n)`` stack of one."""
        return self._to_array(values, q)[None, :]

    @staticmethod
    def _matrix(store):
        """View a limb store as a uint64 matrix (``None`` if it cannot be).

        The one place a narrow store widens: :meth:`limbs_from_words` keeps
        4-byte wire words as uint32 rows, and every kernel reads its inputs
        through here, so the arithmetic below only ever sees uint64.
        """
        if isinstance(store, _np.ndarray):
            return store if store.dtype == _np.uint64 else store.astype(_np.uint64)
        try:
            return _np.array(store, dtype=_np.uint64)
        except (OverflowError, TypeError, ValueError):
            return None

    def _q_col(self, moduli):
        """``(L, 1)`` uint64 column of the per-limb moduli (cached)."""
        key = tuple(moduli)
        col = self._q_col_cache.get(key)
        if col is None:
            col = _np.array(key, dtype=_np.uint64)[:, None]
            self._q_col_cache[key] = col
        return col

    # -- array cores: every modular expression of the family, once ---------
    #
    # ``q`` is anything that broadcasts against the rows: an ``(L, 1)``
    # column from :meth:`_q_col` (``(1, 1)`` for one modulus).

    @staticmethod
    def _add(x, y, q):
        s = x + y
        return _np.minimum(s, s - q)

    @staticmethod
    def _sub(x, y, q):
        d = x - y                                   # wraps when negative
        return _np.minimum(d, d + q)

    @staticmethod
    def _neg(x, q):
        return _np.where(x == _np.uint64(0), x, q - x)

    def _mulmod(self, x, y, moduli):
        """``x * y mod q_i`` of reduced operands (``None`` for a modulus
        above 2^32 where the native library did not load)."""
        if all(int(q) <= (1 << 32) for q in moduli):
            return (x * y) % self._q_col(moduli)
        lib = _native.library()
        return None if lib is None else _product(lib, x, y, self._q_col(moduli))

    def _scale(self, x, scalars, moduli):
        """Row ``i`` of ``x`` times the fixed ``scalars[i]``, fully reduced."""
        word = _word(moduli)
        operand = _fixed_operand([[s] for s in scalars], moduli, word)
        return _fixed_mul(x, operand, self._q_col(moduli), word)

    @staticmethod
    def _perm_arrays(spec: "PermSpec"):
        cached = spec.cache.get("numpy")
        if cached is None:
            cached = (
                _np.array(spec.dest, dtype=_np.intp),
                _np.array(spec.negate, dtype=bool),
            )
            spec.cache["numpy"] = cached
        return cached

    def _permute(self, x, q, spec):
        dest, negate = self._perm_arrays(spec)
        out = _np.empty_like(x)
        out[:, dest] = _np.where(negate[None, :], self._neg(x, q), x)
        return out

    @staticmethod
    def _decompose_digits(values, modulus, factors) -> list:
        """One digit array per factor for reduced int64 ``values`` (any shape).

        The greedy residual walk of the golden :meth:`gadget_decompose`,
        vectorized; digits come out reduced into ``[0, modulus)``.
        """
        q64 = _np.int64(modulus)
        # Centring into (-q/2, q/2], matching modmath.centered exactly.
        residual = _np.where(values > _np.int64(modulus // 2), values - q64, values)
        digits = []
        for factor in factors:
            if factor == 0:
                digits.append(_np.zeros_like(values))
                continue
            f = _np.int64(factor)
            digit = (2 * residual + f) // (2 * f)
            residual = residual - digit * f
            # |digit| <= q/2 + 1, so one conditional add is the exact ``% q``.
            digits.append(_np.where(digit < 0, digit + q64, digit))
        return digits

    def _tables(self, contexts, word: "int | None" = None) -> "_NTTTables | None":
        """Transform tables for a tuple of same-degree NTT contexts.

        ``None`` when the native transforms cannot serve them (the library
        did not load, ring below the crossover, mixed degrees, a modulus
        that is even or above 2^62 — the word-64 butterflies keep values in
        ``[0, 4q)``, so ``4q`` must fit a word).  ``word`` is chosen from
        the moduli; the argument exists so a multi-limb table can ask for
        its single-context parts — where the native tables are built, once
        per ``(n, q)`` — in its own word size.
        """
        if not contexts:
            return None
        n = contexts[0].ring_degree
        moduli = tuple(ctx.modulus for ctx in contexts)
        key = (n, moduli, word)
        try:
            return self._ntt_tables[key]
        except KeyError:
            pass
        tabs = None
        if word is None:
            tabs = self._tables(contexts, _word(moduli))
        elif (
            n >= self.min_ntt_length and self._moduli_fit(moduli)
            and all(q % 2 for q in moduli)
            and _native.library() is not None
            and all(ctx.ring_degree == n for ctx in contexts)
        ):
            singles = None if len(contexts) == 1 else [
                self._tables((ctx,), word) for ctx in contexts
            ]
            tabs = _NTTTables(contexts, word, singles)
        self._ntt_tables[key] = tabs
        return tabs

    # -- single-row kernels: the L = 1 case ---------------------------------
    def add(self, a, b, q):
        if not self._linear_ok(q, a, b):
            return super().add(a, b, q)
        return self._add(self._row(a, q), self._row(b, q), _np.uint64(q))[0].tolist()

    def sub(self, a, b, q):
        if not self._linear_ok(q, a, b):
            return super().sub(a, b, q)
        return self._sub(self._row(a, q), self._row(b, q), _np.uint64(q))[0].tolist()

    def neg(self, a, q):
        if not self._linear_ok(q, a):
            return super().neg(a, q)
        return self._neg(self._row(a, q), _np.uint64(q))[0].tolist()

    def mul(self, a, b, q):
        if not self._mul_ok(q, a, b):
            return super().mul(a, b, q)
        return self._mulmod(self._row(a, q), self._row(b, q), (q,))[0].tolist()

    def scalar_mul(self, a, scalar, q):
        if not self._linear_ok(q, a):
            return super().scalar_mul(a, scalar, q)
        return self._scale(self._row(a, q), (scalar,), (q,))[0].tolist()

    def weighted_sum(self, rows, weights, q):
        if len(rows) != len(weights):
            raise ValueError("rows and weights must have equal length")
        if not rows:
            raise ValueError("weighted_sum needs at least one row")
        if not self._linear_ok(q, *rows):
            return super().weighted_sum(rows, weights, q)
        x = _np.stack([self._to_array(row, q) for row in rows])
        terms = self._scale(x, weights, (q,) * len(rows))
        acc = terms[0]
        for term in terms[1:]:
            acc = self._add(acc, term, _np.uint64(q))
        return acc.tolist()

    def mat_mulmod(self, rows, matrix, q):
        # Split the right operand into ``width``-bit limbs so every integer
        # matmul stays exact in uint64: each partial product is below
        # ``q * 2^width``, and the guard checks the inner-dimension sum
        # cannot wrap.  The partials recombine most significant limb first
        # (Horner): ``acc * 2^width + partial < q * 2^width + q`` stays
        # under the same guard.
        inner = len(matrix)
        width = 16 if q <= (1 << 31) else 8
        if (
            not len(rows) or not inner
            or q.bit_length() + width + (inner - 1).bit_length() > 64
        ):
            return super().mat_mulmod(rows, matrix, q)
        lhs = self._matrix(rows)
        rhs = self._matrix(matrix)
        if lhs is None or rhs is None or lhs.size % inner:
            return super().mat_mulmod(rows, matrix, q)
        q_u = _np.uint64(q)
        # Stores hold reduced rows by contract; plain lists may not.
        if not isinstance(rows, _np.ndarray):
            lhs %= q_u
        if not isinstance(matrix, _np.ndarray):
            rhs %= q_u
        lhs = lhs.reshape(-1, inner)
        mask = _np.uint64((1 << width) - 1)
        shift = _np.uint64(width)
        acc = None
        for limb in reversed(range(-(-q.bit_length() // width))):
            partial = (lhs @ ((rhs >> _np.uint64(limb * width)) & mask)) % q_u
            acc = partial if acc is None else ((acc << shift) + partial) % q_u
        return acc if isinstance(rows, _np.ndarray) else acc.tolist()

    def signed_permute(self, values, q, spec):
        if not self._linear_ok(q, values):
            return super().signed_permute(values, q, spec)
        return self._permute(self._row(values, q), _np.uint64(q), spec)[0].tolist()

    def gadget_decompose(self, coefficients, modulus, factors):
        if not self._linear_ok(modulus, coefficients):
            return super().gadget_decompose(coefficients, modulus, factors)
        try:
            arr = _np.array(coefficients, dtype=_np.int64)
        except (OverflowError, TypeError, ValueError):
            return super().gadget_decompose(coefficients, modulus, factors)
        # int64 ``%`` with a positive divisor is non-negative, like python's.
        digits = self._decompose_digits(arr % _np.int64(modulus), modulus, factors)
        return [digit.tolist() for digit in digits]

    def ntt_forward(self, context, coefficients):
        self._check_length(context, coefficients)
        tabs = self._tables((context,))
        if tabs is None:
            return super().ntt_forward(context, coefficients)
        return _ntt(tabs, self._row(coefficients, context.modulus))[0].tolist()

    def ntt_inverse(self, context, values):
        self._check_length(context, values)
        tabs = self._tables((context,))
        if tabs is None:
            return super().ntt_inverse(context, values)
        return _intt(tabs, self._row(values, context.modulus))[0].tolist()

    def negacyclic_convolution(self, context, a, b):
        self._check_length(context, a)
        self._check_length(context, b)
        tabs = self._tables((context,))
        if tabs is None:
            return super().negacyclic_convolution(context, a, b)
        q = context.modulus
        return _convolve(tabs, self._row(a, q), self._row(b, q))[0].tolist()

    # -- creating stores ----------------------------------------------------
    def pack_limbs(self, rows, moduli):
        matrix = self._matrix(rows) if self._moduli_fit(moduli) else None
        return super().pack_limbs(rows, moduli) if matrix is None else matrix

    def limbs_to_words(self, store, word):
        x = store if isinstance(store, _np.ndarray) else self._matrix(store)
        if x is None:
            return super().limbs_to_words(store, word)
        if x.dtype.itemsize > word:
            wide = x.max(axis=1, initial=0) >> _np.uint64(8 * word)
            if wide.any():
                raise ValueError(
                    f"limb {_np.flatnonzero(wide)[0]} holds a value "
                    f"that does not fit a {word}-byte word")
        return x.astype(f"<u{word}", copy=False).tobytes()

    def limbs_from_words(self, words, moduli, length, word):
        if (
            not self._moduli_fit(moduli)
            or len(words) != len(moduli) * length * word
        ):
            # The golden decoder is also the one that reports a wrong size.
            return super().limbs_from_words(words, moduli, length, word)
        wire = _np.frombuffer(words, dtype=f"<u{word}").reshape(len(moduli), length)
        # Not ``_q_col``: the moduli come off the wire, and every basis a
        # peer invents would stay in that cache.
        over = (wire >= _np.array(moduli, dtype=_np.uint64)[:, None]).any(axis=1)
        if over.any():
            raise ValueError(
                f"residue out of range for modulus {moduli[_np.flatnonzero(over)[0]]}")
        # A native copy in the wire width: it owns its rows (the blob is not
        # kept alive) and a 4-byte word stays 4 bytes until ``_matrix`` reads it.
        return wire.astype(wire.dtype.newbyteorder("="))

    def limbs_zero(self, count, length):
        return _np.zeros((count, length), dtype=_np.uint64)

    def reduce_limbs(self, coefficients, moduli, length):
        if len(coefficients) > length or not self._moduli_fit(moduli):
            return super().reduce_limbs(coefficients, moduli, length)
        column = _np.zeros(length, dtype=_np.int64)
        try:
            column[:len(coefficients)] = coefficients
        except (OverflowError, TypeError, ValueError):
            return super().reduce_limbs(coefficients, moduli, length)
        q = self._q_col(moduli).view(_np.int64)         # every modulus < 2^62
        peak = max(-int(column.min(initial=0)), int(column.max(initial=0)))
        if peak < min(moduli, default=0):
            # Ternary secrets, few-sigma errors, encoded messages: below the
            # smallest modulus in magnitude, ``%`` is one conditional add.
            residues = _np.where(column < 0, column + q, column)
        else:
            # int64 ``%`` with a positive divisor is non-negative, like python's.
            residues = column[None, :] % q
        return residues.view(_np.uint64)

    def limbs_centered_lift(self, store, moduli):
        # Garner's mixed-radix digits over the limb prefix whose product
        # fits a word give the centred value of that prefix, ``|x| <= P/2``.
        # If ``x`` also has the residue the store holds under every
        # remaining limb, then ``x = store (mod Q)`` and ``|x| <= P/2 <
        # Q/2``: it *is* the centred lift — a proof per coefficient, with
        # no assumption about how large a message may be.  A coefficient
        # that fails the check is wider than the prefix and is lifted by
        # the golden CRT.
        moduli = tuple(moduli)
        x = self._matrix(store) if self._moduli_fit(moduli) else None
        if not self._limbs_ok(moduli, x) or len(x) != len(moduli):
            return super().limbs_centered_lift(store, moduli)
        prefix, steps = _garner_prefix(moduli)
        value = x[0]
        for row, q, (radix, inverse) in zip(x[1:], moduli[1:], steps):
            q_u = _np.uint64(q)
            digit = self._scale(
                self._sub(row, value % q_u, q_u)[None, :], (inverse,), (q,))[0]
            value = value + digit * _np.uint64(radix)
        value = value.view(_np.int64)                    # in [0, P), P < 2^62
        lifted = _np.where(value > prefix // 2, value - prefix, value)
        rest = len(steps) + 1
        check = lifted[None, :] % self._q_col(moduli)[rest:].view(_np.int64)
        wide = _np.flatnonzero((check.view(_np.uint64) != x[rest:]).any(axis=0))
        lifted = lifted.tolist()
        if wide.size:
            exact = super().limbs_centered_lift(x[:, wide], moduli)
            for index, coefficient in zip(wide.tolist(), exact):
                lifted[index] = coefficient
        return lifted

    def sample_uniform_limbs(self, rng, moduli, length):
        # ``randrange(q)`` on a stock ``random.Random`` is: draw
        # ``getrandbits(q.bit_length())`` until the value is below ``q``,
        # and ``getrandbits(k)`` consumes ``ceil(k / 32)`` 32-bit generator
        # words, least significant first, keeping the *top* bits of the
        # last one.  Drawing exactly as many candidates as values are still
        # missing can never run past the word the scalar loop would stop
        # at, so the block draw below consumes the identical stream — the
        # rejected share (< 1/2, far less for near-power-of-two primes) is
        # simply re-drawn in ever smaller blocks.
        if type(rng) is not random.Random or not self._moduli_fit(moduli):
            return super().sample_uniform_limbs(rng, moduli, length)
        out = _np.empty((len(moduli), length), dtype=_np.uint64)
        for row, q in zip(out, moduli):
            q = int(q)
            bits = q.bit_length()
            filled = 0
            while filled < length:
                count = length - filled
                if bits <= 32:
                    raw = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
                    values = _np.frombuffer(raw, dtype="<u4") >> (32 - bits)
                else:
                    raw = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
                    pairs = _np.frombuffer(raw, dtype="<u8")
                    values = (pairs & _np.uint64(0xFFFFFFFF)) | (
                        pairs >> _np.uint64(96 - bits) << _np.uint64(32)
                    )
                values = values[values < q]
                row[filled:filled + values.size] = values
                filled += values.size
        return out

    def sample_error_limbs(self, rng, moduli, length, stddev):
        # ``rng.gauss`` makes two draws from two ``random()`` calls — ``z =
        # cos(2 pi u0) * sqrt(-2 log(1 - u1))``, its ``sin`` twin parked in
        # ``rng.gauss_next`` for the next call — so whole pairs come from one
        # block of the generator and only the ends are scalar: a twin left
        # pending by an earlier caller is taken first, and a trailing odd
        # draw leaves its own twin behind, both by ``rng.gauss`` itself.
        if (
            type(rng) is not random.Random or not self._moduli_fit(moduli)
            or not abs(stddev) <= _GAUSS_MAX_STDDEV
        ):
            return super().sample_error_limbs(rng, moduli, length, stddev)
        draws = _np.empty(length, dtype=_np.int64)
        head = 1 if length and rng.gauss_next is not None else 0
        pairs = (length - head) // 2
        if head:
            draws[0] = round(rng.gauss(0.0, stddev))
        if pairs:
            draws[head:head + 2 * pairs] = self._gauss_pairs(rng, pairs, stddev)
        if head + 2 * pairs < length:
            draws[-1] = round(rng.gauss(0.0, stddev))
        return self.reduce_limbs(draws, moduli, length)

    @staticmethod
    def _gauss_pairs(rng, pairs: int, stddev: float):
        """``2 * pairs`` values of ``round(rng.gauss(0.0, stddev))`` as int64,
        consuming ``rng`` as the scalar calls do (``gauss_next`` is ``None``
        before and after)."""
        # Four generator words per pair, in stream order; ``random()`` is the
        # top 27 bits of one word and the top 26 of the next over 2^53.
        raw = rng.getrandbits(128 * pairs).to_bytes(16 * pairs, "little")
        words = _np.frombuffer(raw, dtype="<u4").reshape(pairs, 4)
        uniform = (
            (words[:, 0::2] >> 5) * 67108864.0 + (words[:, 1::2] >> 6)
        ) / 9007199254740992.0
        # Products, the division and ``sqrt`` are correctly rounded in numpy
        # and in ``math`` alike; ``1 - u1 > 0``, so ``log`` raises nothing.
        x2pi = uniform[:, 0] * random.TWOPI
        g2rad = _np.sqrt(-2.0 * _np.log(1.0 - uniform[:, 1]))
        z = _np.stack(
            [_np.cos(x2pi) * g2rad, _np.sin(x2pi) * g2rad], axis=1
        ).reshape(-1) * stddev                      # ``0.0 + x`` is exact
        rounded = _np.rint(z)                       # half-even, as ``round``
        # ``log`` / ``cos`` / ``sin`` may differ from libm in the last bits:
        # whatever lands near a rounding boundary is redone the scalar way
        # from its own two uniforms.
        near = _np.abs(z - _np.floor(z) - 0.5) <= _GAUSS_GUARD
        for index in _np.flatnonzero(near).tolist():
            u0, u1 = uniform[index // 2].tolist()
            wave = math.sin if index % 2 else math.cos
            exact = wave(u0 * random.TWOPI) * math.sqrt(-2.0 * math.log(1.0 - u1))
            rounded[index] = round(0.0 + exact * stddev)
        return rounded.astype(_np.int64)

    def replicate_row(self, row, moduli):
        arr = self._matrix(row) if self._moduli_fit(moduli) else None
        if arr is None:
            return super().replicate_row(row, moduli)
        return arr[None, :] % self._q_col(moduli)

    # -- limb-stack kernels -------------------------------------------------
    def limbs_add(self, a, b, moduli):
        x = self._matrix(a)
        y = self._matrix(b)
        if y is None or not self._limbs_ok(moduli, x):
            return super().limbs_add(a, b, moduli)
        return self._add(x, y, self._q_col(moduli))

    def limbs_sub(self, a, b, moduli):
        x = self._matrix(a)
        y = self._matrix(b)
        if y is None or not self._limbs_ok(moduli, x):
            return super().limbs_sub(a, b, moduli)
        return self._sub(x, y, self._q_col(moduli))

    def limbs_neg(self, a, moduli):
        x = self._matrix(a)
        if not self._limbs_ok(moduli, x):
            return super().limbs_neg(a, moduli)
        return self._neg(x, self._q_col(moduli))

    def limbs_mul(self, a, b, moduli):
        x = self._matrix(a)
        y = self._matrix(b)
        out = None
        if y is not None and self._limbs_ok(moduli, x):
            out = self._mulmod(x, y, moduli)
        return super().limbs_mul(a, b, moduli) if out is None else out

    def limbs_scalar_mul(self, a, scalars, moduli):
        x = self._matrix(a)
        if not self._limbs_ok(moduli, x):
            return super().limbs_scalar_mul(a, scalars, moduli)
        return self._scale(x, scalars, moduli)

    def batched_sub_scaled(self, a, b, scalars, moduli, b_modulus=None):
        x = self._matrix(a)
        y = self._matrix(b)
        if y is None or not self._limbs_ok(moduli, x):
            return super().batched_sub_scaled(a, b, scalars, moduli, b_modulus)
        q = self._q_col(moduli)
        if y.ndim == 1:
            # One row shared by every limb: re-reduce it per target modulus.
            if b_modulus is not None and all(b_modulus <= 2 * int(qi) for qi in moduli):
                # Similar-magnitude moduli: one conditional subtraction per row.
                y = _np.minimum(y, y - q)
            else:
                y = y % q
        return self._scale(self._sub(x, y, q), scalars, moduli)

    def _bconv_tables(self, plan: "BConvPlan"):
        tables = plan.cache.get("numpy")
        if tables is None:
            word = _word(plan.source_moduli + plan.target_moduli)
            inverses = _fixed_operand(
                [[inv] for inv in plan.inverses], plan.source_moduli, word
            )
            # The (targets, sources) weights, reduced, and the address of
            # each: what the native MAC reads.
            matrix = _np.array(plan.weights, dtype=_np.uint64)
            cells = matrix.ctypes.data + _np.arange(
                matrix.size, dtype=_np.uintp).reshape(matrix.shape) * _np.uintp(8)
            tables = (word, inverses, matrix, cells)
            plan.cache["numpy"] = tables
        return tables

    def bconv_matmul(self, stores, plan):
        if not len(stores) or not self._is_store(stores[0]):
            # No members, or one bare store: the golden kernel's to unwrap.
            return super().bconv_matmul(stores, plan)
        mats = [self._matrix(store) for store in stores]
        lib = _native.library()
        if (
            lib is None
            or any(x is None or x.size < self.min_vector_length for x in mats)
            or not self._moduli_fit(plan.source_moduli + plan.target_moduli)
        ):
            return super().bconv_matmul(stores, plan)
        word, inverses, matrix, cells = self._bconv_tables(plan)
        q_tgt = self._q_col(plan.target_moduli)
        # Step 1, for the whole wave at once: x_i * (Q/q_i)^{-1} mod q_i,
        # fully reduced — the weighted sum needs the canonical residue in
        # [0, q_i), not a lazy representative (a different representative
        # would shift the result by k * q_i * w mod p_j).
        scaled = _fixed_mul(_np.stack(mats), inverses,
                            self._q_col(plan.source_moduli), word)
        members, sources, n = scaled.shape
        # Output (member m, target t) sums member m's scaled rows, row i
        # times the scalar weight (t, i).
        held, rows = _row_table([scaled.reshape(members * sources, n)],
                                members * sources, n)
        shape = (members,) + matrix.shape
        rows = _np.broadcast_to(rows.reshape(members, 1, sources), shape)
        return list(_mac(lib, word, rows, _np.broadcast_to(cells, shape),
                         q_tgt[:, 0], n, 0, (held, matrix)))

    def _transform(self, core, contexts, stores):
        """``core`` (:func:`_ntt` / :func:`_intt`) over several stores stacked
        into one ``(C, L, n)`` dispatch; ``None`` if they cannot be."""
        tabs = self._tables(tuple(contexts))
        mats = [self._matrix(store) for store in stores]
        if tabs is None or any(m is None for m in mats):
            return None
        return core(tabs, _np.stack(mats))

    def batched_ntt(self, contexts, store):
        out = self._transform(_ntt, contexts, [store])
        return super().batched_ntt(contexts, store) if out is None else out[0]

    def batched_intt(self, contexts, store):
        out = self._transform(_intt, contexts, [store])
        return super().batched_intt(contexts, store) if out is None else out[0]

    def stacked_ntt(self, contexts, stores):
        out = self._transform(_ntt, contexts, stores)
        return super().stacked_ntt(contexts, stores) if out is None else list(out)

    def stacked_intt(self, contexts, stores):
        out = self._transform(_intt, contexts, stores)
        return super().stacked_intt(contexts, stores) if out is None else list(out)

    def limbs_convolution(self, contexts, a, b):
        tabs = self._tables(tuple(contexts))
        x = self._matrix(a)
        y = self._matrix(b)
        if tabs is None or x is None or y is None:
            return super().limbs_convolution(contexts, a, b)
        return _convolve(tabs, x, y)

    def limbs_eval_key(self, contexts, store):
        tabs = self._tables(tuple(contexts))
        x = self._matrix(store)
        if tabs is None or x is None:
            return super().limbs_eval_key(contexts, store)
        return ("eval", _ntt(tabs, x), store)

    def limbs_eval_mac(self, contexts, digit_stores, key_handles):
        tabs = self._tables(tuple(contexts))
        mats = [self._matrix(store) for store in digit_stores]
        if (
            tabs is None or any(m is None for m in mats)
            # Only payloads that hold the key's transform already.
            or any(handle[0] != "eval"
                   for handles in key_handles for handle in handles)
        ):
            return super().limbs_eval_mac(contexts, digit_stores, key_handles)
        # Output (component c, limb l) sums digit j's row l times the row l
        # of digit j's key component c.
        limbs, width = len(contexts), len(key_handles[0])
        digits, a = _row_table(mats, limbs, tabs.n)
        keys, b = _row_table([handle[1] for handles in key_handles
                              for handle in handles], limbs, tabs.n)
        b = b.reshape(len(mats), width, limbs).transpose(1, 2, 0)
        return list(_mac(tabs.native, tabs.word, _np.broadcast_to(a.T, b.shape),
                         b, tabs.q[:, 0], tabs.n, 1, (digits, keys)))

    def limbs_tensor_product(self, a0, a1, b0, b1, moduli):
        mats = [self._matrix(store) for store in (a0, a1, b0, b1)]
        prods = None
        if all(m is not None for m in mats) and self._limbs_ok(moduli, mats[0]):
            x = _np.stack(mats[:2])                 # (2, L, n)
            y = _np.stack(mats[2:])
            # (2, 2, L, n): all four products in one pass.
            prods = self._mulmod(x[:, None], y[None, :], moduli)
        if prods is None:
            return super().limbs_tensor_product(a0, a1, b0, b1, moduli)
        d1 = self._add(prods[0, 1], prods[1, 0], self._q_col(moduli))
        return prods[0, 0], d1, prods[1, 1]

    def stacked_pmult_mac(self, c0_stores, c1_stores, pt_stores, moduli):
        count = len(c0_stores)
        if not count or not (count == len(c1_stores) == len(pt_stores)):
            raise ValueError("stacked_pmult_mac needs matching non-empty stores")
        mats = [self._matrix(s) for s in (*c0_stores, *c1_stores, *pt_stores)]
        lib = _native.library()
        if (
            lib is None
            or any(m is None for m in mats) or not self._limbs_ok(moduli, mats[0])
        ):
            return super().stacked_pmult_mac(c0_stores, c1_stores, pt_stores,
                                             moduli)
        q = self._q_col(moduli)
        # Output (component c, limb l) sums store i's row l times plaintext i's.
        held, rows = _row_table(mats, len(moduli), mats[0].shape[-1])
        comps = rows[:2 * count].reshape(2, count, -1).transpose(0, 2, 1)
        pts = _np.broadcast_to(rows[2 * count:].T, comps.shape)
        acc = _mac(lib, _word(moduli), comps, pts, q[:, 0],
                   mats[0].shape[-1], 1, held)
        return acc[0], acc[1]

    @staticmethod
    def _gather_index(spec: "GatherSpec"):
        idx = spec.cache.get("numpy")
        if idx is None:
            idx = spec.cache["numpy"] = _np.array(spec.src, dtype=_np.intp)
        return idx

    def stacked_gather(self, stores, spec):
        if (
            not stores
            or not all(isinstance(s, _np.ndarray) for s in stores)
            or len({s.shape for s in stores}) != 1
        ):
            return super().stacked_gather(stores, spec)
        # One gather for all stores.
        mats = [self._matrix(s) for s in stores]
        return list(_np.stack(mats)[..., self._gather_index(spec)])

    def limbs_gather(self, store, spec):
        x = self._matrix(store)
        if x is None or x.size < self.min_vector_length:
            return super().limbs_gather(store, spec)
        return x[..., self._gather_index(spec)]

    def limbs_signed_permute(self, store, moduli, spec):
        x = self._matrix(store)
        if not self._limbs_ok(moduli, x):
            return super().limbs_signed_permute(store, moduli, spec)
        return self._permute(x, self._q_col(moduli), spec)

    # -- same-modulus row stores (TFHE blind rotation) ---------------------
    def _transform_rows(self, core, context, rows):
        """``core`` over rows sharing one modulus — the ``L = 1`` tables
        broadcast over them; ``None`` if they cannot be (or there are none).
        Store in -> store out, lists in -> lists out."""
        tabs = self._tables((context,)) if len(rows) else None
        if tabs is None:
            return None
        if isinstance(rows, _np.ndarray):
            return core(tabs, self._matrix(rows))
        q = context.modulus
        rows = _np.stack([self._to_array(row, q) for row in rows])
        return core(tabs, rows).tolist()

    def ntt_forward_batch(self, context, rows):
        out = self._transform_rows(_ntt, context, rows)
        return super().ntt_forward_batch(context, rows) if out is None else out

    def ntt_inverse_batch(self, context, rows):
        out = self._transform_rows(_intt, context, rows)
        return super().ntt_inverse_batch(context, rows) if out is None else out

    def rows_monomial_multiply(self, store, q, degrees, group):
        x = self._matrix(store)
        if not self._limbs_ok((q,), x) or len(x) != len(degrees) * group:
            return super().rows_monomial_multiply(store, q, degrees, group)
        n = x.shape[1]
        shifts = _np.array([int(d) % (2 * n) for d in degrees], dtype=_np.int64)
        # out[j] = +-in[(j - shift) mod 2N]: sources in [N, 2N) are the
        # coefficients that wrapped past X^N and changed sign.
        src = (_np.arange(n, dtype=_np.int64)[None, :] - shifts[:, None]) % (2 * n)
        wrapped = (src >= n)[:, None, :]
        src = (src % n)[:, None, :]
        picked = _np.take_along_axis(x.reshape(len(degrees), group, n), src, axis=2)
        out = _np.where(wrapped, self._neg(picked, _np.uint64(q)), picked)
        return out.reshape(x.shape)

    def gadget_decompose_rows(self, store, q, factors):
        x = self._matrix(store)
        if not self._limbs_ok((q,), x):
            return super().gadget_decompose_rows(store, q, factors)
        lib = _native.library() if 0 < q < 1 << 32 else None
        if lib is not None and all(0 <= f < q for f in factors):
            return _decompose32(lib, x, q, factors)
        digits = self._decompose_digits(x.astype(_np.int64), q, factors)
        # Stack level-innermost: row r's digits at [r * levels, (r + 1) * levels).
        out = _np.stack(digits, axis=1).reshape(-1, x.shape[1])
        return out.astype(_np.uint64)

    def external_product_mac(self, fwd, key_rows, members, q):
        x = self._matrix(fwd)
        y = self._matrix(key_rows)
        lib = _native.library()
        if (
            lib is None or x is None or y is None or not self._mul_ok(q)
            or x.size < self.min_vector_length
            # Every count mismatch is the golden kernel's error to raise.
            or not 0 < members <= len(x)
            or len(x) % members or len(y) % (len(x) // members)
        ):
            return super().external_product_mac(fwd, key_rows, members, q)
        n = x.shape[1]
        per_member = len(x) // members
        # Output (m, c) sums fwd row m * R + r times key row r * (k + 1) + c.
        digits, a = _row_table([x], len(x), n)
        keys, b = _row_table([y], len(y), n)
        shape = (members, len(y) // per_member, per_member)
        a = _np.broadcast_to(a.reshape(members, 1, per_member), shape)
        b = _np.broadcast_to(b.reshape(per_member, -1).T, shape)
        return _mac(lib, _word((q,)), a, b, _np.uint64(q), n, 1,
                    (digits, keys)).reshape(-1, n)


# ---------------------------------------------------------------------------
# Registry and active-backend selection
# ---------------------------------------------------------------------------

_INSTANCES: Dict[str, ArithmeticBackend] = {}
_ACTIVE: "ArithmeticBackend | None" = None
_WARNED_NO_NUMPY = False


def available_backends() -> List[str]:
    """Names of the backends usable in this environment."""
    names = ["python"]
    if _np is not None:
        names.append("numpy")
    return names


def _default_name() -> str:
    env = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    if env in ("python", "numpy"):
        return env
    if env:
        warnings.warn(
            f"ignoring unknown {BACKEND_ENV_VAR}={env!r}; "
            f"expected 'python' or 'numpy'",
            stacklevel=3,
        )
    return "numpy" if _np is not None else "python"


def get_backend(name: "str | None" = None) -> ArithmeticBackend:
    """Return the backend instance registered under ``name``.

    ``None`` resolves the default (``REPRO_BACKEND`` env var, then numpy when
    available).  Requesting ``"numpy"`` without numpy installed degrades to
    the python backend with a warning rather than failing.
    """
    global _WARNED_NO_NUMPY
    if name is None:
        name = _default_name()
    name = name.lower()
    if name == "numpy" and _np is None:
        if not _WARNED_NO_NUMPY:
            warnings.warn(
                "numpy backend requested but numpy is not installed; "
                "falling back to the exact python backend",
                stacklevel=2,
            )
            _WARNED_NO_NUMPY = True
        name = "python"
    if name not in ("python", "numpy"):
        raise ValueError(
            f"unknown backend {name!r}; available: {available_backends()}"
        )
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = PythonBackend() if name == "python" else NumpyBackend()
        _INSTANCES[name] = instance
    return instance


def active_backend() -> ArithmeticBackend:
    """The backend every FHE vector op dispatches to right now."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = get_backend(None)
    return _ACTIVE


def _resolve(backend: "ArithmeticBackend | str | None") -> "ArithmeticBackend | None":
    if backend is None:
        return None
    if isinstance(backend, ArithmeticBackend):
        return backend
    return get_backend(backend)


def set_active_backend(backend: "ArithmeticBackend | str | None") -> ArithmeticBackend:
    """Select the process-wide backend (``None`` re-resolves the default)."""
    global _ACTIVE
    _ACTIVE = _resolve(backend)
    return active_backend()


@contextmanager
def use_backend(backend: "ArithmeticBackend | str | None") -> Iterator[ArithmeticBackend]:
    """Temporarily switch the active backend (``None`` is a no-op).

    This is how an explicit per-object backend choice (e.g.
    ``CKKSEvaluator(..., backend="numpy")``) is threaded down through code
    that operates on plain :class:`~repro.fhe.polynomial.Polynomial` values.
    """
    resolved = _resolve(backend)
    if resolved is None:
        yield active_backend()
        return
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = resolved
    try:
        yield resolved
    finally:
        _ACTIVE = previous
