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
  word.  The negacyclic NTT, the fixed-scalar products and the
  multiply-accumulates are C (:mod:`repro.fhe.native`) at both word sizes:
  below 2^32, and for the 33..62-bit primes of :mod:`repro.fhe.params` with
  128-bit products.  The word size is read off the moduli; there is no
  switch to set.
  It subclasses the python backend: moduli that do not fit this scheme
  (>= 2^62, or even moduli in a transform) transparently fall back to the
  inherited golden kernels, as do tiny vectors where conversion overhead
  would dominate.

Selection
---------
The process-wide *active* backend is resolved, in order, from:

1. an explicit :func:`set_active_backend` / :func:`use_backend` call,
2. the ``REPRO_BACKEND`` environment variable (``python`` or ``numpy``),
3. the default: ``numpy``.

The numpy backend needs numpy *and* the native library
(:func:`repro.fhe.native.library`), and is offered only where both are
there.  Where either is missing, ``numpy`` — asked for by name, by
``REPRO_BACKEND`` or by default — resolves to the python backend, with one
warning naming what is missing; the python backend is the one fallback.
"""

from __future__ import annotations

import array
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
    "WrappedBackend",
    "KERNELS",
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
#: The ``array`` type code of a 32-bit word, the width of the Mersenne
#: Twister state ``NumpyBackend.sample_limbs`` hands to ``mt_sample``.
_MT_WORD = next((code for code in "IL" if array.array(code).itemsize == 4), None)


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


# -- golden row arithmetic ---------------------------------------------------
#
# The exact python-int bodies several golden store kernels share.  They are
# the reference, not kernels: callers reach them through a store kernel.

def _forward_row(context, coefficients) -> List[int]:
    """Negacyclic forward NTT of one row of integers (reduced here)."""
    n, q = context.ring_degree, context.modulus
    if len(coefficients) != n:
        raise ValueError(f"expected {n} elements, got {len(coefficients)}")
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


def _inverse_row(context, values) -> List[int]:
    """Inverse of :func:`_forward_row`, including the ``n^-1`` scaling."""
    n, q = context.ring_degree, context.modulus
    if len(values) != n:
        raise ValueError(f"expected {n} elements, got {len(values)}")
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


def _weighted_sum(rows, weights, q: int) -> List[int]:
    """``sum_i rows[i] * weights[i] mod q`` over python-int rows — one output
    row of BConv and of the LWE key-switching product."""
    weights = [w % q for w in weights]
    return [sum(map(operator.mul, column, weights)) % q for column in zip(*rows)]


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
    holds backend-derived tables (the numpy backend's weight matrix and the
    addresses its MAC reads) keyed by backend name.
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

    All methods are *exact* and never alias their inputs.  There is one
    calling convention: every kernel takes and returns *limb stores* —
    opaque, backend-owned stacks of rows that are already reduced (see
    "packed limb-major kernels" below) — except the five that create a
    store out of something else (``limbs_zero``, ``reduce_limbs``, the two
    samplers, ``limbs_from_words``).  A single coefficient row is the stack
    of one: ``store_rows(kernel([row], ...))[0]``.  A plain list of rows is
    always accepted as a store; what comes back is the backend's own form.
    The same-modulus batch kernels (``ntt_forward_batch`` /
    ``ntt_inverse_batch``, ``mat_mulmod``) preserve the form they are
    given: store in, store out; lists in, lists out — and their list form
    also takes unreduced or negative integers, reducing them first.  How
    wide a store's elements are is the backend's own business and never
    part of a value: ``limbs_from_words`` may keep 4-byte wire words narrow
    at rest, every kernel accepts any width its backend produces and
    returns its usual one, and stores compare through ``store_rows``
    (``coefficient_rows()``), not by dtype.

    The NTT entry points receive the :class:`~repro.fhe.ntt.NTTContext`
    (duck typed — only its precomputed tables are read), so backends can
    cache their own derived tables per modulus tuple.
    """

    name: str = "abstract"

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
    # always allocate their outputs.  The base implementations below compute
    # every row in python ints (sharing the golden row arithmetic above) and
    # are therefore the bit-exact golden reference for every vectorized
    # override.
    #
    # Two kernels are the wire codec — ``limbs_to_words`` (store ->
    # little-endian fixed-width words) and ``limbs_from_words`` (words ->
    # validated store) — so a ciphertext crosses a socket without becoming
    # python ints.  The base implementations are the golden ``struct`` row
    # codec: the only path without numpy and for moduli above the
    # vectorised word cap.
    #
    # Four more kernels *create* stores, so key generation and encryption
    # never build per-coefficient Python lists around the arithmetic:
    # ``reduce_limbs`` (signed integers -> residue rows, one dispatch), the
    # two samplers ``sample_uniform_limbs`` / ``sample_error_limbs`` (uniform
    # residues, a rounded-gaussian polynomial, drawn from a
    # ``random.Random``) and their batch ``sample_limbs`` (a list of such
    # draws, in order: a key group's masks and errors, an encryption's
    # ``v``, ``e0`` and ``e1``).  A sampler's contract is stronger than
    # bit-exact output: every override must also leave the generator in the
    # state the golden scalar loop leaves it in, so keys and ciphertexts are
    # identical across backends for one seed.  The per-draw samplers serve
    # small draws (an LWE mask), where a batch's fixed cost — handing the
    # generator's state to C and back, ≈ 40 µs — would dominate; the batch
    # pays it once for every draw it holds.  One kernel goes the other way —
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
        return [ArithmeticBackend._row_ints(row) for row in store]

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

    @staticmethod
    def _refuse_misfits(stores, limbs: int, n: "int | None" = None) -> None:
        """``ValueError`` unless every store is ``limbs`` rows of ``n``
        values (``None``: the first row's width), as the native loops
        require: the golden loops zip rows and values, so a misfit store
        would otherwise lose its excess silently."""
        if n is None:
            n = next((len(row) for row in stores[0]), 0)
        for store in stores:
            if len(store) != limbs or any(len(row) != n for row in store):
                raise ValueError(f"a store is not {limbs} rows of {n} values")

    def pack_limbs(self, rows, moduli) -> object:
        """Pack already-reduced coefficient rows into this backend's store."""
        return self.store_rows(rows)

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

    def sample_limbs(self, rng, draws, length: int) -> list:
        """One store per draw of ``draws``, drawn from ``rng`` in order.

        A draw is ``(moduli, stddev)``: ``stddev`` ``None`` is
        :meth:`sample_uniform_limbs`' draw, a number
        :meth:`sample_error_limbs`'.  The golden path is exactly that loop,
        so the order contract holds by construction; overrides return the
        same stores and leave ``rng`` in the same state, as the two
        samplers' overrides do.
        """
        return [
            self.sample_uniform_limbs(rng, moduli, length) if stddev is None
            else self.sample_error_limbs(rng, moduli, length, stddev)
            for moduli, stddev in draws
        ]

    def limbs_add(self, a, b, moduli):
        return [
            [(x + y) % q for x, y in zip(u, v)]
            for u, v, q in zip(self.store_rows(a), self.store_rows(b), moduli)
        ]

    def limbs_sub(self, a, b, moduli):
        return [
            [(x - y) % q for x, y in zip(u, v)]
            for u, v, q in zip(self.store_rows(a), self.store_rows(b), moduli)
        ]

    def limbs_neg(self, a, moduli):
        return [[(-x) % q for x in u] for u, q in zip(self.store_rows(a), moduli)]

    def limbs_mul(self, a, b, moduli):
        """Element-wise per-limb product (NTT-domain pointwise multiply)."""
        return [
            [(int(x) * int(y)) % q for x, y in zip(u, v)]
            for u, v, q in zip(self.store_rows(a), self.store_rows(b), moduli)
        ]

    def limbs_scalar_mul(self, a, scalars, moduli):
        """Per-limb scalar product: row ``i`` times ``scalars[i]`` mod ``q_i``
        (any integer scalar, reduced here)."""
        return [
            [(x * (s % q)) % q for x in u]
            for u, s, q in zip(self.store_rows(a), scalars, moduli)
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
                [x * inv % q for x in row]
                for row, inv, q in zip(self.store_rows(store), plan.inverses,
                                       plan.source_moduli)
            ]
            out.append([
                _weighted_sum(scaled, weights, p)
                for weights, p in zip(plan.weights, plan.target_moduli)
            ])
        return out

    def batched_ntt(self, contexts, store):
        """Forward NTT of every limb row (row ``i`` under ``contexts[i]``)."""
        return [
            _forward_row(ctx, row)
            for ctx, row in zip(contexts, self.store_rows(store))
        ]

    def batched_intt(self, contexts, store):
        """Inverse NTT of every limb row (row ``i`` under ``contexts[i]``)."""
        return [
            _inverse_row(ctx, row)
            for ctx, row in zip(contexts, self.store_rows(store))
        ]

    def limbs_convolution(self, contexts, a, b):
        """Negacyclic convolution of matching limb rows (in Z_q[X]/(X^N+1),
        via the NTT)."""
        out = []
        for ctx, x, y in zip(contexts, self.store_rows(a), self.store_rows(b)):
            q = ctx.modulus
            product = [u * v % q for u, v in zip(_forward_row(ctx, x),
                                                 _forward_row(ctx, y))]
            out.append(_inverse_row(ctx, product))
        return out

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
        self._refuse_misfits(digit_stores, len(moduli),
                             contexts[0].ring_degree if contexts else 0)
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

    def keyswitch_rows(self, contexts, members, plan: "BConvPlan", scalars):
        """The per-key phase of a hoisted keyswitch wave (Algorithm 1's inner
        product and ModDown) for every member, in the evaluation domain.

        ``contexts`` are the NTT contexts of the extended basis C_l ∪ P, the
        ``len(scalars)`` limbs of Q_l first; ``plan`` is the BConv from P
        onto Q_l and ``scalars[i]`` is ``P^{-1} mod q_i``.  A member is
        ``(digit_stores, key_handles, spec)``: the evaluation-domain digits
        of a hoist (stores over ``contexts``), each digit's two prepared key
        components (handles of :meth:`limbs_eval_key`, as
        :meth:`limbs_eval_mac` takes them) and a :class:`GatherSpec` (the
        digits' Galois automorphism) or ``None``.  Per member, with
        ``acc_c = sum_j spec(digit_j) * key_j[c]`` over C_l ∪ P::

            f_c = (acc_c[Q] - NTT(BConv(INTT(acc_c[P])))) * P^{-1}  over Q_l

        and one evaluation-domain ``(f0, f1)`` pair of stores comes back per
        member, in order.  A count or shape that does not fit raises
        ``ValueError`` before any work; the inputs are only read.

        The body composes the kernels: a gather and a MAC per member, then
        one inverse transform of the ``|P|`` rows of every accumulator, one
        BConv, one forward transform of the lifted rows and a
        subtract-and-scale per accumulator.
        """
        num_q = len(scalars)
        self._refuse_keyswitch_misfits(contexts, members, plan, num_q)
        if not members:
            return []
        accs = []
        for digit_stores, key_handles, spec in members:
            if spec is not None:
                digit_stores = [self.limbs_gather(store, spec) for store in digit_stores]
            accs.extend(self.limbs_eval_mac(contexts, digit_stores, key_handles))
        p_parts = self.stacked_intt(contexts[num_q:], [acc[num_q:] for acc in accs])
        lifted = self.stacked_ntt(contexts[:num_q], self.bconv_matmul(p_parts, plan))
        moduli = plan.target_moduli
        out = [self.batched_sub_scaled(acc[:num_q], conv, scalars, moduli)
               for acc, conv in zip(accs, lifted)]
        return list(zip(out[0::2], out[1::2]))

    @classmethod
    def _refuse_keyswitch_misfits(cls, contexts, members, plan, num_q: int) -> None:
        """``ValueError`` unless :meth:`keyswitch_rows`' arguments fit: the
        plan converts the P limbs of ``contexts`` onto its ``num_q`` Q limbs,
        and every member has as many two-component keys as digits (one at
        least), digit and key stores of ``len(contexts)`` rows of ``N`` and a
        gather over ``N`` values."""
        moduli = tuple(ctx.modulus for ctx in contexts)
        if (plan.target_moduli != moduli[:num_q] or plan.source_moduli != moduli[num_q:]
                or not 0 < num_q < len(moduli)):
            raise ValueError(
                f"the BConv {plan.source_moduli} -> {plan.target_moduli} is not "
                f"P -> Q_l of {moduli} with {num_q} Q limbs")
        n = contexts[0].ring_degree
        for index, (digit_stores, key_handles, spec) in enumerate(members):
            if not 0 < len(digit_stores) == len(key_handles) or any(
                    len(handles) != 2 for handles in key_handles):
                raise ValueError(
                    f"keyswitch member {index}: {len(digit_stores)} digits need as "
                    f"many two-component keys, got {[len(h) for h in key_handles]}")
            if spec is not None and len(spec.src) != n:
                raise ValueError(f"keyswitch member {index}: a gather of "
                                 f"{len(spec.src)} values in a ring of {n}")
            cls._refuse_misfits(
                [*digit_stores, *(handle[1] if handle[0] == "eval" else handle[2]
                                  for handles in key_handles for handle in handles)],
                len(moduli), n)

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
        self._refuse_misfits([*c0_stores, *c1_stores, *pt_stores], len(moduli))
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

    def limbs_signed_permute(self, store, moduli, spec: "PermSpec"):
        """Apply one signed coefficient permutation (monomial multiplication
        or automorphism) to every limb row."""
        dest, negate = spec.dest, spec.negate
        out = []
        for row, q in zip(self.store_rows(store), moduli):
            permuted = [0] * len(row)
            for i, value in enumerate(row):
                permuted[dest[i]] = (q - value) % q if negate[i] else value
            out.append(permuted)
        return out

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
    # are one CMux step on the whole wave, and ``blind_rotate_rows`` is all
    # of the steps; every one of them maps a store to a store, so the
    # accumulator never becomes Python lists between the initial rotation
    # and SampleExtract.

    def ntt_forward_batch(self, context, rows):
        """Independent forward NTTs of several rows under one modulus.

        Store-preserving: a store comes back as a store, a list of rows as
        a list of rows, whose integers may be unreduced or negative.  What
        comes back is always fresh: it never aliases the input or an
        earlier result.
        """
        return [_forward_row(context, row) for row in self.store_rows(rows)]

    def ntt_inverse_batch(self, context, rows):
        """Independent inverse NTTs of several rows under one modulus."""
        return [_inverse_row(context, row) for row in self.store_rows(rows)]

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
        first, reduced into ``[0, q)``, at ``[r * levels, (r + 1) *
        levels)``).

        Greedy residual-based digit extraction: each coefficient is
        centred into ``(-q/2, q/2]`` and every factor in turn takes the
        rounded quotient of what is left (a factor of 0 gives the digit 0).
        """
        half = q // 2
        out = []
        for row in self.store_rows(store):
            digits = [[0] * len(row) for _ in factors]
            for idx, coefficient in enumerate(row):
                residual = coefficient - q if coefficient > half else coefficient
                for level, factor in enumerate(factors):
                    digit = 0 if factor == 0 else (2 * residual + factor) // (2 * factor)
                    residual -= digit * factor
                    digits[level][idx] = digit % q
            out.extend(digits)
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

    def blind_rotate_rows(self, context, accumulator, degrees, key_rows, factors,
                          group: int):
        """A wave's whole CMux loop: for each GGSW ``i`` of the key,
        ``acc += bsk_i ⊡ (X^{degrees[i][m]} * acc - acc)`` on every member
        ``m`` of the ``(M * group, N)`` accumulator (``group = k + 1`` rows
        per member) under ``context``'s modulus.

        ``key_rows`` is the evaluation-domain key of
        :meth:`~repro.fhe.tfhe.pbs.BootstrappingKey.eval_store`: GGSW ``i``
        is its slice of ``group * len(factors) * group`` rows at ``i`` times
        that, which :meth:`external_product_mac` contracts.  Returns a fresh
        store; the accumulator and the key are only read.

        Each step composes the wave kernels: rotate, subtract, decompose,
        forward NTT, MAC, inverse NTT, add.  A step whose degrees are all
        zero is skipped: ``X^0 * acc - acc`` is zero, and so is its product.
        """
        q = context.modulus
        moduli = (q,) * len(accumulator)
        span = group * len(factors) * group
        if len(key_rows) != len(degrees) * span:
            raise ValueError(
                f"{len(key_rows)} key rows are not {len(degrees)} GGSW slices "
                f"of {span}")
        if any(len(step) * group != len(accumulator) for step in degrees):
            raise ValueError(
                f"{len(accumulator)} rows are not one block of {group} per degree")
        members = len(accumulator) // group
        out = accumulator
        for i, step in enumerate(degrees):
            if not any(step):
                continue
            rotated = self.rows_monomial_multiply(out, q, step, group)
            digits = self.gadget_decompose_rows(
                self.limbs_sub(rotated, out, moduli), q, factors
            )
            product = self.external_product_mac(
                self.ntt_forward_batch(context, digits),
                key_rows[i * span:(i + 1) * span], members, q,
            )
            out = self.limbs_add(out, self.ntt_inverse_batch(context, product), moduli)
        if out is accumulator:
            # No step ran: a copy, so the result aliases nothing.
            out = self.pack_limbs(self.store_rows(accumulator), moduli)
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
        one weighted sum over the non-zero weights, so it is the bit-exact
        golden reference for vectorized overrides.
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
            out.append(_weighted_sum(
                [m for _, m in live], [w for w, _ in live], q
            ))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class PythonBackend(ArithmeticBackend):
    """Exact pure-Python reference backend (the seed implementation): the
    golden kernels of :class:`ArithmeticBackend`, as they stand."""

    name = "python"


#: Every public kernel of the backend interface, sorted.
KERNELS = tuple(sorted(
    name for name in vars(ArithmeticBackend)
    if not name.startswith("_") and callable(getattr(ArithmeticBackend, name))
))


class WrappedBackend(ArithmeticBackend):
    """Forward every kernel of :data:`KERNELS` to ``inner`` through the
    :meth:`_dispatch` hook, counting the calls in ``calls``.

    A kernel body's nested calls (a numpy kernel falling back through
    ``super()``) run on ``inner``, and no kernel body resolves
    :func:`active_backend`, so only top-level dispatches are seen.
    """

    prefix = "wrapped"

    def __init__(self, inner: ArithmeticBackend):
        self.inner = inner
        self.calls: Dict[str, int] = {}
        self.name = f"{self.prefix}:{inner.name}"

    def _dispatch(self, kernel: str, func, args, kwargs):
        return func(*args, **kwargs)


def _forwarder(kernel: str):
    def forward(self, *args, **kwargs):
        self.calls[kernel] = self.calls.get(kernel, 0) + 1
        return self._dispatch(kernel, getattr(self.inner, kernel), args, kwargs)

    forward.__name__, forward.__qualname__ = kernel, f"WrappedBackend.{kernel}"
    return forward


for _kernel in KERNELS:
    setattr(WrappedBackend, _kernel, _forwarder(_kernel))


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
# * word 64 — moduli up to 62 bits: the library's Harvey-lazy transforms,
#   128-bit products and multiply-accumulate, ``beta = 2^64`` constants.
#
# The library's entry of the word size is picked in one place per family:
# :func:`_native_transform` for the transforms, :meth:`NumpyBackend._scale`
# for the fixed-scalar products ``(x - y) * s`` (``scale32`` / ``scale64``:
# ModDown, Rescale, BConv's source scaling, ``limbs_scalar_mul`` and the
# centred lift's Garner digits), :func:`_mac` for the multiply-accumulate
# (``mac32`` / ``mac64``: the keyswitch MAC, the plaintext MAC, BConv and the
# TFHE external product); :func:`_eval_mul` branches for eval-domain
# products, the TFHE gadget decomposition below 2^51 is :func:`_decompose32`,
# a blind rotation's whole CMux loop below 2^32 is one ``cmux32``
# (:meth:`NumpyBackend.blind_rotate_rows`), and a keyswitch wave chunk's
# whole per-key phase below 2^32 is one ``keyswitch32``
# (:meth:`NumpyBackend.keyswitch_rows`).  The backend exists only where the
# library loaded (:class:`NumpyBackend` reads it once, at construction), so
# none of these asks whether it did; what the library does not take (a
# modulus of 2^62 or more, a ring below the crossover, a decomposition
# modulus of 2^51 or more, a CMux loop or a keyswitch at 2^32 or more) is
# the golden kernel (``super()``).

if _np is not None:
    def _word(moduli) -> int:
        """Word size of the library entry points for these moduli."""
        return 32 if all(int(q).bit_length() <= 32 for q in moduli) else 64

    def _shoup_table(context, word: int):
        """The native core's constants for one ``(N, q)``: one array of
        uint32 (word 32) or uint64 (word 64) in the layout given at the top
        of ``native.c``."""
        q, n_inv = context.modulus, context.n_inv
        parts = [_np.array([q, n_inv, (n_inv << word) // q, 0], dtype=_np.uint64)]
        for twiddles in (context._fwd_twiddles, context._inv_twiddles):
            w = _np.array(twiddles, dtype=_np.uint64)
            # floor(w 2^64 / q) needs 128 bits: python ints.
            shoup = ((w << _np.uint64(32)) // _np.uint64(q) if word == 32
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
        library's constants at either word size.
        """

        __slots__ = ("n", "word", "q", "native", "shoup", "addresses")

        def __init__(self, contexts, word: int, native, singles=None):
            self.n = contexts[0].ring_degree
            self.word = word
            moduli = [ctx.modulus for ctx in contexts]
            self.q = _np.array(moduli, dtype=_np.uint64)[:, None]
            self.native = native
            self.shoup = ([_shoup_table(contexts[0], word)] if singles is None
                          else [single.shoup[0] for single in singles])
            self.addresses = _np.array(
                [table.ctypes.data for table in self.shoup], dtype=_np.uintp)

    def _native_transform(tabs, out, inverse: bool):
        """The native core: its forward (or inverse) transform of the word
        size in place over ``out``, a C-ordered uint64 array no one else
        holds, row ``r`` under limb ``r % L``; returns ``out``."""
        rows, limbs = out.size // tabs.n, len(tabs.shoup)
        if out.dtype != _np.uint64 or not out.flags.c_contiguous:
            raise ValueError("a transform runs in place over a C-ordered uint64 array")
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
        32-bit Shoup multiply); stores are reduced by contract and the list
        form of ``ntt_forward_batch`` / ``ntt_inverse_batch`` reduces
        through :meth:`NumpyBackend._to_array`.
        Word-64 rows may be anywhere below ``2q``.
        """
        return _native_transform(tabs, _np.array(x, dtype=_np.uint64, order="C"),
                                 inverse=False)

    def _intt(tabs, x):
        """Inverse of :func:`_ntt`, including the ``n^-1`` scaling."""
        return _native_transform(tabs, _np.array(x, dtype=_np.uint64, order="C"),
                                 inverse=True)

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
        both forward transforms ride one stacked array.  Both transforms
        run in place: the stack and the product are fresh arrays."""
        z = _native_transform(tabs, _np.ascontiguousarray(_np.stack([x, y])),
                              inverse=False)
        return _native_transform(tabs, _eval_mul(tabs, z[0], z[1]), inverse=True)

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
        ``(rows, n)`` uint64 array ``x`` (values below ``q < 2^51``, every
        factor in ``[0, q)``) in the native library, as a fresh
        ``(rows * len(factors), n)`` uint64 array, level-innermost."""
        x = _np.ascontiguousarray(x)
        table = _np.array(factors, dtype=_np.uint64)
        out = _np.empty((len(x) * len(table), x.shape[1]), dtype=_np.uint64)
        lib.decompose32(out.ctypes.data, x.ctypes.data, *x.shape, int(q),
                        len(table), table.ctypes.data)
        return out


class NumpyBackend(PythonBackend):
    """Vectorized uint64 backend (direct-word reduction, and the native
    library's transforms, fixed-scalar products and multiply-accumulates).

    Every kernel it cannot vectorize falls back to the golden one it
    inherits, through ``super()``.  ``min_vector_length`` /
    ``min_ntt_length`` tune the crossovers of the store kernels below which
    that happens (list<->array round-trips dominate for tiny stores;
    measured break-even is ~512 elements for the element-wise ops and ~128
    points for the transforms).  Set both to 0 to force the vectorized path
    everywhere (the parity tests do).

    Stores are ``(L, N)`` uint64 matrices — except one decoded from 4-byte
    wire words, which rests as uint32 (its wire size) until the first kernel
    reads it through :meth:`_matrix`; kernel outputs are always uint64.  A
    single coefficient row (a one-limb
    :class:`~repro.fhe.rns.RNSPolynomial`) is the ``(1, N)`` store of one
    and runs the same array cores.

    Every transform-carrying kernel goes through :func:`_ntt` / :func:`_intt`:
    the C loops of :mod:`repro.fhe.native` at the word size of the moduli.
    Each transform, fixed-scalar product (``batched_sub_scaled``,
    ``limbs_scalar_mul``, BConv's source scaling, the centred lift's Garner
    digits), multiply-accumulate, the gadget decomposition below 2^51, the
    CMux loop and a keyswitch wave's per-key phase below 2^32, and a batch
    of random draws (``sample_limbs``: CPython's Mersenne Twister) has one
    fast body, the library's.  The library
    is read once, here at construction: without numpy or without the
    library the constructor raises ``RuntimeError`` (:func:`get_backend`
    then resolves to the python backend).
    Tables are cached per context tuple in :meth:`_tables`; what costs
    memory is held once per ``(N, q)``.
    """

    name = "numpy"

    def __init__(self, min_vector_length: int = 512, min_ntt_length: int = 128):
        missing = _numpy_missing()
        if missing:
            raise RuntimeError(f"the numpy backend is not available: {missing}")
        self._lib = _native.library()
        self.min_vector_length = min_vector_length
        self.min_ntt_length = min_ntt_length
        self._ntt_tables: Dict[tuple, "_NTTTables | None"] = {}
        self._q_col_cache: Dict[tuple, object] = {}

    # -- what can be vectorized --------------------------------------------
    @staticmethod
    def _moduli_fit(moduli) -> bool:
        """Every modulus is within the vectorized word cap."""
        return all(int(q).bit_length() <= NUMPY_MAX_MODULUS_BITS for q in moduli)

    @classmethod
    def _sample_fit(cls, moduli) -> bool:
        """Every modulus is a range ``randrange`` takes and within the cap."""
        return all(q >= 1 for q in moduli) and cls._moduli_fit(moduli)

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
        """``x * y mod q_i`` of reduced operands."""
        if all(int(q) <= (1 << 32) for q in moduli):
            return (x * y) % self._q_col(moduli)
        return _product(self._lib, x, y, self._q_col(moduli))

    def _scale(self, x, scalars, moduli, y=None):
        """``(x - y) * scalars[l] mod moduli[l]`` for each ``(..., L, n)``
        row, ``l`` its limb (``y`` ``None``: ``x * scalars[l]``), fully
        reduced, as a fresh uint64 array: the library's fixed-scalar product
        of the word size, ``scale32`` / ``scale64``, in one pass.

        ``x`` and ``y`` (which broadcasts to ``x``) hold reduced values; the
        scalars are any integers, reduced here.
        """
        if x.ndim < 2 or not x.shape[-2] == len(scalars) == len(moduli):
            raise ValueError(f"{x.shape} is not rows over {len(moduli)} limbs "
                             f"and {len(scalars)} scalars")
        x = _np.ascontiguousarray(x, dtype=_np.uint64)
        if y is not None:
            # broadcast_to costs as much as the rest of the call's set-up.
            y = _np.ascontiguousarray(
                y if y.shape == x.shape else _np.broadcast_to(y, x.shape),
                dtype=_np.uint64)
        s = _np.array([int(v) % int(q) for v, q in zip(scalars, moduli)],
                      dtype=_np.uint64)
        out = _np.empty(x.shape, dtype=_np.uint64)
        getattr(self._lib, f"scale{_word(moduli)}")(
            out.ctypes.data, x.ctypes.data, None if y is None else y.ctypes.data,
            math.prod(x.shape[:-1]), x.shape[-1], len(moduli), s.ctypes.data,
            self._q_col(moduli).ctypes.data)
        return out

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

    def _tables(self, contexts, word: "int | None" = None) -> "_NTTTables | None":
        """Transform tables for a tuple of same-degree NTT contexts.

        ``None`` when the native transforms cannot serve them (ring below
        the crossover, mixed degrees, a modulus that is even or above 2^62
        — the word-64 butterflies keep values in ``[0, 4q)``, so ``4q``
        must fit a word).  ``word`` is chosen from
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
            and all(ctx.ring_degree == n for ctx in contexts)
        ):
            singles = None if len(contexts) == 1 else [
                self._tables((ctx,), word) for ctx in contexts
            ]
            tabs = _NTTTables(contexts, word, self._lib, singles)
        self._ntt_tables[key] = tabs
        return tabs

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
            digit = self._scale(row[None, :], (inverse,), (q,),
                                value[None, :] % _np.uint64(q))[0]
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
        if type(rng) is not random.Random or not self._sample_fit(moduli):
            # A modulus below 1 is ``randrange``'s ``ValueError`` to raise.
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
        return NumpyBackend._gauss_round(uniform, _np.full(pairs, float(stddev)))

    @staticmethod
    def _gauss_round(uniform, sigma):
        """``round(0.0 + z * sigma[p])`` for the two draws ``z`` of
        ``rng.gauss``'s pair ``p`` whose two ``random()`` values are
        ``uniform[p]`` (a ``(pairs, 2)`` float64 array), as ``2 * pairs``
        int64 in stream order."""
        # Products, the division and ``sqrt`` are correctly rounded in numpy
        # and in ``math`` alike; ``1 - u1 > 0``, so ``log`` raises nothing.
        x2pi = uniform[:, 0] * random.TWOPI
        g2rad = _np.sqrt(-2.0 * _np.log(1.0 - uniform[:, 1]))
        z = (_np.stack([_np.cos(x2pi) * g2rad, _np.sin(x2pi) * g2rad], axis=1)
             * sigma[:, None]).reshape(-1)          # ``0.0 + x`` is exact
        rounded = _np.rint(z)                       # half-even, as ``round``
        # ``log`` / ``cos`` / ``sin`` may differ from libm in the last bits:
        # whatever lands near a rounding boundary is redone the scalar way
        # from its own two uniforms.
        near = _np.abs(z - _np.floor(z) - 0.5) <= _GAUSS_GUARD
        for index in _np.flatnonzero(near).tolist():
            u0, u1 = uniform[index // 2].tolist()
            wave = math.sin if index % 2 else math.cos
            exact = wave(u0 * random.TWOPI) * math.sqrt(-2.0 * math.log(1.0 - u1))
            rounded[index] = round(0.0 + exact * float(sigma[index // 2]))
        return rounded.astype(_np.int64)

    def sample_limbs(self, rng, draws, length):
        # One state handoff, one native pass over the whole batch in stream
        # order (``mt_sample``: CPython's generator, word for word), one
        # vectorized gaussian float step over every pair of the batch, then
        # each error draw's reduction.  What it cannot take is the golden
        # loop: a generator that is not a stock ``random.Random`` in state
        # version 3, a pending ``gauss_next`` or an odd length before an
        # error draw (the pairs would not be whole), a ``stddev`` beyond
        # ``_GAUSS_MAX_STDDEV``, a modulus outside ``[1, 2^62)``, or a batch
        # below the crossover.
        draws = [(tuple(int(q) for q in moduli), stddev) for moduli, stddev in draws]
        errors = [stddev for _, stddev in draws if stddev is not None]
        rows = [q for moduli, stddev in draws
                for q in (moduli if stddev is None else (0,))]
        if (
            type(rng) is not random.Random or _MT_WORD is None
            or len(rows) * length < max(self.min_vector_length, 1)
            or not all(moduli and self._sample_fit(moduli) for moduli, _ in draws)
            or errors and (length % 2 or rng.gauss_next is not None
                           or not all(abs(s) <= _GAUSS_MAX_STDDEV for s in errors))
        ):
            return super().sample_limbs(rng, draws, length)
        version, internal, pending = rng.getstate()
        if version != 3 or len(internal) != 625:
            return super().sample_limbs(rng, draws, length)
        state = array.array(_MT_WORD, internal)
        uniform = _np.empty((len(rows) - len(errors), length), dtype=_np.uint64)
        raw = _np.empty((len(errors), length), dtype=_np.uint64)
        spec = _np.array(rows, dtype=_np.uint64)
        self._lib.mt_sample(state.buffer_info()[0], len(rows), spec.ctypes.data,
                            length, uniform.ctypes.data, raw.ctypes.data)
        rng.setstate((version, tuple(state), pending))
        noise = iter(self._reduce_errors(raw, errors, [
            moduli for moduli, stddev in draws if stddev is not None]))
        out, used = [], 0
        for moduli, stddev in draws:
            if stddev is None:
                out.append(uniform[used:used + len(moduli)])
                used += len(moduli)
            else:
                out.append(next(noise))
        return out

    def _reduce_errors(self, raw, errors, bases):
        """Row ``i`` of ``raw`` (``mt_sample``'s gaussian words) as its
        rounded-gaussian draw at ``errors[i]``, reduced under ``bases[i]``:
        one store per row."""
        pairs = raw.shape[1] // 2
        uniform = raw.reshape(-1, 2).astype(_np.float64) / 9007199254740992.0
        draws = self._gauss_round(uniform, _np.repeat(
            _np.array(errors, dtype=_np.float64), pairs)).reshape(raw.shape)
        peak = max(-int(draws.min(initial=0)), int(draws.max(initial=0)))
        small = peak < min((min(moduli) for moduli in bases), default=0)
        out = []
        for row, moduli in zip(draws, bases):
            q = self._q_col(moduli).view(_np.int64)
            if small:
                # Below every modulus in magnitude, ``%`` is one conditional
                # add: ``row >> 63`` is all ones where ``row`` is negative.
                residues = (row >> 63) & q
                residues += row
            else:
                residues = row % q      # non-negative, like python's ``%``
            out.append(residues.view(_np.uint64))
        return out

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
        if y is None or not self._limbs_ok(moduli, x):
            return super().limbs_mul(a, b, moduli)
        return self._mulmod(x, y, moduli)

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
        if y.ndim == 1:
            # One row shared by every limb: re-reduce it per target modulus.
            q = self._q_col(moduli)
            if b_modulus is not None and all(b_modulus <= 2 * int(qi) for qi in moduli):
                # Similar-magnitude moduli: one conditional subtraction per row.
                y = _np.minimum(y, y - q)
            else:
                y = y % q
        return self._scale(x, scalars, moduli, y)

    def _bconv_tables(self, plan: "BConvPlan"):
        tables = plan.cache.get("numpy")
        if tables is None:
            # The (targets, sources) weights, reduced, and the address of
            # each: what the native MAC reads.
            matrix = _np.array(plan.weights, dtype=_np.uint64)
            cells = matrix.ctypes.data + _np.arange(
                matrix.size, dtype=_np.uintp).reshape(matrix.shape) * _np.uintp(8)
            tables = (_word(plan.source_moduli + plan.target_moduli), matrix, cells)
            plan.cache["numpy"] = tables
        return tables

    def bconv_matmul(self, stores, plan):
        if not len(stores) or not self._is_store(stores[0]):
            # No members, or one bare store: the golden kernel's to unwrap.
            return super().bconv_matmul(stores, plan)
        mats = [self._matrix(store) for store in stores]
        if (
            any(x is None or x.size < self.min_vector_length for x in mats)
            or not self._moduli_fit(plan.source_moduli + plan.target_moduli)
        ):
            return super().bconv_matmul(stores, plan)
        word, matrix, cells = self._bconv_tables(plan)
        q_tgt = self._q_col(plan.target_moduli)
        # Step 1, for the whole wave at once, one (members * sources, n)
        # pass: x_i * (Q/q_i)^{-1} mod q_i, fully reduced — the weighted sum
        # needs the canonical residue in [0, q_i), not a lazy representative
        # (a different representative would shift the result by k * q_i * w
        # mod p_j).
        scaled = self._scale(_np.stack(mats), plan.inverses, plan.source_moduli)
        members, sources, n = scaled.shape
        # Output (member m, target t) sums member m's scaled rows, row i
        # times the scalar weight (t, i).
        held, rows = _row_table([scaled.reshape(members * sources, n)],
                                members * sources, n)
        shape = (members,) + matrix.shape
        rows = _np.broadcast_to(rows.reshape(members, 1, sources), shape)
        return list(_mac(self._lib, word, rows, _np.broadcast_to(cells, shape),
                         q_tgt[:, 0], n, 0, (held, matrix)))

    def _transform(self, inverse: bool, contexts, stores):
        """The transform over several stores stacked into one ``(C, L, n)``
        dispatch, in place over the stack (the one copy, unless a store's
        layout makes the stack another order); ``None`` if they cannot be."""
        tabs = self._tables(tuple(contexts))
        mats = [self._matrix(store) for store in stores]
        if tabs is None or any(m is None for m in mats):
            return None
        return _native_transform(tabs, _np.ascontiguousarray(_np.stack(mats)), inverse)

    def batched_ntt(self, contexts, store):
        out = self._transform(False, contexts, [store])
        return super().batched_ntt(contexts, store) if out is None else out[0]

    def batched_intt(self, contexts, store):
        out = self._transform(True, contexts, [store])
        return super().batched_intt(contexts, store) if out is None else out[0]

    def stacked_ntt(self, contexts, stores):
        out = self._transform(False, contexts, stores)
        return super().stacked_ntt(contexts, stores) if out is None else list(out)

    def stacked_intt(self, contexts, stores):
        out = self._transform(True, contexts, stores)
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

    def keyswitch_rows(self, contexts, members, plan, scalars):
        num_q, limbs = len(scalars), len(contexts)
        tabs = self._tables(tuple(contexts))
        moduli = tuple(ctx.modulus for ctx in contexts)
        rows = self._keyswitch_rows_table(tabs, members, limbs) if (
            tabs is not None and tabs.word == 32 and 0 < num_q < limbs
            and plan.target_moduli == moduli[:num_q]
            and plan.source_moduli == moduli[num_q:]
        ) else None
        if rows is None:
            # Every count or shape mismatch is the golden kernel's to raise.
            return super().keyswitch_rows(contexts, members, plan, scalars)
        held, table, gathers = rows
        count, terms = len(members), table.shape[1] // 3
        digits = _np.ascontiguousarray(table[:, :terms])
        keys = _np.ascontiguousarray(table[:, terms:])
        _, weights, _ = self._bconv_tables(plan)
        inverses = _np.array([v % q for v, q in zip(plan.inverses, plan.source_moduli)],
                             dtype=_np.uint64)
        s = _np.array([int(v) % q for v, q in zip(scalars, plan.target_moduli)],
                      dtype=_np.uint64)
        n = tabs.n
        out = _np.empty((count, 2, num_q, n), dtype=_np.uint64)
        scratch = _np.empty((terms + 3 * limbs, n), dtype=_np.uint64)
        self._lib.keyswitch32(
            out.ctypes.data, count, terms, num_q, limbs - num_q, n,
            digits.ctypes.data, keys.ctypes.data, gathers.ctypes.data,
            tabs.addresses.ctypes.data, inverses.ctypes.data, weights.ctypes.data,
            s.ctypes.data, scratch.ctypes.data)
        return [(pair[0], pair[1]) for pair in out]

    def _keyswitch_rows_table(self, tabs, members, limbs: int):
        """What ``keyswitch32`` reads of ``members``: the arrays it reads
        (held until the call returns), the ``(members, 3 * terms)`` row
        addresses (each member's digits, then its keys digit-major,
        component-minor) and each member's gather address (0: none); or
        ``None`` when a member does not fit (the golden kernel's case)."""
        if not members:
            return None
        n, terms = tabs.n, len(members[0][0])
        held, addresses, rows, gathers = [], {}, [], []
        for digit_stores, key_handles, spec in members:
            if (
                not 0 < len(digit_stores) == len(key_handles) == terms
                or any(len(handles) != 2 or handle[0] != "eval"
                       for handles in key_handles for handle in handles)
            ):
                return None
            gather = 0 if spec is None else self._gather_address(spec, n)
            if gather is None:
                return None
            gathers.append(gather)
            for store in (*digit_stores, *(handle[1] for handles in key_handles
                                           for handle in handles)):
                # The digits of a hoist are shared by its members' rows.
                address = addresses.get(id(store))
                if address is None:
                    x = self._matrix(store)
                    if x is None or x.shape != (limbs, n):
                        return None
                    x = _np.ascontiguousarray(x)
                    held.append(x)
                    address = addresses[id(store)] = x.ctypes.data
                rows.append(address)
        return (held, _np.array(rows, dtype=_np.uintp).reshape(len(members), 3 * terms),
                _np.array(gathers, dtype=_np.uintp))

    @staticmethod
    def _gather_address(spec: "GatherSpec", n: int):
        """The address of ``spec``'s index as ``keyswitch32`` reads it (n
        uint64 entries, cached on the spec), or ``None`` unless it gathers
        ``n`` values from ``[0, n)``."""
        cached = spec.cache.get("numpy-native")
        if cached is None:
            index = _np.array(spec.src, dtype=_np.int64)
            fits = len(index) and index.min() >= 0 and index.max() < len(index)
            index = index.astype(_np.uint64) if fits else None
            cached = spec.cache["numpy-native"] = (
                index, None if index is None else index.ctypes.data)
        index, address = cached
        return address if index is not None and len(index) == n else None

    def limbs_tensor_product(self, a0, a1, b0, b1, moduli):
        mats = [self._matrix(store) for store in (a0, a1, b0, b1)]
        if any(m is None for m in mats) or not self._limbs_ok(moduli, mats[0]):
            return super().limbs_tensor_product(a0, a1, b0, b1, moduli)
        x = _np.stack(mats[:2])                     # (2, L, n)
        y = _np.stack(mats[2:])
        # (2, 2, L, n): all four products in one pass.
        prods = self._mulmod(x[:, None], y[None, :], moduli)
        d1 = self._add(prods[0, 1], prods[1, 0], self._q_col(moduli))
        return prods[0, 0], d1, prods[1, 1]

    def stacked_pmult_mac(self, c0_stores, c1_stores, pt_stores, moduli):
        count = len(c0_stores)
        if not count or not (count == len(c1_stores) == len(pt_stores)):
            raise ValueError("stacked_pmult_mac needs matching non-empty stores")
        mats = [self._matrix(s) for s in (*c0_stores, *c1_stores, *pt_stores)]
        if any(m is None for m in mats) or not self._limbs_ok(moduli, mats[0]):
            return super().stacked_pmult_mac(c0_stores, c1_stores, pt_stores,
                                             moduli)
        q = self._q_col(moduli)
        # Output (component c, limb l) sums store i's row l times plaintext i's.
        held, rows = _row_table(mats, len(moduli), mats[0].shape[-1])
        comps = rows[:2 * count].reshape(2, count, -1).transpose(0, 2, 1)
        pts = _np.broadcast_to(rows[2 * count:].T, comps.shape)
        acc = _mac(self._lib, _word(moduli), comps, pts, q[:, 0],
                   mats[0].shape[-1], 1, held)
        return acc[0], acc[1]

    @staticmethod
    def _gather_index(spec: "GatherSpec"):
        idx = spec.cache.get("numpy")
        if idx is None:
            idx = spec.cache["numpy"] = _np.array(spec.src, dtype=_np.intp)
        return idx

    def limbs_gather(self, store, spec):
        x = self._matrix(store)
        if x is None or x.size < self.min_vector_length:
            return super().limbs_gather(store, spec)
        return _np.take(x, self._gather_index(spec), axis=-1)

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
        if (
            not 0 < q < 1 << 51 or not self._limbs_ok((q,), x)
            or not all(0 <= f < q for f in factors)
        ):
            return super().gadget_decompose_rows(store, q, factors)
        return _decompose32(self._lib, x, q, factors)

    def external_product_mac(self, fwd, key_rows, members, q):
        x = self._matrix(fwd)
        y = self._matrix(key_rows)
        if (
            x is None or y is None or not self._moduli_fit((q,))
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
        return _mac(self._lib, _word((q,)), a, b, _np.uint64(q), n, 1,
                    (digits, keys)).reshape(-1, n)

    def blind_rotate_rows(self, context, accumulator, degrees, key_rows, factors,
                          group):
        n, q = context.ring_degree, context.modulus
        tabs = self._tables((context,))
        x = self._matrix(accumulator)
        keys = self._matrix(key_rows)
        members = len(degrees[0]) if len(degrees) else 0
        if (
            tabs is None or tabs.word != 32 or keys is None
            or not self._limbs_ok((q,), x)
            or not all(0 <= f < q for f in factors)
            # Every count mismatch is the golden kernel's error to raise.
            or x.shape != (members * group, n)
            or keys.shape != (len(degrees) * group * len(factors) * group, n)
            or any(len(step) != members for step in degrees)
        ):
            return super().blind_rotate_rows(context, accumulator, degrees,
                                             key_rows, factors, group)
        shifts = _np.array([[int(d) % (2 * n) for d in step] for step in degrees],
                           dtype=_np.uint64)
        out = _np.array(x, dtype=_np.uint64, order="C")
        keys = _np.ascontiguousarray(keys)
        table = _np.array(factors, dtype=_np.uint64)
        scratch = _np.empty(group * (len(factors) + 1) * n, dtype=_np.uint64)
        self._lib.cmux32(out.ctypes.data, members, group, n, len(degrees),
                         shifts.ctypes.data, keys.ctypes.data, len(factors),
                         table.ctypes.data, tabs.shoup[0].ctypes.data,
                         scratch.ctypes.data)
        return out


# ---------------------------------------------------------------------------
# Registry and active-backend selection
# ---------------------------------------------------------------------------

_INSTANCES: Dict[str, ArithmeticBackend] = {}
_ACTIVE: "ArithmeticBackend | None" = None
_WARNED_FALLBACK = False


def _numpy_missing() -> "str | None":
    """What the numpy backend lacks here, or ``None`` when numpy imports and
    the native library loads.  numpy is checked first, so an install
    without it never runs the compiler."""
    if _np is None:
        return "numpy is not installed"
    if not _native.library():
        return "the native library did not build or load (is there a C compiler?)"
    return None


def available_backends() -> List[str]:
    """Names of the backends usable in this environment."""
    return ["python"] if _numpy_missing() else ["python", "numpy"]


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
    return "numpy"


def get_backend(name: "str | None" = None) -> ArithmeticBackend:
    """Return the backend instance registered under ``name``.

    ``None`` resolves the default (``REPRO_BACKEND`` env var, then numpy).
    Where the numpy backend is not available (no numpy, or no native
    library), ``"numpy"`` resolves to the python backend with one warning
    naming what is missing, rather than failing.  That is the price of an
    install without a C compiler: the kernel-bound ``benchmarks/e2e``
    workloads run 100-210x fewer operations per second on the python
    backend, the wire-bound ``serve_wire_light`` 2.3x fewer (one round
    each, 2-vCPU x86 container).
    """
    global _WARNED_FALLBACK
    if name is None:
        name = _default_name()
    name = name.lower()
    if name == "numpy" and (missing := _numpy_missing()):
        if not _WARNED_FALLBACK:
            warnings.warn(
                f"the numpy backend is not available: {missing}; "
                f"falling back to the exact python backend",
                stacklevel=2,
            )
            _WARNED_FALLBACK = True
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
    that operates on plain :class:`~repro.fhe.rns.RNSPolynomial` values.
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
