"""Programmable Bootstrapping (PBS) — Algorithm 2 of the paper.

PBS refreshes the noise of an LWE ciphertext while applying an arbitrary
function (the *test vector*).  It is composed of exactly the stages the paper
lists, each of which becomes a kernel group in the hardware model:

1. **ModSwitch** — rescale the LWE ciphertext from modulus ``q`` to ``2N``;
2. **Blind Rotation** — ``n_lwe`` CMux iterations, each an External Product
   (``(k+1) * l_b`` NTTs + MACs + ``k+1`` iNTTs);
3. **SampleExtract** — extract the constant coefficient as an LWE ciphertext
   under the flattened GLWE key;
4. **TFHE KeySwitch** — switch back to the small LWE key using the
   key-switching key ``ksk``.

Blind rotation is array-resident: :func:`blind_rotate_wave` keeps the
accumulators of a whole wave of bootstraps (a wave of one for
:func:`blind_rotate`) in a single backend store for all ``n_lwe`` CMux
iterations and streams the evaluation-domain bootstrapping key past them,
the way the paper's TFHE mode keeps the accumulators on chip.  Every step is
exact integer arithmetic; the tests check the loop bit for bit against the
list-level :func:`~repro.fhe.tfhe.ggsw.cmux` reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from ..backend import ArithmeticBackend, active_backend, use_backend
from ..params import TFHEParameters
from ..polynomial import _ntt_context
from ..rns import RNSPolynomial
from .ggsw import GGSWCiphertext, GGSWContext, gadget_factors
from .glwe import GLWECiphertext, GLWEContext, GLWESecretKey
from .lwe import LWECiphertext, LWEContext, LWESecretKey

__all__ = [
    "BootstrappingKey",
    "KeySwitchingKey",
    "modulus_switch",
    "blind_rotate_wave",
    "blind_rotate",
    "sample_extract",
    "lwe_keyswitch",
    "signed_decompose",
    "TFHEContext",
]


# ---------------------------------------------------------------------------
# Key material
# ---------------------------------------------------------------------------

@dataclass
class BootstrappingKey:
    """``bsk[i]`` = GGSW encryption of the i-th LWE secret bit under the GLWE key."""

    ggsw_rows: List[GGSWCiphertext]
    # The whole key in evaluation representation, one store per backend
    # name (like ``KeySwitchKey``'s ``limbs_eval_key`` handles in CKKS).
    _eval_cache: Dict[str, object] = field(default_factory=dict, repr=False, compare=False)

    @property
    def lwe_dimension(self) -> int:
        return len(self.ggsw_rows)

    def eval_store(self, context, backend: ArithmeticBackend):
        """Forward NTT of every key row: one ``(n_lwe * R * (k+1), N)`` store.

        ``R = (k + 1) * l_b`` GLWE rows per GGSW, components innermost, so
        GGSW ``i`` is the row slice ``[i * R * (k+1), (i+1) * R * (k+1))``
        that :meth:`ArithmeticBackend.external_product_mac` contracts.
        Built by a single forward batch, once per backend.
        """
        store = self._eval_cache.get(backend.name)
        if store is None:
            rows = [
                row
                for ggsw in self.ggsw_rows
                for component_rows in ggsw.rows
                for glwe in component_rows
                for row in glwe.store()
            ]
            packed = backend.pack_limbs(rows, (context.modulus,) * len(rows))
            store = backend.ntt_forward_batch(context, packed)
            self._eval_cache[backend.name] = store
        return store


@dataclass
class KeySwitchingKey:
    """``ksk[i][j]`` = LWE encryption of ``s'_i * g_j`` under the small LWE key."""

    rows: List[List[LWECiphertext]]
    base: int
    levels: int
    modulus: int
    # Flattened (negated) key matrices as backend stores, per
    # ``(backend name, input row width)`` — see :meth:`flat_stores`.
    _flat_cache: Dict[tuple, list] = field(default_factory=dict, repr=False, compare=False)

    @property
    def input_dimension(self) -> int:
        return len(self.rows)

    def flat_stores(self, width: int, backend: ArithmeticBackend) -> list:
        """``-ksk`` flattened for input rows of ``width``, one store per component.

        Input component ``c`` covers key rows ``[c * width, (c + 1) * width)``;
        its matrix row ``j * width + i`` is ``-(rows[c * width + i][j].a +
        [b])`` — level-major to match
        :meth:`ArithmeticBackend.gadget_decompose_rows` output order, the
        body riding along as the final column, negated once here so the
        keyswitch sum needs no per-call negation.  Built once per backend:
        every wave under one key reuses the same stores.
        """
        key = (backend.name, width)
        stores = self._flat_cache.get(key)
        if stores is None:
            q = self.modulus
            stores = []
            for start in range(0, self.input_dimension, width):
                rows = [
                    [(q - v) % q for v in self.rows[start + i][j].a]
                    + [(q - self.rows[start + i][j].b) % q]
                    for j in range(self.levels)
                    for i in range(width)
                ]
                stores.append(backend.pack_limbs(rows, (q,) * len(rows)))
            self._flat_cache[key] = stores
        return stores


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def modulus_switch(ciphertext: LWECiphertext, new_modulus: int) -> LWECiphertext:
    """Rescale an LWE ciphertext to a (much smaller) modulus, rounding."""
    q = ciphertext.modulus
    def switch(value: int) -> int:
        return ((value * new_modulus + q // 2) // q) % new_modulus
    return LWECiphertext(
        a=[switch(x) for x in ciphertext.a], b=switch(ciphertext.b), modulus=new_modulus
    )


def blind_rotate_wave(
    test_vectors: Sequence[GLWECiphertext],
    switched: Sequence[LWECiphertext],
    bootstrapping_key: BootstrappingKey,
):
    """Blind-rotate a wave of test vectors, resident in one backend store.

    ``switched[m]`` (already modulus-switched to ``2N``) rotates
    ``test_vectors[m]``.  Returns the ``(M * (k + 1), N)`` accumulator store,
    member-major: rows ``[m * (k+1), (m+1) * (k+1))`` are the GLWE
    components of ``X^{-phase_m} * tv_m``.

    The store is created once from the test vectors and never leaves the
    backend: three dispatches once the key is transformed (pack, the initial
    rotation by ``-b``, the loop).  The whole CMux loop, ``n_lwe`` steps
    ``acc += bsk_i ⊡ (X^{a_i} * acc - acc)`` against the evaluation-domain
    key, is one :meth:`~repro.fhe.backend.ArithmeticBackend.blind_rotate_rows`
    (on the numpy backend one pass of the native ``cmux32`` for every
    modulus below 2^32).  A member whose ``a_i`` is zero rotates by
    ``X^0``: its difference rows are zero and so is its external product,
    so the step leaves it unchanged bit for bit, exactly as if it had been
    skipped.

    The kernel returns a fresh store and only reads the key, which
    :meth:`BootstrappingKey.eval_store` caches for good; no work buffer is
    kept on the backend, a table or a module.
    """
    first = test_vectors[0]
    n, q, group = first.ring_degree, first.modulus, first.glwe_dimension + 1
    for lwe in switched:
        if lwe.dimension != bootstrapping_key.lwe_dimension or lwe.modulus != 2 * n:
            raise ValueError(
                f"blind rotation expects LWE ciphertexts of dimension "
                f"{bootstrapping_key.lwe_dimension} modulus-switched to 2N = "
                f"{2 * n}, got dimension {lwe.dimension} and modulus {lwe.modulus}"
            )
    backend = active_backend()
    context = _ntt_context(n, q)
    ggsw = bootstrapping_key.ggsw_rows[0]
    key = bootstrapping_key.eval_store(context, backend)
    accumulator = backend.pack_limbs(
        [row for tv in test_vectors for row in tv.store()],
        (q,) * (len(switched) * group),
    )
    accumulator = backend.rows_monomial_multiply(
        accumulator, q, [-lwe.b for lwe in switched], group
    )
    return backend.blind_rotate_rows(
        context, accumulator,
        [[lwe.a[i] for lwe in switched] for i in range(bootstrapping_key.lwe_dimension)],
        key, gadget_factors(q, ggsw.base, ggsw.levels), group,
    )


def blind_rotate(
    test_vector: GLWECiphertext,
    switched: LWECiphertext,
    bootstrapping_key: BootstrappingKey,
) -> GLWECiphertext:
    """Rotate the test vector by the (encrypted) phase of ``switched``.

    ``switched`` must already be modulus-switched to ``2N``.  The result is a
    GLWE ciphertext whose plaintext is ``X^{-phase} * tv`` — the wave-of-one
    case of :func:`blind_rotate_wave`, its store adopted as the ciphertext.
    """
    return GLWECiphertext(
        test_vector.ring_degree, test_vector.basis,
        blind_rotate_wave([test_vector], [switched], bootstrapping_key),
    )


def sample_extract(glwe: GLWECiphertext, index: int = 0) -> LWECiphertext:
    """Extract coefficient ``index`` of a GLWE ciphertext as an LWE ciphertext.

    The output is an LWE ciphertext of dimension ``k * N`` under the GLWE
    secret key flattened coefficient-wise.
    """
    n = glwe.ring_degree
    q = glwe.modulus
    if not 0 <= index < n:
        raise ValueError(f"index {index} out of range [0, {n})")
    *mask, body = glwe.coefficient_rows()
    a: List[int] = []
    for coeffs in mask:
        for j in range(n):
            if j <= index:
                a.append(coeffs[index - j])
            else:
                a.append((-coeffs[index - j + n]) % q)
    return LWECiphertext(a=a, b=body[index], modulus=q)


def signed_decompose(value: int, base: int, levels: int, modulus: int) -> List[int]:
    """Signed base-``base`` decomposition of a scalar (most significant first).

    Returns digits ``d_0..d_{levels-1}`` with ``|d_j|`` about ``base/2`` such
    that ``sum_j d_j * (modulus // base^(j+1))`` approximates ``value`` modulo
    ``modulus`` (the scalar case of
    :meth:`~repro.fhe.backend.ArithmeticBackend.gadget_decompose_rows`).
    """
    factors = gadget_factors(modulus, base, levels)
    residual = value % modulus
    if residual > modulus // 2:
        residual -= modulus
    digits: List[int] = []
    for factor in factors:
        if factor == 0:
            digits.append(0)
            continue
        digit = (2 * residual + factor) // (2 * factor)
        residual -= digit * factor
        digits.append(digit)
    return digits


def lwe_keyswitch(ciphertext: LWECiphertext, ksk: KeySwitchingKey,
                  output_dimension: int) -> LWECiphertext:
    """Switch an LWE ciphertext to the key encrypted inside ``ksk``.

    Implements line 17 of Algorithm 2:
    ``c'' = (0, ..., 0, b') - sum_i sum_j Decomp(a'_i)_j * ksk[i][j]``.
    The mask accumulation runs as one ``mat_mulmod`` backend dispatch (a
    single weight vector against all contributing ksk rows) instead of
    ``k*N*l_k`` per-row vector updates.
    """
    q = ciphertext.modulus
    rows: List[List[int]] = []
    weights: List[int] = []
    b_acc = ciphertext.b % q
    for i, a_i in enumerate(ciphertext.a):
        if a_i == 0:
            continue
        digits = signed_decompose(a_i, ksk.base, ksk.levels, q)
        for j, digit in enumerate(digits):
            if digit == 0:
                continue
            row = ksk.rows[i][j]
            rows.append(row.a)
            weights.append((-digit) % q)
            b_acc = (b_acc - digit * row.b) % q
    if not rows:
        return LWECiphertext(a=[0] * output_dimension, b=b_acc, modulus=q)
    a = active_backend().mat_mulmod([weights], rows, q)[0]
    return LWECiphertext(a=a, b=b_acc, modulus=q)


# ---------------------------------------------------------------------------
# Full TFHE context
# ---------------------------------------------------------------------------

class TFHEContext:
    """A complete TFHE instance: LWE + GLWE keys, bsk, ksk, and PBS.

    ``backend`` pins the arithmetic backend for every ring operation rooted
    at this context — key generation and the full PBS pipeline — so an
    end-to-end bootstrap runs entirely on the chosen implementation.
    """

    def __init__(self, params: TFHEParameters, seed: int = 0,
                 backend: "ArithmeticBackend | str | None" = None):
        self.params = params
        self.backend = backend
        self.rng = random.Random(seed ^ 0x7F4E)
        self.lwe = LWEContext(params, seed=seed)
        self.glwe = GLWEContext(params, seed=seed, backend=backend)
        self.ggsw = GGSWContext(params, self.glwe)
        with use_backend(backend):
            self.bootstrapping_key = self._make_bootstrapping_key()
            self.keyswitching_key = self._make_keyswitching_key()

    # -- key generation ------------------------------------------------------
    def _make_bootstrapping_key(self) -> BootstrappingKey:
        rows = [
            self.ggsw.encrypt_scalar(bit)
            for bit in self.lwe.secret.coefficients
        ]
        return BootstrappingKey(ggsw_rows=rows)

    def _make_keyswitching_key(self) -> KeySwitchingKey:
        params = self.params
        q = params.modulus
        base = params.ksk_base
        levels = params.ksk_levels
        factors = gadget_factors(q, base, levels)
        flattened = self.glwe.secret.flattened_lwe_coefficients()
        rows = []
        for coeff in flattened:
            row = [
                self.lwe.encrypt_raw((coeff * factor) % q)
                for factor in factors
            ]
            rows.append(row)
        return KeySwitchingKey(rows=rows, base=base, levels=levels, modulus=q)

    # -- test vectors -----------------------------------------------------------
    def make_test_vector(self, function: Callable[[int], int]) -> GLWECiphertext:
        """Trivial GLWE encryption of the lookup table for ``function``.

        ``function`` maps a message in ``[0, t)`` to a message in ``[0, t)``.
        Only messages in the lower half ``[0, t/2)`` evaluate correctly (the
        standard padding-bit restriction), unless the function satisfies the
        negacyclic condition ``f(m + t/2) = -f(m)``.
        """
        params = self.params
        n = params.polynomial_size
        t = params.plaintext_modulus
        coefficients = []
        for j in range(n):
            message = round(j * t / (2 * n)) % t
            coefficients.append(self.lwe.encode(function(message)))
        table = RNSPolynomial.from_integer_coefficients(
            n, self.glwe.basis, coefficients)
        return GLWECiphertext.trivial(table, params.glwe_dimension)

    def identity_test_vector(self) -> GLWECiphertext:
        """Test vector for the identity function (plain noise refresh)."""
        return self.make_test_vector(lambda m: m)

    # -- the PBS pipeline ----------------------------------------------------------
    def programmable_bootstrap(
        self, ciphertext: LWECiphertext, test_vector: GLWECiphertext | None = None
    ) -> LWECiphertext:
        """Full PBS (Algorithm 2): ModSwitch, blind rotation, extract, keyswitch."""
        params = self.params
        with use_backend(self.backend):
            test_vector = test_vector if test_vector is not None else self.identity_test_vector()
            switched = modulus_switch(ciphertext, 2 * params.polynomial_size)
            accumulator = blind_rotate(test_vector, switched, self.bootstrapping_key)
            extracted = sample_extract(accumulator, 0)
            return lwe_keyswitch(extracted, self.keyswitching_key, params.lwe_dimension)

    def bootstrap_function(self, ciphertext: LWECiphertext,
                           function: Callable[[int], int]) -> LWECiphertext:
        """PBS that homomorphically applies ``function`` to the message."""
        return self.programmable_bootstrap(ciphertext, self.make_test_vector(function))

    # -- convenience ----------------------------------------------------------------
    def encrypt(self, message: int) -> LWECiphertext:
        """Encrypt a message in ``[0, plaintext_modulus)`` under the LWE key."""
        return self.lwe.encrypt(message)

    def decrypt(self, ciphertext: LWECiphertext) -> int:
        """Decrypt an LWE ciphertext under whichever key matches its dimension."""
        if ciphertext.dimension == self.params.lwe_dimension:
            return self.lwe.decrypt(ciphertext)
        if ciphertext.dimension == self.params.glwe_lwe_dimension:
            extracted_key = LWESecretKey(
                tuple(self.glwe.secret.flattened_lwe_coefficients())
            )
            return self.lwe.decrypt(ciphertext, secret=extracted_key)
        raise ValueError(f"unexpected LWE dimension {ciphertext.dimension}")

    def phase(self, ciphertext: LWECiphertext) -> int:
        """Centred phase of an LWE ciphertext under the matching key."""
        if ciphertext.dimension == self.params.lwe_dimension:
            return self.lwe.phase(ciphertext)
        extracted_key = LWESecretKey(tuple(self.glwe.secret.flattened_lwe_coefficients()))
        return self.lwe.phase(ciphertext, secret=extracted_key)
