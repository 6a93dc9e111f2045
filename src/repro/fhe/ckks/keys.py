"""Key generation for RNS-CKKS: secret, public, relinearization and Galois keys.

The evaluation keys follow the *hybrid* (dnum) keyswitch construction used by
the paper (Algorithm 1): the modulus chain at level ``l`` is partitioned into
``beta = ceil((l+1)/alpha)`` digits of ``alpha`` moduli each, and the key for
digit ``j`` encrypts ``f_j * s'`` with ``f_j = P * Q_hat_j * (Q_hat_j^{-1} mod
Q_j)`` under the extended modulus ``Q_l * P``.

Because the digit structure depends on the ciphertext level, evaluation keys
are generated lazily per ``(kind, level)`` and cached on the key set.

Keys are made a group at a time, in the evaluation domain
--------------------------------------------------------
There is one generation body, :meth:`CKKSKeyGenerator._make_keyswitch_keys`,
and a single key is its batch of one.  Per call (one level) it transforms the
secret once and scales it by each digit factor once; then, for each *group* of
keys, it draws ``(a_j, e_j)`` for every key and digit, forward-transforms all
the group's masks in one ``stacked_ntt``, forms ``f_j * t_eval - a_eval_j *
s_eval`` pointwise, inverse-transforms all of them in one ``stacked_intt`` and
adds the errors: ``b_j = INTT(f_j * t_eval - a_eval_j * s_eval) + e_j``.  The
source secret never exists as coefficients: ``f_j * t_eval`` is the sign-free
evaluation-domain gather ``(f_j * s_eval).automorphism(g)`` for a Galois key
and ``(f_j * s_eval) * s_eval`` for relinearization.

Order contract: only the draws touch the generator's ``rng``, one
``sample_limbs`` batch per group, and within it they run key by key, digit by
digit, mask then error — exactly the order of making the keys one at a time.
One batch per group is what makes the draws cheap: the numpy backend hands the
generator's state to its native Mersenne Twister and back once per batch, not
once per draw.  :meth:`CKKSKeySet.ensure_galois_keys` batches only runs of
consecutive missing keys at one level and never reorders a request, so key
material does not depend on how keys were grouped (nor on the backend:
``tests/test_backend_parity.py::TestKeyMaterialPinned``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..backend import ArithmeticBackend, active_backend, use_backend
from ..modmath import mod_inverse
from ..params import CKKSParameters
from ..polynomial import sample_ternary
from ..rns import RNSBasis, RNSPolynomial, _limb_contexts, sample_batch, sample_error

__all__ = [
    "CKKSSecretKey",
    "CKKSPublicKey",
    "KeySwitchKey",
    "CKKSKeySet",
    "CKKSKeyGenerator",
    "sample_error",
    "galois_element_for_rotation",
    "galois_element_for_conjugation",
]


def galois_element_for_rotation(ring_degree: int, steps: int) -> int:
    """The Galois element ``5^steps mod 2N`` implementing a slot rotation
    by ``steps`` positions (negative steps via the modular inverse)."""
    return pow(5, steps, 2 * ring_degree)


def galois_element_for_conjugation(ring_degree: int) -> int:
    """The Galois element ``2N - 1`` (i.e. ``X -> X^-1``) implementing
    slot-wise complex conjugation."""
    return 2 * ring_degree - 1


#: Residues one stacked transform of evaluation-key generation may carry; a
#: group is as many whole keys (``digits * limbs * N`` residues each) as fit,
#: at least one, and its draws are one ``sample_limbs`` batch.  What a group
#: holds in flight is resident memory.  Sized on ``client_keygen_encrypt``
#: (10 Galois keys of 3 x 12 x 1024 residues per op) with the batch sampler,
#: medians of eight 15 s runs (three for 4 and 10 keys), 2-vCPU x86,
#: ``ops_per_s`` / ``peak_rss_mb`` by keys per group: 1 -> 41.2 / 68.7, 2 ->
#: 41.1 / 69.2, 4 -> 40.2 / 71.4, 7 (this budget) -> 40.3 / 72.0, 10 ->
#: 38.9 / 72.7.  Once the draws cost one state handoff per batch, a bigger
#: stack buys no speed there (at per-draw sampling, 7 keys ran 16% faster
#: than 1) and costs ≈ 0.5 MB per key in flight.  The budget stays: with
#: one key per group (2^16), ``lib_ckks_inference`` read 48.1 ops/s against
#: 49.9 at this budget (four alternating 10 s runs), because its set-up then
#: frees no block as large as its loop's temporaries, so glibc's malloc
#: keeps mapping and unmapping them: 574 minor faults per op against 1.
GROUP_RESIDUES = 1 << 18


@dataclass
class CKKSSecretKey:
    """The ternary secret ``s``, stored as centred integer coefficients."""

    coefficients: Tuple[int, ...]
    # Evaluation-domain images of the secret, built on first use and reused
    # by every decryption (keyed by backend name and basis).  The transforms
    # are exact, so caching cannot change results.
    _eval_cache: Dict[tuple, RNSPolynomial] = field(
        default_factory=dict, repr=False, compare=False)

    def as_rns(self, ring_degree: int, basis: RNSBasis) -> RNSPolynomial:
        """The secret reduced into an arbitrary RNS basis."""
        return RNSPolynomial.from_integer_coefficients(ring_degree, basis, self.coefficients)

    def as_eval(self, ring_degree: int, basis: RNSBasis) -> RNSPolynomial:
        """:meth:`as_rns` in the evaluation domain (cached)."""
        key = (active_backend().name, ring_degree, basis)
        image = self._eval_cache.get(key)
        if image is None:
            image = self._eval_cache[key] = self.as_rns(ring_degree, basis).to_eval()
        return image


@dataclass
class CKKSPublicKey:
    """Encryption key ``(b, a)`` with ``b = -a*s + e`` over the full basis."""

    b: RNSPolynomial
    a: RNSPolynomial


@dataclass
class KeySwitchKey:
    """Hybrid keyswitch key: one ``(b_j, a_j)`` pair per digit, over C_l ∪ P."""

    level: int
    digit_keys: List[Tuple[RNSPolynomial, RNSPolynomial]]
    # Backend-prepared evaluation-domain images of the digit keys, built on
    # first use and reused by every keyswitch (keyed by backend name and tile
    # count).  The transforms are exact, so caching cannot change results.
    _eval_cache: Dict[tuple, list] = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_digits(self) -> int:
        return len(self.digit_keys)


@dataclass
class CKKSKeySet:
    """All key material for one party: secret, public, relin and Galois keys."""

    params: CKKSParameters
    secret: CKKSSecretKey
    public: CKKSPublicKey
    _relin_keys: Dict[int, KeySwitchKey] = field(default_factory=dict)
    _galois_keys: Dict[Tuple[int, int], KeySwitchKey] = field(default_factory=dict)
    _generator: "CKKSKeyGenerator | None" = None

    def relinearization_key(self, level: int) -> KeySwitchKey:
        """Keyswitch key from ``s^2`` to ``s`` at the given level (cached)."""
        if level not in self._relin_keys:
            if self._generator is None:
                raise KeyError(f"no relinearization key for level {level}")
            self._relin_keys[level] = self._generator.make_relinearization_key(self, level)
        return self._relin_keys[level]

    def galois_key(self, galois_element: int, level: int) -> KeySwitchKey:
        """Keyswitch key from ``sigma_g(s)`` to ``s`` at the given level (cached)."""
        key = (galois_element, level)
        if key not in self._galois_keys:
            self._generate_galois_keys([galois_element], level)
        return self._galois_keys[key]

    def _generate_galois_keys(self, galois_elements: List[int], level: int) -> None:
        """Make and cache the (missing, distinct) keys of one level as one batch."""
        if self._generator is None:
            raise KeyError(
                f"no Galois key for element {galois_elements[0]} at level {level}")
        made = self._generator.make_galois_keys(self, galois_elements, level)
        for element, key in zip(galois_elements, made):
            self._galois_keys[(element, level)] = key

    def ensure_rotation_keys(
        self, steps: Sequence[int], level: int
    ) -> Dict[int, KeySwitchKey]:
        """Pre-generate the Galois keys for a set of rotation steps.

        A BSGS linear transform needs only its baby steps ``1..n1-1`` and
        giant steps ``n1, 2*n1, ...`` — this is the key-set helper that
        materializes exactly those (identity steps are skipped), keyed by
        step.  Keys are cached on the key set, so calling it again (or
        rotating later) is free.  The step-shaped face of
        :meth:`ensure_galois_keys`.
        """
        elements = {
            step: galois_element_for_rotation(self.params.ring_degree, step)
            for step in steps
        }
        keys = self.ensure_galois_keys([(g, level) for g in elements.values()])
        return {step: keys[(g, level)] for step, g in elements.items() if g != 1}

    def has_relin_key(self, level: int) -> bool:
        """Whether :meth:`relinearization_key` would succeed (cached key or
        a live generator that can make one)."""
        return level in self._relin_keys or self._generator is not None

    def has_galois_key(self, galois_element: int, level: int) -> bool:
        """Whether :meth:`galois_key` would succeed.  Identity elements need
        no key."""
        if galois_element == 1:
            return True
        return (galois_element, level) in self._galois_keys or self._generator is not None

    def frozen(self) -> "CKKSKeySet":
        """A generator-less copy holding only the currently cached evaluation
        keys.

        Requests for anything not already materialized raise ``KeyError``
        instead of silently minting new key material — the provisioning model
        of a serving tenant, whose evaluation keys are uploaded once.  The
        copy shares the underlying key objects but not the cache dicts, so
        later generation on ``self`` does not grow the frozen view.
        """
        return CKKSKeySet(
            params=self.params,
            secret=self.secret,
            public=self.public,
            _relin_keys=dict(self._relin_keys),
            _galois_keys=dict(self._galois_keys),
        )

    def ensure_galois_keys(
        self, elements: Sequence[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], KeySwitchKey]:
        """Pre-generate Galois keys for ``(galois_element, level)`` pairs.

        It accepts exactly what :meth:`~repro.fhe.program.PlannedProgram.
        required_galois_elements` reports for a planned program — rotations
        *and* conjugations, per level, after dead-code elimination — so a
        program's key material is provisioned from its plan and nothing
        more.  Identity elements are skipped; keys cache on the key set.

        Missing keys are generated in request order, each run of consecutive
        ones at one level as one batch (cached keys and repeats consume no
        randomness, so they do not end a run): the generator's ``rng`` is
        consumed exactly as by one :meth:`galois_key` call per pair.
        """
        wanted = [key for key in elements if key[0] != 1]
        run: List[int] = []             # missing elements, all at ``run_level``
        run_level = None
        for element, level in wanted:
            if (element, level) in self._galois_keys:
                continue
            if run and level != run_level:
                self._generate_galois_keys(run, run_level)
                run = []
            if element not in run:
                run.append(element)
                run_level = level
        if run:
            self._generate_galois_keys(run, run_level)
        return {key: self._galois_keys[key] for key in wanted}


class CKKSKeyGenerator:
    """Generates CKKS key material for a parameter set (deterministic per seed).

    ``backend`` is the arithmetic backend every key is generated under —
    the lazily made evaluation keys included, whenever they are asked for;
    ``None`` means whichever backend is active at that moment.
    """

    def __init__(self, params: CKKSParameters, seed: int = 0, error_stddev: float = 3.2,
                 secret_hamming_weight: int | None = None,
                 backend: "ArithmeticBackend | str | None" = None):
        self.params = params
        self.rng = random.Random(seed)
        self.error_stddev = error_stddev
        self.secret_hamming_weight = secret_hamming_weight
        self.backend = backend

    # -- top-level key generation ------------------------------------------
    def generate(self) -> CKKSKeySet:
        """Generate a fresh secret/public key pair (evaluation keys are lazy)."""
        params = self.params
        secret = CKKSSecretKey(tuple(sample_ternary(
            params.ring_degree, self.rng, hamming_weight=self.secret_hamming_weight
        )))
        with use_backend(self.backend):
            public = self._make_public_key(secret)
        return CKKSKeySet(params=params, secret=secret, public=public, _generator=self)

    def _make_public_key(self, secret: CKKSSecretKey) -> CKKSPublicKey:
        params = self.params
        basis = params.basis()
        n = params.ring_degree
        s = secret.as_rns(n, basis)
        a, error = sample_batch(
            n, self.rng, [(basis, None), (basis, self.error_stddev)])
        b = -(a * s) + error
        return CKKSPublicKey(b=b, a=a)

    # -- hybrid keyswitch keys -----------------------------------------------
    def make_relinearization_key(self, key_set: CKKSKeySet, level: int) -> KeySwitchKey:
        """Keyswitch key for ``s^2 -> s`` at ``level``."""
        return self._make_keyswitch_keys(key_set, [None], level)[0]

    def make_galois_keys(self, key_set: CKKSKeySet, galois_elements: Sequence[int],
                         level: int) -> List[KeySwitchKey]:
        """Keyswitch keys for ``sigma_g(s) -> s`` at ``level``, one per element."""
        return self._make_keyswitch_keys(key_set, list(galois_elements), level)

    def _make_keyswitch_keys(self, key_set: CKKSKeySet, sources: "List[int | None]",
                             level: int) -> List[KeySwitchKey]:
        """One key per source secret, each switching ``d * s'`` into a
        ciphertext under ``s`` at ``level``.

        A source is a Galois element ``g`` (``s' = sigma_g(s)``) or ``None``
        (``s' = s^2``).  See the module docstring for the group flow and the
        order in which ``rng`` is consumed.
        """
        params = self.params
        n = params.ring_degree
        extended = params.extended_basis(level)
        moduli = tuple(extended.moduli)
        q_level = math.prod(params.moduli[: level + 1])
        p_product = math.prod(params.special_moduli)
        factors = []
        for start, stop in params.digit_slices(level):
            q_digit = math.prod(params.moduli[start:stop])
            q_hat = q_level // q_digit
            factors.append(p_product * q_hat * mod_inverse(q_hat % q_digit, q_digit))
        digits = len(factors)
        group = max(1, GROUP_RESIDUES // (digits * len(moduli) * n))
        keys: List[KeySwitchKey] = []
        with use_backend(self.backend) as backend:
            secret_eval = key_set.secret.as_rns(n, extended).to_eval()
            # f_j * s once per call; a key's f_j * s' is a gather (or one
            # product) away, because both commute with the scalar.
            scaled = [secret_eval * factor for factor in factors]
            contexts = _limb_contexts(n, extended)
            for first in range(0, len(sources), group):
                members = sources[first:first + group]
                # The only statement that touches ``rng``: one batch per group.
                drawn = sample_batch(n, self.rng, [
                    (extended, stddev) for _ in range(len(members) * digits)
                    for stddev in (None, self.error_stddev)
                ])
                masks, errors = drawn[0::2], drawn[1::2]
                targets = (
                    multiple * secret_eval if source is None
                    else multiple.automorphism(source)
                    for source in members for multiple in scaled
                )
                # The masks' evaluation images live only inside this
                # comprehension — gone before the inverse allocates: what a
                # group holds in flight is what this path adds to peak memory.
                bodies = [
                    backend.limbs_sub(
                        target.store(),
                        backend.limbs_mul(mask_eval, secret_eval.store(), moduli),
                        moduli,
                    )
                    for target, mask_eval in zip(targets, backend.stacked_ntt(
                        contexts, [mask.store() for mask in masks]))
                ]
                bodies = backend.stacked_intt(contexts, bodies)
                pairs = [
                    (RNSPolynomial._from_store(n, extended, body) + error, mask)
                    for body, error, mask in zip(bodies, errors, masks)
                ]
                keys += [
                    KeySwitchKey(level=level, digit_keys=pairs[k:k + digits])
                    for k in range(0, len(pairs), digits)
                ]
        return keys
