"""Key generation for RNS-CKKS: secret, public, relinearization and Galois keys.

The evaluation keys follow the *hybrid* (dnum) keyswitch construction used by
the paper (Algorithm 1): the modulus chain at level ``l`` is partitioned into
``beta = ceil((l+1)/alpha)`` digits of ``alpha`` moduli each, and the key for
digit ``j`` encrypts ``P * Q_hat_j * (Q_hat_j^{-1} mod Q_j) * s'`` under the
extended modulus ``Q_l * P``.

Because the digit structure depends on the ciphertext level, evaluation keys
are generated lazily per ``(kind, level)`` and cached on the key set.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..modmath import mod_inverse
from ..params import CKKSParameters
from ..polynomial import sample_ternary
from ..rns import RNSBasis, RNSPolynomial

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


def sample_error(ring_degree: int, basis: RNSBasis, rng: random.Random,
                 stddev: float) -> RNSPolynomial:
    """Rounded-gaussian error polynomial over ``basis`` (zero when ``stddev <= 0``).

    The gauss draw stays a scalar ``rng.gauss`` loop on every backend: a
    vectorized ``log``/``cos``/``sin`` is not guaranteed bit-equal to
    ``math.*``, and keys must not depend on the backend.  Only the residue
    reduction is a backend dispatch.
    """
    if stddev > 0:
        coefficients = [round(rng.gauss(0.0, stddev)) for _ in range(ring_degree)]
    else:
        coefficients = [0] * ring_degree
    return RNSPolynomial.from_integer_coefficients(ring_degree, basis, coefficients)


@dataclass
class CKKSSecretKey:
    """The ternary secret ``s``, stored as centred integer coefficients."""

    coefficients: Tuple[int, ...]

    def as_rns(self, ring_degree: int, basis: RNSBasis) -> RNSPolynomial:
        """The secret reduced into an arbitrary RNS basis."""
        return RNSPolynomial.from_integer_coefficients(ring_degree, basis, self.coefficients)

    def squared_coefficients(self, ring_degree: int) -> Tuple[int, ...]:
        """Integer coefficients of ``s^2`` in Z[X]/(X^N+1) (for relin keys)."""
        n = ring_degree
        result = [0] * n
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(self.coefficients):
                if b == 0:
                    continue
                k = i + j
                if k >= n:
                    result[k - n] -= a * b
                else:
                    result[k] += a * b
        return tuple(result)

    def automorphism_coefficients(self, ring_degree: int, galois_element: int) -> Tuple[int, ...]:
        """Integer coefficients of ``sigma_g(s)`` where ``sigma_g: X -> X^g``."""
        n = ring_degree
        g = galois_element % (2 * n)
        result = [0] * n
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            k = (i * g) % (2 * n)
            sign = 1
            if k >= n:
                k -= n
                sign = -1
            result[k] += sign * c
        return tuple(result)


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
    # first use and reused by every keyswitch (keyed by backend name).  The
    # transforms are exact, so caching cannot change results.
    _eval_cache: Dict[str, list] = field(default_factory=dict, repr=False, compare=False)

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
            if self._generator is None:
                raise KeyError(f"no Galois key for element {galois_element} at level {level}")
            self._galois_keys[key] = self._generator.make_galois_key(self, galois_element, level)
        return self._galois_keys[key]

    def ensure_rotation_keys(
        self, steps: Sequence[int], level: int
    ) -> Dict[int, KeySwitchKey]:
        """Pre-generate the Galois keys for a set of rotation steps.

        A BSGS linear transform needs only its baby steps ``1..n1-1`` and
        giant steps ``n1, 2*n1, ...`` — this is the key-set helper that
        materializes exactly those (identity steps are skipped), keyed by
        step.  Keys are cached on the key set, so calling it again (or
        rotating later) is free.
        """
        keys: Dict[int, KeySwitchKey] = {}
        for step in steps:
            element = galois_element_for_rotation(self.params.ring_degree, step)
            if element == 1:
                continue
            keys[step] = self.galois_key(element, level)
        return keys

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

        The element-shaped sibling of :meth:`ensure_rotation_keys`: it
        accepts exactly what :meth:`~repro.fhe.program.PlannedProgram.
        required_galois_elements` reports for a planned program — rotations
        *and* conjugations, per level, after dead-code elimination — so a
        program's key material is provisioned from its plan and nothing
        more.  Identity elements are skipped; keys cache on the key set.
        """
        keys: Dict[Tuple[int, int], KeySwitchKey] = {}
        for element, level in elements:
            if element == 1:
                continue
            keys[(element, level)] = self.galois_key(element, level)
        return keys


class CKKSKeyGenerator:
    """Generates CKKS key material for a parameter set (deterministic per seed)."""

    def __init__(self, params: CKKSParameters, seed: int = 0, error_stddev: float = 3.2,
                 secret_hamming_weight: int | None = None):
        self.params = params
        self.rng = random.Random(seed)
        self.error_stddev = error_stddev
        self.secret_hamming_weight = secret_hamming_weight

    # -- top-level key generation ------------------------------------------
    def generate(self) -> CKKSKeySet:
        """Generate a fresh secret/public key pair (evaluation keys are lazy)."""
        params = self.params
        secret_poly = sample_ternary(
            params.ring_degree, 3, self.rng, hamming_weight=self.secret_hamming_weight
        )
        secret = CKKSSecretKey(tuple(secret_poly.centered_coefficients()))
        public = self._make_public_key(secret)
        key_set = CKKSKeySet(params=params, secret=secret, public=public, _generator=self)
        return key_set

    def _make_public_key(self, secret: CKKSSecretKey) -> CKKSPublicKey:
        params = self.params
        basis = params.basis()
        n = params.ring_degree
        s = secret.as_rns(n, basis)
        a = RNSPolynomial.sample_uniform(n, basis, self.rng)
        error = sample_error(n, basis, self.rng, self.error_stddev)
        b = -(a * s) + error
        return CKKSPublicKey(b=b, a=a)

    # -- hybrid keyswitch keys -----------------------------------------------
    def make_keyswitch_key(self, key_set: CKKSKeySet,
                           target_coefficients: Sequence[int], level: int) -> KeySwitchKey:
        """Key that switches ``d * s_target`` into a ciphertext under ``s``.

        ``target_coefficients`` are the centred integer coefficients of the
        source secret ``s'`` (``s^2`` for relinearization, ``sigma_g(s)`` for
        rotation keys).
        """
        params = self.params
        n = params.ring_degree
        moduli = list(params.moduli[: level + 1])
        extended = params.extended_basis(level)
        q_level = math.prod(moduli)
        p_product = math.prod(params.special_moduli)
        # Reduced / transformed once per key; every digit reuses them.
        secret_eval = key_set.secret.as_rns(n, extended).to_eval()
        target = RNSPolynomial.from_integer_coefficients(n, extended, target_coefficients)
        digit_keys: List[Tuple[RNSPolynomial, RNSPolynomial]] = []
        for start, stop in params.digit_slices(level):
            digit_moduli = moduli[start:stop]
            q_digit = math.prod(digit_moduli)
            q_hat = q_level // q_digit
            factor = (p_product * q_hat * mod_inverse(q_hat % q_digit, q_digit)) % (
                q_level * p_product
            )
            a = RNSPolynomial.sample_uniform(n, extended, self.rng)
            error = sample_error(n, extended, self.rng, self.error_stddev)
            b = -(a.to_eval() * secret_eval).to_coeff() + error + target * factor
            digit_keys.append((b, a))
        return KeySwitchKey(level=level, digit_keys=digit_keys)

    def make_relinearization_key(self, key_set: CKKSKeySet, level: int) -> KeySwitchKey:
        """Keyswitch key for ``s^2 -> s`` at ``level``."""
        squared = key_set.secret.squared_coefficients(self.params.ring_degree)
        return self.make_keyswitch_key(key_set, squared, level)

    def make_galois_key(self, key_set: CKKSKeySet, galois_element: int, level: int) -> KeySwitchKey:
        """Keyswitch key for ``sigma_g(s) -> s`` at ``level``."""
        rotated = key_set.secret.automorphism_coefficients(
            self.params.ring_degree, galois_element
        )
        return self.make_keyswitch_key(key_set, rotated, level)
