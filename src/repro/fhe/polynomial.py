"""Ring elements of Z_q[X]/(X^N + 1).

:class:`Polynomial` is the workhorse value type of the functional FHE layer.
It stores coefficients as a plain Python list of ints reduced modulo ``q``
and supports the operations the schemes need:

* addition, subtraction, negation, scalar and polynomial multiplication
  (negacyclic, via the :class:`~repro.fhe.ntt.NTTContext` of the modulus:
  a product over a modulus that is not NTT-friendly for ``N`` raises
  ``ValueError``),
* monomial multiplication ``P(X) * X^r`` (used by TFHE rotations),
* automorphism ``X -> X^k`` (used by CKKS HRotate and the field trace),
* gadget/base decomposition (used by hybrid keyswitch and GGSW products),
* modulus switching and rounding helpers.

Instances are immutable by convention: every operation returns a fresh
polynomial and never mutates its inputs.

The bulk arithmetic (add/sub/neg, scalar and NTT multiplication) executes on
the active arithmetic backend (:mod:`repro.fhe.backend`): exact pure Python
by default, vectorized numpy when selected.  All backends are bit-exact, so
``Polynomial`` semantics never depend on the backend choice.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple

from .backend import GatherSpec, PermSpec, _bit_reverse_indices, active_backend
from .modmath import centered
from .ntt import NTTContext

__all__ = [
    "Polynomial",
    "monomial_spec",
    "automorphism_spec",
    "galois_eval_spec",
    "sample_uniform",
    "sample_ternary",
    "sample_gaussian",
]

# NTT contexts are cached per (N, q): building twiddle tables is the expensive
# part and both CKKS limbs and TFHE rings reuse the same few moduli heavily.
_NTT_CACHE: Dict[Tuple[int, int], NTTContext] = {}


def _ntt_context(ring_degree: int, modulus: int) -> NTTContext:
    """The cached NTT context of ``(N, q)``; ``NTTContext`` raises
    ``ValueError`` when ``q`` is not NTT-friendly for ``N``."""
    key = (ring_degree, modulus)
    if key not in _NTT_CACHE:
        _NTT_CACHE[key] = NTTContext(ring_degree, modulus)
    return _NTT_CACHE[key]


# Blind rotation draws monomial degrees from the full [0, 2N) range, so the
# cache must hold at least 2N distinct specs for the largest functional ring
# (N = 2048) or the hottest TFHE loop would rebuild an O(N) spec per CMux.
@lru_cache(maxsize=4096)
def monomial_spec(ring_degree: int, degree: int) -> PermSpec:
    """Signed permutation of ``P(X) -> P(X) * X^degree`` (negacyclic wrap)."""
    n = ring_degree
    degree %= 2 * n
    dest = [0] * n
    negate = [False] * n
    for i in range(n):
        k = i + degree
        sign = False
        while k >= n:
            k -= n
            sign = not sign
        dest[i] = k
        negate[i] = sign
    return PermSpec(dest, negate)


@lru_cache(maxsize=4096)
def automorphism_spec(ring_degree: int, power: int) -> PermSpec:
    """Signed permutation of the ring automorphism ``X -> X^power`` (power odd)."""
    n = ring_degree
    power %= 2 * n
    if power % 2 == 0:
        raise ValueError("automorphism exponent must be odd")
    dest = [0] * n
    negate = [False] * n
    for i in range(n):
        k = (i * power) % (2 * n)
        sign = False
        if k >= n:
            k -= n
            sign = True
        dest[i] = k
        negate[i] = sign
    return PermSpec(dest, negate)


@lru_cache(maxsize=4096)
def galois_eval_spec(ring_degree: int, galois_element: int) -> GatherSpec:
    """Evaluation-domain image of the automorphism ``X -> X^g`` as a gather.

    The negacyclic NTT used here outputs ``forward(P)[i] = P(psi^e_i)`` with
    ``e_i = 2 * bitrev(i) + 1`` (Cooley-Tukey, merged psi twisting).  Since
    ``sigma_g(P)(psi^e) = P(psi^(e*g mod 2N))`` and ``g`` is odd, the
    automorphism permutes those odd evaluation points among themselves:

        forward(sigma_g(P))[i] = forward(P)[src[i]],  e_{src[i]} = e_i * g.

    No sign flips, no arithmetic — which is why hoisted rotations can apply
    the Galois map to already-transformed keyswitch digits for the cost of a
    slot gather.  The identity is exact over Z_q, so the eval-domain path is
    bit-identical to transforming ``sigma_g(P)`` from scratch.
    """
    n = ring_degree
    g = galois_element % (2 * n)
    if g % 2 == 0:
        raise ValueError("automorphism exponent must be odd")
    brv = _bit_reverse_indices(n)
    exponent_of = [2 * brv[i] + 1 for i in range(n)]
    index_of = {e: i for i, e in enumerate(exponent_of)}
    return GatherSpec(
        [index_of[(e * g) % (2 * n)] for e in exponent_of]
    )


class Polynomial:
    """An element of R_q = Z_q[X]/(X^N + 1)."""

    __slots__ = ("ring_degree", "modulus", "coefficients")

    def __init__(self, ring_degree: int, modulus: int, coefficients: Sequence[int] | None = None):
        if ring_degree <= 0 or ring_degree & (ring_degree - 1):
            raise ValueError("ring_degree must be a power of two")
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        self.ring_degree = ring_degree
        self.modulus = modulus
        if coefficients is None:
            self.coefficients = [0] * ring_degree
        else:
            if len(coefficients) > ring_degree:
                raise ValueError(
                    f"too many coefficients: {len(coefficients)} > {ring_degree}"
                )
            coeffs = [int(c) % modulus for c in coefficients]
            coeffs.extend([0] * (ring_degree - len(coeffs)))
            self.coefficients = coeffs

    # -- constructors ------------------------------------------------------
    @classmethod
    def _from_reduced(cls, ring_degree: int, modulus: int,
                      coefficients: List[int]) -> "Polynomial":
        """Wrap a coefficient list that is already reduced into ``[0, q)``.

        Backend vector ops guarantee reduced output, so the arithmetic
        methods skip the per-coefficient validation of ``__init__``.  The
        list is adopted, not copied — callers must hand over ownership.
        """
        poly = object.__new__(cls)
        poly.ring_degree = ring_degree
        poly.modulus = modulus
        poly.coefficients = coefficients
        return poly

    @classmethod
    def zero(cls, ring_degree: int, modulus: int) -> "Polynomial":
        """The additive identity."""
        return cls(ring_degree, modulus)

    @classmethod
    def one(cls, ring_degree: int, modulus: int) -> "Polynomial":
        """The multiplicative identity."""
        coeffs = [0] * ring_degree
        coeffs[0] = 1
        return cls(ring_degree, modulus, coeffs)

    @classmethod
    def monomial(cls, ring_degree: int, modulus: int, degree: int, coefficient: int = 1) -> "Polynomial":
        """``coefficient * X^degree`` with negacyclic wrap-around for large degrees."""
        degree %= 2 * ring_degree
        sign = 1
        if degree >= ring_degree:
            degree -= ring_degree
            sign = -1
        coeffs = [0] * ring_degree
        coeffs[degree] = sign * coefficient
        return cls(ring_degree, modulus, coeffs)

    # -- basic protocol ------------------------------------------------------
    def _check_compatible(self, other: "Polynomial") -> None:
        if self.ring_degree != other.ring_degree or self.modulus != other.modulus:
            raise ValueError(
                "incompatible rings: "
                f"(N={self.ring_degree}, q={self.modulus}) vs "
                f"(N={other.ring_degree}, q={other.modulus})"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.ring_degree == other.ring_degree
            and self.modulus == other.modulus
            and self.coefficients == other.coefficients
        )

    def __hash__(self) -> int:
        return hash((self.ring_degree, self.modulus, tuple(self.coefficients)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        head = ", ".join(str(c) for c in self.coefficients[:4])
        suffix = ", ..." if self.ring_degree > 4 else ""
        return f"Polynomial(N={self.ring_degree}, q={self.modulus}, [{head}{suffix}])"

    def is_zero(self) -> bool:
        """True when all coefficients are zero."""
        return all(c == 0 for c in self.coefficients)

    # -- arithmetic ----------------------------------------------------------
    # A polynomial is the one-row store of the active arithmetic backend's
    # store kernels (see repro.fhe.backend): each op runs its kernel on
    # ``[coefficients]`` under ``(q,)`` and reads row 0 back — exact and
    # fully reduced on every backend.
    def _from_store(self, store) -> "Polynomial":
        """The polynomial of this ring held in row 0 of a kernel's output."""
        row = active_backend().store_rows(store)[0]
        return Polynomial._from_reduced(self.ring_degree, self.modulus, row)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        return self._from_store(active_backend().limbs_add(
            [self.coefficients], [other.coefficients], (self.modulus,)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        return self._from_store(active_backend().limbs_sub(
            [self.coefficients], [other.coefficients], (self.modulus,)))

    def __neg__(self) -> "Polynomial":
        return self._from_store(
            active_backend().limbs_neg([self.coefficients], (self.modulus,)))

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            return self.scalar_multiply(other)
        self._check_compatible(other)
        context = _ntt_context(self.ring_degree, self.modulus)
        return self._from_store(active_backend().limbs_convolution(
            (context,), [self.coefficients], [other.coefficients]))

    __rmul__ = __mul__

    def scalar_multiply(self, scalar: int) -> "Polynomial":
        """Multiply every coefficient by an integer scalar."""
        return self._from_store(active_backend().limbs_scalar_mul(
            [self.coefficients], (scalar,), (self.modulus,)))

    def multiply_by_monomial(self, degree: int) -> "Polynomial":
        """Return ``self * X^degree`` (negacyclic rotation; degree may be negative)."""
        n = self.ring_degree
        spec = monomial_spec(n, degree % (2 * n))
        return self._from_store(active_backend().limbs_signed_permute(
            [self.coefficients], (self.modulus,), spec))

    # -- structural transforms ------------------------------------------------
    def automorphism(self, power: int) -> "Polynomial":
        """Apply the ring automorphism ``X -> X^power`` (``power`` odd, mod 2N)."""
        n = self.ring_degree
        spec = automorphism_spec(n, power % (2 * n))
        return self._from_store(active_backend().limbs_signed_permute(
            [self.coefficients], (self.modulus,), spec))

    def decompose(self, base: int, levels: int) -> List["Polynomial"]:
        """Signed gadget decomposition into ``levels`` digits of the given ``base``.

        Returns polynomials ``d_0 ... d_{levels-1}`` (most significant digit
        first, digits roughly in ``[-base/2, base/2]``) such that
        ``sum_j d_j * (q // base^(j+1))`` approximates ``self`` with error
        bounded by about half the smallest gadget factor.  The greedy
        residual-based digit extraction keeps the approximation tight even for
        prime moduli, where ``q`` is not an exact power of ``base``.
        """
        if base < 2:
            raise ValueError("decomposition base must be >= 2")
        n = self.ring_degree
        q = self.modulus
        factors = [q // (base ** (j + 1)) for j in range(levels)]
        backend = active_backend()
        digits = backend.gadget_decompose_rows([self.coefficients], q, factors)
        return [Polynomial._from_reduced(n, q, d) for d in backend.store_rows(digits)]

    def switch_modulus(self, new_modulus: int) -> "Polynomial":
        """Scale-and-round the coefficients from modulus ``q`` to ``new_modulus``."""
        q = self.modulus
        coeffs = []
        for c in self.coefficients:
            scaled = centered(c, q) * new_modulus
            rounded = (2 * scaled + q) // (2 * q)  # round-half-up, sign-safe
            coeffs.append(rounded % new_modulus)
        return Polynomial(self.ring_degree, new_modulus, coeffs)

    def lift_modulus(self, new_modulus: int) -> "Polynomial":
        """Re-interpret the centred coefficients under a (usually larger) modulus."""
        q = self.modulus
        return Polynomial(
            self.ring_degree,
            new_modulus,
            [centered(c, q) % new_modulus for c in self.coefficients],
        )

    # -- representation helpers -----------------------------------------------
    def to_ntt(self) -> List[int]:
        """Evaluation representation (forward NTT) of the coefficients."""
        return _ntt_context(self.ring_degree, self.modulus).forward(self.coefficients)

    @classmethod
    def from_ntt(cls, ring_degree: int, modulus: int, values: Sequence[int]) -> "Polynomial":
        """Build a polynomial from its evaluation representation."""
        return cls(ring_degree, modulus,
                   _ntt_context(ring_degree, modulus).inverse(list(values)))

    def centered_coefficients(self) -> List[int]:
        """Coefficients mapped to the centred interval (-q/2, q/2] — the
        one-limb case of the ``limbs_centered_lift`` kernel."""
        return active_backend().limbs_centered_lift(
            [self.coefficients], (self.modulus,))

    def infinity_norm(self) -> int:
        """Max absolute value of the centred coefficients (noise measurement)."""
        return max((abs(c) for c in self.centered_coefficients()), default=0)


# -- random sampling -----------------------------------------------------------

def sample_uniform(ring_degree: int, modulus: int, rng: random.Random) -> Polynomial:
    """Uniformly random ring element (used for ciphertext masks and keys).

    The one-limb case of the backend sampler, so every backend consumes
    ``rng`` exactly like ``rng.randrange(modulus)`` per coefficient.
    """
    backend = active_backend()
    store = backend.sample_uniform_limbs(rng, (modulus,), ring_degree)
    return Polynomial._from_reduced(ring_degree, modulus, backend.store_rows(store)[0])


def sample_ternary(ring_degree: int, modulus: int, rng: random.Random, hamming_weight: int | None = None) -> Polynomial:
    """Ternary secret with coefficients in {-1, 0, 1}.

    When ``hamming_weight`` is given, exactly that many coefficients are
    non-zero (the sparse-ternary secrets used by CKKS bootstrapping papers).
    """
    if hamming_weight is None:
        # ``rng.choice((-1, 0, 1))`` is ``randrange(3) - 1``: the block
        # sampler draws the same values from the same stream.
        backend = active_backend()
        draws = backend.sample_uniform_limbs(rng, (3,), ring_degree)
        reduced = ((-1) % modulus, 0, 1 % modulus)
        return Polynomial._from_reduced(
            ring_degree, modulus,
            [reduced[draw] for draw in backend.store_rows(draws)[0]])
    coeffs = [0] * ring_degree
    hamming_weight = min(hamming_weight, ring_degree)
    positions = rng.sample(range(ring_degree), hamming_weight)
    for pos in positions:
        coeffs[pos] = rng.choice((-1, 1))
    return Polynomial(ring_degree, modulus, coeffs)


def sample_gaussian(
    ring_degree: int,
    modulus: int,
    rng: random.Random,
    stddev: float = 3.2,
) -> Polynomial:
    """Discrete-Gaussian-ish error polynomial (rounded normal, as in practice).

    The one-limb case of the backend sampler, so every backend consumes
    ``rng`` exactly like ``round(rng.gauss(0.0, stddev))`` per coefficient.
    """
    backend = active_backend()
    store = backend.sample_error_limbs(rng, (modulus,), ring_degree, stddev)
    return Polynomial._from_reduced(ring_degree, modulus, backend.store_rows(store)[0])
