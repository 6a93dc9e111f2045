"""Residue Number System (RNS) representation and fast basis conversion.

CKKS with large coefficient moduli (hundreds to >1000 bits) is implemented in
practice on a chain of small word-sized primes (Cheon-Han-Kim-Kim-Song RNS
variant).  This module provides:

* :class:`RNSBasis` — an ordered set of pairwise-coprime NTT-friendly primes
  with the CRT constants needed for reconstruction (hashable, so basis pairs
  key the precomputed conversion tables),
* :class:`RNSPolynomial` — a polynomial held limb-wise over an
  :class:`RNSBasis`, supporting element-wise arithmetic, NTT-domain
  conversion, and limb dropping (Rescale); every modulus of a basis that
  is multiplied or transformed is NTT-friendly for the ring degree,
* :func:`fast_basis_conversion` — the **BConv** kernel of the paper: the
  approximate base-conversion (HPS/BEHZ style) used by hybrid keyswitch to
  move a polynomial from basis ``C`` to basis ``D`` without reconstructing the
  big integer.

Packed limb-major execution
---------------------------
An :class:`RNSPolynomial` stores its residues as a backend *limb store*: all
``L`` limbs packed limb-major (one row per modulus — a single ``(L, N)``
uint64 matrix on the numpy backend, a list of coefficient rows on the python
backend).  Every RNS-level operation — add/sub/neg, limb-wise NTT
multiplication, Rescale, BConv, automorphisms — is a *single* backend
dispatch over the whole stack instead of a Python loop over limbs.  The
store is the only representation (:meth:`RNSPolynomial.coefficient_rows`
reads it back as python ints), and the pure-python backend executes the
packed entry points as per-limb python-int loops, keeping it the bit-exact
golden reference.

The element counts of these functions are what the kernel-level cost model in
:mod:`repro.kernels.opcounts` charges for BConv; the functional versions here
are used by the CKKS scheme implementation and its tests.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, List, Sequence

from .backend import BConvPlan, active_backend
from .modmath import mod_inverse
from .polynomial import (
    _ntt_context,
    automorphism_spec,
    galois_eval_spec,
    monomial_spec,
)

__all__ = [
    "RNSBasis", "RNSPolynomial", "sample_error", "sample_batch",
    "fast_basis_conversion", "exact_basis_conversion",
]


class RNSBasis:
    """An ordered basis of pairwise-coprime primes ``q_0, ..., q_{k-1}``.

    Instances are immutable by convention and hashable (by their modulus
    tuple), so ``(source, target)`` basis pairs can key precomputed
    conversion tables.
    """

    def __init__(self, moduli: Sequence[int]):
        moduli = [int(q) for q in moduli]
        if not moduli:
            raise ValueError("an RNS basis needs at least one modulus")
        if len(set(moduli)) != len(moduli):
            raise ValueError("RNS moduli must be distinct")
        for i, a in enumerate(moduli):
            for b in moduli[i + 1:]:
                if math.gcd(a, b) != 1:
                    raise ValueError(f"moduli {a} and {b} are not coprime")
        self.moduli = list(moduli)
        self.product = math.prod(moduli)
        # CRT reconstruction constants: Q_i = Q / q_i and Q_i^{-1} mod q_i.
        self._crt_complements = [self.product // q for q in moduli]
        self._crt_inverses = [
            mod_inverse(comp % q, q) for comp, q in zip(self._crt_complements, moduli)
        ]

    def __len__(self) -> int:
        return len(self.moduli)

    def __iter__(self):
        return iter(self.moduli)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RNSBasis):
            return NotImplemented
        return self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(tuple(self.moduli))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RNSBasis({self.moduli})"

    def subset(self, count: int) -> "RNSBasis":
        """The basis formed by the first ``count`` moduli (used by Rescale)."""
        if not 1 <= count <= len(self.moduli):
            raise ValueError(f"cannot take {count} moduli from a basis of {len(self.moduli)}")
        return _basis_subset(self, count)

    def extend(self, extra: Iterable[int]) -> "RNSBasis":
        """The basis formed by appending ``extra`` moduli (used by keyswitch)."""
        return RNSBasis(self.moduli + [int(q) for q in extra])

    def reconstruct(self, residues: Sequence[int]) -> int:
        """CRT-reconstruct an integer in ``[0, Q)`` from its residues."""
        if len(residues) != len(self.moduli):
            raise ValueError("residue count does not match basis size")
        total = 0
        for residue, comp, inv, q in zip(
            residues, self._crt_complements, self._crt_inverses, self.moduli
        ):
            total += (residue % q) * inv % q * comp
        return total % self.product

    def to_residues(self, value: int) -> List[int]:
        """Residues of an integer with respect to every modulus in the basis."""
        return [value % q for q in self.moduli]


@lru_cache(maxsize=1024)
def _basis_subset(basis: RNSBasis, count: int) -> RNSBasis:
    """Prefix bases recur on every Rescale/ModDown — build each one once."""
    return RNSBasis(basis.moduli[:count])


@lru_cache(maxsize=1024)
def _rescale_constants(basis: RNSBasis) -> tuple:
    """``q_last^{-1} mod q_i`` for every remaining limb of ``basis``."""
    q_last = basis.moduli[-1]
    return tuple(mod_inverse(q_last % q, q) for q in basis.moduli[:-1])


@lru_cache(maxsize=1024)
def _bconv_plan(source: RNSBasis, target: RNSBasis) -> BConvPlan:
    """Precomputed BConv tables for one ``(source, target)`` basis pair.

    Keying on the basis pair (RNSBasis is hashable) means the complement
    residues ``(Q/q_i) mod p_j`` are computed once instead of on every
    :func:`fast_basis_conversion` call.
    """
    weights = [
        [comp % p for comp in source._crt_complements] for p in target.moduli
    ]
    return BConvPlan(source.moduli, target.moduli, source._crt_inverses, weights)


def _check_degree(ring_degree: int) -> None:
    if ring_degree <= 0 or ring_degree & (ring_degree - 1):
        raise ValueError("ring_degree must be a power of two")


def _limb_contexts(ring_degree: int, basis: RNSBasis):
    """Per-limb NTT contexts; ``ValueError`` if a modulus is not NTT-friendly."""
    return [_ntt_context(ring_degree, q) for q in basis.moduli]


class RNSPolynomial:
    """A polynomial in R_Q stored limb-major over an :class:`RNSBasis`.

    The residues live in one packed backend *limb store* (``_rows``),
    immutable by convention.  A ring over one modulus ``q`` is the
    one-limb basis ``RNSBasis([q])``: TFHE messages and secrets, a decoded
    plaintext over ``Q``.  The ring degree is a power of two.

    ``domain`` records which representation the rows hold: ``"coeff"``
    (coefficients — the default everywhere) or ``"eval"`` (the per-limb
    forward NTT values).  NTT-resident execution keeps ciphertexts in the
    evaluation domain between operations: pointwise products, additions,
    automorphisms (a pure slot gather there) and even Rescale run directly
    on evaluation values, and :meth:`to_coeff`/:meth:`to_eval` convert only
    at encode/decrypt/keyswitch-digit boundaries.  Both domains describe the
    same ring element, and every cross-domain round trip is bit-exact.
    """

    __slots__ = ("ring_degree", "basis", "domain", "_rows")

    def __init__(self, ring_degree: int, basis: RNSBasis):
        """The zero polynomial of ``R_Q``."""
        _check_degree(ring_degree)
        self.ring_degree = ring_degree
        self.basis = basis
        self.domain = "coeff"
        self._rows = active_backend().limbs_zero(len(basis), ring_degree)

    # -- representations ------------------------------------------------------
    @classmethod
    def _from_store(cls, ring_degree: int, basis: RNSBasis, store,
                    domain: str = "coeff") -> "RNSPolynomial":
        """Adopt a backend limb store whose rows are already reduced."""
        poly = object.__new__(cls)
        poly.ring_degree = ring_degree
        poly.basis = basis
        poly.domain = domain
        poly._rows = store
        return poly

    # -- domain conversion -----------------------------------------------------
    def to_eval(self) -> "RNSPolynomial":
        """The same ring element in the evaluation (NTT) domain.

        One batched forward-NTT dispatch over the whole limb stack; a no-op
        when already evaluation-resident.
        """
        if self.domain == "eval":
            return self
        contexts = _limb_contexts(self.ring_degree, self.basis)
        store = active_backend().batched_ntt(contexts, self.store())
        return RNSPolynomial._from_store(
            self.ring_degree, self.basis, store, domain="eval"
        )

    def to_coeff(self) -> "RNSPolynomial":
        """The same ring element in the coefficient domain (inverse of
        :meth:`to_eval`; a no-op when already coefficient-resident)."""
        if self.domain == "coeff":
            return self
        contexts = _limb_contexts(self.ring_degree, self.basis)
        store = active_backend().batched_intt(contexts, self.store())
        return RNSPolynomial._from_store(
            self.ring_degree, self.basis, store, domain="coeff"
        )

    def store(self):
        """The packed limb-major backend store."""
        return self._rows

    def coefficient_rows(self) -> List[List[int]]:
        """The *coefficient* residue rows as plain python-int lists (limb-major).

        An evaluation-resident polynomial converts first (exact), like every
        other decode accessor — the name promises coefficients.  For the raw
        current-domain rows use ``store()`` with
        :meth:`~repro.fhe.backend.ArithmeticBackend.store_rows`.
        """
        if self.domain != "coeff":
            return self.to_coeff().coefficient_rows()
        return active_backend().store_rows(self._rows)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_integer_coefficients(
        cls, ring_degree: int, basis: RNSBasis, coefficients: Sequence[int]
    ) -> "RNSPolynomial":
        """Decompose big-integer coefficients into residue limbs.

        One ``reduce_limbs`` dispatch; short inputs are zero-padded and
        over-long ones raise ``ValueError``.
        """
        _check_degree(ring_degree)
        store = active_backend().reduce_limbs(
            coefficients, tuple(basis.moduli), ring_degree
        )
        return cls._from_store(ring_degree, basis, store)

    @classmethod
    def sample_uniform(cls, ring_degree: int, basis: RNSBasis, rng) -> "RNSPolynomial":
        """Uniformly random element of R_Q (ciphertext masks, key ``a`` parts).

        Consumes ``rng`` exactly like ``rng.randrange(q)`` per coefficient,
        limb after limb, on every backend.
        """
        _check_degree(ring_degree)
        store = active_backend().sample_uniform_limbs(
            rng, tuple(basis.moduli), ring_degree
        )
        return cls._from_store(ring_degree, basis, store)

    def centered_coefficients(self) -> List[int]:
        """The big-integer coefficients centred into ``(-Q/2, Q/2]``.

        One ``limbs_centered_lift`` dispatch — the exact CRT lift of the
        whole limb stack; every other integer view derives from it.  An
        evaluation-resident polynomial converts first (exact): asking for
        integer coefficients is a decode boundary.
        """
        if self.domain != "coeff":
            return self.to_coeff().centered_coefficients()
        return active_backend().limbs_centered_lift(
            self.store(), tuple(self.basis.moduli))

    def infinity_norm(self) -> int:
        """Max absolute value of the centred coefficients (noise measurement)."""
        return max(map(abs, self.centered_coefficients()), default=0)

    def to_integer_coefficients(self) -> List[int]:
        """The big-integer coefficients in ``[0, Q)``:
        :meth:`centered_coefficients` (the ``limbs_centered_lift`` kernel)
        shifted back up."""
        product = self.basis.product
        return [c + product if c < 0 else c for c in self.centered_coefficients()]

    def to_polynomial(self) -> "RNSPolynomial":
        """The same element as a one-limb polynomial over ``RNSBasis([Q])``
        (CRT reconstruction)."""
        return RNSPolynomial.from_integer_coefficients(
            self.ring_degree, RNSBasis([self.basis.product]),
            self.centered_coefficients())

    # -- arithmetic -------------------------------------------------------------
    def _check_compatible(self, other: "RNSPolynomial") -> None:
        if self.basis != other.basis or self.ring_degree != other.ring_degree:
            raise ValueError("RNS polynomials live in different rings")
        if self.domain != other.domain:
            raise ValueError(
                f"RNS polynomial domain mismatch ({self.domain} vs {other.domain}); "
                "align with to_eval()/to_coeff() first"
            )

    def __add__(self, other: "RNSPolynomial") -> "RNSPolynomial":
        self._check_compatible(other)
        store = active_backend().limbs_add(
            self.store(), other.store(), tuple(self.basis.moduli)
        )
        return RNSPolynomial._from_store(
            self.ring_degree, self.basis, store, domain=self.domain
        )

    def __sub__(self, other: "RNSPolynomial") -> "RNSPolynomial":
        self._check_compatible(other)
        store = active_backend().limbs_sub(
            self.store(), other.store(), tuple(self.basis.moduli)
        )
        return RNSPolynomial._from_store(
            self.ring_degree, self.basis, store, domain=self.domain
        )

    def __neg__(self) -> "RNSPolynomial":
        store = active_backend().limbs_neg(self.store(), tuple(self.basis.moduli))
        return RNSPolynomial._from_store(
            self.ring_degree, self.basis, store, domain=self.domain
        )

    def __mul__(self, other: "RNSPolynomial | int") -> "RNSPolynomial":
        moduli = tuple(self.basis.moduli)
        if isinstance(other, int):
            store = active_backend().limbs_scalar_mul(
                self.store(), [other % q for q in moduli], moduli
            )
            return RNSPolynomial._from_store(
                self.ring_degree, self.basis, store, domain=self.domain
            )
        self._check_compatible(other)
        if self.domain == "eval":
            # Evaluation-resident product: one pointwise dispatch, no NTTs.
            store = active_backend().limbs_mul(self.store(), other.store(), moduli)
            return RNSPolynomial._from_store(
                self.ring_degree, self.basis, store, domain="eval"
            )
        store = active_backend().limbs_convolution(
            _limb_contexts(self.ring_degree, self.basis),
            self.store(), other.store()
        )
        return RNSPolynomial._from_store(self.ring_degree, self.basis, store)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RNSPolynomial):
            return NotImplemented
        return (
            self.ring_degree == other.ring_degree
            and self.basis == other.basis
            and self.domain == other.domain
            and self.coefficient_rows() == other.coefficient_rows()
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"RNSPolynomial(N={self.ring_degree}, limbs={len(self.basis)})"

    # -- structural transforms ----------------------------------------------------
    def automorphism(self, galois_element: int) -> "RNSPolynomial":
        """Apply ``X -> X^g`` to every limb (one batched permutation dispatch).

        In the coefficient domain this is the usual signed coefficient
        permutation; in the evaluation domain it is a *sign-free* slot gather
        (the automorphism permutes the odd psi-powers the NTT evaluates at),
        and the two paths are bit-identical after conversion.
        """
        g = galois_element % (2 * self.ring_degree)
        if self.domain == "eval":
            spec = galois_eval_spec(self.ring_degree, g)
            store = active_backend().limbs_gather(self.store(), spec)
            return RNSPolynomial._from_store(
                self.ring_degree, self.basis, store, domain="eval"
            )
        spec = automorphism_spec(self.ring_degree, g)
        store = active_backend().limbs_signed_permute(
            self.store(), tuple(self.basis.moduli), spec
        )
        return RNSPolynomial._from_store(self.ring_degree, self.basis, store)

    def multiply_by_monomial(self, degree: int) -> "RNSPolynomial":
        """Multiply every limb by ``X^degree`` (one batched signed permutation)."""
        if self.domain != "coeff":
            raise ValueError(
                "monomial multiplication requires the coefficient domain"
            )
        spec = monomial_spec(self.ring_degree, degree % (2 * self.ring_degree))
        store = active_backend().limbs_signed_permute(
            self.store(), tuple(self.basis.moduli), spec
        )
        return RNSPolynomial._from_store(self.ring_degree, self.basis, store)

    # -- level management --------------------------------------------------------
    @property
    def level(self) -> int:
        """Number of limbs minus one (CKKS level convention)."""
        return len(self.basis) - 1

    def keep_limbs(self, count: int) -> "RNSPolynomial":
        """The polynomial restricted to its first ``count`` limbs."""
        if not 1 <= count <= len(self.basis):
            raise ValueError(
                f"cannot keep {count} limbs of a {len(self.basis)}-limb polynomial"
            )
        if count == len(self.basis):
            return self
        return RNSPolynomial._from_store(
            self.ring_degree, self.basis.subset(count), self.store()[:count],
            domain=self.domain,
        )

    def limb_slice(self, start: int, stop: int, basis: "RNSBasis | None" = None) -> "RNSPolynomial":
        """The polynomial formed by limbs ``[start, stop)`` (keyswitch digits)."""
        if basis is None:
            basis = RNSBasis(self.basis.moduli[start:stop])
        return RNSPolynomial._from_store(
            self.ring_degree, basis, self.store()[start:stop], domain=self.domain
        )

    def drop_last_limb(self) -> "RNSPolynomial":
        """Remove the last RNS limb (the modulus-reduction half of Rescale)."""
        if len(self.basis) <= 1:
            raise ValueError("cannot drop the last remaining limb")
        return self.keep_limbs(len(self.basis) - 1)

    def rescale(self) -> "RNSPolynomial":
        """Exact RNS rescale: divide by the last modulus ``q_l`` and round.

        Implements the standard RNS trick
        ``x_i' = (x_i - x_l) * q_l^{-1} mod q_i`` for every remaining limb —
        one fused ``batched_sub_scaled`` dispatch over the whole limb stack.

        Evaluation-resident polynomials rescale without leaving the NTT
        domain: only the *dropped* limb is inverse-transformed, re-reduced
        under each remaining modulus and forward-transformed there (the
        exact structure the hardware cost model charges for Rescale —
        iNTT of the dropped limb plus a broadcast NTT), then the same fused
        subtract-and-scale runs on the evaluation values.  Both paths are
        bit-identical after conversion (the NTT is linear).
        """
        if len(self.basis) <= 1:
            raise ValueError("cannot rescale a polynomial with a single limb")
        backend = active_backend()
        store = self.store()
        count = len(self.basis) - 1
        q_last = self.basis.moduli[-1]
        remaining = tuple(self.basis.moduli[:count])
        if self.domain == "eval":
            contexts = _limb_contexts(self.ring_degree, self.basis)
            last_coeff = backend.batched_intt(contexts[count:], store[count:])
            spread = backend.replicate_row(last_coeff[0], remaining)
            dropped = backend.batched_ntt(contexts[:count], spread)
        else:
            dropped = store[count]
        new_store = backend.batched_sub_scaled(
            store[:count],
            dropped,
            _rescale_constants(self.basis),
            remaining,
            b_modulus=q_last if self.domain == "coeff" else None,
        )
        return RNSPolynomial._from_store(
            self.ring_degree, self.basis.subset(count), new_store,
            domain=self.domain,
        )


def sample_error(ring_degree: int, basis: RNSBasis, rng,
                 stddev: float) -> RNSPolynomial:
    """Rounded-gaussian error polynomial over ``basis`` (zero, and no draw,
    when ``stddev <= 0``).

    One ``sample_error_limbs`` dispatch — draws and residue reduction
    together.  Like the uniform sampler, every backend returns the integers
    of the scalar ``round(rng.gauss(0.0, stddev))`` loop and leaves ``rng``
    where that loop leaves it, so public keys, evaluation keys and fresh
    ciphertexts do not depend on the backend.
    """
    if stddev <= 0:
        return RNSPolynomial(ring_degree, basis)
    store = active_backend().sample_error_limbs(
        rng, tuple(basis.moduli), ring_degree, stddev
    )
    return RNSPolynomial._from_store(ring_degree, basis, store)


def sample_batch(ring_degree: int, rng, draws) -> List[RNSPolynomial]:
    """One polynomial per ``(basis, stddev)`` of ``draws``, drawn from ``rng``
    in order as one ``sample_limbs`` batch.

    ``stddev`` ``None`` draws what :meth:`RNSPolynomial.sample_uniform`
    draws, a number what :func:`sample_error` draws (zero, and no draw, when
    ``<= 0``): the same polynomials and the same stream as those calls one
    after another, for one fixed cost per batch instead of one per draw.
    """
    _check_degree(ring_degree)
    stores = iter(active_backend().sample_limbs(rng, [
        (tuple(basis.moduli), stddev) for basis, stddev in draws
        if stddev is None or stddev > 0
    ], ring_degree))
    return [
        RNSPolynomial(ring_degree, basis) if stddev is not None and stddev <= 0
        else RNSPolynomial._from_store(ring_degree, basis, next(stores))
        for basis, stddev in draws
    ]


def exact_basis_conversion(
    poly: RNSPolynomial, target_basis: RNSBasis
) -> RNSPolynomial:
    """Exact (CRT-reconstructing) conversion of ``poly`` into ``target_basis``.

    Used as the reference implementation against which the fast (approximate)
    conversion is property-tested.
    """
    # Centred in (-Q/2, Q/2] before reducing into the new basis so that
    # negative values survive the conversion.
    return RNSPolynomial.from_integer_coefficients(
        poly.ring_degree, target_basis, poly.centered_coefficients()
    )


def fast_basis_conversion(
    poly: RNSPolynomial, target_basis: RNSBasis
) -> RNSPolynomial:
    """Fast base conversion (the **BConv** kernel).

    Computes, limb-parallel and without big-integer reconstruction,

        y_j = sum_i [ x_i * (Q/q_i)^{-1} mod q_i ] * (Q/q_i)  mod p_j

    for every target modulus ``p_j``.  This is the HPS-style approximate
    conversion: the result may differ from the exact conversion by a small
    multiple of ``Q`` (at most ``len(source)`` times), which downstream
    operations absorb as noise — exactly the behaviour the scheme expects.

    The arithmetic structure (an ``alpha x N`` by ``l x alpha`` matrix product)
    is what the hardware model maps onto the systolic side of the CUs; the
    software expresses it the same way, as one ``bconv_matmul`` backend
    dispatch over precomputed per-basis-pair tables.
    """
    if poly.domain != "coeff":
        # Evaluation points differ per modulus, so BConv on eval rows would
        # be silently wrong — the hoist phase converts before decomposing.
        raise ValueError("fast basis conversion requires a coefficient-resident input")
    plan = _bconv_plan(poly.basis, target_basis)
    (store,) = active_backend().bconv_matmul([poly.store()], plan)
    return RNSPolynomial._from_store(poly.ring_degree, target_basis, store)
