"""Homomorphic evaluation for RNS-CKKS (Table II of the paper).

Implements the hierarchical operation set the paper reconstructs CKKS from:

===========  ==========================================================
 HAdd         element-wise ciphertext addition (ModAdd)
 PAdd         ciphertext + plaintext addition
 PMult        ciphertext * plaintext multiplication (ModMul/ModAdd)
 HMult        ciphertext * ciphertext with relinearization
              (NTT, BConv, IP, ModMul, ModAdd)
 HRotate      slot rotation: automorphism + keyswitch (adds Auto)
 Conjugate    complex conjugation: automorphism with g = 2N - 1
 Rescale      drop the last RNS limb and divide the scale (NTT, ModAdd)
 ModDownTo    level alignment without scale division
===========  ==========================================================

The evaluator is purely functional: every method returns a new ciphertext.

NTT residency
-------------
Ciphertexts may live in either the coefficient or the evaluation (NTT)
domain (see :class:`~repro.fhe.rns.RNSPolynomial`); every method accepts
both and aligns its operands as needed.  ``multiply`` computes the tensor
product as one batched evaluation-domain dispatch and returns an
evaluation-resident ciphertext; ``rescale`` stays in whichever domain its
input is in; rotations hoisted through :meth:`rotate_hoisted` share one
Decompose+BConv+NTT phase across all requested steps, and a
:meth:`galois_wave` shares the stacked transforms of both keyswitch phases
across the rotations of many ciphertexts.  The hoisted
keyswitch behind all three returns its correction pairs evaluation-resident
(its ModDown inverse-transforms only the special-modulus rows), so an
evaluation-resident ciphertext pays no full-width transform after the
hoist.  All paths are bit-identical to the coefficient-domain reference (``_multiply_coeff``,
``rotate``) up to keyswitch noise, and exactly identical where no BConv
reordering is involved (multiply, rescale, domain round trips).
"""

from __future__ import annotations

from typing import List, Sequence

from ..backend import ArithmeticBackend, active_backend, use_backend
from ..params import CKKSParameters
from ..rns import RNSPolynomial
from .ciphertext import CKKSCiphertext, CKKSPlaintext
from .keys import (
    CKKSKeySet,
    galois_element_for_conjugation,
    galois_element_for_rotation,
)
from .keyswitch import (
    hoist_decompose,
    hoist_wave,
    hybrid_keyswitch,
    keyswitch_hoisted,
    keyswitch_wave,
)

__all__ = ["CKKSEvaluator"]


class CKKSEvaluator:
    """Homomorphic operations over ciphertexts produced by one key set.

    ``backend`` optionally pins the arithmetic backend (``"python"`` /
    ``"numpy"`` or an instance) used by every operation of this evaluator;
    the default follows the process-wide active backend.
    """

    def __init__(self, params: CKKSParameters, keys: CKKSKeySet,
                 backend: "ArithmeticBackend | str | None" = None):
        self.params = params
        self.keys = keys
        self.backend = backend

    def _arith(self):
        """Context manager activating this evaluator's pinned backend."""
        return use_backend(self.backend)

    # -- helpers -------------------------------------------------------------
    def _check_levels(self, a: CKKSCiphertext, b: CKKSCiphertext) -> None:
        if a.level != b.level:
            raise ValueError(f"level mismatch: {a.level} vs {b.level}")

    def _check_scales(self, a_scale: float, b_scale: float) -> None:
        ratio = a_scale / b_scale
        if not 0.99 < ratio < 1.01:
            raise ValueError(f"scale mismatch: {a_scale} vs {b_scale}")

    def _plaintext_at_level(self, plaintext: CKKSPlaintext, level: int) -> RNSPolynomial:
        poly = plaintext.poly
        if plaintext.level < level:
            raise ValueError("plaintext level is below the ciphertext level")
        return poly.keep_limbs(level + 1)

    def _plaintext_eval_at_level(self, plaintext: CKKSPlaintext, level: int) -> RNSPolynomial:
        """Evaluation-domain image of the plaintext at ``level``, cached.

        The forward NTT of a plaintext is a pure function of (plaintext,
        level, backend), so repeated ``multiply_plain``/``add_plain`` against
        the same encoding — every BSGS diagonal across applies, every reuse
        a planned program's common-subexpression view exposes — pay the
        transform once instead of per call.
        """
        key = (active_backend().name, level)
        poly = plaintext._eval_cache.get(key)
        if poly is None:
            poly = self._plaintext_at_level(plaintext, level).to_eval()
            plaintext._eval_cache[key] = poly
        return poly

    # -- domain residency -------------------------------------------------------
    def to_eval(self, a: CKKSCiphertext) -> CKKSCiphertext:
        """The same ciphertext, evaluation(NTT)-resident (no-op if it already is)."""
        if a.domain == "eval":
            return a
        with self._arith():
            return CKKSCiphertext(
                c0=a.c0.to_eval(), c1=a.c1.to_eval(), level=a.level, scale=a.scale
            )

    def to_coeff(self, a: CKKSCiphertext) -> CKKSCiphertext:
        """The same ciphertext, coefficient-resident (no-op if it already is)."""
        if a.domain == "coeff":
            return a
        with self._arith():
            return CKKSCiphertext(
                c0=a.c0.to_coeff(), c1=a.c1.to_coeff(), level=a.level, scale=a.scale
            )

    def _align_domains(self, a: CKKSCiphertext, b: CKKSCiphertext):
        """Convert ``b`` into ``a``'s residency domain (exact either way)."""
        if a.domain == b.domain:
            return a, b
        return a, (self.to_eval(b) if a.domain == "eval" else self.to_coeff(b))

    # -- additions -------------------------------------------------------------
    def add(self, a: CKKSCiphertext, b: CKKSCiphertext) -> CKKSCiphertext:
        """HAdd: element-wise addition of two ciphertexts."""
        self._check_levels(a, b)
        self._check_scales(a.scale, b.scale)
        with self._arith():
            a, b = self._align_domains(a, b)
            return CKKSCiphertext(c0=a.c0 + b.c0, c1=a.c1 + b.c1, level=a.level, scale=a.scale)

    def sub(self, a: CKKSCiphertext, b: CKKSCiphertext) -> CKKSCiphertext:
        """Element-wise subtraction of two ciphertexts."""
        self._check_levels(a, b)
        self._check_scales(a.scale, b.scale)
        with self._arith():
            a, b = self._align_domains(a, b)
            return CKKSCiphertext(c0=a.c0 - b.c0, c1=a.c1 - b.c1, level=a.level, scale=a.scale)

    def add_plain(self, a: CKKSCiphertext, plaintext: CKKSPlaintext) -> CKKSCiphertext:
        """PAdd: add an encoded plaintext to a ciphertext."""
        self._check_scales(a.scale, plaintext.scale)
        with self._arith():
            if a.domain == "eval":
                poly = self._plaintext_eval_at_level(plaintext, a.level)
            else:
                poly = self._plaintext_at_level(plaintext, a.level)
            return CKKSCiphertext(c0=a.c0 + poly, c1=a.c1, level=a.level, scale=a.scale)

    def negate(self, a: CKKSCiphertext) -> CKKSCiphertext:
        """Negate a ciphertext."""
        with self._arith():
            return CKKSCiphertext(c0=-a.c0, c1=-a.c1, level=a.level, scale=a.scale)

    # -- multiplications ---------------------------------------------------------
    def multiply_plain(self, a: CKKSCiphertext, plaintext: CKKSPlaintext) -> CKKSCiphertext:
        """PMult: multiply a ciphertext by an encoded plaintext (scale multiplies).

        On an evaluation-resident ciphertext the product is pointwise — no
        transforms beyond encoding the plaintext into the NTT domain, and
        even that is cached per (plaintext, level, backend), so repeated
        products against the same plaintext (the BSGS inner loop, a reused
        program constant) skip the forward NTT entirely.  A
        coefficient-resident ciphertext stays so: the plaintext is
        forward-transformed once for both products, each component goes to
        the evaluation domain, is multiplied pointwise and comes back (one
        component at a time, so no more than a few stores are alive).
        """
        with self._arith():
            if a.domain == "eval":
                poly = self._plaintext_eval_at_level(plaintext, a.level)
                c0, c1 = a.c0 * poly, a.c1 * poly
            else:
                poly = self._plaintext_at_level(plaintext, a.level).to_eval()
                c0, c1 = ((c.to_eval() * poly).to_coeff() for c in (a.c0, a.c1))
            return CKKSCiphertext(c0=c0, c1=c1, level=a.level,
                                  scale=a.scale * plaintext.scale)

    def multiply_scalar(self, a: CKKSCiphertext, scalar: int) -> CKKSCiphertext:
        """Multiply by a small integer scalar without consuming scale."""
        with self._arith():
            return CKKSCiphertext(
                c0=a.c0 * scalar, c1=a.c1 * scalar, level=a.level, scale=a.scale
            )

    def multiply(self, a: CKKSCiphertext, b: CKKSCiphertext) -> CKKSCiphertext:
        """HMult: tensor product followed by relinearization (Algorithm 1).

        NTT-resident pipeline: both operands are moved to (or already live
        in) the evaluation domain, the whole ``(d0, d1, d2)`` tensor product
        is one batched pointwise backend dispatch, and only ``d2`` returns
        to the coefficient domain for the keyswitch digits.  The
        relinearization runs through the hoisted keyswitch, whose MAC and
        ModDown stay in the evaluation domain, so its correction pair adds
        straight onto ``(d0, d1)`` and the result stays evaluation-resident.
        Bit-identical to :meth:`_multiply_coeff`.
        """
        self._check_levels(a, b)
        level = a.level
        with self._arith():
            basis = a.c0.basis
            a_eval = self.to_eval(a)
            b_eval = a_eval if b is a else self.to_eval(b)
            backend = active_backend()
            moduli = tuple(basis.moduli)
            n = a.ring_degree
            # Tensor product (d0, d1, d2) such that d0 + d1*s + d2*s^2 = m_a * m_b
            # — one batched eval-domain dispatch for all four products.
            d0, d1, d2_eval = backend.limbs_tensor_product(
                a_eval.c0.store(), a_eval.c1.store(),
                b_eval.c0.store(), b_eval.c1.store(), moduli,
            )
            # Relinearize d2 with the s^2 -> s keyswitch key: a keyswitch
            # wave of one (digits are extracted from coefficients, so d2
            # alone pays an inverse transform, inside the hoist).
            d2 = RNSPolynomial._from_store(n, basis, d2_eval, domain="eval")
            relin_key = self.keys.relinearization_key(level)
            f0, f1 = keyswitch_hoisted(
                hoist_decompose(d2, self.params, level), relin_key
            )
            c0 = RNSPolynomial._from_store(n, basis, d0, domain="eval") + f0
            c1 = RNSPolynomial._from_store(n, basis, d1, domain="eval") + f1
            return CKKSCiphertext(
                c0=c0, c1=c1, level=level, scale=a.scale * b.scale
            )

    def _multiply_coeff(self, a: CKKSCiphertext, b: CKKSCiphertext) -> CKKSCiphertext:
        """HMult on the coefficient-domain reference pipeline.

        Four per-component convolutions plus the naive (per-digit) hybrid
        keyswitch — the pre-hoisting execution shape.  Kept as the exact
        reference the parity suite and ``benchmarks/bench_pairs.py`` compare
        the NTT-resident path against.
        """
        self._check_levels(a, b)
        level = a.level
        with self._arith():
            a = self.to_coeff(a)
            b = self.to_coeff(b)
            d0 = a.c0 * b.c0
            d1 = a.c0 * b.c1 + a.c1 * b.c0
            d2 = a.c1 * b.c1
            relin_key = self.keys.relinearization_key(level)
            f0, f1 = hybrid_keyswitch(d2, relin_key, self.params, level)
            return CKKSCiphertext(
                c0=d0 + f0, c1=d1 + f1, level=level, scale=a.scale * b.scale
            )

    def square(self, a: CKKSCiphertext) -> CKKSCiphertext:
        """Homomorphic squaring (same kernel flow as HMult)."""
        return self.multiply(a, a)

    # -- rotations -----------------------------------------------------------------
    def galois_element_for_rotation(self, steps: int) -> int:
        """The Galois element ``5^steps mod 2N`` implementing a slot rotation."""
        return galois_element_for_rotation(self.params.ring_degree, steps)

    def rotate(self, a: CKKSCiphertext, steps: int) -> CKKSCiphertext:
        """HRotate: rotate the slot vector by ``steps`` positions.

        This is the naive per-rotation pipeline (full keyswitch per call);
        use :meth:`rotate_hoisted` when several rotations of the *same*
        ciphertext are needed — it shares the expensive Decompose+BConv+NTT
        phase across all of them.
        """
        galois_element = self.galois_element_for_rotation(steps)
        return self.apply_galois(a, galois_element)

    def rotate_hoisted(self, a: CKKSCiphertext, steps_list: Sequence[int]) -> List[CKKSCiphertext]:
        """Rotate ``a`` by every step in ``steps_list``, hoisting the keyswitch.

        One :meth:`galois_wave` over the distinct Galois elements requested:
        the hoist phase (gadget decompose of ``c1`` + BConv into the
        extended basis + one stacked forward NTT) runs **once**; each step
        then pays only the cheap per-key phase — an evaluation-domain slot
        gather of the already-transformed digits (the Galois automorphism is
        a pure permutation there) and the MAC against that step's cached key
        transforms — and all steps share one evaluation-domain ModDown.
        This is the ``(baby-1)``-hoisted-rotations primitive of BSGS linear
        transforms.

        Returns one ciphertext per step, in order and in ``a``'s residency
        domain; a step of 0 returns a copy of ``a`` (no keyswitch).
        Repeated steps (and distinct steps mapping to the same Galois
        element) pay the per-key phase **once** — the duplicate entries
        share the first occurrence's result.

        Every requested step's Galois key is resolved *before* the hoist
        phase runs, so a missing rotation key raises the same ``KeyError``
        as :meth:`rotate` without paying the Decompose+BConv+NTT cost first.
        """
        elements = [self.galois_element_for_rotation(steps) for steps in steps_list]
        unique = list(dict.fromkeys(elements))
        rotated = dict(zip(unique, self.galois_wave([(a, g) for g in unique])))
        results: List[CKKSCiphertext] = []
        seen = set()
        for g in elements:
            results.append(rotated[g].copy() if g in seen else rotated[g])
            seen.add(g)
        return results

    def galois_wave(self, members) -> List[CKKSCiphertext]:
        """``sigma_g(a)`` keyswitched back to ``s`` for every ``(a, g)``
        member, as one keyswitch wave.

        Every member's Galois key is resolved before any transform runs (a
        missing one raises :meth:`rotate`'s ``KeyError``); each distinct
        source ciphertext is hoisted once (:func:`hoist_wave` over their
        ``c1``) and all members share the stacked per-key phase
        (:func:`keyswitch_wave`).  Members must sit at one level.  Each
        result is in its source's domain: the correction pairs arrive
        evaluation-resident, so only a coefficient-resident source pays a
        transform here.  The identity element returns a copy and joins no
        dispatch.
        """
        members = list(members)
        with self._arith():
            live = [(a, g, self.keys.galois_key(g, a.level))
                    for a, g in members if g != 1]
            if not live:
                return [a.copy() for a, _ in members]
            sources = {id(a): a for a, _, _ in live}
            hoists = dict(zip(sources, hoist_wave(
                [a.c1 for a in sources.values()], self.params,
                live[0][0].level)))
            pairs = iter(keyswitch_wave(
                [(hoists[id(a)], key, g) for a, g, key in live]))
            results = []
            for a, g in members:
                if g == 1:
                    results.append(a.copy())
                    continue
                f0, f1 = next(pairs)
                if a.domain == "coeff":
                    f0, f1 = f0.to_coeff(), f1.to_coeff()
                results.append(CKKSCiphertext(
                    c0=a.c0.automorphism(g) + f0, c1=f1,
                    level=a.level, scale=a.scale))
            return results

    def conjugate(self, a: CKKSCiphertext) -> CKKSCiphertext:
        """Complex conjugation of every slot (Galois element 2N - 1)."""
        return self.apply_galois(
            a, galois_element_for_conjugation(self.params.ring_degree)
        )

    def apply_galois(self, a: CKKSCiphertext, galois_element: int) -> CKKSCiphertext:
        """Apply the automorphism ``X -> X^g`` and keyswitch back to ``s``.

        The automorphism is one batched signed-permutation dispatch per
        component (all limbs at once) rather than a per-limb Python loop.
        """
        level = a.level
        with self._arith():
            a = self.to_coeff(a)
            rotated_c0 = a.c0.automorphism(galois_element)
            rotated_c1 = a.c1.automorphism(galois_element)
            galois_key = self.keys.galois_key(galois_element, level)
            f0, f1 = hybrid_keyswitch(rotated_c1, galois_key, self.params, level)
            return CKKSCiphertext(c0=rotated_c0 + f0, c1=f1, level=level, scale=a.scale)

    # -- level / scale management -----------------------------------------------------
    def rescale(self, a: CKKSCiphertext) -> CKKSCiphertext:
        """Rescale: divide by the last RNS prime and drop one level."""
        if a.level < 1:
            raise ValueError("cannot rescale a level-0 ciphertext")
        dropped_modulus = a.c0.basis.moduli[-1]
        with self._arith():
            return CKKSCiphertext(
                c0=a.c0.rescale(),
                c1=a.c1.rescale(),
                level=a.level - 1,
                scale=a.scale / dropped_modulus,
            )

    def mod_down_to(self, a: CKKSCiphertext, level: int) -> CKKSCiphertext:
        """Drop RNS limbs (without scale division) until ``a`` sits at ``level``."""
        if level > a.level:
            raise ValueError("cannot mod-down to a higher level")
        with self._arith():
            return CKKSCiphertext(
                c0=a.c0.keep_limbs(level + 1),
                c1=a.c1.keep_limbs(level + 1),
                level=level,
                scale=a.scale,
            )

    def align(self, a: CKKSCiphertext, b: CKKSCiphertext) -> tuple[CKKSCiphertext, CKKSCiphertext]:
        """Bring two ciphertexts to a common (minimum) level."""
        common = min(a.level, b.level)
        return self.mod_down_to(a, common), self.mod_down_to(b, common)

    # -- composite helpers (used by example applications) ------------------------------
    def inner_sum(self, a: CKKSCiphertext, count: int) -> CKKSCiphertext:
        """Sum ``count`` adjacent slots into every slot.

        Works for *any* positive ``count`` via the binary rotation
        decomposition: a doubling accumulator ``S_{2^k}`` (each doubling is
        one rotation) is combined once per set bit of ``count``, so the
        total is ``floor(log2(count)) + popcount(count) - 1`` rotations.
        Every rotation runs through the hoisted keyswitch pipeline, and an
        iteration that both combines into the result *and* doubles the
        accumulator issues its two rotations of ``acc`` through a single
        :meth:`rotate_hoisted` call — one shared Decompose+BConv+NTT hoist
        instead of two.
        """
        if count < 1:
            raise ValueError("count must be positive")
        result: "CKKSCiphertext | None" = None
        processed = 0
        acc = a           # S_{bit}: the sum of `bit` adjacent rotations
        bit = 1
        while bit <= count:
            combine = bool(count & bit) and result is not None
            double = (bit << 1) <= count
            steps = []
            if combine:
                steps.append(processed)
            if double:
                steps.append(bit)
            rotated = self.rotate_hoisted(acc, steps) if steps else []
            if count & bit:
                if result is None:
                    result = acc
                else:
                    result = self.add(result, rotated[0])
                processed += bit
            if double:
                acc = self.add(acc, rotated[-1])
            bit <<= 1
        return result
