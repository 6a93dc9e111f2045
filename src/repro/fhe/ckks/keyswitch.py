"""Hybrid (dnum) KeySwitch — Algorithm 1 of the paper.

Given a polynomial ``d`` at level ``l`` (an element of R_{Q_l}) and a
:class:`~repro.fhe.ckks.keys.KeySwitchKey` for a source secret ``s'``, produce
a ciphertext pair ``(c0, c1)`` under ``s`` such that

    c0 + c1 * s  ~  d * s'   (mod Q_l),

up to the keyswitch noise.  The steps mirror Algorithm 1 exactly:

1. *Decompose* ``d`` into ``beta`` RNS digits (just the limbs of each digit);
2. *BConv* each digit from its digit basis into the extended basis C_l ∪ P;
3. *Inner product* with the evaluation key (per-digit multiply-accumulate);
4. *ModDown*: divide by the special modulus ``P`` and round, returning to C_l.

These are exactly the kernels (Decompose/BConv/NTT/IP/ModMul/ModAdd) the
hardware model charges for a keyswitch.

:func:`hybrid_keyswitch` runs them naively, in the coefficient domain, and
is the reference.  The hoisted path shares steps 1-2 and the forward NTTs
across keys, and runs steps 3-4 without leaving the evaluation domain:
ModDown inverse-transforms only the ``|P|`` special rows it has to BConv.
It has one body per phase, each over a *list* — :func:`hoist_wave` and
:func:`keyswitch_wave` — so the rotations of a hoist group, and of every
request in a joint batch, share one stacked transform in the hoist phase
and one backend dispatch, ``keyswitch_rows``, for the whole per-key phase
(gather, MAC and ModDown of every member; on the numpy backend one native
pass); a single keyswitch (:func:`hoist_decompose` +
:func:`keyswitch_hoisted`) is a wave of one.  The naive keyswitch is a
wave of one too: :func:`_hybrid_keyswitch` runs a list of polynomials
under one key (a level of the PackLWEs merge tree) with one stacked
transform each way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from ..backend import ArithmeticBackend, active_backend, use_backend
from ..modmath import mod_inverse
from ..params import CKKSParameters
from ..polynomial import galois_eval_spec
from ..rns import (
    RNSBasis,
    RNSPolynomial,
    _bconv_plan,
    _limb_contexts,
)

__all__ = [
    "hybrid_keyswitch",
    "mod_down",
    "HoistedDigits",
    "hoist_decompose",
    "hoist_wave",
    "keyswitch_hoisted",
    "keyswitch_wave",
]


@lru_cache(maxsize=256)
def _mod_down_constants(params: CKKSParameters, level: int) -> tuple:
    """``P^{-1} mod q_i`` for every limb of C_l (P = product of special moduli)."""
    p_product = math.prod(params.special_moduli)
    return tuple(
        mod_inverse(p_product % q, q) for q in params.moduli[: level + 1]
    )


@lru_cache(maxsize=256)
def _digit_basis(params: CKKSParameters, start: int, stop: int) -> RNSBasis:
    return RNSBasis(params.moduli[start:stop])


def mod_down(poly: RNSPolynomial, params: CKKSParameters, level: int) -> RNSPolynomial:
    """Divide a C_l ∪ P polynomial by P (with rounding) and return it in C_l.

    The result stays in ``poly``'s residency domain: an evaluation-resident
    ``poly`` is divided in coefficients and transformed back (a keyswitch
    wave's own ModDown never leaves the evaluation domain; it is part of
    :meth:`~repro.fhe.backend.ArithmeticBackend.keyswitch_rows`).
    """
    if poly.domain == "eval":
        return _mod_down([poly.to_coeff()], params, level)[0].to_eval()
    return _mod_down([poly], params, level)[0]


def _mod_down(polys, params: CKKSParameters, level: int) -> List[RNSPolynomial]:
    """ModDown of several coefficient-resident C_l ∪ P polynomials (the
    ``2k`` accumulators of a naive keyswitch chunk).

    BConv is a coefficient-wise map: one BConv dispatch for all polynomials
    lifts their ``|P|`` special rows into C_l, and one fused
    ``batched_sub_scaled`` dispatch per polynomial applies
    ``(x_i - conv_i) * P^{-1} mod q_i`` to its Q rows.
    """
    num_q = level + 1
    extended = params.extended_basis(level)
    target_basis = params.basis(level)
    for poly in polys:
        if poly.basis != extended:
            raise ValueError(
                f"mod_down at level {level} expects a polynomial over "
                f"{extended!r}, got {poly.basis!r}"
            )
    n = polys[0].ring_degree
    backend = active_backend()
    stores = [poly.store() for poly in polys]
    lifted = backend.bconv_matmul([store[num_q:] for store in stores],
                                  _bconv_plan(params.special_basis(), target_basis))
    return [
        RNSPolynomial._from_store(
            n, target_basis,
            backend.batched_sub_scaled(
                store[:num_q], conv, _mod_down_constants(params, level),
                tuple(target_basis.moduli),
            ),
        )
        for store, conv in zip(stores, lifted)
    ]


def _eval_key_handles(keyswitch_key, backend, contexts, copies: int = 1):
    """Evaluation-domain images of the digit keys, prepared once per backend
    and reused by every keyswitch against this key (exact transforms, so
    caching cannot change results).  ``copies > 1`` tiles each digit key
    member-major, for one MAC over a stack of that many members."""
    handles = keyswitch_key._eval_cache.get((backend.name, copies))
    if handles is None:
        stacked = contexts * copies
        moduli = tuple(ctx.modulus for ctx in stacked)
        handles = [
            tuple(backend.limbs_eval_key(stacked, key.store() if copies == 1 else
                                         backend.pack_limbs(backend.store_rows(
                                             key.store()) * copies, moduli))
                  for key in digit_key)
            for digit_key in keyswitch_key.digit_keys
        ]
        keyswitch_key._eval_cache[(backend.name, copies)] = handles
    return handles


def hybrid_keyswitch(
    d: RNSPolynomial,
    keyswitch_key,
    params: CKKSParameters,
    level: int,
    backend: "ArithmeticBackend | str | None" = None,
) -> Tuple[RNSPolynomial, RNSPolynomial]:
    """Apply Algorithm 1 to ``d`` and return the ``(c0, c1)`` correction pair.

    This is the *naive* pipeline, :func:`_hybrid_keyswitch` of one: every
    call pays the full Decompose + BConv + NTT cost and returns to the
    coefficient domain before ModDown.  The hoisted path
    (:func:`hoist_decompose` + :func:`keyswitch_hoisted`) computes
    bit-identical results while sharing the expensive phase across keys;
    this function is kept as the reference the parity suites and
    ``benchmarks/bench_pairs.py`` compare against.

    ``backend`` optionally pins the arithmetic backend for the whole
    keyswitch (BConv, inner product, ModDown); ``None`` keeps whatever is
    active.
    """
    with use_backend(backend):
        return _hybrid_keyswitch([d], keyswitch_key, params, level)[0]


def _hybrid_keyswitch(polys, keyswitch_key, params: CKKSParameters,
                      level: int) -> List[Tuple[RNSPolynomial, RNSPolynomial]]:
    """The naive keyswitch of several polynomials under one key: the
    correction pair of each, in order (PackLWEs keyswitches a whole level of
    its merge tree through here).

    Per :data:`WAVE_ELEMENTS` chunk of ``m`` members: :func:`hoist_wave`'s
    one ``stacked_ntt`` over every lifted digit, one MAC over the
    member-major ``(m * |C_l ∪ P|, N)`` stack against the key tiled ``m``
    times, one ``stacked_intt`` over both accumulators, then the
    coefficient-domain :func:`_mod_down` per member.  The residues are those
    of one call per member: the MAC is row-wise and the transforms exact.
    """
    hoisted = hoist_wave(polys, params, level)
    if not hoisted:
        return []
    if hoisted[0].num_digits != keyswitch_key.num_digits:
        raise ValueError(f"keyswitch key has {keyswitch_key.num_digits} digits, "
                         f"expected {hoisted[0].num_digits}")
    extended, contexts = hoisted[0].extended, hoisted[0].contexts
    n, width, backend, pairs = polys[0].ring_degree, len(extended), active_backend(), []
    for chunk in _chunks(hoisted, 2 * width * n):
        m = len(chunk)
        digits = [chunk[0].digits[j] if m == 1 else backend.pack_limbs(
                      [row for h in chunk for row in h.digits[j]], extended.moduli * m)
                  for j in range(keyswitch_key.num_digits)]
        accs = backend.stacked_intt(contexts * m, backend.limbs_eval_mac(
            contexts * m, digits,
            _eval_key_handles(keyswitch_key, backend, contexts, m)))
        reduced = _mod_down([RNSPolynomial._from_store(n, extended, acc[k:k + width])
                             for k in range(0, m * width, width) for acc in accs],
                            params, level)
        pairs.extend(zip(reduced[0::2], reduced[1::2]))
    return pairs


# ---------------------------------------------------------------------------
# Hoisted keyswitch waves: one stacked hoist phase, one stacked per-key phase
# ---------------------------------------------------------------------------

#: Elements (rows x N) one stacked dispatch of a wave may carry.  It cuts a
#: wave into chunks and so bounds both the transform stacks and the C_l ∪ P
#: accumulators alive at once.  Sized against ``peak_rss_mb`` of
#: ``serve_wire_dense`` the way ``keys.GROUP_RESIDUES`` is against onboarding
#: (a 56-rotation wave holds 11 MB of accumulators uncut; stacking deeper than
#: this is not faster) — a constant, never an argument or an env var.
WAVE_ELEMENTS = 1 << 17


def _chunks(items: list, elements_each: int) -> List[list]:
    size = max(1, WAVE_ELEMENTS // elements_each)
    return [items[i:i + size] for i in range(0, len(items), size)]


@dataclass(frozen=True, eq=False)
class HoistedDigits:
    """The reusable *hoist* phase of hybrid keyswitch (Algorithm 1 lines 1-6).

    Holds the gadget digits of one polynomial, lifted into the extended
    basis C_l ∪ P and forward-NTT'd **once**.  :func:`keyswitch_wave`
    replays them against any number of keyswitch keys — optionally composed
    with a Galois automorphism, which in the evaluation domain is a pure
    slot gather — for the cost of the cheap per-key phase alone: an
    eval-domain MAC and one ModDown pair that stays in the evaluation
    domain (only the P rows are inverse-transformed).  This is what makes
    BSGS linear transforms pay ``(baby-1)`` *hoisted* rotations instead of
    full HRotates.

    ``digits`` holds one evaluation-domain store per digit, transformed
    under ``contexts``, the NTT contexts of the extended basis.
    """

    params: CKKSParameters
    level: int
    ring_degree: int
    extended: RNSBasis
    contexts: list
    digits: list

    @property
    def num_digits(self) -> int:
        return len(self.digits)


def hoist_decompose(
    d: RNSPolynomial,
    params: CKKSParameters,
    level: int,
    backend: "ArithmeticBackend | str | None" = None,
) -> HoistedDigits:
    """The hoist phase of one polynomial: :func:`hoist_wave` of one.

    ``d`` is the polynomial to be keyswitched (``c1`` of a ciphertext for
    rotations, ``d2`` of a tensor product for relinearization); it may be
    coefficient- or evaluation-resident (the digits are extracted from the
    coefficient representation, since BConv is a coefficient-wise map).
    """
    with use_backend(backend):
        return hoist_wave([d], params, level)[0]


def hoist_wave(polys, params: CKKSParameters, level: int) -> List[HoistedDigits]:
    """Run the hoist phase of every polynomial of a wave: Decompose + BConv
    + forward NTTs, the transforms stacked across sources *and* digits.

    Per :data:`WAVE_ELEMENTS` chunk: one ``stacked_intt`` returns the
    evaluation-resident sources to coefficients (none, no dispatch), one
    ``bconv_matmul`` per digit lifts that digit of every source, and one
    ``stacked_ntt`` transforms all ``sources x digits`` lifted stores.  All
    sources must sit at ``level`` in one ring.
    """
    if not polys:
        return []
    n = polys[0].ring_degree
    for index, d in enumerate(polys):
        if len(d.basis) != level + 1 or d.ring_degree != n:
            raise ValueError(
                f"hoist member {index}: polynomial has {len(d.basis)} limbs at "
                f"ring degree {d.ring_degree} but level {level} expects "
                f"{level + 1} at ring degree {n}"
            )
    extended = params.extended_basis(level)
    contexts = _limb_contexts(n, extended)
    slices = params.digit_slices(level)
    plans = [
        _bconv_plan(_digit_basis(params, start, stop), extended)
        for start, stop in slices
    ]
    backend = active_backend()
    stores = [d.store() for d in polys]
    resident = [i for i, d in enumerate(polys) if d.domain == "eval"]
    for chunk in _chunks(resident, (level + 1) * n):
        for i, store in zip(chunk, backend.stacked_intt(
                contexts[:level + 1], [stores[i] for i in chunk])):
            stores[i] = store
    hoisted = []
    for chunk in _chunks(stores, len(slices) * len(extended) * n):
        per_digit = [
            backend.bconv_matmul([store[start:stop] for store in chunk], plan)
            for (start, stop), plan in zip(slices, plans)
        ]
        # Source-major, as the hoists below are cut.
        lifted = backend.stacked_ntt(
            contexts,
            [digits[i] for i in range(len(chunk)) for digits in per_digit])
        hoisted.extend(
            HoistedDigits(params, level, n, extended, contexts,
                          lifted[k:k + len(slices)])
            for k in range(0, len(lifted), len(slices))
        )
    return hoisted


def keyswitch_hoisted(
    hoisted: HoistedDigits,
    keyswitch_key,
    galois_element: "int | None" = None,
    backend: "ArithmeticBackend | str | None" = None,
) -> Tuple[RNSPolynomial, RNSPolynomial]:
    """The cheap per-key phase of one keyswitch: :func:`keyswitch_wave` of
    one ``(hoisted, keyswitch_key, galois_element)`` member."""
    with use_backend(backend):
        return keyswitch_wave([(hoisted, keyswitch_key, galois_element)])[0]


def keyswitch_wave(members) -> List[Tuple[RNSPolynomial, RNSPolynomial]]:
    """The per-key phase of a wave of ``(hoisted, keyswitch_key,
    galois_element)`` members: eval-domain MACs + one eval-domain ModDown.

    With a Galois element ``g`` (not ``None``), the automorphism ``sigma_g``
    is applied to the hoisted digits first — an exact evaluation-domain slot
    gather on power-of-two cyclotomics — so the result is the keyswitch of
    ``sigma_g(BConv(digit_j))`` under ``keyswitch_key`` (the hoisted-rotation
    correction pair; the BConv approximation error is likewise permuted and
    stays within the usual keyswitch noise budget).

    Unlike the naive path, which inverse-transforms its accumulators at
    full width, the digit MACs accumulate *in the evaluation domain* and
    ModDown finishes there: per :data:`WAVE_ELEMENTS` chunk of members, one
    :meth:`~repro.fhe.backend.ArithmeticBackend.keyswitch_rows` dispatch
    runs each member's gather and MAC, the inverse transform of its ``|P|``
    special rows only, the BConv, the forward transform of the lifted
    ``(level+1, N)`` rows and the subtract-and-scale (on the numpy backend
    one native pass, member by member).  Pairs are returned
    **evaluation-resident** (a coefficient-resident caller converts with
    ``to_coeff()``).  Results are bit-identical to the naive pipeline
    for ``galois_element=None`` (the transforms are linear bijections), and
    to one call per member whatever the wave.

    Members must share parameters, level and ring degree, and each key must
    have the hoist's digit count.
    """
    if not members:
        return []
    first = members[0][0]
    shape = (first.params, first.level, first.ring_degree)
    for index, (hoisted, key, _) in enumerate(members):
        if (hoisted.params, hoisted.level, hoisted.ring_degree) != shape:
            raise ValueError(
                f"wave member {index} is hoisted at level {hoisted.level}, ring "
                f"degree {hoisted.ring_degree}; the wave is at level "
                f"{first.level}, ring degree {first.ring_degree}"
            )
        if hoisted.num_digits != key.num_digits:
            raise ValueError(
                f"wave member {index}: keyswitch key has {key.num_digits} "
                f"digits, expected {hoisted.num_digits}"
            )
    params, level, n = shape
    backend, contexts, target = active_backend(), first.contexts, params.basis(level)
    plan = _bconv_plan(params.special_basis(), target)
    scalars = _mod_down_constants(params, level)
    pairs = []
    for chunk in _chunks(members, 2 * len(first.extended) * n):
        rows = backend.keyswitch_rows(contexts, [
            (hoisted.digits, _eval_key_handles(key, backend, contexts),
             None if galois_element is None else galois_eval_spec(n, galois_element))
            for hoisted, key, galois_element in chunk
        ], plan, scalars)
        pairs.extend(
            tuple(RNSPolynomial._from_store(n, target, store, domain="eval")
                  for store in pair)
            for pair in rows)
    return pairs
