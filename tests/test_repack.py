"""TFHE -> CKKS repacking (Ring Embedding + PackLWEs + Field Trace).

The repack runs a merge level at a time over one packed store per level
(:mod:`repro.fhe.conversion.tfhe_to_ckks`).  This suite holds it to the
recursive one-ciphertext-per-merge algorithm it replaced, kept here as the
oracle, and to digests recorded before the change; it counts the kernel
dispatches of one repack so the level-at-a-time shape is guarded without a
timer.  Every input is built from integers (no float encoder), so the whole
module runs on a numpy-less install.
"""

from __future__ import annotations

import hashlib
import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.fhe.backend import (
    PythonBackend,
    WrappedBackend,
    available_backends,
    use_backend,
)
from repro.fhe.ckks.ciphertext import CKKSCiphertext
from repro.fhe.ckks.evaluator import CKKSEvaluator
from repro.fhe.ckks.keys import CKKSKeyGenerator
from repro.fhe.conversion.tfhe_to_ckks import (
    field_trace,
    lwe_to_rlwe_embedding,
    pack_lwes,
    repack_galois_elements,
    repack_lwe_ciphertexts,
)
from repro.fhe.modmath import mod_inverse
from repro.fhe.params import CKKSParameters
from repro.fhe.rns import RNSPolynomial
from repro.fhe.tfhe.lwe import LWECiphertext
from repro.workloads.hybrid_workloads import hybrid_query_parameters

numpy_missing = "numpy" not in available_backends()

if not numpy_missing:
    from repro.fhe.backend import NumpyBackend

    #: Crossovers at 0: the vectorized kernels run at N = 64, as in the
    #: ``lib_hybrid_query`` benchmark workload.
    BACKENDS = {"python": PythonBackend(), "numpy": NumpyBackend(),
                "numpy-packed": NumpyBackend(min_vector_length=0,
                                             min_ntt_length=0)}
else:  # pragma: no cover - exercised only on numpy-less installs
    BACKENDS = {"python": PythonBackend()}

#: The two level-0 conversion rings of the repo: the hybrid threshold query
#: (40-bit moduli, the word-64 kernels) and ``test_conversion.py``'s context
#: (30-bit moduli, the word-32 kernels).
PARAMS = {
    "hybrid-query": hybrid_query_parameters()[0],
    "conversion": CKKSParameters(
        ring_degree=64, max_level=1, dnum=1, scale_bits=12, modulus_bits=30,
        special_modulus_bits=32, security_bits=0, name="ckks-conversion-test",
    ),
}


@lru_cache(maxsize=None)
def _keys(params):
    """One key set per ring, with every Galois key a repack of any size
    uses made up front in one order, so no test depends on which ran first."""
    keys = CKKSKeyGenerator(params, seed=11, error_stddev=0.0).generate()
    elements = sorted(set(repack_galois_elements(params.ring_degree, 1)))
    keys.ensure_galois_keys([(element, 0) for element in elements])
    return keys


def _evaluator(params, backend):
    return CKKSEvaluator(params, _keys(params), backend=backend)


def _random_lwes(params, nslot, seed):
    rng = random.Random(seed)
    q, n = params.moduli[0], params.ring_degree
    return [
        LWECiphertext(a=[rng.randrange(q) for _ in range(n)],
                      b=rng.randrange(q), modulus=q)
        for _ in range(nslot)
    ]


def _rows(ct):
    return (ct.level, ct.c0.coefficient_rows(), ct.c1.coefficient_rows())


def _digest(ct) -> str:
    digest = hashlib.sha256()
    for poly in (ct.c0, ct.c1):
        digest.update(repr(poly.coefficient_rows()).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# The reference: the recursive algorithm, one ciphertext and one naive
# ``apply_galois`` per merge, one per-coefficient embedding per LWE.
# ---------------------------------------------------------------------------

def _reference_embedding(lwe, evaluator):
    params = evaluator.params
    n = params.ring_degree
    basis = params.basis(0)
    q = basis.moduli[0]
    c1 = [0] * n
    c1[0] = (-lwe.a[0]) % q
    for i in range(1, n):
        c1[i] = lwe.a[n - i] % q
    c0 = [0] * n
    c0[0] = lwe.b % q
    return CKKSCiphertext(
        c0=RNSPolynomial.from_integer_coefficients(n, basis, c0),
        c1=RNSPolynomial.from_integer_coefficients(n, basis, c1),
        level=0, scale=1.0)


def _reference_pack(ciphertexts, evaluator):
    nslot = len(ciphertexts)
    if nslot == 1:
        return ciphertexts[0]
    evens = _reference_pack(ciphertexts[0::2], evaluator)
    odds = _reference_pack(ciphertexts[1::2], evaluator)
    shift = evaluator.params.ring_degree // nslot
    rotated = CKKSCiphertext(
        c0=odds.c0.multiply_by_monomial(shift),
        c1=odds.c1.multiply_by_monomial(shift),
        level=odds.level, scale=odds.scale)
    combined = evaluator.add(evens, rotated)
    difference = evaluator.sub(evens, rotated)
    return evaluator.add(combined, evaluator.apply_galois(difference, nslot + 1))


def _reference_trace(ciphertext, nslot, evaluator):
    n = evaluator.params.ring_degree
    for k in range(1, int(math.log2(n // nslot)) + 1):
        element = (2 * n) // (1 << k) + 1
        ciphertext = evaluator.add(ciphertext,
                                   evaluator.apply_galois(ciphertext, element))
    return ciphertext


def _reference_repack(lwes, evaluator):
    n = evaluator.params.ring_degree
    q = evaluator.params.moduli[0]
    n_inverse = mod_inverse(n % q, q)
    with use_backend(evaluator.backend):
        embedded = [_reference_embedding(lwe.scalar_multiply(n_inverse), evaluator)
                    for lwe in lwes]
        return _reference_trace(_reference_pack(embedded, evaluator),
                                len(lwes), evaluator)


# ---------------------------------------------------------------------------
# Bits
# ---------------------------------------------------------------------------

class TestRepackPinned:
    """``repack_lwe_ciphertexts`` output, recorded before the repack became
    a loop over merge levels (the recursive algorithm above), on both
    backends — they agreed then and must still."""

    PINNED = {
        ("hybrid-query", 1):
            "37a247eb6f4808666704b003c848b13e6b363147ea33a6ec16c28fb5afeed7d1",
        ("hybrid-query", 2):
            "ca8dfbd16f5b346b1b485c1291781dc8b66f07a81d58228681bc411a9e804537",
        ("hybrid-query", 16):
            "ee7639265b4f816a6fbc835d42b657671b95f62865a51b07bde1f80584d047a2",
        ("conversion", 1):
            "3cf522180f371c14bcd354b99a4a9056554a35e3b8f4bba6638b0dfdd18e1331",
        ("conversion", 2):
            "471603dfc316578bc62cb233e20da8aca0715e022de812265350e9304496c290",
        ("conversion", 16):
            "0eacca9b8582a28839452134b77c519cd47d8e8e415141e27776f50a73c9cd4b",
    }

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("name,nslot", sorted(PINNED))
    def test_digest_matches_parent_commit(self, name, nslot, backend):
        params = PARAMS[name]
        evaluator = _evaluator(params, BACKENDS[backend])
        lwes = _random_lwes(params, nslot, seed=1000 + nslot)
        assert _digest(repack_lwe_ciphertexts(lwes, evaluator)) == \
            self.PINNED[(name, nslot)]


@lru_cache(maxsize=None)
def _tiny_params(ring_degree, modulus_bits):
    return CKKSParameters(
        ring_degree=ring_degree, max_level=1, dnum=1, scale_bits=4,
        modulus_bits=modulus_bits, special_modulus_bits=modulus_bits + 2,
        security_bits=0, name=f"ckks-repack-{ring_degree}-{modulus_bits}")


class TestAgainstRecursiveReference:
    @settings(max_examples=16, deadline=None)
    @given(log_degree=st.integers(3, 5), modulus_bits=st.sampled_from([30, 40]),
           data=st.data())
    def test_level_loop_is_bit_identical(self, log_degree, modulus_bits, data):
        """Random LWEs, every power-of-two ``nslot`` up to ``N``, tiny rings:
        the level loop returns the recursive algorithm's residues."""
        params = _tiny_params(1 << log_degree, modulus_bits)
        nslot = 1 << data.draw(st.integers(0, log_degree), label="log_nslot")
        backend = BACKENDS[data.draw(st.sampled_from(sorted(BACKENDS)),
                                     label="backend")]
        lwes = _random_lwes(params, nslot, data.draw(st.integers(0, 2 ** 32)))
        evaluator = _evaluator(params, backend)
        expected = _rows(_reference_repack(lwes, evaluator))
        assert _rows(repack_lwe_ciphertexts(lwes, evaluator)) == expected

    @pytest.mark.parametrize("nslot", [1, 4, 8])
    def test_pack_and_trace_on_ciphertexts(self, nslot):
        """The ciphertext-level entry points are the same loop."""
        params = _tiny_params(16, 30)
        for backend in BACKENDS.values():
            evaluator = _evaluator(params, backend)
            with use_backend(backend):
                embedded = [_reference_embedding(lwe, evaluator)
                            for lwe in _random_lwes(params, nslot, seed=nslot)]
                packed = pack_lwes(embedded, evaluator)
                assert _rows(packed) == _rows(_reference_pack(embedded, evaluator))
                assert _rows(field_trace(packed, nslot, evaluator)) == _rows(
                    _reference_trace(packed, nslot, evaluator))

    def test_embedding_is_the_one_lwe_case(self):
        params = PARAMS["conversion"]
        for backend in BACKENDS.values():
            evaluator = _evaluator(params, backend)
            with use_backend(backend):
                for lwe in _random_lwes(params, 3, seed=5):
                    assert _rows(lwe_to_rlwe_embedding(lwe, evaluator)) == \
                        _rows(_reference_embedding(lwe, evaluator))


# ---------------------------------------------------------------------------
# Typed failures, before any dispatch
# ---------------------------------------------------------------------------

class TestRejectsUpFront:
    PARAMS = PARAMS["hybrid-query"]

    def _raises(self, lwes, match):
        backend = WrappedBackend(PythonBackend())
        with pytest.raises(ValueError, match=match):
            repack_lwe_ciphertexts(lwes, _evaluator(self.PARAMS, backend))
        assert backend.calls == {}

    def test_more_lwes_than_the_ring_degree(self):
        lwes = _random_lwes(self.PARAMS, 1, seed=0) * 128
        self._raises(lwes, "128 LWE ciphertexts .* ring degree 64")
        # The planner asks for the keys of the same count first.
        with pytest.raises(ValueError, match="128 LWE ciphertexts"):
            repack_galois_elements(64, 128)

    def test_empty_and_non_power_of_two(self):
        self._raises([], "empty")
        self._raises(_random_lwes(self.PARAMS, 3, seed=0), "power of two")

    def test_mismatched_member(self):
        good = _random_lwes(self.PARAMS, 4, seed=0)
        q = self.PARAMS.moduli[0]
        short = LWECiphertext(a=[0] * 10, b=0, modulus=q)
        self._raises(good[:2] + [short] + good[3:], "member 2 .* dimension 10")
        other = LWECiphertext(a=[0] * 64, b=0, modulus=q + 2)
        self._raises(good[:3] + [other], "member 3 .* modulus")

    def test_mismatched_ciphertexts(self):
        params = self.PARAMS
        backend = WrappedBackend(PythonBackend())
        evaluator = _evaluator(params, backend)
        with use_backend(PythonBackend()):
            embedded = [_reference_embedding(lwe, evaluator)
                        for lwe in _random_lwes(params, 2, seed=0)]
            top = CKKSCiphertext(
                c0=RNSPolynomial(params.ring_degree, params.basis(1)),
                c1=RNSPolynomial(params.ring_degree, params.basis(1)),
                level=1, scale=1.0)
        scaled = CKKSCiphertext(c0=embedded[1].c0, c1=embedded[1].c1,
                                level=0, scale=2.0)
        for members, match in (([embedded[0], top], "member 1 .* level 1"),
                               ([embedded[0], scaled], "member 1 .* scale")):
            with pytest.raises(ValueError, match=match):
                pack_lwes(members, evaluator)
        assert backend.calls == {}


# ---------------------------------------------------------------------------
# Census: the level-at-a-time shape, counted without a timer
# ---------------------------------------------------------------------------

TRANSFORMS = ("batched_ntt", "batched_intt", "stacked_ntt", "stacked_intt")


def _repack_census(nslot, inner):
    """Kernel -> top-level dispatches of one repack at the hybrid-query ring
    (keys generated and their evaluation-domain images cached first).  The
    counting backend is also the active one, as in the executor, so nothing
    the repack runs outside the evaluator's backend goes uncounted."""
    params = PARAMS["hybrid-query"]
    backend = WrappedBackend(inner)
    evaluator = _evaluator(params, backend)
    lwes = _random_lwes(params, nslot, seed=nslot)
    with use_backend(backend):
        repack_lwe_ciphertexts(lwes, evaluator)
        before = dict(backend.calls)
        repack_lwe_ciphertexts(lwes, evaluator)
    return {kernel: count - before.get(kernel, 0)
            for kernel, count in backend.calls.items()
            if count - before.get(kernel, 0)}


#: One repack of 16 LWEs at N = 64: four merge levels and two trace steps.
#: At one ``CKKSCiphertext`` and one ``apply_galois`` per merge it was 411
#: dispatches (64 signed permutations, 34 zero stores), 34 of them transforms.
CENSUS_16 = {
    "batched_sub_scaled": 34, "bconv_matmul": 12, "limbs_add": 26,
    "limbs_eval_mac": 6, "limbs_scalar_mul": 1, "limbs_signed_permute": 21,
    "limbs_sub": 8, "pack_limbs": 17, "stacked_intt": 6, "stacked_ntt": 6,
}

#: ModDown's subtract-and-scale stays one dispatch per keyswitched
#: polynomial: its inputs are member-major stacks, and a member-wide view of
#: one is a reshape no backend kernel provides.  (BConv is one dispatch per
#: wave for the hoist's digit and one for ModDown, whatever the width.)
PER_KEYSWITCH = {"batched_sub_scaled": 2}


class TestRepackCensus:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_sixteen_lwes(self, backend):
        """Each merge level and trace step is one keyswitch wave: one
        forward and one inverse transform (34 at one keyswitch per merge)."""
        census = _repack_census(16, BACKENDS[backend])
        assert sum(census.get(kernel, 0) for kernel in TRANSFORMS) == 12
        assert census == CENSUS_16
        assert sum(census.values()) == 137

    def test_no_per_level_count_grows_with_the_level(self):
        """Every kernel but the per-keyswitch ones costs the same per merge
        level whatever its width ``m``: a merge level replaces a trace step
        (``log2 N`` steps in all), so from the first two-member level on the
        count is affine in ``log2 nslot``.  The per-keyswitch ones are exact
        multiples of the keyswitches."""
        n = PARAMS["hybrid-query"].ring_degree
        censuses = {nslot: _repack_census(nslot, BACKENDS["python"])
                    for nslot in (2, 4, 8, 16, 32)}
        kernels = set().union(*censuses.values())
        for kernel in kernels - set(PER_KEYSWITCH):
            counts = [censuses[nslot].get(kernel, 0) for nslot in sorted(censuses)]
            steps = {b - a for a, b in zip(counts, counts[1:])}
            assert len(steps) == 1, (kernel, counts)
        for nslot, census in censuses.items():
            keyswitches = nslot - 1 + int(math.log2(n // nslot))
            for kernel, each in PER_KEYSWITCH.items():
                assert census[kernel] == each * keyswitches, (kernel, nslot)
