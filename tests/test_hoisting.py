"""Parity suite for hoisted rotations and NTT-resident execution.

Covers the PR-3 pipeline across every functional params.py prime/degree
combination, including the <= 32-bit single-word fast path:

* domain residency: ``to_eval``/``to_coeff`` round trips, eval-domain
  add/mul/automorphism/rescale bit-exact against the coefficient domain,
* the evaluation-domain Galois gather identity
  ``NTT(sigma_g(x)) == gather_g(NTT(x))`` (what lets hoisted rotations
  permute already-transformed keyswitch digits),
* hoisted keyswitch (``hoist_decompose`` + ``keyswitch_hoisted``) bit-exact
  against the naive ``hybrid_keyswitch`` pipeline, on both backends and
  cross-backend,
* ``mod_down`` in either residency domain, and the dispatches the
  evaluation-domain ModDown of the hoisted keyswitch is allowed (counted),
* ``rotate_hoisted`` cross-backend bit-exactness and (with the encoder)
  agreement with the naive per-rotation path up to keyswitch noise,
* NTT-resident HMult/Rescale chains bit-exact against the coefficient
  reference pipeline,
* the BSGS linear transform: numerical correctness and the cross-check that
  its functional rotation counts match the cost model's
  ``(baby-1) hoisted + (giant-1) outer`` HRotate accounting
  (``bootstrap.linear_transform_plan``),
* the generalized (non-power-of-two) ``inner_sum``.

The raw-polynomial tests run on the pure-python backend alone, so this file
is part of the no-numpy CI leg; encoder-based semantic tests skip without
numpy.
"""

import dataclasses
import math
import random

import pytest

from repro.fhe.backend import (
    PythonBackend,
    WrappedBackend,
    available_backends,
    use_backend,
)
from repro.fhe.ckks.bootstrap import linear_transform_plan
from repro.fhe.ckks.ciphertext import CKKSCiphertext
from repro.fhe.ckks.evaluator import CKKSEvaluator
from repro.fhe.ckks import keys as keys_module
from repro.fhe.ckks.keys import (
    CKKSKeyGenerator,
    galois_element_for_rotation,
    sample_error,
)
from repro.fhe.ckks import keyswitch as keyswitch_module
from repro.fhe.ckks.keyswitch import (
    hoist_decompose,
    hoist_wave,
    hybrid_keyswitch,
    keyswitch_hoisted,
    keyswitch_wave,
    mod_down,
)
from repro.fhe.modmath import mod_inverse
from repro.fhe.params import CKKSParameters
from repro.fhe.polynomial import galois_eval_spec
from repro.fhe.rns import RNSPolynomial, _limb_contexts

from test_ntt import non_ntt_prime

numpy_missing = "numpy" not in available_backends()
needs_numpy = pytest.mark.skipif(numpy_missing, reason="numpy backend unavailable")

PYTHON = PythonBackend()

if not numpy_missing:
    from repro.fhe.backend import NumpyBackend

    #: Thresholds at 0: force the vectorized paths at every ring size.
    PACKED = NumpyBackend(min_vector_length=0, min_ntt_length=0)
    BACKENDS = [PYTHON, PACKED]
else:  # pragma: no cover - exercised only on numpy-less installs
    PACKED = None
    BACKENDS = [PYTHON]


#: Every params.py shape family, including a word-size (<= 32-bit) chain that
#: exercises the direct single-word kernels end to end.
PARAM_SETS = [
    CKKSParameters.toy(),
    CKKSParameters.toy(ring_degree=128, max_level=4, dnum=2),
    CKKSParameters.small(ring_degree=256),
    CKKSParameters(
        ring_degree=64, max_level=3, dnum=2, scale_bits=24, modulus_bits=28,
        special_modulus_bits=30, security_bits=0, name="ckks-u32",
    ),
]
PARAM_IDS = [
    f"{p.name}-N{p.ring_degree}-L{p.max_level}-{p.modulus_bits}bit"
    for p in PARAM_SETS
]

GALOIS_ELEMENTS = [5, 25, 3]  # rotations by 1 and 2, plus a non-group element


def _random_poly(params, seed, level=None, basis=None):
    degree = params.ring_degree
    if basis is None:
        basis = params.basis(params.max_level if level is None else level)
    return RNSPolynomial.sample_uniform(degree, basis, random.Random(seed ^ 0x40157))


def _rows(poly):
    return poly.coefficient_rows()


@pytest.fixture(scope="module", params=list(zip(PARAM_SETS, PARAM_IDS)),
                ids=[i for i in PARAM_IDS])
def keyed(request):
    """(params, keys, relin key, a deterministic ciphertext-shaped pair)."""
    params, _ = request.param
    keygen = CKKSKeyGenerator(params, seed=11, error_stddev=0.0)
    keys = keygen.generate()
    level = params.max_level
    relin = keygen.make_relinearization_key(keys, level)
    ct = CKKSCiphertext(
        c0=_random_poly(params, 21), c1=_random_poly(params, 22),
        level=level, scale=float(params.scale),
    )
    return params, keys, relin, ct


@pytest.mark.parametrize("params", PARAM_SETS, ids=PARAM_IDS)
class TestDomainResidency:
    """to_eval/to_coeff and eval-domain arithmetic are exact on every backend."""

    def test_roundtrip_and_arithmetic(self, params):
        for backend in BACKENDS:
            with use_backend(backend):
                x = _random_poly(params, 1)
                y = _random_poly(params, 2)
                xe, ye = x.to_eval(), y.to_eval()
                assert xe.domain == "eval" and x.domain == "coeff"
                assert _rows(xe.to_coeff()) == _rows(x)
                assert _rows((xe + ye).to_coeff()) == _rows(x + y)
                assert _rows((xe - ye).to_coeff()) == _rows(x - y)
                assert _rows((-xe).to_coeff()) == _rows(-x)
                assert _rows((xe * 12345).to_coeff()) == _rows(x * 12345)
                # Pointwise eval product == negacyclic convolution.
                assert _rows((xe * ye).to_coeff()) == _rows(x * y)

    def test_domain_mismatch_raises(self, params):
        x = _random_poly(params, 3)
        with pytest.raises(ValueError):
            x + x.to_eval()

    def test_rescale_eval_matches_coeff(self, params):
        for backend in BACKENDS:
            with use_backend(backend):
                x = _random_poly(params, 4)
                rescaled = x.to_eval().rescale()
                assert rescaled.domain == "eval"
                assert _rows(rescaled.to_coeff()) == _rows(x.rescale())

    def test_eval_automorphism_is_the_galois_gather(self, params):
        """NTT(sigma_g(x)) == gather_g(NTT(x)), bit-exact — the identity the
        hoisted rotations rely on."""
        degree = params.ring_degree
        for backend in BACKENDS:
            with use_backend(backend):
                x = _random_poly(params, 5)
                for g in GALOIS_ELEMENTS + [2 * degree - 1]:
                    lhs = x.automorphism(g).to_eval()
                    rhs = x.to_eval().automorphism(g)
                    assert _rows(lhs) == _rows(rhs), (backend.name, g)
        spec = galois_eval_spec(degree, 5)
        assert sorted(spec.src) == list(range(degree))  # a pure permutation

    def test_cross_backend_eval_rows_match(self, params):
        if numpy_missing:
            pytest.skip("needs both backends")
        x = _random_poly(params, 6)
        with use_backend(PYTHON):
            expected = _rows(x.to_eval())
        with use_backend(PACKED):
            assert _rows(x.to_eval()) == expected


class TestHoistedKeyswitch:
    """hoist+apply == the naive hybrid keyswitch, exactly."""

    def test_matches_hybrid(self, keyed):
        params, _keys, relin, ct = keyed
        level = params.max_level
        for backend in BACKENDS:
            with use_backend(backend):
                naive = hybrid_keyswitch(ct.c1, relin, params, level)
                hoisted = keyswitch_hoisted(
                    hoist_decompose(ct.c1, params, level), relin
                )
                assert _rows(hoisted[0]) == _rows(naive[0]), backend.name
                assert _rows(hoisted[1]) == _rows(naive[1]), backend.name

    def test_galois_apply_cross_backend(self, keyed):
        """The eval-domain gather application agrees across backends (and the
        hoist is reusable across several keys)."""
        if numpy_missing:
            pytest.skip("needs both backends")
        params, keys, _relin, ct = keyed
        level = params.max_level
        elements = [galois_element_for_rotation(params.ring_degree, s)
                    for s in (1, 2, 3)]
        results = {}
        for backend in BACKENDS:
            with use_backend(backend):
                hoisted = hoist_decompose(ct.c1, params, level)
                results[backend.name] = [
                    tuple(map(tuple, _rows(part)))
                    for g in elements
                    for part in keyswitch_hoisted(
                        hoisted, keys.galois_key(g, level), galois_element=g
                    )
                ]
        assert results["python"] == results["numpy"]

    def test_hoist_accepts_eval_resident_input(self, keyed):
        params, _keys, relin, ct = keyed
        level = params.max_level
        for backend in BACKENDS:
            with use_backend(backend):
                from_coeff = keyswitch_hoisted(
                    hoist_decompose(ct.c1, params, level), relin
                )
                from_eval = keyswitch_hoisted(
                    hoist_decompose(ct.c1.to_eval(), params, level), relin
                )
                assert _rows(from_eval[0]) == _rows(from_coeff[0])
                assert _rows(from_eval[1]) == _rows(from_coeff[1])

    def test_digit_count_mismatch_raises(self, keyed):
        params, _keys, relin, ct = keyed
        hoisted = hoist_decompose(ct.c1.keep_limbs(1), params, 0)
        assert hoisted.num_digits == 1 != relin.num_digits
        with pytest.raises(ValueError):
            keyswitch_hoisted(hoisted, relin)

    def test_non_ntt_special_modulus_raises(self, keyed):
        """An extended basis holding a non-NTT prime has no evaluation
        domain to hoist into: the hoist raises on every backend, before any
        digit is lifted."""
        params, _keys, _relin, ct = keyed
        level = params.max_level
        bad = dataclasses.replace(params)
        bad.__dict__["special_moduli"] = params.special_moduli[:-1] + (
            non_ntt_prime(params.special_modulus_bits, params.ring_degree),)
        assert bad.extended_basis(level).moduli[:level + 1] == \
            params.basis(level).moduli
        for backend in BACKENDS:
            with use_backend(backend):
                assert hoist_wave([ct.c1], params, level)[0].num_digits == \
                    len(params.digit_slices(level))
                for hoist in (lambda: hoist_wave([ct.c1, ct.c1], bad, level),
                              lambda: hoist_decompose(ct.c1, bad, level)):
                    with pytest.raises(ValueError, match="not NTT-friendly"):
                        hoist()

    def test_a_wave_refuses_mismatched_members_by_name(self, keyed):
        """Members that disagree on level or digit count are named, not
        stacked; an empty wave is no dispatch at all."""
        params, keys, relin, ct = keyed
        level = params.max_level
        low = ct.c1.keep_limbs(level)
        with use_backend(PYTHON):
            with pytest.raises(ValueError, match="hoist member 1"):
                hoist_wave([ct.c1, low], params, level)
            top = hoist_decompose(ct.c1, params, level)
            lower = hoist_decompose(low, params, level - 1)
            lower_key = keys.relinearization_key(level - 1)
            with pytest.raises(ValueError, match="wave member 1 is hoisted at level"):
                keyswitch_wave([(top, relin, None), (lower, lower_key, None)])
            one_digit = keys.relinearization_key(0)
            with pytest.raises(ValueError, match="wave member 2: keyswitch key"):
                keyswitch_wave(
                    [(top, relin, None), (top, relin, None), (top, one_digit, None)])
            assert hoist_wave([], params, level) == keyswitch_wave([]) == []


class TestModDown:
    """One ModDown, dispatched on the input's residency domain."""

    def test_eval_resident_input_stays_eval(self, keyed):
        params = keyed[0]
        level = params.max_level
        poly = _random_poly(params, 51, basis=params.extended_basis(level))
        for backend in BACKENDS:
            with use_backend(backend):
                expected = mod_down(poly, params, level)
                resident = mod_down(poly.to_eval(), params, level)
                assert (expected.domain, resident.domain) == ("coeff", "eval")
                assert expected.basis == resident.basis == params.basis(level)
                assert _rows(resident) == _rows(expected), backend.name

    def test_basis_must_be_the_extended_basis_of_the_level(self, keyed):
        params = keyed[0]
        top = params.max_level
        poly = _random_poly(params, 52, basis=params.extended_basis(top))
        for level in range(top):
            with pytest.raises(ValueError) as raised:
                mod_down(poly, params, level)
            assert repr(poly.basis) in str(raised.value)
            assert repr(params.extended_basis(level)) in str(raised.value)
        with pytest.raises(ValueError):
            mod_down(_random_poly(params, 53), params, top)   # no P rows


class _CountingBackend(WrappedBackend):
    """Log ``(kernel, args)`` of the top-level calls (the pattern of
    ``test_tfhe.py::TestResidency``)."""

    prefix = "counting"

    def __init__(self, inner):
        super().__init__(inner)
        self.log = []

    def _dispatch(self, kernel, func, args, kwargs):
        self.log.append((kernel, args))
        return func(*args, **kwargs)

    def args_of(self, kernel):
        return [args for name, args in self.log if name == kernel]


class _NestedLog(PythonBackend):
    """The golden backend, logging ``(kernel, args)`` of the kernels the
    golden ``keyswitch_rows`` composes, top-level or nested (a
    ``WrappedBackend`` sees only the top level)."""

    def __init__(self):
        self.log = []

    def args_of(self, kernel):
        return [args for name, args in self.log if name == kernel]


def _logged(kernel):
    def call(self, *args):
        self.log.append((kernel, args))
        return getattr(PythonBackend, kernel)(self, *args)
    return call


for _kernel in ("stacked_intt", "stacked_ntt", "bconv_matmul", "limbs_gather",
                "limbs_eval_mac", "batched_sub_scaled"):
    setattr(_NestedLog, _kernel, _logged(_kernel))


class TestHoistedResidency:
    """What a keyswitch wave may dispatch, counted: a hoist is one stacked
    forward transform, and the per-key phase is one ``keyswitch_rows`` per
    wave chunk, whose golden body never leaves the evaluation domain — one
    ModDown (two stacked transforms) for all its members."""

    @staticmethod
    def _rows_of(call):
        contexts, stores = call
        assert all(len(store) == len(contexts) for store in stores)
        return len(contexts) * len(stores)

    def test_keyswitch_hoisted_transforms_only_the_special_rows(self, keyed):
        """One ``keyswitch_rows`` dispatch and nothing else; inside the
        golden body, one inverse transform of both accumulators' ``|P|``
        special rows and one forward transform of their lifted ``level+1``
        rows."""
        params, _keys, relin, ct = keyed
        level, special = params.max_level, len(params.special_moduli)
        for inner in BACKENDS:
            counting = _CountingBackend(inner)
            with use_backend(counting):
                hoisted = hoist_decompose(ct.c1, params, level)
                keyswitch_hoisted(hoisted, relin)      # the key's transform
                counting.log.clear()
                f0, f1 = keyswitch_hoisted(hoisted, relin)
            assert f0.domain == f1.domain == "eval"
            assert [name for name, _ in counting.log] == ["keyswitch_rows"]
            (contexts, members, plan, scalars), = counting.args_of("keyswitch_rows")
            assert len(members) == 1 and len(scalars) == level + 1
            assert len(contexts) - len(scalars) == len(plan.source_moduli) == special
        nested = _NestedLog()
        with use_backend(nested):
            hoisted = hoist_decompose(ct.c1, params, level)
            keyswitch_hoisted(hoisted, relin)          # the key's transform
            nested.log.clear()
            keyswitch_hoisted(hoisted, relin)
        assert [name for name, _ in nested.log] == [
            "limbs_eval_mac", "stacked_intt", "bconv_matmul", "stacked_ntt",
            "batched_sub_scaled", "batched_sub_scaled"]
        (contexts, stores), = nested.args_of("stacked_intt")
        assert len(contexts) == special
        assert [len(store) for store in stores] == [special] * 2
        (contexts, stores), = nested.args_of("stacked_ntt")
        assert len(contexts) == level + 1
        assert [len(store) for store in stores] == [level + 1] * 2

    @pytest.mark.parametrize("resident", [False, True], ids=["coeff", "eval"])
    @pytest.mark.parametrize("sources", [1, 3])
    def test_a_hoist_is_one_stacked_ntt(self, keyed, sources, resident):
        """One BConv per digit for all sources, one ``stacked_ntt`` over
        ``sources x digits x (level+1+|P|)`` rows, one ``stacked_intt`` iff a
        source was evaluation-resident — nothing else."""
        params, _keys, relin, _ct = keyed
        level = params.max_level
        extended = level + 1 + len(params.special_moduli)
        for inner in BACKENDS:
            counting = _CountingBackend(inner)
            with use_backend(counting):
                polys = [_random_poly(params, 60 + i) for i in range(sources)]
                if resident:
                    polys[0] = polys[0].to_eval()
                for poly in polys:
                    poly.store()
                counting.log.clear()
                hoisted = hoist_wave(polys, params, level)
                wave_log, counting.log = counting.log, []
                singles = [hoist_decompose(poly, params, level) for poly in polys]
            assert [h.num_digits for h in hoisted] == [relin.num_digits] * sources
            assert sorted(name for name, _ in wave_log) == sorted(
                ["bconv_matmul"] * relin.num_digits
                + ["stacked_intt"] * resident + ["stacked_ntt"])
            forward, = [args for name, args in wave_log if name == "stacked_ntt"]
            assert self._rows_of(forward) == sources * relin.num_digits * extended
            if resident:
                inverse, = [args for name, args in wave_log if name == "stacked_intt"]
                assert self._rows_of(inverse) == level + 1
            # A wave's hoists are the single hoists, digit for digit.
            for got, expected in zip(hoisted, singles):
                assert [inner.store_rows(s) for s in got.digits] == [
                    inner.store_rows(s) for s in expected.digits]

    def _wave(self, keyed, inner):
        """(counting backend, members): three rotations and one
        relinearisation over two hoists, key transforms warmed."""
        params, keys, relin, ct = keyed
        level = params.max_level
        elements = [galois_element_for_rotation(params.ring_degree, steps)
                    for steps in (1, 2, 3)]
        counting = _CountingBackend(inner)
        with use_backend(counting):
            first, second = hoist_wave([ct.c0, ct.c1], params, level)
            members = [(first, keys.galois_key(g, level), g) for g in elements]
            members.append((second, relin, None))
            keyswitch_wave(members)              # first use transforms the keys
        counting.log.clear()
        return counting, members

    def test_a_wave_of_k_keyswitches_pays_one_mod_down(self, keyed):
        """One ``keyswitch_rows`` dispatch for the ``k`` members; inside the
        golden body, ``k`` MACs (a gather of every digit per Galois member),
        then one ``stacked_intt`` of ``2k x |P|`` rows, one BConv of all
        ``2k`` polynomials, one ``stacked_ntt`` of ``2k x (level+1)`` rows
        and ``2k`` subtract-and-scales."""
        params, _keys, relin, _ct = keyed
        level, special = params.max_level, len(params.special_moduli)
        for inner in [*BACKENDS, _NestedLog()]:
            counting, members = self._wave(keyed, inner)
            k = len(members)
            with use_backend(counting):
                getattr(inner, "log", []).clear()
                pairs = keyswitch_wave(members)
                assert all(f.domain == "eval" for pair in pairs for f in pair)
                wave_log, counting.log = counting.log, []
                nested = list(getattr(inner, "log", []))
                singles = [keyswitch_hoisted(*member) for member in members]
            assert [name for name, _ in wave_log] == ["keyswitch_rows"]
            assert len(wave_log[0][1][1]) == k
            assert [name for name, _ in counting.log] == ["keyswitch_rows"] * k
            assert [tuple(map(_rows, pair)) for pair in pairs] == [
                tuple(map(_rows, pair)) for pair in singles]
        assert sorted(name for name, _ in nested) == sorted(
            ["limbs_gather"] * (k - 1) * relin.num_digits + ["limbs_eval_mac"] * k
            + ["stacked_intt", "stacked_ntt", "bconv_matmul"]
            + ["batched_sub_scaled"] * 2 * k)
        inverse, = [args for name, args in nested if name == "stacked_intt"]
        forward, = [args for name, args in nested if name == "stacked_ntt"]
        assert self._rows_of(inverse) == 2 * k * special
        assert self._rows_of(forward) == 2 * k * (level + 1)

    def test_the_budget_cuts_a_wave_into_chunks(self, keyed, monkeypatch):
        """With the budget at one member's two accumulators every member is
        its own chunk: ``k`` dispatches of one member, the same residues."""
        params = keyed[0]
        member_elements = 2 * params.ring_degree * (
            params.max_level + 1 + len(params.special_moduli))
        for inner in BACKENDS:
            counting, members = self._wave(keyed, inner)
            with use_backend(counting):
                whole = keyswitch_wave(members)
                assert [len(args[1]) for args in counting.args_of("keyswitch_rows")] \
                    == [len(members)]
                counting.log.clear()
                monkeypatch.setattr(keyswitch_module, "WAVE_ELEMENTS", member_elements)
                cut = keyswitch_wave(members)
                monkeypatch.undo()
            assert [len(args[1]) for args in counting.args_of("keyswitch_rows")] \
                == [1] * len(members)
            assert [tuple(map(_rows, pair)) for pair in cut] == [
                tuple(map(_rows, pair)) for pair in whole]

    def test_rotate_hoisted_eval_resident_pays_no_ntt_after_the_hoist(self, keyed):
        params, keys, relin, ct = keyed
        level, special = ct.level, len(params.special_moduli)
        for steps in (1, 2):                     # generated on first use
            keys.galois_key(
                galois_element_for_rotation(params.ring_degree, steps), level)
        for inner in BACKENDS:
            counting = _CountingBackend(inner)
            evaluator = CKKSEvaluator(params, keys, backend=counting)
            resident = evaluator.to_eval(ct)
            evaluator.rotate_hoisted(resident, [1, 2])   # warms the key transforms
            counting.log.clear()
            rotated = evaluator.rotate_hoisted(resident, [1, 2])
            assert [r.domain for r in rotated] == ["eval", "eval"]
            kernels = [name for name, _ in counting.log]
            assert "batched_ntt" not in kernels and "batched_intt" not in kernels
            # The hoist: c1 back to coefficients, then every lifted digit
            # forward in one stacked dispatch; then both rotations' per-key
            # phase (their one evaluation-domain ModDown) in one dispatch.
            hoist = kernels[:kernels.index("keyswitch_rows")]
            assert sorted(hoist) == sorted(
                ["stacked_intt"] + ["bconv_matmul"] * relin.num_digits
                + ["stacked_ntt"])
            (inverse,) = counting.args_of("stacked_intt")
            (forward,) = counting.args_of("stacked_ntt")
            assert self._rows_of(inverse) == level + 1
            assert self._rows_of(forward) == relin.num_digits * (
                level + 1 + special)
            (contexts, members, _plan, scalars), = counting.args_of("keyswitch_rows")
            assert len(members) == 2
            assert (len(contexts), len(scalars)) == (level + 1 + special, level + 1)


@needs_numpy
class TestDecryptResidency:
    """``decrypt`` multiplies in the ciphertext's own domain against the
    secret's cached evaluation image: same plaintext rows whichever domain
    the pair arrives in, and the transforms are counted."""

    def test_either_domain_decrypts_to_the_same_rows(self, keyed):
        from repro.fhe.ckks.context import CKKSContext

        params, _keys, _relin, ct = keyed
        level = params.max_level
        resident = CKKSCiphertext(c0=ct.c0.to_eval(), c1=ct.c1.to_eval(),
                                  level=level, scale=ct.scale)
        for inner in BACKENDS:
            counting = _CountingBackend(inner)
            context = CKKSContext(params, seed=11, backend=counting)
            with use_backend(inner):
                # The path decrypt replaced: the secret reduced afresh and a
                # coefficient-domain convolution.
                secret = context.keys.secret.as_rns(params.ring_degree, ct.c0.basis)
                expected = _rows(ct.c0 + ct.c1 * secret)
            context.decrypt(ct)                          # builds the secret's image
            for pair, forward, inverse in ((ct, 1, 1), (resident, 0, 1)):
                counting.log.clear()
                plaintext = context.decrypt(pair)
                assert plaintext.poly.domain == "coeff"
                assert _rows(plaintext.poly) == expected
                kernels = [name for name, _ in counting.log]
                assert kernels.count("batched_ntt") == forward
                assert kernels.count("batched_intt") == inverse
                assert not {"limbs_convolution", "reduce_limbs", "stacked_ntt",
                            "stacked_intt"} & set(kernels)
            # One image per (backend, basis), shared by every later decrypt.
            assert len(context.keys.secret._eval_cache) == 1


def _coefficient_domain_key(params, secret, target, level, rng, stddev):
    """Oracle: one keyswitch key the way keys were made before they were
    made in groups — the source secret ``target`` as a coefficient-domain
    polynomial, one digit at a time, ``b = -(a * s) + e + s' * f_j``."""
    n = params.ring_degree
    moduli = list(params.moduli[: level + 1])
    extended = params.extended_basis(level)
    q_level = math.prod(moduli)
    p_product = math.prod(params.special_moduli)
    s = secret.as_rns(n, extended)
    digit_keys = []
    for start, stop in params.digit_slices(level):
        q_digit = math.prod(moduli[start:stop])
        q_hat = q_level // q_digit
        factor = p_product * q_hat * mod_inverse(q_hat % q_digit, q_digit)
        a = RNSPolynomial.sample_uniform(n, extended, rng)
        error = sample_error(n, extended, rng, stddev)
        digit_keys.append((-(a * s) + error + target * factor, a))
    return digit_keys


def _squared_coefficients(coefficients):
    """Oracle: ``s^2`` in Z[X]/(X^N + 1), the O(N^2) way."""
    n = len(coefficients)
    result = [0] * n
    for i, a in enumerate(coefficients):
        for j, b in enumerate(coefficients):
            k = i + j
            if k >= n:
                result[k - n] -= a * b
            else:
                result[k] += a * b
    return result


def _digit_rows(key):
    return [(_rows(b), _rows(a)) for b, a in key.digit_keys]


@pytest.mark.parametrize("params", PARAM_SETS, ids=PARAM_IDS)
class TestKeyGroups:
    """Evaluation keys made a group at a time are the keys made one at a
    time, and leave the generator where one-at-a-time generation leaves it."""

    @staticmethod
    def _two_keys_per_group(monkeypatch, params):
        level = params.max_level
        per_key = (len(params.digit_slices(level))
                   * len(params.extended_basis(level)) * params.ring_degree)
        monkeypatch.setattr(keys_module, "GROUP_RESIDUES", 2 * per_key)

    @pytest.mark.parametrize("grouping", ["one-stack", "two-keys-per-group"])
    def test_batches_equal_one_key_at_a_time(self, monkeypatch, params, grouping):
        if grouping == "two-keys-per-group":
            self._two_keys_per_group(monkeypatch, params)
        n, top = params.ring_degree, params.max_level
        steps = [1, 2, 3, 0, 5, 2, -1]               # an identity and a repeat
        mixed = [(5, top), (25, top), (5, top), (2 * n - 1, top - 1), (1, top),
                 (125, top), (25, top - 1), (125, top), (3, top)]
        for backend in BACKENDS:
            batch_gen = CKKSKeyGenerator(params, seed=5, backend=backend)
            single_gen = CKKSKeyGenerator(params, seed=5, backend=backend)
            batch, single = batch_gen.generate(), single_gen.generate()

            by_step = batch.ensure_rotation_keys(steps, top)
            assert sorted(by_step) == sorted({s for s in steps if s})
            for step in steps:
                g = galois_element_for_rotation(n, step)
                if g != 1:
                    assert _digit_rows(by_step[step]) == _digit_rows(
                        single.galois_key(g, top)), (backend.name, step)
            assert batch_gen.rng.getstate() == single_gen.rng.getstate()

            by_pair = batch.ensure_galois_keys(mixed)
            assert set(by_pair) == {pair for pair in mixed if pair[0] != 1}
            for g, level in mixed:
                if g != 1:
                    assert _digit_rows(by_pair[(g, level)]) == _digit_rows(
                        single.galois_key(g, level)), (backend.name, g, level)
            assert batch_gen.rng.getstate() == single_gen.rng.getstate()
            assert set(batch._galois_keys) == set(single._galois_keys)

    def test_evaluation_domain_targets_match_the_coefficient_oracles(self, params):
        """``s_eval * s_eval`` and the evaluation-domain gather stand in for
        ``s^2`` (integer coefficients, the O(N^2) loop) and ``sigma_g(s)``
        (the signed coefficient permutation)."""
        level = params.max_level
        for backend in BACKENDS:
            generator = CKKSKeyGenerator(params, seed=9, backend=backend)
            keys = generator.generate()
            oracle_rng = random.Random()
            oracle_rng.setstate(generator.rng.getstate())
            n, extended = params.ring_degree, params.extended_basis(level)
            with use_backend(backend):
                squared = RNSPolynomial.from_integer_coefficients(
                    n, extended, _squared_coefficients(keys.secret.coefficients))
                rotated = keys.secret.as_rns(n, extended).automorphism(25)
                expected = [
                    _coefficient_domain_key(
                        params, keys.secret, target, level, oracle_rng, 3.2)
                    for target in (squared, rotated)
                ]
            made = [keys.relinearization_key(level), keys.galois_key(25, level)]
            for key, digit_keys in zip(made, expected):
                assert _digit_rows(key) == [
                    (_rows(b), _rows(a)) for b, a in digit_keys], backend.name
            assert generator.rng.getstate() == oracle_rng.getstate()

    def test_a_level_costs_one_secret_transform_and_one_stack_pair_per_group(
            self, monkeypatch, params):
        self._two_keys_per_group(monkeypatch, params)
        level = params.max_level
        digits = len(params.digit_slices(level))
        for inner in BACKENDS:
            counting = _CountingBackend(inner)
            keys = CKKSKeyGenerator(params, seed=3, backend=counting).generate()
            counting.log.clear()
            keys.ensure_rotation_keys([1, 2, 3, 4, 5], level)     # 2 + 2 + 1 keys
            assert len(counting.args_of("batched_ntt")) == 1        # the secret
            assert not counting.args_of("batched_intt")
            for kernel in ("stacked_ntt", "stacked_intt"):
                assert [len(stores) for _contexts, stores in counting.args_of(kernel)] \
                    == [2 * digits, 2 * digits, digits], (inner.name, kernel)

    def test_lazy_keys_are_generated_on_the_generator_backend(self, params):
        """A key asked for later, under some other active backend, is still
        made on the backend its generator was created with."""
        pinned, ambient = _CountingBackend(PYTHON), _CountingBackend(BACKENDS[-1])
        keys = CKKSKeyGenerator(params, seed=3, backend=pinned).generate()
        pinned.log.clear()
        with use_backend(ambient):
            keys.ensure_rotation_keys([1, 2], params.max_level)
            keys.relinearization_key(params.max_level)
        assert len(pinned.args_of("stacked_ntt")) == 2
        assert ambient.log == []


@needs_numpy
def test_pinned_context_generates_rotation_keys_on_its_backend():
    """``CKKSContext(backend=X)`` pins key generation too: the BSGS rotation
    keys made later, outside any ``use_backend``, dispatch on ``X`` only."""
    from repro.fhe.ckks import BSGSLinearTransform, CKKSContext

    pinned, ambient = _CountingBackend(PACKED), _CountingBackend(PYTHON)
    context = CKKSContext(PARAM_SETS[0], seed=7, backend=pinned)
    matrix = [[(i + 2 * j) % 5 - 2 for j in range(8)] for i in range(8)]
    transform = BSGSLinearTransform.from_matrix(context.encoder, matrix)
    pinned.log.clear()
    with use_backend(ambient):
        generated = transform.generate_rotation_keys(context.keys)
    assert len(generated) >= 2
    assert pinned.args_of("stacked_ntt") and pinned.args_of("stacked_intt")
    assert ambient.log == []


class TestEvaluatorParity:
    """Evaluator-level NTT residency: bit-exact against the coefficient path."""

    def _evaluator(self, params, keys, backend):
        return CKKSEvaluator(params, keys, backend=backend)

    def test_multiply_matches_coeff_reference(self, keyed):
        params, keys, _relin, ct = keyed
        other = CKKSCiphertext(
            c0=_random_poly(params, 31), c1=_random_poly(params, 32),
            level=params.max_level, scale=float(params.scale),
        )
        reference = None
        for backend in BACKENDS:
            evaluator = self._evaluator(params, keys, backend)
            resident = evaluator.multiply(ct, other)
            assert resident.domain == "eval"
            coeff = evaluator._multiply_coeff(ct, other)
            assert coeff.domain == "coeff"
            converted = evaluator.to_coeff(resident)
            rows = (_rows(converted.c0), _rows(converted.c1))
            assert rows == (_rows(coeff.c0), _rows(coeff.c1)), backend.name
            if reference is None:
                reference = rows
            else:
                assert rows == reference  # cross-backend

    def test_multiply_rescale_multiply_chain(self, keyed):
        """The benchmark's chain shape, bit-exact end to end."""
        params, keys, _relin, ct = keyed
        if params.max_level < 2:
            pytest.skip("chain needs two rescale levels")
        other = CKKSCiphertext(
            c0=_random_poly(params, 33), c1=_random_poly(params, 34),
            level=params.max_level, scale=float(params.scale),
        )
        for backend in BACKENDS:
            evaluator = self._evaluator(params, keys, backend)
            lower = evaluator.mod_down_to(ct, params.max_level - 1)

            resident = evaluator.multiply(ct, other)
            resident = evaluator.rescale(resident)
            assert resident.domain == "eval"
            resident = evaluator.multiply(resident, lower)
            resident = evaluator.to_coeff(resident)

            coeff = evaluator._multiply_coeff(ct, other)
            coeff = evaluator.rescale(coeff)
            coeff = evaluator._multiply_coeff(coeff, lower)

            assert _rows(resident.c0) == _rows(coeff.c0), backend.name
            assert _rows(resident.c1) == _rows(coeff.c1), backend.name

    def test_rotate_hoisted_cross_backend(self, keyed):
        if numpy_missing:
            pytest.skip("needs both backends")
        params, keys, _relin, ct = keyed
        steps = [0, 1, 2, 5]
        results = {}
        for backend in BACKENDS:
            evaluator = self._evaluator(params, keys, backend)
            rotated = evaluator.rotate_hoisted(ct, steps)
            results[backend.name] = [
                (tuple(map(tuple, _rows(r.c0))), tuple(map(tuple, _rows(r.c1))))
                for r in rotated
            ]
        assert results["python"] == results["numpy"]

    def test_rotate_hoisted_domain_and_identity(self, keyed):
        params, keys, _relin, ct = keyed
        evaluator = self._evaluator(params, keys, BACKENDS[-1])
        rotated = evaluator.rotate_hoisted(ct, [0, 1])
        assert rotated[0].domain == "coeff"
        assert _rows(rotated[0].c0) == _rows(ct.c0)  # step 0 is the identity
        resident = evaluator.to_eval(ct)
        rotated_eval = evaluator.rotate_hoisted(resident, [1])
        assert rotated_eval[0].domain == "eval"
        converted = evaluator.to_coeff(rotated_eval[0])
        assert _rows(converted.c0) == _rows(rotated[1].c0)
        assert _rows(converted.c1) == _rows(rotated[1].c1)


# ---------------------------------------------------------------------------
# Encoder-based semantic tests (slot values; need numpy)
# ---------------------------------------------------------------------------

@needs_numpy
class TestSemantics:
    @pytest.fixture(scope="class")
    def context(self):
        from repro.fhe.ckks import CKKSContext

        return CKKSContext(
            CKKSParameters.toy(ring_degree=64, max_level=3, dnum=2), seed=7
        )

    def _decode(self, context, ct, count=None):
        return context.decrypt_vector(ct, num_values=count)

    def test_rotate_hoisted_matches_naive_rotation(self, context):
        slots = context.params.slots
        values = [float(i % 9) - 4 for i in range(slots)]
        ct = context.encrypt_vector(values)
        evaluator = context.evaluator
        steps = [1, 2, 3, 7]
        for steps_i, hoisted in zip(steps, evaluator.rotate_hoisted(ct, steps)):
            naive = evaluator.rotate(ct, steps_i)
            expected = values[steps_i:] + values[:steps_i]
            got_h = self._decode(context, hoisted)
            got_n = self._decode(context, naive)
            assert max(abs(a - e) for a, e in zip(got_h, expected)) < 0.1
            # Hoisting reorders sigma_g and BConv, which only perturbs the
            # keyswitch noise — decoded slots agree tightly with the naive path.
            assert max(abs(a - b) for a, b in zip(got_h, got_n)) < 1e-2

    def test_inner_sum_any_count(self, context):
        slots = context.params.slots
        values = [((3 * i) % 11 - 5) / 4.0 for i in range(slots)]
        evaluator = context.evaluator
        for count in (1, 2, 3, 5, 6, 7, 8, 12, slots):
            ct = context.encrypt_vector(values)
            summed = evaluator.inner_sum(ct, count)
            expected = sum(values[:count])
            got = self._decode(context, summed, 1)[0].real
            assert abs(got - expected) < 0.25, (count, got, expected)

    def test_inner_sum_rejects_nonpositive(self, context):
        ct = context.encrypt_vector([1.0])
        with pytest.raises(ValueError):
            context.evaluator.inner_sum(ct, 0)

    def test_bsgs_matvec_matches_cleartext(self, context):
        from repro.fhe.ckks import BSGSLinearTransform

        dim = 8
        slots = context.params.slots
        matrix = [
            [((3 * i + 5 * j) % 7 - 3) / 4.0 for j in range(dim)]
            for i in range(dim)
        ]
        x = [0.5, -1.0, 2.0, 0.25, -0.75, 1.5, -0.5, 1.0]
        transform = BSGSLinearTransform.from_matrix(context.encoder, matrix)
        generated = transform.generate_rotation_keys(context.keys)
        baby, giant = transform.rotation_steps()
        assert sorted(generated) == sorted(baby + giant)
        ct = context.encrypt_vector(x * (slots // dim))
        out = context.evaluator.rescale(transform.apply(context.evaluator, ct))
        got = [v.real for v in self._decode(context, out, dim)]
        expected = [sum(matrix[i][j] * x[j] for j in range(dim)) for i in range(dim)]
        assert max(abs(a - e) for a, e in zip(got, expected)) < 0.05

    def test_bsgs_rotation_counts_match_cost_model(self, context):
        """Functional hoisted-BSGS rotation counts == the cost model's
        ``(baby-1) hoisted + (giant-1) outer`` HRotate accounting
        (bootstrap.linear_transform_plan / LinearTransformPlan.num_rotations)."""
        from repro.fhe.ckks import BSGSLinearTransform

        dim = 16
        slots = context.params.slots
        matrix = [[(i + 2 * j) % 5 - 2 for j in range(dim)] for i in range(dim)]
        transform = BSGSLinearTransform.from_matrix(context.encoder, matrix)
        transform.generate_rotation_keys(context.keys)
        ct = context.encrypt_vector([1.0] * slots)
        transform.apply(context.evaluator, ct)

        plan = linear_transform_plan(slots, context.params.max_level, diagonals=dim)
        assert transform.plan.baby_steps == plan.baby_steps
        assert transform.plan.giant_steps == plan.giant_steps
        stats = transform.last_stats
        assert stats["hoisted_rotations"] == plan.baby_steps - 1
        assert stats["outer_rotations"] == plan.giant_steps - 1
        assert stats["rotations"] == plan.num_rotations
        assert stats["plain_multiplies"] == plan.num_plain_multiplies

    def test_multiply_plain_eval_resident(self, context):
        values = [1.0, -2.0, 0.5]
        ct = context.evaluator.to_eval(context.encrypt_vector(values))
        pt = context.encoder.encode([2.0, 3.0, -4.0])
        product = context.evaluator.multiply_plain(ct, pt)
        assert product.domain == "eval"
        rescaled = context.evaluator.rescale(product)
        got = self._decode(context, rescaled, 3)
        for a, e in zip(got, [2.0, -6.0, -2.0]):
            assert abs(a - e) < 0.1
