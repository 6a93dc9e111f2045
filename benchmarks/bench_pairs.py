"""The speed ratios no other instrument in the repo reports, as benchmark pairs.

End-to-end speed is measured by the repo benchmark (``benchmarks/e2e``) and
exactness is asserted in tier-1; left here are thirteen families of fast-path /
reference-path pairs whose ratio neither shows.  Each pair is a
pytest-benchmark group of two rows, so the grouped table's ratio column *is*
the speed-up (the fast path reads ``(1.0)``):

* numpy vs python backend on ``NTTContext.forward`` and
  ``NTTContext.negacyclic_convolution`` (N = 2^12, one 40-bit prime), which
  dispatch ``ntt_forward_batch`` on a batch of one and ``limbs_convolution``
  on one-row stores (the groups keep their ``ntt_forward`` /
  ``negacyclic_convolution`` names) — the e2e workloads only ever run the
  numpy backend;
* ``rotate_hoisted`` vs one ``rotate`` per step on a 16-step BSGS rotation
  set (N = 2^12, L = 8, 30-bit) — the traced round reports planned programs,
  where hoists are already fused;
* the NTT-resident ``multiply`` vs the coefficient-domain reference
  ``_multiply_coeff`` through multiply -> rescale -> multiply (same ring);
* planned vs eager ``PackedBootstrap.refresh`` (N = 2^10, L = 13, 30-bit) —
  no e2e workload bootstraps;
* the numpy backend's native (C) word-32 transform vs the python backend's
  on one ``stacked_ntt`` of 36 rows (N = 2^11, 30-bit) — the e2e workloads
  run only the numpy backend, and an install without a compiler runs the
  python one, so this is that install's per-kernel price;
* the native (C) vs the python word-64 transform on one ``stacked_ntt`` of
  the hybrid query's repack shape (16 stores of its 40/42-bit extended
  basis, N = 64) — the same;
* the native (C) vs the python word-32 multiply-accumulate on one keyswitch
  ``limbs_eval_mac`` (N = 2^11, 12 limbs, 3 digits x 2 components) — the
  same;
* the native (C) vs the python word-32 fixed-scalar product on one ModDown
  ``batched_sub_scaled`` (N = 2^11, 9 limbs, 30-bit) — the same;
* the native (C) vs the python TFHE gadget decomposition on one
  blind-rotation wave's ``gadget_decompose_rows`` (32 rows, N = 256, 5
  levels, the hybrid 31-bit modulus) — the same;
* the native (C) vs the python blind rotation on one wave's whole CMux loop,
  ``blind_rotate_rows`` (16 members, N = 256, 5 levels, 16 steps, the
  hybrid 31-bit modulus) — the same;
* the native (C) vs the python per-key phase of one keyswitch wave,
  ``keyswitch_rows`` (8 Galois members of one hoist, N = 2^10, L = 8,
  ``serve_wire_dense``'s 30/32-bit chain) — the same;
* the native (C) vs the python draws of one evaluation-key group,
  ``sample_limbs`` (7 keys x 3 digits, a mask and an error each, over the
  12 limbs of N = 2^10, L = 8: ``client_keygen_encrypt``'s shape) — the
  same.

One fixed size per pair and no thresholds: the numbers are read, not gated
(``--benchmark-json`` is the CI artifact).  A pair leaves this module when
the repo benchmark adopts it as a layer metric.

    PYTHONPATH=src python -m pytest benchmarks/bench_pairs.py
"""

import math
import random

import pytest

from repro.fhe import modmath
from repro.fhe.backend import (
    NumpyBackend,
    PythonBackend,
    available_backends,
    use_backend,
)
from repro.fhe.ckks import CKKSContext, PackedBootstrap
from repro.fhe.ntt import NTTContext
from repro.fhe.params import CKKSParameters, TFHEParameters
from repro.fhe.tfhe.ggsw import gadget_factors
from repro.workloads.hybrid_workloads import hybrid_query_parameters

if "numpy" not in available_backends():
    pytest.skip("no numpy backend here (it needs numpy and the native library)",
                allow_module_level=True)


@pytest.fixture(scope="module", autouse=True)
def numpy_backend():
    """Every pair runs on the numpy backend whatever ``REPRO_BACKEND`` says;
    only the python rows switch away from it."""
    with use_backend("numpy"):
        yield


def word_size_context(degree, level, dnum, scale_bits, seed, hamming_weight):
    """A noiseless CKKS instance over 30-bit (single-word kernel) moduli."""
    params = CKKSParameters(
        ring_degree=degree, max_level=level, dnum=dnum, scale_bits=scale_bits,
        modulus_bits=30, special_modulus_bits=32, security_bits=0,
        name="ckks-bench-pairs",
    )
    return CKKSContext(params, seed=seed, error_stddev=0.0,
                       secret_hamming_weight=hamming_weight)


# ---------------------------------------------------------------------------
# numpy vs python backend, one 40-bit prime at N = 2^12
# ---------------------------------------------------------------------------

KERNELS = {
    "ntt_forward": lambda context, a, b: context.forward(a),
    "negacyclic_convolution":
        lambda context, a, b: context.negacyclic_convolution(a, b),
}


@pytest.fixture(scope="module")
def ring():
    degree = 1 << 12
    q = modmath.find_ntt_prime(40, degree)
    rng = random.Random(0xBE7C)
    a, b = ([rng.randrange(q) for _ in range(degree)] for _ in range(2))
    context = NTTContext(degree, q)
    for kernel in KERNELS.values():
        kernel(context, a, b)   # numpy table caches are built outside the timing
    return context, a, b


@pytest.mark.parametrize("backend", ["numpy", "python"])
@pytest.mark.parametrize("kernel", [
    pytest.param(name, marks=pytest.mark.benchmark(
        group=f"numpy vs python: {name} (N=2^12, 40-bit)"))
    for name in KERNELS
])
def test_backend_kernel(benchmark, ring, kernel, backend):
    with use_backend(backend):
        benchmark(KERNELS[kernel], *ring)


# ---------------------------------------------------------------------------
# hoisted vs naive BSGS rotations, N = 2^12, L = 8
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def context():
    """The ring the rotation and multiply pairs share.  A sparse secret keeps
    the Galois and relinearization key material cheap to derive at N=2^12."""
    return word_size_context(1 << 12, 8, 3, 26, seed=17, hamming_weight=64)


@pytest.fixture(scope="module")
def rotations(context):
    slots = context.params.slots
    ct = context.encrypt_vector([((7 * i) % 23 - 11) / 8.0 for i in range(slots)])
    steps = list(range(1, 17))
    # Neither row measures key generation or the eval-domain key caches.
    context.keys.ensure_rotation_keys(steps, context.params.max_level)
    evaluator = context.evaluator
    evaluator.rotate_hoisted(ct, steps)
    evaluator.rotate(ct, steps[0])
    return evaluator, ct, steps


ROTATIONS = "hoisted vs naive: 16 BSGS rotations (N=2^12, L=8, 30-bit)"


@pytest.mark.benchmark(group=ROTATIONS)
def test_rotations_hoisted(benchmark, rotations):
    evaluator, ct, steps = rotations
    benchmark(evaluator.rotate_hoisted, ct, steps)


@pytest.mark.benchmark(group=ROTATIONS)
def test_rotations_naive(benchmark, rotations):
    evaluator, ct, steps = rotations
    benchmark(lambda: [evaluator.rotate(ct, step) for step in steps])


# ---------------------------------------------------------------------------
# NTT-resident vs coefficient-domain multiply -> rescale -> multiply
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def chain(context):
    evaluator = context.evaluator
    a = context.encrypt_vector([1.25, -0.5, 2.0, 0.75])
    b = context.encrypt_vector([0.5, 1.5, -1.0, 0.25])
    c = evaluator.mod_down_to(context.encrypt_vector([2.0, 0.5, 1.0, -0.5]),
                              context.params.max_level - 1)

    def run(multiply):
        return evaluator.to_coeff(
            multiply(evaluator.rescale(multiply(a, b)), c))

    run(evaluator.multiply)          # relinearization keys, twiddle caches
    run(evaluator._multiply_coeff)
    return run, evaluator


CHAIN = "resident vs coefficient: multiply-rescale-multiply (N=2^12, L=8, 30-bit)"


@pytest.mark.benchmark(group=CHAIN)
def test_multiply_chain_resident(benchmark, chain):
    run, evaluator = chain
    benchmark(run, evaluator.multiply)


@pytest.mark.benchmark(group=CHAIN)
def test_multiply_chain_coefficient(benchmark, chain):
    run, evaluator = chain
    benchmark(run, evaluator._multiply_coeff)


# ---------------------------------------------------------------------------
# planned vs eager packed bootstrap, N = 2^10, L = 13
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bootstrap():
    # A very sparse secret keeps the ModRaise overflow bound (and with it the
    # sine approximation radius) small, like tests/test_bootstrap.py.
    small = word_size_context(1 << 10, 13, 4, 30, seed=31, hamming_weight=2)
    packed = PackedBootstrap(
        small.encoder, c2s_stages=2, s2c_stages=2, sine_degree=15,
        double_angle_iters=2, integer_bound=3,
    )
    packed.generate_keys(small.keys)
    ct = small.encrypt_vector(
        [0.03 * math.cos(0.1 * i) for i in range(small.params.slots)], level=0)
    packed.refresh(small.evaluator, ct)               # plans, plaintext encodings
    packed.refresh(small.evaluator, ct, eager=True)
    return packed, small.evaluator, ct


BOOTSTRAP = "planned vs eager: PackedBootstrap.refresh (N=2^10, L=13, 30-bit)"


@pytest.mark.benchmark(group=BOOTSTRAP)
def test_bootstrap_planned(benchmark, bootstrap):
    packed, evaluator, ct = bootstrap
    benchmark(packed.refresh, evaluator, ct)


@pytest.mark.benchmark(group=BOOTSTRAP)
def test_bootstrap_eager(benchmark, bootstrap):
    packed, evaluator, ct = bootstrap
    benchmark(packed.refresh, evaluator, ct, eager=True)


# ---------------------------------------------------------------------------
# native vs python word-32 transform, N = 2^11, 36 rows
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def limb_stack():
    """Four 9-limb stores of 30-bit residues: 36 rows at N = 2^11."""
    import numpy as np

    degree = 1 << 11
    contexts = tuple(NTTContext(degree, q)
                     for q in modmath.find_ntt_primes(30, degree, 9))
    moduli = np.array([c.modulus for c in contexts], dtype=np.uint64)[:, None]
    rng = np.random.default_rng(0x5EED)
    return contexts, [rng.integers(0, 1 << 62, size=(9, degree), dtype=np.uint64)
                      % moduli for _ in range(4)]


@pytest.mark.benchmark(
    group="native vs python: word-32 stacked_ntt (N=2^11, 36 rows, 30-bit)")
@pytest.mark.parametrize("core", ["native", "python"])
def test_word32_transform_core(benchmark, limb_stack, core):
    backend = NumpyBackend() if core == "native" else PythonBackend()
    contexts, stores = limb_stack
    backend.stacked_ntt(contexts, stores)          # tables outside the timing
    benchmark(backend.stacked_ntt, contexts, stores)


# ---------------------------------------------------------------------------
# native vs python word-64 transform, the hybrid query's repack shape
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def repack_stack():
    """16 stores over the hybrid query's level-0 extended basis (N = 64)."""
    import numpy as np

    params = hybrid_query_parameters()[0]
    moduli = params.extended_basis(0).moduli
    contexts = tuple(NTTContext(params.ring_degree, q) for q in moduli)
    column = np.array(moduli, dtype=np.uint64)[:, None]
    rng = np.random.default_rng(0x64)
    return contexts, [rng.integers(0, 1 << 62, size=column.shape[:1] + (64,),
                                   dtype=np.uint64) % column for _ in range(16)]


@pytest.mark.benchmark(
    group="native vs python: word-64 stacked_ntt (N=64, 16 stores, 40/42-bit)")
@pytest.mark.parametrize("core", ["native", "python"])
def test_word64_transform_core(benchmark, repack_stack, core):
    backend = (NumpyBackend(min_vector_length=0, min_ntt_length=0)
               if core == "native" else PythonBackend())
    contexts, stores = repack_stack
    backend.stacked_ntt(contexts, stores)          # tables outside the timing
    benchmark(backend.stacked_ntt, contexts, stores)


# ---------------------------------------------------------------------------
# native vs python word-32 multiply-accumulate, N = 2^11, 12 limbs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def eval_mac_operands():
    """3 digits of 12 30/32-bit limbs and their keys' 2 components."""
    import numpy as np

    degree = 1 << 11
    moduli = modmath.find_ntt_primes(30, degree, 9) + modmath.find_ntt_primes(32, degree, 3)
    contexts = tuple(NTTContext(degree, q) for q in moduli)
    column = np.array(moduli, dtype=np.uint64)[:, None]
    rng = np.random.default_rng(0x3AC)
    stores = [rng.integers(0, 1 << 62, size=(12, degree), dtype=np.uint64) % column
              for _ in range(9)]
    return contexts, stores[:3], [stores[3 + 2 * j:5 + 2 * j] for j in range(3)]


@pytest.mark.benchmark(
    group="native vs python: word-32 limbs_eval_mac (N=2^11, 12 limbs, 3x2 terms)")
@pytest.mark.parametrize("core", ["native", "python"])
def test_word32_eval_mac(benchmark, eval_mac_operands, core):
    backend = NumpyBackend() if core == "native" else PythonBackend()
    contexts, digits, keys = eval_mac_operands
    handles = [tuple(backend.limbs_eval_key(contexts, key) for key in pair)
               for pair in keys]
    # Key images outside the timing (the python handle takes them on first use).
    backend.limbs_eval_mac(contexts, digits, handles)
    benchmark(backend.limbs_eval_mac, contexts, digits, handles)


# ---------------------------------------------------------------------------
# native vs python word-32 fixed-scalar product, ModDown's shape
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mod_down_operands():
    """ModDown's ``(a - b) * P^-1`` over 9 30-bit limbs at N = 2^11: the
    accumulator, the converted special part and the scalars."""
    import numpy as np

    degree = 1 << 11
    moduli = modmath.find_ntt_primes(30, degree, 9)
    column = np.array(moduli, dtype=np.uint64)[:, None]
    rng = np.random.default_rng(0x5CA1E)
    a, b = (rng.integers(0, 1 << 62, size=(9, degree), dtype=np.uint64) % column
            for _ in range(2))
    scalars = [int(v) for v in rng.integers(1, 1 << 29, size=9)]
    return a, b, scalars, moduli


@pytest.mark.benchmark(
    group="native vs python: word-32 batched_sub_scaled (N=2^11, 9 limbs, 30-bit)")
@pytest.mark.parametrize("core", ["native", "python"])
def test_word32_sub_scaled(benchmark, mod_down_operands, core):
    backend = NumpyBackend() if core == "native" else PythonBackend()
    benchmark(backend.batched_sub_scaled, *mod_down_operands)


# ---------------------------------------------------------------------------
# native vs python gadget decomposition, one blind-rotation wave
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def wave_rows():
    """16 members x 2 GLWE components of the hybrid ring (N = 256) and the
    bsk's 5 gadget factors."""
    import numpy as np

    params = TFHEParameters.hybrid()
    q = params.modulus
    rows = np.random.default_rng(0xDEC).integers(
        0, q, size=(32, params.polynomial_size), dtype=np.uint64)
    return rows, q, gadget_factors(q, 1 << params.bsk_base_log, params.bsk_levels)


@pytest.mark.benchmark(
    group="native vs python: gadget_decompose_rows (32 rows, N=256, 5 levels, 31-bit)")
@pytest.mark.parametrize("core", ["native", "python"])
def test_gadget_decompose_rows(benchmark, wave_rows, core):
    backend = NumpyBackend() if core == "native" else PythonBackend()
    benchmark(backend.gadget_decompose_rows, *wave_rows)


# ---------------------------------------------------------------------------
# native vs python blind rotation, one wave's whole CMux loop
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def wave_loop():
    """``blind_rotate_rows``' arguments at ``lib_hybrid_query``'s wave shape:
    16 members x 2 GLWE components of the hybrid ring (N = 256), 16 steps
    against a random 16 x 20-row evaluation-domain key, 5 gadget levels."""
    import numpy as np

    params = TFHEParameters.hybrid()
    n, q, group = params.polynomial_size, params.modulus, 2
    factors = gadget_factors(q, 1 << params.bsk_base_log, params.bsk_levels)
    rng = np.random.default_rng(0xC0C)
    accumulator = rng.integers(0, q, size=(16 * group, n), dtype=np.uint64)
    key = rng.integers(0, q, size=(16 * group * len(factors) * group, n),
                       dtype=np.uint64)
    degrees = rng.integers(0, 2 * n, size=(16, 16)).tolist()
    return NTTContext(n, q), accumulator, degrees, key, factors, group


@pytest.mark.benchmark(
    group="native vs python: blind_rotate_rows (16 members, N=256, 5 levels, 16 steps)")
@pytest.mark.parametrize("core", ["native", "python"])
def test_blind_rotate_rows(benchmark, wave_loop, core):
    backend = NumpyBackend() if core == "native" else PythonBackend()
    benchmark(backend.blind_rotate_rows, *wave_loop)


# ---------------------------------------------------------------------------
# native vs python per-key phase of a keyswitch wave
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def keyswitch_wave_operands():
    """``keyswitch_rows``' arguments at ``serve_wire_dense``'s shape: N =
    2^10, L = 8 (9 Q limbs, its 32-bit P), the digits of one hoist and 8
    Galois members, each with its own random evaluation-domain key."""
    import numpy as np

    from repro.fhe.ckks.keyswitch import _mod_down_constants
    from repro.fhe.polynomial import galois_eval_spec
    from repro.fhe.rns import _bconv_plan, _limb_contexts

    params = CKKSParameters(ring_degree=1 << 10, max_level=8, dnum=3, scale_bits=26,
                            modulus_bits=30, special_modulus_bits=32, security_bits=0)
    level, n = params.max_level, params.ring_degree
    extended = params.extended_basis(level)
    contexts = _limb_contexts(n, extended)
    column = np.array(extended.moduli, dtype=np.uint64)[:, None]
    rng = np.random.default_rng(0x4B5)
    digits = len(params.digit_slices(level))

    def stores(count):
        return [rng.integers(0, 1 << 62, size=(len(extended), n), dtype=np.uint64)
                % column for _ in range(count)]

    hoist = stores(digits)
    keys = [[tuple(stores(2)) for _ in range(digits)] for _ in range(8)]
    specs = [galois_eval_spec(n, pow(5, step, 2 * n)) for step in range(1, 9)]
    return (contexts, hoist, keys, specs,
            _bconv_plan(params.special_basis(), params.basis(level)),
            _mod_down_constants(params, level))


@pytest.mark.benchmark(
    group="native vs python: keyswitch_rows (8 Galois members, N=2^10, L=8)")
@pytest.mark.parametrize("core", ["native", "python"])
def test_keyswitch_rows(benchmark, keyswitch_wave_operands, core):
    backend = NumpyBackend() if core == "native" else PythonBackend()
    contexts, hoist, keys, specs, plan, scalars = keyswitch_wave_operands
    members = [(hoist, [tuple(backend.limbs_eval_key(contexts, image) for image in pair)
                        for pair in key], spec) for key, spec in zip(keys, specs)]
    # Key images outside the timing (the python handle takes them on first use).
    backend.keyswitch_rows(contexts, members, plan, scalars)
    benchmark(backend.keyswitch_rows, contexts, members, plan, scalars)


# ---------------------------------------------------------------------------
# native vs python draws of one key group
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def key_group_draws():
    """One evaluation-key group's draws at ``client_keygen_encrypt``'s
    shape: 7 keys x 3 digits, each a uniform mask and a sigma = 3.2 error
    over the 12 limbs of N = 2^10, L = 8 (30/32-bit), key by key."""
    params = CKKSParameters(ring_degree=1 << 10, max_level=8, dnum=3, scale_bits=26,
                            modulus_bits=30, special_modulus_bits=32, security_bits=0)
    moduli = tuple(params.extended_basis(params.max_level).moduli)
    digits = len(params.digit_slices(params.max_level))
    draws = [(moduli, stddev) for _ in range(7 * digits) for stddev in (None, 3.2)]
    return draws, params.ring_degree


@pytest.mark.benchmark(
    group="native vs python: sample_limbs (one key group: 7 keys x 3 digits, 12 limbs, N=2^10)")
@pytest.mark.parametrize("core", ["native", "python"])
def test_key_group_draws(benchmark, key_group_draws, core):
    backend = NumpyBackend() if core == "native" else PythonBackend()
    draws, n = key_group_draws
    rng = random.Random(0x6E7)
    benchmark(backend.sample_limbs, rng, draws, n)
