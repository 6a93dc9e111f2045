"""The speed ratios no other instrument in the repo reports, as benchmark pairs.

End-to-end speed is measured by the repo benchmark (``benchmarks/e2e``) and
exactness is asserted in tier-1; left here are nine families of fast-path /
reference-path pairs whose ratio neither shows.  Each pair is a
pytest-benchmark group of two rows, so the grouped table's ratio column *is*
the speed-up (the fast path reads ``(1.0)``):

* numpy vs python backend on ``ntt_forward`` and ``negacyclic_convolution``
  (N = 2^12, one 40-bit prime) — the e2e workloads only ever run the numpy
  backend;
* ``rotate_hoisted`` vs one ``rotate`` per step on a 16-step BSGS rotation
  set (N = 2^12, L = 8, 30-bit) — the traced round reports planned programs,
  where hoists are already fused;
* the NTT-resident ``multiply`` vs the coefficient-domain reference
  ``_multiply_coeff`` through multiply -> rescale -> multiply (same ring);
* planned vs eager ``PackedBootstrap.refresh`` (N = 2^10, L = 13, 30-bit) —
  no e2e workload bootstraps;
* the native (C) vs the golden word-32 transform on one ``stacked_ntt`` of
  36 rows (N = 2^11, 30-bit) — the e2e workloads run only what the box
  built, so this is the per-kernel price of an install without a compiler;
* the native (C) vs the golden word-64 transform on one ``stacked_ntt`` of
  the hybrid query's repack shape (16 stores of its 40/42-bit extended
  basis, N = 64) — the same;
* the native (C) vs the golden word-32 multiply-accumulate on one keyswitch
  ``limbs_eval_mac`` (N = 2^11, 12 limbs, 3 digits x 2 components) — the
  same;
* the native (C) vs the numpy TFHE gadget decomposition on one blind-rotation
  wave's ``gadget_decompose_rows`` (32 rows, N = 256, 5 levels, the hybrid
  31-bit modulus) — the same.

One fixed size per pair and no thresholds: the numbers are read, not gated
(``--benchmark-json`` is the CI artifact).  A pair leaves this module when
the repo benchmark adopts it as a layer metric.

    PYTHONPATH=src python -m pytest benchmarks/bench_pairs.py
"""

import math
import random

import pytest

pytest.importorskip("numpy")

from repro.fhe import modmath, native
from repro.fhe.backend import NumpyBackend, use_backend
from repro.fhe.ckks import CKKSContext, PackedBootstrap
from repro.fhe.ntt import NTTContext
from repro.fhe.params import CKKSParameters, TFHEParameters
from repro.fhe.tfhe.ggsw import gadget_factors
from repro.workloads.hybrid_workloads import hybrid_query_parameters


@pytest.fixture(scope="module", autouse=True)
def numpy_backend():
    """Every pair runs on the numpy backend whatever ``REPRO_BACKEND`` says;
    only the python rows of the first family switch away from it."""
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
# native vs golden word-32 transform, N = 2^11, 36 rows
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
    group="native vs golden: word-32 stacked_ntt (N=2^11, 36 rows, 30-bit)")
@pytest.mark.parametrize("core", ["native", "golden"])
def test_word32_transform_core(benchmark, limb_stack, core, monkeypatch):
    if core == "native" and native.library() is None:
        pytest.skip("the native library did not build on this box")
    if core == "golden":
        # Without the library the transforms are the golden ones.
        monkeypatch.setattr(native, "library", lambda: None)
    backend = NumpyBackend()
    contexts, stores = limb_stack
    backend.stacked_ntt(contexts, stores)          # tables outside the timing
    benchmark(backend.stacked_ntt, contexts, stores)


# ---------------------------------------------------------------------------
# native vs golden word-64 transform, the hybrid query's repack shape
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
    group="native vs golden: word-64 stacked_ntt (N=64, 16 stores, 40/42-bit)")
@pytest.mark.parametrize("core", ["native", "golden"])
def test_word64_transform_core(benchmark, repack_stack, core, monkeypatch):
    if core == "native" and native.library() is None:
        pytest.skip("the native library did not build on this box")
    if core == "golden":
        # Without the library the word-64 transforms are the golden ones.
        monkeypatch.setattr(native, "library", lambda: None)
    backend = NumpyBackend(min_vector_length=0, min_ntt_length=0)
    contexts, stores = repack_stack
    backend.stacked_ntt(contexts, stores)          # tables outside the timing
    benchmark(backend.stacked_ntt, contexts, stores)


# ---------------------------------------------------------------------------
# native vs golden word-32 multiply-accumulate, N = 2^11, 12 limbs
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
    group="native vs golden: word-32 limbs_eval_mac (N=2^11, 12 limbs, 3x2 terms)")
@pytest.mark.parametrize("core", ["native", "golden"])
def test_word32_eval_mac(benchmark, eval_mac_operands, core, monkeypatch):
    if core == "native" and native.library() is None:
        pytest.skip("the native library did not build on this box")
    if core == "golden":
        # Without the library the multiply-accumulate is the golden one.
        monkeypatch.setattr(native, "library", lambda: None)
    backend = NumpyBackend()
    contexts, digits, keys = eval_mac_operands
    handles = [tuple(backend.limbs_eval_key(contexts, key) for key in pair)
               for pair in keys]
    # Key images outside the timing (the golden handle takes them on first use).
    backend.limbs_eval_mac(contexts, digits, handles)
    benchmark(backend.limbs_eval_mac, contexts, digits, handles)


# ---------------------------------------------------------------------------
# native vs numpy gadget decomposition, one blind-rotation wave
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
    group="native vs numpy: gadget_decompose_rows (32 rows, N=256, 5 levels, 31-bit)")
@pytest.mark.parametrize("core", ["native", "numpy"])
def test_gadget_decompose_rows(benchmark, wave_rows, core, monkeypatch):
    if core == "native" and native.library() is None:
        pytest.skip("the native library did not build on this box")
    if core == "numpy":
        monkeypatch.setattr(native, "library", lambda: None)
    benchmark(NumpyBackend().gadget_decompose_rows, *wave_rows)
