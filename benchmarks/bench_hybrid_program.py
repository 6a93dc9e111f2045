"""Benchmark: planned hybrid CKKS<->TFHE program vs the eager reference.

PR 10 taught the program pipeline to trace, plan, and execute mixed-scheme
programs; this benchmark gates what the hybrid planner buys on the
threshold-query shape ``examples/hybrid_database_query.py`` runs (per-slot
extract -> bridge keyswitch -> sign bootstrap -> repack):

* ``planned_hybrid_query`` — the full traced program, planned vs eager.
  Eager: one evaluator/bridge/PBS call per node.  Planned: the wave
  scheduler regroups the interleaved per-slot chains so all bootstraps run
  as one batched blind rotation and every key-boundary crossing of a wave
  runs as one stacked ``digits @ ksk`` dispatch.
* ``batched_pbs_wave`` — the isolated dispatch: one
  ``batched_programmable_bootstrap`` over a wave of independent LWEs vs
  one ``programmable_bootstrap`` per ciphertext.  Both sides run the same
  array-resident blind-rotation loop (``blind_rotate_wave``), so the pair
  measures what the wave width buys: sixteen wave-of-one runs pay every
  per-dispatch overhead sixteen times (measured 4.65-4.9x at wave 16).

Both pairs are checked **bit-exact** (wave regrouping, batched blind
rotation, and batched keyswitching are exact reorderings of the same
modular arithmetic — same integers, fewer dispatches).

Acceptance (``--check``, on by default, at the full 16-slot wave):
>= 1.3x on both kernels.  ``--min-speedup F`` replaces the thresholds
(the CI perf-smoke job uses 1.0: planned must never lose).

Run directly::

    PYTHONPATH=src python benchmarks/bench_hybrid_program.py [--quick] [--json]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import Dict, List

import conftest

from repro.fhe.backend import NumpyBackend, available_backends, use_backend
from repro.fhe.ckks import CKKSCiphertext, CKKSEvaluator, CKKSKeyGenerator
from repro.fhe.conversion.bridge import SchemeBridge
from repro.fhe.polynomial import sample_uniform
from repro.fhe.program import HETrace, ProgramExecutor, plan_program
from repro.fhe.rns import RNSPolynomial
from repro.fhe.tfhe.batched import batched_programmable_bootstrap, sign_test_vector
from repro.fhe.tfhe.pbs import TFHEContext
from repro.workloads.hybrid_workloads import hybrid_query_parameters

BENCH_NAME = "hybrid_program"

REQUIRED_SPEEDUPS = {
    "planned_hybrid_query": 1.3,
    "batched_pbs_wave": 1.3,
}

#: The gated configuration: the example's wave width (one bootstrap per
#: database row, all independent — the shape the wave scheduler regroups).
GATED_WAVE = 16

#: TFHE rings are small (N = 256, LWE vectors of 16..64 entries), far below
#: the numpy backend's default vectorization crossovers — zero them so both
#: paths run the same vectorized kernels and the measurement isolates
#: dispatch *shape* (batched vs per-member), not crossover tuning.
PACKED = NumpyBackend(min_vector_length=0, min_ntt_length=0)

BOOST = 1 << 28          # coefficient boost: clears the sign-bucket margin
AMPLITUDE = 1 << 16      # sign-bootstrap amplitude
THRESHOLD = 8


def _best_of(func, repeats: int):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def _values(nslot: int) -> List[int]:
    # Margins of >= 3 on either side of THRESHOLD keep every sign bootstrap
    # away from its bucket boundary at the gated parameters.
    return [(3, 14, 2, 13, 5, 11, 1, 12)[i % 8] for i in range(nslot)]


def _threshold_program(params, tparams, nslot: int):
    q0, qt = params.moduli[0], tparams.modulus
    encoded_threshold = round(THRESHOLD * params.scale * BOOST * qt / q0)
    trace = HETrace(params, tfhe_params=tparams)
    x = trace.input("x", level=1, scale=float(params.scale))
    boosted = x * BOOST
    bits = []
    for lwe in boosted.extract_lwes(nslot):
        diff = (-lwe.keyswitch_to_tfhe()).add_encoded(encoded_threshold)
        bits.append(diff.bootstrap_sign(AMPLITUDE))
    trace.output("mask", trace.repack([bit.keyswitch_to_ckks() for bit in bits]))
    trace.output("double", x + x)
    return trace.program


def _encrypt_column(params, keys, nslot: int) -> CKKSCiphertext:
    # Symmetric zero-noise encryption of the coefficient-packed column;
    # keeps the input path encoder-free (and therefore deterministic).
    n = params.ring_degree
    stride = n // nslot
    coefficients = [0] * n
    for j, value in enumerate(_values(nslot)):
        coefficients[j * stride] = value * params.scale
    basis = params.basis(1)
    rng = random.Random(0xB1D9E)
    secret = keys.secret.as_rns(n, basis)
    mask = RNSPolynomial(n, basis, [sample_uniform(n, q, rng) for q in basis])
    plain = RNSPolynomial.from_integer_coefficients(
        n, basis, [int(c) for c in coefficients])
    return CKKSCiphertext(c0=-(mask * secret) + plain, c1=mask,
                          level=1, scale=float(params.scale))


def _assert_bit_exact(planned_out, eager_out, label: str) -> None:
    def rows(ct):
        c0, c1 = ct.c0.to_coeff(), ct.c1.to_coeff()
        return (c0.coefficient_rows(), c1.coefficient_rows())

    for name in planned_out:
        if rows(planned_out[name]) != rows(eager_out[name]):
            raise AssertionError(
                f"{label}: planned output {name!r} is not bit-exact vs eager")


def run_hybrid_query_benchmark(nslot: int, repeats: int) -> Dict[str, object]:
    params, tparams = hybrid_query_parameters()
    program = _threshold_program(params, tparams, nslot)
    planned = plan_program(program, optimize=True)
    aligned = plan_program(program, optimize=False)

    keys = CKKSKeyGenerator(params, seed=11, error_stddev=0.0).generate()
    tfhe = TFHEContext(tparams, seed=7)
    bridge = SchemeBridge(params, keys.secret, tfhe, seed=7)
    executor = ProgramExecutor(
        CKKSEvaluator(params, keys, backend=PACKED), tfhe=tfhe, bridge=bridge)
    inputs = {"x": _encrypt_column(params, keys, nslot)}

    with use_backend(PACKED):
        def eager():
            return executor.run_eager(aligned, inputs)

        def planned_run():
            return executor.run(planned, inputs)

        eager()        # warm twiddle/key caches on both paths
        planned_run()
        eager_time, eager_result = _best_of(eager, repeats)
        planned_time, planned_result = _best_of(planned_run, repeats)
    _assert_bit_exact(planned_result, eager_result, "hybrid query")
    return {
        "kernel": "planned_hybrid_query",
        "ring_degree": params.ring_degree,
        "tfhe_polynomial_size": tparams.polynomial_size,
        "wave": nslot,
        "planner_stats": dict(planned.stats),
        "eager_seconds": eager_time,
        "planned_seconds": planned_time,
        "speedup": eager_time / planned_time if planned_time > 0 else float("inf"),
    }


def run_batched_pbs_benchmark(wave: int, repeats: int) -> Dict[str, object]:
    _, tparams = hybrid_query_parameters()
    context = TFHEContext(tparams, seed=7)
    with use_backend(PACKED):
        ciphertexts = [
            context.encrypt(i % tparams.plaintext_modulus) for i in range(wave)
        ]
        vectors = [sign_test_vector(context, AMPLITUDE)] * wave

        def sequential():
            return [
                context.programmable_bootstrap(ct, tv)
                for ct, tv in zip(ciphertexts, vectors)
            ]

        def batched():
            return batched_programmable_bootstrap(context, ciphertexts, vectors)

        sequential()
        batched()
        eager_time, eager_result = _best_of(sequential, repeats)
        planned_time, planned_result = _best_of(batched, repeats)
    for position, (out, ref) in enumerate(zip(planned_result, eager_result)):
        if out.a != ref.a or out.b != ref.b:
            raise AssertionError(
                f"batched PBS: member {position} is not bit-identical")
    return {
        "kernel": "batched_pbs_wave",
        "ring_degree": None,
        "tfhe_polynomial_size": tparams.polynomial_size,
        "wave": wave,
        "planner_stats": None,
        "eager_seconds": eager_time,
        "planned_seconds": planned_time,
        "speedup": eager_time / planned_time if planned_time > 0 else float("inf"),
    }


def print_table(records: List[Dict[str, object]]) -> None:
    header = (
        f"{'kernel':<24} {'wave':>5} {'N_tfhe':>7} "
        f"{'eager':>12} {'planned':>12} {'speedup':>9}"
    )
    print(header)
    print("-" * len(header))
    for rec in records:
        print(
            f"{rec['kernel']:<24} {rec['wave']:>5} "
            f"{rec['tfhe_polynomial_size']:>7} "
            f"{rec['eager_seconds'] * 1e3:>10.3f}ms "
            f"{rec['planned_seconds'] * 1e3:>10.3f}ms "
            f"{rec['speedup']:>8.2f}x"
        )


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="narrower wave and fewer repeats (CI smoke pass)")
    parser.add_argument("--no-check", dest="check", action="store_false",
                        help="skip the speedup acceptance assertions")
    parser.add_argument("--min-speedup", type=float, default=None, metavar="F",
                        help="replace every threshold with F "
                             "(CI uses 1.0: planned must not be slower)")
    conftest.add_json_argument(parser, BENCH_NAME)
    args = parser.parse_args(argv)

    if "numpy" not in available_backends():
        print("numpy is not installed; benchmark needs the vectorized backend.")
        return 0

    if args.quick:
        wave, repeats = 8, 1
    else:
        wave, repeats = GATED_WAVE, 3

    records = [
        run_hybrid_query_benchmark(wave, repeats),
        run_batched_pbs_benchmark(wave, repeats),
    ]
    print_table(records)

    if args.json:
        path = conftest.write_bench_json(
            args.json, BENCH_NAME, records,
            extra={"quick": args.quick, "gated_wave": GATED_WAVE},
        )
        print(f"\nwrote {path}")

    print()
    failures = []
    for rec in records:
        if args.min_speedup is not None:
            required = args.min_speedup
        elif rec["wave"] == GATED_WAVE and not args.quick:
            required = REQUIRED_SPEEDUPS[rec["kernel"]]
        else:
            continue
        status = "ok" if rec["speedup"] >= required else "FAILED"
        print(
            f"{rec['kernel']} (wave {rec['wave']}): {rec['speedup']:.2f}x "
            f"(required >= {required:.1f}x) {status}"
        )
        if rec["speedup"] < required:
            failures.append(f"{rec['kernel']}@wave{rec['wave']}")
    if args.check and failures:
        print(f"FAILED: below threshold: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
