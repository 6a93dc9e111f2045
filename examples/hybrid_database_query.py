"""Hybrid-scheme database query: the HE3DB / TPC-H Query 6 scenario.

This is the workload that motivates a *multi-modal* accelerator: the query's
filter predicates are logic (TFHE), the aggregation is arithmetic (CKKS), and
scheme conversion sits between them.

The example runs in three parts:

1. the *functional* query, end to end and fully encrypted, as one traced
   hybrid :class:`HEProgram`: a CKKS-encrypted price column crosses into the
   TFHE domain (SampleExtract + bridge keyswitch), a sign bootstrap per row
   evaluates ``price <= threshold`` under encryption, the mask bits repack
   into a CKKS ciphertext, and a plaintext convolution folds the filtered
   sum into one coefficient — alongside a slot-encoded ``inner_sum`` grand
   total.  The optimizing planner's output decrypts bit-exact to the eager
   reference, and the program lowers onto the interleaved Trinity scheduler
   for a cycle estimate;
2. the *serving* view: the same hybrid program hosted on the multi-tenant
   ``repro.serve`` scheduler — a provisioned tenant is served bit-exact,
   a CKKS-only tenant gets a typed :class:`SchemeMismatchError`;
3. the *performance* view: the HE3DB-4096 and HE3DB-16384 workloads on
   Trinity, the SHARP+Morphling two-chip system, and the CPU baseline
   (Table X of the paper).
"""

from repro.baselines import SharpPlusMorphling, cpu_hybrid_baseline
from repro.core import TrinityAccelerator
from repro.fhe.ckks import CKKSContext
from repro.fhe.ckks.evaluator import CKKSEvaluator
from repro.fhe.conversion.bridge import SchemeBridge
from repro.fhe.program import (
    HETrace,
    ProgramExecutor,
    hybrid_cycle_estimate,
    lower_hybrid_to_workloads,
    plan_program,
)
from repro.fhe.tfhe import TFHEContext
from repro.serve import InferenceRequest, InferenceServer, SchemeMismatchError
from repro.workloads import he3db_hybrid_segments, he3db_workload
from repro.workloads.hybrid_workloads import hybrid_query_parameters

PRICES = [120, 340, 75, 910]
THRESHOLD = 200
NSLOT = 4
BOOST = 1 << 24     # lifts the message so modswitch rounding is negligible
AMPLITUDE = 1 << 16  # sign-bootstrap output amplitude (mask encoding / 2)


def build_contexts():
    """One CKKS context, one TFHE context, and the bridge between them."""
    params, tparams = hybrid_query_parameters()
    ckks = CKKSContext(params, seed=7, error_stddev=0.0)
    tfhe = TFHEContext(tparams, seed=7)
    bridge = SchemeBridge(params, ckks.keys.secret, tfhe, seed=7)
    return params, tparams, ckks, tfhe, bridge


def threshold_filter(trace_input, encoder, params, tparams):
    """The hybrid filter body: CKKS column -> TFHE comparisons -> CKKS sum.

    Returns the ``filtered`` handle whose coefficient ``N - 1`` holds
    ``sum(price_j * [price_j <= THRESHOLD])`` times the mask encoding
    factor.  Usable both directly on a trace and as a hosted-program
    ``trace_fn``.
    """
    q0, qt = params.moduli[0], tparams.modulus
    n = params.ring_degree
    stride = n // NSLOT
    threshold_encoded = round(THRESHOLD * params.scale * BOOST * qt / q0)

    boosted = trace_input * BOOST
    mask_bits = []
    for lwe in boosted.extract_lwes(NSLOT):
        # phase(T - p) >= 0  <=>  p <= T; the sign bootstrap turns that
        # into an exact {2 * AMPLITUDE, 0} mask bit on the small key.
        diff = (-lwe.keyswitch_to_tfhe()).add_encoded(threshold_encoded)
        mask_bits.append(diff.bootstrap_sign(AMPLITUDE))
    mask = trace_input.trace.repack(
        [bit.keyswitch_to_ckks() for bit in mask_bits])
    # Plaintext convolution: price_j at coefficient N-1-j*stride pairs with
    # mask_j at j*stride, folding the filtered sum into coefficient N-1.
    reversed_prices = [0] * n
    for j, price in enumerate(PRICES):
        reversed_prices[n - 1 - j * stride] = price
    return mask * encoder.encode_coefficients(
        reversed_prices, level=0, scale=1.0), mask


def functional_query() -> None:
    print("=== Functional hybrid query (one traced program, fully encrypted) ===")
    params, tparams, ckks, tfhe, bridge = build_contexts()
    n = params.ring_degree
    stride = n // NSLOT
    slot_scale = float(1 << 20)

    trace = HETrace(params, tfhe_params=tparams)
    column = trace.input("prices", level=1, scale=float(params.scale))
    slots = trace.input("prices_slots", level=1, scale=slot_scale)
    filtered, mask = threshold_filter(column, ckks.encoder, params, tparams)
    trace.output("mask", mask)
    trace.output("filtered", filtered)
    trace.output("total", slots.inner_sum(NSLOT))

    planned = plan_program(trace.program, optimize=True)
    eager = plan_program(trace.program, optimize=False)
    stats = {k: v for k, v in planned.stats.items() if v}
    print(f"  traced {len(trace.program)} nodes across schemes "
          f"{sorted(trace.program.schemes())}")
    print(f"  planner: {stats['scheme_switches']} scheme switches, "
          f"{stats['pbs_groups']} batched PBS dispatch of "
          f"{stats['grouped_pbs']} bootstraps, "
          f"{stats['mod_downs_inserted']} mod-downs inserted")

    # Encrypt the column twice: price_j * scale at coefficient j*stride for
    # the filter, and plainly in slots for the grand total.
    coefficients = [0] * n
    for j, price in enumerate(PRICES):
        coefficients[j * stride] = price * params.scale
    inputs = {
        "prices": ckks.encrypt_symmetric(ckks.encoder.encode_coefficients(
            coefficients, level=1, scale=float(params.scale))),
        "prices_slots": ckks.encrypt(ckks.encoder.encode(
            [float(p) for p in PRICES], level=1, scale=slot_scale)),
    }
    executor = ProgramExecutor(CKKSEvaluator(params, ckks.keys),
                               tfhe=tfhe, bridge=bridge)
    out_planned = executor.run(planned, inputs)
    out_eager = executor.run_eager(eager, inputs)

    def rows(ct):
        return (ct.c0.to_coeff().coefficient_rows(),
                ct.c1.to_coeff().coefficient_rows())

    exact = all(rows(out_planned[name]) == rows(out_eager[name])
                for name in ("mask", "filtered", "total"))
    print(f"  planned vs eager: {'bit-exact [ok]' if exact else 'MISMATCH'}")

    mask_encoding = 2 * AMPLITUDE * params.moduli[0] / tparams.modulus
    mask_coeffs = ckks.decrypt(out_planned["mask"]).poly.centered_coefficients()
    mask_bits = [round(mask_coeffs[j * stride] / mask_encoding)
                 for j in range(NSLOT)]
    filtered_coeffs = ckks.decrypt(
        out_planned["filtered"]).poly.centered_coefficients()
    filtered_sum = round(filtered_coeffs[n - 1] / mask_encoding)
    total = round(ckks.decrypt_vector(out_planned["total"])[0].real)
    expected_sum = sum(p for p in PRICES if p <= THRESHOLD)
    print(f"  prices {PRICES}, encrypted filter price <= {THRESHOLD}: "
          f"mask {mask_bits}")
    print(f"  SUM(price) WHERE price <= {THRESHOLD}: {filtered_sum} "
          f"(expected {expected_sum})"
          f"{' [ok]' if filtered_sum == expected_sum else ' MISMATCH'}")
    print(f"  SUM(price) grand total: {total} (expected {sum(PRICES)})"
          f"{' [ok]' if total == sum(PRICES) else ' MISMATCH'}")

    workloads = lower_hybrid_to_workloads(planned)
    report = hybrid_cycle_estimate(planned)
    shapes = ", ".join(f"{w.name}[{len(w.traces)} traces]" for w in workloads)
    print(f"  lowered to {shapes}")
    print(f"  Trinity estimate: {report.interleaved_cycles:,.0f} cycles "
          f"interleaved ({report.sequential_cycles:,.0f} sequential, "
          f"co-scheduling gain {report.co_scheduling_gain:.2f}x)")


def serving_view() -> None:
    print("=== Serving view: the hybrid program behind repro.serve ===")
    params, tparams, ckks, tfhe, bridge = build_contexts()

    server = InferenceServer(params, max_batch_size=4, batch_window=0.001)
    server.register_program(
        "threshold-filter",
        lambda handle: threshold_filter(handle, ckks.encoder, params,
                                        tparams)[0],
        level=1, scale=float(params.scale), scheme="hybrid",
        tfhe_params=tparams)
    server.register_tenant("analytics/provisioned", ckks.keys,
                           tfhe=tfhe, bridge=bridge)
    server.register_tenant("analytics/ckks-only", ckks.keys)

    n, stride = params.ring_degree, params.ring_degree // NSLOT
    coefficients = [0] * n
    for j, price in enumerate(PRICES):
        coefficients[j * stride] = price * params.scale
    column = ckks.encrypt_symmetric(ckks.encoder.encode_coefficients(
        coefficients, level=1, scale=float(params.scale)))

    response = server.serve([InferenceRequest.single(
        "analytics/provisioned", "threshold-filter", column)])[0]
    mask_encoding = 2 * AMPLITUDE * params.moduli[0] / tparams.modulus
    served = round(ckks.decrypt(
        response.ciphertexts[0]).poly.centered_coefficients()[n - 1] / mask_encoding)
    expected = sum(p for p in PRICES if p <= THRESHOLD)
    print(f"  tenant analytics/provisioned served: filtered sum {served}"
          f"{' [ok]' if served == expected else ' MISMATCH'}")
    try:
        server.serve([InferenceRequest.single(
            "analytics/ckks-only", "threshold-filter", column)])
    except SchemeMismatchError as exc:
        print(f"  tenant analytics/ckks-only rejected: SchemeMismatchError "
              f"(stable code {exc.code}, expected={exc.expected!r}, "
              f"got={exc.got!r}); scheduler keeps serving")


def performance_view() -> None:
    print("=== Performance view: HE3DB on Trinity vs the alternatives (Table X) ===")
    trinity = TrinityAccelerator()
    two_chip = SharpPlusMorphling()
    cpu = cpu_hybrid_baseline()
    for entries in (4096, 16384):
        workload = he3db_workload(entries)
        trinity_seconds = sum(
            trinity.run_trace(trace).latency_seconds for trace in workload.traces
        )
        two_chip_seconds = two_chip.run_hybrid(he3db_hybrid_segments(entries))
        cpu_seconds = cpu.run_many(workload.traces).latency_seconds
        print(f"  HE3DB-{entries}: Trinity {trinity_seconds:7.2f} s"
              f" | SHARP+Morphling {two_chip_seconds:7.2f} s"
              f" | CPU {cpu_seconds:10.1f} s")


if __name__ == "__main__":
    functional_query()
    print()
    serving_view()
    print()
    performance_view()
