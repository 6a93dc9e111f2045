"""Declarations of the repo benchmark: workloads, end-to-end and layer metrics.

This module is the single source of the names in ``BENCHMARK.json``
(``test_benchmark_schema.py`` asserts the two agree), of ``run.py --list``
and of the tables in ``README.md``.  It imports nothing from ``repro`` so
``run.py`` can load it in a checkout where the library is missing.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class WorkloadSpec(NamedTuple):
    name: str
    segment_ops: int   # operations per segment (the unit the best-of is over)
    why: str


class Metric(NamedTuple):
    name: str
    unit: str
    better: str          # "lower" | "higher"
    bound: "float | None" = None   # end-to-end only: allowed worsening share


#: Measured seconds of one run of one workload (``BENCHMARK.json`` run_seconds).
RUN_SECONDS = 15

#: Fresh worker processes per run; each sets up once and measures 1/ROUNDS
#: of the run's seconds, so ``setup_s`` is the best of ROUNDS cold set-ups.
ROUNDS = 3

WORKLOADS: List[WorkloadSpec] = [
    WorkloadSpec("serve_wire_dense", 8,
             "Full stack, loopback client->gateway->scheduler, 32x32 BSGS dense "
             "layer N=1024 L=8, 2 connections x 4 in flight: batches fill, "
             "stacked kernels dominate, the wire is ~5%."),
    WorkloadSpec("serve_wire_light", 50,
             "Same stack and ciphertext size, hosted program x+x, 1 in flight: "
             "serialization, framing, asyncio and the 1 ms timer flush are the "
             "whole request; a kernel gain must not move it."),
    WorkloadSpec("lib_ckks_inference", 1,
             "No serving: planned dense->rescale->square->rescale->affine on "
             "one ciphertext at N=2048 L=8: the CKKS executor and kernels "
             "alone, at twice the ring degree of the serve path."),
    WorkloadSpec("lib_hybrid_query", 1,
             "CKKS<->TFHE threshold query at wave 16 (extract, c2t keyswitch, "
             "sign PBS, t2c, repack), N_tfhe=256: executor/bridge dispatch "
             "glue outweighs arithmetic."),
    WorkloadSpec("client_keygen_encrypt", 1,
             "Tenant onboarding: keygen + BSGS rotation keys + 4 encrypt + "
             "4 decrypt at N=1024 L=8; the Python sampling/encoding paths that "
             "only appear in setup_s elsewhere."),
]

END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
]

#: Backend kernels reported by name (>= 1% of busy time on some workload);
#: every other public backend callable is summed under ``other``.
KERNELS: List[str] = [
    "batched_ntt", "batched_intt", "stacked_ntt", "stacked_intt",
    "bconv_matmul", "limbs_eval_mac", "limbs_mac_eval", "stacked_pmult_mac",
    "stacked_gather", "limbs_signed_permute", "limbs_add",
    "batched_sub_scaled", "limbs_convolution", "pack_limbs",
    "gadget_decompose", "pointwise_mac_many", "ntt_forward_batch",
    "ntt_inverse_batch", "mat_mulmod", "add", "sub",
]


def _layer(prefix: str, *entries) -> List[Metric]:
    return [Metric(f"{prefix}.{name}", unit, better)
            for name, unit, better in entries]


PER_LAYER: List[Metric] = (
    _layer("client",
           ("latency_p50_ms", "ms", "lower"), ("latency_p95_ms", "ms", "lower"),
           ("requests", "count", "higher"), ("segments", "count", "higher"))
    + _layer("serve.net",
             ("overhead_ms", "ms", "lower"),
             ("envelope_encode_us", "us", "lower"),
             ("envelope_decode_us", "us", "lower"),
             ("frame_encode_us", "us", "lower"),
             ("bytes_sent_per_op", "B", "lower"),
             ("bytes_received_per_op", "B", "lower"),
             ("frames_per_op", "count", "lower"))
    + _layer("serve.serialization",
             ("serialize_us", "us", "lower"), ("deserialize_us", "us", "lower"),
             ("blob_bytes", "B", "lower"))
    + _layer("serve.scheduler",
             ("server_latency_ms", "ms", "lower"), ("exec_span_ms", "ms", "lower"),
             ("pre_exec_ms", "ms", "lower"), ("overhead_share", "ratio", "lower"),
             ("batch_size_mean", "count", "higher"), ("batches", "count", "lower"),
             ("unbatched_fallbacks", "count", "lower"), ("retries", "count", "lower"),
             ("rejected", "count", "lower"), ("failed", "count", "lower"))
    + _layer("serve.cache",
             ("plan_hits", "count", "higher"), ("plan_misses", "count", "lower"),
             ("planner_calls", "count", "lower"), ("key_hits", "count", "higher"),
             ("key_misses", "count", "lower"), ("key_evictions", "count", "lower"))
    + _layer("fhe.program",
             ("trace_ms", "ms", "lower"), ("plan_ms", "ms", "lower"),
             ("plan_nodes", "count", "lower"), ("execute_ms", "ms", "lower"),
             ("eager_execute_ms", "ms", "lower"), ("glue_share", "ratio", "lower"))
    + _layer("fhe.backend", ("busy_ms", "ms", "lower"), ("calls", "count", "lower"))
    + [metric for kernel in KERNELS + ["other"]
       for metric in _layer(f"fhe.backend.{kernel}",
                            ("calls", "count", "lower"), ("busy_ms", "ms", "lower"),
                            ("mbytes", "MB", "lower"))]
    + _layer("fhe.ckks",
             ("keygen_ms", "ms", "lower"), ("rotation_keys_ms", "ms", "lower"),
             ("encode_ms", "ms", "lower"), ("encrypt_ms", "ms", "lower"),
             ("decrypt_ms", "ms", "lower"), ("decode_ms", "ms", "lower"),
             ("keyswitch_key_mbytes", "MB", "lower"))
    + _layer("fhe.tfhe",
             ("pbs_ms", "ms", "lower"), ("batched_pbs_ms_per_lwe", "ms", "lower"))
    + _layer("fhe.conversion",
             ("c2t_ms_per_lwe", "ms", "lower"), ("t2c_ms_per_lwe", "ms", "lower"))
    + _layer("core",
             ("cycles_total", "cycles", "lower"), ("cycles.ckks", "cycles", "lower"),
             ("cycles.tfhe", "cycles", "lower"),
             ("cycles.conversion", "cycles", "lower"),
             ("estimate_ms", "ms", "lower"), ("sw_us_per_kcycle", "us", "lower"))
    + [Metric("trace_overhead_share", "ratio", "lower")]
)


def benchmark_json() -> Dict[str, object]:
    """The document ``BENCHMARK.json`` must equal (see the schema test)."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
