"""The five benchmark workloads.

Each workload is a class with the same life cycle, driven by ``worker.py``
inside one fresh process::

    workload = cls(seed, traced)   # traced: wrap the backend, keep spans
    await workload.setup()         # everything up to the first measured op
    segments = await workload.measure(seconds)
    await workload.check()         # bit-exact / decrypt checks, outside timers
    layers = await workload.layers()           # traced rounds only
    await workload.close()

``--seed`` reaches the code under test only as generated inputs: key seeds,
plaintext vectors, matrix weights and the per-request choice from the
ciphertext pool all come from ``random.Random(seed)``.

Tracing is outside-in: spans and layer metrics are taken from this file,
around calls into each layer's public functions and through public hooks
(``InferenceServer(on_batch_start=...)``, ``ResiliencePolicy(
output_validator=...)``, a wrapped backend).  Nothing in ``src/`` is patched.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from typing import Callable, Dict, List, Optional

from repro.fhe.backend import NumpyBackend, get_backend, use_backend
from repro.fhe.ckks import BSGSLinearTransform, CKKSContext
from repro.fhe.ckks.encoder import CKKSEncoder
from repro.fhe.ckks.evaluator import CKKSEvaluator
from repro.fhe.conversion.bridge import SchemeBridge
from repro.fhe.params import CKKSParameters
from repro.fhe.program import (
    HETrace,
    ProgramExecutor,
    hybrid_cycle_estimate,
    plan_program,
    trinity_cycle_estimate,
)
from repro.fhe.tfhe.batched import batched_programmable_bootstrap, sign_test_vector
from repro.fhe.tfhe.lwe import LWECiphertext
from repro.fhe.tfhe.pbs import TFHEContext
from repro.serve import (
    InferenceServer,
    ResiliencePolicy,
    ServeError,
    ServingClient,
    ServingGateway,
    deserialize_ciphertext,
    percentile,
    serialize_ciphertext,
)
from repro.serve.net.framing import (
    Request,
    decode_envelope,
    encode_envelope,
    encode_frame,
)
from repro.serve.serialization import serialize_keyswitch_key
from repro.workloads.hybrid_workloads import hybrid_query_parameters

from spec import KERNELS, WORKLOADS
from timing_backend import TimingBackend

now = time.perf_counter
MS = 1e3


def ckks_parameters(degree: int) -> CKKSParameters:
    """The word-size (30-bit, L = 8) chain the repo's perf gates run on."""
    return CKKSParameters(
        ring_degree=degree, max_level=8, dnum=3, scale_bits=26,
        modulus_bits=30, special_modulus_bits=32, security_bits=0,
        name=f"ckks-e2e-{degree}")


def ciphertext_rows(ct):
    c0, c1 = ct.c0.to_coeff(), ct.c1.to_coeff()
    return c0.coefficient_rows(), c1.coefficient_rows()


def timed(func: Callable, *args):
    start = now()
    result = func(*args)
    return result, now() - start


def median_call_seconds(func: Callable, repeats: int) -> float:
    return statistics.median(timed(func)[1] for _ in range(repeats))


def make_segment(start: float, end: float, latencies: List[float]) -> Dict:
    return {"wall_s": end - start,
            "latencies_ms": [value * MS for value in latencies]}


def random_matrix(rng: random.Random, dimension: int) -> List[List[float]]:
    return [[rng.randrange(-6, 7) / 8.0 for _ in range(dimension)]
            for _ in range(dimension)]


def client_layer(segments: List[Dict]) -> Dict[str, float]:
    """The load generator's own view of a traced round, pooled."""
    latencies = [value for seg in segments for value in seg["latencies_ms"]]
    return {"client.latency_p50_ms": statistics.median(latencies),
            "client.latency_p95_ms": percentile(latencies, 95),
            "client.requests": len(latencies),
            "client.segments": len(segments)}


class Workload:
    """Shared state and the sequential (one op at a time) measuring loop."""

    name = ""

    def __init__(self, seed: int, traced: bool = False):
        self.rng = random.Random(seed)
        self.traced = traced
        self.timing: Optional[TimingBackend] = None   # set by backend()
        self.segment_ops = next(
            w.segment_ops for w in WORKLOADS if w.name == self.name)
        self.attempted = 0
        self.failed = 0
        self.spans: List[Dict] = []

    def span(self, name: str, start: float, end: float,
             parent: Optional[int] = None, **ids) -> int:
        """Record one span (traced rounds only); returns its index."""
        if self.traced:
            self.spans.append({"name": name, "start": start, "end": end,
                               "parent": parent, **ids})
        return len(self.spans) - 1

    def backend(self, inner):
        """``inner`` itself, or the timing wrapper around it when traced."""
        if self.traced:
            self.timing = TimingBackend(inner)
            return self.timing
        return inner

    def op(self) -> None:
        raise NotImplementedError

    async def setup(self) -> None:
        raise NotImplementedError

    async def measure(self, seconds: float) -> List[Dict]:
        if self.traced:
            self.timing.reset()
        segments = []
        deadline = now() + seconds
        while True:
            start = now()
            latencies = []
            segment_id = self.span("segment", start, start)
            for _ in range(self.segment_ops):
                begin = now()
                busy = self.timing.total_busy_seconds() if self.traced else 0.0
                self.op()
                end = now()
                self.attempted += 1
                latencies.append(end - begin)
                if self.traced:
                    self.span("op", begin, end, parent=segment_id,
                              kernel_busy=self.timing.total_busy_seconds() - busy)
            end = now()
            if self.traced:
                self.spans[segment_id]["end"] = end
            segments.append(make_segment(start, end, latencies))
            if now() >= deadline:
                return segments

    async def check(self) -> None:
        raise NotImplementedError

    async def layers(self) -> Dict[str, float]:
        raise NotImplementedError

    async def close(self) -> None:
        pass

    # -- layer helpers shared by several workloads ---------------------------
    def backend_layer(self) -> Dict[str, float]:
        """Per-kernel counters of the measured phase (top-level dispatches)."""
        timing = self.timing
        out = {"fhe.backend.busy_ms": timing.total_busy_seconds() * MS,
               "fhe.backend.calls": timing.total_calls()}
        other = {"calls": 0, "busy_ms": 0.0, "mbytes": 0.0}
        for kernel, calls in timing.calls.items():
            row = {"calls": calls,
                   "busy_ms": timing.busy_seconds[kernel] * MS,
                   "mbytes": timing.bytes_moved[kernel] / 1e6}
            if kernel in KERNELS:
                for key, value in row.items():
                    out[f"fhe.backend.{kernel}.{key}"] = value
            else:
                for key, value in row.items():
                    other[key] += value
        for key, value in other.items():
            out[f"fhe.backend.other.{key}"] = value
        return out

    def op_spans(self) -> List[Dict]:
        return [span for span in self.spans if span["name"] == "op"]

    def execute_layer(self) -> Dict[str, float]:
        """``fhe.program`` execute time and glue share from the op spans."""
        ops = self.op_spans()
        wall = sum(span["end"] - span["start"] for span in ops)
        busy = sum(span["kernel_busy"] for span in ops)
        return {
            "fhe.program.execute_ms": statistics.median(
                span["end"] - span["start"] for span in ops) * MS,
            "fhe.program.glue_share": 1.0 - busy / wall,
        }


# ---------------------------------------------------------------------------
# serve_wire_dense / serve_wire_light
# ---------------------------------------------------------------------------

class _ServeWire(Workload):
    """Closed loop over loopback: client -> gateway -> scheduler -> executor.

    ``connections`` sessioned clients each keep ``inflight`` requests
    outstanding and send the next one only when a reply arrives (callers
    that wait for their answer: a closed loop).  Client, gateway and
    scheduler share one event loop and one thread, as the repo's serving
    stack does today.
    """

    program = ""
    connections = 1
    inflight = 1
    warmup = 0
    pool_size = 4
    keep_every = 16        # responses kept for the bit-exact check: 1 in 16

    def trace_fn(self) -> Callable:
        raise NotImplementedError

    async def setup(self) -> None:
        self.params = params = ckks_parameters(1 << 10)
        self.context = CKKSContext(
            params, seed=self.rng.randrange(1 << 30), error_stddev=0.0,
            secret_hamming_weight=64)
        self.hosted = self.trace_fn()
        self.pool = [
            self.context.encrypt_vector(
                [self.rng.randrange(-11, 12) / 8.0 for _ in range(params.slots)])
            for _ in range(self.pool_size)]
        hooks = {}
        self.batches: List[Dict] = []
        self._open_batch = None
        if self.traced:
            hooks = {"on_batch_start": self._batch_start,
                     "resilience": ResiliencePolicy(
                         output_validator=self._batch_output)}
        self.server = InferenceServer(
            params, max_batch_size=8, batch_window=0.001,
            backend=self.backend(get_backend("numpy")), **hooks)
        self.server.register_tenant("t0", self.context.keys)
        self.server.register_program(self.program, self.hosted)
        self.gateway = await ServingGateway(self.server).start()
        host, port = self.gateway.address
        self.clients = [
            await ServingClient.connect(host, port, tenant_id="t0",
                                        client_name=f"e2e-{i}")
            for i in range(self.connections)]
        self.kept: List = []       # (pool index, response ciphertext)
        await self._closed_loop(lambda issued: issued >= self.warmup,
                                keep_every=1)

    # -- tracing hooks (public server hooks; traced rounds only) -------------
    def _batch_start(self, key, width: int) -> None:
        self._open_batch = (now(), width, self.timing.total_busy_seconds())

    def _batch_output(self, request, index, ciphertext) -> None:
        # Called once per member right after ``ProgramExecutor.run`` returns;
        # the first call closes the batch's execution span.
        if self._open_batch is None:
            return
        start, width, busy = self._open_batch
        self._open_batch = None
        self.batches.append({
            "name": "serve.scheduler.exec", "start": start, "end": now(),
            "parent": None, "batch_id": len(self.batches), "width": width,
            "kernel_busy": self.timing.total_busy_seconds() - busy})

    # -- load generation -----------------------------------------------------
    async def _closed_loop(self, stop: Callable[[int], bool],
                           keep_every: int) -> List[Dict]:
        records: List[Dict] = []
        issued = 0

        async def slot(connection: int, client: ServingClient) -> None:
            nonlocal issued
            while not stop(issued):
                issued += 1
                number = issued
                index = self.rng.randrange(len(self.pool))
                self.attempted += 1
                try:
                    future = await client.submit(self.program,
                                                 [self.pool[index]])
                    response = await future
                except ServeError:
                    self.failed += 1
                    continue
                records.append({
                    "done": now(), "latency": response.latency_seconds,
                    "server_latency": response.server_latency_seconds,
                    "connection": connection,
                    "request_id": response.request_id,
                    "batch_size": response.batch_size})
                if number % keep_every == 0:
                    self.kept.append((index, response.ciphertexts[0]))

        await asyncio.gather(*(
            slot(i, client) for i, client in enumerate(self.clients)
            for _ in range(self.inflight)))
        return records

    def _transport_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for client in self.clients:
            for key, value in client.transport.stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    async def measure(self, seconds: float) -> List[Dict]:
        if self.traced:
            self.timing.reset()
            self.batches.clear()
        self.stats_before = self.server.stats()
        wire_before = self._transport_totals()
        start = now()
        deadline = start + seconds
        records = await self._closed_loop(
            lambda issued: issued >= self.segment_ops and now() >= deadline,
            keep_every=self.keep_every)
        self.measure_wall = now() - start
        self.wire = {key: value - wire_before[key]
                     for key, value in self._transport_totals().items()}
        self.records = sorted(records, key=lambda record: record["done"])
        # Segments are consecutive groups of completions; the loop itself is
        # never paused at a segment edge, so batches keep forming.
        segments = []
        edge = start
        count = self.segment_ops
        for k in range(0, len(self.records) - count + 1, count):
            chunk = self.records[k:k + count]
            segments.append(make_segment(
                edge, chunk[-1]["done"], [r["latency"] for r in chunk]))
            edge = chunk[-1]["done"]
        return segments

    async def check(self) -> None:
        """Kept responses bit-exact vs the eager reference of their input."""
        evaluator = CKKSEvaluator(self.params, self.context.keys,
                                  backend=get_backend("numpy"))
        trace = HETrace(self.params)
        trace.output("y", self.hosted(trace.input("x")))
        aligned = plan_program(trace.program, optimize=False)
        executor = ProgramExecutor(evaluator)
        references: Dict[int, object] = {}
        for index, ciphertext in self.kept:
            if index not in references:
                output, self.eager_seconds = timed(
                    executor.run_eager, aligned, {"x": self.pool[index]})
                references[index] = ciphertext_rows(output["y"])
            if ciphertext_rows(ciphertext) != references[index]:
                self.failed += 1

    async def layers(self) -> Dict[str, float]:
        records, batches = self.records, self.batches
        requests = len(records)
        for record in records:
            self.span("client.request", record["done"] - record["latency"],
                      record["done"], request_id=record["request_id"],
                      connection=record["connection"],
                      batch_size=record["batch_size"])
        self.spans.extend(batches)
        out = self.backend_layer()

        blob = serialize_ciphertext(self.pool[0])
        request = Request(request_id=1, program=self.program, payloads=[blob])
        body = encode_envelope(request)
        out.update({
            "serve.net.overhead_ms": statistics.median(
                r["latency"] - r["server_latency"] for r in records) * MS,
            "serve.net.envelope_encode_us": median_call_seconds(
                lambda: encode_envelope(request), 50) * 1e6,
            "serve.net.envelope_decode_us": median_call_seconds(
                lambda: decode_envelope(body), 50) * 1e6,
            "serve.net.frame_encode_us": median_call_seconds(
                lambda: encode_frame(request), 50) * 1e6,
            "serve.net.bytes_sent_per_op": self.wire["bytes_sent"] / requests,
            "serve.net.bytes_received_per_op":
                self.wire["bytes_received"] / requests,
            "serve.net.frames_per_op":
                (self.wire["frames_sent"] + self.wire["frames_received"])
                / requests,
            "serve.serialization.serialize_us": median_call_seconds(
                lambda: serialize_ciphertext(self.pool[0]), 50) * 1e6,
            "serve.serialization.deserialize_us": median_call_seconds(
                lambda: deserialize_ciphertext(blob), 50) * 1e6,
            "serve.serialization.blob_bytes": len(blob),
        })

        stats = self.server.stats()
        delta = {key: stats[key] - self.stats_before[key]
                 for key in ("batches", "batched_requests",
                             "unbatched_fallbacks", "retries", "rejected",
                             "failed")}
        server_latency = statistics.median(r["server_latency"] for r in records)
        # Request-weighted: a batch of 8 stands for 8 requests' exec time.
        exec_per_request = statistics.median(
            batch["end"] - batch["start"]
            for batch in batches for _ in range(batch["width"]))
        exec_total = sum(batch["end"] - batch["start"] for batch in batches)
        exec_busy = sum(batch["kernel_busy"] for batch in batches)
        out.update({
            "serve.scheduler.server_latency_ms": server_latency * MS,
            "serve.scheduler.exec_span_ms": exec_per_request * MS,
            "serve.scheduler.pre_exec_ms":
                (server_latency - exec_per_request) * MS,
            "serve.scheduler.overhead_share":
                1.0 - exec_total / self.measure_wall,
            "serve.scheduler.batch_size_mean":
                delta["batched_requests"] / delta["batches"],
            "serve.scheduler.batches": delta["batches"],
            "serve.scheduler.unbatched_fallbacks": delta["unbatched_fallbacks"],
            "serve.scheduler.retries": delta["retries"],
            "serve.scheduler.rejected": delta["rejected"],
            "serve.scheduler.failed": delta["failed"],
        })
        for cache, prefix in (("plan_cache", "plan"), ("key_cache", "key")):
            for key in ("hits", "misses"):
                out[f"serve.cache.{prefix}_{key}"] = \
                    stats[cache][key] - self.stats_before[cache][key]
        out["serve.cache.planner_calls"] = (
            stats["plan_cache"]["planner_calls"]
            - self.stats_before["plan_cache"]["planner_calls"])
        out["serve.cache.key_evictions"] = (
            stats["key_cache"]["evictions"]
            - self.stats_before["key_cache"]["evictions"])

        # The joint program the scheduler plans for its most common width.
        width = max(1, round(delta["batched_requests"] / delta["batches"]))

        def joint_trace():
            trace = HETrace(self.params)
            handles = [trace.input(f"x{i}") for i in range(width)]
            for i, handle in enumerate(handles):
                trace.output(f"y{i}", self.hosted(handle))
            return trace.program

        program, trace_seconds = timed(joint_trace)
        planned, plan_seconds = timed(plan_program, program)
        out.update({
            "fhe.program.trace_ms": trace_seconds * MS,
            "fhe.program.plan_ms": plan_seconds * MS,
            "fhe.program.plan_nodes": len(planned.program),
            "fhe.program.execute_ms": exec_per_request * MS,
            "fhe.program.eager_execute_ms": self.eager_seconds * MS,
            "fhe.program.glue_share": 1.0 - exec_busy / exec_total,
        })
        return out

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        await self.gateway.close()


class ServeWireDense(_ServeWire):
    name = "serve_wire_dense"
    program = "dense"
    connections = 2
    inflight = 4
    warmup = 8
    dimension = 32

    def trace_fn(self) -> Callable:
        transform = BSGSLinearTransform.from_matrix(
            self.context.encoder, random_matrix(self.rng, self.dimension))
        transform.generate_rotation_keys(self.context.keys)
        return transform.trace


class ServeWireLight(_ServeWire):
    name = "serve_wire_light"
    program = "double"
    connections = 1
    inflight = 1
    warmup = 50

    def trace_fn(self) -> Callable:
        return lambda x: x + x


# ---------------------------------------------------------------------------
# lib_ckks_inference
# ---------------------------------------------------------------------------

def cost_model_layer(report_cycles: Dict[str, float], estimate_seconds: float,
                     best_op_seconds: float) -> Dict[str, float]:
    total = report_cycles["total"]
    return {
        "core.cycles_total": total,
        "core.cycles.ckks": report_cycles.get("ckks", 0.0),
        "core.cycles.tfhe": report_cycles.get("tfhe", 0.0),
        "core.cycles.conversion": report_cycles.get("conversion", 0.0),
        "core.estimate_ms": estimate_seconds * MS,
        "core.sw_us_per_kcycle": best_op_seconds * 1e6 / (total / 1e3),
    }


class LibCkksInference(Workload):
    name = "lib_ckks_inference"
    dimension = 32

    async def setup(self) -> None:
        self.params = params = ckks_parameters(1 << 11)
        self.context = context = CKKSContext(
            params, seed=self.rng.randrange(1 << 30), error_stddev=0.0,
            secret_hamming_weight=64)
        transform = BSGSLinearTransform.from_matrix(
            context.encoder, random_matrix(self.rng, self.dimension))
        transform.generate_rotation_keys(context.keys)
        coefficient = context.encoder.encode(
            [0.25] * params.slots, level=params.max_level - 2)

        def trace_program():
            trace = HETrace(params)
            hidden = transform.trace(trace.input("x")).rescale()
            activated = (hidden * hidden).rescale()
            trace.output("y", activated * coefficient + activated * coefficient)
            return trace.program

        self.program, self.trace_seconds = timed(trace_program)
        self.planned, self.plan_seconds = timed(plan_program, self.program)
        self.inputs = {"x": context.encrypt_vector(
            [self.rng.randrange(-8, 9) / 16.0 for _ in range(params.slots)])}
        self.executor = ProgramExecutor(CKKSEvaluator(
            params, context.keys, backend=self.backend(get_backend("numpy"))))
        self.op()

    def op(self) -> None:
        self.output = self.executor.run(self.planned, self.inputs)["y"]

    async def check(self) -> None:
        """Last planned output bit-exact vs the eager node sequence."""
        reference = ProgramExecutor(CKKSEvaluator(
            self.params, self.context.keys, backend=get_backend("numpy")))
        aligned = plan_program(self.program, optimize=False)
        eager, self.eager_seconds = timed(
            reference.run_eager, aligned, self.inputs)
        if ciphertext_rows(self.output) != ciphertext_rows(eager["y"]):
            self.failed += 1

    async def layers(self) -> Dict[str, float]:
        out = self.backend_layer()
        out.update(self.execute_layer())
        report, estimate_seconds = timed(trinity_cycle_estimate, self.planned)
        out.update({
            "fhe.program.trace_ms": self.trace_seconds * MS,
            "fhe.program.plan_ms": self.plan_seconds * MS,
            "fhe.program.plan_nodes": len(self.planned.program),
            "fhe.program.eager_execute_ms": self.eager_seconds * MS,
        })
        out.update(cost_model_layer(
            {"total": report.latency_cycles, "ckks": report.latency_cycles},
            estimate_seconds,
            min(s["end"] - s["start"] for s in self.op_spans())))
        return out


# ---------------------------------------------------------------------------
# lib_hybrid_query
# ---------------------------------------------------------------------------

class LibHybridQuery(Workload):
    """The CKKS<->TFHE threshold query of ``bench_hybrid_program`` at wave 16."""

    name = "lib_hybrid_query"
    wave = 16
    boost = 1 << 28          # coefficient boost: clears the sign-bucket margin
    amplitude = 1 << 16      # sign-bootstrap amplitude
    threshold = 8
    # Margins of >= 3 on either side of the threshold keep every sign
    # bootstrap away from its bucket boundary at these parameters.
    safe_values = (1, 2, 3, 5, 11, 12, 13, 14)

    async def setup(self) -> None:
        self.params, self.tparams = params, tparams = hybrid_query_parameters()
        # TFHE rings are far below the numpy backend's vectorization
        # crossovers; zero them as bench_hybrid_program does.
        self.packed = self.backend(
            NumpyBackend(min_vector_length=0, min_ntt_length=0))
        key_seed = self.rng.randrange(1 << 30)
        self.context = CKKSContext(params, seed=key_seed, error_stddev=0.0)
        self.tfhe = TFHEContext(tparams, seed=key_seed)
        self.bridge = SchemeBridge(params, self.context.keys.secret, self.tfhe,
                                   seed=key_seed)
        self.values = [self.rng.choice(self.safe_values)
                       for _ in range(self.wave)]

        def trace_program():
            q0, qt = params.moduli[0], tparams.modulus
            encoded = round(self.threshold * params.scale * self.boost * qt / q0)
            trace = HETrace(params, tfhe_params=tparams)
            x = trace.input("x", level=1, scale=float(params.scale))
            bits = []
            for lwe in (x * self.boost).extract_lwes(self.wave):
                diff = (-lwe.keyswitch_to_tfhe()).add_encoded(encoded)
                bits.append(diff.bootstrap_sign(self.amplitude))
            trace.output("mask", trace.repack(
                [bit.keyswitch_to_ckks() for bit in bits]))
            trace.output("double", x + x)
            return trace.program

        self.program, self.trace_seconds = timed(trace_program)
        self.planned, self.plan_seconds = timed(plan_program, self.program)
        self.stride = params.ring_degree // self.wave
        coefficients = [0] * params.ring_degree
        for j, value in enumerate(self.values):
            coefficients[j * self.stride] = value * params.scale
        self.inputs = {"x": self.context.encrypt_symmetric(
            self.context.encoder.encode_coefficients(
                coefficients, level=1, scale=float(params.scale)))}
        self.executor = ProgramExecutor(
            CKKSEvaluator(params, self.context.keys, backend=self.packed),
            tfhe=self.tfhe, bridge=self.bridge)
        self.op()

    def op(self) -> None:
        with use_backend(self.packed):
            self.output = self.executor.run(self.planned, self.inputs)

    async def check(self) -> None:
        """Bit-exact vs eager, and the decrypted mask equals the plain bits."""
        clean = NumpyBackend(min_vector_length=0, min_ntt_length=0)
        reference = ProgramExecutor(
            CKKSEvaluator(self.params, self.context.keys, backend=clean),
            tfhe=self.tfhe, bridge=self.bridge)
        aligned = plan_program(self.program, optimize=False)
        with use_backend(clean):
            eager, self.eager_seconds = timed(
                reference.run_eager, aligned, self.inputs)
        exact = all(
            ciphertext_rows(self.output[name]) == ciphertext_rows(eager[name])
            for name in ("mask", "double"))
        encoding = 2 * self.amplitude * self.params.moduli[0] / self.tparams.modulus
        decrypted = self.context.decrypt(
            self.output["mask"]).poly.to_polynomial().centered_coefficients()
        mask = [round(decrypted[j * self.stride] / encoding)
                for j in range(self.wave)]
        expected = [int(value <= self.threshold) for value in self.values]
        if not exact or mask != expected:
            self.failed += 1

    async def layers(self) -> Dict[str, float]:
        out = self.backend_layer()
        out.update(self.execute_layer())
        report, estimate_seconds = timed(hybrid_cycle_estimate, self.planned)
        out.update({
            "fhe.program.trace_ms": self.trace_seconds * MS,
            "fhe.program.plan_ms": self.plan_seconds * MS,
            "fhe.program.plan_nodes": len(self.planned.program),
            "fhe.program.eager_execute_ms": self.eager_seconds * MS,
        })
        cycles = {"total": report.interleaved_cycles}
        for workload, value in report.per_workload_cycles.items():
            for scheme in ("ckks", "tfhe", "conversion"):
                if scheme in workload.lower():
                    cycles[scheme] = cycles.get(scheme, 0.0) + value
        out.update(cost_model_layer(
            cycles, estimate_seconds,
            min(s["end"] - s["start"] for s in self.op_spans())))

        tfhe, wave = self.tfhe, self.wave
        q0, n = self.params.moduli[0], self.params.ring_degree
        extracted = [LWECiphertext(
            a=[self.rng.randrange(q0) for _ in range(n)],
            b=self.rng.randrange(q0), modulus=q0) for _ in range(wave)]
        with use_backend(self.packed.inner):
            small = [tfhe.encrypt(i % 2) for i in range(wave)]
            vector = sign_test_vector(tfhe, self.amplitude)
            out.update({
                "fhe.tfhe.pbs_ms": median_call_seconds(
                    lambda: tfhe.programmable_bootstrap(small[0], vector),
                    3) * MS,
                "fhe.tfhe.batched_pbs_ms_per_lwe": median_call_seconds(
                    lambda: batched_programmable_bootstrap(
                        tfhe, small, [vector] * wave), 3) * MS / wave,
                "fhe.conversion.c2t_ms_per_lwe": median_call_seconds(
                    lambda: self.bridge.switch_many_to_tfhe(extracted),
                    3) * MS / wave,
                "fhe.conversion.t2c_ms_per_lwe": median_call_seconds(
                    lambda: self.bridge.switch_many_to_ckks(small),
                    3) * MS / wave,
            })
        return out


# ---------------------------------------------------------------------------
# client_keygen_encrypt
# ---------------------------------------------------------------------------

class ClientKeygenEncrypt(Workload):
    """What a tenant pays before and around every request."""

    name = "client_keygen_encrypt"
    dimension = 32
    vectors = 4
    tolerance = 5e-2        # tests/test_ckks.py: encrypt/decrypt round trip

    async def setup(self) -> None:
        self.params = params = ckks_parameters(1 << 10)
        # None = the process default (numpy), as a tenant would get it.
        self.arithmetic = (self.backend(get_backend("numpy"))
                           if self.traced else None)
        encoder = CKKSEncoder(params, backend=self.arithmetic)
        self.transform = BSGSLinearTransform.from_matrix(
            encoder, random_matrix(self.rng, self.dimension))
        self.plain = [[self.rng.randrange(-11, 12) / 8.0
                       for _ in range(params.slots)]
                      for _ in range(self.vectors)]
        self.phases: Dict[str, List[float]] = {}
        self.op()

    def _phase(self, name: str, func: Callable, *args):
        result, seconds = timed(func, *args)
        self.phases.setdefault(name, []).append(seconds)
        return result

    def op(self) -> None:
        context = self._phase(
            "keygen", lambda: CKKSContext(
                self.params, seed=self.rng.randrange(1 << 30),
                error_stddev=3.2, backend=self.arithmetic))
        self.rotation_keys = self._phase(
            "rotation_keys", self.transform.generate_rotation_keys,
            context.keys)
        if self.traced:
            # Same work as encrypt_vector / decrypt_vector, split at the
            # encoder boundary so the two layers are timed apart.
            plaintexts = [self._phase("encode", context.encoder.encode, v)
                          for v in self.plain]
            ciphertexts = [self._phase("encrypt", context.encrypt, p)
                           for p in plaintexts]
            decrypted = [self._phase("decrypt", context.decrypt, c)
                         for c in ciphertexts]
            self.decoded = [self._phase("decode", context.encoder.decode, p)
                            for p in decrypted]
        else:
            ciphertexts = [context.encrypt_vector(v) for v in self.plain]
            self.decoded = [context.decrypt_vector(c) for c in ciphertexts]

    async def check(self) -> None:
        """The last op's round trip decodes to its plaintext vectors."""
        for decoded, plain in zip(self.decoded, self.plain):
            if any(abs(a - e) >= self.tolerance
                   for a, e in zip(decoded, plain)):
                self.failed += 1
                return

    async def layers(self) -> Dict[str, float]:
        out = self.backend_layer()
        for name, samples in self.phases.items():
            out[f"fhe.ckks.{name}_ms"] = statistics.median(samples) * MS
        out["fhe.ckks.keyswitch_key_mbytes"] = sum(
            len(serialize_keyswitch_key(key))
            for key in self.rotation_keys.values()) / 1e6
        return out


CLASSES = {cls.name: cls for cls in (
    ServeWireDense, ServeWireLight, LibCkksInference, LibHybridQuery,
    ClientKeygenEncrypt)}
