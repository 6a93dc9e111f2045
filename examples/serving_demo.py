"""Multi-tenant encrypted-inference serving: batching, caches, and the report.

The ``repro.serve`` layer in one sitting:

1. host an encrypted dense layer on an :class:`InferenceServer`;
2. register three tenants — two sharing a key set (their requests batch
   together), one with a frozen, under-provisioned key set;
3. replay seeded multi-tenant traffic through the batching scheduler and
   print the pass-by-pass serving report (p50/p99 latency, qps, batching
   efficiency) plus the plan/key cache stats;
4. show a typed rejection (missing rotation keys) leaving the scheduler
   healthy, and the compact wire format round-tripping a ciphertext;
5. show the PR 7 resilience machinery: a bursty tenant hitting its
   token-bucket rate limit, and a circuit breaker opening under injected
   kernel faults, shedding load, then recovering through a half-open
   probe — all on a manual clock, so the demo is deterministic;
6. put the same server behind the ``repro.serve.net`` gateway and run a
   loopback client session over a real socket: framed HELLO handshake,
   multiplexed in-flight requests, and a typed wire rejection whose
   stable error code rebuilds the scheduler's exception class-for-class
   on the client side.

Run::

    PYTHONPATH=src python examples/serving_demo.py
"""

import asyncio
import random

from repro.fhe.backend import available_backends, get_backend, set_active_backend
from repro.fhe.ckks import BSGSLinearTransform, CKKSContext, CKKSKeyGenerator
from repro.fhe.params import CKKSParameters
from repro.serve import (
    AdmissionController,
    CircuitOpenError,
    ExecutionError,
    FaultInjectingBackend,
    FaultSchedule,
    FaultSpec,
    InferenceRequest,
    InferenceServer,
    LoadGenerator,
    ManualClock,
    MissingKeyError,
    RateLimitedError,
    ResiliencePolicy,
    RetryPolicy,
    ServingClient,
    ServingGateway,
    UnknownProgramError,
    deserialize_ciphertext,
    serialize_ciphertext,
)


def main() -> None:
    if "numpy" not in available_backends():
        print("numpy is not installed; this demo needs the vectorized backend.")
        return
    set_active_backend("numpy")

    params = CKKSParameters(
        ring_degree=512, max_level=4, dnum=2, scale_bits=26, modulus_bits=30,
        special_modulus_bits=32, security_bits=0, name="ckks-serving-demo",
    )
    context = CKKSContext(params, seed=17, error_stddev=0.0)

    print("=" * 72)
    print("repro.serve: multi-tenant encrypted-inference serving")
    print("=" * 72)
    print(f"parameters: N={params.ring_degree}, L={params.max_level}, "
          f"{params.modulus_bits}-bit moduli, {params.slots} slots")

    # -- the hosted model: a dim x dim encrypted dense layer -----------------
    dim = 16
    rng = random.Random(1)
    weights = [[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(dim)]
    transform = BSGSLinearTransform.from_matrix(context.encoder, weights)
    transform.generate_rotation_keys(context.keys)

    server = InferenceServer(params, backend="numpy", max_batch_size=4,
                             batch_window=0.001)
    server.register_program("dense16", transform.trace)

    # -- tenants: two sessions of org-a share a key set, org-b never
    #    uploaded rotation keys (frozen, under-provisioned) ------------------
    unprovisioned = CKKSKeyGenerator(params, seed=23, error_stddev=0.0).generate()
    server.register_tenant("org-a/session-0", context.keys)
    server.register_tenant("org-a/session-1", context.keys)
    server.register_tenant("org-b/session-0", unprovisioned.frozen())
    print(f"hosted program: dense16 ({dim}x{dim} BSGS dense layer)")
    print("tenants: org-a/session-0 + org-a/session-1 (shared key set), "
          "org-b/session-0 (frozen keys)")

    # -- seeded multi-tenant traffic -----------------------------------------
    pool = [context.encrypt_vector(
        [rng.uniform(-1, 1) for _ in range(dim)] * (params.slots // dim))
        for _ in range(4)]

    def input_factory(tenant_id, request_rng):
        return pool[request_rng.randrange(len(pool))]

    generator = LoadGenerator(
        server,
        tenants=["org-a/session-0", "org-a/session-1", "org-a/session-0",
                 "org-b/session-0"],
        programs=["dense16"],
        input_factory=input_factory,
        seed=7, requests_per_pass=12,
    )
    print()
    print("serving report (seeded traffic, 3 passes)")
    print("-" * 72)
    report = generator.run(passes=3)
    for summary in report.passes:
        print(summary.line())
    aggregate = report.aggregate()
    print("-" * 72)
    print(f"aggregate: {aggregate['served']}/{aggregate['requests']} served, "
          f"{aggregate['qps']:.1f} qps, "
          f"p50 {aggregate['latency_p50_ms']:.2f} ms, "
          f"p99 {aggregate['latency_p99_ms']:.2f} ms")
    stats = server.stats()
    print(f"batching efficiency: {stats['batching_efficiency']:.2f} "
          f"requests/batch over {stats['batches']} batches "
          f"(histogram {stats['batch_size_histogram']})")
    plan = stats["plan_cache"]
    keys = stats["key_cache"]
    print(f"plan cache: {plan['hits']} hits / {plan['misses']} misses "
          f"(hit rate {plan['hit_rate']:.0%}), "
          f"{plan['planner_calls']} planner calls")
    print(f"key cache:  {keys['hits']} hits / {keys['misses']} misses "
          f"(hit rate {keys['hit_rate']:.0%})")
    print(f"rejections: {stats['rejections']}")

    # -- typed rejection, scheduler stays healthy ----------------------------
    print()
    print("fault injection: org-b (frozen key set, no rotation keys)")
    try:
        server.serve([InferenceRequest.single("org-b/session-0", "dense16",
                                              pool[0])])
    except MissingKeyError as exc:
        print(f"  rejected with MissingKeyError: {len(exc.missing)} missing "
              "galois keys; scheduler keeps serving")
    response = server.serve([InferenceRequest.single("org-a/session-0",
                                                     "dense16", pool[0])])[0]
    decoded = context.decrypt_vector(response.ciphertexts[0])

    expected = [sum(weights[i][j] *
                    context.decrypt_vector(pool[0])[j].real
                    for j in range(dim)) for i in range(dim)]
    error = max(abs(decoded[i].real - expected[i]) for i in range(dim))
    print(f"  healthy tenant still served: max slot error {error:.2e} [ok]")

    # -- resilience: rate limiting -------------------------------------------
    # A second server on a manual clock: the bursty tenant gets a token
    # bucket of 2 req/s (burst 2), so its third request in the same instant
    # is rejected with a typed RateLimitedError carrying a retry-after.
    print()
    print("resilience: admission control and circuit breakers")
    clock = ManualClock()
    limited = InferenceServer(
        params, backend="numpy", max_batch_size=4, batch_window=0.001,
        clock=clock,
        admission=AdmissionController(tenant_limits={"org-c/burst": (2.0, 2.0)},
                                      clock=clock))
    limited.register_tenant("org-c/burst", context.keys)
    limited.register_program("dense16", transform.trace)
    for i in range(3):
        try:
            limited.serve([InferenceRequest.single("org-c/burst", "dense16",
                                                   pool[i % len(pool)])])
            print(f"  org-c/burst request {i + 1}: served")
        except RateLimitedError as exc:
            print(f"  org-c/burst request {i + 1}: rate limited "
                  f"(retry after {exc.retry_after_seconds:.1f}s)")

    schedule = FaultSchedule(
        [FaultSpec("keyswitch_rows", "raise", max_injections=2)])
    resilient = InferenceServer(
        params, backend=FaultInjectingBackend(get_backend("numpy"), schedule),
        max_batch_size=4, batch_window=0.001, clock=clock,
        resilience=ResiliencePolicy(retry=RetryPolicy(max_attempts=1),
                                    failure_threshold=2, reset_timeout=0.5))
    resilient.register_tenant("org-a/session-0", context.keys)
    resilient.register_program("dense16", transform.trace)

    # -- resilience: circuit breaker under injected faults -------------------
    # Two injected kernel failures (retries disabled) trip the org-a/dense16
    # breaker; while open, requests are shed without touching the backend;
    # after the reset timeout a half-open probe succeeds and closes it.
    print("  injecting 2 kernel faults into org-a traffic ...")
    for i in range(2):
        try:
            resilient.serve([InferenceRequest.single("org-a/session-0",
                                                     "dense16", pool[0])])
        except ExecutionError as exc:
            print(f"  request failed with ExecutionError "
                  f"(cause: {type(exc.__cause__).__name__})")
    try:
        resilient.serve([InferenceRequest.single("org-a/session-0", "dense16",
                                                 pool[0])])
    except CircuitOpenError as exc:
        print(f"  circuit breaker OPEN: request shed "
              f"(retry after {exc.retry_after_seconds:.1f}s)")
    clock.advance(0.5)
    probe = resilient.serve([InferenceRequest.single("org-a/session-0",
                                                     "dense16", pool[0])])[0]
    breakers = resilient.stats()["breakers"]
    print(f"  after reset timeout: probe served (batch size "
          f"{probe.batch_size}), breaker "
          f"{breakers['states']['org-a/session-0/dense16']} again")
    print(f"  breaker transitions: {breakers['transitions']}")

    # -- wire format ---------------------------------------------------------
    blob = serialize_ciphertext(response.ciphertexts[0])
    restored = deserialize_ciphertext(blob)
    exact = (restored.c0.coefficient_rows() ==
             response.ciphertexts[0].c0.coefficient_rows() and
             restored.c1.coefficient_rows() ==
             response.ciphertexts[0].c1.coefficient_rows())
    print()
    print(f"wire format: ciphertext serializes to {len(blob)} bytes "
          f"({params.modulus_bits}-bit moduli -> 4-byte words)")
    print(f"serialization round-trip: {'ok' if exact else 'MISMATCH'}")

    # -- network gateway: loopback client session ----------------------------
    # The same server behind the framed asyncio gateway.  The client
    # handshakes (protocol version + tenant id), keeps four requests in
    # flight on one socket, and a typed rejection crosses the wire as an
    # ERROR envelope whose stable code rebuilds the exact exception class.
    print()
    print("network gateway: loopback client session")

    def _ct_rows(ct):
        return (ct.c0.coefficient_rows(), ct.c1.coefficient_rows())

    async def loopback_session() -> None:
        async with ServingGateway(server, host="127.0.0.1", port=0,
                                  server_name="demo-gateway") as gateway:
            host, port = gateway.address
            async with await ServingClient.connect(
                    host, port, tenant_id="org-a/session-0",
                    client_name="serving-demo") as client:
                print(f"  connected to {client.server_name} at "
                      f"{host}:{port} (window {client.max_inflight})")
                futures = [await client.submit("dense16",
                                               [pool[i % len(pool)]])
                           for i in range(4)]
                replies = await asyncio.gather(*futures)
                local = await asyncio.gather(*[
                    server.submit(InferenceRequest.single(
                        "org-a/session-0", "dense16", pool[i % len(pool)]))
                    for i in range(4)])
                wire_exact = all(
                    _ct_rows(reply.ciphertexts[0]) ==
                    _ct_rows(local[i].ciphertexts[0])
                    for i, reply in enumerate(replies))
                print(f"  4 multiplexed requests served, batch size "
                      f"{replies[0].batch_size}, bit-exact vs in-process: "
                      f"{'ok' if wire_exact else 'MISMATCH'}")
                try:
                    await client.call("resnet50", [pool[0]])
                except UnknownProgramError as exc:
                    print(f"  typed wire rejection: "
                          f"{type(exc).__name__} (stable code {exc.code})")
                stats = client.stats()
                print(f"  session stats: {stats['served']} served / "
                      f"{stats['errors']} errors over "
                      f"{stats['frames_sent']} frames sent, "
                      f"{stats['bytes_received']} bytes received")
        gw = gateway.stats()
        print(f"  gateway drained clean: {gw['requests']} requests, "
                  f"{gw['responses']} responses, "
                  f"{gw['wire_errors']} wire errors, "
                  f"{gw['open_connections']} connections left open")

    asyncio.run(loopback_session())


if __name__ == "__main__":
    main()
