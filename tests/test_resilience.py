"""Suite for the serving layer's resilience machinery (PR 7).

* **Admission**: token-bucket refill semantics, per-tenant rate limiting
  with ``retry_after``, global queue-depth backpressure, per-tenant
  counters — all on a manual clock, no sleeping.
* **Retries/backoff**: exponential growth, cap, jitter bounds, injected
  sleep recorder; the scheduler's retry ladder turns one-shot kernel
  faults into served responses.
* **Circuit breakers**: the closed/open/half-open state machine, probe
  bounds, transition counters; the scheduler sheds with typed
  ``CircuitOpenError`` while open and recovers through a probe.
* **Deadlines**: queued, mid-retry, and post-execution overruns all fail
  the future with ``DeadlineExceededError`` — nothing hangs.
* **Chaos**: the seeded fault schedule (determinism, budgets), the
  fault-injecting backend (raise/stall/corrupt) on the pure-python
  backend, wire corruption, output-validator integrity, and a miniature
  end-to-end soak through ``chaos_soak_gate``.

Everything here runs on the pure-python backend — this file is part of the
no-numpy CI leg — except the soak's second case, which runs the numpy
kernels and is skipped without them.
"""

import random

import pytest

from repro.fhe.backend import (
    KERNELS,
    ArithmeticBackend,
    NumpyBackend,
    PythonBackend,
    available_backends,
    use_backend,
)
from repro.fhe.ckks.ciphertext import CKKSCiphertext, CKKSPlaintext
from repro.fhe.ckks.evaluator import CKKSEvaluator
from repro.fhe.ckks.keys import CKKSKeyGenerator
from repro.fhe.ckks.keyswitch import hoist_wave, keyswitch_wave
from repro.fhe.params import CKKSParameters
from repro.fhe.program import HETrace, ProgramExecutor
from repro.fhe.rns import RNSPolynomial
from repro.serve import (
    CORRUPTIBLE_KERNELS,
    AdmissionController,
    CircuitBreaker,
    CircuitOpenError,
    CorruptPayloadError,
    CorruptResultError,
    DeadlineExceededError,
    ExecutionError,
    FaultInjectingBackend,
    FaultSchedule,
    FaultSpec,
    InferenceRequest,
    InferenceServer,
    InjectedFault,
    LoadGenerator,
    ManualClock,
    OverloadedError,
    RateLimitedError,
    ResiliencePolicy,
    RetryPolicy,
    SchedulerDelayInjector,
    TokenBucket,
    chaos_soak_gate,
    corrupt_payload,
    deserialize_ciphertext,
    serialize_ciphertext,
)

PYTHON = PythonBackend()
TOY = CKKSParameters.toy()

numpy_missing = "numpy" not in available_backends()
needs_numpy = pytest.mark.skipif(numpy_missing, reason="numpy backend unavailable")
#: Thresholds at 0: the vectorized kernels run even on the toy ring.
PACKED = None if numpy_missing else NumpyBackend(min_vector_length=0,
                                                 min_ntt_length=0)


# ---------------------------------------------------------------------------
# Helpers (shared idiom with tests/test_serve.py)
# ---------------------------------------------------------------------------

def _random_poly(params, seed, level=None):
    degree = params.ring_degree
    basis = params.basis(params.max_level if level is None else level)
    return RNSPolynomial.sample_uniform(degree, basis, random.Random(seed ^ 0x53EB7E))


def _random_ct(params, seed, level=None, scale=None):
    level = params.max_level if level is None else level
    return CKKSCiphertext(
        c0=_random_poly(params, seed, level),
        c1=_random_poly(params, seed + 1, level),
        level=level,
        scale=float(params.scale) if scale is None else float(scale),
    )


def _random_pt(params, seed, level=None):
    level = params.max_level if level is None else level
    return CKKSPlaintext(poly=_random_poly(params, seed, level), level=level,
                         scale=float(params.scale))


def _keyed(params, seed=11):
    return CKKSKeyGenerator(params, seed=seed, error_stddev=0.0).generate()


def _rows(ct):
    c0 = ct.c0.to_coeff()
    c1 = ct.c1.to_coeff()
    return (
        tuple(map(tuple, c0.coefficient_rows())),
        tuple(map(tuple, c1.coefficient_rows())),
    )


def _dense_tracer(pts):
    def tracer(x):
        acc = x.rotate(1) * pts[0] + x.rotate(2) * pts[1] + x * pts[2]
        return acc + x.conjugate() * pts[3]
    return tracer


def _dense_server(params, backend, seed=11, tenants=("t0",), **kwargs):
    kwargs.setdefault("batch_window", 0.001)
    server = InferenceServer(params, backend=backend, **kwargs)
    keys = _keyed(params, seed)
    for tenant in tenants:
        server.register_tenant(tenant, keys)
    pts = [_random_pt(params, 400 + j) for j in range(4)]
    tracer = _dense_tracer(pts)
    server.register_program("dense", tracer)
    return server, keys, tracer


def _eager_outputs(params, keys, backend, tracer, cts):
    evaluator = CKKSEvaluator(params, keys, backend=backend)
    outputs = []
    for ct in cts:
        trace = HETrace(params)
        x = trace.input("x", level=ct.level, scale=ct.scale)
        trace.output("y", tracer(x))
        outputs.append(
            ProgramExecutor(evaluator).run_eager(trace.program, {"x": ct})["y"]
        )
    return outputs


class _SleepRecorder:
    def __init__(self):
        self.calls = []

    def __call__(self, seconds):
        self.calls.append(seconds)


# ---------------------------------------------------------------------------
# Token buckets and admission control
# ---------------------------------------------------------------------------

def test_token_bucket_starts_full_and_refills_on_manual_clock():
    clock = ManualClock()
    bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
    assert bucket.available() == pytest.approx(3.0)
    assert all(bucket.try_acquire() for _ in range(3))
    assert not bucket.try_acquire()
    assert bucket.seconds_until() == pytest.approx(0.5)
    clock.advance(0.5)  # refills exactly one token at 2 tokens/s
    assert bucket.try_acquire()
    assert not bucket.try_acquire()
    clock.advance(100.0)  # refill caps at burst
    assert bucket.available() == pytest.approx(3.0)


def test_token_bucket_fractional_rates_accumulate():
    clock = ManualClock()
    bucket = TokenBucket(rate=0.5, clock=clock)  # burst defaults to 1
    assert bucket.try_acquire()
    assert not bucket.try_acquire()
    clock.advance(1.0)  # only half a token
    assert not bucket.try_acquire()
    clock.advance(1.0)
    assert bucket.try_acquire()


def test_token_bucket_validation():
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=1.0, burst=0.5)


def test_admission_rate_limits_per_tenant_and_counts():
    clock = ManualClock()
    controller = AdmissionController(per_tenant_rate=1.0, per_tenant_burst=2.0,
                                     clock=clock)
    controller.admit("a", 0)
    controller.admit("a", 0)
    with pytest.raises(RateLimitedError) as info:
        controller.admit("a", 0)
    assert info.value.retry_after_seconds == pytest.approx(1.0)
    controller.admit("b", 0)  # tenant b has its own bucket
    clock.advance(1.0)
    controller.admit("a", 0)  # refilled
    stats = controller.stats()
    assert stats["per_tenant"]["a"] == {"admitted": 3, "rate_limited": 1, "shed": 0}
    assert stats["per_tenant"]["b"]["admitted"] == 1
    assert stats["rate_limited"] == 1 and stats["admitted"] == 4


def test_admission_tenant_limit_overrides_default():
    clock = ManualClock()
    controller = AdmissionController(per_tenant_rate=100.0,
                                     tenant_limits={"noisy": (1.0, 1.0)},
                                     clock=clock)
    controller.admit("noisy", 0)
    with pytest.raises(RateLimitedError):
        controller.admit("noisy", 0)
    for _ in range(10):
        controller.admit("polite", 0)


def test_admission_queue_depth_backpressure():
    controller = AdmissionController(max_pending=2, clock=ManualClock())
    controller.admit("a", 0)
    controller.admit("b", 1)
    with pytest.raises(OverloadedError):
        controller.admit("c", 2)
    assert controller.stats()["shed"] == 1
    controller.admit("c", 1)  # queue drained below the bound


def test_admission_controller_validation():
    with pytest.raises(ValueError):
        AdmissionController(max_pending=0)


def test_server_rate_limits_one_tenant_without_starving_the_other():
    server, keys, tracer = _dense_server(
        TOY, PYTHON, tenants=("free", "paid"),
        admission=AdmissionController(tenant_limits={"free": (1.0, 1.0)},
                                      clock=ManualClock()))
    requests = [
        InferenceRequest.single("free", "dense", _random_ct(TOY, 1)),
        InferenceRequest.single("free", "dense", _random_ct(TOY, 2)),
        InferenceRequest.single("paid", "dense", _random_ct(TOY, 3)),
    ]
    results = server.serve(requests, return_exceptions=True)
    assert isinstance(results[0], type(results[2]))  # both responses
    assert isinstance(results[1], RateLimitedError)
    assert results[1].retry_after_seconds == pytest.approx(1.0)
    stats = server.stats()
    assert stats["rejections"] == {"RateLimitedError": 1}
    assert stats["admission"]["per_tenant"]["free"]["rate_limited"] == 1
    assert stats["served"] == 2 and stats["pending"] == 0


def test_server_sheds_load_when_pending_queue_is_full():
    server, keys, tracer = _dense_server(
        TOY, PYTHON,
        admission=AdmissionController(max_pending=2, clock=ManualClock()))
    requests = [InferenceRequest.single("t0", "dense", _random_ct(TOY, i))
                for i in range(4)]
    results = server.serve(requests, return_exceptions=True)
    shed = [r for r in results if isinstance(r, OverloadedError)]
    served = [r for r in results if not isinstance(r, BaseException)]
    assert len(shed) == 2 and len(served) == 2
    assert server.stats()["admission"]["shed"] == 2
    # the queue drained: a follow-up request is admitted again
    response = server.serve(
        [InferenceRequest.single("t0", "dense", _random_ct(TOY, 9))])[0]
    assert response.ciphertexts


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------

def test_retry_backoff_grows_and_caps():
    policy = RetryPolicy(max_attempts=5, base_delay=0.01, multiplier=2.0,
                         max_delay=0.03, jitter=0.0)
    assert policy.backoff_delay(0) == pytest.approx(0.01)
    assert policy.backoff_delay(1) == pytest.approx(0.02)
    assert policy.backoff_delay(2) == pytest.approx(0.03)  # capped
    assert policy.backoff_delay(5) == pytest.approx(0.03)


def test_retry_jitter_bounds_and_determinism():
    a = RetryPolicy(base_delay=0.01, jitter=0.5, rng=random.Random(7))
    b = RetryPolicy(base_delay=0.01, jitter=0.5, rng=random.Random(7))
    delays_a = [a.backoff_delay(0) for _ in range(20)]
    delays_b = [b.backoff_delay(0) for _ in range(20)]
    assert delays_a == delays_b  # same seed, same jitter draws
    assert all(0.01 <= d <= 0.015 + 1e-12 for d in delays_a)
    assert len(set(delays_a)) > 1  # jitter actually varies


def test_retry_wait_uses_injected_sleep():
    recorder = _SleepRecorder()
    policy = RetryPolicy(base_delay=0.25, max_delay=1.0, jitter=0.0,
                         sleep=recorder)
    delay = policy.wait(0)
    assert recorder.calls == [pytest.approx(0.25)]
    assert delay == pytest.approx(0.25)


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)


def test_scheduler_retries_transient_failure_to_success(monkeypatch):
    """One-shot executor explosions are retried, never surfaced."""
    server, keys, tracer = _dense_server(
        TOY, PYTHON,
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, sleep=_SleepRecorder())))
    original = ProgramExecutor.run
    failures = {"left": 1}

    def flaky(self, program, inputs, optimize=True):
        if failures["left"]:
            failures["left"] -= 1
            raise RuntimeError("transient kernel fault")
        return original(self, program, inputs, optimize=optimize)

    monkeypatch.setattr(ProgramExecutor, "run", flaky)
    ct = _random_ct(TOY, 5)
    response = server.serve(
        [InferenceRequest.single("t0", "dense", ct)])[0]
    monkeypatch.setattr(ProgramExecutor, "run", original)
    reference = _eager_outputs(TOY, keys, PYTHON, tracer, [ct])[0]
    assert _rows(response.ciphertexts[0]) == _rows(reference)
    stats = server.stats()
    assert stats["retries"] == 1 and stats["execution_failures"] == 1
    assert stats["served"] == 1 and stats["failed"] == 0


def test_scheduler_exhausts_retries_and_chains_cause(monkeypatch):
    recorder = _SleepRecorder()
    server, _, _ = _dense_server(
        TOY, PYTHON,
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, sleep=recorder)))
    boom = RuntimeError("kernel exploded")

    def broken(self, program, inputs, optimize=True):
        raise boom

    monkeypatch.setattr(ProgramExecutor, "run", broken)
    result = server.serve(
        [InferenceRequest.single("t0", "dense", _random_ct(TOY, 5))],
        return_exceptions=True)[0]
    assert isinstance(result, ExecutionError)
    assert result.__cause__ is boom  # the kernel traceback survives
    assert len(recorder.calls) == 2  # two backoffs for three attempts
    stats = server.stats()
    assert stats["failed"] == 1 and stats["retries"] == 2
    assert stats["failures"] == {"ExecutionError": 1}


# ---------------------------------------------------------------------------
# Circuit breakers
# ---------------------------------------------------------------------------

def test_breaker_opens_after_consecutive_failures_only():
    clock = ManualClock()
    breaker = CircuitBreaker(failure_threshold=3, clock=clock)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()  # resets the consecutive count
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()
    assert breaker.transitions["opened"] == 1


def test_breaker_half_opens_probes_and_closes():
    clock = ManualClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.5,
                             half_open_probes=2, clock=clock)
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.retry_after() == pytest.approx(0.5)
    clock.advance(0.3)
    assert not breaker.allow()
    assert breaker.retry_after() == pytest.approx(0.2)
    clock.advance(0.2)
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert breaker.allow() and breaker.allow()  # two probes admitted
    assert not breaker.allow()  # probe budget spent
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.transitions == {"opened": 1, "half_opened": 1, "closed": 1}


def test_breaker_failed_probe_reopens():
    clock = ManualClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.5,
                             clock=clock)
    breaker.record_failure()
    clock.advance(0.5)
    assert breaker.allow()  # the half-open probe
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.transitions["opened"] == 2
    assert breaker.retry_after() == pytest.approx(0.5)


def test_server_breaker_stats_aggregate(monkeypatch):
    """``stats()["breakers"]`` aggregates one breaker per (tenant,
    program) that has executed, and names none that has not."""
    clock = ManualClock()
    server, _, _ = _dense_server(
        TOY, PYTHON, tenants=("t0", "t1", "t2"), clock=clock,
        resilience=ResiliencePolicy(retry=RetryPolicy(max_attempts=1),
                                    failure_threshold=1))
    original = ProgramExecutor.run

    def broken(self, program, inputs, optimize=True):
        raise RuntimeError("backend down")

    monkeypatch.setattr(ProgramExecutor, "run", broken)
    failed = server.serve(
        [InferenceRequest.single("t0", "dense", _random_ct(TOY, 1))],
        return_exceptions=True)[0]
    assert isinstance(failed, ExecutionError)
    monkeypatch.setattr(ProgramExecutor, "run", original)
    server.serve([InferenceRequest.single("t1", "dense", _random_ct(TOY, 2))])
    stats = server.stats()["breakers"]
    assert stats["open_now"] == 1
    assert stats["states"] == {"t0/dense": "open", "t1/dense": "closed"}
    assert stats["transitions"] == {"opened": 1, "half_opened": 0,
                                    "closed": 0}


def test_server_breaker_sheds_then_recovers(monkeypatch):
    clock = ManualClock()
    server, keys, tracer = _dense_server(
        TOY, PYTHON, clock=clock,
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=1),
            failure_threshold=2, reset_timeout=0.5))
    original = ProgramExecutor.run

    def broken(self, program, inputs, optimize=True):
        raise RuntimeError("backend down")

    monkeypatch.setattr(ProgramExecutor, "run", broken)
    for i in range(2):
        result = server.serve(
            [InferenceRequest.single("t0", "dense", _random_ct(TOY, i))],
            return_exceptions=True)[0]
        assert isinstance(result, ExecutionError)
    # two consecutive failures opened the (t0, dense) breaker
    rejected = server.serve(
        [InferenceRequest.single("t0", "dense", _random_ct(TOY, 7))],
        return_exceptions=True)[0]
    assert isinstance(rejected, CircuitOpenError)
    assert rejected.retry_after_seconds == pytest.approx(0.5)
    assert server.stats()["rejections"] == {"CircuitOpenError": 1}
    # backend recovers; after the reset timeout a probe closes the breaker
    monkeypatch.setattr(ProgramExecutor, "run", original)
    clock.advance(0.5)
    ct = _random_ct(TOY, 8)
    response = server.serve(
        [InferenceRequest.single("t0", "dense", ct)])[0]
    reference = _eager_outputs(TOY, keys, PYTHON, tracer, [ct])[0]
    assert _rows(response.ciphertexts[0]) == _rows(reference)
    stats = server.stats()["breakers"]
    assert stats["open_now"] == 0
    assert stats["transitions"]["opened"] == 1
    assert stats["transitions"]["closed"] == 1
    assert stats["states"]["t0/dense"] == "closed"


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------

def test_deadline_overrun_by_execution_delay_fails_future():
    clock = ManualClock()
    delay = SchedulerDelayInjector(1.0, 0.2, sleep=clock.advance)
    server, _, _ = _dense_server(TOY, PYTHON, clock=clock,
                                 on_batch_start=delay)
    result = server.serve(
        [InferenceRequest.single("t0", "dense", _random_ct(TOY, 1),
                                 deadline_seconds=0.1)],
        return_exceptions=True)[0]
    assert isinstance(result, DeadlineExceededError)
    stats = server.stats()
    assert stats["deadline_exceeded"] == 1 and stats["failed"] == 1
    assert stats["pending"] == 0  # nothing hangs
    assert delay.injected == 1


def test_generous_deadline_is_met():
    clock = ManualClock()
    delay = SchedulerDelayInjector(1.0, 0.2, sleep=clock.advance)
    server, _, _ = _dense_server(TOY, PYTHON, clock=clock,
                                 on_batch_start=delay)
    response = server.serve(
        [InferenceRequest.single("t0", "dense", _random_ct(TOY, 1),
                                 deadline_seconds=5.0)])[0]
    assert response.ciphertexts
    assert server.stats()["deadline_exceeded"] == 0


def test_default_deadline_from_resilience_policy():
    clock = ManualClock()
    delay = SchedulerDelayInjector(1.0, 0.2, sleep=clock.advance)
    server, _, _ = _dense_server(
        TOY, PYTHON, clock=clock, on_batch_start=delay,
        resilience=ResiliencePolicy(default_deadline=0.1))
    result = server.serve(
        [InferenceRequest.single("t0", "dense", _random_ct(TOY, 1))],
        return_exceptions=True)[0]
    assert isinstance(result, DeadlineExceededError)


def test_deadline_checked_between_retry_attempts(monkeypatch):
    clock = ManualClock()
    server, _, _ = _dense_server(
        TOY, PYTHON, clock=clock,
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=5, base_delay=0.2, max_delay=1.0,
                              jitter=0.0, sleep=clock.advance)))

    def broken(self, program, inputs, optimize=True):
        raise RuntimeError("down")

    monkeypatch.setattr(ProgramExecutor, "run", broken)
    result = server.serve(
        [InferenceRequest.single("t0", "dense", _random_ct(TOY, 1),
                                 deadline_seconds=0.3)],
        return_exceptions=True)[0]
    # the backoff ladder overran the deadline before attempts were exhausted
    assert isinstance(result, DeadlineExceededError)
    assert server.stats()["retries"] < 4
    assert server.stats()["pending"] == 0


# ---------------------------------------------------------------------------
# Chaos: schedules and the fault-injecting backend
# ---------------------------------------------------------------------------

def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec("batched_ntt", "explode")
    with pytest.raises(ValueError):
        FaultSpec("batched_ntt", "raise", probability=1.5)
    with pytest.raises(ValueError, match="does not support corruption"):
        FaultSpec("limbs_neg", "corrupt")  # not a corruptible kernel


def test_fault_spec_rejects_a_kernel_no_backend_has():
    """A spec naming no kernel could never fire, and the chaos run would
    test nothing without anyone noticing."""
    for kernel in ("ntt_forward", "modmul"):
        for mode in ("raise", "stall", "corrupt"):
            with pytest.raises(ValueError, match=f"unknown kernel '{kernel}'"):
                FaultSpec(kernel, mode)
    assert CORRUPTIBLE_KERNELS <= set(KERNELS)


def test_fault_schedule_is_seeded_and_bounded():
    def run(seed):
        schedule = FaultSchedule(
            [FaultSpec("limbs_add", "raise", probability=0.5,
                       max_injections=3)], seed=seed)
        return [schedule.draw("limbs_add") for _ in range(20)], schedule

    modes_a, schedule_a = run(42)
    modes_b, _ = run(42)
    modes_c, _ = run(43)
    assert modes_a == modes_b
    assert modes_a != modes_c
    assert modes_a.count("raise") == 3  # budget enforced
    assert schedule_a.exhausted()
    assert schedule_a.counts() == {"limbs_add:raise": 3}
    assert schedule_a.calls() == {"limbs_add": 20}
    assert all(e.kernel == "limbs_add" and e.mode == "raise"
               for e in schedule_a.events)


def test_fault_schedule_start_call_offsets_injection():
    schedule = FaultSchedule([FaultSpec("limbs_add", "raise", start_call=2)])
    assert [schedule.draw("limbs_add") for _ in range(4)] == \
        [None, None, "raise", "raise"]


def test_fault_backend_is_a_backend_and_raises_on_schedule():
    schedule = FaultSchedule([FaultSpec("limbs_add", "raise",
                                        max_injections=1)])
    chaos = FaultInjectingBackend(PYTHON, schedule)
    assert isinstance(chaos, ArithmeticBackend)
    assert chaos.name == "chaos:python"
    moduli = [17]
    a = PYTHON.pack_limbs([[1, 2, 3, 4]], moduli)
    b = PYTHON.pack_limbs([[5, 6, 7, 8]], moduli)
    with pytest.raises(InjectedFault):
        chaos.limbs_add(a, b, moduli)
    # budget spent: the wrapper now forwards cleanly
    clean = PYTHON.limbs_add(a, b, moduli)
    again = chaos.limbs_add(a, b, moduli)
    assert ArithmeticBackend.store_rows(again) == \
        ArithmeticBackend.store_rows(clean)


def test_fault_backend_corrupts_one_residue_in_range():
    schedule = FaultSchedule([FaultSpec("limbs_add", "corrupt",
                                        max_injections=1)])
    chaos = FaultInjectingBackend(PYTHON, schedule)
    moduli = [17, 97]
    rows = [[1, 2, 3, 4], [10, 20, 30, 40]]
    a = PYTHON.pack_limbs(rows, moduli)
    b = PYTHON.pack_limbs([[0] * 4, [0] * 4], moduli)
    corrupted = ArithmeticBackend.store_rows(chaos.limbs_add(a, b, moduli))
    clean = ArithmeticBackend.store_rows(PYTHON.limbs_add(a, b, moduli))
    assert corrupted != clean
    diffs = [(i, j) for i, (cr, cl) in enumerate(zip(corrupted, clean))
             for j, (x, y) in enumerate(zip(cr, cl)) if x != y]
    assert diffs == [(0, 0)]  # exactly one residue perturbed
    assert corrupted[0][0] == (clean[0][0] + 1) % moduli[0]  # still reduced


def test_fault_backend_corrupts_one_keyswitch_residue_in_range():
    """``keyswitch_rows`` returns ``(f0, f1)`` pairs: a corruption perturbs
    one residue of the first member's ``f0`` and nothing else."""
    level = TOY.max_level
    keygen = CKKSKeyGenerator(TOY, seed=5, error_stddev=0.0)
    relin = keygen.make_relinearization_key(keygen.generate(), level)
    chaos = FaultInjectingBackend(PYTHON, FaultSchedule(
        [FaultSpec("keyswitch_rows", "corrupt", max_injections=1)]))
    with use_backend(PYTHON):
        hoists = hoist_wave([_random_ct(TOY, 71).c1, _random_ct(TOY, 72).c1],
                            TOY, level)
        clean = keyswitch_wave([(h, relin, None) for h in hoists])
    with use_backend(chaos):
        corrupted = keyswitch_wave([(h, relin, None) for h in hoists])
    rows = ArithmeticBackend.store_rows
    diffs = [(m, c, i, j)
             for m, (got, want) in enumerate(zip(corrupted, clean))
             for c in range(2)
             for i, (gr, wr) in enumerate(zip(rows(got[c].store()),
                                              rows(want[c].store())))
             for j, (x, y) in enumerate(zip(gr, wr)) if x != y]
    assert diffs == [(0, 0, 0, 0)]  # exactly one residue perturbed
    q = TOY.moduli[0]
    assert rows(corrupted[0][0].store())[0][0] == \
        (rows(clean[0][0].store())[0][0] + 1) % q  # still reduced


def test_fault_backend_stall_uses_injected_sleep():
    recorder = _SleepRecorder()
    schedule = FaultSchedule([FaultSpec("limbs_add", "stall",
                                        max_injections=1)],
                             stall_seconds=0.125)
    chaos = FaultInjectingBackend(PYTHON, schedule, sleep=recorder)
    moduli = [17]
    a = PYTHON.pack_limbs([[1, 2, 3, 4]], moduli)
    result = chaos.limbs_add(a, a, moduli)
    assert recorder.calls == [0.125]
    assert ArithmeticBackend.store_rows(result) == \
        ArithmeticBackend.store_rows(PYTHON.limbs_add(a, a, moduli))


def test_server_on_chaos_backend_serves_bit_exact_through_faults():
    """Injected kernel raises become retries; responses stay bit-exact."""
    schedule = FaultSchedule(
        [FaultSpec("keyswitch_rows", "raise", max_injections=2)])
    chaos = FaultInjectingBackend(PYTHON, schedule)
    server, keys, tracer = _dense_server(
        TOY, chaos,
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=4, sleep=_SleepRecorder())))
    cts = [_random_ct(TOY, 31 * (i + 1)) for i in range(3)]
    responses = server.serve(
        [InferenceRequest.single("t0", "dense", ct) for ct in cts])
    references = _eager_outputs(TOY, keys, PYTHON, tracer, cts)
    for response, reference in zip(responses, references):
        assert _rows(response.ciphertexts[0]) == _rows(reference)
    stats = server.stats()
    assert stats["served"] == 3 and stats["failed"] == 0
    assert stats["execution_failures"] >= 1
    assert schedule.exhausted()


def test_corrupt_payload_breaks_the_wire_checksum():
    blob = serialize_ciphertext(_random_ct(TOY, 3))
    assert deserialize_ciphertext(blob)  # sanity: clean blob parses
    broken = corrupt_payload(blob, random.Random(5))
    with pytest.raises(CorruptPayloadError):
        deserialize_ciphertext(broken)
    assert corrupt_payload(blob, random.Random(5)) == broken  # seeded
    with pytest.raises(ValueError):
        corrupt_payload(blob, offset=2)  # header is off limits
    with pytest.raises(ValueError):
        corrupt_payload(b"tiny")


# ---------------------------------------------------------------------------
# Output validation (integrity hook)
# ---------------------------------------------------------------------------

def test_output_validator_turns_corruption_into_retry():
    schedule = FaultSchedule(
        [FaultSpec("stacked_pmult_mac", "corrupt", max_injections=1)])
    chaos = FaultInjectingBackend(PYTHON, schedule)
    keys = _keyed(TOY)
    pts = [_random_pt(TOY, 400 + j) for j in range(4)]
    tracer = _dense_tracer(pts)
    references = {}

    def validator(request, index, ciphertext):
        expected = references[request.request_id][index]
        if _rows(ciphertext) != _rows(expected):
            raise ValueError("output mismatches the eager reference")

    server = InferenceServer(
        TOY, backend=chaos, batch_window=0.001,
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, sleep=_SleepRecorder()),
            output_validator=validator))
    server.register_tenant("t0", keys)
    server.register_program("dense", tracer)
    ct = _random_ct(TOY, 77)
    request = InferenceRequest.single("t0", "dense", ct)
    references[request.request_id] = _eager_outputs(TOY, keys, PYTHON,
                                                    tracer, [ct])
    response = server.serve([request])[0]
    assert _rows(response.ciphertexts[0]) == \
        _rows(references[request.request_id][0])
    stats = server.stats()
    assert stats["output_validation_failures"] >= 1
    assert stats["served"] == 1 and stats["failed"] == 0


def test_output_validator_exhaustion_is_a_corrupt_result_error():
    def always_reject(request, index, ciphertext):
        raise ValueError("never bit-exact")

    server, _, _ = _dense_server(
        TOY, PYTHON,
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2, sleep=_SleepRecorder()),
            output_validator=always_reject))
    result = server.serve(
        [InferenceRequest.single("t0", "dense", _random_ct(TOY, 1))],
        return_exceptions=True)[0]
    assert isinstance(result, CorruptResultError)
    assert server.stats()["failures"] == {"CorruptResultError": 1}


# ---------------------------------------------------------------------------
# End-to-end: miniature chaos soak through the release gate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "backend, kernel, raises, corruptions, attempts, threshold", [
        pytest.param(PYTHON, "keyswitch_rows", 3, 0, 1, 1, id="python-raise"),
        # The fault lands in a keyswitch wave's stacked transform: it takes
        # the whole batch's wave down, and every request still resolves.
        pytest.param(PYTHON, "stacked_ntt", 3, 0, 1, 1,
                     id="python-raise-in-a-wave-transform"),
        # Silent store corruption that only the output validator can catch,
        # behind a retrying policy, on the vectorized kernels.
        pytest.param(PACKED, "keyswitch_rows", 5, 2, 3, 2,
                     id="numpy-raise-corrupt-validate-retry", marks=needs_numpy),
    ])
def test_chaos_soak_gate_end_to_end(backend, kernel, raises, corruptions,
                                    attempts, threshold):
    clock = ManualClock()
    specs = [FaultSpec(kernel, "raise", start_call=4, max_injections=raises)]
    if corruptions:
        specs.append(FaultSpec("stacked_pmult_mac", "corrupt", start_call=2,
                               max_injections=corruptions))
    schedule = FaultSchedule(specs, seed=9)
    chaos = FaultInjectingBackend(backend, schedule)
    reference_cache = {}

    def reference_rows(ct):
        key = _rows(ct)
        if key not in reference_cache:
            reference_cache[key] = _rows(_eager_outputs(
                TOY, keys, backend, tracer, [ct])[0])
        return reference_cache[key]

    def validator(request, index, ciphertext):
        if _rows(ciphertext) != reference_rows(request.ciphertexts[index]):
            raise ValueError("output mismatches the eager reference")

    def verify(request, response):
        return _rows(response.ciphertexts[0]) == \
            reference_rows(request.ciphertexts[0])

    server, keys, tracer = _dense_server(
        TOY, chaos, tenants=("t0", "t1", "t2"), clock=clock,
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=attempts, sleep=_SleepRecorder()),
            failure_threshold=threshold, reset_timeout=0.5,
            output_validator=validator if corruptions else None))
    pool = [_random_ct(TOY, 1000 + i) for i in range(4)]

    def input_factory(tenant, rng):
        return rng.choice(pool)

    generator = LoadGenerator(server, ["t0", "t1", "t2"], ["dense"],
                              input_factory, seed=3, requests_per_pass=8,
                              verify_fn=verify)
    for _ in range(5):
        generator.run_pass()
        clock.advance(0.5)  # lets any opened breaker half-open next pass
    # recovery tail: faults exhausted, breakers probe and close
    assert schedule.exhausted()
    clock.advance(0.5)
    generator.run_pass()
    agg = chaos_soak_gate(generator, min_requests=48, min_tenants=3)
    assert agg["requests"] == 48
    assert agg["served"] + agg["rejected"] + agg["failed"] == 48
    assert agg["failed"] >= 1  # the injected faults actually failed someone
    assert agg["mismatched"] == 0
    assert agg["gates"]["breaker_opened"] >= 1
    assert agg["gates"]["breaker_closed"] >= 1
    stats = server.stats()
    assert (stats["retries"] >= 1) == (attempts > 1)
    assert (stats["output_validation_failures"] >= 1) == bool(corruptions)


def test_chaos_soak_gate_flags_problems():
    server, _, _ = _dense_server(TOY, PYTHON)
    generator = LoadGenerator(server, ["t0"], ["dense"],
                              lambda tenant, rng: _random_ct(TOY, 1),
                              requests_per_pass=2)
    generator.run_pass()
    with pytest.raises(AssertionError) as info:
        chaos_soak_gate(generator, min_requests=1000, min_tenants=3)
    message = str(info.value)
    assert "soak too small" in message
    assert "soak too narrow" in message
    assert "no circuit breaker ever opened" in message
    assert "without a verify_fn" in message


# ---------------------------------------------------------------------------
# Load generator accounting
# ---------------------------------------------------------------------------

def test_load_generator_accounts_for_failures(monkeypatch):
    server, _, _ = _dense_server(
        TOY, PYTHON,
        resilience=ResiliencePolicy(retry=RetryPolicy(max_attempts=1),
                                    failure_threshold=100))

    def broken(self, program, inputs, optimize=True):
        raise RuntimeError("down")

    monkeypatch.setattr(ProgramExecutor, "run", broken)
    generator = LoadGenerator(server, ["t0"], ["dense"],
                              lambda tenant, rng: _random_ct(TOY, 1),
                              requests_per_pass=4)
    summary = generator.run_pass()
    assert summary.requests == 4
    assert summary.served == 0 and summary.rejected == 0
    assert summary.failed == 4
    assert summary.failure_types == {"ExecutionError": 4}
    assert "4 failed" in summary.line().replace(" 4", "4")
    agg = generator.report.aggregate()
    assert agg["failed"] == 4 and agg["unresolved"] == 0
    assert agg["failure_types"] == {"ExecutionError": 4}


def test_load_generator_counts_factory_errors_as_rejections():
    server, _, _ = _dense_server(TOY, PYTHON)
    calls = {"n": 0}

    def factory(tenant, rng):
        calls["n"] += 1
        if calls["n"] % 2:
            raise CorruptPayloadError("wire corruption before submit")
        return _random_ct(TOY, calls["n"])

    generator = LoadGenerator(server, ["t0"], ["dense"], factory,
                              requests_per_pass=6)
    summary = generator.run_pass()
    assert summary.requests == 6
    assert summary.rejected == 3 and summary.served == 3
    assert summary.rejection_types == {"CorruptPayloadError": 3}
    agg = generator.report.aggregate()
    assert agg["served"] + agg["rejected"] + agg["failed"] == 6


def test_load_generator_stamps_deadlines():
    clock = ManualClock()
    delay = SchedulerDelayInjector(1.0, 0.2, sleep=clock.advance)
    server, _, _ = _dense_server(TOY, PYTHON, clock=clock,
                                 on_batch_start=delay)
    generator = LoadGenerator(server, ["t0"], ["dense"],
                              lambda tenant, rng: _random_ct(TOY, 1),
                              requests_per_pass=2, deadline_seconds=0.1)
    summary = generator.run_pass()
    assert summary.failed == 2
    assert summary.failure_types == {"DeadlineExceededError": 2}
