"""Asyncio multi-tenant scheduler for encrypted-inference requests.

A :class:`InferenceServer` hosts a set of *programs* (traced computation
shapes, e.g. a BSGS dense layer) and a set of *tenants* (key sets).  Clients
``submit`` requests carrying ciphertexts; the scheduler groups compatible
requests — same key set, program, level, and scale — into one *joint*
program with ``C`` inputs ``x0..x{C-1}`` and ``C`` outputs, planned once per
``(program, level, scale, C)`` and executed through the optimizing planner.
The planner's stacked-conversion pass then merges the per-request NTT/INTT
conversions into single ``(2*C, L, N)`` ``stacked_ntt`` dispatches and each
request's plaintext MACs into ``(C, L, N)`` ``stacked_pmult_mac`` dispatches,
while the wave pass sorts the joint program into keyswitch *waves*: the
rotations every request issues at the same depth (a BSGS layer's ``C x
(baby-1)`` baby rotations, then its ``C x (giant-1)`` giant rotations) run
as one wave that hoists each rotated input once and shares one stacked
transform per keyswitch phase across the whole batch, cut only by the
element budget of :mod:`repro.fhe.ckks.keyswitch` — the batched dispatch
shapes the Trinity cost model was built around.

Batching changes nothing numerically: every planner pass is an exact
transformation, so a batched request decrypts bit-exact to the same request
run alone through the eager path (the differential test in
``tests/test_serve.py`` pins this).

Robustness model (PR 7 made every stage a policy object):

* **admission** happens before validation: per-tenant token buckets and a
  global queue-depth bound (:mod:`repro.serve.admission`) reject floods
  with typed :class:`RateLimitedError` / :class:`OverloadedError` before
  they can starve the batch window;
* **validation** happens at submit time and raises typed
  :class:`~repro.serve.errors.RequestRejected` subclasses; a rejected
  request never enters a batch and the scheduler keeps serving.  Missing
  evaluation keys are detected against the *plan* (via
  ``required_galois_elements``) before execution, so frozen tenant key sets
  fail fast with :class:`MissingKeyError`;
* a per-(tenant, program) **circuit breaker**
  (:mod:`repro.serve.resilience`) sheds load with
  :class:`CircuitOpenError` while open after consecutive execution
  failures, and half-opens to probe recovery;
* per-request **deadlines** are checked before execution, between retry
  attempts, and after execution — an overrun fails the pending future with
  :class:`DeadlineExceededError` instead of leaving it hanging;
* if a joint batch fails mid-execution, the scheduler degrades gracefully:
  each member request is retried unbatched through the
  :class:`~repro.serve.resilience.RetryPolicy` (exponential backoff with
  jitter, injectable clock/RNG/sleep), and only requests that exhaust
  their retries see an :class:`ExecutionError` with the original kernel
  failure chained as ``__cause__``;
* an optional ``output_validator`` in the resilience policy checks every
  computed ciphertext before it is handed back, so corrupted kernel
  results (see :mod:`repro.serve.chaos`) become retries or typed
  :class:`CorruptResultError` failures — never silent wrong answers.

Execution is synchronous inside the event loop (one worker); asyncio is used
for request admission, batch windows, and completion futures, not for
parallel number crunching.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..fhe.ckks.ciphertext import CKKSCiphertext
from ..fhe.ckks.evaluator import CKKSEvaluator
from ..fhe.ckks.keys import CKKSKeySet
from ..fhe.params import CKKSParameters
from ..fhe.program import HETrace, LRUCache, ProgramExecutor, plan_program
from ..fhe.tfhe.lwe import LWECiphertext
from .admission import AdmissionController
from .errors import (
    CircuitOpenError,
    CorruptResultError,
    DeadlineExceededError,
    ExecutionError,
    LevelMismatchError,
    MissingKeyError,
    OversizeBatchError,
    ParameterMismatchError,
    RequestRejected,
    ScaleMismatchError,
    SchemeMismatchError,
    ServeError,
    UnknownProgramError,
    UnknownTenantError,
)
from .resilience import CircuitBreaker, ResiliencePolicy

__all__ = [
    "HostedProgram",
    "InferenceRequest",
    "InferenceResponse",
    "InferenceServer",
]

_request_ids = itertools.count()


@dataclass
class HostedProgram:
    """One computation shape the server offers.

    ``trace_fn`` maps an input :class:`HEHandle` to the output handle; it is
    re-invoked per joint batch width, so it must be side-effect free.
    ``level`` is the required input level; ``scale`` the required input scale
    (``None`` accepts any scale).  ``scheme`` declares whether the traced
    body stays in CKKS (``"ckks"``) or crosses into TFHE and back
    (``"hybrid"``); hybrid programs carry the ``tfhe_params`` their TFHE
    island is traced against.
    """

    name: str
    trace_fn: Callable
    level: int
    scale: Optional[float] = None
    scheme: str = "ckks"
    tfhe_params: Optional[Any] = None


@dataclass
class _Tenant:
    tenant_id: str
    keys: CKKSKeySet
    evaluator: CKKSEvaluator
    tfhe: Optional[Any] = None
    bridge: Optional[Any] = None


@dataclass
class InferenceRequest:
    """A client request: one or more ciphertexts for one hosted program.

    ``deadline_seconds`` is a relative deadline: the server converts it to
    an absolute instant (on its injectable monotonic clock) at submit time
    and fails the request with :class:`DeadlineExceededError` if the batch
    window plus execution overruns it.  ``None`` falls back to the
    resilience policy's ``default_deadline`` (which may also be ``None``:
    unbounded).
    """

    tenant_id: str
    program: str
    ciphertexts: List[CKKSCiphertext]
    deadline_seconds: Optional[float] = None
    request_id: int = field(default_factory=lambda: next(_request_ids))

    @classmethod
    def single(cls, tenant_id: str, program: str,
               ciphertext: CKKSCiphertext,
               deadline_seconds: "Optional[float]" = None) -> "InferenceRequest":
        return cls(tenant_id=tenant_id, program=program,
                   ciphertexts=[ciphertext], deadline_seconds=deadline_seconds)


@dataclass
class InferenceResponse:
    """Result of a served request (one output ciphertext per input)."""

    request_id: int
    tenant_id: str
    program: str
    ciphertexts: List[CKKSCiphertext]
    batch_size: int
    batched: bool
    latency_seconds: float


class _Pending:
    """Aggregates a request's per-ciphertext slots back into one response."""

    __slots__ = ("request", "future", "results", "remaining", "start",
                 "batch_size", "batched", "deadline")

    def __init__(self, request: InferenceRequest, future: asyncio.Future,
                 deadline: "Optional[float]" = None):
        self.request = request
        self.future = future
        self.results: List[Optional[CKKSCiphertext]] = [None] * len(request.ciphertexts)
        self.remaining = len(request.ciphertexts)
        self.start = time.perf_counter()
        self.batch_size = 0
        self.batched = False
        self.deadline = deadline


class InferenceServer:
    """Multi-tenant batching front-end over the planned-program executor."""

    def __init__(self, params: CKKSParameters, *, max_batch_size: int = 8,
                 batch_window: float = 0.002, plan_cache_capacity: int = 32,
                 key_cache_capacity: int = 512, backend=None,
                 admission: "Optional[AdmissionController]" = None,
                 resilience: "Optional[ResiliencePolicy]" = None,
                 clock: Callable[[], float] = time.monotonic,
                 on_batch_start: "Optional[Callable[[Tuple, int], None]]" = None):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.params = params
        self.max_batch_size = int(max_batch_size)
        self.batch_window = float(batch_window)
        self.backend = backend
        # Planned programs by (program, level, scale, batch width) — every
        # miss is one planner call — and materialized galois keys by
        # (id(keys), element, level).
        self.plan_cache = LRUCache(plan_cache_capacity)
        self.key_cache = LRUCache(key_cache_capacity)
        self.admission = admission
        self.resilience = resilience if resilience is not None else ResiliencePolicy()
        self._clock = clock
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}
        self._on_batch_start = on_batch_start
        self._programs: Dict[str, HostedProgram] = {}
        self._tenants: Dict[str, _Tenant] = {}
        self._evaluators: Dict[int, CKKSEvaluator] = {}  # id(keys) -> evaluator
        # bucket key: (id(keys), program, level, scale)
        self._buckets: Dict[Tuple, List[Tuple[_Pending, int, CKKSCiphertext]]] = {}
        self._timers: Dict[Tuple, asyncio.Task] = {}
        self._inflight = 0
        self._counters: Dict[str, int] = {
            "submitted": 0, "served": 0, "rejected": 0, "failed": 0,
            "batches": 0, "batched_requests": 0, "unbatched_fallbacks": 0,
            "retries": 0, "execution_failures": 0, "deadline_exceeded": 0,
            "output_validation_failures": 0,
        }
        self._rejections: Dict[str, int] = {}
        self._failures: Dict[str, int] = {}
        self._batch_sizes: Dict[int, int] = {}
        self._tenant_counters: Dict[str, Dict[str, int]] = {}

    # -- registration --------------------------------------------------------
    def register_program(self, name: str, trace_fn: Callable, *,
                         level: Optional[int] = None,
                         scale: Optional[float] = None,
                         scheme: str = "ckks",
                         tfhe_params: Optional[Any] = None) -> HostedProgram:
        if name in self._programs:
            raise ValueError(f"program {name!r} already registered")
        if scheme not in ("ckks", "hybrid"):
            raise ValueError(f"unknown program scheme {scheme!r}")
        if scheme == "hybrid" and tfhe_params is None:
            raise ValueError("hybrid programs must declare their TFHE "
                             "parameter set")
        level = self.params.max_level if level is None else int(level)
        if not 0 <= level <= self.params.max_level:
            raise ValueError(f"level {level} out of range")
        program = HostedProgram(name=name, trace_fn=trace_fn, level=level,
                                scale=None if scale is None else float(scale),
                                scheme=scheme, tfhe_params=tfhe_params)
        self._programs[name] = program
        return program

    def register_tenant(self, tenant_id: str, keys: CKKSKeySet,
                        evaluator: Optional[CKKSEvaluator] = None,
                        tfhe: Optional[Any] = None,
                        bridge: Optional[Any] = None) -> None:
        """Register a tenant by key set.

        Tenants sharing one ``CKKSKeySet`` object share an evaluator — and
        therefore a batch bucket, so their compatible requests batch
        together.  Distinct key sets never mix in one batch.  ``tfhe`` and
        ``bridge`` provision the tenant for hybrid programs: the TFHE
        evaluation context and the CKKS<->TFHE
        :class:`~repro.fhe.conversion.bridge.SchemeBridge` built over this
        tenant's secret key.
        """
        if tenant_id in self._tenants:
            raise ValueError(f"tenant {tenant_id!r} already registered")
        if keys.params != self.params:
            raise ValueError("tenant key set was generated under different "
                             "parameters than this server hosts")
        shared = self._evaluators.get(id(keys))
        if shared is None:
            shared = evaluator or CKKSEvaluator(self.params, keys,
                                                backend=self.backend)
            self._evaluators[id(keys)] = shared
        self._tenants[tenant_id] = _Tenant(tenant_id, keys, shared,
                                           tfhe=tfhe, bridge=bridge)

    def has_tenant(self, tenant_id: str) -> bool:
        """Whether ``tenant_id`` is registered (the gateway's handshake check)."""
        return tenant_id in self._tenants

    def _tenant_count(self, tenant_id: str, key: str) -> None:
        counters = self._tenant_counters.get(tenant_id)
        if counters is None:
            counters = self._tenant_counters[tenant_id] = {
                "submitted": 0, "served": 0, "rejected": 0, "failed": 0,
            }
        counters[key] += 1

    # -- validation ----------------------------------------------------------
    def _lookup(self, request: InferenceRequest) -> Tuple[_Tenant, HostedProgram]:
        """The cheap existence checks that precede admission control."""
        tenant = self._tenants.get(request.tenant_id)
        if tenant is None:
            raise UnknownTenantError(f"unknown tenant {request.tenant_id!r}")
        program = self._programs.get(request.program)
        if program is None:
            raise UnknownProgramError(f"unknown program {request.program!r}")
        return tenant, program

    def _validate_payload(self, request: InferenceRequest, tenant: _Tenant,
                          program: HostedProgram) -> None:
        count = len(request.ciphertexts)
        if count < 1:
            raise RequestRejected("request carries no ciphertexts")
        if count > self.max_batch_size:
            raise OversizeBatchError(
                f"request carries {count} ciphertexts, scheduler batch bound "
                f"is {self.max_batch_size}")
        if program.scheme == "hybrid" and (tenant.tfhe is None
                                           or tenant.bridge is None):
            raise SchemeMismatchError(
                f"program {program.name!r} is hybrid but tenant "
                f"{tenant.tenant_id!r} is provisioned for CKKS only (no TFHE "
                f"context / scheme bridge)", expected="hybrid", got="ckks")
        params = self.params
        for ct in request.ciphertexts:
            if isinstance(ct, LWECiphertext):
                raise SchemeMismatchError(
                    f"program {program.name!r} takes CKKS ciphertexts, the "
                    f"payload is a TFHE LWE ciphertext",
                    expected="ckks", got="tfhe")
            if not isinstance(ct, CKKSCiphertext):
                raise ParameterMismatchError(
                    f"expected CKKSCiphertext, got {type(ct).__name__}")
            if ct.c0.ring_degree != params.ring_degree:
                raise ParameterMismatchError(
                    f"ciphertext ring degree {ct.c0.ring_degree} != server "
                    f"ring degree {params.ring_degree}")
            if tuple(ct.c0.basis.moduli) != params.moduli[:ct.level + 1]:
                raise ParameterMismatchError(
                    "ciphertext modulus chain does not match the server's "
                    "parameters")
            if ct.level != program.level:
                raise LevelMismatchError(
                    f"program {program.name!r} expects level {program.level}, "
                    f"request is at level {ct.level}")
            if program.scale is not None:
                ratio = ct.scale / program.scale
                if not 0.99 < ratio < 1.01:
                    raise ScaleMismatchError(
                        f"program {program.name!r} expects scale "
                        f"{program.scale:g}, request has {ct.scale:g}")
        self._check_keys(tenant, program, request.ciphertexts[0])

    def _check_keys(self, tenant: _Tenant, program: HostedProgram,
                    ct: CKKSCiphertext) -> None:
        """Reject requests whose plan needs keys the tenant cannot supply."""
        planned = self._planned(program, ct.level, ct.scale, 1)
        has = {"galois": tenant.keys.has_galois_key,
               "relin": tenant.keys.has_relin_key}
        missing: List[Tuple] = [key for key in planned.required_keys()
                                if not has[key[0]](*key[1:])]
        if missing:
            raise MissingKeyError(
                f"tenant {tenant.tenant_id!r} lacks evaluation keys for "
                f"program {program.name!r}: {missing}", missing=missing)

    def _check_breaker(self, request: InferenceRequest) -> None:
        """Shed the request if its (tenant, program) breaker is open."""
        breaker = self._breakers.get((request.tenant_id, request.program))
        if breaker is not None and not breaker.allow():
            raise CircuitOpenError(
                f"circuit breaker open for tenant {request.tenant_id!r} "
                f"program {request.program!r} after repeated execution "
                f"failures", retry_after_seconds=breaker.retry_after())

    # -- planning and keys ---------------------------------------------------
    def _planned(self, program: HostedProgram, level: int, scale: float,
                 width: int):
        """The joint ``width``-input planned program, from the plan cache."""
        def build():
            trace = HETrace(self.params, tfhe_params=program.tfhe_params)
            # Declare every input before any body: the planner's stacked-
            # conversion pass only groups conversions whose sources precede
            # the group's first member, so front-loading the inputs lets all
            # C input conversions run as one stacked NTT dispatch.
            handles = [trace.input(f"x{i}", level=level, scale=scale)
                       for i in range(width)]
            for i, handle in enumerate(handles):
                trace.output(f"y{i}", program.trace_fn(handle))
            built = trace.program
            declared_hybrid = program.scheme == "hybrid"
            if built.is_hybrid() != declared_hybrid:
                raise SchemeMismatchError(
                    f"program {program.name!r} is registered as "
                    f"{program.scheme!r} but its trace is "
                    f"{'hybrid' if built.is_hybrid() else 'pure CKKS'}",
                    expected=program.scheme,
                    got="hybrid" if built.is_hybrid() else "ckks")
            return built

        return self.plan_cache.get_or_create(
            (program.name, level, scale, width), lambda: plan_program(build()))

    def _provision_keys(self, tenant: _Tenant, planned) -> None:
        """Materialize the plan's galois keys through the bounded key cache."""
        keys = tenant.keys
        for element, level in planned.required_galois_elements():
            self.key_cache.get_or_create(
                (id(keys), element, level),
                lambda element=element, level=level: keys.galois_key(element, level),
            )

    # -- submission ----------------------------------------------------------
    async def submit(self, request: InferenceRequest) -> InferenceResponse:
        """Admit, validate, enqueue, and await the batched result."""
        self._counters["submitted"] += 1
        self._tenant_count(request.tenant_id, "submitted")
        try:
            tenant, program = self._lookup(request)
            if self.admission is not None:
                self.admission.admit(request.tenant_id, self._inflight)
            self._check_breaker(request)
            self._validate_payload(request, tenant, program)
        except RequestRejected as exc:
            self._counters["rejected"] += 1
            self._tenant_count(request.tenant_id, "rejected")
            name = type(exc).__name__
            self._rejections[name] = self._rejections.get(name, 0) + 1
            raise
        loop = asyncio.get_running_loop()
        timeout = request.deadline_seconds
        if timeout is None:
            timeout = self.resilience.default_deadline
        deadline = None if timeout is None else self._clock() + timeout
        pending = _Pending(request, loop.create_future(), deadline)
        self._inflight += 1
        for index, ct in enumerate(request.ciphertexts):
            key = (id(tenant.keys), program.name, ct.level, ct.scale)
            bucket = self._buckets.setdefault(key, [])
            bucket.append((pending, index, ct))
            if len(bucket) >= self.max_batch_size:
                self._flush(key)
            else:
                self._arm_timer(key)
        return await pending.future

    def serve(self, requests: Sequence[InferenceRequest],
              return_exceptions: bool = False) -> List:
        """Synchronous convenience: submit all requests concurrently.

        Returns responses in request order; with ``return_exceptions`` the
        slots of rejected/failed requests hold the typed exception instead.
        Must not be called from inside a running event loop.
        """
        async def _run():
            return await asyncio.gather(
                *(self.submit(request) for request in requests),
                return_exceptions=return_exceptions,
            )

        return asyncio.run(_run())

    def drain(self) -> None:
        """Flush every pending batch bucket immediately.

        Cancels any armed batch-window timers and executes (or deadline-
        fails) every queued entry, so after ``drain`` returns there are no
        queued entries left (``queue_depth == 0``) and every previously
        queued future is resolved.
        """
        for key in list(self._buckets):
            self._flush(key)

    # -- introspection -------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Admitted requests whose futures are not yet resolved."""
        return self._inflight

    @property
    def queue_depth(self) -> int:
        """Ciphertext entries waiting in batch buckets right now."""
        return sum(len(bucket) for bucket in self._buckets.values())

    # -- batching machinery --------------------------------------------------
    def _arm_timer(self, key: Tuple) -> None:
        timer = self._timers.get(key)
        if timer is not None and not timer.done():
            return

        async def fire():
            try:
                await asyncio.sleep(self.batch_window)
            except asyncio.CancelledError:
                return
            self._flush(key)

        self._timers[key] = asyncio.get_running_loop().create_task(fire())

    def _cancel_timer(self, key: Tuple) -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()

    def _deadline_overrun(self, pending: _Pending) -> bool:
        return pending.deadline is not None and self._clock() > pending.deadline

    def _prune(self, entries: List) -> List:
        """Drop already-resolved entries; deadline-fail the overdue ones."""
        live = []
        for entry in entries:
            pending = entry[0]
            if pending.future.done():
                continue
            if self._deadline_overrun(pending):
                self._fail(pending, DeadlineExceededError(
                    f"request {pending.request.request_id} overran its "
                    f"deadline while queued (batch window "
                    f"{self.batch_window:g}s)"))
                continue
            live.append(entry)
        return live

    def _flush(self, key: Tuple) -> None:
        self._cancel_timer(key)
        entries = self._prune(self._buckets.pop(key, []))
        while entries:
            chunk, entries = entries[:self.max_batch_size], entries[self.max_batch_size:]
            self._execute_chunk(key, chunk)

    def _execute_chunk(self, key: Tuple, entries: List) -> None:
        if len(entries) == 1:
            self._execute_single(key, entries[0])
            return
        try:
            outputs = self._run_batch(key, entries)
        except Exception:
            # Graceful degradation: retry each member unbatched (through
            # the retry policy); only requests that still fail see an error.
            self._counters["unbatched_fallbacks"] += 1
            for entry in entries:
                if not entry[0].future.done():
                    self._execute_single(key, entry)
            return
        width = len(entries)
        self._record_batch(width)
        for i, (pending, index, _) in enumerate(entries):
            self._breaker_for(pending.request).record_success()
            self._deliver(pending, index, outputs[f"y{i}"], width, batched=True)

    def _execute_single(self, key: Tuple, entry: Tuple) -> None:
        """One request through the retry policy, deadline- and breaker-aware."""
        pending, index, _ = entry
        breaker = self._breaker_for(pending.request)
        retry = self.resilience.retry
        last_exc: Optional[Exception] = None
        for attempt in range(retry.max_attempts):
            if attempt:
                self._counters["retries"] += 1
                retry.wait(attempt - 1)
            if self._deadline_overrun(pending):
                self._fail(pending, DeadlineExceededError(
                    f"request {pending.request.request_id} overran its "
                    f"deadline before attempt {attempt + 1}"))
                return
            try:
                outputs = self._run_batch(key, [entry])
            except Exception as exc:
                last_exc = exc
                self._counters["execution_failures"] += 1
                breaker.record_failure()
                continue
            breaker.record_success()
            self._record_batch(1)
            self._deliver(pending, index, outputs["y0"], 1, batched=False)
            return
        self._fail(pending, last_exc)

    def _run_batch(self, key: Tuple, entries: List) -> Dict[str, CKKSCiphertext]:
        """Plan, provision, and execute one chunk; validate every output."""
        keys_id, program_name, level, scale = key
        program = self._programs[program_name]
        evaluator = self._evaluators[keys_id]
        width = len(entries)
        # Any entry's tenant works: one bucket == one key set.
        tenant = self._tenants[entries[0][0].request.tenant_id]
        planned = self._planned(program, level, scale, width)
        self._provision_keys(tenant, planned)
        if self._on_batch_start is not None:
            self._on_batch_start(key, width)
        executor = ProgramExecutor(evaluator, tfhe=tenant.tfhe,
                                   bridge=tenant.bridge)
        inputs = {f"x{i}": ct for i, (_, _, ct) in enumerate(entries)}
        outputs = executor.run(planned, inputs)
        validator = self.resilience.output_validator
        if validator is not None:
            for i, (pending, index, _) in enumerate(entries):
                try:
                    validator(pending.request, index, outputs[f"y{i}"])
                except Exception as exc:
                    self._counters["output_validation_failures"] += 1
                    raise CorruptResultError(
                        f"output integrity check failed for request "
                        f"{pending.request.request_id}: {exc}") from exc
        return outputs

    def _breaker_for(self, request: InferenceRequest) -> CircuitBreaker:
        key = (request.tenant_id, request.program)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self._breakers[key] = self.resilience.make_breaker(
                self._clock)
        return breaker

    def _record_batch(self, width: int) -> None:
        self._counters["batches"] += 1
        self._counters["batched_requests"] += width
        self._batch_sizes[width] = self._batch_sizes.get(width, 0) + 1

    def _deliver(self, pending: _Pending, index: int, ct: CKKSCiphertext,
                 width: int, batched: bool) -> None:
        if pending.future.done():
            return
        if self._deadline_overrun(pending):
            self._fail(pending, DeadlineExceededError(
                f"request {pending.request.request_id} completed after its "
                f"deadline; result discarded"))
            return
        pending.results[index] = ct
        pending.batch_size = max(pending.batch_size, width)
        pending.batched = pending.batched or batched
        pending.remaining -= 1
        if pending.remaining == 0:
            request = pending.request
            self._counters["served"] += 1
            self._tenant_count(request.tenant_id, "served")
            self._inflight -= 1
            pending.future.set_result(InferenceResponse(
                request_id=request.request_id,
                tenant_id=request.tenant_id,
                program=request.program,
                ciphertexts=list(pending.results),
                batch_size=pending.batch_size,
                batched=pending.batched,
                latency_seconds=time.perf_counter() - pending.start,
            ))

    def _fail(self, pending: _Pending, exc: Exception) -> None:
        if pending.future.done():
            return
        if not isinstance(exc, ServeError):
            wrapped = ExecutionError(
                f"execution of request {pending.request.request_id} failed: "
                f"{exc}")
            # Chain the original kernel failure so its traceback survives
            # (the same linkage `raise ... from` would produce).
            wrapped.__cause__ = exc
            exc = wrapped
        if isinstance(exc, DeadlineExceededError):
            self._counters["deadline_exceeded"] += 1
        self._counters["failed"] += 1
        self._tenant_count(pending.request.tenant_id, "failed")
        name = type(exc).__name__
        self._failures[name] = self._failures.get(name, 0) + 1
        self._inflight -= 1
        pending.future.set_exception(exc)

    # -- stats ---------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Operator-facing counters, cache stats, and batching efficiency."""
        batches = self._counters["batches"]
        batched_requests = self._counters["batched_requests"]
        return {
            **self._counters,
            "rejections": dict(self._rejections),
            "failures": dict(self._failures),
            "tenants": {tid: dict(counters)
                        for tid, counters in self._tenant_counters.items()},
            "batch_size_histogram": dict(sorted(self._batch_sizes.items())),
            "batching_efficiency": (batched_requests / batches) if batches else 0.0,
            "plan_cache": {**self.plan_cache.stats(),
                           "planner_calls": self.plan_cache.misses},
            "key_cache": self.key_cache.stats(),
            "admission": self.admission.stats() if self.admission else None,
            "breakers": self._breaker_stats(),
            "pending": self._inflight,
            "queue_depth": self.queue_depth,
        }

    def _breaker_stats(self) -> Dict[str, Any]:
        transitions = {"opened": 0, "half_opened": 0, "closed": 0}
        states: Dict[str, str] = {}
        for (tenant_id, program), breaker in self._breakers.items():
            states[f"{tenant_id}/{program}"] = breaker.state
            for name, count in breaker.transitions.items():
                transitions[name] += count
        open_now = sum(state == CircuitBreaker.OPEN for state in states.values())
        return {"open_now": open_now, "transitions": transitions,
                "states": states}
