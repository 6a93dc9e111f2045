"""Multi-tenant encrypted-inference serving layer.

The paper's accelerator exists to serve homomorphic workloads at scale; this
package is the software front-end of that story — the layer that turns many
independent tenant requests into the big stacked ``(2, C, L, N)`` dispatches
the batched kernels and the Trinity cost model are built around:

* :mod:`~repro.serve.scheduler` — asyncio request admission, compatibility
  grouping, joint-program execution with deadline-aware retrying fallback,
  and two bounded LRU caches (:class:`~repro.fhe.program.LRUCache`: planned
  programs, materialized evaluation keys) whose counts it reports;
* :mod:`~repro.serve.admission` — per-tenant token-bucket rate limits and
  global queue-depth backpressure, enforced before any homomorphic work;
* :mod:`~repro.serve.resilience` — retry policy (exponential backoff with
  jitter), per-(tenant, program) circuit breakers, deadlines, and the
  :class:`ResiliencePolicy` bundle the scheduler runs them through — all
  driven by injectable clocks/RNGs/sleeps so tests never wait on wall time;
* :mod:`~repro.serve.chaos` — seeded fault injection: a backend wrapper
  that makes chosen kernels raise/stall/corrupt, wire-payload corruption,
  and scheduler-level delays — the harness the resilience machinery is
  soaked against;
* :mod:`~repro.serve.serialization` — compact versioned wire format for RNS
  polynomials, ciphertexts, and keys, strictly validated on load;
* :mod:`~repro.serve.traffic` — seeded synthetic multi-tenant load, the
  p50/p99/qps/batching-efficiency report, and the chaos-soak release gate
  (every request resolves, breakers cycle, served responses bit-exact);
* :mod:`~repro.serve.net` — the streaming network front-end: framed
  envelope transport, :class:`ServingGateway` (asyncio server mapping
  typed rejections onto wire ERROR envelopes with stable codes), and the
  sessioned :class:`ServingClient` with multiplexed in-flight requests;
* :mod:`~repro.serve.errors` — the typed rejection/failure hierarchy;
  every class carries a stable wire ``code`` and round-trips through
  ``to_wire()`` / :func:`error_from_wire`.

Everything here is importable without numpy; only the contents of the
ciphertexts flowing through demand a specific backend.
"""

from .admission import AdmissionController, TokenBucket
from .chaos import (
    CORRUPTIBLE_KERNELS,
    FaultEvent,
    FaultInjectingBackend,
    FaultSchedule,
    FaultSpec,
    InjectedFault,
    SchedulerDelayInjector,
    corrupt_payload,
)
from .errors import (
    CircuitOpenError,
    ConnectionClosedError,
    CorruptPayloadError,
    CorruptResultError,
    DeadlineExceededError,
    ExecutionError,
    LevelMismatchError,
    MissingKeyError,
    OverloadedError,
    OversizeBatchError,
    SchemeMismatchError,
    ParameterMismatchError,
    ProtocolError,
    RateLimitedError,
    RequestRejected,
    ScaleMismatchError,
    SecretKeyOnWireError,
    SerializationError,
    ServeError,
    UnknownProgramError,
    UnknownTenantError,
    UnsupportedVersionError,
    error_from_wire,
    wire_code_registry,
)
from .net import ClientResponse, FrameTransport, ServingClient, ServingGateway
from .resilience import (
    CircuitBreaker,
    ManualClock,
    ResiliencePolicy,
    RetryPolicy,
)
from .scheduler import (
    HostedProgram,
    InferenceRequest,
    InferenceResponse,
    InferenceServer,
)
from .serialization import (
    deserialize,
    deserialize_ciphertext,
    deserialize_keyswitch_key,
    deserialize_public_key,
    deserialize_rns_polynomial,
    deserialize_secret_key,
    kind_name,
    payload_kind,
    serialize,
    serialize_ciphertext,
    serialize_keyswitch_key,
    serialize_public_key,
    serialize_rns_polynomial,
    serialize_secret_key,
)
from .traffic import (
    LoadGenerator,
    PassSummary,
    TrafficReport,
    chaos_soak_gate,
    percentile,
)

__all__ = [
    # scheduler
    "InferenceServer",
    "InferenceRequest",
    "InferenceResponse",
    "HostedProgram",
    # admission
    "AdmissionController",
    "TokenBucket",
    # resilience
    "ManualClock",
    "RetryPolicy",
    "CircuitBreaker",
    "ResiliencePolicy",
    # chaos
    "InjectedFault",
    "FaultSpec",
    "FaultEvent",
    "FaultSchedule",
    "FaultInjectingBackend",
    "SchedulerDelayInjector",
    "corrupt_payload",
    "CORRUPTIBLE_KERNELS",
    # serialization
    "serialize",
    "deserialize",
    "serialize_rns_polynomial",
    "deserialize_rns_polynomial",
    "serialize_ciphertext",
    "deserialize_ciphertext",
    "serialize_keyswitch_key",
    "deserialize_keyswitch_key",
    "serialize_public_key",
    "deserialize_public_key",
    "serialize_secret_key",
    "deserialize_secret_key",
    "payload_kind",
    "kind_name",
    # net
    "FrameTransport",
    "ServingGateway",
    "ServingClient",
    "ClientResponse",
    # traffic
    "LoadGenerator",
    "TrafficReport",
    "PassSummary",
    "percentile",
    "chaos_soak_gate",
    # errors
    "ServeError",
    "SerializationError",
    "UnsupportedVersionError",
    "CorruptPayloadError",
    "RequestRejected",
    "UnknownTenantError",
    "UnknownProgramError",
    "ParameterMismatchError",
    "LevelMismatchError",
    "ScaleMismatchError",
    "OversizeBatchError",
    "SchemeMismatchError",
    "MissingKeyError",
    "RateLimitedError",
    "OverloadedError",
    "CircuitOpenError",
    "DeadlineExceededError",
    "ExecutionError",
    "CorruptResultError",
    "SecretKeyOnWireError",
    "ProtocolError",
    "ConnectionClosedError",
    "error_from_wire",
    "wire_code_registry",
]
