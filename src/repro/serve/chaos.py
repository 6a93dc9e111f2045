"""Chaos harness: seeded fault injection under the serving layer.

The resilience machinery (admission, deadlines, retries, breakers) is only
trustworthy if it is exercised against *actual* failures, so this module
makes the failure modes injectable at every layer the service touches:

* **Kernel faults** — :class:`FaultInjectingBackend` wraps any
  :class:`~repro.fhe.backend.ArithmeticBackend` and, under a seeded
  :class:`FaultSchedule`, makes chosen kernels (``batched_ntt``,
  ``keyswitch_rows``, ``stacked_pmult_mac``, ...) **raise** a synthetic
  :class:`InjectedFault`, **stall** (via an injectable sleep, so tests can
  advance a manual clock instead of wall time), or **return corrupted
  stores** (one residue perturbed, still in range — only detectable by an
  integrity check, which is exactly what the resilience policy's
  ``output_validator`` is for).
* **Serialization corruption** — :func:`corrupt_payload` flips a seeded
  byte inside a wire blob's body so ``deserialize`` fails with the typed
  :class:`~repro.serve.errors.CorruptPayloadError`.
* **Scheduler-level delays** — :class:`SchedulerDelayInjector` plugs into
  ``InferenceServer(on_batch_start=...)`` and delays a seeded fraction of
  batch executions (again with an injectable sleep), which is how the
  deadline tests overrun the batch window deterministically.

Faults only fire at the *top-level* backend dispatch (wrapped methods
forward to the clean inner backend internally), so cached artifacts —
plaintext eval encodings, keyswitch key transforms — are never poisoned by
an injected corruption; every fault is attributable to one request's
execution.  The schedule records every injection (kernel, mode, call index)
so a soak can assert faults actually fired and bound them with
``max_injections`` for deterministic recovery phases.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..fhe.backend import KERNELS, ArithmeticBackend, WrappedBackend

__all__ = [
    "InjectedFault",
    "FaultSpec",
    "FaultEvent",
    "FaultSchedule",
    "FaultInjectingBackend",
    "SchedulerDelayInjector",
    "corrupt_payload",
    "CORRUPTIBLE_KERNELS",
]

FAULT_MODES = ("raise", "stall", "corrupt")

# Kernels whose results this module knows how to corrupt *safely*: their
# return values are plain limb stores (or tuples/lists of stores) whose
# moduli are recoverable from the call arguments, and no backend caches the
# returned object (corrupting a cached artifact would poison every later
# request instead of one execution).
_MODULI_FROM_CONTEXTS = lambda args: [ctx.modulus for ctx in args[0]]  # noqa: E731
_CORRUPT_MODULI: Dict[str, Callable[[Sequence[Any]], List[int]]] = {
    "batched_ntt": _MODULI_FROM_CONTEXTS,
    "batched_intt": _MODULI_FROM_CONTEXTS,
    "stacked_ntt": _MODULI_FROM_CONTEXTS,
    "stacked_intt": _MODULI_FROM_CONTEXTS,
    "limbs_eval_mac": _MODULI_FROM_CONTEXTS,
    # Pairs over Q_l: the contexts before the P limbs (one scalar per Q limb).
    "keyswitch_rows": lambda args: [ctx.modulus for ctx in args[0][:len(args[3])]],
    "limbs_mul": lambda args: list(args[2]),
    "limbs_add": lambda args: list(args[2]),
    "limbs_tensor_product": lambda args: list(args[4]),
    "stacked_pmult_mac": lambda args: list(args[3]),
}
CORRUPTIBLE_KERNELS = frozenset(_CORRUPT_MODULI)


class InjectedFault(RuntimeError):
    """A synthetic kernel failure raised by the chaos schedule.

    Deliberately *not* a :class:`~repro.serve.errors.ServeError`: it models
    an arbitrary backend explosion, so the scheduler must wrap it into its
    typed :class:`~repro.serve.errors.ExecutionError` (with ``__cause__``
    chained) like any other unexpected exception.
    """


@dataclass
class FaultSpec:
    """One injection rule: which kernel, which mode, and when.

    Calls to ``kernel`` (one of :data:`~repro.fhe.backend.KERNELS`) are
    numbered from zero; calls before ``start_call`` are never faulted,
    afterwards each call is faulted with ``probability`` until
    ``max_injections`` faults have fired (``None`` = unbounded).
    Bounding injections is what gives a soak a deterministic recovery tail:
    once the budget is spent the backend is clean again.
    """

    kernel: str
    mode: str
    probability: float = 1.0
    start_call: int = 0
    max_injections: "Optional[int]" = None

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}: no backend "
                             f"has it, so the spec could never fire")
        if self.mode not in FAULT_MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}; "
                             f"expected one of {FAULT_MODES}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.mode == "corrupt" and self.kernel not in CORRUPTIBLE_KERNELS:
            raise ValueError(
                f"kernel {self.kernel!r} does not support corruption "
                f"injection; corruptible: {sorted(CORRUPTIBLE_KERNELS)}")


@dataclass
class FaultEvent:
    """One fault that actually fired (recorded on the schedule)."""

    kernel: str
    mode: str
    call_index: int


class FaultSchedule:
    """Seeded decision maker: given a kernel call, inject a fault or not.

    Deterministic for a fixed ``seed`` and call sequence; every injection
    is appended to ``events`` so harnesses can assert coverage ("the raise
    spec actually fired") and diagnose failures ("call 712 was corrupted").
    """

    def __init__(self, specs: Sequence[FaultSpec], *, seed: int = 0,
                 stall_seconds: float = 0.001):
        self.specs = list(specs)
        self.stall_seconds = float(stall_seconds)
        self.rng = random.Random(seed)
        self.kernels = {spec.kernel for spec in self.specs}
        self.events: List[FaultEvent] = []
        self._calls: Dict[str, int] = {}
        self._fired: List[int] = [0] * len(self.specs)

    def draw(self, kernel: str) -> "Optional[str]":
        """Advance ``kernel``'s call counter; return a fault mode or None."""
        index = self._calls.get(kernel, 0)
        self._calls[kernel] = index + 1
        for spec_index, spec in enumerate(self.specs):
            if spec.kernel != kernel or index < spec.start_call:
                continue
            if (spec.max_injections is not None
                    and self._fired[spec_index] >= spec.max_injections):
                continue
            if spec.probability < 1.0 and self.rng.random() >= spec.probability:
                continue
            self._fired[spec_index] += 1
            self.events.append(FaultEvent(kernel, spec.mode, index))
            return spec.mode
        return None

    def exhausted(self) -> bool:
        """True when every bounded spec has spent its injection budget."""
        return all(
            spec.max_injections is not None
            and self._fired[i] >= spec.max_injections
            for i, spec in enumerate(self.specs)
        )

    def counts(self) -> Dict[str, int]:
        """Injections that fired, keyed ``kernel:mode``."""
        out: Dict[str, int] = {}
        for event in self.events:
            key = f"{event.kernel}:{event.mode}"
            out[key] = out.get(key, 0) + 1
        return out

    def calls(self) -> Dict[str, int]:
        """Top-level call counts per tracked kernel."""
        return dict(self._calls)


def _corrupt_store(store, moduli, backend: ArithmeticBackend):
    """Perturb one residue of ``store`` (still reduced) and repack it."""
    rows = [list(row) for row in ArithmeticBackend.store_rows(store)]
    q = moduli[0]
    rows[0][0] = (rows[0][0] + 1) % q
    return backend.pack_limbs(rows, moduli)


def _corrupt_result(kernel: str, args, result, backend: ArithmeticBackend):
    """Corrupt a kernel's return value, whatever its container shape."""
    moduli = _CORRUPT_MODULI[kernel](args)
    if isinstance(result, tuple):
        # (d0, d1, d2) / (acc0, acc1): corrupt the first component.
        return (_corrupt_store(result[0], moduli, backend),) + result[1:]
    if kernel in ("stacked_ntt", "stacked_intt", "limbs_eval_mac"):
        # A list of stores: corrupt the first one.
        return [_corrupt_store(result[0], moduli, backend)] + list(result[1:])
    if kernel == "keyswitch_rows":
        # A list of (f0, f1) pairs: corrupt the first member's f0.
        (f0, f1), rest = result[0], list(result[1:])
        return [(_corrupt_store(f0, moduli, backend), f1)] + rest
    return _corrupt_store(result, moduli, backend)


class FaultInjectingBackend(WrappedBackend):
    """Wrap any backend; targeted kernels raise / stall / corrupt on schedule.

    A :class:`~repro.fhe.backend.WrappedBackend`: only kernels named in the
    schedule pay the per-call ``draw``.  Nested kernel calls inside the
    inner backend's own implementations bypass the wrapper, so a fault maps
    to exactly one evaluator-level dispatch.  ``sleep`` is injectable so a
    "stall" can advance a :class:`~repro.serve.resilience.ManualClock`
    instead of blocking the test process.
    """

    prefix = "chaos"

    def __init__(self, inner: ArithmeticBackend, schedule: FaultSchedule, *,
                 sleep: Callable[[float], None] = time.sleep):
        super().__init__(inner)
        self.schedule = schedule
        self._sleep = sleep

    def _dispatch(self, kernel: str, func: Callable, args, kwargs):
        if kernel not in self.schedule.kernels:
            return func(*args, **kwargs)
        mode = self.schedule.draw(kernel)
        if mode == "raise":
            raise InjectedFault(
                f"injected fault in {kernel} "
                f"(call {self.schedule.calls()[kernel] - 1})")
        if mode == "stall":
            self._sleep(self.schedule.stall_seconds)
        result = func(*args, **kwargs)
        if mode == "corrupt":
            return _corrupt_result(kernel, args, result, self.inner)
        return result


def corrupt_payload(blob: bytes, rng: "Optional[random.Random]" = None, *,
                    offset: "Optional[int]" = None) -> bytes:
    """Flip one byte inside a wire blob's body (past the 8-byte header).

    The result still parses as a container but fails the CRC, so
    ``deserialize`` raises the typed
    :class:`~repro.serve.errors.CorruptPayloadError` — the injection point
    for wire-corruption traffic in the chaos soak.  ``offset`` pins the
    flipped byte; otherwise a seeded ``rng`` picks one.
    """
    if len(blob) <= 12:
        raise ValueError("blob too short to corrupt past its header")
    if offset is None:
        offset = (rng or random.Random(0)).randrange(8, len(blob) - 4)
    if not 8 <= offset < len(blob) - 4:
        raise ValueError(f"offset {offset} outside the blob body")
    broken = bytearray(blob)
    broken[offset] ^= 0xFF
    return bytes(broken)


class SchedulerDelayInjector:
    """Delay a seeded fraction of batch executions (scheduler-level chaos).

    Plugs into ``InferenceServer(on_batch_start=...)``.  ``sleep`` is
    injectable: the deadline tests pass ``ManualClock.advance`` so a
    "delay" deterministically overruns a request deadline without wall
    time passing.
    """

    def __init__(self, probability: float, delay_seconds: float, *,
                 seed: int = 0, sleep: Callable[[float], None] = time.sleep,
                 max_injections: "Optional[int]" = None):
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.probability = probability
        self.delay_seconds = float(delay_seconds)
        self.rng = random.Random(seed)
        self._sleep = sleep
        self.max_injections = max_injections
        self.injected = 0

    def __call__(self, key, width: int) -> None:
        if (self.max_injections is not None
                and self.injected >= self.max_injections):
            return
        if self.probability >= 1.0 or self.rng.random() < self.probability:
            self.injected += 1
            self._sleep(self.delay_seconds)
