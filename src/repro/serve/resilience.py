"""Deadlines, retries with backoff, and circuit breakers for the scheduler.

This module is the policy half of the serving layer's failure handling; the
scheduler only asks three questions and never hard-codes the answers:

* *How long may this request take?*  — a per-request **deadline** (absolute,
  against the server's injectable monotonic clock).  The scheduler checks it
  before executing a queued entry, between retry attempts, and after
  execution, failing the pending future with
  :class:`~repro.serve.errors.DeadlineExceededError` instead of leaving it
  hanging when the batch window plus execution overran it.
* *Should a failed execution be retried?* — a :class:`RetryPolicy` with
  exponential backoff and jitter.  Both the RNG (jitter) and the sleep
  function are injectable, so tests run the whole retry ladder with a
  recording fake and never sleep for real.
* *Should this (tenant, program) be executed at all right now?* — a
  :class:`CircuitBreaker` per (tenant, program) pair, kept in a dict on the
  scheduler.  After ``failure_threshold`` consecutive execution
  failures the breaker opens and the scheduler sheds matching requests at
  admission with :class:`~repro.serve.errors.CircuitOpenError`; after
  ``reset_timeout`` it half-opens and lets ``half_open_probes`` requests
  through — success closes it, failure re-opens it.

:class:`ResiliencePolicy` bundles the knobs (plus an optional
``output_validator`` integrity hook) and replaces the scheduler's previous
one-shot unbatched fallback.  :class:`ManualClock` is the deterministic
clock used throughout the tests.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = [
    "ManualClock",
    "RetryPolicy",
    "CircuitBreaker",
    "ResiliencePolicy",
]


class ManualClock:
    """A monotonic clock advanced by hand — deterministic time for tests.

    Drop-in wherever ``time.monotonic`` is accepted (server clock, token
    buckets, circuit breakers): ``clock()`` reads the current instant and
    ``advance(dt)`` moves it forward.
    """

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("a monotonic clock cannot go backwards")
        self.now += seconds
        return self.now


@dataclass
class RetryPolicy:
    """Exponential backoff with jitter, fully injectable for determinism.

    ``max_attempts`` counts total tries (1 = no retry).  The delay before
    retry ``k`` (0-based) is ``base_delay * multiplier**k`` capped at
    ``max_delay``, then stretched by up to ``jitter`` (a fraction) drawn
    from ``rng``.  ``sleep`` performs the wait — tests inject a recorder,
    production leaves ``time.sleep``.
    """

    max_attempts: int = 2
    base_delay: float = 0.001
    multiplier: float = 2.0
    max_delay: float = 0.05
    jitter: float = 0.5
    rng: random.Random = field(default_factory=lambda: random.Random(0x5E11))
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be non-negative")

    def backoff_delay(self, attempt: int) -> float:
        """The (jittered) delay to wait after failed attempt ``attempt``."""
        delay = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        if self.jitter:
            delay *= 1.0 + self.jitter * self.rng.random()
        return delay

    def wait(self, attempt: int) -> float:
        """Sleep the backoff for ``attempt`` and return the delay used."""
        delay = self.backoff_delay(attempt)
        if delay > 0:
            self.sleep(delay)
        return delay


class CircuitBreaker:
    """closed -> open -> half-open -> closed, driven by an injectable clock.

    ``record_failure`` after every execution failure; ``record_success``
    after every success.  ``failure_threshold`` consecutive failures open
    the breaker; while open, ``allow()`` is False until ``reset_timeout``
    elapses, then the breaker half-opens and admits up to
    ``half_open_probes`` probe requests — one success closes it, one
    failure re-opens it (and restarts the timeout).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, failure_threshold: int = 8, reset_timeout: float = 0.5,
                 half_open_probes: int = 1, *,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self.half_open_probes = int(half_open_probes)
        self._clock = clock
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at: "Optional[float]" = None
        self._probes_in_flight = 0
        self.transitions = {"opened": 0, "half_opened": 0, "closed": 0}

    # -- state machinery -----------------------------------------------------
    def _open(self) -> None:
        self._state = self.OPEN
        self._opened_at = self._clock()
        self._probes_in_flight = 0
        self._consecutive_failures = 0
        self.transitions["opened"] += 1

    def _maybe_half_open(self) -> None:
        if (self._state == self.OPEN
                and self._clock() - self._opened_at >= self.reset_timeout):
            self._state = self.HALF_OPEN
            self._probes_in_flight = 0
            self.transitions["half_opened"] += 1

    @property
    def state(self) -> str:
        self._maybe_half_open()
        return self._state

    def retry_after(self) -> float:
        """Seconds until the breaker will half-open (0 when not open)."""
        if self._state != self.OPEN:
            return 0.0
        return max(0.0, self.reset_timeout - (self._clock() - self._opened_at))

    # -- the three entry points ---------------------------------------------
    def allow(self) -> bool:
        """May a request for this key proceed to execution right now?"""
        self._maybe_half_open()
        if self._state == self.CLOSED:
            return True
        if self._state == self.HALF_OPEN:
            if self._probes_in_flight < self.half_open_probes:
                self._probes_in_flight += 1
                return True
            return False
        return False

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self._state == self.HALF_OPEN:
            self._state = self.CLOSED
            self._probes_in_flight = 0
            self.transitions["closed"] += 1

    def record_failure(self) -> None:
        self._maybe_half_open()
        if self._state == self.HALF_OPEN:
            self._open()
            return
        self._consecutive_failures += 1
        if (self._state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold):
            self._open()


@dataclass
class ResiliencePolicy:
    """Everything the scheduler needs to degrade gracefully, in one object.

    * ``retry`` — the per-request :class:`RetryPolicy` applied after the
      batched attempt fell back to unbatched execution.
    * ``failure_threshold`` / ``reset_timeout`` / ``half_open_probes`` —
      the per-(tenant, program) :class:`CircuitBreaker` configuration.
    * ``default_deadline`` — deadline (seconds) applied to requests that do
      not carry their own; ``None`` leaves them unbounded.
    * ``output_validator(request, index, ciphertext)`` — optional integrity
      hook run on every computed output before it is handed back; raise to
      mark the execution failed (the chaos suite uses a bit-exact reference
      check here so corrupted kernel results become retries, never wrong
      answers).
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    failure_threshold: int = 8
    reset_timeout: float = 0.5
    half_open_probes: int = 1
    default_deadline: "Optional[float]" = None
    output_validator: "Optional[Callable[[Any, int, Any], None]]" = None

    def make_breaker(self, clock: Callable[[], float]) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=self.failure_threshold,
            reset_timeout=self.reset_timeout,
            half_open_probes=self.half_open_probes,
            clock=clock,
        )
