"""``TimingBackend``: per-kernel call counts, busy time and computed bytes.

Built like ``repro.serve.chaos.FaultInjectingBackend``: every public
callable of the inner backend is forwarded, and the inner backend's own
nested kernel calls go to the clean inner instance, so only *top-level*
dispatches are counted.  A depth guard covers the remaining re-entry path
(code under a kernel that resolves ``active_backend()`` while this wrapper
is the active one), so no time is counted twice.  Results are whatever the
inner backend returns, untouched.

``mbytes`` is computed, not measured: the sum of ``nbytes`` over the array
arguments and the result of each call (8 bytes per element for plain int
lists).
"""

from __future__ import annotations

import time
from typing import Callable, Dict

from repro.fhe.backend import ArithmeticBackend

__all__ = ["TimingBackend"]


def _nbytes(obj) -> int:
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(obj, (list, tuple)) and obj:
        if isinstance(obj[0], int):
            return 8 * len(obj)
        return sum(_nbytes(item) for item in obj)
    return 0


class TimingBackend(ArithmeticBackend):
    """Wrap any backend; count and time its top-level kernel dispatches."""

    def __init__(self, inner: ArithmeticBackend, *,
                 clock: Callable[[], float] = time.perf_counter):
        self.inner = inner
        self._clock = clock
        self._depth = 0
        self.calls: Dict[str, int] = {}
        self.busy_seconds: Dict[str, float] = {}
        self.bytes_moved: Dict[str, int] = {}
        for attr in dir(type(inner)):
            if attr.startswith("_"):
                continue
            bound = getattr(inner, attr)
            if callable(bound):
                setattr(self, attr, self._wrap(attr, bound))
        self.name = f"timing:{inner.name}"
        self.store_uint32 = getattr(inner, "store_uint32", False)

    def _wrap(self, kernel: str, func: Callable) -> Callable:
        def dispatch(*args, **kwargs):
            if self._depth:
                return func(*args, **kwargs)
            self._depth = 1
            start = self._clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = self._clock() - start
                self._depth = 0
            self.calls[kernel] = self.calls.get(kernel, 0) + 1
            self.busy_seconds[kernel] = self.busy_seconds.get(kernel, 0.0) + elapsed
            self.bytes_moved[kernel] = (self.bytes_moved.get(kernel, 0)
                                        + _nbytes(args) + _nbytes(result))
            return result

        dispatch.__name__ = f"timed_{kernel}"
        return dispatch

    def total_calls(self) -> int:
        return sum(self.calls.values())

    def total_busy_seconds(self) -> float:
        return sum(self.busy_seconds.values())

    def reset(self) -> None:
        self.calls.clear()
        self.busy_seconds.clear()
        self.bytes_moved.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimingBackend({self.inner!r})"
