"""Shared test configuration: registered marks and a hang guard for the
whole suite.

The resilience/chaos tests are built around injectable clocks and sleeps so
they never wait on wall time — but a regression there (a future that never
resolves, a retry loop that really sleeps) would show up as a *hang*, which
is the worst possible CI failure mode.  ``REPRO_TEST_TIMEOUT`` (seconds)
arms a SIGALRM-based per-test timeout: any single test exceeding it fails
with a clear message instead of wedging the job.  Unset or ``0`` disables
the guard (the local default); CI sets it on every leg.  This is the
stdlib-only equivalent of pytest-timeout, which is not a dependency of
this repo.
"""

import os
import signal

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a whole example script run end to end (seconds)")
    config.addinivalue_line(
        "markers", "mutation: one native.c build per step tag with that step "
        "removed (minutes); runs only where -m mutation selects it")
    # The CKKS encoder and the gaussian sampler round float64 to int64: a
    # NaN or an out-of-range float -> int cast, like a wrapping numpy scalar
    # operation, shows only as a RuntimeWarning ("invalid value encountered
    # in cast", "overflow encountered in ...").
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


def pytest_collection_modifyitems(config, items):
    """Skip the ``mutation`` tests unless ``-m`` names them: the selection
    is their only switch."""
    if "mutation" in config.getoption("markexpr"):
        return
    skip = pytest.mark.skip(reason="opt-in: select with -m mutation")
    for item in items:
        if "mutation" in item.keywords:
            item.add_marker(skip)


_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "0") or "0")
_HAS_ALARM = hasattr(signal, "SIGALRM")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if _TIMEOUT <= 0 or not _HAS_ALARM:
        yield
        return

    def _abort(signum, frame):
        pytest.fail(
            f"{item.nodeid} exceeded REPRO_TEST_TIMEOUT={_TIMEOUT:g}s "
            f"(likely a hung future or a real sleep in a resilience path)",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, _abort)
    signal.setitimer(signal.ITIMER_REAL, _TIMEOUT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
