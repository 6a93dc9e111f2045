"""TimingBackend is a transparent wrapper: exact results, no double counting."""

import random

import pytest

pytest.importorskip("numpy")

from repro.fhe.backend import get_backend, use_backend  # noqa: E402
from repro.fhe.ntt import NTTContext  # noqa: E402
from repro.fhe.params import CKKSParameters  # noqa: E402
from repro.fhe.rns import RNSBasis, _bconv_plan  # noqa: E402

from timing_backend import TimingBackend  # noqa: E402

N = 64


@pytest.fixture(scope="module")
def setting():
    params = CKKSParameters(
        ring_degree=N, max_level=3, dnum=2, scale_bits=26, modulus_bits=30,
        special_modulus_bits=32, security_bits=0, name="timing-backend-test")
    moduli = list(params.moduli)
    contexts = [NTTContext(N, q) for q in moduli]
    inner = get_backend("numpy")
    rng = random.Random(7)
    rows = [[rng.randrange(q) for _ in range(N)] for q in moduli]
    return params, moduli, contexts, inner, rows


def rows_of(inner, store):
    return inner.store_rows(store)


def test_forwards_identity_attributes(setting):
    inner = setting[3]
    timing = TimingBackend(inner)
    assert timing.name == f"timing:{inner.name}"
    assert timing.store_uint32 == getattr(inner, "store_uint32", False)


def test_pass_through_is_bit_exact(setting):
    params, moduli, contexts, inner, rows = setting
    timing = TimingBackend(inner)
    store = inner.pack_limbs(rows, moduli)

    forward = timing.batched_ntt(contexts, timing.pack_limbs(rows, moduli))
    assert rows_of(inner, forward) == rows_of(
        inner, inner.batched_ntt(contexts, store))

    plan = _bconv_plan(RNSBasis(moduli[:2]), RNSBasis(moduli[2:]))
    digits = inner.pack_limbs(rows[:2], moduli[:2])
    assert rows_of(inner, timing.bconv_matmul(digits, plan)) == rows_of(
        inner, inner.bconv_matmul(digits, plan))

    key = inner.limbs_eval_key(contexts, store)
    got = timing.limbs_eval_mac(contexts, [forward], [(key, key)])
    want = inner.limbs_eval_mac(contexts, [forward], [(key, key)])
    assert [rows_of(inner, s) for s in got] == [rows_of(inner, s) for s in want]


def test_counts_only_top_level_dispatches(setting):
    params, moduli, contexts, inner, rows = setting
    ticks = iter(range(10_000))
    timing = TimingBackend(inner, clock=lambda: next(ticks))
    dispatched = 0
    with use_backend(timing):
        store = timing.pack_limbs(rows, moduli)
        dispatched += 1
        for _ in range(3):
            # limbs_convolution runs NTT -> multiply -> iNTT inside the
            # inner backend: one dispatch, however many kernels it nests.
            timing.limbs_convolution(contexts, store, store)
            dispatched += 1
        timing.batched_intt(contexts, timing.batched_ntt(contexts, store))
        dispatched += 2
    assert timing.total_calls() == dispatched
    assert sum(timing.calls.values()) == dispatched
    assert timing.calls["limbs_convolution"] == 3
    assert "limbs_mul" not in timing.calls
    # The fake clock advances one tick per reading: two readings per
    # top-level dispatch and none for nested ones.
    assert timing.total_busy_seconds() == dispatched
    assert timing.bytes_moved["batched_ntt"] > 0
    timing.reset()
    assert timing.total_calls() == 0 and timing.total_busy_seconds() == 0
