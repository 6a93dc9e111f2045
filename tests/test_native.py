"""The compiled word-32 transform core and its loader.

``repro.fhe.native`` is standard library only, so the loader tests run on
every CI leg; the parity tests need numpy and a library that built here
(the numpy CI leg fails when it did not).  The native core must equal the
golden python transforms on every word-32 ``(N, q)`` of the parameter sets,
on the largest NTT-friendly primes below 2^32 for N = 2 ... 4096 and on
every store layout the kernels hand it; whatever the loader returns, the
transforms stay the golden ones.
"""

import os
import random
import subprocess
import sys

import pytest

from repro.fhe import backend as backend_module
from repro.fhe import modmath, native
from repro.fhe.backend import NumpyBackend, PythonBackend, available_backends
from repro.fhe.ntt import NTTContext
from repro.fhe.params import CKKSParameters, TFHEParameters

PYTHON = PythonBackend()
needs_numpy = pytest.mark.skipif(
    "numpy" not in available_backends(), reason="numpy backend unavailable")
needs_library = pytest.mark.skipif(
    native.library() is None, reason="the native library did not build here")


@pytest.fixture
def cache(tmp_path):
    """An empty private cache directory."""
    directory = tmp_path / "cache"
    directory.mkdir(mode=0o700)
    return directory


@pytest.fixture
def failing_compiler(tmp_path):
    """A compiler that reports a version and fails every build."""
    path = tmp_path / "cc"
    path.write_text('#!/bin/sh\n[ "$1" = --version ] && echo fake-cc 1.0 && exit 0\n'
                    'echo "cc: error" >&2\nexit 1\n')
    path.chmod(0o700)
    return str(path)


def _replace(path, data):
    """Put ``data`` at ``path`` as a new file: a library this process has
    mapped must not change under it."""
    temp = path.with_name(path.name + ".new")
    temp.write_bytes(data)
    temp.chmod(0o700)
    os.replace(temp, path)


class TestLoader:
    def test_imports_without_numpy(self):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys; sys.modules['numpy'] = None\n"
                "from repro.fhe import native\n"
                "print(native.SOURCE.is_file())\n")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.split() == ["True"], done.stderr

    def test_no_compiler(self, cache):
        assert native.build(cache, None) is None
        assert native.build(cache, str(cache.parent / "no-such-cc")) is None
        assert list(cache.iterdir()) == []

    def test_a_failing_build_leaves_nothing_behind(self, cache, failing_compiler):
        assert native.build(cache, failing_compiler) is None
        assert list(cache.iterdir()) == []

    def test_the_directory_must_be_private(self, cache):
        cache.chmod(0o750)
        assert native.build(cache, native._compiler()) is None
        assert native.build(cache.parent / "missing", native._compiler()) is None

    def test_the_answer_is_decided_once_per_process(self, cache, monkeypatch):
        calls = []
        monkeypatch.setattr(native, "_cache_directory", lambda: cache)
        monkeypatch.setattr(native, "build", lambda *args: calls.append(args))
        native.library.cache_clear()
        try:
            assert native.library() is None and native.library() is None
        finally:
            native.library.cache_clear()       # the next call loads for real
        assert len(calls) == 1


@needs_library
class TestCachedLibrary:
    """What the loader does with a file it finds in its cache."""

    @pytest.fixture
    def built(self, cache):
        assert native.build(cache, native._compiler()) is not None
        (path,) = cache.iterdir()
        return path

    def test_an_intact_file_is_loaded_not_rebuilt(self, built, cache):
        stamp = built.stat().st_mtime_ns
        assert native.build(cache, native._compiler()) is not None
        assert list(cache.iterdir()) == [built]
        assert built.stat().st_mtime_ns == stamp

    @pytest.mark.parametrize("mode", [0o720, 0o702])
    def test_a_group_or_world_writable_file_is_refused(self, built, cache, mode):
        built.chmod(mode)
        assert native.build(cache, native._compiler()) is None
        assert built.stat().st_mode & 0o777 == mode        # refused, not replaced

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() != 0,
                        reason="giving a file away needs root")
    def test_a_foreign_owned_file_is_refused(self, built, cache):
        os.chown(built, os.getuid() + 1, -1)
        assert native.build(cache, native._compiler()) is None

    @pytest.mark.parametrize("keep", [0, 64, 0.5, -1])
    def test_a_truncated_file_is_rebuilt(self, built, cache, keep):
        data = built.read_bytes()
        cut = int(len(data) * keep) if isinstance(keep, float) else keep % len(data)
        _replace(built, data[:cut])
        assert not native._intact(built)
        assert native.build(cache, native._compiler()) is not None
        assert native._intact(built)


@needs_numpy
@pytest.mark.parametrize("case", ["no-compiler", "failing-compiler",
                                  "writable-file", "truncated-file"])
def test_the_transforms_stay_golden_whatever_the_loader_returns(
        case, cache, failing_compiler, monkeypatch):
    compiler = {"no-compiler": None, "failing-compiler": failing_compiler}.get(
        case, native._compiler())
    if case.endswith("-file"):
        if native.library() is None:
            pytest.skip("the native library did not build here")
        native.build(cache, compiler)
        (path,) = cache.iterdir()
        if case == "writable-file":
            path.chmod(0o722)
        else:
            _replace(path, path.read_bytes()[:100])
    lib = native.build(cache, compiler)
    assert (lib is None) == (case != "truncated-file")
    monkeypatch.setattr(native, "library", lambda: lib)
    backend = NumpyBackend(min_vector_length=0, min_ntt_length=0)
    context = NTTContext(256, TFHEParameters.hybrid().modulus)
    assert (backend._tables((context,)).native is None) == (lib is None)
    rng = random.Random(5)
    rows = [[rng.randrange(context.modulus) for _ in range(256)] for _ in range(3)]
    forward = backend.ntt_forward_batch(context, rows)
    assert forward == [PYTHON.ntt_forward(context, row) for row in rows]
    assert backend.ntt_inverse_batch(context, forward) == rows


# ---------------------------------------------------------------------------
# Native parity: every word-32 ring against the golden transforms
# ---------------------------------------------------------------------------

def _word32_rings():
    """Every word-32 ``(N, q)`` of the parameter sets (and of the benchmark's
    30-bit chain), then the largest NTT-friendly prime below 2^32 at each
    N = 2 ... 4096: every Shoup product and butterfly sum at its widest."""
    rings = set()
    for params in (CKKSParameters.toy(), CKKSParameters.small(ring_degree=256),
                   CKKSParameters(ring_degree=2048, max_level=8, dnum=3,
                                  scale_bits=26, modulus_bits=30,
                                  special_modulus_bits=32, security_bits=0)):
        rings.update((params.ring_degree, q)
                     for q in (*params.moduli, *params.special_moduli))
    for params in (TFHEParameters.toy(), TFHEParameters.small(),
                   TFHEParameters.hybrid()):
        rings.add((params.polynomial_size, params.modulus))
    rings.update((1 << k, modmath.find_ntt_prime(32, 1 << k)) for k in range(1, 13))
    return sorted((n, q) for n, q in rings if q.bit_length() <= 32)


@needs_numpy
@needs_library
class TestNativeParity:
    @staticmethod
    def _check(contexts, x, backend=None):
        np = pytest.importorskip("numpy")
        backend = backend or NumpyBackend(min_vector_length=0, min_ntt_length=0)
        tabs = backend._tables(contexts)
        assert tabs.word == 32 and tabs.native is not None
        before = x.copy()
        flat = x.reshape(-1, x.shape[-1])
        golden = np.array([
            PYTHON.ntt_forward(contexts[i % len(contexts)], row.tolist())
            for i, row in enumerate(flat)], dtype=np.uint64).reshape(x.shape)
        forward = backend_module._ntt(tabs, x)
        assert forward.dtype == np.uint64 and np.array_equal(forward, golden)
        assert np.array_equal(backend_module._intt(tabs, forward), x)
        assert np.array_equal(x, before)                 # inputs are only read

    @pytest.mark.parametrize("n,q", _word32_rings())
    def test_every_word32_ring(self, n, q):
        np = pytest.importorskip("numpy")
        x = np.random.default_rng(n + q % 997).integers(0, q, size=(4, n), dtype=np.uint64)
        x[1], x[2] = q - 1, 0
        self._check((NTTContext(n, q),), x)

    def test_layouts(self):
        """A limb stack ``(C, L, N)``, a TFHE wave under one modulus, a
        strided slice and a uint32 wire-decoded store."""
        np = pytest.importorskip("numpy")
        n = 1024
        contexts = tuple(NTTContext(n, modmath.find_ntt_prime(bits, n, index=i))
                         for i, bits in enumerate((30, 30, 32)))
        moduli = np.array([c.modulus for c in contexts], dtype=np.uint64)[:, None]
        stack = np.random.default_rng(11).integers(
            0, 1 << 62, size=(3, 3, n), dtype=np.uint64) % moduli
        self._check(contexts, stack)
        self._check(contexts[:1], stack[:, 0])
        sliced = stack[:, :, ::2]
        assert not sliced.flags.c_contiguous
        self._check(tuple(NTTContext(n // 2, c.modulus) for c in contexts), sliced)
        backend = NumpyBackend(min_vector_length=0, min_ntt_length=0)
        narrow = backend.batched_ntt(contexts, stack[0].astype(np.uint32))
        assert np.array_equal(narrow, backend.batched_ntt(contexts, stack[0]))
        assert np.array_equal(backend.batched_intt(contexts, narrow), stack[0])

    def test_rows_that_do_not_fit_the_tables_are_refused(self):
        np = pytest.importorskip("numpy")
        contexts = tuple(NTTContext(64, q) for q in modmath.find_ntt_primes(30, 64, 3))
        tabs = NumpyBackend(min_vector_length=0, min_ntt_length=0)._tables(contexts)
        for shape in ((3, 32), (2, 64), (4, 64)):
            with pytest.raises(ValueError):
                backend_module._ntt(tabs, np.zeros(shape, dtype=np.uint64))

    def test_a_context_tuple_shares_each_modulus_table(self):
        backend = NumpyBackend(min_vector_length=0, min_ntt_length=0)
        a, b, c = (NTTContext(64, q) for q in modmath.find_ntt_primes(30, 64, 3))
        first, second = backend._tables((a, b)), backend._tables((b, c))
        assert first.shoup[1] is second.shoup[0] is backend._tables((b,)).shoup[0]
        assert not hasattr(first, "matrix")
