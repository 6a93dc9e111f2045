"""The compiled native library (transforms, fixed-scalar products and
multiply-accumulates at word 32 and word 64, the gadget decomposition, the
CMux loop) and its loader.

``repro.fhe.native`` is standard library only, so the loader tests run on
every CI leg; the parity tests need the numpy backend, which exists only
where numpy imports and the library loaded (the numpy CI leg fails when it
did not).  The native transforms must equal the golden python ones on
every ``(N, q)`` of the parameter sets, on the largest NTT-friendly primes
below 2^32 for N = 2 ... 4096 and below 2^62 and 2^61 for N = 64, 128 and
2048, and on every store layout the kernels hand them; the three
multiply-accumulate kernels (``limbs_eval_mac``, ``stacked_pmult_mac``,
``bconv_matmul``) and the TFHE external product ``external_product_mac``
must equal the golden ones on the same moduli, at every term count the
accumulator has an edge at; so must the fixed-scalar products
``batched_sub_scaled`` and ``limbs_scalar_mul`` on every chain, at ``q - 1``
under the largest primes below 2^32 and 2^62, and for any integer scalar;
the gadget decomposition ``gadget_decompose_rows`` must, at every modulus
below 2^51, factor and value its float quotient has an edge at; and the
blind rotation ``blind_rotate_rows`` must equal the golden composition of
the wave kernels on every TFHE set below 2^32, at every degree edge.  Whatever
the loader returns, the python backend is the one fallback, and every
reduction step of the C source carries a step tag
(``tests/test_native_mutation.py`` removes each in turn).
"""

import collections
import math
import os
import random
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fhe import backend as backend_module
from repro.fhe import modmath, native
from repro.fhe.backend import (
    NumpyBackend,
    PythonBackend,
    active_backend,
    available_backends,
    get_backend,
)
from repro.fhe.ntt import NTTContext
from repro.fhe.params import CKKSParameters, TFHEParameters
from repro.fhe.polynomial import galois_eval_spec
from repro.fhe.rns import RNSBasis, _bconv_plan
from repro.fhe.tfhe.ggsw import gadget_factors
from repro.workloads.hybrid_workloads import hybrid_query_parameters

PYTHON = PythonBackend()
HYBRID_Q = TFHEParameters.hybrid().modulus
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


def _source_without(name, directory, monkeypatch):
    """``native.SOURCE`` with entry point ``name`` renamed: a library that
    builds but lacks it."""
    source = directory / f"without-{name}.c"
    source.write_text(native.SOURCE.read_text().replace(
        f"void {name}(", f"void {name}_renamed("))
    monkeypatch.setattr(native, "SOURCE", source)


class _Hiding:
    """A loaded library as a ``ctypes.CDLL`` without entry point ``hidden``."""

    def __init__(self, lib, hidden):
        self._lib, self._hidden = lib, hidden

    def __getattr__(self, name):
        if name == self._hidden:
            raise AttributeError(name)
        return getattr(self._lib, name)


@pytest.fixture
def source_without_mac(tmp_path, monkeypatch):
    """A library that builds but lacks ``mac32``."""
    _source_without("mac32", tmp_path, monkeypatch)


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

    @needs_library
    def test_a_library_missing_an_entry_point_is_refused(self, cache, monkeypatch):
        """One build, loaded once per entry point through a ``ctypes.CDLL``
        that hides it; and one build of a source without ``mac64``."""
        assert {"decompose32", "mac64", "ntt64_forward"} <= set(native.SIGNATURES)
        compiler = native._compiler()
        assert native.build(cache, compiler) is not None
        load = native.ctypes.CDLL
        for name in native.SIGNATURES:
            monkeypatch.setattr(native.ctypes, "CDLL",
                                lambda path, hidden=name: _Hiding(load(path), hidden))
            assert native.build(cache, compiler) is None, name
        monkeypatch.setattr(native.ctypes, "CDLL", load)
        assert native.build(cache, compiler) is not None
        removed = cache.parent / "without-mac64"
        removed.mkdir(mode=0o700)
        _source_without("mac64", cache.parent, monkeypatch)
        assert native.build(removed, compiler) is None
        # Built and cached (it compiled), but never bound.
        assert len(list(removed.iterdir())) == 1

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


#: A step tag in the C source.
STEP_TAG = re.compile(r"/\* step: ([a-z0-9-]+) \*/")
#: Code (comments removed) of a conditional subtraction or a correction: a
#: conditional expression, or a compound assignment of a comparison.
CORRECTION = re.compile(r"\?|[-+]= \(.*[<>]")


def _tagged_lines(text):
    """``(code, tags)`` per line of C source: the code without comments,
    the step tags the line carries."""
    code = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group().count("\n"), text,
                  flags=re.S)
    return list(zip(code.splitlines(), (STEP_TAG.findall(line)
                                        for line in text.splitlines())))


class TestStepTags:
    """Every reduction and correction of ``native.c`` is named, so a
    mutation build can remove exactly one."""

    def test_every_correction_line_carries_one_unique_tag(self):
        lines = _tagged_lines(native.SOURCE.read_text())
        corrections = [(code, tags) for code, tags in lines if CORRECTION.search(code)]
        assert len(corrections) >= 18
        for code, tags in corrections:
            assert len(tags) == 1, code
        tags = [tag for _, found in lines for tag in found]
        assert len(tags) == len(set(tags))
        # Every tag marks code, not a comment line.
        assert all(code.strip() for code, found in lines if found)
        assert {"ntt64-forward-u", "ntt64-inverse-sum", "mac64-fold",
                "mac64-correct-2q", "mac64-correct-q"} <= set(tags)

    def test_the_rule_sees_what_it_must(self):
        for line in ("r = r >= q ? r - q : r;", "d += (rem >= f2) - (rem < 0);"):
            assert CORRECTION.search(line)
        for line in ("acc[j] += (u128)x[j] * y[j];", "u[j] = x + y;",
                     "for (size_t j = 0; j < len; j++)"):
            assert not CORRECTION.search(line)
        assert _tagged_lines("a; /* x ? y : z\n */ b;  /* step: s-1 */\n") == [
            ("a; ", []), (" b;  ", ["s-1"])]


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


@pytest.fixture
def fresh_registry(monkeypatch):
    """The backend registry as a new process finds it: no instances, no
    active backend, no fallback warning given yet, no ``REPRO_BACKEND``."""
    monkeypatch.setattr(backend_module, "_INSTANCES", {})
    monkeypatch.setattr(backend_module, "_ACTIVE", None)
    monkeypatch.setattr(backend_module, "_WARNED_FALLBACK", False)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)


@pytest.mark.parametrize("case", ["numpy-missing", "no-compiler",
                                  "failing-compiler", "writable-file",
                                  "missing-entry-point", "truncated-file"])
def test_python_is_the_one_fallback(case, cache, failing_compiler, fresh_registry,
                                    request, monkeypatch):
    """The numpy backend is offered only where numpy imports and the library
    loads.  Without numpy (the compiler is then never run) or after any
    loader failure it is not offered, its constructor raises, and
    ``"numpy"`` asked for by name, by ``REPRO_BACKEND`` or by default is the
    python instance, with one warning naming what is missing.  A truncated
    cached file is rebuilt, and the library it loads serves."""
    if case == "numpy-missing":
        monkeypatch.setattr(backend_module, "_np", None)
        monkeypatch.setattr(native, "library",
                            lambda: pytest.fail("the loader ran without numpy"))
    else:
        compiler = {"no-compiler": None, "failing-compiler": failing_compiler}.get(
            case, native._compiler())
        if case in ("writable-file", "truncated-file", "missing-entry-point"):
            if native.library() is None:
                pytest.skip("the native library did not build here")
        if case == "missing-entry-point":
            request.getfixturevalue("source_without_mac")
        if case.endswith("-file"):
            native.build(cache, compiler)
            (path,) = cache.iterdir()
            if case == "writable-file":
                path.chmod(0o722)
            else:
                _replace(path, path.read_bytes()[:100])
        lib = native.build(cache, compiler)
        assert (lib is None) == (case != "truncated-file")
        monkeypatch.setattr(native, "library", lambda: lib)
        if lib is not None and backend_module._np is not None:
            assert available_backends() == ["python", "numpy"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                numpy_backend = get_backend("numpy")
            assert numpy_backend.name == "numpy" and numpy_backend._lib is lib
            context = NTTContext(256, HYBRID_Q)
            rows = [[(7 * i + r) % HYBRID_Q for i in range(256)] for r in range(3)]
            assert (numpy_backend.ntt_forward_batch(context, rows)
                    == PYTHON.ntt_forward_batch(context, rows))
            return
    missing = "numpy is not installed" if backend_module._np is None else "native library"
    assert available_backends() == ["python"]
    with pytest.raises(RuntimeError, match=missing):
        NumpyBackend(min_vector_length=0, min_ntt_length=0)
    python = get_backend("python")
    with pytest.warns(UserWarning, match=missing) as warned:
        assert get_backend("numpy") is python
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert active_backend() is python
        monkeypatch.delenv("REPRO_BACKEND")
        assert get_backend() is python
    assert len(warned) == 1


# ---------------------------------------------------------------------------
# Native parity: every ring against the golden transforms
# ---------------------------------------------------------------------------

def _word32_rings():
    """Every word-32 ``(N, q)`` of the parameter sets (and of the benchmark's
    30-bit chains), then the largest NTT-friendly prime below 2^32 at each
    N = 2 ... 4096: every Shoup product and butterfly sum at its widest."""
    rings = set()
    for params in (CKKSParameters.toy(), CKKSParameters.small(ring_degree=256),
                   *(CKKSParameters(ring_degree=degree, max_level=8, dnum=3,
                                    scale_bits=26, modulus_bits=30,
                                    special_modulus_bits=32, security_bits=0)
                     for degree in (1024, 2048))):
        rings.update((params.ring_degree, q)
                     for q in (*params.moduli, *params.special_moduli))
    for params in (TFHEParameters.toy(), TFHEParameters.small(),
                   TFHEParameters.hybrid()):
        rings.add((params.polynomial_size, params.modulus))
    rings.update((1 << k, modmath.find_ntt_prime(32, 1 << k)) for k in range(1, 13))
    return sorted((n, q) for n, q in rings if q.bit_length() <= 32)


def _word64_rings():
    """Every word-64 ``(N, q)`` of the 40/42-bit parameter sets — toy, small,
    the hybrid query's CKKS island and the bootstrapping tests' chain — then
    the largest NTT-friendly primes below 2^62 (4q just below 2^64) and 2^61
    at N = 64, 128 and 2048."""
    rings = set()
    for params in (CKKSParameters.toy(), CKKSParameters.small(ring_degree=256),
                   hybrid_query_parameters()[0],
                   CKKSParameters(ring_degree=128, max_level=13, dnum=4,
                                  scale_bits=40, modulus_bits=40,
                                  special_modulus_bits=42, security_bits=0)):
        rings.update((params.ring_degree, q)
                     for q in (*params.moduli, *params.special_moduli))
    rings.update((n, modmath.find_ntt_prime(bits, n))
                 for n in (64, 128, 2048) for bits in (61, 62))
    return sorted((n, q) for n, q in rings if q.bit_length() > 32)


def _moduli_column(contexts, rows):
    """The ``(rows, 1)`` moduli of ``rows`` rows under ``contexts``."""
    np = pytest.importorskip("numpy")
    return np.array([contexts[i % len(contexts)].modulus for i in range(rows)],
                    dtype=np.uint64)[:, None]


@needs_numpy
class TestNativeParity:
    @staticmethod
    def _check(contexts, x, backend=None):
        """``x`` forward against golden and back; word-64 rows may be
        anywhere below ``2q`` in both directions."""
        np = pytest.importorskip("numpy")
        backend = backend or NumpyBackend(min_vector_length=0, min_ntt_length=0)
        tabs = backend._tables(contexts)
        wide = max(ctx.modulus for ctx in contexts) >> 32
        assert tabs.native is not None and tabs.word == (64 if wide else 32)
        before = x.copy()
        flat = x.reshape(-1, x.shape[-1])
        q = _moduli_column(contexts, len(flat))
        golden = np.array(PYTHON.batched_ntt(
            [contexts[i % len(contexts)] for i in range(len(flat))], flat),
            dtype=np.uint64).reshape(x.shape)
        forward = backend_module._ntt(tabs, x)
        assert forward.dtype == np.uint64 and np.array_equal(forward, golden)
        reduced = (flat % q).reshape(x.shape)
        assert np.array_equal(backend_module._intt(tabs, forward), reduced)
        if wide:
            lazy = (forward.reshape(flat.shape) + q).reshape(x.shape)
            assert np.array_equal(backend_module._intt(tabs, lazy), reduced)
        assert np.array_equal(x, before)                 # inputs are only read

    @pytest.mark.parametrize("n,q", _word32_rings())
    def test_every_word32_ring(self, n, q):
        np = pytest.importorskip("numpy")
        x = np.random.default_rng(n + q % 997).integers(0, q, size=(4, n), dtype=np.uint64)
        x[1], x[2] = q - 1, 0
        self._check((NTTContext(n, q),), x)

    @pytest.mark.parametrize("n,q", _word64_rings())
    def test_every_word64_ring(self, n, q):
        """Operands at ``q - 1`` and at zero, and a forward row in ``[q, 2q)``
        opening with ``2q - 1``."""
        np = pytest.importorskip("numpy")
        rng = np.random.default_rng(n + q % 997)
        x = rng.integers(0, q, size=(4, n), dtype=np.uint64)
        x[1], x[2] = q - 1, 0
        x[3] += np.uint64(q)
        x[3, :n // 2] = 2 * q - 1
        self._check((NTTContext(n, q),), x)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(_word64_rings()), st.integers(1, 3),
           st.integers(0, 1 << 16))
    def test_word64_sweep(self, ring, rows, seed):
        """Rows anywhere below ``2q``."""
        np = pytest.importorskip("numpy")
        n, q = ring
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 2 * q, size=(rows, n), dtype=np.uint64)
        self._check((NTTContext(n, q),), x)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(_word32_rings()), st.integers(1, 3),
           st.integers(0, 1 << 16), st.booleans())
    def test_word32_sweep(self, ring, rows, seed, edge):
        """Rows of one ring, then a ``(C, L, N)`` stack of them under the
        ring's modulus and two 30-bit ones (row ``r`` under table
        ``r % L``); with ``edge`` the first row (of each limb) is ``q - 1``."""
        np = pytest.importorskip("numpy")
        n, q = ring
        rng = np.random.default_rng(seed)
        x = rng.integers(0, q, size=(rows, n), dtype=np.uint64)
        contexts = tuple(NTTContext(n, p)
                         for p in (q, *modmath.find_ntt_primes(30, n, 2)))
        moduli = _moduli_column(contexts, len(contexts))
        stack = rng.integers(0, 1 << 62, size=(rows, len(contexts), n),
                             dtype=np.uint64) % moduli
        if edge:
            x[0] = q - 1
            stack[0] = np.broadcast_to(moduli - np.uint64(1), stack[0].shape)
        self._check((NTTContext(n, q),), x)
        self._check(contexts, stack)

    def test_layouts(self):
        self._layouts((30, 30, 32))

    def test_word64_layouts(self):
        self._layouts((40, 40, 42))

    def _layouts(self, bits):
        """A limb stack ``(C, L, N)``, a TFHE wave under one modulus, a
        strided slice, an empty store and a uint32 wire-decoded store."""
        np = pytest.importorskip("numpy")
        n = 1024
        contexts = tuple(NTTContext(n, modmath.find_ntt_prime(b, n, index=i))
                         for i, b in enumerate(bits))
        moduli = np.array([c.modulus for c in contexts], dtype=np.uint64)[:, None]
        stack = np.random.default_rng(11).integers(
            0, 1 << 62, size=(3, 3, n), dtype=np.uint64) % moduli
        self._check(contexts, stack)
        self._check(contexts[:1], stack[:, 0])
        self._check(contexts[:1], stack[:0, 0])
        sliced = stack[:, :, ::2]
        assert not sliced.flags.c_contiguous
        self._check(tuple(NTTContext(n // 2, c.modulus) for c in contexts), sliced)
        backend = NumpyBackend(min_vector_length=0, min_ntt_length=0)
        words = stack[0] & np.uint64(0xFFFFFFFF)
        narrow = backend.batched_ntt(contexts, words.astype(np.uint32))
        assert np.array_equal(narrow, backend.batched_ntt(contexts, words))
        assert np.array_equal(backend.batched_intt(contexts, narrow), words)

    @pytest.mark.parametrize("bits", [30, 40])
    def test_the_stacked_transforms_only_read_their_stores(self, bits):
        """The entry points that transform in place over their own stack
        leave the caller's stores as they were and share no memory with
        them or with each other's results; a Fortran-ordered store (whose
        stack is not C-ordered) transforms like any other."""
        np = pytest.importorskip("numpy")
        contexts = tuple(NTTContext(64, q) for q in modmath.find_ntt_primes(bits, 64, 2))
        backend = NumpyBackend(min_vector_length=0, min_ntt_length=0)
        moduli = _moduli_column(contexts, 2)
        stores = [np.random.default_rng(seed).integers(
            0, 1 << 62, size=(2, 64), dtype=np.uint64) % moduli for seed in (1, 2)]
        stores[1] = np.asfortranarray(stores[1])
        before = [store.copy() for store in stores]
        outs = [backend.batched_ntt(contexts, stores[1]),
                backend.batched_intt(contexts, stores[1]),
                *backend.stacked_ntt(contexts, stores),
                *backend.stacked_intt(contexts, stores),
                backend.limbs_convolution(contexts, *stores)]
        assert all(np.array_equal(a, b) for a, b in zip(stores, before))
        assert np.array_equal(outs[0], PYTHON.batched_ntt(contexts, before[1]))
        assert np.array_equal(outs[1], PYTHON.batched_intt(contexts, before[1]))
        arrays = stores + outs
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(arrays) for b in arrays[i + 1:])

    def test_rows_that_do_not_fit_the_tables_are_refused(self):
        self._misfits(30)

    def test_word64_rows_that_do_not_fit_the_tables_are_refused(self):
        self._misfits(40)

    @staticmethod
    def _misfits(bits):
        np = pytest.importorskip("numpy")
        contexts = tuple(NTTContext(64, q) for q in modmath.find_ntt_primes(bits, 64, 3))
        tabs = NumpyBackend(min_vector_length=0, min_ntt_length=0)._tables(contexts)
        for shape in ((3, 32), (2, 64), (4, 64)):
            with pytest.raises(ValueError):
                backend_module._ntt(tabs, np.zeros(shape, dtype=np.uint64))

    def test_a_context_tuple_shares_each_modulus_table(self):
        self._shared_tables(30)

    def test_word64_context_tuple_shares_each_modulus_table(self):
        self._shared_tables(40)

    @staticmethod
    def _shared_tables(bits):
        backend = NumpyBackend(min_vector_length=0, min_ntt_length=0)
        a, b, c = (NTTContext(64, q) for q in modmath.find_ntt_primes(bits, 64, 3))
        first, second = backend._tables((a, b)), backend._tables((b, c))
        assert first.shoup[1] is second.shoup[0] is backend._tables((b,)).shoup[0]
        assert not hasattr(first, "matrix")


# ---------------------------------------------------------------------------
# Native MAC parity: the three multiply-accumulate kernels against golden
# ---------------------------------------------------------------------------

def _chains(rings):
    """The moduli of ``rings`` grouped by ring degree."""
    chains = {}
    for n, q in rings:
        chains.setdefault(n, []).append(q)
    return sorted((n, tuple(moduli)) for n, moduli in chains.items())


def _stores(moduli, n, count, seed, edge=False):
    """``count`` reduced ``(L, n)`` uint64 stores, the first half of every
    row at ``q - 1``; ``edge``: all of it, so every product is ``(q - 1)^2``,
    near 2^64 at 32 bits and near 2^124 at 62."""
    np = pytest.importorskip("numpy")
    q = np.array(moduli, dtype=np.uint64)[:, None]
    if edge:
        return [np.repeat(q - np.uint64(1), n, axis=1) for _ in range(count)]
    rng = np.random.default_rng(seed)
    stores = [rng.integers(0, 1 << 62, size=(len(moduli), n), dtype=np.uint64) % q
              for _ in range(count)]
    for store in stores:
        store[:, :n // 2] = q - np.uint64(1)
    return stores


def _rows(store):
    return PYTHON.store_rows(store)


def _eval_mac(backend, contexts, digits, keys, layout=lambda store: store):
    """``backend.limbs_eval_mac`` and the golden one, on the same key images:
    ``keys[j][c]`` are the evaluation-domain images wanted for digit ``j``,
    component ``c`` (the key stores are their inverse transforms)."""
    raw = [[backend.batched_intt(contexts, key) for key in row] for row in keys]
    handles = [tuple(backend.limbs_eval_key(contexts, key) for key in row) for row in raw]
    golden = [[["eval", _rows(key), None] for key in row] for row in keys]
    expected = PYTHON.limbs_eval_mac(contexts, [_rows(d) for d in digits], golden)
    actual = backend.limbs_eval_mac(contexts, [layout(d) for d in digits], handles)
    assert [_rows(a) for a in actual] == expected
    return expected


def _pmult_mac(backend, moduli, c0, c1, pts, layout=lambda store: store):
    expected = PYTHON.stacked_pmult_mac(*([_rows(s) for s in part]
                                          for part in (c0, c1, pts)), moduli)
    actual = backend.stacked_pmult_mac(*([layout(s) for s in part]
                                         for part in (c0, c1, pts)), moduli)
    assert tuple(map(_rows, actual)) == tuple(expected)
    return expected


def _bconv(backend, source, target, stores, layout=lambda store: store):
    """``backend.bconv_matmul`` of the wave ``stores`` against the golden
    conversion of each store alone, in member order; a bare store is the
    wave of one."""
    plan = _bconv_plan(RNSBasis(source), RNSBasis(target))
    expected = [PYTHON.bconv_matmul([_rows(store)], plan)[0] for store in stores]
    actual = backend.bconv_matmul([layout(store) for store in stores], plan)
    assert [_rows(store) for store in actual] == expected
    assert _rows(backend.bconv_matmul(layout(stores[0]), plan)) == expected[0]
    return expected


def _check_macs(backend, n, moduli, terms, seed, edge=False):
    """The keyswitch and plaintext MACs over ``moduli`` with ``terms``
    digits / ciphertexts, and a BConv from half of ``moduli`` onto the rest
    (where there are two); returns the two MACs' golden results."""
    contexts = tuple(NTTContext(n, q) for q in moduli)
    stores = _stores(moduli, n, 3 * terms, seed, edge)
    keys = [[stores[terms + j], stores[2 * terms + j]] for j in range(terms)]
    eval_mac = _eval_mac(backend, contexts, stores[:terms], keys)
    pmult = _pmult_mac(backend, moduli, stores[:terms], stores[terms:2 * terms],
                       stores[2 * terms:3 * terms])
    if len(moduli) > 1:
        cut = len(moduli) // 2
        _bconv(backend, moduli[:cut], moduli[cut:],
               _stores(moduli[:cut], n, 2, seed + 1, edge))
    return eval_mac, pmult


def _decompose(backend, store, q, factors):
    """``backend.gadget_decompose_rows`` against the golden one."""
    expected = PYTHON.gadget_decompose_rows(_rows(store), q, factors)
    assert _rows(backend.gadget_decompose_rows(store, q, factors)) == expected
    return expected


def _external_product(backend, q, n, members, levels, k, seed=0, edge=False):
    """``backend.external_product_mac`` of ``members`` wave members, each
    with ``levels * (k + 1)`` digit rows, against a GGSW slice of
    ``(k + 1)`` components per digit row, compared with the golden one; a
    member or key row count that does not split the rows raises its error."""
    per_member = levels * (k + 1)
    fwd = _stores((q,) * (members * per_member), n, 1, seed, edge)[0]
    key = _stores((q,) * (per_member * (k + 1)), n, 1, seed + 1, edge)[0]
    expected = PYTHON.external_product_mac(_rows(fwd), _rows(key), members, q)
    assert _rows(backend.external_product_mac(fwd, key, members, q)) == expected
    for count, rows in ((0, key), (len(fwd) + 1, key), (members, key[:-1])):
        with pytest.raises(ValueError, match="row counts"):
            backend.external_product_mac(fwd, rows, count, q)
    return expected


def _sub_scaled(backend, moduli, a, b, scalars, b_modulus=None):
    """``backend.batched_sub_scaled`` of ``a`` and ``b`` (a store, or one row
    shared by every limb) and ``backend.limbs_scalar_mul`` of ``a`` against
    the golden ones, leaving both inputs as they were; returns the golden
    ``batched_sub_scaled``."""
    np = pytest.importorskip("numpy")
    before = [np.array(a, copy=True), np.array(b, copy=True)]
    expected = PYTHON.batched_sub_scaled(_rows(a), _rows(b), scalars, moduli, b_modulus)
    actual = backend.batched_sub_scaled(a, b, scalars, moduli, b_modulus)
    assert _rows(actual) == expected
    scaled = PYTHON.limbs_scalar_mul(_rows(a), scalars, moduli)
    assert _rows(backend.limbs_scalar_mul(a, scalars, moduli)) == scaled
    assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])
    return expected


#: Crossovers above every store and ring these tests build.
ABOVE_EVERY_SIZE = 1 << 62


class _Route:
    """Which body ran: ``native`` says whether the C library should have
    (crossovers at 0) or the golden kernels, on numpy stores, below the
    crossovers; ``calls`` counts the calls of its entry points by name."""

    def __init__(self, native_route):
        self.native = native_route
        self.calls = collections.Counter()

    def backend(self):
        crossover = 0 if self.native else ABOVE_EVERY_SIZE
        return NumpyBackend(min_vector_length=crossover, min_ntt_length=crossover)

    def check(self, *entries):
        if not self.native:
            assert not self.calls, self.calls
            return
        for entry in entries or ("mac32",):
            assert self.calls[entry] > 0, entry


class _CountedLibrary:
    """The loaded library, each entry point of ``native.SIGNATURES``
    counting its calls in ``calls``."""

    def __init__(self, lib, calls):
        self._lib, self._calls = lib, calls

    def __getattr__(self, name):
        function = getattr(self._lib, name)
        if name not in native.SIGNATURES:
            return function

        def call(*args):
            self._calls[name] += 1
            return function(*args)
        return call


@pytest.fixture(params=["native", "golden"])
def route(request, monkeypatch):
    """The C library, counting its calls (the backends the test builds read
    it at construction); and the golden kernels the numpy backend runs on
    numpy stores below its crossovers, where no entry point may run."""
    chosen = _Route(request.param == "native")
    counted = _CountedLibrary(native.library(), chosen.calls)
    monkeypatch.setattr(native, "library", lambda: counted)
    return chosen


#: The MAC entry point of each word size.
MAC = {32: "mac32", 64: "mac64"}


@needs_numpy
class TestNativeMacParity:
    @pytest.mark.parametrize("n,moduli", _chains(_word32_rings()),
                             ids=lambda v: str(v) if isinstance(v, int) else f"{len(v)}q")
    def test_every_word32_chain(self, route, n, moduli):
        _check_macs(route.backend(), n, moduli, 2, seed=n)
        route.check()

    @pytest.mark.parametrize("n,moduli", _chains(_word64_rings()),
                             ids=lambda v: str(v) if isinstance(v, int) else f"{len(v)}q")
    def test_every_word64_chain(self, route, n, moduli):
        _check_macs(route.backend(), n, moduli, 2, seed=n)
        route.check("mac64")

    @pytest.mark.parametrize("terms", [1, 2, 16, 17, 64, 100])
    @pytest.mark.parametrize("edge", [True, False], ids=["q-1", "uniform"])
    def test_term_counts_on_the_largest_primes(self, route, terms, edge):
        """The largest NTT-friendly primes below 2^32 — every product near
        2^64 where ``edge`` — at term counts on both sides of 16 and 64."""
        self._term_counts(route, 32, terms, edge)
        route.check()

    @pytest.mark.parametrize("terms", [1, 15, 16, 17, 33])
    @pytest.mark.parametrize("edge", [True, False], ids=["q-1", "uniform"])
    def test_word64_term_counts_around_the_fold(self, route, terms, edge):
        """The largest NTT-friendly primes below 2^62, where sixteen products
        at ``q - 1`` nearly fill the 128-bit sum: ``mac64`` folds it after
        every sixteen terms, and a seventeenth unfolded product would wrap."""
        self._term_counts(route, 62, terms, edge)
        route.check("mac64")

    @staticmethod
    def _term_counts(route, bits, terms, edge):
        n = 64
        moduli = tuple(modmath.find_ntt_primes(bits, n, terms + 3))
        eval_mac, pmult = _check_macs(route.backend(), n, moduli[:3], terms,
                                      seed=terms, edge=edge)
        if edge:
            # terms * (q - 1)^2 = terms (mod q) where every operand is q - 1.
            for acc in (*eval_mac, *pmult):
                assert [set(row) for row in acc] == [{terms % q} for q in moduli[:3]]
        # BConv from ``terms`` limbs onto three more.
        _bconv(route.backend(), moduli[:terms], moduli[terms:],
               _stores(moduli[:terms], n, 2, terms, edge))

    def test_the_widest_reduction(self, route):
        """A sum ``7 * 2^64 + h * 2^32 + 2^32 - 1`` under a 32-bit prime near
        ``0.52 * 2^32``: the loop reduces its three 32-bit digits to a value
        above ``4q`` (found by search), so its first correction is taken."""
        np = pytest.importorskip("numpy")
        q = 2233382993
        target = (7 << 64) + (2337446730 << 32) + (1 << 32) - 1
        whole, rest = divmod(target, (q - 1) ** 2)
        pairs = [(q - 1, q - 1)] * whole + [(q - 1, rest // (q - 1)),
                                            (rest % (q - 1), 1)]
        assert sum(x * y for x, y in pairs) == target
        c0, pts = ([np.full((1, 8), pair[i], dtype=np.uint64) for pair in pairs]
                   for i in (0, 1))
        acc0, _ = _pmult_mac(route.backend(), (q,), c0, c0, pts)
        assert acc0 == [[target % q] * 8]
        route.check()

    @pytest.mark.parametrize("sources,targets", [(1, 4), (4, 1)])
    def test_bconv_plans(self, route, sources, targets):
        n = 256
        moduli = tuple(modmath.find_ntt_primes(30, n, sources)) + tuple(
            modmath.find_ntt_primes(32, n, targets))
        _bconv(route.backend(), moduli[:sources], moduli[sources:],
               _stores(moduli[:sources], n, 1, sources))
        route.check()

    @pytest.mark.parametrize("members", [1, 2, 16])
    @pytest.mark.parametrize("bits", [(30, 32), (40, 42)], ids=["word32", "word64"])
    def test_bconv_waves(self, route, members, bits):
        """A wave of distinct stores converts in one call, each store as it
        would alone and in member order: ModDown's shape (the special moduli
        onto the chain) and the hoist's (one digit onto the rest)."""
        n = 64
        chain = tuple(modmath.find_ntt_primes(bits[0], n, 3))
        special = tuple(modmath.find_ntt_primes(bits[1], n, 2))
        backend = route.backend()
        _bconv(backend, special, chain, _stores(special, n, members, members))
        _bconv(backend, chain[:1], chain[1:] + special,
               _stores(chain[:1], n, members, members + 1))
        route.check(MAC[32 if bits[1] <= 32 else 64])

    def test_layouts(self, route):
        self._layouts(route, 32)

    def test_word64_layouts(self, route):
        self._layouts(route, 40)

    @staticmethod
    def _layouts(route, bits):
        """uint32 (wire-decoded) stores, strided views and (for BConv) empty
        stores read the same."""
        np = pytest.importorskip("numpy")
        n = 128
        moduli = tuple(modmath.find_ntt_primes(bits, n, 3))
        contexts = tuple(NTTContext(n, q) for q in moduli)
        backend = route.backend()
        # Values below 2^32, so every store has a uint32 copy.
        wide = [s & np.uint64(0xFFFFFFFF) for s in _stores(moduli, 2 * n, 9, seed=3)]
        stores = [store[:, ::2] for store in wide]          # strided views
        assert not stores[0].flags.c_contiguous
        for layout in (lambda s: s, lambda s: s.astype(np.uint32),
                       lambda s: np.asfortranarray(s)):
            _eval_mac(backend, contexts, stores[:3], [stores[3:5]] * 3, layout)
            _pmult_mac(backend, moduli, stores[:2], stores[2:4], stores[4:6], layout)
            _bconv(backend, moduli[:2], moduli[2:], [s[:2] for s in stores[6:9]], layout)
            _bconv(backend, moduli[:1], moduli[1:], [stores[7][:1]], layout)
            _bconv(backend, moduli[:2], moduli[2:], [stores[8][:2, :0]] * 2, layout)
        route.check(MAC[32 if bits <= 32 else 64])

    def test_stores_that_do_not_fit_are_refused(self, route):
        self._misfits(route, 30)

    def test_word64_stores_that_do_not_fit_are_refused(self, route):
        self._misfits(route, 40)

    @staticmethod
    def _misfits(route, bits):
        """A digit, ciphertext or plaintext store a limb or half its values
        short raises: on the route's backend, and on the python backend's
        lists."""
        n = 64
        moduli = tuple(modmath.find_ntt_primes(bits, n, 3))
        contexts = tuple(NTTContext(n, q) for q in moduli)
        raw = _stores(moduli, n, 4, seed=9)
        for backend, pack in ((route.backend(), lambda s: s), (PYTHON, _rows)):
            stores = [pack(s) for s in raw]
            handles = [(backend.limbs_eval_key(contexts, stores[0]),)] * 2
            short, narrow = pack(raw[1][:2]), pack(raw[2][:, :n // 2])
            with pytest.raises(ValueError):
                backend.limbs_eval_mac(contexts, [stores[1], short], handles)
            with pytest.raises(ValueError):
                backend.limbs_eval_mac(contexts, [stores[1], narrow], handles)
            with pytest.raises(ValueError):
                backend.stacked_pmult_mac([stores[1]] * 2, [stores[2]] * 2,
                                          [stores[3], narrow], moduli)
            with pytest.raises(ValueError):
                backend.stacked_pmult_mac([stores[1], short], [stores[2]] * 2,
                                          [stores[3]] * 2, moduli)

    @pytest.mark.parametrize("members", [1, 2, 16])
    @pytest.mark.parametrize("levels", [1, 5])
    @pytest.mark.parametrize("k", [1, 2])
    def test_external_product_mac(self, route, members, levels, k):
        """The hybrid modulus, and the largest NTT primes below 2^32 and 2^62
        with every operand at ``q - 1``: each output element is then the
        member's row count, ``levels * (k + 1) * (q - 1)^2 = levels * (k + 1)
        (mod q)``."""
        backend = route.backend()
        _external_product(backend, HYBRID_Q, 64, members, levels, k,
                          seed=members + levels + k)
        for bits in (32, 62):
            q = modmath.find_ntt_prime(bits, 64)
            out = _external_product(backend, q, 64, members, levels, k, edge=True)
            assert out == [[levels * (k + 1)] * 64] * (members * (k + 1))
        route.check("mac32", "mac64")

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([c for c in _chains(_word64_rings()) if c[0] <= 256]),
           st.integers(1, 20), st.integers(0, 1 << 16), st.booleans())
    def test_word64_sweep(self, chain, terms, seed, edge):
        """Chains up to N = 256, term counts on both sides of the fold."""
        n, moduli = chain
        _check_macs(NumpyBackend(min_vector_length=0, min_ntt_length=0), n, moduli,
                    terms, seed=seed, edge=edge)


# ---------------------------------------------------------------------------
# Native fixed-scalar parity: batched_sub_scaled and limbs_scalar_mul
# ---------------------------------------------------------------------------

#: The fixed-scalar product of each word size.
SCALE = {32: "scale32", 64: "scale64"}


def _scale_chain(backend, n, moduli, seed, edge=False):
    """A full ``b`` store, then one shared ``b`` row (reduced under the last
    modulus, Rescale's dropped limb) with and without ``b_modulus``, under
    uniform scalars and their negatives."""
    a, b = _stores(moduli, n, 2, seed, edge)
    rng = random.Random(seed)
    scalars = [rng.randrange(q) for q in moduli]
    _sub_scaled(backend, moduli, a, b, scalars)
    for hint in (moduli[-1], None):
        _sub_scaled(backend, moduli, a, b[-1], [-s for s in scalars], hint)


@needs_numpy
class TestNativeScaleParity:
    """ModDown's and Rescale's ``(a - b) * s`` and ``limbs_scalar_mul``'s
    ``a * s`` (BConv's source scaling rides the MAC parity above) in the C
    loop."""

    @pytest.mark.parametrize("n,moduli", _chains(_word32_rings()),
                             ids=lambda v: str(v) if isinstance(v, int) else f"{len(v)}q")
    def test_every_word32_chain(self, route, n, moduli):
        _scale_chain(route.backend(), n, moduli, seed=n)
        route.check("scale32")

    @pytest.mark.parametrize("n,moduli", _chains(_word64_rings()),
                             ids=lambda v: str(v) if isinstance(v, int) else f"{len(v)}q")
    def test_every_word64_chain(self, route, n, moduli):
        _scale_chain(route.backend(), n, moduli, seed=n)
        route.check("scale64")

    @pytest.mark.parametrize("bits", [32, 62])
    def test_the_largest_primes_at_q_minus_one(self, route, bits):
        """Operands and scalars at ``q - 1``: ``a - b`` is then ``q - 1``
        (``a + q - b = 2q - 1``, past 2^32 under the 32-bit primes) or
        ``1 - q``, so each product is ``(q - 1)^2 = 1`` or ``q - 1``."""
        np = pytest.importorskip("numpy")
        n = 64
        moduli = tuple(modmath.find_ntt_primes(bits, n, 3))
        top = _stores(moduli, n, 1, seed=0, edge=True)[0]
        zero = np.zeros_like(top)
        scalars = [q - 1 for q in moduli]
        backend = route.backend()
        assert _sub_scaled(backend, moduli, top, zero, scalars) == [[1] * n] * 3
        assert _sub_scaled(backend, moduli, zero, top, scalars) == [
            [q - 1] * n for q in moduli]
        assert _sub_scaled(backend, moduli, top, top[0], scalars, moduli[0]) == [
            [0] * n] + [[(q - 1) * (q - moduli[0]) % q] * n for q in moduli[1:]]
        _scale_chain(backend, n, moduli, seed=bits)
        route.check(SCALE[32 if bits <= 32 else 64])

    @pytest.mark.parametrize("bits", [30, 40])
    def test_any_integer_scalar(self, route, bits):
        """The golden kernels reduce ``s % q``: negative scalars, multiples
        of ``q`` and scalars far above 2^64 read the same."""
        n = 64
        moduli = tuple(modmath.find_ntt_primes(bits, n, 3))
        a, b = _stores(moduli, n, 2, seed=bits)
        backend = route.backend()
        for scalars in ([-1, -moduli[1], -(1 << 70) - 3],
                        [(1 << 100) + 7, moduli[1], moduli[2] + 1],
                        [0, 1, (1 << 64) + 1]):
            _sub_scaled(backend, moduli, a, b, scalars)
            _sub_scaled(backend, moduli, a, b[0], scalars, moduli[0])
        route.check(SCALE[32 if bits <= 32 else 64])

    @pytest.mark.parametrize("bits", [32, 40])
    def test_layouts(self, route, bits):
        """uint32 (wire-decoded), strided, Fortran-ordered and empty
        ``(L, 0)`` stores read the same and are left as they were."""
        np = pytest.importorskip("numpy")
        n = 128
        moduli = tuple(modmath.find_ntt_primes(bits, n, 3))
        backend = route.backend()
        # Values below 2^32, so every store has a uint32 copy.
        a, b = (s & np.uint64(0xFFFFFFFF) for s in _stores(moduli, 2 * n, 2, seed=5))
        scalars = [q // 3 for q in moduli]
        empty = np.zeros((3, 0), dtype=np.uint64)
        for x, y in ((a.astype(np.uint32), b.astype(np.uint32)),
                     (a[:, ::2], b[:, 1::2]),
                     (np.asfortranarray(a), np.asfortranarray(b)),
                     (empty, empty)):
            assert _sub_scaled(backend, moduli, x, y, scalars) == [
                [(u - v) * s % q for u, v in zip(row_x, row_y)]
                for row_x, row_y, s, q in zip(_rows(x), _rows(y), scalars, moduli)]
            _sub_scaled(backend, moduli, x, y[-1], scalars, moduli[-1])
        route.check(SCALE[32 if bits <= 32 else 64])

    def test_rows_that_do_not_match_the_moduli_are_refused(self):
        backend = NumpyBackend(min_vector_length=0, min_ntt_length=0)
        moduli = tuple(modmath.find_ntt_primes(30, 64, 3))
        a, b = _stores(moduli[:2], 64, 2, seed=6)
        for kernel in (lambda: backend.limbs_scalar_mul(a, [1, 2, 3], moduli),
                       lambda: backend.batched_sub_scaled(a, b, [1, 2, 3], moduli),
                       lambda: backend.limbs_scalar_mul(a, [1], moduli[:2]),
                       lambda: backend.batched_sub_scaled(a, b[0], [1], moduli[:2])):
            with pytest.raises(ValueError, match="rows over"):
                kernel()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([c for c in _chains(_word32_rings()) + _chains(_word64_rings())
                            if c[0] <= 256]),
           st.integers(0, 1 << 16), st.booleans())
    def test_sweep(self, chain, seed, edge):
        """Chains of both word sizes up to N = 256."""
        n, moduli = chain
        _scale_chain(NumpyBackend(min_vector_length=0, min_ntt_length=0), n, moduli,
                     seed=seed, edge=edge)


# ---------------------------------------------------------------------------
# Native decomposition parity: gadget_decompose_rows against golden
# ---------------------------------------------------------------------------

#: The two largest primes below 2^32 and the largest odd modulus below it.
WIDE_MODULI = (4294967291, 4294967279, 4294967295)
#: The largest prime below 2^51, the widest modulus the decomposition takes.
PRIME_BELOW_2_51 = 2251799813685119


def _tfhe_chains():
    """``(N, q, factors)`` of every TFHE parameter set's bsk and ksk chain."""
    chains = []
    for params in (TFHEParameters.toy(), TFHEParameters.small(),
                   TFHEParameters.hybrid()):
        q = params.modulus
        for base_log, levels in ((params.bsk_base_log, params.bsk_levels),
                                 (params.ksk_base_log, params.ksk_levels)):
            chains.append((params.polynomial_size, q,
                           tuple(gadget_factors(q, 1 << base_log, levels))))
    return chains


def _edge_rows(q, n, count, seed):
    """``count`` uniform ``(count, n)`` rows below ``q``, each opening with
    0, 1, q // 2, q // 2 + 1 and q - 1 (the centring edges)."""
    np = pytest.importorskip("numpy")
    rows = np.random.default_rng(seed).integers(0, q, size=(count, n), dtype=np.uint64)
    edges = [0, 1, q // 2, q // 2 + 1, q - 1][:n]
    rows[:, :len(edges)] = edges
    return rows


def _ties(values, q, factors):
    """``(level, sign)`` of every exact tie (``2 res + f`` a multiple of
    ``2 f``, ``res`` not zero) the golden walk of ``values`` meets."""
    seen = set()
    for value in values:
        res = modmath.centered(value, q)
        for level, f in enumerate(factors):
            if f and res and (2 * res + f) % (2 * f) == 0:
                seen.add((level, res > 0))
            res -= (2 * res + f) // (2 * f) * f if f else 0
    return seen


@needs_numpy
class TestNativeDecomposeParity:
    @pytest.mark.parametrize("n,q,factors", _tfhe_chains())
    def test_every_tfhe_chain(self, route, n, q, factors):
        _decompose(route.backend(), _edge_rows(q, n, 6, seed=len(factors)), q, factors)
        route.check("decompose32")

    @pytest.mark.parametrize("q", WIDE_MODULI)
    def test_the_widest_moduli(self, route, q):
        assert [p for p in range(WIDE_MODULI[1], 1 << 32)
                if modmath.is_prime(p)] == sorted(WIDE_MODULI[:2])
        rows = _edge_rows(q, 300, 4, seed=q % 1000)
        for factors in (gadget_factors(q, 1 << 8, 4), gadget_factors(q, 3, 20),
                        (q - 1, q // 2, q // 2 + 1, 2, 1)):
            _decompose(route.backend(), rows, q, factors)
        route.check("decompose32")

    @pytest.mark.parametrize("factors", [(0,), (1,), (0, 1), (1, 0, 7),
                                         (HYBRID_Q // 3, 0, 1, 0)])
    def test_zero_and_unit_factors(self, route, factors):
        q = HYBRID_Q
        digits = _decompose(route.backend(), _edge_rows(q, 64, 3, seed=1), q, factors)
        for level, f in enumerate(factors):
            if f == 0:
                assert all(set(row) == {0} for row in digits[level::len(factors)])
        route.check("decompose32")

    def test_exact_ties_of_both_signs_at_every_level(self, route):
        """Every factor even, so ``res = k f + f / 2`` is a tie.  At ``f = 98``
        the double quotient of the tie ``res = 49`` is just below 1 (found by
        search): its truncation is 0, and only the upward correction lifts it."""
        np = pytest.importorskip("numpy")
        assert int(196 * (1.0 / 196)) == 0
        for q in (HYBRID_Q, WIDE_MODULI[0], PRIME_BELOW_2_51):
            factors = (1 << 26, 1 << 20, 1 << 14, 98, 2)
            values = sorted({sign * (k * f + f // 2) % q for f in factors
                             for k in range(4) for sign in (1, -1)})
            assert _ties(values, q, factors) == {
                (level, sign) for level in range(5) for sign in (True, False)}
            rows = np.array([values, values[::-1]], dtype=np.uint64)
            _decompose(route.backend(), rows, q, factors)
        route.check("decompose32")

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 300])
    def test_widths_around_the_block(self, route, n):
        q = HYBRID_Q
        _decompose(route.backend(), _edge_rows(q, n, 3, seed=n), q,
                   gadget_factors(q, 64, 5))
        route.check("decompose32")

    def test_layouts(self, route):
        """uint32 (wire-decoded), strided, Fortran-ordered and empty stores."""
        np = pytest.importorskip("numpy")
        q = WIDE_MODULI[0]
        factors = gadget_factors(q, 1 << 6, 5)
        wide = _edge_rows(q, 600, 5, seed=2)
        stores = (wide.astype(np.uint32), wide[:, ::2], wide[::2, 1::3],
                  np.asfortranarray(wide), np.zeros((0, 64), dtype=np.uint64))
        assert not stores[1].flags.c_contiguous and not stores[2].flags.c_contiguous
        for store in stores:
            _decompose(route.backend(), store, q, factors)
        route.check("decompose32")

    @pytest.mark.parametrize("bits", [33, 36, 40, 44, 48, 50, 51])
    def test_moduli_up_to_2_51(self, route, bits):
        """Past 2^32 the residual and ``2 res + f`` are still exact doubles
        (``|2 res + f| < 2q <= 2^52``): the prime below ``2^bits`` (and the
        hybrid CKKS ``q0``, 40 bits, whose c2t keyswitch decomposes), at
        the centring edges, under factors 1, ``q - 1`` and around ``q / 2``."""
        q = PRIME_BELOW_2_51 if bits == 51 else max(
            p for p in range((1 << bits) - 200, 1 << bits) if modmath.is_prime(p))
        rows = _edge_rows(q, 64, 3, seed=bits)
        for factors in (gadget_factors(q, 1 << 8, 5), gadget_factors(q, 3, 30),
                        (q - 1, q // 2, q // 2 + 1, 2, 1), (1,)):
            _decompose(route.backend(), rows, q, factors)
        if bits == 40:
            q0 = hybrid_query_parameters()[0].moduli[0]
            _decompose(route.backend(), _edge_rows(q0, 16, 16, seed=0), q0,
                       gadget_factors(q0, 1 << 4, 8))
        route.check("decompose32")

    def test_what_the_library_does_not_take_is_golden(self, route):
        """A factor outside ``[0, q)``, and moduli of 2^51 and above, take
        the golden body."""
        backend = route.backend()
        q = HYBRID_Q
        rows = _edge_rows(q, 64, 2, seed=3)
        _decompose(backend, rows, q, (q, 5))
        _decompose(backend, rows, q, (q + 7, q // 64))
        for wide in ((1 << 51) + 15, modmath.find_ntt_prime(52, 64),
                     modmath.find_ntt_prime(62, 64)):
            _decompose(backend, _edge_rows(wide, 64, 2, seed=4), wide,
                       gadget_factors(wide, 1 << 6, 5))
        assert route.calls["decompose32"] == 0

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(3, (1 << 32) - 1), st.integers(2, 1 << 16),
           st.integers(1, 8), st.integers(0, 1 << 16))
    def test_sweep(self, route, q, base, levels, seed):
        _decompose(route.backend(), _edge_rows(q, 37, 3, seed), q,
                   gadget_factors(q, base, levels))
        route.check("decompose32")

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1 << 32, (1 << 51) - 1), st.integers(2, 1 << 20),
           st.integers(1, 12), st.integers(0, 1 << 16))
    def test_wide_sweep(self, route, q, base, levels, seed):
        _decompose(route.backend(), _edge_rows(q, 37, 3, seed), q,
                   gadget_factors(q, base, levels))
        route.check("decompose32")


# ---------------------------------------------------------------------------
# Native blind-rotation parity: blind_rotate_rows against golden
# ---------------------------------------------------------------------------

def _edge_degrees(n):
    """Degrees every wave below meets: 0, 1, N - 1, N, N + 1, 2N - 1, and
    integers outside [0, 2N), which the golden kernel takes modulo 2N."""
    return [0, 1, n - 1, n, n + 1, 2 * n - 1, -5, 2 * n + 3]


def _wave(params, members, k, steps, seed, edge=False):
    """``(context, accumulator, degrees, key, factors, group)`` for
    ``blind_rotate_rows``: ``members`` accumulators of ``k + 1`` rows under
    ``params``' ring and bsk gadget, ``steps`` random key slices (the first
    half of every row at ``q - 1``; ``edge``: all of it), and per step one
    degree per member.  Step 1 is all zero, member 0 of a wave of several
    is zero in every step, and the other degrees are random or run through
    :func:`_edge_degrees`."""
    n, q, group = params.polynomial_size, params.modulus, k + 1
    factors = tuple(gadget_factors(q, 1 << params.bsk_base_log, params.bsk_levels))
    span = group * len(factors) * group
    accumulator = _stores((q,) * (members * group), n, 1, seed, edge)[0]
    key = _stores((q,) * (steps * span), n, 1, seed + 1, edge)[0]
    rng = random.Random(seed)
    edges = _edge_degrees(n)
    degrees = [[0 if (m == 0 and members > 1) or i == 1 else
                edges[(i * members + m) % len(edges)] if rng.random() < 0.5 else
                rng.randrange(2 * n) for m in range(members)] for i in range(steps)]
    return NTTContext(n, q), accumulator, degrees, key, factors, group


def _blind_rotate(backend, context, accumulator, degrees, key, factors, group):
    """``backend.blind_rotate_rows`` against the golden one: equal, both
    inputs as they were, and the result aliasing neither."""
    np = pytest.importorskip("numpy")
    before = accumulator.copy(), key.copy()
    expected = PYTHON.blind_rotate_rows(context, _rows(accumulator), degrees,
                                        _rows(key), factors, group)
    out = backend.blind_rotate_rows(context, accumulator, degrees, key, factors, group)
    assert _rows(out) == expected
    assert np.array_equal(accumulator, before[0]) and np.array_equal(key, before[1])
    assert not np.shares_memory(out, accumulator) and not np.shares_memory(out, key)
    return expected


#: The TFHE sets whose moduli the native loop takes (32 and 31 bits).
BLIND_ROTATE_SETS = {"toy": TFHEParameters.toy(), "hybrid": TFHEParameters.hybrid()}


@needs_numpy
class TestNativeBlindRotateParity:
    """The whole CMux loop of a wave in one ``cmux32`` call, against the
    golden composition of the seven wave kernels."""

    @pytest.mark.parametrize("members", [1, 16])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", sorted(BLIND_ROTATE_SETS))
    def test_every_tfhe_set(self, route, name, k, members):
        wave = _wave(BLIND_ROTATE_SETS[name], members, k, steps=3, seed=members + k)
        _blind_rotate(route.backend(), *wave)
        route.check("cmux32")

    @pytest.mark.parametrize("name", sorted(BLIND_ROTATE_SETS))
    def test_accumulators_and_keys_at_q_minus_one(self, route, name):
        _blind_rotate(route.backend(), *_wave(BLIND_ROTATE_SETS[name], 4, 1, steps=2,
                                              seed=3, edge=True))
        route.check("cmux32")

    def test_zero_degrees_leave_a_member_as_it_was(self, route):
        """Member 0's degrees are zero in every step, and step 1's are zero
        for everyone: member 0 comes back unchanged, and a wave whose every
        step is zero comes back as a copy."""
        context, acc, degrees, key, factors, group = _wave(
            BLIND_ROTATE_SETS["hybrid"], 3, 1, steps=3, seed=4)
        out = _blind_rotate(route.backend(), context, acc, degrees, key, factors, group)
        assert out[:group] == _rows(acc)[:group]
        assert _blind_rotate(route.backend(), context, acc, [[0] * 3] * 3, key,
                             factors, group) == _rows(acc)
        route.check("cmux32")

    def test_no_step_is_a_copy(self, route):
        np = pytest.importorskip("numpy")
        context, acc, _, key, factors, group = _wave(
            BLIND_ROTATE_SETS["toy"], 2, 1, steps=1, seed=5)
        out = route.backend().blind_rotate_rows(context, acc, [], key[:0], factors, group)
        assert _rows(out) == _rows(acc) and not np.shares_memory(out, acc)

    def test_counts_that_do_not_fit_are_refused(self, route):
        """A key that is not one slice per step, or a step with a degree per
        member too few, is the golden kernel's ``ValueError``."""
        context, acc, degrees, key, factors, group = _wave(
            BLIND_ROTATE_SETS["toy"], 2, 1, steps=2, seed=6)
        backend = route.backend()
        for args in ((acc, degrees, key[:-1]), (acc, degrees[:1], key),
                     (acc, [degrees[0], degrees[1][:1]], key), (acc[:-1], degrees, key)):
            with pytest.raises(ValueError):
                backend.blind_rotate_rows(context, args[0], args[1], args[2],
                                          factors, group)

    def test_what_the_library_does_not_take_is_golden(self, route):
        """Moduli of 2^32 and above take the golden composition."""
        params = TFHEParameters(
            polynomial_size=64, lwe_dimension=2, bsk_levels=3, bsk_base_log=8,
            modulus_bits=36, noise_stddev=0.0, security_bits=0, name="tfhe-36")
        assert params.modulus >= 1 << 32
        _blind_rotate(route.backend(), *_wave(params, 2, 1, steps=2, seed=7))
        assert route.calls["cmux32"] == 0


# ---------------------------------------------------------------------------
# Native keyswitch parity: keyswitch_rows against golden
# ---------------------------------------------------------------------------

def _keyswitch_chain(n, moduli):
    """``moduli`` and primes below 2^31 up to three, so every ring has a
    Q_l and a P."""
    extra = [q for q in modmath.find_ntt_primes(31, n, 3) if q not in moduli]
    return tuple(moduli) + tuple(extra[:max(0, 3 - len(moduli))])


def _keyswitch_wave(backend, n, moduli, seed, digits=2, edge=False):
    """``(contexts, members, golden members, plan, scalars)`` for
    ``keyswitch_rows`` over ``moduli``, the last third (one at least) P:
    two hoists of ``digits`` random stores and three keys, whose
    evaluation-domain images are random (the first half of every row at
    ``q - 1``; ``edge``: all of it), in four members — two Galois members
    and a relinearisation sharing the first hoist, a Galois member of the
    second.  The golden members hold the same values as lists."""
    special = max(1, len(moduli) // 3)
    contexts = tuple(NTTContext(n, q) for q in moduli)
    q_moduli, p_moduli = moduli[:-special], moduli[-special:]
    plan = _bconv_plan(RNSBasis(p_moduli), RNSBasis(q_moduli))
    scalars = [modmath.mod_inverse(math.prod(p_moduli) % q, q) for q in q_moduli]
    stores = _stores(moduli, n, 2 * digits + 6 * digits, seed, edge)
    hoists = [stores[:digits], stores[digits:2 * digits]]
    images = [[stores[2 * digits + 2 * (digits * k + j):][:2] for j in range(digits)]
              for k in range(3)]
    keys = [[tuple(backend.limbs_eval_key(contexts, backend.batched_intt(contexts, image))
                   for image in pair) for pair in key] for key in images]
    golden = [[tuple(["eval", _rows(image), None] for image in pair) for pair in key]
              for key in images]
    specs = [galois_eval_spec(n, g) for g in (5, 2 * n - 1, 25)]
    shape = [(0, 0, specs[0]), (0, 1, specs[1]), (0, 2, None), (1, 0, specs[2])]
    members = [(hoists[h], keys[k], spec) for h, k, spec in shape]
    golden_members = [([_rows(d) for d in hoists[h]], golden[k], spec)
                      for h, k, spec in shape]
    return contexts, members, golden_members, plan, scalars


def _keyswitch(backend, contexts, members, golden_members, plan, scalars):
    """``backend.keyswitch_rows`` against the golden one: equal, the inputs
    as they were, and no output sharing memory with an input or with
    another output."""
    np = pytest.importorskip("numpy")
    inputs = [store for digits, key, _ in members for store in (
        *digits, *(handle[1] for pair in key for handle in pair))]
    before = [np.array(store, copy=True) for store in inputs]
    expected = PYTHON.keyswitch_rows(contexts, golden_members, plan, scalars)
    out = backend.keyswitch_rows(contexts, members, plan, scalars)
    assert [tuple(map(_rows, pair)) for pair in out] == [
        tuple(map(_rows, pair)) for pair in expected]
    assert all(np.array_equal(a, b) for a, b in zip(inputs, before))
    outputs = [f for pair in out for f in pair]
    for i, f in enumerate(outputs):
        assert not any(np.shares_memory(f, store) for store in inputs
                       if isinstance(store, np.ndarray))
        assert not any(np.shares_memory(f, g) for g in outputs[i + 1:])
    return expected


@needs_numpy
class TestNativeKeyswitchParity:
    """A keyswitch wave's per-key phase in one ``keyswitch32`` call
    (gather, MAC, ModDown per member), against the golden composition of
    the kernels."""

    @pytest.mark.parametrize("n,moduli", _chains(_word32_rings()),
                             ids=lambda v: str(v) if isinstance(v, int) else f"{len(v)}q")
    def test_every_word32_chain(self, route, n, moduli):
        backend = route.backend()
        _keyswitch(backend, *_keyswitch_wave(backend, n, _keyswitch_chain(n, moduli),
                                             seed=n))
        route.check("keyswitch32")

    @pytest.mark.parametrize("n", [1024, 2048])
    def test_operands_at_q_minus_one(self, route, n):
        (moduli,) = [chain for degree, chain in _chains(_word32_rings()) if degree == n]
        backend = route.backend()
        _keyswitch(backend, *_keyswitch_wave(backend, n, moduli, seed=1, digits=3,
                                             edge=True))
        route.check("keyswitch32")

    def test_one_member_and_none(self, route):
        """A wave of one is its member's pair; a wave of none is empty."""
        backend = route.backend()
        contexts, members, golden, plan, scalars = _keyswitch_wave(
            backend, 256, _keyswitch_chain(256, ()), seed=2)
        for index in range(len(members)):
            _keyswitch(backend, contexts, members[index:index + 1],
                       golden[index:index + 1], plan, scalars)
        assert backend.keyswitch_rows(contexts, [], plan, scalars) == []
        route.check("keyswitch32")

    def test_counts_and_shapes_that_do_not_fit_are_refused(self, route):
        """A member whose keys do not match its digits, a key of one
        component, a store of a row too few or too short, a gather of
        another ring, a plan that is not P -> Q_l: ``ValueError`` before
        any entry point runs."""
        backend = route.backend()
        n = 64
        contexts, members, _, plan, scalars = _keyswitch_wave(
            backend, n, _keyswitch_chain(n, ()), seed=3)
        digits, key, spec = members[0]
        other = _bconv_plan(RNSBasis([c.modulus for c in contexts[-1:]]),
                            RNSBasis([c.modulus for c in contexts[:1]]))
        cases = [
            ([(digits, key[:-1], spec)], plan, scalars),
            ([(digits, [pair[:1] for pair in key], spec)], plan, scalars),
            ([(digits[:-1] + [digits[-1][:-1]], key, spec)], plan, scalars),
            ([(digits[:-1] + [digits[-1][:, :-1]], key, spec)], plan, scalars),
            ([(digits, key, galois_eval_spec(2 * n, 5))], plan, scalars),
            ([(digits, key, spec)], other, scalars),
            ([(digits, key, spec)], plan, scalars[:-1]),
            ([(digits, key, spec)], plan, []),
        ]
        route.calls.clear()
        for wave, bconv, constants in cases:
            with pytest.raises(ValueError):
                backend.keyswitch_rows(contexts, members[1:] + wave, bconv, constants)
        assert not route.calls

    def test_what_the_library_does_not_take_is_golden(self, route):
        """A modulus of 2^32 or more, in Q or in P, takes the golden body."""
        backend = route.backend()
        n = 64
        wide = modmath.find_ntt_prime(36, n)
        for moduli in (_keyswitch_chain(n, (wide,)),
                       _keyswitch_chain(n, ())[:-1] + (wide,)):
            _keyswitch(backend, *_keyswitch_wave(backend, n, moduli, seed=4))
        assert route.calls["keyswitch32"] == 0


#: Moduli of the sampler parity.  ``randrange(q)`` reads one word shifted
#: right up to 2^32 and two words (the low one whole) above it; 2, 3 and
#: each 2^k + 1 reject close to half their candidates, the primes near a
#: word's top almost none.
SAMPLE_MODULI = (
    2, 3, (1 << 29) + 11, modmath.find_ntt_prime(30, 1024),
    modmath.find_ntt_prime(32, 1024), 1 << 32, modmath.find_ntt_prime(36, 64),
    modmath.find_ntt_prime(40, 64), modmath.find_ntt_prime(62, 64),
    (1 << 16) + 1, (1 << 31) + 1, (1 << 33) + 1, (1 << 47) + 1,
)


def _sample(backend, draws, length, rng=None, golden=None):
    """``backend.sample_limbs`` against the golden loop from two generators
    in one state (``random.Random(length)`` by default): the same stores and
    the same generator state after."""
    rng = random.Random(length) if rng is None else rng
    golden = random.Random(length) if golden is None else golden
    actual = backend.sample_limbs(rng, draws, length)
    expected = PYTHON.sample_limbs(golden, draws, length)
    assert len(actual) == len(expected)
    assert [_rows(store) for store in actual] == expected
    assert rng.getstate() == golden.getstate()
    return expected


@needs_numpy
class TestNativeSampleParity:
    """A batch of draws in one ``mt_sample`` pass (CPython's Mersenne
    Twister in C): every store and the generator state equal the golden
    loop of ``randrange`` / ``gauss`` calls."""

    @pytest.mark.parametrize("length", [1, 2, 7, 1024])
    @pytest.mark.parametrize("q", SAMPLE_MODULI, ids=lambda q: f"{q.bit_length()}b-{q % 1000}")
    def test_every_modulus_and_length(self, route, q, length):
        _sample(route.backend(), [((q,), None), ((q, 3), None)], length)
        route.check("mt_sample")

    @pytest.mark.parametrize("length", [2, 64, 1024])
    def test_mixed_batches(self, route, length):
        """Uniform and gaussian draws interleaved, under bases of both word
        sizes, at stddevs whose errors stay below every modulus and one
        whose errors do not."""
        narrow = SAMPLE_MODULI[3:5]
        wide = SAMPLE_MODULI[7:9]
        draws = [(narrow, None), (narrow, 3.2), (wide, 3.2), (wide, None),
                 ((3,), None), (narrow + wide, 0.5), ((2, 7), 4096.0),
                 (wide, None), (narrow, 3.2)]
        _sample(route.backend(), draws, length)
        route.check("mt_sample")

    def test_a_long_run_crosses_many_twists(self, route):
        """More than 2^20 generator words in one call: 2 per candidate of a
        62-bit modulus, 2 per value of a gaussian draw."""
        q62, q40 = SAMPLE_MODULI[8], SAMPLE_MODULI[7]
        _sample(route.backend(), [((q62,), None), ((q40,), 3.2), ((3,), None)], 1 << 18)
        route.check("mt_sample")

    @pytest.mark.parametrize("skip", [0, 1, 311, 623, 624, 625])
    def test_any_read_index(self, route, skip):
        """A generator part-way through its 624 words: the C pass starts
        where the python one would."""
        rng, golden = random.Random(skip), random.Random(skip)
        for _ in range(skip):
            assert rng.getrandbits(32) == golden.getrandbits(32)
        draws = [((SAMPLE_MODULI[4],), None), ((SAMPLE_MODULI[8],), 3.2)]
        _sample(route.backend(), draws, 1024, rng, golden)
        route.check("mt_sample")

    def test_no_draw_and_no_length(self, route):
        backend = route.backend()
        rng, golden = random.Random(1), random.Random(1)
        assert backend.sample_limbs(rng, [], 1024) == []
        assert [_rows(s) for s in backend.sample_limbs(rng, [((5,), None)], 0)] == [[[]]]
        assert rng.getstate() == golden.getstate()

    @pytest.mark.parametrize("case", ["subclass", "pending", "odd", "wide-stddev",
                                      "63-bit", "zero-modulus"])
    def test_what_the_library_does_not_take_is_golden(self, route, case):
        """A generator that is not a stock ``random.Random``, a pending
        ``gauss_next``, an odd length before an error draw, a ``stddev``
        beyond 2^16 or a modulus outside ``[1, 2^62)`` takes the golden
        loop: the same stores (or the same error) and no ``mt_sample``."""
        q = SAMPLE_MODULI[3]
        rng_type, draws, length = random.Random, [((q,), None), ((q,), 3.2)], 64
        if case == "subclass":
            rng_type = type("Subclassed", (random.Random,), {})
        elif case == "odd":
            length = 63
        elif case == "wide-stddev":
            draws = [((q,), None), ((q,), float(1 << 17))]
        elif case == "63-bit":
            draws = [(((1 << 62) + 57, q), None)]
        rng, golden = rng_type(3), rng_type(3)
        if case == "pending":
            assert rng.gauss(0.0, 1.0) == golden.gauss(0.0, 1.0)
        if case == "zero-modulus":
            with pytest.raises(ValueError):
                route.backend().sample_limbs(rng, [((q,), None), ((0,), None)], length)
        else:
            _sample(route.backend(), draws, length, rng, golden)
        assert route.calls["mt_sample"] == 0
