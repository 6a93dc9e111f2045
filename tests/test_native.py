"""The compiled native library (transforms and multiply-accumulates at word
32 and word 64, the gadget decomposition) and its loader.

``repro.fhe.native`` is standard library only, so the loader tests run on
every CI leg; the parity tests need numpy and a library that built here
(the numpy CI leg fails when it did not).  The native transforms must equal
the golden python ones on every ``(N, q)`` of the parameter sets, on the
largest NTT-friendly primes below 2^32 for N = 2 ... 4096 and below 2^62
and 2^61 for N = 64, 128 and 2048, and on every store layout the kernels
hand them; the three multiply-accumulate kernels (``limbs_eval_mac``,
``stacked_pmult_mac``, ``bconv_matmul``) and the TFHE external product
``external_product_mac`` must equal the golden ones on the same moduli, at
every term count the accumulator has an edge at, in the C loop and in the
golden kernels an install without the library runs on numpy stores (every
operand a uint64 scalar, at ``q - 1`` too); the gadget decomposition
``gadget_decompose_rows`` must, at every modulus below 2^32, factor and
value its float quotient has an edge at, in the C loop and in the int64
numpy body an install without the library runs.  Whatever the loader
returns, the results stay golden, and every reduction step of the C source
carries a step tag (``tests/test_native_mutation.py`` removes each in turn).
"""

import collections
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fhe import backend as backend_module
from repro.fhe import modmath, native
from repro.fhe.backend import NumpyBackend, PythonBackend, available_backends
from repro.fhe.ntt import NTTContext
from repro.fhe.params import CKKSParameters, TFHEParameters
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


#: The kernels whose only fast body is the library's: without it the numpy
#: backend runs these golden bodies through ``super()``.
GOLDEN_WITHOUT_LIBRARY = ("ntt_forward_batch", "ntt_inverse_batch",
                          "limbs_eval_mac", "stacked_pmult_mac", "bconv_matmul",
                          "external_product_mac")


def _counting(body, name, calls):
    """``body`` counting in ``calls`` the calls a numpy backend makes."""
    def call(self, *args):
        if isinstance(self, NumpyBackend):
            calls[name] += 1
        return body(self, *args)
    return call


@needs_numpy
@pytest.mark.parametrize("case", ["no-compiler", "failing-compiler",
                                  "writable-file", "truncated-file",
                                  "missing-entry-point"])
def test_the_transforms_stay_golden_whatever_the_loader_returns(
        case, cache, failing_compiler, request, monkeypatch):
    """The transforms, and the multiply-accumulate and TFHE wave kernels
    with them: without a library there are no transform tables at either
    word size, and each of those kernels is the golden body."""
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
    golden = collections.Counter()
    for name in GOLDEN_WITHOUT_LIBRARY:
        monkeypatch.setattr(PythonBackend, name,
                            _counting(getattr(PythonBackend, name), name, golden))
    backend = NumpyBackend(min_vector_length=0, min_ntt_length=0)
    context = NTTContext(256, TFHEParameters.hybrid().modulus)
    tables = backend._tables((context,))
    assert tables is None if lib is None else tables.native is lib
    rng = random.Random(5)
    rows = [[rng.randrange(context.modulus) for _ in range(256)] for _ in range(3)]
    forward = backend.ntt_forward_batch(context, rows)
    assert forward == [PYTHON.ntt_forward(context, row) for row in rows]
    assert backend.ntt_inverse_batch(context, forward) == rows
    _check_macs(backend, 256, modmath.find_ntt_primes(32, 256, 4), 3, seed=5)
    q = context.modulus
    _decompose(backend, backend.pack_limbs(rows, (q,) * 3), q,
               gadget_factors(q, 64, 5))
    _external_product(backend, q, 256, members=2, levels=5, k=1)
    # Word 64: the library's, or golden without it.
    wide = NTTContext(64, modmath.find_ntt_prime(40, 64))
    assert (backend._tables((wide,)) is None) == (lib is None)
    rows = [[rng.randrange(wide.modulus) for _ in range(64)] for _ in range(3)]
    assert backend.ntt_forward_batch(wide, rows) == [
        PYTHON.ntt_forward(wide, row) for row in rows]
    _check_macs(backend, 64, modmath.find_ntt_primes(40, 64, 4), 3, seed=5)
    if lib is None:
        assert set(golden) == set(GOLDEN_WITHOUT_LIBRARY)
    else:
        # BConv's bare store and the external product's count errors are
        # the golden kernel's to unwrap and raise, library or not.
        assert set(golden) <= {"bconv_matmul", "external_product_mac"}


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
@needs_library
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
        golden = np.array([
            PYTHON.ntt_forward(contexts[i % len(contexts)], row.tolist())
            for i, row in enumerate(flat)], dtype=np.uint64).reshape(x.shape)
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


class _Route:
    """Which body ran: ``native`` says whether the C library should have,
    ``calls`` counts the calls of its entry points by name."""

    def __init__(self, native_route):
        self.native = native_route
        self.calls = collections.Counter()

    def backend(self):
        return NumpyBackend(min_vector_length=0, min_ntt_length=0)

    def check(self, *entries):
        for entry in entries or ("mac32",):
            assert (self.calls[entry] > 0) == self.native, entry


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


@pytest.fixture(params=["native", "numpy"])
def route(request, monkeypatch):
    """The C library where it built, counting its calls; and the numpy
    backend of an install without it (``no_native_library``): the int64
    numpy body of the gadget decomposition, and the golden kernels, on numpy
    stores, of every multiply-accumulate."""
    if request.param == "numpy":
        request.getfixturevalue("no_native_library")
    elif native.library() is None:
        pytest.skip("the native library did not build here")
    chosen = _Route(request.param == "native")
    if chosen.native:
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
        n = 64
        moduli = tuple(modmath.find_ntt_primes(bits, n, 3))
        contexts = tuple(NTTContext(n, q) for q in moduli)
        backend = route.backend()
        stores = _stores(moduli, n, 4, seed=9)
        handles = [(backend.limbs_eval_key(contexts, stores[0]),)] * 2
        short, narrow = stores[1][:2], stores[2][:, :n // 2]
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

    @needs_library
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([c for c in _chains(_word64_rings()) if c[0] <= 256]),
           st.integers(1, 20), st.integers(0, 1 << 16), st.booleans())
    def test_word64_sweep(self, chain, terms, seed, edge):
        """Chains up to N = 256, term counts on both sides of the fold, on
        the library (without it, word 64 is golden against golden)."""
        n, moduli = chain
        _check_macs(NumpyBackend(min_vector_length=0, min_ntt_length=0), n, moduli,
                    terms, seed=seed, edge=edge)


# ---------------------------------------------------------------------------
# Native decomposition parity: gadget_decompose_rows against golden
# ---------------------------------------------------------------------------

#: The two largest primes below 2^32 and the largest odd modulus below it.
WIDE_MODULI = (4294967291, 4294967279, 4294967295)


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
        for q in (HYBRID_Q, WIDE_MODULI[0]):
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

    def test_what_the_library_does_not_take_runs_the_numpy_body(self, route):
        """A factor outside ``[0, q)``, and moduli of 2^32 and above."""
        backend = route.backend()
        q = HYBRID_Q
        rows = _edge_rows(q, 64, 2, seed=3)
        _decompose(backend, rows, q, (q, 5))
        _decompose(backend, rows, q, (q + 7, q // 64))
        for wide in ((1 << 32) + 15, modmath.find_ntt_prime(36, 64)):
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
