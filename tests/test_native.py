"""The compiled word-32 library (transforms and multiply-accumulate) and its
loader.

``repro.fhe.native`` is standard library only, so the loader tests run on
every CI leg; the parity tests need numpy and a library that built here
(the numpy CI leg fails when it did not).  The native transforms must equal
the golden python ones on every word-32 ``(N, q)`` of the parameter sets, on
the largest NTT-friendly primes below 2^32 for N = 2 ... 4096 and on every
store layout the kernels hand them; the three multiply-accumulate kernels
(``limbs_eval_mac``, ``stacked_pmult_mac``, ``bconv_matmul``) must equal the
golden ones on the same moduli, at every term count the accumulator has an
edge at, in the C loop and in the numpy bodies an install without the
library runs.  Whatever the loader returns, the results stay golden.
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
from repro.fhe.rns import RNSBasis, _bconv_plan

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


@pytest.fixture
def source_without_mac(tmp_path, monkeypatch):
    """``native.SOURCE`` with ``mac32`` renamed: a library that builds but
    lacks one entry point."""
    source = tmp_path / "ntt32.c"
    source.write_text(native.SOURCE.read_text().replace(
        "void mac32(", "void mac32_renamed("))
    monkeypatch.setattr(native, "SOURCE", source)


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
    @pytest.mark.usefixtures("source_without_mac")
    def test_a_library_missing_an_entry_point_is_refused(self, cache):
        assert native.build(cache, native._compiler()) is None
        # Built and cached (it compiled), but never bound.
        assert len(list(cache.iterdir())) == 1

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
                                  "writable-file", "truncated-file",
                                  "missing-entry-point"])
def test_the_transforms_stay_golden_whatever_the_loader_returns(
        case, cache, failing_compiler, request, monkeypatch):
    """The transforms, and the multiply-accumulate kernels with them."""
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
    backend = NumpyBackend(min_vector_length=0, min_ntt_length=0)
    context = NTTContext(256, TFHEParameters.hybrid().modulus)
    assert (backend._tables((context,)).native is None) == (lib is None)
    rng = random.Random(5)
    rows = [[rng.randrange(context.modulus) for _ in range(256)] for _ in range(3)]
    forward = backend.ntt_forward_batch(context, rows)
    assert forward == [PYTHON.ntt_forward(context, row) for row in rows]
    assert backend.ntt_inverse_batch(context, forward) == rows
    _check_macs(backend, 256, modmath.find_ntt_primes(32, 256, 4), 3, seed=5)


# ---------------------------------------------------------------------------
# Native parity: every word-32 ring against the golden transforms
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


# ---------------------------------------------------------------------------
# Native MAC parity: the three multiply-accumulate kernels against golden
# ---------------------------------------------------------------------------

def _word32_chains():
    """The moduli of :func:`_word32_rings` grouped by ring degree."""
    chains = {}
    for n, q in _word32_rings():
        chains.setdefault(n, []).append(q)
    return sorted((n, tuple(moduli)) for n, moduli in chains.items())


def _stores(moduli, n, count, seed, edge=False):
    """``count`` reduced ``(L, n)`` uint64 stores, the first half of every
    row at ``q - 1``; ``edge``: all of it, so every product is ``(q - 1)^2``,
    near 2^64 at 32 bits."""
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
    golden = [[["eval", _rows(handle[1]), None] for handle in row] for row in handles]
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


def _bconv(backend, source, target, store, layout=lambda store: store):
    plan = _bconv_plan(RNSBasis(source), RNSBasis(target))
    expected = PYTHON.bconv_matmul(_rows(store), plan)
    assert _rows(backend.bconv_matmul(layout(store), plan)) == expected
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
        rows = _stores(moduli[:cut], n, 1, seed + 1, edge)[0]
        _bconv(backend, moduli[:cut], moduli[cut:], rows)
    return eval_mac, pmult


class _Route:
    """Which multiply-accumulate ran: ``native`` says which one should have,
    ``calls`` counts the C loop's calls."""

    def __init__(self, native_route):
        self.native = native_route
        self.calls = 0

    def backend(self):
        return NumpyBackend(min_vector_length=0, min_ntt_length=0)

    def check(self):
        assert (self.calls > 0) == self.native


@pytest.fixture(params=["native", "numpy"])
def route(request, monkeypatch):
    """The C loop where the library built, and the numpy bodies an install
    without it runs (``no_native_library``)."""
    if request.param == "numpy":
        request.getfixturevalue("no_native_library")
    elif native.library() is None:
        pytest.skip("the native library did not build here")
    chosen = _Route(request.param == "native")
    mac32 = backend_module._mac32

    def counted(*args):
        chosen.calls += 1
        return mac32(*args)

    monkeypatch.setattr(backend_module, "_mac32", counted)
    return chosen


@needs_numpy
class TestNativeMacParity:
    @pytest.mark.parametrize("n,moduli", _word32_chains(),
                             ids=lambda v: str(v) if isinstance(v, int) else f"{len(v)}q")
    def test_every_word32_chain(self, route, n, moduli):
        _check_macs(route.backend(), n, moduli, 2, seed=n)
        route.check()

    @pytest.mark.parametrize("terms", [1, 2, 16, 17, 64, 100])
    @pytest.mark.parametrize("edge", [True, False], ids=["q-1", "uniform"])
    def test_term_counts_on_the_largest_primes(self, route, terms, edge):
        """The largest NTT-friendly primes below 2^32 — every product near
        2^64 where ``edge`` — at term counts on both sides of 16 and 64."""
        n = 64
        moduli = tuple(modmath.find_ntt_primes(32, n, terms + 3))
        eval_mac, pmult = _check_macs(route.backend(), n, moduli[:3], terms,
                                      seed=terms, edge=edge)
        if edge:
            # terms * (q - 1)^2 = terms (mod q) where every operand is q - 1.
            for acc in (*eval_mac, *pmult):
                assert [set(row) for row in acc] == [{terms % q} for q in moduli[:3]]
        # BConv from ``terms`` 32-bit limbs onto three more.
        rows = _stores(moduli[:terms], n, 1, terms, edge)[0]
        _bconv(route.backend(), moduli[:terms], moduli[terms:], rows)
        route.check()

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
        rows = _stores(moduli[:sources], n, 1, sources)[0]
        _bconv(route.backend(), moduli[:sources], moduli[sources:], rows)
        route.check()

    def test_layouts(self, route):
        """uint32 (wire-decoded) stores and strided views read the same."""
        np = pytest.importorskip("numpy")
        n = 128
        moduli = tuple(modmath.find_ntt_primes(32, n, 3))
        contexts = tuple(NTTContext(n, q) for q in moduli)
        backend = route.backend()
        wide = _stores(moduli, 2 * n, 8, seed=3)
        stores = [store[:, ::2] for store in wide]          # strided views
        assert not stores[0].flags.c_contiguous
        for layout in (lambda s: s, lambda s: s.astype(np.uint32),
                       lambda s: np.asfortranarray(s)):
            _eval_mac(backend, contexts, stores[:3], [stores[3:5]] * 3, layout)
            _pmult_mac(backend, moduli, stores[:2], stores[2:4], stores[4:6], layout)
            _bconv(backend, moduli[:2], moduli[2:], stores[6][:2], layout)
            _bconv(backend, moduli[:1], moduli[1:], stores[7][:1], layout)
        route.check()

    def test_stores_that_do_not_fit_are_refused(self, route):
        n = 64
        moduli = tuple(modmath.find_ntt_primes(30, n, 3))
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
