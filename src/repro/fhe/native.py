"""The numpy backend's library of ``native.c``, compiled on first use
(stdlib only): the negacyclic NTT / INTT and one multiply-accumulate
(keyswitch MAC, plaintext MAC, BConv, the TFHE external product) at word
32 (moduli below 2^32) and word 64 (below 2^62), and the TFHE gadget
decomposition.

:func:`library` is the one entry point; ``None`` means the numpy backend's
transforms and multiply-accumulates fall back to the golden kernels at
either word size, and its gadget decomposition runs its int64 numpy body.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

#: The C source: a forward and an inverse transform and a multiply-accumulate
#: per word size, one gadget decomposition.
SOURCE = Path(__file__).with_name("native.c")
#: Compiler flags; part of the cache key.
FLAGS = ("-O3", "-march=native", "-shared", "-fPIC")
#: Bytes of the sha256 trailer appended to a built library.
_DIGEST = 32


@functools.lru_cache(maxsize=None)
def library() -> Optional[ctypes.CDLL]:
    """The loaded library, or ``None`` on any failure (decided
    once per process; later calls return the first answer)."""
    directory = _cache_directory()
    return None if directory is None else build(directory, _compiler())


def _compiler() -> Optional[str]:
    """The system C compiler, if there is one."""
    return shutil.which("cc") or shutil.which("gcc")


def build(directory: Path, compiler: Optional[str]) -> Optional[ctypes.CDLL]:
    """Load :data:`SOURCE`'s library from ``directory``, compiling it with
    ``compiler`` first if no intact copy is there; ``None`` on any failure.

    ``directory`` must be :func:`_private`.  The file name is the sha256 of
    source, flags, compiler version and host CPU, so a ``-march=native``
    build never loads on another CPU.
    """
    try:
        if compiler is None or not _private(directory, directory=True):
            return None
        version = subprocess.run(
            [compiler, "--version"], capture_output=True, check=True,
            timeout=60).stdout
        key = hashlib.sha256(b"\0".join(
            [SOURCE.read_bytes(), " ".join(FLAGS).encode(), version, _cpu()]
        )).hexdigest()
        path = directory / f"native-{key[:24]}.so"
        if not _intact(path):
            _compile(compiler, path)
            if not _intact(path):
                return None
        return _bind(ctypes.CDLL(str(path)))
    except (AttributeError, OSError, ValueError, subprocess.SubprocessError):
        return None


def _cache_directory() -> Optional[Path]:
    """``$XDG_CACHE_HOME/repro-native`` (else ``~/.cache/repro-native``),
    made ``0700`` if missing; ``None`` if there is no usable one."""
    try:
        root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
        directory = Path(root) / "repro-native"
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        return directory
    except (OSError, RuntimeError):
        return None


def _private(path: Path, directory: bool = False) -> bool:
    """``path`` is a (non-symlink) file or directory of the current user
    that no one else may write (or, for a directory, enter)."""
    st = os.lstat(path)
    kind = stat.S_ISDIR if directory else stat.S_ISREG
    others = 0o077 if directory else 0o022
    return kind(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & others


def _intact(path: Path) -> bool:
    """A cached library this process may load: private, and its bytes
    match the sha256 trailer it was written with.  A missing or truncated
    file is not intact (and is rebuilt); a foreign or writable one raises,
    so it is refused, never overwritten."""
    if not path.exists():
        return False
    if not _private(path):
        raise ValueError(f"{path} is not a private file of this user")
    data = path.read_bytes()
    return (len(data) > _DIGEST
            and hashlib.sha256(data[:-_DIGEST]).digest() == data[-_DIGEST:])


def _compile(compiler: str, path: Path) -> None:
    """Build into a temporary file, append the trailer, then ``os.replace``
    it onto ``path``, so racing builders never expose a partial file."""
    fd, temp = tempfile.mkstemp(dir=path.parent, suffix=".so")
    os.close(fd)
    try:
        subprocess.run([compiler, *FLAGS, "-o", temp, str(SOURCE)],
                       capture_output=True, check=True, timeout=300)
        with open(temp, "rb+") as handle:
            handle.write(hashlib.sha256(handle.read()).digest())
        os.chmod(temp, 0o700)
        os.replace(temp, path)
    finally:
        if os.path.exists(temp):
            os.unlink(temp)


_P, _N = ctypes.c_void_p, ctypes.c_size_t
#: Every entry point with its argument types; all return ``void``.
SIGNATURES = {
    "ntt32_forward": (_P, _N, _N, _N, _P),
    "ntt32_inverse": (_P, _N, _N, _N, _P),
    "mac32": (_P, _N, _N, _N, _P, _P, _N, _P),
    "ntt64_forward": (_P, _N, _N, _N, _P),
    "ntt64_inverse": (_P, _N, _N, _N, _P),
    "mac64": (_P, _N, _N, _N, _P, _P, _N, _P),
    "decompose32": (_P, _P, _N, _N, ctypes.c_uint64, _N, _P),
}


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare every entry point's C signature (a library missing one raises
    ``AttributeError``, which :func:`build` turns into ``None``)."""
    for name, argtypes in SIGNATURES.items():
        function = getattr(lib, name)
        function.argtypes = list(argtypes)
        function.restype = None
    return lib


def _cpu() -> bytes:
    """The host CPU as ``-march=native`` sees it: model and feature flags of
    the first processor in ``/proc/cpuinfo``, else :mod:`platform`'s view."""
    keep = ("vendor_id", "model name", "flags", "Features", "CPU part")
    try:
        text = Path("/proc/cpuinfo").read_text().split("\n\n")[0]
    except OSError:
        text = ""
    lines = [line for line in text.splitlines() if line.split(":")[0].strip() in keep]
    return "\n".join(lines or [platform.machine(), platform.processor()]).encode()
