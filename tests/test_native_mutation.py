"""The mutation gate of ``native.c``: every step tag is killed.

Each reduction and correction step of the C source carries a unique
``/* step: <name> */`` tag (``tests/test_native.py::TestStepTags``).  Here,
one library per tag is built with that step removed, and the native parity
classes of ``tests/test_native.py`` are run against it in a subprocess: the
run must end in a failing test.  A survivor is a missing test to write or a
dead step to delete.  A build or collection error is not a kill.

The edit rules: a conditional keeps its shorter branch (``r >= q ? r - q :
r`` becomes ``r``), the fold's condition becomes ``0 && ...``, and any other
tagged statement (the quotient fix-up) is deleted.

The builds are opt-in, minutes long, and not part of tier-1: a ``mutation``
mark the suite skips unless ``-m mutation`` selects it::

    PYTHONPATH=src python -m pytest -m mutation tests/test_native_mutation.py

The edit rules themselves read only the source and run in tier-1, so a new
tag they cannot edit fails there, not first in the opt-in run.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fhe import native

needs_library = pytest.mark.skipif(native.library() is None,
                                   reason="the native library did not build here")

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
#: A step tag in the C source (as in ``tests/test_native.py``).
STEP_TAG = re.compile(r"/\* step: ([a-z0-9-]+) \*/")
#: The code of a conditional: the condition, then the two branches.
CONDITIONAL = re.compile(r"[\w\[\]]+ (?:>=|>|<) [\w *]+? \? ([^:]+?) : ([\w\[\]]+)")
TAGS = STEP_TAG.findall(native.SOURCE.read_text())
#: The native parity classes, in the order they run.
PARITY = [f"{TESTS / 'test_native.py'}::{name}" for name in
          ("TestNativeParity", "TestNativeMacParity", "TestNativeScaleParity",
           "TestNativeDecomposeParity", "TestNativeBlindRotateParity",
           "TestNativeKeyswitchParity", "TestNativeSampleParity")]


def without_step(text, tag):
    """``text`` with the step tagged ``tag`` removed by the edit rules."""
    lines = text.splitlines(keepends=True)
    (index,) = [i for i, line in enumerate(lines) if f"/* step: {tag} */" in line]
    code, comment = lines[index].split("/*", 1)
    if "?" in code:
        mutated = CONDITIONAL.sub(lambda m: min(m.groups(), key=len), code)
    elif code.lstrip().startswith("if ("):
        mutated = code.replace("if (", "if (0 && ", 1)
    else:
        mutated = " " * (len(code) - len(code.lstrip()))
    assert mutated != code, tag
    lines[index] = f"{mutated}/*{comment}"
    return "".join(lines)


def run_parity(source, tmp_path, monkeypatch):
    """Build ``source`` through ``native.build`` into ``tmp_path`` and run
    the parity classes against that library, stopping at the first failure;
    returns the finished subprocess."""
    path = tmp_path / "native.c"
    path.write_text(source)
    monkeypatch.setattr(native, "SOURCE", path)
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    assert native.build(cache, native._compiler()) is not None, "did not build"
    # The child loads the library just built (an intact cached file is
    # loaded, not rebuilt) as the one ``native.library()`` returns.
    code = "\n".join([
        "import sys",
        "from pathlib import Path",
        "import pytest",
        "from repro.fhe import native",
        f"native.SOURCE = Path({str(path)!r})",
        f"lib = native.build(Path({str(cache)!r}), native._compiler())",
        "assert lib is not None",
        "native.library = lambda: lib",
        f"sys.exit(pytest.main({[*PARITY, '-x', '-q', '-p', 'no:cacheprovider']!r}))",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=1200)


def test_every_step_is_tagged_once():
    assert len(TAGS) == len(set(TAGS)) == 26


@pytest.mark.parametrize("tag", TAGS)
def test_each_edit_changes_only_its_step(tag):
    """One line changes, it keeps its tag comment, and its code becomes the
    shorter branch, the disabled fold or nothing."""
    source = native.SOURCE.read_text().splitlines()
    edited = without_step("\n".join(source), tag).splitlines()
    assert len(edited) == len(source)
    (index,) = [i for i, (a, b) in enumerate(zip(source, edited)) if a != b]
    code, comment = source[index].split("/*", 1)
    assert comment.startswith(f" step: {tag} */")
    mutated, kept = edited[index].split("/*", 1)
    assert kept == comment
    if code.lstrip().startswith("if (") and "?" not in code:
        assert mutated == code.replace("if (", "if (0 && ", 1)
    else:
        assert len(mutated.strip()) < len(code.strip())


@pytest.mark.mutation
@needs_library
def test_the_source_as_it_is_passes(tmp_path, monkeypatch):
    """The harness itself: the unedited source passes every parity test."""
    done = run_parity(native.SOURCE.read_text(), tmp_path, monkeypatch)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]


@pytest.mark.mutation
@needs_library
@pytest.mark.parametrize("tag", TAGS)
def test_removing_the_step_fails_a_parity_test(tag, tmp_path, monkeypatch):
    done = run_parity(without_step(native.SOURCE.read_text(), tag),
                      tmp_path, monkeypatch)
    # Exit code 1 is "tests failed"; an error, interruption or crash is not.
    assert done.returncode == 1 and " failed" in done.stdout.splitlines()[-1], (
        f"step {tag} survived:\n" + done.stdout[-3000:] + done.stderr[-3000:])
