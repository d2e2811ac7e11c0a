"""The compiled kernels of ``_kernels.c``, built and loaded on first use.

``kernels()`` compiles the source with the C compiler Python was built
with (``sysconfig``'s CC) into this package's ``__pycache__``, under a
name hashed from the source and the command, so a rebuilt source or
another compiler gets its own library.  It loads the library with
``ctypes``, rebuilding it once if the loader rejects a cached file (one
truncated, or built for another machine), and checks both kernels against
the numpy loops they replace on a fixed small case.  If any step fails (no compiler, a read-only package
directory, a failed build or load, a result that differs) it returns None
and the callers keep their numpy loops, whose results are the same bit for
bit.  The module is imported only when a kernel is first wanted, so
``import threshold_regret`` loads none of ``sysconfig``, ``hashlib`` or
``subprocess``.
"""

import ctypes
import functools
import hashlib
import os
import shlex
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernels.c")
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


def _library_path() -> tuple[Path, list[str]]:
    """Where the library of this source and compiler lives, and the command that builds it."""
    command = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *FLAGS, str(SOURCE)]
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update("\0".join(command).encode())
    return SOURCE.parent / "__pycache__" / f"_kernels-{digest.hexdigest()[:16]}.so", command


def _build(path: Path, command: list[str]) -> None:
    """Compile into a temporary file next to ``path``, then move it into place atomically."""
    import subprocess  # here, so a process that finds the library built never loads it

    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix="_kernels-", suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run([*command, "-o", tmp], capture_output=True)
        if done.returncode != 0:
            raise OSError(f"{command[0]} exited {done.returncode}: {done.stderr.decode(errors='replace')}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _typed(lib: ctypes.CDLL) -> ctypes.CDLL:
    def array(dtype):
        return np.ctypeslib.ndpointer(dtype=dtype, flags="C_CONTIGUOUS")

    i64, f64 = ctypes.c_int64, ctypes.c_double
    lib.tr_bootstrap_replicate.restype = i64
    lib.tr_bootstrap_replicate.argtypes = [
        array(np.int64), i64, array(np.int64), array(f64), i64, array(f64), array(f64), array(f64),
    ]
    lib.tr_scan_strip.restype = None
    lib.tr_scan_strip.argtypes = [
        array(f64), i64, i64, array(f64), array(np.int64), array(f64), array(np.int64), array(f64),
        array(f64),
    ]
    return lib


def _agrees(lib: ctypes.CDLL) -> bool:
    """Whether both kernels reproduce the numpy loops on a fixed small case, ties and overflow included."""
    with np.errstate(all="ignore"):
        return _bootstrap_agrees(lib) and _strip_agrees(lib)


def _bootstrap_agrees(lib: ctypes.CDLL) -> bool:
    from .inference import _replicate

    rng = np.random.default_rng(20)
    rank = rng.integers(0, 5, 40)
    penalty = np.linspace(0.0, 0.1, 6) ** 2
    # small integer scores tie often; scores of 1e307 overflow the suffix sums into inf and NaN
    for g in (rng.integers(-2, 3, 40).astype(float), np.full(40, 1e307)):
        suffix_orig = np.concatenate((np.cumsum(np.bincount(rank, g, 5)[::-1])[::-1], [0.0]))
        idx = rng.integers(0, 40, 40)
        want, got = np.empty(6), np.empty(6)
        j = _replicate(idx, rank, g, suffix_orig, penalty, want)
        if lib.tr_bootstrap_replicate(idx, 40, rank, g, 5, suffix_orig, penalty, got) != j:
            return False
        if want.tobytes() != got.tobytes():
            return False
    return True


def _strip_agrees(lib: ctypes.CDLL) -> bool:
    from .chernoff import _scan_strip

    penalty = np.arange(7) * 0.25
    strip = np.random.default_rng(21).standard_normal((3, 14))
    strip[1, 7:] = np.diff(penalty, prepend=0.0)  # a wing that ties at every point
    want = [np.empty(3, np.int64), np.empty(3), np.empty(3, np.int64), np.empty(3)]
    got = [np.empty(3, np.int64), np.empty(3), np.empty(3, np.int64), np.empty(3)]
    _scan_strip(strip, penalty, np.empty((3, 7)), *want)
    lib.tr_scan_strip(strip, 3, 7, penalty, *got, np.empty(7))
    return all(a.tobytes() == b.tobytes() for a, b in zip(want, got))


@functools.cache
def kernels() -> ctypes.CDLL | None:
    """The checked kernels library, or None when it cannot be built, loaded or trusted."""
    try:
        path, command = _library_path()
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:  # not built yet, or a file the loader rejects (truncated, another machine's)
            _build(path, command)
            lib = ctypes.CDLL(str(path))
        lib = _typed(lib)
        return lib if _agrees(lib) else None
    except (OSError, ctypes.ArgumentError):
        return None
