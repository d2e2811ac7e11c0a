"""The compiled kernels of ``_kernels.c``, built and loaded on first use.

``kernels()`` compiles the source with the C compiler Python was built
with (``sysconfig``'s CC) into this package's ``__pycache__``, under a
name hashed from the source and the command, so a rebuilt source or
another compiler gets its own library.  It loads the library with
``ctypes``, rebuilding it once if the loader rejects a cached file (one
truncated, or built for another machine), and checks both kernels against
the numpy code they replace on a fixed small case.  If any step fails (no
compiler, a read-only package directory, a failed build or load, a result
that differs) it returns None and the callers keep their numpy loops, whose
results are the same bit for bit.  The Chernoff kernel repeats numpy's own
PCG64 and normal sampler, so a numpy whose stream differs from the one it
copies (see ``_kernels.c``) fails the check, and the numpy loop runs.  The
module is imported only when a kernel is first wanted, so ``import
threshold_regret`` loads none of ``sysconfig``, ``hashlib`` or
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
# after the source, so the linker keeps -lm for the exp and log1p it calls
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-lm")


def _library_path() -> tuple[Path, list[str]]:
    """Where the library of this source and compiler lives, and the command that builds it."""
    command = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), str(SOURCE), *FLAGS]
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
    lib.tr_chernoff_block.restype = None
    lib.tr_chernoff_block.argtypes = [
        np.ctypeslib.ndpointer(dtype=np.uint64, shape=(4,), flags=("C_CONTIGUOUS", "WRITEABLE")), i64, i64, f64, array(f64), array(np.int64), array(f64), array(np.int64),
        array(f64),
    ]
    return lib


def _agrees(lib: ctypes.CDLL) -> bool:
    """Whether both kernels reproduce the numpy code on a fixed small case."""
    with np.errstate(all="ignore"):
        return _bootstrap_agrees(lib) and _block_agrees(lib)


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


def pcg64_words(bit_generator: np.random.PCG64) -> np.ndarray:
    """A PCG64's 128-bit state and increment as four uint64, high word first, as ``tr_chernoff_block`` takes them."""
    pcg = bit_generator.state["state"]
    low = (1 << 64) - 1
    return np.array([pcg["state"] >> 64, pcg["state"] & low, pcg["inc"] >> 64, pcg["inc"] & low], np.uint64)


# the stream checked at load time: default_rng(seed) drawn as blocks of (paths,
# grid points per wing) with scale 1 and penalty (0.1 j)^2, j = 0, 1, ...  With
# one grid point each draw is a peak, and the first block's 20 000 draws take
# numpy's wedge path, and its tail path six times (see test_native); the second
# block scans a parabola from the state the first one wrote back
BLOCK_CHECK = (0, ((10_000, 1), (5, 100)))


def _block_agrees(lib: ctypes.CDLL) -> bool:
    from .chernoff import _scan_strip

    seed, blocks = BLOCK_CHECK
    rng = np.random.default_rng(seed)
    state = pcg64_words(rng.bit_generator)
    for n_paths, m in blocks:
        penalty = (np.arange(m) * 0.1) ** 2
        got = [np.empty(n_paths, np.int64), np.empty(n_paths), np.empty(n_paths, np.int64), np.empty(n_paths)]
        lib.tr_chernoff_block(state, n_paths, m, 1.0, penalty, *got)
        want = [np.empty(n_paths, np.int64), np.empty(n_paths), np.empty(n_paths, np.int64), np.empty(n_paths)]
        _scan_strip(rng.standard_normal((n_paths, 2 * m)), penalty, np.empty((n_paths, m)), *want)
        if state.tobytes() != pcg64_words(rng.bit_generator).tobytes():
            return False
        if any(a.tobytes() != b.tobytes() for a, b in zip(want, got)):
            return False
    return True


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
