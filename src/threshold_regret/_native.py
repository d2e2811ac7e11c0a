"""The compiled kernels of ``_kernels.c``, built and loaded on first use.

``kernel(name)`` hands out one compiled function.  On the first call of
any kernel, ``_library()`` compiles the source with the C compiler Python
was built with (``sysconfig``'s CC) into this package's ``__pycache__``,
under a name hashed from the source and the command, so a rebuilt source
or another compiler gets its own library.  It loads the library with
``ctypes``, rebuilding it once if the loader rejects a cached file (one
truncated, or built for another machine).  On its own first call, each
kernel is checked against the code it replaces on a fixed case
(``CHECKS``); only a kernel that passes is handed out, so a fault in one
never sets another aside, and a process that wants one kernel never pays
the others' checks.  If a step fails (no compiler, a read-only package
directory, a failed build or load, a result that differs) ``kernel``
returns None and the caller keeps its numpy code, whose results are the
same bit for bit.  There are six kernels.  The bootstrap chunk and the
Chernoff block repeat numpy's own PCG64, the bootstrap its seeding and
bounded integers and the Chernoff block its normal sampler, so under a
numpy whose stream differs from the one they copy (see ``_kernels.c``) the
kernel concerned fails its check and its numpy loop runs.  The Chernoff
block draws from a 512-word ring made by 16 PCG64 lanes on CPUs with
AVX-512F and AVX-512DQ (``tr_chernoff_lanes()`` says whether this one does)
and one word at a time elsewhere; the library exports that scalar loop too,
as ``tr_chernoff_block_scalar``, so the tests hold both paths to numpy on
one host, and the check (``BLOCK_CHECK``) runs the path this CPU takes.
The CSV parser converts decimals as ``float`` does; its check holds a
token for each branch of the conversion (``PARSE_CHECK``), and without it
the file is read row by row.  ``tr_normal``, ``tr_smoothed`` and ``tr_local_fit`` compute the
normal law, its sums and the local fits (see ``kernels`` and ``nuisance``);
their checks take every branch of Phi, exp arguments near and past
underflow (``NORMAL_CHECK``) and a rank-deficient design
(``_local_fit_agrees``).  The module is imported only when a kernel is first wanted, so
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
# after the source, so the linker keeps -lm for the exp, log1p, ldexp and sqrt it calls
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


# the C struct boot_row of _kernels.c: a row's score beside its rank
BOOT_ROW = np.dtype([("g", np.float64), ("rank", np.int64)])


def _typed(lib: ctypes.CDLL) -> ctypes.CDLL:
    def array(dtype, shape=None, flags="C_CONTIGUOUS"):
        return np.ctypeslib.ndpointer(dtype=dtype, shape=shape, flags=flags)

    i64, f64 = ctypes.c_int64, ctypes.c_double
    lib.tr_bootstrap_chunk.restype = i64
    lib.tr_bootstrap_chunk.argtypes = [
        array(np.uint64), i64, i64, array(BOOT_ROW), i64, array(f64), array(f64), array(f64), array(np.int64),
    ]
    lib.tr_parse_csv.restype = i64
    lib.tr_parse_csv.argtypes = [array(np.uint8), i64, i64, i64, array(f64), i64]
    # called many times on small arrays, so they take bare addresses: an
    # ndpointer check costs about 4 us an array, several times the sum itself
    # at n = 500; their callers pass C-contiguous float64 (see kernels, nuisance)
    ptr = ctypes.c_void_p
    lib.tr_normal.restype = None
    lib.tr_normal.argtypes = [ptr, i64, ptr]
    lib.tr_smoothed.restype = None
    lib.tr_smoothed.argtypes = [ptr, ptr, i64, f64, ptr, i64, i64, ptr]
    lib.tr_local_fit.restype = i64
    lib.tr_local_fit.argtypes = [ptr, ptr, i64, f64, f64, i64, ptr, ptr]
    for block in (lib.tr_chernoff_block, lib.tr_chernoff_block_scalar):
        block.restype = None
        block.argtypes = [
            array(np.uint64, (4,), ("C_CONTIGUOUS", "WRITEABLE")), i64, i64, f64, array(f64), array(np.int64),
            array(f64), array(np.int64), array(f64),
        ]
    lib.tr_chernoff_lanes.restype = i64
    lib.tr_chernoff_lanes.argtypes = []
    return lib


def pcg64_words(bit_generator: np.random.PCG64) -> np.ndarray:
    """A PCG64's 128-bit state and increment as four uint64, high word first, as the kernels take them."""
    pcg = bit_generator.state["state"]
    low = (1 << 64) - 1
    return np.array([pcg["state"] >> 64, pcg["state"] & low, pcg["inc"] >> 64, pcg["inc"] & low], np.uint64)


# the bootstrap case checked at load time: replicates 0..reps-1 of seed on n
# rows in 7 ranks.  2^32 mod n is close to n, so numpy redraws a draw with
# probability near n / 2^32, and replicate 1 of this seed redraws one (see
# test_native)
BOOTSTRAP_CHECK = (0, 29_993, 2)


def _bootstrap_agrees(lib: ctypes.CDLL) -> bool:
    from .inference import _compiled_maximizers, _numpy_maximizers

    seed, n, reps = BOOTSTRAP_CHECK
    k = 7
    rng = np.random.default_rng(seed)
    rank = rng.integers(0, k, n)
    quadratic = np.linspace(0.0, 0.1, k + 1) ** 2
    # normal scores round differently when binned in another order; scores of
    # 1e307 overflow the suffix sums into inf and NaN; on the first 100 rows,
    # scores of 0 give every replicate the criterion -penalty, here with equal
    # maxima at segments 1 and 6, and the first must win
    symmetric = np.array([3.0, -1.0, 3.0, 0.0, 0.0, 3.0, -1.0, 3.0])
    for g, penalty in ((rng.standard_normal(n), quadratic), (np.full(n, 1e307), quadratic), (np.zeros(100), symmetric)):
        rank = rank[: len(g)]
        suffix_orig = np.concatenate((np.cumsum(np.bincount(rank, g, k)[::-1])[::-1], [0.0]))
        works = np.empty(k + 1), np.empty(k + 1)
        want = _numpy_maximizers(0, reps, seed, rank, g, suffix_orig, penalty, works[0])
        got = _compiled_maximizers(lib.tr_bootstrap_chunk, 0, reps, seed, rank, g, suffix_orig, penalty, works[1])
        if want[1] != got[1] or want[0].tobytes() != got[0].tobytes() or works[0].tobytes() != works[1].tobytes():
            return False
    return True


# the stream checked at load time: default_rng(seed) drawn as blocks of paths
# on a penalty, with scale 1.  With one grid point each draw is a peak; the
# first block's 21 000 draws take numpy's wedge path, its tail path six times,
# and a wedge try whose uniform, word 20 992 = 41 x 512, starts a new pass
# over the lanes' 512-word ring (see test_native).  The second block scans a
# parabola from the state the first one wrote back; the third ties at +inf
# where the penalty is -inf, and the first point must win; the fourth peaks at
# NaN on its first point, and the NaN must stay the peak
BLOCK_CHECK = (0, ((10_500, (0.0,)), (5, tuple((np.arange(100) * 0.1) ** 2)),
                   (3, (0.5, -np.inf, 0.0, -np.inf, 1.0)), (3, (np.nan, 0.0, -1.0, 0.5))))


def _block_agrees(lib: ctypes.CDLL) -> bool:
    from .chernoff import _scan_strip

    seed, blocks = BLOCK_CHECK
    rng = np.random.default_rng(seed)
    state = pcg64_words(rng.bit_generator)
    for n_paths, penalty in blocks:
        penalty, m = np.array(penalty), len(penalty)
        got = [np.empty(n_paths, np.int64), np.empty(n_paths), np.empty(n_paths, np.int64), np.empty(n_paths)]
        lib.tr_chernoff_block(state, n_paths, m, 1.0, penalty, *got)
        want = [np.empty(n_paths, np.int64), np.empty(n_paths), np.empty(n_paths, np.int64), np.empty(n_paths)]
        _scan_strip(rng.standard_normal((n_paths, 2 * m)), penalty, np.empty((n_paths, m)), *want)
        if state.tobytes() != pcg64_words(rng.bit_generator).tobytes():
            return False
        if any(a.tobytes() != b.tobytes() for a, b in zip(want, got)):
            return False
    return True


# the tokens checked at load time, one for each branch of the conversion:
# Clinger's exact path (0.1, -0), Eisel-Lemire (1e23), one whose first 64-bit
# product ends in nine one bits, so that the second product's carry decides it
# (43463e-29, found by a search against float), a tie it rounds to even
# (2^53 + 1), a subnormal, the largest subnormal rounding up to the least
# normal, half the least subnormal rounding up to it, overflow past the largest
# double and past 10^308, and strtod (more than 19 significant digits)
PARSE_CHECK = ("0.1", "-0", "1e23", "43463e-29", "9007199254740993", "5e-324", "2.2250738585072012e-308",
               "2.4703282292062328e-324", "1.7976931348623159e308", "1e400",
               "0.30000000000000001665334536938", "9007199254740993.0000000000000000001")


def _parse_agrees(lib: ctypes.CDLL) -> bool:
    from .data import _parse_rows

    # the tokens beside a d column, in rows ending "\r\n", "\n" and the end of the buffer
    rows = [f"{token},{i % 2}" for i, token in enumerate(PARSE_CHECK)]
    body = ("\r\n".join(rows[:5]) + "\r\n" + "\n".join(rows[5:])).encode()
    got = _parse_rows(lib.tr_parse_csv, body, 0, 2, 1)
    want = np.array([[float(token) for token in PARSE_CHECK], [i % 2 for i in range(len(PARSE_CHECK))]])
    return got is not None and got.tobytes() == want.tobytes() and _parse_rows(lib.tr_parse_csv, b"1,2\n", 0, 2, 1) is None


# the points checked at load time, each z of Phi, phi and k'': every branch of
# Phi (cephes's erf below |u| = 1, its erfc fits below and beyond |u| = 8
# sqrt 2, the cut past |u| = 37.7 where exp(-u^2 / 2) < 1 / DBL_MAX), exp
# arguments near and past underflow (subnormal phi at |u| = 38.5), a signed
# zero and the clip of k'' at 40
NORMAL_CHECK = (0.0, -0.0, 0.3, -0.9, 1.2, -1.3, 3.0, -7.5, 11.0, -11.5, 20.0, -20.0, -37.6, -37.8, 38.5,
                -38.57, 38.7, 45.0, -1e300)


def _same(a, b) -> bool:
    """Equal bits, or NaN in both places."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes())


def _normal_agrees(lib: ctypes.CDLL) -> bool:
    from .kernels import _cdf, _k2, _law, _pdf

    z = np.array(NORMAL_CHECK)
    return all(map(_same, _law(lib.tr_normal, z), (_cdf(z), _pdf(z), _k2(z))))


def _smoothed_agrees(lib: ctypes.CDLL) -> bool:
    from .kernels import _cdf, _k2, _pdf, _row_sums, _sums

    # one row x = -0.0 of weight 1 at thresholds -z, whose terms are Phi, phi
    # and k'' at z exactly, each point's own sum; then sums over the points
    # as rows, at thresholds that shift them
    z = np.array(NORMAL_CHECK)
    g = np.linspace(-2.0, 3.0, len(z)) ** 3
    for x, g, sigma, t in ((np.array([-0.0]), np.array([1.0]), 1.0, -z), (z, g, 0.5, np.array([0.0, 0.7, -5.0]))):
        for order, funcs in ((0, (_cdf,)), (1, (_pdf, _k2))):
            if not all(map(_same, _sums(lib.tr_smoothed, x, g, sigma, t, order), _row_sums(x, g, sigma, t, funcs))):
                return False
    return True


def _local_fit_agrees(lib: ctypes.CDLL) -> bool:
    from .nuisance import _compiled_local_fit, _numpy_local_fit

    rng = np.random.default_rng(3)
    # rows whose weight's exp argument lies near underflow (|u| = 38.4 and
    # 38.55, subnormal phi) and past it (u = 59.9, phi 0)
    x = np.concatenate((rng.standard_normal(40), [38.5, -38.45, 60.0]))
    y = x**3 - x + rng.standard_normal(len(x))
    # full rank at degrees 1 and 3, and rank 2 where x holds two values
    for x, p in ((x, 2), (x, 4), (np.repeat([0.2, -0.4], 20), 4)):
        got = np.empty((len(x), p + 1)), np.empty(p)
        want = np.empty((len(x), p + 1)), np.full(p, np.nan)
        got[1][:] = np.nan
        rank = _compiled_local_fit(lib.tr_local_fit, x, y[: len(x)], 0.1, 1.0, p, *got)
        if rank != _numpy_local_fit(x, y[: len(x)], 0.1, 1.0, p, *want) or not _same(got[1], want[1]):
            return False
        if rank != (p if p == 2 or len(set(x)) > 2 else 2):
            return False
    return True


@functools.cache
def _library() -> ctypes.CDLL | None:
    """The built, loaded and typed library, or None when it cannot be built or loaded."""
    try:
        path, command = _library_path()
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:  # not built yet, or a file the loader rejects (truncated, another machine's)
            _build(path, command)
            lib = ctypes.CDLL(str(path))
        return _typed(lib)
    except OSError:
        return None


CHECKS = {"tr_bootstrap_chunk": _bootstrap_agrees, "tr_chernoff_block": _block_agrees, "tr_parse_csv": _parse_agrees,
          "tr_normal": _normal_agrees, "tr_smoothed": _smoothed_agrees, "tr_local_fit": _local_fit_agrees}


@functools.cache
def kernel(name: str):
    """The compiled function ``name`` once it has reproduced its numpy code on its fixed case, else None."""
    lib = _library()
    if lib is None:
        return None
    try:
        with np.errstate(all="ignore"):
            return getattr(lib, name) if CHECKS[name](lib) else None
    except ctypes.ArgumentError:
        return None
