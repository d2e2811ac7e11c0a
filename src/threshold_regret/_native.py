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
same bit for bit.  There are seven kernels.  The bootstrap chunk and the
Chernoff block repeat numpy's own PCG64, the bootstrap its seeding and
bounded integers and the Chernoff block its normal sampler, so under a
numpy whose stream differs from the one they copy (see ``_kernels.c``) the
kernel concerned fails its check and its numpy loop runs.  The Chernoff
block draws from a 512-word ring made by 16 PCG64 lanes on CPUs with
AVX-512F and AVX-512DQ (``tr_chernoff_lanes()`` says whether this one does)
and one word at a time elsewhere; the library exports that scalar loop too,
as ``tr_chernoff_block_scalar``, so the tests hold both paths to numpy on
one host, and the check (``BLOCK_CHECK``) runs the path this CPU takes.
The CSV parser converts decimals of up to 19 significant digits as ``float``
does; its check holds a token for each branch of the conversion
(``PARSE_CHECK``) and a row for each refusal, and without it the file is read
row by row.  ``tr_normal`` computes the normal law (see ``kernels``); its
check takes every branch of Phi and exp arguments near and past underflow
(``NORMAL_CHECK``).  ``tr_fit_swm`` is the SWM fit after its bandwidth with
the normal CDF kernel: the grid, its screen (see ``swm``), the exact values
of the points kept and the Newton refinement in one call; its check
(``FIT_CHECK``) requires the bits of the Python pipeline on the full exact
grid, on cases where the first argmax among ties, the bracket's ends, the
bisection and the clamp each decide, and the screen's values within its
bound of the exact sums, and its points kept, where the far rows' tails,
the rounding slack and the binning error each decide.  ``tr_estimate_khA``
makes every sum and local fit of a nuisance estimate in one call, from one
phi per row and bandwidth; its check (``KHA_CHECK``) requires the bits of the Python
pipeline, on fits of full rank, short of rank and not made.  ``tr_fit_ewm``
is the EWM fit's maximum over its cuts and their first run of maxima, with
``math.fsum``'s exact sum of the untreated terms; its check
(``FIT_EWM_CHECK``) requires the bits of the numpy body on cases where
fsum's half-even fix-up, the suffix sums' compensation, the first run of
ties, a NaN cut, an overflowing base and a cut between tied x each decide.
The module is imported only when a kernel is first wanted, so ``import
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
# after the source, so the linker keeps -lm for the exp, log1p and sqrt it calls
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
    lib.tr_parse_csv.argtypes = [array(np.uint8), i64, i64, i64, i64, array(f64), i64]
    # called many times on small arrays, so they take bare addresses: an
    # ndpointer check costs about 4 us an array, a large share of a call at
    # n = 500; their callers pass C-contiguous float64 (see kernels, swm, nuisance)
    ptr = ctypes.c_void_p
    lib.tr_normal.restype = None
    lib.tr_normal.argtypes = [ptr, i64, i64, ptr]
    lib.tr_estimate_khA.restype = None
    lib.tr_estimate_khA.argtypes = [ptr, ptr, i64, f64, f64, f64, ptr, ptr, i64, ptr, ptr, i64, ptr, ptr, ptr]
    lib.tr_fit_ewm.restype = f64
    lib.tr_fit_ewm.argtypes = [ptr, ptr, ptr, ptr, ptr, i64, ptr]
    lib.tr_fit_swm.restype = i64
    lib.tr_fit_swm.argtypes = [ptr, ptr, ptr, i64, f64, f64, f64, f64, i64, i64, i64, i64, i64, f64, f64, ptr, ptr]
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
# zero (-0), Eisel-Lemire (0.1, 1e23), a first 64-bit product ending in nine
# one bits, so that the second product's carry decides (43463e-29, found by a
# search against float), a tie rounded to even (2^53 + 1), 19 digits, a
# subnormal, the largest subnormal and half the least one rounding up,
# overflow past the largest double and past 10^308, and underflow past 10^-342
PARSE_CHECK = ("0.1", "-0", "1e23", "43463e-29", "9007199254740993", "9999999999999999999", "5e-324",
               "2.2250738585072012e-308", "2.4703282292062328e-324", "1.7976931348623159e308", "1e400", "1e-400")


def _parse_agrees(lib: ctypes.CDLL) -> bool:
    from .data import _parse_rows

    # the tokens beside a d column, in rows ending "\r\n", "\n" and the end of the buffer,
    # under a field limit that the longest token meets
    rows = [f"{token},{i % 2}" for i, token in enumerate(PARSE_CHECK)]
    body = ("\r\n".join(rows[:5]) + "\r\n" + "\n".join(rows[5:])).encode()
    limit = max(map(len, PARSE_CHECK))
    got = _parse_rows(lib.tr_parse_csv, body, 0, 2, 1, limit)
    want = np.array([[float(token) for token in PARSE_CHECK], [i % 2 for i in range(len(PARSE_CHECK))]])
    # refused: a d of 2, 2^64 (20 digits, which wrap to 0 in 64 bits) and a field one byte over the limit
    refused = (b"1,2\n", b"18446744073709551616,1\n", b"0" * limit + b"1,1\n")
    return (got is not None and got.tobytes() == want.tobytes()
            and all(_parse_rows(lib.tr_parse_csv, rows, 0, 2, 1, limit) is None for rows in refused))


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
    from .kernels import _cdf, _density_terms, _law

    z = np.array(NORMAL_CHECK)
    return (all(map(_same, _law(lib.tr_normal, z), (_cdf(z), *_density_terms(z))))
            and _same(_law(lib.tr_normal, z, 1)[0], _cdf(z)))


# the estimate checked at load time, its record against the Python pipeline:
# (n, t, bw_f, bw_fd, the arms' level and derivative bandwidths).  Arm 0 holds
# the first n - 4 rows, past one block, whose propensities vary, so a sum at
# the wrong bandwidth or of unit weights differs, and its last row's phi at
# bw_f is subnormal; arm 1 holds four rows, so a sum of the other arm
# differs, and its cubic is not made (rank 0).  Three of them are at 0.2 and
# one 25 ulp above, so the last diagonal entry of its linear fit's R is about
# 2.2 eps of the largest: below the rank rule's cutoff of n eps, so the fit is
# rank 1, its coefficients NaN, and above a cutoff of eps alone
KHA_CHECK = (300, 0.1, 0.3, 0.5, (0.45, 0.8, 0.6, 1.1))


def _khA_agrees(lib: ctypes.CDLL) -> bool:
    from .nuisance import _record_compiled, _record_pipeline

    n, t, bw_f, bw_fd, bws = KHA_CHECK
    i = np.arange(n)
    x, propensity = 2.0 * np.sin(1.3 * i), 0.5 + 0.3 * np.cos(0.7 * i)
    y = x**3 - x + np.sin(2.9 * i)
    x[n - 5 :] = t + 38.5 * bw_f, 0.2, 0.2, 0.2, 0.2000000000000007
    arms, bws = [(x[: n - 4], y[: n - 4]), (x[n - 4 :], y[n - 4 :])], (bws[:2], bws[2:])
    want = _record_pipeline(x, propensity, t, bw_f, bw_fd, arms, bws)
    return _same(_record_compiled(lib.tr_estimate_khA, x, propensity, t, bw_f, bw_fd, arms, bws), want)


# the fits checked at load time, (x, g, sigma, lo, hi, n_pts): each against
# the Python pipeline on the full exact grid, with the screen's binned values
# within err + slack / 2 of the exact sums and as many points kept as
# ``swm._kept`` keeps from them (every point where the bound is not finite).
# Tied x, rows beyond the capped pad and a heavy row; a plateau of about ten
# tied grid points, where the first argmax wins and the Newton steps stop at
# the bracket's upper end; a bump whose steps stop at its lower end; zero
# scores near the largest double, where every step bisects, the midpoint
# overflows to inf and the clamp brings it back; sums that overflow at every
# point; two bumps 40 sub-cells wide, the one higher by 7e-9 binned low, so
# the binned values alone pick the other; and on 21 points, rows beyond the
# capped pad (c = 2.56) whose tails exceed the rest of the bound, a sigma so
# wide that the slack alone covers the rounding, and a sigma of 8 sub-cells,
# whose window cuts, with a heavy row whose binning error nearly meets its
# bound
_FIT_X = np.round(np.random.default_rng(7).uniform(0.0, 1.0, 40), 1)
_SCREEN_RNG = np.random.default_rng(5)
_SCREEN_X, _SCREEN_G = _SCREEN_RNG.uniform(0.0, 1.0, (3, 40)), _SCREEN_RNG.standard_normal(40)
FIT_CHECK = (
    (np.r_[-300.0, _FIT_X[1:-1], 400.0], np.r_[50.0, _FIT_X[1:5] - 0.45, 20.0, _FIT_X[6:-1] - 0.45, -50.0], 0.1,
     0.0, 1.0, 201),
    (np.array([0.3, 0.682]), np.array([-1.0, 1.0]), 0.02, 0.0, 1.0, 201),
    (np.array([0.09, 0.67]), np.array([-2.9, 2.9]), 0.126, 0.0, 1.0, 201),
    (np.array([1.2e308]), np.array([0.0]), 1.2e306, 1e308, 1.6e308, 201),
    (_FIT_X, np.full(40, 1e307), 0.1, 0.0, 1.0, 201),
    (np.array([0.2, 0.3, 0.699375, 0.800625]), np.array([-1.0, 1.0, -0.9912713140389582, 0.9912713140389582]), 0.05,
     0.0, 1.0, 201),
    (np.r_[-300.0, -250.0, 271.0, 400.0, _SCREEN_X[0, 4:]], _SCREEN_G * np.r_[50.0, 50.0, 50.0, 50.0, np.ones(36)],
     80.0, 0.0, 1.0, 21),
    (_SCREEN_X[1], _SCREEN_G, 1e7, 0.0, 1.0, 21),
    (np.r_[48.5 / 80.0, _SCREEN_X[2, 1:]], _SCREEN_G * np.r_[1e3, np.ones(39)], 0.1, 0.0, 1.0, 21),
)


def _fit_agrees(lib: ctypes.CDLL) -> bool:
    from .data import ParamSpace
    from .kernels import gaussian_cdf_kernel, normal_rows
    from .swm import _compiled_fit, _kept, _pipeline_fit

    kernel = gaussian_cdf_kernel()
    for x, g, sigma, lo, hi, n_pts in FIT_CHECK:
        space, rows = ParamSpace(lo, hi), normal_rows(x, g)
        want = _pipeline_fit(rows, len(x), sigma, space, np.arange(n_pts), n_pts)
        work = _compiled_fit(lib.tr_fit_swm, g, x, np.argsort(x, kind="stable"), kernel, sigma, space, n_pts)
        approx, (err, slack) = work[4:-2], work[-2:]
        bounded = not np.isfinite(err + slack) or np.all(
            np.abs(approx - rows(sigma, np.linspace(lo, hi, n_pts))[0]) <= err + 0.5 * slack)
        if not (_same(work[:3], want) and work[3] == len(_kept(approx, err, slack)) and bounded):
            return False
    return True


# the EWM fits checked at load time, (y, d, x, p) of each sample, against the
# numpy body: untreated terms 1e-16, 1 and 1e16, whose sum needs fsum's
# half-even fix-up; scores 1e16, 1, -1e16 and 1, whose suffix sums need the
# compensation's other branch; scores whose maxima fall in three runs, the
# first of two cuts; scores whose sums overflow to NaN at cut 0 alone;
# untreated terms whose partial sums overflow, so that the base is inf; a cut
# between tied x that would be the maximum; zero and -0 outcomes, where every
# cut ties at 0; an untreated row whose score and term cancel only when the
# score's division rounds as numpy's does; and 300 rows with propensities
# that vary and tied x
_EWM_RNG = np.random.default_rng(11)
FIT_EWM_CHECK = (
    ([0.5e-16, 0.5, 0.5e16], [0, 0, 0], [0.0, 1.0, 2.0], 0.5),
    ([5e15, 0.5, -5e15, 0.5], [1, 1, 1, 1], [0.0, 1.0, 2.0, 3.0], 0.5),
    ([-0.5, 0.0, 0.5, -0.5, 0.5], [1, 1, 1, 1, 1], [0.0, 1.0, 2.0, 3.0, 4.0], 0.5),
    ([8e307, 8e307, -0.5], [1, 1, 1], [0.0, 1.0, 2.0], 0.5),
    ([8e307, 8e307, -8e307], [0, 0, 0], [0.0, 1.0, 2.0], 0.5),
    ([-0.5, -2.5, 5.0, -0.5], [1, 1, 1, 1], [0.0, 1.0, 1.0, 2.0], 0.5),
    ([0.0, -0.0, 0.0, -0.0], [1, 0, 0, 1], [0.0, 1.0, 2.0, 3.0], 0.5),
    ([-3.0, 0.0], [0, 1], [0.0, 1.0], [0.7, 0.5]),
    (_EWM_RNG.standard_normal(300), _EWM_RNG.integers(0, 2, 300), np.round(_EWM_RNG.uniform(0.0, 1.0, 300), 2),
     _EWM_RNG.uniform(0.2, 0.8, 300)),
)


def _fit_ewm_agrees(lib: ctypes.CDLL) -> bool:
    import warnings

    from .data import Sample
    from .errors import DataWarning
    from .ewm import _compiled_cuts, _numpy_cuts

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)  # the cases' tied x
        samples = [Sample(y=y, d=d, x=x, propensity=p) for y, d, x, p in FIT_EWM_CHECK]
    for sample in samples:
        want, got = _numpy_cuts(sample), _compiled_cuts(lib.tr_fit_ewm, sample)
        if not (_same(want[0], got[0]) and (not np.isfinite(want[0]) or want[1:] == got[1:])):
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
          "tr_normal": _normal_agrees, "tr_fit_swm": _fit_agrees, "tr_estimate_khA": _khA_agrees,
          "tr_fit_ewm": _fit_ewm_agrees}


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
