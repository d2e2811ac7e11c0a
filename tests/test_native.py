"""The compiled kernels against the numpy code they replace, bit for bit."""

import ctypes
import decimal
import math
import shlex
import shutil
import struct
import subprocess
import sysconfig
from unittest import mock

import numpy as np
import pytest
from helpers import fresh_python, load_script, pinned
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threshold_regret import _native, chernoff, data, inference, kernels, nuisance
from threshold_regret.errors import NumericError, RankDeficiencyError, ValidationError
from threshold_regret.montecarlo import MODEL1, draw_sample


def _numpy_loops():
    """Patch the loader so every caller runs its numpy loop."""
    return mock.patch.object(_native, "kernel", lambda name: None)


@pytest.fixture(scope="module")
def native():
    """The library, once every kernel in it has passed its load-time check."""
    lib = _native._library()
    if lib is None or any(_native.kernel(name) is None for name in _native.CHECKS):
        pytest.skip("the native kernels did not build, load or pass their checks here")
    return lib


def _require_compiler():
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"the configured compiler {compiler!r} is not on PATH")


def test_native_kernels_load_when_the_compiler_is_on_path():
    """A silent fallback to the numpy loops would pass every other test here."""
    _require_compiler()
    assert all(_native.kernel(name) is not None for name in _native.CHECKS)


def test_a_cached_library_the_loader_rejects_is_rebuilt(monkeypatch, tmp_path):
    """A truncated or foreign file at the hashed path must not leave every later process on numpy."""
    _require_compiler()
    command = _native._library_path()[1]
    path = tmp_path / "_kernels-garbage.so"
    path.write_bytes(b"not a shared library")
    monkeypatch.setattr(_native, "_library_path", lambda: (path, command))
    _fresh_kernels()
    try:
        assert _native.kernel("tr_bootstrap_chunk") is not None
        assert path.read_bytes() != b"not a shared library"
    finally:
        _fresh_kernels()


def _fresh_kernels():
    """Forget the loaded library and the checked kernels, so the next ``kernel`` call starts over."""
    _native._library.cache_clear()
    _native.kernel.cache_clear()


def _callers(tmp_path):
    """Each kernel's caller on a small case, and the numpy code that runs in its place without it."""
    path = tmp_path / "plain.csv"
    path.write_text("y,d,x\n1.5,1,0.25\n-2e-3,0,7\n", newline="")
    x = np.linspace(-3.0, 3.0, 50)
    return {
        "tr_bootstrap_chunk": (lambda: inference._bootstrap_chunk(_chunk_args(3, 500, 40, 1.0, reps=3)),
                               (inference, "_numpy_maximizers")),
        "tr_chernoff_block": (lambda: chernoff._simulate_block((3, 1, 20, 50, 1e-2)), (chernoff, "_scan_strip")),
        "tr_parse_csv": (lambda: np.concatenate(_columns(data.load_sample_csv(path, propensity=0.5))),
                         (np, "loadtxt")),
        "tr_normal": (lambda: np.stack(kernels._normal_law(x * 9.0)), (kernels, "_cdf")),
        "tr_smoothed": (lambda: kernels.normal_sums(x, x**3, 0.3, np.array([-0.5, 0.0, 2.0]), 1),
                        (kernels, "_row_sums")),
        "tr_local_fit": (lambda: nuisance._local_poly_fit(x, x**3, 0.1, 0.8, 3), (nuisance, "_numpy_local_fit")),
    }


def _columns(sample):
    return sample.y, sample.d, sample.x, sample.propensity


@pytest.mark.parametrize("failing", sorted(_native.CHECKS))
def test_each_kernel_is_checked_on_its_own(native, monkeypatch, tmp_path, failing):
    """A kernel that fails its load-time check (say, under a numpy whose stream
    differs) is set aside alone: its caller runs the numpy code, and the other
    kernels are still handed out and run."""
    callers = _callers(tmp_path)
    want = {name: run().tobytes() for name, (run, _) in callers.items()}
    monkeypatch.setitem(_native.CHECKS, failing, lambda lib: False)
    _native.kernel.cache_clear()
    try:
        assert _native.kernel(failing) is None
        assert callers[failing][0]().tobytes() == want[failing]
        for other, (run, numpy_code) in callers.items():
            if other == failing:
                continue
            assert _native.kernel(other) is not None
            # an error the caller swallows would pass unseen, so the mock counts its calls
            with mock.patch.object(*numpy_code, mock.Mock(side_effect=AssertionError("the numpy code ran"))) as ran:
                assert run().tobytes() == want[other]
            assert not ran.called
    finally:
        _native.kernel.cache_clear()


def test_table_commands_never_pay_the_bootstrap_check(native):
    """A fresh ``chernoff`` or ``asymptotics`` process that simulates its table
    checks the Chernoff kernel only."""
    code = """
import sys
from threshold_regret import _native
from threshold_regret.cli import run_cli
checked = []
for name, check in list(_native.CHECKS.items()):
    _native.CHECKS[name] = lambda lib, name=name, check=check: checked.append(name) or check(lib)
table = ["--chernoff-paths", "10000", "--chernoff-step", "0.001", "--chernoff-halfwidth", "2", "--jobs", "1"]
assert run_cli(["chernoff", "--seed", "5", *table]) == 0
assert run_cli(["asymptotics", "--model", "1", "--n", "500", "--seed", "6", *table]) == 0
print("CHECKED", checked)
"""
    assert fresh_python(code).splitlines()[-1] == "CHECKED ['tr_chernoff_block']"


def _chunk_args(seed, n, distinct, score_scale, reps):
    """Tasks for ``inference._bootstrap_chunk`` built as ``ewm_bootstrap`` builds them."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, distinct, n).astype(float)
    # small integer scores tie often; at 1e306 the suffix sums overflow into inf and NaN
    g = rng.integers(-2, 3, n) * score_scale
    breaks = np.unique(x)
    rank = np.searchsorted(breaks, x)
    with np.errstate(over="ignore"):
        suffix_orig = np.concatenate((np.cumsum(np.bincount(rank, g, len(breaks))[::-1])[::-1], [0.0]))
    t_hat = float(rng.uniform(-1.0, distinct))
    h_hat = float(10.0 ** rng.uniform(-3, 3))
    return (0, reps, seed, rank, g, n, t_hat, h_hat, breaks, suffix_orig)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 3000),
    distinct=st.integers(1, 3000),
    score_scale=st.sampled_from([1.0, 0.37, 1e306]),
)
@example(seed=1, n=2, distinct=1, score_scale=1.0)
@example(seed=2, n=400, distinct=3, score_scale=1e306)
@example(seed=3, n=3000, distinct=3000, score_scale=1e306)
@example(seed=6, n=3000, distinct=3000, score_scale=1e306)  # replicate 1 overflows
@settings(max_examples=60, deadline=None, derandomize=True)
def test_bootstrap_chunks_match_numpy(native, seed, n, distinct, score_scale):
    """Tied and few-valued x, and scores whose suffix sums overflow, where the
    criterion holds inf and NaN and the kernel must pick np.argmax's index: both
    loops give the same draws, or both refuse the same replicate."""
    args = _chunk_args(seed, n, min(distinct, n), score_scale, reps=4)

    def outcome():
        try:
            return inference._bootstrap_chunk(args).tobytes()
        except NumericError as e:
            return str(e)

    fast = outcome()
    with _numpy_loops():
        slow = outcome()
    assert fast == slow


# criterion values built from scores of 0, whose suffix sums are 0.0 in every
# replicate, so that segment j is ((0.0 - suffix_orig[j]) / n) - penalty[j]: the
# (suffix_orig[j], penalty[j]) giving each value.  -5e-324 / n rounds to -0.0.
_SEGMENTS = {
    "2": (0.0, -2.0), "1": (0.0, -1.0), "-3": (0.0, 3.0), "+0": (0.0, 0.0), "-0": (5e-324, 0.0),
    "inf": (0.0, -math.inf), "-inf": (0.0, math.inf), "nan": (0.0, math.nan),
}


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 50),
    segments=st.lists(st.sampled_from(sorted(_SEGMENTS)), min_size=3, max_size=40),
    score=st.sampled_from([0.0, 1.0]),
)
# equal maxima at separated segments, from a symmetric penalty
@example(seed=1, n=9, segments=["-3", "1", "-3", "+0", "-3", "+0", "-3", "1", "-3"], score=0.0)
# a maximum of -0.0 beside +0.0, each first
@example(seed=2, n=9, segments=["-3", "-3", "-3", "-3", "-3", "-0", "+0", "-3", "-0"], score=0.0)
@example(seed=2, n=9, segments=["-inf", "-3", "-3", "+0", "-0", "-3", "-3", "-3", "-0", "-3"], score=0.0)
# an all -inf criterion, as an overflowing penalty gives
@example(seed=3, n=9, segments=["-inf"] * 11, score=0.0)
# a +inf peak, reached twice
@example(seed=4, n=9, segments=["1", "2", "-3", "-3", "inf", "2", "-3", "inf", "1"], score=0.0)
# NaN before the maximum, in its place (between two lower peaks) and after it
@example(seed=5, n=9, segments=["nan", "1", "-3", "-3", "-3", "2", "-3", "-3", "1", "-3"], score=0.0)
@example(seed=5, n=9, segments=["-3", "-3", "-3", "-3", "1", "nan", "1", "-3", "-3", "-3"], score=0.0)
@example(seed=5, n=9, segments=["1", "-3", "-3", "2", "-3", "-3", "-3", "-3", "1", "nan"], score=1.0)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_chunk_argmax_matches_numpy_on_ties_zeros_infinities_and_nan(native, seed, n, segments, score):
    """The kernel's fused maximum and forward scan pick np.argmax's segment where
    its rules matter: the first of equal maxima, -0.0 equal to +0.0, 0 for an all
    -inf criterion, +inf like any maximum and the first NaN wherever it falls.
    Scores of 1 mix drawn suffix sums in.  Both loops give the same maximizers, refuse
    the same replicate and leave the same criterion bytes."""
    rng = np.random.default_rng(seed)
    k = len(segments) - 1
    rank = rng.integers(0, k, n)
    g = rng.integers(-2, 3, n) * score
    suffix_orig = np.array([_SEGMENTS[name][0] for name in segments])
    penalty = np.array([_SEGMENTS[name][1] for name in segments])
    works = np.empty(k + 1), np.empty(k + 1)
    want = inference._numpy_maximizers(0, 3, seed, rank, g, suffix_orig, penalty, works[0])
    got = inference._compiled_maximizers(native.tr_bootstrap_chunk, 0, 3, seed, rank, g, suffix_orig, penalty,
                                         works[1])
    assert got[1] == want[1]
    assert got[0].tobytes() == want[0].tobytes()
    assert works[1].tobytes() == works[0].tobytes()


def _lemire_replay(bit_generator, n, count):
    """Replay numpy's 32-bit bounded integers in [0, n) over ``bit_generator``'s raw words.

    Each raw word serves two 32-bit draws u, its low half first.  A draw is
    the high half of u n; numpy draws again while the low half falls below
    2^32 mod n.  Returns the ``count`` draws and how many draws were redrawn.
    """
    words = bit_generator.random_raw(count + 64)
    halves = np.empty(2 * len(words), np.uint64)
    halves[0::2], halves[1::2] = words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)
    products = halves * np.uint64(n)
    kept = np.flatnonzero(products & np.uint64(0xFFFFFFFF) >= np.uint64(2**32 % n))
    assert len(kept) >= count
    return (products[kept[:count]] >> np.uint64(32)).astype(np.int64), int(kept[count - 1]) + 1 - count


@pytest.mark.parametrize("n", [2, 3, 3000, 29_993, 100_000, 3 * 2**30, 2**32 - 1])
def test_lemire_replay_is_numpys_bounded_integers(n):
    """The replay draws what ``Generator.integers(0, n)`` draws; at 3 * 2^30 a
    quarter of the draws are redrawn."""
    for b in range(3):
        draws, redrawn = _lemire_replay(inference._bit_generator(5, b), n, 4000)
        assert draws.tobytes() == np.random.Generator(inference._bit_generator(5, b)).integers(0, n, 4000).tobytes()
    if n == 3 * 2**30:
        assert redrawn > 0


def test_the_kernel_runs_only_where_numpy_draws_32_bit_integers(monkeypatch):
    """numpy's Generator.integers(0, n) takes the 32-bit Lemire branch that
    ``tr_bootstrap_chunk`` repeats while its range n - 1 is below 2^32 - 1; at
    2^32 it returns raw 32-bit words, and above it draws 64-bit integers, so
    there the chunk keeps its numpy loop.  No sample of that size is made."""
    assert inference._draws_in_32_bits(2) and inference._draws_in_32_bits(2**32 - 1)
    assert not inference._draws_in_32_bits(2**32) and not inference._draws_in_32_bits(2**40)
    args = _chunk_args(4, 300, 20, 1.0, reps=3)
    want = inference._bootstrap_chunk(args)
    monkeypatch.setattr(inference, "_draws_in_32_bits", lambda n: False)
    monkeypatch.setattr(_native, "kernel", mock.Mock(side_effect=AssertionError("a kernel was asked for")))
    assert inference._bootstrap_chunk(args).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**64 - 1, 2**96 + 1, 2**130 + 3])
@pytest.mark.parametrize("lo, hi", [(0, 5), (995, 999), (2**32 - 3, 2**32)])
def test_seed_words_are_numpys_seed_sequence(seed, lo, hi):
    """The words derived for all replicates at once are each replicate's
    ``SeedSequence.generate_state(4, np.uint64)``, for seeds of one to five
    32-bit words, and PCG64 seeded as ``pcg64_seeded`` seeds it reaches the
    state numpy's PCG64 starts from."""
    words = inference._seed_words(seed, lo, hi)
    multiplier = 0x2360ED051FC65DA4_4385DF649FCCF645
    for b, row in zip(range(lo, hi), words.tolist()):
        assert row == np.random.SeedSequence(seed, spawn_key=(b,)).generate_state(4, np.uint64).tolist()
        inc = (row[2] << 65 | row[3] << 1 | 1) % 2**128
        state = ((inc + (row[0] << 64 | row[1])) * multiplier + inc) % 2**128
        want = _native.pcg64_words(inference._bit_generator(seed, b)).tolist()
        assert [state >> 64, state % 2**64, inc >> 64, inc % 2**64] == want


def test_replicates_past_two_to_the_32_keep_the_numpy_loop(native, monkeypatch):
    """A spawn key of 2^32 or more takes two 32-bit words, which ``_seed_words``
    does not derive: such a chunk runs the numpy loop, a chunk ending at 2^32
    the kernel, and both give the numpy loop's draws."""
    base = _chunk_args(4, 300, 20, 1.0, reps=3)[2:]
    below, across = (2**32 - 3, 2**32, *base), (2**32 - 2, 2**32 + 1, *base)
    with _numpy_loops():
        want = [inference._bootstrap_chunk(args).tobytes() for args in (below, across)]
    with mock.patch.object(inference, "_numpy_maximizers", mock.Mock(side_effect=AssertionError("numpy ran"))):
        assert inference._bootstrap_chunk(below).tobytes() == want[0]
    monkeypatch.setattr(_native, "kernel", mock.Mock(side_effect=AssertionError("a kernel was asked for")))
    assert inference._bootstrap_chunk(across).tobytes() == want[1]


@pytest.mark.parametrize("distinct", [100_000, 7])
def test_bootstrap_chunks_match_numpy_through_redraws(native, distinct):
    """At n = 100 000, 2^32 mod n = 67 296, so numpy redraws about 1.6 draws
    per replicate, a branch the generated examples (n up to 3000) almost never
    reach: with distinct and with tied x, the replicates checked redraw, both
    loops give the same draws, and each replicate's criterion is the same."""
    n, seed, reps = 100_000, 11, 4
    redrawn = 0
    for b in range(reps):
        draws, count = _lemire_replay(inference._bit_generator(seed, b), n, n)
        assert draws.tobytes() == np.random.Generator(inference._bit_generator(seed, b)).integers(0, n, n).tobytes()
        redrawn += count
    assert redrawn > 0
    args = _chunk_args(seed, n, distinct, 1.0, reps)
    fast = inference._bootstrap_chunk(args)
    with _numpy_loops():
        slow = inference._bootstrap_chunk(args)
    assert fast.tobytes() == slow.tobytes()
    # a redraw taken wrongly changes two of the 100 000 rows, which seldom moves a maximizer
    _, _, _, rank, g, _, _, _, breaks, suffix_orig = args
    penalty = np.linspace(0.0, 1e-3, len(breaks) + 1)
    for b in range(reps):
        work = np.empty(len(breaks) + 1), np.empty(len(breaks) + 1)
        inference._numpy_maximizers(b, b + 1, seed, rank, g, suffix_orig, penalty, work[0])
        inference._compiled_maximizers(native.tr_bootstrap_chunk, b, b + 1, seed, rank, g, suffix_orig, penalty,
                                       work[1])
        assert work[0].tobytes() == work[1].tobytes()


def test_load_time_bootstrap_check_redraws(native):
    """The replicates ``kernel()`` checks before trusting ``tr_bootstrap_chunk``
    take numpy's redraw, so the check covers that branch."""
    seed, n, reps = _native.BOOTSTRAP_CHECK
    redrawn = [_lemire_replay(inference._bit_generator(seed, b), n, n)[1] for b in range(reps)]
    assert redrawn == [0, 1]


# the ziggurat's tail starts at r: numpy returns |x| > r from its tail path only
ZIGGURAT_R = 3.6541528853610087963519472518
ZIGGURAT_INV_R = 0.27366123732975827203338247596


def _ziggurat_paths(lib, bit_generator, n):
    """Replay numpy's ziggurat over ``bit_generator``'s raw words for n normal draws.

    Returns how many draws each path returned (the rectangle, the wedge,
    the tail) and how many wedge tries it rejected, and the number of words
    the n draws consumed.  Only the slow draws are walked in Python, with
    the kernel's tables.
    """
    ki, wi, fi = (np.ctypeslib.as_array((ctype * 256).in_dll(lib, name)) for ctype, name in (
        (ctypes.c_uint64, "ki_double"), (ctypes.c_double, "wi_double"), (ctypes.c_double, "fi_double")))
    words = bit_generator.random_raw(n + n // 20 + 1000)
    idx = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = (words >> np.uint64(9)) & np.uint64((1 << 52) - 1)
    u = (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    paths = {"rectangle": 0, "wedge": 0, "tail": 0, "wedge rejected": 0}
    pos = 0
    for q in np.flatnonzero(rabs >= ki[idx]).tolist():
        if q < pos:
            continue  # a word an earlier slow draw took as a uniform
        if paths["rectangle"] + paths["wedge"] + paths["tail"] + q - pos >= n:
            break
        paths["rectangle"] += q - pos
        if idx[q] == 0:
            pos = q + 1
            while True:
                xx = -ZIGGURAT_INV_R * math.log1p(-u[pos])
                yy = -math.log1p(-u[pos + 1])
                pos += 2
                if yy + yy > xx * xx:
                    break
            paths["tail"] += 1
        else:
            x = float(rabs[q]) * wi[idx[q]]
            accept = (fi[idx[q] - 1] - fi[idx[q]]) * u[q + 1] + fi[idx[q]] < math.exp(-0.5 * x * x)
            paths["wedge" if accept else "wedge rejected"] += 1
            pos = q + 2
    rest = n - paths["rectangle"] - paths["wedge"] - paths["tail"]
    paths["rectangle"] += rest
    return paths, pos + rest


def _advanced(seed, words):
    """default_rng(seed)'s state words after ``words`` raw draws."""
    bit_generator = np.random.default_rng(seed).bit_generator
    bit_generator.advance(words)
    return _native.pcg64_words(bit_generator)


def _block(lib, seed, n_paths, m, scale, penalty):
    """``tr_chernoff_block``'s four outputs and its written-back state, from default_rng(seed)."""
    state = _native.pcg64_words(np.random.default_rng(seed).bit_generator)
    found = [np.empty(n_paths, np.int64), np.empty(n_paths), np.empty(n_paths, np.int64), np.empty(n_paths)]
    lib.tr_chernoff_block(state, n_paths, m, scale, np.asarray(penalty, float), *found)
    return found, state


def test_block_kernel_draws_numpys_normal_stream(native):
    """With one grid point, scale 1 and penalty 0 every wing's peak is its one
    draw: 2e6 of them equal ``Generator.standard_normal``, and the written-back
    state is numpy's, through tail draws and wedge acceptances."""
    n = 1_000_000
    (_, right, _, left), state = _block(native, 17, n, 1, 1.0, [0.0])
    draws = np.empty(2 * n)
    draws[0::2], draws[1::2] = right, left
    rng = np.random.default_rng(17)
    assert draws.tobytes() == rng.standard_normal(2 * n).tobytes()
    assert state.tobytes() == _native.pcg64_words(rng.bit_generator).tobytes()
    paths, words = _ziggurat_paths(native, np.random.default_rng(17).bit_generator, 2 * n)
    assert paths["tail"] == np.count_nonzero(np.abs(draws) > ZIGGURAT_R) > 0
    assert paths["wedge"] > 0 and paths["wedge rejected"] > 0
    assert state.tobytes() == _advanced(17, words).tobytes()


def test_load_time_block_takes_both_slow_paths(native):
    """The stream ``kernel()`` checks before trusting the library draws through
    numpy's wedge and its tail, so the check covers both slow paths."""
    seed, blocks = _native.BLOCK_CHECK
    paths, _ = _ziggurat_paths(native, np.random.default_rng(seed).bit_generator, 2 * blocks[0][0] * blocks[0][1])
    assert blocks[0][1] == 1 and paths["wedge"] > 0 and paths["tail"] > 0


@given(
    seed=st.integers(0, 2**32 - 1),
    n_paths=st.integers(1, 12),
    penalty=st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0, 2.0, math.inf, math.nan]), min_size=1, max_size=30),
    scale=st.sampled_from([0.0, 0.5, 1.0, math.inf]),
)
# scale 0: every sum is +-0.0, so the wing ties at each point where the penalty repeats its least value
@example(seed=5, n_paths=3, penalty=[1.0, 0.0, 0.0, 2.0, 0.0], scale=0.0)
@example(seed=5, n_paths=3, penalty=[0.0, 0.0, 0.0], scale=0.0)
# a NaN penalty makes its point the first argmax, even the first point
@example(seed=6, n_paths=4, penalty=[0.25, math.nan, 1.0, math.nan], scale=1.0)
@example(seed=6, n_paths=4, penalty=[math.nan, 0.0], scale=0.5)
# scale inf: the sums reach +-inf, and NaN once they meet
@example(seed=7, n_paths=8, penalty=[0.0] * 12, scale=math.inf)
@example(seed=7, n_paths=8, penalty=[math.inf, 0.0, 1.0], scale=math.inf)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_block_kernel_scans_like_numpy(native, seed, n_paths, penalty, scale):
    """Every output of the fused scan, peaks included, against ``_scan_strip``
    on the same draws: ties keep the first point, the first NaN wins."""
    m = len(penalty)
    fast, state = _block(native, seed, n_paths, m, scale, penalty)
    rng = np.random.default_rng(seed)
    slow = [np.empty(n_paths, np.int64), np.empty(n_paths), np.empty(n_paths, np.int64), np.empty(n_paths)]
    with np.errstate(invalid="ignore"):
        strip = rng.standard_normal((n_paths, 2 * m)) * scale
        chernoff._scan_strip(strip, np.array(penalty), np.empty((n_paths, m)), *slow)
    assert [a.tobytes() for a in fast] == [b.tobytes() for b in slow]
    assert state.tobytes() == _native.pcg64_words(rng.bit_generator).tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    n_paths=st.integers(1, 40),
    m=st.integers(1, 60),
    step=st.floats(1e-4, 1.0),
    height=st.integers(1, 40),
)
@example(seed=5, n_paths=1, m=1, step=1e-3, height=1)
@example(seed=7, n_paths=40, m=60, step=0.5, height=40)
@example(seed=8, n_paths=40, m=1, step=1e-3, height=7)
@example(seed=9, n_paths=1, m=60, step=1e-3, height=1)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_chernoff_blocks_match_numpy(native, seed, n_paths, m, step, height):
    """The fused kernel against the numpy loop, on small grids and at every
    strip height of the loop, from one row up to the whole block."""
    args = (seed, 3, n_paths, m, step)
    with mock.patch.object(chernoff, "_STRIP_BYTES", min(height, n_paths) * 16 * m):
        fast = chernoff._simulate_block(args)
        with _numpy_loops():
            slow = chernoff._simulate_block(args)
    assert fast.tobytes() == slow.tobytes()


def test_pinned_outputs_reproduce_without_the_kernels(monkeypatch):
    """The numpy loops alone still give every pinned Chernoff table, bootstrap draw, CLI output and SWM fit."""
    monkeypatch.setattr(_native, "kernel", lambda name: None)
    chernoff_pins = load_script("pin_chernoff_outputs")
    assert chernoff_pins.chernoff_results() == pinned("chernoff_pinned.json")["chernoff"]
    assert chernoff_pins.bootstrap_results() == pinned("chernoff_pinned.json")["bootstrap"]
    # the CLI cases ask for one table configuration two dozen times; simulate each once
    tables = {}
    simulate = chernoff.simulate_chernoff

    def once(**config):
        key = tuple(config[k] for k in ("n_paths", "domain_halfwidth", "grid_step", "seed"))
        if key not in tables:
            tables[key] = simulate(**config)
        return tables[key]

    monkeypatch.setattr(chernoff, "simulate_chernoff", once)
    assert load_script("pin_cli_outputs").pinned_results() == pinned("cli_pinned.json")["cases"]
    assert load_script("pin_swm_outputs").pinned_results() == pinned("swm_pinned.json")["cases"]


def test_kernels_compile_without_warnings(tmp_path):
    """The shipped build with every common warning turned into an error."""
    _require_compiler()
    command = [*_native._library_path()[1], "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "k.so")]
    done = subprocess.run(command, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _powers_of_five():
    """fast_float's 128-bit truncated 5^q, q = -342..308, high word first, by exact integer arithmetic."""
    words = []
    for q in range(-342, 309):
        if q >= 0:
            v = 5**q
            v = v << 128 - v.bit_length() if v.bit_length() < 128 else v >> v.bit_length() - 128
        else:
            z = (5**-q - 1).bit_length()
            v = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // 5**-q + 1
            v >>= max(0, v.bit_length() - 128)
        words += [v >> 64, v & (2**64 - 1)]
    return words


def test_powers_of_five_are_exact(native):
    """The embedded table is the one exact integer arithmetic derives; 5^0 and 5^-1 by hand."""
    words = _powers_of_five()
    table = np.ctypeslib.as_array((ctypes.c_uint64 * len(words)).in_dll(native, "pow5_128"))
    assert table.tolist() == words
    assert words[2 * 342: 2 * 344] == [1 << 63, 0, 0xA000000000000000, 0]
    assert words[2 * 341: 2 * 342] == [0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCD]


def _parse(lib, tokens):
    """``tr_parse_csv`` over the tokens, one a row, as float64, or None when it refuses them."""
    found = data._parse_rows(lib.tr_parse_csv, "\n".join(tokens).encode(), 0, 1, -1)
    return None if found is None else found[0]


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_DOUBLES = st.integers(0, 2**64 - 1).map(_double).filter(math.isfinite)


@st.composite
def _decimals(draw):
    """Up to 40 digits with a point anywhere, leading zeros, a sign and an exponent."""
    digits = draw(st.sampled_from(["", "0", "000"])) + str(draw(st.integers(0, 10**19 - 1) | st.integers(0, 10**40)))
    point = draw(st.integers(0, len(digits)))
    mantissa = draw(st.sampled_from([digits, digits[:point] + "." + digits[point:]]))
    exponent = draw(st.none() | st.integers(-345, 330) | st.integers(-10**30, 10**30))
    suffix = "" if exponent is None else draw(st.sampled_from(["e{}", "E{:+d}"])).format(exponent)
    return draw(st.sampled_from(["", "+", "-"])) + mantissa + suffix


@st.composite
def _midpoints(draw):
    """The midpoint of two adjacent doubles, printed to 17-40 significant digits."""
    a = abs(draw(_DOUBLES))
    b = math.nextafter(a, math.inf)
    with decimal.localcontext(prec=800):  # exact: a double's decimal expansion has at most 767 digits
        mid = (decimal.Decimal(a) + decimal.Decimal(b)) / 2
    return format(mid, f".{draw(st.integers(17, 40)) - 1}e")


# signed zeros, the least subnormal and the shortest decimals rounding to it or to 0,
# the overflow edge, exponents far past both ends, and the short spellings
EDGE_TOKENS = ["0", "-0", "+0.0", "-0e999", "5e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
               "1.7976931348623157e308", "1.7976931348623159e308", "1e400", "-1e400", "1e-400", "-1e-400",
               "+1", ".5", "5.", "-.5e-1", "0.000000000000000000000000000000000000001e39"]


@given(tokens=st.lists(_DOUBLES.map(repr) | _decimals() | _midpoints(), min_size=1, max_size=40))
@example(tokens=EDGE_TOKENS)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_parser_rounds_as_float_does(native, tokens):
    """Every conversion branch, bit for bit against ``float``: the repr of any
    double, decimals of up to 40 digits at any exponent, and near-ties of
    adjacent doubles, more than 19 digits of which go to strtod."""
    got = _parse(native, tokens)
    assert got is not None
    assert got.tobytes() == np.array([float(token) for token in tokens]).tobytes()


def test_parser_rounds_random_doubles_as_float_does(native):
    """The repr of 200 000 random bit patterns, and 30 000 midpoints of
    adjacent doubles at 17, 20 and 40 digits."""
    values = np.random.default_rng(19).integers(0, 2**64, 240_000, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    tokens = list(map(repr, values[:200_000].tolist()))
    with decimal.localcontext(prec=800):
        for i, a in enumerate(np.abs(values[200_000:230_000]).tolist()):
            mid = (decimal.Decimal(a) + decimal.Decimal(math.nextafter(a, math.inf))) / 2
            tokens.append(format(mid, (".16e", ".19e", ".39e")[i % 3]))
    assert _parse(native, tokens).tobytes() == np.array([float(token) for token in tokens]).tobytes()


@pytest.mark.parametrize("token", ["", ".", "+", "-", "e5", "1e", "1e+", "1.5 ", " 1", "1..2", "1.2.3", "--1", "+-1",
                                   "nan", "inf", "0x1p3", "1_0", "1d5", "١", "1,5", "1" * 300])
def test_parser_refuses_what_its_grammar_does_not_hold(native, token):
    """Padding, specials, other spellings and a 300-digit token (past strtod's copy) are left to numpy's pass."""
    assert _parse(native, [token, "1.5"]) is None


@pytest.mark.parametrize("body, rows", [
    (b"1,0,2\n3,1,4\n", 2), (b"1,0,2\r\n3,1,4", 2), (b"1,0,2", 1), (b"", 0),
    (b"1,0,2\r3,1,4\n", None), (b"1,0,2\n\n3,1,4\n", None), (b"1,0,2\r", None), (b"1,0\n", None), (b"1,0,2,3\n", None),
    (b"1,01,2\n", None), (b"1,,2\n", None), (b"1,2,2\n", None), (b"1,0,2\n3,1,", None), (b"1,0,2\n3,1", None),
])
def test_parser_takes_only_plain_rows(native, body, rows):
    """Three fields, d in the middle: "\\n" or "\\r\\n" line ends, the last row
    maybe unended; a lone "\\r", a blank row, a short or long row, a ``d``
    other than 0 or 1, or an empty field is refused."""
    found = data._parse_rows(native.tr_parse_csv, body, 0, 3, 1)
    assert (None if found is None else found.shape[1]) == (rows or None)


def test_strtod_fallback_refuses_a_comma_decimal_locale(native):
    """Under an LC_NUMERIC whose decimal point is ',' strtod would read "1.5" as 1:
    its end pointer then misses the token's end, and the parser refuses the rows."""
    code = """
import locale, sys
from threshold_regret import _native, data
for name in ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8", "nl_NL.UTF-8"):
    try:
        locale.setlocale(locale.LC_NUMERIC, name)
        break
    except locale.Error:
        pass
else:
    print("NO LOCALE")
    sys.exit()
lib = _native._library()
print(data._parse_rows(lib.tr_parse_csv, b"0.30000000000000000000000000001\\n", 0, 1, -1))
"""
    out = fresh_python(code).strip()
    if out == "NO LOCALE":
        pytest.skip("no locale with a comma decimal point is installed")
    assert out == "None"


# --- the normal law and the smoothed sums (tr_smoothed) --------------------------


def _ulps(a, b):
    """Distance in units in the last place between float64 arrays of one sign."""
    return np.abs(np.asarray(a, dtype=float).view(np.int64) - np.asarray(b, dtype=float).view(np.int64))


# down to Phi's underflow near -37.5 and its cut at exp(-u^2/2) < 1 / DBL_MAX, up to where it rounds to 1
_PHI_GRID = np.concatenate((np.linspace(-39.0, 9.0, 480_001), [-37.52, -37.519, -37.5, 1e-300, -1e-300, 0.0]))


def test_phi_is_within_six_ulp_of_scipy_ndtr(native):
    """The library's Phi follows cephes's ndtr, which scipy evaluates, with its own exp
    in place of libm's: at most 6 ulp apart (4 seen on this grid), and 0 where either is 0."""
    scipy_special = pytest.importorskip("scipy.special")
    ours, theirs = kernels.norm_cdf(_PHI_GRID), scipy_special.ndtr(_PHI_GRID)
    assert np.array_equal(ours == 0.0, theirs == 0.0)
    assert _ulps(ours, theirs).max() <= 6


@pytest.mark.parametrize("form", ["compiled", "numpy"])
def test_exp_and_phi_are_within_one_ulp_of_math_exp(native, form):
    """own_exp is fdlibm's method; phi(u) is one exp of -u^2/2 - log sqrt(2 pi), so it inherits the 1 ulp."""
    rng = np.random.default_rng(5)
    u = np.concatenate((rng.uniform(-38.7, 38.7, 100_000), np.linspace(-38.7, 38.7, 20_001), [0.0, -0.0]))
    args = -0.5 * (u * u) - kernels._LOG_SQRT_2PI
    phi = kernels.norm_pdf(u) if form == "compiled" else kernels._pdf(u)
    assert _ulps(phi, [math.exp(a) for a in args.tolist()]).max() <= 1
    if form == "numpy":  # the whole range of exp, to over- and underflow
        x = np.concatenate((rng.uniform(-745.2, 709.78, 100_000), np.linspace(-745.14, -700.0, 10_001),
                            [709.782712893384, -745.1332191019411, 0.0]))
        assert _ulps(kernels._exp(x), [math.exp(v) for v in x.tolist()]).max() <= 1
        assert kernels._exp(np.array([710.0, -746.0, np.inf, -np.inf])).tolist() == [np.inf, 0.0, np.inf, 0.0]
        assert np.isnan(kernels._exp(np.array([np.nan])))[0]


@given(z=st.lists(st.floats() | st.sampled_from([-0.0, 37.6, -37.8, 38.5, -38.57, 40.0, -40.5]), min_size=1,
                  max_size=300))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_normal_law_matches_its_numpy_transcription(native, z):
    """Phi, phi and k'' bit for bit, infinities, NaN and the tails past underflow included."""
    z = np.array(z)
    got = kernels._law(native.tr_normal, z)
    assert all(map(_native._same, got, (kernels._cdf(z), kernels._pdf(z), kernels._k2(z))))


_FLOATS = st.floats(-1e3, 1e3, allow_nan=False)


@given(
    x=st.lists(_FLOATS, min_size=1, max_size=40),
    scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e300]),
    sigma=st.sampled_from([5e-324, 1e-6, 0.3, 2.0, 1e6]),
    t=st.lists(_FLOATS | st.sampled_from([np.inf, -np.inf]), min_size=1, max_size=5),
    order=st.sampled_from([0, 1]),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_smoothed_sums_match_their_numpy_transcription(native, x, scale, sigma, t, order):
    """Bit for bit, overflowing u and scores, zero and infinite thresholds included."""
    x = np.array(x)
    g = np.linspace(-1.0, 2.0, len(x)) * scale
    t = np.array(t)
    funcs = (kernels._cdf,) if order == 0 else (kernels._pdf, kernels._k2)
    got = kernels._sums(native.tr_smoothed, x, g, sigma, t, order)
    want = kernels._row_sums(x, g, sigma, t, funcs)
    assert all(_native._same(a, b) for a, b in zip(got, want))


def test_smoothed_sums_match_scipy_within_their_rounding(native):
    """S_n, S_n' and S_n'' against fsum over scipy's ndtr and math.exp: within the
    sequential sum's bound n eps sum |terms|, plus 4 ulp of each term."""
    scipy_special = pytest.importorskip("scipy.special")
    sample = draw_sample(MODEL1, 3000, 8)
    g = sample.y * (sample.d / 0.5 - (1 - sample.d) / 0.5)
    t = np.linspace(-1.0, 1.0, 7)
    got = kernels._sums(native.tr_smoothed, sample.x, g, 0.2, t, 0)[0]
    slopes = kernels._sums(native.tr_smoothed, sample.x, g, 0.2, t, 1)
    eps = np.finfo(float).eps
    for j, tj in enumerate(t):
        u = (sample.x - tj) / 0.2
        phi = np.array([math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi) for v in u.tolist()])
        for value, terms in ((got[j], g * scipy_special.ndtr(u)), (slopes[0][j], g * phi),
                             (slopes[1][j], g * (-u * phi))):
            bound = (len(u) + 4) * eps * math.fsum(np.abs(terms))
            assert abs(value - math.fsum(terms)) <= bound


# --- the local polynomial fits (tr_local_fit) -----------------------------------


def _local_design(seed, n, degree, spread, point):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * spread
    return x, x**3 - 0.5 * x * x + x + rng.standard_normal(n), point


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 400), degree=st.sampled_from([1, 3]),
       spread=st.sampled_from([1e-3, 0.5, 1.0, 30.0]), point=st.floats(-3.0, 3.0),
       bandwidth=st.sampled_from([0.05, 0.4, 2.0, 50.0]), repeat=st.integers(1, 4))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_local_fit_matches_its_numpy_transcription(native, seed, n, degree, spread, point, bandwidth, repeat):
    """Rank and coefficients bit for bit, rank-deficient designs (few distinct x) included."""
    x, y, point = _local_design(seed, n, degree, spread, point)
    x = np.repeat(x[: max(1, n // repeat)], repeat)[:n]
    y = y[: len(x)]
    if len(x) < degree + 2:
        return
    p = degree + 1
    got = np.empty((len(x), p + 1)), np.full(p, np.nan)
    want = np.empty((len(x), p + 1)), np.full(p, np.nan)
    rank = nuisance._compiled_local_fit(native.tr_local_fit, x, y, point, bandwidth, p, *got)
    assert rank == nuisance._numpy_local_fit(x, y, point, bandwidth, p, *want)
    assert _native._same(got[1], want[1])


@pytest.mark.parametrize("degree", [1, 3])
@pytest.mark.parametrize("seed", range(6))
def test_local_fit_matches_lstsq_on_full_rank_designs(native, degree, seed):
    """Householder QR against LAPACK's SVD solve: 1e-12 relative to the coefficient vector."""
    x, y, point = _local_design(seed, 50 + 300 * seed, degree, 1.0, 0.3 * seed - 0.7)
    bandwidth = 0.3 + 0.2 * seed
    beta = nuisance._local_poly_fit(x, y, point, bandwidth, degree)
    u = (x - point) / bandwidth
    root = np.sqrt(np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi))
    want = np.linalg.lstsq(root[:, None] * np.vander(u, degree + 1, increasing=True), root * y, rcond=None)[0]
    assert np.linalg.norm(beta - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("x, degree", [
    (np.repeat([0.1, 0.6], 30), 3),  # two distinct x: rank 2 of 4
    (np.repeat([0.1, 0.6, -0.2], 30), 3),  # three: rank 3 of 4
    (np.full(40, 0.25), 1),  # one: rank 1 of 2
    (np.concatenate((np.full(30, 0.3), [300.0, 400.0])), 3),  # the rows that differ have weight exactly 0
])
@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
def test_local_fit_refuses_rank_deficient_designs(native, monkeypatch, x, degree, compiled):
    if not compiled:
        monkeypatch.setattr(_native, "kernel", lambda name: None)
    with pytest.raises(RankDeficiencyError, match="rank-deficient local fit"):
        nuisance._local_poly_fit(x, np.sin(x), 0.3, 0.5, degree)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
def test_sums_and_local_fits_refuse_rows_of_other_shapes(native, monkeypatch, compiled):
    """The compiled kernels read len(x) values of g or y, so neither path takes
    weights or responses of another length, nor rows that are not one vector."""
    if not compiled:
        monkeypatch.setattr(_native, "kernel", lambda name: None)
    x, t = np.linspace(-1.0, 1.0, 40), np.array([0.0, 0.3])
    normal = kernels.gaussian_cdf_kernel()
    generic = kernels.Kernel(k=normal.k, k1=normal.k1, k2=normal.k2, alpha1=1.0, alpha2=normal.alpha2)
    for rows, other in ((x, x[:39]), (x, np.ones(41)), (x, np.ones((40, 1))), (x.reshape(8, 5), x.reshape(8, 5)),
                        (x[:0], x[:0])):
        for order in (0, 1):
            for sums in (kernels.normal_sums, normal.sums, generic.sums):
                with pytest.raises(ValidationError, match="^sums need x and g of one nonzero length"):
                    sums(rows, other, 0.5, t, order)
        if len(rows):
            with pytest.raises(ValidationError, match="^local fit needs x and y of one length"):
                nuisance.local_poly(rows, other, 0.0, 0.5, degree=3, derivative=1)
    with pytest.raises(ValidationError, match="^sums need"):
        kernels.normal_sums(x, x, 0.5, t.reshape(2, 1), 0)
    with pytest.raises(ValidationError, match="^order must be 0 or 1"):
        kernels.normal_sums(x, x, 0.5, t, 2)
