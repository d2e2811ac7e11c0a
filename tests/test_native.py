"""The compiled kernels against the numpy code they replace, bit for bit."""

import ctypes
import math
import shlex
import shutil
import sysconfig
from unittest import mock

import numpy as np
import pytest
from helpers import fresh_python, load_script, pinned
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threshold_regret import _native, chernoff, inference
from threshold_regret.errors import NumericError


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


def _callers():
    """Each kernel's caller on a small case, and the numpy loop that runs in its place without it."""
    return {
        "tr_bootstrap_chunk": (lambda: inference._bootstrap_chunk(_chunk_args(3, 500, 40, 1.0, reps=3)),
                               (inference, "_numpy_maximizers")),
        "tr_chernoff_block": (lambda: chernoff._simulate_block((3, 1, 20, 50, 1e-2)), (chernoff, "_scan_strip")),
    }


@pytest.mark.parametrize("failing", sorted(_native.CHECKS))
def test_each_kernel_is_checked_on_its_own(native, monkeypatch, failing):
    """A kernel that fails its load-time check (say, under a numpy whose stream
    differs) is set aside alone: its caller runs the numpy loop, and the other
    kernel is still handed out and runs."""
    callers = _callers()
    want = {name: run().tobytes() for name, (run, _) in callers.items()}
    monkeypatch.setitem(_native.CHECKS, failing, lambda lib: False)
    _native.kernel.cache_clear()
    try:
        assert _native.kernel(failing) is None
        assert callers[failing][0]().tobytes() == want[failing]
        (other, (run, numpy_loop)), = [item for item in callers.items() if item[0] != failing]
        assert _native.kernel(other) is not None
        with mock.patch.object(*numpy_loop, mock.Mock(side_effect=AssertionError("the numpy loop ran"))):
            assert run().tobytes() == want[other]
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
    """The numpy loops alone still give every pinned Chernoff table, bootstrap draw and CLI output."""
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
