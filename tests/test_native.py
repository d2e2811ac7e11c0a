"""The compiled kernels against the numpy code they replace, bit for bit."""

import ctypes
import math
import shlex
import shutil
import sysconfig
from unittest import mock

import numpy as np
import pytest
from helpers import load_script, pinned
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threshold_regret import _native, chernoff, inference
from threshold_regret.errors import NumericError


def _numpy_loops():
    """Patch the loader so every caller runs its numpy loop."""
    return mock.patch.object(_native, "kernels", lambda: None)


@pytest.fixture(scope="module")
def native():
    lib = _native.kernels()
    if lib is None:
        pytest.skip("the native kernels did not build or load here")
    return lib


def _require_compiler():
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"the configured compiler {compiler!r} is not on PATH")


def test_native_kernels_load_when_the_compiler_is_on_path():
    """A silent fallback to the numpy loops would pass every other test here."""
    _require_compiler()
    assert _native.kernels() is not None


def test_a_cached_library_the_loader_rejects_is_rebuilt(monkeypatch, tmp_path):
    """A truncated or foreign file at the hashed path must not leave every later process on numpy."""
    _require_compiler()
    command = _native._library_path()[1]
    path = tmp_path / "_kernels-garbage.so"
    path.write_bytes(b"not a shared library")
    monkeypatch.setattr(_native, "_library_path", lambda: (path, command))
    _native.kernels.cache_clear()
    try:
        assert _native.kernels() is not None
        assert path.read_bytes() != b"not a shared library"
    finally:
        _native.kernels.cache_clear()


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
    """The stream ``kernels()`` checks before trusting the library draws through
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
    monkeypatch.setattr(_native, "kernels", lambda: None)
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
