"""The compiled kernels against the numpy code they replace, bit for bit."""

import csv
import ctypes
import decimal
import math
import re
import shutil
import struct
import subprocess
import types
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from helpers import fresh_python, load_script, pinned, require_compiler
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threshold_regret import _native, chernoff, data, ewm, inference, kernels, nuisance, swm
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


def test_native_kernels_load_when_the_compiler_is_on_path():
    """A silent fallback to the numpy loops would pass every other test here."""
    require_compiler()
    assert all(_native.kernel(name) is not None for name in _native.CHECKS)


def test_a_cached_library_the_loader_rejects_is_rebuilt(monkeypatch, tmp_path):
    """A truncated or foreign file at the hashed path must not leave every later process on numpy."""
    require_compiler()
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
    """Each kernel's caller on a small case, and the code that runs in its place without it."""
    path = tmp_path / "plain.csv"
    path.write_text("y,d,x\n1.5,1,0.25\n-2e-3,0,7\n", newline="")
    x = np.linspace(-3.0, 3.0, 50)
    return {
        "tr_bootstrap_chunk": (lambda: inference._bootstrap_chunk(_chunk_args(3, 500, 40, 1.0, reps=3)),
                               (inference, "_numpy_maximizers")),
        "tr_chernoff_block": (lambda: chernoff._simulate_block((3, 1, 20, 50, 1e-2)), (chernoff, "_scan_strip")),
        "tr_parse_csv": (lambda: np.concatenate(_columns(data.load_sample_csv(path, propensity=0.5))),
                         (data, "_load_sample_rows")),
        "tr_normal": (lambda: np.stack(kernels._normal_law(x * 9.0)), (kernels, "_cdf")),
        "tr_fit_swm": (lambda: _fit_values(swm.fit_swm(draw_sample(MODEL1, 300, 2), kernels.gaussian_cdf_kernel(),
                                                       swm.LambdaRate(2.0))), (swm, "_newton_max")),
        "tr_estimate_khA": (lambda: np.array(astuple(nuisance.estimate_khA(draw_sample(MODEL1, 300, 2), 0.1))),
                            (nuisance, "_record_pipeline")),
        "tr_fit_ewm": (lambda: _ewm_values(ewm.fit_ewm(draw_sample(MODEL1, 300, 2))), (ewm, "_numpy_cuts")),
    }


def _fit_values(est):
    return np.array([est.t_hat, est.objective_value, est.bandwidth])


def _ewm_values(est):
    return np.array([est.t_hat, est.objective_value, *est.maximizing_interval])


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
    checks the Chernoff kernel, and ``asymptotics`` the normal law that its
    regret quantiles bisect, only."""
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
    assert fresh_python(code).splitlines()[-1] == "CHECKED ['tr_chernoff_block', 'tr_normal']"


def test_an_estimate_checks_the_fused_kernel_alone(native):
    """A fresh process that estimates K, H and A checks ``tr_estimate_khA``,
    the one kernel it calls, and with it only the normal law (``tr_normal``),
    whose phi its check's Python oracle takes; ``infer --method plugin``
    adds only the CSV parser, the EWM fit and the Chernoff kernel."""
    code = """
import os, sys, tempfile
import numpy as np
from threshold_regret import _native
from threshold_regret.cli import run_cli
from threshold_regret.data import Sample
from threshold_regret.nuisance import estimate_khA
checked = []
for name, check in list(_native.CHECKS.items()):
    _native.CHECKS[name] = lambda lib, name=name, check=check: checked.append(name) or check(lib)
x = np.sin(np.arange(400.0))
sample = Sample(y=x**3 + np.cos(np.arange(400.0)), d=np.arange(400) % 2, x=x, propensity=0.5)
estimate_khA(sample, 0.1)
print("ESTIMATE", checked)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "sample.csv")
    with open(path, "w") as fh:
        fh.write("y,d,x\\n" + "".join(f"{y!r},{int(d)},{x!r}\\n"
                                     for y, d, x in zip(sample.y.tolist(), sample.d, sample.x.tolist())))
    table = ["--chernoff-paths", "10000", "--chernoff-step", "0.001", "--chernoff-halfwidth", "2", "--jobs", "1"]
    assert run_cli(["infer", "--policy", "ewm", "--method", "plugin", "--data", path, "--propensity", "0.5",
                    *table]) == 0
print("INFER", checked)
"""
    lines = fresh_python(code).splitlines()
    assert lines[0] == "ESTIMATE ['tr_estimate_khA', 'tr_normal']"
    assert lines[-1] == "INFER ['tr_estimate_khA', 'tr_normal', 'tr_parse_csv', 'tr_fit_ewm', 'tr_chernoff_block']"


def test_an_ewm_estimate_checks_the_parser_and_the_fit_alone(native):
    """A fresh ``estimate --policy ewm`` process checks the CSV parser and
    ``tr_fit_ewm``, the two kernels it calls, and no other: the fit's check
    has a numpy oracle."""
    code = """
import os, tempfile
from threshold_regret import _native
from threshold_regret.cli import run_cli
checked = []
for name, check in list(_native.CHECKS.items()):
    _native.CHECKS[name] = lambda lib, name=name, check=check: checked.append(name) or check(lib)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "sample.csv")
    with open(path, "w") as fh:
        fh.write("y,d,x\\n" + "".join(f"{(-1) ** i * 0.5},{i % 2},{i * 0.1!r}\\n" for i in range(40)))
    assert run_cli(["estimate", "--policy", "ewm", "--data", path, "--propensity", "0.5"]) == 0
print("CHECKED", checked)
"""
    assert fresh_python(code).splitlines()[-1] == "CHECKED ['tr_parse_csv', 'tr_fit_ewm']"


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
    the tail) and how many wedge tries it rejected, the number of words the
    n draws consumed, and the words of each slow try as (first, past the
    last) in order.  Only the slow draws are walked in Python, with the
    kernel's tables.
    """
    ki, wi, fi = (np.ctypeslib.as_array((ctype * 256).in_dll(lib, name)) for ctype, name in (
        (ctypes.c_uint64, "ki_double"), (ctypes.c_double, "wi_double"), (ctypes.c_double, "fi_double")))
    words = bit_generator.random_raw(n + n // 20 + 1000)
    idx = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = (words >> np.uint64(9)) & np.uint64((1 << 52) - 1)
    u = (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    paths = {"rectangle": 0, "wedge": 0, "tail": 0, "wedge rejected": 0}
    spans = []
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
        spans.append((q, pos))
    rest = n - paths["rectangle"] - paths["wedge"] - paths["tail"]
    paths["rectangle"] += rest
    return paths, pos + rest, spans


def _advanced(seed, words):
    """default_rng(seed)'s state words after ``words`` raw draws."""
    bit_generator = np.random.default_rng(seed).bit_generator
    bit_generator.advance(words)
    return _native.pcg64_words(bit_generator)


def _block(block, seed, n_paths, m, scale, penalty):
    """A compiled block's four outputs and its written-back state, from default_rng(seed)."""
    state = _native.pcg64_words(np.random.default_rng(seed).bit_generator)
    found = [np.empty(n_paths, np.int64), np.empty(n_paths), np.empty(n_paths, np.int64), np.empty(n_paths)]
    block(state, n_paths, m, scale, np.asarray(penalty, float), *found)
    return found, state


def test_block_kernel_draws_numpys_normal_stream(native):
    """With one grid point, scale 1 and penalty 0 every wing's peak is its one
    draw: 2e6 of them equal ``Generator.standard_normal``, and the written-back
    state is numpy's, through tail draws and wedge acceptances, on the path
    this CPU takes and on the scalar loop."""
    n = 1_000_000
    rng = np.random.default_rng(17)
    want = rng.standard_normal(2 * n)
    paths, words, _ = _ziggurat_paths(native, np.random.default_rng(17).bit_generator, 2 * n)
    assert paths["tail"] == np.count_nonzero(np.abs(want) > ZIGGURAT_R) > 0
    assert paths["wedge"] > 0 and paths["wedge rejected"] > 0
    for block in (native.tr_chernoff_block, native.tr_chernoff_block_scalar):
        (_, right, _, left), state = _block(block, 17, n, 1, 1.0, [0.0])
        draws = np.empty(2 * n)
        draws[0::2], draws[1::2] = right, left
        assert draws.tobytes() == want.tobytes()
        assert state.tobytes() == _native.pcg64_words(rng.bit_generator).tobytes()
        assert state.tobytes() == _advanced(17, words).tobytes()


# LANE_WORDS of _kernels.c: the lanes' ring of words, made 16 at a time
RING_WORDS = 512


def test_load_time_block_takes_both_slow_paths(native):
    """The stream ``kernel()`` checks before trusting the library draws through
    numpy's wedge and its tail, so the check covers both slow paths; and one
    slow draw's uniform is the first word of the lanes' next pass over their
    ring, so a check that passes has taken words across its edge."""
    seed, blocks = _native.BLOCK_CHECK
    paths, _, spans = _ziggurat_paths(native, np.random.default_rng(seed).bit_generator, 2 * blocks[0][0])
    assert blocks[0][1] == (0.0,) and paths["wedge"] > 0 and paths["tail"] > 0
    assert any(first // RING_WORDS != (past - 1) // RING_WORDS for first, past in spans)


def test_load_time_block_check_passes_on_the_scalar_loop_too(native):
    """The check a CPU without the lanes runs: ``kernel()`` checks only the path this CPU takes."""
    assert _native._block_agrees(types.SimpleNamespace(tr_chernoff_block=native.tr_chernoff_block_scalar))


@pytest.fixture(scope="module", params=["tr_chernoff_block", "tr_chernoff_block_scalar"])
def compiled_block(native, request):
    """Each compiled path of the Chernoff block: the lanes, where this CPU runs them, and the scalar loop."""
    if request.param == "tr_chernoff_block" and not native.tr_chernoff_lanes():
        pytest.skip("this CPU lacks AVX-512F or AVX-512DQ, so tr_chernoff_block runs the scalar loop tested beside it")
    return getattr(native, request.param)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_paths=st.integers(1, 40),
    m=st.integers(1, 3000),
    curvature=st.sampled_from([0.0, 1e-4, 1e-2]),
    specials=st.lists(st.tuples(st.integers(0, 2999),
                                st.sampled_from([0.0, -0.0, 0.25, 1.0, math.inf, -math.inf, math.nan])), max_size=6),
    scale=st.sampled_from([0.0, 0.05, 0.5, 1.0, math.inf]),
)
# past several rings, and one point a wing, where every draw is a peak
@example(seed=3, n_paths=40, m=3000, curvature=1e-4, specials=[], scale=0.05)
@example(seed=4, n_paths=40, m=1, curvature=0.0, specials=[], scale=1.0)
# scale 0: every sum is +-0.0, so the wing ties at each point where the penalty repeats its least value
@example(seed=5, n_paths=3, m=5, curvature=0.0, specials=[(0, 1.0), (3, 2.0)], scale=0.0)
@example(seed=5, n_paths=3, m=3, curvature=0.0, specials=[], scale=0.0)
@example(seed=7, n_paths=5, m=700, curvature=0.0, specials=[(3, -0.0)], scale=0.0)
# a NaN penalty makes its point the first argmax, even the first point, and a tie at +inf keeps its first point
@example(seed=6, n_paths=4, m=4, curvature=0.0, specials=[(0, 0.25), (1, math.nan), (2, 1.0), (3, math.nan)],
         scale=1.0)
@example(seed=6, n_paths=4, m=2, curvature=0.0, specials=[(0, math.nan)], scale=0.5)
@example(seed=6, n_paths=7, m=600, curvature=1e-2, specials=[(0, math.nan), (1, -math.inf)], scale=1.0)
@example(seed=5, n_paths=7, m=600, curvature=1e-2, specials=[(40, -math.inf), (41, -math.inf)], scale=1.0)
# scale inf: the sums reach +-inf, and NaN once they meet
@example(seed=7, n_paths=8, m=12, curvature=0.0, specials=[], scale=math.inf)
@example(seed=7, n_paths=8, m=3, curvature=0.0, specials=[(0, math.inf), (2, 1.0)], scale=math.inf)
@example(seed=8, n_paths=5, m=700, curvature=1e-2, specials=[(9, math.inf)], scale=math.inf)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_block_kernel_scans_like_numpy(native, compiled_block, seed, n_paths, m, curvature, specials, scale):
    """Each compiled path against ``_scan_strip`` on ``Generator.standard_normal``'s
    draws: the four outputs to the byte, peaks included (ties keep the first
    point, the first NaN wins), and the written-back state at the words the
    draws consumed."""
    penalty = (np.arange(m) * curvature) ** 2
    for at, value in specials:
        penalty[at % m] = value
    found, state = _block(compiled_block, seed, n_paths, m, scale, penalty)
    want = [np.empty(n_paths, np.int64), np.empty(n_paths), np.empty(n_paths, np.int64), np.empty(n_paths)]
    with np.errstate(invalid="ignore"):
        strip = np.random.default_rng(seed).standard_normal((n_paths, 2 * m)) * scale
        chernoff._scan_strip(strip, penalty, np.empty((n_paths, m)), *want)
    assert [a.tobytes() for a in found] == [b.tobytes() for b in want]
    _, words, _ = _ziggurat_paths(native, np.random.default_rng(seed).bit_generator, 2 * n_paths * m)
    assert state.tobytes() == _advanced(seed, words).tobytes()


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
    require_compiler()
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


def test_load_time_parse_check_takes_the_second_product():
    """A token ``kernel()`` checks before trusting ``tr_parse_csv`` has a first
    64-bit Eisel-Lemire product whose low 9 bits are all ones, and a second
    product that carries into it, so the check covers that branch."""
    assert "43463e-29" in _native.PARSE_CHECK
    words, w, q = _powers_of_five(), 43463, -29
    w <<= 64 - w.bit_length()
    first = w * words[2 * (q + 342)]
    high, low = first >> 64, first & (2**64 - 1)
    second = (w * words[2 * (q + 342) + 1]) >> 64
    assert high & 0x1FF == 0x1FF and low + second >= 2**64


def _parse(lib, tokens):
    """``tr_parse_csv`` over the tokens, one a row, as float64, or None when it refuses them."""
    found = data._parse_rows(lib.tr_parse_csv, "\n".join(tokens).encode(), 0, 1, -1, csv.field_size_limit())
    return None if found is None else found[0]


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_DOUBLES = st.integers(0, 2**64 - 1).map(_double).filter(math.isfinite)


@st.composite
def _decimals(draw, significant=st.integers(0, 10**19 - 1)):
    """The digits of ``significant`` (up to 19 by default) with a point anywhere,
    leading zeros, a sign and an exponent."""
    digits = draw(st.sampled_from(["", "0", "000"])) + str(draw(significant))
    point = draw(st.integers(0, len(digits)))
    mantissa = draw(st.sampled_from([digits, digits[:point] + "." + digits[point:]]))
    exponent = draw(st.none() | st.integers(-345, 330) | st.integers(-10**30, 10**30))
    suffix = "" if exponent is None else draw(st.sampled_from(["e{}", "E{:+d}"])).format(exponent)
    return draw(st.sampled_from(["", "+", "-"])) + mantissa + suffix


@st.composite
def _midpoints(draw):
    """The midpoint of two adjacent doubles, printed to 17-19 significant digits."""
    a = abs(draw(_DOUBLES))
    b = math.nextafter(a, math.inf)
    with decimal.localcontext(prec=800):  # exact: a double's decimal expansion has at most 767 digits
        mid = (decimal.Decimal(a) + decimal.Decimal(b)) / 2
    return format(mid, f".{draw(st.integers(17, 19)) - 1}e")


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
    double, decimals of up to 19 significant digits at any exponent, and
    near-ties of adjacent doubles printed to 17, 18 and 19 digits."""
    got = _parse(native, tokens)
    assert got is not None
    assert got.tobytes() == np.array([float(token) for token in tokens]).tobytes()


def test_parser_rounds_random_doubles_as_float_does(native):
    """The repr of 200 000 random bit patterns, and 30 000 midpoints of
    adjacent doubles at 17, 18 and 19 digits."""
    values = np.random.default_rng(19).integers(0, 2**64, 240_000, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    tokens = list(map(repr, values[:200_000].tolist()))
    with decimal.localcontext(prec=800):
        for i, a in enumerate(np.abs(values[200_000:230_000]).tolist()):
            mid = (decimal.Decimal(a) + decimal.Decimal(math.nextafter(a, math.inf))) / 2
            tokens.append(format(mid, (".16e", ".17e", ".18e")[i % 3]))
    assert _parse(native, tokens).tobytes() == np.array([float(token) for token in tokens]).tobytes()


@pytest.mark.parametrize("token", ["", ".", "+", "-", "e5", "1e", "1e+", "1.5 ", " 1", "1..2", "1.2.3", "--1", "+-1",
                                   "nan", "inf", "0x1p3", "1_0", "1d5", "١", "1,5", "1" * 300])
def test_parser_refuses_what_its_grammar_does_not_hold(native, token):
    """Padding, specials, other spellings and a 300-digit token are left to the row loop."""
    assert _parse(native, [token, "1.5"]) is None


@given(before=st.lists(_DOUBLES.map(repr), max_size=5), after=st.lists(_DOUBLES.map(repr), max_size=5),
       token=_decimals(st.integers(10**19, 10**40)))
@example(before=[], after=[], token="0.1000000000000000055511151231257827")
@example(before=["1.5"], after=[], token="1" * 20)
@example(before=[], after=[], token="18446744073709551616")  # 2^64: its 64-bit digits wrap to 0
@example(before=[], after=[], token="0.00" + str(3 * 2**64))
@example(before=[], after=["2"], token="-000.10000000000000000000e5")
@settings(max_examples=200, deadline=None, derandomize=True)
def test_parser_refuses_any_row_holding_more_than_19_significant_digits(native, before, after, token):
    """Twenty to 41 significant digits, trailing zeros counted, anywhere in the file, are left to the row loop."""
    assert _parse(native, [*before, token, *after]) is None


@pytest.mark.parametrize("body, limit, rows", [
    (b"1.25,0,2\n", 4, 1), (b"1.25,0,2\n", 3, None), (b"1,0,2.5\r\n", 3, 1), (b"1,0,2.5\r\n", 2, None),
    (b"1,0,2", 1, 1), (b"1,0,2", 0, None),
])
def test_parser_refuses_fields_over_the_limit(native, body, limit, rows):
    """A field of exactly ``limit`` bytes is read and one byte more is refused, as
    ``csv.reader`` raises past ``csv.field_size_limit()``; line ends do not count."""
    found = data._parse_rows(native.tr_parse_csv, body, 0, 3, 1, limit)
    assert (None if found is None else found.shape[1]) == rows


@pytest.mark.parametrize("body, rows", [
    (b"1,0,2\n3,1,4\n", 2), (b"1,0,2\r\n3,1,4", 2), (b"1,0,2", 1), (b"", 0),
    (b"1,0,2\r3,1,4\n", None), (b"1,0,2\n\n3,1,4\n", None), (b"1,0,2\r", None), (b"1,0\n", None), (b"1,0,2,3\n", None),
    (b"1,01,2\n", None), (b"1,,2\n", None), (b"1,2,2\n", None), (b"1,0,2\n3,1,", None), (b"1,0,2\n3,1", None),
])
def test_parser_takes_only_plain_rows(native, body, rows):
    """Three fields, d in the middle: "\\n" or "\\r\\n" line ends, the last row
    maybe unended; a lone "\\r", a blank row, a short or long row, a ``d``
    other than 0 or 1, or an empty field is refused."""
    found = data._parse_rows(native.tr_parse_csv, body, 0, 3, 1, csv.field_size_limit())
    assert (None if found is None else found.shape[1]) == (rows or None)


def test_library_links_only_libm_and_the_loader():
    """The built library asks the dynamic linker for libm's exp, log1p and sqrt,
    memcpy and memset, and the loader's weak hooks, nothing locale-dependent."""
    require_compiler()
    if shutil.which("nm") is None:
        pytest.skip("nm is not on PATH")
    path = _native._library_path()[0]
    assert _native._library() is not None and path.exists()
    done = subprocess.run(["nm", "-D", "--undefined-only", str(path)], capture_output=True, text=True, check=True)
    names = {line.split()[-1].split("@")[0] for line in done.stdout.splitlines() if line.strip()}
    weak = {"_ITM_deregisterTMCloneTable", "_ITM_registerTMCloneTable", "__cxa_finalize", "__gmon_start__"}
    assert names - weak == {"exp", "log1p", "sqrt", "memcpy", "memset"}


class _Bindings(dict):
    """A stand-in library for ``_native._typed`` that records each function it types."""

    def __getattr__(self, name):
        return self.setdefault(name, types.SimpleNamespace())


def test_every_exported_kernel_is_typed_and_checked():
    """The non-static ``tr_*`` functions of ``_kernels.c`` are the ones ``_typed``
    binds, and each is checked at load time (``CHECKS``) or is one of the two
    hooks the tests call, so a retired kernel cannot leave a dead export."""
    exported = set(re.findall(r"^(?!static\b)\w[\w *]*?\b(tr_\w+)\(", _native.SOURCE.read_text(), re.M))
    bound = _Bindings()
    _native._typed(bound)
    assert exported == set(bound)
    assert set(_native.CHECKS) == {"tr_bootstrap_chunk", "tr_chernoff_block", "tr_parse_csv", "tr_normal", "tr_fit_swm",
                                   "tr_estimate_khA", "tr_fit_ewm"}
    assert exported - set(_native.CHECKS) == {"tr_chernoff_block_scalar", "tr_chernoff_lanes"}


# --- the normal law (tr_normal) and the smoothed sums -----------------------------


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
    """Phi, phi and k'' bit for bit, infinities, NaN and the tails past underflow included;
    Phi alone too."""
    z = np.array(z)
    got = kernels._law(native.tr_normal, z)
    assert all(map(_native._same, got, (kernels._cdf(z), *kernels._density_terms(z))))
    assert _native._same(kernels._law(native.tr_normal, z, 1)[0], got[0])


def test_norm_cdf_computes_phi_alone_with_the_bits_of_the_whole_law(native):
    """``norm_cdf`` asks ``tr_normal`` for Phi alone, two doubles a point, and gets
    the bits of the numpy transcription and of the law's first row, on the
    grid down to Phi's underflow, at the load-time points and at scalars."""
    z = np.concatenate((_PHI_GRID, _native.NORMAL_CHECK, [np.inf, -np.inf, np.nan]))
    phi = kernels.norm_cdf(z)
    assert _native._same(phi, kernels._cdf(z)) and _native._same(phi, kernels._law(native.tr_normal, z)[0])
    for v in (0.3, -0.0, -37.6, 9.0):
        assert kernels.norm_cdf(v).tobytes() == kernels._cdf(np.float64(v)).tobytes() and np.ndim(kernels.norm_cdf(v)) == 0
    with mock.patch.object(kernels, "_law", wraps=kernels._law) as law:
        kernels.norm_cdf(z)
    assert law.call_args.args[2:] == (1,)
    with _numpy_loops():
        assert _native._same(kernels.norm_cdf(z), phi)


def test_smoothed_sums_match_scipy_within_their_rounding():
    """S_n, S_n' and S_n'' against fsum over scipy's ndtr and math.exp: within the
    sequential sum's bound n eps sum |terms|, plus 4 ulp of each term."""
    scipy_special = pytest.importorskip("scipy.special")
    sample = draw_sample(MODEL1, 3000, 8)
    g = sample.y * (sample.d / 0.5 - (1 - sample.d) / 0.5)
    t = np.linspace(-1.0, 1.0, 7)
    sums = kernels.normal_rows(sample.x, g)
    got, slopes = sums(0.2, t, 0)[0], sums(0.2, t, 1)
    eps = np.finfo(float).eps
    for j, tj in enumerate(t):
        u = (sample.x - tj) / 0.2
        phi = np.array([math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi) for v in u.tolist()])
        for value, terms in ((got[j], g * scipy_special.ndtr(u)), (slopes[0][j], g * phi),
                             (slopes[1][j], g * (-u * phi))):
            bound = (len(u) + 4) * eps * math.fsum(np.abs(terms))
            assert abs(value - math.fsum(terms)) <= bound


# --- the local polynomial fits --------------------------------------------------


def _local_design(seed, n, spread, point):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * spread
    return x, x**3 - 0.5 * x * x + x + rng.standard_normal(n), point


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400), spread=st.sampled_from([1e-3, 0.5, 1.0, 30.0]),
       point=st.floats(-3.0, 3.0), bandwidth=st.sampled_from([0.05, 0.4, 2.0, 50.0]), repeat=st.integers(1, 4))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_local_fit_matches_its_numpy_transcription(native, seed, n, spread, point, bandwidth, repeat):
    """The local fits of ``tr_estimate_khA``, linear of y^2 and cubic of y,
    against the pipeline's numpy fits: ranks and coefficients bit for bit,
    rank-deficient designs (few distinct x) and fits not made (no more rows
    than coefficients) included.  The design is arm 0, and its rows reversed
    arm 1, both at ``bandwidth``."""
    x, y, point = _local_design(seed, n, spread, point)
    x = np.repeat(x[: max(1, n // repeat)], repeat)[:n]
    y = y[: len(x)]
    arms = [(x, y), (x[::-1].copy(), y[::-1].copy())]
    rows = x, np.full(len(x), 0.5), point, bandwidth, bandwidth, arms, ((bandwidth, bandwidth),) * 2
    assert _native._same(nuisance._record_compiled(native.tr_estimate_khA, *rows), nuisance._record_pipeline(*rows))


@pytest.mark.parametrize("degree", [1, 3])
@pytest.mark.parametrize("seed", range(6))
def test_local_fit_matches_lstsq_on_full_rank_designs(degree, seed):
    """Householder QR against LAPACK's SVD solve: 1e-12 relative to the coefficient vector."""
    x, y, point = _local_design(seed, 50 + 300 * seed, 1.0, 0.3 * seed - 0.7)
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
def test_local_fit_refuses_rank_deficient_designs(native, x, degree, compiled):
    """The numpy fit refuses the design; ``tr_estimate_khA``'s fit of it as an
    arm reports the short rank, which ``estimate_khA`` refuses by the same rule."""
    if compiled:
        rows = x, np.full(len(x), 0.5), 0.3, 0.5, 0.5, [(x, np.sin(x))] * 2, ((0.5, 0.5),) * 2
        # arm 0's linear or cubic rank, after the three sums and the arm's two counts
        rank = int(nuisance._record_compiled(native.tr_estimate_khA, *rows)[nuisance._ARMS + 2 + (degree == 3)])
        with pytest.raises(RankDeficiencyError, match="rank-deficient local fit"):
            nuisance._fit_refusal(len(x), 0.3, 0.5, degree, rank)
    with pytest.raises(RankDeficiencyError, match="rank-deficient local fit"):
        nuisance._local_poly_fit(x, np.sin(x), 0.3, 0.5, degree)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
def test_sums_and_local_fits_refuse_rows_of_other_shapes(native, compiled):
    """Neither the sums nor the local fits take weights or responses of another
    length, nor rows that are not one vector; nor does the compiled SWM fit,
    which reads len(x) values of g and of the order by address."""
    x, t = np.linspace(-1.0, 1.0, 40), np.array([0.0, 0.3])
    normal = kernels.gaussian_cdf_kernel()
    generic = kernels.Kernel(k=normal.k, k1=normal.k1, k2=normal.k2, alpha1=1.0, alpha2=normal.alpha2)
    shapes = ((x, x[:39]), (x, np.ones(41)), (x, np.ones((40, 1))), (x.reshape(8, 5), x.reshape(8, 5)), (x[:0], x[:0]))
    if compiled:
        for rows, other in shapes:
            for g, order in ((other, np.arange(len(rows))), (rows, np.arange(len(rows) - 1))):
                with pytest.raises(ValidationError, match="^the screen needs x, g and its order of one nonzero"):
                    swm._compiled_fit(native.tr_fit_swm, g, rows, order, normal, 0.5, data.ParamSpace(-1.0, 1.0), 201)
        return
    for rows, other in shapes:
        for order in (0, 1):
            for sums in (normal.sums, generic.sums):
                with pytest.raises(ValidationError, match="^sums need x and g of one nonzero length"):
                    sums(rows, other, 0.5, t, order)
        if len(rows):
            with pytest.raises(ValidationError, match="^local fit needs x and y of one length"):
                nuisance.local_poly(rows, other, 0.0, 0.5, degree=3, derivative=1)
    with pytest.raises(ValidationError, match="^sums need"):
        normal.sums(x, x, 0.5, t.reshape(2, 1), 0)
    with pytest.raises(ValidationError, match="^order must be 0 or 1"):
        normal.sums(x, x, 0.5, t, 2)
