"""Confidence intervals for the optimal threshold.

Four constructions are provided:

* plug-in intervals for the unsmoothed estimator, using quantiles of the
  simulated argmax law and plug-in estimates of K and H;
* a reshaped bootstrap for the unsmoothed estimator that restores bootstrap
  consistency under cube-root asymptotics by penalizing the criterion with
  the estimated quadratic drift;
* bias-corrected and undersmoothed normal intervals for the smoothed
  estimator.

Normal quantiles are computed from the error function, not lookup tables.
Each bootstrap replicate draws its rows with ``Generator.integers(0, n, n)``
from its own generator, seeded from (seed, replicate index), and bins their
scores by the rank of their x among the distinct values, which
``_breaks_and_ranks`` finds with one argsort.  When the compiled kernels
build, load and pass their check (see ``_native``), one call of
``tr_bootstrap_chunk`` of ``_kernels.c`` runs a whole chunk of replicates:
it seeds each generator from its seed sequence's words, which
``_seed_words`` derives for all replicates at once, draws the rows with
numpy's own PCG64 and 32-bit bounded integers, bins them as it draws, and
takes the criterion and its first argmax.  The loop that writes the
criterion also keeps its running maximum, with no branch per segment, and a
forward scan finds the first segment equal to it, which is ``np.argmax``'s
index; a criterion holding NaN takes its first NaN, as ``np.argmax`` does.
The kernel runs for n up to 2^32 - 1, where numpy draws 32-bit integers;
otherwise, and without the kernel, the numpy loop ``_replicate`` runs.
Both give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import erfinv
from ._workers import parallel_map, require_int
from .chernoff import ChernoffTable, _linear_quantile, chernoff_quantile
from .data import Sample, _ipw_g
from .errors import NumericError, ValidationError
from .ewm import ThresholdEstimate
from .kernels import Kernel
from .nuisance import NuisanceEstimates

__all__ = [
    "ConfidenceInterval",
    "BootstrapDistribution",
    "z_quantile",
    "ewm_ci",
    "ewm_bootstrap",
    "swm_ci",
]


def z_quantile(q: float) -> float:
    """Standard normal quantile via the inverse error function."""
    if not 0.0 < q < 1.0:
        raise ValidationError(f"quantile level must lie in (0, 1), got {q}")
    return math.sqrt(2.0) * float(erfinv(2.0 * q - 1.0))


@dataclass(frozen=True)
class ConfidenceInterval:
    """An interval for the optimal threshold with its construction recorded."""

    lo: float
    hi: float
    level: float
    method: str
    center: float
    half_width: float
    bias_correction: float = 0.0

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValidationError(f"interval bounds out of order: ({self.lo}, {self.hi})")
        _check_level(self.level)


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must lie in (0, 1), got {level}")


def _require_positive_slope(h_hat: float) -> None:
    if h_hat <= 0:
        raise NumericError(
            f"H_hat = {h_hat} is not positive: the estimated welfare slope is "
            "inconsistent with an interior maximum"
        )


def ewm_ci(
    sample: Sample,
    estimate: ThresholdEstimate,
    nuisance: NuisanceEstimates,
    chernoff: ChernoffTable,
    level: float = 0.95,
) -> ConfidenceInterval:
    """Plug-in interval t_hat +- n^(-1/3) (2 sqrt(K_hat) / H_hat)^(2/3) c_{alpha/2}."""
    if estimate.policy_kind != "ewm":
        raise ValidationError(f"ewm_ci needs an ewm estimate, got {estimate.policy_kind!r}")
    _check_level(level)
    _require_positive_slope(nuisance.h_hat)
    if nuisance.k_hat < 0:
        raise NumericError(f"K_hat = {nuisance.k_hat} is negative")
    alpha = 1.0 - level
    c = chernoff_quantile(chernoff, 1.0 - alpha / 2.0)
    half_width = (
        sample.n ** (-1.0 / 3.0)
        * (2.0 * math.sqrt(nuisance.k_hat) / nuisance.h_hat) ** (2.0 / 3.0)
        * c
    )
    t = estimate.t_hat
    return ConfidenceInterval(
        lo=t - half_width,
        hi=t + half_width,
        level=level,
        method="ewm_plugin",
        center=t,
        half_width=half_width,
    )


@dataclass(frozen=True)
class BootstrapDistribution:
    """Draws of n^(1/3) (t_boot - t_hat) from the reshaped bootstrap."""

    draws: np.ndarray
    t_hat: float
    n: int
    n_boot: int
    seed: int

    def __post_init__(self):
        self.draws.setflags(write=False)

    def percentile_interval(self, level: float = 0.95) -> ConfidenceInterval:
        _check_level(level)
        alpha = 1.0 - level
        scale = self.n ** (-1.0 / 3.0)
        q_lo = _linear_quantile(self.draws, alpha / 2.0)
        q_hi = _linear_quantile(self.draws, 1.0 - alpha / 2.0)
        lo = self.t_hat - scale * q_hi
        hi = self.t_hat - scale * q_lo
        return ConfidenceInterval(
            lo=lo,
            hi=hi,
            level=level,
            method="ewm_bootstrap",
            center=self.t_hat,
            half_width=0.5 * (hi - lo),
        )


def _replicate(idx, rank, g, suffix_orig, penalty, work) -> int:
    """Index of the first maximizer of one replicate's penalized criterion, by numpy.

    The replicate is the draw of rows ``idx``; ``work`` (one more entry than
    there are ranks) ends holding its criterion.  This is the loop that the
    compiled ``tr_bootstrap_chunk`` replaces, and its oracle.
    """
    per_rank = np.bincount(rank[idx], weights=g[idx], minlength=len(work) - 1)
    # suffix sums of the resampled scores, with the trailing 0, then the criterion in place
    np.cumsum(per_rank[::-1], out=work[-2::-1])
    work[-1] = 0.0
    np.subtract(work, suffix_orig, out=work)
    work /= len(idx)
    work -= penalty
    return int(np.argmax(work))


def _bit_generator(seed: int, b: int) -> np.random.PCG64:
    """Replicate b's generator, seeded from (seed, b)."""
    return np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))


def _draws_in_32_bits(n: int) -> bool:
    """Whether ``Generator.integers(0, n, n)`` takes numpy's 32-bit Lemire branch,
    the one ``tr_bootstrap_chunk`` repeats (numpy's range n - 1 below 2^32 - 1)."""
    return n - 1 < 2**32 - 1


def _numpy_maximizers(lo, hi, seed, rank, g, suffix_orig, penalty, work) -> tuple[np.ndarray, int]:
    """First maximizers of replicates lo..hi-1 by ``_replicate``, and the offset of the first
    whose criterion there is not finite, or -1.  They stop at that replicate, its maximizer
    the last returned and its criterion left in ``work``."""
    n = len(g)
    args = np.empty(hi - lo, np.int64)
    # an overflow is refused by the caller, as the kernel's is, rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for b in range(lo, hi):
            idx = np.random.Generator(_bit_generator(seed, b)).integers(0, n, n)
            j = args[b - lo] = _replicate(idx, rank, g, suffix_orig, penalty, work)
            if not math.isfinite(work[j]):
                return args[: b - lo + 1], b - lo
    return args, -1


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_words(seed: int, lo: int, hi: int) -> np.ndarray:
    """``SeedSequence(entropy=seed, spawn_key=(b,)).generate_state(4, np.uint64)`` for
    b = lo..hi-1 < 2^32, one row each, with no SeedSequence built: numpy's mixing in
    uint32 arithmetic, over all replicates at once.  PCG64 seeds itself from these words.

    The entropy is the seed's 32-bit words (zero-padded to the pool's four, as
    numpy pads when a spawn key follows) and then b, so every step before b's is
    shared and runs on one-element arrays.
    """
    mask = 0xFFFFFFFF
    words = [seed & mask]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & mask)
    entropy = [np.full(1, w, np.uint32) for w in words + [0] * (4 - len(words))]
    entropy.append(np.arange(lo, hi, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & mask
        value = value * np.uint32(hash_const)
        return value ^ value >> 16

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ result >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    state = np.empty((hi - lo, 8), np.uint32)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & mask
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ value >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _compiled_maximizers(kernel, lo, hi, seed, rank, g, suffix_orig, penalty, work) -> tuple[np.ndarray, int]:
    """``_numpy_maximizers`` by the compiled ``tr_bootstrap_chunk``, which seeds each
    replicate's generator from its SeedSequence words and draws its rows as it bins them."""
    from ._native import BOOT_ROW

    rows = np.empty(len(g), BOOT_ROW)
    rows["g"], rows["rank"] = g, rank
    args = np.empty(hi - lo, np.int64)
    bad = kernel(_seed_words(seed, lo, hi), hi - lo, len(g), rows, len(work) - 1, suffix_orig, penalty, work, args)
    return (args if bad < 0 else args[: bad + 1]), bad


def _bootstrap_chunk(args):
    """Exact maximizers of the reshaped-bootstrap criteria of replicates lo..hi-1.

    Each criterion is a step function of t (jumps only at observed index
    values) minus the quadratic penalty 0.5 H_hat (t - t_hat)^2, so on each
    inter-breakpoint segment the maximizer is t_hat clamped to the segment;
    evaluating every segment makes the search exact.  The candidates and
    their penalties do not depend on the draw and are computed once.  A
    criterion whose maximum is not finite (resampled score sums that
    overflow) raises NumericError.
    """
    from . import _native

    lo, hi, seed, rank, g, n, t_hat, h_hat, breaks, suffix_orig = args
    # candidate thresholds: t_hat clamped into each segment
    # segment j covers [breaks[j-1], breaks[j]) with open ends at both sides
    k = len(breaks)
    cand = np.empty(k + 1)
    cand[0] = min(t_hat, breaks[0])
    cand[-1] = max(t_hat, breaks[-1])
    cand[1:-1] = np.clip(t_hat, breaks[:-1], breaks[1:])
    penalty = 0.5 * h_hat * (cand - t_hat) ** 2
    work = np.empty(k + 1)
    # _seed_words takes spawn keys of one 32-bit word
    kernel = _native.kernel("tr_bootstrap_chunk") if _draws_in_32_bits(n) and hi <= 2**32 else None
    if kernel is None:
        found, bad = _numpy_maximizers(lo, hi, seed, rank, g, suffix_orig, penalty, work)
    else:
        found, bad = _compiled_maximizers(kernel, lo, hi, seed, rank, g, suffix_orig, penalty, work)
    if bad >= 0:
        raise NumericError(
            f"bootstrap replicate {lo + bad}: the criterion at its maximizer is {work[found[bad]]}; "
            "the resampled score sums overflow"
        )
    return cand[found]


def _breaks_and_ranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of x ascending, and each row's rank among them, which is
    ``np.searchsorted(breaks, x)``: scattered through one argsort rather than found
    by a binary search per row (about 4 ms against 17 ms at n = 100 000, one Xeon core)."""
    # sorted neighbours rather than np.unique, whose first call imports numpy.ma (about 15 ms);
    # the breaks come from np.sort, so which zero heads a run of -0.0 and +0.0 is as it was
    xs = np.sort(x)
    starts = np.concatenate(([True], xs[1:] != xs[:-1]))
    # x sorted by argsort holds xs's values in xs's places (a zero's sign aside), so its
    # runs start where xs's do
    rank = np.empty(len(x), np.intp)
    rank[np.argsort(x)] = np.cumsum(starts) - 1
    return xs[starts], rank


def ewm_bootstrap(
    sample: Sample,
    estimate: ThresholdEstimate,
    h_hat: float,
    n_boot: int = 999,
    seed: int = 0,
    jobs: int = 1,
) -> BootstrapDistribution:
    """Reshaped bootstrap for the cube-root threshold estimator.

    Each replicate resamples rows with replacement and maximizes the
    recentered welfare criterion minus 0.5 (t - t_hat)^2 H_hat; the law of
    n^(1/3) (t_boot - t_hat) estimates the law of n^(1/3) (t_hat - t*).
    Replicates are seeded independently from (seed, replicate index), so the
    draws do not depend on the worker count.
    """
    require_int("n_boot", n_boot, 200)
    if not math.isfinite(h_hat):
        raise ValidationError(f"h_hat must be finite, got {h_hat}")
    _require_positive_slope(h_hat)
    if estimate.policy_kind != "ewm":
        raise ValidationError(f"ewm_bootstrap needs an ewm estimate, got {estimate.policy_kind!r}")
    require_int("seed", seed, 0)
    require_int("jobs", jobs, 1)
    n = sample.n
    g = _ipw_g(sample)
    breaks, rank = _breaks_and_ranks(sample.x)
    if len(breaks) < 2:
        raise ValidationError("bootstrap needs at least two distinct index values")
    per_rank_orig = np.bincount(rank, weights=g, minlength=len(breaks))
    suffix_orig = np.concatenate((np.cumsum(per_rank_orig[::-1])[::-1], [0.0]))

    t_hat = estimate.t_hat
    scale = n ** (1.0 / 3.0)
    chunk = (n_boot + jobs - 1) // jobs
    tasks = [
        (lo, min(lo + chunk, n_boot), seed, rank, g, n, t_hat, h_hat, breaks, suffix_orig)
        for lo in range(0, n_boot, chunk)
    ]
    t_boot = np.concatenate(parallel_map(_bootstrap_chunk, tasks, jobs))
    draws = scale * (t_boot - t_hat)
    return BootstrapDistribution(draws=draws, t_hat=t_hat, n=n, n_boot=n_boot, seed=seed)


def swm_ci(
    sample: Sample,
    estimate: ThresholdEstimate,
    nuisance: NuisanceEstimates,
    kernel: Kernel,
    level: float = 0.95,
    mode: str = "bias_corrected",
) -> ConfidenceInterval:
    """Normal interval for the smoothed estimator, bias-corrected or undersmoothed.

    The bias correction removes b_hat = (n sigma)^(-1/2) sqrt(lambda)
    A_hat / H_hat; the undersmoothed mode sets it to zero and requires the
    estimate to have been fitted with an undersmoothed bandwidth rule.
    lambda = n sigma^5 is recovered from the recorded bandwidth.
    """
    if estimate.policy_kind != "swm":
        raise ValidationError(f"swm_ci needs an swm estimate, got {estimate.policy_kind!r}")
    _check_level(level)
    if estimate.bandwidth is None or estimate.bandwidth <= 0:
        raise ValidationError("estimate has no recorded bandwidth")
    if mode not in ("bias_corrected", "undersmoothed"):
        raise ValidationError(f"mode must be 'bias_corrected' or 'undersmoothed', got {mode!r}")
    _require_positive_slope(nuisance.h_hat)
    if nuisance.k_hat < 0:
        raise NumericError(f"K_hat = {nuisance.k_hat} is negative")
    sigma_n = estimate.bandwidth
    n = sample.n
    if mode == "undersmoothed":
        if "undersmoothed" not in estimate.flags:
            raise ValidationError(
                "undersmoothed interval requires an estimate fitted with an "
                "undersmoothed bandwidth rule"
            )
        bias = 0.0
    else:
        lam = n * sigma_n ** 5
        bias = (n * sigma_n) ** (-0.5) * math.sqrt(lam) * nuisance.a_hat / nuisance.h_hat
    z = z_quantile(1.0 - (1.0 - level) / 2.0)
    half_width = (n * sigma_n) ** (-0.5) * math.sqrt(kernel.alpha2 * nuisance.k_hat) / nuisance.h_hat * z
    center = estimate.t_hat
    return ConfidenceInterval(
        lo=center - bias - half_width,
        hi=center - bias + half_width,
        level=level,
        method="swm_bias_corrected" if mode == "bias_corrected" else "swm_undersmoothed",
        center=center,
        half_width=half_width,
        bias_correction=bias,
    )
