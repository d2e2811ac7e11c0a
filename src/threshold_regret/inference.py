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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import erfinv
from ._workers import parallel_map, require_int
from .chernoff import ChernoffTable, chernoff_quantile
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
        q_lo = float(np.quantile(self.draws, alpha / 2.0))
        q_hi = float(np.quantile(self.draws, 1.0 - alpha / 2.0))
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


def _bootstrap_chunk(args):
    """Exact maximizers of the reshaped-bootstrap criteria of replicates lo..hi-1.

    Each criterion is a step function of t (jumps only at observed index
    values) minus the quadratic penalty 0.5 H_hat (t - t_hat)^2, so on each
    inter-breakpoint segment the maximizer is t_hat clamped to the segment;
    evaluating every segment makes the search exact.  The candidates and
    their penalties do not depend on the draw and are computed once.
    """
    lo, hi, seed, rank, g, n, t_hat, h_hat, breaks, suffix_orig = args
    # candidate thresholds: t_hat clamped into each segment
    # segment j covers [breaks[j-1], breaks[j]) with open ends at both sides
    cand = np.empty(len(breaks) + 1)
    cand[0] = min(t_hat, breaks[0])
    cand[-1] = max(t_hat, breaks[-1])
    cand[1:-1] = np.clip(t_hat, breaks[:-1], breaks[1:])
    penalty = 0.5 * h_hat * (cand - t_hat) ** 2
    suffix = np.zeros(len(breaks) + 1)
    values = np.empty(len(breaks) + 1)
    out = np.empty(hi - lo)
    for b in range(lo, hi):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        idx = rng.integers(0, n, n)
        per_rank = np.bincount(rank[idx], weights=g[idx], minlength=len(breaks))
        # suffix sums of the resampled scores; the trailing 0 stays in place
        np.cumsum(per_rank[::-1], out=suffix[-2::-1])
        np.subtract(suffix, suffix_orig, out=values)
        values /= n
        values -= penalty
        out[b - lo] = cand[np.argmax(values)]
    return out


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
    breaks = np.unique(sample.x)
    if len(breaks) < 2:
        raise ValidationError("bootstrap needs at least two distinct index values")
    rank = np.searchsorted(breaks, sample.x)
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
    lambda = n sigma^(2h+1) is recovered from the recorded bandwidth.
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
        lam = n * sigma_n ** (2 * kernel.h + 1)
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
