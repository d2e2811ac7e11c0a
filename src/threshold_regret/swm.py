"""Smoothed welfare maximizer: kernel-smoothed objective and its optimizer.

The hard indicator in the empirical welfare objective is replaced by a
smooth CDF-like kernel weight,

    S_n(t) = (1/n) * sum_i g_i * k((x_i - t) / sigma),

which is twice continuously differentiable in t and is maximized by a
coarse global grid search followed by a safeguarded Newton iteration on
S_n'(t) = 0 inside the grid bracket of the best point.  The bandwidth
sigma comes from one of four rules: a fixed value, a lambda-rate sequence
sigma = (lambda / n)^(1/5), the plug-in regret-optimal rule, or an
undersmoothed variant of the plug-in rule.

The grid search returns the argmax of the exact objective over the grid
without evaluating it everywhere.  A screen first approximates S_n at every
grid point in O(n + M log M) by linear binning (four sub-cells per grid
step) and one FFT correlation with the sampled kernel (Wand 1994; Fan and
Marron 1994).  The approximation error has a rigorous bound,

    2 * step^2 / (8 sigma^2) * sup|k''| * sum_i |g_i| / n

for sub-cell width ``step``, plus the tails of rows far outside the space
and a rounding slack.  Only the grid points whose approximate value lies
within that bound of the approximate maximum can hold the exact argmax;
they alone are evaluated exactly, so the estimate is the one a full exact
grid gives.  A kernel whose ``k2_sup`` is ``inf`` has every point evaluated.
The bound is written in step / sigma, so an extreme sigma makes it infinite
and keeps every point rather than overflowing.

Exact values of S_n, and S_n' with S_n'' for the Newton steps, are the
kernel's weighted sums in row order (``Kernel.sums``), one form for a batch
of thresholds and for one.  The normal CDF kernel's run compiled, with the
library's own phi and Phi, so a fit has one set of bits on every host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Union

import numpy as np

from .data import ParamSpace, Sample, _ipw_g, default_space
from .errors import NumericError, ValidationError
from .ewm import ThresholdEstimate, fit_ewm
from .kernels import Kernel
from .nuisance import _sd, estimate_khA, optimal_bandwidth

__all__ = [
    "FixedBandwidth",
    "LambdaRate",
    "PlugInOptimal",
    "Undersmoothed",
    "BandwidthRule",
    "smoothed_objective",
    "smoothed_objective_derivative",
    "fit_swm",
]

_GRID_CAP = 100_001
_SUBCELLS = 4  # linear-binning sub-cells per coarse grid step
_TAIL_SIGMAS = 10.0  # rows this many bandwidths outside the space are folded in
_PAD_CAP = 1 << 14  # ... but at most this many sub-cells outside each end
_NEWTON_MAX_STEPS = 100  # a safety net; bisection alone needs about 21


@dataclass(frozen=True)
class FixedBandwidth:
    sigma: float

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValidationError(f"fixed bandwidth must be finite and positive, got {self.sigma}")


@dataclass(frozen=True)
class LambdaRate:
    """sigma_n = (lam / n)^(1/5), the rate of the order-2 kernels."""

    lam: float

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValidationError(f"lambda must be finite and positive, got {self.lam}")


@dataclass(frozen=True)
class PlugInOptimal:
    """Feasible regret-optimal bandwidth from :func:`estimate_khA` at ``t_eval``.

    ``t_eval`` defaults to the EWM threshold.  Where K_hat and A_hat leave the
    rule undefined, the fit flags ``bandwidth_fallback`` and takes sd(x) n^(-1/5).
    """

    t_eval: float | None = None


@dataclass(frozen=True)
class Undersmoothed:
    """Plug-in bandwidth shrunk by an extra n^(-exponent_shrink) factor."""

    exponent_shrink: float = 0.05
    t_eval: float | None = None

    def __post_init__(self):
        if not 0 < self.exponent_shrink < math.inf:
            raise ValidationError(
                f"exponent_shrink must be finite and positive so the total rate beats "
                f"1/5, got {self.exponent_shrink}"
            )


BandwidthRule = Union[FixedBandwidth, LambdaRate, PlugInOptimal, Undersmoothed]


def _smoothed(g, x, kernel, sigma, t, order=0):
    """S_n (order 0), or S_n' and S_n'' together (order 1), from the IPW scores ``g``.

    One value per threshold in ``t`` (a scalar gives arrays of one), from
    :meth:`Kernel.sums`, whose sums run in row order, so a threshold's value
    does not depend on the others it is evaluated with.
    """
    sums = kernel.sums(x, g, sigma, np.atleast_1d(np.asarray(t, dtype=float)), order)
    n = len(x)
    if order == 0:
        return sums[0] / n
    # the second sigma of S_n'' is divided separately, so a tiny sigma gives inf, never 1/0
    return sums[0] / (n * -sigma), sums[1] / (n * sigma) / sigma


def smoothed_objective(sample: Sample, kernel: Kernel, sigma: float, t: float) -> float:
    """Kernel-smoothed sample welfare difference at threshold ``t``."""
    if not sigma > 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    return float(_smoothed(_ipw_g(sample), sample.x, kernel, sigma, t)[0])


def smoothed_objective_derivative(sample: Sample, kernel: Kernel, sigma: float, t: float) -> float:
    """Analytic t-derivative of :func:`smoothed_objective`."""
    if not sigma > 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    return float(_smoothed(_ipw_g(sample), sample.x, kernel, sigma, t, order=1)[0][0])


def _grid_candidates(g, x, kernel, sigma, space, n_pts):
    """Indices of the coarse-grid points that can hold the exact grid argmax.

    Each binned approximation (times n) lies within ``err`` of the exact
    value, so a point more than ``2 err`` below the approximate maximum
    cannot be the argmax.  Rows farther than ``pad`` sub-cells outside the
    space are not binned, which bounds memory; they enter at their limit,
    0 or ``g_i``, and their tail error is added to ``err``.
    """
    n = len(x)
    span = _SUBCELLS * (n_pts - 1)
    step = space.width / span
    pad = math.ceil(min(_TAIL_SIGMAS * sigma / step, _PAD_CAP))
    pos = (x - space.lo) / step
    lowest, highest = float(pos.min()), float(pos.max())
    m0 = min(max(math.floor(lowest), -pad), span)
    m1 = max(min(math.floor(highest) + 1, span + pad), 0)
    abs_g = np.abs(g)
    beyond = not m0 <= lowest <= highest <= m1  # some rows lie farther out than the pad
    g_near, abs_near = g, abs_g
    if beyond:
        left = pos < m0
        right = pos > m1
        near = ~(left | right)
        pos, g_near, abs_near = pos[near], g[near], abs_g[near]

    # linear binning onto the sub-cell nodes m0..m1
    p = pos - m0
    cell = np.minimum(p.astype(np.intp), m1 - m0 - 1)
    w = p - cell
    bins = np.bincount(cell, weights=g_near * (1.0 - w), minlength=m1 - m0 + 1)
    bins += np.bincount(cell + 1, weights=g_near * w, minlength=m1 - m0 + 1)

    # approx[j] = sum_m bins[m] k((m0 + m - _SUBCELLS j) step / sigma), read
    # off the correlation of bins with k sampled at offsets m0 - span .. m1;
    # k at -c and c, the pad's ends, bounds the tails of the rows beyond it
    offsets = np.arange(m0 - span, m1 + 1)
    c = pad * step / sigma
    k_samples = kernel.k(np.concatenate((offsets * step / sigma, [-c, c])))
    size = 1 << (len(offsets) - 1).bit_length()
    corr = np.fft.irfft(
        np.conj(np.fft.rfft(bins, size)) * np.fft.rfft(k_samples[:-2], size), size
    )
    approx = corr[span::-_SUBCELLS]

    h = step / sigma
    err = h * h / 8.0 * kernel.k2_sup * float(np.sum(abs_near))
    if beyond:
        approx = approx + float(np.sum(g[right]))
        k_lo, k_hi = k_samples[-2:]
        err += k_lo * float(np.sum(abs_g[left])) + (1.0 - k_hi) * float(np.sum(abs_g[right]))
    # rounding: FFT and summation error, and the position error of x - t
    # through sup |k'| <= sqrt(k2_sup), which holds for a CDF kernel
    reach = max(abs(space.lo), abs(space.hi)) + space.width + pad * step
    eps = np.finfo(float).eps
    slack = eps * (
        16.0 * (n + size * math.log2(size)) + 8.0 * math.sqrt(kernel.k2_sup) * reach / sigma
    ) * float(np.sum(abs_g))
    # negated so that a NaN or inf from overflowing scores or bounds keeps every point
    return np.flatnonzero(~(approx < approx.max() - (2.0 * err + slack)))


def _newton_max(f, lo: float, hi: float, t: float, tol: float) -> float:
    """Safeguarded Newton iteration on S_n' = 0 for a maximum in [lo, hi], from ``t``.

    ``f(t)`` gives S_n' and S_n'' at t.  Each step moves one end of the
    bracket to ``t`` by the sign of S_n', then takes the Newton step, or
    bisects when that step leaves the bracket, S_n'' >= 0 or either
    derivative is not finite.  Stops once a step is at most tol / 2.
    """
    for _ in range(_NEWTON_MAX_STEPS):
        d1, d2 = f(t)
        if d1 > 0:
            lo = t
        else:
            hi = t
        step = t - d1 / d2 if d2 < 0 else math.nan
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - t) <= 0.5 * tol:
            return step
        t = step
    return t


def _resolve_sigma(sample, kernel, rule, space):
    """Resolve the bandwidth from the rule; returns (sigma, flags)."""
    flags: list[str] = []
    if isinstance(rule, FixedBandwidth):
        return rule.sigma, flags
    if isinstance(rule, LambdaRate):
        return kernel.rate_bandwidth(rule.lam, sample.n), flags
    if not isinstance(rule, (PlugInOptimal, Undersmoothed)):
        raise ValidationError(f"unknown bandwidth rule {rule!r}")
    t_eval = fit_ewm(sample, space).t_hat if rule.t_eval is None else rule.t_eval
    est = estimate_khA(sample, t_eval, kernel)
    try:
        sigma = optimal_bandwidth(est, kernel, sample.n)[1]
    except NumericError:
        sigma = _sd(sample.x) * sample.n ** (-0.2)  # Silverman-type fallback
        flags.append("bandwidth_fallback")
    if isinstance(rule, Undersmoothed):
        sigma *= sample.n ** (-rule.exponent_shrink)
        flags.append("undersmoothed")
    return sigma, flags


def fit_swm(
    sample: Sample,
    kernel: Kernel,
    rule: BandwidthRule,
    space: ParamSpace | None = None,
) -> ThresholdEstimate:
    """Maximize the smoothed welfare objective over the parameter space.

    A coarse grid with at least 201 points (densified to four points per
    bandwidth so modes of width sigma cannot be skipped) locates the global
    mode.  Newton steps on S_n' = 0, started at the best grid point and kept
    inside its two neighbours by bisection, refine it until a step is at most
    half of 1e-8 times the space width.  The best grid point is the
    exact argmax over the grid, found by screening the grid with a binned
    FFT approximation of bounded error and evaluating exactly only the
    points the bound cannot rule out (all of them when ``kernel.k2_sup`` is
    ``inf``); see the module docstring.  IPW score sums that overflow leave
    the objective not finite, which raises NumericError.
    """
    if space is None:
        space = default_space(sample)
    sigma, flags = _resolve_sigma(sample, kernel, rule, space)
    if not 0.0 < sigma < math.inf:
        raise NumericError(f"bandwidth sigma = {sigma} is not finite and positive")

    g = _ipw_g(sample)
    f = partial(_smoothed, g, sample.x, kernel, sigma)

    def slopes(t):
        d1, d2 = f(t, order=1)
        return float(d1[0]), float(d2[0])

    n_pts = max(201, min(math.ceil(min(space.width / sigma, _GRID_CAP)) * 4, _GRID_CAP))
    ts = np.linspace(space.lo, space.hi, n_pts)
    # (x - t) / sigma may overflow at an extreme sigma; the kernel's limits at +-inf are exact.
    # Score sums that overflow are refused below, once the objective is known not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        cand = _grid_candidates(g, sample.x, kernel, sigma, space, n_pts)
        values = f(ts[cand])
        best = int(cand[np.argmax(values)])
        lo = ts[max(best - 1, 0)]
        hi = ts[min(best + 1, n_pts - 1)]
        t_hat = _newton_max(slopes, float(lo), float(hi), float(ts[best]), tol=1e-8 * space.width)
        t_hat = float(space.clamp(t_hat))
        objective_value = float(f(t_hat)[0])
    if not (math.isfinite(values.max()) and math.isfinite(objective_value)):
        raise NumericError(
            f"smoothed objective is not finite (grid maximum {values.max()}, {objective_value} "
            f"at t={t_hat}): the IPW score sums overflow"
        )
    return ThresholdEstimate(
        t_hat=t_hat,
        policy_kind="swm",
        objective_value=objective_value,
        n=sample.n,
        bandwidth=sigma,
        flags=tuple(flags),
    )
