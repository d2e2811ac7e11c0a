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
without evaluating it everywhere.  A screen first approximates n S_n at
every grid point by linear binning (Wand 1994; Fan and Marron 1994): each
row's score is split between the two nearest nodes of a sub-cell grid (four
sub-cells per grid step, width ``step``), and the bins are weighted by k at
their offsets from the grid point.  Linear interpolation of k between nodes
errs by at most step^2 / (8 sigma^2) sup|k''| per unit of |g_i|, so each
approximate value lies within

    err = step^2 / (8 sigma^2) * sup|k''| * sum_near |g_i|
          + k(-c) * sum_below |g_i| + (1 - k(c)) * sum_above |g_i|
          [+ max(k(-W), 1 - k(W)) * sum_near |g_i|]

of the exact one, for a CDF kernel (monotone, from 0 to 1).  Rows farther
than ``pad`` sub-cells outside the space (at most 10 sigma, and at most
_PAD_CAP sub-cells) enter at k's limits, 0 below and g_i above, which errs
by at most k(-c) or 1 - k(c) per unit of |g_i|, c = pad step / sigma; the
bracketed term is the compiled screen's (below).  A rounding ``slack`` is
added: eps (16 (n + L) + 8 sqrt(sup|k''|) reach / sigma) sum_i |g_i|, where
L bounds the terms of the weighting's sums (n bounds the bins'), and the
second part covers the position error of x - t through sup|k'| <=
sqrt(sup|k''|), which holds for a CDF kernel, with reach = max(|lo|, |hi|)
+ width + pad step bounding the magnitudes the positions come from.  A point
whose approximate value lies more than 2 err + slack below the approximate
maximum cannot hold the exact argmax; the rest alone are evaluated exactly,
so the estimate is the one a full exact grid gives.  A kernel whose
``k2_sup`` is ``inf`` has every point evaluated.  The bound is written in
step / sigma, so an extreme sigma makes it infinite and keeps every point
rather than overflowing, as a NaN anywhere does.

The screen has two forms with one bound.  The Python pipeline's
(:func:`_numpy_candidates`) correlates the bins with k sampled at every
offset by an FFT, O(n + N log N) for an FFT of length N, with L = N log2 N.
The compiled fit's (``screen`` in ``_kernels.c``) makes one forward pass
over the rows in the order that sorts x (``Sample._x_order``), where the far
rows are a prefix and a suffix, then a windowed direct sum: bins within W =
6 bandwidths of a grid point are weighted by k at their offsets, all taken
in one call of ``kernel.k``, and those beyond enter at k's limits through
suffix sums of the bins, which adds the bracketed term (about 1e-9 of
sum_near |g_i| for the normal CDF) when the window cuts; L is the number of
nodes plus the window's width.  The two may keep different points, never
the exact argmax's.

Exact values of S_n, and S_n' with S_n'' for the Newton steps, are the
kernel's weighted sums in row order (``Kernel.sums``), one form for a batch
of thresholds and for one; a fit binds its rows once (``Kernel.bind``).
The normal CDF kernel's take the library's own phi and Phi, so a fit has
one set of bits on every host.

With the normal CDF kernel, a fit makes one compiled call after its
bandwidth and k's table (``tr_fit_swm`` in ``_kernels.c``).  It lays out
the grid as ``np.linspace`` does, runs the compiled screen, whose bound
and kept points it computes itself, takes S_n at the points kept, their
first argmax, the Newton steps, the clamp and S_n at t_hat, each in the
operation order of the Python pipeline (:func:`_pipeline_fit`), so it
gives the pipeline's bits.  The pipeline runs for other kernels and where
the library does not load, and the compiled fit is checked against it at
load time and in the tests.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Union

import numpy as np

from .data import ParamSpace, Sample, _ipw_g, _require_instance, default_space
from .errors import NumericError, ValidationError
from .ewm import ThresholdEstimate, fit_ewm
from .kernels import Kernel, _kernel, _NormalCdfKernel
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
_WINDOW_SIGMAS = 6.0  # the compiled screen weights the bins this many bandwidths around a point by k
_EPS = float(np.finfo(float).eps)
_NEWTON_MAX_STEPS = 100  # a safety net; bisection alone needs about 21 (NEWTON_MAX_STEPS in _kernels.c)
_ORDER_REFUSAL = "the screen's order must be a permutation that sorts x ascending"


@dataclass(frozen=True)
class FixedBandwidth:
    sigma: float

    def __post_init__(self):
        if not (isinstance(self.sigma, numbers.Real) and 0 < self.sigma < math.inf):
            raise ValidationError(f"fixed bandwidth must be finite and positive, got {self.sigma}")


@dataclass(frozen=True)
class LambdaRate:
    """sigma_n = (lam / n)^(1/5), the rate of the order-2 kernels."""

    lam: float

    def __post_init__(self):
        if not (isinstance(self.lam, numbers.Real) and 0 < self.lam < math.inf):
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
        if not (isinstance(self.exponent_shrink, numbers.Real) and 0 < self.exponent_shrink < math.inf):
            raise ValidationError(
                f"exponent_shrink must be finite and positive so the total rate beats "
                f"1/5, got {self.exponent_shrink}"
            )


BandwidthRule = Union[FixedBandwidth, LambdaRate, PlugInOptimal, Undersmoothed]


def _smoothed(sums, n, sigma, t, order=0):
    """S_n (order 0), or S_n' and S_n'' together (order 1), from ``sums``, a
    kernel's sums over the n rows of x and the IPW scores (:meth:`Kernel.bind`).

    One value per threshold in ``t`` (a scalar gives arrays of one); the sums
    run in row order, so a threshold's value does not depend on the others it
    is evaluated with.
    """
    sums = sums(sigma, np.atleast_1d(np.asarray(t, dtype=float)), order)
    if order == 0:
        return sums[0] / n
    # the second sigma of S_n'' is divided separately, so a tiny sigma gives inf, never 1/0
    return sums[0] / (n * -sigma), sums[1] / (n * sigma) / sigma


def _finite_point(sigma, t):
    """Refuses a bandwidth that is not finite and positive, and a threshold that is not finite."""
    if not 0 < sigma < math.inf:
        raise ValidationError(f"sigma must be finite and positive, got {sigma}")
    if not math.isfinite(t):
        raise ValidationError(f"the threshold t must be finite, got {t}")


def smoothed_objective(sample: Sample, kernel: Kernel, sigma: float, t: float) -> float:
    """Kernel-smoothed sample welfare difference at threshold ``t``."""
    _finite_point(sigma, t)
    return float(_smoothed(kernel.bind(sample.x, _ipw_g(sample)), sample.n, sigma, t)[0])


def smoothed_objective_derivative(sample: Sample, kernel: Kernel, sigma: float, t: float) -> float:
    """Analytic t-derivative of :func:`smoothed_objective`."""
    _finite_point(sigma, t)
    return float(_smoothed(kernel.bind(sample.x, _ipw_g(sample)), sample.n, sigma, t, order=1)[0][0])


def _grid_points(space, sigma):
    """The coarse grid's size: at least 201 points, four per bandwidth, at most _GRID_CAP."""
    return max(201, min(math.ceil(min(space.width / sigma, _GRID_CAP)) * 4, _GRID_CAP))


def _layout(sigma, space, n_pts):
    """The screen's sub-cells: their count ``span`` across the space, their width
    ``step`` and ``pad``, how many of them are binned outside each end.

    Refuses a space so narrow that the width underflows to 0 (so the grid's
    own step is positive wherever this passes).
    """
    span = _SUBCELLS * (n_pts - 1)
    step = space.width / span
    if not step > 0:
        raise ValidationError(f"the parameter space [{space.lo}, {space.hi}] is too narrow for a grid of {n_pts} "
                              f"points: its width / {span} underflows to 0")
    return span, step, math.ceil(min(_TAIL_SIGMAS * sigma / step, _PAD_CAP))


def _nodes(lowest, highest, span, pad):
    """The nodes m0 < m1 that rows from sub-cell position ``lowest`` to
    ``highest`` are binned onto, at most ``pad`` sub-cells outside the space;
    two at least, when every row lies past one end."""
    m0 = math.floor(min(max(lowest, -pad), span))
    return m0, max(math.floor(min(max(highest, -1), span + pad - 1)) + 1, m0 + 1)


def _slack_rate(kernel, sigma, space, step, pad, terms):
    """A screen's rounding slack per unit of sum_i |g_i|: the summation error of
    ``terms`` terms, and the position error of x - t through sup |k'| <=
    sqrt(k2_sup), which holds for a CDF kernel, at magnitudes up to the
    space's and the pad's reach."""
    reach = max(abs(space.lo), abs(space.hi)) + space.width + pad * step
    return _EPS * (16.0 * terms + 8.0 * math.sqrt(kernel.k2_sup) * reach / sigma)


def _kept(approx, err, slack):
    """The grid points whose binned value is within 2 err + slack of the binned
    maximum; negated so that a NaN or inf from overflowing scores or bounds
    keeps every point.  The compiled screen keeps its points by the same rule."""
    return np.flatnonzero(~(approx < approx.max() - (2.0 * err + slack)))


def _compiled_fit(fit, g, x, order, kernel, sigma, space, n_pts):
    """``tr_fit_swm``'s record: t_hat, S_n there and the grid maximum (the
    compiled screen, then :func:`_pipeline_fit` with the normal CDF kernel's
    sums, in one call and with the same bits), the number of grid points the
    screen kept, its n_pts binned values, err and slack, as one array.

    The screen weights the bins within _WINDOW_SIGMAS bandwidths of a grid
    point by k at their offsets, which this takes in one call of
    ``kernel.k``, with k at the pad's and the window's ends, which bound the
    tails; it passes err's binning term and the slack per unit of |g| (see
    ``screen`` in ``_kernels.c``).  Refuses x, g and ``order`` of other
    shapes, and an order that is not a permutation sorting x.
    """
    x, g = (np.ascontiguousarray(a, dtype=float) for a in (x, g))
    order = np.ascontiguousarray(order, dtype=np.int64)
    n = len(x)
    if x.ndim != 1 or g.shape != x.shape or order.shape != x.shape or not n:
        raise ValidationError(f"the screen needs x, g and its order of one nonzero length, "
                              f"got shapes {x.shape}, {g.shape} and {order.shape}")
    if not (0 <= order[0] < n and 0 <= order[-1] < n):
        raise ValidationError(_ORDER_REFUSAL)
    span, step, pad = _layout(sigma, space, n_pts)
    m0, m1 = _nodes((x[order[0]] - space.lo) / step, (x[order[-1]] - space.lo) / step, span, pad)
    full = max(span - m0, m1)  # the farthest offset of a node from a grid point
    reach = _WINDOW_SIGMAS * sigma / step
    w = int(reach) + 2 if reach < full - 2 else full
    d_lo, c = max(m0 - span, -w), pad * step / sigma
    # k at the window's offsets, then at the pad's and the window's ends
    z = np.arange(d_lo, min(m1, w) + 5, dtype=float)
    z *= step
    z /= sigma
    z[-4:] = -c, c, -_WINDOW_SIGMAS, _WINDOW_SIGMAS
    # k's table, then the record: the three results, the count kept, the binned values, err and slack; then the
    # screen's scratch of 2 (m1 - m0) + 3 doubles and n bytes
    buf = np.empty(len(z) + n_pts + 6 + 2 * (m1 - m0) + 3 + -(-n // 8))
    table = len(z)
    buf[:table] = kernel.k(z)
    h = step / sigma
    rate = _slack_rate(kernel, sigma, space, step, pad, n + m1 - m0 + 2 * w + 3)
    at = buf.ctypes.data
    if fit(x.ctypes.data, g.ctypes.data, order.ctypes.data, n, sigma, space.lo, space.hi, step, n_pts, _SUBCELLS,
           m0, m1, w, h * h / 8.0 * kernel.k2_sup, rate, at, at + 8 * table) < 0:
        raise ValidationError(_ORDER_REFUSAL)
    return buf[table : table + n_pts + 6]


def _numpy_candidates(g, x, kernel, sigma, space, n_pts):
    """The screen in numpy, by linear binning and one FFT correlation.

    Each binned approximation (times n) lies within ``err`` of the exact
    value, so a point more than ``2 err`` below the approximate maximum
    cannot be the argmax.  Rows farther than ``pad`` sub-cells outside the
    space are not binned: their contribution is taken at the kernel's limits,
    0 or ``g_i``, and their tail error is added to ``err``.
    """
    n = len(x)
    span, step, pad = _layout(sigma, space, n_pts)
    pos = (x - space.lo) / step
    lowest, highest = float(pos.min()), float(pos.max())
    m0, m1 = _nodes(lowest, highest, span, pad)
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
    # the FFT's rounding grows as size log2 size
    slack = _slack_rate(kernel, sigma, space, step, pad, n + size * math.log2(size)) * float(np.sum(abs_g))
    return _kept(approx, err, slack)


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


def _slopes(f, t):
    """S_n' and S_n'' at t, from ``f``, a partial :func:`_smoothed`."""
    d1, d2 = f(t, order=1)
    return float(d1[0]), float(d2[0])


def _pipeline_fit(sums, n, sigma, space, cand, n_pts):
    """The fit after the screen, in Python: S_n at the screen's candidates
    ``cand`` of the grid ``np.linspace(space.lo, space.hi, n_pts)`` from
    ``sums``, the kernel's sums over the n rows (:meth:`Kernel.bind`); the
    first of their argmaxes; Newton steps from it inside its two neighbours;
    the result clamped to the space.  Returns t_hat, S_n at t_hat and the
    grid maximum (NaN where a value is NaN).  ``tr_fit_swm`` repeats it
    operation for operation.
    """
    f = partial(_smoothed, sums, n, sigma)
    ts = np.linspace(space.lo, space.hi, n_pts)
    values = f(ts[cand])
    best = int(cand[np.argmax(values)])
    lo, hi = ts[max(best - 1, 0)], ts[min(best + 1, n_pts - 1)]
    t_hat = _newton_max(partial(_slopes, f), float(lo), float(hi), float(ts[best]), tol=1e-8 * space.width)
    t_hat = float(space.clamp(t_hat))
    return t_hat, float(f(t_hat)[0]), float(values.max())


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
    half of 1e-8 times the space width.  The best grid point is the exact
    argmax over the grid, found by screening the grid with a binned
    approximation of bounded error and evaluating exactly only the points
    the bound cannot rule out (all of them when ``kernel.k2_sup`` is
    ``inf``); see the module docstring.  With the shipped normal CDF kernel (its class, which
    ``dataclasses.replace`` keeps), everything after the bandwidth and the
    table of ``kernel.k`` runs in one compiled call, ``tr_fit_swm``, once it
    has loaded and passed its check; it gives the bits of the Python
    pipeline (:func:`_pipeline_fit`), which runs for other kernels and where
    the library does not load.  A space whose width over the screen's
    sub-cells underflows to 0 raises ValidationError.  IPW score sums that
    overflow leave the objective not finite, which raises NumericError.
    """
    _require_instance("sample", sample, Sample)
    _require_instance("kernel", kernel, Kernel)
    if space is None:
        space = default_space(sample)
    _require_instance("space", space, ParamSpace)
    sigma, flags = _resolve_sigma(sample, kernel, rule, space)
    if not 0.0 < sigma < math.inf:
        raise NumericError(f"bandwidth sigma = {sigma} is not finite and positive")

    g = _ipw_g(sample)
    n_pts = _grid_points(space, sigma)
    fit = _kernel("tr_fit_swm") if isinstance(kernel, _NormalCdfKernel) else None
    # (x - t) / sigma may overflow at an extreme sigma; the kernel's limits at +-inf are exact.
    # Score sums that overflow are refused below, once the objective is known not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        if fit is None:
            cand = _numpy_candidates(g, sample.x, kernel, sigma, space, n_pts)
            t_hat, objective_value, peak = _pipeline_fit(kernel.bind(sample.x, g), sample.n, sigma, space, cand,
                                                         n_pts)
        else:
            t_hat, objective_value, peak = _compiled_fit(fit, g, sample.x, sample._x_order, kernel, sigma, space,
                                                         n_pts)[:3].tolist()
    if not (math.isfinite(peak) and math.isfinite(objective_value)):
        raise NumericError(
            f"smoothed objective is not finite (grid maximum {peak}, {objective_value} "
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
