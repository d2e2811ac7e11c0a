"""Empirical welfare maximizer: exact threshold search via sorted suffix sums.

The sample welfare objective is piecewise constant in the threshold, so it
only needs to be evaluated at n + 1 canonical cuts: below the smallest index
value, between each pair of adjacent order statistics, and above the largest.
A single pass over x's sorting order (which ``Sample`` takes once) with
compensated suffix sums of the IPW scores gives all cut values in O(n); the
argmax set is an interval whose midpoint is returned as the point estimate.

A cut's value is the untreated terms' mean, their exact sum (``math.fsum``
in row order) over n, plus the suffix sum of the scores from the cut over n.
``tr_fit_ewm`` in ``_kernels.c`` makes the maximum and its first run of
tied cuts in one call on the sample's own arrays, with fsum's algorithm
transcribed and the suffix sums' Neumaier recurrence, so its bits are those
of the numpy body (:func:`_numpy_cuts`), which runs where the call does not
load and is its oracle.  Python keeps the space, the interval's ends, the
clamp, the flags and every refusal.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from .data import ParamSpace, Sample, _fsum_rows, _ipw_g, _require_instance, default_space
from .errors import NumericError, ValidationError

__all__ = ["ThresholdEstimate", "fit_ewm"]


@dataclass(frozen=True)
class ThresholdEstimate:
    """A fitted threshold with estimator metadata.

    ``maximizing_interval`` is the convex argmax set (EWM only); ``bandwidth``
    is the smoothing bandwidth actually used (SWM only).  ``flags`` carries
    non-fatal warnings such as ``"degenerate_index"`` or
    ``"bandwidth_fallback"``.
    """

    t_hat: float
    policy_kind: str
    objective_value: float
    n: int
    maximizing_interval: tuple[float, float] | None = None
    bandwidth: float | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.policy_kind not in ("ewm", "swm"):
            raise ValidationError(f"policy_kind must be 'ewm' or 'swm', got {self.policy_kind!r}")


def _compensated_suffix_sums(values: np.ndarray) -> np.ndarray:
    """Neumaier-compensated suffix sums; entry j is sum(values[j:]), entry n is 0.

    The running total is a sequential ``cumsum`` of the reversed values from
    0, each step's rounding error comes from the total before and after it,
    and the errors are summed by a second ``cumsum``: the same operations, in
    the same order, as the scalar recurrence.
    """
    v = np.concatenate(([0.0], values[::-1]))
    total = np.cumsum(v)
    prev, cur, v = total[:-1], total[1:], v[1:]
    err = np.where(np.abs(prev) >= np.abs(v), (prev - cur) + v, (v - cur) + prev)
    return (total + np.cumsum(np.concatenate(([0.0], err))))[::-1]


def _numpy_cuts(sample: Sample) -> tuple[float, int, int]:
    """The objective's maximum over the realizable cuts, and the first and
    last cut of the first run of cuts that reach it, in numpy; (vmax, -1, -1)
    where vmax is not finite.  ``tr_fit_ewm`` repeats it bit for bit."""
    order, n = sample._x_order, sample.n
    xs, gs = sample.x[order], _ipw_g(sample)[order]
    untreated_term = (1.0 - sample.d) * sample.y / (1.0 - sample.propensity)
    try:
        base = _fsum_rows(untreated_term) / n
    except OverflowError:  # finite terms whose partial sums overflow
        base = math.inf

    # realizable cuts: below min x, above max x, and between distinct neighbors
    valid = np.ones(n + 1, dtype=bool)
    valid[1:n] = xs[1:] > xs[:-1]
    cut_ids = np.flatnonzero(valid)
    # sums that overflow give inf or NaN here, and are refused by fit_ewm
    with np.errstate(over="ignore", invalid="ignore"):
        values = base + _compensated_suffix_sums(gs)[cut_ids] / n
    vmax = float(values.max())
    if not math.isfinite(vmax):  # NaN anywhere, or +inf
        return vmax, -1, -1
    tied = np.flatnonzero(values == vmax)
    # consecutive valid cuts always share a boundary (zero-width skipped cuts
    # between tied x), so a run of ties in the valid list is one convex set
    run_end = tied[0]
    for k in range(1, len(tied)):
        if tied[k] == run_end + 1:
            run_end = tied[k]
        else:
            break
    return vmax, int(cut_ids[tied[0]]), int(cut_ids[run_end])


def _compiled_cuts(fit, sample: Sample) -> tuple[float, int, int]:
    """:func:`_numpy_cuts` by ``tr_fit_ewm`` (``fit``), in one call on the
    sample's own rows and order, by address (see ``_native``)."""
    cuts = (ctypes.c_int64 * 2)()
    vmax = fit(sample.y.ctypes.data, sample.d.ctypes.data, sample.propensity.ctypes.data, sample.x.ctypes.data,
               sample._x_order.ctypes.data, sample.n, cuts)
    return vmax, cuts[0], cuts[1]


def fit_ewm(sample: Sample, space: ParamSpace | None = None) -> ThresholdEstimate:
    """Maximize the empirical welfare over all realizable threshold cuts.

    Cut ``j`` treats exactly the ``n - j`` units with the largest index
    values; its objective is the mean untreated term plus the suffix sum of
    sorted IPW scores from ``j`` on.  Cuts falling between tied index values
    are not realizable by any real threshold and are skipped.  Exact ties in
    the objective are resolved toward the interval with the smallest
    midpoint, with adjacent tied cuts merged into one convex interval.

    The maximum and its first run of cuts come from one call of
    ``tr_fit_ewm`` once it has loaded and passed its check, else from the
    numpy body (:func:`_numpy_cuts`), with the same bits.  A ``sample`` that
    is not a :class:`Sample` or a ``space`` that is not a
    :class:`ParamSpace` raises ValidationError; scores whose sums overflow
    leave the objective not finite, which raises NumericError.
    """
    from . import _native

    _require_instance("sample", sample, Sample)
    if space is None:
        space = default_space(sample)
    _require_instance("space", space, ParamSpace)
    fit = _native.kernel("tr_fit_ewm")
    vmax, first_cut, last_cut = _numpy_cuts(sample) if fit is None else _compiled_cuts(fit, sample)
    if not math.isfinite(vmax):  # NaN anywhere, or +inf: the sums overflowed
        raise NumericError("EWM objective is not finite: the IPW terms overflow their sum")

    x, order, n = sample.x, sample._x_order, sample.n
    lo = space.lo if first_cut == 0 else float(x[order[first_cut - 1]])
    hi = space.hi if last_cut == n else float(x[order[last_cut]])
    return ThresholdEstimate(
        t_hat=space.clamp(0.5 * (lo + hi)),
        policy_kind="ewm",
        objective_value=vmax,
        n=n,
        maximizing_interval=(lo, hi),
        flags=("degenerate_index",) if x[order[0]] == x[order[-1]] else (),
    )
