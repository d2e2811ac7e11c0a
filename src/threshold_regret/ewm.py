"""Empirical welfare maximizer: exact threshold search via sorted suffix sums.

The sample welfare objective is piecewise constant in the threshold, so it
only needs to be evaluated at n + 1 canonical cuts: below the smallest index
value, between each pair of adjacent order statistics, and above the largest.
A single sorted pass with compensated suffix sums of the IPW scores gives all
cut values in O(n log n); the argmax set is an interval whose midpoint is
returned as the point estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ParamSpace, Sample, default_space, ipw_scores
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


def fit_ewm(sample: Sample, space: ParamSpace | None = None) -> ThresholdEstimate:
    """Maximize the empirical welfare over all realizable threshold cuts.

    Cut ``j`` treats exactly the ``n - j`` units with the largest index
    values; its objective is the mean untreated term plus the suffix sum of
    sorted IPW scores from ``j`` on.  Cuts falling between tied index values
    are not realizable by any real threshold and are skipped.  Exact ties in
    the objective are resolved toward the interval with the smallest
    midpoint, with adjacent tied cuts merged into one convex interval.
    """
    if space is None:
        space = default_space(sample)
    scores = ipw_scores(sample)
    order = scores.x_sorted_order
    xs = sample.x[order]
    gs = scores.g[order]
    n = sample.n

    untreated_term = (1.0 - sample.d) * sample.y / (1.0 - sample.propensity)
    try:
        base = math.fsum(untreated_term) / n
    except OverflowError:  # finite terms whose partial sums overflow
        base = math.inf
    suffix = _compensated_suffix_sums(gs)

    # realizable cuts: below min x, above max x, and between distinct neighbors
    valid = np.ones(n + 1, dtype=bool)
    valid[1:n] = xs[1:] > xs[:-1]
    cut_ids = np.flatnonzero(valid)
    values = base + suffix[cut_ids] / n

    flags: tuple[str, ...] = ()
    if xs[0] == xs[-1]:
        flags = ("degenerate_index",)

    vmax = values.max()
    if not math.isfinite(vmax):  # NaN anywhere, or +inf: the sums overflowed
        raise NumericError("EWM objective is not finite: the IPW terms overflow their sum")
    tied = np.flatnonzero(values == vmax)
    # consecutive valid cuts always share a boundary (zero-width skipped cuts
    # between tied x), so a run of ties in the valid list is one convex set
    run_end = tied[0]
    for k in range(1, len(tied)):
        if tied[k] == run_end + 1:
            run_end = tied[k]
        else:
            break
    first_cut = int(cut_ids[tied[0]])
    last_cut = int(cut_ids[run_end])

    lo = space.lo if first_cut == 0 else float(xs[first_cut - 1])
    hi = space.hi if last_cut == n else float(xs[last_cut])
    t_hat = space.clamp(0.5 * (lo + hi))

    return ThresholdEstimate(
        t_hat=t_hat,
        policy_kind="ewm",
        objective_value=float(vmax),
        n=n,
        maximizing_interval=(lo, hi),
        flags=flags,
    )
