"""Asymptotic regret laws for both threshold policies.

The unsmoothed policy's regret, scaled by n^(2/3), converges to

    (2 K^2 / H)^(1/3) * Z^2,    Z = argmax(B(r) - r^2),

and the smoothed policy's regret, scaled by n * sigma_n, to

    (alpha2 K / 2H) * chi^2(1, lambda A^2 / (alpha2 K)),

a noncentral chi-squared law with one degree of freedom.  Both are exposed
through one parameterized :class:`RegretDistribution` with exact means.  Z
quantiles come from an injected :class:`ChernoffTable` (never regenerated
silently, so every number in a report is traceable to a seed); noncentral
chi-squared quantiles are exact, from ``scipy.special.chndtrix`` (solved
by bisection on the closed-form CDF where it gives NaN, at noncentralities
past about 1e11), and use no simulation and no seed.

Every law rejects constants it cannot describe (K or H not finite and
positive, A not finite, n < 1) with a ``ValidationError`` and raises
``NumericError`` when a scale, mean or quantile comes out non-finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import chndtrix
from .chernoff import ChernoffTable, _linear_quantile
from .errors import NumericError, ValidationError
from .kernels import Kernel

__all__ = [
    "RegretDistribution",
    "ewm_regret_dist",
    "swm_regret_dist",
    "optimal_lambda_mean",
    "asymptotic_row",
]


def _check_constants(K: float, H: float, A: float, n: int) -> None:
    if not (0.0 < K < math.inf and 0.0 < H < math.inf):
        raise ValidationError(f"K and H must be finite and positive, got K={K}, H={H}")
    if not math.isfinite(A):
        raise ValidationError(f"A must be finite, got {A}")
    if not n >= 1:
        raise ValidationError(f"n must be >= 1, got {n}")


def _finite(name: str, compute) -> float:
    """Value of ``compute()``; NumericError if it overflows or is not finite and positive."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise NumericError(f"regret law {name} is {value}, not a finite positive number")
    return value


def _noncentral_chi2_quantile(q: float, nc: float) -> float:
    """Quantile q of the noncentral chi-squared law with one degree of freedom.

    ``chndtrix``'s value wherever it has one.  From a noncentrality of about
    1e11 it returns NaN; there the quantile is s^2 for the least double s
    with Phi(s - sqrt nc) - Phi(-s - sqrt nc) >= q, found by bisection with
    Phi from ``math.erfc``.
    """
    x = float(chndtrix(q, 1, nc))
    if not (math.isnan(x) and math.isfinite(nc)):
        return x
    mu = math.sqrt(nc)

    def cdf(s):
        return 0.5 * (math.erfc((mu - s) / math.sqrt(2.0)) - math.erfc((s + mu) / math.sqrt(2.0)))

    # Phi(-40) underflows to 0 and Phi(40) rounds to 1, so the root lies in between
    lo, hi = max(0.0, mu - 40.0), mu + 40.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return hi * hi


@dataclass(frozen=True)
class RegretDistribution:
    """A scaled asymptotic regret law exposing mean, median, and quantiles.

    ``kind`` is "ewm" (scale times Z^2) or "swm" (scale times a noncentral
    chi-squared with one degree of freedom); ``scale`` and ``noncentrality``
    pin the law and ``mean`` is exact.  EWM quantiles are those of the
    Chernoff table's Z^2 draws; SWM quantiles are exact.
    """

    kind: str
    n: int
    scale: float
    noncentrality: float
    mean: float
    sigma_n: float | None = None
    _z_squared: np.ndarray | None = None

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValidationError(f"quantile level must lie in (0, 1), got {q}")
        if self.kind == "ewm":
            value = self.scale * _linear_quantile(self._z_squared, q)
        else:
            value = self.scale * _noncentral_chi2_quantile(q, self.noncentrality)
        if not math.isfinite(value):
            raise NumericError(f"{self.kind} regret quantile {q} is not finite ({value})")
        return value

    @property
    def median(self) -> float:
        return self.quantile(0.5)


def ewm_regret_dist(K: float, H: float, n: int, chernoff: ChernoffTable) -> RegretDistribution:
    """Law of n^(-2/3) (2 K^2 / H)^(1/3) Z^2 with Z^2 moments from the table."""
    _check_constants(K, H, 0.0, n)
    scale = _finite("scale", lambda: n ** (-2.0 / 3.0) * (2.0 * K**2 / H) ** (1.0 / 3.0))
    c_e = 2.0 ** (1.0 / 3.0) * chernoff.second_moment
    mean = _finite("mean", lambda: n ** (-2.0 / 3.0) * K ** (2.0 / 3.0) * H ** (-1.0 / 3.0) * c_e)
    return RegretDistribution(
        kind="ewm",
        n=n,
        scale=scale,
        noncentrality=0.0,
        mean=mean,
        _z_squared=chernoff.samples**2,
    )


def swm_regret_dist(
    K: float,
    H: float,
    A: float,
    lam: float,
    kernel: Kernel,
    n: int,
    sigma_n: float | None = None,
) -> RegretDistribution:
    """Law of (n sigma_n)^(-1) (alpha2 K / 2H) chi^2(1, lambda A^2 / (alpha2 K)).

    By default sigma_n = (lambda / n)^(1/5); lambda = 0 (the
    undersmoothed, central case) requires an explicit sigma_n since the rate
    formula degenerates.
    """
    _check_constants(K, H, A, n)
    if not lam >= 0:
        raise ValidationError(f"lambda must be nonnegative, got {lam}")
    if sigma_n is None:
        if lam == 0.0:
            raise ValidationError("lambda = 0 needs an explicit sigma_n (undersmoothed case)")
        sigma_n = kernel.rate_bandwidth(lam, n)
    if not sigma_n > 0:
        raise ValidationError(f"sigma_n must be positive, got {sigma_n}")
    alpha2 = kernel.alpha2
    scale = _finite("scale", lambda: (alpha2 * K) / (2.0 * H) / (n * sigma_n))
    try:
        noncentrality = lam * A**2 / (alpha2 * K)
    except OverflowError:
        raise NumericError(f"noncentrality lambda A^2 / (alpha2 K) overflows at A={A}") from None
    mean = _finite("mean", lambda: scale * (1.0 + noncentrality))
    return RegretDistribution(
        kind="swm", n=n, scale=scale, noncentrality=noncentrality, mean=mean, sigma_n=sigma_n
    )


def optimal_lambda_mean(K: float, H: float, A: float, kernel: Kernel, n: int) -> float:
    """Mean of the smoothed policy's asymptotic regret at the optimal lambda.

    Closed form n^(-4/5) A^(2/5) K^(4/5) H^(-1) C_s with
    C_s = (5/2) (alpha2 / 4)^(4/5); equal, within a few ulp, to the mean of
    :func:`swm_regret_dist` at lambda* = alpha2 K / (4 A^2).
    """
    if A == 0:
        raise ValidationError("optimal lambda undefined at A = 0")
    _check_constants(K, H, A, n)
    c_s = 2.5 * (kernel.alpha2 / 4) ** 0.8
    return _finite("mean", lambda: n ** (-0.8) * abs(A) ** 0.4 * K**0.8 / H * c_s)


def asymptotic_row(
    model: str, K: float, H: float, A: float, n: int, chernoff: ChernoffTable, kernel: Kernel
) -> dict:
    """Report row of both policies' asymptotic mean and median regret at n.

    The smoothed policy is taken at its regret-optimal lambda*, its mean and
    median from the one law :func:`swm_regret_dist` gives there; at A = 0,
    where lambda* is undefined, its cells are None.
    """
    ewm_dist = ewm_regret_dist(K, H, n, chernoff)
    row = {
        "model": model,
        "n": n,
        "ewm_mean": ewm_dist.mean,
        "ewm_median": ewm_dist.median,
        "swm_mean": None,
        "swm_median": None,
        "K": K,
        "H": H,
        "A": A,
    }
    if A != 0:
        swm_dist = swm_regret_dist(K, H, A, kernel.optimal_lambda(K, A), kernel, n)
        row["swm_mean"] = swm_dist.mean
        row["swm_median"] = swm_dist.median
    return row

