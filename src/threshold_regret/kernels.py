"""Smoothing kernels for the smoothed welfare objective.

A kernel here is a smooth CDF-like weight k with k(-inf) = 0 and
k(+inf) = 1, together with its first two derivatives and the two moment
constants that drive the smoothed estimator's asymptotics:

    alpha1 = integral of zeta^2 * k'(zeta)   (bias moment)
    alpha2 = integral of k'(zeta)^2          (roughness)

and ``k2_sup``, a bound on sup |k''| that lets the SWM optimizer screen its
coarse grid with a binned approximation of provable accuracy.  The two rate
formulas built on these constants live here too: the regret-optimal
lambda* = alpha2 K / (4 A^2) and the bandwidth (lambda / n)^(1/5).

Every kernel has order 2, as in the paper: its bias constant, plug-in
bandwidth and regret law are the order-2 formulas.  The shipped kernel is
the standard normal CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from ._special import ndtr
from .errors import NumericError

__all__ = ["Kernel", "gaussian_cdf_kernel", "norm_pdf"]


def norm_pdf(z):
    """Standard normal density, vectorized."""
    return np.exp(-0.5 * np.square(z)) / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Kernel:
    """CDF-like smoothing weight with derivatives and moment constants.

    ``k2_sup`` bounds sup |k''|; with a finite value the kernel must also be
    non-decreasing (a CDF), which the grid screen in :func:`fit_swm` relies
    on for its tail bounds.  The default ``inf`` disables the screen, so
    every coarse-grid point is evaluated exactly.
    """

    k: Callable[[np.ndarray], np.ndarray]
    k1: Callable[[np.ndarray], np.ndarray]
    k2: Callable[[np.ndarray], np.ndarray]
    alpha1: float
    alpha2: float
    k2_sup: float = math.inf
    h: ClassVar[int] = 2

    def optimal_lambda(self, K: float, A: float) -> float:
        """Regret-optimal rate constant lambda* = alpha2 K / (4 A^2).

        Raises NumericError unless lambda* is finite (A = 0 in particular).
        """
        try:
            lam = self.alpha2 * K / (4.0 * A**2)
        except (OverflowError, ZeroDivisionError):
            lam = math.inf
        if not math.isfinite(lam):
            raise NumericError(f"lambda* = alpha2 K / (4 A^2) is not finite at K={K}, A={A}")
        return lam

    def rate_bandwidth(self, lam: float, n: int) -> float:
        """Bandwidth sigma_n = (lambda / n)^(1/5) of a lambda-rate sequence."""
        return (lam / n) ** 0.2


def _gaussian_k2(z):
    """k''(z) = -z phi(z); z is clipped to +-40, where phi is already 0, so +-inf gives 0."""
    z = np.clip(z, -40.0, 40.0)
    return -z * norm_pdf(z)


def gaussian_cdf_kernel() -> Kernel:
    """Standard normal CDF kernel.

    k' is the normal density phi and k''(z) = -z phi(z); alpha1 = 1 (the
    second moment of phi), alpha2 = 1 / (2 sqrt(pi)) = 0.28209479... and
    sup |k''| = phi(1) = 0.24197072..., attained at z = +-1.
    """
    return Kernel(
        k=ndtr,
        k1=norm_pdf,
        k2=_gaussian_k2,
        alpha1=1.0,
        alpha2=1.0 / (2.0 * math.sqrt(math.pi)),
        k2_sup=math.exp(-0.5) / math.sqrt(2.0 * math.pi),
    )
