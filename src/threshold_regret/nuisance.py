"""Plug-in estimation of the asymptotic constants K, H, A.

K scales the noise in both threshold estimators, H is the curvature of the
welfare function at its peak, and A is the smoothing-bias constant of the
smoothed estimator.  All three are density-weighted local functionals of the
conditional outcome moments at a threshold, estimated here by a Gaussian
kernel density estimate together with per-arm local polynomial regressions:

    K_hat = f_hat(t) * (kappa1_hat(t) / p + kappa0_hat(t) / (1 - p))
    H_hat = f_hat(t) * (nu1'_hat(t) - nu0'_hat(t))
    A_hat = -(alpha1 / 2) * [ 2 f'_hat(t) (nu1'_hat - nu0'_hat)
                              + f_hat(t) (nu1''_hat - nu0''_hat) ]

where kappa_j is the conditional second moment of the arm-j outcome and
nu_j its conditional mean.  The feasible regret-optimal bandwidth follows as
lambda* = alpha2 K_hat / (4 A_hat^2), sigma* = (lambda*/n)^(1/5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Sample
from .errors import ArmDataError, NumericError, RankDeficiencyError, ValidationError
from .kernels import Kernel, gaussian_cdf_kernel, norm_pdf

__all__ = ["NuisanceEstimates", "kde", "local_poly", "estimate_khA", "optimal_bandwidth"]

# Rule-of-thumb bandwidths.  The density level uses Silverman's n^(-1/5)
# rate; density-derivative and regression-derivative estimates use the
# slower rates appropriate for their derivative order, so their errors
# still shrink with n.
_KDE_LEVEL_FACTOR = 1.06
_KDE_DERIV_FACTOR = 1.06
_REG_LEVEL_FACTOR = 1.06
_REG_DERIV_FACTOR = 1.5 * 1.06
_MIN_EFFECTIVE = 10.0


@dataclass(frozen=True)
class NuisanceEstimates:
    """Plug-in values of (K, H, A) at a threshold, with the bandwidths used."""

    k_hat: float
    h_hat: float
    a_hat: float
    eval_point: float
    kde_bandwidth: float
    reg_bandwidth: float


def kde(x: np.ndarray, point: float, bandwidth: float, derivative: int = 0) -> float:
    """Gaussian kernel estimate of the density (or its first derivative) at a point."""
    x = np.asarray(x, dtype=float)
    if not bandwidth > 0:
        raise ValidationError(f"bandwidth must be positive, got {bandwidth}")
    if len(x) < 5:
        raise ValidationError(f"kde needs at least 5 observations, got {len(x)}")
    if derivative not in (0, 1):
        raise ValidationError(f"derivative must be 0 or 1, got {derivative}")
    u = (x - point) / bandwidth
    w = norm_pdf(u)
    if derivative == 0:
        return float(np.mean(w)) / bandwidth
    return float(np.mean(u * w)) / bandwidth**2


def local_poly(
    x: np.ndarray,
    y: np.ndarray,
    point: float,
    bandwidth: float,
    degree: int,
    derivative: int,
) -> float:
    """Local polynomial regression derivative estimate at a point.

    Weighted least squares of y on the polynomial basis centered at
    ``point`` with Gaussian weights; returns ``derivative! *`` the
    coefficient of the derivative-th term, mapped back to x units.
    """
    if derivative > degree:
        raise ValidationError(f"derivative {derivative} exceeds degree {degree}")
    beta = _local_poly_fit(x, y, point, bandwidth, degree)
    return _poly_derivative(beta, derivative, bandwidth)


def _local_poly_fit(x, y, point: float, bandwidth: float, degree: int) -> np.ndarray:
    """Coefficients of the Gaussian-weighted local polynomial in ``(x - point) / bandwidth``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not bandwidth > 0:
        raise ValidationError(f"bandwidth must be positive, got {bandwidth}")
    if len(x) < degree + 2:
        raise RankDeficiencyError(
            f"local polynomial of degree {degree} needs at least {degree + 2} points, got {len(x)}"
        )
    u = (x - point) / bandwidth
    w = norm_pdf(u)
    sw = np.sqrt(w)
    design = sw[:, None] * np.vander(u, degree + 1, increasing=True)
    beta, _, rank, _ = np.linalg.lstsq(design, sw * y, rcond=None)
    if rank < degree + 1:
        raise RankDeficiencyError(
            f"rank-deficient local fit at point {point} (rank {rank} < {degree + 1}); "
            f"too little data within bandwidth {bandwidth}"
        )
    return beta


def _poly_derivative(beta: np.ndarray, derivative: int, bandwidth: float) -> float:
    """The derivative-th derivative at the centre of a local fit, in x units."""
    return math.factorial(derivative) * float(beta[derivative]) / bandwidth**derivative


def _effective_count(x: np.ndarray, point: float, bandwidth: float) -> float:
    """Number of full-weight-equivalent observations near the point."""
    u = (np.asarray(x, dtype=float) - point) / bandwidth
    return float(np.sum(norm_pdf(u))) / norm_pdf(0.0)


def _sd(x: np.ndarray) -> float:
    s = float(np.std(x))
    return s if s > 0 else 1.0


def _local_propensity(sample: Sample, point: float, bandwidth: float) -> float:
    """Kernel-weighted propensity at the point; exact for constant designs."""
    w = norm_pdf((sample.x - point) / bandwidth)
    total = float(np.sum(w))
    if total <= 0:
        return float(np.mean(sample.propensity))
    return float(np.dot(w, sample.propensity)) / total


def estimate_khA(sample: Sample, t_eval: float, kernel: Kernel | None = None) -> NuisanceEstimates:
    """Estimate (K, H, A) at ``t_eval`` from one experimental sample.

    Conditional second moments kappa_j use local linear fits; conditional
    mean derivatives nu_j' and nu_j'' use local cubic fits, which are exact
    for polynomial conditional means up to degree three and keep the
    second-derivative estimate from dominating the bias of A_hat.
    """
    if not math.isfinite(t_eval):
        raise ValidationError(f"t_eval must be finite, got {t_eval}")
    if kernel is None:
        kernel = gaussian_cdf_kernel()
    n = sample.n
    x = sample.x
    sd = _sd(x)
    bw_f = _KDE_LEVEL_FACTOR * sd * n ** (-1.0 / 5.0)
    bw_fd = _KDE_DERIV_FACTOR * sd * n ** (-1.0 / 7.0)
    f_hat = kde(x, t_eval, bw_f, derivative=0)
    fprime_hat = kde(x, t_eval, bw_fd, derivative=1)
    p_local = _local_propensity(sample, t_eval, bw_f)

    kappa = {}
    nu1 = {}
    nu2 = {}
    reg_bws = []
    for arm in (0, 1):
        mask = sample.d == arm
        x_j = x[mask]
        y_j = sample.y[mask]
        n_j = len(x_j)
        if n_j == 0:
            raise ArmDataError(f"arm {arm}: no observations")
        sd_j = _sd(x_j)
        bw_level = _REG_LEVEL_FACTOR * sd_j * n_j ** (-1.0 / 5.0)
        bw_deriv = _REG_DERIV_FACTOR * sd_j * n_j ** (-1.0 / 7.0)
        reg_bws.append(bw_level)
        for label, bw in (("level", bw_level), ("derivative", bw_deriv)):
            if _effective_count(x_j, t_eval, bw) < _MIN_EFFECTIVE:
                raise ArmDataError(
                    f"arm {arm}: fewer than {int(_MIN_EFFECTIVE)} effective observations near "
                    f"t={t_eval} for the {label} regression (n_arm={n_j})"
                )
        # y**2 overflows for |y| above about 1e154; K_hat is then refused below
        with np.errstate(over="ignore"):
            kappa[arm] = local_poly(x_j, y_j**2, t_eval, bw_level, degree=1, derivative=0)
        cubic = _local_poly_fit(x_j, y_j, t_eval, bw_deriv, degree=3)
        nu1[arm] = _poly_derivative(cubic, 1, bw_deriv)
        nu2[arm] = _poly_derivative(cubic, 2, bw_deriv)

    k_hat = f_hat * (kappa[1] / p_local + kappa[0] / (1.0 - p_local))
    tau_prime = nu1[1] - nu1[0]
    h_hat = f_hat * tau_prime
    a_hat = -(kernel.alpha1 / 2) * (2.0 * fprime_hat * tau_prime + f_hat * (nu2[1] - nu2[0]))
    for name, value in (("K", k_hat), ("H", h_hat), ("A", a_hat)):
        if not math.isfinite(value):
            raise NumericError(f"nuisance estimate {name} is not finite at t={t_eval}")
    return NuisanceEstimates(
        k_hat=float(k_hat),
        h_hat=float(h_hat),
        a_hat=float(a_hat),
        eval_point=float(t_eval),
        kde_bandwidth=bw_f,
        reg_bandwidth=float(np.mean(reg_bws)),
    )


def optimal_bandwidth(nuisance: NuisanceEstimates, kernel: Kernel, n: int) -> tuple[float, float]:
    """Feasible regret-optimal (lambda*, sigma*) from plug-in constants.

    Raises NumericError unless both are finite and positive: K_hat <= 0,
    A_hat = 0, overflow and underflow all leave the rule undefined.
    """
    if not n >= 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    lam = kernel.optimal_lambda(nuisance.k_hat, nuisance.a_hat)
    sigma = kernel.rate_bandwidth(lam, n) if lam > 0 else 0.0
    if not 0.0 < sigma < math.inf:
        raise NumericError(f"optimal bandwidth not finite and positive: lambda={lam}, sigma={sigma}, "
                           f"K_hat={nuisance.k_hat}, A_hat={nuisance.a_hat}")
    return float(lam), float(sigma)
