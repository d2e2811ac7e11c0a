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

Every weighted sum over the rows (the density and its slope, the local
propensity, the effective counts) is a sum of the library's own phi in row
order (``kernels.normal_rows``, bound once per row array), and each local
fit a Householder QR solve with a stated rank rule (``tr_local_fit`` in
``_kernels.c``, or its numpy transcription), so the estimates have one set
of bits on every host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Sample
from .errors import ArmDataError, NumericError, RankDeficiencyError, ValidationError
from .kernels import PHI0, Kernel, _pdf, gaussian_cdf_kernel, normal_rows

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


def _weight_sums(sums, point: float, bandwidth: float) -> tuple[float, float]:
    """(sum_i g_i phi(u_i), sum_i g_i u_i phi(u_i)) at u_i = (x_i - point) / bandwidth, in row order,
    from ``sums``, the normal CDF kernel's sums over the rows x and g (``kernels.normal_rows``)."""
    level, slope = sums(bandwidth, np.array([float(point)]), 1)
    # the kernel's k'' is -u phi(u), and a sum of negated terms is the negated sum
    return float(level[0]), -float(slope[0])


def _unit_rows(x):
    """The normal CDF kernel's sums over x with unit weights, once x has the rows a density estimate needs."""
    x = np.asarray(x, dtype=float)
    if len(x) < 5:
        raise ValidationError(f"kde needs at least 5 observations, got {len(x)}")
    return normal_rows(x, np.ones(len(x)))


def _density_sums(units, point: float, bandwidth: float) -> tuple[float, float]:
    """``_weight_sums`` of unit weights (:func:`_unit_rows`), once the bandwidth admits a density estimate."""
    if not bandwidth > 0:
        raise ValidationError(f"bandwidth must be positive, got {bandwidth}")
    return _weight_sums(units, point, bandwidth)


def kde(x: np.ndarray, point: float, bandwidth: float, derivative: int = 0) -> float:
    """Gaussian kernel estimate of the density (or its first derivative) at a point."""
    if derivative not in (0, 1):
        raise ValidationError(f"derivative must be 0 or 1, got {derivative}")
    level, slope = _density_sums(_unit_rows(x), point, bandwidth)
    if derivative == 0:
        return level / len(x) / bandwidth
    return slope / len(x) / bandwidth / bandwidth


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
    if not 0 <= derivative <= degree:
        raise ValidationError(f"derivative must lie in 0..degree, got {derivative} at degree {degree}")
    beta = _local_poly_fit(x, y, point, bandwidth, degree)
    return _poly_derivative(beta, derivative, bandwidth)


def _numpy_local_fit(x, y, point: float, bandwidth: float, p: int, work: np.ndarray, beta: np.ndarray) -> int:
    """``tr_local_fit`` of ``_kernels.c`` in numpy, operation for operation, every row sum by np.cumsum."""
    with np.errstate(all="ignore"):
        u = (x - point) / bandwidth
        root = np.sqrt(_pdf(u))
        power = np.ones(len(x))
        for j in range(p):
            work[:, j] = root * power
            power = power * u
        work[:, p] = root * y
        diag = []
        for k in range(p):
            below = work[k + 1 :]
            alpha = work[k, k]
            norm2 = np.cumsum(below[:, k] * below[:, k])[-1]
            if norm2 == 0.0:
                diag.append(alpha)
                continue
            nrm = np.sqrt(alpha * alpha + norm2)
            beta_k = -nrm if alpha >= 0.0 else nrm
            tau = (beta_k - alpha) / beta_k
            below[:, k] = below[:, k] / (alpha - beta_k)
            s = tau * np.cumsum(np.concatenate((work[k : k + 1, k + 1 :], below[:, k : k + 1] * below[:, k + 1 :])),
                                axis=0)[-1]
            work[k, k + 1 :] = work[k, k + 1 :] - s
            work[k, k] = beta_k
            diag.append(beta_k)
            below[:, k + 1 :] = below[:, k + 1 :] - s * below[:, k : k + 1]
        diag = np.abs(np.array(diag))
        rank = int(np.sum(diag > len(x) * np.finfo(float).eps * np.fmax.reduce(diag, initial=0.0)))
        if rank == p:
            for k in range(p - 1, -1, -1):
                acc = work[k, p]
                for j in range(k + 1, p):
                    acc = acc - work[k, j] * beta[j]
                beta[k] = acc / work[k, k]
    return rank


def _compiled_local_fit(fit, x, y, point: float, bandwidth: float, p: int, work: np.ndarray, beta: np.ndarray) -> int:
    """``tr_local_fit`` on C-contiguous float64 arrays, by address (see ``_native``)."""
    return fit(x.ctypes.data, y.ctypes.data, len(x), point, bandwidth, p, work.ctypes.data, beta.ctypes.data)


def _local_poly_fit(x, y, point: float, bandwidth: float, degree: int) -> np.ndarray:
    """Coefficients of the Gaussian-weighted local polynomial in ``(x - point) / bandwidth``.

    Solved by ``tr_local_fit`` (Householder QR; its rank rule is in
    ``_kernels.c``) once it has loaded and passed its check, else by its
    numpy transcription, with the same bits.
    """
    from . import _native

    x = np.ascontiguousarray(x, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    # the compiled fit reads len(x) values of y
    if x.ndim != 1 or y.shape != x.shape:
        raise ValidationError(f"local fit needs x and y of one length, got shapes {x.shape} and {y.shape}")
    if not bandwidth > 0:
        raise ValidationError(f"bandwidth must be positive, got {bandwidth}")
    if len(x) < degree + 2:
        raise RankDeficiencyError(
            f"local polynomial of degree {degree} needs at least {degree + 2} points, got {len(x)}"
        )
    p = degree + 1
    work, beta = np.empty((len(x), p + 1)), np.empty(p)
    fit = _native.kernel("tr_local_fit") if p <= 4 else None  # the kernel holds at most cubics
    if fit is None:
        rank = _numpy_local_fit(x, y, point, bandwidth, p, work, beta)
    else:
        rank = _compiled_local_fit(fit, x, y, point, bandwidth, p, work, beta)
    if rank < p:
        raise RankDeficiencyError(
            f"rank-deficient local fit at point {point} (rank {rank} < {p}); "
            f"too little data within bandwidth {bandwidth}"
        )
    return beta


def _poly_derivative(beta: np.ndarray, derivative: int, bandwidth: float) -> float:
    """The derivative-th derivative at the centre of a local fit, in x units."""
    value = math.factorial(derivative) * float(beta[derivative])
    for _ in range(derivative):  # one division at a time: bandwidth**2 may overflow where the result does not
        value = value / bandwidth
    return value


def _effective_count(counts, point: float, bandwidth: float) -> float:
    """Number of full-weight-equivalent observations near the point, from
    ``counts``, the normal CDF kernel's sums over the rows with unit weights."""
    return _weight_sums(counts, point, bandwidth)[0] / PHI0


def _sd(x: np.ndarray) -> float:
    """Standard deviation of x, or 1.0 when every x is equal.

    Where the squared deviations under- or overflow (a spread beyond about
    1e+-150), it is taken again at a power-of-two scale, which elsewhere
    would change no bit.
    """
    with np.errstate(over="ignore"):
        s = float(np.std(x))
    if not 1e-150 < s < 1e150:
        top = float(np.max(np.abs(x)))
        shift = math.frexp(top)[1] if 0.0 < top < math.inf else 0
        s = math.ldexp(float(np.std(np.ldexp(x, -shift))), shift)
    return s if s > 0 else 1.0


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
    units = _unit_rows(x)  # the sums of the density and its slope, bound once
    total = _density_sums(units, t_eval, bw_f)[0]  # the density's sum, and the local propensity's denominator
    f_hat = total / n / bw_f
    fprime_hat = _density_sums(units, t_eval, bw_fd)[1] / n / bw_fd / bw_fd  # kde(x, t_eval, bw_fd, derivative=1)
    # kernel-weighted propensity at t_eval, exact for constant designs
    p_local = float(np.mean(sample.propensity)) if total <= 0 else (
        _weight_sums(normal_rows(x, sample.propensity), t_eval, bw_f)[0] / total)

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
        counts = normal_rows(x_j, np.ones(n_j))
        for label, bw in (("level", bw_level), ("derivative", bw_deriv)):
            if _effective_count(counts, t_eval, bw) < _MIN_EFFECTIVE:
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
