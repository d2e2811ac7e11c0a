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
order, and each local fit a Householder QR solve with a stated rank rule,
so the estimates have one set of bits on every host.  ``tr_estimate_khA``
in ``_kernels.c`` makes all of them in one call, from one phi per row and
bandwidth: over all rows at the density's two bandwidths, and over each
arm's rows at its level and derivative bandwidths, whose phi give both the
effective count and the fit's weights.  Python keeps what needs numpy's
bits or the library's messages: the standard deviations, the arm split,
the bandwidths, every refusal in its documented order, and K, H and A.  The
Python pipeline (:func:`_record_pipeline`: ``kernels.normal_rows``'s sums
and :func:`_numpy_local_fit`'s fits) runs where the call does not load,
with the same bits, and is its oracle; :func:`kde` and :func:`local_poly`
are its sums and fits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import Sample, _require_instance
from .errors import ArmDataError, NumericError, RankDeficiencyError, ValidationError
from .kernels import PHI0, Kernel, _pdf_terms, gaussian_cdf_kernel, normal_rows
from ._workers import require_int

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


def _positive(bandwidth: float) -> None:
    if not bandwidth > 0:
        raise ValidationError(f"bandwidth must be positive, got {bandwidth}")


def _finite(point: float, bandwidth: float, **rows) -> None:
    """ValidationError unless the point, the bandwidth and every row of ``rows`` are finite, the bandwidth positive."""
    if not math.isfinite(point):
        raise ValidationError(f"point must be finite, got {point}")
    if not 0.0 < bandwidth < math.inf:
        raise ValidationError(f"bandwidth must be finite and positive, got {bandwidth}")
    for name, values in rows.items():
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"{name} contains NaN or infinite values")


def kde(x: np.ndarray, point: float, bandwidth: float, derivative: int = 0) -> float:
    """Gaussian kernel estimate of the density (or its first derivative) at a point.

    Needs at least 5 finite x, a finite point and a finite positive
    bandwidth; ValidationError otherwise.
    """
    if derivative not in (0, 1):
        raise ValidationError(f"derivative must be 0 or 1, got {derivative}")
    x = np.asarray(x, dtype=float)
    if len(x) < 5:
        raise ValidationError(f"kde needs at least 5 observations, got {len(x)}")
    _finite(point, bandwidth, x=x)
    level, slope = _weight_sums(normal_rows(x, np.ones(len(x))), point, bandwidth)
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
    coefficient of the derivative-th term, mapped back to x units.  The
    point, the bandwidth and the rows must be finite, the bandwidth
    positive, and the degree and the derivative integers with 0 <=
    derivative <= degree; ValidationError otherwise.
    """
    require_int("degree", degree, 0)
    require_int("derivative", derivative, 0)
    if derivative > degree:
        raise ValidationError(f"derivative must lie in 0..degree, got {derivative} at degree {degree}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _finite(point, bandwidth, x=x, y=y)
    beta = _local_poly_fit(x, y, point, bandwidth, degree)
    return _poly_derivative(beta[derivative], derivative, bandwidth)


def _numpy_local_fit(x, y, point: float, bandwidth: float, p: int) -> tuple[int, np.ndarray]:
    """The rank of the local fit with p coefficients on n > p rows of float64
    x and y, and its coefficients (NaN unless the rank is p): ``weighted_fit``
    of ``_kernels.c`` in numpy, operation for operation, every row sum by
    np.cumsum, at any p (the compiled fit holds p <= 4), with
    ``solve_design``'s Householder QR solve and rank rule."""
    n = len(x)
    # column j of the design is work[j], so every sum over rows runs along one contiguous row
    work, beta, terms = np.empty((p + 1, n)), np.full(p, np.nan), np.empty(n)
    with np.errstate(all="ignore"):
        u = (x - point) / bandwidth
        root = np.sqrt(_pdf_terms(u)[0])
        power = np.ones(n)
        for j in range(p):
            work[j] = root * power
            power = power * u
        work[p] = root * y
        diag = []
        for k in range(p):
            v = work[k, k + 1 :]
            alpha = work[k, k]
            norm2 = np.cumsum(v * v)[-1]
            if norm2 == 0.0:
                diag.append(alpha)
                continue
            nrm = np.sqrt(alpha * alpha + norm2)
            beta_k = -nrm if alpha >= 0.0 else nrm
            tau = (beta_k - alpha) / beta_k
            v /= alpha - beta_k
            for j in range(k + 1, p + 1):
                # the column's entry in row k, then v times the rows below, summed in row order
                terms[k] = work[j, k]
                np.multiply(v, work[j, k + 1 :], out=terms[k + 1 :])
                s = tau * np.cumsum(terms[k:])[-1]
                work[j, k] = work[j, k] - s
                work[j, k + 1 :] = work[j, k + 1 :] - s * v
            work[k, k] = beta_k
            diag.append(beta_k)
        diag = np.abs(np.array(diag))
        rank = int(np.sum(diag > n * np.finfo(float).eps * np.fmax.reduce(diag, initial=0.0)))
        if rank == p:
            for k in range(p - 1, -1, -1):
                acc = work[p, k]
                for j in range(k + 1, p):
                    acc = acc - work[j, k] * beta[j]
                beta[k] = acc / work[k, k]
    return rank, beta


def _fit_refusal(n: int, point: float, bandwidth: float, degree: int, rank: int | None = None) -> None:
    """The refusals of a local fit of ``degree`` on n rows, in order: the
    bandwidth, the rows, then (once solved) the rank."""
    _positive(bandwidth)
    if n < degree + 2:
        raise RankDeficiencyError(f"local polynomial of degree {degree} needs at least {degree + 2} points, got {n}")
    if rank is not None and rank < degree + 1:
        raise RankDeficiencyError(
            f"rank-deficient local fit at point {point} (rank {rank} < {degree + 1}); "
            f"too little data within bandwidth {bandwidth}"
        )


def _local_poly_fit(x, y, point: float, bandwidth: float, degree: int) -> np.ndarray:
    """Coefficients of the Gaussian-weighted local polynomial in ``(x - point) / bandwidth``,
    by Householder QR with the rank rule of ``solve_design`` in ``_kernels.c``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.shape != x.shape:
        raise ValidationError(f"local fit needs x and y of one length, got shapes {x.shape} and {y.shape}")
    _fit_refusal(len(x), point, bandwidth, degree)
    rank, beta = _numpy_local_fit(x, y, point, bandwidth, degree + 1)
    _fit_refusal(len(x), point, bandwidth, degree, rank)
    return beta


def _poly_derivative(coefficient: float, derivative: int, bandwidth: float) -> float:
    """The derivative-th derivative at the centre of a local fit, from its derivative-th coefficient, in x units."""
    value = math.factorial(derivative) * float(coefficient)
    for _ in range(derivative):  # one division at a time: bandwidth**2 may overflow where the result does not
        value = value / bandwidth
    return value


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


def _arm_bandwidths(x_j) -> tuple[float, float]:
    """An arm's level and derivative bandwidths, NaN where it has no rows (an arm that is refused)."""
    n_j = len(x_j)
    if n_j == 0:
        return math.nan, math.nan
    sd_j = _sd(x_j)
    return _REG_LEVEL_FACTOR * sd_j * n_j ** (-1.0 / 5.0), _REG_DERIV_FACTOR * sd_j * n_j ** (-1.0 / 7.0)


# the record of an estimate's sums and fits, as tr_estimate_khA writes it
# (``_kernels.c``): the density's sum at bw_f, its slope's at bw_fd (sum u_i
# phi(u_i)) and the propensity-weighted sum at bw_f, then per arm the
# effective counts' sums at the level and derivative bandwidths, the ranks of
# the linear and cubic fits, and the coefficients read from them
_ARMS, _ARM = 3, 7
_RECORD = _ARMS + 2 * _ARM


def _record_pipeline(x, propensity, t_eval, bw_f, bw_fd, arms, bws) -> list[float]:
    """The record in Python, from the normal CDF kernel's sums over rows
    (``kernels.normal_rows``) and the numpy local fits.  A fit on no more
    rows than coefficients is not made: its rank is 0.  ``tr_estimate_khA``
    repeats it bit for bit."""
    units = normal_rows(x, np.ones(len(x)))
    record = [_weight_sums(units, t_eval, bw_f)[0], _weight_sums(units, t_eval, bw_fd)[1],
              _weight_sums(normal_rows(x, propensity), t_eval, bw_f)[0]]
    for (x_j, y_j), (bw_level, bw_deriv) in zip(arms, bws):
        counts = normal_rows(x_j, np.ones(len(x_j))) if len(x_j) else None
        fits = []
        # y**2 overflows for |y| above about 1e154; K_hat is then refused
        with np.errstate(over="ignore"):
            for y, bw, p in ((y_j**2, bw_level, 2), (y_j, bw_deriv, 4)):
                record.append(0.0 if counts is None else _weight_sums(counts, t_eval, bw)[0])
                fits.append(_numpy_local_fit(x_j, y, t_eval, bw, p) if len(x_j) > p else (0, np.full(p, np.nan)))
        (linear_rank, linear), (cubic_rank, cubic) = fits
        record += [linear_rank, cubic_rank, float(linear[0]), float(cubic[1]), float(cubic[2])]
    return record


def _record_compiled(khA, x, propensity, t_eval, bw_f, bw_fd, arms, bws) -> list[float]:
    """The record by ``tr_estimate_khA``, in one call on C-contiguous float64 rows, by address (see ``_native``)."""
    (x0, y0), (x1, y1) = arms
    # the arms' bandwidths, then the record, then the work of the largest fit: 5 doubles a row
    buf = np.empty(4 + _RECORD + 5 * max(len(x0), len(x1)))
    buf[:4] = *bws[0], *bws[1]
    at = buf.ctypes.data
    khA(x.ctypes.data, propensity.ctypes.data, len(x), t_eval, bw_f, bw_fd, x0.ctypes.data, y0.ctypes.data,
        len(x0), x1.ctypes.data, y1.ctypes.data, len(x1), at, at + 8 * (4 + _RECORD), at + 32)
    return buf[4 : 4 + _RECORD].tolist()


def estimate_khA(sample: Sample, t_eval: float, kernel: Kernel | None = None) -> NuisanceEstimates:
    """Estimate (K, H, A) at ``t_eval`` from one experimental sample.

    Conditional second moments kappa_j use local linear fits; conditional
    mean derivatives nu_j' and nu_j'' use local cubic fits, which are exact
    for polynomial conditional means up to degree three and keep the
    second-derivative estimate from dominating the bias of A_hat.

    Every sum and fit is made in one call of ``tr_estimate_khA`` once it
    has loaded and passed its check, else by the Python pipeline, with the
    same bits.  The refusals follow, in this order: fewer than 5 rows or a
    bandwidth of the density that is not positive (ValidationError); then
    for arm 0 and then arm 1, no rows, fewer than 10 effective observations
    at the level or at the derivative bandwidth (ArmDataError), and a local
    fit that is rank-deficient (RankDeficiencyError); and last a K, H or A
    that is not finite (NumericError).
    """
    from . import _native

    _require_instance("sample", sample, Sample)
    if not (isinstance(t_eval, numbers.Real) and math.isfinite(t_eval)):
        raise ValidationError(f"t_eval must be finite and a real number, got {t_eval!r}")
    if kernel is None:
        kernel = gaussian_cdf_kernel()
    elif not isinstance(kernel, Kernel):
        raise ValidationError(f"kernel must be a Kernel, got {kernel!r}")
    n = sample.n
    x = sample.x
    sd = _sd(x)
    bw_f = _KDE_LEVEL_FACTOR * sd * n ** (-1.0 / 5.0)
    bw_fd = _KDE_DERIV_FACTOR * sd * n ** (-1.0 / 7.0)
    if n < 5:
        raise ValidationError(f"kde needs at least 5 observations, got {n}")
    _positive(bw_f)
    _positive(bw_fd)
    treated = sample.d == 1
    arms = [(x[mask], sample.y[mask]) for mask in (~treated, treated)]
    bws = [_arm_bandwidths(x_j) for x_j, _ in arms]
    khA = _native.kernel("tr_estimate_khA")
    if khA is None:
        record = _record_pipeline(x, sample.propensity, t_eval, bw_f, bw_fd, arms, bws)
    else:
        record = _record_compiled(khA, x, sample.propensity, t_eval, bw_f, bw_fd, arms, bws)

    total, slope, weighted = record[:3]
    f_hat = total / n / bw_f  # kde(x, t_eval, bw_f)
    fprime_hat = slope / n / bw_fd / bw_fd  # kde(x, t_eval, bw_fd, derivative=1)
    # kernel-weighted propensity at t_eval, exact for constant designs
    p_local = float(np.mean(sample.propensity)) if total <= 0 else weighted / total
    kappa, nu1, nu2 = [], [], []
    for arm, ((x_j, _), (bw_level, bw_deriv)) in enumerate(zip(arms, bws)):
        n_j = len(x_j)
        if n_j == 0:
            raise ArmDataError(f"arm {arm}: no observations")
        level, deriv, linear_rank, cubic_rank, b0, b1, b2 = record[_ARMS + arm * _ARM : _ARMS + (arm + 1) * _ARM]
        for label, count in (("level", level), ("derivative", deriv)):
            if count / PHI0 < _MIN_EFFECTIVE:
                raise ArmDataError(
                    f"arm {arm}: fewer than {int(_MIN_EFFECTIVE)} effective observations near "
                    f"t={t_eval} for the {label} regression (n_arm={n_j})"
                )
        _fit_refusal(n_j, t_eval, bw_level, 1, int(linear_rank))
        _fit_refusal(n_j, t_eval, bw_deriv, 3, int(cubic_rank))
        kappa.append(_poly_derivative(b0, 0, bw_level))
        nu1.append(_poly_derivative(b1, 1, bw_deriv))
        nu2.append(_poly_derivative(b2, 2, bw_deriv))

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
        reg_bandwidth=float(np.mean([bw_level for bw_level, _ in bws])),
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
