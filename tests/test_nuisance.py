import math

import numpy as np
import pytest

from threshold_regret.data import Sample
from threshold_regret.errors import ArmDataError, NumericError, RankDeficiencyError, ValidationError
from threshold_regret.ewm import fit_ewm
from threshold_regret.kernels import gaussian_cdf_kernel
from threshold_regret.montecarlo import MODEL1, MODEL2, draw_sample
from threshold_regret.nuisance import estimate_khA, kde, local_poly, optimal_bandwidth
from threshold_regret.swm import PlugInOptimal, fit_swm

from helpers import two_fit_khA

KERNEL = gaussian_cdf_kernel()


def silverman(x):
    return 1.06 * float(np.std(x)) * len(x) ** (-0.2)


# --- kde ---------------------------------------------------------------------


def test_kde_recovers_standard_normal_peak():
    x = np.random.default_rng(8).standard_normal(10_000)
    est = kde(x, 0.0, silverman(x))
    assert est == pytest.approx(0.3989, abs=0.02)


def test_kde_derivative_vanishes_at_symmetry_center():
    rng = np.random.default_rng(9)
    half = rng.standard_normal(20_000)
    x = np.concatenate([half, -half])  # exactly symmetric about 0
    est = kde(x, 0.0, silverman(x), derivative=1)
    assert abs(est) < 1e-12


def test_kde_translation_equivariance():
    x = np.random.default_rng(10).standard_normal(500)
    bw = silverman(x)
    shifted = kde(x + 5.0, 5.0, bw)
    assert shifted == pytest.approx(kde(x, 0.0, bw), rel=1e-9)


def test_kde_integrates_to_one():
    x = np.random.default_rng(11).standard_normal(2_000)
    bw = silverman(x)
    grid = np.linspace(x.min() - 5 * bw, x.max() + 5 * bw, 4_000)
    values = [kde(x, float(p), bw) for p in grid]
    total = np.trapezoid(values, grid)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_kde_validation():
    with pytest.raises(ValidationError):
        kde(np.arange(3.0), 0.0, 0.5)
    with pytest.raises(ValidationError):
        kde(np.arange(10.0), 0.0, -1.0)
    with pytest.raises(ValidationError):
        kde(np.arange(10.0), 0.0, 0.5, derivative=2)


# --- local polynomial regression ----------------------------------------------


def test_local_poly_reproduces_line():
    rng = np.random.default_rng(12)
    x = rng.uniform(-2, 2, 200)
    y = 2.0 * x + 1.0
    assert local_poly(x, y, 0.3, 0.5, degree=1, derivative=1) == pytest.approx(2.0, abs=1e-10)
    assert local_poly(x, y, 0.3, 0.5, degree=1, derivative=0) == pytest.approx(1.6, abs=1e-10)


def test_local_poly_second_derivative_of_square():
    rng = np.random.default_rng(13)
    x = rng.uniform(-2, 2, 300)
    y = x**2
    assert local_poly(x, y, 0.0, 0.7, degree=2, derivative=2) == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_local_poly_polynomial_reproduction_any_bandwidth(degree):
    rng = np.random.default_rng(14 + degree)
    x = rng.uniform(-3, 3, 150)
    coeffs = rng.uniform(-2, 2, degree + 1)
    y = sum(c * x**k for k, c in enumerate(coeffs))
    for bw in (0.2, 1.0, 5.0):
        for deriv in range(degree + 1):
            expected = sum(
                math.factorial(k) / math.factorial(k - deriv) * coeffs[k] * 0.4 ** (k - deriv)
                for k in range(deriv, degree + 1)
            )
            got = local_poly(x, y, 0.4, bw, degree=degree, derivative=deriv)
            assert got == pytest.approx(expected, rel=1e-8, abs=1e-8)


def test_local_poly_model1_slope_at_zero():
    s = draw_sample(MODEL1, 5000, 100)
    treated = s.d == 1
    got = local_poly(
        s.x[treated], s.y[treated], 0.0, 1.5 * silverman(s.x[treated]), degree=3, derivative=1
    )
    assert got == pytest.approx(MODEL1.beta1, abs=0.15)


def test_local_poly_rank_deficiency_signaled():
    x = np.full(30, 1.0)
    y = np.arange(30.0)
    with pytest.raises(RankDeficiencyError):
        local_poly(x, y, 1.0, 0.5, degree=2, derivative=1)
    with pytest.raises(RankDeficiencyError):
        local_poly(np.arange(3.0), np.arange(3.0), 0.0, 0.5, degree=2, derivative=1)


def test_local_poly_rejects_derivative_above_degree():
    with pytest.raises(ValidationError):
        local_poly(np.arange(10.0), np.arange(10.0), 0.0, 0.5, degree=1, derivative=2)


# --- estimate_khA --------------------------------------------------------------


def test_estimate_khA_model1_within_quarter():
    s = draw_sample(MODEL1, 5000, 1003)
    t_eval = fit_ewm(s).t_hat
    est = estimate_khA(s, t_eval)
    assert est.k_hat == pytest.approx(1.596, rel=0.25)
    assert est.h_hat == pytest.approx(0.399, rel=0.25)
    assert est.a_hat == pytest.approx(0.199, rel=0.25)
    assert est.eval_point == t_eval


def test_estimate_khA_zero_outcomes():
    rng = np.random.default_rng(15)
    n = 400
    s = Sample(
        y=np.zeros(n), d=(rng.random(n) < 0.5).astype(int), x=rng.normal(size=n), propensity=0.5
    )
    est = estimate_khA(s, 0.0)
    assert est.k_hat == 0.0 and est.h_hat == 0.0 and est.a_hat == 0.0


def test_estimate_khA_outcome_scaling_degrees():
    s = draw_sample(MODEL1, 3000, 16)
    base = estimate_khA(s, 0.0)
    doubled = Sample(y=2.0 * s.y, d=s.d, x=s.x, propensity=s.propensity)
    est = estimate_khA(doubled, 0.0)
    assert est.k_hat == pytest.approx(4.0 * base.k_hat, rel=1e-9)
    assert est.h_hat == pytest.approx(2.0 * base.h_hat, rel=1e-9)
    assert est.a_hat == pytest.approx(2.0 * base.a_hat, rel=1e-9)


def test_estimate_khA_names_thin_arm():
    rng = np.random.default_rng(17)
    n = 200
    d = np.ones(n, dtype=int)
    d[:3] = 0  # untreated arm nearly empty
    s = Sample(y=rng.normal(size=n), d=d, x=rng.normal(size=n), propensity=0.5)
    with pytest.raises(ArmDataError, match="arm 0"):
        estimate_khA(s, 0.0)


@pytest.mark.parametrize("t_eval", [math.nan, math.inf, -math.inf])
def test_estimate_khA_refuses_a_non_finite_point(t_eval):
    s = draw_sample(MODEL1, 300, 5)
    with pytest.raises(ValidationError, match="^t_eval must be finite"):
        estimate_khA(s, t_eval)
    with pytest.raises(ValidationError, match="^t_eval must be finite"):
        fit_swm(s, KERNEL, PlugInOptimal(t_eval=t_eval))


@pytest.mark.parametrize("arm", [0, 1])
def test_estimate_khA_refuses_an_empty_arm(arm):
    rng = np.random.default_rng(18)
    n = 200
    s = Sample(y=rng.normal(size=n), d=np.full(n, 1 - arm), x=rng.normal(size=n), propensity=0.5)
    with pytest.raises(ArmDataError, match=f"arm {arm}: no observations"):
        estimate_khA(s, 0.0)


@pytest.mark.parametrize("model", [MODEL1, MODEL2], ids=["model1", "model2"])
@pytest.mark.parametrize("n", [500, 3000, 100_000])
def test_estimate_khA_matches_two_fits_per_arm_bit_for_bit(model, n):
    s = draw_sample(model, n, 77)
    t = model.t_star
    est = estimate_khA(s, t, KERNEL)
    assert (est.k_hat, est.h_hat, est.a_hat) == two_fit_khA(s, t, KERNEL)


def test_errors_shrink_with_sample_size():
    """Median absolute errors of K, H, A are non-increasing from n=1e3 to 2e4."""
    sizes = (1000, 5000, 20000)
    med = {}
    for n in sizes:
        errs = []
        for seed in range(100):
            s = draw_sample(MODEL1, n, np.random.SeedSequence(entropy=900, spawn_key=(n, seed)))
            t_eval = fit_ewm(s).t_hat
            est = estimate_khA(s, t_eval)
            errs.append(
                [abs(est.k_hat - MODEL1.K), abs(est.h_hat - MODEL1.H), abs(est.a_hat - MODEL1.A)]
            )
        med[n] = np.median(np.array(errs), axis=0)
    for i in range(3):
        assert med[5000][i] <= med[1000][i]
        assert med[20000][i] <= med[5000][i]


# --- optimal bandwidth ----------------------------------------------------------


def _nuis(k, h, a):
    from threshold_regret.nuisance import NuisanceEstimates

    return NuisanceEstimates(
        k_hat=k, h_hat=h, a_hat=a, eval_point=0.0, kde_bandwidth=0.1, reg_bandwidth=0.2
    )


def test_optimal_bandwidth_rounded_model1_constants():
    lam, sigma = optimal_bandwidth(_nuis(1.596, 0.399, 0.199), KERNEL, 500)
    assert lam == pytest.approx(0.28209 * 1.596 / (4 * 0.199**2), rel=1e-4)
    assert lam == pytest.approx(2.842, abs=5e-4)
    assert sigma == pytest.approx((lam / 500) ** 0.2, rel=1e-12)


def test_optimal_bandwidth_exact_model1_constants():
    lam, sigma = optimal_bandwidth(_nuis(MODEL1.K, MODEL1.H, MODEL1.A), KERNEL, 500)
    assert lam == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)


def test_optimal_bandwidth_degenerate_k():
    with pytest.raises(NumericError):
        optimal_bandwidth(_nuis(0.0, 0.4, 0.2), KERNEL, 500)


def test_optimal_bandwidth_zero_a_rejected():
    with pytest.raises(NumericError):
        optimal_bandwidth(_nuis(1.0, 0.4, 0.0), KERNEL, 500)


@pytest.mark.parametrize("k, a", [
    pytest.param(-1.0, 0.2, id="negative-k"),
    pytest.param(1e300, 1e-300, id="lambda-overflows"),
    pytest.param(1.0, 1e300, id="a-squared-overflows"),
    pytest.param(1e-300, 1e100, id="lambda-underflows"),
    pytest.param(1.4e-314, 1.0, id="sigma-underflows"),
])
def test_optimal_bandwidth_is_a_numeric_error_unless_finite_and_positive(k, a):
    with pytest.raises(NumericError, match="not finite"):
        optimal_bandwidth(_nuis(k, 0.4, a), KERNEL, 10**9)


def test_optimal_bandwidth_rejects_sample_size_below_one():
    for n in (0, -5):
        with pytest.raises(ValidationError):
            optimal_bandwidth(_nuis(1.0, 0.4, 0.2), KERNEL, n)


def test_optimal_bandwidth_rate_in_n():
    lam1, sigma1 = optimal_bandwidth(_nuis(1.596, 0.399, 0.199), KERNEL, 500)
    lam2, sigma2 = optimal_bandwidth(_nuis(1.596, 0.399, 0.199), KERNEL, 2000)
    assert lam1 == lam2
    assert sigma2 == pytest.approx(sigma1 * 4.0 ** (-0.2), rel=1e-12)
