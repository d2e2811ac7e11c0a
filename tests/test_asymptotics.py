import math

import numpy as np
import pytest
from scipy.special import chndtrix, ndtr
from scipy.stats import ncx2

from threshold_regret.asymptotics import (
    asymptotic_row,
    ewm_regret_dist,
    optimal_lambda_mean,
    swm_regret_dist,
)
from threshold_regret.errors import NumericError, ValidationError
from threshold_regret.kernels import gaussian_cdf_kernel
from threshold_regret.montecarlo import MODEL1

KERNEL = gaussian_cdf_kernel()

# constants of the second benchmark configuration as published alongside the
# reference tables (phi(0)-multiples; they do not match this package's
# model2 DGP convention, see the simulation module docstring)
PHI0 = 1.0 / math.sqrt(2.0 * math.pi)
K2, H2, A2 = 24.0 * PHI0, 0.5 * PHI0, PHI0


def lam_star(K, A):
    return KERNEL.alpha2 * K / (2.0 * KERNEL.h * A**2)


# --- SWM law: pure formula checks (no simulation needed for the mean) --------


def test_swm_mean_model1_reference_values():
    targets = {500: 39.714e-4, 1000: 22.809e-4, 2000: 13.101e-4, 3000: 9.471e-4}
    lam = lam_star(MODEL1.K, MODEL1.A)
    for n, target in targets.items():
        dist = swm_regret_dist(MODEL1.K, MODEL1.H, MODEL1.A, lam, KERNEL, n)
        assert dist.mean == pytest.approx(target, rel=0.005)


def test_swm_mean_model2_reference_values():
    targets = {500: 439.442e-4, 1000: 252.393e-4, 2000: 144.962e-4, 3000: 104.805e-4}
    lam = lam_star(K2, A2)
    for n, target in targets.items():
        dist = swm_regret_dist(K2, H2, A2, lam, KERNEL, n)
        assert dist.mean == pytest.approx(target, rel=0.005)


def test_swm_noncentrality_quarter_at_optimal_lambda():
    dist = swm_regret_dist(MODEL1.K, MODEL1.H, MODEL1.A, lam_star(MODEL1.K, MODEL1.A), KERNEL, 500)
    assert dist.noncentrality == pytest.approx(0.25, rel=1e-12)


def test_swm_central_case_mean_exact():
    lam = 3.0
    dist = swm_regret_dist(2.0, 0.5, 0.0, lam, KERNEL, 1000)
    sigma = (lam / 1000) ** 0.2
    assert dist.noncentrality == 0.0
    assert dist.mean == KERNEL.alpha2 * 2.0 / (2 * 0.5) / (1000 * sigma)


def test_swm_lambda_zero_needs_explicit_bandwidth():
    with pytest.raises(ValidationError):
        swm_regret_dist(1.0, 0.5, 0.2, 0.0, KERNEL, 1000)
    dist = swm_regret_dist(1.0, 0.5, 0.2, 0.0, KERNEL, 1000, sigma_n=0.1)
    assert dist.noncentrality == 0.0 and dist.mean > 0


def test_swm_rejects_bad_constants():
    with pytest.raises(ValidationError):
        swm_regret_dist(-1.0, 0.5, 0.2, 1.0, KERNEL, 100)
    with pytest.raises(ValidationError):
        swm_regret_dist(1.0, 0.5, 0.2, -1.0, KERNEL, 100)


def test_noncentral_chi2_median_matches_series_oracle():
    """Exact noncentral chi-squared quantiles against scipy's series."""
    for nc in (0.0, 0.25, 1.7):
        dist = swm_regret_dist(1.0, 0.5, math.sqrt(nc * KERNEL.alpha2), 1.0, KERNEL, 1000)
        assert dist.noncentrality == pytest.approx(nc, rel=1e-12, abs=1e-12)
        for q in (0.25, 0.5, 0.9):
            oracle = dist.scale * ncx2.ppf(q, df=1, nc=nc)
            assert dist.quantile(q) == pytest.approx(oracle, rel=1e-9)


def test_noncentral_chi2_quantiles_solve_closed_form_cdf():
    """With one degree of freedom, P(chi^2 <= x) = ndtr(sqrt x - sqrt nc) - ndtr(-sqrt x - sqrt nc).

    From nc = 1e12 up, chndtrix gives NaN and the bisection answers.  The CDF
    moves by up to 0.4 ulp(sqrt x) between neighbouring doubles, more than
    1e-10 once sqrt x passes 1e6, so no double does better than that there.
    """
    for nc in (0.0, 0.25, 1.7, 50.0, 1e12, 1e20):
        dist = swm_regret_dist(1.0, 0.5, math.sqrt(nc * KERNEL.alpha2), 1.0, KERNEL, 1000)
        root_nc = math.sqrt(dist.noncentrality)
        for q in (0.005, 0.025, 0.1, 0.5, 0.9, 0.975, 0.995):
            root_x = math.sqrt(dist.quantile(q) / dist.scale)
            tolerance = max(1e-10, math.ulp(root_x))
            assert ndtr(root_x - root_nc) - ndtr(-root_x - root_nc) == pytest.approx(q, abs=tolerance)


def test_noncentral_chi2_quantile_past_chndtrix_range_is_finite():
    """chndtrix gives NaN from about nc = 1e11; nc here is about 3.5e12."""
    dist = swm_regret_dist(1.0, 1.0, 1e6, 1.0, KERNEL, 500)
    assert chndtrix(0.5, 1, dist.noncentrality) != chndtrix(0.5, 1, dist.noncentrality)
    median = dist.median / dist.scale
    assert math.sqrt(median) == pytest.approx(math.sqrt(dist.noncentrality), abs=1e-3)


@pytest.mark.parametrize("nc", [0.0, 1.7, 1e6, 1e10])
def test_noncentral_chi2_quantile_keeps_finite_chndtrix_values(nc):
    dist = swm_regret_dist(1.0, 0.5, math.sqrt(nc * KERNEL.alpha2), 1.0, KERNEL, 1000)
    for q in (0.005, 0.5, 0.995):
        assert dist.quantile(q) == dist.scale * chndtrix(q, 1, dist.noncentrality)


@pytest.mark.parametrize(
    "K, H, A, n",
    [
        (math.nan, 0.5, 0.2, 100),
        (1.0, math.nan, 0.2, 100),
        (1.0, 0.5, math.nan, 100),
        (math.inf, 0.5, 0.2, 100),
        (1.0, math.inf, 0.2, 100),
        (1.0, 0.5, -math.inf, 100),
        (1.0, 0.5, 0.2, 0),
        (1.0, 0.5, 0.2, -5),
    ],
)
def test_regret_laws_reject_unusable_constants(small_chernoff, K, H, A, n):
    with pytest.raises(ValidationError):
        swm_regret_dist(K, H, A, 1.0, KERNEL, n)
    with pytest.raises(ValidationError):
        optimal_lambda_mean(K, H, A, KERNEL, n)
    if math.isfinite(A):
        with pytest.raises(ValidationError):
            ewm_regret_dist(K, H, n, small_chernoff)


def test_regret_laws_raise_numeric_error_when_not_finite(small_chernoff):
    with pytest.raises(NumericError):
        ewm_regret_dist(1e200, 0.5, 100, small_chernoff)  # K**2 overflows
    with pytest.raises(NumericError):
        ewm_regret_dist(1.0, 1e-320, 100, small_chernoff)  # infinite scale
    with pytest.raises(NumericError):
        ewm_regret_dist(1e-200, 1.0, 100, small_chernoff)  # scale underflows to 0
    with pytest.raises(NumericError):
        swm_regret_dist(1.0, 1e-320, 0.2, 1.0, KERNEL, 100)
    with pytest.raises(NumericError):
        swm_regret_dist(1.0, 0.5, 1e200, 1.0, KERNEL, 100)  # A**2 overflows
    with pytest.raises(NumericError):
        optimal_lambda_mean(1.0, 1e-320, 0.2, KERNEL, 100)
    dist = swm_regret_dist(1.0, 5e-309, 0.2, 1.0, KERNEL, 1)
    assert math.isfinite(dist.mean) and math.isfinite(dist.median)
    with pytest.raises(NumericError):
        dist.quantile(0.995)


def test_swm_quantiles_monotone():
    dist = swm_regret_dist(MODEL1.K, MODEL1.H, MODEL1.A, 2.8, KERNEL, 500)
    values = [dist.quantile(q) for q in np.linspace(0.05, 0.95, 19)]
    assert all(b >= a for a, b in zip(values, values[1:]))


# --- optimal lambda -----------------------------------------------------------


def test_cs_constant_value():
    # back out C_s from the closed form at K = H = A = 1, n = 1
    value = optimal_lambda_mean(1.0, 1.0, 1.0, KERNEL, 1)
    assert value == pytest.approx(2.5 * (KERNEL.alpha2 / 4.0) ** 0.8, rel=1e-12)
    assert value == pytest.approx(0.2996, abs=1e-4)


def test_optimal_lambda_mean_matches_two_step_path():
    for K, H, A, n in [(MODEL1.K, MODEL1.H, MODEL1.A, 500), (K2, H2, A2, 3000), (3.0, 0.7, 0.9, 123)]:
        direct = optimal_lambda_mean(K, H, A, KERNEL, n)
        two_step = swm_regret_dist(K, H, A, lam_star(K, A), KERNEL, n).mean
        assert direct == pytest.approx(two_step, rel=1e-10)


def test_optimal_lambda_mean_model2_value():
    assert optimal_lambda_mean(K2, H2, A2, KERNEL, 500) == pytest.approx(439.442e-4, rel=0.005)


def test_optimal_lambda_rejects_zero_a():
    with pytest.raises(ValidationError):
        optimal_lambda_mean(1.0, 1.0, 0.0, KERNEL, 100)


def test_optimal_mean_rate_invariant_in_n():
    base = optimal_lambda_mean(MODEL1.K, MODEL1.H, MODEL1.A, KERNEL, 500) * 500 ** 0.8
    for n in (1000, 4000, 32000):
        scaled = optimal_lambda_mean(MODEL1.K, MODEL1.H, MODEL1.A, KERNEL, n) * n ** 0.8
        assert scaled == pytest.approx(base, rel=1e-12)


# --- EWM law ------------------------------------------------------------------


def test_ewm_mean_identity_with_scale(small_chernoff):
    dist = ewm_regret_dist(MODEL1.K, MODEL1.H, 500, small_chernoff)
    assert dist.mean == pytest.approx(dist.scale * small_chernoff.second_moment, rel=1e-12)


def test_ewm_mean_rate_in_n(small_chernoff):
    m1 = ewm_regret_dist(MODEL1.K, MODEL1.H, 500, small_chernoff).mean
    m8 = ewm_regret_dist(MODEL1.K, MODEL1.H, 4000, small_chernoff).mean
    assert m8 == pytest.approx(m1 / 4.0, rel=1e-12)


def test_ewm_homogeneity_in_K_and_H(small_chernoff):
    base = ewm_regret_dist(1.0, 1.0, 1000, small_chernoff).mean
    assert ewm_regret_dist(8.0, 1.0, 1000, small_chernoff).mean == pytest.approx(
        base * 4.0, rel=1e-12
    )
    assert ewm_regret_dist(1.0, 8.0, 1000, small_chernoff).mean == pytest.approx(
        base / 2.0, rel=1e-12
    )


def test_ewm_median_is_scaled_z_squared_median(small_chernoff):
    dist = ewm_regret_dist(MODEL1.K, MODEL1.H, 500, small_chernoff)
    z2_med = float(np.quantile(small_chernoff.samples**2, 0.5))
    assert dist.median == pytest.approx(dist.scale * z2_med, rel=1e-12)
    assert dist.quantile(0.9) >= dist.median >= dist.quantile(0.1) >= 0


def test_ewm_rejects_bad_constants(small_chernoff):
    with pytest.raises(ValidationError):
        ewm_regret_dist(0.0, 1.0, 100, small_chernoff)
    with pytest.raises(ValidationError):
        ewm_regret_dist(1.0, -1.0, 100, small_chernoff)


def test_swm_homogeneity_at_fixed_lambda():
    lam = 1.3
    base = swm_regret_dist(1.0, 1.0, 0.0, lam, KERNEL, 1000).mean
    assert swm_regret_dist(5.0, 1.0, 0.0, lam, KERNEL, 1000).mean == pytest.approx(
        5.0 * base, rel=1e-12
    )


# --- comparison ---------------------------------------------------------------


def _compare(K, H, A, n, chernoff):
    return asymptotic_row("m", K, H, A, n, chernoff, KERNEL)


def test_compare_policies_closed_form_agrees(small_chernoff):
    """The order-2 closed form n^(2/15) H^(2/3) |A|^(-2/5) K^(-2/15) C_e / C_s."""
    K, H, A, n = MODEL1.K, MODEL1.H, MODEL1.A, 500
    row = _compare(K, H, A, n, small_chernoff)
    c_e = 2.0 ** (1.0 / 3.0) * small_chernoff.second_moment
    c_s = 2.5 * (KERNEL.alpha2 / 4.0) ** 0.8
    closed = n ** (2.0 / 15.0) * H ** (2.0 / 3.0) / (abs(A) ** 0.4 * K ** (2.0 / 15.0)) * (c_e / c_s)
    assert closed == pytest.approx(row["ewm_mean"] / row["swm_mean"], rel=1e-8)


def test_compare_policies_model1_favors_smoothed(small_chernoff):
    row = _compare(MODEL1.K, MODEL1.H, MODEL1.A, 500, small_chernoff)
    assert row["ewm_mean"] > row["swm_mean"]


def test_compare_policies_model2_ranking_reverses_with_n(small_chernoff):
    at_500 = _compare(K2, H2, A2, 500, small_chernoff)
    at_3000 = _compare(K2, H2, A2, 3000, small_chernoff)
    assert at_500["swm_mean"] > at_500["ewm_mean"]
    assert at_3000["swm_mean"] < at_3000["ewm_mean"]
