import math

import numpy as np
import pytest

from threshold_regret.chernoff import chernoff_quantile
from threshold_regret.errors import NumericError, ValidationError
from threshold_regret.ewm import fit_ewm
from threshold_regret.inference import (
    ewm_bootstrap,
    ewm_ci,
    swm_ci,
    z_quantile,
)
from threshold_regret.kernels import gaussian_cdf_kernel
from threshold_regret.montecarlo import MODEL1, draw_sample
from threshold_regret.nuisance import NuisanceEstimates, estimate_khA
from threshold_regret.swm import LambdaRate, PlugInOptimal, Undersmoothed, fit_swm

KERNEL = gaussian_cdf_kernel()


def _nuis(k_hat, h_hat, a_hat):
    return NuisanceEstimates(
        k_hat=k_hat, h_hat=h_hat, a_hat=a_hat, eval_point=0.0, kde_bandwidth=0.1, reg_bandwidth=0.2
    )


def test_z_quantile_values():
    assert z_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert z_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert z_quantile(0.9) == pytest.approx(1.2815516, abs=1e-6)
    with pytest.raises(ValidationError):
        z_quantile(1.0)


# --- plug-in interval ----------------------------------------------------------


def test_ewm_ci_formula_and_ordering(small_chernoff):
    s = draw_sample(MODEL1, 1000, 5)
    est = fit_ewm(s)
    nuis = estimate_khA(s, est.t_hat)
    ci = ewm_ci(s, est, nuis, small_chernoff, level=0.95)
    c = chernoff_quantile(small_chernoff, 0.975)
    expected_hw = s.n ** (-1 / 3) * (2 * math.sqrt(nuis.k_hat) / nuis.h_hat) ** (2 / 3) * c
    assert ci.half_width == pytest.approx(expected_hw, rel=1e-12)
    assert ci.lo == pytest.approx(est.t_hat - expected_hw)
    assert ci.hi == pytest.approx(est.t_hat + expected_hw)
    assert ci.method == "ewm_plugin"
    assert ci.lo <= ci.center <= ci.hi


def test_ewm_ci_half_width_linear_in_critical_value(small_chernoff):
    s = draw_sample(MODEL1, 800, 6)
    est = fit_ewm(s)
    nuis = estimate_khA(s, est.t_hat)
    ci_95 = ewm_ci(s, est, nuis, small_chernoff, level=0.95)
    ci_80 = ewm_ci(s, est, nuis, small_chernoff, level=0.80)
    ratio = chernoff_quantile(small_chernoff, 0.975) / chernoff_quantile(small_chernoff, 0.90)
    assert ci_95.half_width / ci_80.half_width == pytest.approx(ratio, rel=1e-12)


def test_ewm_ci_rejects_nonpositive_curvature(small_chernoff):
    s = draw_sample(MODEL1, 500, 7)
    est = fit_ewm(s)
    with pytest.raises(NumericError, match="H_hat"):
        ewm_ci(s, est, _nuis(1.0, -0.2, 0.1), small_chernoff)


def test_ewm_ci_requires_ewm_estimate(small_chernoff):
    s = draw_sample(MODEL1, 500, 8)
    swm_est = fit_swm(s, KERNEL, LambdaRate(2.8))
    with pytest.raises(ValidationError):
        ewm_ci(s, swm_est, _nuis(1.0, 0.4, 0.2), small_chernoff)


# --- bootstrap -----------------------------------------------------------------


def test_bootstrap_deterministic_given_seed():
    s = draw_sample(MODEL1, 400, 9)
    est = fit_ewm(s)
    a = ewm_bootstrap(s, est, h_hat=0.4, n_boot=200, seed=3)
    b = ewm_bootstrap(s, est, h_hat=0.4, n_boot=200, seed=3)
    np.testing.assert_array_equal(a.draws, b.draws)
    c = ewm_bootstrap(s, est, h_hat=0.4, n_boot=200, seed=4)
    assert not np.array_equal(a.draws, c.draws)


def test_bootstrap_huge_penalty_collapses_to_estimate():
    s = draw_sample(MODEL1, 400, 10)
    est = fit_ewm(s)
    boot = ewm_bootstrap(s, est, h_hat=1e12, n_boot=200, seed=1)
    assert float(np.max(np.abs(boot.draws))) < 1e-3


def test_bootstrap_minimum_replicates():
    s = draw_sample(MODEL1, 200, 11)
    est = fit_ewm(s)
    with pytest.raises(ValidationError):
        ewm_bootstrap(s, est, h_hat=0.4, n_boot=100, seed=1)


@pytest.mark.parametrize("h_hat", [-0.4, 0.0])
def test_bootstrap_rejects_nonpositive_curvature(h_hat):
    s = draw_sample(MODEL1, 500, 7)
    est = fit_ewm(s)
    with pytest.raises(NumericError, match="H_hat"):
        ewm_bootstrap(s, est, h_hat=h_hat, n_boot=200, seed=1)


def test_bootstrap_percentile_interval_brackets_estimate():
    s = draw_sample(MODEL1, 600, 12)
    est = fit_ewm(s)
    nuis = estimate_khA(s, est.t_hat)
    boot = ewm_bootstrap(s, est, nuis.h_hat, n_boot=300, seed=2)
    ci = boot.percentile_interval(0.95)
    assert ci.lo <= est.t_hat <= ci.hi
    assert ci.method == "ewm_bootstrap"


def test_bootstrap_agrees_with_plugin_half_width(small_chernoff):
    s = draw_sample(MODEL1, 2000, 13)
    est = fit_ewm(s)
    nuis = estimate_khA(s, est.t_hat)
    plug = ewm_ci(s, est, nuis, small_chernoff, 0.95)
    boot = ewm_bootstrap(s, est, nuis.h_hat, n_boot=999, seed=5).percentile_interval(0.95)
    assert boot.half_width == pytest.approx(plug.half_width, rel=0.20)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, math.nan])
def test_every_interval_rejects_a_level_outside_the_unit_interval(small_chernoff, level):
    s = draw_sample(MODEL1, 400, 9)
    est = fit_ewm(s)
    nuis = _nuis(1.0, 0.4, 0.2)
    swm_est = fit_swm(s, KERNEL, LambdaRate(2.8))
    boot = ewm_bootstrap(s, est, h_hat=0.4, n_boot=200, seed=3)
    for build in (
        lambda: ewm_ci(s, est, nuis, small_chernoff, level),
        lambda: swm_ci(s, swm_est, nuis, KERNEL, level),
        lambda: boot.percentile_interval(level),
    ):
        with pytest.raises(ValidationError, match=r"^level must lie in \(0, 1\)"):
            build()


# --- smoothed-policy intervals ---------------------------------------------------


def test_swm_ci_bias_corrected_formula():
    s = draw_sample(MODEL1, 2000, 14)
    est = fit_swm(s, KERNEL, LambdaRate(2.8284271247461903))
    nuis = estimate_khA(s, est.t_hat)
    ci = swm_ci(s, est, nuis, KERNEL, level=0.95, mode="bias_corrected")
    sigma = est.bandwidth
    lam = s.n * sigma**5
    bias = (s.n * sigma) ** (-0.5) * math.sqrt(lam) * nuis.a_hat / nuis.h_hat
    hw = (s.n * sigma) ** (-0.5) * math.sqrt(KERNEL.alpha2 * nuis.k_hat) / nuis.h_hat * z_quantile(0.975)
    assert ci.bias_correction == pytest.approx(bias, rel=1e-12)
    assert ci.half_width == pytest.approx(hw, rel=1e-12)
    assert ci.lo == pytest.approx(est.t_hat - bias - hw, rel=1e-9, abs=1e-12)
    assert ci.hi == pytest.approx(est.t_hat - bias + hw, rel=1e-9, abs=1e-12)
    assert ci.lo <= ci.center - ci.bias_correction <= ci.hi


def test_swm_ci_zero_bias_constant_makes_modes_agree():
    s = draw_sample(MODEL1, 1500, 15)
    est_plug = fit_swm(s, KERNEL, PlugInOptimal(t_eval=0.0), nuisance_fn=estimate_khA)
    est_under = fit_swm(s, KERNEL, Undersmoothed(t_eval=0.0), nuisance_fn=estimate_khA)
    nuis = _nuis(1.5, 0.4, 0.0)
    corrected = swm_ci(s, est_plug, nuis, KERNEL, mode="bias_corrected")
    undersmoothed = swm_ci(s, est_under, nuis, KERNEL, mode="undersmoothed")
    assert corrected.bias_correction == 0.0
    assert corrected.center - corrected.bias_correction == corrected.center
    assert undersmoothed.bias_correction == 0.0


def test_swm_ci_mode_rule_mismatch():
    s = draw_sample(MODEL1, 800, 16)
    est = fit_swm(s, KERNEL, LambdaRate(2.8))
    with pytest.raises(ValidationError, match="undersmoothed"):
        swm_ci(s, est, _nuis(1.5, 0.4, 0.2), KERNEL, mode="undersmoothed")
    with pytest.raises(ValidationError):
        swm_ci(s, est, _nuis(1.5, 0.4, 0.2), KERNEL, mode="nonsense")


def test_swm_ci_needs_swm_estimate():
    s = draw_sample(MODEL1, 500, 17)
    est = fit_ewm(s)
    with pytest.raises(ValidationError):
        swm_ci(s, est, _nuis(1.5, 0.4, 0.2), KERNEL)


def test_swm_ci_rejects_nonpositive_curvature():
    s = draw_sample(MODEL1, 500, 18)
    est = fit_swm(s, KERNEL, LambdaRate(2.8))
    with pytest.raises(NumericError, match="H_hat"):
        swm_ci(s, est, _nuis(1.0, 0.0, 0.1), KERNEL)


# --- shrinkage rates --------------------------------------------------------------


def test_interval_widths_shrink_at_stated_rates(small_chernoff):
    """log half-width regressed on log n: -1/3 for ewm, -2/5 for swm at fixed lambda."""
    sizes = (500, 1000, 2000, 3000, 6000)
    seeds_per_size = 30
    lam = 2.8284271247461903
    hw_e, hw_s = [], []
    for n in sizes:
        he, hs = [], []
        for seed in range(seeds_per_size):
            s = draw_sample(MODEL1, n, np.random.SeedSequence(entropy=600, spawn_key=(n, seed)))
            est = fit_ewm(s)
            nuis = estimate_khA(s, est.t_hat)
            he.append(ewm_ci(s, est, nuis, small_chernoff).half_width)
            est_s = fit_swm(s, KERNEL, LambdaRate(lam))
            nuis_s = estimate_khA(s, est_s.t_hat)
            hs.append(swm_ci(s, est_s, nuis_s, KERNEL).half_width)
        hw_e.append(np.mean(he))
        hw_s.append(np.mean(hs))
    lx = np.log(np.array(sizes))
    slope_e = np.polyfit(lx, np.log(hw_e), 1)[0]
    slope_s = np.polyfit(lx, np.log(hw_s), 1)[0]
    assert slope_e == pytest.approx(-1.0 / 3.0, abs=0.05)
    assert slope_s == pytest.approx(-2.0 / 5.0, abs=0.05)
