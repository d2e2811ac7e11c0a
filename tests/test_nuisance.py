import contextlib
import math
import re
import struct
import warnings
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threshold_regret import _native, nuisance
from threshold_regret.data import Sample
from threshold_regret.errors import (ArmDataError, NumericError, RankDeficiencyError, ThresholdRegretError,
                                     ValidationError)
from threshold_regret.ewm import fit_ewm
from threshold_regret.kernels import gaussian_cdf_kernel
from threshold_regret.montecarlo import MODEL1, MODEL2, draw_sample
from threshold_regret.nuisance import _sd, estimate_khA, kde, local_poly, optimal_bandwidth
from threshold_regret.swm import PlugInOptimal, fit_swm

from helpers import fresh_python, two_fit_khA

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


_ROWS = np.random.default_rng(20).standard_normal(40)


@pytest.mark.parametrize("x, point, bandwidth, message", [
    pytest.param(_ROWS, math.nan, 0.3, "point must be finite, got nan", id="nan-point"),
    pytest.param(_ROWS, math.inf, 0.3, "point must be finite, got inf", id="infinite-point"),
    pytest.param(_ROWS, 0.0, math.inf, "bandwidth must be finite and positive, got inf", id="infinite-bandwidth"),
    pytest.param(_ROWS, 0.0, math.nan, "bandwidth must be finite and positive, got nan", id="nan-bandwidth"),
    pytest.param(np.r_[_ROWS, math.nan], 0.0, 0.3, "x contains NaN or infinite values", id="nan-row"),
    pytest.param(np.r_[_ROWS, -math.inf], 0.0, 0.3, "x contains NaN or infinite values", id="infinite-row"),
])
@pytest.mark.parametrize("derivative", [0, 1])
def test_kde_refuses_what_is_not_finite(x, point, bandwidth, message, derivative):
    """No NaN or 0.0 for a point, a bandwidth or a row that is not finite."""
    with pytest.raises(ValidationError, match=f"^{message}$"):
        kde(x, point, bandwidth, derivative)


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
    with pytest.raises(ValidationError):
        local_poly(np.arange(10.0), np.arange(10.0), 0.0, 0.5, degree=1, derivative=-1)


@pytest.mark.parametrize("x, y, point, bandwidth, degree, derivative, message", [
    pytest.param(_ROWS, _ROWS, 0.0, 0.3, 2.5, 1, "degree must be an integer, got 2.5", id="float-degree"),
    pytest.param(_ROWS, _ROWS, 0.0, 0.3, True, 0, "degree must be an integer, got True", id="bool-degree"),
    pytest.param(_ROWS, _ROWS, 0.0, 0.3, 3, 1.5, "derivative must be an integer, got 1.5", id="float-derivative"),
    pytest.param(_ROWS, np.r_[_ROWS[1:], math.nan], 0.0, 0.3, 1, 0, "y contains NaN or infinite values",
                 id="nan-y"),
    pytest.param(np.r_[_ROWS[1:], math.inf], _ROWS, 0.0, 0.3, 1, 0, "x contains NaN or infinite values",
                 id="infinite-x"),
    pytest.param(_ROWS, _ROWS, math.nan, 0.3, 1, 0, "point must be finite, got nan", id="nan-point"),
    pytest.param(_ROWS, _ROWS, 0.0, math.inf, 1, 0, "bandwidth must be finite and positive, got inf",
                 id="infinite-bandwidth"),
])
def test_local_poly_refuses_what_is_not_finite_or_not_an_integer(x, y, point, bandwidth, degree, derivative,
                                                                  message):
    """No raw TypeError, silent NaN or misleading RankDeficiencyError."""
    with pytest.raises(ValidationError, match=f"^{message}$"):
        local_poly(x, y, point, bandwidth, degree, derivative)


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


def _outcome(sample, t_eval):
    """The estimate's fields as bits, or the type and message of what it raises."""
    try:
        return "ok", struct.pack("6d", *astuple(estimate_khA(sample, t_eval)))
    except ThresholdRegretError as exc:
        return type(exc).__name__, str(exc)


_AROUND = np.random.default_rng(21).standard_normal(200)
_FAR = 5.0 + 0.1 * np.random.default_rng(22).standard_normal(60)
# 4 rows at t = 0 among 36 two subnormal steps above: the level bandwidth rounds
# to 0, whose count is NaN and passes, and the derivative one to 5e-324, whose
# count is 8.3; with 7 of 32 rows at 0 the derivative count passes too
_SUBNORMAL_THIN = np.r_[np.zeros(4), np.full(36, 1e-323)]
_SUBNORMAL_PASSES = np.r_[np.zeros(7), np.full(25, 1e-323)]
_TWO_VALUES = np.tile([0.0, 1.0], 20)


def _arms(x0, x1, y0=None):
    """A sample of arm 0's rows x0 then arm 1's x1, its outcomes normal unless given for arm 0."""
    rng = np.random.default_rng(23)
    y = rng.standard_normal(len(x0) + len(x1))
    if y0 is not None:
        y[: len(x0)] = y0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tied x
        return Sample(y=y, d=np.r_[np.zeros(len(x0)), np.ones(len(x1))], x=np.r_[x0, x1], propensity=0.5)


def _thin(arm, label, n_arm):
    return f"arm {arm}: fewer than 10 effective observations near t=0.0 for the {label} regression (n_arm={n_arm})"


_RANK = r"rank-deficient local fit at point 0.0 \(rank 2 < 4\); too little data within bandwidth 0.469354964206\d*"


@pytest.mark.parametrize("sample, error, message", [
    pytest.param(lambda: Sample(y=np.ones(4), d=[0, 1, 0, 1], x=[0.0, 1.0, 2.0, 3.0], propensity=0.5),
                 "ValidationError", "kde needs at least 5 observations, got 4", id="four-rows"),
    pytest.param(lambda: _arms(_FAR, []), "ArmDataError", _thin(0, "level", 60), id="thin-arm-0-before-empty-arm-1"),
    pytest.param(lambda: _arms(_FAR, _AROUND), "ArmDataError", _thin(0, "level", 60), id="arm-0-thin-at-level"),
    pytest.param(lambda: _arms(_AROUND, _FAR), "ArmDataError", _thin(1, "level", 60), id="arm-1-thin-at-level"),
    pytest.param(lambda: _arms(_SUBNORMAL_THIN, _AROUND), "ArmDataError", _thin(0, "derivative", 40),
                 id="arm-0-thin-at-derivative"),
    pytest.param(lambda: _arms(_AROUND, _SUBNORMAL_THIN), "ArmDataError", _thin(1, "derivative", 40),
                 id="arm-1-thin-at-derivative"),
    pytest.param(lambda: _arms(_SUBNORMAL_PASSES, _AROUND), "ValidationError", "bandwidth must be positive, got 0.0",
                 id="arm-0-level-bandwidth-underflows"),
    pytest.param(lambda: _arms(_TWO_VALUES, _AROUND), "RankDeficiencyError", _RANK, id="arm-0-rank-deficient"),
    pytest.param(lambda: _arms(_AROUND, _TWO_VALUES), "RankDeficiencyError", _RANK, id="arm-1-rank-deficient"),
    pytest.param(lambda: _arms(_TWO_VALUES, _FAR), "RankDeficiencyError", _RANK,
                 id="arm-0-rank-deficient-before-thin-arm-1"),
    pytest.param(lambda: _arms(_AROUND, _AROUND, y0=np.r_[1e200, np.zeros(199)]), "NumericError",
                 "nuisance estimate K is not finite at t=0.0", id="y-squared-overflows"),
])
def test_estimate_khA_refuses_in_order_on_every_path(sample, error, message):
    """The first refusal in the documented order, with its message, whether
    the fused kernel or the pipeline makes the sums and fits."""
    sample = sample()
    for path in (mock.patch.object(_native, "kernel", lambda name: None), contextlib.nullcontext()):
        with path:
            kind, text = _outcome(sample, 0.0)
        assert kind == error and re.fullmatch(message if error == "RankDeficiencyError" else re.escape(message), text)


def test_estimate_khA_refuses_a_kernel_that_is_not_one():
    with pytest.raises(ValidationError, match="^kernel must be a Kernel, got 'gauss'$"):
        estimate_khA(draw_sample(MODEL1, 300, 5), 0.0, "gauss")


@st.composite
def _khA_samples(draw):
    """Samples of 5 to 3000 rows: x normal, tied or not, scaled by 2^k, a propensity
    vector or a constant, and an arm of a handful of rows or more; and a point among the x."""
    n = draw(st.integers(5, 3000) | st.integers(200, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(n)
    if draw(st.booleans()):
        x = np.round(x, 1)
    scale = draw(st.integers(-60, 60))
    n1 = draw(st.integers(n // 3, n - n // 3) | st.integers(0, min(n, 12)) | st.integers(max(n - 12, 0), n))
    d = np.zeros(n)
    d[rng.permutation(n)[:n1]] = 1.0
    y = x**3 - x + rng.standard_normal(n) * draw(st.sampled_from([0.0, 0.3, 1.0, 1e160]))
    propensity = rng.uniform(0.2, 0.8, n) if draw(st.booleans()) else 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sample = Sample(y=y, d=d, x=np.ldexp(x, scale), propensity=propensity)
    return sample, float(np.quantile(sample.x, draw(st.floats(0.3, 0.7) | st.floats(0.0, 1.0))))


@given(case=_khA_samples())
@example(case=(_arms(_SUBNORMAL_THIN, _AROUND), 0.0))
@example(case=(_arms(_TWO_VALUES, _AROUND), 0.0))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_estimate_khA_gives_the_pipelines_bits_or_refusal(case):
    """The fused kernel against the Python pipeline on numpy's sums and fits:
    the same estimates bit for bit, or the same exception and message."""
    sample, t_eval = case
    with mock.patch.object(_native, "kernel", lambda name: None):
        want = _outcome(sample, t_eval)
    assert _outcome(sample, t_eval) == want


def test_the_nuisance_tests_pass_on_the_pipeline():
    """Every other test here, in a fresh interpreter where no kernel loads."""
    code = f"""
import sys
from unittest import mock
import pytest
from threshold_regret import _native
with mock.patch.object(_native, "kernel", lambda name: None):
    code = pytest.main(["-q", "-p", "no:cacheprovider", "-k", "not on_the_pipeline", {__file__!r}])
print("EXIT", int(code))
"""
    assert fresh_python(code).splitlines()[-1] == "EXIT 0"


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


@pytest.mark.parametrize("shift", [-1000, -600, 600, 1000])
def test_sd_is_exact_under_power_of_two_scaling(shift):
    """Tiny or huge x keep their spread: no underflowed 0 turned into 1.0, no overflow warning."""
    x = draw_sample(MODEL1, 300, 1).x
    assert _sd(np.ldexp(x, shift)) == math.ldexp(_sd(x), shift)
    assert _sd(x) == float(np.std(x))
    assert _sd(np.full(5, 2.0**-600)) == 1.0


def test_local_poly_above_cubic_fits_by_the_numpy_transcription():
    """The compiled fits hold at most cubics; the numpy fit of a quartic is still exact."""
    x = np.linspace(-1.0, 1.0, 50)
    assert local_poly(x, x**4, 0.0, 0.8, degree=4, derivative=4) == pytest.approx(24.0, rel=1e-8)


@pytest.mark.parametrize("sample, t_eval, message", [(None, 0.0, "^sample must be a Sample"),
                                                     ("ok", "0", "^t_eval must be finite and a real number, got '0'")])
def test_estimate_khA_refuses_what_is_not_a_sample_or_a_number(sample, t_eval, message):
    sample = draw_sample(MODEL1, 300, 5) if sample == "ok" else sample
    with pytest.raises(ValidationError, match=message):
        estimate_khA(sample, t_eval)
