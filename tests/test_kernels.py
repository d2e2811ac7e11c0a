import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from threshold_regret.asymptotics import optimal_lambda_mean
from threshold_regret.errors import NumericError
from threshold_regret.ewm import ThresholdEstimate
from threshold_regret.inference import swm_ci
from threshold_regret.kernels import Kernel, gaussian_cdf_kernel, norm_pdf
from threshold_regret.nuisance import NuisanceEstimates


@pytest.fixture(scope="module")
def kernel():
    return gaussian_cdf_kernel()


def test_cdf_value_at_zero(kernel):
    assert kernel.k(0.0) == pytest.approx(0.5)


def test_limits_at_infinity(kernel):
    assert abs(kernel.k(-10.0)) < 1e-8
    assert abs(kernel.k(10.0) - 1.0) < 1e-8


def test_first_derivative_matches_finite_differences(kernel):
    probes = np.linspace(-3.0, 3.0, 20)
    h = 1e-6
    for z in probes:
        fd = (kernel.k(z + h) - kernel.k(z - h)) / (2 * h)
        assert kernel.k1(z) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_second_derivative_matches_finite_differences(kernel):
    probes = np.linspace(-3.0, 3.0, 20)
    h = 1e-6
    for z in probes:
        fd = (kernel.k1(z + h) - kernel.k1(z - h)) / (2 * h)
        assert kernel.k2(z) == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_alpha2_matches_quadrature(kernel):
    numeric, _ = quad(lambda z: kernel.k1(z) ** 2, -10, 10)
    assert kernel.alpha2 == pytest.approx(numeric, rel=1e-10)
    assert kernel.alpha2 == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-14)
    assert kernel.alpha2 == pytest.approx(0.2820948, abs=5e-8)


def test_alpha1_matches_quadrature(kernel):
    numeric, _ = quad(lambda z: z**kernel.h * kernel.k1(z), -12, 12)
    assert kernel.alpha1 == pytest.approx(numeric, rel=1e-10)
    assert kernel.alpha1 == 1.0


def test_k2_sup_bounds_second_derivative_and_is_attained(kernel):
    z = np.linspace(-12.0, 12.0, 2_400_001)
    # a few ulps of slack for the rounding in evaluating k2 itself
    assert float(np.max(np.abs(kernel.k2(z)))) <= kernel.k2_sup * (1.0 + 4.0 * np.finfo(float).eps)
    np.testing.assert_allclose(np.abs(kernel.k2(np.array([-1.0, 1.0]))), kernel.k2_sup, rtol=1e-15)
    assert kernel.k2_sup == pytest.approx(0.24197072451914337, rel=1e-15)


def test_second_derivative_is_zero_far_out_and_at_infinity(kernel):
    z = np.array([-np.inf, -40.0, 40.0, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = kernel.k2(z)
        scalar = kernel.k2(np.inf)
    np.testing.assert_array_equal(values, 0.0)
    assert scalar == 0.0
    assert np.isnan(kernel.k2(np.nan))


def test_moments_positive(kernel):
    assert kernel.alpha1 > 0 and kernel.alpha2 > 0
    assert kernel.h == 2


def test_order_is_two_and_not_settable(kernel):
    """An order other than 2 would silently mis-scale A, lambda* and the regret law."""
    assert kernel.h == 2
    with pytest.raises(TypeError):
        Kernel(k=ndtr, k1=norm_pdf, k2=norm_pdf, h=4, alpha1=1.0, alpha2=0.28)
    with pytest.raises(TypeError):
        dataclasses.replace(kernel, h=4)


def _bits(x):
    return float(x).hex()


@given(
    K=st.floats(1e-3, 1e3),
    H=st.floats(1e-3, 1e3),
    A=st.floats(1e-3, 1e3),
    negative_a=st.booleans(),
    lam=st.floats(1e-6, 1e6),
    n=st.integers(1, 10**9),
    sigma=st.floats(1e-4, 1e2),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_folded_order_two_formulas_match_the_generic_ones(kernel, K, H, A, negative_a, lam, n, sigma):
    """The order-2 constants give the bits of the order-h expressions at h = 2."""
    A = -A if negative_a else A
    h = 2
    alpha2 = kernel.alpha2
    assert _bits(kernel.optimal_lambda(K, A)) == _bits(alpha2 * K / (2.0 * h * A**2))
    assert _bits(kernel.rate_bandwidth(lam, n)) == _bits((lam / n) ** (1.0 / (2 * h + 1)))

    two_h = 2 * h
    expo = two_h / (two_h + 1.0)
    c_s = (two_h + 1.0) / 2.0 * (alpha2 / two_h) ** expo
    generic = n ** (-expo) * abs(A) ** (2.0 / (two_h + 1.0)) * K**expo / H * c_s
    assert _bits(optimal_lambda_mean(K, H, A, kernel, n)) == _bits(generic)

    # swm_ci reads only n from the sample
    estimate = ThresholdEstimate(t_hat=0.0, policy_kind="swm", objective_value=0.0, n=n, bandwidth=sigma)
    nuisance = NuisanceEstimates(k_hat=K, h_hat=H, a_hat=A, eval_point=0.0, kde_bandwidth=1.0, reg_bandwidth=1.0)
    ci = swm_ci(SimpleNamespace(n=n), estimate, nuisance, kernel)
    lam_ci = n * sigma ** (2 * h + 1)
    bias = (n * sigma) ** (-0.5) * math.sqrt(lam_ci) * A / H
    assert _bits(ci.bias_correction) == _bits(bias)


def test_optimal_lambda_and_rate_bandwidth(kernel):
    assert kernel.optimal_lambda(2.0, 0.5) == kernel.alpha2 * 2.0 / (2.0 * 2 * 0.25)
    assert kernel.rate_bandwidth(3.0, 1000) == (3.0 / 1000) ** (1.0 / 5.0)
    for a in (0.0, -0.0, 1e-200, 1e200):
        with pytest.raises(NumericError):
            kernel.optimal_lambda(1.0, a)
