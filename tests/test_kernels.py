import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from threshold_regret.errors import NumericError, ValidationError
from threshold_regret.kernels import gaussian_cdf_kernel


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


def test_order_below_two_rejected():
    from threshold_regret.kernels import Kernel, norm_pdf
    from scipy.special import ndtr

    with pytest.raises(ValidationError, match="order h"):
        Kernel(k=ndtr, k1=norm_pdf, k2=norm_pdf, h=1, alpha1=1.0, alpha2=0.28)


def test_optimal_lambda_and_rate_bandwidth(kernel):
    assert kernel.optimal_lambda(2.0, 0.5) == kernel.alpha2 * 2.0 / (2.0 * 2 * 0.25)
    assert kernel.rate_bandwidth(3.0, 1000) == (3.0 / 1000) ** (1.0 / 5.0)
    for a in (0.0, -0.0, 1e-200, 1e200):
        with pytest.raises(NumericError):
            kernel.optimal_lambda(1.0, a)
