import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from threshold_regret import swm

from threshold_regret.data import ParamSpace, Sample, _ipw_g, default_space, empirical_welfare
from threshold_regret.errors import ArmDataError, NumericError, ValidationError
from threshold_regret.ewm import fit_ewm
from threshold_regret.kernels import gaussian_cdf_kernel
from threshold_regret.montecarlo import MODEL1, MODEL2, draw_sample
from threshold_regret.nuisance import estimate_khA
from threshold_regret.swm import (
    _GRID_CAP,
    FixedBandwidth,
    LambdaRate,
    PlugInOptimal,
    Undersmoothed,
    _grid_candidates,
    _smoothed,
    fit_swm,
    smoothed_objective,
    smoothed_objective_derivative,
)

from helpers import _golden_section_max, load_script, overflowing_sample, pinned, random_sample

KERNEL = gaussian_cdf_kernel()


def test_huge_bandwidth_flattens_to_half_mean_score(rng):
    s = random_sample(rng, 15)
    g = s.d * s.y / s.propensity - (1 - s.d) * s.y / (1 - s.propensity)
    sigma = 1e6 * (np.max(s.x) - np.min(s.x))
    value = smoothed_objective(s, KERNEL, sigma, t=float(np.mean(s.x)))
    assert value == pytest.approx(0.5 * float(np.mean(g)), rel=1e-6)


def test_threshold_far_below_data_gives_mean_score(rng):
    s = random_sample(rng, 15)
    g = s.d * s.y / s.propensity - (1 - s.d) * s.y / (1 - s.propensity)
    sigma = 0.4
    t = float(np.min(s.x)) - 20 * sigma
    assert smoothed_objective(s, KERNEL, sigma, t) == pytest.approx(
        float(np.mean(g)), rel=1e-8
    )


def test_objective_matches_per_unit_summation(rng):
    s = random_sample(rng, 10, constant_p=False)
    sigma, t = 0.3, 0.0
    total = 0.0
    for i in range(s.n):
        g_i = (
            s.d[i] * s.y[i] / s.propensity[i]
            - (1 - s.d[i]) * s.y[i] / (1 - s.propensity[i])
        )
        total += g_i * float(KERNEL.k((s.x[i] - t) / sigma))
    assert smoothed_objective(s, KERNEL, sigma, t) == pytest.approx(total / s.n, rel=1e-12)


def test_sigma_must_be_positive(rng):
    s = random_sample(rng, 5)
    with pytest.raises(ValidationError):
        smoothed_objective(s, KERNEL, 0.0, 0.0)
    with pytest.raises(ValidationError):
        smoothed_objective_derivative(s, KERNEL, -1.0, 0.0)
    with pytest.raises(ValidationError):
        FixedBandwidth(-0.1)


def test_derivative_matches_finite_differences_at_random_probes(rng):
    s = draw_sample(MODEL1, 150, 4)
    for _ in range(50):
        t = float(rng.uniform(-2, 2))
        sigma = float(rng.uniform(0.05, 1.5))
        analytic = smoothed_objective_derivative(s, KERNEL, sigma, t)
        h = 1e-5 * sigma
        fd = (
            smoothed_objective(s, KERNEL, sigma, t + h)
            - smoothed_objective(s, KERNEL, sigma, t - h)
        ) / (2 * h)
        assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_vanishing_bandwidth_recovers_step_objective(rng):
    s = random_sample(rng, 12)
    xs = np.sort(s.x)
    spacing = float(np.min(np.diff(xs)))
    sigma = 1e-8 * spacing
    base = float(np.mean((1 - s.d) * s.y / (1 - s.propensity)))
    for j in (3, 7):
        t = 0.5 * (xs[j] + xs[j + 1])
        smoothed = smoothed_objective(s, KERNEL, sigma, t)
        assert abs(smoothed - (empirical_welfare(s, t) - base)) < 1e-8


def test_fit_scale_invariant_in_outcomes(rng):
    s = random_sample(rng, 60)
    space = default_space(s)
    rule = FixedBandwidth(0.4)
    base = fit_swm(s, KERNEL, rule, space)
    scaled = Sample(y=s.y * 7.0, d=s.d, x=s.x, propensity=s.propensity)
    est = fit_swm(scaled, KERNEL, rule, space)
    assert est.t_hat == pytest.approx(base.t_hat, abs=1e-7 * space.width)
    assert est.objective_value == pytest.approx(7.0 * base.objective_value, rel=1e-9)


def test_lambda_rate_bandwidth_exact():
    s = draw_sample(MODEL1, 400, 2)
    lam = 2.5
    est = fit_swm(s, KERNEL, LambdaRate(lam))
    assert est.bandwidth * s.n ** (1.0 / 5.0) == pytest.approx(lam ** (1.0 / 5.0), rel=1e-14)


def test_symmetric_two_point_sample_centers():
    s = Sample(y=[-0.5, 0.5], d=[1, 1], x=[-1.0, 1.0], propensity=0.5)
    est = fit_swm(s, KERNEL, FixedBandwidth(1.0), ParamSpace(-2.0, 2.0))
    assert abs(est.t_hat) < 1e-6


def test_interior_first_order_condition(rng):
    s = draw_sample(MODEL1, 500, 9)
    est = fit_swm(s, KERNEL, FixedBandwidth(0.35))
    g_max = float(
        np.max(np.abs(s.d * s.y / s.propensity - (1 - s.d) * s.y / (1 - s.propensity)))
    )
    deriv = smoothed_objective_derivative(s, KERNEL, est.bandwidth, est.t_hat)
    assert abs(deriv) < 1e-6 * g_max / est.bandwidth


def test_plug_in_rule_records_bandwidth():
    s = draw_sample(MODEL1, 2000, 12)
    est = fit_swm(s, KERNEL, PlugInOptimal())
    assert est.bandwidth is not None and est.bandwidth > 0
    assert est.policy_kind == "swm"
    # feasible bandwidth should be in the ballpark of the infeasible optimum
    lam_star = KERNEL.alpha2 * MODEL1.K / (4.0 * MODEL1.A**2)
    sigma_star = (lam_star / s.n) ** 0.2
    assert 0.3 * sigma_star < est.bandwidth < 3.0 * sigma_star


def test_zero_outcomes_fall_back_with_flag():
    n = 60
    rng = np.random.default_rng(0)
    s = Sample(
        y=np.zeros(n),
        d=(rng.random(n) < 0.5).astype(int),
        x=rng.normal(size=n),
        propensity=0.5,
    )
    est = fit_swm(s, KERNEL, PlugInOptimal(t_eval=0.0))
    assert "bandwidth_fallback" in est.flags
    assert est.bandwidth == pytest.approx(float(np.std(s.x)) * n ** (-0.2))


def test_overflowing_plug_in_constants_fall_back_with_flag(monkeypatch):
    s = draw_sample(MODEL1, 300, 3)

    def huge_a(sample, t, kernel=None):
        return dataclasses.replace(estimate_khA(sample, t, kernel), a_hat=1e200)

    monkeypatch.setattr(swm, "estimate_khA", huge_a)
    est = fit_swm(s, KERNEL, PlugInOptimal(t_eval=0.0))
    assert "bandwidth_fallback" in est.flags
    assert est.bandwidth == pytest.approx(float(np.std(s.x)) * s.n ** (-0.2))


def test_plug_in_rule_passes_a_nuisance_refusal_through():
    """Thin arm data is a refusal, not a fallback: estimate_khA's error reaches the caller."""
    rng = np.random.default_rng(17)
    d = np.ones(200, dtype=int)
    d[:3] = 0
    s = Sample(y=rng.normal(size=200), d=d, x=rng.normal(size=200), propensity=0.5)
    with pytest.raises(ArmDataError, match="arm 0"):
        fit_swm(s, KERNEL, PlugInOptimal(t_eval=0.0))


def test_undersmoothed_shrinks_bandwidth_and_flags():
    s = draw_sample(MODEL1, 1500, 21)
    plug = fit_swm(s, KERNEL, PlugInOptimal(t_eval=0.0))
    under = fit_swm(s, KERNEL, Undersmoothed(t_eval=0.0))
    assert "undersmoothed" in under.flags
    assert under.bandwidth == pytest.approx(plug.bandwidth * s.n ** (-0.05), rel=1e-12)


def test_undersmoothed_requires_positive_shrink():
    with pytest.raises(ValidationError):
        Undersmoothed(exponent_shrink=0.0)


@pytest.mark.parametrize("rule", [FixedBandwidth, LambdaRate, Undersmoothed])
@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
def test_bandwidth_rules_require_a_finite_positive_parameter(rule, value):
    with pytest.raises(ValidationError, match="finite and positive"):
        rule(value)


def test_bandwidth_that_underflows_to_zero_is_a_numeric_error():
    s = draw_sample(MODEL1, 500, 3)
    with pytest.raises(NumericError, match="not finite and positive"):
        fit_swm(s, KERNEL, Undersmoothed(exponent_shrink=1000.0, t_eval=0.0))


def _rescaled(sample, k, j):
    """The sample with x times 2^k and y times 2^j, both exact in floating point."""
    return Sample(y=np.ldexp(sample.y, j), d=sample.d, x=np.ldexp(sample.x, k), propensity=sample.propensity)


@example(model=MODEL1, n=800, seed=1, k=10, j=0)
@example(model=MODEL2, n=800, seed=2, k=0, j=-60)
@given(
    model=st.sampled_from([MODEL1, MODEL2]),
    n=st.sampled_from([300, 800]),
    seed=st.integers(0, 10_000),
    k=st.integers(-60, 60),
    j=st.integers(-60, 60),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_fits_follow_a_power_of_two_change_of_units(model, n, seed, k, j):
    """x times 2^k and y times 2^j is exact, so the EWM fit and K, H, A follow it exactly.
    The plug-in SWM fit keeps its flags; its bandwidth follows up to the rounding of the
    1/5 power, and its threshold up to the refinement tolerance.  With k = 0 the plug-in
    bandwidth and threshold do not move at all."""
    base = draw_sample(model, n, seed)
    scaled = _rescaled(base, k, j)
    c = 2.0**k
    ewm, ewm_scaled = fit_ewm(base), fit_ewm(scaled)
    assert ewm_scaled.t_hat == c * ewm.t_hat
    assert ewm_scaled.maximizing_interval == tuple(c * t for t in ewm.maximizing_interval)
    nuis, nuis_scaled = estimate_khA(base, ewm.t_hat), estimate_khA(scaled, ewm_scaled.t_hat)
    assert (nuis_scaled.k_hat, nuis_scaled.h_hat, nuis_scaled.a_hat) == (
        math.ldexp(nuis.k_hat, 2 * j - k), math.ldexp(nuis.h_hat, j - 2 * k), math.ldexp(nuis.a_hat, j - 3 * k)
    )
    fit, fit_scaled = fit_swm(base, KERNEL, PlugInOptimal()), fit_swm(scaled, KERNEL, PlugInOptimal())
    assert fit_scaled.flags == fit.flags
    assert fit_scaled.bandwidth == pytest.approx(c * fit.bandwidth, rel=1e-13, abs=0.0)
    assert abs(fit_scaled.t_hat - c * fit.t_hat) <= 1e-8 * default_space(scaled).width
    if k == 0:
        assert (fit_scaled.bandwidth, fit_scaled.t_hat) == (fit.bandwidth, fit.t_hat)
        assert fit_scaled.objective_value == math.ldexp(fit.objective_value, j)


def test_infeasible_optimal_mse_consistent_with_normal_limit():
    """200 replications at n=3000: MSE within a factor 2 of bias^2 + variance."""
    dgp = MODEL1
    n = 3000
    lam_star = KERNEL.alpha2 * dgp.K / (2.0 * KERNEL.h * dgp.A**2)
    sigma_star = (lam_star / n) ** (1.0 / 5.0)
    bias = (n * sigma_star) ** (-0.5) * math.sqrt(lam_star) * dgp.A / dgp.H
    var = (n * sigma_star) ** (-1.0) * KERNEL.alpha2 * dgp.K / dgp.H**2
    theory = bias**2 + var
    errs = []
    for rep in range(200):
        s = draw_sample(dgp, n, np.random.SeedSequence(entropy=77, spawn_key=(rep,)))
        est = fit_swm(s, KERNEL, LambdaRate(lam_star))
        errs.append(est.t_hat**2)
    mse = float(np.mean(errs))
    assert theory / 2.0 < mse < theory * 2.0


# --- screened coarse grid ------------------------------------------------------


def _full_and_screened(g, x, kernel, sigma, space):
    """Exact values on the whole coarse grid, and the index the screen picks."""
    n_pts = max(201, min(int(math.ceil(space.width / sigma)) * 4, _GRID_CAP))
    ts = np.linspace(space.lo, space.hi, n_pts)
    full = _smoothed(g, x, kernel, sigma, ts)
    cand = _grid_candidates(g, x, kernel, sigma, space, n_pts)
    return full, cand, int(cand[np.argmax(_smoothed(g, x, kernel, sigma, ts[cand]))])


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 17, 90]),
    sigma=st.sampled_from([1e-5, 3e-3, 0.08, 0.6, 5.0, 1e4]),
    ties=st.booleans(),
    outlier=st.sampled_from([None, -1e4, 300.0]),
    narrow=st.booleans(),
    heavy=st.booleans(),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_screened_grid_argmax_matches_full_exact_grid(seed, n, sigma, ties, outlier, narrow, heavy):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    if ties:
        x = np.round(x, 1)
    if outlier is not None:
        x[0] = outlier
    g = rng.standard_cauchy(n) if heavy else rng.normal(size=n)
    if narrow:
        space = ParamSpace(-0.3, 0.4)
    else:
        eps = 0.05 * (x.max() - x.min()) or 0.5
        space = ParamSpace(x.min() - eps, x.max() + eps)
    full, _, best = _full_and_screened(g, x, KERNEL, sigma, space)
    tol = 1e-12 * float(np.sum(np.abs(g))) / n
    second, first = np.sort(full)[-2:]
    if first - second > tol:
        assert best == int(np.argmax(full))
    else:
        assert full[best] >= first - tol


def test_screen_keeps_a_near_tie_that_binning_misorders():
    """Two bumps on [0, 1] with sigma = 40 sub-cells: the first has its rows on
    bin nodes (binned exactly), the second mid-cell (binned low by about 4e-5)
    but is higher by 7e-9, so the binned values alone pick the wrong bump."""
    sigma, sub = 0.05, 1.0 / 800.0
    h1 = KERNEL.k(1.0) - KERNEL.k(-1.0)
    h2 = KERNEL.k(40.5 / 40.0) - KERNEL.k(-40.5 / 40.0)
    s2 = h1 / h2 * (1.0 + 1e-8)
    x = np.array([0.25 - 40 * sub, 0.25 + 40 * sub, 0.75 - 40.5 * sub, 0.75 + 40.5 * sub])
    g = np.array([-1.0, 1.0, -s2, s2])
    full, cand, best = _full_and_screened(g, x, KERNEL, sigma, ParamSpace(0.0, 1.0))
    assert len(full) == 201 and int(np.argmax(full)) == 150
    assert full[150] - full[50] > 1e-9
    assert 50 in cand and best == 150


def test_screen_keeps_few_candidates_on_benchmark_samples():
    lam = KERNEL.alpha2 * MODEL1.K / (2.0 * KERNEL.h * MODEL1.A**2)
    for n in (500, 3000):
        s = draw_sample(MODEL1, n, 5)
        g = s.d * s.y / s.propensity - (1 - s.d) * s.y / (1 - s.propensity)
        full, cand, best = _full_and_screened(g, s.x, KERNEL, (lam / n) ** 0.2, default_space(s))
        assert best == int(np.argmax(full))
        assert len(cand) <= 12


def test_infinite_k2_sup_evaluates_the_full_exact_grid():
    s = draw_sample(MODEL1, 500, 6)
    g = s.d * s.y / s.propensity - (1 - s.d) * s.y / (1 - s.propensity)
    space = default_space(s)
    unbounded = dataclasses.replace(KERNEL, k2_sup=math.inf)
    np.testing.assert_array_equal(_grid_candidates(g, s.x, unbounded, 0.3, space, 201), np.arange(201))
    for rule in (FixedBandwidth(0.05), LambdaRate(2.8)):
        assert fit_swm(s, unbounded, rule, space) == fit_swm(s, KERNEL, rule, space)


def test_fit_swm_reproduces_pinned_outputs():
    """Bit-for-bit outputs recorded by scripts/pin_swm_outputs.py."""
    assert load_script("pin_swm_outputs").pinned_results() == pinned("swm_pinned.json")["cases"]


def test_pinned_outputs_lie_within_tolerance_of_golden_section_pins():
    """swm_pinned_golden.json holds the same cases as fitted with golden-section
    refinement; Newton moves each t_hat by at most the golden tolerance plus the
    golden section's resolution, and changes no bandwidth, flag or refusal."""
    pin = load_script("pin_swm_outputs")
    newton, golden = pinned("swm_pinned.json")["cases"], pinned("swm_pinned_golden.json")["cases"]
    assert len(newton) == len(golden)
    moved = 0
    for new, old in zip(newton, golden):
        keep = {key: value for key, value in old.items() if key not in ("t_hat", "objective_value")}
        assert {key: new[key] for key in keep} == keep and new.keys() == old.keys()
        if "error" in old:
            continue
        sample, space = pin.case_inputs(old)
        width = (space or default_space(sample)).width
        t_new, t_old = float.fromhex(new["t_hat"]), float.fromhex(old["t_hat"])
        sigma = float.fromhex(new["bandwidth"])
        assert abs(t_new - t_old) <= 1e-8 * width + _golden_resolution(sample, sigma, t_new)
        v_new, v_old = float.fromhex(new["objective_value"]), float.fromhex(old["objective_value"])
        assert v_new >= v_old - 1e-12 * abs(v_old)
        moved += t_new != t_old
    assert moved > 0


# --- Newton refinement ---------------------------------------------------------

def _golden_resolution(sample, sigma, t):
    """How far from a maximum at ``t`` golden section may stop: it compares values
    of S_n, so it cannot tell apart the points where S_n lies within its rounding
    error (taken as 2 eps * mean |g_i|) of the maximum, a half-width of
    sqrt(2 * rounding / |S_n''(t)|)."""
    g = _ipw_g(sample)
    rounding = 2.0 * np.finfo(float).eps * float(np.mean(np.abs(g)))
    curvature = abs(_smoothed(g, sample.x, KERNEL, sigma, t, order=2))
    return math.sqrt(2.0 * rounding / curvature) if curvature > 0 else math.inf


def _newton_and_golden(sample, rule, space=None):
    """Fit once; returns the estimate, its refinement's Newton and golden-section
    thresholds from the same bracket, and S_n at each."""
    newton_max = swm._newton_max
    seen = []

    def both(f, lo, hi, t, tol):
        t_newton = newton_max(f, lo, hi, t, tol)
        t_golden = _golden_section_max(f, lo, hi, tol)
        seen.append((t_newton, t_golden, f(t_newton), f(t_golden)))
        return t_newton

    with mock.patch.object(swm, "_newton_max", both):
        est = fit_swm(sample, KERNEL, rule, space)
    return est, seen[0]


@given(
    seed=st.integers(0, 2**32 - 1),
    dgp=st.sampled_from([MODEL1, MODEL2]),
    n=st.sampled_from([2, 20, 500, 3000]),
    log_factor=st.integers(-4, 3),
    variant=st.sampled_from(["plain", "narrow", "outlier", "boundary"]),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_newton_refinement_matches_golden_section(seed, dgp, n, log_factor, variant):
    assume(not (n == 3000 and log_factor == -4))  # a full 100 001-point exact grid: seconds per example
    sample = draw_sample(dgp, n, seed)
    space = {"narrow": ParamSpace(-0.25, 0.25), "boundary": ParamSpace(0.6, 2.5)}.get(variant)
    if variant == "outlier":
        x = sample.x.copy()
        x[0] = 60.0
        sample = Sample(y=sample.y, d=sample.d, x=x, propensity=sample.propensity)
    rate = KERNEL.rate_bandwidth(KERNEL.optimal_lambda(dgp.K, dgp.A), n)
    est, (t_newton, t_golden, s_newton, s_golden) = _newton_and_golden(
        sample, FixedBandwidth(rate * 10.0**log_factor), space
    )
    width = (space or default_space(sample)).width
    assert est.t_hat == t_newton and est.objective_value == s_newton
    assert abs(t_newton - t_golden) <= 1e-8 * width + _golden_resolution(sample, est.bandwidth, t_newton)
    assert s_newton >= s_golden - 1e-12 * abs(s_golden)


def test_boundary_variant_puts_the_maximum_on_the_space_boundary():
    for dgp in (MODEL1, MODEL2):
        est = fit_swm(draw_sample(dgp, 500, 3), KERNEL, FixedBandwidth(0.2), ParamSpace(0.6, 2.5))
        assert est.t_hat == 0.6


@pytest.mark.parametrize("dgp", [MODEL1, MODEL2], ids=["model1", "model2"])
@pytest.mark.parametrize("n", [3000, 100_000])
def test_newton_refinement_takes_few_steps(dgp, n):
    smoothed = swm._smoothed
    steps = []

    def counting(*args, order=0):
        steps.extend([None] * (order == 1))
        return smoothed(*args, order=order)

    lam = KERNEL.optimal_lambda(dgp.K, dgp.A)
    with mock.patch.object(swm, "_smoothed", counting):
        fit_swm(draw_sample(dgp, n, 11), KERNEL, LambdaRate(lam))
    assert 1 <= len(steps) <= 8


@pytest.mark.parametrize("sigma", [5e-324, 1e-300, 1e300, 1.7e308])
def test_extreme_fixed_bandwidth_gives_an_estimate_or_numeric_error(sigma):
    sample = draw_sample(MODEL1, 200, 1)
    try:
        est = fit_swm(sample, KERNEL, FixedBandwidth(sigma))
    except NumericError:
        return
    space = default_space(sample)
    assert space.lo <= est.t_hat <= space.hi and math.isfinite(est.objective_value)


def test_fit_refuses_an_objective_that_overflows():
    """Finite IPW scores whose sums overflow leave S_n NaN on the grid and at
    t_hat; refused without a RuntimeWarning (the suite makes one an error)."""
    with pytest.raises(NumericError, match="not finite"):
        fit_swm(overflowing_sample(), KERNEL, FixedBandwidth(1.0))
