import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threshold_regret.data import ParamSpace, Sample, default_space, empirical_welfare
from threshold_regret.errors import DataWarning, NumericError, ValidationError
from threshold_regret.ewm import ThresholdEstimate, _compensated_suffix_sums, fit_ewm
from threshold_regret.montecarlo import MODEL1, draw_sample

from helpers import brute_force_ewm_objective, canonical_cuts, loop_compensated_suffix_sums, random_sample


def test_single_sign_change_two_units():
    s = Sample(y=[-0.5, 0.5], d=[1, 1], x=[0.0, 1.0], propensity=0.5)
    est = fit_ewm(s, ParamSpace(-1.0, 2.0))
    assert est.maximizing_interval == (0.0, 1.0)
    assert est.t_hat == 0.5
    # only the x=1 unit is treated at the estimate
    assert est.objective_value == pytest.approx(0.5)


def test_uniformly_beneficial_treatment_treats_everyone(rng):
    n = 10
    x = rng.normal(size=n)
    s = Sample(y=np.ones(n), d=np.ones(n, dtype=int), x=x, propensity=0.5)
    est = fit_ewm(s, ParamSpace(-10.0, 10.0))
    assert est.maximizing_interval[0] == -10.0
    assert est.maximizing_interval[1] == float(np.min(x))
    assert est.t_hat < np.min(x)


def test_matches_brute_force_on_random_sample(rng):
    s = random_sample(rng, 12)
    space = default_space(s)
    est = fit_ewm(s, space)
    assert est.objective_value == pytest.approx(
        brute_force_ewm_objective(s, space), rel=1e-12
    )


@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
@settings(max_examples=60, deadline=None)
def test_oracle_equivalence_property(seed, n):
    r = np.random.default_rng(seed)
    s = random_sample(r, n, constant_p=False)
    space = default_space(s)
    est = fit_ewm(s, space)
    brute = brute_force_ewm_objective(s, space)
    assert est.objective_value == pytest.approx(brute, rel=1e-12, abs=1e-12)


_SPECIAL = [0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 1e300, -1e300, 5e-324, np.nan, np.inf, -np.inf]


@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from(_SPECIAL),
            st.floats(-1e3, 1e3).map(lambda v: round(v, 1)),  # ties and small cancellations
        ),
        min_size=1,
        max_size=50,
    )
)
@example([1e16, 1.0, -1e16, 1.0])
@example([np.nan])
@example([np.inf, -np.inf, 1.0])
@example([-0.0])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_vectorised_suffix_sums_match_the_scalar_recurrence_bit_for_bit(values):
    values = np.array(values, dtype=float)
    with np.errstate(all="ignore"):
        fast = _compensated_suffix_sums(values)
        slow = loop_compensated_suffix_sums(values)
    assert fast.shape == slow.shape == (len(values) + 1,)
    # numpy's array loops do not keep the sign and payload of a NaN that meets
    # another NaN, so NaNs are compared by position and every other entry by its bits
    nan = np.isnan(slow)
    np.testing.assert_array_equal(np.isnan(fast), nan)
    np.testing.assert_array_equal(fast[~nan].view(np.int64), slow[~nan].view(np.int64))


def test_vectorised_suffix_sums_match_across_magnitudes():
    rng = np.random.default_rng(17)
    values = rng.normal(size=20_000) * 10.0 ** rng.uniform(-5, 300, 20_000)
    np.testing.assert_array_equal(
        _compensated_suffix_sums(values).view(np.int64),
        loop_compensated_suffix_sums(values).view(np.int64),
    )


def test_objective_equals_welfare_at_estimate(rng):
    s = random_sample(rng, 40)
    est = fit_ewm(s)
    assert est.objective_value == pytest.approx(
        empirical_welfare(s, est.t_hat), rel=1e-12
    )


def test_objective_dominates_all_canonical_cuts(rng):
    s = random_sample(rng, 25)
    space = default_space(s)
    est = fit_ewm(s, space)
    for t in canonical_cuts(s, space):
        assert est.objective_value >= empirical_welfare(s, t) - 1e-12


def test_scale_equivariance(rng):
    s = random_sample(rng, 20)
    space = default_space(s)
    base = fit_ewm(s, space)
    for c in (0.5, 3.0, 17.0):
        scaled = Sample(y=s.y * c, d=s.d, x=s.x, propensity=s.propensity)
        est = fit_ewm(scaled, space)
        assert est.maximizing_interval == base.maximizing_interval
        assert est.objective_value == pytest.approx(c * base.objective_value, rel=1e-12)


def test_order_equivariance_under_monotone_transform(rng):
    s = random_sample(rng, 30)
    space = default_space(s)
    base = fit_ewm(s, space)

    def transform(v):
        return np.sign(v) * np.abs(v) ** 1.5 + 0.3 * v

    mapped = Sample(y=s.y, d=s.d, x=transform(s.x), propensity=s.propensity)
    est = fit_ewm(mapped, default_space(mapped))
    lo, hi = base.maximizing_interval
    # interior interval endpoints are order statistics and must map through
    if lo > np.min(s.x) - 1e-12 and lo in s.x:
        assert est.maximizing_interval[0] == pytest.approx(float(transform(lo)), rel=1e-12)
    if hi < np.max(s.x) + 1e-12 and hi in s.x:
        assert est.maximizing_interval[1] == pytest.approx(float(transform(hi)), rel=1e-12)
    # same set of treated units either way
    assert np.array_equal(s.x > base.t_hat, mapped.x > est.t_hat)


def test_consistency_median_error_shrinks_with_n():
    reps = 200
    med = {}
    for n in (500, 3000):
        errs = []
        for rep in range(reps):
            s = draw_sample(MODEL1, n, np.random.SeedSequence(entropy=55, spawn_key=(n, rep)))
            errs.append(abs(fit_ewm(s).t_hat))
        med[n] = float(np.median(errs))
    assert med[3000] < med[500]


def test_t_hat_clamped_to_space(rng):
    s = random_sample(rng, 10)
    space = ParamSpace(float(np.min(s.x)) + 0.01, float(np.max(s.x)) - 0.01)
    est = fit_ewm(s, space)
    assert space.lo <= est.t_hat <= space.hi


def test_degenerate_identical_index_flagged():
    with pytest.warns(DataWarning):
        s = Sample(y=[1.0, -1.0, 2.0], d=[1, 0, 1], x=[2.0, 2.0, 2.0], propensity=0.5)
    est = fit_ewm(s, ParamSpace(0.0, 4.0))
    assert "degenerate_index" in est.flags


def test_exact_tie_prefers_smallest_midpoint():
    # g = (+1, -1): treating everyone equals treating only the top unit
    s = Sample(y=[0.5, -0.5], d=[1, 1], x=[0.0, 1.0], propensity=0.5)
    est = fit_ewm(s, ParamSpace(-1.0, 2.0))
    assert est.maximizing_interval == (-1.0, 0.0)


def test_adjacent_zero_score_merges_interval():
    # middle unit has y = 0 so cuts on either side of it tie exactly
    s = Sample(y=[-1.0, 0.0, 1.0], d=[1, 1, 1], x=[0.0, 1.0, 2.0], propensity=0.5)
    est = fit_ewm(s, ParamSpace(-1.0, 3.0))
    assert est.maximizing_interval == (0.0, 2.0)
    assert est.t_hat == 1.0


def test_policy_kind_validation():
    with pytest.raises(ValidationError):
        ThresholdEstimate(t_hat=0.0, policy_kind="nope", objective_value=0.0, n=2)


def test_ipw_terms_that_overflow_their_sum_are_a_numeric_error():
    # each score is a finite +-1.6e308, but their sums overflow
    s = Sample(y=[8e307] * 4, d=[1, 0, 1, 0], x=[0, 1, 2, 3], propensity=0.5)
    with pytest.raises(NumericError, match="overflow their sum"):
        fit_ewm(s)
