import math

import numpy as np
import pytest

from threshold_regret.data import regret
from threshold_regret.errors import ValidationError
from threshold_regret.montecarlo import (
    MODEL1,
    MODEL2,
    Dgp,
    ExperimentConfig,
    draw_sample,
    render_csv,
    render_text,
    run_experiment,
    table_report,
)

from helpers import welfare_by_quadrature


# --- DGP closed forms -----------------------------------------------------------


def test_welfare_at_zero_model1():
    # 2 phi(0) + beta2 / 2 + beta1 phi(0)
    assert MODEL1.welfare(0.0) == pytest.approx(0.9468, abs=2e-4)


def test_welfare_vanishes_when_nobody_treated():
    assert abs(MODEL1.welfare(10.0)) < 1e-8


def test_welfare_matches_quadrature():
    for dgp in (MODEL1, MODEL2):
        for t in (-1.2, 0.0, 0.7):
            assert dgp.welfare(t) == pytest.approx(
                welfare_by_quadrature(dgp, t), abs=1e-6
            )


def test_welfare_stationary_at_optimum():
    h = 1e-6
    for dgp in (MODEL1, MODEL2):
        fd = (dgp.welfare(h) - dgp.welfare(-h)) / (2 * h)
        assert abs(fd) < 1e-6


def test_optimum_is_global_on_grid():
    grid = np.linspace(-4.0, 4.0, 10_001)
    for dgp in (MODEL1, MODEL2):
        w_star = dgp.welfare(dgp.t_star)
        assert all(w_star >= dgp.welfare(float(t)) for t in grid)


def test_constants_positive():
    for dgp in (MODEL1, MODEL2):
        assert dgp.K > 0 and dgp.H > 0 and dgp.A > 0


def test_model1_constants_match_rounded_references():
    assert MODEL1.K == pytest.approx(1.596, abs=5e-4)
    assert MODEL1.H == pytest.approx(0.399, abs=5e-4)
    assert MODEL1.A == pytest.approx(0.199, abs=5e-4)


def test_dgp_validation():
    with pytest.raises(ValidationError):
        Dgp(name="bad", gamma=0.0, beta1=1.0, beta2=-0.5, p=0.5)
    with pytest.raises(ValidationError):
        Dgp(name="bad", gamma=1.0, beta1=1.0, beta2=-0.5, p=1.0)


@pytest.mark.parametrize("field, value", [
    ("gamma", math.inf), ("gamma", math.nan), ("beta1", math.nan), ("beta1", -math.inf), ("beta2", math.inf),
])
def test_dgp_refuses_non_finite_parameters(field, value):
    params = {"name": "bad", "gamma": 1.0, "beta1": 1.0, "beta2": -0.5, "p": 0.5, field: value}
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        Dgp(**params)


# --- sampling --------------------------------------------------------------------


def test_draw_sample_deterministic():
    a = draw_sample(MODEL1, 200, 33)
    b = draw_sample(MODEL1, 200, 33)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.x, b.x)
    c = draw_sample(MODEL1, 200, 34)
    assert not np.array_equal(a.y, c.y)


def test_untreated_outcome_centered():
    n = 100_000
    s = draw_sample(MODEL1, n, 44)
    y0 = s.y[s.d == 0]
    assert abs(float(np.mean(y0))) < 4.0 * MODEL1.gamma / np.sqrt(len(y0))


def test_treated_conditional_mean_matches_polynomial():
    n = 300_000
    s = draw_sample(MODEL1, n, 45)
    near = (np.abs(s.x - 0.5) < 0.05) & (s.d == 1)
    target = MODEL1.conditional_mean_treated(0.5)
    se = MODEL1.gamma / np.sqrt(near.sum())
    assert float(np.mean(s.y[near])) == pytest.approx(target, abs=4 * se + 0.01)


def test_gamma_is_noise_standard_deviation():
    n = 200_000
    s = draw_sample(MODEL2, n, 46)
    y0 = s.y[s.d == 0]
    assert float(np.std(y0)) == pytest.approx(MODEL2.gamma, rel=0.02)


def test_propensity_column_constant():
    s = draw_sample(MODEL1, 50, 47)
    assert np.all(s.propensity == MODEL1.p)


# --- experiment engine -------------------------------------------------------------


def _tiny_config(**kw):
    base = dict(
        models=(MODEL1,),
        n_list=(120,),
        replications=8,
        seed=99,
        estimators=("ewm", "swm_infeasible"),
        jobs=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_deterministic():
    a = run_experiment(_tiny_config())
    b = run_experiment(_tiny_config())
    assert a.rows == b.rows


def test_run_experiment_worker_count_invariant():
    serial = run_experiment(_tiny_config(retain_samples=True))
    parallel = run_experiment(_tiny_config(jobs=2, retain_samples=True))
    for r1, r2 in zip(serial.rows, parallel.rows):
        np.testing.assert_array_equal(r1.samples, r2.samples)


def test_run_experiment_regrets_nonnegative():
    res = run_experiment(_tiny_config(retain_samples=True))
    for row in res.rows:
        assert np.all(row.samples >= 0)
        assert row.n_ok == 8 and row.n_failed == 0


def test_run_experiment_estimator_subset():
    res = run_experiment(_tiny_config(estimators=("ewm",)))
    assert {r.estimator for r in res.rows} == {"ewm"}
    with pytest.raises(KeyError):
        res.row("model1", 120, "swm_feasible")


def test_experiment_config_validation():
    with pytest.raises(ValidationError):
        _tiny_config(replications=0)
    with pytest.raises(ValidationError):
        _tiny_config(estimators=("ewm", "unknown"))
    with pytest.raises(ValidationError):
        _tiny_config(jobs=0)
    with pytest.raises(ValidationError):
        _tiny_config(jobs=1.5)
    with pytest.raises(ValidationError):
        _tiny_config(seed=-1)
    with pytest.raises(ValidationError):
        _tiny_config(n_list=(1,))
    with pytest.raises(ValidationError, match="n must be an integer, got 150.5"):
        _tiny_config(n_list=(150.5,))
    with pytest.raises(ValidationError, match="n must be an integer, got '150'"):
        _tiny_config(n_list=("150",))


def test_regret_sanity_against_closed_form():
    res = run_experiment(_tiny_config(retain_samples=True))
    row = res.row("model1", 120, "ewm")
    # recompute one replication by hand: regret of any threshold is W(0) - W(t)
    assert row.mean_regret >= 0
    assert regret(MODEL1.welfare, 0.0, 0.3) == pytest.approx(
        MODEL1.welfare(0.0) - MODEL1.welfare(0.3)
    )


# --- reporting ----------------------------------------------------------------------


def test_table_report_empty_result_yields_headers_only(small_chernoff):
    report = table_report(run_experiment(_tiny_config(models=())), small_chernoff)
    assert report == {"asymptotic": [], "mean": [], "median": []}
    text = render_text(report)
    assert "(no rows)" in text
    csv_text = render_csv(report)
    assert csv_text.startswith("table")


def test_table_report_contains_all_three_tables(small_chernoff):
    res = run_experiment(_tiny_config(estimators=("ewm", "swm_infeasible", "swm_feasible")))
    report = table_report(res, small_chernoff)
    assert len(report["asymptotic"]) == 1
    assert len(report["mean"]) == 1
    row = report["mean"][0]
    assert row["ewm_empirical"] is not None
    assert row["ratio"] == pytest.approx(res.ratio("model1", 120), rel=1e-12)
    # asymptotic means are positive and EWM-vs-SWM ordering matches model 1
    arow = report["asymptotic"][0]
    assert arow["ewm_mean"] > arow["swm_mean"] > 0


def test_render_csv_scales_regrets(small_chernoff):
    res = run_experiment(_tiny_config())
    report = table_report(res, small_chernoff)
    csv_text = render_csv(report)
    line = [l for l in csv_text.splitlines() if l.startswith("mean,")][0]
    header = csv_text.splitlines()[0].split(",")
    value = float(line.split(",")[header.index("ewm_empirical")])
    assert value == pytest.approx(res.row("model1", 120, "ewm").mean_regret * 1e4, rel=1e-12)


def test_infeasible_swm_fails_per_replication_at_zero_bias_constant():
    flat = Dgp(name="flat", gamma=1.0, beta1=1.0, beta2=0.0, p=0.5)
    cfg = ExperimentConfig(
        models=(flat,), n_list=(120,), replications=3, seed=1, estimators=("ewm", "swm_infeasible")
    )
    res = run_experiment(cfg)
    row = res.row("flat", 120, "swm_infeasible")
    assert (row.n_ok, row.n_failed) == (0, 3)
    assert res.row("flat", 120, "ewm").n_ok == 3
