"""Acceptance gate: every criterion at its stated tolerance, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  The replicated-experiment
criteria default to the reduced 1000-replication gate (within 5 Monte Carlo
standard errors); set THRESHOLD_REGRET_ACCEPTANCE_REPS=5000 for the full run
(within 3 standard errors).
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from threshold_regret import chernoff, cli
from threshold_regret.chernoff import chernoff_quantile, shipped_chernoff_table, simulate_chernoff
from threshold_regret.data import default_space
from threshold_regret.asymptotics import ewm_regret_dist, optimal_lambda_mean, swm_regret_dist
from threshold_regret.ewm import fit_ewm
from threshold_regret.kernels import gaussian_cdf_kernel
from threshold_regret.montecarlo import MODEL1, draw_sample
from threshold_regret.swm import smoothed_objective, smoothed_objective_derivative

from helpers import brute_force_ewm_objective, load_script, pinned, random_sample

KERNEL = gaussian_cdf_kernel()
JOBS = min(os.cpu_count() or 1, 8)
REPS = int(os.environ.get("THRESHOLD_REGRET_ACCEPTANCE_REPS", "1000"))
SE_TOL = 3.0 if REPS >= 5000 else 5.0
PIN = load_script("pin_acceptance_outputs")

# reference values (x 1e4) for the two benchmark models
EWM_ASY_MEAN_M1 = {500: 96.190, 1000: 60.596, 2000: 38.173, 3000: 29.131}
SWM_ASY_MEAN_M1 = {500: 39.714, 1000: 22.809, 2000: 13.101, 3000: 9.471}
SWM_ASY_MEAN_M2 = {500: 439.442, 1000: 252.393, 2000: 144.962, 3000: 104.805}
EWM_ASY_MED_M1 = {500: 45.347, 1000: 28.567, 2000: 17.996, 3000: 13.733}
SWM_ASY_MED_M1 = {500: 18.459, 1000: 10.602, 2000: 6.089, 3000: 4.402}
EWM_ASY_MED_M2 = {500: 188.651, 1000: 118.843, 2000: 74.866, 3000: 57.134}
SWM_ASY_MED_M2 = {500: 204.255, 1000: 117.314, 2000: 67.379, 3000: 48.714}
EWM_EMP_MEAN_M1 = {500: 89.635, 1000: 58.799, 2000: 37.297, 3000: 28.615}
SWM_INF_EMP_MEAN_M1 = {500: 31.492, 1000: 18.248, 2000: 10.887, 3000: 7.872}

# the second benchmark's published asymptotic constants (phi(0) multiples);
# these differ from this package's model2 DGP convention, see the module
# docstring and decision notes
PHI0 = 1.0 / math.sqrt(2.0 * math.pi)
M2_K, M2_H, M2_A = 24.0 * PHI0, 0.5 * PHI0, PHI0


def lam_star(K, A):
    return KERNEL.alpha2 * K / (2.0 * KERNEL.h * A**2)


@pytest.fixture(scope="session")
def full_table():
    t0 = time.monotonic()
    table = simulate_chernoff(n_paths=200_000, domain_halfwidth=2.5, grid_step=5e-4, seed=7, jobs=JOBS)
    return table, time.monotonic() - t0


@pytest.fixture(scope="session")
def coarse_table():
    return simulate_chernoff(n_paths=200_000, domain_halfwidth=2.5, grid_step=1e-3, seed=7, jobs=JOBS)


@pytest.fixture(scope="session")
def experiment_m1():
    t0 = time.monotonic()
    result = PIN.experiment_m1(REPS, JOBS)
    return result, time.monotonic() - t0


@pytest.fixture(scope="session")
def experiment_m2():
    return PIN.experiment_m2(REPS, JOBS)


@pytest.fixture(scope="session")
def coverage_run(full_table):
    """1000 replications at n=3000 of ``coverage_study``: plug-in intervals for both policies."""
    table, _ = full_table
    t0 = time.monotonic()
    run = PIN.coverage_study(table)
    return {
        **run,
        "coverage_ewm": float(np.mean(run["hits_ewm"])),
        "coverage_swm": float(np.mean(run["hits_swm"])),
        "elapsed": time.monotonic() - t0,
    }


@pytest.fixture(scope="session")
def bootstrap_run():
    return PIN.bootstrap_study()


def test_criterion_1_chernoff_constants(full_table):
    table, elapsed = full_table
    assert abs(table.mean) <= 0.005
    worst = 0.0
    for n, target in EWM_ASY_MEAN_M1.items():
        implied = ewm_regret_dist(MODEL1.K, MODEL1.H, n, table).mean * 1e4
        rel = abs(implied / target - 1.0)
        worst = max(worst, rel)
        assert rel <= 0.02, f"n={n}: implied {implied:.3f} vs {target} ({rel:.2%})"
    assert elapsed < 120.0, f"table build took {elapsed:.0f}s"
    print(
        f"\nACCEPTANCE 1: PASS chernoff E[Z]={table.mean:+.5f}, "
        f"E[Z^2]={table.second_moment:.6f}, worst mean deviation {worst:.2%}, "
        f"build {elapsed:.0f}s"
    )


def test_criterion_2_swm_asymptotic_means():
    t0 = time.monotonic()
    worst = 0.0
    for n, target in SWM_ASY_MEAN_M1.items():
        got = optimal_lambda_mean(MODEL1.K, MODEL1.H, MODEL1.A, KERNEL, n) * 1e4
        worst = max(worst, abs(got / target - 1.0))
        assert got == pytest.approx(target, rel=0.005)
    for n, target in SWM_ASY_MEAN_M2.items():
        got = optimal_lambda_mean(M2_K, M2_H, M2_A, KERNEL, n) * 1e4
        worst = max(worst, abs(got / target - 1.0))
        assert got == pytest.approx(target, rel=0.005)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2: PASS swm asymptotic means, worst deviation {worst:.3%}, {elapsed*1e3:.0f}ms")


def test_criterion_3_median_asymptotics(full_table):
    table, _ = full_table
    worst = 0.0
    for (K, H, A), (ewm_med, swm_med) in (
        ((MODEL1.K, MODEL1.H, MODEL1.A), (EWM_ASY_MED_M1, SWM_ASY_MED_M1)),
        ((M2_K, M2_H, M2_A), (EWM_ASY_MED_M2, SWM_ASY_MED_M2)),
    ):
        lam = lam_star(K, A)
        for n, target in ewm_med.items():
            got = ewm_regret_dist(K, H, n, table).median * 1e4
            worst = max(worst, abs(got / target - 1.0))
            assert got == pytest.approx(target, rel=0.02), f"ewm median n={n}"
        for n, target in swm_med.items():
            got = swm_regret_dist(K, H, A, lam, KERNEL, n).median * 1e4
            worst = max(worst, abs(got / target - 1.0))
            assert got == pytest.approx(target, rel=0.02), f"swm median n={n}"
    print(f"\nACCEPTANCE 3: PASS median asymptotics, worst deviation {worst:.2%}")


def test_criterion_4_finite_sample_model1(experiment_m1):
    result, elapsed = experiment_m1
    lines = []
    for n, target in EWM_EMP_MEAN_M1.items():
        row = result.row("model1", n, "ewm")
        z = (row.mean_regret * 1e4 - target) / (row.se * 1e4)
        assert abs(z) <= SE_TOL, f"ewm n={n}: z={z:.2f}"
        lines.append(f"ewm@{n} z={z:+.1f}")
    for n, target in SWM_INF_EMP_MEAN_M1.items():
        row = result.row("model1", n, "swm_infeasible")
        z = (row.mean_regret * 1e4 - target) / (row.se * 1e4)
        assert abs(z) <= SE_TOL, f"swm n={n}: z={z:.2f}"
        lines.append(f"swm@{n} z={z:+.1f}")
    ratios = {n: result.ratio("model1", n) for n in EWM_EMP_MEAN_M1}
    for n, ratio in ratios.items():
        assert ratio > 1.0, f"ratio at n={n} is {ratio:.3f}"
    assert ratios[3000] > ratios[500]
    budget = 1800.0 if REPS >= 5000 else 360.0
    assert elapsed < budget, f"experiment took {elapsed:.0f}s"
    print(
        f"\nACCEPTANCE 4: PASS model1 finite-sample ({REPS} reps, tol {SE_TOL:.0f} SE): "
        + ", ".join(lines)
        + f"; ratios {', '.join(f'{n}:{r:.2f}' for n, r in ratios.items())}; {elapsed:.0f}s"
    )


def test_criterion_5_model2_ranking_reversal(experiment_m2):
    ratio = experiment_m2.ratio("model2", 500)
    ewm_row = experiment_m2.row("model2", 500, "ewm")
    feas_row = experiment_m2.row("model2", 500, "swm_feasible")
    se_ratio = ratio * math.sqrt(
        (ewm_row.se / ewm_row.mean_regret) ** 2 + (feas_row.se / feas_row.mean_regret) ** 2
    )
    assert ratio < 1.0, f"model2 ratio at n=500 is {ratio:.3f}"
    print(f"\nACCEPTANCE 5: PASS model2 ratio at n=500 = {ratio:.3f} (se {se_ratio:.3f}) < 1")


def test_criterion_6_rate_recovery(experiment_m1):
    result, _ = experiment_m1
    sizes = (500, 1000, 2000, 3000)
    lx = np.log(np.array(sizes, dtype=float))
    slopes = {}
    for est, target, tol in (("ewm", -2.0 / 3.0, 0.1), ("swm_infeasible", -4.0 / 5.0, 0.1)):
        ly = np.log([result.row("model1", n, est).mean_regret for n in sizes])
        slope = float(np.polyfit(lx, ly, 1)[0])
        slopes[est] = slope
        assert slope == pytest.approx(target, abs=tol), f"{est} slope {slope:.3f}"
    print(
        f"\nACCEPTANCE 6: PASS rate slopes ewm={slopes['ewm']:.3f} (target -0.667), "
        f"swm_infeasible={slopes['swm_infeasible']:.3f} (target -0.800)"
    )


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(777)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 13))
        s = random_sample(rng, n, constant_p=bool(rng.integers(0, 2)))
        space = default_space(s)
        est = fit_ewm(s, space)
        brute = brute_force_ewm_objective(s, space)
        denom = max(abs(brute), 1e-300)
        rel = abs(est.objective_value - brute) / denom
        worst = max(worst, rel)
        assert rel <= 1e-12, f"trial {trial}: rel error {rel:.2e}"
    print(f"\nACCEPTANCE 7: PASS exact oracle equivalence on 1000 samples, worst rel {worst:.2e}")


def test_criterion_8_gradient_check():
    rng = np.random.default_rng(888)
    s = draw_sample(MODEL1, 150, 4)
    worst = 0.0
    for _ in range(50):
        t = float(rng.uniform(-2.0, 2.0))
        sigma = float(rng.uniform(0.05, 1.5))
        analytic = smoothed_objective_derivative(s, KERNEL, sigma, t)
        h = 1e-5 * sigma
        fd = (
            smoothed_objective(s, KERNEL, sigma, t + h)
            - smoothed_objective(s, KERNEL, sigma, t - h)
        ) / (2 * h)
        rel = abs(analytic - fd) / max(abs(fd), 1e-12)
        worst = max(worst, rel)
        assert rel <= 1e-5
    print(f"\nACCEPTANCE 8: PASS analytic gradient matches finite differences, worst rel {worst:.2e}")


def test_criterion_9_coverage(coverage_run):
    cov_e = coverage_run["coverage_ewm"]
    cov_s = coverage_run["coverage_swm"]
    assert 0.92 <= cov_e <= 0.97, f"ewm coverage {cov_e:.3f}"
    assert 0.92 <= cov_s <= 0.97, f"swm coverage {cov_s:.3f}"
    assert coverage_run["elapsed"] < 600.0
    print(
        f"\nACCEPTANCE 9: PASS 95% coverage at n=3000: ewm {cov_e:.3f}, "
        f"swm bias-corrected {cov_s:.3f} ({coverage_run['elapsed']:.0f}s)"
    )


def test_criterion_10_bootstrap(full_table, bootstrap_run):
    table, _ = full_table
    small, large = bootstrap_run
    reference = (2.0 * math.sqrt(MODEL1.K) / MODEL1.H) ** (2.0 / 3.0) * table.samples
    ks_ref = ks_2samp(small.draws, reference).statistic
    assert ks_ref <= 0.12, f"KS vs limit law {ks_ref:.3f}"
    # distance to the nearest symmetric law is half the draw-vs-mirror statistic;
    # measured on the 2000-replicate run where the estimate is stable
    ks_sym = 0.5 * ks_2samp(large.draws, -large.draws).statistic
    assert ks_sym <= 0.05, f"asymmetry {ks_sym:.3f}"
    print(
        f"\nACCEPTANCE 10: PASS bootstrap KS vs limit law {ks_ref:.3f} <= 0.12, "
        f"asymmetry {ks_sym:.3f} <= 0.05"
    )


# --- supplementary distribution-shape checks (not numbered criteria) ------------


def test_full_table_simulation_invariants(full_table, coarse_table):
    table, _ = full_table
    sd = float(np.std(table.samples))
    assert abs(table.mean) < 3.0 * sd / math.sqrt(table.n_paths)
    assert float(np.mean(np.abs(table.samples) > 2.0)) < 0.01
    mirror = ks_2samp(table.samples, -table.samples).statistic
    assert mirror < 0.01
    assert abs(table.second_moment - coarse_table.second_moment) < 0.003
    assert abs(chernoff_quantile(table, 0.975) - chernoff_quantile(coarse_table, 0.975)) < 0.005


def test_shipped_table_is_the_default_simulation(full_table):
    table, _ = full_table
    shipped = shipped_chernoff_table()
    assert shipped.samples.tobytes() == table.samples.tobytes()
    assert shipped.mean.hex() == table.mean.hex()
    assert shipped.second_moment.hex() == table.second_moment.hex()
    config = ("n_paths", "domain_halfwidth", "grid_step", "seed")
    assert [getattr(shipped, c) for c in config] == [getattr(table, c) for c in config]


def test_default_cli_table_is_read_not_simulated(full_table, monkeypatch, capsys):
    table, _ = full_table
    argv = ["asymptotics", "--model", "1", "--n", "500", "--format", "json"]

    def no_simulation(**kwargs):
        raise AssertionError("the default table was simulated")

    monkeypatch.setattr(chernoff, "simulate_chernoff", no_simulation)
    assert cli.run_cli(argv) == 0
    shipped_out = capsys.readouterr().out
    monkeypatch.setattr(cli, "_chernoff_table_from_args", lambda args: table)
    assert cli.run_cli(argv) == 0
    assert capsys.readouterr().out == shipped_out


def test_ewm_threshold_law_matches_scaled_argmax(coverage_run, full_table):
    table, _ = full_table
    n = coverage_run["n"]
    scaled = n ** (1.0 / 3.0) * coverage_run["t_ewm"]
    reference = (2.0 * math.sqrt(MODEL1.K) / MODEL1.H) ** (2.0 / 3.0) * table.samples
    assert ks_2samp(scaled, reference).statistic < 0.08


def test_swm_threshold_law_is_asymptotically_normal(coverage_run):
    n = coverage_run["n"]
    lam = coverage_run["lam"]
    sigma = (lam / n) ** 0.2
    bias = (n * sigma) ** (-0.5) * math.sqrt(lam) * MODEL1.A / MODEL1.H
    sd = (n * sigma) ** (-0.5) * math.sqrt(KERNEL.alpha2 * MODEL1.K) / MODEL1.H
    standardized = (coverage_run["t_swm"] - bias) / sd
    assert kstest(standardized, "norm").statistic < 0.08


def test_finite_sample_regret_close_to_limit_law_at_every_n(experiment_m1, full_table):
    # at 1000 replications the rescaled regret draws are already within the
    # two-sample KS noise floor (~0.03) of the limit law at every n, so a
    # decreasing trend across n is unmeasurable; assert closeness instead
    table, _ = full_table
    result, _ = experiment_m1
    z_squared = table.samples**2
    for n in (500, 1000, 2000, 3000):
        row = result.row("model1", n, "ewm")
        scale = n ** (-2.0 / 3.0) * (2.0 * MODEL1.K**2 / MODEL1.H) ** (1.0 / 3.0)
        ks = ks_2samp(row.samples / scale, z_squared).statistic
        assert ks < 0.06, f"n={n}: KS {ks:.3f}"


@pytest.mark.skipif(REPS != PIN.REPS, reason="the pins hold the default 1000-replication studies")
def test_acceptance_outputs_reproduce_pinned(experiment_m1, experiment_m2, coverage_run, bootstrap_run):
    """Bit-for-bit study outputs recorded by scripts/pin_acceptance_outputs.py."""
    assert PIN.pinned_results(experiment_m1[0], experiment_m2, coverage_run, bootstrap_run) == pinned(
        "acceptance_pinned.json")
