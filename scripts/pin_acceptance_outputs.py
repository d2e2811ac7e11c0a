#!/usr/bin/env python3
"""Pin the exact outputs of the acceptance studies.

The acceptance suite (``tests/test_acceptance.py``) runs four seeded
studies: the model-1 experiment (n 500-3000, seed 42, regret samples
retained), the model-2 experiment (n 500, seed 43), the coverage study
(1000 replications at n = 3000) and a bootstrap at n = 2000.  Its criteria
hold them only to within Monte Carlo standard errors.  This file records,
for each experiment cell, the ``float.hex`` of the mean, median and
standard error with ``n_ok``, ``n_failed`` and ``fallback_count``, plus the
sha256 of the model-1 regret samples, of the coverage hits and thresholds,
and of the bootstrap draws.  The studies are defined here and the suite's
session fixtures run them, so at the default 1000 replications the suite
compares its own fixtures with the file at no extra cost, and a change
that moves any of these bits fails it.

Usage:
    PYTHONPATH=src python scripts/pin_acceptance_outputs.py [--out tests/data/acceptance_pinned.json]

Regenerate the file only on a commit whose outputs are the reference.
"""

import argparse
import hashlib
import json
import os
import pathlib

import numpy as np

from threshold_regret.chernoff import shipped_chernoff_table
from threshold_regret.data import default_space
from threshold_regret.ewm import fit_ewm
from threshold_regret.inference import ewm_bootstrap, ewm_ci, swm_ci
from threshold_regret.kernels import gaussian_cdf_kernel
from threshold_regret.montecarlo import MODEL1, MODEL2, ExperimentConfig, draw_sample, run_experiment
from threshold_regret.nuisance import estimate_khA
from threshold_regret.swm import LambdaRate, fit_swm

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data" / "acceptance_pinned.json"
REPS = 1000
KERNEL = gaussian_cdf_kernel()


def experiment_m1(reps, jobs):
    return run_experiment(ExperimentConfig(
        models=(MODEL1,), n_list=(500, 1000, 2000, 3000), replications=reps, seed=42, jobs=jobs,
        retain_samples=True,
    ))


def experiment_m2(reps, jobs):
    return run_experiment(ExperimentConfig(
        models=(MODEL2,), n_list=(500,), replications=reps, seed=43, jobs=jobs
    ))


def coverage_study(table):
    """Plug-in 95% intervals for both policies on 1000 model-1 samples of size 3000.

    The smoothed fit uses a known lambda-rate bandwidth, as the interval
    theory presumes (plug-in bandwidths add estimator spread the asymptotic
    variance formula does not claim to cover).  The study bandwidth
    undersmooths the regret-optimal lambda by half, the usual inference
    practice: the plug-in bias correction tracks the threshold's own noise
    through the steep curvature constant, and a smaller bandwidth keeps that
    inflation from eating the nominal level.
    """
    reps, n = 1000, 3000
    lam = 0.5 * KERNEL.optimal_lambda(MODEL1.K, MODEL1.A)
    hits_ewm = np.empty(reps, dtype=bool)
    hits_swm = np.empty(reps, dtype=bool)
    t_ewm = np.empty(reps)
    t_swm = np.empty(reps)
    for rep in range(reps):
        s = draw_sample(MODEL1, n, np.random.SeedSequence(entropy=2024, spawn_key=(rep,)))
        space = default_space(s)
        est_e = fit_ewm(s, space)
        t_ewm[rep] = est_e.t_hat
        ci_e = ewm_ci(s, est_e, estimate_khA(s, est_e.t_hat), table, level=0.95)
        hits_ewm[rep] = ci_e.lo <= 0.0 <= ci_e.hi
        est_s = fit_swm(s, KERNEL, LambdaRate(lam), space)
        t_swm[rep] = est_s.t_hat
        ci_s = swm_ci(s, est_s, estimate_khA(s, est_s.t_hat), KERNEL, level=0.95, mode="bias_corrected")
        hits_swm[rep] = ci_s.lo <= 0.0 <= ci_s.hi
    return {"hits_ewm": hits_ewm, "hits_swm": hits_swm, "t_ewm": t_ewm, "t_swm": t_swm, "n": n, "lam": lam}


def bootstrap_study():
    """500 and 2000 bootstrap replicates of the EWM threshold on one model-1 sample."""
    s = draw_sample(MODEL1, 2000, 90001)
    est = fit_ewm(s, default_space(s))
    nuis = estimate_khA(s, est.t_hat)
    small = ewm_bootstrap(s, est, nuis.h_hat, n_boot=500, seed=17)
    large = ewm_bootstrap(s, est, nuis.h_hat, n_boot=2000, seed=17)
    return small, large


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _cells(result):
    cells = []
    for row in result.rows:
        cell = {
            "model": row.model, "n": row.n, "estimator": row.estimator,
            "mean": row.mean_regret.hex(), "median": row.median_regret.hex(), "se": row.se.hex(),
            "n_ok": row.n_ok, "n_failed": row.n_failed, "fallback_count": row.fallback_count,
        }
        if row.samples is not None:
            cell["samples_sha256"] = _sha256(row.samples)
        cells.append(cell)
    return cells


def pinned_results(m1, m2, coverage, bootstrap):
    """The pinned record of the four studies' outputs."""
    small, large = bootstrap
    return {
        "experiment_m1": _cells(m1),
        "experiment_m2": _cells(m2),
        "coverage": {key: _sha256(coverage[key]) for key in ("hits_ewm", "hits_swm", "t_ewm", "t_swm")},
        "bootstrap": {"draws_500_sha256": _sha256(small.draws), "draws_2000_sha256": _sha256(large.draws)},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument("--jobs", type=int, default=min(os.cpu_count() or 1, 8))
    args = parser.parse_args(argv)
    path = pathlib.Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    records = pinned_results(
        experiment_m1(REPS, args.jobs),
        experiment_m2(REPS, args.jobs),
        coverage_study(shipped_chernoff_table()),
        bootstrap_study(),
    )
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(records['experiment_m1']) + len(records['experiment_m2'])} cells to {path}")


if __name__ == "__main__":
    main()
