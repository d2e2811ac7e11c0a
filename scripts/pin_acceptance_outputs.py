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
and of the bootstrap draws.  The suite's session fixtures run the studies
defined here and in ``coverage_study.py``, so at the default 1000
replications it compares its own fixtures with the file at no extra cost,
and a change that moves any of these bits fails it.

Usage:
    PYTHONPATH=src python scripts/pin_acceptance_outputs.py [--out tests/data/acceptance_pinned.json]

The script refuses to change an existing file (``_pins.write``); to
regenerate it on a commit whose outputs are the reference, delete it first.
"""

import os
import sys

import _pins
from coverage_study import coverage_study
from threshold_regret.chernoff import shipped_chernoff_table
from threshold_regret.data import default_space
from threshold_regret.ewm import fit_ewm
from threshold_regret.inference import ewm_bootstrap
from threshold_regret.montecarlo import MODEL1, MODEL2, ExperimentConfig, draw_sample, run_experiment
from threshold_regret.nuisance import estimate_khA

REPS = 1000


def experiment_m1(reps, jobs):
    return run_experiment(ExperimentConfig(
        models=(MODEL1,), n_list=(500, 1000, 2000, 3000), replications=reps, seed=42, jobs=jobs,
        retain_samples=True,
    ))


def experiment_m2(reps, jobs):
    return run_experiment(ExperimentConfig(
        models=(MODEL2,), n_list=(500,), replications=reps, seed=43, jobs=jobs
    ))


def bootstrap_study():
    """500 and 2000 bootstrap replicates of the EWM threshold on one model-1 sample."""
    s = draw_sample(MODEL1, 2000, 90001)
    est = fit_ewm(s, default_space(s))
    nuis = estimate_khA(s, est.t_hat)
    small = ewm_bootstrap(s, est, nuis.h_hat, n_boot=500, seed=17)
    large = ewm_bootstrap(s, est, nuis.h_hat, n_boot=2000, seed=17)
    return small, large


def _cells(result):
    cells = []
    for row in result.rows:
        cell = {
            "model": row.model, "n": row.n, "estimator": row.estimator,
            "mean": row.mean_regret.hex(), "median": row.median_regret.hex(), "se": row.se.hex(),
            "n_ok": row.n_ok, "n_failed": row.n_failed, "fallback_count": row.fallback_count,
        }
        if row.samples is not None:
            cell["samples_sha256"] = _pins.sha256(row.samples)
        cells.append(cell)
    return cells


def pinned_results(m1, m2, coverage, bootstrap):
    """The pinned record of the four studies' outputs."""
    small, large = bootstrap
    return {
        "experiment_m1": _cells(m1),
        "experiment_m2": _cells(m2),
        "coverage": {key: _pins.sha256(coverage[key]) for key in ("hits_ewm", "hits_swm", "t_ewm", "t_swm")},
        "bootstrap": {"draws_500_sha256": _pins.sha256(small.draws),
                      "draws_2000_sha256": _pins.sha256(large.draws)},
    }


def main(argv=None):
    parser = _pins.parser(__doc__, _pins.DATA / "acceptance_pinned.json")
    parser.add_argument("--jobs", type=int, default=min(os.cpu_count() or 1, 8))
    args = parser.parse_args(argv)
    return _pins.write(args.out, pinned_results(
        experiment_m1(REPS, args.jobs),
        experiment_m2(REPS, args.jobs),
        coverage_study(shipped_chernoff_table()),
        bootstrap_study(),
    ))


if __name__ == "__main__":
    sys.exit(main())
