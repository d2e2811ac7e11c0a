#!/usr/bin/env python3
"""Print the criterion-4 z of every cell for a list of seeds.

Criterion 4 of the acceptance gate (``tests/test_acceptance.py``) holds the
model-1 mean regret of the EWM and of the infeasible SWM at n = 500, 1000,
2000 and 3000 to reference values, in units of the run's own Monte Carlo
standard error: z = (mean - reference) / se, both x 1e4.  The gate runs
seed 42 and passes within 5 standard errors at 1000 replications and
within 3 at 5000.  This script runs the same experiment, restricted to the
two estimators the criterion reads, for each seed, and prints one row per
cell and one column per seed as a Markdown table.

Usage:
    PYTHONPATH=src python scripts/criterion4_z.py [--reps 5000] [--seeds 42,1,2,3] [--jobs N]
"""

import argparse
import os
import sys

from threshold_regret.montecarlo import MODEL1, ExperimentConfig, run_experiment

# reference mean regrets (x 1e4) of model 1, per n, for each estimator the criterion reads
REFERENCES = {
    "ewm": {500: 89.635, 1000: 58.799, 2000: 37.297, 3000: 28.615},
    "swm_infeasible": {500: 31.492, 1000: 18.248, 2000: 10.887, 3000: 7.872},
}
LABELS = {"ewm": "ewm", "swm_infeasible": "swm"}


def z_scores(reps: int, seed: int, jobs: int) -> dict[str, float]:
    """The z of each cell, keyed ``"ewm@500"`` and so on, at one seed."""
    result = run_experiment(ExperimentConfig(
        models=(MODEL1,), n_list=tuple(REFERENCES["ewm"]), replications=reps, seed=seed, jobs=jobs,
        estimators=tuple(REFERENCES),
    ))
    return {
        f"{LABELS[estimator]}@{n}": (row.mean_regret * 1e4 - target) / (row.se * 1e4)
        for estimator, targets in REFERENCES.items()
        for n, target in targets.items()
        for row in [result.row("model1", n, estimator)]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=5000)
    parser.add_argument("--seeds", default="42,1,2,3")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    columns = [z_scores(args.reps, seed, args.jobs) for seed in seeds]
    print(f"criterion-4 z at {args.reps} replications")
    print("| cell | " + " | ".join(map(str, seeds)) + " |")
    print("|---|" + "---|" * len(seeds))
    for cell in columns[0]:
        print(f"| {cell} | " + " | ".join(f"{column[cell]:+.2f}" for column in columns) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
