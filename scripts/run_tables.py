#!/usr/bin/env python3
"""Reproduce the benchmark regret tables at configurable scale.

Runs the replicated experiment for both benchmark models, builds the argmax
simulation table, and prints the asymptotic, mean-regret, and median-regret
tables (regrets scaled by 1e4).  The published-scale run is --reps 5000;
the default 1000 keeps a laptop run under a few minutes.
"""

import argparse
import os
import sys
import time

from threshold_regret.chernoff import chernoff_table
from threshold_regret.montecarlo import (
    MODEL1,
    MODEL2,
    ExperimentConfig,
    render_csv,
    render_text,
    run_experiment,
    table_report,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--n", default="500,1000,2000,3000")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--chernoff-paths", type=int, default=200_000)
    parser.add_argument("--csv", default=None, help="also write the report as CSV here")
    args = parser.parse_args(argv)

    n_list = tuple(int(v) for v in args.n.split(","))
    t0 = time.monotonic()
    table = chernoff_table(args.chernoff_paths, jobs=args.jobs)
    print(f"# argmax table: E[Z^2] = {table.second_moment:.6f} ({time.monotonic()-t0:.0f}s)")

    config = ExperimentConfig(
        models=(MODEL1, MODEL2),
        n_list=n_list,
        replications=args.reps,
        seed=args.seed,
        jobs=args.jobs,
    )
    t0 = time.monotonic()
    result = run_experiment(config)
    print(f"# experiment: {args.reps} replications x {len(n_list)} sizes x 2 models "
          f"({time.monotonic()-t0:.0f}s)")

    report = table_report(result, table)
    print(render_text(report))
    for n in n_list:
        print(f"# model1 ewm/swm-feasible ratio at n={n}: {result.ratio('model1', n):.3f}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(render_csv(report))
        print(f"# csv written to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
