#!/usr/bin/env python3
"""Empirical coverage of the 95% threshold intervals on the first benchmark model.

For each replication: draw a sample, fit both policies, estimate the
nuisance constants, and check whether each interval covers the true optimal
threshold (zero).  The smoothed fit uses a known lambda-rate bandwidth,
matching the interval theory's premise; by default it undersmooths the
regret-optimal lambda by half (see --lambda-scale).
"""

import argparse
import sys
import time

import numpy as np

from threshold_regret.chernoff import SHIPPED_CONFIG, shipped_chernoff_table, simulate_chernoff
from threshold_regret.data import default_space
from threshold_regret.ewm import fit_ewm
from threshold_regret.inference import ewm_ci, swm_ci
from threshold_regret.kernels import gaussian_cdf_kernel
from threshold_regret.montecarlo import MODEL1, draw_sample
from threshold_regret.nuisance import estimate_khA
from threshold_regret.swm import LambdaRate, fit_swm


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--n", type=int, default=3000)
    parser.add_argument("--level", type=float, default=0.95)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--chernoff-paths", type=int, default=200_000)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--lambda-scale",
        type=float,
        default=0.5,
        help="study bandwidth as a multiple of the regret-optimal lambda "
        "(default 0.5: mild undersmoothing keeps the plug-in bias "
        "correction from tracking the threshold's own noise)",
    )
    args = parser.parse_args(argv)

    kernel = gaussian_cdf_kernel()
    paths, _, _, seed = SHIPPED_CONFIG
    if args.chernoff_paths == paths:  # every field at simulate_chernoff's default: read, not simulated
        table = shipped_chernoff_table()
    else:
        table = simulate_chernoff(n_paths=args.chernoff_paths, seed=seed, jobs=args.jobs)
    lam = args.lambda_scale * kernel.optimal_lambda(MODEL1.K, MODEL1.A)

    hits_e = hits_s = 0
    t0 = time.monotonic()
    for rep in range(args.reps):
        s = draw_sample(MODEL1, args.n, np.random.SeedSequence(entropy=args.seed, spawn_key=(rep,)))
        space = default_space(s)
        est_e = fit_ewm(s, space)
        ci_e = ewm_ci(s, est_e, estimate_khA(s, est_e.t_hat), table, args.level)
        hits_e += ci_e.lo <= 0.0 <= ci_e.hi
        est_s = fit_swm(s, kernel, LambdaRate(lam), space)
        ci_s = swm_ci(s, est_s, estimate_khA(s, est_s.t_hat), kernel, args.level, "bias_corrected")
        hits_s += ci_s.lo <= 0.0 <= ci_s.hi
    elapsed = time.monotonic() - t0
    se = (args.level * (1 - args.level) / args.reps) ** 0.5
    print(f"n={args.n}, level={args.level}, reps={args.reps} ({elapsed:.0f}s)")
    print(f"ewm plug-in coverage:        {hits_e / args.reps:.3f} (binomial se ~{se:.3f})")
    print(f"swm bias-corrected coverage: {hits_s / args.reps:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
