#!/usr/bin/env python3
"""Empirical coverage of the 95% threshold intervals on the first benchmark model.

For each replication: draw a sample, fit both policies, estimate the
nuisance constants, and check whether each interval covers the true optimal
threshold (zero).  The smoothed fit uses a known lambda-rate bandwidth, as
the interval theory presumes (plug-in bandwidths add estimator spread the
asymptotic variance formula does not claim to cover).  By default it
undersmooths the regret-optimal lambda by half (--lambda-scale 0.5), the
usual inference practice: the plug-in bias correction tracks the threshold's
own noise through the steep curvature constant, and a smaller bandwidth
keeps that inflation from eating the nominal level.
"""

import argparse
import sys
import time

import numpy as np

from threshold_regret.chernoff import chernoff_table
from threshold_regret.data import default_space
from threshold_regret.ewm import fit_ewm
from threshold_regret.inference import ewm_ci, swm_ci
from threshold_regret.kernels import gaussian_cdf_kernel
from threshold_regret.montecarlo import MODEL1, draw_sample
from threshold_regret.nuisance import estimate_khA
from threshold_regret.swm import LambdaRate, fit_swm

KERNEL = gaussian_cdf_kernel()


def coverage_study(table, reps=1000, n=3000, level=0.95, seed=2024, lambda_scale=0.5):
    """Plug-in intervals for both policies on ``reps`` model-1 samples of size ``n``, the smoothed
    fit at ``lambda_scale`` times the regret-optimal lambda; returns hits and thresholds per sample."""
    lam = lambda_scale * KERNEL.optimal_lambda(MODEL1.K, MODEL1.A)
    hits_ewm = np.empty(reps, dtype=bool)
    hits_swm = np.empty(reps, dtype=bool)
    t_ewm = np.empty(reps)
    t_swm = np.empty(reps)
    for rep in range(reps):
        s = draw_sample(MODEL1, n, np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
        space = default_space(s)
        est_e = fit_ewm(s, space)
        t_ewm[rep] = est_e.t_hat
        ci_e = ewm_ci(s, est_e, estimate_khA(s, est_e.t_hat), table, level=level)
        hits_ewm[rep] = ci_e.lo <= 0.0 <= ci_e.hi
        est_s = fit_swm(s, KERNEL, LambdaRate(lam), space)
        t_swm[rep] = est_s.t_hat
        ci_s = swm_ci(s, est_s, estimate_khA(s, est_s.t_hat), KERNEL, level=level, mode="bias_corrected")
        hits_swm[rep] = ci_s.lo <= 0.0 <= ci_s.hi
    return {"hits_ewm": hits_ewm, "hits_swm": hits_swm, "t_ewm": t_ewm, "t_swm": t_swm, "n": n, "lam": lam}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--n", type=int, default=3000)
    parser.add_argument("--level", type=float, default=0.95)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--chernoff-paths", type=int, default=200_000)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--lambda-scale", type=float, default=0.5,
                        help="study bandwidth as a multiple of the regret-optimal lambda")
    args = parser.parse_args(argv)

    table = chernoff_table(args.chernoff_paths, jobs=args.jobs)
    t0 = time.monotonic()
    run = coverage_study(table, args.reps, args.n, args.level, args.seed, args.lambda_scale)
    elapsed = time.monotonic() - t0
    se = (args.level * (1 - args.level) / args.reps) ** 0.5
    print(f"n={args.n}, level={args.level}, reps={args.reps} ({elapsed:.0f}s)")
    print(f"ewm plug-in coverage:        {np.mean(run['hits_ewm']):.3f} (binomial se ~{se:.3f})")
    print(f"swm bias-corrected coverage: {np.mean(run['hits_swm']):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
