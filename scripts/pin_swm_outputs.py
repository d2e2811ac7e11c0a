#!/usr/bin/env python3
"""Pin the exact outputs of ``fit_swm`` on a fixed set of seeded samples.

Each case draws a benchmark sample (optionally with one far outlier in x),
fits the smoothed welfare maximizer under one bandwidth rule and parameter
space, and records ``t_hat``, ``objective_value`` and ``bandwidth`` as
``float.hex`` strings together with the flags, or the exception class when
the fit refuses the sample.  The test suite refits every case and requires
the file to be reproduced exactly, so a speed-up of ``fit_swm`` that changes
any output bit fails it.

Usage:
    PYTHONPATH=src python scripts/pin_swm_outputs.py [--out tests/data/swm_pinned.json]

The script refuses to change an existing file (``_pins.write``); to
regenerate it on a commit whose outputs are the reference, delete it first.
``tests/data/swm_pinned_golden.json`` holds the same cases as fitted with the
earlier golden-section refinement; it is never regenerated, and a test holds
each current ``t_hat`` to within the refinement tolerance of it.
"""

import sys

import numpy as np

import _pins
from threshold_regret.data import ParamSpace, Sample
from threshold_regret.errors import ThresholdRegretError
from threshold_regret.kernels import gaussian_cdf_kernel
from threshold_regret.montecarlo import MODEL1, MODEL2, draw_sample
from threshold_regret.swm import (
    FixedBandwidth,
    LambdaRate,
    PlugInOptimal,
    Undersmoothed,
    fit_swm,
)

MODELS = {"model1": MODEL1, "model2": MODEL2}
RULES = {
    "lambda_rate": lambda dgp, k: LambdaRate(k.optimal_lambda(dgp.K, dgp.A)),
    "fixed_0.05": lambda dgp, k: FixedBandwidth(0.05),
    "fixed_3.0": lambda dgp, k: FixedBandwidth(3.0),
    "plug_in": lambda dgp, k: PlugInOptimal(),
    "undersmoothed": lambda dgp, k: Undersmoothed(),
}


def cases():
    """Case specs: every model x n x seed x rule on the data-driven space,
    plus narrow-space and far-outlier variants at n = 500."""
    out = []
    for model in MODELS:
        for n in (20, 500, 3000):
            for seed in range(8):
                for rule in RULES:
                    out.append({"model": model, "n": n, "seed": seed, "rule": rule,
                                "space": None, "outlier": None})
    for seed in range(3):
        for rule in ("lambda_rate", "fixed_0.05", "fixed_3.0"):
            out.append({"model": "model1", "n": 500, "seed": seed, "rule": rule,
                        "space": [-0.25, 0.25], "outlier": None})
            out.append({"model": "model2", "n": 500, "seed": seed, "rule": rule,
                        "space": None, "outlier": 60.0})
    return out


def case_inputs(case):
    """The sample and the parameter space (None for the data-driven one) of a case."""
    dgp = MODELS[case["model"]]
    sample = draw_sample(dgp, case["n"], np.random.SeedSequence(entropy=2404, spawn_key=(case["seed"],)))
    if case["outlier"] is not None:
        x = sample.x.copy()
        x[0] = case["outlier"]
        sample = Sample(y=sample.y, d=sample.d, x=x, propensity=sample.propensity)
    space = ParamSpace(*case["space"]) if case["space"] is not None else None
    return sample, space


def fit_case(case):
    """Fit one case; returns its pinned record (floats as ``float.hex``)."""
    dgp = MODELS[case["model"]]
    kernel = gaussian_cdf_kernel()
    sample, space = case_inputs(case)
    try:
        est = fit_swm(sample, kernel, RULES[case["rule"]](dgp, kernel), space)
    except ThresholdRegretError as exc:
        return {**case, "error": type(exc).__name__}
    return {
        **case,
        "t_hat": est.t_hat.hex(),
        "objective_value": est.objective_value.hex(),
        "bandwidth": est.bandwidth.hex(),
        "flags": list(est.flags),
    }


def pinned_results():
    return [fit_case(case) for case in cases()]


def main(argv=None):
    args = _pins.parser(__doc__, _pins.DATA / "swm_pinned.json").parse_args(argv)
    return _pins.write(args.out, {"cases": pinned_results()})


if __name__ == "__main__":
    sys.exit(main())
