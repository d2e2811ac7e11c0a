#!/usr/bin/env python3
"""Pin the exact outputs of ``simulate_chernoff`` and ``ewm_bootstrap``.

For each Chernoff case the file records the sha256 of the samples' bytes and
``float.hex`` of the table's mean and second moment; the cases cover two
worker counts, a last block of one path and a grid of m = 2857 points per
wing.  For each bootstrap case it records the sha256 of the draws' bytes on
a seeded benchmark sample, with and without tied index values.  The test
suite recomputes every case and requires the file to be reproduced exactly,
so a speed-up of either simulator that changes any output bit fails it.

Usage:
    PYTHONPATH=src python scripts/pin_chernoff_outputs.py [--out tests/data/chernoff_pinned.json]

The script refuses to change an existing file (``_pins.write``); to
regenerate it on a commit whose outputs are the reference, delete it first.
"""

import sys
import warnings

import numpy as np

import _pins
from threshold_regret.chernoff import simulate_chernoff
from threshold_regret.data import Sample
from threshold_regret.errors import DataWarning
from threshold_regret.ewm import fit_ewm
from threshold_regret.inference import ewm_bootstrap
from threshold_regret.montecarlo import MODEL1, draw_sample
from threshold_regret.nuisance import estimate_khA

CHERNOFF_CASES = [
    {"n_paths": 10_000, "domain_halfwidth": 2.0, "grid_step": 1e-3, "seed": 5, "jobs": 1},
    {"n_paths": 10_000, "domain_halfwidth": 2.0, "grid_step": 1e-3, "seed": 5, "jobs": 2},
    {"n_paths": 10_001, "domain_halfwidth": 2.5, "grid_step": 5e-4, "seed": 7, "jobs": 1},
    {"n_paths": 12_345, "domain_halfwidth": 2.0, "grid_step": 7e-4, "seed": 3, "jobs": 1},
]

BOOTSTRAP_CASES = [
    {"n": n, "round_x": round_x, "n_boot": n_boot, "seed": 11}
    for n, round_x in ((3000, 2), (20_000, None))
    for n_boot in (200, 999)
]


def chernoff_case(case):
    table = simulate_chernoff(**case)
    return {
        **case,
        "samples_sha256": _pins.sha256(table.samples),
        "mean": table.mean.hex(),
        "second_moment": table.second_moment.hex(),
    }


def bootstrap_case(case):
    sample = draw_sample(MODEL1, case["n"], np.random.SeedSequence(entropy=4404, spawn_key=(case["n"],)))
    if case["round_x"] is not None:
        with warnings.catch_warnings():
            # the rounded index has ties on purpose
            warnings.simplefilter("ignore", DataWarning)
            sample = Sample(y=sample.y, d=sample.d, x=np.round(sample.x, case["round_x"]),
                            propensity=sample.propensity)
    est = fit_ewm(sample)
    h_hat = estimate_khA(sample, est.t_hat).h_hat
    boot = ewm_bootstrap(sample, est, h_hat, n_boot=case["n_boot"], seed=case["seed"])
    return {**case, "draws_sha256": _pins.sha256(boot.draws)}


def chernoff_results():
    return [chernoff_case(case) for case in CHERNOFF_CASES]


def bootstrap_results():
    return [bootstrap_case(case) for case in BOOTSTRAP_CASES]


def main(argv=None):
    args = _pins.parser(__doc__, _pins.DATA / "chernoff_pinned.json").parse_args(argv)
    return _pins.write(args.out, {"chernoff": chernoff_results(), "bootstrap": bootstrap_results()})


if __name__ == "__main__":
    sys.exit(main())
