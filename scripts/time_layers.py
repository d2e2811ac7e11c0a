#!/usr/bin/env python3
"""Print layer timings as one JSON object: the minimum of repeats, on one CPU.

- ``chernoff_block_ms``: one block of ``--paths`` paths on the default grid
  (halfwidth 2.5, step 5e-4, so 5000 points a wing) through
  ``chernoff._simulate_block``, on each path it can take: the lanes of
  ``tr_chernoff_block`` (null where this CPU or compiler lacks them), the
  scalar loop ``tr_chernoff_block_scalar`` and the numpy loop.  All three
  give the same bits; the script checks that they do.
- ``layers_ms``: at each n of ``--n``, on a model-2 sample, ``estimate_khA``
  at the EWM threshold and ``fit_swm`` with the rate bandwidth
  (``LambdaRate(lambda*)``) and with the plug-in one (``PlugInOptimal``,
  which runs ``estimate_khA`` inside).
- ``build_s``: ``--builds`` builds of each of ``--sources`` (default: the
  package's ``_kernels.c``) with the command the package builds with, taken
  round-robin across the sources, so a parent's and a change's source can be
  compared on a host whose speed drifts; null where the compiler is not
  on PATH.

Usage:
    PYTHONPATH=src python scripts/time_layers.py [--repeats 7] [--paths 1000] [--n 500,3000,100000]
        [--builds 7] [--sources A.c,B.c] [--cpu 0]
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

from threshold_regret import _native, chernoff
from threshold_regret.data import default_space
from threshold_regret.ewm import fit_ewm
from threshold_regret.kernels import gaussian_cdf_kernel
from threshold_regret.montecarlo import MODEL2, draw_sample
from threshold_regret.nuisance import estimate_khA
from threshold_regret.swm import LambdaRate, PlugInOptimal, fit_swm


def best_ms(run, repeats: int) -> float:
    """The least wall time of ``repeats`` calls of ``run``, in ms."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


def block_paths() -> dict:
    """Each path of the Chernoff block, as the function ``_native.kernel`` hands out (None: the numpy loop)."""
    lib = _native._library()
    paths = {"lanes": None, "scalar": None, "numpy": None}
    if lib is not None and _native.kernel("tr_chernoff_block") is not None:
        if lib.tr_chernoff_lanes():
            paths["lanes"] = lib.tr_chernoff_block
        paths["scalar"] = lib.tr_chernoff_block_scalar
    return paths


def chernoff_block_ms(paths: dict, n_paths: int, repeats: int) -> dict:
    """The block on each path, the paths taken in turn within each repeat."""
    _, halfwidth, step, seed = chernoff.SHIPPED_CONFIG
    args = (seed, 0, n_paths, chernoff._grid_size(halfwidth, step), step)
    runs = {name: block for name, block in paths.items() if block is not None or name == "numpy"}

    def simulate(block):
        with mock.patch.object(_native, "kernel", lambda _: block):
            return chernoff._simulate_block(args)

    if len({simulate(block).tobytes() for block in runs.values()}) != 1:
        raise SystemExit("the Chernoff block's paths gave different draws")
    timings = {name: [] for name in runs}
    for _ in range(repeats):
        for name, block in runs.items():
            timings[name].append(best_ms(lambda: simulate(block), 1))
    return {name: min(timings[name]) if name in runs else None for name in paths}


def layers_ms(n: int, repeats: int) -> dict:
    sample = draw_sample(MODEL2, n, 1)
    space = default_space(sample)
    t_ewm = fit_ewm(sample, space).t_hat
    kernel = gaussian_cdf_kernel()
    rate = LambdaRate(kernel.optimal_lambda(MODEL2.K, MODEL2.A))
    runs = {
        "estimate_khA": lambda: estimate_khA(sample, t_ewm),
        "fit_swm_rate": lambda: fit_swm(sample, kernel, rate, space),
        "fit_swm_plugin": lambda: fit_swm(sample, kernel, PlugInOptimal(t_eval=t_ewm), space),
    }
    for run in runs.values():
        run()  # the kernels' load-time checks, outside the timings
    return {name: best_ms(run, repeats) for name, run in runs.items()}


def build_s(sources: list[Path], builds: int) -> dict | None:
    """Seconds per build of each source, with the package's build command, round-robin."""
    command = _native._library_path()[1]
    if shutil.which(command[0]) is None:
        return None
    at = command.index(str(_native.SOURCE))
    times = {str(source): [] for source in sources}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(builds):
            for source in sources:
                argv = [*command[:at], str(source), *command[at + 1:], "-o", os.path.join(tmp, "k.so")]
                start = time.perf_counter()
                subprocess.run(argv, check=True, capture_output=True)
                times[str(source)].append(time.perf_counter() - start)
    return {source: {"min": min(runs), "median": statistics.median(runs), "runs": runs}
            for source, runs in times.items()}


def timings(args) -> dict:
    paths = block_paths()
    return {
        "env": {
            "cpu": args.cpu, "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__,
            # the path simulate_chernoff takes in this process
            "chernoff_path": next(name for name, block in paths.items() if block is not None or name == "numpy"),
        },
        "repeats": args.repeats,
        "chernoff_block_ms": {"paths": args.paths, **chernoff_block_ms(paths, args.paths, args.repeats)},
        "layers_ms": {n: layers_ms(int(n), args.repeats) for n in args.n.split(",")},
        "build_s": build_s([Path(s) for s in args.sources.split(",")], args.builds),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--paths", type=int, default=1000)
    parser.add_argument("--n", default="500,3000,100000")
    parser.add_argument("--builds", type=int, default=7)
    parser.add_argument("--sources", default=str(_native.SOURCE))
    parser.add_argument("--cpu", type=int, default=min(os.sched_getaffinity(0)))
    args = parser.parse_args(argv)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {args.cpu})
    try:
        record = timings(args)
    finally:
        os.sched_setaffinity(0, cpus)
    json.dump(record, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
