#!/usr/bin/env python3
"""Print layer timings as one JSON object: the minimum of repeats, on one CPU.

- ``chernoff_block_ms``: one block of ``--paths`` paths on the default grid
  (halfwidth 2.5, step 5e-4, so 5000 points a wing) through
  ``chernoff._simulate_block``, on each path it can take: the lanes of
  ``tr_chernoff_block`` (null where this CPU or compiler lacks them), the
  scalar loop ``tr_chernoff_block_scalar`` and the numpy loop.  All three
  give the same bits; the script checks that they do.
- ``layers_ms``: at each n of ``--n``, on a model-2 sample: the ``Sample``
  built from its arrays (which sorts x), ``fit_ewm``, in one call of
  ``tr_fit_ewm`` where that loads, with ``fit_ewm_pipeline`` beside it, its
  numpy body (``tr_fit_ewm`` set aside), ``ewm_bootstrap`` of
  200 replicates on one worker at the true H, ``estimate_khA`` at the EWM
  threshold, in one call of ``tr_estimate_khA`` where that loads, with
  ``estimate_khA_pipeline`` beside it, the Python pipeline that the call
  replaces (``tr_estimate_khA`` set aside), and ``fit_swm`` with the rate
  bandwidth (``LambdaRate(lambda*)``) and with the plug-in one
  (``PlugInOptimal``, which runs ``estimate_khA`` inside), each in one call
  of ``tr_fit_swm`` where that loads; beside them ``fit_swm_pipeline``, the
  rate-bandwidth fit on the Python pipeline that the compiled fit replaces
  (``tr_fit_swm`` set aside), split into its steps: ``swm_screen``, the
  pipeline's coarse-grid screen (``swm._numpy_candidates``; the compiled
  screen runs only inside ``fit_swm_rate``); ``swm_values``, the rows bound
  and S_n at the screen's candidates of the grid; and ``swm_newton``, the
  Newton refinement from the best of them, the clamp and S_n at t_hat.
- ``quantiles_ms``: the regret-law quantiles, each the least double at
  which the library's Phi reaches the level: ``z_quantile(0.975)``, the
  critical value of ``swm_ci``, and the median of the SWM regret law that
  ``asymptotics`` reports (``swm_regret_dist(...).median``, model 2 at
  lambda* and n = 500, the law built inside the timing).
- ``csv_load_ms``: ``load_sample_csv`` on a 100 000-row model-2 CSV of
  ``y,d,x`` with repr floats (as the benchmark writes its CSVs), through the
  compiled parser (null where it does not load) and through the row loop.
  Both give the same bits; the script checks that they do.
- ``build_s``: ``--builds`` builds of each of ``--sources`` (default: the
  package's ``_kernels.c``) with the command the package builds with, taken
  round-robin across the sources, so a parent's and a change's source can be
  compared on a host whose speed drifts; null where the compiler is not
  on PATH or ``--builds`` is 0.

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
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np

from threshold_regret import _native, chernoff, swm
from threshold_regret.asymptotics import swm_regret_dist
from threshold_regret.data import Sample, _ipw_g, default_space, load_sample_csv
from threshold_regret.ewm import fit_ewm
from threshold_regret.inference import ewm_bootstrap, z_quantile
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


def pipeline():
    """A context in which ``fit_swm`` runs its Python pipeline rather than ``tr_fit_swm``."""
    return mock.patch.object(swm, "_kernel", lambda name: None)


def loader_pipelines():
    """A context in which the callers of ``_native.kernel`` run their Python pipelines: ``estimate_khA`` rather
    than ``tr_estimate_khA`` and ``fit_ewm`` rather than ``tr_fit_ewm``."""
    return mock.patch.object(_native, "kernel", lambda name: None)


def layers_ms(n: int, repeats: int) -> dict:
    sample = draw_sample(MODEL2, n, 1)
    columns = {name: getattr(sample, name).copy() for name in ("y", "d", "x")}
    space = default_space(sample)
    ewm = fit_ewm(sample, space)
    t_ewm = ewm.t_hat
    kernel = gaussian_cdf_kernel()
    rate = LambdaRate(kernel.optimal_lambda(MODEL2.K, MODEL2.A))
    runs = {
        "sample": lambda: Sample(**columns, propensity=MODEL2.p),
        "fit_ewm": lambda: fit_ewm(sample, space),
        "ewm_bootstrap": lambda: ewm_bootstrap(sample, ewm, MODEL2.H, n_boot=200, seed=1, jobs=1),
        "estimate_khA": lambda: estimate_khA(sample, t_ewm),
        "fit_swm_rate": lambda: fit_swm(sample, kernel, rate, space),
        "fit_swm_plugin": lambda: fit_swm(sample, kernel, PlugInOptimal(t_eval=t_ewm), space),
    }
    # the pipeline's steps on the rate-bandwidth fit, each from the one before's result
    g, sigma = _ipw_g(sample), kernel.rate_bandwidth(rate.lam, n)
    n_pts = swm._grid_points(space, sigma)
    cand = swm._numpy_candidates(g, sample.x, kernel, sigma, space, n_pts)
    ts = np.linspace(space.lo, space.hi, n_pts)
    f = partial(swm._smoothed, kernel.bind(sample.x, g), n, sigma)
    best = int(cand[np.argmax(f(ts[cand]))])
    bracket = float(ts[max(best - 1, 0)]), float(ts[min(best + 1, n_pts - 1)]), float(ts[best])

    def newton():
        t_hat = float(space.clamp(swm._newton_max(partial(swm._slopes, f), *bracket, tol=1e-8 * space.width)))
        return f(t_hat)

    steps = {
        "fit_swm_pipeline": lambda: fit_swm(sample, kernel, rate, space),
        "swm_screen": lambda: swm._numpy_candidates(g, sample.x, kernel, sigma, space, n_pts),
        "swm_values": lambda: swm._smoothed(kernel.bind(sample.x, g), n, sigma,
                                            np.linspace(space.lo, space.hi, n_pts)[cand]),
        "swm_newton": newton,
    }
    for run in (*runs.values(), *steps.values()):
        run()  # the kernels' load-time checks, outside the timings
    timings = {name: best_ms(run, repeats) for name, run in runs.items()}
    with loader_pipelines():
        timings["fit_ewm_pipeline"] = best_ms(runs["fit_ewm"], repeats)
        timings["estimate_khA_pipeline"] = best_ms(runs["estimate_khA"], repeats)
    with pipeline():
        return timings | {name: best_ms(run, repeats) for name, run in steps.items()}


def quantiles_ms(repeats: int) -> dict:
    kernel = gaussian_cdf_kernel()
    lam = kernel.optimal_lambda(MODEL2.K, MODEL2.A)
    runs = {
        "z_quantile": lambda: z_quantile(0.975),
        "swm_median": lambda: swm_regret_dist(MODEL2.K, MODEL2.H, MODEL2.A, lam, kernel, 500).median,
    }
    for run in runs.values():
        run()  # the normal law's load-time check, outside the timings
    return {name: best_ms(run, repeats) for name, run in runs.items()}


def csv_load_ms(repeats: int) -> dict:
    """``load_sample_csv`` through the compiled pass and the row loop, taken in turn within each repeat."""
    sample = draw_sample(MODEL2, 100_000, 1)
    runs = {"compiled": _native.kernel("tr_parse_csv"), "row_loop": None}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model2_n100000.csv")
        with open(path, "w") as fh:
            fh.write("y,d,x\n")
            rows = zip(sample.y.tolist(), sample.d.tolist(), sample.x.tolist())
            fh.writelines(f"{y!r},{int(d)},{x!r}\n" for y, d, x in rows)

        def load(parse):
            with mock.patch.object(_native, "kernel", lambda _: parse):
                return load_sample_csv(path, propensity=0.5)

        if runs["compiled"] is None:
            del runs["compiled"]
        samples = [load(parse) for parse in runs.values()]
        if len({b"".join(a.tobytes() for a in (s.y, s.d, s.x)) for s in samples}) != 1:
            raise SystemExit("the compiled pass and the row loop read different samples")
        timings = {name: [] for name in runs}
        for _ in range(repeats):
            for name, parse in runs.items():
                timings[name].append(best_ms(lambda: load(parse), 1))
    return {name: min(timings[name]) if name in runs else None for name in ("compiled", "row_loop")}


def build_s(sources: list[Path], builds: int) -> dict | None:
    """Seconds per build of each source, with the package's build command, round-robin."""
    command = _native._library_path()[1]
    if shutil.which(command[0]) is None or builds < 1:
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
        "quantiles_ms": quantiles_ms(args.repeats),
        "csv_load_ms": csv_load_ms(args.repeats),
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
