#!/usr/bin/env python3
"""Pin the exact output of every CLI subcommand in every format.

Each case runs ``threshold_regret.cli.run_cli`` in-process on a fixed
argument list and records the sha256 of what it writes to stdout together
with the exit code.  The cases cover ``asymptotics`` (both models, custom
constants, and custom constants with A = 0), ``simulate`` (model 1, and a
``--config`` model with beta2 = 0, so A = 0 and some cells are empty),
``chernoff``, ``estimate`` for both policies, ``infer --method plugin``,
``infer --method bootstrap`` (200 replicates) and ``infer --policy swm
--method bias-corrected``, each as text, csv and json, and ``chernoff`` as
csv at the default ``--jobs``, whose output must not depend on the number
of CPUs.  Every Chernoff table they need is the cheapest legal one (10 000
paths, halfwidth 2, step 1e-3, seed 5), so the test suite can hand the CLI
its session table instead of simulating per call.  The input files are
written to a temporary directory that becomes the working directory, so
the echoed paths are relative and the output does not depend on where it
runs.

Usage:
    PYTHONPATH=src python scripts/pin_cli_outputs.py [--out tests/data/cli_pinned.json]

The script refuses to change an existing file (``_pins.write``); to
regenerate it on a commit whose outputs are the reference, delete it first.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

import _pins
from threshold_regret.cli import run_cli
from threshold_regret.montecarlo import MODEL1, draw_sample

TABLE = ["--chernoff-paths", "10000", "--chernoff-step", "0.001", "--chernoff-halfwidth", "2",
         "--seed", "5", "--jobs", "1"]
DATA = ["--data", "sample.csv", "--propensity", "0.5"]
FLAT_MODEL = {"model": {"name": "flat", "gamma": 1.0, "beta1": 1.0, "beta2": 0.0, "p": 0.5},
              "n": [120], "reps": 20, "estimators": ["ewm", "swm_feasible"]}
COMMANDS = [
    ["asymptotics", "--model", "1", "--n", "500,1000,2000,3000"] + TABLE,
    ["asymptotics", "--model", "2", "--n", "500,3000"] + TABLE,
    ["asymptotics", "--n", "500,2000", "--K", "1.596", "--H", "0.399", "--A", "0.199"] + TABLE,
    ["asymptotics", "--n", "500,2000", "--K", "1.596", "--H", "0.399", "--A", "0"] + TABLE,
    ["simulate", "--model", "1", "--n", "120", "--reps", "20"] + TABLE,
    ["simulate", "--config", "flat.json"] + TABLE,
    ["chernoff", "--paths", "10000", "--step", "0.001", "--halfwidth", "2", "--seed", "5", "--jobs", "1"],
    ["estimate", "--policy", "ewm", "--seed", "5"] + DATA,
    ["estimate", "--policy", "swm", "--seed", "5"] + DATA,
    ["infer", "--policy", "ewm", "--method", "plugin"] + DATA + TABLE,
    ["infer", "--policy", "ewm", "--method", "bootstrap", "--bootstrap-reps", "200", "--jobs", "1",
     "--seed", "5"] + DATA,
    ["infer", "--policy", "swm", "--method", "bias-corrected", "--seed", "5"] + DATA,
]
FORMATS = ("text", "csv", "json")
CASES = [command + ["--format", fmt] for command in COMMANDS for fmt in FORMATS] + [
    ["chernoff", "--paths", "10000", "--step", "0.001", "--halfwidth", "2", "--seed", "5", "--format", "csv"],
]


def _write_inputs(directory):
    s = draw_sample(MODEL1, 500, 314)
    lines = ["y,d,x"] + [f"{float(y)!r},{int(d)},{float(x)!r}" for y, d, x in zip(s.y, s.d, s.x)]
    (directory / "sample.csv").write_text("\n".join(lines) + "\n")
    (directory / "flat.json").write_text(json.dumps(FLAT_MODEL))


def pinned_results():
    """The argv, exit code and stdout sha256 of every case, run in a scratch directory."""
    results = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(pathlib.Path(tmp))
        os.chdir(tmp)
        try:
            for argv in CASES:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = run_cli(argv)
                results.append({"argv": argv, "exit_code": code,
                                "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()})
        finally:
            os.chdir(cwd)
    return results


def main(argv=None):
    args = _pins.parser(__doc__, _pins.DATA / "cli_pinned.json").parse_args(argv)
    return _pins.write(args.out, {"cases": pinned_results()})


if __name__ == "__main__":
    sys.exit(main())
