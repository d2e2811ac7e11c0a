"""Pinned SWM fits and CLI outputs reproduce on other CPU code paths of numpy and OpenBLAS.

Each variant runs a few pin cases in a child process whose environment
selects another code path: OpenBLAS's Haswell kernels, and numpy's AVX2
dispatch with its AVX-512 targets disabled.  The cases are the ones whose
arithmetic used to reach BLAS products, LAPACK solves and numpy's SIMD exp
and power: the plug-in SWM (nuisance estimates and smoothed objective), the
SWM interval, the EWM plug-in interval and a small Monte Carlo run.  A child
whose numpy still reports a feature it was asked to disable skips, since it
would test nothing new.
"""

import json
import os
import subprocess
import sys

import pytest
from helpers import ROOT, pinned

import threshold_regret

SWM_CASES = [i for i, case in enumerate(pinned("swm_pinned.json")["cases"])
             if case["seed"] == 0 and case["n"] in (500, 3000) and case["space"] is None and case["outlier"] is None]
CLI_COMMANDS = (
    ["estimate", "--policy", "swm"],
    ["infer", "--policy", "swm", "--method", "bias-corrected"],
    ["infer", "--policy", "ewm", "--method", "plugin"],
    ["simulate", "--model", "1", "--n", "120"],
)
CLI_CASES = [i for i, case in enumerate(pinned("cli_pinned.json")["cases"])
             if case["argv"][-1] == "json" and any(case["argv"][: len(c)] == c for c in CLI_COMMANDS)]

CHILD = """
import json, sys
from numpy._core._multiarray_umath import __cpu_features__
still_on = [name for name in sys.argv[1].split() if __cpu_features__.get(name)]
if still_on:
    print(json.dumps({"skip": still_on}))
    sys.exit(0)
sys.path.insert(0, sys.argv[2])
import pin_cli_outputs, pin_swm_outputs
swm_cases = pin_swm_outputs.cases()
pin_cli_outputs.CASES = [pin_cli_outputs.CASES[i] for i in json.loads(sys.argv[4])]
print(json.dumps({"swm": [pin_swm_outputs.fit_case(swm_cases[i]) for i in json.loads(sys.argv[3])],
                  "cli": pin_cli_outputs.pinned_results()}))
"""


@pytest.mark.parametrize("variable, value", [
    ("OPENBLAS_CORETYPE", "Haswell"),
    ("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR"),
], ids=["openblas-haswell", "numpy-avx2"])
def test_pins_reproduce_on_another_cpu_path(variable, value):
    assert len(SWM_CASES) == 20 and len(CLI_CASES) == 4
    env = {**os.environ, variable: value, "PYTHONPATH": os.path.dirname(os.path.dirname(threshold_regret.__file__))}
    disabled = value if variable == "NPY_DISABLE_CPU_FEATURES" else ""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, disabled, str(ROOT / "scripts"), json.dumps(SWM_CASES), json.dumps(CLI_CASES)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    if "skip" in got:
        pytest.skip(f"{variable}={value!r} left {got['skip']} enabled")
    assert got["swm"] == [pinned("swm_pinned.json")["cases"][i] for i in SWM_CASES]
    assert got["cli"] == [pinned("cli_pinned.json")["cases"][i] for i in CLI_CASES]
