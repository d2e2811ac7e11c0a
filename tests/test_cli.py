import argparse
import json
import math
import os
import sys
import warnings

import numpy as np
import pytest

from threshold_regret import chernoff, cli
from threshold_regret.cli import run_cli
from threshold_regret.errors import DataWarning
from threshold_regret.montecarlo import MODEL1, draw_sample

from helpers import ROOT, fresh_python, load_script, pinned

SMALL_TABLE = ["--chernoff-paths", "10000", "--chernoff-step", "0.001", "--chernoff-halfwidth", "2"]


@pytest.fixture(scope="module", autouse=True)
def simulate_each_table_once(small_chernoff):
    """Simulate each table configuration once, whatever the worker count or rerun.

    The CLI tests compare outputs across reruns and worker counts; the simulator's
    own rerun equality and jobs 1 vs 2 invariance are checked in test_chernoff.py
    (``test_reproducible_bit_for_bit``, ``test_worker_count_does_not_change_samples``
    and the jobs 1 and 2 cases of ``test_simulate_chernoff_reproduces_pinned_outputs``).
    """
    tables = {(10_000, 2.0, 1e-3, 5): small_chernoff}
    simulate = chernoff.simulate_chernoff

    def cached(n_paths, domain_halfwidth, grid_step, seed, jobs):
        key = (n_paths, domain_halfwidth, grid_step, seed)
        if key not in tables:
            tables[key] = simulate(n_paths=n_paths, domain_halfwidth=domain_halfwidth, grid_step=grid_step,
                                   seed=seed, jobs=jobs)
        return tables[key]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chernoff, "simulate_chernoff", cached)
        yield


@pytest.fixture
def session_table(monkeypatch, small_chernoff):
    """Hand the CLI the session table for the SMALL_TABLE grid at seed 5, instead of simulating."""

    def table(n_paths, domain_halfwidth, grid_step, seed, jobs):
        assert (n_paths, domain_halfwidth, grid_step, seed) == (10_000, 2.0, 1e-3, 5)
        return small_chernoff

    monkeypatch.setattr(chernoff, "simulate_chernoff", table)


@pytest.fixture(scope="module")
def sample_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "model1.csv"
    s = draw_sample(MODEL1, 500, 314)
    lines = ["y,d,x"]
    lines += [f"{float(y)!r},{int(d)},{float(x)!r}" for y, d, x in zip(s.y, s.d, s.x)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_estimate_ewm_smoke(sample_csv, capsys):
    rc = run_cli(["estimate", "--policy", "ewm", "--data", sample_csv, "--propensity", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "t_hat:" in out and "objective_value:" in out


def test_estimate_json_roundtrips_full_precision(sample_csv, capsys):
    rc = run_cli(
        ["estimate", "--policy", "ewm", "--data", sample_csv, "--propensity", "0.5", "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    reparsed = json.loads(json.dumps(payload))
    assert reparsed == payload
    assert isinstance(payload["result"]["t_hat"], float)
    assert payload["config"]["command"] == "estimate"


def test_estimate_swm_bandwidth_flags(sample_csv, capsys):
    rc = run_cli(
        ["estimate", "--policy", "swm", "--data", sample_csv, "--propensity", "0.5",
         "--bandwidth", "fixed:0.4", "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["bandwidth"] == pytest.approx(0.4)
    rc = run_cli(
        ["estimate", "--policy", "swm", "--data", sample_csv, "--propensity", "0.5",
         "--bandwidth", "lambda:2.0", "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["bandwidth"] == pytest.approx((2.0 / 500) ** 0.2)


def test_simulate_byte_identical_reruns(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--model", "1", "--n", "200", "--reps", "30", "--seed", "7",
            "--jobs", "1", "--format", "csv"] + SMALL_TABLE
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_jobs_invariance(tmp_path):
    out1 = tmp_path / "j1.csv"
    out2 = tmp_path / "j2.csv"
    base = ["simulate", "--model", "1", "--n", "200", "--reps", "30", "--seed", "7",
            "--format", "csv"] + SMALL_TABLE
    assert run_cli(base + ["--jobs", "1", "--out", str(out1)]) == 0
    assert run_cli(base + ["--jobs", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command", [["chernoff"], ["simulate", "--n", "200", "--reps", "30"]])
def test_output_is_byte_identical_for_any_worker_count(session_table, capsys, command):
    argv = command + SMALL_TABLE + ["--seed", "5", "--format", "csv"]
    outputs = []
    for jobs in ("1", "2"):
        assert run_cli(argv + ["--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_infer_interval_ordering(sample_csv, capsys):
    rc = run_cli(
        ["infer", "--policy", "swm", "--method", "bias-corrected", "--level", "0.95",
         "--data", sample_csv, "--propensity", "0.5", "--format", "json"]
    )
    assert rc == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["lo"] <= result["center"] - result["bias_correction"] <= result["hi"]
    assert result["method"] == "swm_bias_corrected"


def test_infer_bootstrap_deterministic(sample_csv, capsys):
    args = ["infer", "--policy", "ewm", "--method", "bootstrap", "--data", sample_csv,
            "--propensity", "0.5", "--bootstrap-reps", "250", "--seed", "11", "--format", "json"]
    assert run_cli(args) == 0
    first = capsys.readouterr().out
    assert run_cli(args) == 0
    assert capsys.readouterr().out == first


def test_infer_plugin_uses_chernoff_table(sample_csv, capsys):
    rc = run_cli(
        ["infer", "--policy", "ewm", "--method", "plugin", "--data", sample_csv,
         "--propensity", "0.5", "--seed", "5", "--format", "json", "--jobs", "1"] + SMALL_TABLE
    )
    assert rc == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["lo"] < result["center"] < result["hi"]
    assert result["method"] == "ewm_plugin"


def test_infer_method_policy_mismatch(sample_csv, capsys):
    rc = run_cli(
        ["infer", "--policy", "swm", "--method", "bootstrap", "--data", sample_csv, "--propensity", "0.5"]
    )
    assert rc == 1


def test_asymptotics_custom_constants(capsys):
    rc = run_cli(
        ["asymptotics", "--n", "500", "--K", "1.596", "--H", "0.399", "--A", "0.199",
         "--seed", "5", "--format", "json", "--jobs", "1"] + SMALL_TABLE
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    row = payload["rows"][0]
    assert row["swm_mean"] == pytest.approx(39.714e-4, rel=0.005)
    assert row["model"] == "custom"


def test_asymptotics_requires_all_constants(capsys):
    rc = run_cli(["asymptotics", "--n", "500", "--K", "1.0"] + SMALL_TABLE)
    assert rc == 1


def test_chernoff_subcommand_csv(capsys):
    rc = run_cli(["chernoff", "--seed", "5", "--format", "csv", "--jobs", "1"] + SMALL_TABLE)
    assert rc == 0
    out = capsys.readouterr().out
    assert "statistic,value" in out
    assert "q0.975" in out


def test_chernoff_short_flag_names(capsys):
    rc = run_cli(
        ["chernoff", "--paths", "10000", "--step", "0.001", "--halfwidth", "2",
         "--seed", "5", "--format", "json", "--jobs", "1"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["paths"] == 10000
    assert payload["config"]["step"] == 0.001


def test_infer_bootstrap_worker_count_invariant(sample_csv, capsys):
    base = ["infer", "--policy", "ewm", "--method", "bootstrap", "--data", sample_csv,
            "--propensity", "0.5", "--bootstrap-reps", "250", "--seed", "11", "--format", "json"]
    assert run_cli(base + ["--jobs", "1"]) == 0
    one = json.loads(capsys.readouterr().out)
    assert run_cli(base + ["--jobs", "2"]) == 0
    two = json.loads(capsys.readouterr().out)
    assert one["result"] == two["result"]


def test_unknown_flag_is_validation_error(sample_csv, capsys):
    rc = run_cli(["estimate", "--policy", "ewm", "--data", sample_csv, "--no-such-flag"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_validation_error(capsys):
    rc = run_cli(["estimate", "--policy", "ewm", "--data", "/nonexistent.csv", "--propensity", "0.5"])
    assert rc == 1


def test_malformed_csv_names_offender(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("y,d,x\n1.0,1,0.5\n1.0,7,0.6\n")
    rc = run_cli(["estimate", "--policy", "ewm", "--data", str(path), "--propensity", "0.5"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "row 3" in err and "'d'" in err


def test_numeric_failure_exit_code(tmp_path, capsys):
    # pure-noise outcomes with a seed whose estimated welfare slope is
    # negative at the fitted threshold: the plugin interval must fail
    rng = np.random.default_rng(12)
    n = 400
    x = rng.standard_normal(n)
    d = (rng.random(n) < 0.5).astype(int)
    y = rng.standard_normal(n)
    path = tmp_path / "neg.csv"
    lines = ["y,d,x"] + [f"{float(a)!r},{int(b)},{float(c)!r}" for a, b, c in zip(y, d, x)]
    path.write_text("\n".join(lines) + "\n")
    rc = run_cli(
        ["infer", "--policy", "ewm", "--method", "plugin", "--data", str(path),
         "--propensity", "0.5", "--seed", "5", "--jobs", "1"] + SMALL_TABLE
    )
    assert rc == 2
    assert "H_hat" in capsys.readouterr().err


def test_seed_env_fallback(sample_csv, capsys, monkeypatch):
    monkeypatch.setenv("THRESHOLD_REGRET_SEED", "123")
    rc = run_cli(
        ["estimate", "--policy", "ewm", "--data", sample_csv, "--propensity", "0.5", "--format", "json"]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 123


def test_propensity_is_echoed(sample_csv, capsys):
    headers = []
    for propensity in ("0.5", "0.4"):
        argv = ["estimate", "--policy", "ewm", "--data", sample_csv, "--propensity", propensity]
        assert run_cli(argv) == 0
        headers.append([line for line in capsys.readouterr().out.splitlines() if line.startswith("#")])
    assert headers[0] != headers[1]
    assert "# propensity = 0.4" in headers[1]


def test_output_written_only_to_declared_path(sample_csv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "result.json"
    rc = run_cli(
        ["estimate", "--policy", "ewm", "--data", sample_csv, "--propensity", "0.5",
         "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    created = {p.name for p in tmp_path.iterdir()}
    assert created == {"result.json"}


def test_config_file_drives_simulate(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": 1, "n": [150], "reps": 10, "seed": 3, "estimators": ["ewm"]}))
    rc = run_cli(
        ["simulate", "--config", str(cfg), "--format", "json", "--jobs", "1"] + SMALL_TABLE
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["reps"] == 10
    assert payload["config"]["seed"] == 3
    assert {c["estimator"] for c in payload["cells"]} == {"ewm"}


def _simulate_with_config(tmp_path, overrides, *flags):
    cfg = tmp_path / "cfg.json"
    base = {"model": 1, "n": [150], "reps": 10, "seed": 3, "estimators": ["ewm"]}
    cfg.write_text(json.dumps({**base, **overrides}))
    return run_cli(["simulate", "--config", str(cfg), "--format", "json", "--jobs", "1", *flags] + SMALL_TABLE)


def test_config_seed_also_seeds_the_chernoff_table(tmp_path, capsys):
    """The file's seed is the one echoed, so --seed must not change the table behind the output."""
    outputs = []
    for seed in ("5", "6"):
        assert _simulate_with_config(tmp_path, {}, "--seed", seed) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["config"]["seed"] == 3


def test_config_scalar_n_is_one_sample_size(tmp_path, capsys):
    assert _simulate_with_config(tmp_path, {"n": 150}) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["n"] == "150"


def test_config_string_estimators_is_one_name(tmp_path, capsys):
    assert _simulate_with_config(tmp_path, {"estimators": "ewm"}) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["estimators"] == "ewm"
    assert {c["estimator"] for c in payload["cells"]} == {"ewm"}


@pytest.mark.parametrize(
    "overrides",
    [
        {"reps": "abc"},
        {"reps": 2.5},
        {"seed": None},
        {"jobs": True},
        {"n": "150"},
        {"n": [150, "x"]},
        {"estimators": 3},
        {"model": {"gamma": "wide", "beta1": 1, "beta2": 0, "p": 0.5}},
        {"reps": True},
        {"n": [True]},
        {"estimators": [1, "ewm"]},
    ],
)
def test_config_bad_values_are_validation_errors(tmp_path, capsys, overrides):
    assert _simulate_with_config(tmp_path, overrides) == 1
    assert capsys.readouterr().err.startswith("error: --config")


@pytest.mark.parametrize("field, value", [("gamma", math.inf), ("beta1", math.nan), ("beta2", -math.inf)])
def test_config_non_finite_model_parameter_is_one_error_line(tmp_path, capsys, field, value):
    model = {"gamma": 1.0, "beta1": 1.0, "beta2": -0.5, "p": 0.5, field: value}
    assert _simulate_with_config(tmp_path, {"model": model}) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err and "Warning" not in err
    assert err.startswith(f"error: {field} must be finite")


@pytest.mark.parametrize("command", [
    ["estimate", "--policy", "swm"],
    ["infer", "--policy", "ewm", "--method", "bootstrap", "--bootstrap-reps", "200", "--jobs", "1"],
])
def test_space_with_negative_lower_bound(sample_csv, capsys, command):
    base = command + ["--data", sample_csv, "--propensity", "0.5", "--format", "json"]
    assert run_cli(base + ["--space=-0.3,0.4"]) == 0
    joined = capsys.readouterr().out
    assert run_cli(base + ["--space", "-0.3,0.4"]) == 0
    assert capsys.readouterr().out == joined
    payload = json.loads(joined)
    assert (payload["config"]["space_lo"], payload["config"]["space_hi"]) == (-0.3, 0.4)


@pytest.mark.parametrize("flags", [
    ["--step", "nan"],
    ["--halfwidth", "nan"],
    ["--halfwidth", "inf"],
])
def test_chernoff_non_finite_grid_is_validation_error(capsys, flags):
    rc = run_cli(["chernoff", "--paths", "10000", "--jobs", "1"] + flags)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1


_SCALED_RUNS = (
    ["estimate", "--policy", "swm"],
    ["infer", "--policy", "ewm", "--method", "plugin"],
    ["infer", "--policy", "ewm", "--method", "bootstrap", "--bootstrap-reps", "200", "--jobs", "1"],
    ["infer", "--policy", "swm", "--method", "bias-corrected"],
    ["infer", "--policy", "swm", "--method", "undersmooth"],
)


@pytest.mark.parametrize("scale, outcomes", [
    # f_hat and tau' near 1e181: H_hat overflows
    (2.0**-600, ["numeric failure: nuisance estimate H is not finite at t="] * 5),
    # f_hat and tau' near 1e-300: H_hat and A_hat underflow, so the plug-in bandwidth falls back
    (1e300, [None] + ["numeric failure: H_hat = 0.0 is not positive: the estimated welfare slope is 0 or below"] * 4),
], ids=["x_times_2^-600", "x_times_1e300"])
def test_tiny_and_huge_x_fit_or_fail_with_one_true_line(tmp_path, capsys, scale, outcomes):
    """300 model-1 rows with x scaled near 1e-181 or 1e300: each command succeeds, or
    exits with one stderr line naming what failed; no warning, no traceback."""
    sample = draw_sample(MODEL1, 300, 1)
    path = tmp_path / "scaled.csv"
    path.write_text("y,d,x\n" + "".join(
        f"{y!r},{int(d)},{x!r}\n" for y, d, x in zip(sample.y.tolist(), sample.d.tolist(), (sample.x * scale).tolist())
    ))
    for argv, outcome in zip(_SCALED_RUNS, outcomes):
        code = run_cli([*argv, "--data", str(path), "--propensity", "0.5", "--format", "json"])
        out, err = capsys.readouterr()
        if outcome is None:
            assert code == 0 and err == "", argv
            assert json.loads(out)["result"]["flags"] == ["bandwidth_fallback"]
        else:
            assert code == 2 and err.startswith(outcome) and err.count("\n") == 1, (argv, err)


def test_cli_outputs_reproduce_pinned(session_table):
    """Byte-identical stdout and exit codes recorded by scripts/pin_cli_outputs.py."""
    assert load_script("pin_cli_outputs").pinned_results() == pinned("cli_pinned.json")["cases"]


@pytest.mark.parametrize("flags, code", [
    (["--K", "nan"], 1),
    (["--H", "nan"], 1),
    (["--A", "nan"], 1),
    (["--K", "inf"], 1),
    (["--n", "0"], 1),
    (["--n", "-5"], 1),
    (["--H", "1e-320"], 2),
    (["--K", "1e200"], 2),
    (["--A", "1e-200"], 2),
])
def test_asymptotics_unusable_constants_exit_cleanly(session_table, capsys, flags, code):
    options = {"--n": "500", "--K": "1.596", "--H": "0.399", "--A": "0.199", "--seed": "5", "--jobs": "1"}
    options.update(zip(flags[::2], flags[1::2]))
    argv = ["asymptotics"] + [arg for pair in options.items() for arg in pair] + SMALL_TABLE
    assert run_cli(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error:" if code == 1 else "numeric failure:") and err.count("\n") == 1


def test_cli_import_leaves_scipy_stats_unloaded():
    code = "import sys, threshold_regret.cli; print('scipy.stats' in sys.modules)"
    assert fresh_python(code).strip() == "False"


def test_cli_import_loads_neither_scipy_nor_multiprocessing():
    """Nor the native-kernel loader and what it needs: those load on the first kernel call."""
    unloaded = ("scipy", "multiprocessing", "threshold_regret._native", "subprocess", "sysconfig", "hashlib")
    code = f"import sys, threshold_regret.cli; print([m for m in {unloaded!r} if m in sys.modules])"
    assert fresh_python(code).strip() == "[]"


def test_serial_commands_that_need_no_special_function_never_load_scipy(sample_csv):
    """Nor numpy.ma, which the first np.quantile or np.unique imports (about 15 ms)."""
    code = """
import sys
from threshold_regret.cli import run_cli
data = ["--data", sys.argv[1], "--propensity", "0.5"]
assert run_cli(["chernoff", "--seed", "5", "--jobs", "1", *sys.argv[2:]]) == 0
assert run_cli(["estimate", "--policy", "ewm", *data]) == 0
assert run_cli(["estimate", "--policy", "swm", *data]) == 0
assert run_cli(["infer", "--policy", "ewm", "--method", "bootstrap", "--bootstrap-reps", "200", "--jobs", "1",
                *data]) == 0
assert run_cli(["infer", "--policy", "ewm", "--method", "plugin", "--jobs", "1", *data, *sys.argv[2:]]) == 0
assert run_cli(["asymptotics", "--model", "1", "--n", "500,3000", "--seed", "5", "--jobs", "1", *sys.argv[2:]]) == 0
assert run_cli(["infer", "--policy", "swm", "--method", "bias-corrected", *data]) == 0
print("LOADED", [m for m in ("scipy.special", "numpy.ma") if m in sys.modules])
"""
    assert fresh_python(code, sample_csv, *SMALL_TABLE).splitlines()[-1] == "LOADED []"


def test_every_command_gives_its_pinned_output_where_scipy_cannot_be_imported():
    """A fresh interpreter with ``sys.modules["scipy"] = None`` set before the
    package is imported, so that any scipy import raises, runs every command
    of scripts/pin_cli_outputs.py as text: each exits 0 with the stdout that
    the unblocked runs of cli_pinned.json recorded."""
    code = """
import json, sys
sys.modules["scipy"] = None
sys.path.insert(0, sys.argv[1])
import pin_cli_outputs
pin_cli_outputs.CASES = [c + ["--format", "text"] for c in pin_cli_outputs.COMMANDS]
print(json.dumps(pin_cli_outputs.pinned_results()))
"""
    blocked = json.loads(fresh_python(code, str(ROOT / "scripts")).splitlines()[-1])
    text = [case for case in pinned("cli_pinned.json")["cases"] if case["argv"][-2:] == ["--format", "text"]]
    assert {case["exit_code"] for case in blocked} == {0}
    assert blocked == text


@pytest.mark.parametrize("flag, change", [
    ("--seed=8", {"seed": 8}),
    ("--paths=200001", {"n_paths": 200_001}),
    ("--step=4e-4", {"grid_step": 4e-4}),
    ("--halfwidth=2.6", {"domain_halfwidth": 2.6}),
], ids=["seed", "paths", "step", "halfwidth"])
def test_a_non_default_table_is_simulated(monkeypatch, small_chernoff, flag, change):
    calls = []
    monkeypatch.setattr(chernoff, "simulate_chernoff", lambda **kwargs: calls.append(kwargs) or small_chernoff)
    assert run_cli(["chernoff", "--jobs", "1", "--format", "json", flag]) == 0
    default = {"n_paths": 200_000, "domain_halfwidth": 2.5, "grid_step": 5e-4, "seed": 7, "jobs": 1}
    assert calls == [{**default, **change}]


_DATA = object()  # stands for "--data <fixture csv> --propensity 0.5"
_OVERFLOW_DATA = object()  # stands for "--data <csv whose y/p overflows> --propensity 0.01"
_SUM_OVERFLOW_DATA = object()  # "--data <csv whose finite IPW terms overflow their sum> --propensity 0.5"
_UNDECODABLE_DATA = object()  # "--data <csv holding byte 0xe9 on line 3> --propensity 0.5"
_LONG_FIELD_DATA = object()  # "--data <csv whose x on line 3 has 140 001 characters> --propensity 0.5"
_SUFFIX_OVERFLOW_DATA = object()  # "--data <csv of 200 rows whose IPW scores are all 1e306> --propensity 0.5"
_SQUARE_OVERFLOW_DATA = object()  # "--data <csv of 200 rows of y = 5e305, finite score sums> --propensity 0.5"
_TIED_DATA = object()  # "--data <6-row csv with tied x, too few rows for the SWM's level regression> --propensity 0.5"
_BAD_CSVS = {
    _OVERFLOW_DATA: (b"y,d,x\n1e308,1,0\n-1e308,0,1\n1,1,2\n2,0,3\n", "0.01"),
    _SUM_OVERFLOW_DATA: (b"y,d,x\n8e307,1,0\n8e307,0,1\n8e307,1,2\n8e307,0,3\n", "0.5"),
    _UNDECODABLE_DATA: (b"y,d,x\n1,1,0\n2,0,\xe9\n3,1,2\n", "0.5"),
    _LONG_FIELD_DATA: (b"y,d,x\n1,1,0\n2,0,0." + b"1" * 140_000 + b"\n3,1,2\n", "0.5"),
    _SUFFIX_OVERFLOW_DATA: (
        ("y,d,x\n" + "".join(f"{(-1) ** (i + 1) * 5e305},{i % 2},{i}\n" for i in range(200))).encode(), "0.5"
    ),
    _SQUARE_OVERFLOW_DATA: (("y,d,x\n" + "".join(f"5e305,{i % 2},{i}\n" for i in range(200))).encode(), "0.5"),
    _TIED_DATA: (b"y,d,x\n1.0,1,0.5\n0.2,0,0.5\n0.7,1,1.5\n-0.3,0,-0.5\n0.9,1,2.0\n0.1,0,-1.0\n", "0.5"),
}
_BOOT = ["infer", "--policy", "ewm", "--method", "bootstrap", "--bootstrap-reps", "200", _DATA]
_PLUGIN = ["infer", "--policy", "ewm", "--method", "plugin", "--seed", "5", "--jobs", "1", _DATA]
_SWM = ["estimate", "--policy", "swm", _DATA, "--bandwidth"]
_LEVEL = "level must lie in (0, 1), got "


@pytest.mark.parametrize("argv, env_seed, fragment", [
    pytest.param(_PLUGIN + ["--level", "1.5"] + SMALL_TABLE, None, _LEVEL + "1.5", id="plugin-level"),
    pytest.param(["infer", "--policy", "swm", "--method", "bias-corrected", "--level", "1.5", _DATA],
                 None, _LEVEL + "1.5", id="bias-corrected-level"),
    pytest.param(_BOOT + ["--level", "1.5", "--jobs", "1"], None, _LEVEL + "1.5", id="bootstrap-level"),
    pytest.param(_BOOT + ["--level", "nan", "--jobs", "1"], None, _LEVEL + "nan", id="bootstrap-level-nan"),
    pytest.param(["chernoff", "--seed", "-1", "--jobs", "1"] + SMALL_TABLE, None, "seed must be >= 0, got -1",
                 id="chernoff-seed"),
    pytest.param(["asymptotics", "--n", "500", "--seed", "-1", "--jobs", "1"] + SMALL_TABLE, None,
                 "seed must be >= 0, got -1", id="asymptotics-seed"),
    pytest.param(["simulate", "--n", "200", "--reps", "3", "--seed", "-1", "--jobs", "1"] + SMALL_TABLE, None,
                 "seed must be >= 0, got -1", id="simulate-seed"),
    pytest.param(_BOOT + ["--seed", "-1", "--jobs", "1"], None, "seed must be >= 0, got -1", id="bootstrap-seed"),
    pytest.param(["chernoff", "--jobs", "1"] + SMALL_TABLE, "-4", "seed must be >= 0, got -4", id="env-seed"),
    pytest.param(_SWM + ["fixed:inf"], None, "finite and positive, got inf", id="fixed-inf"),
    pytest.param(_SWM + ["lambda:inf"], None, "finite and positive, got inf", id="lambda-inf"),
    pytest.param(_SWM + ["undersmooth:inf"], None, "finite and positive", id="undersmooth-inf"),
    pytest.param(_SWM + ["undersmooth:1000"], None, "bandwidth sigma = 0.0", id="undersmooth-underflow"),
    pytest.param(["chernoff", "--jobs", "0"] + SMALL_TABLE, None, "jobs must be >= 1, got 0", id="chernoff-jobs-0"),
    pytest.param(["chernoff", "--paths", "10000", "--halfwidth", "1e308"], None,
                 "domain_halfwidth / grid_step must be at most", id="chernoff-halfwidth-overflow"),
    pytest.param(["chernoff", "--jobs", "-1"] + SMALL_TABLE, None, "jobs must be >= 1, got -1",
                 id="chernoff-jobs-negative"),
    pytest.param(_BOOT + ["--jobs", "-3"], None, "jobs must be >= 1, got -3", id="bootstrap-jobs-negative"),
    pytest.param(["estimate", "--policy", "ewm", _OVERFLOW_DATA], None, "error: IPW scores overflow: row 0 ",
                 id="ipw-score-overflow"),
    pytest.param(["estimate", "--policy", "ewm", _SUM_OVERFLOW_DATA], None,
                 "numeric failure: EWM objective is not finite", id="ipw-sum-overflow"),
    pytest.param(["estimate", "--policy", "ewm", _UNDECODABLE_DATA], None, "line 3 is not valid",
                 id="undecodable-byte"),
    pytest.param(["estimate", "--policy", "ewm", _LONG_FIELD_DATA], None,
                 "line 3: field larger than field limit", id="over-field-limit"),
    pytest.param(["estimate", "--policy", "ewm", _SUFFIX_OVERFLOW_DATA], None,
                 "numeric failure: EWM objective is not finite", id="ipw-suffix-overflow-ewm"),
    pytest.param(["estimate", "--policy", "swm", _SUFFIX_OVERFLOW_DATA], None,
                 "numeric failure: EWM objective is not finite", id="ipw-suffix-overflow-swm"),
    pytest.param(["estimate", "--policy", "swm", _SQUARE_OVERFLOW_DATA], None,
                 "numeric failure: nuisance estimate K is not finite", id="outcome-square-overflow"),
    # the default table is read, not simulated, and --jobs is still checked
    pytest.param(["chernoff", "--jobs", "0"], None, "jobs must be >= 1, got 0", id="shipped-table-jobs-0"),
    pytest.param(["estimate", "--policy", "swm", _DATA, "--space=-1e308,1e308"], None,
                 "parameter space width hi - lo overflows", id="space-width-overflow"),
    pytest.param(_SWM + ["fixed:0.1", "--space", "0,5e-324"], None,
                 "parameter space [0.0, 5e-324] is too narrow for a grid of 201 points", id="space-sub-cells-underflow"),
    # the sample's DataWarning about tied x is not printed beside the error
    pytest.param(["estimate", "--policy", "swm", _TIED_DATA], None, "numeric failure: arm 0: fewer than 10",
                 id="tied-x-numeric-failure"),
])
def test_bad_arguments_exit_with_one_error_line(sample_csv, tmp_path, capsys, monkeypatch, argv, env_seed,
                                                fragment):
    if env_seed is not None:
        monkeypatch.setenv("THRESHOLD_REGRET_SEED", env_seed)
    data = {_DATA: ["--data", sample_csv, "--propensity", "0.5"]}
    for key, (content, propensity) in _BAD_CSVS.items():
        if key in argv:
            path = tmp_path / "bad.csv"
            path.write_bytes(content)
            data[key] = ["--data", str(path), "--propensity", propensity]
    argv = [part for arg in argv for part in data.get(arg, [arg])]
    assert run_cli(argv) in (1, 2)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err and "Warning" not in err
    assert fragment in err


def test_tied_x_prints_one_warning_line(tmp_path, capsys, monkeypatch):
    path = tmp_path / "tied.csv"
    path.write_text("y,d,x\n1.0,1,0.5\n0.2,0,0.5\n0.7,1,1.5\n-0.3,0,-0.5\n0.9,1,2.0\n0.1,0,-1.0\n")
    argv = ["estimate", "--policy", "ewm", "--data", str(path), "--propensity", "0.5"]
    assert run_cli(argv) == 0
    warned = capsys.readouterr()
    assert warned.err == "warning: duplicate x values present; the index is assumed continuous\n"
    monkeypatch.setattr(warnings, "filters", [("ignore", None, DataWarning, None, 0)])
    assert run_cli(argv) == 0
    silent = capsys.readouterr()
    assert silent.err == "" and silent.out == warned.out and "t_hat: " in warned.out


@pytest.mark.parametrize("bandwidth", ["fixed:1e-300", "fixed:1e300"])
def test_extreme_fixed_bandwidths_exit_cleanly(sample_csv, capsys, bandwidth):
    code = run_cli(["estimate", "--policy", "swm", "--data", sample_csv, "--propensity", "0.5",
                    "--bandwidth", bandwidth])
    captured = capsys.readouterr()
    assert code in (0, 2) and "Traceback" not in captured.err
    if code == 0:
        assert captured.err == "" and "t_hat: " in captured.out
    else:
        assert captured.err.count("\n") == 1


def test_asymptotics_checks_constants_before_simulating(monkeypatch, capsys):
    def no_table(**kwargs):
        raise AssertionError("the table was simulated for unusable constants")

    monkeypatch.setattr(chernoff, "simulate_chernoff", no_table)
    argv = ["asymptotics", "--n", "500", "--K", "nan", "--H", "1", "--A", "1", "--jobs", "1"] + SMALL_TABLE
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith("error: K and H must be finite and positive")


_JOBS = {"--jobs": (os.cpu_count() or 1, False, None)}
_OUTPUT = {"-h": (argparse.SUPPRESS, False, None), "--help": (argparse.SUPPRESS, False, None),
           "--format": ("text", False, ("text", "csv", "json")), "--out": (None, False, None),
           "--seed": (None, False, None)}
_SAMPLE = {"--data": (None, True, None), "--policy": (None, True, ("ewm", "swm")),
           "--propensity": (None, False, None), "--eta": (0.01, False, None), "--space": (None, False, None),
           "--bandwidth": (None, False, None)}
_TABLE = {"--chernoff-paths": (200_000, False, None), "--chernoff-step": (5e-4, False, None),
          "--chernoff-halfwidth": (2.5, False, None)}


def test_flag_inventory():
    """Every subcommand's option strings, each with its default, whether it is required, and its choices."""
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    inventory = {
        name: {flag: (a.default, a.required, a.choices and tuple(a.choices)) for a in sub._actions
               for flag in a.option_strings}
        for name, sub in subparsers.choices.items()
    }
    assert inventory == {
        "estimate": {**_SAMPLE, **_OUTPUT},
        "infer": {**_SAMPLE, **_TABLE, **_JOBS, **_OUTPUT, "--level": (0.95, False, None),
                  "--bootstrap-reps": (999, False, None),
                  "--method": (None, True, ("plugin", "bootstrap", "bias-corrected", "undersmooth"))},
        "asymptotics": {**_TABLE, **_JOBS, **_OUTPUT, "--model": ("1", False, None), "--n": (None, True, None),
                        "--K": (None, False, None), "--H": (None, False, None), "--A": (None, False, None)},
        "chernoff": {**_TABLE, **_JOBS, **_OUTPUT, "--paths": (200_000, False, None),
                     "--step": (5e-4, False, None), "--halfwidth": (2.5, False, None)},
        "simulate": {**_TABLE, **_JOBS, **_OUTPUT, "--model": ("1", False, None),
                     "--n": ("500,1000,2000,3000", False, None), "--reps": (5000, False, None),
                     "--config": (None, False, None)},
    }
