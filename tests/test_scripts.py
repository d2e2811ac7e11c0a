"""The experiment scripts at tiny sizes, and the pin scripts' write rule."""

import json

import numpy as np

from threshold_regret.chernoff import shipped_chernoff_table

from helpers import load_script


def test_run_tables_smoke(capsys):
    assert load_script("run_tables").main(["--reps", "2", "--n", "200", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"# argmax table: E[Z^2] = {shipped_chernoff_table().second_moment:.6f} (")
    assert "# model1 ewm/swm-feasible ratio at n=200: " in out


def test_coverage_study_prints_the_hit_means_of_the_shared_study(capsys):
    script = load_script("coverage_study")
    assert script.main(["--reps", "3", "--n", "500", "--jobs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    run = script.coverage_study(shipped_chernoff_table(), reps=3, n=500)
    assert lines[1].startswith(f"ewm plug-in coverage:        {np.mean(run['hits_ewm']):.3f} (")
    assert lines[2] == f"swm bias-corrected coverage: {np.mean(run['hits_swm']):.3f}"


def test_pin_write_adds_a_missing_file_and_refuses_to_change_one(tmp_path, capsys):
    pins = load_script("_pins")
    path = tmp_path / "pin.json"
    records = {"cases": [{"t_hat": "0x1.0p-3"}, {"t_hat": "0x1.8p-3"}], "digests": {"a": "00", "b": "11"}}
    assert pins.write(path, records) == 0
    written = path.read_bytes()
    assert written == (json.dumps(records, indent=1) + "\n").encode()
    stamp = path.stat().st_mtime_ns

    assert pins.write(path, records) == 0
    assert path.read_bytes() == written and path.stat().st_mtime_ns == stamp

    capsys.readouterr()
    changed = {**records, "cases": [records["cases"][0], {"t_hat": "0x1.9p-3"}]}
    assert pins.write(path, changed) == 1
    assert path.read_bytes() == written and path.stat().st_mtime_ns == stamp
    assert "1 of 4 records differ" in capsys.readouterr().err


def test_criterion4_z_prints_a_row_per_cell_and_a_column_per_seed(capsys):
    script = load_script("criterion4_z")
    assert script.main(["--reps", "3", "--seeds", "42,1", "--jobs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["criterion-4 z at 3 replications", "| cell | 42 | 1 |", "|---|---|---|"]
    cells = [f"{label}@{n}" for label in ("ewm", "swm") for n in (500, 1000, 2000, 3000)]
    assert [line.split(" | ")[0] for line in lines[3:]] == [f"| {cell}" for cell in cells]
    z = script.z_scores(3, 1, 1)
    assert all(line.endswith(f" | {z[cell]:+.2f} |") for line, cell in zip(lines[3:], cells))
