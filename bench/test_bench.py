"""Tests of the benchmark itself; not part of the library's test suite.

    python -m pytest bench -q

The smoke tests run one checked op per workload through ``bench/run.py``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == (2 if trace == "1" else 1)
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_needs_ten_samples_beyond_and_p90():
    assert run.tail(range(50)) == (49, 100.0, 0)
    value, percentile, beyond = run.tail(range(200))
    assert (value, percentile, beyond) == (189, 95.0, 10)
    assert sum(x > value for x in range(200)) == 10


def test_complete_cycles_keeps_whole_round_robin_cycles():
    assert run.complete_cycles(10, 3) == 9
    assert run.complete_cycles(2, 3) == 2


def test_self_time_subtracts_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 9.0, 0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_wraps_every_binding_and_restores_them():
    import threshold_regret
    import threshold_regret.cli
    from threshold_regret import montecarlo, swm

    originals = (threshold_regret.fit_ewm, swm.fit_ewm, montecarlo.gaussian_cdf_kernel)
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        assert threshold_regret.fit_ewm is swm.fit_ewm is montecarlo.fit_ewm
        assert threshold_regret.fit_ewm is not originals[0]
        sample = montecarlo.draw_sample(montecarlo.MODEL1, 200, 5)
        swm.fit_swm(sample, montecarlo.gaussian_cdf_kernel(), swm.FixedBandwidth(0.3))
    finally:
        tracer.uninstall()
    assert (threshold_regret.fit_ewm, swm.fit_ewm, montecarlo.gaussian_cdf_kernel) == originals
    names = [rec[0] for rec in tracer.spans]
    assert names[0] == "montecarlo.draw_sample"
    assert "swm.fit_swm" in names and "kernels.k" in names
    calls = names.count("kernels.k")
    assert tracer.counters[0]["kernels.k.elems"] >= 200 * calls


def test_thin_arm_refusal_is_verified_and_not_a_failure(tmp_path):
    import dataclasses

    from workloads import McTables

    workload = McTables(tmp_path, 1)
    # op 9714 of seed 1 is a model-2 n = 500 replication whose EWM threshold
    # leaves arm 1 with about 9.5 effective observations
    value, problems = workload.check(9714, workload.run(9714))
    assert problems == []
    assert value[("model2", 500, "swm_feasible")] is None
    assert workload.refusals == 1

    # the same report on a replication where estimate_khA succeeds is a failure
    result = workload.run(9718)
    rows = tuple(
        dataclasses.replace(r, n_ok=0, n_failed=1) if r.estimator == "swm_feasible" else r
        for r in result.rows
    )
    _, problems = workload.check(9718, dataclasses.replace(result, rows=rows))
    assert len(problems) == 1 and "although estimate_khA succeeds" in problems[0]
    assert workload.refusals == 1


def test_end_to_end_costs_are_wall_times_over_the_loop_times():
    class Two:
        kinds = ("a", "b")
        in_process = True

    # (kind, seconds, failed, loop seconds): the host slows down op by op,
    # and every op costs 10 loop durations
    ops = [(i % 2, 0.01 * (i + 1), False, 0.001 * (i + 1)) for i in range(6)]
    setups = [(0.5, run.CAL_REF_S), (1.4, 2 * run.CAL_REF_S), (0.6, run.CAL_REF_S)]
    metrics = run.end_to_end(Two, setups, ops, [])
    assert metrics["op_p50_cal"]["value"] == pytest.approx(10.0)
    assert metrics["op_tail_cal"]["value"] == pytest.approx(10.0)
    assert metrics["ops_per_cal"]["value"] == pytest.approx(0.1)
    assert metrics["setup_s"]["value"] == pytest.approx(0.6)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])


def test_host_speed_times_the_loop_for_a_share_of_the_op():
    speed = run.HostSpeed()
    start = time.perf_counter()
    cal = speed.around(1.0)
    assert 0 < cal < 1.0
    assert time.perf_counter() - start >= run.CAL_SHARE
