"""Benchmark of the threshold-regret library: three workloads, checked results.

    python3 bench/run.py --workload mc_tables --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload asymptotic_inference --seed 1 --smoke

Each workload is a closed loop with one client (see ``workloads.py``).  The
run first sets the workload up in fresh processes, once untimed and then
``SETUP_REPEATS`` times timed, then runs ops until ``--seconds`` have passed and checks every
result.  ``--trace 0`` reports the end-to-end metrics, with op timings in
durations of a reference loop timed around each op (``HostSpeed``) and,
printed only, in milliseconds as measured; ``--trace 1`` runs
each op once untraced and once traced, and reports per-layer metrics from
the traced copies.  ``--smoke`` runs one op (one pair when traced) after
one timed set-up.  Human-readable lines come first; the last line of standard
output is one JSON object with keys correct, attempted, failed and metrics.
Exit code 0 when every check passed, 1 when one failed, 2 when the run
could not start.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads here and inherited by every child
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOAD_NAMES = ("mc_tables", "cli_analysis_100k", "asymptotic_inference")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
CAL_REPEATS = 3
CAL_SHARE = 0.02
CAL_REF_S = 0.003


def die(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import the package from this checkout's ``src``; returns the import time."""
    if not (SRC / "threshold_regret" / "__init__.py").is_file():
        die(f"no threshold_regret package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import threshold_regret.cli

    import_s = time.perf_counter() - start
    if not Path(threshold_regret.__file__).resolve().is_relative_to(SRC):
        die(f"imported threshold_regret from {threshold_regret.__file__}, not {SRC}")
    return import_s


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    fields = {
        "nproc": os.cpu_count(),
        "cpu": ",".join(map(str, sorted(os.sched_getaffinity(0)))),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')}-{blas.get('version')}",
        **{var: os.environ[var] for var in THREAD_VARS},
        "jobs": 1,
    }
    return " ".join(f"{k}={v}" for k, v in fields.items())


def set_up(name, seed, repeats, speed):
    """Make the workload's inputs in fresh processes, ``repeats`` times timed.

    One untimed set-up comes first, so the timed ones start with the files
    the set-up reads already in the page cache.  Returns (seconds, loop
    seconds around it) of each timed set-up; see :class:`HostSpeed`.
    """
    times = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "prepare", name, str(seed)],
            capture_output=True,
            text=True,
            timeout=150,
        )
        elapsed = time.perf_counter() - start
        times.append((elapsed, speed.around(elapsed)))
        if proc.returncode != 0:
            die(f"set-up of {name} failed:\n{proc.stderr}")
    return times[1:]


class HostSpeed:
    """A fixed numpy loop, independent of the library, timed around every op.

    The shared host this benchmark was defined on runs the same code up to
    1.5 times slower in stretches that last from seconds to minutes, so a
    run's median op time depends on when it ran.  The loop slows with the
    host: an op's wall time over the loop's time around it, its cost in
    loop durations (unit ``cal``), holds still.  The loop is a Gaussian CDF
    over a 60 x 2000 block and a dot product, like the kernel sums the
    library spends most of its time in; one pass takes 2 to 4 ms.
    """

    def __init__(self):
        import numpy as np
        from scipy.special import ndtr

        rng = np.random.default_rng(0)
        self._x = rng.normal(size=2000)
        self._g = rng.normal(size=2000)
        self._t = np.linspace(-2.0, 2.0, 60)[:, None]
        self._ndtr = ndtr
        self.measure()
        self.last = self.measure()

    def measure(self, seconds=0.0):
        """Median wall time of one loop, over at least CAL_REPEATS passes and ``seconds``."""
        times = []
        while len(times) < CAL_REPEATS or math.fsum(times) < seconds:
            start = time.perf_counter()
            float((self._ndtr((self._x - self._t) / 0.3) @ self._g).sum())
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def around(self, op_seconds):
        """Mean loop time before and after an op, sampled for CAL_SHARE of its time."""
        before, self.last = self.last, self.measure(CAL_SHARE * op_seconds)
        return 0.5 * (before + self.last)


def timed_op(workload, i, tracer=None):
    """Run op ``i`` (traced when ``tracer`` is given); returns (seconds, value, problems)."""
    traced_here = tracer is not None and workload.in_process
    if traced_here:
        tracer.op = i
        tracer.install()
    error = raw = None
    start = time.perf_counter()
    try:
        raw = workload.run(i, tracer)
    except Exception as exc:  # a failed op is counted, and the run goes on
        error = exc
        traceback.print_exc()
    finally:
        elapsed = time.perf_counter() - start
        if traced_here:
            tracer.uninstall()
    if error is not None:
        return elapsed, None, [f"{type(error).__name__}: {error}"]
    try:
        value, problems = workload.check(i, raw)
    except Exception as exc:  # a check that cannot run is a failed check
        value, problems = None, [f"check raised {type(exc).__name__}: {exc}"]
        traceback.print_exc()
    return elapsed, value, problems


def tail(values):
    """Highest percentile leaving at least TAIL_BEYOND samples beyond it, if p90 or above.

    With fewer than 10 * TAIL_BEYOND samples no such percentile reaches p90,
    and the maximum is reported instead.  Returns (value, percentile, beyond).
    """
    xs = sorted(values)
    n = len(xs)
    if n >= 10 * TAIL_BEYOND:
        k = n - TAIL_BEYOND - 1
        return xs[k], 100.0 * (k + 1) / n, TAIL_BEYOND
    return xs[-1], 100.0, 0


def complete_cycles(n_ops, n_kinds):
    """Number of leading ops that form whole round-robin cycles (all ops if none)."""
    return (n_ops // n_kinds) * n_kinds or n_ops


def report(lines, name, value, unit, detail):
    lines.append(f"  {name:<16} {value:>12.6g} {unit:<5} {detail}")
    return {name: {"value": value, "unit": unit}}


def timing_metrics(lines, kinds, costs, head, base, unit, scale):
    """Throughput, per-kind median and per-kind tail of op costs, in ``base`` units.

    ``costs`` holds (kind, cost) per op; throughput counts the ``head`` ops
    of whole cycles over their summed cost; p50 and tail are in ``unit``,
    ``scale`` times ``base``.
    """
    by_kind = [[c for k, c in costs if k == j] for j in range(len(kinds))]
    seen = [(kind, v, tail(v)) for kind, v in zip(kinds, by_kind) if v]
    n = len(costs)
    out = {}
    out |= report(
        lines, f"ops_per_{base}", head / math.fsum(c for _, c in costs[:head]), f"1/{base}",
        f"n={head} ops in {head // len(kinds)} whole cycles of {len(kinds)} kinds",
    )
    out |= report(
        lines, f"op_p50_{unit}", scale * statistics.fmean(statistics.median(v) for _, v, _ in seen),
        unit, f"n={n} ops; mean over kinds of each kind's median",
    )
    out |= report(
        lines, f"op_tail_{unit}", scale * statistics.fmean(t[0] for _, _, t in seen),
        unit, f"n={n} ops; mean over kinds of each kind's tail",
    )
    for kind, values, (tail_c, tail_p, beyond) in seen:
        lines.append(
            f"  kind {kind:<26} n={len(values):<4} p50 {scale * statistics.median(values):10.4g} {unit:<3}"
            f"  tail {scale * tail_c:10.4g} {unit:<3} "
            + (f"(p{tail_p:.2f}, {beyond} beyond)" if beyond else "(maximum)")
        )
    return out


def end_to_end(workload, setup_times, ops, lines):
    """The end-to-end metrics of an untraced run; ``ops`` holds (kind, seconds, failed, cal).

    Op timings are reported twice: in seconds as measured, printed only, and
    in loop durations of :class:`HostSpeed` (``cal``, the op's seconds over
    the loop's seconds around it), which are the metrics returned.  Set-up
    times likewise: ``setup_s`` is in seconds at a loop time of CAL_REF_S.
    """
    kinds = workload.kinds
    n = len(ops)
    failed = sum(op[2] for op in ops)
    head = complete_cycles(n, len(kinds))
    if workload.in_process:
        rss, rss_of = resource.getrusage(resource.RUSAGE_SELF), "own process"
    else:
        rss, rss_of = resource.getrusage(resource.RUSAGE_CHILDREN), "largest child process"
    metrics = {}
    metrics |= report(
        lines, "setup_s", statistics.median(CAL_REF_S * s / cal for s, cal in setup_times), "s",
        f"median of {len(setup_times)} set-ups, each a fresh process, at {1e3 * CAL_REF_S:g} ms per loop",
    )
    metrics |= timing_metrics(
        lines, kinds, [(k, s / cal) for k, s, _, cal in ops], head, "cal", "cal", 1.0
    )
    metrics |= report(lines, "peak_rss_mb", rss.ru_maxrss / 1024.0, "MB", rss_of)
    lines.append("  as measured, not listed in BENCHMARK.json:")
    report(lines, "setup_wall_s", statistics.median(s for s, _ in setup_times), "s",
           f"median wall time of {len(setup_times)} set-ups")
    timing_metrics(lines, kinds, [(k, s) for k, s, _, _ in ops], head, "s", "ms", 1e3)
    cal_ms = [1e3 * cal for *_, cal in ops]
    report(lines, "cal_ms", statistics.median(cal_ms), "ms",
           f"median loop time; range {min(cal_ms):.3f} to {max(cal_ms):.3f}")
    report(lines, "failed_op_ratio", failed / n, "ratio", f"{failed} of n={n} ops failed")
    return metrics


def untraced_run(workload, seconds, max_ops, speed):
    ops, problems = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < max_ops and (i == 0 or time.perf_counter() < deadline):
        elapsed, _, op_problems = timed_op(workload, i)
        ops.append((i % len(workload.kinds), elapsed, bool(op_problems), speed.around(elapsed)))
        problems += [f"op {i}: {p}" for p in op_problems]
        i += 1
    return ops, problems


def traced_run(workload, seconds, max_ops, import_s, lines):
    """Pairs of untraced and traced runs of each op; per-layer metrics from whole cycles."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    walls, problems, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < max_ops and (i == 0 or time.perf_counter() < deadline):
        wall_u, value_u, problems_u = timed_op(workload, i)
        wall_t, value_t, problems_t = timed_op(workload, i, tracer)
        if not (problems_u or problems_t) and value_u != value_t:
            problems_t.append("the traced op returned a different result")
        failed += bool(problems_u) + bool(problems_t)
        problems += [f"op {i}: {p}" for p in problems_u + problems_t]
        walls.append((wall_u, wall_t))
        i += 1
    head = complete_cycles(len(walls), len(workload.kinds))
    spans = [rec for rec in tracer.spans if rec[4] < head]
    if not workload.in_process:
        imports = [e - s for name, s, e, _, _ in spans if name == "cli.import"]
        import_s = statistics.median(imports) if imports else 0.0
    counters = sum((c for op, c in tracer.counters.items() if op < head), Counter())
    metrics = layer_metrics(
        spans,
        counters,
        head,
        math.fsum(t for _, t in walls[:head]),
        math.fsum(u for u, _ in walls[:head]),
        import_s,
    )
    tracer.dump(workload.workdir / "spans.json")
    lines.append(f"  traced ops: n={head} in whole cycles ({2 * len(walls)} ops run)")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<44} {value:>14.6g} {unit}")
    out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return out, 2 * len(walls), failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one checked op after one set-up")
    args = parser.parse_args(argv)

    # one CPU for the benchmark and every process it starts, so that each op
    # and the HostSpeed loop timed around it run on the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_s = import_library()
    from workloads import WORKLOADS

    workdir = BENCH / ".work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](workdir, args.seed)
    lines = [f"env {environment()}", f"workload {args.workload} seed={args.seed} trace={args.trace}"]
    repeats = 0 if args.trace else 1 if args.smoke else SETUP_REPEATS
    speed = HostSpeed()
    setup_times = set_up(args.workload, args.seed, repeats, speed)
    workload.load()
    max_ops = 1 if args.smoke else math.inf
    if args.trace:
        metrics, attempted, failed, problems = traced_run(
            workload, args.seconds, max_ops, import_s, lines
        )
    else:
        ops, problems = untraced_run(workload, args.seconds, max_ops, speed)
        attempted, failed = len(ops), sum(op[2] for op in ops)
        metrics = end_to_end(workload, setup_times, ops, lines)
    run_problems = workload.finish()
    lines += [f"  check {note}" for note in workload.notes]
    lines += [f"  FAILED {p}" for p in problems + run_problems]
    correct = not (problems or run_problems)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
