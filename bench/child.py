"""Child-process entries of the benchmark, started by ``bench/run.py``.

    python bench/child.py prepare WORKLOAD SEED   make a workload's inputs (timed as set-up)
    python bench/child.py cli SPANS ARGS...       run the CLI under tracing, write spans to SPANS

The ``cli`` entry times the package import as a ``cli.import`` span, wraps
the traced functions, calls ``run_cli`` and exits with its code.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def prepare(workload, seed):
    from workloads import WORKLOADS

    work = BENCH / ".work" / workload
    work.mkdir(parents=True, exist_ok=True)
    WORKLOADS[workload](work, int(seed)).prepare()
    return 0


def traced_cli(spans, *argv):
    start = time.perf_counter()
    import threshold_regret.cli

    end = time.perf_counter()
    from tracing import Tracer

    tracer = Tracer()
    tracer.record("cli.import", start, end)
    tracer.install()
    try:
        code = threshold_regret.cli.run_cli(list(argv))
    finally:
        tracer.uninstall()
    tracer.dump(spans)
    return code


if __name__ == "__main__":
    entries = {"prepare": prepare, "cli": traced_cli}
    sys.exit(entries[sys.argv[1]](*sys.argv[2:]))
