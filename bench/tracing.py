"""Span tracing of the library's public functions, from outside the library.

:class:`Tracer` replaces each traced function at every ``threshold_regret.*``
module attribute bound to it with a wrapper that records a span ``[name,
start, end, parent, op]``.  ``Kernel.k`` is a dataclass field, not a module
attribute, so it is reached by patching ``gaussian_cdf_kernel`` at its import
sites to return a kernel whose ``k`` is wrapped.  Spans stay in memory; the
benchmark writes them out when it ends.  A span's self time is its duration
minus the durations of its child spans (calls are nested on one thread, so
children never overlap).

Counters are taken at the same boundaries, from arguments and results, so
they count the work each layer did; they are kept per op, like the spans.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# traced layers: metric prefix -> (module, attribute); the prefix drops the
# package name, and ``asymptotics.quantile`` is RegretDistribution.quantile
TRACED = {
    "data.load_sample_csv": ("threshold_regret.data", "load_sample_csv"),
    "data.ipw_scores": ("threshold_regret.data", "ipw_scores"),
    "montecarlo.draw_sample": ("threshold_regret.montecarlo", "draw_sample"),
    "montecarlo.run_experiment": ("threshold_regret.montecarlo", "run_experiment"),
    "ewm.fit_ewm": ("threshold_regret.ewm", "fit_ewm"),
    "nuisance.estimate_khA": ("threshold_regret.nuisance", "estimate_khA"),
    "swm.fit_swm": ("threshold_regret.swm", "fit_swm"),
    "chernoff.simulate_chernoff": ("threshold_regret.chernoff", "simulate_chernoff"),
    "asymptotics.ewm_regret_dist": ("threshold_regret.asymptotics", "ewm_regret_dist"),
    "asymptotics.swm_regret_dist": ("threshold_regret.asymptotics", "swm_regret_dist"),
    "asymptotics.quantile": ("threshold_regret.asymptotics", "RegretDistribution.quantile"),
    "inference.ewm_bootstrap": ("threshold_regret.inference", "ewm_bootstrap"),
    "inference.ewm_ci": ("threshold_regret.inference", "ewm_ci"),
    "inference.swm_ci": ("threshold_regret.inference", "swm_ci"),
    "cli.run_cli": ("threshold_regret.cli", "run_cli"),
}
KERNEL_K = "kernels.k"
LAYERS = (*TRACED, KERNEL_K)

# float64 passes over a (paths x 2m) block in the Chernoff simulator: the
# normal draws, their scaling, the two wing cumsums and the parabola shift
_CHERNOFF_PASSES = 4


class Tracer:
    """Records spans and counters while installed; restores everything on uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: defaultdict[object, Counter] = defaultdict(Counter)
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen_swm_quantile = False

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn, on_return=None):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = time.perf_counter()
                stack.pop()
                self._count(f"{name}.raised", 1)
                raise
            rec[2] = time.perf_counter()
            stack.pop()
            if on_return is not None:
                on_return(args, result, rec[2] - rec[1])
            return result

        traced.__wrapped__ = fn
        return traced

    def record(self, name, start, end):
        """Add a root span measured by the caller (e.g. an import)."""
        self.spans.append([name, start, end, -1, self.op])

    # -- counters at layer boundaries -------------------------------------

    def _count(self, key, amount):
        self.counters[self.op][key] += amount

    def _on_return_hooks(self):
        def k(args, result, _):
            self._count(f"{KERNEL_K}.elems", int(np.size(args[0])))

        def fit_ewm(args, result, _):
            self._count("ewm.fit_ewm.cuts", result.n + 1)

        def fit_swm(args, result, _):
            self._count("swm.fit_swm.bandwidth_fallbacks", "bandwidth_fallback" in result.flags)

        def load(args, result, dur):
            self._count("data.load_sample_csv.rows", result.n)

        def bootstrap(args, result, dur):
            self._count("inference.ewm_bootstrap.replicates", result.n_boot)

        def chernoff(args, result, dur):
            m = round(result.domain_halfwidth / result.grid_step)
            self._count("chernoff.simulate_chernoff.paths", result.n_paths)
            self._count(
                "chernoff.simulate_chernoff.bytes_computed",
                _CHERNOFF_PASSES * 8 * result.n_paths * 2 * m,
            )

        def quantile(args, result, dur):
            if args[0].kind == "swm" and not self._seen_swm_quantile:
                self._seen_swm_quantile = True
                self._count("asymptotics.quantile.cold_s", dur)
                self._count("asymptotics.quantile.cold_calls", 1)

        return {
            KERNEL_K: k,
            "ewm.fit_ewm": fit_ewm,
            "swm.fit_swm": fit_swm,
            "data.load_sample_csv": load,
            "inference.ewm_bootstrap": bootstrap,
            "chernoff.simulate_chernoff": chernoff,
            "asymptotics.quantile": quantile,
        }

    # -- patching ----------------------------------------------------------

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        """Wrap every traced function at each package attribute bound to it."""
        hooks = self._on_return_hooks()
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "threshold_regret"]
        for name, (module_name, attr) in TRACED.items():
            owner = sys.modules[module_name]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self._wrap(name, getattr(cls, meth), hooks.get(name)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

        kernels = sys.modules["threshold_regret.kernels"]
        make_kernel = kernels.gaussian_cdf_kernel
        wrap_k = self._wrap(KERNEL_K, make_kernel().k, hooks[KERNEL_K])

        def traced_kernel():
            return dataclasses.replace(make_kernel(), k=wrap_k)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is make_kernel:
                    self._set(module, key, traced_kernel)

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- output ------------------------------------------------------------

    def dump(self, path):
        """Write spans and counters (summed over ops) as JSON."""
        counters = sum(self.counters.values(), Counter())
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": counters}, fh)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - c for rec, c in zip(spans, child)]


def layer_metrics(spans, counters, n_ops, traced_wall, untraced_wall, import_s):
    """Per-layer metrics of one traced run, per op where a total would depend on run length.

    ``spans`` are the spans of the ``n_ops`` traced ops, ``traced_wall`` their
    summed op wall time and ``untraced_wall`` that of the same ops untraced.
    """
    per_op = 1.0 / n_ops
    calls: Counter = Counter()
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    for rec, s in zip(spans, self_times(spans)):
        calls[rec[0]] += 1
        self_s[rec[0]] += s
        total_s[rec[0]] += rec[2] - rec[1]
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = (calls[name] * per_op, "count")
        out[f"{name}.self_s"] = (self_s[name] * per_op, "s")
        out[f"{name}.share"] = (self_s[name] / traced_wall, "ratio")

    def rate(count_key, layer):
        return counters[count_key] / total_s[layer] if total_s[layer] > 0 else 0.0

    cold = counters["asymptotics.quantile.cold_calls"]
    out.update(
        {
            "kernels.k.elems": (counters["kernels.k.elems"] * per_op, "count"),
            "ewm.fit_ewm.cuts": (counters["ewm.fit_ewm.cuts"] * per_op, "count"),
            "swm.fit_swm.bandwidth_fallbacks": (
                counters["swm.fit_swm.bandwidth_fallbacks"] * per_op,
                "count",
            ),
            "nuisance.estimate_khA.failures": (
                counters["nuisance.estimate_khA.raised"] * per_op,
                "count",
            ),
            "data.load_sample_csv.rows_per_s": (
                rate("data.load_sample_csv.rows", "data.load_sample_csv"),
                "1/s",
            ),
            "inference.ewm_bootstrap.replicates_per_s": (
                rate("inference.ewm_bootstrap.replicates", "inference.ewm_bootstrap"),
                "1/s",
            ),
            "chernoff.simulate_chernoff.paths_per_s": (
                rate("chernoff.simulate_chernoff.paths", "chernoff.simulate_chernoff"),
                "1/s",
            ),
            "chernoff.simulate_chernoff.bytes_computed": (
                counters["chernoff.simulate_chernoff.bytes_computed"] * per_op,
                "bytes",
            ),
            "asymptotics.quantile.cold_ms": (
                1e3 * counters["asymptotics.quantile.cold_s"] / cold if cold else 0.0,
                "ms",
            ),
            "cli.import_s": (import_s, "s"),
            "tracing.overhead_ratio": (traced_wall / untraced_wall, "ratio"),
            "tracing.accounted_share": (math.fsum(self_s.values()) / traced_wall, "ratio"),
        }
    )
    return out
