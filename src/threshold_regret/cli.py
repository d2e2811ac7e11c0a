"""Command-line front end.

Five subcommands tie the library together: ``estimate`` (fit a threshold to
a CSV sample), ``infer`` (confidence intervals), ``asymptotics`` (asymptotic
regret table for a benchmark model or user constants), ``chernoff`` (build
and summarize the argmax simulation table), and ``simulate`` (replicated
Monte Carlo experiments with report tables).

Every run echoes its fully resolved configuration into the output for
provenance; no timestamps are emitted, so identical invocations produce
byte-identical output.  Exit codes: 0 success, 1 validation error, 2
numeric failure.  All randomness is routed through ``--seed`` (fallback:
the THRESHOLD_REGRET_SEED environment variable, then 7).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from ._workers import require_int
from .asymptotics import _check_constants, asymptotic_row
from .chernoff import (
    DEFAULT_CHERNOFF_SEED,
    SHIPPED_CONFIG,
    chernoff_quantile,
    shipped_chernoff_table,
    simulate_chernoff,
)
from .data import ParamSpace, default_space, load_sample_csv
from .errors import NumericError, ThresholdRegretError, ValidationError
from .ewm import fit_ewm
from .inference import ewm_bootstrap, ewm_ci, swm_ci
from .kernels import gaussian_cdf_kernel
from .montecarlo import (
    MODEL1,
    MODEL2,
    Dgp,
    ExperimentConfig,
    run_experiment,
    render_csv,
    render_table,
    render_text,
    table_report,
)
from .nuisance import estimate_khA
from .swm import FixedBandwidth, LambdaRate, PlugInOptimal, Undersmoothed, fit_swm

__all__ = ["run_cli", "main"]

_QUANTILE_GRID = (0.005, 0.01, 0.025, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.975, 0.99, 0.995)


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting, so bad flags map to exit 1."""

    def error(self, message):
        raise ValidationError(message)


def _default_seed() -> int:
    env = os.environ.get("THRESHOLD_REGRET_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(
                f"THRESHOLD_REGRET_SEED must be an integer, got {env!r}"
            ) from None
    return DEFAULT_CHERNOFF_SEED


def _parse_space(text):
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"--space expects 'lo,hi', got {text!r}")
    try:
        return ParamSpace(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ValidationError(f"--space expects two numbers, got {text!r}") from None


def _attach_space_value(argv):
    """Rewrite '--space V' as '--space=V', so argparse reads a V such as
    '-0.3,0.4' as the value and not as an unknown flag."""
    out = []
    for arg in argv:
        if out and out[-1] == "--space" and not arg.startswith("--"):
            out[-1] = "--space=" + arg
        else:
            out.append(arg)
    return out


# each rule takes the number after its prefix as its first field
_BANDWIDTH_PREFIXES = {"fixed:": FixedBandwidth, "lambda:": LambdaRate, "undersmooth:": Undersmoothed}


def _parse_bandwidth(text):
    if text in (None, "auto"):
        return PlugInOptimal()
    if text == "undersmooth":
        return Undersmoothed()
    for prefix, rule in _BANDWIDTH_PREFIXES.items():
        if text.startswith(prefix):
            try:
                value = float(text[len(prefix):])
            except ValueError:
                raise ValidationError(f"--bandwidth {prefix} expects a number, got {text!r}") from None
            return rule(value)
    raise ValidationError(
        f"unknown --bandwidth {text!r}; expected auto, fixed:SIGMA, lambda:LAMBDA, "
        "or undersmooth[:SHRINK]"
    )


def _parse_n_list(text):
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"--n expects comma-separated integers, got {text!r}") from None
    if not values:
        raise ValidationError("--n needs at least one sample size")
    return values


def _model_by_id(model_id: str) -> Dgp:
    if model_id == "1":
        return MODEL1
    if model_id == "2":
        return MODEL2
    raise ValidationError(f"--model must be 1 or 2, got {model_id!r}")


def _record(obj):
    """The fields of a result dataclass as a dict, with tuples as lists."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in dataclasses.asdict(obj).items()}


def _join_lines(lines):
    return "\n".join(lines) + "\n"


def _config_header(config, fmt):
    sep = "=" if fmt == "csv" else " = "
    return [f"# {k}{sep}{v}" for k, v in sorted(config.items())]


def _render_scalars(payload, fmt):
    """Render a {config, result} payload of scalars as text or csv."""
    header = _config_header(payload["config"], fmt)
    result = payload["result"]
    if fmt == "csv":
        rows = [{"key": k, "value": _csv_value(v)} for k, v in result.items()]
        return _join_lines(header + render_table(rows, ["key", "value"], fmt))
    return _join_lines(header + [f"{k}: {v}" for k, v in result.items()])


def _csv_value(v):
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, (list, tuple)):
        return '"' + ", ".join(str(x) for x in v) + '"'
    return str(v)


def _load_sample(args):
    propensity = getattr(args, "propensity", None)
    return load_sample_csv(args.data, propensity=propensity, eta=args.eta)


def _fit_policy(args, sample, space):
    if args.policy == "ewm":
        return fit_ewm(sample, space)
    rule = _parse_bandwidth(getattr(args, "bandwidth", None))
    return fit_swm(sample, gaussian_cdf_kernel(), rule, space, nuisance_fn=estimate_khA)


def _cmd_estimate(args):
    sample = _load_sample(args)
    space = _parse_space(args.space) or default_space(sample)
    est = _fit_policy(args, sample, space)
    config = {
        "command": "estimate",
        "data": args.data,
        "policy": args.policy,
        "bandwidth": getattr(args, "bandwidth", None) or ("auto" if args.policy == "swm" else None),
        "space_lo": space.lo,
        "space_hi": space.hi,
        "eta": args.eta,
        "seed": args.seed,
    }
    return {"config": config, "result": _record(est)}, _render_scalars


def _chernoff_table_from_args(args):
    """The shipped table when the flags ask for the default one; otherwise a simulated table."""
    config = (args.chernoff_paths, args.chernoff_halfwidth, args.chernoff_step, args.seed)
    if config == SHIPPED_CONFIG:
        require_int("jobs", args.jobs, 1)
        return shipped_chernoff_table()
    return simulate_chernoff(
        n_paths=args.chernoff_paths,
        domain_halfwidth=args.chernoff_halfwidth,
        grid_step=args.chernoff_step,
        seed=args.seed,
        jobs=args.jobs,
    )


def _cmd_infer(args):
    sample = _load_sample(args)
    space = _parse_space(args.space) or default_space(sample)
    method = args.method
    if method in ("plugin", "bootstrap") and args.policy != "ewm":
        raise ValidationError(f"method {method!r} applies to --policy ewm")
    if method in ("bias-corrected", "undersmooth") and args.policy != "swm":
        raise ValidationError(f"method {method!r} applies to --policy swm")
    config = {
        "command": "infer",
        "data": args.data,
        "policy": args.policy,
        "method": method,
        "level": args.level,
        "eta": args.eta,
        "seed": args.seed,
        "space_lo": space.lo,
        "space_hi": space.hi,
    }
    if method == "plugin":
        est = fit_ewm(sample, space)
        nuis = estimate_khA(sample, est.t_hat)
        table = _chernoff_table_from_args(args)
        config.update(
            chernoff_paths=args.chernoff_paths,
            chernoff_step=args.chernoff_step,
            chernoff_halfwidth=args.chernoff_halfwidth,
        )
        ci = ewm_ci(sample, est, nuis, table, args.level)
    elif method == "bootstrap":
        est = fit_ewm(sample, space)
        nuis = estimate_khA(sample, est.t_hat)
        config["bootstrap_reps"] = args.bootstrap_reps
        boot = ewm_bootstrap(
            sample, est, nuis.h_hat, n_boot=args.bootstrap_reps, seed=args.seed, jobs=args.jobs
        )
        ci = boot.percentile_interval(args.level)
    else:
        bandwidth = args.bandwidth
        if method == "undersmooth" and (bandwidth in (None, "auto")):
            bandwidth = "undersmooth"
        config["bandwidth"] = bandwidth or "auto"
        rule = _parse_bandwidth(bandwidth)
        est = fit_swm(sample, gaussian_cdf_kernel(), rule, space, nuisance_fn=estimate_khA)
        nuis = estimate_khA(sample, est.t_hat)
        mode = "bias_corrected" if method == "bias-corrected" else "undersmoothed"
        ci = swm_ci(sample, est, nuis, gaussian_cdf_kernel(), args.level, mode)
    result = _record(ci)
    result["t_hat"] = float(est.t_hat)
    return {"config": config, "result": result}, _render_scalars


def _cmd_asymptotics(args):
    kernel = gaussian_cdf_kernel()
    if args.K is not None or args.H is not None or args.A is not None:
        if args.K is None or args.H is None or args.A is None:
            raise ValidationError("--K, --H, and --A must be given together")
        K, H, A = args.K, args.H, args.A
        model_name = "custom"
    else:
        dgp = _model_by_id(args.model)
        K, H, A = dgp.K, dgp.H, dgp.A
        model_name = dgp.name
    n_list = _parse_n_list(args.n)
    for n in n_list:  # before the table, so bad constants fail without simulating
        _check_constants(K, H, A, n)
    table = _chernoff_table_from_args(args)
    rows = []
    for n in n_list:
        row = asymptotic_row(model_name, K, H, A, n, table, kernel)
        if A == 0:
            del row["swm_mean"], row["swm_median"]
        else:
            row["lambda_star"] = kernel.optimal_lambda(K, A)
            row["ratio"] = row["ewm_mean"] / row["swm_mean"]
        rows.append(row)
    config = {
        "command": "asymptotics",
        "model": model_name,
        "n": args.n,
        "seed": args.seed,
        "chernoff_paths": args.chernoff_paths,
        "chernoff_step": args.chernoff_step,
        "chernoff_halfwidth": args.chernoff_halfwidth,
    }
    return {"config": config, "rows": rows}, _render_asymptotics


_ASYMPTOTIC_COLUMNS = (
    "model", "n", "ewm_mean", "swm_mean", "ewm_median", "swm_median",
    "K", "H", "A", "lambda_star", "ratio",
)


def _render_asymptotics(payload, fmt):
    rows = payload["rows"]
    cols = [c for c in _ASYMPTOTIC_COLUMNS if any(c in r for r in rows)]
    return _join_lines(_config_header(payload["config"], fmt) + render_table(rows, cols, fmt))


def _cmd_chernoff(args):
    table = _chernoff_table_from_args(args)
    config = {
        "command": "chernoff",
        "paths": args.chernoff_paths,
        "step": args.chernoff_step,
        "halfwidth": args.chernoff_halfwidth,
        "seed": args.seed,
        "jobs": args.jobs,
    }
    payload = {
        "config": config,
        "result": {
            "mean": table.mean,
            "second_moment": table.second_moment,
            "quantiles": {str(q): chernoff_quantile(table, q) for q in _QUANTILE_GRID},
        },
    }
    return payload, _render_chernoff


def _render_chernoff(payload, fmt):
    header = _config_header(payload["config"], fmt)
    result = payload["result"]
    stats = {"mean": result["mean"], "second_moment": result["second_moment"]}
    if fmt == "csv":
        stats.update((f"q{q}", v) for q, v in result["quantiles"].items())
        rows = [{"statistic": k, "value": v} for k, v in stats.items()]
        return _join_lines(header + render_table(rows, ["statistic", "value"], fmt))
    lines = [f"{k}: {v:.6f}" for k, v in stats.items()] + ["quantiles:"]
    lines += [f"  {q}: {v:.6f}" for q, v in result["quantiles"].items()]
    return _join_lines(header + lines)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _config_int(overrides, key, default):
    value = overrides.get(key, default)
    if not _is_int(value):
        raise ValidationError(f"--config {key!r} must be an integer, got {value!r}")
    return value


def _load_simulate_config(args):
    overrides = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                overrides = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read --config {args.config}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ValidationError(f"--config {args.config} is not valid JSON: {exc}") from None
        if not isinstance(overrides, dict):
            raise ValidationError(f"--config {args.config} must hold a JSON object")
    model_id = str(overrides.get("model", args.model))
    if isinstance(overrides.get("model"), dict):
        spec = overrides["model"]
        try:
            dgp = Dgp(
                name=str(spec.get("name", "custom")),
                gamma=float(spec["gamma"]),
                beta1=float(spec["beta1"]),
                beta2=float(spec["beta2"]),
                p=float(spec["p"]),
            )
        except KeyError as exc:
            raise ValidationError(f"--config model is missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"--config model has a non-numeric field: {exc}") from None
    else:
        dgp = _model_by_id(model_id)
    n_list = overrides.get("n") or _parse_n_list(args.n)
    if _is_int(n_list):
        n_list = (n_list,)
    if not (isinstance(n_list, (list, tuple)) and all(_is_int(n) for n in n_list)):
        raise ValidationError(f"--config 'n' must be an integer or a list of integers, got {n_list!r}")
    reps = _config_int(overrides, "reps", args.reps)
    seed = _config_int(overrides, "seed", args.seed)
    estimators = overrides.get("estimators", ("ewm", "swm_infeasible", "swm_feasible"))
    if isinstance(estimators, str):
        estimators = (estimators,)
    if not (isinstance(estimators, (list, tuple)) and all(isinstance(e, str) for e in estimators)):
        raise ValidationError(
            f"--config 'estimators' must be a name or a list of names, got {estimators!r}"
        )
    jobs = _config_int(overrides, "jobs", args.jobs)
    return ExperimentConfig(
        models=(dgp,),
        n_list=tuple(n_list),
        replications=reps,
        seed=seed,
        estimators=tuple(estimators),
        jobs=jobs,
    )


def _cmd_simulate(args):
    config = _load_simulate_config(args)
    result = run_experiment(config)
    table = _chernoff_table_from_args(args)
    report = table_report(result, table)
    # samples is None: the CLI never asks run_experiment to retain them
    cells = [{k: v for k, v in _record(r).items() if k != "samples"} for r in result.rows]
    resolved = {
        "command": "simulate",
        "model": config.models[0].name,
        "gamma": config.models[0].gamma,
        "beta1": config.models[0].beta1,
        "beta2": config.models[0].beta2,
        "p": config.models[0].p,
        "n": ",".join(str(n) for n in config.n_list),
        "reps": config.replications,
        "seed": config.seed,
        "estimators": ",".join(config.estimators),
        "jobs": config.jobs,
        "chernoff_paths": args.chernoff_paths,
        "chernoff_step": args.chernoff_step,
        "chernoff_halfwidth": args.chernoff_halfwidth,
    }
    return {"config": resolved, "report": report, "cells": cells}, _render_simulate


def _render_simulate(payload, fmt):
    render = render_csv if fmt == "csv" else render_text
    return _join_lines(_config_header(payload["config"], fmt)) + render(payload["report"])


def _add_common(parser, with_chernoff=False, with_jobs=False, chernoff_primary=False):
    parser.add_argument("--format", choices=("text", "csv", "json"), default="text")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--seed", type=int, default=None)
    if with_chernoff:
        # the chernoff subcommand owns the short names; elsewhere the flags
        # are prefixed to keep them apart from the subcommand's own options
        paths_flags = ("--paths", "--chernoff-paths") if chernoff_primary else ("--chernoff-paths",)
        step_flags = ("--step", "--chernoff-step") if chernoff_primary else ("--chernoff-step",)
        half_flags = ("--halfwidth", "--chernoff-halfwidth") if chernoff_primary else ("--chernoff-halfwidth",)
        parser.add_argument(*paths_flags, dest="chernoff_paths", type=int, default=200_000)
        parser.add_argument(*step_flags, dest="chernoff_step", type=float, default=5e-4)
        parser.add_argument(*half_flags, dest="chernoff_halfwidth", type=float, default=2.5)
    if with_jobs:
        parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="threshold-regret", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_est = sub.add_parser("estimate", help="fit a threshold policy to CSV data")
    p_est.add_argument("--data", required=True)
    p_est.add_argument("--policy", choices=("ewm", "swm"), required=True)
    p_est.add_argument("--propensity", type=float, default=None)
    p_est.add_argument("--eta", type=float, default=0.01)
    p_est.add_argument("--space", default=None, help="parameter space as 'lo,hi'")
    p_est.add_argument("--bandwidth", default=None, help="auto | fixed:S | lambda:L | undersmooth[:E]")
    _add_common(p_est)

    p_inf = sub.add_parser("infer", help="confidence interval for the optimal threshold")
    p_inf.add_argument("--data", required=True)
    p_inf.add_argument("--policy", choices=("ewm", "swm"), required=True)
    p_inf.add_argument(
        "--method", choices=("plugin", "bootstrap", "bias-corrected", "undersmooth"), required=True
    )
    p_inf.add_argument("--level", type=float, default=0.95)
    p_inf.add_argument("--propensity", type=float, default=None)
    p_inf.add_argument("--eta", type=float, default=0.01)
    p_inf.add_argument("--space", default=None)
    p_inf.add_argument("--bandwidth", default=None)
    p_inf.add_argument("--bootstrap-reps", type=int, default=999)
    _add_common(p_inf, with_chernoff=True, with_jobs=True)

    p_asy = sub.add_parser("asymptotics", help="asymptotic regret table")
    p_asy.add_argument("--model", default="1")
    p_asy.add_argument("--n", required=True, help="comma-separated sample sizes")
    p_asy.add_argument("--K", type=float, default=None)
    p_asy.add_argument("--H", type=float, default=None)
    p_asy.add_argument("--A", type=float, default=None)
    _add_common(p_asy, with_chernoff=True, with_jobs=True)

    p_che = sub.add_parser("chernoff", help="simulate the argmax distribution table")
    _add_common(p_che, with_chernoff=True, with_jobs=True, chernoff_primary=True)

    p_sim = sub.add_parser("simulate", help="replicated Monte Carlo experiment")
    p_sim.add_argument("--model", default="1")
    p_sim.add_argument("--n", default="500,1000,2000,3000")
    p_sim.add_argument("--reps", type=int, default=5000)
    p_sim.add_argument("--config", default=None, help="JSON experiment config file")
    _add_common(p_sim, with_chernoff=True, with_jobs=True)
    return parser


_HANDLERS = {
    "estimate": _cmd_estimate,
    "infer": _cmd_infer,
    "asymptotics": _cmd_asymptotics,
    "chernoff": _cmd_chernoff,
    "simulate": _cmd_simulate,
}


def run_cli(argv) -> int:
    """Parse arguments, dispatch, and write output; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_space_value(argv))
        if args.seed is None:
            args.seed = _default_seed()
        payload, render = _HANDLERS[args.subcommand](args)
        if args.format == "json":
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        else:
            text = render(payload, args.format)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except ThresholdRegretError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
