"""Command-line front end.

Five subcommands tie the library together: ``estimate`` (fit a threshold to
a CSV sample), ``infer`` (confidence intervals), ``asymptotics`` (asymptotic
regret table for a benchmark model or user constants), ``chernoff`` (build
and summarize the argmax simulation table), and ``simulate`` (replicated
Monte Carlo experiments with report tables).

Each subcommand's flags are declared once, in ``_COMMANDS``, and both the
parser and the configuration echoed into the output are built from that
declaration.  The echo holds what determines the result, not the worker
count, and no timestamps are emitted, so identical invocations produce
byte-identical output on every machine.  Exit codes: 0 success, 1
validation error, 2 numeric failure.  All randomness is routed through
``--seed`` (fallback: the THRESHOLD_REGRET_SEED environment variable, then
7).  A data warning, such as tied x values, prints as one ``warning:`` line
on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings

from .asymptotics import _check_constants, asymptotic_row
from .chernoff import (
    DEFAULT_CHERNOFF_SEED,
    SHIPPED_CONFIG,
    chernoff_quantile,
    chernoff_table,
)
from .data import ParamSpace, default_space, load_sample_csv
from .errors import DataWarning, NumericError, ThresholdRegretError, ValidationError
from .ewm import fit_ewm
from .inference import ewm_bootstrap, ewm_ci, swm_ci
from .kernels import gaussian_cdf_kernel
from .montecarlo import (
    ESTIMATORS,
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
    if env is None:
        return DEFAULT_CHERNOFF_SEED
    try:
        return int(env)
    except ValueError:
        raise ValidationError(f"THRESHOLD_REGRET_SEED must be an integer, got {env!r}") from None


def _parse_space(text):
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
        f"unknown --bandwidth {text!r}; expected auto, fixed:SIGMA, lambda:LAMBDA, or undersmooth[:SHRINK]")


def _bandwidth(args):
    """The SWM bandwidth rule as echoed: unset means ``auto``, or ``undersmooth`` for that method."""
    if args.policy == "swm" and args.bandwidth in (None, "auto"):
        return "undersmooth" if getattr(args, "method", None) == "undersmooth" else "auto"
    return args.bandwidth


def _parse_n_list(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"--n expects comma-separated integers, got {text!r}") from None


def _model_by_id(model_id: str) -> Dgp:
    if model_id not in ("1", "2"):
        raise ValidationError(f"--model must be 1 or 2, got {model_id!r}")
    return MODEL1 if model_id == "1" else MODEL2


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
    """The --data sample, and the --space interval or else the data-driven one."""
    sample = load_sample_csv(args.data, propensity=args.propensity, eta=args.eta)
    return sample, (default_space(sample) if args.space is None else _parse_space(args.space))


def _fit_policy(args, sample, space):
    if args.policy == "ewm":
        return fit_ewm(sample, space)
    rule = _parse_bandwidth(_bandwidth(args))
    return fit_swm(sample, gaussian_cdf_kernel(), rule, space)


def _chernoff_table_from_args(args):
    return chernoff_table(args.chernoff_paths, args.chernoff_halfwidth, args.chernoff_step, args.seed, args.jobs)


def _cmd_estimate(args, config):
    sample, space = _load_sample(args)
    est = _fit_policy(args, sample, space)
    config.update(space_lo=space.lo, space_hi=space.hi, bandwidth=_bandwidth(args))
    return {"config": config, "result": _record(est)}, _render_scalars


def _cmd_infer(args, config):
    sample, space = _load_sample(args)
    method = args.method
    policy = "ewm" if method in ("plugin", "bootstrap") else "swm"
    if args.policy != policy:
        raise ValidationError(f"method {method!r} applies to --policy {policy}")
    config.update(space_lo=space.lo, space_hi=space.hi)
    est = _fit_policy(args, sample, space)
    nuis = estimate_khA(sample, est.t_hat)
    if method == "plugin":
        config.update({key: getattr(args, kwargs["dest"]) for _, key, kwargs in _table_flags()})
        ci = ewm_ci(sample, est, nuis, _chernoff_table_from_args(args), args.level)
    elif method == "bootstrap":
        config["bootstrap_reps"] = args.bootstrap_reps
        boot = ewm_bootstrap(
            sample, est, nuis.h_hat, n_boot=args.bootstrap_reps, seed=args.seed, jobs=args.jobs
        )
        ci = boot.percentile_interval(args.level)
    else:
        config["bandwidth"] = _bandwidth(args)
        mode = "bias_corrected" if method == "bias-corrected" else "undersmoothed"
        ci = swm_ci(sample, est, nuis, gaussian_cdf_kernel(), args.level, mode)
    return {"config": config, "result": {**_record(ci), "t_hat": float(est.t_hat)}}, _render_scalars


def _cmd_asymptotics(args, config):
    kernel = gaussian_cdf_kernel()
    constants = (args.K, args.H, args.A)
    if constants == (None, None, None):
        dgp = _model_by_id(args.model)
        K, H, A = dgp.K, dgp.H, dgp.A
        config["model"] = dgp.name
    elif None in constants:
        raise ValidationError("--K, --H, and --A must be given together")
    else:
        K, H, A = constants
        config["model"] = "custom"
    n_list = _parse_n_list(args.n)
    for n in n_list:  # before the table, so bad constants fail without simulating
        _check_constants(K, H, A, n)
    table = _chernoff_table_from_args(args)
    rows = []
    for n in n_list:
        row = asymptotic_row(config["model"], K, H, A, n, table, kernel)
        if A == 0:
            del row["swm_mean"], row["swm_median"]
        else:
            row["lambda_star"] = kernel.optimal_lambda(K, A)
            row["ratio"] = row["ewm_mean"] / row["swm_mean"]
        rows.append(row)
    return {"config": config, "rows": rows}, _render_asymptotics


_ASYMPTOTIC_COLUMNS = (
    "model", "n", "ewm_mean", "swm_mean", "ewm_median", "swm_median",
    "K", "H", "A", "lambda_star", "ratio",
)


def _render_asymptotics(payload, fmt):
    rows = payload["rows"]
    cols = [c for c in _ASYMPTOTIC_COLUMNS if any(c in r for r in rows)]
    return _join_lines(_config_header(payload["config"], fmt) + render_table(rows, cols, fmt))


def _cmd_chernoff(args, config):
    table = _chernoff_table_from_args(args)
    result = {
        "mean": table.mean,
        "second_moment": table.second_moment,
        "quantiles": {str(q): chernoff_quantile(table, q) for q in _QUANTILE_GRID},
    }
    return {"config": config, "result": result}, _render_chernoff


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


def _as_tuple(value):
    return tuple(value) if isinstance(value, (list, tuple)) else (value,)


def _load_simulate_config(args):
    """The experiment of the flags, each overridden by its key in the ``--config`` JSON object."""
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
    spec = overrides.get("model", args.model)
    if isinstance(spec, dict):
        try:
            fields = (float(spec[k]) for k in ("gamma", "beta1", "beta2", "p"))
            dgp = Dgp(str(spec.get("name", "custom")), *fields)
        except KeyError as exc:
            raise ValidationError(f"--config model is missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"--config model has a non-numeric field: {exc}") from None
    else:
        dgp = _model_by_id(str(spec))
    try:
        return ExperimentConfig(
            models=(dgp,),
            n_list=_as_tuple(overrides.get("n") or _parse_n_list(args.n)),
            replications=overrides.get("reps", args.reps),
            seed=overrides.get("seed", args.seed),
            estimators=_as_tuple(overrides.get("estimators", ESTIMATORS)),
            jobs=overrides.get("jobs", args.jobs),
        )
    except ValidationError as exc:
        if args.config is None:
            raise
        raise ValidationError(f"--config {args.config}: {exc}") from None


def _cmd_simulate(args, config):
    experiment = _load_simulate_config(args)
    args.seed = experiment.seed  # the seed the header echoes also seeds the table
    result = run_experiment(experiment)
    report = table_report(result, _chernoff_table_from_args(args))
    # samples is None: the CLI never asks run_experiment to retain them
    cells = [{k: v for k, v in _record(r).items() if k != "samples"} for r in result.rows]
    dgp = experiment.models[0]
    config.update(model=dgp.name, gamma=dgp.gamma, beta1=dgp.beta1, beta2=dgp.beta2, p=dgp.p,
                  n=",".join(str(n) for n in experiment.n_list), reps=experiment.replications,
                  seed=experiment.seed, estimators=",".join(experiment.estimators))
    return {"config": config, "report": report, "cells": cells}, _render_simulate


def _render_simulate(payload, fmt):
    render = render_csv if fmt == "csv" else render_text
    return _join_lines(_config_header(payload["config"], fmt)) + render(payload["report"])


# A flag is (spellings, key it is echoed under or None, add_argument keywords).
_OUTPUT = (
    (("--format",), None, dict(choices=("text", "csv", "json"), default="text")),
    (("--out",), None, dict(help="output path (default: stdout)")),
    (("--seed",), "seed", dict(type=int)),
)
_JOBS = ((("--jobs",), None, dict(type=int, default=os.cpu_count() or 1)),)
_SAMPLE = (
    (("--data",), "data", dict(required=True)),
    (("--policy",), "policy", dict(choices=("ewm", "swm"), required=True)),
    (("--propensity",), "propensity", dict(type=float)),
    (("--eta",), "eta", dict(type=float, default=0.01)),
    (("--space",), None, dict(help="parameter space as 'lo,hi'")),
    (("--bandwidth",), None, dict(help="auto | fixed:S | lambda:L | undersmooth[:E]")),
)


def _table_flags(short=False, echo="chernoff_"):
    """--chernoff-paths/-step/-halfwidth at the shipped table's values, echoed as ``echo`` + name
    unless ``echo`` is None.  ``short`` adds --paths/--step/--halfwidth, for the chernoff subcommand
    only: elsewhere the prefix keeps the flags apart from the subcommand's own options."""
    paths, halfwidth, step, _ = SHIPPED_CONFIG
    return tuple(
        ((f"--{name}",) * short + (f"--chernoff-{name}",), None if echo is None else echo + name,
         dict(dest=f"chernoff_{name}", type=type(default), default=default))
        for name, default in (("paths", paths), ("step", step), ("halfwidth", halfwidth))
    )


def _model_flags(**n_options):
    return (
        (("--model",), "model", dict(default="1")),
        (("--n",), "n", dict(help="comma-separated sample sizes", **n_options)),
    )


_COMMANDS = {
    "estimate": (_cmd_estimate, "fit a threshold policy to CSV data", _SAMPLE + _OUTPUT),
    "infer": (_cmd_infer, "confidence interval for the optimal threshold", _SAMPLE + (
        (("--method",), "method",
         dict(choices=("plugin", "bootstrap", "bias-corrected", "undersmooth"), required=True)),
        (("--level",), "level", dict(type=float, default=0.95)),
        (("--bootstrap-reps",), None, dict(type=int, default=999)),
    ) + _table_flags(echo=None) + _JOBS + _OUTPUT),
    "asymptotics": (_cmd_asymptotics, "asymptotic regret table", _model_flags(required=True)
                    + tuple(((f"--{c}",), None, dict(type=float)) for c in "KHA")
                    + _table_flags() + _JOBS + _OUTPUT),
    "chernoff": (_cmd_chernoff, "simulate the argmax distribution table",
                 _table_flags(short=True, echo="") + _JOBS + _OUTPUT),
    "simulate": (_cmd_simulate, "replicated Monte Carlo experiment", (
        (("--reps",), "reps", dict(type=int, default=5000)),
        (("--config",), None, dict(help="JSON experiment config file")),
    ) + _model_flags(default="500,1000,2000,3000") + _table_flags() + _JOBS + _OUTPUT),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="threshold-regret", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        echo = {}
        for spellings, key, kwargs in flags:
            action = command.add_argument(*spellings, **kwargs)
            if key is not None:
                echo[key] = action.dest
        command.set_defaults(handler=handler, echo=echo)
    return parser


def _print_data_warnings(show):
    """A ``warnings.showwarning`` that prints a DataWarning as one ``warning:`` line and passes
    every other warning to ``show``."""

    def showwarning(message, category, *rest):
        if issubclass(category, DataWarning):
            print(f"warning: {message}", file=sys.stderr)
        else:
            show(message, category, *rest)

    return showwarning


def run_cli(argv) -> int:
    """Parse arguments, dispatch, and write output; returns the exit code."""
    with warnings.catch_warnings():
        warnings.showwarning = _print_data_warnings(warnings.showwarning)
        try:
            args = _build_parser().parse_args(_attach_space_value(argv))
            if args.seed is None:
                args.seed = _default_seed()
            config = {"command": args.subcommand, **{k: getattr(args, d) for k, d in args.echo.items()}}
            payload, render = args.handler(args, config)
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
        except (ValidationError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except NumericError as exc:
            print(f"numeric failure: {exc}", file=sys.stderr)
            return 2
        except ThresholdRegretError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
