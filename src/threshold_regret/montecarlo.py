"""Benchmark data-generating processes and the replication engine.

Both benchmark DGPs share one family:

    X ~ N(0, 1),  D ~ Bernoulli(p),
    Y1 = X^3 + beta2 X^2 + beta1 X + eps1,   eps1 ~ N(0, gamma^2),
    Y0 ~ N(0, gamma^2),

for which the population welfare of a threshold policy, the optimal
threshold t* = 0, and the asymptotic constants K, H, A all have closed
forms.  ``gamma`` is the standard deviation of both noise terms.

The engine draws replicated samples, fits the unsmoothed policy and the
smoothed policy (with the infeasible optimal bandwidth from the true
constants and/or the feasible plug-in bandwidth), evaluates exact regret
from the closed-form welfare curve, and aggregates means, medians, and
Monte Carlo standard errors.  Every replication is seeded independently
from (master seed, model index, n, replication index), so results do not
depend on worker count or scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import ndtr
from ._workers import parallel_map, require_int
from .asymptotics import asymptotic_row
from .chernoff import ChernoffTable
from .data import Sample, default_space, regret
from .errors import ThresholdRegretError, ValidationError
from .ewm import fit_ewm
from .kernels import gaussian_cdf_kernel, norm_pdf
from .swm import LambdaRate, PlugInOptimal, fit_swm

__all__ = [
    "Dgp",
    "MODEL1",
    "MODEL2",
    "ESTIMATORS",
    "draw_sample",
    "ExperimentConfig",
    "EstimatorSummary",
    "ExperimentResult",
    "run_experiment",
    "table_report",
    "render_table",
    "render_text",
    "render_csv",
]

ESTIMATORS = ("ewm", "swm_infeasible", "swm_feasible")


@dataclass(frozen=True)
class Dgp:
    """A fully specified benchmark DGP with closed-form welfare and constants."""

    name: str
    gamma: float
    beta1: float
    beta2: float
    p: float

    def __post_init__(self):
        if not 0.0 < self.gamma < math.inf:
            raise ValidationError(f"gamma must be finite and positive, got {self.gamma}")
        for name, value in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if not 0.0 < self.p < 1.0:
            raise ValidationError(f"p must lie in (0, 1), got {self.p}")

    @property
    def t_star(self) -> float:
        return 0.0

    def welfare(self, t: float) -> float:
        """Population welfare W(t) of the policy treat iff X > t."""
        t = float(t)
        phi = norm_pdf(t)
        big_phi = float(ndtr(t))
        return float(
            (t * t + 2.0) * phi + self.beta2 * (1.0 - big_phi + t * phi) + self.beta1 * phi
        )

    @property
    def K(self) -> float:
        phi0 = float(norm_pdf(0.0))
        return phi0 * (self.gamma**2 / self.p + self.gamma**2 / (1.0 - self.p))

    @property
    def H(self) -> float:
        return float(norm_pdf(0.0)) * self.beta1

    @property
    def A(self) -> float:
        return -float(norm_pdf(0.0)) * self.beta2

    def conditional_mean_treated(self, x):
        return x**3 + self.beta2 * x**2 + self.beta1 * x


MODEL1 = Dgp(name="model1", gamma=1.0, beta1=1.0, beta2=-0.5, p=0.5)
MODEL2 = Dgp(name="model2", gamma=3.0, beta1=0.5, beta2=-1.0, p=0.5)


def draw_sample(dgp: Dgp, n: int, seed) -> Sample:
    """Draw one i.i.d. sample of size n; deterministic per seed."""
    require_int("n", n, 2)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    eps1 = dgp.gamma * rng.standard_normal(n)
    y0 = dgp.gamma * rng.standard_normal(n)
    d = (rng.random(n) < dgp.p).astype(float)
    y1 = dgp.conditional_mean_treated(x) + eps1
    y = d * y1 + (1.0 - d) * y0
    return Sample(y=y, d=d, x=x, propensity=dgp.p)


@dataclass(frozen=True)
class ExperimentConfig:
    """One replicated experiment: models x sample sizes x estimators."""

    models: tuple[Dgp, ...]
    n_list: tuple[int, ...]
    replications: int
    seed: int
    estimators: tuple[str, ...] = ESTIMATORS
    jobs: int = 1
    retain_samples: bool = False

    def __post_init__(self):
        require_int("replications", self.replications, 1)
        for n in self.n_list:
            require_int("n", n, 2)
        if not all(isinstance(e, str) for e in self.estimators):
            raise ValidationError(f"estimator names must be strings, got {self.estimators!r}")
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
            raise ValidationError(f"unknown estimators {sorted(unknown)}; choose from {ESTIMATORS}")
        require_int("seed", self.seed, 0)
        require_int("jobs", self.jobs, 1)


@dataclass(frozen=True)
class EstimatorSummary:
    """Aggregated regret of one estimator at one (model, n) cell."""

    model: str
    n: int
    estimator: str
    mean_regret: float
    median_regret: float
    se: float
    n_ok: int
    n_failed: int
    fallback_count: int
    samples: np.ndarray | None = None


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rows: tuple[EstimatorSummary, ...]

    def row(self, model: str, n: int, estimator: str) -> EstimatorSummary:
        for r in self.rows:
            if r.model == model and r.n == n and r.estimator == estimator:
                return r
        raise KeyError((model, n, estimator))

    def ratio(self, model: str, n: int) -> float:
        """EWM mean regret over feasible-SWM mean regret."""
        return (
            self.row(model, n, "ewm").mean_regret
            / self.row(model, n, "swm_feasible").mean_regret
        )


def _rep_seed(master: int, model_idx: int, n: int, rep: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master, spawn_key=(model_idx, n, rep))


def _run_one_rep(args):
    """One replication; returns (rep, {estimator: regret or nan}, fallbacks)."""
    dgp, model_idx, n, rep, master_seed, estimators = args
    kernel = gaussian_cdf_kernel()
    sample = draw_sample(dgp, n, _rep_seed(master_seed, model_idx, n, rep))
    space = default_space(sample)
    out: dict[str, float] = {}
    fallbacks = 0
    t_ewm = None
    try:
        est_ewm = fit_ewm(sample, space)
        t_ewm = est_ewm.t_hat
        if "ewm" in estimators:
            out["ewm"] = regret(dgp.welfare, dgp.t_star, est_ewm.t_hat)
    except ThresholdRegretError:
        if "ewm" in estimators:
            out["ewm"] = math.nan
    if "swm_infeasible" in estimators:
        try:
            est = fit_swm(sample, kernel, LambdaRate(kernel.optimal_lambda(dgp.K, dgp.A)), space)
            out["swm_infeasible"] = regret(dgp.welfare, dgp.t_star, est.t_hat)
        except ThresholdRegretError:
            out["swm_infeasible"] = math.nan
    if "swm_feasible" in estimators:
        try:
            est = fit_swm(sample, kernel, PlugInOptimal(t_eval=t_ewm), space)
            if "bandwidth_fallback" in est.flags:
                fallbacks += 1
            out["swm_feasible"] = regret(dgp.welfare, dgp.t_star, est.t_hat)
        except ThresholdRegretError:
            out["swm_feasible"] = math.nan
    return rep, out, fallbacks


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all replications and aggregate regret summaries per cell.

    Replications are embarrassingly parallel; per-replication seeding makes
    the result identical for any ``jobs`` value.
    """
    rows: list[EstimatorSummary] = []
    for model_idx, dgp in enumerate(config.models):
        for n in config.n_list:
            tasks = [
                (dgp, model_idx, n, rep, config.seed, config.estimators)
                for rep in range(config.replications)
            ]
            results = parallel_map(_run_one_rep, tasks, config.jobs)
            per_est = {est: np.full(config.replications, np.nan) for est in config.estimators}
            fallbacks = 0
            for rep, out, fb in results:
                fallbacks += fb
                for est, value in out.items():
                    per_est[est][rep] = value
            for est in config.estimators:
                vals = per_est[est]
                ok = vals[np.isfinite(vals)]
                n_ok = len(ok)
                rows.append(
                    EstimatorSummary(
                        model=dgp.name,
                        n=n,
                        estimator=est,
                        mean_regret=float(np.mean(ok)) if n_ok else math.nan,
                        median_regret=float(np.median(ok)) if n_ok else math.nan,
                        se=float(np.std(ok) / math.sqrt(n_ok)) if n_ok else math.nan,
                        n_ok=n_ok,
                        n_failed=config.replications - n_ok,
                        fallback_count=fallbacks if est == "swm_feasible" else 0,
                        samples=ok if config.retain_samples else None,
                    )
                )
    return ExperimentResult(config=config, rows=tuple(rows))


# ---------------------------------------------------------------------------
# reporting


def table_report(result: ExperimentResult, chernoff: ChernoffTable) -> dict[str, list[dict]]:
    """Build asymptotic, mean-regret, and median-regret report tables.

    Regret columns are in natural units here; the text and CSV renderers
    scale them by 10^4.
    """
    kernel = gaussian_cdf_kernel()
    asymptotic = [
        asymptotic_row(dgp.name, dgp.K, dgp.H, dgp.A, n, chernoff, kernel)
        for dgp in result.config.models
        for n in result.config.n_list
    ]
    report = {"asymptotic": asymptotic, "mean": [], "median": []}

    def cell(asym, est, stat):
        try:
            return getattr(result.row(asym["model"], asym["n"], est), f"{stat}_regret")
        except KeyError:
            return None

    for asym in asymptotic:
        for stat in ("mean", "median"):
            ewm, feasible = cell(asym, "ewm", stat), cell(asym, "swm_feasible", stat)
            report[stat].append(
                {
                    "model": asym["model"],
                    "n": asym["n"],
                    "ewm_empirical": ewm,
                    "ewm_asymptotic": asym[f"ewm_{stat}"],
                    "swm_empirical_infeasible": cell(asym, "swm_infeasible", stat),
                    "swm_empirical_feasible": feasible,
                    "swm_asymptotic": asym[f"swm_{stat}"],
                    "ratio": ewm / feasible if ewm is not None and feasible else None,
                }
            )
    return report


_REGRET_COLUMNS = {
    "ewm_mean",
    "ewm_median",
    "swm_mean",
    "swm_median",
    "ewm_empirical",
    "ewm_asymptotic",
    "swm_empirical_infeasible",
    "swm_empirical_feasible",
    "swm_asymptotic",
}

_TABLE_TITLES = {
    "asymptotic": "asymptotic regret (x 1e4) and constants",
    "mean": "mean regret (x 1e4), empirical vs asymptotic",
    "median": "median regret (x 1e4), empirical vs asymptotic",
}


def render_table(rows: list[dict], cols: list[str], fmt: str) -> list[str]:
    """Lines of ``rows`` under the header ``cols``, as aligned text or CSV.

    A cell is empty for None or a non-finite float; regret columns are
    scaled by 10^4; floats print with three decimals as text and in full
    (``repr``) as CSV; anything else prints as ``str``.
    """

    def cell(col, value):
        if value is None or (isinstance(value, float) and not math.isfinite(value)):
            return ""
        if col in _REGRET_COLUMNS:
            value = value * 1e4
        if isinstance(value, float):
            return repr(value) if fmt == "csv" else f"{value:.3f}"
        return str(value)

    grid = [list(cols)] + [[cell(c, r.get(c)) for c in cols] for r in rows]
    if fmt == "csv":
        return [",".join(line) for line in grid]
    widths = [max(len(line[i]) for line in grid) for i in range(len(cols))]
    return ["  ".join(c.rjust(w) for c, w in zip(line, widths)) for line in grid]


def render_text(report: dict[str, list[dict]]) -> str:
    """Aligned-text rendering of the three report tables."""
    blocks = []
    for key in ("asymptotic", "mean", "median"):
        rows = report.get(key, [])
        body = "\n".join(render_table(rows, list(rows[0]), "text")) if rows else "(no rows)"
        blocks.append(f"== {_TABLE_TITLES[key]} ==\n{body}")
    return "\n\n".join(blocks) + "\n"


def render_csv(report: dict[str, list[dict]]) -> str:
    """Long-format CSV rendering with a leading table column."""
    cols = ["table"] + list(dict.fromkeys(c for rows in report.values() for r in rows for c in r))
    rows = [
        {"table": key, **r} for key in ("asymptotic", "mean", "median") for r in report.get(key, [])
    ]
    return "\n".join(render_table(rows, cols, "csv")) + "\n"
