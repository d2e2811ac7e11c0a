"""Learning welfare-maximizing treatment thresholds from experimental data.

Two estimators of the optimal threshold (the empirical welfare maximizer
and its kernel-smoothed counterpart), their asymptotic regret laws,
plug-in and bootstrap confidence intervals, and a seeded Monte Carlo
harness that reproduces the benchmark regret tables.
"""

from .chernoff import ChernoffTable, chernoff_quantile, shipped_chernoff_table, simulate_chernoff
from .data import (
    IpwScores,
    ParamSpace,
    Sample,
    default_space,
    empirical_welfare,
    ipw_scores,
    load_sample_csv,
    regret,
)
from .errors import (
    ArmDataError,
    DataWarning,
    NumericError,
    RankDeficiencyError,
    ThresholdRegretError,
    ValidationError,
)
from .ewm import ThresholdEstimate, fit_ewm
from .inference import (
    BootstrapDistribution,
    ConfidenceInterval,
    ewm_bootstrap,
    ewm_ci,
    swm_ci,
    z_quantile,
)
from .kernels import Kernel, gaussian_cdf_kernel
from .montecarlo import (
    MODEL1,
    MODEL2,
    Dgp,
    ExperimentConfig,
    ExperimentResult,
    draw_sample,
    run_experiment,
    table_report,
)
from .nuisance import NuisanceEstimates, estimate_khA, kde, local_poly, optimal_bandwidth
from .asymptotics import (
    RegretDistribution,
    ewm_regret_dist,
    optimal_lambda_mean,
    swm_regret_dist,
)
from .swm import (
    BandwidthRule,
    FixedBandwidth,
    LambdaRate,
    PlugInOptimal,
    Undersmoothed,
    fit_swm,
    smoothed_objective,
    smoothed_objective_derivative,
)

__version__ = "0.1.0"
