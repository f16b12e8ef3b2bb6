"""Bayesian optimization with a bandit-managed portfolio of acquisitions."""

# Set before the submodules load: the harness records it in every summary.
__version__ = "0.1.0"

from .acquisitions import (
    AcquisitionSpec,
    BetaSchedule,
    beta_t,
    ei,
    pi,
    ucb,
)
from .bo import RunConfig, TrialRecord, run
from .gp import (
    GpState,
    KernelParams,
    NumericsError,
    fit,
    fit_hyperparameters,
    log_marginal_likelihood,
    posterior_predict_batch,
    update,
)
from .harness import (
    ExperimentConfig,
    ResultTable,
    default_portfolio,
    emit,
    load_config,
    parse_strategy,
    run_experiment,
)
from .maximizer import BoxDomain, MaximizerConfig, maximize, unit_box
from .metrics import (
    AggregateSummary,
    BoundDiagnostics,
    GapSeries,
    RegretSeries,
    aggregate,
    gap,
    information_gain,
    regret_series,
    theorem1_decomposition,
    variance_sum_check,
)
from .objectives import (
    ObjectiveSpec,
    RepellerParams,
    branin,
    hartman3,
    hartman6,
    load_synthetic,
    repeller_objective,
    repellers,
    sample_synthetic_objective,
    save_synthetic,
)
from .portfolio import (
    PortfolioState,
    new_portfolio,
    observe,
    probabilities,
    select_arm,
    update_exp3,
    update_hedge,
    update_normalhedge,
)
