"""Performance measures and confidence-bound diagnostics.

The gap normalizes the incumbent's improvement over the best initial sample
by the (known) global optimum and lives in [0, 1]; the regret family
measures the selection sequence itself.  Both are computed from noiseless
objective values carried by the trial record, which the optimizer never
sees.  The remaining functions check the computable pieces of the
confidence-bound analysis: the information gain of the sampled points, the
variance-sum inequality it implies, and the two-term regret decomposition
for runs that carry a UCB arm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .acquisitions import BetaSchedule, beta_t

if TYPE_CHECKING:
    from .bo import TrialRecord


@dataclass(frozen=True)
class GapSeries:
    """Normalized incumbent improvement per iteration."""

    values: np.ndarray
    f_x1: float
    f_star: float
    degenerate: bool = False


@dataclass(frozen=True)
class RegretSeries:
    """Instantaneous regret of the sampled points and its aggregates."""

    instantaneous: np.ndarray
    cumulative: float
    average: float
    min_instantaneous: float
    incumbent_bound_holds: bool


@dataclass(frozen=True)
class VarianceSumCheck:
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class BoundDiagnostics:
    """Computable components of the portfolio regret decomposition.

    ``exploration_term`` is sqrt(T C1 beta_T I_T) with the empirical
    information gain standing in for the kernel-specific gain bound;
    ``ucb_term`` sums sqrt(beta_t) times the pre-update deviation at the UCB
    arm's nominee.  Reported for inspection only: the hedging remainder has
    unreported constants, so no inequality is asserted.
    """

    beta_series: np.ndarray
    noise_variance: float
    c1: float
    information_gain: float
    exploration_term: float
    ucb_term: float
    observed_cumulative_regret: float | None = None


def noise_ratio_constant(noise_variance: float) -> float:
    """C1 = 2 / log(1 + 1/noise_variance); positive for positive noise."""
    if noise_variance <= 0.0:
        raise ValueError("noise variance must be strictly positive")
    return 2.0 / math.log1p(1.0 / noise_variance)


def gap(record: TrialRecord, f_star: float) -> GapSeries:
    """Gap series from the record's noiseless values.

    The baseline f(x_1) is the best initial-design sample.  A known optimum
    at or below the baseline makes the trial degenerate; the series is then
    reported as NaN.
    """
    f_x1 = float(np.max(record.f_true_init))
    if f_star <= f_x1:
        return GapSeries(
            values=np.full(record.f_true.size, np.nan),
            f_x1=f_x1,
            f_star=f_star,
            degenerate=True,
        )
    incumbent = np.maximum.accumulate(np.concatenate([[f_x1], record.f_true]))[1:]
    values = np.clip((incumbent - f_x1) / (f_star - f_x1), 0.0, 1.0)
    return GapSeries(values=values, f_x1=f_x1, f_star=f_star)


def regret_series(record: TrialRecord, f_star: float) -> RegretSeries:
    instantaneous = f_star - record.f_true
    cumulative = float(np.sum(instantaneous))
    average = cumulative / instantaneous.size
    best = float(np.min(instantaneous))
    return RegretSeries(
        instantaneous=instantaneous,
        cumulative=cumulative,
        average=average,
        min_instantaneous=best,
        incumbent_bound_holds=best <= average + 1e-12,
    )


def information_gain(record: TrialRecord, gp_noise: float) -> float:
    """I(y; f) = 0.5 sum log(1 + var_{t-1}(x_t) / noise) over sampled points."""
    return float(_information_gain_series(record.var_prev, gp_noise)[-1])


def _information_gain_series(var_prev: np.ndarray, gp_noise: float) -> np.ndarray:
    if gp_noise <= 0.0:
        raise ValueError("information gain is undefined for zero noise")
    terms = 0.5 * np.log1p(np.asarray(var_prev, dtype=float) / gp_noise)
    return np.concatenate([[0.0], np.cumsum(terms)])


def variance_sum_check(
    record: TrialRecord, schedule: BetaSchedule, gp_noise: float
) -> VarianceSumCheck:
    """Deterministic inequality sum(beta_t var_{t-1}(x_t)) <= C1 beta_T I_T.

    Requires the unit prior variance the GP default enforces; holds on every
    run, up to floating-point slack.
    """
    T = record.var_prev.size
    if T == 0:
        return VarianceSumCheck(0.0, 0.0, True)
    betas = np.array([beta_t(schedule, t) for t in range(1, T + 1)])
    lhs = float(np.sum(betas * record.var_prev))
    info = float(_information_gain_series(record.var_prev, gp_noise)[-1])
    rhs = noise_ratio_constant(gp_noise) * betas[-1] * info
    return VarianceSumCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + 1e-9)


def theorem1_decomposition(
    record: TrialRecord,
    schedule: BetaSchedule,
    gp_noise: float,
    regret: RegretSeries | None = None,
) -> BoundDiagnostics:
    """Two computable bound components alongside the observed regret."""
    if record.ucb_arm < 0:
        raise ValueError("record has no UCB arm; its nominees were not logged")
    T = record.var_prev.size
    betas = np.array([beta_t(schedule, t) for t in range(1, T + 1)])
    c1 = noise_ratio_constant(gp_noise)
    info = float(_information_gain_series(record.var_prev, gp_noise)[-1])
    exploration = math.sqrt(T * c1 * betas[-1] * info)
    ucb_term = float(np.sum(np.sqrt(betas) * np.sqrt(record.var_prev_ucb)))
    return BoundDiagnostics(
        beta_series=betas,
        noise_variance=gp_noise,
        c1=c1,
        information_gain=info,
        exploration_term=exploration,
        ucb_term=ucb_term,
        observed_cumulative_regret=None if regret is None else regret.cumulative,
    )


@dataclass(frozen=True)
class AggregateSummary:
    """Cross-trial means and variances of the per-iteration series."""

    gap_mean: np.ndarray
    gap_variance: np.ndarray
    mean_average_regret: np.ndarray
    trials: int


def aggregate(records: Sequence[TrialRecord], f_star: float) -> AggregateSummary:
    """Per-iteration gap mean/variance and mean average regret across trials."""
    if len(records) < 2:
        raise ValueError("aggregation needs at least two trials")
    gaps = np.vstack([gap(r, f_star).values for r in records])
    steps = np.arange(1, gaps.shape[1] + 1)
    averages = np.vstack(
        [np.cumsum(regret_series(r, f_star).instantaneous) / steps for r in records]
    )
    return AggregateSummary(
        gap_mean=gaps.mean(axis=0),
        gap_variance=gaps.var(axis=0, ddof=1),
        mean_average_regret=averages.mean(axis=0),
        trials=len(records),
    )

