"""Optimization driver: Bayesian optimization with a bandit portfolio of arms.

One trial is a single logical thread of state evolution.  Every iteration
each arm nominates the maximizer of its acquisition (all arms in one
lockstep maximizer call), the strategy picks one nominee, the objective is
sampled there, the GP absorbs the observation and every arm is rewarded
with the posterior mean at its own nominee.  With one arm the bandit has
nothing to choose and this is plain Bayesian optimization.

Randomness is split into independent streams so that trials are
reproducible and pairable: the initial design and observation noise depend
only on ``pair_seed``, while arm selection and the inner maximizer restarts
depend on ``seed``.  Inputs are normalized to the unit box internally;
records store original coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .acquisitions import (
    AcquisitionSpec,
    BetaSchedule,
    acquisition_rows,
    acquisition_values,
)
from .gp import (
    KernelParams,
    NumericsError,
    VarianceCarry,
    fit,
    posterior_mean,
    posterior_predict_batch,
    update,
)
from .maximizer import MaximizerConfig, latin_hypercube, maximize, unit_box
from .objectives import ObjectiveSpec
from .portfolio import STRATEGIES, new_portfolio, observe, probabilities, select_arm

_STREAM_INIT = 1
_STREAM_NOISE = 2
_STREAM_SELECT = 3
_STREAM_MAXIMIZER = 4


@dataclass(frozen=True)
class RunConfig:
    """Everything one trial needs; immutable and cheap to copy with changes.

    ``pair_seed`` defaults to ``seed``; giving several strategies the same
    ``pair_seed`` makes them start from identical initial designs and (for
    deterministic objectives) see identical noise draws.
    ``gp_noise_variance`` is the surrogate's modeled noise in standardized
    output units and defaults to the observation noise rescaled by
    ``output_scale``.  A single acquisition is a one-arm portfolio under any
    strategy.
    """

    objective: ObjectiveSpec
    iterations: int
    acquisitions: tuple[AcquisitionSpec, ...]
    strategy: str = "hedge"
    kernel: KernelParams | None = None
    noise_variance: float = 0.0
    init_samples: int = 2
    maximizer: MaximizerConfig = MaximizerConfig()
    seed: int = 0
    pair_seed: int | None = None
    output_mean: float = 0.0
    output_scale: float = 1.0
    gp_noise_variance: float | None = None

    def __post_init__(self):
        if self.iterations < 1 or self.init_samples < 1:
            raise ValueError("iterations and init_samples must be positive")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if len(self.acquisitions) < 1:
            raise ValueError("at least one acquisition is required")
        if self.seed < 0 or (self.pair_seed is not None and self.pair_seed < 0):
            raise ValueError("seeds must be non-negative")
        if self.noise_variance < 0.0 or self.output_scale <= 0.0:
            raise ValueError("noise_variance must be >= 0 and output_scale > 0")
        labels = [a.label for a in self.acquisitions]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate arm labels: {labels}")
        object.__setattr__(self, "acquisitions", tuple(self.acquisitions))


@dataclass(frozen=True)
class TrialRecord:
    """Complete per-iteration log of one trial, in original coordinates.

    ``mu_prev``/``var_prev`` are the pre-update posterior mean and variance
    at the sampled point and ``var_prev_ucb`` the pre-update variance at the
    first UCB arm's nominee (NaN without one), all in standardized output
    units; the diagnostics in :mod:`gphedge.metrics` consume them.
    ``f_true*`` hold noiseless objective values for the metric layer; the
    optimizer itself never reads them.  ``gap`` and ``regret`` are filled
    when the objective's optimum is known.
    """

    objective_name: str
    strategy: str
    arm_labels: tuple[str, ...]
    ucb_arm: int
    seed: int
    pair_seed: int
    iterations: int
    init_samples: int
    domain_lower: np.ndarray
    domain_upper: np.ndarray
    noise_variance: float
    gp_noise_variance: float
    output_mean: float
    output_scale: float
    beta_delta: float
    beta_cardinality: int
    init_x: np.ndarray
    init_y: np.ndarray
    f_true_init: np.ndarray
    nominees: np.ndarray
    probs: np.ndarray
    chosen: np.ndarray
    x: np.ndarray
    y: np.ndarray
    rewards: np.ndarray
    gains: np.ndarray
    incumbent: np.ndarray
    mu_prev: np.ndarray
    var_prev: np.ndarray
    var_prev_ucb: np.ndarray
    f_true: np.ndarray
    gap: np.ndarray | None = None
    regret: np.ndarray | None = None


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _stream(*parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(parts)))


def _observe(
    objective: ObjectiveSpec,
    x_raw: np.ndarray,
    noise_std: float,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Noisy observation and noiseless truth at a point, one per call."""
    if objective.intrinsic_noise:
        return float(objective.draw(x_raw, rng)), float(objective.evaluate(x_raw))
    truth = float(objective.evaluate(x_raw))
    return truth + noise_std * rng.standard_normal(), truth


def run(config: RunConfig) -> TrialRecord:
    """Execute one trial under the configured strategy."""
    objective = config.objective
    domain = objective.domain
    d = objective.dimension
    arms = config.acquisitions
    n_arms = len(arms)
    T = config.iterations
    kernel = config.kernel if config.kernel is not None else KernelParams(np.ones(d))
    if kernel.dimension != d:
        raise ValueError("kernel dimensionality does not match the objective")
    scale = config.output_scale
    shift = config.output_mean
    gp_noise = (
        config.gp_noise_variance
        if config.gp_noise_variance is not None
        else config.noise_variance / scale**2
    )
    noise_std = math.sqrt(config.noise_variance)
    schedule = BetaSchedule(cardinality=10_000 * d)
    unit = unit_box(d)
    ucb_arm = next((i for i, a in enumerate(arms) if a.kind == "ucb"), -1)

    pair_seed = config.pair_seed if config.pair_seed is not None else config.seed
    rng_noise = _stream(pair_seed, _STREAM_NOISE)
    rng_select = _stream(config.seed, _STREAM_SELECT)

    init_unit = latin_hypercube(
        config.init_samples, d, _stream(pair_seed, _STREAM_INIT)
    )
    init_raw = domain.from_unit(init_unit)
    init_y = np.empty(config.init_samples)
    f_true_init = np.empty(config.init_samples)
    for i in range(config.init_samples):
        init_y[i], f_true_init[i] = _observe(objective, init_raw[i], noise_std, rng_noise)
    gp = fit(init_unit, (init_y - shift) / scale, kernel, gp_noise)

    # A fixed, horizon-aware learning rate: the horizon-free
    # eta_t = sqrt(8 ln N / t) is far too aggressive in the first rounds and
    # locks onto early random leaders before the surrogate knows anything.
    eta = math.sqrt(8.0 * math.log(max(n_arms, 2)) / T)
    bandit = new_portfolio(config.strategy, n_arms, eta=eta)

    nominees_unit = np.empty((T, n_arms, d))
    probs = np.empty((T, n_arms))
    chosen = np.empty(T, dtype=np.int64)
    xs_unit = np.empty((T, d))
    ys = np.empty(T)
    rewards = np.empty((T, n_arms))
    gains = np.empty((T, n_arms))
    incumbent = np.empty(T)
    mu_prev = np.empty(T)
    var_prev = np.empty(T)
    var_prev_ucb = np.full(T, np.nan)
    f_true = np.empty(T)
    best_seen = float(init_y.max())
    # The maximizer's probe variances, carried from one iteration's state to
    # the next.  The outer calls below stay on the fresh solve: the record
    # holds their results.
    carry = VarianceCarry()

    for t in range(1, T + 1):
        try:
            mu_plus = float(posterior_mean(gp, gp.inputs).max())

            # One posterior call and one acquisition pass answer the probes
            # of every arm still searching, stacked arm by arm; the arms'
            # rows of that pass are built once per iteration.
            rows = acquisition_rows(arms, incumbent=mu_plus, t=t, schedule=schedule)

            def utilities(points, counts):
                mean, variance = posterior_predict_batch(gp, points, carry=carry)
                return acquisition_values(rows, mean, np.sqrt(variance), counts=counts)

            configs = [
                replace(
                    config.maximizer,
                    seed=_derived_seed(config.seed, _STREAM_MAXIMIZER, t, i),
                )
                for i in range(n_arms)
            ]
            nominees_unit[t - 1], _ = maximize(utilities, unit, configs)

            probs[t - 1] = probabilities(bandit)
            j = select_arm(bandit, rng_select)
            chosen[t - 1] = j
            x_unit = nominees_unit[t - 1, j]
            xs_unit[t - 1] = x_unit

            mean_at, var_at = posterior_predict_batch(gp, x_unit[None, :])
            mu_prev[t - 1] = mean_at[0]
            var_prev[t - 1] = var_at[0]
            if ucb_arm >= 0:
                _, ucb_var = posterior_predict_batch(
                    gp, nominees_unit[t - 1, ucb_arm][None, :]
                )
                var_prev_ucb[t - 1] = ucb_var[0]

            x_raw = domain.from_unit(x_unit)
            y_t, f_t = _observe(objective, x_raw, noise_std, rng_noise)
            if not math.isfinite(y_t):
                raise NumericsError(
                    f"objective returned non-finite observation {y_t!r} at {x_raw}"
                )
            ys[t - 1] = y_t
            f_true[t - 1] = f_t
            gp = update(gp, x_unit, (y_t - shift) / scale)

            rewards[t - 1] = posterior_mean(gp, nominees_unit[t - 1]) * scale + shift
            bandit = observe(bandit, rewards[t - 1], j)
            gains[t - 1] = bandit.gains
            best_seen = max(best_seen, y_t)
            incumbent[t - 1] = best_seen
        except NumericsError as err:
            raise NumericsError(f"iteration {t}: {err}") from err

    record = TrialRecord(
        objective_name=objective.name,
        strategy=config.strategy,
        arm_labels=tuple(a.label for a in arms),
        ucb_arm=ucb_arm,
        seed=config.seed,
        pair_seed=pair_seed,
        iterations=T,
        init_samples=config.init_samples,
        domain_lower=domain.lower.copy(),
        domain_upper=domain.upper.copy(),
        noise_variance=config.noise_variance,
        gp_noise_variance=gp_noise,
        output_mean=shift,
        output_scale=scale,
        beta_delta=schedule.delta,
        beta_cardinality=schedule.cardinality,
        init_x=init_raw,
        init_y=init_y,
        f_true_init=f_true_init,
        nominees=domain.from_unit(nominees_unit),
        probs=probs,
        chosen=chosen,
        x=domain.from_unit(xs_unit),
        y=ys,
        rewards=rewards,
        gains=gains,
        incumbent=incumbent,
        mu_prev=mu_prev,
        var_prev=var_prev,
        var_prev_ucb=var_prev_ucb,
        f_true=f_true,
    )
    if objective.known_optimum is not None:
        gap_series = metrics.gap(record, objective.known_optimum)
        regret = metrics.regret_series(record, objective.known_optimum)
        record = replace(
            record, gap=gap_series.values, regret=regret.instantaneous
        )
    return record
