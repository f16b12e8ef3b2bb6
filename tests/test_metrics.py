import math

import numpy as np
import pytest
from pytest import approx

from gphedge.acquisitions import BetaSchedule, beta_t
from gphedge.bo import RunConfig, TrialRecord, run
from gphedge.gp import KernelParams, fit, kernel_matrix, posterior_predict_batch, update
from gphedge.harness import default_portfolio
from gphedge.maximizer import MaximizerConfig, latin_hypercube, unit_box
from gphedge.metrics import (
    aggregate,
    gap,
    information_gain,
    noise_ratio_constant,
    regret_series,
    theorem1_decomposition,
    variance_sum_check,
)
from gphedge.objectives import sample_synthetic_objective

SMALL_MAXIMIZER = MaximizerConfig(direct_budget=60, multistart_count=3, local_steps=8)


def band_coverage_violated(
    kernel: KernelParams,
    gp_noise: float,
    grid: np.ndarray,
    schedule: BetaSchedule,
    steps: int,
    rng: np.random.Generator,
) -> bool:
    """One coverage replication of the confidence-band deviation bound.

    Draws a function from the GP prior restricted to the finite grid, then
    samples ``steps`` noisy observations at random grid points, checking
    before each one whether |f - mean| <= sqrt(beta_t) * sd anywhere fails
    on the grid.  Returns True when any violation occurred.
    """
    grid = np.asarray(grid, dtype=float)
    gram = kernel_matrix(grid, grid, kernel)
    np.fill_diagonal(gram, 1.0)
    chol = np.linalg.cholesky(gram + 1e-10 * np.eye(grid.shape[0]))
    f_grid = chol @ rng.standard_normal(grid.shape[0])
    state = fit(np.empty((0, grid.shape[1])), [], kernel, gp_noise)
    for t in range(1, steps + 1):
        mean, variance = posterior_predict_batch(state, grid)
        width = math.sqrt(beta_t(schedule, t)) * np.sqrt(variance)
        if np.any(np.abs(f_grid - mean) > width):
            return True
        pick = int(rng.integers(grid.shape[0]))
        y = f_grid[pick] + math.sqrt(gp_noise) * rng.standard_normal()
        state = update(state, grid[pick], y)
    return False


def make_record(f_true_init, f_true, var_prev=None, var_prev_ucb=None, ucb_arm=-1):
    """Minimal coherent record for metric arithmetic tests."""
    f_true_init = np.asarray(f_true_init, dtype=float)
    f_true = np.asarray(f_true, dtype=float)
    T = f_true.size
    m = f_true_init.size
    n_arms = 1
    return TrialRecord(
        objective_name="fake",
        strategy="hedge",
        arm_labels=("ei(xi=0.01)",),
        ucb_arm=ucb_arm,
        seed=0,
        pair_seed=0,
        iterations=T,
        init_samples=m,
        domain_lower=np.zeros(1),
        domain_upper=np.ones(1),
        noise_variance=0.0,
        gp_noise_variance=1.0,
        output_mean=0.0,
        output_scale=1.0,
        beta_delta=0.1,
        beta_cardinality=1000,
        init_x=np.zeros((m, 1)),
        init_y=f_true_init.copy(),
        f_true_init=f_true_init,
        nominees=np.zeros((T, n_arms, 1)),
        probs=np.ones((T, n_arms)),
        chosen=np.zeros(T, dtype=np.int64),
        x=np.zeros((T, 1)),
        y=f_true.copy(),
        rewards=np.zeros((T, n_arms)),
        gains=np.zeros((T, n_arms)),
        incumbent=np.maximum.accumulate(np.concatenate([[f_true_init.max()], f_true]))[1:],
        mu_prev=np.zeros(T),
        var_prev=np.ones(T) if var_prev is None else np.asarray(var_prev, float),
        var_prev_ucb=np.full(T, np.nan)
        if var_prev_ucb is None
        else np.asarray(var_prev_ucb, float),
        f_true=f_true,
    )


def small_run(seed=0, strategy="hedge", iterations=10, noise=0.01):
    spec = sample_synthetic_objective(2, seed, locate_optimum=False)
    config = RunConfig(
        objective=spec,
        iterations=iterations,
        acquisitions=default_portfolio(3),
        strategy=strategy,
        kernel=KernelParams([0.3, 0.3]),
        noise_variance=noise,
        maximizer=SMALL_MAXIMIZER,
        seed=seed,
    )
    return run(config)


def test_gap_no_improvement_stays_zero():
    series = gap(make_record([0.4], [0.1, 0.2, 0.3]), f_star=1.0)
    assert series.values == approx([0.0, 0.0, 0.0])
    assert not series.degenerate


def test_gap_reaching_the_optimum_saturates_at_one():
    series = gap(make_record([0.0], [0.5, 1.0, 0.7]), f_star=1.0)
    assert series.values == approx([0.5, 1.0, 1.0])


def test_gap_midpoint_arithmetic():
    series = gap(make_record([0.0], [0.5]), f_star=1.0)
    assert series.values == approx([0.5])
    assert series.f_x1 == 0.0


def test_gap_uses_best_initial_sample_as_baseline():
    series = gap(make_record([0.2, 0.6, 0.4], [0.8]), f_star=1.0)
    assert series.f_x1 == 0.6
    assert series.values == approx([(0.8 - 0.6) / (1.0 - 0.6)])


def test_gap_degenerate_when_optimum_not_above_baseline():
    series = gap(make_record([1.0], [0.5, 0.7]), f_star=1.0)
    assert series.degenerate
    assert np.all(np.isnan(series.values))


def test_gap_monotone_and_bounded_on_random_records():
    rng = np.random.default_rng(0)
    for _ in range(25):
        record = make_record(rng.uniform(0, 0.2, size=3), rng.uniform(0, 1.3, size=40))
        series = gap(record, f_star=1.2)
        if series.degenerate:
            continue
        assert np.all(np.diff(series.values) >= 0.0)
        assert np.all((series.values >= 0.0) & (series.values <= 1.0))


def test_regret_series_definitions():
    record = make_record([0.0], [0.9, 0.5, 1.0])
    series = regret_series(record, f_star=1.0)
    assert series.instantaneous == approx([0.1, 0.5, 0.0])
    assert series.cumulative == approx(0.6)
    assert series.average == approx(0.2)
    assert series.min_instantaneous == approx(0.0)
    assert series.incumbent_bound_holds


def test_regret_incumbent_bound_on_real_runs():
    for seed in range(3):
        spec = sample_synthetic_objective(2, seed + 50)
        config = RunConfig(
            objective=spec,
            iterations=8,
            acquisitions=default_portfolio(3),
            strategy="hedge",
            kernel=KernelParams([0.3, 0.3]),
            noise_variance=0.01,
            maximizer=SMALL_MAXIMIZER,
            seed=seed,
        )
        record = run(config)
        series = regret_series(record, spec.known_optimum)
        assert series.incumbent_bound_holds
        assert series.cumulative == approx(float(np.sum(series.instantaneous)))


def test_information_gain_empty_and_single_point():
    empty = make_record([0.0], np.empty(0), var_prev=np.empty(0))
    assert information_gain(empty, gp_noise=1.0) == 0.0
    single = make_record([0.0], [0.5], var_prev=[1.0])
    assert information_gain(single, gp_noise=1.0) == approx(0.5 * math.log(2.0))


def test_information_gain_monotone_and_needs_noise():
    rng = np.random.default_rng(1)
    variances = rng.uniform(0.0, 1.0, size=30)
    gains = [
        information_gain(make_record([0.0], np.zeros(k), var_prev=variances[:k]), 0.1)
        for k in range(31)
    ]
    assert all(b >= a for a, b in zip(gains, gains[1:]))
    with pytest.raises(ValueError):
        information_gain(make_record([0.0], [0.5], var_prev=[1.0]), gp_noise=0.0)


def test_noise_ratio_constant():
    assert noise_ratio_constant(1.0) == approx(2.0 / math.log(2.0))
    with pytest.raises(ValueError):
        noise_ratio_constant(0.0)


def test_variance_sum_inequality_holds_by_hand():
    schedule = BetaSchedule(delta=0.1, cardinality=1000)
    var_prev = np.array([1.0, 0.8, 0.3, 0.05])
    record = make_record([0.0], np.zeros(4), var_prev=var_prev)
    check = variance_sum_check(record, schedule, gp_noise=0.01)
    betas = np.array([beta_t(schedule, t) for t in range(1, 5)])
    assert check.lhs == approx(float(np.sum(betas * var_prev)))
    info = 0.5 * float(np.sum(np.log1p(var_prev / 0.01)))
    assert check.rhs == approx(noise_ratio_constant(0.01) * betas[-1] * info)
    assert check.holds


def test_variance_sum_check_on_real_runs():
    schedule = BetaSchedule(delta=0.1, cardinality=20_000)
    for seed in range(5):
        record = small_run(seed=seed)
        check = variance_sum_check(record, schedule, record.gp_noise_variance)
        assert check.holds, (check.lhs, check.rhs)


def test_theorem1_decomposition_requires_and_uses_ucb_log():
    schedule = BetaSchedule(delta=0.1, cardinality=20_000)
    record = small_run(seed=3)
    assert record.ucb_arm >= 0
    regret = regret_series(record, record.f_true.max())
    report = theorem1_decomposition(record, schedule, record.gp_noise_variance, regret)
    betas = np.array([beta_t(schedule, t) for t in range(1, record.iterations + 1)])
    expected_ucb_term = float(np.sum(np.sqrt(betas * record.var_prev_ucb)))
    assert report.ucb_term == approx(expected_ucb_term, rel=1e-9)
    info = information_gain(record, record.gp_noise_variance)
    assert report.exploration_term == approx(
        math.sqrt(
            record.iterations
            * noise_ratio_constant(record.gp_noise_variance)
            * betas[-1]
            * info
        )
    )
    assert report.observed_cumulative_regret == approx(regret.cumulative)

    no_ucb = make_record([0.0], [0.5], var_prev=[1.0])
    with pytest.raises(ValueError):
        theorem1_decomposition(no_ucb, schedule, 0.01)


def test_aggregate_means_and_variances():
    records = [
        make_record([0.0], [0.2, 0.4]),
        make_record([0.0], [0.4, 0.8]),
        make_record([0.0], [0.0, 0.6]),
    ]
    summary = aggregate(records, f_star=1.0)
    gaps = np.array([[0.2, 0.4], [0.4, 0.8], [0.0, 0.6]])
    assert summary.gap_mean == approx(gaps.mean(axis=0))
    assert summary.gap_variance == approx(gaps.var(axis=0, ddof=1))
    regrets = 1.0 - np.array([[0.2, 0.4], [0.4, 0.8], [0.0, 0.6]])
    averages = np.cumsum(regrets, axis=1) / np.array([1.0, 2.0])
    assert summary.mean_average_regret == approx(averages.mean(axis=0))
    with pytest.raises(ValueError):
        aggregate(records[:1], f_star=1.0)


def test_band_coverage_rarely_violated_at_small_scale():
    kernel = KernelParams([0.4, 0.4])
    schedule = BetaSchedule(delta=0.1, cardinality=250)
    grid = unit_box(2).from_unit(latin_hypercube(250, 2, np.random.default_rng(0)))
    violations = sum(
        band_coverage_violated(
            kernel, 0.01, grid, schedule, steps=10, rng=np.random.default_rng(rep)
        )
        for rep in range(20)
    )
    assert violations <= 4
