import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from gphedge.gp import KernelParams, NumericsError, fit, posterior_mean, posterior_predict_batch
from gphedge.portfolio import (
    EXP3_GAMMA,
    PortfolioState,
    new_portfolio,
    observe,
    probabilities,
    select_arm,
    update_exp3,
    update_hedge,
    update_normalhedge,
)


def hedge_state(gains, eta):
    return PortfolioState(strategy="hedge", gains=np.asarray(gains, float), eta=eta)


def test_zero_gains_are_uniform_for_every_strategy():
    for strategy in ("hedge", "exp3", "normalhedge", "uniform"):
        state = new_portfolio(strategy, 4, eta=1.0)
        assert probabilities(state) == approx(np.full(4, 0.25), abs=1e-15)


def test_hedge_two_arm_hand_computed():
    state = hedge_state([1.0, 0.0], eta=1.0)
    p = probabilities(state)
    assert p[0] == approx(math.e / (math.e + 1.0), abs=1e-12)
    assert p[1] == approx(1.0 / (math.e + 1.0), abs=1e-12)


def test_hedge_shift_invariance():
    base = probabilities(hedge_state([3.0, 1.0, -2.0], eta=0.7))
    shifted = probabilities(hedge_state([3.0 + 64.0, 1.0 + 64.0, -2.0 + 64.0], eta=0.7))
    # Integer-valued shift keeps the subtraction exact.
    assert np.array_equal(base, shifted)
    rough = probabilities(hedge_state([3.1, 1.2, -2.3], eta=0.7))
    drifted = probabilities(hedge_state([3.1 + 17.77, 1.2 + 17.77, -2.3 + 17.77], eta=0.7))
    assert rough == approx(drifted, rel=1e-12)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_probabilities_survive_huge_gains(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    gains = rng.uniform(-1e6, 1e6, size=n)
    strategy = ("hedge", "exp3", "normalhedge", "uniform")[int(rng.integers(4))]
    state = PortfolioState(
        strategy=strategy,
        gains=gains,
        eta=float(rng.uniform(0.01, 2.0)),
        nh_regrets=rng.uniform(-1e6, 1e6, size=n) if strategy == "normalhedge" else None,
    )
    p = probabilities(state)
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) < 1e-12


def test_hedge_concentrates_on_the_top_arm():
    state = hedge_state([5.0, 4.0, 1.0], eta=1e4)
    assert probabilities(state)[0] > 1.0 - 1e-9


def test_exp3_probability_floor():
    state = PortfolioState(strategy="exp3", gains=np.array([50.0, 0.0, -3.0]), eta=1.0)
    p = probabilities(state)
    assert np.all(p >= EXP3_GAMMA / 3)


def test_select_arm_is_deterministic_and_matches_frequencies():
    state = hedge_state([1.0, 0.0, 0.5], eta=1.0)
    draws1 = [select_arm(state, np.random.default_rng(11)) for _ in range(5)]
    draws2 = [select_arm(state, np.random.default_rng(11)) for _ in range(5)]
    assert draws1 == draws2
    rng = np.random.default_rng(0)
    picks = np.array([select_arm(state, rng) for _ in range(20_000)])
    freq = np.bincount(picks, minlength=3) / picks.size
    assert freq == approx(probabilities(state), abs=0.015)


def test_uniform_selection_frequencies_within_binomial_noise():
    state = new_portfolio("uniform", 5, eta=1.0)
    rng = np.random.default_rng(4)
    picks = np.array([select_arm(state, rng) for _ in range(10_000)])
    freq = np.bincount(picks, minlength=5) / picks.size
    sigma = math.sqrt(0.2 * 0.8 / 10_000)
    assert np.all(np.abs(freq - 0.2) <= 3 * sigma)


def test_update_hedge_accumulates_and_validates():
    state = new_portfolio("hedge", 3, eta=1.0)
    state = update_hedge(state, [0.1, 0.2, 0.3])
    state = update_hedge(state, [0.0, 1.0, 0.0])
    assert state.gains == approx([0.1, 1.2, 0.3])
    assert state.t == 2
    with pytest.raises(ValueError):
        update_hedge(state, [0.0, np.nan, 0.0])
    with pytest.raises(ValueError):
        update_hedge(state, [0.0, 1.0])


def test_update_exp3_importance_weights_by_sampling_probability():
    state = PortfolioState(strategy="exp3", gains=np.array([0.4, 0.1]), eta=0.5)
    eta, gamma = 0.5, EXP3_GAMMA
    weights = np.exp(eta * (state.gains - state.gains.max()))
    p = (1.0 - gamma) * weights / weights.sum() + gamma / 2
    assert np.array_equal(p, probabilities(state))
    updated = update_exp3(state, chosen=1, reward=0.3)
    assert updated.gains[1] == approx(0.1 + 0.3 / p[1], rel=1e-12)
    assert updated.gains[0] == 0.4


def test_exp3_finishes_every_synthetic_reward_stream():
    # The setting in which dividing by the inner Hedge probability made the
    # gains run away until exp underflowed: 9 arms, T=400 and the eta the
    # driver sets.  Weighting by the sampled probability bounds each gain
    # step by N / gamma.
    n, horizon = 9, 400
    eta = math.sqrt(8.0 * math.log(n) / horizon)
    rng = np.random.default_rng(2024)
    for _ in range(200):
        state = new_portfolio("exp3", n, eta=eta)
        means = rng.uniform(0.0, 1.0, size=n)
        for _ in range(horizon):
            chosen = select_arm(state, rng)
            state = observe(state, means + 0.1 * rng.standard_normal(n), chosen)
        assert state.t == horizon
        assert np.all(np.isfinite(state.gains))
        assert np.all(probabilities(state) >= EXP3_GAMMA / n)


def test_update_exp3_overflow_is_a_typed_error():
    state = PortfolioState(strategy="exp3", gains=np.array([1e308, 0.0]), eta=1.0)
    with pytest.raises(NumericsError, match="Exp3 gain"):
        update_exp3(state, chosen=0, reward=1e308)


def test_update_normalhedge_tracks_relative_regret():
    state = new_portfolio("normalhedge", 3, eta=1.0)
    state = update_normalhedge(state, [0.9, 0.5, 0.1], chosen=1)
    assert state.nh_regrets == approx([0.4, 0.0, -0.4])
    state = update_normalhedge(state, [0.0, 0.0, 1.0], chosen=2)
    assert state.nh_regrets == approx([-0.6, -1.0, -0.4])
    p = probabilities(state)
    assert p == approx(np.full(3, 1.0 / 3))  # no positive regret anywhere


def test_normalhedge_prefers_high_regret_arms():
    state = PortfolioState(
        strategy="normalhedge",
        gains=np.zeros(4),
        eta=1.0,
        nh_regrets=np.array([2.0, 0.5, 0.0, -1.0]),
    )
    p = probabilities(state)
    assert p[0] > p[1] > p[2]
    assert p[2] == 0.0 and p[3] == 0.0
    assert p.sum() == approx(1.0, abs=1e-12)


def test_normalhedge_potential_is_calibrated():
    regrets = np.array([3.0, 1.0, 0.0, 0.2, -2.0])
    state = PortfolioState(
        strategy="normalhedge", gains=np.zeros(5), eta=1.0, nh_regrets=regrets
    )
    probabilities(state)  # exercises the line search
    positive = np.maximum(regrets, 0.0)
    # Recover c by bisection as the production code does, then check the
    # defining equation mean(exp(R+^2 / 2c)) = e holds at that c.
    from gphedge.portfolio import _normalhedge_weights  # noqa: PLC0415

    weights = _normalhedge_weights(regrets)
    ratio = weights[0] / weights[1]
    # w_i proportional to (R_i/c) exp(R_i^2 / 2c): solve the ratio for c.
    func = lambda c: (positive[0] / positive[1]) * np.exp(
        (positive[0] ** 2 - positive[1] ** 2) / (2 * c)
    )
    lo, hi = 1e-6, 1e6
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if func(mid) > ratio:
            lo = mid
        else:
            hi = mid
    c = math.sqrt(lo * hi)
    mean_potential = np.mean(np.exp(positive**2 / (2 * c)))
    assert mean_potential == approx(math.e, rel=1e-3)


def test_observe_rescales_rewards_into_unit_range():
    state = new_portfolio("hedge", 2, eta=1.0)
    state = observe(state, np.array([3.0, 7.0]), chosen=0)
    assert state.reward_lo == 3.0 and state.reward_hi == 7.0
    assert state.gains == approx([0.0, 1.0])  # min -> 0, max -> 1
    state = observe(state, np.array([5.0, 11.0]), chosen=1)
    assert state.reward_hi == 11.0
    assert state.gains == approx([0.25, 2.0])


def test_observe_constant_rewards_use_midpoint():
    state = new_portfolio("hedge", 3, eta=1.0)
    state = observe(state, np.array([2.0, 2.0, 2.0]), chosen=0)
    assert state.gains == approx([0.5, 0.5, 0.5])


def test_observe_raw_mode_keeps_reward_scale():
    state = new_portfolio("hedge", 2, eta=1.0, rescale=False)
    state = observe(state, np.array([3.0, 7.0]), chosen=0)
    assert state.gains == approx([3.0, 7.0])


def test_hedge_regret_bound_on_adversarial_streams():
    # Small-scale version of the acceptance criterion: at bo.run's
    # eta = sqrt(8 ln N / T), expected Hedge gain trails the best arm by at
    # most sqrt(T ln N / 2).
    n, horizon = 9, 1000
    eta = math.sqrt(8.0 * math.log(n) / horizon)
    rng = np.random.default_rng(99)
    for _ in range(5):
        rewards = rng.uniform(0.0, 1.0, size=(horizon, n))
        rewards[:, 2] = np.where(np.arange(horizon) % 37 < 18, 1.0, 0.0)
        state = new_portfolio("hedge", n, eta=eta, rescale=False)
        hedge_gain = 0.0
        for t in range(horizon):
            hedge_gain += float(probabilities(state) @ rewards[t])
            state = update_hedge(state, rewards[t])
        bound = math.sqrt(horizon * math.log(n) / 2.0)
        assert state.gains.max() - hedge_gain <= bound


def test_time_varying_eta_keeps_probability_invariants():
    # The horizon-free rate sqrt(8 ln N / t), passed round by round.
    state = new_portfolio("hedge", 6, eta=1.0)
    rng = np.random.default_rng(8)
    for _ in range(200):
        state = replace(state, eta=math.sqrt(8.0 * math.log(6) / max(state.t, 1)))
        p = probabilities(state)
        assert abs(p.sum() - 1.0) < 1e-12 and np.all(p >= 0.0)
        state = update_hedge(state, rng.uniform(0.0, 1.0, size=6))


def test_rigged_rewards_raise_the_dominant_arm_probability():
    state = new_portfolio("hedge", 3, eta=math.sqrt(8.0 * math.log(3) / 30))
    rng = np.random.default_rng(2)
    for _ in range(30):
        rewards = rng.uniform(0.0, 0.3, size=3)
        rewards[1] = 1.0
        state = observe(state, rewards, chosen=select_arm(state, rng))
    assert probabilities(state)[1] > 1.0 / 3.0


def test_reward_signal_is_the_posterior_mean_at_the_nominee():
    # Each arm's reward is posterior_mean of the updated GP at its nominee.
    rng = np.random.default_rng(6)
    inputs = rng.uniform(0.0, 1.0, size=(6, 2))
    outputs = rng.standard_normal(6)
    state = fit(inputs, outputs, KernelParams([0.5, 0.5]), 0.0)
    nominee = np.array([[0.3, 0.6]])
    assert posterior_mean(state, nominee)[0] == approx(
        posterior_predict_batch(state, nominee)[0][0], abs=1e-12
    )
    # Noiseless GP interpolates: reward at a sampled point is its observation.
    assert posterior_mean(state, inputs[2:3])[0] == approx(outputs[2], abs=1e-6)
    # Far from all data every kernel value vanishes and the prior takes over.
    assert posterior_mean(state, np.array([[80.0, -40.0]]))[0] == approx(0.0, abs=1e-12)


def test_state_validation():
    with pytest.raises(ValueError):
        PortfolioState(strategy="thompson", gains=np.zeros(2), eta=1.0)
    with pytest.raises(ValueError):
        PortfolioState(strategy="hedge", gains=np.zeros((2, 2)), eta=1.0)
    with pytest.raises(ValueError):
        update_exp3(new_portfolio("exp3", 3, eta=1.0), chosen=3, reward=0.1)
