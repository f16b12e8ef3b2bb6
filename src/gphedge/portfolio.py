"""Bandit strategies over a portfolio of arms.

Hedge plays exponential weights on cumulative gains under full information;
Exp3 runs Hedge on importance-weighted gains and mixes its probabilities
with the uniform distribution; NormalHedge weights arms through the
potential exp(max(R,0)^2 / 2c) with the scale c solved per round; Uniform
ignores the gains.  States are immutable and updates return new states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gp import NumericsError

STRATEGIES = ("hedge", "exp3", "normalhedge", "uniform")


@dataclass(frozen=True)
class PortfolioState:
    """Cumulative per-arm gains plus everything needed to pick the next arm.

    ``eta=None`` selects the horizon-free learning rate sqrt(8 ln N / t).
    ``reward_lo``/``reward_hi`` track the observed raw-reward range; when
    ``rescale`` is set, rewards are mapped affinely into [0, 1] before any
    gain update, which keeps learning rates meaningful on objectives of
    unknown scale.
    """

    strategy: str
    gains: np.ndarray
    t: int = 0
    eta: float | None = None
    exp3_gamma: float = 0.1
    nh_regrets: np.ndarray | None = None
    reward_lo: float = math.inf
    reward_hi: float = -math.inf
    rescale: bool = True

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        gains = np.asarray(self.gains, dtype=float)
        if gains.ndim != 1 or gains.size < 1:
            raise ValueError("gains must be a non-empty vector")
        if not (0.0 < self.exp3_gamma <= 1.0):
            raise ValueError("exp3_gamma must lie in (0, 1]")
        object.__setattr__(self, "gains", gains)
        if self.strategy == "normalhedge" and self.nh_regrets is None:
            object.__setattr__(self, "nh_regrets", np.zeros(gains.size))

    @property
    def arms(self) -> int:
        return self.gains.size


def new_portfolio(
    strategy: str,
    arms: int,
    eta: float | None = None,
    exp3_gamma: float = 0.1,
    rescale: bool = True,
) -> PortfolioState:
    return PortfolioState(
        strategy=strategy,
        gains=np.zeros(arms),
        eta=eta,
        exp3_gamma=exp3_gamma,
        rescale=rescale,
    )


def _learning_rate(state: PortfolioState) -> float:
    if state.eta is not None:
        return state.eta
    return math.sqrt(8.0 * math.log(max(state.arms, 2)) / max(state.t, 1))


def _softmax(gains: np.ndarray, eta: float) -> np.ndarray:
    # Shift before scaling: keeps softmax(g + c) bitwise equal to softmax(g)
    # whenever the shifted differences are exact.
    weights = np.exp(eta * (gains - gains.max()))
    return weights / weights.sum()


def _potential_mean(positive_regrets: np.ndarray, c: float) -> float:
    with np.errstate(over="ignore"):
        return float(np.mean(np.exp(positive_regrets**2 / (2.0 * c))))


def _normalhedge_weights(regrets: np.ndarray) -> np.ndarray:
    positive = np.maximum(regrets, 0.0)
    if not positive.any():
        return np.full(regrets.size, 1.0 / regrets.size)
    # mean(exp(R+^2 / 2c)) decreases in c; bracket the root of mean = e.
    c_hi = 0.5 * float(np.max(positive) ** 2)
    while _potential_mean(positive, c_hi) > math.e:
        c_hi *= 2.0
    c_lo = c_hi
    while _potential_mean(positive, c_lo) < math.e:
        c_lo *= 0.5
    for _ in range(200):
        mid = 0.5 * (c_lo + c_hi)
        if _potential_mean(positive, mid) >= math.e:
            c_lo = mid
        else:
            c_hi = mid
        if c_hi - c_lo <= 1e-14 * c_hi:
            break
    c = 0.5 * (c_lo + c_hi)
    weights = positive / c * np.exp(positive**2 / (2.0 * c))
    return weights / weights.sum()


def probabilities(state: PortfolioState) -> np.ndarray:
    """Selection distribution for the next round; non-negative, sums to one."""
    n = state.arms
    if state.strategy == "uniform":
        return np.full(n, 1.0 / n)
    if state.strategy == "normalhedge":
        return _normalhedge_weights(state.nh_regrets)
    inner = _softmax(state.gains, _learning_rate(state))
    if state.strategy == "exp3":
        return (1.0 - state.exp3_gamma) * inner + state.exp3_gamma / n
    return inner


def select_arm(state: PortfolioState, rng: np.random.Generator) -> int:
    """Sample one arm by inverse CDF on a single uniform draw, in arm order."""
    cumulative = np.cumsum(probabilities(state))
    draw = rng.random()
    return int(min(np.searchsorted(cumulative, draw, side="right"), state.arms - 1))


def _check_rewards(state: PortfolioState, rewards) -> np.ndarray:
    rewards = np.asarray(rewards, dtype=float)
    if rewards.shape != (state.arms,):
        raise ValueError(f"expected {state.arms} rewards, got shape {rewards.shape}")
    if not np.all(np.isfinite(rewards)):
        raise ValueError("rewards must be finite")
    return rewards


def update_hedge(state: PortfolioState, rewards) -> PortfolioState:
    """Full-information update: every arm's gain grows by its reward."""
    rewards = _check_rewards(state, rewards)
    return replace(state, gains=state.gains + rewards, t=state.t + 1)


def update_exp3(state: PortfolioState, chosen: int, reward: float) -> PortfolioState:
    """Partial-information update: the chosen arm receives reward / p.

    ``p`` is the gamma-mixed probability :func:`select_arm` sampled with, so
    the estimate is unbiased and bounded by reward * N / gamma (Auer et al.
    2002); the inner Hedge probability can underflow, this one cannot.
    """
    if not 0 <= chosen < state.arms:
        raise ValueError(f"chosen arm {chosen} out of range")
    if not math.isfinite(reward):
        raise ValueError("reward must be finite")
    p = float(probabilities(state)[chosen])
    gain = float(state.gains[chosen]) + reward / p
    if not math.isfinite(gain):
        raise NumericsError(
            f"Exp3 gain of arm {chosen} is {gain!r} at sampling probability {p!r}"
        )
    gains = state.gains.copy()
    gains[chosen] = gain
    return replace(state, gains=gains, t=state.t + 1)


def update_normalhedge(state: PortfolioState, rewards, chosen: int) -> PortfolioState:
    """Accumulate per-arm regret against the played arm's reward."""
    rewards = _check_rewards(state, rewards)
    if not 0 <= chosen < state.arms:
        raise ValueError(f"chosen arm {chosen} out of range")
    regrets = state.nh_regrets + (rewards - rewards[chosen])
    return replace(
        state,
        gains=state.gains + rewards,
        nh_regrets=regrets,
        t=state.t + 1,
    )


def observe(state: PortfolioState, rewards, chosen: int) -> PortfolioState:
    """Fold one round of raw rewards into the state.

    Updates the running reward range, rescales into [0, 1] when enabled and
    dispatches to the strategy's own update rule.
    """
    rewards = _check_rewards(state, rewards)
    lo = min(state.reward_lo, float(rewards.min()))
    hi = max(state.reward_hi, float(rewards.max()))
    state = replace(state, reward_lo=lo, reward_hi=hi)
    if state.rescale:
        span = hi - lo
        rewards = (rewards - lo) / span if span > 0.0 else np.full(state.arms, 0.5)
    if state.strategy == "exp3":
        return update_exp3(state, chosen, float(rewards[chosen]))
    if state.strategy == "normalhedge":
        return update_normalhedge(state, rewards, chosen)
    return update_hedge(state, rewards)
