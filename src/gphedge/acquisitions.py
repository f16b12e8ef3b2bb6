"""Closed-form acquisition functions over a GP posterior: PI, EI and GP-UCB.

All three take the posterior marginals at a query point and are pure; the
vectorized ``*_values`` variants operate on arrays of marginals and back the
inner maximization loop.  GP-UCB's confidence width comes from a schedule
over a finite candidate set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .gp import Prediction

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_BASEL = math.pi * math.pi / 6.0

KINDS = ("pi", "ei", "ucb")


def normal_cdf(z):
    """Standard normal CDF via the complementary error function."""
    return 0.5 * erfc(-np.asarray(z, dtype=float) / _SQRT2)


def normal_pdf(z):
    z = np.asarray(z, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


@dataclass(frozen=True)
class AcquisitionSpec:
    """One arm of a portfolio: an acquisition kind plus its parameters.

    ``xi`` is the improvement margin used by PI and EI; ``nu`` scales the
    confidence width of UCB.  Labels identify arms in records and must be
    unique within a portfolio.
    """

    kind: str
    xi: float = 0.0
    nu: float = 0.2
    label: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown acquisition kind {self.kind!r}")
        if self.xi < 0.0:
            raise ValueError("xi must be non-negative")
        if self.kind == "ucb" and self.nu <= 0.0:
            raise ValueError("nu must be strictly positive")
        if not self.label:
            if self.kind == "ucb":
                label = f"ucb(nu={self.nu:g})"
            else:
                label = f"{self.kind}(xi={self.xi:g})"
            object.__setattr__(self, "label", label)


def pi(xi: float = 0.01, label: str = "") -> AcquisitionSpec:
    return AcquisitionSpec("pi", xi=xi, label=label)


def ei(xi: float = 0.01, label: str = "") -> AcquisitionSpec:
    return AcquisitionSpec("ei", xi=xi, label=label)


def ucb(nu: float = 0.2, label: str = "") -> AcquisitionSpec:
    return AcquisitionSpec("ucb", nu=nu, label=label)


@dataclass(frozen=True)
class BetaSchedule:
    """Non-decreasing confidence-width schedule over a finite candidate set.

    beta_t = 2 log(cardinality * pi_t / delta) with pi_t = (pi^2/6) t^2, a
    convergent-series choice whose reciprocals sum to one.
    """

    delta: float = 0.1
    cardinality: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.cardinality < 1:
            raise ValueError("cardinality must be a positive integer")


def beta_t(schedule: BetaSchedule, t: int) -> float:
    if t < 1:
        raise ValueError("iteration index starts at 1")
    return 2.0 * math.log(schedule.cardinality * _BASEL * t * t / schedule.delta)


def pi_values(mean, sigma, incumbent: float, xi: float) -> np.ndarray:
    """Probability of improving on the incumbent by at least xi."""
    mean = np.asarray(mean, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    gap = mean - incumbent - xi
    positive = sigma > 0.0
    safe = np.where(positive, sigma, 1.0)
    return np.where(positive, normal_cdf(gap / safe), (gap > 0.0).astype(float))


def ei_values(mean, sigma, incumbent: float, xi: float) -> np.ndarray:
    """Expected improvement over the incumbent; zero wherever sigma is zero."""
    mean = np.asarray(mean, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    gap = mean - incumbent - xi
    positive = sigma > 0.0
    safe = np.where(positive, sigma, 1.0)
    z = gap / safe
    values = np.where(positive, gap * normal_cdf(z) + safe * normal_pdf(z), 0.0)
    return np.maximum(values, 0.0)


def ucb_values(mean, sigma, t: int, nu: float, schedule: BetaSchedule) -> np.ndarray:
    """Optimistic upper bound mean + sqrt(nu * beta_t) * sigma."""
    mean = np.asarray(mean, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    return mean + math.sqrt(nu * beta_t(schedule, t)) * sigma


def acquisition_values(
    spec: AcquisitionSpec,
    mean,
    sigma,
    incumbent: float | None = None,
    t: int | None = None,
    schedule: BetaSchedule | None = None,
) -> np.ndarray:
    """Evaluate one acquisition on arrays of posterior marginals."""
    if spec.kind == "pi":
        if incumbent is None:
            raise ValueError("pi needs the incumbent value")
        return pi_values(mean, sigma, incumbent, spec.xi)
    if spec.kind == "ei":
        if incumbent is None:
            raise ValueError("ei needs the incumbent value")
        return ei_values(mean, sigma, incumbent, spec.xi)
    if t is None or schedule is None:
        raise ValueError("ucb needs the iteration index and a beta schedule")
    return ucb_values(mean, sigma, t, spec.nu, schedule)


def acq_pi(pred: Prediction, incumbent_mu_plus: float, xi: float) -> float:
    sigma = math.sqrt(pred.variance)
    return float(pi_values(pred.mean, sigma, incumbent_mu_plus, xi))


def acq_ei(pred: Prediction, incumbent_mu_plus: float, xi: float) -> float:
    sigma = math.sqrt(pred.variance)
    return float(ei_values(pred.mean, sigma, incumbent_mu_plus, xi))


def acq_ucb(pred: Prediction, t: int, nu: float, schedule: BetaSchedule) -> float:
    sigma = math.sqrt(pred.variance)
    return float(ucb_values(pred.mean, sigma, t, nu, schedule))
