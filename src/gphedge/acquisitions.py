"""Closed-form acquisition functions over a GP posterior: PI, EI and GP-UCB.

All three are pure functions of the posterior marginals.
:func:`acquisition_rows` holds the per-arm constants of a portfolio at one
incumbent and iteration, and :func:`acquisition_values` evaluates every
arm on arrays of marginals in one pass; it backs the inner maximization
loop.  GP-UCB's confidence width comes from a schedule over a
finite candidate set.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_BASEL = math.pi * math.pi / 6.0

KINDS = ("pi", "ei", "ucb")


def normal_cdf(z):
    """Standard normal CDF via the complementary error function."""
    return 0.5 * erfc(-np.asarray(z, dtype=float) / _SQRT2)


def normal_pdf(z):
    z = np.asarray(z, dtype=float)
    # z * z overflows to inf only where the density underflows to 0 anyway.
    with np.errstate(over="ignore"):
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


@dataclass(frozen=True)
class AcquisitionRows:
    """The per-arm constants of an acquisition pass and its incumbent.

    ``table`` is read-only, one column per arm: the 0/1 kind flags (PI, EI,
    UCB), the margin xi and the UCB coefficient sqrt(nu * beta_t).
    """

    table: np.ndarray
    incumbent: float


def acquisition_rows(
    specs: Sequence[AcquisitionSpec], incumbent: float, t: int, schedule: BetaSchedule
) -> AcquisitionRows:
    """The rows of the arms ``specs`` at one incumbent and iteration index.

    Build them once for all the passes that share both, as ``bo.run`` does
    each iteration.
    """
    beta = beta_t(schedule, t)
    table = np.array(
        [
            (s.kind == "pi", s.kind == "ei", s.kind == "ucb", s.xi, math.sqrt(s.nu * beta))
            for s in specs
        ],
        dtype=float,
    ).T.copy()
    table.flags.writeable = False
    return AcquisitionRows(table, incumbent)


def acquisition_values(rows: AcquisitionRows, mean, sigma, counts=None) -> np.ndarray:
    """Evaluate the arms of ``rows`` on posterior marginals.

    ``mean`` and ``sigma`` hold every arm's rows stacked arm by arm,
    ``counts[arm]`` rows each (0 for an arm with none), the shape that a
    lockstep ``maximize`` hands its objective; ``counts`` may be left out
    when ``rows`` holds one arm.  All rows are evaluated in one vectorized
    pass with per-row margins and UCB coefficients:

    - PI: Phi((mean - incumbent - xi) / sigma), or [gap > 0] where sigma = 0;
    - EI: gap Phi(z) + sigma phi(z), 0 where sigma = 0, clamped at 0;
    - UCB: mean + sqrt(nu * beta_t) * sigma.

    Every row goes through the same elementwise float operations as a call
    on that arm's rows alone, so splitting or stacking the arms never
    changes a bit of the result.
    """
    mean = np.asarray(mean, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if counts is None:
        if rows.table.shape[1] != 1:
            raise ValueError("several arms need the row count of each")
        counts = mean.size
    is_pi, is_ei, is_ucb, xi, coef = rows.table.repeat(counts, axis=1)

    gap = mean - rows.incumbent - xi
    positive = sigma > 0.0
    safe = np.where(positive, sigma, 1.0)
    z = gap / safe
    cdf = normal_cdf(z)
    improvement = np.where(
        positive,
        np.where(is_ei, gap * cdf + safe * normal_pdf(z), cdf),
        (gap > 0.0) * is_pi,  # where sigma = 0: PI's step, and 0 for EI
    )
    # max(v, 0) leaves PI's probabilities as they are and clamps EI.
    np.maximum(improvement, 0.0, out=improvement)
    return np.where(is_ucb, mean + coef * sigma, improvement)
