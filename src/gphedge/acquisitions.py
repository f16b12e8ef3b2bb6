"""Closed-form acquisition functions over a GP posterior: PI, EI and GP-UCB.

All three are pure functions of the posterior marginals.
:func:`acquisition_values` evaluates them on arrays of marginals, for one
arm or for every arm of a portfolio in one pass, and backs the inner
maximization loop.  GP-UCB's confidence width comes from a schedule over a
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
    spec: AcquisitionSpec | Sequence[AcquisitionSpec],
    incumbent: float | None = None,
    t: int | None = None,
    schedule: BetaSchedule | None = None,
) -> AcquisitionRows:
    """The rows of ``spec``'s arms at one incumbent and iteration index.

    UCB needs ``t`` and ``schedule``, PI and EI the incumbent.  Build them
    once for all the passes that share both, as ``bo.run`` does each
    iteration.
    """
    specs = (spec,) if isinstance(spec, AcquisitionSpec) else tuple(spec)
    beta = 0.0
    if any(s.kind == "ucb" for s in specs):
        if t is None or schedule is None:
            raise ValueError("ucb needs the iteration index and a beta schedule")
        beta = beta_t(schedule, t)
    if incumbent is None:
        if not all(s.kind == "ucb" for s in specs):
            raise ValueError("pi and ei need the incumbent value")
        incumbent = 0.0  # read only by UCB rows, which discard it
    table = np.array(
        [
            (s.kind == "pi", s.kind == "ei", s.kind == "ucb", s.xi, math.sqrt(s.nu * beta))
            for s in specs
        ],
        dtype=float,
    ).T.copy()
    table.flags.writeable = False
    return AcquisitionRows(table, incumbent)


def acquisition_values(
    spec: AcquisitionSpec | Sequence[AcquisitionSpec] | AcquisitionRows,
    mean,
    sigma,
    incumbent: float | None = None,
    t: int | None = None,
    schedule: BetaSchedule | None = None,
    counts=None,
) -> np.ndarray:
    """Evaluate one acquisition, or several arms', on posterior marginals.

    With one spec, ``mean`` and ``sigma`` are 1-d arrays of marginals.  With
    a sequence of specs, they hold every arm's rows stacked arm by arm,
    ``counts[arm]`` rows each (0 for an arm with none), the shape that a
    lockstep ``maximize`` hands its objective.  ``spec`` may also be the
    :class:`AcquisitionRows` of the arms, built once by
    :func:`acquisition_rows` for calls that share an incumbent and t; the
    call is then the same pass without the per-arm set-up.  All rows are
    evaluated in one vectorized pass with per-row margins and UCB
    coefficients:

    - PI: Phi((mean - incumbent - xi) / sigma), or [gap > 0] where sigma = 0;
    - EI: gap Phi(z) + sigma phi(z), 0 where sigma = 0, clamped at 0;
    - UCB: mean + sqrt(nu * beta_t) * sigma.

    Every row goes through the same elementwise float operations as a call
    on that arm's rows alone, so splitting or stacking the arms never
    changes a bit of the result.
    """
    rows = spec if isinstance(spec, AcquisitionRows) else acquisition_rows(
        spec, incumbent, t, schedule
    )
    mean = np.asarray(mean, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if counts is None:
        if rows.table.shape[1] != 1:
            raise ValueError("several specs need the row count of each")
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
