"""Global maximization of a cheap function over a box.

Two deterministic phases: dividing-rectangles search (potentially-optimal
selection by the Lipschitz-envelope criterion) followed by multistart
pattern search with a shrinking step, seeded from the best rectangles plus
random restarts.  Functions are evaluated on row-stacked batches,
``f(points (n, d)) -> values (n,)``, so GP-backed objectives stay vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gp import NumericsError

_ENVELOPE_EPS = 1e-4
_MIN_STEP = 1e-12


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box with strictly ordered bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be 1-d vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("every lower bound must be below its upper bound")
        lo = lo.copy()
        hi = hi.copy()
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    def clip(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def to_unit(self, x) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.lower) / self.span

    def from_unit(self, u) -> np.ndarray:
        return self.lower + np.asarray(u, dtype=float) * self.span

    def contains(self, x, atol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(
            np.all(x >= self.lower - atol) and np.all(x <= self.upper + atol)
        )


def unit_box(dimension: int) -> BoxDomain:
    return BoxDomain(np.zeros(dimension), np.ones(dimension))


@dataclass(frozen=True)
class MaximizerConfig:
    """Budgets for the two phases.  ``direct_budget=None`` means 500 per dim."""

    direct_budget: int | None = None
    multistart_count: int = 10
    local_steps: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.direct_budget is not None and self.direct_budget < 1:
            raise ValueError("direct_budget must be positive")
        if self.multistart_count < 1 or self.local_steps < 1:
            raise ValueError("all budgets must be positive")


def latin_hypercube(count: int, dimension: int, rng: np.random.Generator) -> np.ndarray:
    """Stratified points in the unit cube: one sample per axis-aligned slab."""
    u = np.empty((count, dimension))
    for j in range(dimension):
        u[:, j] = (rng.permutation(count) + rng.random(count)) / count
    return u


def grid_candidates(domain: BoxDomain, count: int, seed: int) -> np.ndarray:
    """Deterministic stratified candidate grid covering the box."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    return domain.from_unit(latin_hypercube(count, domain.dimension, rng))


def _potentially_optimal(measures, values, best):
    """Indices of one rectangle per measure class on the lower Lipschitz envelope.

    Each class is represented by its lowest value, ties going to the lowest
    index.  Class i is kept when k_lo <= k_hi, where k_lo is the steepest
    slope from a smaller class (0 for the smallest) and k_hi the shallowest
    slope to a larger one, and when its envelope intercept at slope k_hi
    lies at least eps*|best| below ``best``.  The result is in increasing
    order of measure.
    """
    classes = np.unique(measures)
    members = np.searchsorted(classes, measures)
    class_min = np.full(classes.size, math.inf)
    np.minimum.at(class_min, members, values)
    at_min = np.flatnonzero(values == class_min[members])
    reps = np.full(classes.size, measures.size)
    np.minimum.at(reps, members[at_min], at_min)
    rep_vals = values[reps]
    # slopes[i, j] = (f_i - f_j) / (d_i - d_j), used only for j < i.
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = (rep_vals[:, None] - rep_vals) / (classes[:, None] - classes)
    below = np.tri(classes.size, k=-1, dtype=bool)
    k_lo = np.max(np.where(below, slopes, -math.inf), axis=1)
    k_lo[0] = 0.0
    k_hi = np.min(np.where(below, slopes, math.inf), axis=0)
    intercept = rep_vals - k_hi * classes
    keep = ~(k_lo > k_hi) & ~(
        np.isfinite(k_hi) & (intercept > best - _ENVELOPE_EPS * abs(best))
    )
    return reps[keep]


def _half_diagonal(levels: np.ndarray) -> np.ndarray:
    """Half the diagonal of rectangles trisected ``levels`` times per side."""
    return 0.5 * np.linalg.norm(3.0 ** (-levels.astype(float)), axis=1)


def _grown(array: np.ndarray, capacity: int) -> np.ndarray:
    out = np.empty((capacity,) + array.shape[1:], dtype=array.dtype)
    out[: array.shape[0]] = array
    return out


def _direct_minimize(g, dimension: int, budget: int):
    """Deterministic rectangle division over the unit cube; returns all samples.

    Rectangles are tracked as (center, per-dimension trisection level); the
    measure is the half-diagonal.  A sweep splits one potentially-optimal
    rectangle per measure class, trisecting along every longest dimension in
    order of the best probe values.  The sweep in progress always completes,
    so a larger budget strictly extends a smaller one.

    Rectangles live in arrays that double when full; a measure is computed
    when its rectangle's levels change.  A sweep's probes go to ``g`` as one
    batch, rectangle by rectangle in increasing measure and, within one, by
    ascending dimension, the lower point of each pair first.  New rectangles
    are appended in split order.
    """
    capacity = budget + 2 * dimension
    centers = np.empty((capacity, dimension))
    levels = np.empty((capacity, dimension), dtype=int)
    values = np.empty(capacity)
    measures = np.empty(capacity)
    centers[0] = 0.5
    levels[0] = 0
    values[0] = float(g(centers[:1])[0])
    measures[:1] = _half_diagonal(levels[:1])
    n = 1
    while n < budget:
        selected = _potentially_optimal(measures[:n], values[:n], values[:n].min())
        if selected.size == 0:
            break
        lev = levels[selected]
        shortest = lev.min(axis=1)
        longest = lev == shortest[:, None]
        counts = longest.sum(axis=1)
        rect, dim = np.nonzero(longest)
        pairs = np.arange(rect.size)
        probes = np.repeat(centers[selected], 2 * counts, axis=0)
        delta = (3.0 ** (-(shortest + 1)))[rect]
        probes[2 * pairs, dim] -= delta
        probes[2 * pairs + 1, dim] += delta
        probe_vals = g(probes)

        # Split each rectangle along its dimensions in order of the pair's
        # better value (ties by dimension); each new pair of rectangles has
        # the levels reached right after its own split.
        split = np.lexsort((np.minimum(probe_vals[0::2], probe_vals[1::2]), rect))
        steps = np.zeros((rect.size, dimension), dtype=int)
        steps[pairs, dim[split]] = 1
        reached = np.cumsum(steps, axis=0)
        starts = np.cumsum(counts) - counts
        reached -= np.repeat(reached[starts] - steps[starts], counts, axis=0)
        levels[selected] = lev + longest
        measures[selected] = _half_diagonal(levels[selected])

        count = 2 * rect.size
        if n + count > capacity:
            capacity = 2 * (n + count)
            centers, levels, values, measures = (
                _grown(a, capacity) for a in (centers, levels, values, measures)
            )
        take = np.repeat(2 * split, 2)
        take[1::2] += 1
        new = slice(n, n + count)
        centers[new] = probes[take]
        values[new] = probe_vals[take]
        levels[new] = np.repeat(np.repeat(lev, counts, axis=0) + reached, 2, axis=0)
        measures[new] = _half_diagonal(levels[new])
        n += count
    return centers[:n], values[:n]


def _pattern_search(g, starts: np.ndarray, steps: int):
    """Coordinate pattern search with a halving step, all starts in lockstep."""
    n, dimension = starts.shape
    x = starts.copy()
    fx = g(x)
    step = np.full(n, 0.25)
    eye = np.eye(dimension)
    for _ in range(steps):
        if np.all(step < _MIN_STEP):
            break
        moves = np.concatenate([eye, -eye], axis=0)
        probes = x[:, None, :] + step[:, None, None] * moves[None, :, :]
        np.clip(probes, 0.0, 1.0, out=probes)
        vals = g(probes.reshape(-1, dimension)).reshape(n, 2 * dimension)
        best_idx = np.argmin(vals, axis=1)
        best_val = vals[np.arange(n), best_idx]
        improved = best_val < fx
        x[improved] = probes[improved, best_idx[improved]]
        fx[improved] = best_val[improved]
        step[~improved] *= 0.5
    return x, fx


def _lexicographic_best(points: np.ndarray, values: np.ndarray) -> int:
    """Index of the minimum value; exact ties go to the smallest point."""
    best = values.min()
    ties = np.flatnonzero(values == best)
    if ties.size == 1:
        return int(ties[0])
    order = np.lexsort(points[ties].T[::-1])
    return int(ties[order[0]])


def maximize(
    f, domain: BoxDomain, config: MaximizerConfig = MaximizerConfig()
) -> tuple[np.ndarray, float]:
    """Best point and value of ``f`` over the box.

    ``f`` maps a batch of points (n, d) to values (n,).  The result is
    deterministic given ``config.seed`` and never leaves the box; it is at
    least as good as every rectangle sample and every refined start.
    """
    dimension = domain.dimension
    budget = config.direct_budget or 500 * dimension

    def g(u: np.ndarray) -> np.ndarray:
        x = domain.from_unit(u)
        vals = np.asarray(f(x), dtype=float).reshape(u.shape[0])
        finite = np.isfinite(vals)
        if not finite.all():
            offender = x[int(np.argmin(finite))]
            raise NumericsError(f"objective returned a non-finite value at {offender}")
        return -vals

    centers, values = _direct_minimize(g, dimension, budget)
    order = np.argsort(values, kind="stable")
    n_seed = min(max(config.multistart_count // 2, 1), centers.shape[0])
    starts = centers[order[:n_seed]]
    rng = np.random.default_rng(config.seed)
    if config.multistart_count > n_seed:
        extra = rng.random((config.multistart_count - n_seed, dimension))
        starts = np.vstack([starts, extra])
    refined, refined_vals = _pattern_search(g, starts, config.local_steps)
    all_points = np.vstack([centers, refined])
    all_values = np.concatenate([values, refined_vals])
    pick = _lexicographic_best(all_points, all_values)
    u = np.clip(all_points[pick], 0.0, 1.0)
    return domain.from_unit(u), float(-all_values[pick])
