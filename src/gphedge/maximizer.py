"""Global maximization of cheap functions over a box, one arm or several.

Two deterministic phases: dividing-rectangles search (potentially-optimal
selection by the Lipschitz-envelope criterion) followed by multistart
pattern search with a shrinking step, seeded from the best rectangles plus
random restarts.  Functions are evaluated on row-stacked batches,
``f(points (n, d)) -> values (n,)``, so GP-backed objectives stay vectorized.
A portfolio's arms run in lockstep: their rectangles and starts share one
array state, and each sweep sends every arm's probes to one call.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .gp import NumericsError

_ENVELOPE_EPS = 1e-4
_MIN_STEP = 1e-12
_PAIR_SIGNS = np.array([-1.0, 1.0])  # the lower probe of a pair, then the upper


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

    def __reduce__(self):
        # Unpickle through __post_init__, so the copy's bounds are read-only too.
        return BoxDomain, (self.lower, self.upper)

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    def from_unit(self, u) -> np.ndarray:
        return self.lower + np.asarray(u, dtype=float) * self.span


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


def _potentially_optimal(arms, sums, values, n_arms, dimension):
    """Per arm, one rectangle per measure class on the lower Lipschitz envelope.

    Rectangle r belongs to arm ``arms[r]`` and to the class of its level sum
    ``sums[r]`` at ``dimension``.  The class axis runs over top - S, top
    being the largest sum passed in, so in increasing order of measure; a
    class that an arm lacks, or that no rectangle holds, has value +inf for
    that arm.  The measures and the other per-class constants come from
    :func:`_class_table`.  Each (arm, class) is represented by its lowest
    value, ties going to the lowest index.  Within an arm, class i is kept
    when k_lo <= k_hi, where k_lo is the steepest slope from a smaller class
    of that arm (0 for its smallest) and k_hi the shallowest slope to a
    larger one, and when its envelope intercept at slope k_hi lies at least
    eps*|best| below the arm's best value.  The result is arm by arm, each
    in increasing order of measure.
    """
    n = values.size
    top = int(np.maximum.reduce(sums))
    size = top - int(np.minimum.reduce(sums)) + 1
    measures, gaps, unused, unused_below = _class_table(top, size, dimension)
    group = arms * size + (top - sums)
    rep_vals = np.empty(n_arms * size)
    rep_vals.fill(math.inf)
    np.minimum.at(rep_vals, group, values)
    at_min = (values == rep_vals[group]).nonzero()[0]
    reps = np.empty(n_arms * size, dtype=np.intp)
    reps.fill(n)
    np.minimum.at(reps, group[at_min], at_min)
    reps = reps.reshape(n_arms, -1)
    rep_vals = rep_vals.reshape(n_arms, -1)
    present = reps < n
    # slopes[i, a, j] = (f_i - f_j) / (d_i - d_j) of arm a, used only for
    # j < i: -inf from a class the arm lacks and +inf to one.  k_hi reduces
    # over i and k_lo, from a transposed copy, over j: both along the outer
    # axis, which NumPy reduces fastest.
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = np.subtract(rep_vals.T[:, :, None], rep_vals, order="C")
        slopes /= gaps
        from_below = slopes.transpose(2, 1, 0).copy()
        np.copyto(slopes, math.inf, where=unused)
        k_hi = np.minimum.reduce(slopes)
        np.copyto(from_below, -math.inf, where=unused_below)
        k_lo = np.maximum.reduce(from_below)
        # An arm's smallest class is the one with no finite slope from below.
        np.copyto(k_lo, 0.0, where=k_lo == -math.inf)
        best = np.minimum.reduce(rep_vals, axis=1, keepdims=True)
        # Where k_hi = +inf the intercept is -inf, below any margin.
        intercept = rep_vals - k_hi * measures
        keep = present & (k_lo <= k_hi) & (intercept <= best - _ENVELOPE_EPS * abs(best))
    return reps[keep]


@functools.lru_cache(maxsize=256)
def _class_table(top: int, size: int, dimension: int):
    """Read-only constants of the classes of level sums top, top-1, ...,
    top-size+1 at ``dimension``: the measures, their (size, 1, size)
    differences d_i - d_j, and the masks of the class pairs (i, j) with
    j >= i, in the layout of the slopes and of their transpose.

    A rectangle's sides sit at levels {L, L+1}, so its level sum S fixes
    the multiset: L = S // d, with S % d sides at L+1.  The measure is taken
    from those canonical levels, the L+1 sides first, so every arrangement
    of one multiset has one measure.
    """
    sums = top - np.arange(size)
    low, high = np.divmod(sums, dimension)
    levels = low[:, None] + (np.arange(dimension) < high[:, None])
    measures = _half_diagonal(levels)
    gaps = (measures[:, None] - measures)[:, None, :]
    unused = ~np.tri(size, k=-1, dtype=bool)[:, None, :]
    unused_below = unused.transpose(2, 1, 0).copy()
    table = (measures, gaps, unused, unused_below)
    for array in table:
        array.flags.writeable = False
    return table


def _half_diagonal(levels: np.ndarray) -> np.ndarray:
    """Half the diagonal of rectangles trisected ``levels`` times per side."""
    sides = 3.0 ** -levels
    return 0.5 * np.sqrt((sides * sides).sum(axis=1))


def _grown(array: np.ndarray, capacity: int) -> np.ndarray:
    out = np.empty((capacity,) + array.shape[1:], dtype=array.dtype)
    out[: array.shape[0]] = array
    return out


def _direct_search(g, dimension: int, budgets: np.ndarray) -> list:
    """Rectangle division over the unit cube for k arms in lockstep.

    Returns each arm's samples as (centers, values).  Rectangles are tracked
    as (center, per-dimension trisection level); the measure is the
    half-diagonal.  A sweep splits, for every arm still searching, one
    potentially-optimal rectangle per measure class, trisecting along every
    longest dimension in order of the best probe values.  An arm's sweep in
    progress always completes, so a larger budget strictly extends a smaller
    one; an arm stops once it holds ``budgets[arm]`` samples.  Every sweep
    selects at least the largest class of each arm, which has no slope to a
    larger one, so an arm never stalls.

    All arms' rectangles live in one set of arrays that double when full,
    with an arm column; an arm's rectangles keep its own order of creation,
    and a stopped arm's are moved out.  Each rectangle also holds its level
    sum, which is its measure class: its sides sit at two adjacent levels,
    so the sum fixes its levels up to order, and a larger sum is a smaller
    measure.  A split sets the sums of the rectangles it makes.  A sweep's
    probes go to ``g(points, counts)`` as one batch, arm by arm with
    ``counts[arm]`` rows each; within an arm, rectangle by rectangle in
    increasing measure and, within one, by ascending dimension, the lower
    point of each pair first.  New rectangles are appended in split order.
    """
    k = budgets.size
    capacity = int(budgets.sum()) + 2 * dimension * k
    centers = np.empty((capacity, dimension))
    levels = np.empty((capacity, dimension), dtype=int)
    values = np.empty(capacity)
    sums = np.empty(capacity, dtype=np.intp)
    arms = np.empty(capacity, dtype=np.intp)
    centers[:k] = 0.5
    levels[:k] = 0
    sums[:k] = 0
    arms[:k] = np.arange(k)
    values[:k] = g(centers[:k], np.ones(k, dtype=int))
    sizes = np.ones(k, dtype=int)
    searching = np.ones(k, dtype=bool)
    samples = [None] * k
    n = k
    while True:
        stopped = searching & (sizes >= budgets)
        if np.logical_or.reduce(stopped):
            searching &= ~stopped
            owner = arms[:n]
            for arm in stopped.nonzero()[0]:
                rows = (owner == arm).nonzero()[0]
                samples[arm] = (centers[rows], values[rows])
            keep = searching[owner]
            n = int(np.count_nonzero(keep))
            for array in (centers, levels, values, sums, arms):
                array[:n] = array[: keep.size][keep]
            if n == 0:
                return samples
        selected = _potentially_optimal(arms[:n], sums[:n], values[:n], k, dimension)
        lev = levels[selected]
        shortest = np.minimum.reduce(lev, axis=1)
        longest = lev == shortest[:, None]
        counts = np.add.reduce(longest, axis=1)
        rect, dim = longest.nonzero()
        pairs = np.arange(rect.size)
        pair_arms = arms[selected][rect]
        probes = centers[selected].repeat(2 * counts, axis=0)
        offsets = np.multiply.outer(3.0 ** (-1 - shortest[rect]), _PAIR_SIGNS)
        probes.reshape(-1, 2, dimension)[pairs, :, dim] += offsets
        probed = 2 * np.bincount(pair_arms, minlength=k)
        probe_vals = g(probes, probed)

        # Split each rectangle along its dimensions in order of the pair's
        # better value (ties by dimension).  A rectangle's pairs stay
        # together in that order, so rect[split] == rect.  The q-th pair has
        # split its rectangle's dimensions up to its own: its two new
        # rectangles have those levels, and the rectangle itself those of
        # its last pair.
        split = np.lexsort((np.minimum(probe_vals[0::2], probe_vals[1::2]), rect))
        position = np.empty_like(pairs)
        position[split] = pairs
        order = np.empty_like(lev)
        order.fill(rect.size)
        order[rect, dim] = position
        pair_levels = lev[rect] + (order[rect] <= pairs[:, None])
        last = counts.cumsum() - 1
        levels[selected] = pair_levels[last]

        count = 2 * rect.size
        if n + count > capacity:
            capacity = 2 * (n + count)
            centers, levels, values, sums, arms = (
                _grown(a, capacity) for a in (centers, levels, values, sums, arms)
            )
        new = slice(n, n + count)
        centers[new] = probes.reshape(-1, 2, dimension)[split].reshape(-1, dimension)
        values[new] = probe_vals.reshape(-1, 2)[split].reshape(-1)
        levels[new] = pair_levels.repeat(2, axis=0)
        arms[new] = pair_arms.repeat(2)
        pair_sums = np.add.reduce(pair_levels, axis=1)
        sums[selected] = pair_sums[last]
        sums[new] = pair_sums.repeat(2)
        n += count
        sizes += probed


def _pattern_search(g, starts: np.ndarray, owners: np.ndarray, steps: np.ndarray):
    """Coordinate pattern search with a halving step, every start in lockstep.

    Start s belongs to arm ``owners[s]``, arm by arm.  An arm's starts take
    at most ``steps[arm]`` steps and stop together once every one of their
    steps is below ``_MIN_STEP``, as that arm searching alone would.  The
    starts still moving are kept in compact arrays, rebuilt when an arm
    stops.
    """
    k = steps.size
    n, dimension = starts.shape
    out_x = starts.copy()
    out_f = g(out_x, np.bincount(owners, minlength=k))
    rows = at = np.arange(n)
    x, fx, owner = out_x, out_f, owners
    step = np.full(n, 0.25)
    counts = 2 * dimension * np.bincount(owner, minlength=k)
    eye = np.eye(dimension)
    moves = np.concatenate([eye, -eye], axis=0)
    limits = set(steps.tolist())
    for taken in range(int(steps.max())):
        # An arm can only stop at its step limit or once a step is tiny.
        if taken in limits or np.minimum.reduce(step) < _MIN_STEP:
            moving = np.zeros(k, dtype=bool)
            moving[owner[step >= _MIN_STEP]] = True
            moving &= steps > taken
            keep = moving[owner]
            if not keep.all():
                out_x[rows], out_f[rows] = x, fx
                rows, x, fx, owner, step = (
                    a[keep] for a in (rows, x, fx, owner, step)
                )
                if rows.size == 0:
                    break
                at = np.arange(rows.size)
                counts = 2 * dimension * np.bincount(owner, minlength=k)
        probes = x[:, None, :] + step[:, None, None] * moves
        np.maximum(probes, 0.0, out=probes)
        np.minimum(probes, 1.0, out=probes)
        vals = g(probes.reshape(-1, dimension), counts).reshape(rows.size, -1)
        best = vals.argmin(axis=1)
        best_val = vals[at, best]
        improved = best_val < fx
        x = np.where(improved[:, None], probes[at, best], x)
        fx = np.where(improved, best_val, fx)
        step = np.where(improved, step, 0.5 * step)
    out_x[rows], out_f[rows] = x, fx
    return out_x, out_f


def _lexicographic_best(points: np.ndarray, values: np.ndarray) -> int:
    """Index of the minimum value; exact ties go to the smallest point."""
    best = values.min()
    ties = (values == best).nonzero()[0]
    if ties.size == 1:
        return int(ties[0])
    order = np.lexsort(points[ties].T[::-1])
    return int(ties[order[0]])


def maximize(
    f,
    domain: BoxDomain,
    config: MaximizerConfig | Sequence[MaximizerConfig] = MaximizerConfig(),
):
    """Best point and value of ``f`` over the box, for one arm or several.

    With one ``MaximizerConfig``, ``f`` maps a batch of points (n, d) to
    values (n,) and the result is (point, value).  With a sequence of
    configs, one per arm, the arms run in lockstep: ``f(points, counts)``
    gets the points of every arm still searching stacked arm by arm,
    ``counts[arm]`` rows each (0 once the arm is done), and returns their
    values; the result is the arms' points (k, d) and values (k,).  Either
    way an arm's probe batches, and so its result, are those it gets alone.
    Each result is deterministic given its config's seed, never leaves the
    box and is at least as good as every rectangle sample and every refined
    start of its arm.
    """
    if isinstance(config, MaximizerConfig):
        points, values = maximize(lambda x, counts: f(x), domain, (config,))
        return points[0], float(values[0])
    configs = tuple(config)
    dimension = domain.dimension
    lower, span = domain.lower, domain.span

    def g(u: np.ndarray, counts: np.ndarray) -> np.ndarray:
        x = lower + u * span
        vals = np.asarray(f(x, counts), dtype=float).reshape(u.shape[0])
        finite = np.isfinite(vals)
        if not np.logical_and.reduce(finite):
            row = int(np.argmin(finite))
            arm = int(np.searchsorted(np.cumsum(counts), row, side="right"))
            raise NumericsError(f"arm {arm} returned a non-finite value at {x[row]}")
        return -vals

    budgets = np.array([c.direct_budget or 500 * dimension for c in configs])
    samples = _direct_search(g, dimension, budgets)
    starts, owners = [], []
    for arm, (c, (centers, values)) in enumerate(zip(configs, samples)):
        order = np.argsort(values, kind="stable")
        n_seed = min(max(c.multistart_count // 2, 1), centers.shape[0])
        mine = centers[order[:n_seed]]
        if c.multistart_count > n_seed:
            rng = np.random.default_rng(c.seed)
            extra = rng.random((c.multistart_count - n_seed, dimension))
            mine = np.vstack([mine, extra])
        starts.append(mine)
        owners.append(np.full(mine.shape[0], arm))
    owners = np.concatenate(owners)
    steps = np.array([c.local_steps for c in configs])
    refined, refined_vals = _pattern_search(g, np.vstack(starts), owners, steps)
    points = np.empty((len(configs), dimension))
    best = np.empty(len(configs))
    for arm, (centers, values) in enumerate(samples):
        mine = owners == arm
        all_points = np.vstack([centers, refined[mine]])
        all_values = np.concatenate([values, refined_vals[mine]])
        pick = _lexicographic_best(all_points, all_values)
        points[arm] = lower + np.clip(all_points[pick], 0.0, 1.0) * span
        best[arm] = -all_values[pick]
    return points, best
