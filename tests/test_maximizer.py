import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from gphedge.gp import NumericsError
from gphedge.maximizer import (
    BoxDomain,
    MaximizerConfig,
    _direct_search,
    _potentially_optimal,
    latin_hypercube,
    maximize,
    unit_box,
)
from gphedge.objectives import branin


def _direct_samples(fn, dimension, budget):
    """Centers and values of a one-arm DIRECT search of ``fn``."""
    [samples] = _direct_search(lambda u, counts: fn(u), dimension, np.array([budget]))
    return samples


def _stacked(fns):
    """A lockstep function: each arm's rows go to that arm's own function."""

    def f(points, counts):
        bounds = np.cumsum(counts)
        return np.concatenate(
            [fn(points[b - c : b]) for fn, c, b in zip(fns, counts, bounds) if c]
        )

    return f


def _select(measures, values):
    """``_potentially_optimal`` for the rectangles of one arm."""
    classes, ranks = np.unique(measures, return_inverse=True)
    arms = np.zeros(len(values), dtype=np.intp)
    return list(_potentially_optimal(arms, ranks, classes, values, 1))


def test_box_validation():
    with pytest.raises(ValueError):
        BoxDomain([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        BoxDomain([0.0], [np.inf])
    box = BoxDomain([-1.0, 2.0], [1.0, 4.0])
    assert box.dimension == 2
    unit = (np.array([0.5, 3.0]) - box.lower) / box.span
    assert np.allclose(box.from_unit(unit), [0.5, 3.0])


def test_config_validation():
    with pytest.raises(ValueError):
        MaximizerConfig(direct_budget=0)
    with pytest.raises(ValueError):
        MaximizerConfig(multistart_count=0)
    with pytest.raises(ValueError):
        MaximizerConfig(local_steps=0)


def test_finds_smooth_unique_maximum():
    def f(x):
        return -np.sum((x - 0.5) ** 2, axis=1)

    point, value = maximize(f, unit_box(2), MaximizerConfig(direct_budget=300))
    assert np.linalg.norm(point - 0.5) < 1e-3
    assert value <= 0.0


def test_constant_function_returns_a_domain_point():
    box = BoxDomain([-2.0, 1.0], [3.0, 2.0])
    point, value = maximize(
        lambda x: np.full(len(x), 4.25), box, MaximizerConfig(direct_budget=50)
    )
    assert value == 4.25
    assert np.all((point >= box.lower - 1e-9) & (point <= box.upper + 1e-9))


def test_negated_branin_matches_random_search_oracle():
    spec = branin()
    point, value = maximize(spec.evaluate, spec.domain)
    rng = np.random.default_rng(123)
    probes = spec.domain.from_unit(rng.random((10**6, 2)))
    oracle = float(spec.evaluate(probes).max())
    assert value >= oracle - 1e-2
    assert abs(value - spec.known_optimum) < 1e-2


def test_never_leaves_the_box():
    box = BoxDomain([0.0, -1.0], [2.0, 1.0])

    def toward_corner(x):
        return np.sum(x, axis=1)

    point, _ = maximize(toward_corner, box, MaximizerConfig(direct_budget=200))
    assert np.all((point >= box.lower - 1e-9) & (point <= box.upper + 1e-9))
    assert np.allclose(point, box.upper, atol=1e-2)


def test_direct_phase_budget_is_monotone():
    def spiky(u):
        return -(
            np.sin(7 * u[:, 0]) * np.cos(9 * u[:, 1])
            + 0.5 * np.sin(31 * u[:, 0] * u[:, 1])
        )

    bests = []
    for budget in (40, 80, 160, 320, 640):
        _, values = _direct_samples(spiky, 2, budget)
        bests.append(values.min())
    assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))


def test_random_quadratic_bowls_reach_analytic_optimum():
    rng = np.random.default_rng(42)
    for _ in range(20):
        d = int(rng.integers(1, 7))
        center = rng.uniform(0.2, 0.8, size=d)
        weights = rng.uniform(0.5, 4.0, size=d)
        offset = float(rng.uniform(-2.0, 2.0))

        def bowl(x, c=center, w=weights, o=offset):
            return o - np.sum(w * (x - c) ** 2, axis=1)

        _, value = maximize(bowl, unit_box(d), MaximizerConfig(seed=int(rng.integers(1 << 30))))
        assert abs(value - offset) < 1e-3


def test_deterministic_given_seed():
    def wiggly(x):
        return np.sin(5 * x[:, 0]) + np.cos(3 * x[:, 1]) + 0.1 * x[:, 0] * x[:, 1]

    config = MaximizerConfig(direct_budget=150, multistart_count=6, seed=9)
    p1, v1 = maximize(wiggly, unit_box(2), config)
    p2, v2 = maximize(wiggly, unit_box(2), config)
    assert np.array_equal(p1, p2)
    assert v1 == v2


def test_nonfinite_objective_raises_naming_the_point():
    def bad(x):
        values = np.sum(x, axis=1)
        values[x[:, 0] > 0.9] = np.nan
        return values

    with pytest.raises(NumericsError, match="arm 0 returned a non-finite value at"):
        maximize(bad, unit_box(2), MaximizerConfig(direct_budget=200))


def test_nonfinite_value_names_its_arm():
    def bad(x):
        return np.where(x[:, 0] > 0.9, np.nan, np.sum(x, axis=1))

    fns = [lambda x: np.sum(x, axis=1)] * 2 + [bad, lambda x: -np.sum(x, axis=1)]
    configs = [MaximizerConfig(direct_budget=200)] * 4
    with pytest.raises(NumericsError, match="arm 2 returned a non-finite value at"):
        maximize(_stacked(fns), unit_box(2), configs)


def test_tie_break_is_lexicographic():
    # Plateau objective: every candidate evaluates equal, so the returned
    # point must be the lexicographically smallest candidate seen.
    def flat(x):
        return np.zeros(len(x))

    config = MaximizerConfig(direct_budget=60, multistart_count=3, seed=1)
    point, _ = maximize(flat, unit_box(2), config)
    again, _ = maximize(flat, unit_box(2), config)
    assert np.array_equal(point, again)


def test_latin_hypercube_covers_each_slab():
    rng = np.random.default_rng(0)
    u = latin_hypercube(25, 3, rng)
    assert u.shape == (25, 3)
    assert np.all((u >= 0.0) & (u < 1.0))
    for j in range(3):
        assert np.all(np.histogram(u[:, j], bins=25, range=(0.0, 1.0))[0] == 1)


def test_value_beats_direct_samples_and_scipy_local_refinement():
    spec = branin()

    def f(x):
        return spec.evaluate(x)

    config = MaximizerConfig(direct_budget=400, multistart_count=8, seed=2)
    point, value = maximize(f, spec.domain, config)
    # Local refinement from the returned point cannot find much more.
    refined = scipy_minimize(
        lambda z: -float(spec.evaluate(np.clip(z, spec.domain.lower, spec.domain.upper))),
        point,
        method="Nelder-Mead",
    )
    assert value >= -refined.fun - 1e-2


# Oracle functions for the frozen DIRECT samples.  They use only + - * /,
# abs and floor, which are exact or correctly rounded everywhere; NumPy's
# SIMD sin/cos/exp differ between CPUs and would make the frozen data
# machine-specific.  Columns are summed one at a time for the same reason.
def _staircase(u):
    total = np.zeros(u.shape[0])
    for j in range(u.shape[1]):
        total = total + np.floor((j + 3) * u[:, j]) / (j + 3)
    return total


def _constant(u):
    return np.full(u.shape[0], 1.25)


def _quadratic(u):
    total = np.zeros(u.shape[0])
    for j in range(u.shape[1]):
        c = 0.2 + 0.15 * j
        total = total + (j + 1) * (u[:, j] - c) * (u[:, j] - c)
    return total


def _valley(u):
    total = np.zeros(u.shape[0])
    for j in range(u.shape[1]):
        total = total + abs(u[:, j] - 0.61) / (j + 1) - 0.25 * np.floor(2 * u[:, j])
    return total


DIRECT_ORACLE = Path(__file__).with_name("direct_oracle.json")
ORACLE_FUNCTIONS = {
    "staircase": _staircase,
    "constant": _constant,
    "quadratic": _quadratic,
    "valley": _valley,
}
ORACLE_BUDGETS = {1: 30, 2: 80, 3: 100, 5: 150}


def direct_oracle_samples() -> dict:
    """Every (function, dimension) case's DIRECT centers and values."""
    cases = {}
    for name, fn in ORACLE_FUNCTIONS.items():
        for d, budget in ORACLE_BUDGETS.items():
            centers, values = _direct_samples(fn, d, budget)
            cases[f"{name}-{d}"] = {
                "centers": centers.tolist(),
                "values": values.tolist(),
            }
    return cases


def test_direct_samples_match_frozen_oracle():
    expected = json.loads(DIRECT_ORACLE.read_text())
    actual = direct_oracle_samples()
    assert actual.keys() == expected.keys()
    for key, case in expected.items():
        assert actual[key]["values"] == case["values"], key
        assert actual[key]["centers"] == case["centers"], key


def test_potentially_optimal_single_class_picks_its_lowest_value():
    measures = np.full(4, 0.5)
    values = np.array([3.0, 1.0, 2.0, 1.0])
    assert _select(measures, values) == [1]


def test_potentially_optimal_all_values_equal():
    # A flat envelope through every class: all but the largest class reach
    # the best value, which the relative margin rules out.
    measures = np.array([0.1, 0.3, 0.3, 0.2, 0.1])
    values = np.full(5, 2.0)
    assert _select(measures, values) == [1]


def test_potentially_optimal_best_zero_has_no_relative_margin():
    # The margin is eps*|best|: at best == 0 it vanishes, so a class whose
    # envelope passes exactly through the best value is kept.
    measures = np.array([0.1, 0.2])
    assert _select(measures, np.zeros(2)) == [0, 1]
    assert _select(measures, np.full(2, -1.0)) == [1]


def test_potentially_optimal_equal_values_across_classes_ties_to_lowest_index():
    measures = np.array([0.2, 0.1, 0.2, 0.1, 0.4])
    values = np.array([-1.0, -2.0, -1.0, -2.0, -1.0])
    assert _select(measures, values) == [1, 4]


def test_potentially_optimal_selects_each_arm_on_its_own():
    # Three arms' rectangles interleaved, some classes missing from an arm:
    # the joint selection is each arm's own selection, arm by arm.
    rng = np.random.default_rng(5)
    measures = rng.choice([0.1, 0.2, 0.3, 0.4, 0.5], size=60)
    values = rng.integers(0, 6, size=60).astype(float)
    arms = rng.integers(0, 3, size=60)
    arms[(arms == 2) & (measures == 0.3)] = 1
    classes, ranks = np.unique(measures, return_inverse=True)
    expected = []
    for arm in range(3):
        rows = np.flatnonzero(arms == arm)
        expected += [int(rows[i]) for i in _select(measures[rows], values[rows])]
    assert list(_potentially_optimal(arms, ranks, classes, values, 3)) == expected


@pytest.mark.parametrize("k", [1, 3, 9])
def test_lockstep_arms_match_their_one_arm_runs(k):
    # Different functions and budgets make the arms stop on different
    # sweeps; the last arm's budget of one sample means it never sweeps.
    d = 3
    names = sorted(ORACLE_FUNCTIONS)
    fns = [ORACLE_FUNCTIONS[names[i % len(names)]] for i in range(k)]
    budgets = [60 + 23 * i for i in range(k - 1)] + [1 if k > 1 else 90]
    configs = [
        MaximizerConfig(
            direct_budget=b, multistart_count=1 + i % 4, local_steps=4 + 5 * i, seed=i
        )
        for i, b in enumerate(budgets)
    ]
    stacked = _direct_search(_stacked(fns), d, np.array(budgets))
    box = BoxDomain([-1.0, 0.0, 2.0], [1.0, 0.5, 5.0])
    points, values = maximize(_stacked(fns), box, configs)
    for i, fn in enumerate(fns):
        centers, samples = _direct_samples(fn, d, budgets[i])
        assert np.array_equal(stacked[i][0], centers)
        assert np.array_equal(stacked[i][1], samples)
        point, value = maximize(fn, box, configs[i])
        assert np.array_equal(points[i], point)
        assert values[i] == value
