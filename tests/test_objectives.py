import math
import pickle

import numpy as np
import pytest
from pytest import approx
from scipy.optimize import minimize as scipy_minimize

from gphedge.objectives import (
    BRANIN_ARGMIN,
    HARTMAN3_OPTIMUM,
    HARTMAN6_OPTIMUM,
    ObjectiveSpec,
    RepellerParams,
    _simulate,
    available,
    branin,
    hartman3,
    hartman6,
    load_synthetic,
    repeller_force,
    repeller_objective,
    repellers,
    resolve,
    sample_synthetic_objective,
    save_synthetic,
)


def brute_force_maximum(spec: ObjectiveSpec, samples: int, seed: int, refine: int = 10):
    """Random search plus local refinement, independent of the maximizer."""
    rng = np.random.default_rng(seed)
    best_val = -np.inf
    best_pts = []
    for _ in range(max(samples // 10**6, 1)):
        probes = spec.domain.from_unit(
            rng.random((min(samples, 10**6), spec.dimension))
        )
        values = spec.evaluate(probes)
        order = np.argsort(values)[-refine:]
        best_pts.extend(probes[order])
        best_val = max(best_val, float(values.max()))
    for start in best_pts:
        res = scipy_minimize(
            lambda z: -float(spec.evaluate(np.clip(z, spec.domain.lower, spec.domain.upper))),
            start,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12},
        )
        best_val = max(best_val, -float(res.fun))
    return best_val


def test_branin_known_minimizer():
    spec = branin()
    assert float(spec.evaluate(np.array([math.pi, 2.275]))) == approx(
        -0.397887, abs=1e-6
    )


def test_branin_three_optima_agree():
    spec = branin()
    values = [float(spec.evaluate(np.array(p))) for p in BRANIN_ARGMIN]
    assert max(values) - min(values) < 1e-6
    for v in values:
        assert v == approx(spec.known_optimum, abs=1e-6)


def test_branin_optimum_against_random_search_oracle():
    spec = branin()
    oracle = brute_force_maximum(spec, samples=10**7, seed=0)
    assert spec.known_optimum == approx(oracle, abs=1e-4)


def test_branin_rejects_out_of_box():
    spec = branin()
    with pytest.raises(ValueError):
        spec.evaluate(np.array([-6.0, 1.0]))
    with pytest.raises(ValueError):
        spec.evaluate(np.array([0.0, 15.5]))


@pytest.mark.parametrize(
    "factory,frozen",
    [(hartman3, HARTMAN3_OPTIMUM), (hartman6, HARTMAN6_OPTIMUM)],
)
def test_hartman_optima_against_multistart_oracle(factory, frozen):
    spec = factory()
    rng = np.random.default_rng(1)
    best = -np.inf
    for _ in range(60):
        res = scipy_minimize(
            lambda z: -float(spec.evaluate(np.clip(z, spec.domain.lower, spec.domain.upper))),
            rng.random(spec.dimension),
            method="L-BFGS-B",
            bounds=[(0.0, 1.0)] * spec.dimension,
        )
        best = max(best, -float(res.fun))
    assert frozen == approx(best, abs=1e-4)
    assert spec.known_optimum == frozen


def test_hartman_negation_convention():
    spec = hartman3()
    argmin = np.array([0.114614, 0.555649, 0.852547])  # classical minimizer
    assert float(spec.evaluate(argmin)) == approx(3.86278, abs=1e-4)
    with pytest.raises(ValueError):
        spec.evaluate(np.array([0.5, 0.5, 1.5]))


def test_known_optimum_dominates_probes():
    rng = np.random.default_rng(3)
    for spec in (branin(), hartman3(), hartman6()):
        probes = spec.domain.from_unit(rng.random((10_000, spec.dimension)))
        assert float(spec.evaluate(probes).max()) <= spec.known_optimum + 1e-6


def test_deterministic_benchmarks_are_pure():
    for spec in (branin(), hartman3(), hartman6()):
        x = spec.domain.from_unit(np.full(spec.dimension, 0.37))
        assert float(spec.evaluate(x)) == float(spec.evaluate(x))


def test_synthetic_interpolates_construction_targets():
    for d, seed in ((1, 4), (2, 7), (3, 11)):
        spec = sample_synthetic_objective(d, seed, locate_optimum=False)
        surface = spec.evaluate
        reproduced = surface(surface.points)
        assert np.max(np.abs(reproduced - surface.targets)) < 1e-4


def test_synthetic_same_seed_is_identical():
    a = sample_synthetic_objective(2, 5, locate_optimum=False)
    b = sample_synthetic_objective(2, 5, locate_optimum=False)
    probes = np.random.default_rng(0).random((100, 2))
    assert np.array_equal(a.evaluate(probes), b.evaluate(probes))
    c = sample_synthetic_objective(2, 6, locate_optimum=False)
    assert not np.array_equal(a.evaluate(probes), c.evaluate(probes))


def test_synthetic_passes_its_own_plateau_test():
    spec = sample_synthetic_objective(2, 9, locate_optimum=False)
    probes = np.random.default_rng(123).random((1000, 2))
    near_zero = np.mean(np.abs(spec.evaluate(probes)) < 1e-9)
    assert near_zero <= 25 / 500


def test_synthetic_values_are_bounded_by_targets():
    spec = sample_synthetic_objective(2, 13, locate_optimum=False)
    surface = spec.evaluate
    probes = np.random.default_rng(5).random((10_000, 2))
    assert np.max(np.abs(surface(probes))) <= 10.0 * np.max(np.abs(surface.targets))


def test_synthetic_optimum_location():
    spec = sample_synthetic_objective(2, 21)
    probes = np.random.default_rng(9).random((20_000, 2))
    assert spec.known_optimum >= float(spec.evaluate(probes).max()) - 1e-6


def test_synthetic_round_trip_through_file(tmp_path):
    spec = sample_synthetic_objective(2, 17, locate_optimum=True)
    path = tmp_path / "surface.npz"
    save_synthetic(spec, path)
    loaded = load_synthetic(path)
    probes = np.random.default_rng(2).random((200, 2))
    assert np.allclose(loaded.evaluate(probes), spec.evaluate(probes), atol=1e-12)
    assert loaded.known_optimum == approx(spec.known_optimum, abs=1e-12)
    assert loaded.name == spec.name
    with pytest.raises(TypeError):
        save_synthetic(branin(), tmp_path / "nope.npz")


def test_repeller_stationary_particle_collects_start_reward():
    params = RepellerParams(gravity=(0.0, 0.0), start_std=0.0, start_mean=(0.2, 0.2))
    x = np.zeros(params.dimension)
    x[1::3] = 0.5  # positions irrelevant at zero strength
    x[2::3] = 0.5
    value = repeller_objective(params, x, np.random.default_rng(0))
    start_reward = 1.0 + math.exp(
        -((0.6**2) + (0.2**2)) / (2 * params.goal_width**2)
    )
    assert value == approx((params.horizon + 1) * start_reward, rel=1e-9)


def test_repeller_force_is_linear_in_strength():
    params = RepellerParams()
    rng = np.random.default_rng(1)
    x = params.domain().from_unit(rng.random(params.dimension))
    doubled = x.copy()
    doubled[0::3] *= 2.0
    positions = rng.random((5, 2))
    base = repeller_force(params, x, positions)
    assert repeller_force(params, doubled, positions) == approx(2.0 * base, rel=1e-12)


def test_repeller_force_direction_is_away_from_repeller():
    params = RepellerParams(count=1)
    x = np.array([2.0, 0.5, 0.5])
    pos = np.array([[0.7, 0.5]])
    force = repeller_force(params, x, pos)[0]
    assert force[0] > 0.0 and force[1] == approx(0.0, abs=1e-12)
    # Inverse-distance magnitude: twice as far means half the force.
    far = repeller_force(params, x, np.array([[0.9, 0.5]]))[0]
    assert force[0] == approx(2.0 * far[0], rel=1e-12)


def test_repeller_friction_only_decay():
    params = RepellerParams(
        gravity=(0.0, 0.0), friction=0.2, start_std=0.0, start_velocity=(1.0, -0.5)
    )
    x = np.zeros(params.dimension)
    start = np.asarray(params.start_mean)
    total = _simulate(params, x, start[None, :])[0]
    # With no force but friction, v_k = v0 (1 - dt friction)^k and the
    # semi-implicit step gives p_n = p0 + dt v0 sum_{k=1..n} (1 - dt friction)^k.
    decay = (1.0 - params.dt * params.friction) ** np.arange(1, params.horizon + 1)
    steps = np.concatenate([[0.0], np.cumsum(decay)])
    positions = start + params.dt * np.outer(steps, params.start_velocity)
    expected = sum(
        np.exp(-np.sum((positions - goal) ** 2, axis=1) / (2.0 * params.goal_width**2))
        for goal in params.goals
    ).sum()
    assert total == approx(expected, rel=1e-12)


def test_repeller_objective_monte_carlo_stability():
    params = RepellerParams()
    x = params.domain().from_unit(np.full(params.dimension, 0.4))
    m = 10_000
    values = []
    spreads = []
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        starts = np.asarray(params.start_mean) + params.start_std * rng.standard_normal(
            (m, 2)
        )
        totals = _simulate(params, x, starts)
        values.append(float(totals.mean()))
        spreads.append(float(totals.std(ddof=1)))
    stderr = math.hypot(*spreads) / math.sqrt(m)
    assert abs(values[0] - values[1]) <= 3 * stderr


def test_repeller_objective_mean_of_rollouts():
    params = RepellerParams(horizon=20)
    x = params.domain().from_unit(np.full(params.dimension, 0.6))
    value = repeller_objective(params, x, np.random.default_rng(3), rollouts=64)
    assert math.isfinite(value) and value > 0.0
    with pytest.raises(ValueError):
        repeller_objective(params, np.full(params.dimension, -1.0), np.random.default_rng(0))


def test_repellers_spec_draw_and_evaluate():
    spec = repellers(RepellerParams(horizon=20), eval_rollouts=32)
    assert spec.intrinsic_noise and spec.known_optimum is None
    x = spec.domain.from_unit(np.full(spec.dimension, 0.5))
    # evaluate is deterministic per point, draw varies with the generator
    assert float(spec.evaluate(x)) == float(spec.evaluate(x))
    d1 = spec.draw(x, np.random.default_rng(0))
    d2 = spec.draw(x, np.random.default_rng(1))
    assert d1 != d2


def test_registry_resolves_every_listed_objective():
    names = available()
    assert set(names) == {"branin", "hartman3", "hartman6", "synthetic", "repellers"}
    assert resolve("branin").dimension == 2
    assert resolve("synthetic", dimension=2, seed=1, locate_optimum=False).dimension == 2
    assert resolve("repellers", horizon=10).dimension == 9
    with pytest.raises(KeyError):
        resolve("rosenbrock")


def test_every_registered_objective_pickles():
    params = {
        "synthetic": {"dimension": 2, "seed": 3},
        "repellers": {"horizon": 10, "eval_rollouts": 8},
    }
    for name in available():
        spec = resolve(name, **params.get(name, {}))
        copy = pickle.loads(pickle.dumps(spec))
        assert (copy.name, copy.dimension, copy.known_optimum) == (
            spec.name,
            spec.dimension,
            spec.known_optimum,
        )
        probes = spec.domain.from_unit(
            np.random.default_rng(0).random((5, spec.dimension))
        )
        assert copy.evaluate(probes).tobytes() == spec.evaluate(probes).tobytes()
        assert copy.intrinsic_noise == spec.intrinsic_noise == (name == "repellers")
        assert not copy.domain.lower.flags.writeable
        assert np.array_equal(copy.domain.upper, spec.domain.upper)
        if spec.draw is not None:
            draws = [
                f.draw(probes[0], np.random.default_rng(4)) for f in (spec, copy)
            ]
            assert draws[0] == draws[1]
