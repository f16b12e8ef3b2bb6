"""Benchmark objectives: classical test functions, GP-sampled synthetic
surfaces with plateau rejection, and a repeller-controlled particle rollout.

Every objective is expressed in maximization form; the classical benchmarks
(which the literature states as minimization problems) are negated.  The
``evaluate`` callables accept a single point ``(d,)`` or a batch ``(n, d)``
and return the noiseless (or expected) value; stochastic objectives expose a
separate ``draw`` for single noisy realizations.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

from .gp import KernelParams, NumericsError, _chol_with_jitter, kernel_matrix
from .maximizer import BoxDomain, MaximizerConfig, maximize, unit_box

SYNTHETIC_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ObjectiveSpec:
    """A box-bounded objective plus what is known about its optimum.

    ``evaluate`` is the noiseless (for stochastic objectives: expected)
    value used by the metric layer; optimizers only ever see noisy samples.
    ``draw(x, rng)`` produces one noisy realization for objectives with
    intrinsic noise; deterministic objectives leave it unset and the
    optimization loop adds configured Gaussian noise itself.  Every
    registered objective's callables are module-level functions or
    ``functools.partial`` bindings of them, so a spec pickles.
    """

    name: str
    domain: BoxDomain
    evaluate: Callable
    known_optimum: float | None = None
    draw: Callable | None = None

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def intrinsic_noise(self) -> bool:
        return self.draw is not None


def _check_box(x, domain: BoxDomain, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if pts.shape[-1] != domain.dimension:
        raise ValueError(
            f"{name} expects dimension {domain.dimension}, got {pts.shape[-1]}"
        )
    if not (
        np.all(pts >= domain.lower - 1e-9) and np.all(pts <= domain.upper + 1e-9)
    ):
        raise ValueError(f"point outside the {name} box")
    return x


def _branin_values(x1, x2):
    # Standard Branin (minimization form); see sfu.ca/~ssurjano/branin.html.
    b = 5.1 / (4.0 * math.pi**2)
    c = 5.0 / math.pi
    s = 10.0
    t = 1.0 / (8.0 * math.pi)
    return (x2 - b * x1**2 + c * x1 - 6.0) ** 2 + s * (1.0 - t) * np.cos(x1) + s


BRANIN_OPTIMUM = -5.0 / (4.0 * math.pi)  # value at the three argmin points
BRANIN_ARGMIN = (
    (-math.pi, 12.275),
    (math.pi, 2.275),
    (9.42478, 2.475),
)


def _branin(domain: BoxDomain, x):
    x = _check_box(x, domain, "branin")
    return -_branin_values(x[..., 0], x[..., 1])


def branin() -> ObjectiveSpec:
    """Negated Branin on [-5, 10] x [0, 15]; maximum 5/(4 pi) below zero."""
    domain = BoxDomain([-5.0, 0.0], [10.0, 15.0])
    return ObjectiveSpec(
        name="branin",
        domain=domain,
        evaluate=partial(_branin, domain),
        known_optimum=BRANIN_OPTIMUM,
    )


_HARTMAN_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_HARTMAN3_A = np.array(
    [[3.0, 10.0, 30.0], [0.1, 10.0, 35.0], [3.0, 10.0, 30.0], [0.1, 10.0, 35.0]]
)
_HARTMAN3_P = 1e-4 * np.array(
    [
        [3689.0, 1170.0, 2673.0],
        [4699.0, 4387.0, 7470.0],
        [1091.0, 8732.0, 5547.0],
        [381.0, 5743.0, 8828.0],
    ]
)
_HARTMAN6_A = np.array(
    [
        [10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
        [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
        [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
        [17.0, 8.0, 0.05, 10.0, 0.1, 14.0],
    ]
)
_HARTMAN6_P = 1e-4 * np.array(
    [
        [1312.0, 1696.0, 5569.0, 124.0, 8283.0, 5886.0],
        [2329.0, 4135.0, 8307.0, 3736.0, 1004.0, 9991.0],
        [2348.0, 1451.0, 3522.0, 2883.0, 3047.0, 6650.0],
        [4047.0, 8828.0, 8732.0, 5743.0, 1091.0, 381.0],
    ]
)

# Frozen from the multistart refinement oracle in the test suite; agree with
# the values quoted at sfu.ca/~ssurjano/hart3.html and hart6.html.
HARTMAN3_OPTIMUM = 3.8627797873326624
HARTMAN6_OPTIMUM = 3.322368011415514


def _hartman_values(name: str, domain: BoxDomain, a, p, x):
    x = _check_box(x, domain, name)
    inner = np.einsum("kj,...kj->...k", a, (x[..., None, :] - p) ** 2)
    return np.einsum("k,...k->...", _HARTMAN_ALPHA, np.exp(-inner))


def _hartman(name, a, p, optimum) -> ObjectiveSpec:
    domain = unit_box(a.shape[1])
    return ObjectiveSpec(
        name=name,
        domain=domain,
        evaluate=partial(_hartman_values, name, domain, a, p),
        known_optimum=optimum,
    )


def hartman3() -> ObjectiveSpec:
    """Negated Hartman 3 on the unit cube; see sfu.ca/~ssurjano/hart3.html."""
    return _hartman("hartman3", _HARTMAN3_A, _HARTMAN3_P, HARTMAN3_OPTIMUM)


def hartman6() -> ObjectiveSpec:
    """Negated Hartman 6 on the unit cube; see sfu.ca/~ssurjano/hart6.html."""
    return _hartman("hartman6", _HARTMAN6_A, _HARTMAN6_P, HARTMAN6_OPTIMUM)


@dataclass(frozen=True)
class SyntheticFunction:
    """GP posterior mean interpolating a sampled target vector.

    Self-contained: the kernel lengthscales, anchor points, targets and the
    jitter actually used fully determine the surface, so instances can be
    serialized and replayed elsewhere.
    """

    theta: np.ndarray
    points: np.ndarray
    targets: np.ndarray
    jitter: float
    alpha: np.ndarray

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        params = KernelParams(self.theta)
        cross = kernel_matrix(np.atleast_2d(x), self.points, params)
        values = cross @ self.alpha
        return values.reshape(x.shape[:-1]) if x.ndim > 1 else float(values[0])


def _gram_factor(theta, points) -> tuple[np.ndarray, float]:
    """Jittered Cholesky factor of the anchors' Gram matrix, and its jitter."""
    gram = kernel_matrix(points, points, KernelParams(theta))
    np.fill_diagonal(gram, 1.0)
    return _chol_with_jitter(gram)


def _interpolant(theta, points, targets, chol, jitter) -> SyntheticFunction:
    alpha = solve_triangular(
        chol.T, solve_triangular(chol, targets, lower=True), lower=False
    )
    return SyntheticFunction(
        theta=np.asarray(theta, dtype=float),
        points=points,
        targets=targets,
        jitter=jitter,
        alpha=alpha,
    )


def _plateau_fraction(surface: SyntheticFunction, probes: np.ndarray) -> float:
    values = surface(probes)
    return float(np.mean(np.abs(values) < 1e-9))


def sample_synthetic_objective(
    dimension: int,
    seed: int,
    plateau_probes: int = 500,
    plateau_limit: int = 25,
    max_rounds: int = 30,
    locate_optimum: bool = True,
) -> ObjectiveSpec:
    """Draw a synthetic objective from a GP prior on the unit cube.

    ARD lengthscales are drawn uniformly from [0, 2]^d, 100 d anchor points
    are sampled, targets are drawn from N(0, K), and the posterior mean
    through them becomes the objective.  Surfaces that are near-zero at more
    than ``plateau_limit`` of ``plateau_probes`` random locations are
    rejected and rebuilt with 100 d additional points.  The optimum is
    located numerically (rectangle search at ten times the default budget
    plus 1e5 random probes) unless ``locate_optimum`` is disabled.
    """
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence([dimension, seed]))
    theta = np.maximum(rng.uniform(0.0, 2.0, size=dimension), 1e-6)
    domain = unit_box(dimension)
    count = 100 * dimension
    surface = None
    for _ in range(max_rounds):
        points = rng.uniform(0.0, 1.0, size=(count, dimension))
        chol, jitter = _gram_factor(theta, points)
        targets = chol @ rng.standard_normal(count)
        surface = _interpolant(theta, points, targets, chol, jitter)
        probes = rng.uniform(0.0, 1.0, size=(plateau_probes, dimension))
        if _plateau_fraction(surface, probes) * plateau_probes <= plateau_limit:
            break
        count += 100 * dimension
        surface = None
    if surface is None:
        raise NumericsError(
            f"no plateau-free synthetic surface within {max_rounds} rounds"
        )
    optimum = None
    if locate_optimum:
        optimum = _locate_optimum(surface, domain, rng)
    return ObjectiveSpec(
        name=f"synthetic{dimension}d-{seed}",
        domain=domain,
        evaluate=surface,
        known_optimum=optimum,
    )


def _locate_optimum(
    surface: SyntheticFunction, domain: BoxDomain, rng: np.random.Generator
) -> float:
    d = domain.dimension
    config = MaximizerConfig(
        direct_budget=10 * 500 * d,
        multistart_count=20,
        local_steps=80,
        seed=int(rng.integers(2**31)),
    )
    _, best = maximize(surface, domain, config)
    probes = rng.uniform(0.0, 1.0, size=(100_000, d))
    return max(best, float(surface(probes).max()))


def save_synthetic(spec: ObjectiveSpec, path) -> None:
    """Serialize a synthetic objective to a portable .npz container."""
    surface = spec.evaluate
    if not isinstance(surface, SyntheticFunction):
        raise TypeError(f"{spec.name} is not a synthetic objective")
    np.savez(
        path,
        version=np.int64(SYNTHETIC_FORMAT_VERSION),
        name=np.bytes_(spec.name.encode()),
        theta=surface.theta.astype("<f8"),
        points=surface.points.astype("<f8"),
        targets=surface.targets.astype("<f8"),
        jitter=np.float64(surface.jitter),
        known_optimum=np.float64(
            spec.known_optimum if spec.known_optimum is not None else np.nan
        ),
    )


def load_synthetic(path) -> ObjectiveSpec:
    """Rebuild a synthetic objective saved by :func:`save_synthetic`."""
    with np.load(path) as data:
        version = int(data["version"])
        if version != SYNTHETIC_FORMAT_VERSION:
            raise ValueError(f"unsupported synthetic-objective format {version}")
        name = bytes(data["name"]).decode()
        theta = data["theta"].astype(float)
        points = data["points"].astype(float)
        targets = data["targets"].astype(float)
        optimum = float(data["known_optimum"])
    surface = _interpolant(theta, points, targets, *_gram_factor(theta, points))
    return ObjectiveSpec(
        name=name,
        domain=unit_box(surface.dimension),
        evaluate=surface,
        known_optimum=None if math.isnan(optimum) else optimum,
    )


@dataclass(frozen=True)
class RepellerParams:
    """Physics and reward-field constants of the particle-control task.

    The decision vector is laid out as (w1, a1, b1, w2, a2, b2, ...): a
    strength and a 2-d position per repeller.  Everything here is a modeling
    default, collected in one place so alternatives are a config change.
    """

    count: int = 3
    horizon: int = 100
    dt: float = 0.05
    friction: float = 0.5
    gravity: tuple[float, float] = (0.0, -1.0)
    start_mean: tuple[float, float] = (0.5, 0.95)
    start_std: float = 0.01
    start_velocity: tuple[float, float] = (0.0, 0.0)
    goals: tuple[tuple[float, float], ...] = ((0.2, 0.2), (0.8, 0.4))
    goal_width: float = 0.15
    strength_max: float = 1.0
    min_distance: float = 1e-6

    @property
    def dimension(self) -> int:
        return 3 * self.count

    def domain(self) -> BoxDomain:
        lower = np.tile([0.0, 0.0, 0.0], self.count)
        upper = np.tile([self.strength_max, 1.0, 1.0], self.count)
        return BoxDomain(lower, upper)


def _reward_field(params: RepellerParams, positions: np.ndarray) -> np.ndarray:
    total = np.zeros(positions.shape[0])
    for goal in params.goals:
        diff = positions - np.asarray(goal)
        total += np.exp(-np.sum(diff * diff, axis=1) / (2.0 * params.goal_width**2))
    return total


def repeller_force(params: RepellerParams, x, positions: np.ndarray) -> np.ndarray:
    """Total repeller force on a batch of particles: sum of w (p - c) / |p - c|^2.

    Each term points away from its repeller with inverse-distance magnitude;
    the singularity is clamped at ``min_distance``.
    """
    layout = np.asarray(x, dtype=float).reshape(params.count, 3)
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    force = np.zeros_like(positions)
    for strength, *center in layout:
        offset = positions - np.asarray(center)
        dist_sq = np.maximum(np.sum(offset * offset, axis=1), params.min_distance**2)
        force += strength * offset / dist_sq[:, None]
    return force


def _simulate(params: RepellerParams, x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Semi-implicit Euler rollout of a batch of particles; returns reward sums."""
    gravity = np.asarray(params.gravity)
    pos = starts.copy()
    vel = np.broadcast_to(np.asarray(params.start_velocity), pos.shape).copy()
    totals = _reward_field(params, pos)
    for _ in range(params.horizon):
        force = repeller_force(params, x, pos) + gravity - params.friction * vel
        vel += params.dt * force
        pos += params.dt * vel
        totals += _reward_field(params, pos)
    return totals


def repeller_objective(
    params: RepellerParams, x, rng: np.random.Generator, rollouts: int = 1
) -> float:
    """Mean accumulated reward over ``rollouts`` sampled trajectories.

    The start positions are the only random input.
    """
    x = _check_box(x, params.domain(), "repellers")
    starts = np.asarray(params.start_mean) + params.start_std * rng.standard_normal(
        (rollouts, 2)
    )
    return float(_simulate(params, x, starts).mean())


def _point_seed(x: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(x, dtype="<f8").tobytes())


def _repeller_expectation(params: RepellerParams, rollouts: int, x):
    x = np.asarray(x, dtype=float)
    if x.ndim > 1:
        return np.array([_repeller_expectation(params, rollouts, row) for row in x])
    rng = np.random.default_rng(_point_seed(x))
    return repeller_objective(params, x, rng, rollouts=rollouts)


def repellers(
    params: RepellerParams | None = None, eval_rollouts: int = 256
) -> ObjectiveSpec:
    """Particle-control objective with intrinsic rollout noise.

    ``evaluate`` returns a Monte-Carlo estimate of the expected total reward
    using a generator seeded from the query point, so the metric layer sees
    a deterministic surface; ``draw`` samples a single trajectory.
    """
    params = params or RepellerParams()
    return ObjectiveSpec(
        name="repellers",
        domain=params.domain(),
        evaluate=partial(_repeller_expectation, params, eval_rollouts),
        known_optimum=None,
        draw=partial(repeller_objective, params),
    )


def resolve(name: str, **params) -> ObjectiveSpec:
    """Build a registered objective by name."""
    if name == "branin":
        return branin()
    if name == "hartman3":
        return hartman3()
    if name == "hartman6":
        return hartman6()
    if name == "synthetic":
        return sample_synthetic_objective(
            dimension=int(params.get("dimension", 2)),
            seed=int(params.get("seed", 0)),
            locate_optimum=bool(params.get("locate_optimum", True)),
        )
    if name == "repellers":
        keys = {"count", "horizon", "dt", "friction", "start_std", "strength_max"}
        overrides = {k: v for k, v in params.items() if k in keys}
        rollouts = int(params.get("eval_rollouts", 256))
        return repellers(RepellerParams(**overrides), eval_rollouts=rollouts)
    raise KeyError(f"unknown objective {name!r}")


def available() -> dict[str, str]:
    """Registered objective names with a one-line description each."""
    return {
        "branin": "negated Branin, d=2 on [-5,10]x[0,15], optimum -5/(4 pi)",
        "hartman3": "negated Hartman 3, d=3 on the unit cube, optimum ~3.86278",
        "hartman6": "negated Hartman 6, d=6 on the unit cube, optimum ~3.32237",
        "synthetic": "GP-prior sample (params: dimension, seed), unit cube",
        "repellers": "particle control via 3 repellers, d=9, intrinsic noise",
    }
