"""Exact Gaussian-process regression with an ARD squared-exponential kernel.

The posterior is kept behind a cached Cholesky factor of the noisy Gram
matrix.  States are immutable; adding an observation returns a new state via
a rank-1 extension of the factor, which is numerically equivalent to
refitting from scratch.  The prior mean is the zero function throughout.

A posterior variance is the prior minus q(x) = |L^-1 k(x)|^2, and
:func:`posterior_predict_batch` finds q on one of two paths:

- a triangular solve, O(t^2) per point at t observations.  Every call
  without a :class:`VarianceCarry`, every call on a state of fewer than
  ``CARRY_MIN_COUNT`` observations, and every point the carry misses takes
  this path, bit for bit the same;
- the carried step, O(t) per point.  When the state extends the carry's
  previous one by exactly one row (ℓ, p) of the factor, a point scored at
  that previous state has q(x) = q_prev(x) + e^2, where
  e = (k(x_new, x) - w.k_{1:t}(x)) / p and w = L_t^-T ℓ is solved once per
  state: the last step of the forward substitution a fresh solve would
  take.  Its result agrees with the solve to round-off, not bit for bit.

The kernel's signal variance is 1, so the prior variance is 1: the
calibration standardizes the outputs, and the variance-sum diagnostics of
:mod:`gphedge.metrics` rely on that bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrs, dtrtrs
from scipy.optimize import minimize

JITTER_INITIAL = 1e-10
JITTER_CEILING = 1e-4
LOG_LENGTHSCALE_BOUNDS = (math.log(1e-3), math.log(1e3))
# Smallest state the carried variance step serves.  In BENCH_10.json
# (``posterior``: d=2, 43 probes per call, one BLAS thread) a carried call
# at t=64 saves ~10% of a solve per hit and adds ~20% per miss, so it pays
# only above a ~66% repeat share; at t=128 a hit costs ~55% of a solve and
# a miss adds ~12%, so it pays above ~20%, about the share the maximizer
# repeats on Hartman-6 at t~200 (``repeats``).
CARRY_MIN_COUNT = 128


class NumericsError(RuntimeError):
    """Linear algebra failed beyond what jitter escalation can absorb."""


def _frozen(values: np.ndarray) -> np.ndarray:
    """``values`` itself, made read-only: for arrays no caller holds."""
    values.flags.writeable = False
    return values


def _readonly(values) -> np.ndarray:
    """A read-only copy of a caller's array."""
    return _frozen(np.array(values, dtype=float))


@dataclass(frozen=True)
class KernelParams:
    """ARD squared-exponential kernel of unit signal variance: one
    lengthscale per input dimension, in normalized (unit-box) input
    coordinates.
    """

    lengthscales: np.ndarray

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        if ls.ndim != 1 or ls.size == 0:
            raise ValueError("lengthscales must be a non-empty vector")
        if not np.all(np.isfinite(ls)) or np.any(ls <= 0.0):
            raise ValueError("lengthscales must be strictly positive and finite")
        object.__setattr__(self, "lengthscales", _readonly(ls))

    @property
    def dimension(self) -> int:
        return self.lengthscales.size


def _scaled(x, params: KernelParams) -> tuple[np.ndarray, np.ndarray]:
    """Row-stacked points divided by the lengthscales, and their squared norms."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (params.dimension,):
        raise ValueError(
            f"points must have dimension {params.dimension}, got shape {x.shape}"
        )
    xs = x.reshape(-1, params.dimension) / params.lengthscales
    return xs, np.add.reduce(xs * xs, axis=1)


def _kernel(xs, x_norms, zs, z_norms) -> np.ndarray:
    """Cross-covariance of scaled points given their squared norms.

    The kernel is exp(-(|x|^2 + |z|^2 - 2 x.z) / 2), the squared distance
    clamped at zero.  It runs as four passes over one array:
    (-|x|^2/2 + -|z|^2/2) + x.z, clamped at zero from above, then exp.
    Scaling by -1/2 is exact and commutes with rounding, so each entry
    holds the same bits as the chain with the distance formed first.
    """
    sq = np.add.outer(-0.5 * x_norms, -0.5 * z_norms)
    sq += xs @ zs.T
    np.minimum(sq, 0.0, out=sq)
    np.exp(sq, out=sq)
    return sq


def kernel_matrix(x, z, params: KernelParams) -> np.ndarray:
    """Cross-covariance matrix for row-stacked point sets x (n,d) and z (m,d)."""
    return _kernel(*_scaled(x, params), *_scaled(z, params))


@dataclass(frozen=True)
class GpState:
    """Immutable GP posterior over t observations.

    ``chol`` is the lower Cholesky factor of K + (noise_variance + jitter) I
    and ``alpha`` solves that system against the outputs.  ``scaled_inputs``
    are the inputs divided by the lengthscales and ``scaled_norms`` their
    squared norms, the kernel's view of the inputs that every posterior call
    reuses; they are always computed from the whole input array, as
    :func:`fit` does, so a state grown by :func:`update` holds the same bits.
    ``refits`` counts the updates that round-off forced back to :func:`fit`.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    kernel: KernelParams
    noise_variance: float
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float
    scaled_inputs: np.ndarray
    scaled_norms: np.ndarray
    refits: int = 0

    @property
    def count(self) -> int:
        return self.outputs.size

    @property
    def dimension(self) -> int:
        return self.kernel.dimension


def _chol_with_jitter(gram: np.ndarray):
    """Cholesky with an escalating diagonal shift; raises past the ceiling."""
    jitter = JITTER_INITIAL
    shifted = gram.copy()
    diagonal = gram.diagonal()
    while True:
        np.fill_diagonal(shifted, diagonal + jitter)
        try:
            return np.linalg.cholesky(shifted), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > JITTER_CEILING:
                raise NumericsError(
                    f"Gram matrix not positive definite at jitter {JITTER_CEILING:g}"
                ) from None


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b for the cached lower factor L.

    LAPACK reads ``chol.T`` as the upper factor in place, where scipy's
    ``cho_solve`` would first copy a C-ordered factor to Fortran order.
    """
    x, info = dpotrs(chol.T, b, lower=0)
    if info != 0:
        raise NumericsError(f"Cholesky solve failed (LAPACK info {info})")
    return x


def fit(inputs, outputs, kernel: KernelParams, noise_variance: float) -> GpState:
    """Build a GP state from scratch, caching the Cholesky factor and alpha."""
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(outputs, dtype=float).reshape(-1)
    if x.shape[0] != y.size:
        raise ValueError(f"{x.shape[0]} inputs but {y.size} outputs")
    if not (math.isfinite(noise_variance) and noise_variance >= 0.0):
        raise ValueError("noise_variance must be finite and non-negative")
    t = y.size
    scaled, norms = _scaled(x, kernel)
    if t == 0:
        return GpState(
            inputs=_frozen(np.empty((0, kernel.dimension))),
            outputs=_frozen(np.empty(0)),
            kernel=kernel,
            noise_variance=float(noise_variance),
            chol=_frozen(np.empty((0, 0))),
            alpha=_frozen(np.empty(0)),
            jitter=JITTER_INITIAL,
            scaled_inputs=_frozen(scaled),
            scaled_norms=_frozen(norms),
        )
    # Not _kernel(scaled, ..., scaled, ...): NumPy computes ``a @ a.T`` as
    # a symmetric product, whose bits differ from those of two equal arrays.
    gram = kernel_matrix(x, x, kernel)
    np.fill_diagonal(gram, 1.0)
    gram[np.diag_indices(t)] += noise_variance
    chol, jitter = _chol_with_jitter(gram)
    return GpState(
        inputs=_readonly(x),
        outputs=_readonly(y),
        kernel=kernel,
        noise_variance=float(noise_variance),
        chol=_frozen(chol),
        alpha=_frozen(_cho_solve(chol, y)),
        jitter=jitter,
        scaled_inputs=_frozen(scaled),
        scaled_norms=_frozen(norms),
    )


def update(state: GpState, x, y: float) -> GpState:
    """Add one observation; rank-1 extension of the cached Cholesky factor."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != state.dimension:
        raise ValueError(f"point must have dimension {state.dimension}, got {x.size}")
    t = state.count
    new_inputs = np.vstack([state.inputs, x])
    new_outputs = np.append(state.outputs, float(y))
    if t == 0:
        return fit(new_inputs, new_outputs, state.kernel, state.noise_variance)
    kernel = state.kernel
    cross = _kernel(state.scaled_inputs, state.scaled_norms, *_scaled(x, kernel))[:, 0]
    diag = 1.0 + state.noise_variance + state.jitter
    row = solve_triangular(state.chol, cross, lower=True, check_finite=False)
    pivot = diag - float(row @ row)
    if pivot <= 0.0:
        # Round-off has eaten the pivot; refit (possibly at larger jitter).
        refit = fit(new_inputs, new_outputs, state.kernel, state.noise_variance)
        return replace(refit, refits=state.refits + 1)
    chol = np.zeros((t + 1, t + 1))
    chol[:t, :t] = state.chol
    chol[t, :t] = row
    chol[t, t] = math.sqrt(pivot)
    scaled, norms = _scaled(new_inputs, kernel)
    return GpState(
        inputs=_frozen(new_inputs),
        outputs=_frozen(new_outputs),
        kernel=kernel,
        noise_variance=state.noise_variance,
        chol=_frozen(chol),
        alpha=_frozen(_cho_solve(chol, new_outputs)),
        jitter=state.jitter,
        scaled_inputs=_frozen(scaled),
        scaled_norms=_frozen(norms),
        refits=state.refits,
    )


def _cross_and_mean(state: GpState, x) -> tuple[np.ndarray, np.ndarray]:
    cross = _kernel(state.scaled_inputs, state.scaled_norms, *_scaled(x, state.kernel))
    return cross, cross.T @ state.alpha


def posterior_mean(state: GpState, x) -> np.ndarray:
    """Posterior means at row-stacked points, bit-identical to the means of
    :func:`posterior_predict_batch` without paying for the variances."""
    return _cross_and_mean(state, x)[1]


def _solved_sq_norms(state: GpState, cross: np.ndarray) -> np.ndarray:
    """|L^-1 k|^2 for each column k of ``cross`` by a triangular solve."""
    # The call scipy's solve_triangular makes for a C-ordered lower factor,
    # without its per-call argument handling.
    v, info = dtrtrs(state.chol.T, cross, lower=0, trans=1)
    if info != 0:
        raise NumericsError(f"triangular solve failed (LAPACK info {info})")
    return np.einsum("ij,ij->j", v, v)


def _extends(state: GpState, previous: GpState) -> bool:
    """Whether ``state`` is ``previous`` plus one row of the factor."""
    t = previous.count
    return (
        state.count == t + 1
        and state.refits == previous.refits
        and state.kernel is previous.kernel
        and np.array_equal(state.inputs[:t], previous.inputs)
        and np.array_equal(state.chol[:t, :t], previous.chol)
    )


class VarianceCarry:
    """The q(x) = |L^-1 k(x)|^2 of the points scored at the last two states
    of one GP, keyed by their exact coordinates, so that a point probed
    again after a one-row :func:`update` costs one substitution step.

    Pass one carry to every :func:`posterior_predict_batch` call of a
    sequence of states; it serves states of at least ``CARRY_MIN_COUNT``
    observations and starts over whenever the state is not its previous
    one extended by exactly one row, refits included.
    """

    def __init__(self):
        self.state: GpState | None = None
        self.scored: dict[bytes, float] = {}  # q at ``state``
        self.previous: dict[bytes, float] = {}  # q at the state before it
        self.step = np.empty(0)  # w = L_t^-T ℓ, from the previous state
        self.pivot = 1.0  # p

    def _advance(self, state: GpState) -> None:
        previous = self.state
        if previous is not None and _extends(state, previous):
            t = previous.count
            self.step = solve_triangular(
                previous.chol, state.chol[t, :t], lower=True, trans="T", check_finite=False
            )
            self.pivot = float(state.chol[t, t])
            self.previous = self.scored
        else:
            self.previous = {}
        self.scored = {}
        self.state = state

    def sq_norms(self, state: GpState, x: np.ndarray, cross: np.ndarray) -> np.ndarray:
        """q at the rows of ``x`` (whose kernel columns are ``cross``),
        carried where the previous state scored the same coordinates."""
        if state is not self.state:
            self._advance(state)
        rows = np.ascontiguousarray(x, dtype=float).reshape(-1, state.dimension)
        keys = rows.view(np.dtype((np.void, rows.shape[1] * 8))).ravel().tolist()
        q = np.array([self.previous.get(key, math.nan) for key in keys])
        miss = np.isnan(q)
        if miss.all():
            q = _solved_sq_norms(state, cross)
        else:
            hit = ~miss
            e = (cross[-1] - self.step @ cross[:-1])[hit] / self.pivot
            q[hit] += e * e
            if miss.any():
                q[miss] = _solved_sq_norms(state, cross[:, miss])
        self.scored.update(zip(keys, q.tolist()))
        return q


def posterior_predict_batch(
    state: GpState, x, carry: VarianceCarry | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and (clamped, noise-free) variances at row-stacked points.

    With a ``carry`` on a state of at least ``CARRY_MIN_COUNT``
    observations, points the carry scored at the previous state take the
    carried variance step; see the module docstring.
    """
    cross, mean = _cross_and_mean(state, x)
    if state.count == 0:
        return mean, np.ones(mean.size)
    if carry is None or state.count < CARRY_MIN_COUNT:
        q = _solved_sq_norms(state, cross)
    else:
        q = carry.sq_norms(state, x, cross)
    variance = 1.0 - q
    np.maximum(variance, 0.0, out=variance)
    return mean, variance


def log_marginal_likelihood(state: GpState) -> float:
    """log p(y | X) through the cached factor; requires at least one point."""
    t = state.count
    if t < 1:
        raise ValueError("log marginal likelihood needs at least one observation")
    return float(
        -0.5 * float(state.outputs @ state.alpha)
        - float(np.sum(np.log(np.diag(state.chol))))
        - 0.5 * t * math.log(2.0 * math.pi)
    )


def _nll_and_grad(log_ls, x, y, noise_variance):
    """Negative log marginal likelihood and its gradient in log-lengthscales."""
    t = y.size
    plain = kernel_matrix(x, x, KernelParams(np.exp(log_ls)))
    np.fill_diagonal(plain, 1.0)
    gram = plain.copy()
    gram[np.diag_indices(t)] += noise_variance
    try:
        chol, _ = _chol_with_jitter(gram)
    except NumericsError:
        return 1e25, np.zeros_like(log_ls)
    alpha = _cho_solve(chol, y)
    nll = (
        0.5 * float(y @ alpha)
        + float(np.sum(np.log(np.diag(chol))))
        + 0.5 * t * math.log(2.0 * math.pi)
    )
    inv = _cho_solve(chol, np.eye(t))
    inner = np.outer(alpha, alpha) - inv
    grad = np.empty(log_ls.size)
    for j in range(log_ls.size):
        scaled = (x[:, j, None] - x[None, :, j]) / math.exp(log_ls[j])
        grad[j] = -0.5 * float(np.sum(inner * plain * scaled * scaled))
    return nll, grad


def fit_hyperparameters(
    inputs,
    outputs,
    noise_variance: float,
    search_budget: int = 8,
    seed: int = 0,
) -> KernelParams:
    """Maximize the log marginal likelihood over ARD lengthscales.

    Multistart L-BFGS-B over log-lengthscales, bounded to [1e-3, 1e3] per
    dimension; ``search_budget`` counts starts and the result is
    deterministic given ``seed``.  Constant outputs are degenerate (the data
    term carries no information about lengthscales): a warning is emitted
    and unit lengthscales are returned.
    """
    x = np.asarray(inputs, dtype=float)
    x = x.reshape(x.shape[0], -1)
    y = np.asarray(outputs, dtype=float).reshape(-1)
    t, d = x.shape
    if t != y.size:
        raise ValueError(f"{t} inputs but {y.size} outputs")
    if t < 2:
        raise ValueError("hyperparameter fitting needs at least two observations")
    if np.ptp(y) == 0.0:
        warnings.warn(
            "all outputs identical; falling back to unit lengthscales",
            RuntimeWarning,
            stacklevel=2,
        )
        return KernelParams(np.ones(d))
    rng = np.random.default_rng(seed)
    starts = [np.zeros(d)]
    while len(starts) < max(1, int(search_budget)):
        starts.append(rng.uniform(math.log(1e-2), math.log(10.0), size=d))
    lo, hi = LOG_LENGTHSCALE_BOUNDS
    best = None
    for start in starts:
        result = minimize(
            _nll_and_grad,
            start,
            args=(x, y, float(noise_variance)),
            jac=True,
            method="L-BFGS-B",
            bounds=[(lo, hi)] * d,
        )
        if best is None or result.fun < best.fun:
            best = result
    return KernelParams(np.exp(best.x))
