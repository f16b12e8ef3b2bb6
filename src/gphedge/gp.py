"""Exact Gaussian-process regression with an ARD squared-exponential kernel.

The posterior is kept behind a cached Cholesky factor of the noisy Gram
matrix.  States are immutable; adding an observation returns a new state via
a rank-1 extension of the factor, which is numerically equivalent to
refitting from scratch.  The prior mean is the zero function throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dtrtrs
from scipy.optimize import minimize

JITTER_INITIAL = 1e-10
JITTER_CEILING = 1e-4
LOG_LENGTHSCALE_BOUNDS = (math.log(1e-3), math.log(1e3))


class NumericsError(RuntimeError):
    """Linear algebra failed beyond what jitter escalation can absorb."""


def _readonly(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class KernelParams:
    """ARD squared-exponential kernel: one lengthscale per input dimension.

    Lengthscales are expressed in normalized (unit-box) input coordinates.
    The signal variance defaults to 1 so that the posterior variance is
    bounded by 1, which the variance-sum diagnostics rely on.
    """

    lengthscales: np.ndarray
    signal_variance: float = 1.0

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        if ls.ndim != 1 or ls.size == 0:
            raise ValueError("lengthscales must be a non-empty vector")
        if not np.all(np.isfinite(ls)) or np.any(ls <= 0.0):
            raise ValueError("lengthscales must be strictly positive and finite")
        sv = float(self.signal_variance)
        if not (math.isfinite(sv) and sv > 0.0):
            raise ValueError("signal_variance must be strictly positive")
        object.__setattr__(self, "lengthscales", _readonly(ls))
        object.__setattr__(self, "signal_variance", sv)

    @property
    def dimension(self) -> int:
        return self.lengthscales.size


def kernel_eval(a, b, params: KernelParams) -> float:
    """Covariance between two points: sv * exp(-0.5 * sum(((a-b)/ls)^2))."""
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.size != params.dimension or b.size != params.dimension:
        raise ValueError(
            f"points must have dimension {params.dimension}, "
            f"got {a.size} and {b.size}"
        )
    r = (a - b) / params.lengthscales
    return float(params.signal_variance * math.exp(-0.5 * float(r @ r)))


def _scaled(x, params: KernelParams) -> tuple[np.ndarray, np.ndarray]:
    """Row-stacked points divided by the lengthscales, and their squared norms."""
    xs = np.asarray(x, dtype=float).reshape(-1, params.dimension) / params.lengthscales
    return xs, (xs * xs).sum(axis=1)


def _kernel(xs, x_norms, zs, z_norms, signal_variance: float) -> np.ndarray:
    """Cross-covariance of scaled points given their squared norms.

    The squared distances are |x|^2 + |z|^2 - 2 x.z, clamped at zero.  The
    chain runs in one array, each step the float operation it would be out
    of place; multiplying by a unit signal variance changes no bit, so it
    is skipped.
    """
    sq = xs @ zs.T
    sq *= 2.0
    np.subtract(x_norms[:, None] + z_norms[None, :], sq, out=sq)
    np.maximum(sq, 0.0, out=sq)
    sq *= -0.5
    np.exp(sq, out=sq)
    if signal_variance != 1.0:
        sq *= signal_variance
    return sq


def kernel_matrix(x, z, params: KernelParams) -> np.ndarray:
    """Cross-covariance matrix for row-stacked point sets x (n,d) and z (m,d)."""
    return _kernel(*_scaled(x, params), *_scaled(z, params), params.signal_variance)


@dataclass(frozen=True)
class Prediction:
    """Posterior marginals at a query point."""

    mean: float
    variance: float
    noisy_variance: float


@dataclass(frozen=True)
class GpState:
    """Immutable GP posterior over t observations.

    ``chol`` is the lower Cholesky factor of K + (noise_variance + jitter) I
    and ``alpha`` solves that system against the outputs.  ``scaled_inputs``
    are the inputs divided by the lengthscales and ``scaled_norms`` their
    squared norms, the kernel's view of the inputs that every posterior call
    reuses; they are always computed from the whole input array, as
    :func:`fit` does, so a state grown by :func:`update` holds the same bits.
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

    @property
    def count(self) -> int:
        return self.outputs.size

    @property
    def dimension(self) -> int:
        return self.kernel.dimension


def _chol_with_jitter(gram: np.ndarray, signal_variance: float):
    """Cholesky with an escalating diagonal shift; raises past the ceiling."""
    jitter = JITTER_INITIAL * signal_variance
    ceiling = JITTER_CEILING * signal_variance
    eye = np.eye(gram.shape[0])
    while True:
        try:
            return np.linalg.cholesky(gram + jitter * eye), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > ceiling:
                raise NumericsError(
                    f"Gram matrix not positive definite at jitter {ceiling:g}"
                ) from None


def fit(inputs, outputs, kernel: KernelParams, noise_variance: float) -> GpState:
    """Build a GP state from scratch, caching the Cholesky factor and alpha."""
    x = np.asarray(inputs, dtype=float).reshape(-1, kernel.dimension)
    y = np.asarray(outputs, dtype=float).reshape(-1)
    if x.shape[0] != y.size:
        raise ValueError(f"{x.shape[0]} inputs but {y.size} outputs")
    if not (math.isfinite(noise_variance) and noise_variance >= 0.0):
        raise ValueError("noise_variance must be finite and non-negative")
    t = y.size
    scaled, norms = _scaled(x, kernel)
    if t == 0:
        return GpState(
            inputs=_readonly(np.empty((0, kernel.dimension))),
            outputs=_readonly(np.empty(0)),
            kernel=kernel,
            noise_variance=float(noise_variance),
            chol=_readonly(np.empty((0, 0))),
            alpha=_readonly(np.empty(0)),
            jitter=JITTER_INITIAL * kernel.signal_variance,
            scaled_inputs=_readonly(scaled),
            scaled_norms=_readonly(norms),
        )
    # Not _kernel(scaled, ..., scaled, ...): NumPy computes ``a @ a.T`` as
    # a symmetric product, whose bits differ from those of two equal arrays.
    gram = kernel_matrix(x, x, kernel)
    np.fill_diagonal(gram, kernel.signal_variance)
    gram[np.diag_indices(t)] += noise_variance
    chol, jitter = _chol_with_jitter(gram, kernel.signal_variance)
    alpha = cho_solve((chol, True), y, check_finite=False)
    return GpState(
        inputs=_readonly(x),
        outputs=_readonly(y),
        kernel=kernel,
        noise_variance=float(noise_variance),
        chol=_readonly(chol),
        alpha=_readonly(alpha),
        jitter=jitter,
        scaled_inputs=_readonly(scaled),
        scaled_norms=_readonly(norms),
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
    cross = _kernel(
        state.scaled_inputs, state.scaled_norms, *_scaled(x, kernel), kernel.signal_variance
    )[:, 0]
    diag = kernel.signal_variance + state.noise_variance + state.jitter
    row = solve_triangular(state.chol, cross, lower=True, check_finite=False)
    pivot = diag - float(row @ row)
    if pivot <= 0.0:
        # Round-off has eaten the pivot; refit (possibly at larger jitter).
        return fit(new_inputs, new_outputs, state.kernel, state.noise_variance)
    chol = np.zeros((t + 1, t + 1))
    chol[:t, :t] = state.chol
    chol[t, :t] = row
    chol[t, t] = math.sqrt(pivot)
    alpha = cho_solve((chol, True), new_outputs, check_finite=False)
    scaled, norms = _scaled(new_inputs, kernel)
    return GpState(
        inputs=_readonly(new_inputs),
        outputs=_readonly(new_outputs),
        kernel=kernel,
        noise_variance=state.noise_variance,
        chol=_readonly(chol),
        alpha=_readonly(alpha),
        jitter=state.jitter,
        scaled_inputs=_readonly(scaled),
        scaled_norms=_readonly(norms),
    )


def _cross_and_mean(state: GpState, x) -> tuple[np.ndarray, np.ndarray]:
    cross = _kernel(
        state.scaled_inputs,
        state.scaled_norms,
        *_scaled(x, state.kernel),
        state.kernel.signal_variance,
    )
    return cross, cross.T @ state.alpha


def posterior_mean(state: GpState, x) -> np.ndarray:
    """Posterior means at row-stacked points, bit-identical to the means of
    :func:`posterior_predict_batch` without paying for the variances."""
    return _cross_and_mean(state, x)[1]


def posterior_predict_batch(state: GpState, x) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and (clamped, noise-free) variances at row-stacked points."""
    cross, mean = _cross_and_mean(state, x)
    prior = state.kernel.signal_variance
    if state.count == 0:
        return mean, np.full(mean.size, prior)
    # The call scipy's solve_triangular makes for a C-ordered lower factor,
    # without its per-call argument handling.
    v, info = dtrtrs(state.chol.T, cross, lower=0, trans=1)
    if info != 0:
        raise NumericsError(f"triangular solve failed (LAPACK info {info})")
    variance = prior - np.einsum("ij,ij->j", v, v)
    np.maximum(variance, 0.0, out=variance)
    return mean, variance


def posterior_predict(state: GpState, x) -> Prediction:
    mean, variance = posterior_predict_batch(state, np.asarray(x, dtype=float)[None, :])
    return Prediction(
        mean=float(mean[0]),
        variance=float(variance[0]),
        noisy_variance=float(variance[0]) + state.noise_variance,
    )


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


def _nll_and_grad(log_ls, x, y, noise_variance, signal_variance):
    """Negative log marginal likelihood and its gradient in log-lengthscales."""
    t = y.size
    params = KernelParams(np.exp(log_ls), signal_variance)
    plain = kernel_matrix(x, x, params)
    np.fill_diagonal(plain, signal_variance)
    gram = plain.copy()
    gram[np.diag_indices(t)] += noise_variance
    try:
        chol, _ = _chol_with_jitter(gram, signal_variance)
    except NumericsError:
        return 1e25, np.zeros_like(log_ls)
    alpha = cho_solve((chol, True), y, check_finite=False)
    nll = (
        0.5 * float(y @ alpha)
        + float(np.sum(np.log(np.diag(chol))))
        + 0.5 * t * math.log(2.0 * math.pi)
    )
    inv = cho_solve((chol, True), np.eye(t), check_finite=False)
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
    signal_variance: float = 1.0,
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
        return KernelParams(np.ones(d), signal_variance)
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
            args=(x, y, float(noise_variance), float(signal_variance)),
            jac=True,
            method="L-BFGS-B",
            bounds=[(lo, hi)] * d,
        )
        if best is None or result.fun < best.fun:
            best = result
    return KernelParams(np.exp(best.x), signal_variance)
