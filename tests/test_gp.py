import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import gphedge.gp as gp_module
from gphedge.gp import (
    KernelParams,
    fit,
    fit_hyperparameters,
    kernel_matrix,
    log_marginal_likelihood,
    posterior_mean,
    posterior_predict_batch,
    update,
)


def dense_oracle(inputs, outputs, kernel, noise_variance, query, jitter=1e-10):
    """Brute-force posterior via an explicit matrix inverse, loops and all.

    Deliberately shares nothing with the implementation under test beyond
    the kernel definition; the diagonal shift matches the design's jitter so
    both sides factor the same matrix.
    """
    t = len(inputs)
    gram = np.empty((t, t))
    for i in range(t):
        for j in range(t):
            r = (inputs[i] - inputs[j]) / kernel.lengthscales
            gram[i, j] = kernel.signal_variance * math.exp(-0.5 * float(r @ r))
    inv = np.linalg.inv(gram + (noise_variance + jitter) * np.eye(t))
    k = np.array(
        [
            kernel.signal_variance
            * math.exp(-0.5 * float(np.sum(((query - inputs[i]) / kernel.lengthscales) ** 2)))
            for i in range(t)
        ]
    )
    mean = float(k @ inv @ outputs)
    variance = float(kernel.signal_variance - k @ inv @ k)
    sign, logdet = np.linalg.slogdet(gram + (noise_variance + jitter) * np.eye(t))
    assert sign > 0
    lml = float(
        -0.5 * outputs @ inv @ outputs - 0.5 * logdet - 0.5 * t * math.log(2 * math.pi)
    )
    return mean, variance, lml


def random_dataset(seed, max_t=20, min_t=1, max_d=6):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, max_d + 1))
    t = int(rng.integers(min_t, max_t + 1))
    inputs = rng.uniform(-1.0, 2.0, size=(t, d))
    outputs = rng.standard_normal(t)
    kernel = KernelParams(rng.uniform(0.3, 2.0, size=d))
    noise = float(rng.uniform(1e-3, 0.1))
    return inputs, outputs, kernel, noise


def kernel_at(a, b, params):
    """Covariance between two points, through the one-row kernel matrix."""
    return kernel_matrix(np.asarray(a)[None, :], np.asarray(b)[None, :], params)[0, 0]


def test_kernel_zero_distance_is_exactly_signal_variance():
    # Exact only on these frozen points: the squared distance is formed as
    # |a|^2 + |b|^2 - 2 a.b, which cancels inexactly on many others.
    params = KernelParams([0.7, 3.0, 0.01])
    x = np.array([1.0, -2.0, 0.5])
    assert kernel_at(x, x, params) == 1.0
    scaled = KernelParams([1.0], signal_variance=2.5)
    assert kernel_at([0.3], [0.3], scaled) == 2.5


def test_kernel_hand_computed_values():
    assert kernel_at([0.0], [1.0], KernelParams([1.0])) == approx(
        math.exp(-0.5), abs=1e-12
    )
    assert kernel_at([0.0, 0.0], [2.0, 0.0], KernelParams([1.0, 1.0])) == approx(
        math.exp(-2.0), abs=1e-12
    )


def test_kernel_dimension_mismatch():
    # A point set of the wrong width is rejected, not reshaped into more
    # points of the kernel's width.
    with pytest.raises(ValueError):
        kernel_matrix([0.0], [1.0, 2.0], KernelParams([1.0, 1.0]))
    with pytest.raises(ValueError):
        kernel_matrix([0.0, 1.0], [1.0, 2.0], KernelParams([1.0]))
    with pytest.raises(ValueError):
        fit(np.zeros((4, 2)), np.zeros(4), KernelParams([1.0]), 0.0)
    state = fit([[0.2], [0.6]], [0.5, -0.5], KernelParams([1.0]), 0.0)
    with pytest.raises(ValueError):
        posterior_predict_batch(state, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        posterior_mean(state, np.zeros((4, 2)))


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams([1.0, -1.0])
    with pytest.raises(ValueError):
        KernelParams([np.inf])
    with pytest.raises(ValueError):
        KernelParams([1.0], signal_variance=0.0)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_kernel_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    params = KernelParams(rng.uniform(0.05, 5.0, size=d), rng.uniform(0.5, 3.0))
    a, b = rng.standard_normal((2, d))
    kab = kernel_at(a, b, params)
    assert kab == kernel_at(b, a, params)
    assert 0.0 <= kab <= params.signal_variance


def test_empty_state_predicts_the_prior():
    state = fit(np.empty((0, 2)), [], KernelParams([1.0, 1.0]), 0.0)
    mean, variance = posterior_predict_batch(state, np.array([[0.3, 0.7]]))
    assert mean[0] == 0.0
    assert variance[0] == 1.0


def test_noiseless_state_interpolates():
    state = fit([[0.25, 0.5]], [1.7], KernelParams([1.0, 1.0]), 0.0)
    mean, variance = posterior_predict_batch(state, np.array([[0.25, 0.5]]))
    assert mean[0] == approx(1.7, abs=1e-8)
    assert variance[0] == approx(0.0, abs=1e-8)


def test_predict_matches_dense_oracle_frozen_case():
    rng = np.random.default_rng(1234)
    inputs = rng.uniform(0.0, 1.0, size=(5, 2))
    outputs = rng.standard_normal(5)
    kernel = KernelParams([0.4, 0.9])
    state = fit(inputs, outputs, kernel, 0.01)
    for query in rng.uniform(0.0, 1.0, size=(6, 2)):
        mean, variance, _ = dense_oracle(inputs, outputs, kernel, 0.01, query)
        pred_mean, pred_variance = posterior_predict_batch(state, query[None, :])
        assert pred_mean[0] == approx(mean, abs=1e-8)
        assert pred_variance[0] == approx(variance, abs=1e-8)
        assert pred_variance[0] + state.noise_variance == approx(variance + 0.01, abs=1e-8)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_predict_and_lml_match_dense_oracle(seed):
    inputs, outputs, kernel, noise = random_dataset(seed)
    state = fit(inputs, outputs, kernel, noise)
    query = np.random.default_rng(seed + 1).uniform(-1.0, 2.0, size=inputs.shape[1])
    mean, variance, lml = dense_oracle(inputs, outputs, kernel, noise, query)
    pred_mean, pred_variance = posterior_predict_batch(state, query[None, :])
    assert pred_mean[0] == approx(mean, abs=1e-8 * (1 + abs(mean)))
    assert pred_variance[0] == approx(variance, abs=1e-8)
    assert log_marginal_likelihood(state) == approx(lml, abs=1e-8 * (1 + abs(lml)))


def test_lml_single_zero_observation():
    state = fit([[0.0]], [0.0], KernelParams([1.0]), 0.0)
    assert log_marginal_likelihood(state) == approx(
        -0.5 * math.log(2 * math.pi), abs=1e-9
    )


def test_lml_zero_outputs_reduce_to_log_det_term():
    rng = np.random.default_rng(5)
    inputs = rng.uniform(0.0, 1.0, size=(7, 3))
    kernel = KernelParams([0.5, 0.8, 1.2])
    state = fit(inputs, np.zeros(7), kernel, 0.05)
    gram = kernel_matrix(inputs, inputs, kernel) + 0.05 * np.eye(7)
    _, logdet = np.linalg.slogdet(gram)
    expected = -0.5 * logdet - 3.5 * math.log(2 * math.pi)
    assert log_marginal_likelihood(state) == approx(expected, abs=1e-7)


def test_lml_requires_observations():
    state = fit(np.empty((0, 1)), [], KernelParams([1.0]), 0.0)
    with pytest.raises(ValueError):
        log_marginal_likelihood(state)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_incremental_update_equals_batch_fit(seed):
    inputs, outputs, kernel, noise = random_dataset(seed, max_t=12, min_t=2)
    state = fit(inputs[:1], outputs[:1], kernel, noise)
    for x, y in zip(inputs[1:], outputs[1:]):
        state = update(state, x, y)
    batch = fit(inputs, outputs, kernel, noise)
    assert np.array_equal(state.inputs, batch.inputs)
    assert np.array_equal(state.outputs, batch.outputs)
    assert np.allclose(state.chol, batch.chol, atol=1e-10)
    assert np.allclose(state.alpha, batch.alpha, atol=1e-10)


def _frozen_kernel_matrix(x, z, params):
    """The out-of-place kernel expression from before the in-place chain."""
    xs = np.asarray(x, dtype=float).reshape(-1, params.dimension) / params.lengthscales
    zs = np.asarray(z, dtype=float).reshape(-1, params.dimension) / params.lengthscales
    sq = (
        np.sum(xs * xs, axis=1)[:, None]
        + np.sum(zs * zs, axis=1)[None, :]
        - 2.0 * (xs @ zs.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return params.signal_variance * np.exp(-0.5 * sq)


@pytest.mark.parametrize("signal_variance", [1.0, 0.3, 2.5])
def test_kernel_matrix_is_bit_identical_to_the_frozen_expression(signal_variance):
    rng = np.random.default_rng(int(signal_variance * 10))
    for _ in range(60):
        d = int(rng.integers(1, 7))
        params = KernelParams(rng.uniform(1e-2, 3.0, size=d), signal_variance)
        x = rng.uniform(-1.0, 2.0, size=(int(rng.integers(1, 30)), d))
        z = rng.uniform(-1.0, 2.0, size=(int(rng.integers(1, 30)), d))
        z[: min(3, len(z), len(x))] = x[: min(3, len(z), len(x))]  # zero distances
        assert np.array_equal(kernel_matrix(x, z, params), _frozen_kernel_matrix(x, z, params))
        state = fit(x, rng.standard_normal(len(x)), params, 1e-3)
        frozen_mean = _frozen_kernel_matrix(x, z, params).T @ state.alpha
        assert np.array_equal(posterior_mean(state, z), frozen_mean)


def test_fit_factors_the_frozen_gram():
    rng = np.random.default_rng(11)
    for t, d in ((5, 2), (100, 2), (60, 6)):
        x = rng.random((t, d))
        kernel = KernelParams(np.full(d, 0.3))
        state = fit(x, rng.standard_normal(t), kernel, 1e-6)
        gram = _frozen_kernel_matrix(x, x, kernel)
        np.fill_diagonal(gram, kernel.signal_variance)
        gram[np.diag_indices(t)] += 1e-6
        expected = np.linalg.cholesky(gram + state.jitter * np.eye(t))
        assert np.array_equal(state.chol, expected)


def test_cached_scaled_inputs_match_a_fresh_fit(monkeypatch):
    inputs, outputs, kernel, noise = random_dataset(7, max_t=12, min_t=8)
    kernel = KernelParams(kernel.lengthscales, 2.5)
    state = fit(inputs[:0], outputs[:0], kernel, noise)
    for i in range(1, len(outputs) + 1):
        if i == 5:
            # A row this long eats the pivot, so the update refits from scratch.
            with monkeypatch.context() as m:
                m.setattr(
                    gp_module, "solve_triangular", lambda chol, b, **kw: np.full(b.size, 1e3)
                )
                state = update(state, inputs[i - 1], outputs[i - 1])
        else:
            state = update(state, inputs[i - 1], outputs[i - 1])
        fresh = fit(inputs[:i], outputs[:i], kernel, noise)
        assert np.array_equal(state.scaled_inputs, fresh.scaled_inputs)
        assert np.array_equal(state.scaled_norms, fresh.scaled_norms)
        if i == 5:
            assert np.array_equal(state.chol, fresh.chol)


def test_chol_reconstructs_noisy_gram():
    inputs, outputs, kernel, noise = random_dataset(42)
    state = fit(inputs, outputs, kernel, noise)
    gram = kernel_matrix(inputs, inputs, kernel)
    np.fill_diagonal(gram, kernel.signal_variance)
    gram += (noise + state.jitter) * np.eye(len(outputs))
    assert np.allclose(state.chol @ state.chol.T, gram, rtol=1e-8, atol=1e-12)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_noiseless_variance_never_grows_with_data(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    kernel = KernelParams(rng.uniform(0.4, 1.5, size=d))
    inputs = rng.uniform(0.0, 1.0, size=(8, d))
    outputs = rng.standard_normal(8)
    queries = rng.uniform(0.0, 1.0, size=(5, d))
    previous = np.full(5, kernel.signal_variance)
    for t in range(1, 9):
        state = fit(inputs[:t], outputs[:t], kernel, 0.0)
        _, variance = posterior_predict_batch(state, queries)
        assert np.all(variance <= previous + 1e-10)
        previous = variance


def test_gram_positive_definite_across_random_configurations():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(1, 7))
        t = int(rng.integers(1, 201))
        kernel = KernelParams(rng.uniform(0.05, 3.0, size=d))
        inputs = rng.uniform(0.0, 1.0, size=(t, d))
        state = fit(inputs, rng.standard_normal(t), kernel, 0.0)
        assert np.all(np.isfinite(state.chol))


def test_variance_bounded_by_prior():
    inputs, outputs, kernel, noise = random_dataset(9)
    state = fit(inputs, outputs, kernel, noise)
    rng = np.random.default_rng(10)
    _, variance = posterior_predict_batch(
        state, rng.uniform(-1.0, 2.0, size=(50, inputs.shape[1]))
    )
    assert np.all(variance <= kernel.signal_variance + 1e-8)
    assert np.all(variance >= 0.0)


def test_fit_hyperparameters_is_deterministic_and_improves():
    rng = np.random.default_rng(0)
    kernel_true = KernelParams([0.2, 0.6])
    inputs = rng.uniform(0.0, 1.0, size=(40, 2))
    gram = kernel_matrix(inputs, inputs, kernel_true) + 1e-8 * np.eye(40)
    outputs = np.linalg.cholesky(gram) @ rng.standard_normal(40)
    fitted = fit_hyperparameters(inputs, outputs, 1e-4, search_budget=4, seed=3)
    again = fit_hyperparameters(inputs, outputs, 1e-4, search_budget=4, seed=3)
    assert np.array_equal(fitted.lengthscales, again.lengthscales)
    baseline = log_marginal_likelihood(fit(inputs, outputs, KernelParams([1.0, 1.0]), 1e-4))
    improved = log_marginal_likelihood(fit(inputs, outputs, fitted, 1e-4))
    assert improved >= baseline


def test_fit_hyperparameters_degenerate_outputs_warn():
    inputs = np.random.default_rng(1).uniform(0.0, 1.0, size=(6, 2))
    with pytest.warns(RuntimeWarning):
        fitted = fit_hyperparameters(inputs, np.ones(6), 1e-4)
    assert np.array_equal(fitted.lengthscales, np.ones(2))


def test_fit_hyperparameters_needs_two_points():
    with pytest.raises(ValueError):
        fit_hyperparameters([[0.0]], [1.0], 1e-4)


def test_states_are_immutable():
    inputs, outputs, kernel, noise = random_dataset(3)
    state = fit(inputs, outputs, kernel, noise)
    with pytest.raises(ValueError):
        state.alpha[0] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        updated = update(state, np.zeros(inputs.shape[1]), 0.0)
    assert updated.count == state.count + 1
    assert state.count == len(outputs)
