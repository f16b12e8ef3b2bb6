import dataclasses

import numpy as np
import pytest

from gphedge.acquisitions import ei, pi, ucb
import gphedge.bo as bo_module
from gphedge.bo import RunConfig, run
from gphedge.gp import CARRY_MIN_COUNT, KernelParams, NumericsError, posterior_predict_batch
from gphedge.harness import default_portfolio
from gphedge.maximizer import BoxDomain, MaximizerConfig, latin_hypercube
from gphedge.objectives import ObjectiveSpec, branin, sample_synthetic_objective

FAST = MaximizerConfig(direct_budget=60, multistart_count=3, local_steps=8)


def config(strategy="hedge", acqs=(ei(),), iterations=6, seed=0, **kw):
    spec = kw.pop("objective", None) or sample_synthetic_objective(
        2, 3, locate_optimum=False
    )
    return RunConfig(
        objective=spec,
        iterations=iterations,
        acquisitions=tuple(acqs),
        strategy=strategy,
        kernel=kw.pop("kernel", KernelParams([0.3, 0.3])),
        noise_variance=kw.pop("noise_variance", 0.01),
        maximizer=FAST,
        seed=seed,
        **kw,
    )


def record_bytes(record):
    parts = []
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if isinstance(value, np.ndarray):
            parts.append(value.tobytes())
        else:
            parts.append(repr(value).encode())
    return b"|".join(parts)


def test_identical_config_gives_bitwise_identical_records():
    cfg = config(strategy="hedge", acqs=(pi(), ei(), ucb()), seed=11)
    assert record_bytes(run(cfg)) == record_bytes(run(cfg))


def test_different_seed_changes_the_run():
    a = run(config(strategy="hedge", acqs=(pi(), ei(), ucb()), seed=1))
    b = run(config(strategy="hedge", acqs=(pi(), ei(), ucb()), seed=2))
    assert not np.array_equal(a.x, b.x)


def test_single_arm_portfolio_degenerates_to_plain_bo():
    # On one arm the bandit has nothing to choose: every strategy must pick
    # the same points, bit for bit.
    for seed in (0, 5):
        hedged = run(config(strategy="hedge", acqs=(ei(),), seed=seed))
        for strategy in ("exp3", "normalhedge", "uniform"):
            other = run(config(strategy=strategy, acqs=(ei(),), seed=seed))
            assert other.x.tobytes() == hedged.x.tobytes()
            assert other.y.tobytes() == hedged.y.tobytes()
            assert other.nominees.tobytes() == hedged.nominees.tobytes()


def test_driver_preconditions():
    with pytest.raises(ValueError):
        config(strategy="hedge", acqs=(ei(0.01), ei(0.01)))


def test_chosen_point_is_the_chosen_arms_nominee():
    record = run(config(strategy="hedge", acqs=(pi(), ei(), ucb()), seed=4))
    for t in range(record.iterations):
        assert np.array_equal(record.x[t], record.nominees[t, record.chosen[t]])


def test_every_iteration_consumes_exactly_one_observation():
    record = run(config(strategy="hedge", acqs=(pi(), ei(), ucb()), iterations=9))
    assert record.x.shape == (9, 2)
    assert record.y.shape == (9,)
    assert record.nominees.shape == (9, 3, 2)
    assert record.init_x.shape == (record.init_samples, 2)
    assert np.all(np.diff(record.incumbent) >= 0.0)


def test_noiseless_observations_equal_true_values():
    record = run(config(noise_variance=0.0, iterations=5))
    assert np.array_equal(record.y, record.f_true)


def test_noise_stream_is_paired_across_strategies():
    shared = dict(iterations=4, pair_seed=123)
    a = run(config(strategy="hedge", acqs=(ei(),), seed=7, **shared))
    b = run(config(strategy="hedge", acqs=(pi(), ei(), ucb()), seed=99, **shared))
    assert np.array_equal(a.init_x, b.init_x)
    assert np.array_equal(a.init_y, b.init_y)


def test_probabilities_are_logged_and_normalized():
    record = run(config(strategy="exp3", acqs=(pi(), ei(), ucb()), iterations=7))
    assert record.probs.shape == (7, 3)
    assert np.allclose(record.probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(record.probs >= 0.1 / 3 - 1e-15)  # exp3 floor


def test_gap_and_regret_attached_when_optimum_known():
    spec = sample_synthetic_objective(2, 8)
    record = run(config(objective=spec, iterations=5))
    assert record.gap is not None and record.regret is not None
    assert np.all(np.diff(record.gap) >= 0.0)
    assert record.gap.shape == (5,)


def test_gap_absent_without_known_optimum():
    base = sample_synthetic_objective(2, 3, locate_optimum=False)
    record = run(config(objective=base, iterations=3))
    assert record.gap is None and record.regret is None


def test_ucb_arm_variances_logged():
    record = run(config(strategy="hedge", acqs=(pi(), ei(), ucb()), iterations=5))
    assert record.ucb_arm == 2
    assert np.all(np.isfinite(record.var_prev_ucb))
    no_ucb = run(config(strategy="hedge", acqs=(pi(), ei()), iterations=3))
    assert no_ucb.ucb_arm == -1
    assert np.all(np.isnan(no_ucb.var_prev_ucb))


def test_records_store_original_coordinates():
    spec = branin()
    record = run(
        config(
            objective=spec,
            kernel=KernelParams([0.3, 0.3]),
            iterations=4,
            noise_variance=0.0,
            output_mean=-50.0,
            output_scale=60.0,
        )
    )
    assert np.all(record.x[:, 0] >= -5.0 - 1e-9) and np.all(record.x[:, 0] <= 10.0 + 1e-9)
    assert np.all(record.x[:, 1] >= -1e-9) and np.all(record.x[:, 1] <= 15.0 + 1e-9)
    # y is raw-scale: Branin values, not standardized ones.
    assert np.array_equal(record.y, record.f_true)


def test_hedge_shifts_probability_toward_the_dominant_arm():
    # A bowl sitting above the prior mean: far-from-data nominees revert to
    # mean zero and earn low rewards, so the exploiting arm should dominate.
    def bowl(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        values = 2.0 - np.sum((x - 0.6) ** 2, axis=1)
        return values if values.size > 1 else float(values[0])

    spec = ObjectiveSpec(
        name="bowl",
        domain=BoxDomain([0.0, 0.0], [1.0, 1.0]),
        evaluate=bowl,
        known_optimum=2.0,
    )
    record = run(
        config(
            objective=spec,
            strategy="hedge",
            acqs=(ei(0.01), pi(5.0)),
            iterations=25,
            noise_variance=1e-4,
            init_samples=4,
        )
    )
    assert record.probs[-1, 0] > 0.5  # ei beats the over-exploring pi arm


def test_initial_design_is_deterministic_and_stratified():
    box = BoxDomain([0.0, -1.0], [2.0, 3.0])

    def design(count, seed):
        return box.from_unit(latin_hypercube(count, 2, np.random.default_rng(seed)))

    pts = design(8, seed=3)
    assert np.array_equal(pts, design(8, seed=3))
    assert not np.array_equal(pts, design(8, seed=4))
    assert pts.shape == (8, 2)
    unit = (pts - box.lower) / box.span
    for j in range(2):
        assert np.all(np.histogram(unit[:, j], bins=8, range=(0, 1))[0] == 1)
    with pytest.raises(ValueError):
        config(init_samples=0)


def test_numeric_failures_name_the_iteration():
    calls = {"n": 0}
    base = sample_synthetic_objective(2, 3, locate_optimum=False)

    def flaky(x):
        calls["n"] += 1
        if calls["n"] > 4:
            return np.nan
        return float(base.evaluate(x))

    spec = ObjectiveSpec(
        name="flaky",
        domain=base.domain,
        evaluate=flaky,
    )
    with pytest.raises(NumericsError, match="iteration"):
        run(config(objective=spec, iterations=8, noise_variance=0.0))


def test_config_validation():
    with pytest.raises(ValueError):
        config(iterations=0)
    with pytest.raises(ValueError):
        config(init_samples=0)
    with pytest.raises(ValueError):
        config(seed=-1)
    with pytest.raises(ValueError):
        config(strategy="bandit")


def test_shared_posterior_call_matches_per_arm_calls(monkeypatch):
    # Each sweep answers all arms' probes with one posterior call.  Every
    # arm's slice of it must agree with a call on that slice alone; the
    # tolerance, in standardized units, was fixed before measuring.
    tolerance = 1e-12
    shared = []

    def recording(state, points, carry=None):
        mean, variance = posterior_predict_batch(state, points, carry=carry)
        shared.append((state, mean, variance))
        return mean, variance

    def maximize(f, domain, configs):
        def counted(points, counts):
            values = f(points, counts)
            state, mean, variance = shared[-1]
            bounds = np.cumsum(counts)
            for count, end in zip(counts, bounds):
                if count:
                    rows = slice(end - count, end)
                    alone = posterior_predict_batch(state, points[rows])
                    slices.append((alone, (mean[rows], variance[rows])))
            return values

        return original(counted, domain, configs)

    slices = []
    original = bo_module.maximize
    monkeypatch.setattr(bo_module, "posterior_predict_batch", recording)
    monkeypatch.setattr(bo_module, "maximize", maximize)
    spec = branin()
    run(
        RunConfig(
            objective=spec,
            iterations=3,
            acquisitions=default_portfolio(9),
            strategy="hedge",
            kernel=KernelParams([0.2, 0.3]),
            noise_variance=1e-4,
            output_mean=-50.0,
            output_scale=50.0,
            maximizer=MaximizerConfig(direct_budget=300, multistart_count=4, local_steps=10),
            seed=3,
        )
    )
    assert len(slices) > 9 * 3
    for (mean, variance), (shared_mean, shared_variance) in slices:
        assert np.max(np.abs(mean - shared_mean)) <= tolerance
        assert np.max(np.abs(variance - shared_variance)) <= tolerance


def test_maximizer_probes_carry_their_variances_on_a_large_gp(monkeypatch):
    # From CARRY_MIN_COUNT observations on, the maximizer's posterior calls
    # share one carry per trial: means keep their bits, variances agree
    # with a fresh solve to t * eps * prior variance, and the outer calls
    # whose results the record holds take no carry.
    carried = []
    outer = []

    def recording(state, points, carry=None):
        mean, variance = posterior_predict_batch(state, points, carry=carry)
        fresh_mean, fresh_variance = posterior_predict_batch(state, points)
        assert np.array_equal(mean, fresh_mean)
        tolerance = state.count * np.finfo(float).eps
        assert np.max(np.abs(variance - fresh_variance)) <= tolerance
        (outer if carry is None else carried).append(carry)
        return mean, variance

    monkeypatch.setattr(bo_module, "posterior_predict_batch", recording)
    record = run(
        config(
            objective=branin(),
            acqs=(ucb(),),
            iterations=3,
            init_samples=CARRY_MIN_COUNT,
            kernel=KernelParams([0.2, 0.3]),
            noise_variance=1e-4,
            output_mean=-50.0,
            output_scale=50.0,
        )
    )
    assert len({id(c) for c in carried}) == 1
    assert len(outer) == 2 * record.iterations  # var_prev and var_prev_ucb
    assert carried[0].previous  # probes of the first iteration were carried
