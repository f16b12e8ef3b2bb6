import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy.special import erfc

from gphedge.acquisitions import (
    AcquisitionSpec,
    BetaSchedule,
    acquisition_rows,
    acquisition_values,
    beta_t,
    ei,
    pi,
    ucb,
)


# Schedule crafted so that beta_1 = 10 exactly: delta = 50 (pi^2/6) / e^5.
_BETA10 = BetaSchedule(delta=0.554173927970673, cardinality=50)


def one_arm(spec, incumbent=0.0, t=1, schedule=_BETA10):
    return acquisition_rows((spec,), incumbent, t, schedule)


def acq_pi(mean, variance, incumbent, xi):
    """PI at one point, through the vectorized pass."""
    rows = one_arm(pi(xi), incumbent)
    return float(acquisition_values(rows, [mean], [math.sqrt(variance)])[0])


def acq_ei(mean, variance, incumbent, xi):
    rows = one_arm(ei(xi), incumbent)
    return float(acquisition_values(rows, [mean], [math.sqrt(variance)])[0])


def acq_ucb(mean, variance, t, nu, schedule):
    rows = one_arm(ucb(nu), t=t, schedule=schedule)
    return float(acquisition_values(rows, [mean], [math.sqrt(variance)])[0])


def test_pi_at_the_margin_is_one_half():
    assert acq_pi(1.26, 4.0, 1.0, 0.26) == approx(0.5)


def test_pi_one_sigma_above_margin():
    assert acq_pi(2.5, 1.0, 1.5, 0.0) == approx(
        0.8413447460685429, abs=1e-12
    )


def test_pi_zero_uncertainty_cases():
    assert acq_pi(0.5, 0.0, 1.0, 0.0) == 0.0
    assert acq_pi(1.5, 0.0, 1.0, 0.0) == 1.0
    assert acq_pi(1.0, 0.0, 1.0, 0.0) == 0.0


def test_ei_zero_sigma_is_zero():
    for mean in (-3.0, 0.0, 5.0):
        assert acq_ei(mean, 0.0, 0.0, 0.0) == 0.0


def test_ei_at_zero_gap_equals_standard_normal_density():
    assert acq_ei(1.0, 1.0, 1.0, 0.0) == approx(
        0.3989422804014327, abs=1e-12
    )


def test_ei_matches_monte_carlo_oracle():
    rng = np.random.default_rng(77)
    samples = rng.standard_normal(10**6)
    estimate = np.maximum(samples, 0.0)
    closed = acq_ei(0.0, 1.0, 0.0, 0.0)
    stderr = estimate.std() / math.sqrt(samples.size)
    assert abs(closed - estimate.mean()) < 3 * stderr


def test_ucb_zero_sigma_returns_the_mean():
    assert acq_ucb(1.75, 0.0, t=3, nu=0.2, schedule=_BETA10) == approx(1.75)


def test_ucb_hand_computed_value():
    assert beta_t(_BETA10, 1) == approx(10.0, abs=1e-9)
    assert acq_ucb(0.0, 1.0, t=1, nu=0.2, schedule=_BETA10) == approx(
        math.sqrt(2.0), abs=1e-9
    )


def test_ucb_increases_with_nu():
    values = [
        acq_ucb(0.0, 0.5, t=2, nu=nu, schedule=_BETA10)
        for nu in (0.1, 0.2, 1.0, 5.0)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_beta_example_value():
    schedule = BetaSchedule(delta=0.1, cardinality=1000)
    assert beta_t(schedule, 1) == approx(19.416081348893854, abs=1e-3)


def test_beta_monotone_in_t():
    schedule = BetaSchedule(delta=0.1, cardinality=1000)
    betas = [beta_t(schedule, t) for t in range(1, 50)]
    assert all(a < b for a, b in zip(betas, betas[1:]))


def test_beta_doubling_delta_shifts_by_two_log_two():
    lo = BetaSchedule(delta=0.2, cardinality=1000)
    hi = BetaSchedule(delta=0.4, cardinality=1000)
    for t in (1, 7, 123):
        assert beta_t(lo, t) - beta_t(hi, t) == approx(2 * math.log(2.0), abs=1e-12)


def test_beta_requires_valid_iteration():
    with pytest.raises(ValueError):
        beta_t(_BETA10, 0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        BetaSchedule(delta=1.0)
    with pytest.raises(ValueError):
        BetaSchedule(delta=0.1, cardinality=0)


def test_spec_validation_and_labels():
    with pytest.raises(ValueError):
        AcquisitionSpec("entropy")
    with pytest.raises(ValueError):
        pi(xi=-0.1)
    with pytest.raises(ValueError):
        ucb(nu=0.0)
    assert pi(0.01).label == "pi(xi=0.01)"
    assert ei(1.0).label == "ei(xi=1)"
    assert ucb(0.2).label == "ucb(nu=0.2)"
    assert ucb(0.2, label="mine").label == "mine"


@given(
    st.floats(-5, 5),
    st.floats(0.05, 4.0),
    st.floats(-5, 5),
    st.floats(0, 2),
    st.floats(-10, 10),
)
@settings(max_examples=100, deadline=None)
def test_translation_identity(mean, sigma, incumbent, xi, shift):
    variance = sigma * sigma
    base_pi = acq_pi(mean, variance, incumbent, xi)
    base_ei = acq_ei(mean, variance, incumbent, xi)
    assert acq_pi(mean + shift, variance, incumbent + shift, xi) == approx(
        base_pi, rel=1e-12, abs=1e-12
    )
    assert acq_ei(mean + shift, variance, incumbent + shift, xi) == approx(
        base_ei, rel=1e-9, abs=1e-12
    )


@given(st.floats(-30, 30), st.floats(0, 10), st.floats(-30, 30), st.floats(0, 5))
@settings(max_examples=200, deadline=None)
def test_ranges_and_finiteness(mean, sigma, incumbent, xi):
    p = acq_pi(mean, sigma * sigma, incumbent, xi)
    e = acq_ei(mean, sigma * sigma, incumbent, xi)
    u = acq_ucb(mean, sigma * sigma, t=5, nu=0.2, schedule=_BETA10)
    assert 0.0 <= p <= 1.0
    assert e >= 0.0
    assert math.isfinite(p) and math.isfinite(e) and math.isfinite(u)


def test_ucb_nondecreasing_in_sigma():
    sigmas = np.linspace(0.0, 3.0, 40)
    rows = one_arm(ucb(0.2), t=4)
    values = acquisition_values(rows, np.zeros_like(sigmas), sigmas)
    assert np.all(np.diff(values) >= 0.0)


def test_vectorized_forms_match_scalar_ops():
    rng = np.random.default_rng(3)
    means = rng.uniform(-2, 2, size=20)
    sigmas = rng.uniform(0, 2, size=20)
    sigmas[0] = 0.0
    pi_values = acquisition_values(one_arm(pi(0.01), 0.3), means, sigmas)
    ei_values = acquisition_values(one_arm(ei(0.01), 0.3), means, sigmas)
    for i in range(20):
        variance = sigmas[i] ** 2
        assert pi_values[i] == approx(
            acq_pi(means[i], variance, 0.3, 0.01), abs=1e-14
        )
        assert ei_values[i] == approx(
            acq_ei(means[i], variance, 0.3, 0.01), abs=1e-14
        )


def _frozen_reference(spec, mean, sigma, incumbent, t, schedule):
    """The per-kind expressions from before the one-pass evaluation."""
    if spec.kind == "ucb":
        return mean + math.sqrt(spec.nu * beta_t(schedule, t)) * sigma
    gap = mean - incumbent - spec.xi
    positive = sigma > 0.0
    safe = np.where(positive, sigma, 1.0)
    z = gap / safe
    cdf = 0.5 * erfc(-z / math.sqrt(2.0))
    if spec.kind == "pi":
        return np.where(positive, cdf, (gap > 0.0).astype(float))
    pdf = 1.0 / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * z * z)
    return np.maximum(np.where(positive, gap * cdf + safe * pdf, 0.0), 0.0)


@pytest.mark.parametrize("n_arms", [1, 3, 9])
def test_many_arm_pass_is_bit_identical_to_per_arm_calls(n_arms):
    rng = np.random.default_rng(n_arms)
    schedule = BetaSchedule(delta=0.1, cardinality=20_000)
    kinds = ("pi", "ei", "ucb")
    for trial in range(40):
        specs = [
            AcquisitionSpec(
                kinds[(trial + a) % 3] if n_arms > 1 else kinds[trial % 3],
                xi=float(rng.choice([0.0, 0.01, 0.1, 1.0])),
                nu=float(rng.choice([0.1, 0.2, 1.0])),
                label=str(a),
            )
            for a in range(n_arms)
        ]
        counts = rng.integers(0, 12, size=n_arms)
        if n_arms > 1:
            counts[rng.integers(n_arms)] = 0
        n = int(counts.sum())
        mean = rng.normal(scale=rng.choice([1e-3, 1.0, 30.0]), size=n)
        sigma = rng.uniform(0.0, 2.0, size=n) ** 3
        sigma[rng.random(n) < 0.25] = 0.0
        incumbent = float(rng.normal())
        t = int(rng.integers(1, 200))
        rows = acquisition_rows(specs, incumbent, t, schedule)
        assert not rows.table.flags.writeable
        stacked = acquisition_values(rows, mean, sigma, counts=counts)
        end = 0
        for spec, count in zip(specs, counts):
            arm = slice(end, end + count)
            alone = acquisition_values(
                acquisition_rows((spec,), incumbent, t, schedule), mean[arm], sigma[arm]
            )
            frozen = _frozen_reference(spec, mean[arm], sigma[arm], incumbent, t, schedule)
            assert np.array_equal(stacked[arm], alone)
            assert np.array_equal(alone, frozen)
            end += count


def test_dispatcher_requires_context():
    with pytest.raises(ValueError):
        acquisition_rows((pi(), ucb()), 0.0, 0, _BETA10)  # t starts at 1
    out = acquisition_values(one_arm(ei()), [0.0], [1.0])
    assert out.shape == (1,)
    two = acquisition_rows((pi(), ucb()), 0.0, 1, _BETA10)
    with pytest.raises(ValueError):
        acquisition_values(two, [0.0, 1.0], [1.0, 1.0])
    out = acquisition_values(two, [0.0, 1.0], [1.0, 1.0], counts=(1, 1))
    assert out.shape == (2,)
