"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  The paired benchmark comparison (criterion 6) dominates the
runtime at roughly ten minutes; everything else finishes in seconds to a
couple of minutes.
"""

import math
import time

import numpy as np
import pytest

from gphedge.acquisitions import BetaSchedule, acquisition_values, ei, pi
from gphedge.bo import RunConfig, initial_design, run
from gphedge.cli import main as cli_main
from gphedge.gp import (
    KernelParams,
    fit,
    log_marginal_likelihood,
    posterior_predict_batch,
)
from gphedge.harness import ExperimentConfig, default_portfolio, run_experiment
from gphedge.maximizer import MaximizerConfig, unit_box
from gphedge.metrics import band_coverage_violated, variance_sum_check
from gphedge.objectives import branin, hartman3, sample_synthetic_objective
from gphedge.portfolio import new_portfolio, probabilities, update_hedge

from test_gp import dense_oracle

FAST_MAXIMIZER = MaximizerConfig(direct_budget=100, multistart_count=4, local_steps=12)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def rel_close(a, b, tol=1e-8):
    return abs(a - b) <= tol * (1.0 + abs(b))


# -- shared runs ------------------------------------------------------------


@pytest.fixture(scope="module")
def lemma4_records():
    """50 short portfolio runs on synthetic 2-d objectives at sigma^2 = 0.01."""
    records = []
    for seed in range(50):
        spec = sample_synthetic_objective(2, 1000 + seed, locate_optimum=False)
        config = RunConfig(
            objective=spec,
            iterations=30,
            acquisitions=default_portfolio(3),
            strategy="hedge",
            kernel=KernelParams([0.3, 0.3]),
            noise_variance=0.01,
            maximizer=FAST_MAXIMIZER,
            seed=seed,
        )
        records.append(run(config))
    return records


@pytest.fixture(scope="module")
def headline_tables():
    """25 paired trials of GP-Hedge-9 against the single acquisitions."""
    tables = {}
    for objective, d in (("branin", 2), ("hartman3", 3)):
        config = ExperimentConfig(
            objective=objective,
            strategies=("gp-hedge-9", "pi", "ei", "ucb"),
            trials=25,
            iterations=100,
            seed=777,
            noise_variance=1e-4,
            maximizer=MaximizerConfig(
                direct_budget=60 * d, multistart_count=4, local_steps=15
            ),
            hyperfit_samples=100,
            hyperfit_restarts=6,
        )
        tables[objective] = run_experiment(config)
    return tables


@pytest.fixture(scope="module")
def equivalence_records():
    """One-arm EI portfolios under every bandit, one tuple per seed/objective."""
    groups = []
    for spec in (branin(), hartman3()):
        kernel = KernelParams(np.full(spec.dimension, 0.3))
        for seed in range(10):
            shared = dict(
                objective=spec,
                iterations=12,
                kernel=kernel,
                noise_variance=1e-4,
                maximizer=FAST_MAXIMIZER,
                seed=seed,
                output_mean=-1.0,
                output_scale=50.0 if spec.name == "branin" else 1.0,
            )
            groups.append(
                tuple(
                    run(
                        RunConfig(
                            acquisitions=default_portfolio(3)[1:2],
                            strategy=strategy,
                            **shared,
                        )
                    )
                    for strategy in ("hedge", "exp3", "normalhedge", "uniform")
                )
            )
    return groups


# -- criteria ---------------------------------------------------------------


def test_criterion_1_gp_matches_dense_inverse_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20250101)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 7))
        t = int(rng.integers(1, 21))
        inputs = rng.uniform(-1.0, 2.0, size=(t, d))
        outputs = rng.standard_normal(t)
        kernel = KernelParams(rng.uniform(0.3, 2.0, size=d))
        noise = float(rng.uniform(1e-3, 0.1))
        state = fit(inputs, outputs, kernel, noise)
        query = rng.uniform(-1.0, 2.0, size=d)
        mean, variance, lml = dense_oracle(
            inputs, outputs, kernel, noise, query, jitter=state.jitter
        )
        means, variances = posterior_predict_batch(state, query[None, :])
        pred_mean, pred_variance = float(means[0]), float(variances[0])
        ok = (
            rel_close(pred_mean, mean)
            and rel_close(pred_variance, variance)
            and rel_close(log_marginal_likelihood(state), lml)
        )
        worst = max(
            worst,
            abs(pred_mean - mean) / (1 + abs(mean)),
            abs(pred_variance - variance) / (1 + abs(variance)),
        )
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(
        1,
        "gp dense-inverse oracle",
        ok and elapsed < 10.0,
        f"worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_acquisition_monte_carlo_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(20250204)
    draws = 10**6
    failures = 0
    for _ in range(100):
        sigma = float(rng.uniform(0.1, 2.0))
        mean = float(rng.uniform(-2.0, 2.0))
        xi = float(rng.uniform(0.0, 1.0))
        # Keep the improvement event non-degenerate for the binomial error.
        incumbent = mean - xi + sigma * float(rng.uniform(-2.5, 2.5))
        samples = mean + sigma * rng.standard_normal(draws)
        improvement = samples - incumbent - xi
        closed_ei, closed_pi = acquisition_values(
            (ei(xi), pi(xi)),
            [mean, mean],
            [math.sqrt(sigma * sigma)] * 2,
            incumbent=incumbent,
            counts=(1, 1),
        )

        mc_ei = np.maximum(improvement, 0.0)
        se_ei = mc_ei.std() / math.sqrt(draws)
        if abs(closed_ei - mc_ei.mean()) > 3 * se_ei:
            failures += 1

        hit = improvement >= 0.0
        p_hat = hit.mean()
        se_pi = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / draws)
        if abs(closed_pi - p_hat) > 3 * se_pi:
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        2,
        "EI/PI Monte-Carlo oracles",
        failures == 0 and elapsed < 60.0,
        f"{failures} deviations beyond 3 standard errors, {elapsed:.1f}s",
    )


def test_criterion_3_variance_sum_inequality(lemma4_records):
    start = time.perf_counter()
    holds = []
    slack = math.inf
    for record in lemma4_records:
        schedule = BetaSchedule(delta=0.1, cardinality=record.beta_cardinality)
        check = variance_sum_check(record, schedule, record.gp_noise_variance)
        holds.append(check.holds)
        slack = min(slack, check.rhs - check.lhs)
    elapsed = time.perf_counter() - start
    report(
        3,
        "variance-sum inequality",
        all(holds) and elapsed < 300.0,
        f"{sum(holds)}/50 runs hold, min slack {slack:.3g}, {elapsed:.0f}s",
    )


def test_criterion_4_confidence_band_coverage():
    start = time.perf_counter()
    delta = 0.1
    replications = 200
    kernel = KernelParams([0.35, 0.35])
    grid = initial_design(unit_box(2), 1000, seed=4)
    schedule = BetaSchedule(delta=delta, cardinality=1000)
    violations = sum(
        band_coverage_violated(
            kernel,
            gp_noise=0.01,
            grid=grid,
            schedule=schedule,
            steps=50,
            rng=np.random.default_rng(40_000 + rep),
        )
        for rep in range(replications)
    )
    rate = violations / replications
    margin = 3.0 * math.sqrt(delta * (1 - delta) / replications)
    elapsed = time.perf_counter() - start
    report(
        4,
        "confidence-band coverage",
        rate <= delta + margin and elapsed < 1200.0,
        f"violation rate {rate:.3f} vs bound {delta + margin:.3f}, {elapsed:.0f}s",
    )


def _adversarial_streams(count, horizon, arms, rng):
    for index in range(count):
        kind = index % 4
        if kind == 0:
            yield rng.uniform(0.0, 1.0, size=(horizon, arms)), False
        elif kind == 1:
            rewards = rng.uniform(0.0, 0.2, size=(horizon, arms))
            block = max(horizon // arms, 1)
            for arm in range(arms):
                rewards[arm * block : (arm + 1) * block, arm] = 1.0
            yield rewards, False
        elif kind == 2:
            steps = np.arange(horizon)[:, None]
            phases = rng.uniform(0.0, 2 * math.pi, size=arms)
            yield 0.5 + 0.5 * np.sin(steps / 50.0 + phases), False
        else:
            yield None, True  # adaptive adversary, built against the learner


def test_criterion_5_hedge_regret_bound():
    start = time.perf_counter()
    arms, horizon = 9, 10_000
    bound = 2.0 * math.sqrt(2.0 * horizon * math.log(arms))
    rng = np.random.default_rng(20250505)
    worst = -math.inf
    ok = True
    for rewards, adaptive in _adversarial_streams(100, horizon, arms, rng):
        state = new_portfolio("hedge", arms, rescale=False)
        expected_gain = 0.0
        for t in range(horizon):
            p = probabilities(state)
            if adaptive:
                row = np.full(arms, 1.0)
                row[np.argmax(p)] = 0.0  # starve whatever the learner prefers
            else:
                row = rewards[t]
            expected_gain += float(p @ row)
            state = update_hedge(state, row)
        regret = float(state.gains.max()) - expected_gain
        worst = max(worst, regret)
        if regret > bound:
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(
        5,
        "hedge regret bound",
        ok and elapsed < 60.0,
        f"worst regret {worst:.1f} vs bound {bound:.1f}, {elapsed:.0f}s",
    )


def test_criterion_6_portfolio_headline(headline_tables):
    details = []
    ok = True
    for objective, table in headline_tables.items():
        trials = table.config.trials
        finals = {
            s: np.array([table.records[(s, k)].gap[-1] for k in range(trials)])
            for s in table.config.strategies
        }
        best_single = max(("pi", "ei", "ucb"), key=lambda s: finals[s].mean())
        diff = finals["gp-hedge-9"] - finals[best_single]
        stderr = diff.std(ddof=1) / math.sqrt(trials)
        ok = ok and diff.mean() >= -stderr
        details.append(
            f"{objective}: hedge9 {finals['gp-hedge-9'].mean():.4f} vs "
            f"{best_single} {finals[best_single].mean():.4f} "
            f"(paired diff {diff.mean():+.4f}, se {stderr:.4f})"
        )
    report(6, "portfolio matches best single acquisition", ok, "; ".join(details))


def test_criterion_7_degenerate_portfolio_equivalence(equivalence_records):
    # On one arm the bandit is inert, which is what plain BO means: every
    # bandit must sample the same points.
    mismatches = 0
    for hedged, *others in equivalence_records:
        if any(
            other.x.tobytes() != hedged.x.tobytes()
            or other.y.tobytes() != hedged.y.tobytes()
            or other.nominees.tobytes() != hedged.nominees.tobytes()
            for other in others
        ):
            mismatches += 1
    report(
        7,
        "one-arm portfolio equals plain BO",
        mismatches == 0,
        f"{len(equivalence_records)} seed/objective pairs, {mismatches} mismatches",
    )


def test_criterion_8_gap_metric_properties(
    lemma4_records, headline_tables, equivalence_records
):
    records = list(lemma4_records)
    for table in headline_tables.values():
        records.extend(table.records.values())
    for group in equivalence_records:
        records.extend(group)
    checked = 0
    ok = True
    for record in records:
        if record.gap is None:
            continue
        checked += 1
        values = record.gap
        f_x1 = record.f_true_init.max()
        ok = ok and np.all(np.diff(values) >= 0.0)
        ok = ok and np.all((values >= 0.0) & (values <= 1.0))
        # Endpoint semantics: zero iff no improvement over the initial best.
        improved = record.f_true.max() > f_x1
        ok = ok and (values[-1] > 0.0) == improved
        if not ok:
            break
    report(
        8,
        "gap metric properties",
        ok and checked > 0,
        f"{checked} recorded runs checked",
    )


def test_criterion_9_reproducible_csv(tmp_path):
    outputs = []
    for rerun in ("a", "b"):
        out = tmp_path / rerun
        code = cli_main(
            [
                "run",
                "configs/branin.yaml",
                "--trials",
                "2",
                "--iters",
                "10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(next(out.glob("branin_*.csv")).read_bytes())
    report(
        9,
        "byte-identical CSV reruns",
        outputs[0] == outputs[1],
        f"{len(outputs[0])} bytes each",
    )


def test_criterion_10_synthetic_generator():
    ok = True
    details = []
    for d, seed in ((1, 0), (2, 1), (3, 2)):
        spec = sample_synthetic_objective(d, seed, locate_optimum=False)
        surface = spec.evaluate
        interp = float(np.max(np.abs(surface(surface.points) - surface.targets)))
        probes = np.random.default_rng(900 + d).random((500, d))
        plateau = int(np.sum(np.abs(surface(probes)) < 1e-9))
        twin = sample_synthetic_objective(d, seed, locate_optimum=False)
        same = np.array_equal(
            surface(np.random.default_rng(7).random((100, d))),
            twin.evaluate(np.random.default_rng(7).random((100, d))),
        )
        ok = ok and interp < 1e-4 and plateau <= 25 and same
        details.append(f"d={d}: interp {interp:.1e}, plateau {plateau}/500")
    report(10, "synthetic-objective generator", ok, "; ".join(details))
