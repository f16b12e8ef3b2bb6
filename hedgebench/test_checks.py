"""Each output check passes on a real experiment and fails on a corrupted one.

Run from the root of a checkout:

    python3 -m pytest -q hedgebench/test_checks.py
"""

from __future__ import annotations

import copy
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from gphedge import harness  # noqa: E402
from gphedge.maximizer import MaximizerConfig  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    config = harness.ExperimentConfig(
        objective="branin",
        strategies=("gp-hedge-3", "exp3-3", "ei"),
        trials=2,
        iterations=4,
        seed=3,
        noise_variance=1e-4,
        maximizer=MaximizerConfig(direct_budget=40, multistart_count=2, local_steps=5),
    )
    table = harness.run_experiment(config)
    paths = harness.emit(table, tmp_path_factory.mktemp("out"))
    return checks.Outputs.load(table, paths)


def _with_record(o, key, **changes):
    o = copy.copy(o)
    o.records = dict(o.records)
    o.records[key] = replace(o.records[key], **changes)
    return o


def _shifted(array, index, by):
    out = np.array(array, copy=True)
    out[index] += by
    return out


HEDGE = ("gp-hedge-3", 0)
EXP3 = ("exp3-3", 0)


def _corrupt_truth(o):
    return _with_record(o, HEDGE, f_true=_shifted(o.records[HEDGE].f_true, 1, 0.5))


def _corrupt_gap(o):
    o = copy.copy(o)
    o.csv_rows = [dict(row) for row in o.csv_rows]
    o.csv_rows[2]["gap"] = repr(float(o.csv_rows[2]["gap"]) * 0.5 + 0.25)
    return o


def _corrupt_rewards(o):
    return _with_record(o, HEDGE, rewards=_shifted(o.records[HEDGE].rewards, (0, 1), 0.5))


def _corrupt_probabilities(o):
    probs = o.records[HEDGE].probs[:, ::-1].copy()
    probs[0] = [0.5, 0.25, 0.25]
    return _with_record(o, HEDGE, probs=probs)


def _corrupt_nominees(o):
    r = o.records[HEDGE]
    return _with_record(o, HEDGE, nominees=_shifted(r.nominees, (1, 2, 0), 100.0))


def _corrupt_pairing(o):
    key = ("ei", 1)
    return _with_record(o, key, init_x=_shifted(o.records[key].init_x, (0, 0), 0.25))


def _corrupt_row_count(o):
    o = copy.copy(o)
    o.csv_rows = o.csv_rows[:-1]
    return o


CORRUPTIONS = {
    checks.check_truth: _corrupt_truth,
    checks.check_gap_column: _corrupt_gap,
    checks.check_rewards: _corrupt_rewards,
    checks.check_probabilities: _corrupt_probabilities,
    checks.check_nominees: _corrupt_nominees,
    checks.check_pairing: _corrupt_pairing,
    checks.check_row_count: _corrupt_row_count,
}


def test_every_check_has_a_corruption():
    assert set(CORRUPTIONS) == set(checks.CHECKS)


def test_real_outputs_pass(outputs):
    assert EXP3 in outputs.records
    assert checks.run_checks(outputs) == []


@pytest.mark.parametrize("check", checks.CHECKS, ids=lambda c: c.__name__)
def test_corrupted_outputs_fail(outputs, check):
    assert check(CORRUPTIONS[check](outputs))


def test_chosen_nominee_below_centre_fails(outputs):
    # The worse initial point has almost no posterior variance and a low mean,
    # so every arm scores it below the unexplored centre of the box.
    r = outputs.records[HEDGE]
    nominees = r.nominees.copy()
    nominees[0, r.chosen[0]] = r.init_x[np.argmin(r.init_y)]
    assert checks.check_nominees(_with_record(outputs, HEDGE, nominees=nominees))


def test_exp3_without_exploration_share_fails(outputs):
    # Exp3 mixes gamma / N into the softmax; plain softmax is Hedge's rule.
    r = outputs.records[EXP3]
    probs = (r.probs - checks.EXP3_GAMMA / 3) / (1.0 - checks.EXP3_GAMMA)
    assert checks.check_probabilities(_with_record(outputs, EXP3, probs=probs))


def test_exp3_gain_of_unchosen_arm_fails(outputs):
    r = outputs.records[EXP3]
    unchosen = (int(r.chosen[-1]) + 1) % 3
    gains = _shifted(r.gains, (-1, unchosen), 0.25)
    assert checks.check_probabilities(_with_record(outputs, EXP3, gains=gains))


def test_exp3_gain_above_reward_over_p_hat_fails(outputs):
    r = outputs.records[EXP3]
    gains = _shifted(r.gains, (-1, int(r.chosen[-1])), 1e3)
    assert checks.check_probabilities(_with_record(outputs, EXP3, gains=gains))


def test_exp3_with_textbook_weight_passes(outputs):
    # Replay the record's rescaled rewards with the gain divided by the
    # probability the arm was played with, not by its softmax part: the check
    # must accept that rule too, or it would reject a mend of Exp3.
    r = outputs.records[EXP3]
    eta = np.sqrt(8.0 * np.log(3) / r.iterations)
    gains, probs, paid = np.zeros(3), [], []
    previous = np.vstack([np.zeros(3), r.gains[:-1]])
    for t, j in enumerate(r.chosen):
        logged = np.exp(eta * (previous[t] - previous[t].max()))
        reward = (r.gains[t, j] - previous[t, j]) * logged[j] / logged.sum()
        p_hat = np.exp(eta * (gains - gains.max()))
        p_hat /= p_hat.sum()
        probs.append((1.0 - checks.EXP3_GAMMA) * p_hat + checks.EXP3_GAMMA / 3)
        gains = gains.copy()
        gains[j] += reward / probs[-1][j]
        paid.append(gains)
    mended = _with_record(outputs, EXP3, probs=np.array(probs), gains=np.array(paid))
    assert checks.check_probabilities(mended) == []


def test_rounding_allowance_is_negligible_on_a_well_posed_design(outputs):
    r = outputs.records[HEDGE]
    posterior = checks._Posterior(r, outputs.summary["calibration"], r.iterations)
    assert np.max(posterior.mean_rounding(checks._unit(r, r.nominees[-1]))) < 1e-9
