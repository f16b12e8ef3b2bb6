"""Checks of an experiment's outputs, computed apart from the program.

Everything here is NumPy and the standard library: the Branin formula, the
GP posterior by a dense solve, PI / EI / GP-UCB, the gap and the Hedge
softmax.  Nothing
is imported from ``gphedge``; the records are read as plain attributes.

Each check takes an :class:`Outputs` and returns a list of failure messages,
empty when the outputs hold.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Branin-Hoo, minimization form, on [-5, 10] x [0, 15]; the program maximizes
# its negation, whose optimum is -5 / (4 pi) at three points.
_A, _B, _C = 1.0, 5.1 / (4.0 * math.pi**2), 5.0 / math.pi
_R, _S, _T = 6.0, 10.0, 1.0 / (8.0 * math.pi)
BRANIN_MAXIMUM = -5.0 / (4.0 * math.pi)
GP_JITTER = 1e-10  # the program's first Cholesky shift, relative to unit signal
EXP3_GAMMA = 0.1  # the harness leaves the bandit's exploration share at its default


def negated_branin(x) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    x1, x2 = x[:, 0], x[:, 1]
    return -(
        _A * (x2 - _B * x1**2 + _C * x1 - _R) ** 2 + _S * (1.0 - _T) * np.cos(x1) + _S
    )


def se_kernel(a, b, lengthscales, variance=1.0) -> np.ndarray:
    """ARD squared exponential from pairwise differences."""
    diff = (np.asarray(a)[:, None, :] - np.asarray(b)[None, :, :]) / lengthscales
    return variance * np.exp(-0.5 * np.sum(diff * diff, axis=-1))


@dataclass
class Outputs:
    """What one experiment produced: records in memory plus emitted files."""

    records: dict  # (strategy, trial) -> TrialRecord
    iterations: int
    csv_rows: list[dict]
    summary: dict

    @classmethod
    def load(cls, table, paths) -> "Outputs":
        if table.config.objective != "branin":
            raise ValueError(f"no independent formula for {table.config.objective!r}")
        with open(paths["csv"], newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        summary = json.loads(Path(paths["json"]).read_text(encoding="utf-8"))
        return cls(
            records=dict(table.records),
            iterations=table.config.iterations,
            csv_rows=rows,
            summary=summary,
        )


def _unit(record, x) -> np.ndarray:
    return (np.asarray(x) - record.domain_lower) / (
        record.domain_upper - record.domain_lower
    )


class _Posterior:
    """GP posterior by dense solves, in the record's standardized units."""

    def __init__(self, record, calibration: dict, observed: int):
        self.ls = np.asarray(calibration["lengthscales"], dtype=float)
        self.sv = float(calibration["signal_variance"])
        self.X = _unit(record, np.vstack([record.init_x, record.x[:observed]]))
        y = np.concatenate([record.init_y, record.y[:observed]])
        z = (y - record.output_mean) / record.output_scale
        noise = record.gp_noise_variance + GP_JITTER * self.sv
        self.K = se_kernel(self.X, self.X, self.ls, self.sv) + noise * np.eye(len(self.X))
        self.weights = np.linalg.solve(self.K, z)

    def __call__(self, u):
        cross = se_kernel(self.X, np.atleast_2d(u), self.ls, self.sv)
        mean = cross.T @ self.weights
        reduce = np.einsum("ij,ij->j", cross, np.linalg.solve(self.K, cross))
        return mean, np.sqrt(np.maximum(self.sv - reduce, 0.0))

    def mean_rounding(self, u) -> np.ndarray:
        """How far float64 rounding may move the mean at u, to first order.

        A squared distance formed from coordinates scaled by 1 / lengthscale,
        in the expansion |a|^2 + |b|^2 - 2 a.b that GP codes use, errs by up
        to a few eps * |a|^2, so each kernel entry errs by up to 4 eps s k
        with s the largest |x / lengthscale|^2; a backward-stable solve adds
        n eps |K|.  The mean then moves by (|dK| |K^-1 k(u)| + |dk(u)|)
        |weights|.  That is negligible on a well-posed design.  A degenerate
        calibration (a lengthscale near 0.003) with near-duplicate points
        under tiny noise drives |weights| to 1e5 or more, and the mean is
        then fixed to about 1e-5 only.
        """
        u = np.atleast_2d(u)
        cross = se_kernel(self.X, u, self.ls, self.sv)
        s = max(np.sum((p / self.ls) ** 2, axis=1).max() for p in (self.X, u))
        entry = 4.0 * np.finfo(float).eps * (s + len(self.X))
        spread = np.linalg.norm(np.linalg.solve(self.K, cross), axis=0)
        size = np.abs(self.K).sum(axis=1).max()
        lever = size * spread + np.linalg.norm(cross, axis=0)
        return entry * lever * np.linalg.norm(self.weights)


def _acquisition(label, mean, sd, incumbent, t, record):
    kind, value = label.rstrip(")").split("(")
    param = float(value.split("=")[1])
    normal = np.vectorize(lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0)))
    safe = np.where(sd > 0.0, sd, 1.0)
    if kind == "ucb":
        beta = 2.0 * math.log(
            record.beta_cardinality * t * t * math.pi**2 / (6.0 * record.beta_delta)
        )
        return mean + math.sqrt(param * beta) * sd
    improvement = mean - incumbent - param
    z = improvement / safe
    if kind == "pi":
        return np.where(sd > 0.0, normal(z), (improvement > 0.0).astype(float))
    density = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return np.where(sd > 0.0, improvement * normal(z) + safe * density, 0.0)


def _probe_iterations(T: int) -> list[int]:
    return sorted({1, max(T // 2, 1), T})


def check_truth(o: Outputs) -> list[str]:
    """f_true and f_true_init equal the objective recomputed at x."""
    bad = []
    for key, r in o.records.items():
        for xs, values in ((r.init_x, r.f_true_init), (r.x, r.f_true)):
            expected = negated_branin(xs)
            err = np.max(np.abs(expected - values) / (1.0 + np.abs(expected)))
            if not err <= 1e-9:
                bad.append(f"{key}: f_true off the objective by {err:.3g}")
    return bad


def _gap(record) -> np.ndarray:
    base = float(np.max(record.f_true_init))
    best = np.maximum.accumulate(np.concatenate([[base], record.f_true]))[1:]
    return np.clip((best - base) / (BRANIN_MAXIMUM - base), 0.0, 1.0)


def check_gap_column(o: Outputs) -> list[str]:
    """The CSV gap equals the gap recomputed from f_true and the optimum."""
    bad = []
    if not math.isclose(float(o.summary["known_optimum"]), BRANIN_MAXIMUM, rel_tol=1e-12):
        bad.append(f"JSON known_optimum {o.summary['known_optimum']} != {BRANIN_MAXIMUM}")
    expected = {k: _gap(r) for k, r in o.records.items()}
    for row in o.csv_rows:
        key = (row["strategy"], int(row["trial"]))
        if key not in expected:
            bad.append(f"CSV row for {key}, which has no completed record")
            continue
        want = expected[key][int(row["iteration"]) - 1]
        if not abs(float(row["gap"]) - want) <= 1e-12:
            bad.append(f"{key} iteration {row['iteration']}: gap {row['gap']} != {want!r}")
    return bad


def check_rewards(o: Outputs) -> list[str]:
    """Rewards equal the updated posterior mean at each arm's nominee, to
    1e-6 standardized units plus the rounding the design's conditioning
    allows."""
    bad = []
    for key, r in o.records.items():
        for t in _probe_iterations(r.iterations):
            posterior = _Posterior(r, o.summary["calibration"], t)
            u = _unit(r, r.nominees[t - 1])
            want = posterior(u)[0] * r.output_scale + r.output_mean
            excess = np.abs(want - r.rewards[t - 1]) / r.output_scale - posterior.mean_rounding(u)
            if not np.max(excess) <= 1e-6:
                bad.append(
                    f"{key} iteration {t}: rewards off the posterior by "
                    f"{np.max(excess):.3g} beyond rounding"
                )
    return bad


def _softmax_rows(scores) -> np.ndarray:
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    return weights / weights.sum(axis=1, keepdims=True)


def check_probabilities(o: Outputs) -> list[str]:
    """The bandit plays its strategy's rule and its gains grow as that rule
    says.  Rows sum to one.  With eta = sqrt(8 ln N / T) and p_hat =
    softmax(eta * gains[t-1]): Hedge plays p_hat and adds a gain in [0, 1] to
    every arm; Exp3 plays p = (1 - gamma) p_hat + gamma / N and adds a reward
    in [0, 1] divided by p_hat (the program's weight) or by p (the textbook
    weight) to the chosen arm alone; a single arm and the uniform strategy
    play uniformly and add gains in [0, 1]."""
    bad = []
    for key, r in o.records.items():
        n = len(r.arm_labels)
        if not np.allclose(r.probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-12):
            bad.append(f"{key}: probability rows do not sum to one")
        previous = np.vstack([np.zeros(n), r.gains[:-1]])
        steps = r.gains - previous
        eta = math.sqrt(8.0 * math.log(max(n, 2)) / r.iterations)
        p_hat = _softmax_rows(eta * previous)
        if r.strategy == "exp3":
            want = (1.0 - EXP3_GAMMA) * p_hat + EXP3_GAMMA / n
            rounds = np.arange(len(steps))
            others = steps.copy()
            others[rounds, r.chosen] = 0.0
            weight = np.minimum(p_hat, want)[rounds, r.chosen]
            scaled = steps[rounds, r.chosen] * weight
            if np.any(others != 0.0) or not (
                scaled.min() >= -1e-12 and scaled.max() <= 1.0 + 1e-9
            ):
                bad.append(f"{key}: an exp3 gain moves other than by reward / probability")
        else:
            if not (steps.min() >= -1e-12 and steps.max() <= 1.0 + 1e-12):
                bad.append(f"{key}: a gain increment leaves [0, 1]")
            if r.strategy == "hedge":
                want = p_hat
            elif r.strategy in ("single", "uniform"):
                want = np.full_like(r.probs, 1.0 / n)
            else:  # normalhedge: no workload runs it
                continue
        if not np.allclose(r.probs, want, rtol=1e-9, atol=1e-12):
            bad.append(f"{key}: probabilities differ from the {r.strategy} rule")
    return bad


def check_nominees(o: Outputs) -> list[str]:
    """Nominees lie in the box, and the chosen one scores at least as well as
    the box centre, which is the first point the maximizer samples."""
    bad = []
    for key, r in o.records.items():
        slack = 1e-9 * (r.domain_upper - r.domain_lower)
        if np.any(r.nominees < r.domain_lower - slack) or np.any(
            r.nominees > r.domain_upper + slack
        ):
            bad.append(f"{key}: a nominee lies outside the box")
        for t in _probe_iterations(r.iterations):
            posterior = _Posterior(r, o.summary["calibration"], t - 1)
            incumbent = float(np.max(posterior(posterior.X)[0]))
            j = int(r.chosen[t - 1])
            u = np.vstack([_unit(r, r.nominees[t - 1, j]), np.full(r.domain_lower.size, 0.5)])
            chosen, centre = _acquisition(r.arm_labels[j], *posterior(u), incumbent, t, r)
            if not chosen >= centre - 1e-9 - 1e-7 * abs(centre):
                bad.append(
                    f"{key} iteration {t}: {r.arm_labels[j]} nominee scores "
                    f"{chosen!r} below the centre's {centre!r}"
                )
    return bad


def check_pairing(o: Outputs) -> list[str]:
    """Every strategy of trial k starts from the same initial design."""
    bad = []
    first: dict[int, tuple] = {}
    for (strategy, trial), r in sorted(o.records.items()):
        if trial not in first:
            first[trial] = (strategy, r.init_x)
        elif not np.array_equal(first[trial][1], r.init_x):
            bad.append(f"trial {trial}: {strategy} and {first[trial][0]} differ in init_x")
    return bad


def check_row_count(o: Outputs) -> list[str]:
    """One CSV row per iteration of every completed trial."""
    want = len(o.records) * o.iterations
    if len(o.csv_rows) != want:
        return [f"CSV has {len(o.csv_rows)} rows, expected {want}"]
    return []


CHECKS = (
    check_truth,
    check_gap_column,
    check_rewards,
    check_probabilities,
    check_nominees,
    check_pairing,
    check_row_count,
)


def run_checks(o: Outputs) -> list[str]:
    return [msg for check in CHECKS for msg in check(o)]
