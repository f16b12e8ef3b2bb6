"""Experiment orchestration: config parsing, seeded multi-trial execution,
result persistence and aggregate summaries.

Trial k of every strategy shares one pairing seed derived from the base
seed and k alone, so all strategies in an experiment start from identical
initial designs and, on deterministic objectives, see identical noise
draws; this pairing is disclosed in the emitted metadata.  Kernel
lengthscales and an output standardization are calibrated once per
experiment from an offline sample of the objective, then held fixed for
every trial.

The objective is resolved once per experiment, from the registry or from a
spec the caller passes, and every (strategy, trial) pair becomes one
``RunConfig`` carrying that spec and the calibration.  With ``jobs > 1``
each worker receives its ``RunConfig`` pickled, objective included.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import subprocess
import traceback
from concurrent.futures import ProcessPoolExecutor
from csv import writer as csv_writer
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__, metrics, objectives
from .acquisitions import AcquisitionSpec, ei, pi, ucb
from .bo import RunConfig, run
from .gp import KernelParams, fit_hyperparameters
from .maximizer import MaximizerConfig, latin_hypercube
from .objectives import ObjectiveSpec

GP_NOISE_FLOOR = 1e-6


def default_portfolio(size: int) -> tuple[AcquisitionSpec, ...]:
    """The standard 3-arm portfolio, or the 9-arm one with off-default arms."""
    base = (pi(0.01), ei(0.01), ucb(0.2))
    if size == 3:
        return base
    if size == 9:
        return base + (pi(0.1), pi(1.0), ei(0.1), ei(1.0), ucb(0.1), ucb(1.0))
    raise ValueError("portfolio size must be 3 or 9")


@dataclass(frozen=True)
class StrategyDef:
    name: str
    kind: str
    acquisitions: tuple[AcquisitionSpec, ...]


def parse_strategy(name: str) -> StrategyDef:
    """Resolve a strategy name into its kind and arm list.

    A single acquisition is a one-arm GP-Hedge portfolio.
    """
    singles = {"pi": pi(0.01), "ei": ei(0.01), "ucb": ucb(0.2)}
    if name in singles:
        return StrategyDef(name, "hedge", (singles[name],))
    prefixes = {
        "gp-hedge": "hedge",
        "exp3": "exp3",
        "normalhedge": "normalhedge",
        "uniform": "uniform",
    }
    for prefix, kind in prefixes.items():
        for size in (3, 9):
            if name == f"{prefix}-{size}":
                return StrategyDef(name, kind, default_portfolio(size))
    raise ValueError(f"unknown strategy {name!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment."""

    objective: str
    strategies: tuple[str, ...]
    name: str = ""
    objective_params: dict = field(default_factory=dict)
    trials: int = 25
    iterations: int = 100
    seed: int = 0
    noise_variance: float = 0.0
    init_samples: int = 2
    maximizer: MaximizerConfig = MaximizerConfig()
    hyperfit_samples: int | None = None
    hyperfit_restarts: int = 8
    output_dir: str = "results"

    def __post_init__(self):
        if self.trials < 1 or self.iterations < 1 or self.init_samples < 1:
            raise ValueError("trials, iterations and init_samples must be positive")
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        for s in self.strategies:
            parse_strategy(s)
        object.__setattr__(self, "strategies", tuple(self.strategies))
        object.__setattr__(self, "name", self.name or self.objective)


def _known_keys(raw: dict, cls) -> dict:
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {unknown}")
    return raw


def load_config(path, **overrides) -> ExperimentConfig:
    """Read a YAML experiment file, applying non-None keyword overrides."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    if "maximizer" in raw and raw["maximizer"] is not None:
        raw["maximizer"] = MaximizerConfig(**_known_keys(raw["maximizer"], MaximizerConfig))
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
    return ExperimentConfig(**_known_keys(raw, ExperimentConfig))


def config_hash(config: ExperimentConfig) -> str:
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:8]


def _stable_seed(*parts) -> int:
    text = "|".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


@dataclass(frozen=True)
class Calibration:
    """Offline per-experiment surrogate settings, held fixed across trials."""

    kernel: KernelParams
    output_mean: float
    output_scale: float
    noise_variance: float
    gp_noise_variance: float


def calibrate(spec: ObjectiveSpec, config: ExperimentConfig) -> Calibration:
    """Fit kernel lengthscales and output standardization from an offline sample.

    The sample is observed with the experiment's noise model; intrinsic
    observation noise is estimated from replicate draws.  The surrogate's
    noise gets a small floor so that repeat samples stay well conditioned
    and the information-gain diagnostics remain defined.
    """
    d = spec.dimension
    count = config.hyperfit_samples or min(50 * d, 200)
    rng = np.random.default_rng(
        np.random.SeedSequence([_stable_seed(config.seed, "calibration")])
    )
    unit = latin_hypercube(count, d, rng)
    points = spec.domain.from_unit(unit)
    if spec.intrinsic_noise:
        values = np.array([spec.draw(p, rng) for p in points])
        replicas = np.array(
            [[spec.draw(p, rng) for _ in range(8)] for p in points[: min(10, count)]]
        )
        raw_noise = float(np.mean(np.var(replicas, axis=1, ddof=1)))
        noise_variance = 0.0
    else:
        noise_variance = float(config.noise_variance)
        values = spec.evaluate(points) + math.sqrt(noise_variance) * rng.standard_normal(count)
        raw_noise = noise_variance
    mean = float(values.mean())
    scale = float(values.std())
    if not scale > 1e-9:
        scale = 1.0  # flat sample; leave outputs unscaled
    gp_noise = max(raw_noise / scale**2, GP_NOISE_FLOOR)
    kernel = fit_hyperparameters(
        unit,
        (values - mean) / scale,
        gp_noise,
        search_budget=config.hyperfit_restarts,
        seed=_stable_seed(config.seed, "hyperfit"),
    )
    return Calibration(
        kernel=kernel,
        output_mean=mean,
        output_scale=scale,
        noise_variance=noise_variance,
        gp_noise_variance=gp_noise,
    )


def _trial_config(
    spec: ObjectiveSpec,
    config: ExperimentConfig,
    calibration: Calibration,
    strategy: str,
    trial: int,
) -> RunConfig:
    arms = parse_strategy(strategy)
    return RunConfig(
        objective=spec,
        iterations=config.iterations,
        acquisitions=arms.acquisitions,
        strategy=arms.kind,
        kernel=calibration.kernel,
        noise_variance=calibration.noise_variance,
        init_samples=config.init_samples,
        maximizer=config.maximizer,
        seed=_stable_seed(config.seed, strategy, trial),
        pair_seed=_stable_seed(config.seed, trial),
        output_mean=calibration.output_mean,
        output_scale=calibration.output_scale,
        gp_noise_variance=calibration.gp_noise_variance,
    )


@dataclass
class ResultTable:
    """All trial records of one experiment plus what produced them."""

    config: ExperimentConfig
    objective: ObjectiveSpec
    calibration: Calibration
    records: dict
    failures: dict

    def rows(self):
        """Long-format rows: one per (strategy, trial, iteration)."""
        for strategy in self.config.strategies:
            for trial in range(self.config.trials):
                record = self.records.get((strategy, trial))
                if record is None:
                    continue
                for it in range(record.iterations):
                    yield {
                        "experiment": self.config.name,
                        "strategy": strategy,
                        "trial": trial,
                        "iteration": it + 1,
                        "gap": None if record.gap is None else float(record.gap[it]),
                        "regret": None
                        if record.regret is None
                        else float(record.regret[it]),
                        "chosen_arm": record.arm_labels[int(record.chosen[it])],
                        "probabilities": record.probs[it],
                    }


def run_experiment(
    config: ExperimentConfig,
    objective: ObjectiveSpec | None = None,
    jobs: int = 1,
) -> ResultTable:
    """Run every (strategy, trial) pair; failures are recorded, not fatal.

    ``objective`` defaults to the registered objective the config names.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if objective is None:
        objective = objectives.resolve(config.objective, **config.objective_params)
    calibration = calibrate(objective, config)
    keys = [(s, k) for s in config.strategies for k in range(config.trials)]
    runs = [_trial_config(objective, config, calibration, *key) for key in keys]
    records: dict = {}
    failures: dict = {}
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = pool.map(_run_trial_safe, runs)
    else:
        outcomes = map(_run_trial_safe, runs)
    for key, (record, error) in zip(keys, outcomes):
        if error is not None:
            failures[key] = error
        else:
            records[key] = record
    return ResultTable(
        config=config,
        objective=objective,
        calibration=calibration,
        records=records,
        failures=failures,
    )


def _run_trial_safe(config: RunConfig):
    try:
        return run(config), None
    except Exception as err:  # noqa: BLE001 - isolate trial failures
        return None, _failure_message(err)


def _failure_message(err: BaseException) -> str:
    """``Type: message (in function at file:line)`` for a failed trial.

    The place is the innermost frame of the exception that began the
    ``raise ... from`` chain, where the fault surfaced.
    """
    origin = err
    while origin.__cause__ is not None:
        origin = origin.__cause__
    frame = traceback.extract_tb(origin.__traceback__)[-1]
    where = f"{frame.name} at {Path(frame.filename).name}:{frame.lineno}"
    return f"{type(err).__name__}: {err} (in {where})"


def _format_float(value) -> str:
    return repr(float(value))


def _strategy_summary(table: ResultTable, strategy: str) -> dict:
    records = [
        table.records[(strategy, k)]
        for k in range(table.config.trials)
        if (strategy, k) in table.records
    ]
    failures = [
        f"trial {k}: {table.failures[(strategy, k)]}"
        for k in range(table.config.trials)
        if (strategy, k) in table.failures
    ]
    summary: dict = {"failures": failures, "trials_completed": len(records)}
    if not records:
        return summary
    summary["arm_labels"] = list(records[0].arm_labels)
    summary["incumbent_mean"] = np.mean(
        [r.incumbent for r in records], axis=0
    ).tolist()
    summary["probability_series"] = records[0].probs.tolist()
    f_star = table.objective.known_optimum
    if f_star is not None and len(records) >= 2:
        agg = metrics.aggregate(records, f_star)
        summary["gap_mean"] = agg.gap_mean.tolist()
        summary["gap_variance"] = agg.gap_variance.tolist()
        summary["mean_average_regret"] = agg.mean_average_regret.tolist()
        summary["final_gap_mean"] = float(agg.gap_mean[-1])
    elif f_star is not None and records[0].gap is not None:
        summary["gap_mean"] = records[0].gap.tolist()
        summary["final_gap_mean"] = float(records[0].gap[-1])
    return summary


@functools.cache
def _git_sha() -> str | None:
    """The commit checked out where this package's sources live, once per
    process; None outside a git checkout or without git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def emit(table: ResultTable, output_dir=None) -> dict[str, Path]:
    """Write the long-format CSV and the JSON summary; returns the paths.

    The summary names the code that produced it: the package version and
    the git sha of its checkout (null outside one).  ``config_hash`` and the
    CSV do not depend on it.  Synthetic objectives are additionally saved as
    a self-contained .npz so the experiment can be replayed elsewhere.
    """
    out = Path(output_dir if output_dir is not None else table.config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{table.config.name}_{config_hash(table.config)}"
    paths: dict[str, Path] = {}

    csv_path = out / f"{stem}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        w = csv_writer(fh, lineterminator="\n")
        w.writerow(
            [
                "experiment",
                "strategy",
                "trial",
                "iteration",
                "gap",
                "regret",
                "chosen_arm",
                "probabilities",
            ]
        )
        for row in table.rows():
            w.writerow(
                [
                    row["experiment"],
                    row["strategy"],
                    row["trial"],
                    row["iteration"],
                    "" if row["gap"] is None else _format_float(row["gap"]),
                    "" if row["regret"] is None else _format_float(row["regret"]),
                    row["chosen_arm"],
                    ";".join(_format_float(p) for p in row["probabilities"]),
                ]
            )
    paths["csv"] = csv_path

    summary = {
        "experiment": table.config.name,
        "config_hash": config_hash(table.config),
        "code": {"version": __version__, "git_sha": _git_sha()},
        "objective": table.objective.name,
        "known_optimum": table.objective.known_optimum,
        "iterations": table.config.iterations,
        "trials": table.config.trials,
        "paired_initial_designs": True,
        "calibration": {
            "lengthscales": table.calibration.kernel.lengthscales.tolist(),
            "signal_variance": 1.0,  # gp.KernelParams has unit signal variance
            "output_mean": table.calibration.output_mean,
            "output_scale": table.calibration.output_scale,
            "noise_variance": table.calibration.noise_variance,
            "gp_noise_variance": table.calibration.gp_noise_variance,
        },
        "strategies": {
            s: _strategy_summary(table, s) for s in table.config.strategies
        },
    }
    json_path = out / f"{stem}.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths["json"] = json_path

    if isinstance(table.objective.evaluate, objectives.SyntheticFunction):
        npz_path = out / f"{stem}_objective.npz"
        objectives.save_synthetic(table.objective, npz_path)
        paths["objective"] = npz_path
    return paths
