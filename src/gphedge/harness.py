"""Experiment orchestration: config parsing, seeded multi-trial execution,
result persistence and aggregate summaries.

Trial k of every strategy shares one pairing seed derived from the base
seed and k alone, so all strategies in an experiment start from identical
initial designs and, on deterministic objectives, see identical noise
draws; this pairing is disclosed in the emitted metadata.  Kernel
lengthscales and an output standardization are calibrated once per
experiment from an offline sample of the objective, then held fixed for
every trial.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import traceback
from concurrent.futures import ProcessPoolExecutor
from csv import writer as csv_writer
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import metrics, objectives
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
        if self.trials < 1 or self.iterations < 1:
            raise ValueError("trials and iterations must be positive")
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        for s in self.strategies:
            parse_strategy(s)
        object.__setattr__(self, "strategies", tuple(self.strategies))
        object.__setattr__(self, "name", self.name or self.objective)


def load_config(path, **overrides) -> ExperimentConfig:
    """Read a YAML experiment file, applying non-None keyword overrides."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    if "maximizer" in raw and raw["maximizer"] is not None:
        raw["maximizer"] = MaximizerConfig(**raw["maximizer"])
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
    return ExperimentConfig(**raw)


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


def _load_objective(source: tuple) -> ObjectiveSpec:
    kind = source[0]
    if kind == "registry":
        return objectives.resolve(source[1], **source[2])
    if kind == "file":
        return objectives.load_synthetic(source[1])
    raise ValueError(f"unknown objective source {kind!r}")


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


@dataclass(frozen=True)
class TrialTask:
    """Picklable unit of work: strategy x trial, plus shared settings."""

    objective_source: tuple
    strategy: str
    trial: int
    seed: int
    pair_seed: int
    iterations: int
    init_samples: int
    maximizer: MaximizerConfig
    calibration: Calibration


def _run_trial(task: TrialTask):
    spec = _load_objective(task.objective_source)
    strategy = parse_strategy(task.strategy)
    config = RunConfig(
        objective=spec,
        iterations=task.iterations,
        acquisitions=strategy.acquisitions,
        strategy=strategy.kind,
        kernel=task.calibration.kernel,
        noise_variance=task.calibration.noise_variance,
        init_samples=task.init_samples,
        maximizer=task.maximizer,
        seed=task.seed,
        pair_seed=task.pair_seed,
        output_mean=task.calibration.output_mean,
        output_scale=task.calibration.output_scale,
        gp_noise_variance=task.calibration.gp_noise_variance,
    )
    return run(config)


@dataclass
class ResultTable:
    """All trial records of one experiment plus what produced them."""

    config: ExperimentConfig
    objective: ObjectiveSpec
    objective_source: tuple
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
    objective_source: tuple | None = None,
    jobs: int = 1,
) -> ResultTable:
    """Run every (strategy, trial) pair; failures are recorded, not fatal."""
    source = objective_source or (
        "registry",
        config.objective,
        dict(config.objective_params),
    )
    spec = _load_objective(source)
    calibration = calibrate(spec, config)
    tasks = [
        TrialTask(
            objective_source=source,
            strategy=strategy,
            trial=trial,
            seed=_stable_seed(config.seed, strategy, trial),
            pair_seed=_stable_seed(config.seed, trial),
            iterations=config.iterations,
            init_samples=config.init_samples,
            maximizer=config.maximizer,
            calibration=calibration,
        )
        for strategy in config.strategies
        for trial in range(config.trials)
    ]
    records: dict = {}
    failures: dict = {}
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = pool.map(_run_trial_safe, tasks)
    else:
        outcomes = map(_run_trial_safe, tasks)
    for task, (record, error) in zip(tasks, outcomes):
        key = (task.strategy, task.trial)
        if error is not None:
            failures[key] = error
        else:
            records[key] = record
    return ResultTable(
        config=config,
        objective=spec,
        objective_source=source,
        calibration=calibration,
        records=records,
        failures=failures,
    )


def _run_trial_safe(task: TrialTask):
    try:
        return _run_trial(task), None
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


def emit(table: ResultTable, output_dir=None) -> dict[str, Path]:
    """Write the long-format CSV and the JSON summary; returns the paths.

    Synthetic objectives are additionally saved as a self-contained .npz so
    the experiment can be replayed elsewhere.
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
        "objective": table.objective.name,
        "known_optimum": table.objective.known_optimum,
        "iterations": table.config.iterations,
        "trials": table.config.trials,
        "paired_initial_designs": True,
        "calibration": {
            "lengthscales": table.calibration.kernel.lengthscales.tolist(),
            "signal_variance": table.calibration.kernel.signal_variance,
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
