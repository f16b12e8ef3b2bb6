"""Command-line entry point for running and replaying experiments."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import objectives
from .harness import ExperimentConfig, emit, load_config, run_experiment


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--iters", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--jobs", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gphedge",
        description="Bayesian optimization with a portfolio of acquisition functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a YAML config")
    run_p.add_argument("config", type=str)
    _add_run_flags(run_p)

    sub.add_parser("list-objectives", help="list registered objectives")

    replay_p = sub.add_parser(
        "replay", help="run strategies on a saved synthetic objective"
    )
    replay_p.add_argument("objective_file", type=str)
    replay_p.add_argument(
        "--strategies", nargs="+", default=["gp-hedge-3"], metavar="STRATEGY"
    )
    _add_run_flags(replay_p)
    return parser


def _execute(config, objective, jobs: int) -> int:
    table = run_experiment(config, objective, jobs=jobs)
    paths = emit(table)
    for label, path in sorted(paths.items()):
        print(f"{label}: {path}")
    for strategy in config.strategies:
        done = sum(1 for k in range(config.trials) if (strategy, k) in table.records)
        last = [
            table.records[(strategy, k)]
            for k in range(config.trials)
            if (strategy, k) in table.records
        ]
        final = ""
        gaps = [r.gap[-1] for r in last if r.gap is not None]
        if gaps:
            final = f"  final gap mean {sum(gaps) / len(gaps):.4f}"
        print(f"{strategy}: {done}/{config.trials} trials{final}")
    if table.failures:
        for (strategy, trial), message in sorted(table.failures.items()):
            print(f"FAILED {strategy} trial {trial}: {message}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list-objectives":
        for name, description in objectives.available().items():
            print(f"{name}: {description}")
        return 0

    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        if args.command == "run":
            spec = None
            config = load_config(
                args.config,
                trials=args.trials,
                iterations=args.iters,
                seed=args.seed,
                output_dir=args.out,
            )
        else:
            path = Path(args.objective_file)
            spec = objectives.load_synthetic(path)
            config = ExperimentConfig(
                objective=spec.name,
                strategies=tuple(args.strategies),
                name=f"replay-{path.stem}",
                trials=args.trials if args.trials is not None else 25,
                iterations=args.iters if args.iters is not None else 100,
                seed=args.seed if args.seed is not None else 0,
                output_dir=args.out if args.out is not None else "results",
            )
    except (OSError, ValueError) as err:
        # Input the user can correct: one line and the usage exit status.
        print(f"gphedge: error: {err}", file=sys.stderr)
        return 2
    return _execute(config, spec, args.jobs)


if __name__ == "__main__":
    raise SystemExit(main())
