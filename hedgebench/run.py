"""GP-Hedge benchmark: whole experiments through the public harness API.

Run from the root of a checkout:

    python3 hedgebench/run.py --workload branin-hedge9 --seed 1 --seconds 60 --trace 0

Each round writes a generated YAML config, loads it with
``harness.load_config``, runs ``harness.run_experiment`` and
``harness.emit`` (the path ``gphedge run <config>`` takes), then checks the
outputs with :mod:`checks`.  Rounds repeat for about ``--seconds``;
round k uses a config seed derived from ``--seed`` and k.  The last line of
standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of :mod:`tracing` with ``--trace 1``.
See README.md for the workloads and the metrics.
"""

import time

# The set-up clock starts before any import, so setup_s holds the cold
# imports of NumPy and gphedge as well as resolution and calibration.
_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before NumPy loads: results differ between thread
# counts, and threads contend for the machine's few cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402
from checks import Outputs, run_checks  # noqa: E402

ROOT = Path.cwd()
WORK = Path(__file__).resolve().parent / "_work"

@dataclass(frozen=True)
class Workload:
    base: str  # config under configs/ that the generated config starts from
    overrides: dict


WORKLOADS = {
    "branin-hedge9": Workload(
        base="branin",
        overrides={"strategies": ["gp-hedge-9"], "trials": 1, "iterations": 5},
    ),
    "branin-ei-warm": Workload(
        base="branin",
        overrides={
            "strategies": ["ei"],
            "trials": 1,
            "iterations": 10,
            "init_samples": 800,
        },
    ),
}


@dataclass
class Round:
    experiment_s: float
    setup_end: float  # perf_counter when calibration returned
    trial_s: float
    iterations: int
    attempted: int
    failed: int
    problems: list[str]
    gaps: list[float]
    layers: dict | None = None


def round_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@contextmanager
def calibration_stamps(harness, stamps: list):
    """Note when ``harness.calibrate`` returns: the end of an experiment's
    set-up.  One call per experiment, so it costs nothing measurable."""
    calibrate = harness.calibrate

    def stamped(*args, **kwargs):
        result = calibrate(*args, **kwargs)
        stamps.append(time.perf_counter())
        return result

    harness.calibrate = stamped
    try:
        yield
    finally:
        harness.calibrate = calibrate


def run_round(workload: Workload, seed: int, out: Path, tracer=None) -> Round:
    from gphedge import harness

    with open(ROOT / "configs" / f"{workload.base}.yaml", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    raw.update(workload.overrides, seed=seed, output_dir=str(out))
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    config_path = out / "config.yaml"
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    config = harness.load_config(config_path)

    stamps: list[float] = []
    install = tracer.install() if tracer is not None else nullcontext()
    with install, calibration_stamps(harness, stamps):
        start = time.perf_counter()
        table = harness.run_experiment(config)
        ran = time.perf_counter()
        paths = harness.emit(table, out)
        end = time.perf_counter()

    problems = run_checks(Outputs.load(table, paths))
    for (strategy, trial), message in sorted(table.failures.items()):
        problems.append(f"{strategy} trial {trial} failed: {message}")
    records = table.records.values()
    result = Round(
        experiment_s=end - start,
        setup_end=stamps[0],
        trial_s=ran - stamps[0],
        iterations=sum(r.iterations for r in records),
        attempted=len(config.strategies) * config.trials,
        failed=len(table.failures),
        problems=problems,
        gaps=[float(r.gap[-1]) for r in records],
    )
    if tracer is not None:
        from tracing import layer_metrics

        spans = tracer.collect()
        result.layers = layer_metrics(spans)
        (out / "spans.json").write_text(json.dumps(spans))
    return result


def peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "gphedge" / "__init__.py").is_file():
        print(f"no gphedge sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}"
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    plain: list[Round] = []
    traced: list[Round] = []
    measure_start = time.perf_counter()
    # Start another round only if, lasting as long as the last one, it would
    # end less than half a round past --seconds: a run then measures
    # --seconds give or take half a round.
    index = 0
    while True:
        began = time.perf_counter()
        seed = round_seed(args.seed, index)
        plain.append(run_round(workload, seed, work / "out"))
        if tracer is not None:
            traced.append(run_round(workload, seed, work / "out", tracer))
        r = (traced or plain)[-1]
        print(f"round {index} seed {seed}: experiment {r.experiment_s:.3f} s, "
              f"trials {r.trial_s:.3f} s, {r.iterations} iterations, "
              f"{r.failed}/{r.attempted} failed", flush=True)
        index += 1
        now = time.perf_counter()
        if now + (now - began) / 2 >= measure_start + args.seconds:
            break

    rounds = plain + traced
    problems = [p for r in rounds for p in r.problems]
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if tracer is not None:
        from tracing import UNITS

        metrics = {
            name: {"value": statistics.median(r.layers[name] for r in traced), "unit": unit}
            for name, unit in UNITS.items()
        }
        metrics["trace.overhead_s"] = {"unit": "s", "value": statistics.median(
            t.experiment_s - p.experiment_s for p, t in zip(plain, traced))}
        gaps = [g for r in plain for g in r.gaps]
        metrics["quality.final_gap"] = {
            "unit": "1", "value": statistics.fmean(gaps) if gaps else 0.0}
    else:
        # The time metrics take the run's best round.  The machine's speed
        # drifts: the same round runs up to twice as slow for tens of seconds
        # to minutes while neighbours contend for the host, and such a spell
        # only ever adds time.  The best round is what the program costs when
        # nothing interferes, as ``timeit`` takes the best of its repeats; a
        # mean or median over the rounds follows how much of the run the
        # spell covered.
        metrics = {
            "setup_s": {"value": plain[0].setup_end - _T0, "unit": "s"},
            "experiment_s": {
                "value": min(r.experiment_s for r in plain), "unit": "s"},
            "iter_per_s": {
                "value": max(r.iterations / r.trial_s for r in plain),
                "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
