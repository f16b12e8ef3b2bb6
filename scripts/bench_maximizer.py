#!/usr/bin/env python3
"""Time ``maximizer.maximize`` on GP-backed acquisitions, one checkout at a time.

Each case fits a GP to ``t`` points in ``d`` dimensions and maximizes over
the unit box with the default budget (500 DIRECT evaluations per dimension
plus pattern search), the inner problem of every BO iteration, twice:

- one arm: EI alone, as a single-acquisition strategy solves it;
- nine arms: the ``gp-hedge-9`` portfolio.  A checkout with the lockstep
  maximizer (it has ``maximizer._direct_search``) solves all nine in one
  call that makes one posterior call per sweep; an older checkout makes
  nine one-arm calls.  A checkout whose ``acquisition_values`` takes the
  arms' row ``counts`` evaluates each sweep's acquisitions in that one
  call, as ``bo.run`` does; an older one loops over the arms.  A checkout
  with ``acquisitions.acquisition_rows`` builds the arms' rows once per
  ``maximize`` call, for one arm and for nine, as ``bo.run`` builds them
  once per iteration, and passes ``acquisition_values`` only the rows and
  the marginals.

Every call is made once to warm up, then ``REPEATS`` more times, going
round-robin over all calls, so that the repeats of one call are spread over
the whole run.  A call's time is the fastest of its repeats: other processes
on the machine only ever add time, and their slow spells last seconds to
minutes, longer than the back-to-back repeats of one call.  BLAS is pinned
to one thread before NumPy loads.

Run it once per checkout, under different labels, into the same file; the
machine's speed drifts between runs, so alternate the checkouts over
several pairs of runs:

    python scripts/bench_maximizer.py --src ../parent/src --label parent-1 --out BENCH.json
    python scripts/bench_maximizer.py --src src --label change-1 --out BENCH.json

Each run replaces its own label's section and keeps the others.  The
section records cores, NumPy and SciPy versions, the OpenBLAS core and the
git sha of the checkout, and per case and arm count the fastest and the
median repeat, every repeat, the number of points evaluated and the number
of objective calls the ``maximize`` call made (one per DIRECT sweep and per
pattern step, plus two), which must agree between checkouts whose
maximizers pick the same points.  The fastest repeat over the calls is the
cost of one sweep or step with its objective call.

Two more sections size the carried posterior variance of ``gphedge.gp``:

- ``posterior``: the cost per probe of one posterior call of
  ``CARRY_PROBES`` Branin-sized probes (d=2) on a GP of t observations, for
  t in ``CARRY_OBSERVATIONS``: a fresh call, and, on a checkout with
  ``gp.VarianceCarry``, a carried call whose probes all hit or all miss the
  previous state's scores, and the once-per-state step the carry takes
  when the GP grows by one row.  Timed like the maximizer cases, each
  repeat ``POSTERIOR_CALLS`` calls long; the section gives times per call.
- ``repeats``: the share of the maximizer's probes at iterations 2 and
  later whose exact coordinates the maximizer probed in the iteration
  before, the probes the carry can serve, on whole experiments: the two
  ``hedgebench`` workloads and Hartman-6 ``ei`` and ``gp-hedge-9`` from 195
  initial points.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from openblas_build import openblas_string  # noqa: E402

DIMENSIONS = (2, 6, 10)
OBSERVATIONS = (10, 100, 400)
REPEATS = 7
CARRY_OBSERVATIONS = (64, 128, 256, 512, 800)
# Probes per maximizer posterior call on branin-ei-warm: a traced round
# makes about 620 calls on about 26 700 points.
CARRY_PROBES = 43
# A timed posterior repeat makes this many calls back to back, so that the
# caches the previous case's large arrays evicted cost one call in many.
POSTERIOR_CALLS = 50
# (name, base config, overrides, config seeds); the first two are the
# hedgebench workloads.
REPEAT_EXPERIMENTS = (
    ("branin-hedge9", "branin",
     {"strategies": ["gp-hedge-9"], "iterations": 5}, (11, 12, 13)),
    ("branin-ei-warm", "branin",
     {"strategies": ["ei"], "iterations": 10, "init_samples": 800}, (11, 12, 13)),
    ("hartman6-ei-t200", "hartman6",
     {"strategies": ["ei"], "iterations": 8, "init_samples": 195}, (11, 12)),
    ("hartman6-hedge9-t200", "hartman6",
     {"strategies": ["gp-hedge-9"], "iterations": 8, "init_samples": 195}, (11, 12)),
)


def _git(src: Path, *args: str) -> str:
    proc = subprocess.run(
        ["git", "-C", str(src), *args], capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() if proc.returncode == 0 else ""


def environment(src: Path) -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_core": openblas_string(numpy, "scipy_openblas_get_corename64_")
        or "unknown",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_sha": _git(src, "rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(_git(src, "status", "--porcelain", "--untracked-files=no")),
    }


def case_calls(d: int, t: int) -> dict:
    """The one-arm and nine-arm maximizations of case (d, t); each call
    returns the number of points it evaluated and of objective calls."""
    import numpy as np
    from gphedge import acquisitions, maximizer
    from gphedge.acquisitions import BetaSchedule, acquisition_values, ei
    from gphedge.gp import KernelParams, fit, posterior_predict_batch
    from gphedge.harness import default_portfolio
    from gphedge.maximizer import MaximizerConfig, latin_hypercube, maximize, unit_box

    rng = np.random.default_rng(1000 * d + t)
    inputs = latin_hypercube(t, d, rng)
    outputs = np.cos(3.0 * inputs).sum(axis=1) - np.sum((inputs - 0.4) ** 2, axis=1)
    outputs = (outputs - outputs.mean()) / outputs.std()
    state = fit(inputs, outputs, KernelParams(np.full(d, 0.3)), 1e-6)
    incumbent = float(state.outputs.max())
    schedule = BetaSchedule()
    box = unit_box(d)
    arms = default_portfolio(9)
    configs = [MaximizerConfig(seed=d + t + i) for i in range(len(arms))]
    many_arm = "counts" in inspect.signature(acquisition_values).parameters
    arm_rows = None
    if hasattr(acquisitions, "acquisition_rows"):
        arm_rows = acquisitions.acquisition_rows(arms, incumbent, t, schedule)
    evaluated = []

    def utility(points, spec):
        evaluated.append(points.shape[0])
        mean, variance = posterior_predict_batch(state, points)
        if arm_rows is not None:
            return acquisition_values(spec, mean, np.sqrt(variance))
        return acquisition_values(
            spec, mean, np.sqrt(variance), incumbent=incumbent, t=t, schedule=schedule
        )

    def utilities(points, counts):
        evaluated.append(points.shape[0])
        mean, variance = posterior_predict_batch(state, points)
        sigma = np.sqrt(variance)
        if arm_rows is not None:
            return acquisition_values(arm_rows, mean, sigma, counts=counts)
        if many_arm:
            return acquisition_values(
                arms, mean, sigma, incumbent=incumbent, t=t, schedule=schedule, counts=counts
            )
        values = np.empty(points.shape[0])
        end = 0
        for spec, count in zip(arms, counts):
            if count:
                rows = slice(end, end + count)
                values[rows] = acquisition_values(
                    spec, mean[rows], sigma[rows], incumbent=incumbent, t=t, schedule=schedule
                )
                end += count
        return values

    one_spec = ei(0.01)
    if arm_rows is not None:
        one_spec = acquisitions.acquisition_rows((one_spec,), incumbent, t, schedule)

    def one_arm():
        maximize(lambda x: utility(x, one_spec), box, MaximizerConfig(seed=d + t))

    if hasattr(maximizer, "_direct_search"):
        def nine_arms():
            maximize(utilities, box, configs)
    else:
        def nine_arms():
            for spec, config in zip(arms, configs):
                maximize(lambda x, spec=spec: utility(x, spec), box, config)

    def counted(run):
        def call():
            evaluated.clear()
            run()
            return sum(evaluated), len(evaluated)

        return call

    return {"one_arm": counted(one_arm), "nine_arm": counted(nine_arms)}


def posterior_calls(t: int) -> dict:
    """The posterior calls of case t, by name."""
    import numpy as np
    from gphedge import gp
    from gphedge.maximizer import latin_hypercube

    rng = np.random.default_rng(t)
    inputs = latin_hypercube(t, 2, rng)
    outputs = np.cos(3.0 * inputs).sum(axis=1)
    kernel = gp.KernelParams(np.array([0.2, 0.3]))
    previous = gp.fit(inputs[:-1], outputs[:-1], kernel, 1e-4)
    state = gp.update(previous, inputs[-1], outputs[-1])
    probes = rng.random((CARRY_PROBES, 2))
    calls = {"fresh": lambda: gp.posterior_predict_batch(state, probes)}
    if hasattr(gp, "VarianceCarry"):
        hits = gp.VarianceCarry()
        gp.posterior_predict_batch(previous, probes, carry=hits)
        misses = gp.VarianceCarry()
        gp.posterior_predict_batch(previous, rng.random((CARRY_PROBES, 2)), carry=misses)

        def step():
            carry = gp.VarianceCarry()
            carry.state = previous
            carry._advance(state)

        calls["carried_hit"] = lambda: gp.posterior_predict_batch(state, probes, carry=hits)
        calls["carried_miss"] = lambda: gp.posterior_predict_batch(state, probes, carry=misses)
        calls["state_step"] = step

    def back_to_back(call):
        def run():
            for _ in range(POSTERIOR_CALLS):
                call()

        return run

    return {name: back_to_back(call) for name, call in calls.items()}


def repeat_share(name: str, base: str, overrides: dict, seeds) -> dict:
    """Share of the maximizer's probes repeated from the iteration before."""
    import numpy as np
    import yaml
    from gphedge import bo, harness

    probed: dict = {}  # state count -> set of probe bytes, for the running trial
    repeated = total = 0
    inside = []
    originals = harness.run, bo.posterior_predict_batch, bo.maximize

    def run(config):
        probed.clear()
        return originals[0](config)

    def maximize(*args, **kwargs):
        inside.append(True)
        try:
            return originals[2](*args, **kwargs)
        finally:
            inside.pop()

    def predict(state, x, **kwargs):
        nonlocal repeated, total
        if inside:
            rows = np.ascontiguousarray(x, dtype=float)
            keys = [row.tobytes() for row in rows]
            before = probed.get(state.count - 1)
            if before is not None:
                repeated += sum(key in before for key in keys)
                total += len(keys)
            probed.setdefault(state.count, set()).update(keys)
        return originals[1](state, x, **kwargs)

    root = Path(__file__).resolve().parent.parent
    raw = yaml.safe_load((root / "configs" / f"{base}.yaml").read_text())
    raw.update(overrides, trials=1)
    harness.run, bo.posterior_predict_batch, bo.maximize = run, predict, maximize
    try:
        for seed in seeds:
            harness.run_experiment(harness.ExperimentConfig(**{**raw, "seed": seed}))
    finally:
        harness.run, bo.posterior_predict_batch, bo.maximize = originals
    share = repeated / total if total else 0.0
    print(f"{name}: {repeated}/{total} probes repeated ({share:.0%})", file=sys.stderr)
    return {
        "name": name, "base": base, "overrides": overrides, "seeds": list(seeds),
        "repeated": repeated, "probes": total, "share": share,
    }


def fastest(calls: dict) -> tuple[dict, dict]:
    """Every call's points and repeat times, warmed up once and then timed
    round-robin ``REPEATS`` times."""
    points = {key: call() for key, call in calls.items()}
    seconds = {key: [] for key in calls}
    for _ in range(REPEATS):
        for key, call in calls.items():
            start = time.perf_counter()
            call()
            seconds[key].append(time.perf_counter() - start)
    return points, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, required=True, help="src directory of a checkout")
    parser.add_argument("--label", required=True, help="section name: parent, change")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to update")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    if not (src / "gphedge").is_dir():
        parser.error(f"no gphedge package under {src}")
    sys.path.insert(0, str(src))
    calls = {
        (d, t, arm): call
        for d in DIMENSIONS
        for t in OBSERVATIONS
        for arm, call in case_calls(d, t).items()
    }
    points, seconds = fastest(calls)

    section = {"environment": environment(src), "cases": []}
    for d in DIMENSIONS:
        for t in OBSERVATIONS:
            case = {"d": d, "t": t}
            for arm in ("one_arm", "nine_arm"):
                repeats = seconds[d, t, arm]
                evaluated, objective_calls = points[d, t, arm]
                case[arm] = {
                    "min_s": min(repeats),
                    "median_s": statistics.median(repeats),
                    "repeats_s": repeats,
                    "points_per_call": evaluated,
                    "objective_calls_per_call": objective_calls,
                    "min_us_per_objective_call": min(repeats) / objective_calls * 1e6,
                }
            one, nine = (case[arm]["min_s"] * 1e3 for arm in ("one_arm", "nine_arm"))
            print(f"d={d:2d} t={t:3d}: one arm {one:8.1f} ms, nine arms {nine:8.1f} ms",
                  file=sys.stderr)
            section["cases"].append(case)

    from gphedge import gp

    # The carried calls are timed at every t, below the carry's threshold too.
    threshold = getattr(gp, "CARRY_MIN_COUNT", None)
    gp.CARRY_MIN_COUNT = 0
    try:
        posterior = {
            (t, name): call
            for t in CARRY_OBSERVATIONS
            for name, call in posterior_calls(t).items()
        }
        _, seconds = fastest(posterior)
    finally:
        gp.CARRY_MIN_COUNT = threshold
    section["posterior"] = []
    for t in CARRY_OBSERVATIONS:
        case = {"d": 2, "t": t, "probes_per_call": CARRY_PROBES}
        for (at, name), repeats in seconds.items():
            if at == t:
                repeats = [r / POSTERIOR_CALLS for r in repeats]
                case[name] = {
                    "min_s": min(repeats),
                    "median_s": statistics.median(repeats),
                    "repeats_s": repeats,
                }
                if name != "state_step":
                    case[name]["min_us_per_probe"] = min(repeats) / CARRY_PROBES * 1e6
        print(f"t={t:3d}: " + ", ".join(
            f"{name} {case[name]['min_s'] * 1e6:7.1f} us" for name in case
            if isinstance(case[name], dict)), file=sys.stderr)
        section["posterior"].append(case)
    section["repeats"] = [repeat_share(*experiment) for experiment in REPEAT_EXPERIMENTS]

    document = json.loads(args.out.read_text()) if args.out.exists() else {}
    document[args.label] = section
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
