#!/usr/bin/env python3
"""Time ``maximizer.maximize`` on a GP-backed acquisition, one checkout at a time.

Each case fits a GP to ``t`` points in ``d`` dimensions and maximizes EI over
the unit box with the default budget (500 DIRECT evaluations per dimension
plus pattern search), the inner problem every arm solves on every BO
iteration.  A case's time is the median of ``REPEATS`` calls after one
warm-up call.  BLAS is pinned to one thread before NumPy loads.

Run it once per checkout, under different labels, into the same file:

    python scripts/bench_maximizer.py --src ../before/src --label before --out BENCH.json
    python scripts/bench_maximizer.py --src src --label after --out BENCH.json

Each run replaces its own label's section and keeps the others.  The
section records cores, NumPy and SciPy versions, the OpenBLAS core and the
git sha of the checkout, and per case the median, every repeat and the
number of points evaluated, which must agree between checkouts whose
maximizers pick the same points.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
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


def time_case(d: int, t: int) -> dict:
    import numpy as np
    from gphedge.acquisitions import BetaSchedule, acquisition_values, ei
    from gphedge.gp import KernelParams, fit, posterior_predict_batch
    from gphedge.maximizer import MaximizerConfig, latin_hypercube, maximize, unit_box

    rng = np.random.default_rng(1000 * d + t)
    inputs = latin_hypercube(t, d, rng)
    outputs = np.cos(3.0 * inputs).sum(axis=1) - np.sum((inputs - 0.4) ** 2, axis=1)
    outputs = (outputs - outputs.mean()) / outputs.std()
    state = fit(inputs, outputs, KernelParams(np.full(d, 0.3)), 1e-6)
    spec = ei(0.01)
    incumbent = float(state.outputs.max())
    schedule = BetaSchedule()
    evaluated = []

    def utility(points):
        evaluated.append(points.shape[0])
        mean, variance = posterior_predict_batch(state, points)
        return acquisition_values(
            spec, mean, np.sqrt(variance), incumbent=incumbent, t=t, schedule=schedule
        )

    config = MaximizerConfig(seed=d + t)
    maximize(utility, unit_box(d), config)
    points = sum(evaluated)
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        maximize(utility, unit_box(d), config)
        seconds.append(time.perf_counter() - start)
    return {
        "d": d,
        "t": t,
        "median_s": statistics.median(seconds),
        "repeats_s": seconds,
        "points_per_call": points,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, required=True, help="src directory of a checkout")
    parser.add_argument("--label", required=True, help="section name: before, after")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to update")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    if not (src / "gphedge").is_dir():
        parser.error(f"no gphedge package under {src}")
    sys.path.insert(0, str(src))
    section = {"environment": environment(src), "cases": []}
    for d in DIMENSIONS:
        for t in OBSERVATIONS:
            case = time_case(d, t)
            ms = case["median_s"] * 1e3
            print(f"d={d:2d} t={t:3d}: {ms:8.1f} ms", file=sys.stderr)
            section["cases"].append(case)

    document = json.loads(args.out.read_text()) if args.out.exists() else {}
    document[args.label] = section
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
