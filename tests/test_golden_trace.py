"""Golden trace: bit-level hashes of whole trials for small fixed configs.

Every ndarray field of every ``TrialRecord`` is hashed (dtype, shape and
raw bytes).  The trials run in a subprocess with ``OPENBLAS_NUM_THREADS=1``
set before NumPy loads, because results depend on the BLAS thread count.
A refactor must leave every hash unchanged; a deliberate behaviour change
records new hashes and says why in CHANGES.md.

The hashes are only meaningful on the NumPy, SciPy and OpenBLAS build (and
the OpenBLAS core kernel) they were recorded with, so the test skips when
those differ.  To re-record, run this file as a script and redirect its
output: ``python tests/test_golden_trace.py > tests/golden_trace.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).with_name("golden_trace.json")

# (name, ExperimentConfig keyword arguments); every experiment runs 1 trial.
CONFIGS = (
    (
        "branin",
        dict(
            objective="branin",
            strategies=("gp-hedge-9", "ei", "normalhedge-3", "uniform-3"),
            iterations=8,
            seed=11,
            noise_variance=1e-4,
        ),
    ),
    (
        "branin-exp3",
        dict(
            objective="branin",
            strategies=("exp3-9",),
            iterations=60,
            seed=11,
            noise_variance=1e-4,
            maximizer=dict(direct_budget=60, multistart_count=4, local_steps=10),
        ),
    ),
    (
        "hartman3",
        dict(
            objective="hartman3",
            strategies=("gp-hedge-3",),
            iterations=6,
            seed=13,
            noise_variance=1e-4,
        ),
    ),
    (
        "hartman6",
        dict(
            objective="hartman6",
            strategies=("ei",),
            iterations=4,
            seed=17,
            noise_variance=1e-4,
            maximizer=dict(direct_budget=1200),
        ),
    ),
    (
        "synthetic2",
        dict(
            objective="synthetic",
            objective_params={"dimension": 2, "seed": 3},
            strategies=("gp-hedge-3", "ucb"),
            iterations=6,
        ),
    ),
    (
        # The only experiment whose observations come from an objective's
        # own ``draw``.
        "repellers",
        dict(
            objective="repellers",
            objective_params={"horizon": 20, "eval_rollouts": 16},
            hyperfit_samples=60,
            strategies=("gp-hedge-3", "ei"),
            iterations=4,
            maximizer=dict(direct_budget=90, multistart_count=3, local_steps=8),
        ),
    ),
    (
        # A GP large enough (t = 256-259) for the carried posterior variance
        # of ``gphedge.gp`` to serve the maximizer's repeated probes.
        "branin-warm",
        dict(
            objective="branin",
            strategies=("ei",),
            iterations=4,
            init_samples=256,
            seed=19,
            noise_variance=1e-4,
        ),
    ),
)


def _openblas_configs() -> dict[str, str]:
    """Build and core strings of the OpenBLAS copies NumPy and SciPy bundle."""
    import numpy
    import scipy
    from openblas_build import openblas_string

    found = {}
    for module, symbol in (
        (numpy, "scipy_openblas_get_config64_"),
        (scipy, "scipy_openblas_get_config"),
    ):
        config = openblas_string(module, symbol)
        if config is not None:
            found[module.__name__] = config
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_configs(),
    }


def _digest(value) -> str:
    h = hashlib.sha256()
    h.update(f"{value.dtype.str}{value.shape}".encode())
    h.update(value.tobytes())
    return h.hexdigest()[:16]


def trace() -> dict[str, dict[str, str]]:
    """Hashes of every ndarray field, keyed by "experiment/strategy"."""
    import numpy as np

    from gphedge import harness
    from gphedge.maximizer import MaximizerConfig

    hashes = {}
    for name, params in CONFIGS:
        params = dict(params)
        params["maximizer"] = MaximizerConfig(**params.get("maximizer", {}))
        config = harness.ExperimentConfig(name=name, trials=1, **params)
        table = harness.run_experiment(config)
        assert not table.failures, table.failures
        for strategy in config.strategies:
            record = table.records[(strategy, 0)]
            hashes[f"{name}/{strategy}"] = {
                field.name: _digest(getattr(record, field.name))
                for field in dataclasses.fields(record)
                if isinstance(getattr(record, field.name), np.ndarray)
            }
    return hashes


def test_golden_trace_is_bit_identical():
    expected = json.loads(DATA.read_text())
    proc = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    actual = json.loads(proc.stdout)
    if actual["environment"] != expected["environment"]:
        pytest.skip(
            "golden trace was recorded on "
            f"{expected['environment']}, this is {actual['environment']}"
        )
    assert actual["hashes"].keys() == expected["hashes"].keys()
    for key, fields in expected["hashes"].items():
        assert actual["hashes"][key] == fields, key


if __name__ == "__main__":
    # Before anything imports NumPy.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root / "scripts")]
    document = {"environment": environment(), "hashes": trace()}
    json.dump(document, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
