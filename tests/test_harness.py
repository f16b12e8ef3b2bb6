import dataclasses

import numpy as np
import pytest
from pytest import approx

from gphedge.cli import main
from gphedge.harness import (
    ExperimentConfig,
    calibrate,
    config_hash,
    default_portfolio,
    emit,
    load_config,
    parse_strategy,
    run_experiment,
)
from gphedge.maximizer import MaximizerConfig
from gphedge.objectives import repellers, resolve

FAST = MaximizerConfig(direct_budget=50, multistart_count=2, local_steps=6)


def tiny_config(**kw):
    defaults = dict(
        objective="branin",
        strategies=("ei", "gp-hedge-3"),
        trials=2,
        iterations=4,
        seed=5,
        noise_variance=1e-4,
        maximizer=FAST,
        hyperfit_samples=25,
        hyperfit_restarts=2,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_default_portfolios_match_the_design():
    three = default_portfolio(3)
    assert [a.kind for a in three] == ["pi", "ei", "ucb"]
    assert [a.xi for a in three[:2]] == [0.01, 0.01]
    assert three[2].nu == 0.2
    nine = default_portfolio(9)
    assert nine[:3] == three
    assert {(a.kind, a.xi) for a in nine[3:7]} == {
        ("pi", 0.1),
        ("pi", 1.0),
        ("ei", 0.1),
        ("ei", 1.0),
    }
    assert {(a.kind, a.nu) for a in nine[7:]} == {("ucb", 0.1), ("ucb", 1.0)}
    assert len({a.label for a in nine}) == 9
    with pytest.raises(ValueError):
        default_portfolio(5)


def test_parse_strategy_names():
    assert parse_strategy("pi").kind == "hedge"
    assert len(parse_strategy("pi").acquisitions) == 1
    assert parse_strategy("ucb").acquisitions[0].nu == 0.2
    assert parse_strategy("gp-hedge-9").kind == "hedge"
    assert len(parse_strategy("gp-hedge-9").acquisitions) == 9
    assert parse_strategy("exp3-3").kind == "exp3"
    assert parse_strategy("normalhedge-9").kind == "normalhedge"
    assert parse_strategy("uniform-3").kind == "uniform"
    with pytest.raises(ValueError):
        parse_strategy("hedge-4")


def test_config_loading_and_overrides(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(
        "objective: branin\nstrategies: [ei]\ntrials: 3\niterations: 5\n"
        "maximizer: {direct_budget: 77}\n"
    )
    config = load_config(path)
    assert config.trials == 3
    assert config.maximizer.direct_budget == 77
    assert config.name == "branin"
    overridden = load_config(path, trials=1, output_dir="elsewhere")
    assert overridden.trials == 1
    assert overridden.output_dir == "elsewhere"
    assert config_hash(config) != config_hash(overridden)
    with pytest.raises(ValueError):
        load_config(path, trials=0)
    with pytest.raises(ValueError):
        load_config(path, init_samples=0)


def test_calibration_standardizes_outputs():
    config = tiny_config()
    calibration = calibrate(resolve("branin"), config)
    assert calibration.output_scale > 1.0  # Branin spans hundreds
    assert calibration.gp_noise_variance >= 1e-6
    assert calibration.kernel.dimension == 2
    assert np.all(calibration.kernel.lengthscales > 0)


def test_calibration_estimates_intrinsic_noise():
    spec = repellers(eval_rollouts=8)
    config = tiny_config(objective="repellers", hyperfit_samples=60)
    calibration = calibrate(spec, config)
    assert calibration.noise_variance == 0.0  # the loop adds nothing on top
    assert calibration.gp_noise_variance >= 1e-6
    assert calibration.output_scale > 0.0
    assert np.isfinite(calibration.output_mean)


def test_run_experiment_rows_and_pairing():
    table = run_experiment(tiny_config())
    rows = list(table.rows())
    assert len(rows) == 2 * 2 * 4  # strategies x trials x iterations
    assert not table.failures
    for trial in range(2):
        a = table.records[("ei", trial)]
        b = table.records[("gp-hedge-3", trial)]
        assert np.array_equal(a.init_x, b.init_x)
        assert np.array_equal(a.init_y, b.init_y)
    # Different trials start differently.
    assert not np.array_equal(
        table.records[("ei", 0)].init_x, table.records[("ei", 1)].init_x
    )


def test_emitted_files_are_byte_identical_across_reruns(tmp_path):
    config = tiny_config(output_dir=str(tmp_path / "a"))
    paths_a = emit(run_experiment(config), tmp_path / "a")
    paths_b = emit(run_experiment(config), tmp_path / "b")
    assert paths_a["csv"].read_bytes() == paths_b["csv"].read_bytes()
    assert paths_a["json"].read_bytes() == paths_b["json"].read_bytes()
    header = paths_a["csv"].read_text().splitlines()[0]
    assert header == "experiment,strategy,trial,iteration,gap,regret,chosen_arm,probabilities"


def test_emit_includes_summary_series(tmp_path):
    import json

    table = run_experiment(tiny_config())
    paths = emit(table, tmp_path)
    summary = json.loads(paths["json"].read_text())
    assert summary["paired_initial_designs"] is True
    hedge = summary["strategies"]["gp-hedge-3"]
    assert len(hedge["gap_mean"]) == 4
    assert len(hedge["probability_series"]) == 4
    assert len(hedge["probability_series"][0]) == 3
    assert hedge["trials_completed"] == 2
    assert summary["known_optimum"] == approx(-5 / (4 * np.pi))


def test_summary_names_the_code_version(tmp_path, monkeypatch):
    import json

    import gphedge
    import gphedge.harness as harness_module

    table = run_experiment(tiny_config(strategies=("ei",), trials=1))
    first = json.loads(emit(table, tmp_path / "a")["json"].read_text())["code"]
    second = json.loads(emit(table, tmp_path / "b")["json"].read_text())["code"]
    assert first == second
    assert first["version"] == gphedge.__version__
    sha = first["git_sha"]
    assert sha is None or (len(sha) == 40 and int(sha, 16) >= 0)

    def no_git(*args, **kwargs):
        raise FileNotFoundError("git")

    harness_module._git_sha.cache_clear()
    monkeypatch.setattr(harness_module.subprocess, "run", no_git)
    try:
        summary = json.loads(emit(table, tmp_path / "c")["json"].read_text())
    finally:
        harness_module._git_sha.cache_clear()
    assert summary["code"] == {"version": gphedge.__version__, "git_sha": None}


def test_synthetic_experiment_saves_replayable_objective(tmp_path, monkeypatch):
    config = tiny_config(
        objective="synthetic",
        objective_params={"dimension": 2, "seed": 3},
        strategies=("ei",),
        trials=1,
        iterations=3,
    )
    table = run_experiment(config)
    paths = emit(table, tmp_path)
    assert "objective" in paths
    import gphedge.objectives as objectives_module

    loads = []
    original = objectives_module.load_synthetic

    def counted(path):
        loads.append(path)
        return original(path)

    monkeypatch.setattr(objectives_module, "load_synthetic", counted)
    code = main(
        [
            "replay",
            str(paths["objective"]),
            "--strategies",
            "ei",
            "--trials",
            "1",
            "--iters",
            "2",
            "--out",
            str(tmp_path / "replayed"),
        ]
    )
    assert code == 0
    assert any((tmp_path / "replayed").glob("*.csv"))
    assert len(loads) == 1


def test_failures_are_recorded_not_fatal(monkeypatch):
    import gphedge.harness as harness_module

    original = harness_module.run
    trial_1 = harness_module._stable_seed(tiny_config().seed, 1)

    def sabotaged(config):
        # "ei" is the one-arm strategy of tiny_config.
        if len(config.acquisitions) == 1 and config.pair_seed == trial_1:
            raise RuntimeError("rigged failure")
        return original(config)

    monkeypatch.setattr(harness_module, "run", sabotaged)
    table = run_experiment(tiny_config())
    assert ("ei", 1) in table.failures
    message = table.failures[("ei", 1)]
    assert message.startswith("RuntimeError: rigged failure (in sabotaged at test_harness.py:")
    assert ("ei", 0) in table.records
    assert ("gp-hedge-3", 1) in table.records


def test_one_of_nine_arms_returning_nan_names_the_arm(monkeypatch):
    import gphedge.bo as bo_module

    original = bo_module.acquisition_values

    def nan_for_one_arm(rows, mean, sigma, counts):
        values = original(rows, mean, sigma, counts=counts)
        ends = np.cumsum(counts)
        values[ends[4] - counts[4] : ends[4]] = np.nan
        return values

    monkeypatch.setattr(bo_module, "acquisition_values", nan_for_one_arm)
    table = run_experiment(tiny_config(strategies=("gp-hedge-9",), trials=1))
    message = table.failures[("gp-hedge-9", 0)]
    assert message.startswith(
        "NumericsError: iteration 1: arm 4 returned a non-finite value at ["
    )
    assert "(in g at maximizer.py:" in message
    assert not table.records


@pytest.mark.parametrize("jobs", [1, 2])
def test_objective_is_resolved_once_per_experiment(tmp_path, monkeypatch, jobs):
    import gphedge.objectives as objectives_module

    log = tmp_path / "resolve_calls"
    original = objectives_module.resolve

    def counted(*args, **kwargs):
        # Appends to a file, so that calls in worker processes count too.
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("resolve\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(objectives_module, "resolve", counted)
    table = run_experiment(tiny_config(), jobs=jobs)
    assert not table.failures
    assert len(table.records) == 2 * 2
    assert log.read_text(encoding="utf-8").splitlines() == ["resolve"]


def test_parallel_jobs_match_serial():
    for objective, params in (("branin", {}), ("synthetic", {"dimension": 2, "seed": 3})):
        config = tiny_config(
            objective=objective, objective_params=params, trials=2, iterations=3
        )
        serial = run_experiment(config, jobs=1)
        parallel = run_experiment(config, jobs=2)
        assert not serial.failures and not parallel.failures
        assert serial.records.keys() == parallel.records.keys()
        for key, record in serial.records.items():
            other = parallel.records[key]
            for field in dataclasses.fields(record):
                a, b = getattr(record, field.name), getattr(other, field.name)
                if isinstance(a, np.ndarray):
                    a, b = ((v.dtype, v.shape, v.tobytes()) for v in (a, b))
                assert a == b, (objective, key, field.name)


def test_cli_run_and_list(tmp_path, capsys):
    assert main(["list-objectives"]) == 0
    assert "branin" in capsys.readouterr().out
    config_path = tmp_path / "exp.yaml"
    config_path.write_text(
        "objective: branin\nstrategies: [ei]\ntrials: 1\niterations: 3\n"
        "noise_variance: 0.0001\nhyperfit_samples: 20\nhyperfit_restarts: 2\n"
        "maximizer: {direct_budget: 50, multistart_count: 2, local_steps: 6}\n"
        f"output_dir: {tmp_path / 'out'}\n"
    )
    assert main(["run", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "final gap mean" in out
    assert any((tmp_path / "out").glob("branin_*.csv"))


def test_cli_reports_failures_with_nonzero_exit(tmp_path, monkeypatch, capsys):
    import gphedge.harness as harness_module

    def always_fail(config):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness_module, "run", always_fail)
    config_path = tmp_path / "exp.yaml"
    config_path.write_text(
        "objective: branin\nstrategies: [ei]\ntrials: 1\niterations: 2\n"
        f"output_dir: {tmp_path / 'out'}\n"
    )
    assert main(["run", str(config_path)]) == 1
    assert "boom" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, flags",
    [
        ("", ["--trials", "0"]),
        ("", ["--jobs", "0"]),
        ("", ["--jobs", "-2"]),
        ("trails: 3\n", []),
        ("maximizer: {budget: 5}\n", []),
        (None, []),  # no config file
    ],
)
def test_cli_rejects_bad_input_in_one_line(tmp_path, capsys, extra, flags):
    config_path = tmp_path / "exp.yaml"
    if extra is not None:
        config_path.write_text(
            "objective: branin\nstrategies: [ei]\ntrials: 1\niterations: 2\n"
            f"output_dir: {tmp_path / 'out'}\n{extra}"
        )
    assert main(["run", str(config_path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gphedge: error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_run_experiment_rejects_fewer_than_one_job():
    with pytest.raises(ValueError, match="jobs"):
        run_experiment(tiny_config(), jobs=0)


def test_exp3_runs_a_hundred_iterations_on_branin():
    config = ExperimentConfig(
        objective="branin",
        strategies=("exp3-9",),
        trials=1,
        iterations=100,
        seed=3,
        noise_variance=1e-4,
        maximizer=MaximizerConfig(direct_budget=60),
    )
    table = run_experiment(config)
    assert table.failures == {}
    record = table.records[("exp3-9", 0)]
    assert np.all(np.isfinite(record.gains))
    assert np.all(record.probs >= 0.1 / 9 - 1e-15)
