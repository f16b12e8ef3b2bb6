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


def test_synthetic_experiment_saves_replayable_objective(tmp_path):
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


def test_failures_are_recorded_not_fatal(monkeypatch):
    import gphedge.harness as harness_module

    original = harness_module._run_trial

    def sabotaged(task):
        if task.strategy == "ei" and task.trial == 1:
            raise RuntimeError("rigged failure")
        return original(task)

    monkeypatch.setattr(harness_module, "_run_trial", sabotaged)
    table = run_experiment(tiny_config())
    assert ("ei", 1) in table.failures
    message = table.failures[("ei", 1)]
    assert message.startswith("RuntimeError: rigged failure (in sabotaged at test_harness.py:")
    assert ("ei", 0) in table.records
    assert ("gp-hedge-3", 1) in table.records


def test_one_of_nine_arms_returning_nan_names_the_arm(monkeypatch):
    import gphedge.bo as bo_module

    original = bo_module.acquisition_values

    def nan_for_one_arm(specs, mean, sigma, counts, **kwargs):
        values = original(specs, mean, sigma, counts=counts, **kwargs)
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


def test_parallel_jobs_match_serial(tmp_path):
    config = tiny_config(strategies=("ei",), trials=2, iterations=3)
    serial = run_experiment(config, jobs=1)
    parallel = run_experiment(config, jobs=2)
    for key, record in serial.records.items():
        assert np.array_equal(record.x, parallel.records[key].x)


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

    def always_fail(task):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness_module, "_run_trial", always_fail)
    config_path = tmp_path / "exp.yaml"
    config_path.write_text(
        "objective: branin\nstrategies: [ei]\ntrials: 1\niterations: 2\n"
        f"output_dir: {tmp_path / 'out'}\n"
    )
    assert main(["run", str(config_path)]) == 1
    assert "boom" in capsys.readouterr().err


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
