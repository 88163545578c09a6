"""Exercises every subcommand of the command-line front end in-process."""

import csv
import os
import shutil
from pathlib import Path

import pytest
import yaml

from mfvuln.cli import build_parser, main
from mfvuln.pipeline import (ResultsLedger, RunPaths, experiment_id,
                             load_experiment_config)


def write_config(tmp_path, **overrides):
    raw = {
        "name": "cli-toy",
        "env": {"env_name": "toy", "n_agents": 5, "block_states": 2,
                "n_actions": 2, "horizon": 6, "seed": 0},
        "victim": {"episodes": 120, "eval_episodes": 6},
        "value": {"rollouts": 8},
        "selection": {"methods": ["greedy", "random"], "k": 2},
        "adversary": {"episodes": 6, "eval_episodes": 3},
        "correlation": {"n_subsets": 10, "episodes": 2, "adv_episodes": 2},
        "seeds": [0],
        "out_dir": str(tmp_path / "runs"),
    }
    raw.update(overrides)
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path, raw


def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["no-such-command", "--config", "x"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["heatmap", "--config", "x", "--mode", "bogus"])


def test_staged_commands_chain_into_a_full_run(tmp_path, capsys):
    cfg_path, raw = write_config(tmp_path)
    paths = RunPaths(raw["out_dir"])

    assert main(["train-victim", "--config", str(cfg_path)]) == 0
    assert os.path.exists(paths.victim_policy(0))
    assert "victim ready" in capsys.readouterr().out

    assert main(["fit-value", "--config", str(cfg_path)]) == 0
    assert os.path.exists(paths.value_model(0))
    capsys.readouterr()

    assert main(["select", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "greedy" in out and "random" in out
    assert os.path.exists(paths.attack_set(0, "greedy"))

    assert main(["attack", "--config", str(cfg_path)]) == 0
    assert os.path.exists(paths.adversary(0, "random"))
    capsys.readouterr()

    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    ledger = ResultsLedger(paths.ledger())
    assert ledger.has(experiment_of(ledger), "attack", seed=0, method="greedy")
    capsys.readouterr()

    assert main(["heatmap", "--config", str(cfg_path),
                 "--mode", "single-adversary-xi"]) == 0
    heat = paths.heatmap(0, "single-adversary-xi")
    assert os.path.exists(heat)
    cells = [v for row in csv.reader(open(heat)) for v in row]
    assert len(cells) == 5

    assert main(["correlate", "--config", str(cfg_path)]) == 0
    assert os.path.exists(paths.correlation(0))
    assert ledger.has(experiment_of(ledger), "correlate", seed=0)
    assert "pearson r" in capsys.readouterr().out


def test_mistyped_config_value_exits_with_error(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, victim={"episodes": "800"})
    assert main(["train-victim", "--config", str(cfg_path)]) == 2
    assert "'episodes'" in capsys.readouterr().err


def test_deleted_binning_key_exits_with_error(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, value={"rollouts": 8, "mu_bins": 1})
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'mu_bins'" in err and "section 'value'" in err
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.parametrize("section", ["victim", "value", "adversary"])
def test_learner_seed_key_exits_with_error(tmp_path, capsys, section):
    """Learners get the run's seed as an argument; a seed key in their section is refused."""
    _, raw = write_config(tmp_path)
    cfg_path, _ = write_config(tmp_path, **{section: {**raw[section], "seed": 3}})
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert f"unknown key 'seed' in config section '{section}'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


def experiment_of(ledger) -> str:
    rows = ledger.rows()
    assert rows, "expected ledger rows"
    return rows[0]["experiment_id"]


def test_pipeline_command_runs_everything(tmp_path, capsys):
    cfg_path, raw = write_config(tmp_path)
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    assert "pipeline complete" in capsys.readouterr().out
    paths = RunPaths(raw["out_dir"])
    for artifact in [paths.victim_policy(0), paths.value_model(0),
                     paths.attack_set(0, "greedy"), paths.adversary(0, "greedy")]:
        assert os.path.exists(artifact)


def test_seed_and_out_overrides(tmp_path):
    cfg_path, raw = write_config(tmp_path)
    other = tmp_path / "elsewhere"
    assert main(["train-victim", "--config", str(cfg_path),
                 "--seed", "1", "--out", str(other)]) == 0
    paths = RunPaths(str(other))
    assert os.path.exists(paths.victim_policy(1))
    assert not os.path.exists(paths.victim_policy(0))
    assert not os.path.exists(RunPaths(raw["out_dir"]).victim_policy(1))


def test_missing_dependency_exits_with_error(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path)
    code = main(["select", "--config", str(cfg_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "train-victim" in err


def test_changed_config_in_same_out_dir_exits_with_error(tmp_path, capsys):
    cfg_path, raw = write_config(tmp_path)
    assert main(["train-victim", "--config", str(cfg_path)]) == 0
    victim = RunPaths(raw["out_dir"]).victim_policy(0)
    before = open(victim, "rb").read(), open(victim + ".q", "rb").read()
    old_id = experiment_of(ResultsLedger(RunPaths(raw["out_dir"]).ledger()))
    capsys.readouterr()

    cfg_path, _ = write_config(tmp_path, victim={"episodes": 5, "eval_episodes": 6})
    new_id = experiment_id(load_experiment_config(cfg_path))
    assert main(["train-victim", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert raw["out_dir"] in err and old_id in err and new_id in err
    assert (open(victim, "rb").read(), open(victim + ".q", "rb").read()) == before


def test_victim_checkpoint_without_ledger_rows_is_not_reused(tmp_path, monkeypatch, capsys):
    """A run killed after saving the victim but before its ledger rows keeps its id."""
    cfg_path, raw = write_config(tmp_path)
    old_id = experiment_id(load_experiment_config(cfg_path))

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr("mfvuln.pipeline.evaluate_policy", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["train-victim", "--config", str(cfg_path)])
    paths = RunPaths(raw["out_dir"])
    victim = paths.victim_policy(0)
    before = open(victim, "rb").read(), open(victim + ".q", "rb").read()
    assert ResultsLedger(paths.ledger()).rows() == []

    cfg_path, _ = write_config(tmp_path, victim={"episodes": 5, "eval_episodes": 6})
    new_id = experiment_id(load_experiment_config(cfg_path))
    assert main(["train-victim", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert raw["out_dir"] in err and old_id in err and new_id in err
    assert (open(victim, "rb").read(), open(victim + ".q", "rb").read()) == before
    assert ResultsLedger(paths.ledger()).rows() == []


def test_directory_with_stage_files_but_no_experiment_id_is_refused(tmp_path, capsys):
    """An output directory written before experiment_id.txt existed is not adopted."""
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "toy"
    shutil.copytree(root / "runs" / "toy", out)
    (out / "experiment_id.txt").unlink()
    before = {f: (out / f).read_bytes() for f in os.listdir(out)}
    raw = yaml.safe_load((root / "configs" / "toy.yaml").read_text())
    raw["victim"]["episodes"] = 5
    cfg_path = tmp_path / "toy5.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))

    assert main(["train-victim", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out) in err and "experiment_id.txt" in err
    assert {f: (out / f).read_bytes() for f in os.listdir(out)} == before

    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["train-victim", "--config", str(cfg_path), "--out", str(empty)]) == 0
    assert os.path.exists(RunPaths(str(empty)).victim_policy(0))


def test_bad_config_exits_with_error(tmp_path, capsys):
    cfg_path, _ = write_config(
        tmp_path, selection={"methods": ["greedy"], "k": 9})
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert "exceeds population" in capsys.readouterr().err


def test_nan_norm_order_exits_with_error(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, value={"rollouts": 8, "p": float("nan")})
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert "norm order" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.parametrize("key, value", [("sweeps", 60), ("tol", 1e-11)])
def test_deleted_fit_budget_key_exits_with_error(tmp_path, capsys, key, value):
    """The value fits are one linear solve; their former iteration budget is refused."""
    cfg_path, _ = write_config(tmp_path, value={"rollouts": 8, key: value})
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert f"unknown key '{key}' in config section 'value'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.parametrize("bad, message", [({"k_max": 9}, "k_max exceeds population size"),
                                          ({"n_subsets": 12}, "only C(5, 1) exist")])
def test_unfillable_correlation_range_exits_at_config_load(tmp_path, capsys, bad, message):
    """A subset range the population cannot fill is refused before the victim trains."""
    cfg_path, raw = write_config(
        tmp_path, correlation={"n_subsets": 10, "episodes": 2, "adv_episodes": 2, **bad})
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(RunPaths(raw["out_dir"]).victim_policy(0))


@pytest.mark.parametrize("bad, message", [({"rl_lr": float("nan")}, "lr must be positive"),
                                          ({"rl_lr": -1.0}, "lr must be positive"),
                                          ({"rl_gamma": float("nan")}, "gamma must be in"),
                                          ({"rl_gamma": 3.0}, "gamma must be in")])
def test_bad_learned_selector_setting_exits_at_config_load(tmp_path, capsys, bad, message):
    """A bad rl_* value is refused before the victim trains, not at the select stage."""
    cfg_path, raw = write_config(tmp_path, selection={"methods": ["rl"], "k": 2, **bad})
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(RunPaths(raw["out_dir"]).victim_policy(0))


def test_damaged_artifact_exits_with_error(tmp_path, capsys):
    cfg_path, raw = write_config(tmp_path)
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    paths = RunPaths(raw["out_dir"])
    value = paths.value_model(0)
    lines = open(value).read().splitlines()
    lines[-1] = "not-a-number"
    with open(value, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.remove(paths.victim_policy(0) + ".q")
    capsys.readouterr()

    assert main(["heatmap", "--config", str(cfg_path)]) == 2
    assert value in capsys.readouterr().err
    assert main(["attack", "--config", str(cfg_path)]) == 2
    assert paths.victim_policy(0) + ".q" in capsys.readouterr().err
