"""Exercises every subcommand of the command-line front end in-process."""

import csv
import os
import re
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
import yaml

from mfvuln.cli import build_parser, main
from mfvuln.pipeline import (ResultsLedger, artifact_path, experiment_id,
                             load_experiment_config)
from test_golden_toy import CONFIG, assert_matches_fixture, finished_copy


def write_config(tmp_path, **overrides):
    raw = {
        "name": "cli-toy",
        "env": {"env_name": "toy", "n_agents": 5, "block_states": 2,
                "n_actions": 2, "horizon": 6, "seed": 0},
        "victim": {"episodes": 120, "eval_episodes": 6},
        "value": {"rollouts": 8},
        "selection": {"methods": ["greedy", "random"], "k": 2},
        "adversary": {"episodes": 6, "eval_episodes": 3},
        "correlation": {"n_subsets": 10},
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
    # the heatmap is damp(s0); it has no mode to choose
    for mode in ("bogus", "per-agent-eps"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["heatmap", "--config", "x", "--mode", mode])


@pytest.mark.parametrize("command", ["pipeline", "train-victim"])
def test_a_victim_short_of_its_margin_stops_the_run_before_any_stage_file(tmp_path, capsys,
                                                                          command):
    cfg_path, raw = write_config(tmp_path, seeds=[1, 0],
                                 victim={"episodes": 20, "eval_episodes": 2, "min_margin": 1e3})
    assert main([command, "--config", str(cfg_path)]) == 2
    assert "victim of seed 1 underperforms" in capsys.readouterr().err
    assert sorted(os.listdir(raw["out_dir"])) == ["experiment_id.txt", "ledger.csv"]
    assert ResultsLedger(artifact_path(raw["out_dir"], "ledger")).rows() == []


def test_staged_commands_chain_into_a_full_run(tmp_path, capsys):
    cfg_path, raw = write_config(tmp_path)
    paths = partial(artifact_path, raw["out_dir"])

    assert main(["train-victim", "--config", str(cfg_path)]) == 0
    assert os.path.exists(paths("victim_policy", 0))
    assert "victim ready" in capsys.readouterr().out

    assert main(["fit-value", "--config", str(cfg_path)]) == 0
    assert os.path.exists(paths("value_model", 0))
    capsys.readouterr()

    assert main(["select", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "greedy" in out and "random" in out
    assert os.path.exists(paths("attack_set", 0, "greedy"))

    assert main(["attack", "--config", str(cfg_path)]) == 0
    assert os.path.exists(paths("adversary", 0, "random"))
    ledger = ResultsLedger(paths("ledger"))
    assert ledger.find(experiment_of(ledger), "attack", 0)["method"] == "greedy"
    capsys.readouterr()

    assert main(["heatmap", "--config", str(cfg_path)]) == 0
    heat = paths("heatmap", 0)
    assert os.path.exists(heat)
    cells = [v for row in csv.reader(open(heat)) for v in row]
    assert len(cells) == 5

    assert main(["correlate", "--config", str(cfg_path)]) == 0
    assert os.path.exists(paths("correlation", 0))
    assert ledger.find(experiment_of(ledger), "correlate", seed=0) is not None
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


def test_a_brute_selection_over_the_cap_is_refused_before_any_stage(tmp_path, capsys):
    """C(16, 6) = 8008 subsets exceed the brute-force cap; the config is refused
    when parsed, not at select after the victim and value model were made."""
    raw = yaml.safe_load(CONFIG.read_text())
    raw["env"]["n_agents"], raw["selection"]["k"] = 16, 6
    raw["out_dir"] = str(tmp_path / "runs")
    cfg_path = tmp_path / "over-cap.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert "brute force over 8008 subsets exceeds cap 3000" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


def experiment_of(ledger) -> str:
    rows = ledger.rows()
    assert rows, "expected ledger rows"
    return rows[0]["experiment_id"]


def test_pipeline_command_runs_everything(tmp_path, capsys):
    cfg_path, raw = write_config(tmp_path)
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    assert "pipeline complete" in capsys.readouterr().out
    paths = partial(artifact_path, raw["out_dir"])
    for artifact in [paths("victim_policy", 0), paths("value_model", 0),
                     paths("attack_set", 0, "greedy"), paths("adversary", 0, "greedy")]:
        assert os.path.exists(artifact)


def test_seed_and_out_overrides(tmp_path):
    cfg_path, raw = write_config(tmp_path)
    other = tmp_path / "elsewhere"
    assert main(["train-victim", "--config", str(cfg_path),
                 "--seed", "1", "--out", str(other)]) == 0
    paths = partial(artifact_path, str(other))
    assert os.path.exists(paths("victim_policy", 1))
    assert not os.path.exists(paths("victim_policy", 0))
    assert not os.path.exists(artifact_path(raw["out_dir"], "victim_policy", 1))


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
    victim = artifact_path(raw["out_dir"], "victim_policy", 0)
    before = open(victim, "rb").read()
    old_id = experiment_of(ResultsLedger(artifact_path(raw["out_dir"], "ledger")))
    capsys.readouterr()

    cfg_path, _ = write_config(tmp_path, victim={"episodes": 5, "eval_episodes": 6})
    new_id = experiment_id(load_experiment_config(cfg_path))
    assert main(["train-victim", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert raw["out_dir"] in err and old_id in err and new_id in err
    assert open(victim, "rb").read() == before


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
    paths = partial(artifact_path, raw["out_dir"])
    victim = paths("victim_policy", 0)
    before = open(victim, "rb").read()
    assert ResultsLedger(paths("ledger")).rows() == []

    cfg_path, _ = write_config(tmp_path, victim={"episodes": 5, "eval_episodes": 6})
    new_id = experiment_id(load_experiment_config(cfg_path))
    assert main(["train-victim", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert raw["out_dir"] in err and old_id in err and new_id in err
    assert open(victim, "rb").read() == before
    assert ResultsLedger(paths("ledger")).rows() == []


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
    assert os.path.exists(artifact_path(str(empty), "victim_policy", 0))


def test_bad_config_exits_with_error(tmp_path, capsys):
    cfg_path, _ = write_config(
        tmp_path, selection={"methods": ["greedy"], "k": 9})
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert "exceeds population" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
def test_unreadable_config_exits_with_error_naming_it(tmp_path, capsys, kind):
    path = tmp_path / "exp.yaml"
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes("name: café\n".encode("latin-1"))
    assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {path}") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("under", [False, True])
def test_unusable_out_dir_exits_with_error_naming_it(tmp_path, capsys, under):
    cfg_path, _ = write_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "run" if under else taken
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot use {out} as the out_dir") and "Traceback" not in err
    assert taken.read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.yaml", "taken"]


@pytest.mark.parametrize("key, value", [("out_dir", None), ("out_dir", 3), ("name", ["a"]),
                                        ("name", None)])
def test_a_name_or_out_dir_that_is_not_a_string_exits_with_error(tmp_path, capsys, monkeypatch,
                                                                key, value):
    """`out_dir: null` once ran into a directory named None; nothing is written now."""
    cfg_path, _ = write_config(tmp_path, **{key: value})
    monkeypatch.chdir(tmp_path)
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"'{key}' must be a string" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.yaml"]


def test_nan_norm_order_exits_with_error(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, value={"rollouts": 8, "p": float("nan")})
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert "norm order" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("section, key, value", [
    *[("taxi", key, value) for key, value in [("demand_rate", NAN), ("demand_rate", INF),
                                              ("demand_concentration", INF),
                                              ("comm_radius", NAN), ("comm_radius", -1.0)]],
    *[("vicsek", key, value) for key in ("speed", "world_size", "turn_delta", "comm_radius",
                                         "cluster_spread", "heading_spread")
      for value in (NAN, INF)],
    ("toy", "scale_ratio", INF),
    *[(env, "seed", -1) for env in ("taxi", "vicsek", "toy")],
    ("victim", "lr", NAN), ("victim", "temperature", INF), ("victim", "lr_decay", NAN),
    ("victim", "lr_decay", -5.0), ("adversary", "lr", NAN), ("victim", "min_margin", NAN),
])
def test_non_finite_or_negative_setting_exits_at_config_load(tmp_path, capsys, section, key,
                                                             value):
    """A setting that would make a run meaningless, or crash it at its first
    draw, is refused by name before the victim trains."""
    if section in ("taxi", "vicsek", "toy"):
        env = {"taxi": {"env_name": "taxi", "n_agents": 5, "grid_width": 4, "grid_height": 4},
               "vicsek": {"env_name": "vicsek", "n_agents": 5},
               "toy": {"env_name": "toy", "n_agents": 5}}[section]
        cfg_path, raw = write_config(tmp_path, env={**env, key: value})
    else:
        base = {"victim": {"episodes": 120, "eval_episodes": 6},
                "adversary": {"episodes": 6, "eval_episodes": 3}}[section]
        cfg_path, raw = write_config(tmp_path, **{section: {**base, key: value}})
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not list(Path(raw["out_dir"]).glob("victim_s*"))


@pytest.mark.parametrize("value", [NAN, INF, 0.05], ids=["nan", "inf", "0.05"])
def test_vicsek_noise_is_an_unknown_key(tmp_path, capsys, value):
    """The vicsek step draws no noise, so a config that sets one is refused."""
    cfg_path, _ = write_config(tmp_path, env={"env_name": "vicsek", "n_agents": 5,
                                              "noise": value})
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert "unknown key 'noise' in VicsekConfig" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.parametrize("value", [5, 4], ids=["5", "4"])
def test_taxi_n_actions_is_an_unknown_key(tmp_path, capsys, value):
    """A taxi has one move per entry of MOVES, so a config that sets the count,
    even to that number, is refused."""
    cfg_path, _ = write_config(tmp_path, env={"env_name": "taxi", "n_agents": 5,
                                              "n_actions": value})
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert "unknown key 'n_actions' in TaxiConfig" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.parametrize("value", [NAN, -1.0, 1.0], ids=["nan", "-1.0", "1.0"])
def test_toy_comm_radius_is_an_unknown_key(tmp_path, capsys, value):
    """Toy's observation graph is complete by definition, so a radius is refused."""
    cfg_path, _ = write_config(tmp_path, env={"env_name": "toy", "n_agents": 5,
                                              "comm_radius": value})
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert "unknown key 'comm_radius' in ToyConfig" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.parametrize("command, seeds, flags", [
    pytest.param("pipeline", [-1], [], id="pipeline-seeds"),
    pytest.param("train-victim", [0, -2], [], id="train-victim-seeds"),
    pytest.param("train-victim", [0], ["--seed", "-3"], id="train-victim-flag"),
    pytest.param("pipeline", [0], ["--seed", "-3"], id="pipeline-flag"),
])
def test_negative_seed_exits_before_any_stage_file(tmp_path, capsys, command, seeds, flags):
    """numpy seeds no generator from a negative integer, so none reaches a stage."""
    cfg_path, raw = write_config(tmp_path, seeds=seeds)
    assert main([command, "--config", str(cfg_path), *flags]) == 2
    assert "'seeds' must be a non-empty list of non-negative integers" \
        in capsys.readouterr().err
    assert not os.path.exists(raw["out_dir"])


def test_infinite_norm_order_is_accepted(tmp_path):
    cfg_path, _ = write_config(tmp_path, value={"rollouts": 8, "p": INF})
    assert load_experiment_config(cfg_path).value.p == INF


@pytest.mark.parametrize("key, value", [("sweeps", 60), ("tol", 1e-11)])
def test_deleted_fit_budget_key_exits_with_error(tmp_path, capsys, key, value):
    """The value fits are one linear solve; their former iteration budget is refused."""
    cfg_path, _ = write_config(tmp_path, value={"rollouts": 8, key: value})
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert f"unknown key '{key}' in config section 'value'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.parametrize("selection, message", [
    pytest.param({"methods": ["brute"], "brute_cap": 10},
                 "unknown key 'brute_cap' in config section 'selection'", id="brute_cap"),
    pytest.param({"methods": ["greedy"], "rl_episodes": 60},
                 "unknown key 'rl_episodes' in config section 'selection'", id="rl_episodes"),
    pytest.param({"methods": ["rl"]}, "unknown selection method: rl", id="rl_method"),
])
def test_deleted_selection_setting_exits_with_error(tmp_path, capsys, selection, message):
    """Settings of deleted selectors (the brute-force cap key, the learned selector)
    are refused at config load, before anything is written."""
    cfg_path, raw = write_config(tmp_path, selection={"k": 2, **selection})
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(raw["out_dir"])


@pytest.mark.parametrize("bad", [
    pytest.param({"rl_lr": float("nan")}, id="bad0-lr must be positive"),
    pytest.param({"rl_lr": -1.0}, id="bad1-lr must be positive"),
    pytest.param({"rl_gamma": float("nan")}, id="bad2-gamma must be in"),
    pytest.param({"rl_gamma": 3.0}, id="bad3-gamma must be in"),
])
def test_bad_learned_selector_setting_exits_at_config_load(tmp_path, capsys, bad):
    """A former rl_* value, bad or not, is refused by name before the victim trains."""
    (key,) = bad
    cfg_path, raw = write_config(tmp_path, selection={"methods": ["greedy"], "k": 2, **bad})
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert f"unknown key '{key}' in config section 'selection'" in capsys.readouterr().err
    assert not os.path.exists(artifact_path(raw["out_dir"], "victim_policy", 0))


def test_taxi_demand_beyond_the_poisson_limit_exits_at_config_load(tmp_path, capsys):
    """A finite demand_rate whose zone rates numpy cannot draw is refused by name."""
    env = {"env_name": "taxi", "n_agents": 5, "grid_width": 4, "grid_height": 4}
    ok_path, _ = write_config(tmp_path, env={**env, "demand_rate": 1.0e18})
    assert load_experiment_config(ok_path).env["demand_rate"] == 1.0e18
    cfg_path, raw = write_config(tmp_path, env={**env, "demand_rate": 1.0e19})
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert "demand_rate must keep every zone's Poisson rate" in capsys.readouterr().err
    assert not os.path.exists(raw["out_dir"])


@pytest.mark.parametrize("bad, message", [({"k_max": 9}, "k_max exceeds population size"),
                                          ({"n_subsets": 12}, "only C(5, 1) exist"),
                                          ({"k_min": 9}, "k_min")])
def test_unfillable_correlation_range_exits_at_config_load(tmp_path, capsys, bad, message):
    """A subset range the population cannot fill is refused before the victim trains."""
    cfg_path, raw = write_config(
        tmp_path, correlation={"n_subsets": 10, **bad})
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(artifact_path(raw["out_dir"], "victim_policy", 0))


def test_damaged_artifact_exits_with_error(tmp_path, capsys):
    cfg_path, raw = write_config(tmp_path)
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    paths = partial(artifact_path, raw["out_dir"])
    value = paths("value_model", 0)
    lines = open(value).read().splitlines()
    lines[-1] = "not-a-number"
    with open(value, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    victim = paths("victim_policy", 0)
    lines = open(victim).read().splitlines()
    with open(victim, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    capsys.readouterr()

    assert main(["heatmap", "--config", str(cfg_path)]) == 2
    assert value in capsys.readouterr().err
    assert main(["attack", "--config", str(cfg_path)]) == 2
    assert victim in capsys.readouterr().err


# each command's line on the finished runs/toy/, with {out} its directory
TOY_LINES = {
    "train-victim": "victim ready: {out}/victim_s0.policy",
    "fit-value": "value model ready: {out}/value_s0.robust",
    "select": "seed 0 agents: greedy 1 3; random 1 3; dc 0 1; brute 0 2",
    "attack": "adversaries ready for seed 0",
    "correlate": "seed 0 pearson r = -0.424301 ({out}/correlation_s0.csv)",
    "heatmap": "heatmap written: {out}/heatmap_per-agent-eps_s0.csv",
    "pipeline": "pipeline complete: {out}",
}


def test_the_pinned_lines_cover_every_command():
    assert "{" + ",".join(TOY_LINES) + "}" in build_parser().format_usage()


@pytest.mark.parametrize("command", list(TOY_LINES))
def test_each_command_prints_its_line_and_rewrites_nothing_on_a_finished_run(
        tmp_path, capsys, command):
    out, _ = finished_copy(tmp_path)
    inodes = {p.name: p.stat().st_ino for p in out.iterdir()}
    assert main([command, "--config", str(CONFIG), "--out", str(out)]) == 0
    assert capsys.readouterr().out == TOY_LINES[command].format(out=out) + "\n"
    assert_matches_fixture(out)
    # write_atomic's os.replace gives a file a new inode, even with the same bytes
    assert {p.name: p.stat().st_ino for p in out.iterdir()} == inodes


@pytest.mark.parametrize("name, old, new, command", [
    ("value_s0.robust", "\n14.897815740905026\n", "\nnan\n", "fit-value"),
    ("victim_s0.policy", "temperature 0.1", "temperature nan", "train-victim"),
    ("adversary_dc_s0.policy", "\n-3.0814705066262351\n", "\n-inf\n", "attack"),
    ("attack_greedy_s0.txt", "predicted_drop 193.91999083803444", "predicted_drop inf",
     "select"),
], ids=["value-nan", "temperature-nan", "q-value-inf", "predicted-drop-inf"])
def test_a_stage_file_with_a_non_finite_number_exits_with_error(tmp_path, capsys,
                                                                name, old, new, command):
    out, _ = finished_copy(tmp_path)
    text = (out / name).read_text()
    assert text.count(old) == 1
    (out / name).write_text(text.replace(old, new))
    assert main([command, "--config", str(CONFIG), "--out", str(out)]) == 2
    assert str(out / name) in capsys.readouterr().err


@pytest.mark.parametrize("cut", [",pearson_r,-0.", ",pearson_r,"], ids=["in-value", "before-value"])
@pytest.mark.parametrize("command", ["correlate", "pipeline"])
def test_a_torn_ledger_exits_with_error_naming_its_line(tmp_path, capsys, command, cut):
    """A ledger whose last row lost its end is refused, not read or appended to."""
    out, _ = finished_copy(tmp_path)
    ledger = out / "ledger.csv"
    text = ledger.read_bytes().decode()
    torn = text[:text.rindex(",pearson_r,") + len(cut)]
    assert torn.endswith(cut)
    ledger.write_bytes(torn.encode())
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main([command, "--config", str(CONFIG), "--out", str(out)]) == 2
    assert f"line {text.count(chr(10))} is torn" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("damage", ["ledger not utf-8", "ledger a directory", "id not utf-8"])
@pytest.mark.parametrize("command", ["correlate", "pipeline"])
def test_an_unreadable_ledger_or_experiment_id_exits_with_error_naming_it(tmp_path, capsys,
                                                                        command, damage):
    """The file is refused, as a torn ledger is, and left as it was."""
    out, _ = finished_copy(tmp_path)
    name = "experiment_id.txt" if damage.startswith("id") else "ledger.csv"
    path = out / name
    if damage.endswith("a directory"):
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes(path.read_bytes() + b"\xff\n")
    before = {p.name: p.is_dir() or p.read_bytes() for p in out.iterdir()}
    assert main([command, "--config", str(CONFIG), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"ledger {path}" if name == "ledger.csv" else f"cannot use {out}") in err
    assert str(path) in err and "Traceback" not in err
    assert {p.name: p.is_dir() or p.read_bytes() for p in out.iterdir()} == before


def _cut_value_model(text):
    """A value_s0.robust of the toy's 15 states cut to its first 3."""
    head, _, values = text.partition("values 30\n")
    return (head.replace("n_states 15", "n_states 3") + "values 6\n"
            + "".join(values.splitlines(keepends=True)[:6]))


@pytest.mark.parametrize("name, edit, stale, command", [
    ("victim_s0.policy",
     lambda text: text.replace("n_states 15", "n_states 3").replace("n_actions 2", "n_actions 10"),
     "correlation_s0.csv", "correlate"),
    ("value_s0.robust", _cut_value_model, "heatmap_per-agent-eps_s0.csv", "heatmap"),
    ("value_s0.robust", lambda text: text.replace("n_actions 2", "n_actions 7"),
     "heatmap_per-agent-eps_s0.csv", "heatmap"),
    ("attack_dc_s0.txt", lambda text: text.replace("ids 0 1", "ids 0 9"), None, "attack"),
], ids=["q-table-shape", "value-model-states", "value-model-actions", "attack-set-ids"])
def test_a_stage_file_that_does_not_fit_the_env_exits_with_error_naming_it(
        tmp_path, capsys, name, edit, stale, command):
    """A well-formed file sized for another env once ended in an IndexError traceback.
    The stale output is deleted first, so the stage runs again and loads the file."""
    out, _ = finished_copy(tmp_path)
    text = (out / name).read_text()
    (out / name).write_text(edit(text))
    assert (out / name).read_text() != text
    if stale:
        (out / stale).unlink()
    assert main([command, "--config", str(CONFIG), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{out / name} does not fit the env" in err and "Traceback" not in err


@pytest.mark.parametrize("name, old, new, command, named", [
    ("toy.yaml", "\n  k: 2\n", "\n  k: 0\n", "pipeline", "k must be >= 1"),
    ("toy.yaml", "\n  k: 2\n", "\n  k: 2\n  k: 2\n", "pipeline", "found duplicate key 'k'"),
    ("toy.yaml", "[greedy, random, dc, brute]", "[greedy, greedy]", "pipeline",
     "selection method greedy is listed twice"),
    ("victim_s0.policy", "\nn_states 15\n", "\nn_states -1\n", "attack", "victim_s0.policy"),
    ("value_s0.robust", "\nn_states 15\n", "\nn_states -1\n", "heatmap", "value_s0.robust"),
], ids=["k-0", "repeated-key", "repeated-method", "policy-states", "value-states"])
def test_an_empty_attack_a_repeated_setting_or_an_unread_dimension_exits_with_error(
        tmp_path, capsys, name, old, new, command, named):
    """Each once exited 0: ``k: 0`` trained all-zero adversaries, a repeated key was read
    as its last value, a repeated method trained twice into one file, and a reshape
    inferred a record's dimension of -1.  A refused config makes no out dir, and a
    refused record leaves its out dir as it was."""
    if name == "toy.yaml":
        config, out, text = tmp_path / name, tmp_path / "refused", CONFIG.read_text()
        edited = config
    else:
        (out, _), config = finished_copy(tmp_path), CONFIG
        edited, text = out / name, (out / name).read_text()
        (out / "heatmap_per-agent-eps_s0.csv").unlink()   # so heatmap loads the value model
    assert text.count(old) == 1
    edited.write_text(text.replace(old, new))
    before = out.exists() and {p.name: p.read_bytes() for p in out.iterdir()}
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    if name == "toy.yaml":
        assert not out.exists()
    else:
        assert f"malformed artifact {edited}" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("section, key, value", [
    ("victim", "episodes", 10 ** 20), ("value", "rollouts", 10 ** 20),
    ("victim", "eval_episodes", 10 ** 20), ("env", "seed", 99999999999999999999999)],
    ids=["episodes", "rollouts", "eval_episodes", "seed"])
def test_an_integer_setting_beyond_64_bits_exits_with_error_naming_it(tmp_path, capsys,
                                                                      section, key, value):
    """Each once crashed in numpy with a traceback (an array or a seed spawn of 10**20).
    A seed is exempt: numpy seeds from an integer of any size, so the run completes."""
    cfg_path, raw = write_config(tmp_path)
    raw[section][key] = value
    cfg_path.write_text(yaml.safe_dump(raw))
    status = main(["pipeline", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if key == "seed":
        assert status == 0 and os.path.exists(artifact_path(raw["out_dir"], "victim_policy", 0))
    else:
        assert status == 2 and not os.path.exists(raw["out_dir"])
        assert f"key '{key}' in config section '{section}' must fit in 64 bits" in err


@pytest.mark.parametrize("section", ["victim", "adversary"])
def test_an_episode_count_too_large_to_allocate_exits_with_error(tmp_path, capsys, section):
    """10**18 episodes fits in 64 bits, but not the learning curves sized by it: numpy's
    MemoryError or ValueError once escaped there with a traceback.  The stage that
    trains refuses it."""
    cfg_path, raw = write_config(tmp_path)
    raw[section]["episodes"] = 10 ** 18
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "episodes" in err and "Traceback" not in err


def sized_config(tmp_path, name, key, value, section="env"):
    """configs/<name>.yaml with <section>.<key> set to ``value`` and its out_dir in
    tmp_path; vicsek's cluster_sizes go, since they must sum to n_agents."""
    raw = yaml.safe_load((CONFIG.parent / f"{name}.yaml").read_text())
    raw[section][key] = value
    if key == "n_agents":
        raw["env"].pop("cluster_sizes", None)
    raw["out_dir"] = str(tmp_path / "runs")
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path, raw


@pytest.mark.parametrize("name, key, value", [
    ("toy", "horizon", 10 ** 18), ("taxi", "horizon", 10 ** 18), ("vicsek", "horizon", 10 ** 18),
    ("toy", "n_agents", 2 ** 61), ("vicsek", "n_agents", 2 ** 61),
    ("vicsek", "heading_bins", 2 ** 62)])
def test_an_env_too_large_to_allocate_exits_with_error_before_any_file(tmp_path, capsys,
                                                                        name, key, value):
    """An episode's arrays, or the env's own tables, would need more than 2**63 bytes:
    numpy's size ValueError once escaped with a traceback, at the first episode (after
    the ledger was written) or while the env was built."""
    cfg_path, raw = sized_config(tmp_path, name, key, value)
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config section 'env' is too large to run" in err and "Traceback" not in err
    assert not os.path.exists(raw["out_dir"])


def pipeline_under_address_space_limit(cfg_path):
    """``mfvuln pipeline`` on cfg_path in a fresh process whose RLIMIT_AS is 1 GiB above
    what it has mapped once mfvuln is imported; a run that outlasts 60 s fails the test."""
    script = f"""
import resource, sys
from mfvuln.cli import main
with open("/proc/self/status") as fh:
    mapped = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:")) * 1024
resource.setrlimit(resource.RLIMIT_AS, (mapped + 2 ** 30, mapped + 2 ** 30))
sys.exit(main(["pipeline", "--config", {str(cfg_path)!r}]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(CONFIG.parent.parent / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)


def test_an_env_beyond_the_address_space_limit_exits_with_error_before_any_file(tmp_path):
    """A toy episode of 10**12 steps needs 40 TB: a MemoryError under RLIMIT_AS."""
    cfg_path, raw = sized_config(tmp_path, "toy", "horizon", 10 ** 12)
    done = pipeline_under_address_space_limit(cfg_path)
    assert done.returncode == 2, done.stderr
    assert "config section 'env' is too large to run: Unable to allocate" in done.stderr
    assert "Traceback" not in done.stderr and not os.path.exists(raw["out_dir"])


@pytest.mark.parametrize("section, key", [("value", "rollouts"), ("victim", "eval_episodes"),
                                          ("adversary", "eval_episodes")])
def test_a_batch_count_too_large_to_allocate_exits_with_error_before_any_file(
        tmp_path, section, key):
    """10**15 toy episodes of one batch need 355 PiB of action uniforms.  Each count once
    ran on past the ledger, spawning one seed per episode, until memory or time ran out."""
    cfg_path, raw = sized_config(tmp_path, "toy", key, 10 ** 15, section)
    done = pipeline_under_address_space_limit(cfg_path)
    assert done.returncode == 2, done.stderr
    assert f"key '{key}' in config section '{section}' is too large to run" in done.stderr
    assert "Traceback" not in done.stderr and not os.path.exists(raw["out_dir"])


@pytest.mark.parametrize("old, new", [("ids 1 3", "ids 1"), ("eps 1.0", "eps 0.5"),
                                      ("method greedy", "method random")],
                         ids=["size", "eps", "method"])
def test_an_attack_set_that_is_not_the_configs_selection_exits_with_error_naming_it(
        tmp_path, capsys, old, new):
    """An edited record once passed the id check, and attack retrained on it."""
    out, _ = finished_copy(tmp_path)
    name = out / "attack_greedy_s0.txt"
    text = name.read_text()
    assert text.count(f"\n{old}\n") == 1
    name.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
    for adversary in out.glob("adversary_*"):
        adversary.unlink()
    assert main(["attack", "--config", str(CONFIG), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{name} holds " in err and "the config selects 2 at eps 1.0 by 'greedy'" in err
    assert "Traceback" not in err
    assert not list(out.glob("adversary_*"))


@pytest.mark.parametrize("value", ["abc", "nan"])
def test_a_ledger_value_that_is_not_a_finite_number_exits_with_error_naming_its_line(
        tmp_path, capsys, value):
    """``abc`` once ended in a ValueError traceback, and ``nan`` was read back as r."""
    out, _ = finished_copy(tmp_path)
    ledger = out / "ledger.csv"
    lines = ledger.read_bytes().decode().splitlines(keepends=True)
    [line] = [i for i, text in enumerate(lines, 1) if ",pearson_r," in text]
    lines[line - 1] = re.sub(r"[^,]*(\r\n)$", rf"{value}\1", lines[line - 1])
    ledger.write_bytes("".join(lines).encode())
    before = ledger.read_bytes()
    assert main(["correlate", "--config", str(CONFIG), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"ledger {ledger} line {line} has the value '{value}', not a finite number" in err
    assert "Traceback" not in err and ledger.read_bytes() == before


def test_a_policy_in_the_former_two_file_format_exits_with_error_naming_it(tmp_path, capsys):
    """A policy once held only its temperature, its Q table in a .q file beside it."""
    out, _ = finished_copy(tmp_path)
    victim = out / "victim_s0.policy"
    head, _, values = victim.read_text().partition("values ")
    model = head.replace("kind policy\ntemperature 0.1\n", "kind qmodel\nbackend tabular\n")
    Path(f"{victim}.q").write_text(model + "values " + values)
    victim.write_text("mfvuln-checkpoint v1\nkind policy\ntype boltzmann\n"
                      "temperature 0.1\nvalues 0\n")
    assert main(["attack", "--config", str(CONFIG), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"malformed artifact {victim}: KeyError: 'n_states'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, command", [
    ("victim_s0.policy", "pipeline"), ("value_s0.robust", "pipeline"),
    ("attack_greedy_s0.txt", "pipeline"), ("adversary_greedy_s0.policy", "pipeline"),
    ("heatmap_per-agent-eps_s0.csv", "heatmap"), ("correlation_s0.csv", "correlate"),
    ("trajectories_s0.csv", "pipeline"), ("brute_scores_s0.csv", "pipeline")])
def test_a_stage_file_that_is_not_a_regular_file_exits_with_error_naming_it(tmp_path, capsys,
                                                                          name, command):
    """A directory in place of a record once ended in an IsADirectoryError traceback, and
    one in place of a stage CSV counted as the CSV written; it is refused and left as it is."""
    out, _ = finished_copy(tmp_path)
    (out / name).unlink()
    (out / name).mkdir()
    before = {p.name: p.is_dir() or p.read_bytes() for p in out.iterdir()}
    assert main([command, "--config", str(CONFIG), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{out / name} is not a regular file" in err and "Traceback" not in err
    assert {p.name: p.is_dir() or p.read_bytes() for p in out.iterdir()} == before
