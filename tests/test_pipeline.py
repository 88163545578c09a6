"""Config strictness, ledger discipline, analyses, and end-to-end runs."""

import csv
import os

from dataclasses import fields as dc_fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfvuln.attack import AdversaryConfig
from mfvuln.envs.taxi import TaxiConfig
from mfvuln.envs.toy import ToyConfig, ToyMeanFieldEnv
from mfvuln.envs.vicsek import VicsekConfig
from mfvuln.errors import (ConfigParseError, InvalidConfigError, InvalidInputError,
                           MfvulnError, StageDependencyError, UndefinedCorrelationError)
from mfvuln.pipeline import (AdversaryStageConfig, CorrelationStageConfig,
                             HeatmapStageConfig, ResultsLedger, Run, RunPaths,
                             SelectionStageConfig, ValueStageConfig,
                             correlate_prediction_vs_attack, experiment_id,
                             export_heatmap, parse_experiment_config, pearson,
                             run_pipeline, sample_attack_subsets, stage_evaluate,
                             stage_select, stage_train_victim)
from mfvuln.qlearn import TablePolicy, TrainConfig, evaluate_policy
from mfvuln.selection import AttackSet, save_attack_set
from oracles import exact_value_model


def base_raw(**overrides):
    raw = {
        "name": "toy-smoke",
        "env": {"env_name": "toy", "n_agents": 4, "block_states": 2,
                "n_actions": 2, "horizon": 6, "seed": 0},
        "victim": {"episodes": 150, "eval_episodes": 6},
        "value": {"rollouts": 10},
        "selection": {"methods": ["greedy", "random"], "k": 2},
        "adversary": {"episodes": 8, "eval_episodes": 4},
        "correlation": {"n_subsets": 10, "k_max": 3, "episodes": 2, "adv_episodes": 2},
        "seeds": [0],
    }
    raw.update(overrides)
    return raw


# -- config parsing ----------------------------------------------------------------


def test_unknown_top_level_key_is_named():
    with pytest.raises(ConfigParseError, match="unknown key 'typo'"):
        parse_experiment_config(base_raw(typo=1))


def test_unknown_section_key_names_the_section():
    raw = base_raw(victim={"episodes": 10, "learning_rate": 0.5})
    with pytest.raises(ConfigParseError, match="'learning_rate'.*section 'victim'"):
        parse_experiment_config(raw)
    # the learners are tabular only; their old backend knobs are unknown keys
    # the same holds for the mean-field binning and the joint-norm penalty
    deleted = [(section, key, 1) for section in ("victim", "adversary", "value")
               for key in ("mu_bins", "nu_bins", "bin_levels")] + [("value", "joint_norm", True)]
    for section, key, value in [("victim", "backend", "tabular"),
                                ("adversary", "backend", "tabular"),
                                ("value", "backend", "linear"),
                                ("value", "ridge", 1e-8)] + deleted:
        raw = base_raw(**{section: {key: value}})
        with pytest.raises(ConfigParseError, match=f"'{key}'.*section '{section}'"):
            parse_experiment_config(raw)


def test_env_section_is_required():
    raw = base_raw()
    del raw["env"]
    with pytest.raises(ConfigParseError, match="env"):
        parse_experiment_config(raw)
    with pytest.raises(ConfigParseError, match="env_name"):
        parse_experiment_config(base_raw(env={"n_agents": 4}))


def test_seeds_must_be_integer_list():
    for bad in (5, [], ["a"], [True]):
        with pytest.raises(ConfigParseError, match="seeds"):
            parse_experiment_config(base_raw(seeds=bad))


def test_selection_k_cannot_exceed_population():
    raw = base_raw(selection={"methods": ["greedy"], "k": 9})
    with pytest.raises(InvalidConfigError, match="exceeds population"):
        parse_experiment_config(raw)


def test_section_validation_is_applied():
    with pytest.raises(InvalidConfigError, match="rollouts"):
        parse_experiment_config(base_raw(value={"rollouts": 0}))
    with pytest.raises(InvalidConfigError, match="unknown selection method"):
        parse_experiment_config(
            base_raw(selection={"methods": ["gredy"], "k": 1}))


def test_string_for_int_field_is_named():
    with pytest.raises(ConfigParseError, match="'episodes'.*section 'victim'.*int"):
        parse_experiment_config(base_raw(victim={"episodes": "800"}))


def test_word_for_int_field_is_named():
    raw = base_raw(selection={"methods": ["greedy"], "k": "two"})
    with pytest.raises(ConfigParseError, match="'k'.*section 'selection'.*int"):
        parse_experiment_config(raw)


def test_fractional_agent_count_is_named():
    raw = base_raw()
    raw["env"]["n_agents"] = 4.5
    with pytest.raises(InvalidConfigError, match="'n_agents'.*int.*4.5"):
        parse_experiment_config(raw)


def test_bool_for_int_field_is_rejected():
    with pytest.raises(ConfigParseError, match="'episodes'.*int.*True"):
        parse_experiment_config(base_raw(victim={"episodes": True}))


def test_int_for_float_field_is_accepted():
    cfg = parse_experiment_config(base_raw(victim={"episodes": 10, "lr": 1}))
    assert cfg.victim.lr == 1


def test_bad_norm_order_string_is_a_config_error():
    with pytest.raises(InvalidConfigError, match="norm order"):
        parse_experiment_config(base_raw(value={"p": "abc"}))


SECTIONS = {"victim": TrainConfig, "value": ValueStageConfig,
            "selection": SelectionStageConfig, "adversary": AdversaryStageConfig,
            "correlation": CorrelationStageConfig, "heatmap": HeatmapStageConfig}
DELETED_KEYS = ("mu_bins", "nu_bins", "bin_levels", "joint_norm", "seed")
# small numbers only: an env section is built, and its tables grow with them
CONFIG_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.floats(),
              st.text(max_size=6), st.sampled_from(["inf", ".inf", "greedy", "toy"])),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def config_sections(keys):
    """Mappings over real, deleted and unknown keys (strings or not) with any values."""
    key = st.one_of(st.sampled_from(sorted(keys) + list(DELETED_KEYS)),
                    st.text(max_size=6), st.integers(-2, 2))
    return st.one_of(st.dictionaries(key, CONFIG_VALUES, max_size=5), CONFIG_VALUES)


ENV_CONFIGS = {"toy": ToyConfig, "taxi": TaxiConfig, "vicsek": VicsekConfig}


@st.composite
def raw_configs(draw):
    raw = {}
    for name, cls in SECTIONS.items():
        if draw(st.booleans()):
            raw[name] = draw(config_sections({f.name for f in dc_fields(cls)}))
    env_name = draw(st.sampled_from(sorted(ENV_CONFIGS)))
    env = draw(config_sections({f.name for f in dc_fields(ENV_CONFIGS[env_name])}))
    if isinstance(env, dict) and draw(st.booleans()):
        env["env_name"] = env_name
    raw["env"] = env
    for name in ("name", "seeds", "out_dir", draw(st.text(max_size=6))):
        if draw(st.booleans()):
            raw[name] = draw(CONFIG_VALUES)
    return draw(st.one_of(st.just(raw), CONFIG_VALUES))


@settings(max_examples=300, deadline=None)
@given(raw_configs())
@example({"env": {"env_name": "vicsek", "cluster_sizes": [8, "eight"]}})
@example({"env": {"env_name": ["toy"]}})
@example({"env": {"env_name": "toy", 0: None}})
@example({"env": {"env_name": "toy"}, "victim": [["episodes", 5]], 1: 2})
def test_any_config_mapping_parses_or_raises_a_config_error(raw):
    try:
        parse_experiment_config(raw)
    except MfvulnError:
        pass


def test_norm_order_accepts_yaml_spellings():
    cfg = ValueStageConfig(p="inf")
    cfg.validate()
    assert np.isinf(cfg.p)
    cfg = ValueStageConfig(p="2")
    cfg.validate()
    assert cfg.p == 2.0
    assert np.isinf(parse_experiment_config(base_raw(value={"p": "inf"})).value.p)


def test_experiment_id_is_stable_and_config_sensitive():
    a = parse_experiment_config(base_raw())
    b = parse_experiment_config(base_raw())
    assert experiment_id(a) == experiment_id(b)
    assert len(experiment_id(a)) == 12
    c = parse_experiment_config(base_raw(name="other"))
    assert experiment_id(c) != experiment_id(a)


# -- ledger -------------------------------------------------------------------------


def test_ledger_appends_and_filters(tmp_path, monkeypatch):
    path = tmp_path / "ledger.csv"
    ledger = ResultsLedger(path)
    writes, real_open = [], open

    def recording_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if mode == "a":
            real_write = fh.write
            fh.write = lambda text: writes.append(text) or real_write(text)
        return fh

    with monkeypatch.context() as m:
        m.setattr("builtins.open", recording_open)
        ledger.append([("e1", "victim", "mfq", 0, "victim_return", 0.123456789012),
                       ("e1", "attack", "greedy", 1, "attacked_return", -2.5)])
    # one call writes all its rows at once
    assert len(writes) == 1 and writes[0].count("\n") == 2
    rows = ledger.rows()
    assert len(rows) == 2
    # floats are stamped with 9 significant digits
    assert rows[0]["value"] == "0.123456789"
    assert ledger.has("e1", "victim")
    assert ledger.has("e1", "attack", seed=1, method="greedy")
    assert not ledger.has("e1", "attack", seed=0)
    assert not ledger.has("e2", "victim")
    # reopening never truncates
    ledger = ResultsLedger(path)
    assert len(ledger.rows()) == 2


# -- pearson ------------------------------------------------------------------------


def test_pearson_known_values():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)
    x = [1.0, 2.0, 3.0, 4.0]
    y = [1.0, 3.0, 2.0, 4.0]
    assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])


def test_pearson_input_validation():
    with pytest.raises(InvalidInputError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(InvalidInputError):
        pearson([1], [1])
    with pytest.raises(UndefinedCorrelationError):
        pearson([2, 2, 2], [1, 2, 3])


# -- subset sampling ----------------------------------------------------------------


def test_subsets_cycle_sizes_and_stay_distinct():
    subsets = sample_attack_subsets(16, 20, seed=5)
    sizes = [s.k for s in subsets]
    assert sizes == [1 + (i % 8) for i in range(20)]
    keys = {tuple(sorted(s.ids)) for s in subsets}
    assert len(keys) == 20
    assert all(s.eps == 1.0 for s in subsets)
    again = sample_attack_subsets(16, 20, seed=5)
    assert [tuple(s.ids) for s in again] == [tuple(s.ids) for s in subsets]


def test_subset_sampling_limits():
    with pytest.raises(InvalidInputError, match="k_max"):
        sample_attack_subsets(4, 10, seed=0, k_max=5)
    # only three distinct singletons exist
    with pytest.raises(InvalidInputError, match="distinct"):
        sample_attack_subsets(3, 4, seed=0, k_min=1, k_max=1)


# -- heatmap ------------------------------------------------------------------------


def exact_setup():
    cfg = ToyConfig(n_agents=16, block_states=2, n_actions=2, shared=True,
                    deterministic=True, horizon=8, gamma=0.9, seed=4)
    env = ToyMeanFieldEnv(cfg)
    pi = np.full((env.n_states, env.n_actions), 0.5)
    return env, exact_value_model(env, pi)


def test_heatmap_per_agent_eps_equals_damp(tmp_path):
    env, model = exact_setup()
    snap = env.reset(seed=0)
    out = tmp_path / "heat.csv"
    grid = export_heatmap(model, env, snap, "per-agent-eps", out_csv=out)
    assert grid.shape == (4, 4)
    # eps: 0 -> 1 at xi = 0 prices exactly one unit of the damping component
    want = model.damp[snap.states].reshape(4, 4)
    np.testing.assert_allclose(grid, want, atol=1e-12)
    rows = list(csv.reader(open(out)))
    assert len(rows) == 4 and len(rows[0]) == 4
    assert float(rows[0][0]) == pytest.approx(grid[0, 0], abs=1e-8)


def test_heatmap_single_adversary_xi_scales_by_population(tmp_path):
    env, model = exact_setup()
    snap = env.reset(seed=0)
    grid = export_heatmap(model, env, snap, "single-adversary-xi")
    want = model.damp[snap.states].reshape(4, 4) / env.n_agents
    np.testing.assert_allclose(grid, want, atol=1e-12)
    with pytest.raises(InvalidInputError, match="heatmap mode"):
        export_heatmap(model, env, snap, "fancy")


# -- correlation --------------------------------------------------------------------


def test_correlation_needs_enough_subsets():
    env, model = exact_setup()
    subsets = sample_attack_subsets(env.n_agents, 10, seed=0)[:5]
    with pytest.raises(InvalidInputError, match="10"):
        correlate_prediction_vs_attack(model, env, TablePolicy(np.full((2, 2), 0.5)),
                                       subsets, AdversaryConfig(episodes=1), 1, 0)


def test_prediction_anticorrelates_with_attacked_return(tmp_path):
    """Bigger predicted drops must pair with lower realized returns."""
    cfg = ToyConfig(n_agents=5, block_states=4, n_actions=2, shared=True,
                    deterministic=True, null_action=True, horizon=60,
                    gamma=0.85, seed=9)
    env = ToyMeanFieldEnv(cfg)
    pi = ToyMeanFieldEnv.greedy_matrix(env.optimal_q())
    victim = TablePolicy(pi)
    model = exact_value_model(env, pi)
    subsets = sample_attack_subsets(5, 10, seed=3, k_min=1, k_max=2)
    out = tmp_path / "corr.csv"
    r, rows = correlate_prediction_vs_attack(
        model, env, victim, subsets,
        AdversaryConfig(episodes=40, lr=0.5, temperature=0.02, eps_final=0.0),
        episodes=2, seed=0, out_csv=out)
    assert len(rows) == 10
    assert r < -0.5
    parsed = list(csv.reader(open(out)))
    assert parsed[0] == ["predicted_drop", "realized_return"]
    assert len(parsed) == 11


# -- staged runs --------------------------------------------------------------------


def full_raw(tmp_path):
    return base_raw(
        selection={"methods": ["greedy", "rl", "random", "dc", "brute"],
                   "k": 2, "rl_episodes": 30},
        out_dir=str(tmp_path / "runs"),
    )


def test_run_pipeline_produces_artifacts_and_ledger(tmp_path):
    import yaml

    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(full_raw(tmp_path)))
    out = run_pipeline(str(cfg_path))
    paths = RunPaths(out)
    for artifact in [paths.victim_policy(0), paths.value_model(0),
                     paths.trajectories(0), paths.brute_scores(0),
                     paths.ledger()]:
        assert os.path.exists(artifact), artifact
    for method in ("greedy", "rl", "random", "dc", "brute"):
        assert os.path.exists(paths.attack_set(0, method))
        assert os.path.exists(paths.adversary(0, method))

    ledger = ResultsLedger(paths.ledger())
    rows = ledger.rows()
    stages = {(r["stage"], r["method"], r["metric"]) for r in rows}
    assert ("victim", "mfq", "victim_return") in stages
    assert ("victim", "uniform", "victim_return") in stages
    assert ("value", "tabular", "v0_mean") in stages
    for method in ("greedy", "rl", "random", "dc", "brute"):
        assert ("select", method, "predicted_drop") in stages
        assert ("attack", method, "attacked_return") in stages
        assert ("attack", method, "coop_return") in stages

    # reruns must not touch artifacts or grow the ledger
    ledger_bytes = open(paths.ledger(), "rb").read()
    victim_bytes = open(paths.victim_policy(0), "rb").read()
    out2 = run_pipeline(str(cfg_path))
    assert out2 == out
    assert open(paths.ledger(), "rb").read() == ledger_bytes
    assert open(paths.victim_policy(0), "rb").read() == victim_bytes


def test_minimal_vicsek_pipeline_smoke(tmp_path):
    import yaml

    raw = {
        "name": "vicsek-smoke",
        "env": {"env_name": "vicsek", "n_agents": 8, "horizon": 12, "seed": 3},
        "victim": {"episodes": 120, "eval_episodes": 6, "min_margin": 0.0},
        "value": {"rollouts": 8},
        "selection": {"methods": ["greedy", "random"], "k": 2, "rl_episodes": 20},
        "adversary": {"episodes": 10, "eval_episodes": 4},
        "seeds": [0],
        "out_dir": str(tmp_path / "runs"),
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    out = run_pipeline(str(cfg_path))
    rows = ResultsLedger(RunPaths(out).ledger()).rows()
    assert rows
    stages = {r["stage"] for r in rows}
    assert {"victim", "value", "select", "attack"} <= stages


@pytest.mark.parametrize("eval_episodes", [1, 4])
def test_attack_rows_share_one_clean_baseline(tmp_path, eval_episodes):
    """Every method's coop_return is the one clean evaluation; one episode has std 0."""
    cfg = parse_experiment_config(base_raw(
        out_dir=str(tmp_path / "runs"), adversary={"episodes": 8, "eval_episodes": eval_episodes}))
    run_pipeline(cfg)
    run = Run(cfg)
    rows = {(r["method"], r["metric"]): r["value"] for r in run.ledger.rows()
            if r["stage"] == "attack"}
    coop = evaluate_policy(run.env, run.artifact("victim_policy", 0), eval_episodes,
                           seed=(0, 3))
    for method in ("greedy", "random"):
        assert rows[(method, "coop_return")] == f"{coop.mean():.9g}"
        assert (rows[(method, "attacked_std")] == "0") == (eval_episodes == 1)


def test_stage_dependencies_are_enforced(tmp_path):
    run = Run(parse_experiment_config(base_raw(out_dir=str(tmp_path / "empty"))))
    with pytest.raises(StageDependencyError, match="run train-victim first"):
        stage_evaluate(run, 0)
    stage_train_victim(run, 0)
    with pytest.raises(StageDependencyError, match="run fit-value first"):
        stage_select(run, 0)
    with pytest.raises(StageDependencyError, match="run select first"):
        stage_evaluate(run, 0)
    save_attack_set(AttackSet(np.array([0]), 1.0, "greedy"),
                    run.paths.attack_set(0, "greedy"), seed=0)
    with pytest.raises(StageDependencyError, match="run attack first"):
        stage_evaluate(run, 0)


def test_run_paths_lists_every_stage_file_it_names(tmp_path):
    paths = RunPaths(str(tmp_path))
    named = [paths.ledger(), paths.victim_policy(0), paths.victim_policy(0) + ".q",
             paths.trajectories(1), paths.value_model(2), paths.attack_set(0, "rl"),
             paths.adversary(0, "brute"), paths.brute_scores(0), paths.correlation(3),
             paths.heatmap(0, "per-agent-eps")]
    for path in named + [str(tmp_path / "notes.txt"), paths.experiment_id()]:
        open(path, "w").close()
    assert paths.artifacts() == sorted(os.path.basename(p) for p in named)


def test_run_claims_its_directory_before_any_stage(tmp_path):
    out = str(tmp_path / "claimed")
    cfg = parse_experiment_config(base_raw(out_dir=out))
    run = Run(cfg)
    with open(run.paths.experiment_id()) as fh:
        assert fh.read() == experiment_id(cfg) + "\n"
    assert sorted(os.listdir(out)) == ["experiment_id.txt", "ledger.csv"]
    assert run.ledger.rows() == []
    Run(cfg)   # the same experiment may come back
    other = parse_experiment_config(base_raw(out_dir=out, name="another"))
    with pytest.raises(InvalidConfigError, match=f"{experiment_id(cfg)}, not {experiment_id(other)}"):
        Run(other)
