"""Config strictness, ledger discipline, analyses, and end-to-end runs."""

import csv
import math
import os
import tempfile
import tracemalloc
import warnings
from functools import partial
from types import SimpleNamespace

from dataclasses import fields as dc_fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mfvuln import pipeline
from mfvuln.attack import AdversaryConfig
from mfvuln.envs.base import agent_layout
from mfvuln.envs.taxi import TaxiConfig
from mfvuln.envs.toy import ToyConfig, ToyMeanFieldEnv
from mfvuln.envs.vicsek import VicsekConfig
from mfvuln.errors import (ConfigParseError, InvalidConfigError, InvalidInputError,
                           MfvulnError, StageDependencyError, UndefinedCorrelationError)
from mfvuln.pipeline import (ARTIFACTS, CorrelationStageConfig, ResultsLedger, Run,
                             SelectionStageConfig, ValueStageConfig, artifact_path,
                             correlate_prediction_vs_attack, experiment_id,
                             export_heatmap, parse_experiment_config, pearson,
                             run_pipeline, sample_attack_subsets, stage_attack,
                             stage_files, stage_fit_value, stage_select, stage_train_victim,
                             subset_sizes)
from mfvuln.qlearn import BoltzmannPolicy, QModel, TablePolicy, TrainConfig, evaluate_policy
from mfvuln.robust import RobustValueModel
from oracles import exact_value_model, greedy_matrix, optimal_q


def base_raw(**overrides):
    raw = {
        "name": "toy-smoke",
        "env": {"env_name": "toy", "n_agents": 4, "block_states": 2,
                "n_actions": 2, "horizon": 6, "seed": 0},
        "victim": {"episodes": 150, "eval_episodes": 6},
        "value": {"rollouts": 10},
        "selection": {"methods": ["greedy", "random"], "k": 2},
        "adversary": {"episodes": 8, "eval_episodes": 4},
        "correlation": {"n_subsets": 10, "k_max": 3},
        "seeds": [0],
    }
    raw.update(overrides)
    return raw


# -- config parsing ----------------------------------------------------------------


def test_unknown_top_level_key_is_named():
    with pytest.raises(ConfigParseError, match="unknown key 'typo'"):
        parse_experiment_config(base_raw(typo=1))


def test_deleted_heatmap_section_is_an_unknown_key():
    """The heatmap is damp(s0), so its former mode section is refused."""
    for section in ({"mode": "per-agent-eps"}, {}, None):
        with pytest.raises(ConfigParseError, match="unknown key 'heatmap' at config top level"):
            parse_experiment_config(base_raw(heatmap=section))


def test_unknown_section_key_names_the_section():
    raw = base_raw(victim={"episodes": 10, "learning_rate": 0.5})
    with pytest.raises(ConfigParseError, match="'learning_rate'.*section 'victim'"):
        parse_experiment_config(raw)
    # the learners are tabular only; their old backend knobs are unknown keys
    # the same holds for the mean-field binning and the joint-norm penalty, and
    # for correlate's own adversary schedule: the adversary section serves it
    deleted = [(section, key, 1) for section in ("victim", "adversary", "value")
               for key in ("mu_bins", "nu_bins", "bin_levels")] + [
        ("value", "joint_norm", True), ("correlation", "episodes", 20),
        ("correlation", "adv_episodes", 150)]
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
    for bad in (5, [], ["a"], [True], [0, -1], [0, 0]):
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
            "selection": SelectionStageConfig, "adversary": AdversaryConfig,
            "correlation": CorrelationStageConfig}
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
    if draw(st.booleans()):   # the deleted heatmap section
        raw["heatmap"] = draw(config_sections({"mode"}))
    return draw(st.one_of(st.just(raw), CONFIG_VALUES))


@settings(max_examples=300, deadline=None)
@given(raw_configs())
@example({"env": {"env_name": "vicsek", "cluster_sizes": [8, "eight"]}})
@example({"env": {"env_name": ["toy"]}})
@example({"env": {"env_name": "toy", 0: None}})
@example({"env": {"env_name": "toy"}, "victim": [["episodes", 5]], 1: 2})
@example({"env": {"env_name": "toy"}, "out_dir": None})
@example({"env": {"env_name": "toy"}, "name": ["a"]})
def test_any_config_mapping_parses_or_raises_a_config_error(raw):
    try:
        cfg = parse_experiment_config(raw)
    except MfvulnError:
        pass
    else:
        assert "heatmap" not in raw
        for key in ("name", "out_dir"):
            assert isinstance(getattr(cfg, key), str)
            assert key not in raw or getattr(cfg, key) == raw[key]


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
    header = path.read_bytes().decode()
    writes, real_write_atomic = [], pipeline.write_atomic

    def recording_write_atomic(file, text):
        writes.append(text)
        real_write_atomic(file, text)

    with monkeypatch.context() as m:
        m.setattr(pipeline, "write_atomic", recording_write_atomic)
        ledger.append([("e1", "victim", "mfq", 0, "victim_return", 0.123456789012),
                       ("e1", "attack", "greedy", 1, "attacked_return", -2.5)])
    # one call writes all its rows at once, after the old text
    assert len(writes) == 1 and writes[0].startswith(header)
    assert writes[0][len(header):].count("\n") == 2
    rows = ledger.rows()
    assert len(rows) == 2
    # floats are stamped with 9 significant digits
    assert rows[0]["value"] == "0.123456789"
    assert ledger.find("e1", "victim", 0) is not None
    assert ledger.find("e1", "attack", 1)["method"] == "greedy"
    assert ledger.find("e1", "attack", 0) is None
    assert ledger.find("e1", "victim", 1) is None
    assert ledger.find("e2", "victim", 0) is None
    # reopening never truncates
    ledger = ResultsLedger(path)
    assert len(ledger.rows()) == 2


def test_an_interrupted_append_leaves_the_old_ledger(tmp_path, monkeypatch):
    path = tmp_path / "ledger.csv"
    ledger = ResultsLedger(path)
    ledger.append([("e1", "victim", "mfq", 0, "victim_return", 1.5)])
    before = path.read_bytes()

    def disk_full(file, text):
        with open(f"{file}.tmp", "w", newline="") as fh:
            fh.write(text[:len(text) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(pipeline, "write_atomic", disk_full)
    with pytest.raises(OSError, match="no space"):
        ledger.append([("e1", "attack", "greedy", 0, "attacked_return", -2.5)])
    assert path.read_bytes() == before


@pytest.mark.parametrize("text, line, message", [
    ("", 1, "does not end in a newline"),
    ("experiment_id,stage,method,seed,metric,value\r\ne,victim,mfq,0,victim_return,1",
     2, "does not end in a newline"),
    ("experiment_id,stage,method,seed,metric\r\n", 1, "not the header"),
    ("experiment_id,stage,method,seed,metric,value\r\ne,victim,mfq,0,victim_return\r\n",
     2, "5 fields, not 6"),
    ("experiment_id,stage,method,seed,metric,value\r\n\r\ne,victim,mfq,0,victim_return,1\r\n",
     2, "0 fields, not 6"),
    ("experiment_id,stage,method,seed,metric,value\r\ne,victim,mfq,0,victim_return,1\r\n"
     "e,correlate,subsets,0,pearson_r,abc\r\n", 3, "'abc', not a finite number"),
    ("experiment_id,stage,method,seed,metric,value\r\ne,victim,mfq,0,victim_return,nan\r\n",
     2, "'nan', not a finite number"),
    ("experiment_id,stage,method,seed,metric,value\r\ne,victim,mfq,0,victim_return,-inf\r\n",
     2, "'-inf', not a finite number"),
], ids=["empty", "torn", "header", "short-row", "blank-row", "value-abc", "value-nan",
        "value-inf"])
def test_a_torn_or_malformed_ledger_is_refused_naming_its_line(tmp_path, text, line, message):
    path = tmp_path / "ledger.csv"
    path.write_bytes(text.encode())
    with pytest.raises(InvalidInputError, match=f"line {line} .*{message}"):
        ResultsLedger(path)
    assert path.read_bytes() == text.encode()


@pytest.mark.parametrize("value", [float("nan"), np.inf, "abc", None])
def test_append_refuses_a_value_that_is_not_finite_before_writing(tmp_path, value):
    """A run never writes a ledger that its next run would refuse."""
    path = tmp_path / "ledger.csv"
    ledger = ResultsLedger(path)
    ledger.append([("e1", "victim", "mfq", 0, "victim_return", 1.5)])
    before = path.read_bytes()
    with pytest.raises(InvalidInputError) as exc:
        ledger.append([("e1", "attack", "greedy", 0, "coop_return", 2.5),
                       ("e1", "attack", "greedy", 0, "attacked_return", value)])
    assert str(exc.value) == f"ledger {path} line 4 has the value {str(value)!r}, not a " \
        "finite number"
    assert path.read_bytes() == before
    ResultsLedger(path)


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


def _cycled_subset_sizes(n_agents, n_subsets, k_min, k_max):
    """The sizes as a built list whose entries are counted: the reference for
    subset_sizes' arithmetic count, which builds nothing n_subsets long."""
    for key, k in (("k_min", k_min), ("k_max", k_max)):
        if k and k > n_agents:
            raise InvalidInputError(f"{key} exceeds population size")
    k_max = max(k_min, n_agents // 2) if not k_max else k_max
    sizes = [k_min + (i % (k_max - k_min + 1)) for i in range(n_subsets)]
    for k in range(k_min, k_max + 1):
        if sizes.count(k) > math.comb(n_agents, k):
            raise InvalidInputError(f"{sizes.count(k)} distinct subsets of size {k} "
                                    f"requested, but only C({n_agents}, {k}) exist")
    return sizes


def _sizes_or_refusal(sizes, *args):
    try:
        return list(sizes(*args))
    except InvalidInputError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(n_agents=st.integers(1, 10), n_subsets=st.integers(0, 80), k_min=st.integers(1, 11),
       k_max=st.integers(0, 11))
def test_subset_sizes_refuses_exactly_when_the_cycled_list_would(n_agents, n_subsets,
                                                                 k_min, k_max):
    assume(not k_max or k_max >= k_min)   # the config refuses a reversed range
    args = (n_agents, n_subsets, k_min, k_max)
    assert _sizes_or_refusal(subset_sizes, *args) == _sizes_or_refusal(_cycled_subset_sizes,
                                                                       *args)


def test_subset_sizes_refuses_without_building_the_sizes():
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError, match="^12500 distinct subsets of size 1 "):
            subset_sizes(16, 10 ** 5, 1, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024   # 10**5 sizes in a list take 800 KB


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
    assert np.array_equal(grid, want)
    rows = list(csv.reader(open(out)))
    assert len(rows) == 4 and len(rows[0]) == 4
    assert float(rows[0][0]) == pytest.approx(grid[0, 0], abs=1e-8)


def test_heatmap_refuses_any_other_mode():
    env, model = exact_setup()
    with pytest.raises(InvalidInputError, match="heatmap mode"):
        export_heatmap(model, env, env.reset(seed=0), "fancy")


FINITE = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(n_states=st.integers(1, 6), n_agents=st.integers(1, 40), data=st.data())
def test_heatmap_is_damp_at_the_start_states_on_the_layout_grid(n_states, n_agents, data):
    model = RobustValueModel(n_states, 2, 0.9)
    model.base = np.array(data.draw(st.lists(FINITE, min_size=n_states, max_size=n_states)))
    model.damp = np.array(data.draw(st.lists(st.floats(0, 1e6), min_size=n_states,
                                             max_size=n_states)))
    states0 = np.array(data.draw(st.lists(st.integers(0, n_states - 1),
                                          min_size=n_agents, max_size=n_agents)))
    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "heat.csv")
        grid = export_heatmap(model, None, SimpleNamespace(states=states0), out_csv=out)
        with open(out, newline="") as fh:
            cells = list(csv.reader(fh))
    assert np.array_equal(grid, model.damp[states0].reshape(agent_layout(n_agents)))
    assert cells == [["%.9g" % v for v in row] for row in grid]


# -- correlation --------------------------------------------------------------------


def test_correlation_needs_enough_subsets():
    env, model = exact_setup()
    subsets = sample_attack_subsets(env.n_agents, 10, seed=0)[:5]
    with pytest.raises(InvalidInputError, match="10"):
        correlate_prediction_vs_attack(model, env, TablePolicy(np.full((2, 2), 0.5)),
                                       subsets, AdversaryConfig(episodes=1), 0)


def test_prediction_anticorrelates_with_attacked_return(tmp_path):
    """Bigger predicted drops must pair with lower realized returns."""
    cfg = ToyConfig(n_agents=5, block_states=4, n_actions=2, shared=True,
                    deterministic=True, null_action=True, horizon=60,
                    gamma=0.85, seed=9)
    env = ToyMeanFieldEnv(cfg)
    pi = greedy_matrix(optimal_q(env))
    victim = TablePolicy(pi)
    model = exact_value_model(env, pi)
    subsets = sample_attack_subsets(5, 10, seed=3, k_min=1, k_max=2)
    out = tmp_path / "corr.csv"
    r, rows = correlate_prediction_vs_attack(
        model, env, victim, subsets,
        AdversaryConfig(episodes=40, lr=0.5, temperature=0.02, eps_final=0.0,
                        eval_episodes=2), seed=0, out_csv=out)
    assert len(rows) == 10
    assert r < -0.5
    parsed = list(csv.reader(open(out)))
    assert parsed[0] == ["predicted_drop", "realized_return"]
    assert len(parsed) == 11


# -- staged runs --------------------------------------------------------------------


def full_raw(tmp_path):
    return base_raw(
        selection={"methods": ["greedy", "random", "dc", "brute"], "k": 2},
        out_dir=str(tmp_path / "runs"),
    )


def test_run_pipeline_produces_artifacts_and_ledger(tmp_path):
    import yaml

    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(full_raw(tmp_path)))
    out = run_pipeline(str(cfg_path))
    paths = partial(artifact_path, out)
    for artifact in [paths("victim_policy", 0), paths("value_model", 0),
                     paths("trajectories", 0), paths("brute_scores", 0),
                     paths("ledger")]:
        assert os.path.exists(artifact), artifact
    for method in ("greedy", "random", "dc", "brute"):
        assert os.path.exists(paths("attack_set", 0, method))
        assert os.path.exists(paths("adversary", 0, method))

    ledger = ResultsLedger(paths("ledger"))
    rows = ledger.rows()
    stages = {(r["stage"], r["method"], r["metric"]) for r in rows}
    assert ("victim", "mfq", "victim_return") in stages
    assert ("victim", "uniform", "victim_return") in stages
    assert ("value", "tabular", "v0_mean") in stages
    for method in ("greedy", "random", "dc", "brute"):
        assert ("select", method, "predicted_drop") in stages
        assert ("attack", method, "attacked_return") in stages
        assert ("attack", method, "coop_return") in stages

    # reruns must not touch artifacts or grow the ledger
    ledger_bytes = open(paths("ledger"), "rb").read()
    victim_bytes = open(paths("victim_policy", 0), "rb").read()
    out2 = run_pipeline(str(cfg_path))
    assert out2 == out
    assert open(paths("ledger"), "rb").read() == ledger_bytes
    assert open(paths("victim_policy", 0), "rb").read() == victim_bytes


def test_minimal_vicsek_pipeline_smoke(tmp_path):
    import yaml

    raw = {
        "name": "vicsek-smoke",
        "env": {"env_name": "vicsek", "n_agents": 8, "horizon": 12, "seed": 3},
        "victim": {"episodes": 120, "eval_episodes": 6, "min_margin": 0.0},
        "value": {"rollouts": 8},
        "selection": {"methods": ["greedy", "random"], "k": 2},
        "adversary": {"episodes": 10, "eval_episodes": 4},
        "seeds": [0],
        "out_dir": str(tmp_path / "runs"),
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    out = run_pipeline(str(cfg_path))
    rows = ResultsLedger(artifact_path(out, "ledger")).rows()
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


def test_a_fresh_attack_stage_works_from_the_adversaries_its_files_hold(tmp_path, monkeypatch):
    """With a saver that rounds each Q value, a fresh run's attack stage returns and
    evaluates the rounded adversaries, as a resumed run would, not the ones it trained."""
    pattern, load, save, command = ARTIFACTS["adversary"]
    trained = {}

    def rounding(policy, path):
        trained[path] = policy.model.table.copy()
        model = QModel(*policy.model.table.shape, policy.model.gamma)
        model.table = np.round(policy.model.table)
        save(BoltzmannPolicy(model, policy.temperature), path)

    monkeypatch.setitem(ARTIFACTS, "adversary", (pattern, load, rounding, command))
    run = Run(parse_experiment_config(base_raw(out_dir=str(tmp_path / "runs"))))
    for stage in (stage_train_victim, stage_fit_value, stage_select):
        stage(run, 0)
    adversaries = stage_attack(run, 0)
    rows = {(r["method"], r["metric"]): r["value"] for r in run.ledger.rows()
            if r["stage"] == "attack"}
    assert sorted(adversaries) == ["greedy", "random"]
    for method, adversary in adversaries.items():
        path = run.path("adversary", 0, method)
        saved = BoltzmannPolicy.load(path)
        assert not np.array_equal(trained[path], saved.model.table)
        assert np.array_equal(adversary.model.table, saved.model.table)
        budgets = run.artifact("attack_set", 0, method).budgets(run.env.n_agents)
        returns = evaluate_policy(run.env, run.artifact("victim_policy", 0),
                                  run.cfg.adversary.eval_episodes, (0, 3), adversary_policy=saved,
                                  budgets=budgets)
        assert rows[(method, "attacked_return")] == f"{returns.mean():.9g}"


def test_stage_dependencies_are_enforced(tmp_path):
    run = Run(parse_experiment_config(base_raw(out_dir=str(tmp_path / "empty"))))
    with pytest.raises(StageDependencyError, match="run train-victim first"):
        stage_attack(run, 0)
    stage_train_victim(run, 0)
    with pytest.raises(StageDependencyError, match="run fit-value first"):
        stage_select(run, 0)
    with pytest.raises(StageDependencyError, match="run select first"):
        stage_attack(run, 0)


def test_stage_files_lists_every_file_the_artifact_table_names(tmp_path):
    """Every kind's file; not the id or a stray file."""
    named = [artifact_path(tmp_path, kind, seed, "dc") for seed, kind in enumerate(ARTIFACTS)]
    for path in named + [str(tmp_path / "notes.txt"), str(tmp_path / "experiment_id.txt")]:
        open(path, "w").close()
    assert stage_files(tmp_path) == sorted(os.path.basename(p) for p in named)


def test_run_claims_its_directory_before_any_stage(tmp_path):
    out = str(tmp_path / "claimed")
    cfg = parse_experiment_config(base_raw(out_dir=out))
    run = Run(cfg)
    with open(os.path.join(out, "experiment_id.txt")) as fh:
        assert fh.read() == experiment_id(cfg) + "\n"
    assert sorted(os.listdir(out)) == ["experiment_id.txt", "ledger.csv"]
    assert run.ledger.rows() == []
    Run(cfg)   # the same experiment may come back
    other = parse_experiment_config(base_raw(out_dir=out, name="another"))
    with pytest.raises(InvalidConfigError, match=f"{experiment_id(cfg)}, not {experiment_id(other)}"):
        Run(other)


def test_multi_seed_run_equals_one_run_per_seed(tmp_path, monkeypatch):
    """Two seeds in one run: the victims train in one call, and every file is
    what two --seed runs write, with the ledger their rows in seed order."""
    import yaml

    from mfvuln import pipeline
    from mfvuln.cli import main

    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(base_raw(seeds=[0, 1])))
    calls, real = [], pipeline.train_victims   # the calls that train a victim

    def recording(env, cfg, seeds):
        if seeds:
            calls.append(list(seeds))
        return real(env, cfg, seeds)

    monkeypatch.setattr(pipeline, "train_victims", recording)
    both = tmp_path / "both"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(both)]) == 0
    assert calls == [[0, 1]]
    singles = [tmp_path / f"s{seed}" for seed in (0, 1)]
    for seed, out in enumerate(singles):
        assert main(["pipeline", "--config", str(cfg_path), "--seed", str(seed),
                     "--out", str(out)]) == 0
    assert calls == [[0, 1], [0], [1]]
    header, *rows = (both / "ledger.csv").read_bytes().splitlines(keepends=True)
    assert rows == [row for out in singles
                    for row in (out / "ledger.csv").read_bytes().splitlines(keepends=True)[1:]]
    names = sorted(p.name for p in both.iterdir())
    assert names == sorted({p.name for out in singles for p in out.iterdir()})
    for name in set(names) - {"ledger.csv"}:
        want = [(out / name).read_bytes() for out in singles if (out / name).exists()]
        assert want and all(w == (both / name).read_bytes() for w in want), name

    victims = tmp_path / "victims"
    assert main(["train-victim", "--config", str(cfg_path), "--out", str(victims)]) == 0
    assert calls[-1] == [0, 1]
    for seed in (0, 1):
        name = f"victim_s{seed}.policy"
        assert (victims / name).read_bytes() == (both / name).read_bytes()


def test_one_evaluation_episode_writes_finite_ledger_values(tmp_path):
    """With one evaluation episode the sample std is undefined; it is written as 0."""
    cfg = parse_experiment_config(base_raw(
        out_dir=str(tmp_path / "runs"), victim={"episodes": 150, "eval_episodes": 1},
        adversary={"episodes": 8, "eval_episodes": 1}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run_pipeline(cfg)
    rows = Run(cfg).ledger.rows()
    assert rows and all(np.isfinite(float(r["value"])) for r in rows)
    std = [r["value"] for r in rows if r["metric"] in ("victim_std", "attacked_std")]
    assert std == ["0"] * 3
