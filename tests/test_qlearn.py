"""Victim training, Boltzmann policies, rollouts, and checkpoints."""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfvuln import qlearn
from mfvuln.attack import AdversaryConfig
from mfvuln.core import BudgetVector, seed_rng
from mfvuln.envs.toy import ToyConfig, ToyMeanFieldEnv
from mfvuln.errors import (InvalidConfigError, InvalidInputError,
                           TrainingFailureError)
from mfvuln.envs.base import Snapshot
from mfvuln.qlearn import (BoltzmannPolicy, QModel, ReplayBuffer,
                           TablePolicy, TrainConfig, UniformPolicy, evaluate_policy,
                           exploration_eps, rollout, softmax_rows, train_victim)
from mfvuln.robust import RobustValueModel
from mfvuln.selection import AttackSet, SelectorRLConfig, load_attack_set, save_attack_set


def two_state_env(gamma=0.9, c0=0.25):
    """Two agents on separate 2-state chains with hand-set tables.

    The second block pays a constant reward, so the shared reward seen from
    block 1 is (r1 + c0) / 2 no matter where agent 2 sits.  That closes the
    block-1 Q cells under an exactly solvable linear system.
    """
    env = ToyMeanFieldEnv(ToyConfig(n_agents=2, block_states=2, n_actions=2,
                                    deterministic=True, null_action=False,
                                    horizon=40, gamma=gamma, seed=3))
    env.rewards[2:, :] = c0
    env.rewards[:2] = np.array([[1.0, 0.2], [0.4, 0.8]])
    T = np.zeros((4, 2, 4))
    T[0, 0, 1] = T[0, 1, 0] = T[1, 0, 0] = T[1, 1, 1] = 1.0
    T[2, 0, 3] = T[2, 1, 2] = T[3, 0, 2] = T[3, 1, 3] = 1.0
    env.transitions = T
    env.initial_states = np.array([0, 2])
    return env


def block1_policy_eval_oracle(env, pi, c0=0.25):
    """Exact block-1 Q of the shared-reward system by a linear solve."""
    gamma = env.gamma
    A = np.eye(4)
    b = ((env.rewards[:2] + c0) / 2.0).ravel()
    for s in range(2):
        for a in range(2):
            row = 2 * s + a
            s2 = int(env.transitions[s, a].argmax())
            for a2 in range(2):
                A[row, 2 * s2 + a2] -= gamma * pi[s2, a2]
    return np.linalg.solve(A, b).reshape(2, 2)


# -- softmax / boltzmann ---------------------------------------------------------


def dists_at(policy, states):
    """Action distributions of a policy for agents in the given states."""
    return policy.action_dists(Snapshot(t=0, states=np.asarray(states), rng=seed_rng(0)))


def test_boltzmann_uniform_on_flat_row():
    m = QModel(2, 3, 0.9)
    m.table[0] = 1.0
    pol = BoltzmannPolicy(m, temperature=0.7)
    d = dists_at(pol, [0])
    assert np.allclose(d, 1.0 / 3)


def test_boltzmann_closed_form():
    m = QModel(1, 2, 0.9)
    m.table[0] = [0.0, np.log(2.0)]
    d = dists_at(BoltzmannPolicy(m, temperature=1.0), [0])
    assert np.allclose(d, [1.0 / 3, 2.0 / 3])


def test_boltzmann_greedy_limit():
    m = QModel(1, 3, 0.9)
    m.table[0] = [0.1, 0.9, 0.3]
    d = dists_at(BoltzmannPolicy(m, temperature=1e-3), [0])
    assert d[0, 1] > 1.0 - 1e-9


def test_boltzmann_shift_invariance():
    rng = seed_rng(3)
    row = rng.random(4)
    a = softmax_rows((row / 0.3)[None, :])
    b = softmax_rows(((row + 17.0) / 0.3)[None, :])
    assert np.allclose(a, b)


def test_boltzmann_rejects_bad_temperature():
    m = QModel(1, 2, 0.9)
    for t in (0.0, -1.0):
        with pytest.raises(InvalidInputError):
            BoltzmannPolicy(m, temperature=t)


# -- TD policy evaluation against the linear-system oracle -----------------------


def test_td_matches_linear_solve():
    env = two_state_env()
    pi = np.array([[0.6, 0.4], [0.3, 0.7], [0.5, 0.5], [0.5, 0.5]])
    model, _, _ = train_victim(env, TrainConfig(episodes=400, lr=0.5, min_margin=None), 0,
                               fixed_policy_table=pi)
    oracle = block1_policy_eval_oracle(env, pi)
    assert np.abs(model.table[:2] - oracle).max() < 1e-3


def test_td_myopic_limit():
    # gamma = 0 reduces the fit to immediate-reward regression
    env = two_state_env(gamma=0.0)
    pi = np.full((4, 2), 0.5)
    model, _, _ = train_victim(env, TrainConfig(episodes=200, lr=0.5, min_margin=None), 1,
                               fixed_policy_table=pi)
    want = (env.rewards[:2] + 0.25) / 2.0
    assert np.abs(model.table[:2] - want).max() < 1e-9


def test_training_is_deterministic():
    env = ToyMeanFieldEnv(ToyConfig(n_agents=3, horizon=20, seed=5))
    cfg = TrainConfig(episodes=30, min_margin=None)
    m1, _, c1 = train_victim(env, cfg, 7)
    m2, _, c2 = train_victim(env, cfg, 7)
    assert np.array_equal(m1.table, m2.table)
    assert np.array_equal(c1, c2)
    m3, _, _ = train_victim(env, cfg, 8)
    assert not np.array_equal(m1.table, m3.table)


def test_training_failure_carries_returns():
    env = ToyMeanFieldEnv(ToyConfig(n_agents=3, horizon=20, seed=5))
    with pytest.raises(TrainingFailureError) as exc:
        train_victim(env, TrainConfig(episodes=5, min_margin=1000.0), 0)
    assert exc.value.trained_return is not None
    assert exc.value.baseline_return is not None


def test_train_config_validation():
    for bad in (dict(episodes=0), dict(lr=0.0), dict(temperature=-1),
                dict(eps_final=0.8, eps_start=0.5), dict(eps_fraction=0.0)):
        with pytest.raises(InvalidConfigError):
            TrainConfig(**bad).validate()


def test_exploration_schedule():
    # the victim, the adversary and the learned selector share one schedule
    schedule = dict(episodes=100, eps_start=1.0, eps_final=0.1, eps_fraction=0.5)
    for cfg in (TrainConfig(**schedule), AdversaryConfig(**schedule),
                SelectorRLConfig(**schedule)):
        assert exploration_eps(cfg, 0) == pytest.approx(1.0)
        assert exploration_eps(cfg, 25) == pytest.approx(0.55)
        assert exploration_eps(cfg, 50) == pytest.approx(0.1)
        assert exploration_eps(cfg, 99) == pytest.approx(0.1)


# -- rollouts --------------------------------------------------------------------


def test_rollout_replay_equality():
    # rewards in the record match the env re-stepped on the recorded actions
    env = ToyMeanFieldEnv(ToyConfig(n_agents=3, horizon=15, seed=9))
    traj = rollout(env, UniformPolicy(env.n_actions), seed=(4, 2))
    snap = env.reset(seed=(4, 2))
    for st in traj.steps:
        assert np.array_equal(snap.states, st.states)
        res = env.step(snap, st.actions)
        assert res.reward == st.reward
        snap = res.snapshot
    assert np.array_equal(snap.states, traj.final_states)


def test_rollout_full_takeover_uses_adversary():
    env = two_state_env()
    victim = TablePolicy(np.eye(2)[np.zeros(4, dtype=int)])      # always action 0
    adversary = TablePolicy(np.eye(2)[np.ones(4, dtype=int)])    # always action 1
    budgets = BudgetVector(np.array([1.0, 0.0]))
    traj = rollout(env, victim, seed=0, adversary_policy=adversary, budgets=budgets)
    acts = np.stack([st.actions for st in traj.steps])
    assert np.all(acts[:, 0] == 1)   # attacked agent follows the adversary
    assert np.all(acts[:, 1] == 0)   # the other one never deviates


def test_rollout_zero_budgets_ignore_adversary():
    env = ToyMeanFieldEnv(ToyConfig(n_agents=3, horizon=10, seed=1))
    pol = UniformPolicy(env.n_actions)
    adv = TablePolicy(np.eye(env.n_actions)[np.zeros(env.n_states, dtype=int)])
    plain = rollout(env, pol, seed=5)
    mixed = rollout(env, pol, seed=5, adversary_policy=adv,
                    budgets=BudgetVector.zeros(3))
    assert np.array_equal(plain.rewards, mixed.rewards)


def test_rollout_discounted_return():
    env = ToyMeanFieldEnv(ToyConfig(n_agents=2, horizon=6, seed=2))
    traj = rollout(env, UniformPolicy(env.n_actions), seed=3)
    want = sum(st.reward * env.gamma ** t for t, st in enumerate(traj.steps))
    assert traj.discounted_return(env.gamma) == pytest.approx(want)


def test_evaluate_policy_shape_and_determinism():
    env = ToyMeanFieldEnv(ToyConfig(n_agents=2, horizon=10, seed=3))
    pol = UniformPolicy(env.n_actions)
    a = evaluate_policy(env, pol, 7, seed=(1, 2))
    b = evaluate_policy(env, pol, 7, seed=(1, 2))
    assert a.shape == (7,)
    assert np.array_equal(a, b)


# -- model plumbing -----------------------------------------------------------------


def test_qmodel_values_shape():
    m = QModel(4, 3, 0.9)
    vals = m.values(np.array([0, 2, 3]))
    assert vals.shape == (3, 3)
    assert np.all(np.isfinite(vals))


def test_qmodel_td_update_moves_toward_target():
    m = QModel(2, 2, 0.9)
    for _ in range(200):
        m.td_update(np.array([0]), np.array([1]), np.array([2.5]), lr=0.3)
    assert m.value(0, 1) == pytest.approx(2.5, abs=1e-6)


def test_qmodel_rejects_bad_config():
    with pytest.raises(InvalidConfigError):
        QModel(2, 2, 1.0)


def test_checkpoint_roundtrip(tmp_path):
    m = QModel(3, 2, 0.95)
    m.table += seed_rng(0).random(m.table.shape)
    path = tmp_path / "model.q"
    m.save(path)
    loaded = QModel.load(path)
    assert np.array_equal(loaded.table, m.table)
    assert loaded.table.shape == (3, 2)
    assert loaded.gamma == m.gamma
    path.write_text(path.read_text().replace("n_states 3", "n_states 4"))
    with pytest.raises(InvalidInputError, match="reshape"):
        QModel.load(path)


def test_policy_checkpoint_roundtrip(tmp_path):
    m = QModel(3, 2, 0.9)
    m.table += 0.5
    pol = BoltzmannPolicy(m, temperature=0.2)
    path = str(tmp_path / "victim.policy")
    pol.save(path)
    loaded = BoltzmannPolicy.load(path)
    assert loaded.temperature == 0.2
    assert np.array_equal(loaded.model.table, m.table)


def test_checkpoint_kind_mismatch(tmp_path):
    m = QModel(2, 2, 0.9)
    path = tmp_path / "model.q"
    m.save(path)
    with pytest.raises(InvalidInputError):
        BoltzmannPolicy.load(str(path))
    bad = tmp_path / "junk"
    bad.write_text("not a checkpoint\n")
    with pytest.raises(InvalidInputError):
        QModel.load(bad)
    # only the tabular backend exists; its header line is still checked
    for name, load in (("model.q", QModel.load), ("value.robust", RobustValueModel.load)):
        text = ARTIFACTS[name].replace("backend tabular", "backend linear")
        (tmp_path / name).write_text(text)
        with pytest.raises(InvalidInputError, match="backend 'linear'"):
            load(tmp_path / name)


def _saved_artifacts():
    """Text of one saved QModel, BoltzmannPolicy, RobustValueModel and attack set."""
    q = QModel(2, 3, 0.9)
    q.table += seed_rng(5).random(q.table.shape)
    v = RobustValueModel(3, 2, 0.9)
    v.base += 1.5
    v.damp += 0.25
    attack = AttackSet([2, 0], 0.5, "greedy", predicted_drop=0.3,
                       pick_rewards=np.array([0.2, 0.1]))
    with tempfile.TemporaryDirectory() as d:
        q.save(os.path.join(d, "model.q"))
        BoltzmannPolicy(q, 0.2).save(os.path.join(d, "victim.policy"))
        v.save(os.path.join(d, "value.robust"))
        save_attack_set(attack, os.path.join(d, "attack.txt"), seed=0)
        return {name: Path(d, name).read_text() for name in sorted(os.listdir(d))}


ARTIFACTS = _saved_artifacts()
LOADERS = {"model.q": QModel.load, "victim.policy": BoltzmannPolicy.load,
           "victim.policy.q": lambda path: BoltzmannPolicy.load(path[:-2]),
           "value.robust": RobustValueModel.load, "attack.txt": load_attack_set}


def _write_artifacts(directory, texts):
    for name, text in texts.items():
        Path(directory, name).write_text(text, encoding="utf-8")


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(ARTIFACTS)), data=st.data())
def test_damaged_artifact_loads_or_raises_invalid_input(name, data):
    lines = ARTIFACTS[name].splitlines()
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    edit = data.draw(st.sampled_from(["delete", "truncate", "rewrite"]), label="edit")
    if edit == "delete":
        lines = lines[:i] + lines[i + 1:]
    elif edit == "truncate":
        lines = lines[:i] + [lines[i][:data.draw(st.integers(0, len(lines[i])))]]
    else:
        key = lines[i].partition(" ")[0]
        text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
        lines[i] = data.draw(st.one_of(
            text, text.map(lambda v: f"{key} {v}"),
            st.integers().map(lambda v: f"{key} {v}"),
            st.floats().map(lambda v: f"{key} {v!r}")), label="new line")
    with tempfile.TemporaryDirectory() as d:
        _write_artifacts(d, {**ARTIFACTS, name: "\n".join(lines)})
        path = os.path.join(d, name)
        try:
            LOADERS[name](path)
        except InvalidInputError as exc:
            assert path in str(exc)


def test_checkpoints_with_the_former_binning_lines_still_load(tmp_path):
    # checkpoints written before the mean-field binning was removed carry
    # these header lines; with one bin each their tables are the same
    old_lines = {"model.q": "mu_bins 1\nmu_levels 4\nnu_bins 1\nnu_levels 4\n"
                            "nu_hat 0.25 0.25 0.5\n",
                 "value.robust": "joint_norm 0\nmu_bins 1\nmu_levels 4\n"}
    for name, lines in old_lines.items():
        assert "mu_bins" not in ARTIFACTS[name]
        path = str(tmp_path / name)
        _write_artifacts(tmp_path, {name: ARTIFACTS[name]})
        current = LOADERS[name](path)
        _write_artifacts(tmp_path, {name: ARTIFACTS[name].replace("values ", lines + "values ", 1)})
        old = LOADERS[name](path)
        for attr in ("table", "base", "damp"):
            if hasattr(current, attr):
                assert np.array_equal(getattr(old, attr), getattr(current, attr))


def test_missing_policy_companion_raises_invalid_input(tmp_path):
    _write_artifacts(tmp_path, {"victim.policy": ARTIFACTS["victim.policy"]})
    with pytest.raises(InvalidInputError, match="victim.policy.q"):
        BoltzmannPolicy.load(str(tmp_path / "victim.policy"))


class _DiskFullFile:
    """Writes the first half of what it is given, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        raise OSError("no space left on device")


def test_failed_save_keeps_the_previous_file(tmp_path, monkeypatch):
    _write_artifacts(tmp_path, ARTIFACTS)
    before = {name: Path(tmp_path, name).read_bytes() for name in ARTIFACTS}
    savers = {
        "model.q": QModel(2, 2, 0.5).save,
        "victim.policy": BoltzmannPolicy(QModel(2, 2, 0.5), 0.3).save,
        "value.robust": RobustValueModel(3, 2, 0.5).save,
        "attack.txt": lambda path: save_attack_set(AttackSet([1], 0.5, "dc"), path),
        "new.q": QModel(2, 2, 0.5).save,
    }
    real_open = open
    monkeypatch.setattr(qlearn, "open",
                        lambda path, *a, **kw: _DiskFullFile(real_open(path, *a, **kw)),
                        raising=False)
    for name, save in savers.items():
        with pytest.raises(OSError, match="no space"):
            save(str(tmp_path / name))
    assert sorted(os.listdir(tmp_path)) == sorted(ARTIFACTS)
    assert {name: Path(tmp_path, name).read_bytes() for name in ARTIFACTS} == before


def test_replay_buffer_fifo():
    buf = ReplayBuffer(capacity=3)
    for i in range(5):
        buf.push(i)
    assert len(buf) == 3
    assert sorted(buf._data) == [2, 3, 4]
    with pytest.raises(InvalidConfigError):
        ReplayBuffer(capacity=0)
