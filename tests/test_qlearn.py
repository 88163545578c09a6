"""Victim training, Boltzmann policies, rollouts, and checkpoints."""

import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfvuln import qlearn
from mfvuln.core import BudgetVector, seed_rng
from mfvuln.envs.toy import ToyConfig, ToyMeanFieldEnv
from mfvuln.errors import (InvalidConfigError, InvalidInputError,
                           TrainingFailureError)
from mfvuln.envs.base import Snapshot
from mfvuln.qlearn import (AdversaryConfig, BoltzmannPolicy, QModel, TablePolicy,
                           TrainConfig, UniformPolicy, discounted_return, evaluate_policy,
                           exploration_eps, rollout, softmax_rows, train_victims)
from mfvuln.robust import RobustValueModel
from mfvuln.selection import AttackSet, load_attack_set, save_attack_set
from oracles import train_victim_serial


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
    return policy.action_dists(Snapshot(t=0, states=np.asarray(states)))


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 7), st.floats(1e-3, 1e3),
       st.lists(st.integers(1, 40), min_size=1, max_size=2), st.integers(0, 2 ** 16))
def test_boltzmann_reads_the_bits_of_a_per_call_softmax(n_states, n_actions, temperature,
                                                        shape, seed):
    """The per-state table a BoltzmannPolicy is read from gives, for (N,) or
    (B, N) states, exactly what a softmax of their Q rows computes per call."""
    rng = seed_rng(seed)
    model = QModel(n_states, n_actions, 0.9)
    model.table = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=(n_states, n_actions))
    policy = BoltzmannPolicy(model, temperature)
    snap = Snapshot(t=0, states=rng.integers(0, n_states, size=shape))
    got = policy.action_dists(snap)
    want = softmax_rows(model.values(snap.states) / temperature)
    assert got.shape == want.shape == tuple(shape) + (n_actions,)
    assert got.tobytes() == want.tobytes()


def test_boltzmann_policy_is_tabulated_when_built():
    model = QModel(2, 3, 0.9)
    model.table[1] = [0.0, 1.0, 2.0]
    policy = BoltzmannPolicy(model, 0.5)
    before = dists_at(policy, [0, 1])
    model.table[1] = 5.0
    assert np.array_equal(dists_at(policy, [0, 1]), before)
    assert np.allclose(dists_at(BoltzmannPolicy(model, 0.5), [1]), 1.0 / 3)


def test_boltzmann_rejects_bad_temperature():
    m = QModel(1, 2, 0.9)
    for t in (0.0, -1.0):
        with pytest.raises(InvalidInputError):
            BoltzmannPolicy(m, temperature=t)


def test_boltzmann_refuses_a_table_that_is_not_finite():
    """A positive temperature so small that Q / T overflows is refused, with no
    RuntimeWarning on the way; a flat Q row divides to 0 and stays uniform."""
    m = QModel(2, 2, 0.9)
    m.table[0] = [1.0, 2.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="not finite"):
            BoltzmannPolicy(m, temperature=1e-320)
        flat = BoltzmannPolicy(QModel(2, 2, 0.9), temperature=1e-320)
        assert np.array_equal(flat.table, np.full((2, 2), 0.5))


def test_boltzmann_load_refuses_a_table_that_is_not_finite(tmp_path):
    m = QModel(2, 2, 0.9)
    m.table[0] = [1.0, 2.0]
    path = tmp_path / "victim_s0.policy"
    BoltzmannPolicy(m, 0.1).save(str(path))
    path.write_text(path.read_text().replace("temperature 0.1\n", "temperature 1e-320\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="victim_s0.policy: .*not finite"):
            BoltzmannPolicy.load(str(path))


# -- TD policy evaluation against the linear-system oracle -----------------------


def test_td_matches_linear_solve():
    env = two_state_env()
    pi = np.array([[0.6, 0.4], [0.3, 0.7], [0.5, 0.5], [0.5, 0.5]])
    model, _, _ = train_victim_serial(env, TrainConfig(episodes=400, lr=0.5, min_margin=None),
                                      0, fixed_policy_table=pi)
    oracle = block1_policy_eval_oracle(env, pi)
    assert np.abs(model.table[:2] - oracle).max() < 1e-3


def test_td_myopic_limit():
    # gamma = 0 reduces the fit to immediate-reward regression
    env = two_state_env(gamma=0.0)
    pi = np.full((4, 2), 0.5)
    model, _, _ = train_victim_serial(env, TrainConfig(episodes=200, lr=0.5, min_margin=None),
                                      1, fixed_policy_table=pi)
    want = (env.rewards[:2] + 0.25) / 2.0
    assert np.abs(model.table[:2] - want).max() < 1e-9


def test_training_is_deterministic():
    env = ToyMeanFieldEnv(ToyConfig(n_agents=3, horizon=20, seed=5))
    cfg = TrainConfig(episodes=30, min_margin=None)
    [(m1, _, c1)] = train_victims(env, cfg, [7])
    [(m2, _, c2)] = train_victims(env, cfg, [7])
    assert np.array_equal(m1.table, m2.table)
    assert np.array_equal(c1, c2)
    [(m3, _, _)] = train_victims(env, cfg, [8])
    assert not np.array_equal(m1.table, m3.table)


def test_training_failure_carries_returns():
    env = ToyMeanFieldEnv(ToyConfig(n_agents=3, horizon=20, seed=5))
    with pytest.raises(TrainingFailureError, match="victim of seed 4 underperforms") as exc:
        train_victims(env, TrainConfig(episodes=5, min_margin=1000.0), [4, 0])
    assert exc.value.trained_return is not None
    assert exc.value.baseline_return is not None


def test_train_config_validation():
    for bad in (dict(episodes=0), dict(lr=0.0), dict(temperature=-1),
                dict(eps_final=0.8, eps_start=0.5), dict(eps_fraction=0.0)):
        with pytest.raises(InvalidConfigError):
            TrainConfig(**bad)


def test_exploration_schedule():
    # the victim and the adversary share one schedule
    schedule = dict(episodes=100, eps_start=1.0, eps_final=0.1, eps_fraction=0.5)
    for cfg in (TrainConfig(**schedule), AdversaryConfig(**schedule)):
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
    for states, actions, reward in zip(traj.states, traj.actions, traj.rewards):
        assert np.array_equal(snap.states, states)
        res = env.step(snap, actions)
        assert res.reward == reward
        snap = res.snapshot
    assert np.array_equal(snap.states, traj.final_states)


def test_rollout_full_takeover_uses_adversary():
    env = two_state_env()
    victim = TablePolicy(np.eye(2)[np.zeros(4, dtype=int)])      # always action 0
    adversary = TablePolicy(np.eye(2)[np.ones(4, dtype=int)])    # always action 1
    budgets = BudgetVector(np.array([1.0, 0.0]))
    traj = rollout(env, victim, seed=0, adversary_policy=adversary, budgets=budgets)
    acts = traj.actions
    assert np.all(acts[:, 0] == 1)   # attacked agent follows the adversary
    assert np.all(acts[:, 1] == 0)   # the other one never deviates


@pytest.mark.parametrize("n_states, n_actions, dtypes", [
    (256, 2, (np.uint8, np.uint8)), (257, 2, (np.uint16, np.uint8)),
    (2, 256, (np.uint8, np.uint8)), (2, 257, (np.uint8, np.uint16))],
    ids=["256-states", "257-states", "256-actions", "257-actions"])
def test_rollout_states_and_actions_take_the_narrowest_unsigned_dtype(n_states, n_actions,
                                                                       dtypes):
    env = ToyMeanFieldEnv(ToyConfig(n_agents=3, block_states=n_states, n_actions=n_actions,
                                    shared=True, horizon=6, seed=4))
    env.initial_states = np.array([0, n_states - 2, n_states - 1])
    trajs = qlearn.rollouts(env, UniformPolicy(n_actions), [(5, 0), (5, 1)])
    for k, traj in enumerate(trajs):
        assert (traj.states.dtype, traj.actions.dtype) == dtypes
        assert traj.final_states.dtype == dtypes[0]
        assert traj.states[0].tolist() == [0, n_states - 2, n_states - 1]
        snap = env.reset(seed=(5, k))
        for states, actions in zip(traj.states, traj.actions):
            assert snap.states.tolist() == states.tolist()
            snap = env.step(snap, actions).snapshot
        assert snap.states.tolist() == traj.final_states.tolist()
    # the trajectories of one call are views of one block
    assert trajs[0].states.base is trajs[1].states.base is not None


def test_rollout_keeps_the_fields_bench_reads():
    """bench/ counts steps as len(traj.steps) and agents as final_states.size."""
    for horizon in (1, 4, 7):
        env = ToyMeanFieldEnv(ToyConfig(n_agents=3, horizon=horizon, seed=2))
        traj = rollout(env, UniformPolicy(env.n_actions), seed=1)
        assert len(traj.steps) == horizon
        assert traj.final_states.size == env.n_agents


def test_rollout_discounted_return():
    env = ToyMeanFieldEnv(ToyConfig(n_agents=2, horizon=6, seed=2))
    traj = rollout(env, UniformPolicy(env.n_actions), seed=3)
    want = sum(r * env.gamma ** t for t, r in enumerate(traj.rewards.tolist()))
    assert discounted_return(traj.rewards, env.gamma) == pytest.approx(want)


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
    path = tmp_path / "victim.policy"
    BoltzmannPolicy(m, 0.1).save(str(path))
    loaded = BoltzmannPolicy.load(str(path)).model
    assert np.array_equal(loaded.table, m.table)
    assert loaded.table.shape == (3, 2)
    assert loaded.gamma == m.gamma
    path.write_text(path.read_text().replace("n_states 3", "n_states 4"))
    with pytest.raises(InvalidInputError, match="reshape"):
        BoltzmannPolicy.load(str(path))


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
    path = tmp_path / "value.robust"
    path.write_text(ARTIFACTS["value.robust"])
    with pytest.raises(InvalidInputError):
        BoltzmannPolicy.load(str(path))
    bad = tmp_path / "junk"
    bad.write_text("not a checkpoint\n")
    with pytest.raises(InvalidInputError):
        BoltzmannPolicy.load(bad)
    # only the tabular backend exists; no writer emits its line, and a file that
    # has one must name it (an older value file's "backend tabular" still loads)
    for name, load in (("victim.policy", BoltzmannPolicy.load),
                       ("value.robust", RobustValueModel.load)):
        assert "backend" not in ARTIFACTS[name]
        text = ARTIFACTS[name].replace("\nn_states", "\nbackend linear\nn_states")
        (tmp_path / name).write_text(text)
        with pytest.raises(InvalidInputError, match="backend 'linear'"):
            load(str(tmp_path / name))


def _saved_artifacts():
    """Text of one saved BoltzmannPolicy, RobustValueModel and attack set."""
    q = QModel(2, 3, 0.9)
    q.table += seed_rng(5).random(q.table.shape)
    v = RobustValueModel(3, 2, 0.9)
    v.base += 1.5
    v.damp += 0.25
    attack = AttackSet([2, 0], 0.5, "greedy", predicted_drop=0.3,
                       pick_rewards=np.array([0.2, 0.1]))
    with tempfile.TemporaryDirectory() as d:
        BoltzmannPolicy(q, 0.2).save(os.path.join(d, "victim.policy"))
        v.save(os.path.join(d, "value.robust"))
        save_attack_set(attack, os.path.join(d, "attack.txt"))
        return {name: Path(d, name).read_text() for name in sorted(os.listdir(d))}


ARTIFACTS = _saved_artifacts()
LOADERS = {"victim.policy": BoltzmannPolicy.load, "value.robust": RobustValueModel.load,
           "attack.txt": load_attack_set}


@pytest.mark.parametrize("name, old, new", [
    ("victim.policy", "n_states 2", "n_states -1"), ("victim.policy", "n_actions 3", "n_actions -1"),
    ("value.robust", "n_states 3", "n_states -1"), ("value.robust", "n_actions 2", "n_actions 0")],
    ids=["policy-states", "policy-actions", "value-states", "value-actions"])
def test_a_checkpoint_dimension_below_one_is_refused_naming_the_file(tmp_path, name, old, new):
    """A reshape once inferred a dimension of -1 from the value count, and a value
    model once kept 0 actions: each such checkpoint loaded."""
    assert ARTIFACTS[name].count(f"\n{old}\n") == 1
    path = tmp_path / name
    path.write_text(ARTIFACTS[name].replace(f"\n{old}\n", f"\n{new}\n"))
    with pytest.raises(InvalidInputError, match="must be positive") as err:
        LOADERS[name](str(path))
    assert str(path) in str(err.value)


def _write_artifacts(directory, texts):
    for name, text in texts.items():
        Path(directory, name).write_text(text, encoding="utf-8")


def _numbers(loaded) -> np.ndarray:
    """Every number a run computes with in a loaded artifact."""
    if isinstance(loaded, BoltzmannPolicy):
        return np.append(loaded.model.table, loaded.temperature)
    if isinstance(loaded, RobustValueModel):
        return np.append(loaded.base, loaded.damp)
    drop = [] if loaded.predicted_drop is None else [loaded.predicted_drop]
    picks = [] if loaded.pick_rewards is None else loaded.pick_rewards
    return np.concatenate([[loaded.eps], drop, picks])


TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
# a new line: free text, or (keyed) the old line's first word and a value
NEW_LINES = st.one_of(st.tuples(st.booleans(), TEXT),
                      st.tuples(st.just(True), st.integers().map(str)),
                      st.tuples(st.just(True), st.floats().map(repr)))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(ARTIFACTS)), line=st.integers(0, 99),
       edit=st.sampled_from(["delete", "truncate", "rewrite"]), cut=st.integers(0, 99),
       new=NEW_LINES)
@example(name="victim.policy", line=2, edit="rewrite", cut=0, new=(True, "nan"))
@example(name="victim.policy", line=7, edit="rewrite", cut=0, new=(False, "inf"))
@example(name="value.robust", line=7, edit="rewrite", cut=0, new=(False, "nan"))
@example(name="value.robust", line=4, edit="rewrite", cut=0, new=(True, "nan"))
@example(name="value.robust", line=4, edit="rewrite", cut=0, new=(True, "1.0"))
@example(name="value.robust", line=4, edit="rewrite", cut=0, new=(True, "-0.5"))
@example(name="value.robust", line=5, edit="rewrite", cut=0, new=(True, "nan"))
@example(name="value.robust", line=5, edit="rewrite", cut=0, new=(True, "0.5"))
@example(name="value.robust", line=5, edit="rewrite", cut=0, new=(True, "1.0"))
@example(name="attack.txt", line=4, edit="rewrite", cut=0, new=(True, "nan"))
@example(name="attack.txt", line=5, edit="rewrite", cut=0, new=(False, "pick_rewards 1 -inf"))
@example(name="attack.txt", line=3, edit="delete", cut=0, new=(False, ""))
@example(name="attack.txt", line=4, edit="delete", cut=0, new=(False, ""))
@example(name="attack.txt", line=5, edit="delete", cut=0, new=(False, ""))
def test_damaged_artifact_loads_or_raises_invalid_input(name, line, edit, cut, new):
    """A damaged artifact raises InvalidInputError naming its file, or loads
    holding only finite numbers, a gamma in [0, 1) and a norm order p >= 1.
    One that loads with a line deleted held nothing the loader reads on that
    line: saving what loaded gives back the undamaged file."""
    lines = ARTIFACTS[name].splitlines()
    i = line % len(lines)
    if edit == "delete":
        lines = lines[:i] + lines[i + 1:]
    elif edit == "truncate":
        lines = lines[:i] + [lines[i][:cut % (len(lines[i]) + 1)]]
    else:
        keyed, value = new
        lines[i] = f"{lines[i].partition(' ')[0]} {value}" if keyed else value
    with tempfile.TemporaryDirectory() as d:
        _write_artifacts(d, {**ARTIFACTS, name: "\n".join(lines)})
        path = os.path.join(d, name)
        try:
            loaded = LOADERS[name](path)
        except InvalidInputError as exc:
            assert path in str(exc)
        else:
            assert np.isfinite(_numbers(loaded)).all()
            model = loaded.model if isinstance(loaded, BoltzmannPolicy) else loaded
            if isinstance(model, (QModel, RobustValueModel)):
                assert 0.0 <= model.gamma < 1.0
            if isinstance(model, RobustValueModel):
                assert model.p >= 1.0
            if edit == "delete":
                if isinstance(loaded, AttackSet):
                    save_attack_set(loaded, path)
                else:
                    loaded.save(path)
                assert {n: Path(d, n).read_text() for n in ARTIFACTS} == ARTIFACTS


def test_checkpoints_with_the_former_binning_lines_still_load(tmp_path):
    # value models written before the mean-field binning was removed carry
    # these header lines, and older ones the backend and budget-form lines no
    # writer emits now; with one bin each their tables are the same
    path = tmp_path / "value.robust"
    path.write_text(ARTIFACTS["value.robust"])
    current = RobustValueModel.load(path)
    old_lines = ("backend tabular\njoint_norm 0\nmu_bins 1\nmu_levels 4\n"
                 "budget_form base-minus-w-damp w=eps+xi+eps*xi\n")
    path.write_text(ARTIFACTS["value.robust"].replace("values ", old_lines + "values ", 1))
    old = RobustValueModel.load(path)
    assert np.array_equal(old.base, current.base) and np.array_equal(old.damp, current.damp)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_a_loader_refuses_a_directory_naming_it(tmp_path, name):
    """A record path that is a directory once ended in an IsADirectoryError traceback."""
    path = tmp_path / name
    path.mkdir()
    with pytest.raises(InvalidInputError, match="cannot read artifact") as exc:
        LOADERS[name](str(path))
    assert str(path) in str(exc.value)


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
        "victim.policy": BoltzmannPolicy(QModel(2, 2, 0.5), 0.3).save,
        "value.robust": RobustValueModel(3, 2, 0.5).save,
        "attack.txt": lambda path: save_attack_set(AttackSet([1], 0.5, "dc"), path),
        "new.policy": BoltzmannPolicy(QModel(2, 2, 0.5), 0.3).save,
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
