"""Batched episodes and learners equal their one-at-a-time references bit for bit."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfvuln.attack import AdversaryConfig, train_adversaries
from mfvuln.core import BudgetVector, seed_rng
from mfvuln.envs import TaxiGridEnv, ToyMeanFieldEnv, VicsekEnv
from mfvuln.envs.base import MeanFieldEnv, stack_snapshots
from mfvuln.envs.taxi import TaxiConfig
from mfvuln.envs.toy import ToyConfig
from mfvuln.envs.vicsek import VicsekConfig
from mfvuln.errors import InvalidConfigError, InvalidInputError, TrainingFailureError
from mfvuln.qlearn import (BoltzmannPolicy, QModel, TrainConfig, UniformPolicy,
                           discounted_return, evaluate_policy, rollout, rollouts,
                           train_victims)

import oracles

ENVS = {
    "taxi": lambda: TaxiGridEnv(TaxiConfig(n_agents=8, horizon=6, grid_width=6,
                                           grid_height=6)),
    "vicsek": lambda: VicsekEnv(VicsekConfig(n_agents=8, horizon=6, world_size=8.0,
                                             n_clusters=2)),
    "toy": lambda: ToyMeanFieldEnv(ToyConfig(n_agents=5, horizon=8, seed=3)),
}


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def victim_of(env) -> BoltzmannPolicy:
    """A Boltzmann victim on a random table, so every action has weight."""
    model = QModel(env.n_states, env.n_actions, env.gamma)
    model.table = seed_rng(0, salt="batch-victim").normal(size=model.table.shape)
    return BoltzmannPolicy(model, 0.5)


SERIAL_STEPS = {TaxiGridEnv: oracles.taxi_step, VicsekEnv: oracles.vicsek_step,
                ToyMeanFieldEnv: oracles.toy_step}


def serial_step(env):
    """The reference step: the env's per-snapshot arithmetic from before its batch
    kernel, drawing each step's noise from the episode's generator."""
    step = SERIAL_STEPS[type(env)]
    return lambda snap, actions, rng: step(env, snap, actions, rng)


def assert_matches_serial(env, victim, budgets, cfg, seeds, trained):
    for b, seed, (model, policy, curve) in zip(budgets, seeds, trained):
        want_model, want_curve = oracles.train_adversary_serial(env, victim, b, cfg, seed,
                                                                serial_step(env))
        assert same(model.table, want_model.table)
        assert same(model.visits, want_model.visits)
        assert same(curve, want_curve)
        assert policy.model is model and policy.temperature == cfg.temperature


# -- environments ------------------------------------------------------------------


START_FIELDS = {"states": "initial_states", "pos": "initial_pos", "headings": "initial_headings"}
# an episode's noise as one draw per step from its seed's generator, as the kernels drew it
PER_STEP_NOISE = {
    TaxiGridEnv: lambda env, rng: np.array([rng.poisson(env.demand_rates)
                                            for _ in range(env.horizon)]),
    ToyMeanFieldEnv: lambda env, rng: np.array([rng.random(env.n_agents)
                                                for _ in range(env.horizon)]),
    VicsekEnv: lambda env, rng: None,
}
SEEDS = st.one_of(st.none(), st.integers(0, 2 ** 32),
                  st.tuples(st.integers(0, 99), st.integers(0, 99)),
                  st.tuples(st.integers(0, 99), st.integers(0, 9), st.integers(0, 99)))


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(ENVS)), seed=SEEDS)
def test_reset_is_the_start_built_at_construction(name, seed):
    """Any seed, an int or a tuple, gives the same start; it only seeds the noise,
    which is what one draw per step from the seed's generator gives."""
    env = ENVS[name]()
    snap = env.reset(seed=seed)
    assert snap.t == 0
    for field, start in START_FIELDS.items():
        got, want = getattr(snap, field), getattr(env, start)
        assert (got is None) == (want is None) and (got is None or same(got, want)), field
    want = PER_STEP_NOISE[type(env)](env, seed_rng(env.config.seed if seed is None else seed))
    assert (snap.noise is None) == (want is None) and (want is None or same(snap.noise, want))


@pytest.mark.parametrize("name", sorted(ENVS))
def test_writing_into_a_reset_leaves_the_next_reset_unchanged(name):
    env = ENVS[name]()
    written = env.reset(seed=0)
    want = {field: np.copy(getattr(written, field)) for field in START_FIELDS}
    for field in START_FIELDS:
        if getattr(written, field) is not None:
            getattr(written, field)[...] += 1
    again = env.reset(seed=0)
    for field in START_FIELDS:
        got = getattr(again, field)
        assert got is None or same(got, want[field]), field


def test_vicsek_reset_runs_no_neighbour_pass(monkeypatch):
    """The layout and its neighbour pass run once, when the env is built."""
    env = ENVS["vicsek"]()
    want = [env.reset(seed=s) for s in range(3)]

    def neighbour_pass(*args):
        raise AssertionError("reset ran a neighbour pass")

    monkeypatch.setattr(VicsekEnv, "neighbor_mean_heading", neighbour_pass)
    batch = stack_snapshots([env.reset(seed=s) for s in range(3)])
    for got, w in zip(batch.episodes(), want):
        assert same(got.states, w.states) and same(got.pos, w.pos)
        assert same(got.headings, w.headings)


def test_overwriting_the_toy_start_moves_later_resets():
    env = ENVS["toy"]()
    env.initial_states = np.arange(env.n_agents)[::-1].copy()
    for seed in (0, (1, 2)):
        assert same(env.reset(seed=seed).states, np.arange(env.n_agents)[::-1])


@pytest.mark.parametrize("raw", [{}, dict(n_agents=16, horizon=14, grid_width=10,
                                          grid_height=10, demand_concentration=0.1)])
def test_taxi_step_matches_the_reference(raw):
    env = TaxiGridEnv(TaxiConfig(**raw))
    for ep in range(3):
        got, want, rng = env.reset(seed=(5, ep)), env.reset(seed=(5, ep)), seed_rng((5, ep))
        for t in range(env.horizon):
            actions = seed_rng((6, ep, t)).integers(0, env.n_actions, env.n_agents)
            g, w = env.step(got, actions), oracles.taxi_step(env, want, actions, rng)
            assert same(g.states, w.states) and g.snapshot.pos is None
            assert type(g.reward) is float and g.reward == w.reward
            assert g.snapshot.t == w.snapshot.t
            got, want = g.snapshot, w.snapshot


@settings(max_examples=40, deadline=None)
@given(horizon=st.integers(1, 8), sides=st.tuples(st.sampled_from([2, 4, 6]),
                                                  st.sampled_from([2, 4, 6])),
       agents=st.integers(1, 36), seeds=st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=3),
       demand_rate=st.sampled_from([0.5, 1.0, 12.0]))
def test_taxi_demand_tables_match_the_per_step_reference(horizon, sides, agents, seeds,
                                                         demand_rate):
    """Demand drawn as one table per episode at reset is what per-step draws give,
    over full episodes, alone and in a batch."""
    width, height = sides
    env = TaxiGridEnv(TaxiConfig(n_agents=min(agents, width * height), horizon=horizon,
                                 grid_width=width, grid_height=height,
                                 demand_rate=demand_rate))
    singles, wants = [env.reset(seed=s) for s in seeds], [env.reset(seed=s) for s in seeds]
    rngs = [seed_rng(s) for s in seeds]
    batch = stack_snapshots([env.reset(seed=s) for s in seeds])
    for t in range(horizon):
        actions = seed_rng((7, t)).integers(0, env.n_actions, (len(seeds), env.n_agents))
        res = env.step_batch(batch, actions)
        for b in range(len(seeds)):
            one = env.step(singles[b], actions[b])
            want = oracles.taxi_step(env, wants[b], actions[b], rngs[b])
            for got in (one.snapshot, res.snapshot.episodes()[b]):
                assert same(got.states, want.states) and got.pos is None
                assert got.t == want.snapshot.t == t + 1
            assert one.reward == want.reward == res.reward[b]
            singles[b], wants[b] = one.snapshot, want.snapshot
        batch = res.snapshot


@settings(max_examples=40, deadline=None)
@given(n_agents=st.integers(1, 6), block_states=st.integers(1, 4), n_actions=st.integers(2, 3),
       shared=st.booleans(), deterministic=st.booleans(), n_episodes=st.sampled_from([1, 3, 7]),
       steps=st.integers(10, 14), seed=st.integers(0, 2 ** 16))
def test_toy_steps_match_the_serial_reference(n_agents, block_states, n_actions, shared,
                                              deterministic, n_episodes, steps, seed):
    """step_batch on B toy episodes, and step on each, give toy_step's bytes."""
    env = ToyMeanFieldEnv(ToyConfig(n_agents=n_agents, block_states=block_states,
                                    n_actions=n_actions, shared=shared,
                                    deterministic=deterministic, seed=seed))
    seeds = [(seed, b) for b in range(n_episodes)]
    batch = stack_snapshots([env.reset(seed=s) for s in seeds])
    singles, wants = [env.reset(seed=s) for s in seeds], [env.reset(seed=s) for s in seeds]
    rngs = [seed_rng(s) for s in seeds]
    for t in range(steps):
        actions = seed_rng((seed, 1, t)).integers(0, env.n_actions, (n_episodes, env.n_agents))
        res = env.step_batch(batch, actions)
        assert res.reward.shape == (n_episodes,) and res.snapshot.t == t + 1
        for b, got in enumerate(res.snapshot.episodes()):
            want = oracles.toy_step(env, wants[b], actions[b], rngs[b])
            one = env.step(singles[b], actions[b])
            assert same(got.states, want.states) and same(one.states, want.states)
            assert same(res.reward[b], want.reward) and same(one.reward, want.reward)
            singles[b], wants[b] = one.snapshot, want.snapshot
        batch = res.snapshot


@pytest.mark.parametrize("name", sorted(ENVS))
def test_step_is_step_batch_on_a_batch_of_one(name):
    env = ENVS[name]()
    one, batch = env.reset(seed=7), stack_snapshots([env.reset(seed=7)])
    for t in range(env.horizon):
        actions = seed_rng((10, t)).integers(0, env.n_actions, env.n_agents)
        got, res = env.step(one, actions), env.step_batch(batch, actions[None])
        assert got.states.shape == (env.n_agents,) and type(got.reward) is float
        assert same(got.states, res.states[0]) and got.reward == res.reward[0]
        [want] = res.snapshot.episodes()
        assert got.snapshot.t == want.t == t + 1
        for field in ("states", "noise", "pos", "headings"):
            a, b = getattr(got.snapshot, field), getattr(want, field)
            assert (a is None) == (b is None)
            assert a is None or same(a, b), field
        one, batch = got.snapshot, res.snapshot


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(ENVS)), seed=st.integers(0, 2 ** 16),
       steps=st.integers(1, 6), batched=st.booleans())
def test_stepping_a_snapshot_twice_gives_the_same_bytes(name, seed, steps, batched):
    """A snapshot is a value: the same actions from it give the same next snapshot
    and reward the second time, alone or in a batch."""
    env = ENVS[name]()
    snaps = [env.reset(seed=seed), env.reset(seed=seed + 1)]
    snap, step = (stack_snapshots(snaps), env.step_batch) if batched else (snaps[0], env.step)
    for t in range(steps):
        actions = seed_rng((seed, t)).integers(0, env.n_actions, snap.states.shape)
        first, second = step(snap, actions), step(snap, actions)
        assert same(first.reward, second.reward) and first.snapshot.t == second.snapshot.t
        for field in ("states", "noise", "pos", "headings"):
            a, b = getattr(first.snapshot, field), getattr(second.snapshot, field)
            assert (a is None) == (b is None) and (a is None or same(a, b)), field
        snap = second.snapshot


@pytest.mark.parametrize("name", sorted(ENVS))
def test_a_step_at_the_horizon_is_refused(name):
    """An episode has horizon steps: step and step_batch refuse a step at t = horizon."""
    env = ENVS[name]()
    snap, actions = env.reset(seed=0), np.zeros(env.n_agents, dtype=int)
    for _ in range(env.horizon):
        snap = env.step(snap, actions).snapshot
    assert snap.t == env.horizon
    with pytest.raises(InvalidInputError, match=f"horizon {env.horizon}"):
        env.step(snap, actions)
    with pytest.raises(InvalidInputError, match=f"horizon {env.horizon}"):
        env.step_batch(stack_snapshots([snap, snap]), np.stack([actions, actions]))


@pytest.mark.parametrize("name", sorted(ENVS))
def test_step_batch_equals_single_steps(name):
    env = ENVS[name]()
    seeds = [(2, b) for b in range(3)]
    batch = stack_snapshots([env.reset(seed=s) for s in seeds])
    singles = [env.reset(seed=s) for s in seeds]
    for t in range(env.horizon):
        actions = seed_rng((4, t)).integers(0, env.n_actions, (len(seeds), env.n_agents))
        res = env.step_batch(batch, actions)
        assert res.reward.shape == (len(seeds),) and res.snapshot.t == t + 1
        for b, snap in enumerate(singles):
            one = env.step(snap, actions[b])
            assert same(res.states[b], one.states)
            assert res.reward[b] == one.reward
            for field in ("pos", "headings"):
                want = getattr(one.snapshot, field)
                got = getattr(res.snapshot, field)
                assert (got is None) == (want is None)
                if want is not None:
                    assert same(got[b], want)
            singles[b] = one.snapshot
        batch = res.snapshot


@pytest.mark.parametrize("name", sorted(ENVS))
def test_step_batch_rejects_bad_actions_anywhere_in_the_batch(name):
    env = ENVS[name]()
    batch = stack_snapshots([env.reset(seed=s) for s in range(3)])
    good = np.zeros((3, env.n_agents), dtype=int)
    bad = good.copy()
    bad[2, -1] = env.n_actions
    for actions in (bad, bad - env.n_actions - 1, good[:, 1:], good[:2], good[0]):
        with pytest.raises(InvalidInputError):
            env.step_batch(batch, actions)


@pytest.mark.parametrize("name", sorted(ENVS))
def test_step_and_step_batch_refuse_non_integer_actions(name):
    """Floats such as 0.9 or 4.99 are refused, not truncated to a valid action;
    bools and strings are refused, not cast."""
    env = ENVS[name]()
    snap = env.reset(seed=0)
    batch = stack_snapshots([snap])
    picks = np.arange(env.n_agents) % env.n_actions
    for actions in (picks + 0.9, picks.astype(float), picks % 2 == 1,
                    picks.astype(str), [str(a) for a in picks]):
        with pytest.raises(InvalidInputError, match="actions must be integers"):
            env.step(snap, actions)
        with pytest.raises(InvalidInputError, match="actions must be integers"):
            env.step_batch(batch, np.asarray(actions)[None])
    for dtype in (np.uint8, np.int32, np.int64):
        assert same(env.step(env.reset(seed=0), picks.astype(dtype)).states,
                    env.step(env.reset(seed=0), picks.tolist()).states)


@pytest.mark.parametrize("name", sorted(ENVS))
def test_step_checks_its_actions_once_by_the_episode_shape(name, monkeypatch):
    """env.step refuses a wrong-length action vector naming the (N,) shape, and
    checks good actions once: the kernel does not check the (1, N) copy again."""
    env = ENVS[name]()
    snap = env.reset(seed=0)
    for actions in (np.zeros(env.n_agents + 1, dtype=int), np.zeros((1, env.n_agents), dtype=int)):
        with pytest.raises(InvalidInputError, match=re.escape(
                f"expected actions of shape ({env.n_agents},), got shape {actions.shape}")):
            env.step(snap, actions)
    checked, real = [], MeanFieldEnv._check_actions

    def recording(self, snapshot, actions):
        checked.append(np.shape(actions))
        return real(self, snapshot, actions)

    monkeypatch.setattr(MeanFieldEnv, "_check_actions", recording)
    env.step(snap, np.zeros(env.n_agents, dtype=int))
    assert checked == [(env.n_agents,)]
    env.step_batch(stack_snapshots([snap]), np.zeros((1, env.n_agents), dtype=int))
    assert checked == [(env.n_agents,), (1, env.n_agents)]


# -- evaluation ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ENVS))
def test_evaluate_policy_equals_its_rollouts(name):
    """The clean case; tests/test_attack.py holds the attacked one."""
    env = ENVS[name]()
    victim = victim_of(env)
    got = evaluate_policy(env, victim, 4, seed=(8, 1))
    seeds = np.random.SeedSequence([8, 1]).spawn(4)
    want = [discounted_return(rollout(env, victim, s).rewards, env.gamma) for s in seeds]
    assert same(got, np.array(want))


@pytest.mark.parametrize("name", sorted(ENVS))
def test_rollouts_equal_one_rollout_per_seed(name):
    env = ENVS[name]()
    victim = victim_of(env)
    seeds = np.random.SeedSequence([9, 2]).spawn(4)
    for got, seed in zip(rollouts(env, victim, seeds), seeds):
        want = rollout(env, victim, seed)
        assert len(got.rewards) == len(want.rewards) == env.horizon
        assert same(got.rewards, want.rewards)
        assert same(got.states, want.states) and same(got.actions, want.actions)
        assert same(got.final_states, want.final_states)


def test_rule_policy_steps_a_batch_one_episode_at_a_time():
    env = ENVS["vicsek"]()
    policy = oracles.RulePolicy(env, noise=0.3)
    batch = stack_snapshots([env.reset(seed=s) for s in range(3)])
    dists = policy.action_dists(batch)
    assert dists.shape == (3, env.n_agents, env.n_actions)
    for b, snap in enumerate(batch.episodes()):
        assert same(dists[b], policy.action_dists(snap))
    got = evaluate_policy(env, policy, 3, seed=2)
    seeds = np.random.SeedSequence(2).spawn(3)
    assert same(got, np.array([discounted_return(rollout(env, policy, s).rewards, env.gamma)
                               for s in seeds]))


@pytest.mark.parametrize("episodes", [0, -1])
def test_evaluate_policy_refuses_fewer_than_one_episode(episodes):
    env = ENVS["toy"]()
    with pytest.raises(InvalidInputError, match="episodes must be >= 1"):
        evaluate_policy(env, UniformPolicy(env.n_actions), episodes, seed=0)


def test_an_empty_batch_is_refused():
    env = ENVS["toy"]()
    with pytest.raises(InvalidInputError, match="empty"):
        rollouts(env, UniformPolicy(env.n_actions), [])
    with pytest.raises(InvalidInputError, match="empty"):
        stack_snapshots([])


# -- the lockstep victim trainer -------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(ENVS)),
       st.lists(st.integers(0, 2) | st.integers(0, 2 ** 16), min_size=1, max_size=4),
       st.sampled_from([0.0, 0.05]))
def test_victims_trained_together_equal_the_serial_loop(name, seeds, lr_decay):
    """Each victim of a batch (repeated seeds included) is the serial loop's
    over the reference step, and what its seed trained alone gives."""
    env = ENVS[name]()
    cfg = TrainConfig(episodes=4, lr=0.3, lr_decay=lr_decay, eps_start=0.8, min_margin=None)
    trained = train_victims(env, cfg, seeds)
    assert len(trained) == len(seeds)
    for seed, (model, policy, curve) in zip(seeds, trained):
        want_model, _, want_curve = oracles.train_victim_serial(env, cfg, seed,
                                                                step=serial_step(env))
        [(alone, _, alone_curve)] = train_victims(env, cfg, [seed])
        for table in ("table", "visits"):
            assert same(getattr(model, table), getattr(want_model, table))
            assert same(getattr(model, table), getattr(alone, table))
        assert same(curve, want_curve) and same(curve, alone_curve)
        assert policy.model is model and policy.temperature == cfg.temperature


def relative_margin(env, cfg, seed) -> float:
    """The trained victim's margin over uniform, as the margin check computes it."""
    _, policy, _ = oracles.train_victim_serial(env, replace(cfg, min_margin=None), seed)
    trained = evaluate_policy(env, policy, cfg.eval_episodes, seed=(seed, 1)).mean()
    uniform = evaluate_policy(env, UniformPolicy(env.n_actions), cfg.eval_episodes,
                              seed=(seed, 1)).mean()
    return (trained - uniform) / (abs(uniform) if abs(uniform) > 1e-12 else 1.0)


def test_victim_margin_checks_run_per_seed_in_seed_order():
    env = ENVS["toy"]()
    cfg = TrainConfig(episodes=6, eval_episodes=3)
    margins = {seed: relative_margin(env, cfg, seed) for seed in range(6)}
    low, high = min(margins, key=margins.get), max(margins, key=margins.get)
    assert margins[low] < margins[high]
    cfg = replace(cfg, min_margin=(margins[low] + margins[high]) / 2)
    [(model, _, _)] = train_victims(env, cfg, [high])
    want_model, _, _ = oracles.train_victim_serial(env, cfg, high)
    assert same(model.table, want_model.table)
    with pytest.raises(TrainingFailureError) as want:
        oracles.train_victim_serial(env, cfg, low)
    for seeds in ([low], [high, low, high], [low, high]):
        with pytest.raises(TrainingFailureError, match=f"victim of seed {low} underperforms") \
                as got:
            train_victims(env, cfg, seeds)
        assert got.value.trained_return == want.value.trained_return
        assert got.value.baseline_return == want.value.baseline_return


# -- the batched adversary trainer ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(ENVS))
def test_batched_trainer_equals_the_serial_loop(name):
    env = ENVS[name]()
    victim = victim_of(env)
    budgets = [BudgetVector.from_set(env.n_agents, ids, eps)
               for ids, eps in (([0], 1.0), ([1, 3, 4], 0.6), ([2, 4], 1.0))]
    cfg, seeds = AdversaryConfig(episodes=8, lr=0.3, lr_decay=0.01), [5, 5, 11]
    assert_matches_serial(env, victim, budgets, cfg, seeds,
                          train_adversaries(env, victim, budgets, cfg, seeds))
    model, _, curve = train_adversaries(env, victim, [budgets[1]], cfg, [5])[0]
    want_model, want_curve = oracles.train_adversary_serial(env, victim, budgets[1], cfg, 5,
                                                            serial_step(env))
    assert same(model.table, want_model.table) and same(curve, want_curve)


@pytest.mark.parametrize("name", sorted(ENVS))
def test_an_empty_learner_warns_and_leaves_the_others_unchanged(name):
    env = ENVS[name]()
    victim = victim_of(env)
    budgets = [BudgetVector.from_set(env.n_agents, [1, 2], 1.0),
               BudgetVector.zeros(env.n_agents),
               BudgetVector.from_set(env.n_agents, [0], 0.5)]
    cfg, seeds = AdversaryConfig(episodes=5), [1, 2, 3]
    with pytest.warns(UserWarning, match="empty attack set"):
        trained = train_adversaries(env, victim, budgets, cfg, seeds)
    model, policy, curve = trained[1]
    assert curve.size == 0 and not model.table.any() and not model.visits.any()
    assert np.allclose(policy.action_dists(env.reset(seed=0)), 1.0 / env.n_actions)
    assert_matches_serial(env, victim, budgets, cfg, seeds, trained)
    alone = train_adversaries(env, victim, budgets[::2], cfg, seeds[::2])
    for (m, _, c), (m2, _, c2) in zip(alone, trained[::2]):
        assert same(m.table, m2.table) and same(c, c2)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sets(st.integers(0, 4), max_size=5),
                          st.sampled_from([0.3, 1.0]), st.integers(0, 2 ** 16)),
                min_size=1, max_size=4),
       st.sampled_from(["taxi", "toy"]))
def test_any_batch_equals_its_learners_trained_alone(learners, name):
    env = ENVS[name]()
    victim = victim_of(env)
    budgets = [BudgetVector.from_set(env.n_agents, sorted(ids), eps) for ids, eps, _ in learners]
    cfg, seeds = AdversaryConfig(episodes=3, lr=0.4), [seed for _, _, seed in learners]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trained = train_adversaries(env, victim, budgets, cfg, seeds)
    assert_matches_serial(env, victim, budgets, cfg, seeds, trained)


def test_batch_guards():
    env = ENVS["toy"]()
    victim = victim_of(env)
    one = BudgetVector.from_set(env.n_agents, [0], 1.0)
    cfg = AdversaryConfig(episodes=1)
    with pytest.raises(InvalidInputError, match="length"):
        train_adversaries(env, victim, [one, BudgetVector.from_set(env.n_agents + 1, [0])],
                          cfg, [0, 0])
    with pytest.raises(InvalidInputError, match="2 budget vectors for 1 seeds"):
        train_adversaries(env, victim, [one, one], cfg, [0])
    with pytest.raises(InvalidInputError, match="1 budget vectors for 2 seeds"):
        train_adversaries(env, victim, [one], cfg, [0, 9])
    with pytest.raises(InvalidConfigError):
        train_adversaries(env, victim, [one], AdversaryConfig(episodes=0), [0])
    assert train_adversaries(env, victim, [], cfg, []) == []
    trained = train_adversaries(env, victim, [one, one], cfg, [0, 9])
    assert len(trained) == 2
