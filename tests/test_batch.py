"""Batched episodes and learners equal their one-at-a-time references bit for bit."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfvuln.attack import AdversaryConfig, train_adversaries
from mfvuln.core import BudgetVector, seed_rng
from mfvuln.envs import TaxiGridEnv, ToyMeanFieldEnv, VicsekEnv
from mfvuln.envs.base import Snapshot, stack_snapshots
from mfvuln.envs.taxi import TaxiConfig
from mfvuln.envs.toy import ToyConfig
from mfvuln.envs.vicsek import VicsekConfig
from mfvuln.errors import InvalidConfigError, InvalidInputError
from mfvuln.qlearn import (BoltzmannPolicy, QModel, UniformPolicy, evaluate_policy, rollout,
                           rollouts)

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


def serial_step(env):
    """The reference step: per-snapshot arithmetic on taxi and vicsek, toy's own step."""
    if isinstance(env, TaxiGridEnv):
        return lambda snap, actions: oracles.taxi_step(env, snap, actions)
    if isinstance(env, VicsekEnv):
        return lambda snap, actions: oracles.vicsek_step(env, snap, actions)
    return env.step


def assert_matches_serial(env, victim, budgets, cfg, seeds, trained):
    for b, seed, (model, policy, curve) in zip(budgets, seeds, trained):
        want_model, want_curve = oracles.train_adversary_serial(env, victim, b, cfg, seed,
                                                                serial_step(env))
        assert same(model.table, want_model.table)
        assert same(model.visits, want_model.visits)
        assert same(curve, want_curve)
        assert policy.model is model and policy.temperature == cfg.temperature


# -- environments ------------------------------------------------------------------


@pytest.mark.parametrize("raw", [{}, dict(n_agents=16, horizon=14, grid_width=10,
                                          grid_height=10, demand_concentration=0.1)])
def test_taxi_step_matches_the_reference(raw):
    env = TaxiGridEnv(TaxiConfig(**raw))
    for ep in range(3):
        got, want = env.reset(seed=(5, ep)), env.reset(seed=(5, ep))
        for t in range(env.horizon):
            actions = seed_rng((6, ep, t)).integers(0, env.n_actions, env.n_agents)
            g, w = env.step(got, actions), oracles.taxi_step(env, want, actions)
            assert same(g.states, w.states) and same(g.snapshot.pos, w.snapshot.pos)
            assert type(g.reward) is float and g.reward == w.reward
            assert g.snapshot.t == w.snapshot.t
            got, want = g.snapshot, w.snapshot


@settings(max_examples=40, deadline=None)
@given(horizon=st.integers(1, 8), sides=st.tuples(st.sampled_from([2, 4, 6]),
                                                  st.sampled_from([2, 4, 6])),
       agents=st.integers(1, 36), start=st.integers(0, 10), extra=st.integers(0, 3),
       seeds=st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=3),
       demand_rate=st.sampled_from([0.5, 1.0, 12.0]))
def test_taxi_demand_tables_match_the_per_step_reference(horizon, sides, agents, start, extra,
                                                         seeds, demand_rate):
    """Demand drawn as one table per episode is what per-step draws give.

    Covers a full episode from reset (start 0), a snapshot built by hand at
    t > 0 with no table, and steps past the horizon (extra).  Whenever an
    episode's table is used up, its generator is where the reference's is.
    """
    width, height = sides
    env = TaxiGridEnv(TaxiConfig(n_agents=min(agents, width * height), horizon=horizon,
                                 grid_width=width, grid_height=height,
                                 demand_rate=demand_rate))

    def snapshot(seed):
        if start == 0:
            return env.reset(seed=seed)
        cells = seed_rng((seed, 1)).integers(0, env.n_states, env.n_agents)
        return Snapshot(start, cells, seed_rng(seed), env.cell_xy(cells))

    singles, wants = [snapshot(s) for s in seeds], [snapshot(s) for s in seeds]
    batch = stack_snapshots([snapshot(s) for s in seeds])
    for t in range(start, max(horizon, start + 1) + extra):
        actions = seed_rng((7, t)).integers(0, env.n_actions, (len(seeds), env.n_agents))
        res = env.step_batch(batch, actions)
        for b in range(len(seeds)):
            one = env.step(singles[b], actions[b])
            want = oracles.taxi_step(env, wants[b], actions[b])
            for got in (one.snapshot, res.snapshot.episodes()[b]):
                assert same(got.states, want.states) and same(got.pos, want.snapshot.pos)
                assert got.t == want.snapshot.t == t + 1
                assert len(got.demand) == max(0, horizon - t - 1)
            assert one.reward == want.reward == res.reward[b]
            if len(one.snapshot.demand) == 0:
                for got in (one.snapshot.rng, res.snapshot.rng[b]):
                    assert got.bit_generator.state == want.snapshot.rng.bit_generator.state
            singles[b], wants[b] = one.snapshot, want.snapshot
        batch = res.snapshot
    assert all(len(snap.demand) == 0 for snap in singles)


def test_snapshots_with_and_without_demand_tables_do_not_stack():
    env = ENVS["taxi"]()
    fresh, stepped = env.reset(seed=0), env.reset(seed=1)
    stepped = env.step(stepped, np.zeros(env.n_agents, dtype=int)).snapshot
    assert stepped.demand is not None and fresh.demand is None
    for snaps in ([fresh, stepped], [stepped, fresh]):
        with pytest.raises(InvalidInputError, match="demand"):
            stack_snapshots(snaps)
    assert stack_snapshots([stepped, stepped]).demand.shape == (2,) + stepped.demand.shape


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


# -- evaluation ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ENVS))
def test_evaluate_policy_equals_its_rollouts(name):
    env = ENVS[name]()
    victim = victim_of(env)
    adversary = UniformPolicy(env.n_actions)
    budgets = BudgetVector.from_set(env.n_agents, [0, 2], 0.7)
    for kwargs in ({}, dict(adversary_policy=adversary, budgets=budgets)):
        got = evaluate_policy(env, victim, 4, seed=(8, 1), **kwargs)
        seeds = np.random.SeedSequence([8, 1]).spawn(4)
        want = [rollout(env, victim, s, **kwargs).discounted_return(env.gamma) for s in seeds]
        assert same(got, np.array(want))


@pytest.mark.parametrize("name", sorted(ENVS))
def test_rollouts_equal_one_rollout_per_seed(name):
    env = ENVS[name]()
    victim = victim_of(env)
    seeds = np.random.SeedSequence([9, 2]).spawn(4)
    for got, seed in zip(rollouts(env, victim, seeds), seeds):
        want = rollout(env, victim, seed)
        assert len(got.steps) == len(want.steps) == env.horizon
        for a, b in zip(got.steps, want.steps):
            assert a.t == b.t and a.reward == b.reward
            assert same(a.states, b.states) and same(a.actions, b.actions)
        assert same(got.final_states, want.final_states)


def test_rule_policy_steps_a_batch_one_episode_at_a_time():
    env = ENVS["vicsek"]()
    policy = oracles.RulePolicy(env, noise=0.3)
    batch = stack_snapshots([env.reset(seed=s) for s in range(3)])
    dists = policy.action_dists(batch)
    assert dists.shape == (3, env.n_agents, env.n_actions)
    for b, snap in enumerate(batch.episodes()):
        assert same(dists[b], policy.action_dists(snap))
    got = evaluate_policy(env, policy, 3, seed=2, horizon=4)
    seeds = np.random.SeedSequence(2).spawn(3)
    assert same(got, np.array([rollout(env, policy, s, horizon=4).discounted_return(env.gamma)
                               for s in seeds]))


def test_zero_horizon_evaluation_returns_zeros():
    env = ENVS["toy"]()
    assert same(evaluate_policy(env, UniformPolicy(env.n_actions), 3, seed=0, horizon=0),
                np.zeros(3))


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
