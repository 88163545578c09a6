"""Adversarial training and attack evaluation against exact chain oracles.

An attack is played by ``qlearn.rollouts`` and scored by ``qlearn.evaluate_policy``
given the adversary and the budgets; their guards (frozen victim, budget length,
an attack that corrupts no agent) are tested here."""

import tracemalloc

import numpy as np
import pytest

from mfvuln.attack import AdversaryConfig, attacked_returns, train_adversaries
from mfvuln.core import BudgetVector
from mfvuln.envs.toy import ToyConfig, ToyMeanFieldEnv
from mfvuln.errors import InvalidConfigError, InvalidInputError
from mfvuln.qlearn import (BoltzmannPolicy, QModel, TablePolicy, UniformPolicy,
                           discounted_return, evaluate_policy, policy_checksum, rollout,
                           rollouts)
from oracles import exact_attack_return, exact_policy_value, pooled_std
from test_batch import ENVS, same, victim_of

GAMMA = 0.85


def cycle_env():
    """Four agents on a 4-state cycle; the off-policy action self-loops.

    Cooperative action 0 walks the cycle with positive rewards, action 1
    parks the agent on a strictly negative self-loop, so the worst-case
    response is unambiguous in every state and the value-iteration oracle
    in tests/oracles.py has large action gaps.
    """
    cfg = ToyConfig(n_agents=4, block_states=4, n_actions=2, shared=True,
                    deterministic=True, null_action=False, horizon=110,
                    gamma=GAMMA, seed=7)
    env = ToyMeanFieldEnv(cfg)
    env.transitions[:] = 0.0
    for s in range(4):
        env.transitions[s, 0, (s + 1) % 4] = 1.0
        env.transitions[s, 1, s] = 1.0
    env.rewards[:, 0] = [1.0, 0.5, 2.0, 0.0]
    env.rewards[:, 1] = [-1.0, -0.5, -2.0, -0.3]
    env.initial_states = np.arange(4)
    pi = np.zeros((4, 2))
    pi[:, 0] = 1.0
    return env, TablePolicy(pi), pi


# -- checksums -----------------------------------------------------------------


def test_checksum_is_stable_and_tracks_the_table():
    policy = TablePolicy(np.eye(3))
    digest = policy_checksum(policy)
    assert policy_checksum(policy) == digest
    policy.table[0, 1] = 0.5
    assert policy_checksum(policy) != digest


def test_checksum_covers_model_state_and_policy_type():
    model = QModel(3, 2, GAMMA)
    policy = BoltzmannPolicy(model, 0.1)
    digest = policy_checksum(policy)
    model.table[0, 0] += 1.0
    assert policy_checksum(policy) != digest
    # the digest separates policy types even when no learnable state exists
    assert policy_checksum(UniformPolicy(2)) != policy_checksum(TablePolicy(np.ones((1, 2))))


# -- config validation ----------------------------------------------------------


def test_adversary_config_rejects_bad_fields():
    for kwargs in [dict(episodes=0), dict(lr=0.0), dict(temperature=-0.1),
                   dict(eps_start=0.3, eps_final=0.8), dict(eps_fraction=0.0)]:
        with pytest.raises(InvalidConfigError):
            AdversaryConfig(**kwargs).validate()


def test_budget_length_mismatch_is_rejected():
    env, victim, _ = cycle_env()
    bad = BudgetVector.from_set(6, [0], 1.0)
    with pytest.raises(InvalidInputError):
        train_adversaries(env, victim, [bad], AdversaryConfig(episodes=1), [0])
    with pytest.raises(InvalidInputError):
        evaluate_policy(env, victim, 1, 0, UniformPolicy(2), bad)


# -- degenerate attacks ----------------------------------------------------------


def test_an_attack_set_corrupting_no_agent_is_refused_before_training(monkeypatch):
    """An all-zero budget vector once trained nothing and returned an untrained
    adversary with a warning; it is refused before any learner trains."""
    env, victim, _ = cycle_env()
    monkeypatch.setattr("mfvuln.attack._lockstep", lambda *a, **k: pytest.fail("trained"))
    with pytest.raises(InvalidInputError, match="corrupts no agent"):
        train_adversaries(env, victim, [BudgetVector(np.zeros(4))],
                          AdversaryConfig(episodes=5), [0])


def test_an_evaluation_with_half_an_attack_or_no_corruption_is_refused(monkeypatch):
    """Zero budgets, or budgets or an adversary alone, once warned and returned the
    clean baseline, and ``rollout`` and ``rollouts`` played them clean; every entry
    point refuses each before any episode starts."""
    env, victim, _ = cycle_env()
    for name in ("reset", "step_batch"):
        monkeypatch.setattr(env, name, lambda *a, **k: pytest.fail("played"))
    active = BudgetVector.from_set(4, [2], 1.0)
    plays = [lambda **attack: evaluate_policy(env, victim, 3, seed=1, **attack),
             lambda **attack: rollout(env, victim, 1, **attack),
             lambda **attack: rollouts(env, victim, [1, 2], **attack)]
    for play in plays:
        for attack, message in [
                (dict(adversary_policy=UniformPolicy(2), budgets=BudgetVector(np.zeros(4))),
                 "corrupts no agent"),
                (dict(adversary_policy=UniformPolicy(2), budgets=BudgetVector(np.zeros(6))),
                 "does not match the population"),
                (dict(budgets=active), "needs both"),
                (dict(adversary_policy=UniformPolicy(2)), "needs both")]:
            with pytest.raises(InvalidInputError, match=message):
                play(**attack)


def test_a_one_step_episode_is_refused_before_training(monkeypatch):
    """SARSA updates on the next step's action: at horizon 1 the adversary once
    returned an all-zero Q table with no visits, without a word."""
    env = ToyMeanFieldEnv(ToyConfig(n_agents=3, horizon=1, seed=1))
    monkeypatch.setattr("mfvuln.attack._lockstep", lambda *a, **k: pytest.fail("trained"))
    with pytest.raises(InvalidInputError, match="horizon 1 is below 2"):
        train_adversaries(env, UniformPolicy(env.n_actions), [BudgetVector.from_set(3, [0], 1.0)],
                          AdversaryConfig(episodes=50), [0])


def test_attacked_returns_refuses_mismatched_evaluation_seeds_before_training(monkeypatch):
    """Two budget vectors with one evaluation seed once trained the whole batch, then
    raised a bare ValueError from the evaluation's zip."""
    env, victim, _ = cycle_env()
    monkeypatch.setattr("mfvuln.attack._lockstep", lambda *a, **k: pytest.fail("trained"))
    budgets = [BudgetVector.from_set(4, [j], 1.0) for j in (0, 1)]
    with pytest.raises(InvalidInputError, match="1 evaluation seeds for 2 budget vectors"):
        attacked_returns(env, victim, budgets, AdversaryConfig(episodes=5), [0, 1], [7])


@pytest.mark.parametrize("name", sorted(ENVS))
def test_attacked_evaluation_equals_its_rollouts(name):
    env = ENVS[name]()
    victim = victim_of(env)
    attack = dict(adversary_policy=UniformPolicy(env.n_actions),
                  budgets=BudgetVector.from_set(env.n_agents, [0, 2], 0.7))
    got = evaluate_policy(env, victim, 4, seed=(8, 1), **attack)
    seeds = np.random.SeedSequence([8, 1]).spawn(4)
    want = [discounted_return(rollout(env, victim, s, **attack).rewards, env.gamma)
            for s in seeds]
    assert same(got, np.array(want))


# -- exact worst-case agreement ---------------------------------------------------


def test_trained_adversary_reaches_the_exact_worst_case():
    env, victim, pi = cycle_env()
    budgets = BudgetVector.from_set(4, [1, 3], 1.0)
    cfg = AdversaryConfig(episodes=400, lr=0.3, temperature=0.02,
                          eps_final=0.0, eps_fraction=0.5)
    _, adv, curve = train_adversaries(env, victim, [budgets], cfg, [11])[0]
    # the objective is the negated shared return, so the curve should rise
    assert curve[-50:].mean() > curve[:50].mean()

    returns = evaluate_policy(env, victim, 3, seed=5, adversary_policy=adv, budgets=budgets)
    assert returns.shape == (3,)
    want = exact_attack_return(env, pi, [1, 3], 1.0)
    assert returns.mean() == pytest.approx(want, abs=1e-4)
    coop = exact_policy_value(env, pi)[env.initial_states].mean()
    baseline = evaluate_policy(env, victim, 3, seed=5)
    assert baseline.mean() == pytest.approx(coop, abs=1e-5)
    assert returns.mean() < baseline.mean()


def test_attack_return_is_monotone_in_eps():
    env, _, pi = cycle_env()
    returns = [exact_attack_return(env, pi, [0, 1], eps)
               for eps in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b <= a + 1e-9 for a, b in zip(returns, returns[1:]))
    assert returns[-1] < returns[0] - 0.5


def test_adversary_equal_to_victim_changes_nothing():
    cfg = ToyConfig(n_agents=6, block_states=3, n_actions=2, shared=True,
                    deterministic=False, null_action=False, horizon=12,
                    gamma=0.9, seed=2)
    env = ToyMeanFieldEnv(cfg)
    table = np.full((env.n_states, 2), 0.5)
    victim = TablePolicy(table)
    budgets = BudgetVector.from_set(6, [0, 2], 0.6)
    # mixing a policy with itself is the identity, so the attacked rollouts
    # must reproduce the baseline rollouts sample for sample
    returns = evaluate_policy(env, victim, 4, seed=9,
                              adversary_policy=TablePolicy(table.copy()), budgets=budgets)
    assert np.array_equal(returns, evaluate_policy(env, victim, 4, seed=9))


# -- frozen-victim guard ----------------------------------------------------------


class _DriftingPolicy(TablePolicy):
    """Misbehaving fixture: mutates its own table every query."""

    def action_dists(self, snapshot):
        self.table = self.table * 0.999 + 0.001 / self.table.shape[1]
        return super().action_dists(snapshot)


class _DriftingBoltzmann(BoltzmannPolicy):
    """Misbehaving fixture: writes into the table the loops read, not its model's Q."""

    def action_dists(self, snapshot):
        self.table *= 0.999
        self.table += 0.001 / self.table.shape[1]
        return super().action_dists(snapshot)


def _drifting_boltzmann(pi):
    model = QModel(*pi.shape, GAMMA)
    model.table[:] = pi
    return _DriftingBoltzmann(model, 0.1)


def test_victim_mutation_is_detected():
    env, _, pi = cycle_env()
    budgets = BudgetVector.from_set(4, [0], 1.0)
    for drifting in (_DriftingPolicy, _drifting_boltzmann):
        with pytest.raises(RuntimeError, match="victim policy changed"):
            train_adversaries(env, drifting(pi.copy()), [budgets], AdversaryConfig(episodes=2),
                              [0])
        with pytest.raises(RuntimeError, match="victim policy changed"):
            evaluate_policy(env, drifting(pi.copy()), 2, seed=0,
                            adversary_policy=UniformPolicy(2), budgets=budgets)
        with pytest.raises(RuntimeError, match="victim policy changed"):
            evaluate_policy(env, drifting(pi.copy()), 2, seed=0)
        with pytest.raises(RuntimeError, match="victim policy changed"):
            rollouts(env, drifting(pi.copy()), [0, 1])


# -- argument checks and pooled spread ---------------------------------------------


def test_attacked_evaluation_rejects_zero_episodes():
    env, victim, _ = cycle_env()
    with pytest.raises(InvalidInputError):
        evaluate_policy(env, victim, 0, seed=0, adversary_policy=UniformPolicy(2),
                        budgets=BudgetVector(np.zeros(4)))


def test_pooled_std_matches_hand_computation():
    # vars 5/3 and 1/3 with 3 dof each pool to exactly 1
    assert pooled_std([[1, 2, 3, 4], [5, 5, 6, 6]]) == pytest.approx(1.0)
    # singleton groups carry no dof and are dropped
    assert pooled_std([[1, 2, 3, 4], [7]]) == pytest.approx(np.sqrt(5 / 3))
    assert pooled_std([[3], []]) == 0.0


def test_adversary_batch_memory_does_not_grow_with_the_episode_count():
    """200 learners x 100 episodes trace under 3 MB: each learner spawns its
    episode seeds as it goes.  A schedule of 20,000 SeedSequences held for the
    run traced 7.7 MB."""
    env = ToyMeanFieldEnv(ToyConfig(n_agents=4, horizon=4, seed=5))
    budgets = [BudgetVector(0.5 * np.eye(4)[j % 4]) for j in range(200)]
    victim = UniformPolicy(env.n_actions)
    tracemalloc.start()
    try:
        train_adversaries(env, victim, budgets, AdversaryConfig(episodes=100), list(range(200)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000
