"""Adversarial training and attack evaluation against exact chain oracles."""

import numpy as np
import pytest

from mfvuln.attack import (
    AdversaryConfig,
    evaluate_attack,
    policy_checksum,
    train_adversary,
)
from mfvuln.core import BudgetVector
from mfvuln.envs.toy import ToyConfig, ToyMeanFieldEnv
from mfvuln.errors import InvalidConfigError, InvalidInputError
from mfvuln.qlearn import BoltzmannPolicy, QModel, TablePolicy, UniformPolicy, evaluate_policy
from oracles import pooled_std

GAMMA = 0.85


def cycle_env():
    """Four agents on a 4-state cycle; the off-policy action self-loops.

    Cooperative action 0 walks the cycle with positive rewards, action 1
    parks the agent on a strictly negative self-loop, so the worst-case
    response is unambiguous in every state and the value-iteration oracle
    in the toy env has large action gaps.
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
        train_adversary(env, victim, bad, AdversaryConfig(episodes=1), 0)
    with pytest.raises(InvalidInputError):
        evaluate_attack(env, victim, bad, 1, 0)


# -- degenerate attacks ----------------------------------------------------------


def test_empty_attack_set_warns_and_returns_untrained_model():
    env, victim, _ = cycle_env()
    zeros = BudgetVector(np.zeros(4))
    with pytest.warns(UserWarning, match="empty attack set"):
        model, policy, curve = train_adversary(env, victim, zeros,
                                               AdversaryConfig(episodes=5), 0)
    assert curve.size == 0
    assert np.all(model.table == 0.0)
    rows = policy.action_dists(env.reset(seed=0))
    assert np.allclose(rows, 0.5)


def test_no_op_evaluation_warns_and_repeats_baseline():
    env, victim, _ = cycle_env()
    baseline = evaluate_policy(env, victim, 3, seed=1)
    zeros = BudgetVector(np.zeros(4))
    with pytest.warns(UserWarning, match="no active corruption"):
        returns = evaluate_attack(env, victim, zeros, 3, seed=1,
                                  adversary_policy=UniformPolicy(2))
    assert np.array_equal(returns, baseline)
    active = BudgetVector.from_set(4, [2], 1.0)
    with pytest.warns(UserWarning, match="no active corruption"):
        returns = evaluate_attack(env, victim, active, 3, seed=1)  # no adversary given
    assert np.array_equal(returns, baseline)


# -- exact worst-case agreement ---------------------------------------------------


def test_trained_adversary_reaches_the_exact_worst_case():
    env, victim, pi = cycle_env()
    budgets = BudgetVector.from_set(4, [1, 3], 1.0)
    cfg = AdversaryConfig(episodes=400, lr=0.3, temperature=0.02,
                          eps_final=0.0, eps_fraction=0.5)
    _, adv, curve = train_adversary(env, victim, budgets, cfg, 11)
    # the objective is the negated shared return, so the curve should rise
    assert curve[-50:].mean() > curve[:50].mean()

    returns = evaluate_attack(env, victim, budgets, 3, seed=5, adversary_policy=adv)
    assert returns.shape == (3,)
    want = env.exact_attack_return(pi, [1, 3], 1.0)
    assert returns.mean() == pytest.approx(want, abs=1e-4)
    coop = env.exact_policy_value(pi)[env.initial_states].mean()
    baseline = evaluate_policy(env, victim, 3, seed=5)
    assert baseline.mean() == pytest.approx(coop, abs=1e-5)
    assert returns.mean() < baseline.mean()


def test_attack_return_is_monotone_in_eps():
    env, _, pi = cycle_env()
    returns = [env.exact_attack_return(pi, [0, 1], eps)
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
    returns = evaluate_attack(env, victim, budgets, 4, seed=9,
                              adversary_policy=TablePolicy(table.copy()))
    assert np.array_equal(returns, evaluate_policy(env, victim, 4, seed=9))


# -- frozen-victim guard ----------------------------------------------------------


class _DriftingPolicy(TablePolicy):
    """Misbehaving fixture: mutates its own table every query."""

    def action_dists(self, snapshot):
        self.table = self.table * 0.999 + 0.001 / self.table.shape[1]
        return super().action_dists(snapshot)


def test_victim_mutation_is_detected():
    env, _, pi = cycle_env()
    drifting = _DriftingPolicy(pi.copy())
    budgets = BudgetVector.from_set(4, [0], 1.0)
    with pytest.raises(RuntimeError, match="victim policy changed"):
        train_adversary(env, drifting, budgets, AdversaryConfig(episodes=2), 0)
    drifting = _DriftingPolicy(pi.copy())
    with pytest.raises(RuntimeError, match="victim policy changed"):
        evaluate_attack(env, drifting, budgets, 2, seed=0,
                        adversary_policy=UniformPolicy(2))


# -- argument checks and pooled spread ---------------------------------------------


def test_evaluate_attack_rejects_zero_episodes():
    env, victim, _ = cycle_env()
    with pytest.raises(InvalidInputError):
        evaluate_attack(env, victim, BudgetVector(np.zeros(4)), 0, seed=0)


def test_pooled_std_matches_hand_computation():
    # vars 5/3 and 1/3 with 3 dof each pool to exactly 1
    assert pooled_std([[1, 2, 3, 4], [5, 5, 6, 6]]) == pytest.approx(1.0)
    # singleton groups carry no dof and are dropped
    assert pooled_std([[1, 2, 3, 4], [7]]) == pytest.approx(np.sqrt(5 / 3))
    assert pooled_std([[3], []]) == 0.0
