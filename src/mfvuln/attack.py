"""Adversarial policy training against a frozen victim.

After selection fixes who is corrupted, the adversary learns what the
corrupted agents should do: Q-learning on the negated shared reward, with
every attacked agent executing the per-decision mixture
eps_i * adversary + (1 - eps_i) * victim.  One shared adversary model
serves all attacked agents.

The learner is black-box: its update uses only the corrupted agents'
(state, mean-field, action, reward) stream, bootstrapping on the action
actually executed at the next step (SARSA), so the victim's distributions
enter training only through the environment's realized behaviour.  The
victim's parameters are never written; training and evaluation checksum
the victim before and after and refuse to return silently if it moved.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (BudgetVector, empirical_mean_field_state, mix_policy_matrix,
                   sample_actions, seed_rng)
from .errors import InvalidInputError
from .qlearn import (BoltzmannPolicy, LearnerConfig, evaluate_policy, exploration_eps,
                     softmax_rows)


def policy_checksum(policy) -> str:
    """Digest of a policy's learnable state; stable across calls when frozen."""
    h = hashlib.sha256()
    h.update(type(policy).__name__.encode())
    model = getattr(policy, "model", None)
    if model is not None:
        for arr in (model.table, model.nu_hat):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    table = getattr(policy, "table", None)
    if table is not None:
        h.update(np.ascontiguousarray(table, dtype=float).tobytes())
    return h.hexdigest()


@dataclass
class AdversaryConfig(LearnerConfig):
    """SARSA schedule of the adversary.

    The default step ``lr`` is small because the learner sees only the
    shared reward of the whole population, whose per-episode noise is far
    larger than the gaps between the attack's actions.  A constant step of
    0.2 lets that noise, and so the adversary's seed, decide which attack is
    learned for a subset; at 0.05 retraining with another seed gives nearly
    the same realized damage.
    """

    lr: float = 0.05


def train_adversary(env, victim_policy, budgets: BudgetVector, cfg: AdversaryConfig):
    """Fit the corruption policy; returns (model, policy, episode returns).

    Episode returns are the adversary's objective (negated shared reward,
    discounted), so the curve should rise as the attack improves.  An
    all-zero budget vector warns and returns an untrained (no-op) adversary:
    with nothing corrupted there is no transition that carries signal.
    """
    cfg.validate()
    if budgets.n_agents != env.n_agents:
        raise InvalidInputError("budget vector length does not match the population")
    attacked = budgets.eps > 0
    model = cfg.q_model(env.n_states, env.n_actions, env.gamma)
    if not attacked.any():
        warnings.warn("empty attack set: returning a no-op adversary", stacklevel=2)
        return model, BoltzmannPolicy(model, cfg.temperature), np.empty(0)
    frozen = policy_checksum(victim_policy)

    episode_seeds = np.random.SeedSequence((cfg.seed, 0xad)).spawn(cfg.episodes)
    act_rng = seed_rng(cfg.seed, salt="adversary-actions")
    curve = np.empty(cfg.episodes)

    for ep in range(cfg.episodes):
        snap = env.reset(seed=episode_seeds[ep])
        mu = empirical_mean_field_state(snap.states, env.n_states).probs
        explore = exploration_eps(cfg, ep)
        ret, disc = 0.0, 1.0
        prev = None
        for t in range(env.horizon):
            victim = victim_policy.action_dists(snap)
            q = model.values(snap.states, mu, model.nu_hat)
            adv = (1 - explore) * softmax_rows(q / cfg.temperature) \
                + explore / env.n_actions
            behavior = mix_policy_matrix(adv, victim, budgets.eps)
            actions = sample_actions(behavior, act_rng)
            res = env.step(snap, actions)

            if prev is not None:
                p_states, p_actions, p_reward, p_mu, p_nu = prev
                q_here = model.values(snap.states, mu, res.nu.probs)
                boot = q_here[np.arange(env.n_agents), actions]
                targets = -p_reward + env.gamma * boot
                model.td_update(p_states[attacked], p_actions[attacked], p_mu,
                                p_nu, targets[attacked], cfg.lr, cfg.lr_decay)

            prev = (snap.states, actions, res.reward, mu, res.nu.probs)
            model.observe_nu(res.nu.probs)
            ret += disc * (-res.reward)
            disc *= env.gamma
            snap, mu = res.snapshot, res.mu.probs
        curve[ep] = ret

    if policy_checksum(victim_policy) != frozen:
        raise RuntimeError("victim policy changed during adversarial training")
    return model, BoltzmannPolicy(model, cfg.temperature), curve


@dataclass
class AttackEvalReport:
    """Victim returns under a fixed attack, with the matching clean baseline."""

    returns: np.ndarray
    baseline_returns: np.ndarray
    budgets: BudgetVector
    victim_checksum: str

    def __post_init__(self):
        if self.returns.size < 1:
            raise InvalidInputError("report needs at least one episode")

    @property
    def episodes(self) -> int:
        return self.returns.size

    @property
    def mean_return(self) -> float:
        return float(self.returns.mean())

    @property
    def std_return(self) -> float:
        return float(self.returns.std(ddof=1)) if self.returns.size > 1 else 0.0

    @property
    def baseline_mean(self) -> float:
        return float(self.baseline_returns.mean())

    @property
    def n_attacked(self) -> int:
        return int(np.count_nonzero(self.budgets.eps))


def evaluate_attack(env, victim_policy, budgets: BudgetVector, episodes: int,
                    seed, adversary_policy=None) -> AttackEvalReport:
    """Discounted victim returns under a fixed attack; victim stays frozen.

    The cooperative baseline is computed with the identical episode seeds
    and zero budgets.  An all-zero budget vector (or a missing adversary)
    is allowed but pointless, so it warns and the attacked returns simply
    repeat the baseline.
    """
    if budgets.n_agents != env.n_agents:
        raise InvalidInputError("budget vector length does not match the population")
    if episodes < 1:
        raise InvalidInputError("episodes must be >= 1")
    before = policy_checksum(victim_policy)
    baseline = evaluate_policy(env, victim_policy, episodes, seed)
    active = bool(np.any(budgets.eps > 0)) and adversary_policy is not None
    if not active:
        warnings.warn("attack evaluation with no active corruption; "
                      "returns equal the clean baseline", stacklevel=2)
        returns = baseline.copy()
    else:
        returns = evaluate_policy(env, victim_policy, episodes, seed,
                                  adversary_policy=adversary_policy, budgets=budgets)
    after = policy_checksum(victim_policy)
    if after != before:
        raise RuntimeError("victim policy changed during attack evaluation")
    return AttackEvalReport(returns=returns, baseline_returns=baseline,
                            budgets=budgets, victim_checksum=after)


def pooled_std(groups) -> float:
    """Classic pooled standard deviation across result groups."""
    groups = [np.asarray(g, dtype=float) for g in groups if len(g) > 1]
    if not groups:
        return 0.0
    num = sum((g.size - 1) * g.var(ddof=1) for g in groups)
    den = sum(g.size - 1 for g in groups)
    return float(np.sqrt(num / den))
