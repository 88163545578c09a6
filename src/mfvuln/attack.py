"""Adversarial policy training against a frozen victim.

After selection fixes who is corrupted, the adversary learns what the
corrupted agents should do: Q-learning on the negated shared reward, with
every attacked agent executing the per-decision mixture
eps_i * adversary + (1 - eps_i) * victim.  One shared adversary model
serves all attacked agents.

The learner is black-box: its update uses only the corrupted agents'
(state, action, reward) stream, bootstrapping on the action
actually executed at the next step (SARSA), so the victim's distributions
enter training only through the environment's realized behaviour.  The
victim's parameters are never written; training and evaluation checksum
the victim before and after and refuse to return silently if it moved.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import BudgetVector, mix_policy_matrix, sample_actions, seed_rng
from .envs.base import stack_snapshots
from .errors import InvalidInputError
from .qlearn import (BoltzmannPolicy, LearnerConfig, QModel, evaluate_policy,
                     exploration_eps, softmax_rows)


def policy_checksum(policy) -> str:
    """Digest of a policy's learnable state; stable across calls when frozen."""
    h = hashlib.sha256()
    h.update(type(policy).__name__.encode())
    model = getattr(policy, "model", None)
    table = model.table if model is not None else getattr(policy, "table", None)
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
    This is the one-learner case of ``train_adversaries``.
    """
    return train_adversaries(env, victim_policy, [budgets], [cfg])[0]


def train_adversaries(env, victim_policy, budgets, cfgs) -> list:
    """Fit B adversaries against one victim in lockstep, one per (budgets, cfg).

    Returns B (model, policy, episode returns) triples, each byte for byte
    what ``train_adversary`` returns for that learner alone.  The learners
    share the schedule (the configs may differ only in ``seed``) and step
    their episodes as one batch, but each keeps its own episode seeds,
    action stream, budgets and Q table.  Learners with an all-zero budget
    vector warn and get an untrained adversary, as in ``train_adversary``.
    """
    if len(budgets) != len(cfgs):
        raise InvalidInputError(f"{len(budgets)} budget vectors for {len(cfgs)} configs")
    for cfg in cfgs:
        cfg.validate()
        if replace(cfg, seed=0) != replace(cfgs[0], seed=0):
            raise InvalidInputError("adversaries trained together must share their "
                                    "schedule; only the seed may differ")
    if any(b.n_agents != env.n_agents for b in budgets):
        raise InvalidInputError("budget vector length does not match the population")
    models = [QModel(env.n_states, env.n_actions, env.gamma) for _ in budgets]
    curves = [np.empty(0) for _ in budgets]
    active = [j for j, b in enumerate(budgets) if np.any(b.eps > 0)]
    if len(active) < len(budgets):
        warnings.warn("empty attack set: returning a no-op adversary", stacklevel=2)
    if active:
        frozen = policy_checksum(victim_policy)
        trained = _sarsa_batch(env, victim_policy, [budgets[j] for j in active],
                               [cfgs[j] for j in active], [models[j] for j in active])
        if policy_checksum(victim_policy) != frozen:
            raise RuntimeError("victim policy changed during adversarial training")
        for j, curve in zip(active, trained):
            curves[j] = curve
    return [(model, BoltzmannPolicy(model, cfg.temperature), curve)
            for model, cfg, curve in zip(models, cfgs, curves)]


def _sarsa_batch(env, victim_policy, budgets, cfgs, models) -> np.ndarray:
    """SARSA for B learners in lockstep; returns their (B, episodes) curves.

    One (B * S, A) table holds learner b's Q(s, a) in row b * S + s, so a
    single masked ``td_update`` serves the batch: learners never share a
    cell, and within a learner the increments keep their order.  Each
    learner's model gets its block of that table as a view.
    """
    cfg, n_learners, n_states = cfgs[0], len(cfgs), env.n_states
    stacked = QModel(n_learners * n_states, env.n_actions, env.gamma)
    for b, model in enumerate(models):
        model.table = stacked.table[b * n_states:(b + 1) * n_states]
        model.visits = stacked.visits[b * n_states:(b + 1) * n_states]
    offset = n_states * np.arange(n_learners)[:, None]
    eps = np.stack([budget.eps for budget in budgets])
    attacked = eps > 0
    episode_seeds = [np.random.SeedSequence((c.seed, 0xad)).spawn(cfg.episodes) for c in cfgs]
    act_rngs = [seed_rng(c.seed, salt="adversary-actions") for c in cfgs]
    curves = np.empty((n_learners, cfg.episodes))

    for ep in range(cfg.episodes):
        batch = stack_snapshots([env.reset(seed=seeds[ep]) for seeds in episode_seeds])
        rows = batch.states + offset
        explore = exploration_eps(cfg, ep)
        ret, disc = np.zeros(n_learners), 1.0
        prev = None
        for t in range(env.horizon):
            victim = victim_policy.action_dists(batch)
            adv = (1 - explore) * softmax_rows(stacked.values(rows) / cfg.temperature) \
                + explore / env.n_actions
            actions = sample_actions(mix_policy_matrix(adv, victim, eps), act_rngs)
            res = env.step_batch(batch, actions)

            if prev is not None:
                p_rows, p_actions, p_reward = prev
                targets = -p_reward[:, None] + env.gamma * stacked.table[rows, actions]
                stacked.td_update(p_rows[attacked], p_actions[attacked],
                                  targets[attacked], cfg.lr, cfg.lr_decay)

            prev = (rows, actions, res.reward)
            ret += disc * (-res.reward)
            disc *= env.gamma
            batch = res.snapshot
            rows = batch.states + offset
        curves[:, ep] = ret
    return curves


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
