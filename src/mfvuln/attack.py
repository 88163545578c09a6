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

Seeds are call arguments, not config fields.  ``train_adversaries`` trains
one learner per (budgets, seed) pair as a batch (one attack set is a batch
of one), ``evaluate_attack`` returns attacked returns as an array, and
``attacked_returns`` does both for a list of attack sets.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np

from .core import BudgetVector, mixing_weights, sample_actions, seed_rng
from .envs.base import stack_snapshots
from .errors import InvalidInputError
from .qlearn import (BoltzmannPolicy, LearnerConfig, QModel, evaluate_policy,
                     exploration_eps, frozen, softmax_rows)


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


def train_adversaries(env, victim_policy, budgets, cfg: AdversaryConfig, seeds) -> list:
    """Fit B adversaries against one victim in lockstep, one per (budgets, seed).

    Returns B (model, policy, episode returns) triples, each byte for byte
    what a batch of that learner alone returns: learners share the schedule
    ``cfg`` but keep their own episode seeds, action stream and Q table.  A
    curve is the adversary's objective (negated shared reward, discounted),
    so it should rise.  An all-zero budget vector warns and gets an
    untrained (no-op) adversary: no transition of it carries signal.
    """
    if len(budgets) != len(seeds):
        raise InvalidInputError(f"{len(budgets)} budget vectors for {len(seeds)} seeds")
    cfg.validate()
    if any(b.n_agents != env.n_agents for b in budgets):
        raise InvalidInputError("budget vector length does not match the population")
    models = [QModel(env.n_states, env.n_actions, env.gamma) for _ in budgets]
    curves = [np.empty(0) for _ in budgets]
    active = [j for j, b in enumerate(budgets) if np.any(b.eps > 0)]
    if len(active) < len(budgets):
        warnings.warn("empty attack set: returning a no-op adversary", stacklevel=2)
    if active:
        frozen = policy_checksum(victim_policy)
        trained = _sarsa_batch(env, victim_policy, [budgets[j] for j in active], cfg,
                               [seeds[j] for j in active], [models[j] for j in active])
        if policy_checksum(victim_policy) != frozen:
            raise RuntimeError("victim policy changed during adversarial training")
        for j, curve in zip(active, trained):
            curves[j] = curve
    return [(model, BoltzmannPolicy(model, cfg.temperature), curve)
            for model, curve in zip(models, curves)]


def _sarsa_batch(env, victim_policy, budgets, cfg, seeds, models) -> np.ndarray:
    """SARSA for B learners in lockstep; returns their (B, episodes) curves.

    One (B * S, A) table holds learner b's Q(s, a) in row b * S + s, so a
    single masked ``td_update`` serves the batch: learners never share a
    cell, and within a learner the increments keep their order.  Each
    learner's model gets its block of that table as a view.
    """
    n_learners, n_states = len(seeds), env.n_states
    stacked = QModel(n_learners * n_states, env.n_actions, env.gamma)
    for b, model in enumerate(models):
        model.table = stacked.table[b * n_states:(b + 1) * n_states]
        model.visits = stacked.visits[b * n_states:(b + 1) * n_states]
    offset = n_states * np.arange(n_learners)[:, None]
    eps = np.stack([budget.eps for budget in budgets])
    attacked = eps > 0
    e = mixing_weights(eps, (n_learners, env.n_agents, env.n_actions))
    keep = 1.0 - e
    victim = frozen(victim_policy)
    episode_seeds = [np.random.SeedSequence((seed, 0xad)).spawn(cfg.episodes) for seed in seeds]
    act_rngs = [seed_rng(seed, salt="adversary-actions") for seed in seeds]
    curves = np.empty((n_learners, cfg.episodes))

    for ep in range(cfg.episodes):
        batch = stack_snapshots([env.reset(seed=seeds[ep]) for seeds in episode_seeds])
        rows = batch.states + offset
        explore = exploration_eps(cfg, ep)
        ret, disc = np.zeros(n_learners), 1.0
        prev = None
        for t in range(env.horizon):
            adv = (1 - explore) * softmax_rows(stacked.values(rows) / cfg.temperature) \
                + explore / env.n_actions
            actions = sample_actions(e * adv + keep * victim.action_dists(batch), act_rngs)
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


def evaluate_attack(env, victim_policy, budgets: BudgetVector, episodes: int,
                    seed, adversary_policy=None) -> np.ndarray:
    """Discounted victim returns under a fixed attack, one per episode; the
    victim stays frozen.

    The episodes are those of ``evaluate_policy(env, victim_policy,
    episodes, seed)``, so that call gives the matching clean baseline.  An
    all-zero budget vector (or a missing adversary) is allowed but
    pointless, so it warns and the returns are the clean ones.
    """
    if budgets.n_agents != env.n_agents:
        raise InvalidInputError("budget vector length does not match the population")
    if episodes < 1:
        raise InvalidInputError("episodes must be >= 1")
    before = policy_checksum(victim_policy)
    if not (np.any(budgets.eps > 0) and adversary_policy is not None):
        warnings.warn("attack evaluation with no active corruption; "
                      "returns equal the clean baseline", stacklevel=2)
    returns = evaluate_policy(env, victim_policy, episodes, seed,
                              adversary_policy=adversary_policy, budgets=budgets)
    if policy_checksum(victim_policy) != before:
        raise RuntimeError("victim policy changed during attack evaluation")
    return returns


def attacked_returns(env, victim_policy, budgets, cfg: AdversaryConfig, seeds, episodes: int,
                     eval_seeds) -> list:
    """Victim returns under each budget vector's own adversary: one
    ``train_adversaries`` batch, then ``evaluate_attack`` per learner."""
    trained = train_adversaries(env, victim_policy, budgets, cfg, seeds)
    return [evaluate_attack(env, victim_policy, b, episodes, seed=s, adversary_policy=adv)
            for b, s, (_, adv, _) in zip(budgets, eval_seeds, trained, strict=True)]
