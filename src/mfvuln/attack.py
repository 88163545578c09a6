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
victim's parameters are never written; training, like evaluation, checksums
the victim before and after and refuses to return silently if it moved.

Seeds are call arguments, not config fields.  ``train_adversaries`` trains
one learner per (budgets, seed) pair as a batch (one attack set is a batch
of one), on the lockstep kernel that also trains victims (``qlearn``);
``qlearn.evaluate_policy`` scores an attack, and ``attacked_returns`` does
both for a list of attack sets, as one array.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import seed_rng
from .errors import InvalidInputError
from .qlearn import (BoltzmannPolicy, LearnerConfig, QModel, _lockstep, evaluate_policy,
                     policy_checksum)


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
    ``cfg`` but keep their own episode seeds, action stream and Q table.
    A learner spawns its episode seeds as it goes, one per episode from its
    own SeedSequence, so the batch holds O(B) seeds, not O(B * episodes).  A
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
        eps = np.stack([budgets[j].eps for j in active])
        trained = _lockstep(
            env, cfg, [models[j] for j in active],
            [np.random.SeedSequence((seeds[j], 0xad)) for j in active],
            [seed_rng(seeds[j], salt="adversary-actions") for j in active],
            adversary=(victim_policy, eps))
        if policy_checksum(victim_policy) != frozen:
            raise RuntimeError("victim policy changed during adversarial training")
        for j, curve in zip(active, trained):
            curves[j] = curve
    return [(model, BoltzmannPolicy(model, cfg.temperature), curve)
            for model, curve in zip(models, curves)]


def attacked_returns(env, victim_policy, budgets, cfg: AdversaryConfig, seeds,
                     eval_seeds) -> np.ndarray:
    """Victim returns under each budget vector's own adversary, a (B, cfg.eval_episodes)
    array: one ``train_adversaries`` batch, then ``evaluate_policy`` per learner."""
    trained = train_adversaries(env, victim_policy, budgets, cfg, seeds)
    return np.array([evaluate_policy(env, victim_policy, cfg.eval_episodes, s, adv, b)
                     for b, s, (_, adv, _) in zip(budgets, eval_seeds, trained, strict=True)])
