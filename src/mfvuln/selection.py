"""Choosing which agents to corrupt.

The attacker picks K agents before the episode starts, one at a time.  Each
pick is scored without touching the environment: the budget-conditioned
value model prices a candidate by the population value drop it induces,

    reward = (1/N) sum_i [ V(s0_i, eps_prev_i, xi_prev) - V(s0_i, eps_next_i, xi_next) ],

where the candidate's own eps jumps to the attack budget and everyone's xi
rises by eps/N.  Summed over a selection episode these rewards telescope to
the total predicted drop of the final attack set.  The start mean field mu0
is still accepted by every selector and not used: V takes no mean field.

Selectors: greedy argmax over the pick reward (each round scores every
candidate in one value-model call), a small Q-learner over pick features,
uniform random, degree centrality on the observation graph, and exhaustive
enumeration against a caller-supplied evaluator (the reference answer on
toys).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import BudgetVector, seed_rng
from .errors import InvalidConfigError, InvalidInputError
from .qlearn import ReplayBuffer, exploration_eps, malformed_artifact, write_atomic

BRUTE_FORCE_CAP = 3000


@dataclass
class AttackSet:
    """A chosen set of agents to corrupt at a common per-agent budget.

    Ids keep selection order (greedy's per-round picks line up with
    pick_rewards); distinctness is still enforced.
    """

    ids: np.ndarray
    eps: float
    method: str
    predicted_drop: Optional[float] = None
    pick_rewards: Optional[np.ndarray] = None

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=int).ravel()
        if np.unique(ids).size != ids.size:
            raise InvalidInputError("attack set has duplicate ids")
        if ids.size and ids.min() < 0:
            raise InvalidInputError("attack set has negative ids")
        if not (0.0 <= self.eps <= 1.0):
            raise InvalidInputError("attack budget must be in [0, 1]")
        object.__setattr__(self, "ids", ids)

    @property
    def k(self) -> int:
        return self.ids.size

    def budgets(self, n_agents: int) -> BudgetVector:
        if self.ids.size and self.ids.max() >= n_agents:
            raise InvalidInputError("attack set id out of range")
        return BudgetVector.from_set(n_agents, self.ids, self.eps)


ATTACKSET_MAGIC = "mfvuln-attackset v1"


def save_attack_set(attack: AttackSet, path, seed=None):
    lines = [ATTACKSET_MAGIC, f"method {attack.method}", f"seed {seed!r}",
             f"eps {attack.eps!r}", "ids " + " ".join(str(i) for i in attack.ids)]
    if attack.predicted_drop is not None:
        lines.append(f"predicted_drop {attack.predicted_drop!r}")
    if attack.pick_rewards is not None:
        lines.append("pick_rewards " + " ".join(repr(float(r))
                                                for r in attack.pick_rewards))
    write_atomic(path, "\n".join(lines) + "\n")


def load_attack_set(path) -> AttackSet:
    with malformed_artifact(path):
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != ATTACKSET_MAGIC:
        raise InvalidInputError(f"not an attack-set record: {path}")
    fields = {}
    for ln in lines[1:]:
        if ln.strip():
            key, _, rest = ln.partition(" ")
            fields[key] = rest
    with malformed_artifact(path):
        ids = np.array([int(x) for x in fields.get("ids", "").split()], dtype=int)
        drop = fields.get("predicted_drop")
        picks = fields.get("pick_rewards")
        return AttackSet(
            ids, float(fields["eps"]), fields["method"],
            predicted_drop=None if drop is None else float(drop),
            pick_rewards=None if picks is None else np.array([float(x) for x in picks.split()]))


def selector_reward(value_model, states0, mu0, budget_prev: BudgetVector,
                    budget_next: BudgetVector) -> float:
    """Predicted population value drop of moving between two budget vectors."""
    if budget_prev.n_agents != budget_next.n_agents:
        raise InvalidInputError("budget vectors differ in length")
    if np.array_equal(budget_prev.eps, budget_next.eps):
        warnings.warn("degenerate selection step: budgets unchanged", stacklevel=2)
        return 0.0
    states0 = np.asarray(states0, dtype=int)
    v_prev = value_model.values(states0, budget_prev.eps, budget_prev.xi)
    v_next = value_model.values(states0, budget_next.eps, budget_next.xi)
    return float((v_prev - v_next).mean())


def predicted_drop(value_model, states0, mu0, budgets: BudgetVector) -> float:
    """Total predicted drop of a budget vector relative to no corruption."""
    zero = BudgetVector.zeros(budgets.n_agents)
    states0 = np.asarray(states0, dtype=int)
    v0 = value_model.values(states0, zero.eps, 0.0)
    v1 = value_model.values(states0, budgets.eps, budgets.xi)
    return float((v0 - v1).mean())


def _check_k(n_agents: int, k: int):
    if not (0 <= k <= n_agents):
        raise InvalidConfigError(f"k must be in [0, {n_agents}], got {k}")


def select_greedy(value_model, states0, mu0, k: int, eps: float = 1.0) -> AttackSet:
    """K greedy rounds, each scoring every candidate in one value_model.values
    call on a (C, N) budget matrix; ties go to the lowest id."""
    states0 = np.asarray(states0, dtype=int)
    n = states0.size
    _check_k(n, k)
    budget = BudgetVector.zeros(n)
    chosen, rewards = [], []
    for _ in range(k):
        if eps == 0:
            warnings.warn("degenerate selection step: budgets unchanged", stacklevel=2)
        cands = np.flatnonzero(budget.eps == 0)
        budgets = np.where(np.eye(n, dtype=bool)[cands], eps, budget.eps)
        v_prev = value_model.values(states0, budget.eps, budget.xi)
        v_next = value_model.values(states0, budgets, budgets.mean(axis=1, keepdims=True))
        cand_rewards = (v_prev - v_next).mean(axis=1)
        # summation order perturbs exact ties by a few ulp; keep them ties
        cutoff = cand_rewards.max() - 1e-9 * max(1.0, abs(cand_rewards.max()))
        pick = int(np.argmax(cand_rewards >= cutoff))
        chosen.append(int(cands[pick]))
        rewards.append(float(cand_rewards[pick]))
        budget = budget.with_agent(chosen[-1], eps)
    return AttackSet(np.array(chosen, dtype=int), eps, "greedy",
                     predicted_drop=float(np.sum(rewards)) if rewards else 0.0,
                     pick_rewards=np.array(rewards))


def select_random(n_agents: int, k: int, seed, eps: float = 1.0) -> AttackSet:
    _check_k(n_agents, k)
    rng = seed_rng(seed, salt="random-selection")
    ids = rng.choice(n_agents, size=k, replace=False)
    return AttackSet(ids, eps, "random")


def select_degree_centrality(env, snapshot, k: int, eps: float = 1.0) -> AttackSet:
    """Top-k agents by observation-graph degree; ties go to the lowest id."""
    _check_k(env.n_agents, k)
    degrees = env.observation_graph(snapshot).sum(axis=1)
    order = np.lexsort((np.arange(degrees.size), -degrees))
    return AttackSet(order[:k], eps, "dc")


def select_bruteforce(evaluator: Callable, n_agents: int, k: int, eps: float = 1.0,
                      cap: int = BRUTE_FORCE_CAP):
    """Exhaustive subset search against a victim-return evaluator.

    Returns the attack set minimizing the evaluator's victim return plus the
    full score table [(subset, return)].  Refuses when C(N, K) exceeds the
    cap; this is the reference selector, not a practical one.
    """
    _check_k(n_agents, k)
    n_subsets = math.comb(n_agents, k)
    if n_subsets > cap:
        raise InvalidConfigError(
            f"brute force over {n_subsets} subsets exceeds cap {cap}")
    table = []
    best_subset, best_return = (), np.inf
    for subset in itertools.combinations(range(n_agents), k):
        ret = float(evaluator(subset))
        table.append((subset, ret))
        if ret < best_return - 1e-15:
            best_subset, best_return = subset, ret
    return AttackSet(np.array(best_subset, dtype=int), eps, "brute"), table


# -- learned selector ------------------------------------------------------------


@dataclass
class SelectorRLConfig:
    episodes: int = 200
    lr: float = 0.05
    gamma: float = 0.95
    eps_start: float = 1.0
    eps_final: float = 0.05
    eps_fraction: float = 0.6
    replay_capacity: int = 2000
    batch_size: int = 32

    def validate(self):
        if self.episodes < 1:
            raise InvalidConfigError("episodes must be >= 1")
        if self.lr <= 0:
            raise InvalidConfigError("lr must be positive")
        if not (0 <= self.eps_final <= self.eps_start <= 1):
            raise InvalidConfigError("exploration schedule out of order")


class SelectorQModel:
    """Linear pick-value model over [one-hot(s0), xi, eps, picks-so-far, bias]."""

    def __init__(self, n_states: int):
        self.n_states = n_states
        self.weights = np.zeros(n_states + 4)

    def features(self, s0: int, xi: float, eps: float, n_selected: int) -> np.ndarray:
        phi = np.zeros(self.weights.size)
        phi[int(s0)] = 1.0
        phi[self.n_states] = xi
        phi[self.n_states + 1] = eps
        phi[self.n_states + 2] = n_selected
        phi[-1] = 1.0
        return phi

    def score(self, phi) -> float:
        return float(np.asarray(phi) @ self.weights)

    def update(self, phi, target: float, lr: float):
        phi = np.asarray(phi)
        self.weights += lr * (target - self.score(phi)) * phi


def select_rl(value_model, states0, mu0, k: int, cfg: SelectorRLConfig, eps: float,
              seed):
    """Q-learning over selection episodes scored by the value model.

    Selection episodes never touch the environment, so training is cheap:
    each step picks an unselected agent eps-greedily, collects the predicted
    drop as reward, and fits the linear pick model with replayed one-step
    backups.  Returns the greedy attack set under the learned model plus the
    per-episode total rewards (the training curve).
    """
    cfg.validate()
    states0 = np.asarray(states0, dtype=int)
    n = states0.size
    _check_k(n, k)
    model = SelectorQModel(value_model.n_states)
    buffer = ReplayBuffer(cfg.replay_capacity)
    rng = seed_rng(seed, salt="selector-rl")
    curve = np.empty(cfg.episodes)
    best_ids, best_total = [], -np.inf

    def candidate_phis(budget, n_selected):
        xi = budget.xi
        return {cand: model.features(states0[cand], xi, eps, n_selected)
                for cand in range(n) if budget.eps[cand] == 0}

    for ep in range(cfg.episodes):
        explore = exploration_eps(cfg, ep)
        budget = BudgetVector.zeros(n)
        total, picks = 0.0, []
        for step in range(k):
            phis = candidate_phis(budget, step)
            cands = sorted(phis)
            if rng.random() < explore:
                pick = cands[rng.integers(len(cands))]
            else:
                scores = np.array([model.score(phis[c]) for c in cands])
                pick = cands[int(np.argmax(scores))]
            nxt_budget = budget.with_agent(pick, eps)
            r = selector_reward(value_model, states0, mu0, budget, nxt_budget)
            total += r
            picks.append(pick)
            if step + 1 < k:
                nxt_phis = list(candidate_phis(nxt_budget, step + 1).values())
            else:
                nxt_phis = []
            buffer.push((phis[pick], r, nxt_phis))
            batch = buffer.sample(min(cfg.batch_size, len(buffer)), rng)
            for phi_b, r_b, nxt_b in batch:
                boot = max((model.score(p) for p in nxt_b), default=0.0)
                model.update(phi_b, r_b + (cfg.gamma * boot if nxt_b else 0.0), cfg.lr)
            budget = nxt_budget
        curve[ep] = total
        if total > best_total:
            best_ids, best_total = picks, total

    # greedy readout under the learned pick model
    budget = BudgetVector.zeros(n)
    chosen = []
    for step in range(k):
        phis = candidate_phis(budget, step)
        cands = sorted(phis)
        scores = np.array([model.score(phis[c]) for c in cands])
        pick = cands[int(np.argmax(scores))]
        chosen.append(pick)
        budget = budget.with_agent(pick, eps)
    readout_total = 0.0
    if k:
        readout_total = predicted_drop(
            value_model, states0, mu0,
            BudgetVector.from_set(n, chosen, eps) if eps > 0 else BudgetVector.zeros(n))
    if k and readout_total < best_total - 1e-9:
        warnings.warn("learned selector has not converged; returning the best "
                      "selection seen during training", stacklevel=2)
        chosen, readout_total = best_ids, best_total
    attack = AttackSet(np.array(chosen, dtype=int), eps, "rl",
                       predicted_drop=readout_total)
    return attack, curve
