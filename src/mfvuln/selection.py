"""Choosing which agents to corrupt.

The attacker picks K agents before the episode starts, one at a time.  Each
pick is scored without touching the environment: the budget-conditioned
value model prices a candidate by the population value drop it induces,

    reward = (1/N) sum_i [ V(s0_i, eps_prev_i, xi_prev) - V(s0_i, eps_next_i, xi_next) ],

where the candidate's own eps jumps to the attack budget and everyone's xi
rises by eps/N.  Summed over a selection episode these rewards telescope to
the total predicted drop of the final attack set.

The paper casts these K picks as a selection MDP with dense rewards.  While
V is modular in the attack set (one shared xi, no interaction between
agents), a pick's reward depends on the candidate only through damp(s0), so
the ranking by damp(s0) is that MDP's optimal policy and greedy solves it
exactly.  A non-modular V would need a selector with a per-candidate feature
beyond s0.  The other selectors are baselines: uniform random, degree
centrality on the observation graph, and exhaustive enumeration that hands a
caller-supplied evaluator every subset at once (the reference answer on
toys).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import BudgetVector, seed_rng
from .errors import InvalidConfigError, InvalidInputError
from .qlearn import malformed_artifact, read_record, write_record

BRUTE_FORCE_CAP = 3000


@dataclass(frozen=True)
class AttackSet:
    """A chosen set of agents to corrupt at a common per-agent budget.

    Ids keep selection order (greedy's per-round picks line up with
    pick_rewards); distinctness is still enforced, and eps is in (0, 1].
    """

    ids: np.ndarray
    eps: float
    method: str
    predicted_drop: Optional[float] = None
    pick_rewards: Optional[np.ndarray] = None

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=int).ravel()
        # a set, not np.unique: np.unique without counts imports numpy.ma (1.5 MB RSS)
        if len(set(ids.tolist())) != ids.size:
            raise InvalidInputError("attack set has duplicate ids")
        if ids.size and ids.min() < 0:
            raise InvalidInputError("attack set has negative ids")
        if not (0.0 < self.eps <= 1.0):
            raise InvalidInputError(f"attack budget must be in (0, 1], got {self.eps!r}")
        object.__setattr__(self, "ids", ids)

    @property
    def k(self) -> int:
        return self.ids.size

    def budgets(self, n_agents: int) -> BudgetVector:
        if self.ids.size and self.ids.max() >= n_agents:
            raise InvalidInputError("attack set id out of range")
        return BudgetVector.from_set(n_agents, self.ids, self.eps)


ATTACKSET_MAGIC = "mfvuln-attackset v1"


def save_attack_set(attack: AttackSet, path):
    header = {"method": attack.method, "eps": repr(attack.eps),
              "ids": " ".join(str(i) for i in attack.ids)}
    if attack.predicted_drop is not None:
        header["predicted_drop"] = repr(attack.predicted_drop)
    if attack.pick_rewards is not None:
        header["pick_rewards"] = " ".join(repr(float(r)) for r in attack.pick_rewards)
    write_record(path, ATTACKSET_MAGIC, header)


def load_attack_set(path) -> AttackSet:
    fields = read_record(path, ATTACKSET_MAGIC)
    drop, picks = fields.get("predicted_drop"), fields.get("pick_rewards")
    if fields.get("method") == "greedy" and None in (drop, picks):
        raise InvalidInputError(f"greedy attack-set record lacks a score line: {path}")
    with malformed_artifact(path):
        attack = AttackSet(
            np.array([int(x) for x in fields["ids"].split()], dtype=int),
            float(fields["eps"]), fields["method"],
            predicted_drop=None if drop is None else float(drop),
            pick_rewards=None if picks is None else np.array([float(x) for x in picks.split()]))
    scores = np.append([] if drop is None else attack.predicted_drop,
                       [] if picks is None else attack.pick_rewards)
    if not np.isfinite(scores).all():
        raise InvalidInputError(f"attack-set record holds a score that is not finite: {path}")
    return attack


def predicted_drop(value_model, states0, budgets: BudgetVector) -> float:
    """Total predicted drop of a budget vector relative to no corruption."""
    zero = BudgetVector.zeros(budgets.n_agents)
    states0 = np.asarray(states0, dtype=int)
    v0 = value_model.values(states0, zero.eps, 0.0)
    v1 = value_model.values(states0, budgets.eps, budgets.xi)
    return float((v0 - v1).mean())


def select_greedy(value_model, states0, mu0, k: int, eps: float = 1.0) -> AttackSet:
    """The k greedy picks: the stable ranking by -damp(s0), ties to the lowest id.

    With V(s, eps, xi) = base(s) - (eps + xi + eps*xi) * damp(s) and one
    shared xi, corrupting one more agent c raises every xi by eps/N, so its
    pick reward is a term common to all candidates plus
    eps * (1 + xi_next) * damp(s0_c) / N.  Each greedy round therefore takes
    the largest remaining damp(s0), whatever was picked before.  The pick
    rewards are the drops between the k + 1 nested budget vectors of that
    ranking, priced in one value-model call, so they telescope to the
    predicted drop.  mu0 is accepted and not used.
    """
    states0 = np.asarray(states0, dtype=int)
    n = states0.size
    check_k(n, k)
    ids = np.argsort(-value_model.damp[states0], kind="stable")[:k]
    nested = np.zeros((k + 1, n))
    nested[:, ids] = np.where(np.tri(k + 1, k, -1, dtype=bool), eps, 0.0)
    values = value_model.values(states0, nested, nested.mean(axis=1, keepdims=True))
    rewards = (values[:-1] - values[1:]).mean(axis=1)
    return AttackSet(ids, eps, "greedy", predicted_drop=float(np.sum(rewards)),
                     pick_rewards=rewards)


def select_random(n_agents: int, k: int, seed, eps: float = 1.0) -> AttackSet:
    check_k(n_agents, k)
    rng = seed_rng(seed, salt="random-selection")
    ids = rng.choice(n_agents, size=k, replace=False)
    return AttackSet(ids, eps, "random")


def select_degree_centrality(env, snapshot, k: int, eps: float = 1.0) -> AttackSet:
    """Top-k agents by observation-graph degree; ties go to the lowest id."""
    check_k(env.n_agents, k)
    degrees = env.observation_graph(snapshot).sum(axis=1)
    order = np.lexsort((np.arange(degrees.size), -degrees))
    return AttackSet(order[:k], eps, "dc")


def check_k(n_agents: int, k: int):
    """InvalidConfigError unless an attack of k agents corrupts someone and fits the
    population: 1 <= k <= n_agents.  The config parser and every selector call it."""
    if k < 1:
        raise InvalidConfigError("k must be >= 1")
    if k > n_agents:
        raise InvalidConfigError(f"selection k={k} exceeds population size {n_agents}")


def check_brute_force(n_agents: int, k: int):
    """InvalidConfigError when the C(N, K) subsets exceed BRUTE_FORCE_CAP."""
    n_subsets = math.comb(n_agents, k)
    if n_subsets > BRUTE_FORCE_CAP:
        raise InvalidConfigError(
            f"brute force over {n_subsets} subsets exceeds cap {BRUTE_FORCE_CAP}")


def select_bruteforce(evaluator: Callable, n_agents: int, k: int, eps: float = 1.0):
    """Exhaustive subset search against a victim-return evaluator.

    ``evaluator`` gets the list of all C(N, K) subsets in one call, in
    ``itertools.combinations`` order, and returns one victim return per
    subset, so it can score them as one batch.  Returns the attack set
    minimizing the victim return plus the full score table [(subset, return)].
    Refuses when C(N, K) exceeds BRUTE_FORCE_CAP, which thus also bounds the
    evaluator's batch; this is the reference selector, not a practical one.
    """
    check_k(n_agents, k)
    check_brute_force(n_agents, k)
    subsets = list(itertools.combinations(range(n_agents), k))
    table = [(subset, float(ret)) for subset, ret in zip(subsets, evaluator(subsets),
                                                          strict=True)]
    best_subset, best_return = (), np.inf
    for subset, ret in table:
        if ret < best_return - 1e-15:
            best_subset, best_return = subset, ret
    return AttackSet(np.array(best_subset, dtype=int), eps, "brute"), table
