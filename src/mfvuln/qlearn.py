"""Cooperative victim training with shared tabular Q-learning.

A single Q model is shared by the whole population.  It scores Q(s, a):
own state, own action.  The population enters only through the shared
reward and the dynamics, not as an input.  Policies are Boltzmann in Q
(shared across agents, evaluated per agent state), which keeps the
cooperative policy stochastic and black-box queryable as an action
distribution.

Training runs expected-SARSA style updates toward the current Boltzmann
target policy with eps-greedy exploration on top; with a frozen policy the
same update performs plain policy evaluation, which is what the tests pin
against linear-system solutions.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import BudgetVector, mixing_weights, sample_actions, seed_rng
from .envs.base import require_finite, stack_snapshots
from .errors import InvalidConfigError, InvalidInputError, TrainingFailureError

CHECKPOINT_MAGIC = "mfvuln-checkpoint v1"


class QModel:
    """Tabular action-value model Q(s, a): a dense (s, a) table plus visit counts."""

    def __init__(self, n_states: int, n_actions: int, gamma: float):
        if not (0.0 <= gamma < 1.0):
            raise InvalidConfigError("gamma must be in [0, 1)")
        self.n_states = n_states
        self.n_actions = n_actions
        self.gamma = gamma
        self.table = np.zeros((n_states, n_actions))
        self.visits = np.zeros((n_states, n_actions), dtype=np.int64)

    # -- evaluation ---------------------------------------------------------

    def values(self, states) -> np.ndarray:
        """(N, A) matrix of Q values for per-agent states ((B, N, A) for (B, N))."""
        return self.table[np.asarray(states, dtype=int)]

    def value(self, s, a) -> float:
        return float(self.table[int(s), int(a)])

    # -- updates ------------------------------------------------------------

    def td_update(self, states, actions, targets, lr: float, lr_decay: float = 0.0):
        """One semi-gradient step of Q(s, a) toward per-agent targets.

        Increments are summed per cell with ``np.add.at``, each against the
        same old value, so where m agents share a cell (s, a) the effective
        step is m * alpha, and it overshoots the target once m * alpha > 1.
        Averaging per cell is ROADMAP item 4; it changes every fixture.
        """
        idx = (np.asarray(states, dtype=int), np.asarray(actions, dtype=int))
        np.add.at(self.visits, idx, 1)
        alpha = lr / (1.0 + lr_decay * self.visits[idx])
        delta = np.asarray(targets, dtype=float) - self.table[idx]
        np.add.at(self.table, idx, alpha * delta)
        return delta

    # -- persistence ----------------------------------------------------------

    def save(self, path):
        lines = [CHECKPOINT_MAGIC, "kind qmodel", "backend tabular",
                 f"n_states {self.n_states}", f"n_actions {self.n_actions}",
                 f"gamma {self.gamma!r}", f"values {self.table.size}"]
        lines.extend(f"{v:.17g}" for v in self.table.ravel())
        write_atomic(path, "\n".join(lines) + "\n")

    @staticmethod
    def load(path) -> "QModel":
        header, flat = _read_checkpoint(path, expected_kind="qmodel")
        with malformed_artifact(path):
            n_states, n_actions = int(header["n_states"]), int(header["n_actions"])
            # reshape before allocating, so a bad header cannot size the table
            table = flat.reshape(n_states, n_actions)
            model = QModel(n_states, n_actions, float(header["gamma"]))
        model.table = table
        return model


def write_atomic(path, text: str):
    """Write text to path through a temp file beside it and os.replace.

    Each artifact marks its stage as done, so a reader must never find a
    half-written one: path holds either its old contents or the new ones.
    This guards against the process dying mid-write; nothing is fsynced.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@contextlib.contextmanager
def malformed_artifact(path):
    """Re-raise a missing file or a parse, key or shape failure as InvalidInputError."""
    try:
        yield
    except FileNotFoundError as exc:
        raise InvalidInputError(f"missing artifact file: {path}") from exc
    except (KeyError, ValueError, OverflowError) as exc:
        raise InvalidInputError(
            f"malformed artifact {path}: {type(exc).__name__}: {exc}") from exc


def _read_checkpoint(path, expected_kind):
    """Header dict and value block of a checkpoint; InvalidInputError if malformed."""
    with malformed_artifact(path):
        with open(path) as fh:
            lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise InvalidInputError(f"not a checkpoint file: {path}")
    header = {}
    i = 1
    while i < len(lines):
        key, _, value = lines[i].partition(" ")
        i += 1
        if key == "values":
            break
        header[key] = value
    else:
        raise InvalidInputError(f"checkpoint missing values block: {path}")
    if header.get("kind") != expected_kind:
        raise InvalidInputError(
            f"checkpoint kind {header.get('kind')!r}, expected {expected_kind!r}: {path}")
    if "backend" in header and header["backend"] != "tabular":
        raise InvalidInputError(
            f"checkpoint backend {header['backend']!r}, expected 'tabular': {path}")
    with malformed_artifact(path):
        count = int(value)
        flat = np.array([float(x) for x in lines[i:i + count]])
    if flat.size != count:
        raise InvalidInputError(f"checkpoint truncated: {path}")
    return header, flat


# -- policies ----------------------------------------------------------------


def softmax_rows(z) -> np.ndarray:
    """Softmax over the last axis."""
    z = np.asarray(z, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# A policy's action_dists(snapshot) gives (N, A) distributions for one
# episode and (B, N, A) for a batch of B (see envs.base.stack_snapshots).


class BoltzmannPolicy:
    """pi(a | s) proportional to exp(Q(s, a) / temperature)."""

    def __init__(self, model: QModel, temperature: float = 0.1):
        if temperature <= 0:
            raise InvalidInputError("temperature must be positive")
        self.model = model
        self.temperature = temperature

    @property
    def n_actions(self) -> int:
        return self.model.n_actions

    def action_dists(self, snapshot) -> np.ndarray:
        return softmax_rows(self.model.values(snapshot.states) / self.temperature)

    def save(self, path):
        self.model.save(path + ".q")
        write_atomic(path, "\n".join([CHECKPOINT_MAGIC, "kind policy", "type boltzmann",
                                      f"temperature {self.temperature!r}",
                                      "values 0"]) + "\n")

    @staticmethod
    def load(path) -> "BoltzmannPolicy":
        header, _ = _read_checkpoint(path, expected_kind="policy")
        model = QModel.load(path + ".q")
        with malformed_artifact(path):
            return BoltzmannPolicy(model, float(header["temperature"]))


def frozen(policy):
    """``policy`` for a loop that does not change it: a BoltzmannPolicy becomes the
    TablePolicy of softmax_rows(Q / T), read by state index instead of a softmax per
    step (row-wise softmax over the same row values gives the same bits); any other
    policy comes back as it is."""
    if isinstance(policy, BoltzmannPolicy):
        return TablePolicy(softmax_rows(policy.model.table / policy.temperature))
    return policy


class UniformPolicy:
    def __init__(self, n_actions: int):
        self.n_actions = n_actions

    def action_dists(self, snapshot) -> np.ndarray:
        return np.full(snapshot.states.shape + (self.n_actions,), 1.0 / self.n_actions)


class TablePolicy:
    """Fixed per-state action distributions; handy for toys and oracles."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)
        self.n_actions = self.table.shape[1]

    def action_dists(self, snapshot) -> np.ndarray:
        return self.table[np.asarray(snapshot.states, dtype=int)]


# -- trajectories --------------------------------------------------------------


@dataclass
class TrajectoryStep:
    t: int
    states: np.ndarray
    actions: np.ndarray
    reward: float


@dataclass
class Trajectory:
    steps: list
    final_states: np.ndarray

    def discounted_return(self, gamma: float) -> float:
        return discounted_return([st.reward for st in self.steps], gamma)

    @property
    def rewards(self) -> np.ndarray:
        return np.array([st.reward for st in self.steps])


def discounted_return(rewards, gamma: float) -> float:
    """sum_t gamma^t r_t of one episode's rewards, summed in step order."""
    return float(sum(r * gamma ** t for t, r in enumerate(rewards)))


def _play(env, victim_policy, seeds, horizon, adversary_policy, budgets):
    """One episode per seed, stepped together as a batch of B = len(seeds).

    Returns the per-step (states, actions, rewards) with a leading batch
    axis, and the final (B, N) states.  Each episode's environment noise
    and action sampling are seeded from its own seed, separately, so an
    episode replays bit-identically whatever batch it runs in.
    """
    horizon = env.horizon if horizon is None else horizon
    batch = stack_snapshots([env.reset(seed=s) for s in seeds])
    act_rngs = [seed_rng(s, salt="rollout-actions") for s in seeds]
    victim = frozen(victim_policy)
    attacked = budgets is not None and adversary_policy is not None \
        and bool(np.any(budgets.eps > 0))
    if attacked:
        adversary = frozen(adversary_policy)
        e = mixing_weights(budgets.eps, (len(seeds), env.n_agents, env.n_actions))
        keep = 1.0 - e
    steps = []
    for _ in range(horizon):
        dists = victim.action_dists(batch)
        if attacked:
            dists = e * adversary.action_dists(batch) + keep * dists
        actions = sample_actions(dists, act_rngs)
        res = env.step_batch(batch, actions)
        steps.append((batch.states, actions, res.reward))
        batch = res.snapshot
    return steps, batch.states


def rollouts(env, victim_policy, seeds, horizon=None, adversary_policy=None,
             budgets: Optional[BudgetVector] = None) -> list:
    """One episode per seed under the victim policy, optionally corrupted,
    stepped as one batch.

    When budgets are given, each agent's action distribution is the
    per-decision mixture eps_i * adversary + (1 - eps_i) * victim.  Each
    episode's environment noise stream and action sampling stream are seeded
    separately from its own seed, so it replays bit-identically alone or in
    any batch.
    """
    steps, final = _play(env, victim_policy, seeds, horizon, adversary_policy, budgets)
    return [Trajectory([TrajectoryStep(t, states[b], actions[b], float(rewards[b]))
                        for t, (states, actions, rewards) in enumerate(steps)], final[b])
            for b in range(len(seeds))]


def rollout(env, victim_policy, seed, horizon=None, adversary_policy=None,
            budgets: Optional[BudgetVector] = None) -> Trajectory:
    """One episode: ``rollouts`` with a single seed."""
    return rollouts(env, victim_policy, [seed], horizon, adversary_policy, budgets)[0]


def evaluate_policy(env, policy, episodes: int, seed, horizon=None,
                    adversary_policy=None, budgets=None) -> np.ndarray:
    """Discounted returns over independent episodes (one seed per episode),
    stepped as one batch; each equals its own rollout's return."""
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(list(seed) if isinstance(seed, (tuple, list)) else seed)
    steps, _ = _play(env, policy, ss.spawn(episodes), horizon, adversary_policy, budgets)
    rewards = np.array([r for _, _, r in steps]).reshape(len(steps), episodes)
    return np.array([discounted_return(column, env.gamma) for column in rewards.T.tolist()])


# -- victim training -----------------------------------------------------------


@dataclass
class LearnerConfig:
    """Schedule of a tabular Q-learner (the victim or an adversary)."""

    episodes: int = 300
    lr: float = 0.2
    lr_decay: float = 0.0
    temperature: float = 0.1
    eps_start: float = 1.0
    eps_final: float = 0.05
    eps_fraction: float = 0.5     # share of episodes over which exploration decays

    def validate(self):
        if self.episodes < 1:
            raise InvalidConfigError("episodes must be >= 1")
        require_finite(self, "lr", "lr_decay", "temperature")
        if self.lr <= 0 or self.temperature <= 0:
            raise InvalidConfigError("lr and temperature must be positive")
        if self.lr_decay < 0:
            raise InvalidConfigError("lr_decay must be >= 0")
        if not (0 <= self.eps_final <= self.eps_start <= 1):
            raise InvalidConfigError("exploration schedule must satisfy 0 <= final <= start <= 1")
        if not (0 < self.eps_fraction <= 1):
            raise InvalidConfigError("eps_fraction must be in (0, 1]")


@dataclass
class TrainConfig(LearnerConfig):
    eval_episodes: int = 20
    min_margin: Optional[float] = 0.2   # relative improvement over uniform; None skips

    def validate(self):
        super().validate()
        if self.eval_episodes < 1:
            raise InvalidConfigError("eval_episodes must be >= 1")
        if self.min_margin is not None:
            require_finite(self, "min_margin")


def exploration_eps(cfg, episode: int) -> float:
    """Exploration rate of an episode: linear from eps_start to eps_final over
    the first eps_fraction of cfg.episodes, then flat."""
    cut = max(1, int(cfg.episodes * cfg.eps_fraction))
    frac = min(1.0, episode / cut)
    return cfg.eps_start + frac * (cfg.eps_final - cfg.eps_start)


def train_victim(env, cfg: TrainConfig, seed, fixed_policy_table=None):
    """Fit the cooperative Q model and return (model, policy, episode returns).

    ``seed`` drives the episode starts, the action stream and the margin check.

    With fixed_policy_table the loop evaluates that policy instead of
    improving its own (used to pin TD learning against exact solutions).
    Raises TrainingFailureError when the trained policy fails to clear the
    configured margin over a uniform-random baseline.
    """
    cfg.validate()
    model = QModel(env.n_states, env.n_actions, env.gamma)
    fixed = None if fixed_policy_table is None else np.asarray(fixed_policy_table, dtype=float)
    episode_seeds = np.random.SeedSequence(seed).spawn(cfg.episodes)
    act_rng = seed_rng(seed, salt="train-actions")
    curve = np.empty(cfg.episodes)

    for ep in range(cfg.episodes):
        snap = env.reset(seed=episode_seeds[ep])
        explore = exploration_eps(cfg, ep)
        ret, disc = 0.0, 1.0
        for t in range(env.horizon):
            if fixed is not None:
                behavior = fixed[snap.states]
            else:
                q = model.values(snap.states)
                behavior = (1 - explore) * softmax_rows(q / cfg.temperature) \
                    + explore / env.n_actions
            actions = sample_actions(behavior, act_rng)
            res = env.step(snap, actions)
            nxt = res.snapshot
            q2 = model.values(nxt.states)
            if fixed is not None:
                pi2 = fixed[nxt.states]
            else:
                pi2 = softmax_rows(q2 / cfg.temperature)
            targets = res.reward + env.gamma * (pi2 * q2).sum(axis=1)
            model.td_update(snap.states, actions, targets, cfg.lr, cfg.lr_decay)
            ret += disc * res.reward
            disc *= env.gamma
            snap = nxt
        curve[ep] = ret

    policy = BoltzmannPolicy(model, cfg.temperature) if fixed is None else TablePolicy(fixed)
    if cfg.min_margin is not None and fixed is None:
        trained = float(np.mean(evaluate_policy(env, policy, cfg.eval_episodes,
                                                seed=(seed, 1))))
        baseline = float(np.mean(evaluate_policy(env, UniformPolicy(env.n_actions),
                                                 cfg.eval_episodes, seed=(seed, 1))))
        scale = abs(baseline) if abs(baseline) > 1e-12 else 1.0
        if (trained - baseline) / scale < cfg.min_margin:
            raise TrainingFailureError(
                f"victim underperforms: trained {trained:.6f}, uniform {baseline:.6f}",
                trained_return=trained, baseline_return=baseline)
    return model, policy, curve
