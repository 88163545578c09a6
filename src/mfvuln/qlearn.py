"""Cooperative victim training with mean-field Q-learning.

A single Q model is shared by the whole population.  It scores
Q(s, a, mu, nu): own state, own action, empirical state distribution,
empirical action distribution.  Policies are Boltzmann in Q (shared across
agents, evaluated per agent state), which keeps the cooperative policy
stochastic and black-box queryable as an action distribution.

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

from .core import (BudgetVector, empirical_mean_field_action, empirical_mean_field_state,
                   mix_policy_matrix, sample_actions, seed_rng)
from .errors import InvalidConfigError, InvalidInputError, TrainingFailureError

CHECKPOINT_MAGIC = "mfvuln-checkpoint v1"


class MeanFieldBinner:
    """Quantizes a mean-field vector to one of n_bins discrete codes.

    Each entry is cut into `levels` bands, then the band pattern is folded
    into n_bins buckets with a fixed polynomial hash (stable across runs).
    n_bins == 1 turns conditioning off.
    """

    def __init__(self, n_bins: int = 1, levels: int = 4):
        if n_bins < 1 or levels < 1:
            raise InvalidConfigError("binner needs n_bins >= 1 and levels >= 1")
        self.n_bins = n_bins
        self.levels = levels

    def bin(self, probs) -> int:
        if self.n_bins == 1:
            return 0
        q = np.minimum((np.asarray(probs) * self.levels).astype(np.int64), self.levels - 1)
        h = 0
        for v in q.tolist():
            h = (h * 131 + v) % self.n_bins
        return int(h)


class QModel:
    """Tabular action-value model Q(s, a, mu, nu).

    A dense table over (s, a, mu_bin, nu_bin) plus visit counts.  The model
    also keeps a running estimate of the cooperative mean-field action
    (nu_hat), used when a policy needs Q values before any actions have been
    taken this step.
    """

    def __init__(self, n_states: int, n_actions: int, gamma: float,
                 mu_binner: Optional[MeanFieldBinner] = None,
                 nu_binner: Optional[MeanFieldBinner] = None):
        if not (0.0 <= gamma < 1.0):
            raise InvalidConfigError("gamma must be in [0, 1)")
        self.n_states = n_states
        self.n_actions = n_actions
        self.gamma = gamma
        self.mu_binner = mu_binner or MeanFieldBinner()
        self.nu_binner = nu_binner or MeanFieldBinner()
        self.nu_hat = np.full(n_actions, 1.0 / n_actions)
        shape = (n_states, n_actions, self.mu_binner.n_bins, self.nu_binner.n_bins)
        self.table = np.zeros(shape)
        self.visits = np.zeros(shape, dtype=np.int64)

    # -- evaluation ---------------------------------------------------------

    def values(self, states, mu, nu) -> np.ndarray:
        """(N, A) matrix of Q values for per-agent states under shared mu/nu."""
        states = np.asarray(states, dtype=int)
        return self.table[states, :, self.mu_binner.bin(mu), self.nu_binner.bin(nu)]

    def value(self, s, a, mu, nu) -> float:
        return float(self.values(np.array([s]), mu, nu)[0, int(a)])

    # -- updates ------------------------------------------------------------

    def td_update(self, states, actions, mu, nu, targets, lr: float, lr_decay: float = 0.0):
        """One semi-gradient step of Q(s, a, mu, nu) toward per-agent targets."""
        states = np.asarray(states, dtype=int)
        actions = np.asarray(actions, dtype=int)
        targets = np.asarray(targets, dtype=float)
        mb = self.mu_binner.bin(mu)
        nb = self.nu_binner.bin(nu)
        idx = (states, actions, np.full_like(states, mb), np.full_like(states, nb))
        np.add.at(self.visits, idx, 1)
        alpha = lr / (1.0 + lr_decay * self.visits[idx])
        delta = targets - self.table[idx]
        np.add.at(self.table, idx, alpha * delta)
        return delta

    def observe_nu(self, nu, rate: float = 0.05):
        self.nu_hat = (1.0 - rate) * self.nu_hat + rate * np.asarray(nu, dtype=float)

    # -- persistence ----------------------------------------------------------

    def save(self, path):
        lines = [CHECKPOINT_MAGIC, "kind qmodel", "backend tabular",
                 f"n_states {self.n_states}", f"n_actions {self.n_actions}",
                 f"gamma {self.gamma!r}",
                 f"mu_bins {self.mu_binner.n_bins}", f"mu_levels {self.mu_binner.levels}",
                 f"nu_bins {self.nu_binner.n_bins}", f"nu_levels {self.nu_binner.levels}",
                 "nu_hat " + " ".join(f"{v:.17g}" for v in self.nu_hat),
                 f"values {self.table.size}"]
        lines.extend(f"{v:.17g}" for v in self.table.ravel())
        write_atomic(path, "\n".join(lines) + "\n")

    @staticmethod
    def load(path) -> "QModel":
        header, flat = _read_checkpoint(path, expected_kind="qmodel")
        with malformed_artifact(path):
            mu_binner = MeanFieldBinner(int(header["mu_bins"]), int(header["mu_levels"]))
            nu_binner = MeanFieldBinner(int(header["nu_bins"]), int(header["nu_levels"]))
            n_states, n_actions = int(header["n_states"]), int(header["n_actions"])
            # reshape before allocating, so a bad header cannot size the table
            table = flat.reshape(n_states, n_actions, mu_binner.n_bins, nu_binner.n_bins)
            nu_hat = np.array([float(x) for x in header["nu_hat"].split()])
            if nu_hat.shape != (n_actions,):
                raise InvalidInputError(f"nu_hat has {nu_hat.size} entries")
            model = QModel(n_states, n_actions, float(header["gamma"]),
                           mu_binner=mu_binner, nu_binner=nu_binner)
        model.table, model.nu_hat = table, nu_hat
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
    z = np.asarray(z, dtype=float)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class BoltzmannPolicy:
    """pi(a | s) proportional to exp(Q(s, a, mu, nu_hat) / temperature)."""

    def __init__(self, model: QModel, temperature: float = 0.1):
        if temperature <= 0:
            raise InvalidInputError("temperature must be positive")
        self.model = model
        self.temperature = temperature

    @property
    def n_actions(self) -> int:
        return self.model.n_actions

    def action_dists(self, snapshot) -> np.ndarray:
        mu = empirical_mean_field_state(snapshot.states, self.model.n_states).probs
        q = self.model.values(snapshot.states, mu, self.model.nu_hat)
        return softmax_rows(q / self.temperature)

    def dist_for_states(self, states, mu) -> np.ndarray:
        q = self.model.values(np.asarray(states, dtype=int), mu, self.model.nu_hat)
        return softmax_rows(q / self.temperature)

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


class UniformPolicy:
    def __init__(self, n_actions: int):
        self.n_actions = n_actions

    def action_dists(self, snapshot) -> np.ndarray:
        return np.full((snapshot.n_agents, self.n_actions), 1.0 / self.n_actions)


class TablePolicy:
    """Fixed per-state action distributions; handy for toys and oracles."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)
        self.n_actions = self.table.shape[1]

    def action_dists(self, snapshot) -> np.ndarray:
        return self.table[np.asarray(snapshot.states, dtype=int)]


class RulePolicy:
    """Wraps an environment's built-in behaviour rule (Vicsek alignment)."""

    def __init__(self, env, noise=None):
        self.env = env
        self.noise = noise
        self.n_actions = env.n_actions

    def action_dists(self, snapshot) -> np.ndarray:
        return self.env.rule_action_dists(snapshot, noise=self.noise)


# -- trajectories --------------------------------------------------------------


@dataclass
class TrajectoryStep:
    t: int
    states: np.ndarray
    actions: np.ndarray
    reward: float
    mu: np.ndarray
    nu: np.ndarray


@dataclass
class Trajectory:
    steps: list
    final_states: np.ndarray
    final_mu: np.ndarray

    def discounted_return(self, gamma: float) -> float:
        return float(sum(st.reward * gamma ** st.t for st in self.steps))

    @property
    def rewards(self) -> np.ndarray:
        return np.array([st.reward for st in self.steps])


class ReplayBuffer:
    """Fixed-capacity FIFO of arbitrary transition records."""

    def __init__(self, capacity: int = 20_000):
        if capacity < 1:
            raise InvalidConfigError("capacity must be >= 1")
        self.capacity = capacity
        self._data = []
        self._head = 0

    def __len__(self):
        return len(self._data)

    def push(self, item):
        if len(self._data) < self.capacity:
            self._data.append(item)
        else:
            self._data[self._head] = item
            self._head = (self._head + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator):
        idx = rng.integers(len(self._data), size=batch_size)
        return [self._data[i] for i in idx]


def rollout(env, victim_policy, seed, horizon=None, adversary_policy=None,
            budgets: Optional[BudgetVector] = None) -> Trajectory:
    """One episode under the victim policy, optionally corrupted.

    When budgets are given, each agent's action distribution is the
    per-decision mixture eps_i * adversary + (1 - eps_i) * victim.  The
    environment noise stream and the action sampling stream are seeded
    separately, so the same seed replays bit-identically.
    """
    horizon = env.horizon if horizon is None else horizon
    snap = env.reset(seed=seed)
    mu = empirical_mean_field_state(snap.states, env.n_states).probs
    act_rng = seed_rng(seed, salt="rollout-actions")
    steps = []
    for t in range(horizon):
        dists = victim_policy.action_dists(snap)
        if budgets is not None and adversary_policy is not None and np.any(budgets.eps > 0):
            adv = adversary_policy.action_dists(snap)
            dists = mix_policy_matrix(adv, dists, budgets.eps)
        actions = sample_actions(dists, act_rng)
        res = env.step(snap, actions)
        steps.append(TrajectoryStep(t, snap.states.copy(), actions, res.reward,
                                    mu, res.nu.probs))
        snap, mu = res.snapshot, res.mu.probs
    return Trajectory(steps, snap.states.copy(), mu)


def evaluate_policy(env, policy, episodes: int, seed, horizon=None,
                    adversary_policy=None, budgets=None) -> np.ndarray:
    """Discounted returns over independent episodes (one seed per episode)."""
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(list(seed) if isinstance(seed, (tuple, list)) else seed)
    seeds = ss.spawn(episodes)
    out = np.empty(episodes)
    for i, s in enumerate(seeds):
        traj = rollout(env, policy, s, horizon=horizon,
                       adversary_policy=adversary_policy, budgets=budgets)
        out[i] = traj.discounted_return(env.gamma)
    return out


# -- victim training -----------------------------------------------------------


@dataclass
class BinningConfig:
    """Mean-field binning of a tabular QModel."""

    mu_bins: int = 1
    nu_bins: int = 1
    bin_levels: int = 4

    def q_model(self, n_states: int, n_actions: int, gamma: float) -> QModel:
        """An untrained QModel with this binning."""
        return QModel(n_states, n_actions, gamma,
                      mu_binner=MeanFieldBinner(self.mu_bins, self.bin_levels),
                      nu_binner=MeanFieldBinner(self.nu_bins, self.bin_levels))


@dataclass
class LearnerConfig(BinningConfig):
    """Schedule of a tabular mean-field Q-learner (the victim or an adversary)."""

    episodes: int = 300
    lr: float = 0.2
    lr_decay: float = 0.0
    temperature: float = 0.1
    eps_start: float = 1.0
    eps_final: float = 0.05
    eps_fraction: float = 0.5     # share of episodes over which exploration decays
    seed: int = 0

    def validate(self):
        if self.episodes < 1:
            raise InvalidConfigError("episodes must be >= 1")
        if self.lr <= 0 or self.temperature <= 0:
            raise InvalidConfigError("lr and temperature must be positive")
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


def exploration_eps(cfg, episode: int) -> float:
    """Exploration rate of an episode: linear from eps_start to eps_final over
    the first eps_fraction of cfg.episodes, then flat."""
    cut = max(1, int(cfg.episodes * cfg.eps_fraction))
    frac = min(1.0, episode / cut)
    return cfg.eps_start + frac * (cfg.eps_final - cfg.eps_start)


def train_victim(env, cfg: TrainConfig, fixed_policy_table=None):
    """Fit the cooperative Q model and return (model, policy, episode returns).

    With fixed_policy_table the loop evaluates that policy instead of
    improving its own (used to pin TD learning against exact solutions).
    Raises TrainingFailureError when the trained policy fails to clear the
    configured margin over a uniform-random baseline.
    """
    cfg.validate()
    model = cfg.q_model(env.n_states, env.n_actions, env.gamma)
    fixed = None if fixed_policy_table is None else np.asarray(fixed_policy_table, dtype=float)
    episode_seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.episodes)
    act_rng = seed_rng(cfg.seed, salt="train-actions")
    curve = np.empty(cfg.episodes)

    for ep in range(cfg.episodes):
        snap = env.reset(seed=episode_seeds[ep])
        mu = empirical_mean_field_state(snap.states, env.n_states).probs
        explore = exploration_eps(cfg, ep)
        ret, disc = 0.0, 1.0
        for t in range(env.horizon):
            if fixed is not None:
                behavior = fixed[snap.states]
            else:
                q = model.values(snap.states, mu, model.nu_hat)
                behavior = (1 - explore) * softmax_rows(q / cfg.temperature) \
                    + explore / env.n_actions
            actions = sample_actions(behavior, act_rng)
            res = env.step(snap, actions)
            nxt = res.snapshot
            mu2 = res.mu.probs
            q2 = model.values(nxt.states, mu2, res.nu.probs)
            if fixed is not None:
                pi2 = fixed[nxt.states]
            else:
                pi2 = softmax_rows(q2 / cfg.temperature)
            targets = res.reward + env.gamma * (pi2 * q2).sum(axis=1)
            model.td_update(snap.states, actions, mu, res.nu.probs, targets,
                            cfg.lr, cfg.lr_decay)
            model.observe_nu(res.nu.probs)
            ret += disc * res.reward
            disc *= env.gamma
            snap, mu = nxt, mu2
        curve[ep] = ret

    policy = BoltzmannPolicy(model, cfg.temperature) if fixed is None else TablePolicy(fixed)
    if cfg.min_margin is not None and fixed is None:
        trained = float(np.mean(evaluate_policy(env, policy, cfg.eval_episodes,
                                                seed=(cfg.seed, 1))))
        baseline = float(np.mean(evaluate_policy(env, UniformPolicy(env.n_actions),
                                                 cfg.eval_episodes, seed=(cfg.seed, 1))))
        scale = abs(baseline) if abs(baseline) > 1e-12 else 1.0
        if (trained - baseline) / scale < cfg.min_margin:
            raise TrainingFailureError(
                f"victim underperforms: trained {trained:.6f}, uniform {baseline:.6f}",
                trained_return=trained, baseline_return=baseline)
    return model, policy, curve
