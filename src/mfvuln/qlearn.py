"""Cooperative victim training with shared tabular Q-learning.

A single Q model is shared by the whole population.  It scores Q(s, a):
own state, own action.  The population enters only through the shared
reward and the dynamics, not as an input.  Policies are Boltzmann in Q
(shared across agents, evaluated per agent state), which keeps the
cooperative policy stochastic and black-box queryable as an action
distribution.

One lockstep kernel trains every tabular learner: B learners step together
through ``env.step_batch`` on one stacked Q table, each with its own episode
seeds and action stream, under one eps-greedy exploration schedule.  A
victim runs expected-SARSA updates toward its own Boltzmann policy, on
every agent at once; ``train_victims`` trains one per seed.  An adversary
(``attack.train_adversaries``) differs only in its target (SARSA on the
negated reward, for the attacked agents) and in mixing its policy with the
frozen victim's.  ``rollouts`` plays every fixed policy's episodes, clean
or attacked, and refuses to return if the victim moved; ``evaluate_policy``
scores them.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import BudgetVector, mixing_weights, pick_categorical, seed_rng
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
    """Re-raise an unreadable file or a parse, key or shape failure as InvalidInputError."""
    try:
        yield
    except OSError as exc:
        raise InvalidInputError(f"cannot read artifact {path}: {exc.strerror or exc}") from exc
    except (KeyError, ValueError, OverflowError) as exc:
        raise InvalidInputError(
            f"malformed artifact {path}: {type(exc).__name__}: {exc}") from exc


def write_record(path, magic: str, header: dict, values=None):
    """The magic line, a ``key value`` line per header item and, for a checkpoint,
    ``values n`` and the n values at %.17g, written through write_atomic."""
    lines = [magic, *(f"{key} {value}" for key, value in header.items())]
    if values is not None:
        lines += [f"values {len(values)}", *(f"{v:.17g}" for v in values)]
    write_atomic(path, "\n".join(lines) + "\n")


def read_record(path, magic: str, kind=None):
    """The header of a stage record, or a checkpoint of ``kind``'s header and finite
    values; InvalidInputError naming the file if it is malformed.  A loader reads
    each key it uses as ``header[key]``, so a missing line is refused too."""
    with malformed_artifact(path), open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != magic:
        raise InvalidInputError(f"not a {magic!r} record: {path}")
    if kind is None:
        return dict(line.partition(" ")[::2] for line in lines[1:])
    header = {}
    for i, line in enumerate(lines[1:], 2):
        key, _, value = line.partition(" ")
        if key == "values":
            break
        header[key] = value
    else:
        raise InvalidInputError(f"checkpoint missing values block: {path}")
    # no writer emits a backend line any more; one in an older file must still say tabular
    got = header.get("kind"), header.get("backend", "tabular")
    if got != (kind, "tabular"):
        raise InvalidInputError(f"checkpoint kind {got[0]!r} backend {got[1]!r}, expected "
                                f"kind {kind!r} backend 'tabular': {path}")
    with malformed_artifact(path):
        count = int(value)
        flat = np.array([float(x) for x in lines[i:i + count]])
    if flat.size != count:
        raise InvalidInputError(f"checkpoint truncated: {path}")
    if not np.isfinite(flat).all():
        raise InvalidInputError(f"checkpoint holds a value that is not finite: {path}")
    return header, flat


def record_dims(header) -> tuple:
    """A checkpoint's (n_states, n_actions), read from its lines: a reshape must not
    infer one, so ValueError unless both are positive."""
    dims = int(header["n_states"]), int(header["n_actions"])
    if min(dims) < 1:
        raise ValueError(f"n_states {dims[0]} and n_actions {dims[1]} must be positive")
    return dims


# -- policies ----------------------------------------------------------------


def softmax_rows(z) -> np.ndarray:
    """Softmax over the last axis."""
    z = np.asarray(z, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# A policy's action_dists(snapshot) gives (N, A) distributions for one
# episode and (B, N, A) for a batch of B (see envs.base.stack_snapshots).


class UniformPolicy:
    def __init__(self, n_actions: int):
        self.n_actions = n_actions

    def action_dists(self, snapshot) -> np.ndarray:
        return np.full(snapshot.states.shape + (self.n_actions,), 1.0 / self.n_actions)


class TablePolicy:
    """Fixed per-state action distributions; handy for toys and oracles."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)

    def action_dists(self, snapshot) -> np.ndarray:
        return self.table[np.asarray(snapshot.states, dtype=int)]


class BoltzmannPolicy(TablePolicy):
    """pi(a | s) proportional to exp(Q(s, a) / temperature), tabulated when the
    policy is built: later changes to the model's Q table do not reach it.
    InvalidInputError if the table is not finite (Q / temperature overflows)."""

    def __init__(self, model: QModel, temperature: float = 0.1):
        if not 0 < temperature < np.inf:
            raise InvalidInputError(
                f"temperature must be finite and positive, got {temperature!r}")
        with np.errstate(over="ignore", invalid="ignore"):
            super().__init__(softmax_rows(model.table / temperature))
        if not np.isfinite(self.table).all():
            raise InvalidInputError(f"temperature {temperature!r} overflows Q / temperature: "
                                    "the action table is not finite")
        self.model = model
        self.temperature = temperature

    def save(self, path):
        model = self.model
        write_record(path, CHECKPOINT_MAGIC, {
            "kind": "policy", "temperature": repr(self.temperature), "n_states": model.n_states,
            "n_actions": model.n_actions, "gamma": repr(model.gamma)}, model.table.ravel())

    @staticmethod
    def load(path) -> "BoltzmannPolicy":
        header, flat = read_record(path, CHECKPOINT_MAGIC, "policy")
        with malformed_artifact(path):
            # reshape before allocating, so a bad header cannot size the table
            table = flat.reshape(record_dims(header))
            model = QModel(*table.shape, float(header["gamma"]))
            model.table = table
            return BoltzmannPolicy(model, float(header["temperature"]))


def policy_checksum(policy) -> str:
    """Digest of a policy's state: the table its action_dists reads, and its
    model's Q table, where it has them; stable across calls when frozen."""
    h = hashlib.sha256()
    h.update(type(policy).__name__.encode())
    model = getattr(policy, "model", None)
    for table in (getattr(policy, "table", None), getattr(model, "table", None)):
        if table is not None:
            h.update(np.ascontiguousarray(table, dtype=float).tobytes())
    return h.hexdigest()


# -- trajectories --------------------------------------------------------------


@dataclass
class Trajectory:
    """One episode: (T, N) states and actions, (T,) rewards, (N,) final states.

    ``rollouts`` gives views of one batch block, whose states and actions
    are in the narrowest unsigned dtype holding every index (uint8 up to 256
    states or actions): widen them before index arithmetic, or it wraps.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    final_states: np.ndarray

    @property
    def steps(self) -> range:
        """The step indices; bench/ counts steps as ``len(traj.steps)``."""
        return range(len(self.rewards))


def discounted_return(rewards, gamma: float) -> float:
    """sum_t gamma^t r_t of one episode's rewards, summed in step order."""
    return float(sum(r * gamma ** t for t, r in enumerate(rewards)))


def rollouts(env, victim_policy, seeds, adversary_policy=None,
             budgets: Optional[BudgetVector] = None) -> list:
    """One episode per seed under the victim policy, optionally corrupted,
    stepped together as a batch of B = len(seeds): B trajectories, views of
    one (B, T, N) block allocated once (see Trajectory for its dtype).

    With an adversary and budgets, each agent's action distribution is the
    per-decision mixture eps_i * adversary + (1 - eps_i) * victim.  Each
    episode's environment noise and action sampling are seeded separately
    from its own seed, so an episode replays bit-identically alone or in any
    batch; its (T, N) action uniforms come from one call, the numbers T calls
    of N would give.  InvalidInputError before any step for an adversary
    without budgets, budgets without one, or budgets that ``check_attack``
    refuses; RuntimeError if the victim's checksum moved during play.
    """
    if (adversary_policy is None) != (budgets is None):
        raise InvalidInputError("an attack needs both an adversary policy and budgets")
    if budgets is not None:
        check_attack(env, budgets)
        e = mixing_weights(budgets.eps, (len(seeds), env.n_agents, env.n_actions))
        keep = 1.0 - e
    before = policy_checksum(victim_policy)
    batch = stack_snapshots([env.reset(seed=s) for s in seeds])
    shape = (len(seeds), env.horizon, env.n_agents)
    u = np.array([seed_rng(s, salt="rollout-actions").random(shape[1:]) for s in seeds])
    states = np.empty(shape, np.min_scalar_type(env.n_states - 1))
    actions = np.empty(shape, np.min_scalar_type(env.n_actions - 1))
    rewards = np.empty(shape[:2])
    for t in range(env.horizon):
        dists = victim_policy.action_dists(batch)
        if budgets is not None:
            dists = e * adversary_policy.action_dists(batch) + keep * dists
        picks = pick_categorical(dists, u[:, t])
        res = env.step_batch(batch, picks)
        states[:, t], actions[:, t], rewards[:, t] = batch.states, picks, res.reward
        batch = res.snapshot
    if policy_checksum(victim_policy) != before:
        raise RuntimeError("victim policy changed during play")
    final = batch.states.astype(states.dtype)
    return [Trajectory(states[b], actions[b], rewards[b], final[b]) for b in range(len(seeds))]


def rollout(env, victim_policy, seed, adversary_policy=None,
            budgets: Optional[BudgetVector] = None) -> Trajectory:
    """One episode: ``rollouts`` with a single seed."""
    return rollouts(env, victim_policy, [seed], adversary_policy, budgets)[0]


def check_attack(env, budgets: BudgetVector):
    """InvalidInputError unless the budgets fit env's population and corrupt an agent."""
    if budgets.n_agents != env.n_agents:
        raise InvalidInputError("budget vector length does not match the population")
    if not np.any(budgets.eps > 0):
        raise InvalidInputError("budget vector corrupts no agent: every eps is 0")


def evaluate_policy(env, policy, episodes: int, seed, adversary_policy=None,
                    budgets: Optional[BudgetVector] = None) -> np.ndarray:
    """Discounted returns of one ``rollouts`` batch of independent episodes (one
    seed per episode), each its own rollout's return.  With an adversary and
    budgets the episodes are attacked, on the clean call's draws, so that call
    gives the matching baseline.  InvalidInputError for fewer than one episode;
    ``rollouts`` refuses a malformed attack and a victim that moved."""
    if episodes < 1:
        raise InvalidInputError(f"episodes must be >= 1, got {episodes}")
    trajs = rollouts(env, policy, np.random.SeedSequence(seed).spawn(episodes),
                     adversary_policy, budgets)
    return np.array([discounted_return(traj.rewards.tolist(), env.gamma) for traj in trajs])


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
    eval_episodes: int = 20       # episodes of each evaluation of the learned policy

    def validate(self):
        if self.episodes < 1:
            raise InvalidConfigError("episodes must be >= 1")
        if self.eval_episodes < 1:
            raise InvalidConfigError("eval_episodes must be >= 1")
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
    min_margin: Optional[float] = 0.2   # relative improvement over uniform; None skips

    def validate(self):
        super().validate()
        if self.min_margin is not None:
            require_finite(self, "min_margin")


def exploration_eps(cfg, episode: int) -> float:
    """Exploration rate of an episode: linear from eps_start to eps_final over
    the first eps_fraction of cfg.episodes, then flat."""
    cut = max(1, int(cfg.episodes * cfg.eps_fraction))
    frac = min(1.0, episode / cut)
    return cfg.eps_start + frac * (cfg.eps_final - cfg.eps_start)


def train_victims(env, cfg: TrainConfig, seeds) -> list:
    """Fit one cooperative Q model per seed, all in lockstep; returns one
    (model, policy, episode returns) triple per seed, byte for byte what
    that seed trained alone gives.

    A seed drives its learner's episode starts, action stream and margin
    check; the learner spawns each episode's seed from its seed's
    SeedSequence as the episode starts, so no schedule of seeds is held.
    The checks run in seed order: the first policy short of the
    configured margin over a uniform-random baseline raises
    TrainingFailureError naming its seed.
    """
    cfg.validate()
    models = [QModel(env.n_states, env.n_actions, env.gamma) for _ in seeds]
    curves = _lockstep(env, cfg, models, [np.random.SeedSequence(seed) for seed in seeds],
                       [seed_rng(seed, salt="train-actions") for seed in seeds]) if seeds else []
    trained = []
    for seed, model, curve in zip(seeds, models, curves):
        policy = BoltzmannPolicy(model, cfg.temperature)
        if cfg.min_margin is not None:
            mine = float(np.mean(evaluate_policy(env, policy, cfg.eval_episodes, (seed, 1))))
            baseline = float(np.mean(evaluate_policy(env, UniformPolicy(env.n_actions),
                                                     cfg.eval_episodes, (seed, 1))))
            scale = abs(baseline) if abs(baseline) > 1e-12 else 1.0
            if (mine - baseline) / scale < cfg.min_margin:
                raise TrainingFailureError(
                    f"victim of seed {seed} underperforms: trained {mine:.6f}, "
                    f"uniform {baseline:.6f}", trained_return=mine, baseline_return=baseline)
        trained.append((model, policy, curve))
    return trained


def _lockstep(env, cfg: LearnerConfig, models, parents, act_rngs,
              adversary=None) -> np.ndarray:
    """Train B tabular learners in lockstep under one schedule; returns their
    (B, episodes) curves of discounted learner reward.

    One (B * S, A) table holds learner b's Q(s, a) in row b * S + s, and
    models[b] gets its block as a view, so one ``td_update`` serves the
    batch: learners never share a cell, and within a learner the increments
    keep their order.  Learner b starts episode e from parents[b].spawn(1)[0],
    spawned as the episode starts: on a fresh SeedSequence that is
    parents[b].spawn(episodes)[e], and memory stays O(B), not O(B * episodes).
    It samples from act_rngs[b] and explores eps-greedily around the
    Boltzmann policy of its own Q.

    With ``adversary`` None the learners are victims: expected SARSA toward
    their own Boltzmann policy, on every agent at once.  With ``adversary``
    = (victim policy, (B, N) budgets) each agent executes
    eps_i * own + (1 - eps_i) * victim, and SARSA on the negated reward
    updates the attacked agents one step late, on the action executed next.
    """
    n_learners, n_states, n_actions = len(models), env.n_states, env.n_actions
    stacked = QModel(n_learners * n_states, n_actions, env.gamma)
    for b, model in enumerate(models):
        model.table = stacked.table[b * n_states:(b + 1) * n_states]
        model.visits = stacked.visits[b * n_states:(b + 1) * n_states]
    offset = n_states * np.arange(n_learners)[:, None]
    if adversary is not None:
        victim, eps = adversary
        attacked = eps > 0
        e = mixing_weights(eps, (n_learners, env.n_agents, n_actions))
        keep = 1.0 - e
    curves = np.empty((n_learners, cfg.episodes))

    for ep in range(cfg.episodes):
        batch = stack_snapshots([env.reset(seed=parent.spawn(1)[0]) for parent in parents])
        rows = batch.states + offset
        explore = exploration_eps(cfg, ep)
        ret, disc, prev = np.zeros(n_learners), 1.0, None
        u = np.array([rng.random((env.horizon, env.n_agents)) for rng in act_rngs])
        for t in range(env.horizon):
            dists = (1 - explore) * softmax_rows(stacked.values(rows) / cfg.temperature) \
                + explore / n_actions
            if adversary is not None:
                dists = e * dists + keep * victim.action_dists(batch)
            actions = pick_categorical(dists, u[:, t])
            res = env.step_batch(batch, actions)
            batch = res.snapshot
            nxt = batch.states + offset
            reward = res.reward if adversary is None else -res.reward
            if adversary is None:
                q2 = stacked.values(nxt)
                targets = reward[:, None] + env.gamma * (
                    softmax_rows(q2 / cfg.temperature) * q2).sum(axis=-1)
                stacked.td_update(rows, actions, targets, cfg.lr, cfg.lr_decay)
            elif prev is not None:
                p_rows, p_actions, p_reward = prev
                targets = p_reward[:, None] + env.gamma * stacked.table[rows, actions]
                stacked.td_update(p_rows[attacked], p_actions[attacked],
                                  targets[attacked], cfg.lr, cfg.lr_decay)
            prev = (rows, actions, reward)
            ret += disc * reward
            disc *= env.gamma
            rows = nxt
        curves[:, ep] = ret
    return curves
