"""Small tabular populations of independent agents.

Each agent runs its own Markov chain on a shared block of states or on a
block of its own; the shared reward is the mean of the per-agent rewards.
Per-block reward scales follow a geometric ladder, so agents differ sharply
in how much value they carry.  With ``null_action`` every state keeps one
zero-reward action, which gives an adversary a floor to steer toward.
An episode's noise is its (horizon, N) uniforms, drawn at reset: step t
moves agent i by the inverse-cdf pick of uniform [t, i].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import pick_categorical, seed_rng
from ..errors import InvalidConfigError
from .base import EnvConfig, MeanFieldEnv, Snapshot, StepResult, require_finite


@dataclass(frozen=True)
class ToyConfig(EnvConfig):
    env_name: str = "toy"
    n_agents: int = 4
    horizon: int = 40
    gamma: float = 0.9
    block_states: int = 3
    n_actions: int = 2
    shared: bool = False        # all agents on one block instead of one each
    deterministic: bool = False
    null_action: bool = True    # last action pays zero reward everywhere
    scale_ratio: float = 1.6    # geometric ladder of per-block reward scales

    def __post_init__(self):
        super().__post_init__()
        if self.block_states < 1 or self.n_actions < 1:
            raise InvalidConfigError("counts must be >= 1")
        if self.null_action and self.n_actions < 2:
            raise InvalidConfigError("null_action needs at least 2 actions")
        require_finite(self, "scale_ratio")
        if self.scale_ratio <= 0:
            raise InvalidConfigError("scale_ratio must be positive")


class ToyMeanFieldEnv(MeanFieldEnv):
    def __init__(self, config: ToyConfig):
        self.config = config
        self._build_tables()

    @property
    def n_states(self) -> int:
        cfg = self.config
        return cfg.block_states if cfg.shared else cfg.n_agents * cfg.block_states

    def _build_tables(self):
        cfg = self.config
        rng = seed_rng(cfg.seed, salt="toy-tables")
        n_blocks = 1 if cfg.shared else cfg.n_agents
        m, a = cfg.block_states, cfg.n_actions
        s_total = n_blocks * m

        scales = np.ones(n_blocks)
        if n_blocks > 1:
            ranks = rng.permutation(n_blocks)
            scales = cfg.scale_ratio ** ranks * rng.uniform(0.95, 1.05, n_blocks)

        self.rewards = np.zeros((s_total, a))
        self.transitions = np.zeros((s_total, a, s_total))
        for b in range(n_blocks):
            lo = b * m
            u = rng.uniform(0.25, 1.0, (m, a))
            if cfg.null_action:
                u[:, -1] = 0.0
            self.rewards[lo:lo + m] = scales[b] * u
            for s in range(m):
                for act in range(a):
                    if cfg.deterministic:
                        self.transitions[lo + s, act, lo + rng.integers(m)] = 1.0
                    else:
                        self.transitions[lo + s, act, lo:lo + m] = rng.dirichlet(np.ones(m))

        if cfg.shared:
            self.initial_states = rng.integers(m, size=cfg.n_agents)
        else:
            self.initial_states = np.arange(cfg.n_agents) * m + rng.integers(m, size=cfg.n_agents)

    def _noise(self, rng) -> np.ndarray:
        """The episode's (horizon, N) uniforms, one per agent and step."""
        return rng.random((self.config.horizon, self.n_agents))

    def _step_batch(self, batch: Snapshot, actions) -> StepResult:
        """Advance B episodes; each moves by its own row of uniforms."""
        reward = self.rewards[batch.states, actions].mean(axis=-1)
        u = batch.noise[:, batch.t]
        states = pick_categorical(self.transitions[batch.states, actions], u)
        return StepResult(Snapshot(batch.t + 1, states, batch.noise), states, reward)

    def observation_graph(self, snapshot: Snapshot) -> np.ndarray:
        """The complete graph: toy agents have no geometry."""
        return ~np.eye(self.n_agents, dtype=bool)
