"""Small tabular populations with exactly solvable dynamics.

Each agent runs an independent chain on a shared or per-agent block of
states; the shared reward is the mean of the per-agent reward streams.
Because the chains are independent, everything of interest has a closed
form: policy values come from one linear solve, worst-case attacked values
from value iteration over a per-agent min/mix backup, and the return of an
attacked population decomposes into a mean of per-agent values.  That makes
these environments the reference point for checking the learned machinery.

Per-block reward scales follow a geometric ladder, so agents differ sharply
in how much value they carry (and hence in how much an attacker can wreck).
With ``null_action`` every state keeps one zero-reward action, which gives
an adversary a floor to steer toward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import dual_order, lp_norm, seed_rng
from ..errors import InvalidConfigError, InvalidInputError
from .base import MeanFieldEnv, Snapshot, build_config, require_finite

VI_TOL = 1e-12
VI_MAX_ITER = 100_000


@dataclass
class ToyConfig:
    env_name: str = "toy"
    n_agents: int = 4
    block_states: int = 3
    n_actions: int = 2
    shared: bool = False        # all agents on one block instead of one each
    deterministic: bool = False
    null_action: bool = True    # last action pays zero reward everywhere
    scale_ratio: float = 1.6    # geometric ladder of per-block reward scales
    horizon: int = 40
    gamma: float = 0.9
    comm_radius: float = 1.0    # unused geometry; kept for interface parity
    seed: int = 0

    def validate(self):
        if self.env_name != "toy":
            raise InvalidConfigError(f"env_name mismatch: {self.env_name}")
        if self.n_agents < 1 or self.block_states < 1 or self.n_actions < 1:
            raise InvalidConfigError("counts must be >= 1")
        if self.null_action and self.n_actions < 2:
            raise InvalidConfigError("null_action needs at least 2 actions")
        if self.horizon < 1:
            raise InvalidConfigError("horizon must be >= 1")
        if not (0.0 <= self.gamma < 1.0):
            raise InvalidConfigError("gamma must be in [0, 1)")
        require_finite(self, "scale_ratio")
        if self.scale_ratio <= 0:
            raise InvalidConfigError("scale_ratio must be positive")


class ToyMeanFieldEnv(MeanFieldEnv):
    def __init__(self, config: ToyConfig):
        config.validate()
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

    def reset(self, seed=None) -> Snapshot:
        rng = seed_rng(self.config.seed if seed is None else seed)
        return Snapshot(t=0, states=self.initial_states.copy(), rng=rng)

    def step(self, snapshot: Snapshot, actions):
        actions = self._check_actions(snapshot, actions)
        reward = float(self.rewards[snapshot.states, actions].mean())
        cdf = np.cumsum(self.transitions[snapshot.states, actions], axis=1)
        cdf[:, -1] = 1.0
        u = snapshot.rng.random(self.n_agents)
        states = (u[:, None] < cdf).argmax(axis=1)
        nxt = Snapshot(t=snapshot.t + 1, states=states, rng=snapshot.rng)
        return self._finish_step(nxt, reward)

    def _pairwise_distances(self, snapshot: Snapshot) -> np.ndarray:
        # no geometry: everyone observes everyone
        return np.zeros((self.n_agents, self.n_agents))

    # -- exact solvers -----------------------------------------------------

    def _policy_matrices(self, policy_matrix):
        pi = np.asarray(policy_matrix, dtype=float)
        if pi.shape != (self.n_states, self.n_actions):
            raise InvalidInputError(f"policy matrix must be {(self.n_states, self.n_actions)}")
        p_pi = np.einsum("sa,sat->st", pi, self.transitions)
        r_pi = (pi * self.rewards).sum(axis=1)
        return p_pi, r_pi

    def exact_policy_value(self, policy_matrix) -> np.ndarray:
        """V^pi by a single linear solve of (I - gamma P_pi) V = r_pi."""
        p_pi, r_pi = self._policy_matrices(policy_matrix)
        eye = np.eye(self.n_states)
        return np.linalg.solve(eye - self.gamma * p_pi, r_pi)

    def exact_policy_q(self, policy_matrix) -> np.ndarray:
        v = self.exact_policy_value(policy_matrix)
        return self.rewards + self.gamma * self.transitions @ v

    def optimal_q(self) -> np.ndarray:
        """Cooperative optimum by value iteration."""
        q = np.zeros((self.n_states, self.n_actions))
        for _ in range(VI_MAX_ITER):
            nq = self.rewards + self.gamma * self.transitions @ q.max(axis=1)
            if np.max(np.abs(nq - q)) < VI_TOL:
                return nq
            q = nq
        return q

    @staticmethod
    def greedy_matrix(q) -> np.ndarray:
        pi = np.zeros_like(q)
        pi[np.arange(q.shape[0]), q.argmax(axis=1)] = 1.0
        return pi

    @staticmethod
    def boltzmann_matrix(q, temperature: float) -> np.ndarray:
        z = q / temperature
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def exact_robust_components(self, policy_matrix, p=np.inf):
        """(V0, H) with V(s, eps, xi) = V0[s] - (eps + xi + eps * xi) * H[s].

        V0 is the cooperative policy value; H accumulates the discounted
        dual-norm of the cooperative Q rows along on-policy trajectories.
        """
        p_pi, r_pi = self._policy_matrices(policy_matrix)
        q_pi = self.exact_policy_q(policy_matrix)
        qdual = dual_order(p)
        reg = np.array([lp_norm(q_pi[s], qdual) for s in range(self.n_states)])
        eye = np.eye(self.n_states)
        v0 = np.linalg.solve(eye - self.gamma * p_pi, r_pi)
        h = np.linalg.solve(eye - self.gamma * p_pi, reg)
        return v0, h

    def exact_worst_case_value(self, policy_matrix, eps: float) -> np.ndarray:
        """Fixed point of the per-agent min/mix backup at corruption eps.

        The adversary controls an eps share of each decision; the remaining
        (1 - eps) share follows the given cooperative policy.
        """
        if not (0.0 <= eps <= 1.0):
            raise InvalidInputError(f"eps must be in [0, 1], got {eps}")
        pi = np.asarray(policy_matrix, dtype=float)
        v = np.zeros(self.n_states)
        for _ in range(VI_MAX_ITER):
            q = self.rewards + self.gamma * self.transitions @ v
            coop = (pi * q).sum(axis=1)
            nv = (1.0 - eps) * coop + eps * q.min(axis=1)
            if np.max(np.abs(nv - v)) < VI_TOL:
                return nv
            v = nv
        return v

    def exact_attack_return(self, policy_matrix, attacked_ids, eps: float = 1.0) -> float:
        """Population return when the listed agents are eps-corrupted.

        Chains are independent, so the value is the mean of per-agent
        values: worst-case for attacked agents, cooperative otherwise.
        """
        attacked = np.zeros(self.n_agents, dtype=bool)
        ids = np.asarray(list(attacked_ids), dtype=int)
        if ids.size:
            if np.any(ids < 0) or np.any(ids >= self.n_agents):
                raise InvalidInputError("attacked agent id out of range")
            attacked[ids] = True
        v_coop = self.exact_policy_value(policy_matrix)
        v_adv = self.exact_worst_case_value(policy_matrix, eps) if ids.size else v_coop
        per_agent = np.where(attacked, v_adv[self.initial_states], v_coop[self.initial_states])
        return float(per_agent.mean())


def make_toy(raw: dict) -> ToyMeanFieldEnv:
    return ToyMeanFieldEnv(build_config(ToyConfig, raw))
