"""Flocking on a square torus.

Agents move at constant speed and steer with discrete turn increments.
The shared reward after every step is the polarisation order parameter

    phi = | (1/N) sum_j exp(i * theta_j) |  in [0, 1],

which is 1 for a perfectly aligned flock and 0 for a balanced split.
An agent's discrete local state combines its own heading sector with the
sector of its offset from the local neighbourhood mean heading, so a state
reads "roughly north, pointing left of my neighbours".

The built-in alignment rule steers each agent toward the mean heading of
its neighbourhood: itself and every agent at squared torus distance at most
comm_radius**2 (positions stay in [0, world_size)).  With zero noise the
rule picks the increment closest to the exact correction; with noise the
correction is smeared by a Gaussian before discretisation, which makes the
induced action distribution an explicit mixture rather than a point mass.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..core import seed_rng
from ..errors import InvalidConfigError
from .base import (MeanFieldEnv, Snapshot, build_config, require_finite, torus_pairwise,
                   torus_sq_pairwise, wrap_angle)

SQRT2 = math.sqrt(2.0)


@dataclass
class VicsekConfig:
    env_name: str = "vicsek"
    n_agents: int = 16
    horizon: int = 50
    world_size: float = 16.0
    comm_radius: float = 3.0
    heading_bins: int = 8
    offset_bins: int = 8
    n_actions: int = 5
    turn_delta: float = math.pi / 8.0
    speed: float = 0.5
    noise: float = 0.05
    n_clusters: int = 0
    cluster_sizes: tuple = ()
    cluster_spread: float = 1.0
    heading_spread: float = 0.25
    gamma: float = 0.95
    seed: int = 0

    def validate(self):
        if self.env_name != "vicsek":
            raise InvalidConfigError(f"env_name mismatch: {self.env_name}")
        if self.n_agents < 1:
            raise InvalidConfigError("n_agents must be >= 1")
        if self.horizon < 1:
            raise InvalidConfigError("horizon must be >= 1")
        require_finite(self, "world_size", "comm_radius", "turn_delta", "speed", "noise",
                       "cluster_spread", "heading_spread")
        if self.world_size <= 0 or self.comm_radius < 0:
            raise InvalidConfigError("world_size must be > 0 and comm_radius >= 0")
        if self.heading_bins < 1 or self.offset_bins < 1:
            raise InvalidConfigError("state bins must be >= 1")
        if self.n_actions < 1 or self.n_actions % 2 == 0:
            raise InvalidConfigError("n_actions must be odd (symmetric turn increments)")
        if self.turn_delta <= 0 or self.speed < 0 or self.noise < 0:
            raise InvalidConfigError("turn_delta must be > 0, speed and noise >= 0")
        if not (0.0 < self.gamma < 1.0):
            raise InvalidConfigError("gamma must be in (0, 1)")
        if self.n_clusters < 0 or self.n_clusters > self.n_agents:
            raise InvalidConfigError("n_clusters must be in [0, n_agents]")
        if len(self.cluster_sizes) > 0:
            if not all(isinstance(s, numbers.Integral) and not isinstance(s, bool)
                       for s in self.cluster_sizes):
                raise InvalidConfigError("cluster_sizes entries must be integers")
            self.cluster_sizes = tuple(int(s) for s in self.cluster_sizes)
            if any(s < 1 for s in self.cluster_sizes):
                raise InvalidConfigError("cluster_sizes entries must be >= 1")
            if sum(self.cluster_sizes) != self.n_agents:
                raise InvalidConfigError(
                    f"cluster_sizes sum {sum(self.cluster_sizes)} != n_agents {self.n_agents}")
            if self.n_clusters not in (0, len(self.cluster_sizes)):
                raise InvalidConfigError(
                    "n_clusters disagrees with len(cluster_sizes)")


def order_parameter(headings) -> float:
    return float(np.abs(np.exp(1j * np.asarray(headings)).mean()))


def _cluster_sizes(n_agents: int, n_clusters: int):
    # geometric weights so one cluster dominates; every cluster keeps >= 1 agent
    w = 2.0 ** np.arange(n_clusters - 1, -1, -1)
    sizes = np.maximum(1, np.round(n_agents * w / w.sum()).astype(int))
    while sizes.sum() > n_agents:
        sizes[np.argmax(sizes)] -= 1
    while sizes.sum() < n_agents:
        sizes[0] += 1
    return sizes


class VicsekEnv(MeanFieldEnv):
    def __init__(self, config: VicsekConfig):
        config.validate()
        self.config = config
        self.turns = (np.arange(config.n_actions) - (config.n_actions - 1) / 2.0) * config.turn_delta
        # (N, N) buffers reused by every neighbour computation: fresh ones at
        # large N are separate mmaps, and faulting them in dominated the step
        self._work = np.empty((4, 0, 0))

    @property
    def n_states(self) -> int:
        return self.config.heading_bins * self.config.offset_bins

    def _initial_layout(self):
        cfg = self.config
        rng = seed_rng(cfg.seed, salt="vicsek-layout")
        if len(cfg.cluster_sizes) > 0:
            sizes = np.asarray(cfg.cluster_sizes, dtype=int)
        elif cfg.n_clusters > 1:
            sizes = _cluster_sizes(cfg.n_agents, cfg.n_clusters)
        else:
            pos = rng.random((cfg.n_agents, 2)) * cfg.world_size
            headings = rng.uniform(-np.pi, np.pi, cfg.n_agents)
            return pos, wrap_angle(headings)
        n_clusters = sizes.size
        phase = rng.uniform(0, 2 * np.pi)
        ring = cfg.world_size / 3.0
        centre = cfg.world_size / 2.0
        pos, headings = [], []
        for c, size in enumerate(sizes):
            ang = phase + 2 * np.pi * c / n_clusters
            cx = centre + ring * np.cos(ang)
            cy = centre + ring * np.sin(ang)
            pos.append(np.column_stack([cx + rng.normal(0, cfg.cluster_spread, size),
                                        cy + rng.normal(0, cfg.cluster_spread, size)]))
            mean_heading = wrap_angle(2 * np.pi * c / n_clusters + rng.uniform(-0.2, 0.2))
            headings.append(mean_heading + rng.normal(0, cfg.heading_spread, size))
        pos = np.vstack(pos) % cfg.world_size
        return pos, wrap_angle(np.concatenate(headings))

    def reset(self, seed=None) -> Snapshot:
        pos, headings = self._initial_layout()
        rng = seed_rng(self.config.seed if seed is None else seed)
        states = self._discretize(pos, headings)
        return Snapshot(t=0, states=states, rng=rng, pos=pos, headings=headings)

    def neighbor_mean_heading(self, pos, headings) -> np.ndarray:
        """Circular mean heading over each agent's neighbourhood: itself and every
        agent at squared torus distance <= comm_radius**2; pos in [0, world_size)."""
        n = len(pos)
        if self._work.shape[1:] != (n, n):
            self._work = np.empty((4, n, n))
        sq = torus_sq_pairwise(pos, self.config.world_size, self._work[:3])
        adj = np.less_equal(sq, self.config.comm_radius ** 2, out=self._work[3])  # 1.0 or 0.0
        np.fill_diagonal(adj, 1.0)
        vec = np.column_stack([np.cos(headings), np.sin(headings)])
        total = adj @ vec
        # a perfectly cancelling neighbourhood falls back to the agent's own heading
        degenerate = np.hypot(total[:, 0], total[:, 1]) < 1e-12
        total[degenerate] = vec[degenerate]
        return np.arctan2(total[:, 1], total[:, 0])

    def _discretize(self, pos, headings) -> np.ndarray:
        cfg = self.config
        hb = ((headings + np.pi) / (2 * np.pi) * cfg.heading_bins).astype(int)
        hb = np.clip(hb, 0, cfg.heading_bins - 1)
        offset = wrap_angle(self.neighbor_mean_heading(pos, headings) - headings)
        ob = ((offset + np.pi) / (2 * np.pi) * cfg.offset_bins).astype(int)
        ob = np.clip(ob, 0, cfg.offset_bins - 1)
        return hb * cfg.offset_bins + ob

    def step(self, snapshot: Snapshot, actions):
        actions = self._check_actions(snapshot, actions)
        cfg = self.config
        headings = wrap_angle(snapshot.headings + self.turns[actions])
        pos = (snapshot.pos + cfg.speed * np.column_stack([np.cos(headings), np.sin(headings)])) % cfg.world_size
        states = self._discretize(pos, headings)
        nxt = Snapshot(t=snapshot.t + 1, states=states, rng=snapshot.rng, pos=pos, headings=headings)
        return self._finish_step(nxt, order_parameter(headings))

    def _pairwise_distances(self, snapshot: Snapshot) -> np.ndarray:
        return torus_pairwise(snapshot.pos, self.config.world_size)

    # -- alignment rule ----------------------------------------------------

    def rule_action_dists(self, snapshot: Snapshot, noise=None) -> np.ndarray:
        """(N, A) action distributions of the alignment rule.

        The desired correction is the offset to the neighbourhood mean
        heading; Gaussian smearing with the configured angular noise is
        integrated exactly over the rounding cells of the turn increments.
        """
        sigma = self.config.noise if noise is None else noise
        desired = wrap_angle(self.neighbor_mean_heading(snapshot.pos, snapshot.headings)
                             - snapshot.headings)
        n, a = desired.size, self.config.n_actions
        if sigma == 0.0:
            dist = np.zeros((n, a))
            dist[np.arange(n), np.abs(desired[:, None] - self.turns[None, :]).argmin(axis=1)] = 1.0
            return dist
        edges = (self.turns[:-1] + self.turns[1:]) / 2.0
        z = (edges[None, :] - desired[:, None]) / (sigma * SQRT2)
        cdf = np.empty((n, a + 1))
        cdf[:, 0], cdf[:, -1] = 0.0, 1.0
        cdf[:, 1:-1] = 0.5 * (1.0 + np.vectorize(math.erf)(z))
        return np.diff(cdf, axis=1)

    def rule_actions(self, snapshot: Snapshot, noise=None) -> np.ndarray:
        """Sampled rule actions; zero noise reduces to the nearest increment."""
        dist = self.rule_action_dists(snapshot, noise=noise)
        cdf = np.cumsum(dist, axis=1)
        cdf[:, -1] = 1.0
        u = snapshot.rng.random(dist.shape[0])
        return (u[:, None] < cdf).argmax(axis=1)


def make_vicsek(raw: dict) -> VicsekEnv:
    return VicsekEnv(build_config(VicsekConfig, raw))
