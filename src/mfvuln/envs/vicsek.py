"""Flocking on a square torus.

Agents move at constant speed and steer with discrete turn increments.
The shared reward after every step is the polarisation order parameter

    phi = | (1/N) sum_j exp(i * theta_j) |  in [0, 1],

which is 1 for a perfectly aligned flock and 0 for a balanced split.
An agent's discrete local state combines its own heading sector with the
sector of its offset from the local neighbourhood mean heading, so a state
reads "roughly north, pointing left of my neighbours".

An agent's neighbourhood is itself and every agent at squared torus
distance at most comm_radius**2 (positions stay in [0, world_size)).  One
step of a batch of episodes is one pass over their adjacency, built a
cache-sized tile at a time.  The dynamics draw no noise: every agent turns
exactly by its action's increment.  The paper's alignment rule (steer
toward the neighbourhood mean heading, smeared by angular noise) is not a
policy here: no experiment runs a rule-based victim, and only the tests
keep it, with its noise as their own argument.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..core import seed_rng
from ..errors import InvalidConfigError
from .base import (EnvConfig, MeanFieldEnv, Snapshot, StepResult, require_finite,
                   torus_sq_pairwise, wrap_angle)

# float64 entries of one adjacency tile; a whole (N, N) episode fits up to N = 181
TILE = 1 << 15
# a block of rows starts at a multiple of this and keeps at least two rows;
# BLAS then sums each row as the full (N, N) product does, where a one-row
# product goes through another kernel and may differ in the last bit
# (tests/test_envs.py checks the bytes at N = 200, 289, 320 and 353)
ROW_ALIGN = 32


@dataclass
class VicsekConfig(EnvConfig):
    env_name: str = "vicsek"
    world_size: float = 16.0
    comm_radius: float = 3.0
    heading_bins: int = 8
    offset_bins: int = 8
    n_actions: int = 5
    turn_delta: float = math.pi / 8.0
    speed: float = 0.5
    n_clusters: int = 0
    cluster_sizes: tuple = ()
    cluster_spread: float = 1.0
    heading_spread: float = 0.25

    def validate(self):
        super().validate()
        require_finite(self, "world_size", "comm_radius", "turn_delta", "speed", "cluster_spread",
                       "heading_spread")
        if self.world_size <= 0 or self.comm_radius < 0:
            raise InvalidConfigError("world_size must be > 0 and comm_radius >= 0")
        if self.heading_bins < 1 or self.offset_bins < 1:
            raise InvalidConfigError("state bins must be >= 1")
        if self.n_actions < 1 or self.n_actions % 2 == 0:
            raise InvalidConfigError("n_actions must be odd (symmetric turn increments)")
        if self.turn_delta <= 0 or self.speed < 0:
            raise InvalidConfigError("turn_delta must be > 0 and speed >= 0")
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


def order_parameter(headings):
    """Polarisation of (..., N) headings: a float for one episode, (...) for a batch."""
    headings = np.asarray(headings)
    return np.abs(np.exp(1j * headings).sum(axis=-1) / headings.shape[-1])


def _cluster_sizes(n_agents: int, n_clusters: int):
    # geometric weights so one cluster dominates; every cluster keeps >= 1 agent
    w = 2.0 ** np.arange(n_clusters - 1, -1, -1)
    sizes = np.maximum(1, np.round(n_agents * w / w.sum()).astype(int))
    while sizes.sum() > n_agents:
        sizes[np.argmax(sizes)] -= 1
    while sizes.sum() < n_agents:
        sizes[0] += 1
    return sizes


def _unit(headings) -> np.ndarray:
    """(..., N, 2) unit vectors (cos, sin) of (..., N) headings."""
    vec = np.empty(headings.shape + (2,))
    vec[..., 0] = np.cos(headings)
    vec[..., 1] = np.sin(headings)
    return vec


def _tile_rows(n: int) -> int:
    """Adjacency rows of one neighbour tile for n agents: whole episodes (a
    multiple of n) while an episode fits TILE entries, else a block of rows."""
    per = TILE // n
    return per // n * n if per >= n else max(ROW_ALIGN, per // ROW_ALIGN * ROW_ALIGN)


def _tile_buffer(n: int) -> np.ndarray:
    """Work space of torus_sq_pairwise for the largest tile of n agents."""
    return np.empty((2, 2, (_tile_rows(n) + 1) * n))


def _tiles(n_episodes: int, n: int):
    """(episodes, rows) slice pairs that cover a batch's (B, N, N) adjacency.

    A tile of whole episodes holds _tile_rows(n) // n of them; a large
    episode splits into blocks of _tile_rows(n) rows, the last of which takes
    the rest, one extra row at most.
    """
    rows = _tile_rows(n)
    if rows >= n:
        per = rows // n
        return [(slice(b, min(b + per, n_episodes)), slice(0, n))
                for b in range(0, n_episodes, per)]
    starts = [*range(0, n - 1, rows), n]
    return [(slice(b, b + 1), slice(lo, hi))
            for b in range(n_episodes) for lo, hi in zip(starts, starts[1:])]


class VicsekEnv(MeanFieldEnv):
    def __init__(self, config: VicsekConfig):
        config.validate()
        self.config = config
        self.turns = (np.arange(config.n_actions) - (config.n_actions - 1) / 2.0) * config.turn_delta
        # the one work buffer of every neighbour pass, four tiles of (rows + 1) * N
        # entries: its size depends on N alone, so no step allocates one, whatever
        # its batch, and a tile stays cache-sized where a whole (N, N) one would not
        self._work = _tile_buffer(config.n_agents)
        self.initial_pos, self.initial_headings = self._initial_layout()
        self.initial_states = self._discretize(self.initial_pos, self.initial_headings)

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

    def neighbor_mean_heading(self, pos, headings) -> np.ndarray:
        """Circular mean heading over each agent's neighbourhood: itself and every
        agent at squared torus distance <= comm_radius**2; pos in [0, world_size).

        Takes (..., N, 2) positions and (..., N) headings, any leading batch axes,
        and returns (..., N).  The adjacency is built a tile at a time (see
        _tiles); every episode's row sums come out as its own 2-D ``adj @ vec``.
        """
        headings = np.asarray(headings)
        n = headings.shape[-1]
        vec = _unit(headings).reshape(-1, n, 2)
        pos = np.reshape(pos, vec.shape)
        work = self._work if n == self.config.n_agents else _tile_buffer(n)
        total = np.empty(vec.shape)
        for eps, rows in _tiles(len(vec), n):
            shape = (eps.stop - eps.start, rows.stop - rows.start, n)
            sq = torus_sq_pairwise(pos[eps], self.config.world_size,
                                   work[..., :math.prod(shape)].reshape((2, 2) + shape), rows)
            adj = np.less_equal(sq, self.config.comm_radius ** 2, out=sq)  # 1.0 or 0.0
            adj.reshape(shape[0], -1)[:, rows.start::n + 1] = 1.0          # self loops
            np.matmul(adj, vec[eps], out=total[eps, rows])
        # a perfectly cancelling neighbourhood falls back to the agent's own heading
        np.copyto(total, vec, where=np.hypot(total[..., :1], total[..., 1:]) < 1e-12)
        return np.arctan2(total[..., 1], total[..., 0]).reshape(headings.shape)

    def _discretize(self, pos, headings) -> np.ndarray:
        cfg = self.config
        hb = ((headings + np.pi) / (2 * np.pi) * cfg.heading_bins).astype(int)
        offset = wrap_angle(self.neighbor_mean_heading(pos, headings) - headings)
        ob = ((offset + np.pi) / (2 * np.pi) * cfg.offset_bins).astype(int)
        return (np.minimum(np.maximum(hb, 0, out=hb), cfg.heading_bins - 1, out=hb)
                * cfg.offset_bins
                + np.minimum(np.maximum(ob, 0, out=ob), cfg.offset_bins - 1, out=ob))

    def _step_batch(self, batch: Snapshot, actions) -> StepResult:
        """Advance B episodes in one pass: (B, N) headings and states, (B, N, 2)
        positions and (B,) rewards."""
        cfg = self.config
        headings = wrap_angle(batch.headings + self.turns[actions])
        pos = (batch.pos + cfg.speed * _unit(headings)) % cfg.world_size
        states = self._discretize(pos, headings)
        nxt = Snapshot(batch.t + 1, states, pos=pos, headings=headings)
        return StepResult(nxt, states, order_parameter(headings))

    def _sq_distances(self, snapshot: Snapshot) -> np.ndarray:
        return torus_sq_pairwise(snapshot.pos, self.config.world_size)
