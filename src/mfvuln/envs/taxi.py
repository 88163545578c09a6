"""Taxi dispatch on a periodic grid.

Taxis occupy cells of a W x H grid (the cell index is the local state) and
move one cell per step or stay put.  Cells aggregate into 2x2 zones.  Every
step each zone draws a Poisson demand; the shared reward penalises the
supply/demand mismatch,

    r = - sum_z |supply_z - demand_z| / (N + D),    D = total demand drawn,

normalised by the step's total volume so that r stays in [-1, 0] and hits 0
exactly on a perfect match.  Demand rates are fixed per experiment and
concentrate around the grid centre, so position matters: a taxi parked in a
busy zone is worth more than one circling the outskirts.

Initial placement is an even lattice over the grid (with N equal to the cell
count this puts exactly one taxi per cell) and does not vary between
episodes; episode seeds only drive the demand draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import seed_rng
from ..errors import InvalidConfigError
from .base import MeanFieldEnv, Snapshot, StepResult, build_config, torus_pairwise

# action order: stay, east, west, north, south
MOVES = np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]])


@dataclass
class TaxiConfig:
    env_name: str = "taxi"
    n_agents: int = 16
    horizon: int = 24
    grid_width: int = 8
    grid_height: int = 8
    n_actions: int = 5
    comm_radius: float = 2.5
    demand_rate: float = 1.0
    demand_concentration: float = 0.15
    gamma: float = 0.95
    seed: int = 0

    def validate(self):
        if self.env_name != "taxi":
            raise InvalidConfigError(f"env_name mismatch: {self.env_name}")
        if self.grid_width < 2 or self.grid_height < 2:
            raise InvalidConfigError("grid must be at least 2x2")
        if self.grid_width % 2 or self.grid_height % 2:
            raise InvalidConfigError("grid sides must be even (2x2 zones)")
        if self.n_agents < 1:
            raise InvalidConfigError("n_agents must be >= 1")
        if self.n_agents > self.grid_width * self.grid_height:
            raise InvalidConfigError(
                f"{self.n_agents} taxis exceed grid capacity "
                f"{self.grid_width * self.grid_height}")
        if self.n_actions != len(MOVES):
            raise InvalidConfigError(f"n_actions must be {len(MOVES)}")
        if self.horizon < 1:
            raise InvalidConfigError("horizon must be >= 1")
        if self.demand_rate < 0 or self.demand_concentration <= 0:
            raise InvalidConfigError("demand_rate must be >= 0, concentration > 0")
        if not (0.0 < self.gamma < 1.0):
            raise InvalidConfigError("gamma must be in (0, 1)")


class TaxiGridEnv(MeanFieldEnv):
    def __init__(self, config: TaxiConfig):
        config.validate()
        self.config = config
        self.n_zones = (config.grid_width // 2) * (config.grid_height // 2)
        self.demand_rates = self._demand_rates()
        # lookup tables: cell -> (x, y), cell -> zone, (cell, action) -> next cell
        w, h = config.grid_width, config.grid_height
        cells = np.arange(w * h)
        self._xy = np.column_stack([cells // h, cells % h])
        self._zone = (self._xy[:, 0] // 2) * (h // 2) + self._xy[:, 1] // 2
        moved = (self._xy[:, None, :] + MOVES) % [w, h]
        self._next_cell = moved[..., 0] * h + moved[..., 1]
        self._start_cells = self._initial_cells()

    @property
    def n_states(self) -> int:
        return self.config.grid_width * self.config.grid_height

    def _demand_rates(self) -> np.ndarray:
        """Per-zone Poisson rates, Gaussian bump at the grid centre."""
        cfg = self.config
        zw, zh = cfg.grid_width // 2, cfg.grid_height // 2
        zx, zy = np.meshgrid(np.arange(zw), np.arange(zh), indexing="ij")
        cx = (2 * zx + 0.5) - (cfg.grid_width - 1) / 2.0
        cy = (2 * zy + 0.5) - (cfg.grid_height - 1) / 2.0
        sigma = cfg.demand_concentration * min(cfg.grid_width, cfg.grid_height)
        w = np.exp(-(cx ** 2 + cy ** 2) / (2 * sigma ** 2)).ravel()
        total = cfg.demand_rate * cfg.n_agents
        return w / w.sum() * total

    def _initial_cells(self) -> np.ndarray:
        cfg = self.config
        cols = int(np.ceil(np.sqrt(cfg.n_agents * cfg.grid_width / cfg.grid_height)))
        cols = max(1, min(cols, cfg.grid_width))
        rows = int(np.ceil(cfg.n_agents / cols))
        idx = np.arange(cfg.n_agents)
        x = ((idx % cols + 0.5) * cfg.grid_width / cols).astype(int) % cfg.grid_width
        y = ((idx // cols + 0.5) * cfg.grid_height / rows).astype(int) % cfg.grid_height
        return x * cfg.grid_height + y

    def cell_xy(self, cells) -> np.ndarray:
        return self._xy[np.asarray(cells, dtype=int)]

    def reset(self, seed=None) -> Snapshot:
        cells = self._start_cells.copy()
        rng = seed_rng(self.config.seed if seed is None else seed)
        return Snapshot(t=0, states=cells, rng=rng, pos=self.cell_xy(cells))

    @staticmethod
    def mismatch_reward(supply, demand):
        """Volume-normalised mismatch penalty in [-1, 0] over the last axis;
        0 iff matched (or both empty)."""
        supply = np.asarray(supply)
        demand = np.asarray(demand)
        volume = supply.sum(axis=-1) + demand.sum(axis=-1)
        return -np.abs(supply - demand).sum(axis=-1) / np.maximum(volume, 1)

    def _advance(self, batch: Snapshot, actions) -> StepResult:
        """All B episodes at once; each draws its demand from its own rng."""
        cells = self._next_cell[batch.states, actions]
        demand = np.array([rng.poisson(self.demand_rates) for rng in batch.rng])
        zones = self._zone[cells] + self.n_zones * np.arange(len(demand))[:, None]
        supply = np.bincount(zones.ravel(), minlength=demand.size).reshape(demand.shape)
        nxt = Snapshot(t=batch.t + 1, states=cells, rng=batch.rng, pos=self._xy[cells])
        return StepResult(nxt, cells, self.mismatch_reward(supply, demand))

    def step_batch(self, batch: Snapshot, actions) -> StepResult:
        return self._advance(batch, self._check_actions(batch, actions))

    def step(self, snapshot: Snapshot, actions):
        """One episode: the B = 1 case of step_batch."""
        actions = self._check_actions(snapshot, actions)
        res = self._advance(Snapshot(snapshot.t, snapshot.states[None], [snapshot.rng]),
                            actions[None])
        nxt = res.snapshot
        return self._finish_step(Snapshot(nxt.t, nxt.states[0], snapshot.rng, nxt.pos[0]),
                                 res.reward[0])

    def _pairwise_distances(self, snapshot: Snapshot) -> np.ndarray:
        return torus_pairwise(snapshot.pos, (self.config.grid_width, self.config.grid_height))


def make_taxi(raw: dict) -> TaxiGridEnv:
    return TaxiGridEnv(build_config(TaxiConfig, raw))
