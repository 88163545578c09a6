"""Taxi dispatch on a periodic grid.

Taxis occupy cells of a W x H grid (the cell index is the local state) and
move one cell per step or stay put.  Cells aggregate into 2x2 zones.  Each
step every zone sees a Poisson demand; the shared reward penalises the
supply/demand mismatch,

    r = - sum_z |supply_z - demand_z| / (N + D),    D = total demand drawn,

normalised by the step's total volume so that r stays in [-1, 0] and hits 0
exactly on a perfect match.  Demand rates are fixed per experiment and
concentrate around the grid centre, so position matters: a taxi parked in a
busy zone is worth more than one circling the outskirts.

Initial placement is an even lattice over the grid (with N equal to the cell
count this puts exactly one taxi per cell) and does not vary between
episodes; episode seeds only drive the demand draws.  An episode's noise is
its (horizon, zones) demand table, drawn at reset in one call, which gives
the numbers of one draw per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidConfigError
from .base import (EnvConfig, MeanFieldEnv, Snapshot, StepResult, require_finite,
                   torus_sq_pairwise)

# action order: stay, east, west, north, south
MOVES = np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]])

# largest rate Generator.poisson accepts; numpy raises "lam value too large" above it
POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


@dataclass(frozen=True)
class TaxiConfig(EnvConfig):
    env_name: str = "taxi"
    horizon: int = 24
    grid_width: int = 8
    grid_height: int = 8
    comm_radius: float = 2.5
    demand_rate: float = 1.0
    demand_concentration: float = 0.15

    def __post_init__(self):
        super().__post_init__()
        if self.grid_width < 2 or self.grid_height < 2:
            raise InvalidConfigError("grid must be at least 2x2")
        if self.grid_width % 2 or self.grid_height % 2:
            raise InvalidConfigError("grid sides must be even (2x2 zones)")
        if self.n_agents > self.grid_width * self.grid_height:
            raise InvalidConfigError(
                f"{self.n_agents} taxis exceed grid capacity "
                f"{self.grid_width * self.grid_height}")
        require_finite(self, "comm_radius", "demand_rate", "demand_concentration")
        if self.comm_radius < 0:
            raise InvalidConfigError(f"comm_radius must be >= 0, got {self.comm_radius}")
        if self.demand_rate < 0 or self.demand_concentration <= 0:
            raise InvalidConfigError("demand_rate must be >= 0, concentration > 0")


class TaxiGridEnv(MeanFieldEnv):
    n_actions = len(MOVES)

    def __init__(self, config: TaxiConfig):
        self.config = config
        self.n_zones = (config.grid_width // 2) * (config.grid_height // 2)
        self.demand_rates = self._demand_rates()
        if self.demand_rates.max() > POISSON_LAM_MAX:
            raise InvalidConfigError(f"demand_rate must keep every zone's Poisson rate within "
                                     f"{POISSON_LAM_MAX:.4g}, not {self.demand_rates.max():.4g}")
        # lookup tables: cell -> (x, y), cell -> zone, (cell, action) -> next cell
        w, h = config.grid_width, config.grid_height
        cells = np.arange(w * h)
        self._xy = np.column_stack([cells // h, cells % h])
        self._zone = (self._xy[:, 0] // 2) * (h // 2) + self._xy[:, 1] // 2
        moved = (self._xy[:, None, :] + MOVES) % [w, h]
        self._next_cell = moved[..., 0] * h + moved[..., 1]
        self.initial_states = self._initial_cells()

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

    @staticmethod
    def mismatch_reward(supply, demand):
        """Volume-normalised mismatch penalty in [-1, 0] over the last axis;
        0 iff matched (or both empty)."""
        supply = np.asarray(supply)
        demand = np.asarray(demand)
        volume = supply.sum(axis=-1) + demand.sum(axis=-1)
        return -np.abs(supply - demand).sum(axis=-1) / np.maximum(volume, 1)

    def _noise(self, rng) -> np.ndarray:
        """The episode's (horizon, zones) Poisson demand table."""
        return rng.poisson(self.demand_rates, (self.config.horizon, self.n_zones))

    def _step_batch(self, batch: Snapshot, actions) -> StepResult:
        """Advance B episodes by (B, N) actions in one pass; rewards are (B,)."""
        cells = self._next_cell[batch.states, actions]
        demand = batch.noise[:, batch.t]
        zones = self._zone[cells] + self.n_zones * np.arange(len(demand))[:, None]
        supply = np.bincount(zones.ravel(), minlength=demand.size).reshape(demand.shape)
        nxt = Snapshot(batch.t + 1, cells, batch.noise)
        return StepResult(nxt, cells, self.mismatch_reward(supply, demand))

    def _sq_distances(self, snapshot: Snapshot) -> np.ndarray:
        return torus_sq_pairwise(self._xy[snapshot.states],
                                 (self.config.grid_width, self.config.grid_height))
