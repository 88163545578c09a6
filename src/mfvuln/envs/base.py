"""Shared environment plumbing.

All environments expose the same surface:

    env.reset(seed) -> Snapshot
    env.step(snapshot, actions) -> StepResult
    env.observation_graph(snapshot, radius=None) -> (N, N) bool adjacency

Snapshots are passed explicitly so rollouts stay replayable; the snapshot
owns the stream of process noise (single writer, do not step one snapshot
from two threads).  Initial agent layout is fixed by the config, not the
reset seed, so agent identities keep their meaning across episodes of one
experiment.
"""

from __future__ import annotations

import numbers
import typing
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from ..errors import InvalidConfigError, InvalidInputError


@dataclass
class Snapshot:
    t: int
    states: np.ndarray
    rng: np.random.Generator
    pos: Optional[np.ndarray] = None        # continuous (Vicsek) or cell coords (Taxi)
    headings: Optional[np.ndarray] = None   # Vicsek only

    @property
    def n_agents(self) -> int:
        return self.states.size


@dataclass
class StepResult:
    snapshot: Snapshot
    states: np.ndarray
    reward: float


class MeanFieldEnv:
    """Base class; subclasses fill in reset/step and a distance metric."""

    config = None

    @property
    def n_agents(self) -> int:
        return self.config.n_agents

    @property
    def n_actions(self) -> int:
        return self.config.n_actions

    @property
    def gamma(self) -> float:
        return self.config.gamma

    @property
    def horizon(self) -> int:
        return self.config.horizon

    n_states = 0

    def reset(self, seed=None) -> Snapshot:
        raise NotImplementedError

    def step(self, snapshot: Snapshot, actions) -> StepResult:
        raise NotImplementedError

    def _pairwise_distances(self, snapshot: Snapshot) -> np.ndarray:
        raise NotImplementedError

    def observation_graph(self, snapshot: Snapshot, radius=None) -> np.ndarray:
        """Symmetric boolean adjacency: within radius, no self loops."""
        r = self.config.comm_radius if radius is None else radius
        if r < 0:
            raise InvalidInputError(f"radius must be non-negative, got {r}")
        d = self._pairwise_distances(snapshot)
        adj = d <= r
        np.fill_diagonal(adj, False)
        return adj

    def _check_actions(self, snapshot: Snapshot, actions) -> np.ndarray:
        actions = np.asarray(actions, dtype=int)
        if actions.shape != (self.n_agents,):
            raise InvalidInputError(
                f"expected {self.n_agents} actions, got shape {actions.shape}")
        if np.any(actions < 0) or np.any(actions >= self.n_actions):
            raise InvalidInputError("action index out of range")
        return actions

    def _finish_step(self, snapshot: Snapshot, reward: float) -> StepResult:
        return StepResult(snapshot, snapshot.states, float(reward))


def torus_delta(diff, length: float) -> np.ndarray:
    """Minimal-image displacement on a periodic interval of given length."""
    return (np.asarray(diff) + length / 2.0) % length - length / 2.0


def torus_pairwise(pos, length: float) -> np.ndarray:
    """Euclidean pairwise distances on a square torus; pos is (N, 2)."""
    d = torus_delta(pos[:, None, :] - pos[None, :, :], length)
    return np.sqrt((d ** 2).sum(axis=2))


def agent_layout(n_agents: int):
    """(rows, cols) grid used to arrange per-agent exports, rows <= cols."""
    rows = int(np.floor(np.sqrt(n_agents)))
    while rows > 1 and n_agents % rows:
        rows -= 1
    return rows, n_agents // rows


def wrap_angle(theta):
    """Map angles to [-pi, pi)."""
    return (np.asarray(theta) + np.pi) % (2.0 * np.pi) - np.pi


# value types a config annotation accepts: an int is a valid float, a list
# a valid tuple (yaml has no tuples); bools are never numbers here
_ACCEPTS = {int: numbers.Integral, float: numbers.Real, bool: bool, str: str,
            list: (list, tuple), tuple: (list, tuple)}


def _type_matches(value, annotation) -> bool:
    if typing.get_origin(annotation) is typing.Union:
        return any(_type_matches(value, a) for a in typing.get_args(annotation))
    if annotation is type(None):
        return value is None
    accepted = _ACCEPTS.get(annotation)
    if accepted is None:
        return True         # left to the dataclass's own validate()
    if isinstance(value, bool) and annotation is not bool:
        return False
    return isinstance(value, accepted)


def _type_name(annotation) -> str:
    if typing.get_origin(annotation) is typing.Union:
        return " or ".join(_type_name(a) for a in typing.get_args(annotation))
    return "None" if annotation is type(None) else annotation.__name__


def check_field_types(cls, raw: dict, error, where: str):
    """Raise `error` naming the first value that does not fit its annotation."""
    hints = typing.get_type_hints(cls)
    for name, value in raw.items():
        if name in hints and not _type_matches(value, hints[name]):
            raise error(f"key '{name}' in {where} must be {_type_name(hints[name])}, "
                        f"got {value!r}")


def build_config(cls, raw: dict):
    """Strict dataclass construction: unknown keys and mistyped values are config errors."""
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(map(str, set(raw) - allowed))
    if unknown:
        raise InvalidConfigError(f"unknown config key(s) for {cls.__name__}: {', '.join(unknown)}")
    check_field_types(cls, raw, InvalidConfigError, cls.__name__)
    cfg = cls(**raw)
    cfg.validate()
    return cfg
