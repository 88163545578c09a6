"""Shared environment plumbing.

All environments expose the same surface:

    env.reset(seed) -> Snapshot                      (the start at t = 0)
    env.step_batch(batch, actions) -> StepResult     (B episodes at once)
    env.step(snapshot, actions) -> StepResult        (one episode: a batch of one)
    env.observation_graph(snapshot) -> (N, N) bool adjacency within comm_radius

A snapshot is a value: stepping it twice with the same actions gives the
same bytes.  An episode draws all of its process noise when it is reset,
one row per step (``Snapshot.noise``, from the env's ``_noise``), and step t
reads row t; an episode has ``horizon`` steps, and a step at t >= horizon is
refused.  Initial agent layout is fixed by the config, not the reset seed,
so agent identities keep their meaning across episodes of one experiment.
So each environment builds its start once, in its constructor:
``initial_states``, plus ``initial_pos`` and ``initial_headings`` (vicsek
only: a taxi's position is its cell, the state).  ``MeanFieldEnv.reset`` is
the one reset for every environment: it returns copies of those arrays and
the noise of the seed.

Independent episodes step together as a batch: ``stack_snapshots`` puts B
snapshots on a leading axis, and ``step_batch`` advances them with (B, N)
actions.  Each episode keeps its own noise, so an episode's bytes do not
depend on the batch it runs in.  Each environment has one stepping kernel,
``_step_batch``: ``step_batch`` checks the (B, N) actions and runs it, and
``step`` checks the (N,) actions and runs it on a batch of one episode.
"""

from __future__ import annotations

import numbers
import typing
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from ..core import seed_rng
from ..errors import InvalidConfigError, InvalidInputError


@dataclass
class Snapshot:
    """One episode, or a batch of B: arrays with a leading axis for the batch.

    ``noise`` is the episode's process noise, drawn at reset: one row per
    step, (T, ...), or (B, T, ...) in a batch; None where the dynamics draw
    none (vicsek).
    """

    t: int
    states: np.ndarray
    noise: Optional[np.ndarray] = None
    pos: Optional[np.ndarray] = None        # Vicsek only
    headings: Optional[np.ndarray] = None   # Vicsek only

    def episodes(self) -> list:
        """The single-episode snapshots of a batch, as views of its arrays."""
        def row(a, b):
            return None if a is None else a[b]

        return [Snapshot(self.t, self.states[b], row(self.noise, b), row(self.pos, b),
                         row(self.headings, b))
                for b in range(len(self.states))]


def stack_snapshots(snapshots) -> Snapshot:
    """A batch of the given single-episode snapshots, all at the same t;
    InvalidInputError for no snapshots at all."""
    if not snapshots:
        raise InvalidInputError("cannot stack an empty list of snapshots")
    first = snapshots[0]

    def stack(name):
        return None if getattr(first, name) is None \
            else np.array([getattr(s, name) for s in snapshots])

    return Snapshot(first.t, stack("states"), stack("noise"), stack("pos"), stack("headings"))


@dataclass
class StepResult:
    snapshot: Snapshot
    states: np.ndarray
    reward: float                           # a (B,) array from step_batch


class MeanFieldEnv:
    """Base class; subclasses build the start in their constructor and fill in
    _step_batch and _sq_distances, the (N, N) squared distances of an episode."""

    config = None
    initial_states: np.ndarray
    initial_pos: Optional[np.ndarray] = None        # Vicsek only
    initial_headings: Optional[np.ndarray] = None   # Vicsek only

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

    def reset(self, seed=None) -> Snapshot:
        """The episode start at t = 0: copies of the start's arrays, and the noise
        of ``seed`` (the config's seed when None)."""
        def copy(a):
            return None if a is None else a.copy()

        noise = self._noise(seed_rng(self.config.seed if seed is None else seed))
        return Snapshot(0, self.initial_states.copy(), noise, copy(self.initial_pos),
                        copy(self.initial_headings))

    def _noise(self, rng) -> Optional[np.ndarray]:
        """An episode's process noise, one row per step, drawn from ``rng``."""
        return None

    def _step_batch(self, batch: Snapshot, actions: np.ndarray) -> StepResult:
        """The stepping kernel: (B, N) actions already checked; rewards are (B,)."""
        raise NotImplementedError

    def step_batch(self, batch: Snapshot, actions) -> StepResult:
        """Advance a batch of B episodes by (B, N) actions; rewards are (B,)."""
        return self._step_batch(batch, self._check_actions(batch, actions))

    def step(self, snapshot: Snapshot, actions) -> StepResult:
        """Advance one episode by (N,) actions: the kernel on a batch of one,
        with a float reward.  The actions are checked once, as (N,)."""
        actions = self._check_actions(snapshot, actions)
        res = self._step_batch(stack_snapshots([snapshot]), actions[None])
        [nxt] = res.snapshot.episodes()
        return StepResult(nxt, nxt.states, float(res.reward[0]))

    def _sq_distances(self, snapshot: Snapshot) -> np.ndarray:
        raise NotImplementedError

    def observation_graph(self, snapshot: Snapshot) -> np.ndarray:
        """Symmetric boolean adjacency: squared distance <= comm_radius**2, no self loops."""
        adj = self._sq_distances(snapshot) <= self.config.comm_radius ** 2
        np.fill_diagonal(adj, False)
        return adj

    def _check_actions(self, snapshot: Snapshot, actions) -> np.ndarray:
        """Integer actions (never cast), one per agent (per episode of a batch), in
        range, on a snapshot before the horizon."""
        if snapshot.t >= self.horizon:
            raise InvalidInputError(f"the episode is over: a step at t = {snapshot.t}, "
                                    f"horizon {self.horizon}")
        actions = np.asarray(actions)
        expected = np.shape(snapshot.states)[:-1] + (self.n_agents,)
        if actions.shape != expected:
            raise InvalidInputError(
                f"expected actions of shape {expected}, got shape {actions.shape}")
        if actions.dtype.kind not in "iu":
            raise InvalidInputError(f"actions must be integers, got dtype {actions.dtype}")
        if actions.min() < 0 or actions.max() >= self.n_actions:
            raise InvalidInputError("action index out of range")
        return actions


def torus_sq_pairwise(pos, lengths, work=None, rows=slice(None)) -> np.ndarray:
    """(..., N, N) squared minimal-image distances of (..., N, 2) positions on a torus.

    Per axis of side L, min(d, L - d) with d = |x_i - x_j|: no float modulo,
    valid for coordinates in [0, L] (both torus envs keep them in [0, L)).
    ``rows`` picks the i of a block of rows: (..., R, N) from the R positions
    pos[..., rows, :] to all N.  Works in place in a (2, 2, ..., R, N) buffer,
    ``work`` if given, else a new one; the result is ``work[1, 0]``.
    """
    pos = np.asarray(pos, dtype=float)
    coords = np.moveaxis(pos, -1, 0)                       # (2, ..., N)
    # x_i - x_j as the product [x_i, 1] @ [1, -x_j]: both terms are exact, so the
    # one rounding of their sum is the subtraction's, and BLAS writes whole rows
    # where a broadcast subtract steps the rows one at a time
    lhs = np.ones(coords[..., rows].shape + (2,))
    lhs[..., 0] = coords[..., rows]
    rhs = np.ones(coords.shape[:-1] + (2,) + coords.shape[-1:])
    np.negative(coords, out=rhs[..., 1, :])
    if work is None:
        work = np.empty((2,) + lhs.shape[:-1] + coords.shape[-1:])
    diff, far = work
    np.abs(np.matmul(lhs, rhs, out=diff), out=diff)
    np.subtract(np.reshape(lengths, (-1,) + (1,) * (diff.ndim - 1)), diff, out=far)
    np.square(np.minimum(diff, far, out=diff), out=diff)
    return np.add(diff[0], diff[1], out=far[0])


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
        return True         # left to the dataclass's own __post_init__()
    if isinstance(value, bool) and annotation is not bool:
        return False
    return isinstance(value, accepted)


def _type_name(annotation) -> str:
    if typing.get_origin(annotation) is typing.Union:
        return " or ".join(_type_name(a) for a in typing.get_args(annotation))
    return "None" if annotation is type(None) else annotation.__name__


def _check_field_types(cls, raw: dict, error, where: str):
    """Raise `error` naming the first value that does not fit its annotation, or an
    integer other than a seed (numpy seeds from any size) that does not fit in 64 bits."""
    hints = typing.get_type_hints(cls)
    for name, value in raw.items():
        if name in hints and not _type_matches(value, hints[name]):
            raise error(f"key '{name}' in {where} must be {_type_name(hints[name])}, "
                        f"got {value!r}")
        if isinstance(value, int) and not -2 ** 63 <= value < 2 ** 63 and name != "seed":
            raise error(f"key '{name}' in {where} must fit in 64 bits, got {value!r}")


def require_finite(cfg, *names):
    """InvalidConfigError naming the first of the given settings that is NaN or infinite."""
    for name in names:
        value = getattr(cfg, name)
        if not np.isfinite(value):
            raise InvalidConfigError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class EnvConfig:
    """The settings every environment has, checked here once.  A subclass
    declares ``env_name`` with its own name as the default, then its own
    settings, and redeclares only the defaults here that differ."""

    n_agents: int = 16
    horizon: int = 50
    gamma: float = 0.95
    seed: int = 0

    def __post_init__(self):
        if self.env_name != type(self).env_name:
            raise InvalidConfigError(f"env_name mismatch: {self.env_name}")
        if self.n_agents < 1:
            raise InvalidConfigError("n_agents must be >= 1")
        if self.horizon < 1:
            raise InvalidConfigError("horizon must be >= 1")
        if not (0.0 <= self.gamma < 1.0):
            raise InvalidConfigError("gamma must be in [0, 1)")
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")


def build_config(cls, raw, error=InvalidConfigError, where=None):
    """A validated ``cls`` from a config mapping, strictly: a value that is not a
    mapping, an unknown key, a mistyped value or an integer beyond 64 bits (a seed
    excepted) raises ``error`` naming it and ``where`` (default: the class name).
    None, an empty yaml section, is {}."""
    where = where or cls.__name__
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise error(f"{where} must be a mapping")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)}, key=str)
    if unknown:
        raise error(f"unknown key '{unknown[0]}' in {where}")
    _check_field_types(cls, raw, error, where)
    return cls(**raw)
