"""Shared environment plumbing.

All environments expose the same surface:

    env.reset(seed) -> Snapshot
    env.step(snapshot, actions) -> StepResult
    env.step_batch(batch, actions) -> StepResult     (B episodes at once)
    env.observation_graph(snapshot, radius=None) -> (N, N) bool adjacency

Snapshots are passed explicitly so rollouts stay replayable; the snapshot
owns the stream of process noise (single writer, do not step one snapshot
from two threads).  Initial agent layout is fixed by the config, not the
reset seed, so agent identities keep their meaning across episodes of one
experiment.

Independent episodes step together as a batch: ``stack_snapshots`` puts B
snapshots on a leading axis, and ``step_batch`` advances them with (B, N)
actions.  Each episode keeps its own noise stream, so an episode's bytes do
not depend on the batch it runs in.  Taxi and vicsek step a batch in one
pass, and their ``step`` is the one-episode case of it; only toy still steps
a batch one episode at a time, through the default ``step_batch`` here.
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
    """One episode, or a batch of B: arrays with a leading axis and B rngs.

    ``demand`` (taxi only) holds the episode's per-zone demand rows drawn
    from ``rng`` but not yet used, one row per step still to come: (T, Z),
    or (B, T, Z) in a batch.  A snapshot that has no table, or an empty
    one, draws the next table from ``rng`` when it is stepped.

    Step a snapshot once.  It shares its rng with the snapshots stepped
    from it, so a second step from it does not replay the first: it draws
    from a generator that has already moved on, or, on taxi, reuses the
    demand row the first step used.
    """

    t: int
    states: np.ndarray
    rng: np.random.Generator                # a list of B generators in a batch
    pos: Optional[np.ndarray] = None        # continuous (Vicsek) or cell coords (Taxi)
    headings: Optional[np.ndarray] = None   # Vicsek only
    demand: Optional[np.ndarray] = None     # Taxi only: demand rows still to use

    @property
    def n_agents(self) -> int:
        return self.states.shape[-1]

    def episodes(self) -> list:
        """The single-episode snapshots of a batch, as views of its arrays."""
        return [Snapshot(self.t, self.states[b], rng,
                         None if self.pos is None else self.pos[b],
                         None if self.headings is None else self.headings[b],
                         None if self.demand is None else self.demand[b])
                for b, rng in enumerate(self.rng)]


def stack_snapshots(snapshots) -> Snapshot:
    """A batch of the given single-episode snapshots, all at the same t.

    Demand tables must be on all of them or on none: InvalidInputError
    otherwise (a taxi snapshot that lost its table would draw again from a
    generator that has already moved on).
    """
    first = snapshots[0]
    if len(snapshots) > 1 and len({s.demand is None for s in snapshots}) > 1:
        raise InvalidInputError("cannot stack snapshots with and without demand tables")

    def stack(name):
        return None if getattr(first, name) is None \
            else np.array([getattr(s, name) for s in snapshots])

    return Snapshot(first.t, stack("states"), [s.rng for s in snapshots],
                    stack("pos"), stack("headings"), stack("demand"))


@dataclass
class StepResult:
    snapshot: Snapshot
    states: np.ndarray
    reward: float                           # a (B,) array from step_batch


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

    def step_batch(self, batch: Snapshot, actions) -> StepResult:
        """Advance a batch of B episodes by (B, N) actions; rewards are (B,).

        This default steps the episodes one at a time through ``step``; only
        toy uses it (taxi and vicsek have batch kernels of their own).
        """
        actions = self._check_actions(batch, actions)
        results = [self.step(snap, a) for snap, a in zip(batch.episodes(), actions)]
        nxt = stack_snapshots([res.snapshot for res in results])
        return StepResult(nxt, nxt.states, np.array([res.reward for res in results]))

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
        """Actions as ints, one per agent (per episode of a batch), all in range."""
        actions = np.asarray(actions, dtype=int)
        expected = np.shape(snapshot.states)[:-1] + (self.n_agents,)
        if actions.shape != expected:
            raise InvalidInputError(
                f"expected actions of shape {expected}, got shape {actions.shape}")
        if actions.min() < 0 or actions.max() >= self.n_actions:
            raise InvalidInputError("action index out of range")
        return actions

    def _finish_step(self, snapshot: Snapshot, reward: float) -> StepResult:
        return StepResult(snapshot, snapshot.states, float(reward))


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


def torus_pairwise(pos, lengths) -> np.ndarray:
    """Euclidean pairwise distances on a torus; see torus_sq_pairwise."""
    return np.sqrt(torus_sq_pairwise(pos, lengths))


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


def require_finite(cfg, *names):
    """InvalidConfigError naming the first of the given settings that is NaN or infinite."""
    for name in names:
        value = getattr(cfg, name)
        if not np.isfinite(value):
            raise InvalidConfigError(f"{name} must be finite, got {value!r}")


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
