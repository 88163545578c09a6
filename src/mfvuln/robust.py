"""Budget-conditioned pessimistic values from cooperative data.

Stage one fits the cooperative action-value Q(s, a) on logged trajectories
by minimizing the squared TD residual with the logged next action (policy
evaluation of the data-collecting policy).  Both stages are solved, not
iterated.  One pass over the trajectories, one at a time, gathers the
sufficient statistics: per-cell visit counts and reward sums, and the count
of each distinct (cell, next cell) pair.  One dense linear solve over the
visited cells then gives each of them the exact corpus fixed point of the
mean of its target.  The solve is Gaussian elimination in numpy ufuncs,
with no LAPACK or BLAS call.  The system is strictly diagonally dominant
with off-diagonal entries <= 0, so it needs no pivot and no step can turn a
nonnegative solution negative; n visited cells cost n^3 / 3 flops over n
numpy steps, a few milliseconds at a few hundred.  The per-transition corpus
is never built, so memory is one trajectory's intp cells, the distinct pairs
and the visited-cell matrix, not O(transitions).

Stage two folds corruption budgets in without any adversarial rollouts:
for a per-agent budget eps and population budget xi, the backup gets the
pessimistic penalty

    target = r + gamma * V(s', eps, xi) - (eps + xi + eps*xi) * ||Q(s, .)||_q

where q is the Hoelder conjugate of the deviation norm order p.  The
penalty prices the worst first-order damage a corrupted own action (eps)
and a corrupted population action profile (xi) can do to the Q row.
Because the penalty shifts rewards but not dynamics, the fixed point is
exactly linear in w = eps + xi + eps*xi, and the model is parametrized that
way:

    V(s, eps, xi) = base(s) - w * damp(s),

with damp accumulating the discounted penalty along cooperative
trajectories.  The zero-budget slice is then untouched policy evaluation,
and monotonicity in both budgets holds whenever damp >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import dual_order
from .errors import InvalidConfigError, InvalidInputError
from .qlearn import (CHECKPOINT_MAGIC, QModel, malformed_artifact, read_record, record_dims,
                     write_record)


@dataclass(frozen=True)
class FitConfig:
    p: float = np.inf          # deviation norm order; regularizer uses its dual

    def __post_init__(self):
        if not self.p >= 1:  # also refuses NaN
            raise InvalidConfigError("norm order must be in [1, inf]")


# -- sufficient statistics -------------------------------------------------------

def _stream_stats(trajectories, shape: tuple, penalty=None):
    """One pass over the trajectories, one at a time: per-cell visit counts,
    the (1, n_cells) per-cell reward sums (2 rows with ``penalty``, whose
    second row sums penalty[cell]), and the distinct (cell, next cell) pairs,
    keyed cell * n_cells + next cell, with their counts.

    A cell is a state, or a (state, action) for ``shape`` (n_states, n_actions),
    widened to intp before any index arithmetic.  Sums are added in corpus
    order (trajectory, step, agent), as ``np.bincount`` adds them over the
    concatenated corpus, so they are the same bits.  Each trajectory's pairs
    merge into the running ones before the next is read, so memory is one
    trajectory's cells, the distinct pairs and O(n_cells).
    """
    n_cells = int(np.prod(shape))
    count = np.zeros(n_cells, dtype=np.int64)
    sums = np.zeros((1 if penalty is None else 2, n_cells))
    pairs = np.empty(0, dtype=np.int64)
    mult = np.empty(0, dtype=np.int64)
    for traj in trajectories:
        cells = np.ravel_multi_index(tuple(getattr(traj, field).astype(np.intp)
                                           for field in ("states", "actions")[:len(shape)]),
                                     shape)
        cell = cells[:-1].ravel()
        count += np.bincount(cell, minlength=n_cells)
        np.add.at(sums[0], cell, np.repeat(traj.rewards[:-1], cells.shape[1]))
        if penalty is not None:
            np.add.at(sums[1], cell, penalty[cell])
        # return_counts=True takes numpy's sort path, which never imports numpy.ma
        new, new_mult = np.unique(cell * n_cells + cells[1:].ravel(), return_counts=True)
        pairs, inverse, _ = np.unique(np.concatenate([pairs, new]), return_inverse=True,
                                      return_counts=True)
        mult = np.bincount(inverse, np.concatenate([mult, new_mult]))
    if not count.any():
        raise InvalidInputError("corpus needs trajectories with at least 2 steps")
    return count, sums, pairs, mult


# -- cooperative Q fit ----------------------------------------------------------


def fit_cooperative_q(trajectories, n_states: int, n_actions: int, gamma: float,
                      cfg: FitConfig) -> QModel:
    """Policy evaluation of the logging policy: Q(s, a) is the corpus fixed point
    of the mean of r + gamma * Q(s', a') (see _solve); unvisited cells stay zero.
    ``cfg`` is accepted and not used (the Q fit has no setting)."""
    model = QModel(n_states, n_actions, gamma)
    shape = model.table.shape
    count, sums, pairs, mult = _stream_stats(trajectories, shape)
    model.table = _solve(count, sums, pairs, mult, gamma)[0].reshape(shape)
    model.visits = count.reshape(shape)
    return model


def _solve(count, sums, pairs, mult, gamma: float) -> np.ndarray:
    """The corpus fixed point x = mean of r + gamma * x[next cell] per visited
    cell, one row per row of reward sums; unvisited cells stay 0.

    With visit counts, reward sums R and distinct-pair counts M, the visited
    cells solve A x = R, A = diag(count) - gamma * M (a next cell that is never
    a source counts as 0), by Gaussian elimination and back substitution.
    gamma < 1 makes A strictly diagonally dominant by rows, so no pivot is
    needed.  Every off-diagonal entry of A is <= 0 and every pivot > 0, so
    every multiplier is <= 0: an update subtracts a product >= 0 from an
    off-diagonal entry and adds one >= 0 to a right-hand side, and back
    substitution only adds terms >= 0.  A right-hand side >= 0, as damp's
    is, thus gives x >= 0 to the last bit.  The cost is n^3 / 3 flops over
    n numpy steps for n visited cells, and A is dense: n^2 floats besides
    the streamed statistics, never the corpus.  Seed 0 visits 134 of taxi's
    500 Q cells and 16 of vicsek's 40 (configs/*.yaml).
    """
    n_cells = count.size
    src, dst = np.divmod(pairs, n_cells)
    cells = np.flatnonzero(count)
    pos = np.full(n_cells, -1)
    pos[cells] = np.arange(cells.size)
    lhs = np.diag(count[cells].astype(float))
    live = pos[dst] >= 0
    lhs[pos[src[live]], pos[dst[live]]] -= gamma * mult[live]  # pairs are distinct
    rhs = sums[:, cells].T.copy()
    for i in range(cells.size - 1):
        m = lhs[i + 1:, i] / lhs[i, i]
        lhs[i + 1:, i + 1:] -= np.multiply.outer(m, lhs[i, i + 1:])
        rhs[i + 1:] -= np.multiply.outer(m, rhs[i])
    for i in reversed(range(cells.size)):
        rhs[i] /= lhs[i, i]
        rhs[:i] -= np.multiply.outer(lhs[:i, i], rhs[i])
    x = np.zeros((len(sums), n_cells))
    x[:, cells] = rhs.T
    return x


# -- budget-conditioned value model ----------------------------------------------


class RobustValueModel:
    """V(s, eps, xi) = base(s) - (eps + xi + eps*xi) * damp(s); base and damp are (n_states,)."""

    def __init__(self, n_states: int, n_actions: int, gamma: float, p=np.inf):
        self.n_states = n_states
        self.n_actions = n_actions
        self.gamma = gamma
        self.p = p
        self.base = np.zeros(n_states)
        self.damp = np.zeros(n_states)

    @staticmethod
    def budget_weight(eps, xi):
        eps = np.asarray(eps, dtype=float)
        xi = np.asarray(xi, dtype=float)
        if np.any(eps < 0) or np.any(eps > 1) or np.any(xi < 0) or np.any(xi > 1):
            raise InvalidInputError("budgets must lie in [0, 1]")
        return eps + xi + eps * xi

    def value(self, s, eps: float, xi: float) -> float:
        w = float(self.budget_weight(eps, xi))
        return float(self.base[int(s)] - w * self.damp[int(s)])

    def values(self, states, eps_vec, xi: float) -> np.ndarray:
        """Vectorized per-agent values under a shared xi."""
        states = np.asarray(states, dtype=int)
        w = self.budget_weight(np.asarray(eps_vec, dtype=float), xi)
        return self.base[states] - w * self.damp[states]

    def save(self, path):
        write_record(path, CHECKPOINT_MAGIC, {
            "kind": "robustvalue", "n_states": self.n_states, "n_actions": self.n_actions,
            "gamma": repr(self.gamma), "p": repr(self.p)}, np.concatenate([self.base, self.damp]))

    @staticmethod
    def load(path) -> "RobustValueModel":
        header, flat = read_record(path, CHECKPOINT_MAGIC, "robustvalue")
        with malformed_artifact(path):
            # reshape before allocating, so a bad header cannot size the tables
            n_states, n_actions = record_dims(header)
            base, damp = flat.reshape(2, n_states)
            gamma, p = float(header["gamma"]), float(header["p"])
            if not (0.0 <= gamma < 1.0 and p >= 1.0):   # p may be inf, never NaN
                raise ValueError(f"gamma {gamma!r} must be in [0, 1) and p {p!r} at least 1")
            model = RobustValueModel(n_states, n_actions, gamma, p=p)
        model.base, model.damp = base, damp
        return model


def _q_norms(q_model: QModel, qdual: float) -> np.ndarray:
    """||Q(s, .)||_q per state."""
    rows = np.abs(q_model.table)
    if np.isinf(qdual):
        return rows.max(axis=1)
    return (rows ** qdual).sum(axis=1) ** (1.0 / qdual)


def fit_robust_value(q_model: QModel, trajectories, cfg: FitConfig) -> RobustValueModel:
    """Fit the budget-conditioned value on cooperative data.

    The pessimistic target r + gamma*V(s', w) - w*||Q(s,.)||_q is exactly
    linear in the budget weight w, so the expected residual over budget
    draws (xi uniform, eps ~ Bernoulli(xi)) is minimized component-wise:
    the intercept (reward r) is plain policy evaluation and the slope
    (reward ||Q(s,.)||_q) accumulates the discounted penalty; both are
    right-hand sides of one linear solve over the visited states (see
    _solve), whose dense matrix takes (visited states)^2 floats.  Sampling w
    per transition and regressing on [1, -w] converges to the same fixed
    point but carries slope-scale noise into the intercept on small cells;
    the decoupled solution is that estimator's zero-variance limit.
    """
    model = RobustValueModel(q_model.n_states, q_model.n_actions, q_model.gamma, p=cfg.p)
    count, sums, pairs, mult = _stream_stats(
        trajectories, (q_model.n_states,), penalty=_q_norms(q_model, dual_order(cfg.p)))
    model.base, model.damp = _solve(count, sums, pairs, mult, q_model.gamma)
    return model
