"""Budget-conditioned pessimistic values from cooperative data.

Stage one fits the cooperative action-value Q(s, a) on logged trajectories
by minimizing the squared TD residual with the logged next action (policy
evaluation of the data-collecting policy).  Both stages are solved, not
iterated: the corpus is aggregated by (cell, next cell), and one dense linear
solve over the visited cells gives each of them the exact corpus fixed point
of the mean of its target.

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
from .qlearn import CHECKPOINT_MAGIC, QModel, _read_checkpoint, malformed_artifact, write_atomic


@dataclass
class FitConfig:
    p: float = np.inf          # deviation norm order; regularizer uses its dual

    def validate(self):
        if not self.p >= 1:  # also refuses NaN
            raise InvalidConfigError("norm order must be in [1, inf]")


# -- corpus -------------------------------------------------------------------


@dataclass
class TransitionCorpus:
    """Flattened per-agent (s, a, r, s', a') records."""

    s: np.ndarray
    a: np.ndarray
    r: np.ndarray
    s2: np.ndarray
    a2: np.ndarray

    @property
    def size(self) -> int:
        return self.s.size


def build_corpus(trajectories) -> TransitionCorpus:
    """Pairs consecutive steps of each trajectory into per-agent transitions."""
    cols = {k: [] for k in ("s", "a", "r", "s2", "a2")}
    for traj in trajectories:
        for cur, nxt in zip(traj.steps, traj.steps[1:]):
            cols["s"].append(cur.states)
            cols["a"].append(cur.actions)
            cols["r"].append(np.full(cur.states.size, cur.reward))
            cols["s2"].append(nxt.states)
            cols["a2"].append(nxt.actions)
    if not cols["s"]:
        raise InvalidInputError("corpus needs trajectories with at least 2 steps")
    packed = {k: np.concatenate(v) for k, v in cols.items()}
    for key in ("s", "a", "s2", "a2"):
        packed[key] = packed[key].astype(int)
    return TransitionCorpus(**packed)


# -- cooperative Q fit ----------------------------------------------------------


def fit_cooperative_q(trajectories, n_states: int, n_actions: int, gamma: float,
                      cfg: FitConfig) -> QModel:
    """Policy evaluation of the logging policy: Q(s, a) is the corpus fixed point
    of the mean of r + gamma * Q(s', a') (see _solve); unvisited cells stay zero.
    ``cfg`` is accepted and not used (the Q fit has no setting)."""
    model = QModel(n_states, n_actions, gamma)
    corpus = build_corpus(trajectories)
    shape = model.table.shape
    idx = np.ravel_multi_index((corpus.s, corpus.a), shape)
    idx2 = np.ravel_multi_index((corpus.s2, corpus.a2), shape)
    model.table = _solve(idx, idx2, [corpus.r], model.table.size, gamma)[0].reshape(shape)
    np.add.at(model.visits.ravel(), idx, 1)
    return model


def _solve(cell, next_cell, rewards, n_cells: int, gamma: float) -> np.ndarray:
    """The corpus fixed point x = mean of r + gamma * x[next cell] per visited
    cell, one row per reward vector in ``rewards``; unvisited cells stay 0.

    With visit counts, reward sums R and distinct-pair counts M, the visited
    cells solve A x = R, A = diag(count) - gamma * M (a next cell that is never
    a source counts as 0).  gamma < 1 makes A strictly diagonally dominant by
    rows, so the LU of A^T needs no row exchange and its inverse is >= 0
    entrywise: x = R^T (A^T)^-1 keeps damp >= 0 to the last bit, where a
    pivoting solve of A can leave -1e-15 at an exact 0.  A is dense: memory is
    (visited cells)^2 floats, 134 Q cells on taxi and 40 on vicsek at every N.
    """
    pairs, mult = np.unique(cell * n_cells + next_cell, return_counts=True)
    src, dst = np.divmod(pairs, n_cells)
    cells, starts = np.unique(src, return_index=True)  # src is sorted: one run per cell
    pos = np.full(n_cells, -1)
    pos[cells] = np.arange(cells.size)
    lhs = np.diag(np.add.reduceat(mult, starts).astype(float))
    live = pos[dst] >= 0
    lhs[pos[src[live]], pos[dst[live]]] -= gamma * mult[live]  # pairs are distinct
    sums = np.array([np.bincount(cell, weights=r)[cells] for r in rewards])
    x = np.zeros((len(rewards), n_cells))
    x[:, cells] = sums @ np.linalg.inv(lhs.T)
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
        flat = np.concatenate([self.base, self.damp])
        lines = [CHECKPOINT_MAGIC, "kind robustvalue", "backend tabular",
                 f"n_states {self.n_states}", f"n_actions {self.n_actions}",
                 f"gamma {self.gamma!r}", f"p {self.p!r}",
                 "budget_form base-minus-w-damp w=eps+xi+eps*xi",
                 f"values {flat.size}"]
        lines.extend(f"{v:.17g}" for v in flat)
        write_atomic(path, "\n".join(lines) + "\n")

    @staticmethod
    def load(path) -> "RobustValueModel":
        header, flat = _read_checkpoint(path, expected_kind="robustvalue")
        with malformed_artifact(path):
            n_states = int(header["n_states"])
            # reshape before allocating, so a bad header cannot size the tables
            base, damp = flat.reshape(2, n_states)
            model = RobustValueModel(n_states, int(header["n_actions"]),
                                     float(header["gamma"]), p=float(header["p"]))
        model.base, model.damp = base, damp
        return model


def _q_penalty_rows(q_model: QModel, corpus: TransitionCorpus, qdual: float) -> np.ndarray:
    """||Q(s, .)||_q per transition, computed once per state."""
    rows = np.abs(q_model.table)
    if np.isinf(qdual):
        norms = rows.max(axis=1)
    else:
        norms = (rows ** qdual).sum(axis=1) ** (1.0 / qdual)
    return norms[corpus.s]


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
    cfg.validate()
    model = RobustValueModel(q_model.n_states, q_model.n_actions, q_model.gamma, p=cfg.p)
    corpus = build_corpus(trajectories)
    penalty = _q_penalty_rows(q_model, corpus, dual_order(cfg.p))
    model.base, model.damp = _solve(corpus.s, corpus.s2, [corpus.r, penalty],
                                    q_model.n_states, q_model.gamma)
    return model
