"""Budget-conditioned pessimistic values from cooperative data.

Stage one fits the cooperative action-value Q(s, a, mu, nu) on logged
trajectories by minimizing the squared TD residual with the logged next
action (policy evaluation of the data-collecting policy).

Stage two folds corruption budgets in without any adversarial rollouts:
for a per-agent budget eps and population budget xi, the backup gets the
pessimistic penalty

    target = r + gamma * V(s', mu', eps, xi) - (eps + xi + eps*xi) * ||Q(s, ., mu, nu)||_q

where q is the Hoelder conjugate of the deviation norm order p.  The
penalty prices the worst first-order damage a corrupted own action (eps)
and a corrupted population action profile (xi) can do to the Q row.
Because the penalty shifts rewards but not dynamics, the fixed point is
exactly linear in w = eps + xi + eps*xi, and the model is parametrized that
way:

    V(s, mu, eps, xi) = base(s, mu) - w * damp(s, mu),

with damp accumulating the discounted penalty along cooperative
trajectories.  The zero-budget slice is then untouched policy evaluation,
and monotonicity in both budgets holds whenever damp >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import dual_order, lp_norm
from .errors import InvalidConfigError, InvalidInputError
from .qlearn import (CHECKPOINT_MAGIC, BinningConfig, MeanFieldBinner, QModel,
                     _read_checkpoint, malformed_artifact, write_atomic)

W_MAX = 3.0  # sup of eps + xi + eps*xi over the unit budget square


@dataclass
class FitConfig(BinningConfig):
    sweeps: int = 300
    tol: float = 1e-11
    p: float = np.inf          # deviation norm order; regularizer uses its dual
    joint_norm: bool = False   # penalize the (a, nu-bin) block instead of one row
    seed: int = 0

    def validate(self):
        if self.sweeps < 1:
            raise InvalidConfigError("sweeps must be >= 1")
        if self.mu_bins < 1 or self.nu_bins < 1:
            raise InvalidConfigError("bin counts must be >= 1")
        if not np.isinf(self.p) and self.p < 1:
            raise InvalidConfigError("norm order must be in [1, inf]")


# -- corpus -------------------------------------------------------------------


@dataclass
class TransitionCorpus:
    """Flattened (s, a, r, s', a') records plus the shared per-step mean-field actions."""

    s: np.ndarray
    a: np.ndarray
    r: np.ndarray
    s2: np.ndarray
    a2: np.ndarray
    mu_bin: np.ndarray
    nu_bin: np.ndarray
    mu_bin2: np.ndarray
    nu_bin2: np.ndarray
    step_nu: np.ndarray     # (n_step_records, A)
    n_states: int
    n_actions: int

    @property
    def size(self) -> int:
        return self.s.size


def build_corpus(trajectories, n_states: int, n_actions: int,
                 mu_binner: MeanFieldBinner, nu_binner: MeanFieldBinner) -> TransitionCorpus:
    """Pairs consecutive steps of each trajectory into per-agent transitions."""
    cols = {k: [] for k in ("s", "a", "r", "s2", "a2", "mu_bin", "nu_bin",
                            "mu_bin2", "nu_bin2")}
    step_nu = []
    for traj in trajectories:
        step_nu.extend(st.nu for st in traj.steps)
        for t in range(len(traj.steps) - 1):
            cur, nxt = traj.steps[t], traj.steps[t + 1]
            n = cur.states.size
            cols["s"].append(cur.states)
            cols["a"].append(cur.actions)
            cols["r"].append(np.full(n, cur.reward))
            cols["s2"].append(nxt.states)
            cols["a2"].append(nxt.actions)
            cols["mu_bin"].append(np.full(n, mu_binner.bin(cur.mu)))
            cols["nu_bin"].append(np.full(n, nu_binner.bin(cur.nu)))
            cols["mu_bin2"].append(np.full(n, mu_binner.bin(nxt.mu)))
            cols["nu_bin2"].append(np.full(n, nu_binner.bin(nxt.nu)))
    if not cols["s"]:
        raise InvalidInputError("corpus needs trajectories with at least 2 steps")
    packed = {k: np.concatenate(v) for k, v in cols.items()}
    for key in ("s", "a", "s2", "a2", "mu_bin", "nu_bin", "mu_bin2", "nu_bin2"):
        packed[key] = packed[key].astype(int)
    return TransitionCorpus(step_nu=np.asarray(step_nu), n_states=n_states,
                            n_actions=n_actions, **packed)


# -- cooperative Q fit ----------------------------------------------------------


def fit_cooperative_q(trajectories, n_states: int, n_actions: int, gamma: float,
                      cfg: FitConfig) -> QModel:
    """Policy evaluation of the logging policy by repeated fitted-TD sweeps.

    Each sweep replaces every visited (s, a, mu-bin, nu-bin) cell with the
    mean of r + gamma * Q(s', a', mu'-bin, nu'-bin) over the corpus; unvisited
    cells stay at zero.  The sweep map is a gamma-contraction on the visited
    block, so the iteration settles at the corpus' empirical fixed point.
    """
    cfg.validate()
    model = cfg.q_model(n_states, n_actions, gamma)
    corpus = build_corpus(trajectories, n_states, n_actions, model.mu_binner, model.nu_binner)
    model.nu_hat = corpus.step_nu.mean(axis=0)

    shape = model.table.shape
    idx = np.ravel_multi_index((corpus.s, corpus.a, corpus.mu_bin, corpus.nu_bin), shape)
    idx2 = np.ravel_multi_index((corpus.s2, corpus.a2, corpus.mu_bin2, corpus.nu_bin2), shape)
    counts = np.bincount(idx, minlength=model.table.size).astype(float)
    visited = counts > 0
    flat = model.table.ravel()
    for _ in range(cfg.sweeps):
        targets = corpus.r + gamma * flat[idx2]
        sums = np.bincount(idx, weights=targets, minlength=flat.size)
        new = np.where(visited, sums / np.maximum(counts, 1.0), 0.0)
        delta = np.max(np.abs(new - flat))
        flat = new
        if delta < cfg.tol:
            break
    model.table = flat.reshape(shape)
    np.add.at(model.visits.ravel(), idx, 1)
    return model


# -- regularizer and robust backup ----------------------------------------------


def regularizer(q_row, eps: float, xi: float, p=np.inf) -> float:
    """(eps + xi + eps*xi) * ||q_row||_q with q the dual of p.

    The weight decomposes as (1+eps)*(1+xi) - 1: the own-action share, the
    population share, and their interaction.
    """
    if not (0.0 <= eps <= 1.0) or not (0.0 <= xi <= 1.0):
        raise InvalidInputError("budgets must lie in [0, 1]")
    return (eps + xi + eps * xi) * lp_norm(np.ravel(q_row), dual_order(p))


@dataclass
class TransitionSample:
    """One logged step: enough context to apply the pessimistic backup."""

    s: int
    a: int
    r: float
    s_next: int
    mu: np.ndarray
    nu: np.ndarray
    mu_next: np.ndarray


def apply_robust_bellman(value_model, q_model: QModel, sample: TransitionSample,
                         eps: float, xi: float) -> float:
    """Sampled pessimistic backup; see the module docstring for the form."""
    q_row = q_model.values(np.array([sample.s]), sample.mu, sample.nu)[0]
    if value_model.joint_norm:
        mb = q_model.mu_binner.bin(sample.mu)
        q_row = q_model.table[int(sample.s), :, mb, :].ravel()
    bootstrap = value_model.value(sample.s_next, sample.mu_next, eps, xi)
    return float(sample.r + value_model.gamma * bootstrap
                 - regularizer(q_row, eps, xi, value_model.p))


# -- budget-conditioned value model ----------------------------------------------


class RobustValueModel:
    """V(s, mu, eps, xi) = base(s, mu) - (eps + xi + eps*xi) * damp(s, mu).

    base and damp are tables over (s, mu_bin).
    """

    def __init__(self, n_states: int, n_actions: int, gamma: float, p=np.inf,
                 mu_binner: Optional[MeanFieldBinner] = None,
                 joint_norm: bool = False):
        self.n_states = n_states
        self.n_actions = n_actions
        self.gamma = gamma
        self.p = p
        self.joint_norm = joint_norm
        self.mu_binner = mu_binner or MeanFieldBinner()
        self.base = np.zeros((n_states, self.mu_binner.n_bins))
        self.damp = np.zeros((n_states, self.mu_binner.n_bins))

    @staticmethod
    def budget_weight(eps, xi):
        eps = np.asarray(eps, dtype=float)
        xi = np.asarray(xi, dtype=float)
        if np.any(eps < 0) or np.any(eps > 1) or np.any(xi < 0) or np.any(xi > 1):
            raise InvalidInputError("budgets must lie in [0, 1]")
        return eps + xi + eps * xi

    def value(self, s, mu, eps: float, xi: float) -> float:
        w = float(self.budget_weight(eps, xi))
        mb = self.mu_binner.bin(mu)
        return float(self.base[int(s), mb] - w * self.damp[int(s), mb])

    def values(self, states, mu, eps_vec, xi: float) -> np.ndarray:
        """Vectorized per-agent values under a shared mu and xi."""
        states = np.asarray(states, dtype=int)
        w = self.budget_weight(np.asarray(eps_vec, dtype=float), xi)
        mb = self.mu_binner.bin(mu)
        return self.base[states, mb] - w * self.damp[states, mb]

    def sup_norm_diff(self, other: "RobustValueModel") -> float:
        """sup over (s, mu-bin, eps, xi) of |V1 - V2|, exact via the w form."""
        db = self.base - other.base
        dd = self.damp - other.damp
        return float(np.max(np.maximum(np.abs(db), np.abs(db - W_MAX * dd))))

    def save(self, path):
        flat = np.concatenate([self.base.ravel(), self.damp.ravel()])
        lines = [CHECKPOINT_MAGIC, "kind robustvalue", "backend tabular",
                 f"n_states {self.n_states}", f"n_actions {self.n_actions}",
                 f"gamma {self.gamma!r}", f"p {self.p!r}",
                 f"joint_norm {int(self.joint_norm)}",
                 f"mu_bins {self.mu_binner.n_bins}", f"mu_levels {self.mu_binner.levels}",
                 "budget_form base-minus-w-damp w=eps+xi+eps*xi",
                 f"values {flat.size}"]
        lines.extend(f"{v:.17g}" for v in flat)
        write_atomic(path, "\n".join(lines) + "\n")

    @staticmethod
    def load(path) -> "RobustValueModel":
        header, flat = _read_checkpoint(path, expected_kind="robustvalue")
        with malformed_artifact(path):
            mu_binner = MeanFieldBinner(int(header["mu_bins"]), int(header["mu_levels"]))
            n_states = int(header["n_states"])
            # reshape before allocating, so a bad header cannot size the tables
            base, damp = flat.reshape(2, n_states, mu_binner.n_bins)
            model = RobustValueModel(n_states, int(header["n_actions"]),
                                     float(header["gamma"]), p=float(header["p"]),
                                     mu_binner=mu_binner,
                                     joint_norm=bool(int(header["joint_norm"])))
        model.base, model.damp = base, damp
        return model


def _q_penalty_rows(q_model: QModel, corpus: TransitionCorpus, qdual: float,
                    joint_norm: bool) -> np.ndarray:
    """||Q(s, ., mu, nu)||_q per transition, own-action row by default."""
    if joint_norm:
        block = q_model.table[corpus.s, :, corpus.mu_bin, :]
        flatb = block.reshape(block.shape[0], -1)
    else:
        flatb = q_model.table[corpus.s, :, corpus.mu_bin, corpus.nu_bin]
    if np.isinf(qdual):
        return np.abs(flatb).max(axis=1)
    return (np.abs(flatb) ** qdual).sum(axis=1) ** (1.0 / qdual)


def sample_budgets(n: int, rng) -> tuple:
    """Budget draws for residual training: xi uniform, eps Bernoulli(xi)."""
    xi = rng.random(n)
    eps = (rng.random(n) < xi).astype(float)
    return eps, xi


def fit_robust_value(q_model: QModel, trajectories, cfg: FitConfig) -> RobustValueModel:
    """Fit the budget-conditioned value on cooperative data.

    The pessimistic target r + gamma*V(s', w) - w*||Q(s,.)||_q is exactly
    linear in the budget weight w, so the expected residual over budget
    draws (xi uniform, eps ~ Bernoulli(xi)) is minimized component-wise:
    the intercept sweep is plain policy evaluation and the slope sweep
    accumulates the discounted penalty.  Sampling w per transition and
    regressing on [1, -w] converges to the same fixed point but carries
    slope-scale noise into the intercept on small cells; the decoupled
    sweeps are that estimator's zero-variance limit.
    """
    cfg.validate()
    model = RobustValueModel(q_model.n_states, q_model.n_actions, q_model.gamma,
                             p=cfg.p, mu_binner=q_model.mu_binner,
                             joint_norm=cfg.joint_norm)
    corpus = build_corpus(trajectories, q_model.n_states, q_model.n_actions,
                          q_model.mu_binner, q_model.nu_binner)
    penalty = _q_penalty_rows(q_model, corpus, dual_order(cfg.p), cfg.joint_norm)
    gamma = q_model.gamma

    mb_count = model.mu_binner.n_bins
    cell = corpus.s * mb_count + corpus.mu_bin
    cell2 = corpus.s2 * mb_count + corpus.mu_bin2
    n_cells = q_model.n_states * mb_count
    cnt = np.bincount(cell, minlength=n_cells).astype(float)
    visited = cnt > 0
    denom = np.maximum(cnt, 1.0)
    base = np.zeros(n_cells)
    damp = np.zeros(n_cells)
    for _ in range(cfg.sweeps):
        base_t = corpus.r + gamma * base[cell2]
        damp_t = penalty + gamma * damp[cell2]
        new_base = np.where(visited, np.bincount(cell, weights=base_t,
                                                 minlength=n_cells) / denom, 0.0)
        new_damp = np.where(visited, np.bincount(cell, weights=damp_t,
                                                 minlength=n_cells) / denom, 0.0)
        delta = max(np.max(np.abs(new_base - base)), np.max(np.abs(new_damp - damp)))
        base, damp = new_base, new_damp
        if delta < cfg.tol:
            break
    model.base = base.reshape(q_model.n_states, mb_count)
    model.damp = damp.reshape(q_model.n_states, mb_count)
    return model


# -- worst-case bilinear gap -----------------------------------------------------


def worst_case_gap(q_row, eps: float, xi: float, p=np.inf, resolution: int = 101):
    """Closed form eps*xi*||q_row||_q against an independent brute-force search.

    The gap is the largest |sum_j u_j * v_j * q_row[j]| over own-action
    perturbations ||u||_p <= eps and population perturbations ||v||_p <= xi.
    For p = inf the box constraints separate per coordinate and the search
    grids each (u_j, v_j) square; for p = 1 the maximum sits on the
    cross-polytope vertices, which are enumerated exactly.  The closed form
    is tight for p in {1, inf}; for intermediate orders it is only an upper
    bound, and the returned pair will disagree.
    """
    q_row = np.asarray(q_row, dtype=float).ravel()
    if q_row.size < 1:
        raise InvalidInputError("empty Q row")
    if not (0.0 <= eps <= 1.0) or not (0.0 <= xi <= 1.0):
        raise InvalidInputError("budgets must lie in [0, 1]")
    if resolution < 2:
        raise InvalidInputError("resolution must be >= 2")
    closed = eps * xi * lp_norm(q_row, dual_order(p))

    if np.isinf(p):
        u = np.linspace(-eps, eps, resolution)
        v = np.linspace(-xi, xi, resolution)
        prod = np.outer(u, v)
        hi, lo = prod.max(), prod.min()
        brute = float(np.where(q_row >= 0, hi * q_row, lo * q_row).sum())
    elif p == 1:
        best = 0.0
        for j in range(q_row.size):
            for su in (-eps, eps):
                for sv in (-xi, xi):
                    best = max(best, abs(su * sv * q_row[j]))
        brute = best
    else:
        # grid the two p-balls (boxes filtered by norm); memory-capped and coarse
        res = min(resolution, max(3, int(3e4 ** (1.0 / q_row.size))))

        def ball_grid(bound):
            axes = [np.linspace(-bound, bound, res)] * q_row.size
            pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, q_row.size)
            norms = np.sum(np.abs(pts) ** p, axis=1) ** (1.0 / p)
            return pts[norms <= bound + 1e-12]

        u_pts, v_pts = ball_grid(eps), ball_grid(xi)
        brute = 0.0
        for lo in range(0, u_pts.shape[0], 512):
            vals = np.abs((u_pts[lo:lo + 512] * q_row) @ v_pts.T)
            if vals.size:
                brute = max(brute, float(vals.max()))
    return closed, brute
