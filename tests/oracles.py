"""Reference oracles the tests check the package against.

None of this runs in an experiment.  These are the paper's bounds and
closed forms written out directly, so the learned machinery in ``mfvuln``
can be compared with them.

Deviation bounds.  An agent with budget eps_i executes
pi_hat_i = eps_i * pi_alpha_i + (1 - eps_i) * pi_beta_i, and the aggregate
budget xi = (1/N) sum_i eps_i controls how far the realized mean-field
action nu(a) = (1/N) sum_i 1[a_i = a] can drift from the cooperative one:

    || pi_hat_i - pi_beta_i ||_p  <=  2^(1/p) * eps_i
    || nu - nu_beta ||_p          <=  2^(1/p) * xi + delta   w.h.p.

with the usual Hoeffding rate 2*exp(-2*N*delta^2) for the second line.

Pessimistic backup.  For a logged step (s, a, r, s') the robust target is

    r + gamma * V(s', eps, xi) - (eps + xi + eps*xi) * ||Q(s, .)||_q,

a gamma-contraction in V under the sup norm over (s, eps, xi).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from mfvuln.core import (aggregate_budget, check_prob_vector, dual_order, lp_norm,
                         mixing_weights, sample_actions)
from mfvuln.errors import InvalidInputError

W_MAX = 3.0  # sup of eps + xi + eps*xi over the unit budget square


# -- action distributions and deviation bounds ---------------------------------


def deviation_constant(p) -> float:
    """2^(1/p): the worst-case l_p distance between two action distributions
    is 2^(1/p) (attained by disjoint point masses), halved per unit budget."""
    if np.isinf(p):
        return 1.0
    return float(2.0 ** (1.0 / p))


@dataclass(frozen=True)
class NormOrder:
    """A norm order p in [1, inf] together with its dual."""

    p: float

    def __post_init__(self):
        if not np.isinf(self.p) and self.p < 1:
            raise InvalidInputError(f"norm order must be >= 1, got {self.p}")

    @property
    def q(self) -> float:
        return dual_order(self.p)


@dataclass(frozen=True)
class ActionDist:
    """Probability vector over a discrete action set."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", check_prob_vector(self.probs, "action distribution"))

    def __len__(self):
        return self.probs.size


def mix_policies(pi_alpha: ActionDist, pi_beta: ActionDist, eps: float) -> ActionDist:
    """Per-decision corruption mixture eps*alpha + (1-eps)*beta."""
    if not (0.0 <= eps <= 1.0):
        raise InvalidInputError(f"mixing weight must be in [0, 1], got {eps}")
    a, b = pi_alpha.probs, pi_beta.probs
    if a.shape != b.shape:
        raise InvalidInputError("policy supports differ")
    return ActionDist(eps * a + (1.0 - eps) * b)


def mix_policy_matrix(alpha_mat, beta_mat, eps_vec) -> np.ndarray:
    """Row-wise mixture for N agents at once; rows are action distributions.

    The matrices may carry a leading batch axis, (B, N, A); the budgets are
    then one (N,) vector for the whole batch or one row per batch entry.
    """
    alpha_mat = np.asarray(alpha_mat, dtype=float)
    beta_mat = np.asarray(beta_mat, dtype=float)
    if alpha_mat.shape != beta_mat.shape:
        raise InvalidInputError("policy matrices differ in shape")
    e = mixing_weights(eps_vec, alpha_mat.shape)
    return e * alpha_mat + (1.0 - e) * beta_mat


def check_deviation_bounds(pi_hat: ActionDist, pi_beta: ActionDist, eps: float,
                           p=np.inf, tol: float = 1e-9) -> bool:
    """True iff ||pi_hat - pi_beta||_p <= 2^(1/p) * eps + tol."""
    if not (0.0 <= eps <= 1.0):
        raise InvalidInputError(f"budget must be in [0, 1], got {eps}")
    dist = lp_norm(pi_hat.probs - pi_beta.probs, p)
    return dist <= deviation_constant(p) * eps + tol


def check_mean_field_deviation(alpha_mat, beta_mat, eps_vec, p, delta,
                               rng: np.random.Generator) -> bool:
    """One Monte Carlo draw of the population-level deviation check.

    Samples each agent's action from its mixed policy, forms the empirical
    mean-field action nu, and compares it against the cooperative field
    nu_beta = (1/N) sum_i pi_beta_i.  Returns True when

        || nu - nu_beta ||_p <= 2^(1/p) * xi + delta.

    Across repeated draws the failure rate obeys the Hoeffding bound
    2*exp(-2*N*delta^2).
    """
    mixed = mix_policy_matrix(alpha_mat, beta_mat, eps_vec)
    n_agents, n_actions = mixed.shape
    acts = sample_actions(mixed, rng)
    nu = np.bincount(acts, minlength=n_actions) / n_agents
    nu_beta = np.asarray(beta_mat, dtype=float).mean(axis=0)
    xi = aggregate_budget(eps_vec)
    return lp_norm(nu - nu_beta, p) <= deviation_constant(p) * xi + delta


# -- pessimistic backup ------------------------------------------------------------


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


def apply_robust_bellman(value_model, q_model, sample: TransitionSample,
                         eps: float, xi: float) -> float:
    """Sampled pessimistic backup; see the module docstring for the form."""
    bootstrap = value_model.value(sample.s_next, eps, xi)
    return float(sample.r + value_model.gamma * bootstrap
                 - regularizer(q_model.table[sample.s], eps, xi, value_model.p))


def sup_norm_diff(a, b) -> float:
    """sup over (s, eps, xi) of |V_a - V_b| for two RobustValueModels, exact via the w form."""
    db = a.base - b.base
    dd = a.damp - b.damp
    return float(np.max(np.maximum(np.abs(db), np.abs(db - W_MAX * dd))))


def sample_budgets(n: int, rng) -> tuple:
    """Budget draws for residual training: xi uniform, eps Bernoulli(xi)."""
    xi = rng.random(n)
    eps = (rng.random(n) < xi).astype(float)
    return eps, xi


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


# -- result statistics -------------------------------------------------------------


def pooled_std(groups) -> float:
    """Classic pooled standard deviation across result groups."""
    groups = [np.asarray(g, dtype=float) for g in groups if len(g) > 1]
    if not groups:
        return 0.0
    num = sum((g.size - 1) * g.var(ddof=1) for g in groups)
    den = sum(g.size - 1 for g in groups)
    return float(np.sqrt(num / den))


# -- closed-form value model -----------------------------------------------------------


def exact_value_model(env, policy_matrix, p=np.inf):
    """A RobustValueModel holding a toy env's closed-form base and damp."""
    from mfvuln.robust import RobustValueModel

    model = RobustValueModel(env.n_states, env.n_actions, env.gamma, p=p)
    model.base, model.damp = env.exact_robust_components(policy_matrix, p)
    return model


# -- reference kernels ---------------------------------------------------------------
#
# The formulas the package used before its neighbour kernel and greedy
# selection were vectorised: float modulo for the minimal image, a complex
# sum for the mean heading, one value-model call per greedy candidate.


def torus_delta(diff, length: float) -> np.ndarray:
    """Minimal-image displacement on a periodic interval of given length."""
    return (np.asarray(diff) + length / 2.0) % length - length / 2.0


def torus_distances(pos, lengths) -> np.ndarray:
    """(N, N) Euclidean minimal-image distances; pos is (N, 2)."""
    pos = np.asarray(pos, dtype=float)
    lengths = np.broadcast_to(np.asarray(lengths, dtype=float), (2,))
    dx = torus_delta(pos[:, 0:1] - pos[:, 0:1].T, lengths[0])
    dy = torus_delta(pos[:, 1:2] - pos[:, 1:2].T, lengths[1])
    return np.sqrt(dx ** 2 + dy ** 2)


def vicsek_adjacency(env, pos) -> np.ndarray:
    """Neighbourhood of the alignment rule, self included."""
    adj = torus_distances(pos, env.config.world_size) <= env.config.comm_radius
    np.fill_diagonal(adj, True)
    return adj


def neighbor_mean_heading(env, pos, headings) -> np.ndarray:
    """Circular mean heading as a complex sum over the neighbourhood."""
    vec = np.exp(1j * np.asarray(headings))
    total = vicsek_adjacency(env, pos) @ vec
    degenerate = np.abs(total) < 1e-12
    return np.angle(np.where(degenerate, vec, total))


def selector_reward(value_model, states0, budget_prev, budget_next) -> float:
    """Predicted population value drop of moving between two budget vectors."""
    if budget_prev.n_agents != budget_next.n_agents:
        raise InvalidInputError("budget vectors differ in length")
    if np.array_equal(budget_prev.eps, budget_next.eps):
        warnings.warn("degenerate selection step: budgets unchanged", stacklevel=2)
        return 0.0
    states0 = np.asarray(states0, dtype=int)
    v_prev = value_model.values(states0, budget_prev.eps, budget_prev.xi)
    v_next = value_model.values(states0, budget_next.eps, budget_next.xi)
    return float((v_prev - v_next).mean())


def select_greedy(value_model, states0, k: int, eps: float = 1.0):
    """Greedy selection scoring one candidate at a time with selector_reward.

    Rewards within 1e-9 * max(1, |best|) count as ties, so once
    eps * (damp gap) / N falls below that a real gap is merged; the
    reference holds for budgets eps >= 1e-3.
    """
    from mfvuln.core import BudgetVector
    from mfvuln.selection import AttackSet

    states0 = np.asarray(states0, dtype=int)
    budget = BudgetVector.zeros(states0.size)
    chosen, rewards = [], []
    for _ in range(k):
        cand_rewards = {}
        for cand in range(states0.size):
            if budget.eps[cand] > 0:
                continue
            cand_rewards[cand] = selector_reward(value_model, states0, budget,
                                                 budget.with_agent(cand, eps))
        top = max(cand_rewards.values())
        tol = 1e-9 * max(1.0, abs(top))
        best = min(c for c, r in cand_rewards.items() if r >= top - tol)
        chosen.append(best)
        rewards.append(cand_rewards[best])
        budget = budget.with_agent(best, eps)
    return AttackSet(np.array(chosen, dtype=int), eps, "greedy",
                     predicted_drop=float(np.sum(rewards)) if rewards else 0.0,
                     pick_rewards=np.array(rewards))


# -- serial references of the batched loops ------------------------------------------
#
# What the package ran before independent episodes and learners were stepped
# as one batch: the taxi dynamics per snapshot through (x, y) arithmetic, and
# adversary SARSA one learner at a time on its own (S, A) table.


def taxi_step(env, snapshot, actions):
    """One taxi step: move on the torus, draw demand, score the zone mismatch."""
    from mfvuln.envs import Snapshot, StepResult
    from mfvuln.envs.taxi import MOVES

    cfg = env.config
    actions = np.asarray(actions, dtype=int)
    cells = np.asarray(snapshot.states, dtype=int)
    xy = (np.column_stack([cells // cfg.grid_height, cells % cfg.grid_height])
          + MOVES[actions]) % [cfg.grid_width, cfg.grid_height]
    nxt_cells = xy[:, 0] * cfg.grid_height + xy[:, 1]
    demand = snapshot.rng.poisson(env.demand_rates)
    zones = (xy[:, 0] // 2) * (cfg.grid_height // 2) + (xy[:, 1] // 2)
    supply = np.bincount(zones, minlength=env.n_zones)
    volume = supply.sum() + demand.sum()
    reward = 0.0 if volume == 0 else -float(np.abs(supply - demand).sum()) / float(volume)
    nxt = Snapshot(t=snapshot.t + 1, states=nxt_cells, rng=snapshot.rng, pos=xy)
    return StepResult(nxt, nxt_cells, reward)


def train_adversary_serial(env, victim_policy, budgets, cfg, seed, step=None):
    """Adversary SARSA for one learner: (model, episode returns).

    ``step(snapshot, actions)`` replaces ``env.step`` (say, by ``taxi_step``).
    """
    from mfvuln.core import seed_rng
    from mfvuln.qlearn import QModel, exploration_eps, softmax_rows

    attacked = budgets.eps > 0
    model = QModel(env.n_states, env.n_actions, env.gamma)
    if not attacked.any():
        return model, np.empty(0)
    episode_seeds = np.random.SeedSequence((seed, 0xad)).spawn(cfg.episodes)
    act_rng = seed_rng(seed, salt="adversary-actions")
    curve = np.empty(cfg.episodes)
    for ep in range(cfg.episodes):
        snap = env.reset(seed=episode_seeds[ep])
        explore = exploration_eps(cfg, ep)
        ret, disc = 0.0, 1.0
        prev = None
        for _ in range(env.horizon):
            victim = victim_policy.action_dists(snap)
            adv = (1 - explore) * softmax_rows(model.values(snap.states) / cfg.temperature) \
                + explore / env.n_actions
            actions = sample_actions(mix_policy_matrix(adv, victim, budgets.eps), act_rng)
            res = (env.step if step is None else step)(snap, actions)
            if prev is not None:
                p_states, p_actions, p_reward = prev
                targets = -p_reward + env.gamma * model.table[snap.states, actions]
                model.td_update(p_states[attacked], p_actions[attacked],
                                targets[attacked], cfg.lr, cfg.lr_decay)
            prev = (snap.states, actions, res.reward)
            ret += disc * (-res.reward)
            disc *= env.gamma
            snap = res.snapshot
        curve[ep] = ret
    return model, curve


# -- per-transition value fits ---------------------------------------------------------
#
# The fitted-TD sweeps as the package ran them before it aggregated the corpus
# by (cell, next cell) and then solved it: every sweep gathers, adds and bins
# every transition.  The default sweep count runs them to convergence: the
# sweep is a gamma-contraction, and at the tests' gamma <= 0.95 the error left
# after 2000 sweeps is 0.95^2000 (about 1e-45) of the first one.

CONVERGED_SWEEPS = 2000


def fit_cooperative_q_per_transition(trajectories, n_states, n_actions, gamma,
                                     sweeps=CONVERGED_SWEEPS):
    """Q(s, a) as the mean of r + gamma * Q(s', a') over every logged transition."""
    from mfvuln.qlearn import QModel
    from mfvuln.robust import build_corpus

    model = QModel(n_states, n_actions, gamma)
    corpus = build_corpus(trajectories)

    shape = model.table.shape
    idx = np.ravel_multi_index((corpus.s, corpus.a), shape)
    idx2 = np.ravel_multi_index((corpus.s2, corpus.a2), shape)
    counts = np.bincount(idx, minlength=model.table.size).astype(float)
    visited = counts > 0
    flat = model.table.ravel()
    for _ in range(sweeps):
        targets = corpus.r + gamma * flat[idx2]
        sums = np.bincount(idx, weights=targets, minlength=flat.size)
        flat = np.where(visited, sums / np.maximum(counts, 1.0), 0.0)
    model.table = flat.reshape(shape)
    np.add.at(model.visits.ravel(), idx, 1)
    return model


def q_penalty_per_transition(q_model, corpus, qdual):
    """||Q(s, .)||_q gathered row by row for every transition."""
    rows = q_model.table[corpus.s]
    if np.isinf(qdual):
        return np.abs(rows).max(axis=1)
    return (np.abs(rows) ** qdual).sum(axis=1) ** (1.0 / qdual)


def fit_robust_value_per_transition(q_model, trajectories, cfg, sweeps=CONVERGED_SWEEPS):
    """(base, damp): the intercept and slope swept over every logged transition."""
    from mfvuln.robust import build_corpus

    corpus = build_corpus(trajectories)
    penalty = q_penalty_per_transition(q_model, corpus, dual_order(cfg.p))
    gamma = q_model.gamma

    cell, cell2, n_cells = corpus.s, corpus.s2, q_model.n_states
    cnt = np.bincount(cell, minlength=n_cells).astype(float)
    visited = cnt > 0
    denom = np.maximum(cnt, 1.0)
    base = np.zeros(n_cells)
    damp = np.zeros(n_cells)
    for _ in range(sweeps):
        base_t = corpus.r + gamma * base[cell2]
        damp_t = penalty + gamma * damp[cell2]
        base = np.where(visited, np.bincount(cell, weights=base_t,
                                             minlength=n_cells) / denom, 0.0)
        damp = np.where(visited, np.bincount(cell, weights=damp_t,
                                             minlength=n_cells) / denom, 0.0)
    return base, damp
