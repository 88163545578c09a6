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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from mfvuln.core import BudgetVector, dual_order, pick_categorical
from mfvuln.errors import InvalidInputError

W_MAX = 3.0  # sup of eps + xi + eps*xi over the unit budget square


# -- sampling --------------------------------------------------------------------


def sample_actions(prob_matrix, rng) -> np.ndarray:
    """One categorical draw per row of an (N, A) probability matrix: N uniforms
    from rng, one call, each picked by inverse cdf.  The package's learners
    and rollouts draw an episode's (T, N) uniforms at once, the numbers T of
    these calls draw."""
    prob_matrix = np.asarray(prob_matrix, dtype=float)
    return pick_categorical(prob_matrix, rng.random(prob_matrix.shape[0]))


# -- norms and budget vectors ---------------------------------------------------


def lp_norm(v, p) -> float:
    """l_p norm of a vector, p in [1, inf]."""
    v = np.asarray(v, dtype=float)
    if np.isinf(p):
        return float(np.max(np.abs(v))) if v.size else 0.0
    if p < 1:
        raise InvalidInputError(f"norm order must be >= 1, got {p}")
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


def with_agent(budget: BudgetVector, agent_id: int, eps: float) -> BudgetVector:
    """A copy of budget with agent_id's entry set to eps."""
    e = budget.eps.copy()
    e[agent_id] = eps
    return BudgetVector(e)


def attacked_ids(budget: BudgetVector) -> np.ndarray:
    """Indices of the agents with a positive budget."""
    return np.flatnonzero(budget.eps > 0.0)


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


PROB_TOL = 1e-9


def check_prob_vector(x, name):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InvalidInputError(f"{name} must be 1-d, got shape {x.shape}")
    if x.size == 0:
        raise InvalidInputError(f"{name} is empty")
    if np.any(x < -PROB_TOL):
        raise InvalidInputError(f"{name} has negative entries")
    s = float(x.sum())
    if abs(s - 1.0) > 1e-6:
        raise InvalidInputError(f"{name} sums to {s}, expected 1")
    return np.clip(x, 0.0, None)


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
    eps_vec = np.asarray(eps_vec, dtype=float)
    if eps_vec.ndim == 0 or eps_vec.shape != alpha_mat.shape[-1 - eps_vec.ndim:-1]:
        raise InvalidInputError("budget vector length mismatch")
    if np.any(eps_vec < 0) or np.any(eps_vec > 1):
        raise InvalidInputError("mixing weights must be in [0, 1]")
    e = eps_vec[..., None]
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
    xi = BudgetVector(eps_vec).xi
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


# -- exact solvers of the toy env --------------------------------------------------
#
# A toy env's agents run independent chains, so everything of interest has a
# closed form: policy values come from one linear solve, worst-case attacked
# values from value iteration over a per-agent min/mix backup, and the return
# of an attacked population is a mean of per-agent values.

VI_TOL = 1e-12
VI_MAX_ITER = 100_000


def _policy_matrices(env, policy_matrix):
    """(P_pi, r_pi) of an (S, A) policy matrix on a toy env."""
    pi = np.asarray(policy_matrix, dtype=float)
    if pi.shape != (env.n_states, env.n_actions):
        raise InvalidInputError(f"policy matrix must be {(env.n_states, env.n_actions)}")
    p_pi = np.einsum("sa,sat->st", pi, env.transitions)
    r_pi = (pi * env.rewards).sum(axis=1)
    return p_pi, r_pi


def exact_policy_value(env, policy_matrix) -> np.ndarray:
    """V^pi by a single linear solve of (I - gamma P_pi) V = r_pi."""
    p_pi, r_pi = _policy_matrices(env, policy_matrix)
    eye = np.eye(env.n_states)
    return np.linalg.solve(eye - env.gamma * p_pi, r_pi)


def exact_policy_q(env, policy_matrix) -> np.ndarray:
    v = exact_policy_value(env, policy_matrix)
    return env.rewards + env.gamma * env.transitions @ v


def optimal_q(env) -> np.ndarray:
    """Cooperative optimum by value iteration."""
    q = np.zeros((env.n_states, env.n_actions))
    for _ in range(VI_MAX_ITER):
        nq = env.rewards + env.gamma * env.transitions @ q.max(axis=1)
        if np.max(np.abs(nq - q)) < VI_TOL:
            return nq
        q = nq
    return q


def greedy_matrix(q) -> np.ndarray:
    pi = np.zeros_like(q)
    pi[np.arange(q.shape[0]), q.argmax(axis=1)] = 1.0
    return pi


def boltzmann_matrix(q, temperature: float) -> np.ndarray:
    z = q / temperature
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def exact_robust_components(env, policy_matrix, p=np.inf):
    """(V0, H) with V(s, eps, xi) = V0[s] - (eps + xi + eps * xi) * H[s].

    V0 is the cooperative policy value; H accumulates the discounted
    dual-norm of the cooperative Q rows along on-policy trajectories.
    """
    p_pi, r_pi = _policy_matrices(env, policy_matrix)
    q_pi = exact_policy_q(env, policy_matrix)
    qdual = dual_order(p)
    reg = np.array([lp_norm(q_pi[s], qdual) for s in range(env.n_states)])
    eye = np.eye(env.n_states)
    v0 = np.linalg.solve(eye - env.gamma * p_pi, r_pi)
    h = np.linalg.solve(eye - env.gamma * p_pi, reg)
    return v0, h


def exact_worst_case_value(env, policy_matrix, eps: float) -> np.ndarray:
    """Fixed point of the per-agent min/mix backup at corruption eps.

    The adversary controls an eps share of each decision; the remaining
    (1 - eps) share follows the given cooperative policy.
    """
    if not (0.0 <= eps <= 1.0):
        raise InvalidInputError(f"eps must be in [0, 1], got {eps}")
    pi = np.asarray(policy_matrix, dtype=float)
    v = np.zeros(env.n_states)
    for _ in range(VI_MAX_ITER):
        q = env.rewards + env.gamma * env.transitions @ v
        coop = (pi * q).sum(axis=1)
        nv = (1.0 - eps) * coop + eps * q.min(axis=1)
        if np.max(np.abs(nv - v)) < VI_TOL:
            return nv
        v = nv
    return v


def exact_attack_return(env, policy_matrix, attacked_ids, eps: float = 1.0) -> float:
    """Population return when the listed agents are eps-corrupted.

    Chains are independent, so the value is the mean of per-agent
    values: worst-case for attacked agents, cooperative otherwise.
    """
    attacked = np.zeros(env.n_agents, dtype=bool)
    ids = np.asarray(list(attacked_ids), dtype=int)
    if ids.size:
        if np.any(ids < 0) or np.any(ids >= env.n_agents):
            raise InvalidInputError("attacked agent id out of range")
        attacked[ids] = True
    v_coop = exact_policy_value(env, policy_matrix)
    v_adv = exact_worst_case_value(env, policy_matrix, eps) if ids.size else v_coop
    per_agent = np.where(attacked, v_adv[env.initial_states], v_coop[env.initial_states])
    return float(per_agent.mean())


# -- closed-form value model -----------------------------------------------------------


def exact_value_model(env, policy_matrix, p=np.inf):
    """A RobustValueModel holding a toy env's closed-form base and damp."""
    from mfvuln.robust import RobustValueModel

    model = RobustValueModel(env.n_states, env.n_actions, env.gamma, p=p)
    model.base, model.damp = exact_robust_components(env, policy_matrix, p)
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
    """Neighbourhood of the alignment rule, self included; (..., N, 2) -> (..., N, N)."""
    pos = np.asarray(pos)
    if pos.ndim > 2:
        return np.array([vicsek_adjacency(env, p) for p in pos])
    adj = torus_distances(pos, env.config.world_size) <= env.config.comm_radius
    np.fill_diagonal(adj, True)
    return adj


def neighbor_mean_heading(env, pos, headings) -> np.ndarray:
    """Circular mean heading as a complex sum over the neighbourhood, one episode
    at a time over any leading batch axes."""
    headings = np.asarray(headings)
    if headings.ndim > 1:
        return np.array([neighbor_mean_heading(env, p, h) for p, h in zip(pos, headings)])
    vec = np.exp(1j * headings)
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
                                                 with_agent(budget, cand, eps))
        top = max(cand_rewards.values())
        tol = 1e-9 * max(1.0, abs(top))
        best = min(c for c, r in cand_rewards.items() if r >= top - tol)
        chosen.append(best)
        rewards.append(cand_rewards[best])
        budget = with_agent(budget, best, eps)
    return AttackSet(np.array(chosen, dtype=int), eps, "greedy",
                     predicted_drop=float(np.sum(rewards)) if rewards else 0.0,
                     pick_rewards=np.array(rewards))


# -- serial references of the batched loops ------------------------------------------
#
# What the package ran before independent episodes and learners were stepped
# as one batch: the taxi dynamics per snapshot through (x, y) arithmetic, the
# toy and vicsek steps one episode at a time (vicsek on its dense (N, N)
# adjacency), and victim expected SARSA and adversary SARSA one learner at a
# time on its own (S, A) table.


def taxi_step(env, snapshot, actions, rng):
    """One taxi step: move on the torus, draw the step's demand from rng, score
    the zone mismatch."""
    from mfvuln.envs import Snapshot, StepResult
    from mfvuln.envs.taxi import MOVES

    cfg = env.config
    actions = np.asarray(actions, dtype=int)
    cells = np.asarray(snapshot.states, dtype=int)
    xy = (np.column_stack([cells // cfg.grid_height, cells % cfg.grid_height])
          + MOVES[actions]) % [cfg.grid_width, cfg.grid_height]
    nxt_cells = xy[:, 0] * cfg.grid_height + xy[:, 1]
    demand = rng.poisson(env.demand_rates)
    zones = (xy[:, 0] // 2) * (cfg.grid_height // 2) + (xy[:, 1] // 2)
    supply = np.bincount(zones, minlength=env.n_zones)
    volume = supply.sum() + demand.sum()
    reward = 0.0 if volume == 0 else -float(np.abs(supply - demand).sum()) / float(volume)
    nxt = Snapshot(t=snapshot.t + 1, states=nxt_cells)
    return StepResult(nxt, nxt_cells, reward)


def toy_step(env, snapshot, actions, rng):
    """One toy episode step: per-agent reward mean, one inverse-CDF draw from rng
    per agent."""
    from mfvuln.envs import Snapshot, StepResult

    actions = np.asarray(actions, dtype=int)
    reward = float(env.rewards[snapshot.states, actions].mean())
    cdf = np.cumsum(env.transitions[snapshot.states, actions], axis=1)
    cdf[:, -1] = 1.0
    u = rng.random(env.n_agents)
    states = (u[:, None] < cdf).argmax(axis=1)
    nxt = Snapshot(t=snapshot.t + 1, states=states)
    return StepResult(nxt, states, reward)


def train_adversary_serial(env, victim_policy, budgets, cfg, seed, step=None):
    """Adversary SARSA for one learner: (model, episode returns).

    ``step(snapshot, actions, rng)`` replaces ``env.step`` (say, by ``taxi_step``);
    rng is ``seed_rng`` of the episode's seed, opened for each episode.
    """
    from mfvuln.core import seed_rng
    from mfvuln.qlearn import QModel, exploration_eps, softmax_rows

    attacked = budgets.eps > 0
    model = QModel(env.n_states, env.n_actions, env.gamma)
    episode_seeds = np.random.SeedSequence((seed, 0xad)).spawn(cfg.episodes)
    act_rng = seed_rng(seed, salt="adversary-actions")
    curve = np.empty(cfg.episodes)
    for ep in range(cfg.episodes):
        snap, noise = env.reset(seed=episode_seeds[ep]), seed_rng(episode_seeds[ep])
        explore = exploration_eps(cfg, ep)
        ret, disc = 0.0, 1.0
        prev = None
        for _ in range(env.horizon):
            victim = victim_policy.action_dists(snap)
            adv = (1 - explore) * softmax_rows(model.values(snap.states) / cfg.temperature) \
                + explore / env.n_actions
            actions = sample_actions(mix_policy_matrix(adv, victim, budgets.eps), act_rng)
            res = env.step(snap, actions) if step is None else step(snap, actions, noise)
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


def train_victim_serial(env, cfg, seed, fixed_policy_table=None, step=None):
    """Victim expected SARSA for one seed: (model, policy, episode returns).

    ``step(snapshot, actions, rng)`` replaces ``env.step``, as in
    ``train_adversary_serial``.  With
    fixed_policy_table the loop evaluates that policy instead of improving
    its own, and skips the margin check.  Otherwise it raises
    TrainingFailureError when the trained policy fails to clear the
    configured margin over a uniform-random baseline.
    """
    from mfvuln.core import seed_rng
    from mfvuln.errors import TrainingFailureError
    from mfvuln.qlearn import (BoltzmannPolicy, QModel, TablePolicy, UniformPolicy,
                               evaluate_policy, exploration_eps, softmax_rows)

    model = QModel(env.n_states, env.n_actions, env.gamma)
    fixed = None if fixed_policy_table is None else np.asarray(fixed_policy_table, dtype=float)
    episode_seeds = np.random.SeedSequence(seed).spawn(cfg.episodes)
    act_rng = seed_rng(seed, salt="train-actions")
    curve = np.empty(cfg.episodes)

    for ep in range(cfg.episodes):
        snap, noise = env.reset(seed=episode_seeds[ep]), seed_rng(episode_seeds[ep])
        explore = exploration_eps(cfg, ep)
        ret, disc = 0.0, 1.0
        for t in range(env.horizon):
            if fixed is not None:
                behavior = fixed[snap.states]
            else:
                q = model.values(snap.states)
                behavior = (1 - explore) * softmax_rows(q / cfg.temperature) \
                    + explore / env.n_actions
            actions = sample_actions(behavior, act_rng)
            res = env.step(snap, actions) if step is None else step(snap, actions, noise)
            nxt = res.snapshot
            q2 = model.values(nxt.states)
            if fixed is not None:
                pi2 = fixed[nxt.states]
            else:
                pi2 = softmax_rows(q2 / cfg.temperature)
            targets = res.reward + env.gamma * (pi2 * q2).sum(axis=1)
            model.td_update(snap.states, actions, targets, cfg.lr, cfg.lr_decay)
            ret += disc * res.reward
            disc *= env.gamma
            snap = nxt
        curve[ep] = ret

    policy = BoltzmannPolicy(model, cfg.temperature) if fixed is None else TablePolicy(fixed)
    if cfg.min_margin is not None and fixed is None:
        trained = float(np.mean(evaluate_policy(env, policy, cfg.eval_episodes,
                                                seed=(seed, 1))))
        baseline = float(np.mean(evaluate_policy(env, UniformPolicy(env.n_actions),
                                                 cfg.eval_episodes, seed=(seed, 1))))
        scale = abs(baseline) if abs(baseline) > 1e-12 else 1.0
        if (trained - baseline) / scale < cfg.min_margin:
            raise TrainingFailureError(
                f"victim underperforms: trained {trained:.6f}, uniform {baseline:.6f}",
                trained_return=trained, baseline_return=baseline)
    return model, policy, curve


def dense_mean_heading(env, pos, headings) -> np.ndarray:
    """The package's mean heading before its tiled kernel, one episode: the dense
    (N, N) adjacency with its diagonal filled, and one 2-D ``adj @ vec``."""
    from mfvuln.envs.base import torus_sq_pairwise

    adj = (torus_sq_pairwise(pos, env.config.world_size) <= env.config.comm_radius ** 2)
    adj = adj.astype(float)
    np.fill_diagonal(adj, 1.0)
    vec = np.column_stack([np.cos(headings), np.sin(headings)])
    total = adj @ vec
    degenerate = np.hypot(total[:, 0], total[:, 1]) < 1e-12
    total[degenerate] = vec[degenerate]
    return np.arctan2(total[:, 1], total[:, 0])


def vicsek_step(env, snapshot, actions, rng=None):
    """One vicsek episode step as the package ran it before its batch kernel; it
    draws nothing, so rng goes unused."""
    from mfvuln.envs import Snapshot, StepResult
    from mfvuln.envs.base import wrap_angle

    cfg = env.config
    headings = wrap_angle(snapshot.headings + env.turns[np.asarray(actions, dtype=int)])
    pos = (snapshot.pos + cfg.speed * np.column_stack([np.cos(headings), np.sin(headings)])) \
        % cfg.world_size
    offset = wrap_angle(dense_mean_heading(env, pos, headings) - headings)
    hb = ((headings + np.pi) / (2 * np.pi) * cfg.heading_bins).astype(int)
    ob = ((offset + np.pi) / (2 * np.pi) * cfg.offset_bins).astype(int)
    states = np.clip(hb, 0, cfg.heading_bins - 1) * cfg.offset_bins \
        + np.clip(ob, 0, cfg.offset_bins - 1)
    nxt = Snapshot(t=snapshot.t + 1, states=states, pos=pos, headings=headings)
    return StepResult(nxt, states, float(np.abs(np.exp(1j * headings).mean())))


# -- the vicsek alignment rule -----------------------------------------------------------
#
# The paper's rule-based victim: each agent steers toward its neighbourhood's
# mean heading.  No experiment here runs it (rule-based systems are out of
# scope), so it lives with the tests that check the kernel through it.

RULE_NOISE = 0.05  # angular noise of the rule, in radians


def rule_action_dists(env, snapshot, noise=RULE_NOISE) -> np.ndarray:
    """(N, A) action distributions of the alignment rule.

    The desired correction is the offset to the neighbourhood mean heading;
    Gaussian smearing with the angular noise ``noise`` is integrated exactly
    over the rounding cells of the turn increments.
    """
    from mfvuln.envs.base import wrap_angle

    desired = wrap_angle(env.neighbor_mean_heading(snapshot.pos, snapshot.headings)
                         - snapshot.headings)
    n, a = desired.size, env.config.n_actions
    if noise == 0.0:
        dist = np.zeros((n, a))
        dist[np.arange(n), np.abs(desired[:, None] - env.turns[None, :]).argmin(axis=1)] = 1.0
        return dist
    edges = (env.turns[:-1] + env.turns[1:]) / 2.0
    z = (edges[None, :] - desired[:, None]) / (noise * math.sqrt(2.0))
    cdf = np.empty((n, a + 1))
    cdf[:, 0], cdf[:, -1] = 0.0, 1.0
    cdf[:, 1:-1] = 0.5 * (1.0 + np.vectorize(math.erf)(z))
    return np.diff(cdf, axis=1)


def rule_actions(env, snapshot, rng, noise=RULE_NOISE) -> np.ndarray:
    """Rule actions sampled with rng; zero noise reduces to the nearest increment."""
    dist = rule_action_dists(env, snapshot, noise=noise)
    cdf = np.cumsum(dist, axis=1)
    cdf[:, -1] = 1.0
    u = rng.random(dist.shape[0])
    return (u[:, None] < cdf).argmax(axis=1)


class RulePolicy:
    """The alignment rule of a vicsek env as a policy, one episode at a time."""

    def __init__(self, env, noise=RULE_NOISE):
        self.env = env
        self.noise = noise
        self.n_actions = env.n_actions

    def action_dists(self, snapshot) -> np.ndarray:
        if snapshot.states.ndim == 2:
            return np.stack([self.action_dists(s) for s in snapshot.episodes()])
        return rule_action_dists(self.env, snapshot, noise=self.noise)


# -- per-transition value fits ---------------------------------------------------------
#
# The package's fits before they streamed the trajectories: ``build_corpus``
# materializes every per-agent transition, and ``solve_corpus`` aggregates it
# by (cell, next cell) and solves it.  The streamed fits must equal these byte
# for byte.


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
        for t in range(len(traj.rewards) - 1):
            cols["s"].append(traj.states[t])
            cols["a"].append(traj.actions[t])
            cols["r"].append(np.full(traj.states.shape[1], traj.rewards[t]))
            cols["s2"].append(traj.states[t + 1])
            cols["a2"].append(traj.actions[t + 1])
    if not cols["s"]:
        raise InvalidInputError("corpus needs trajectories with at least 2 steps")
    packed = {k: np.concatenate(v) for k, v in cols.items()}
    for key in ("s", "a", "s2", "a2"):
        packed[key] = packed[key].astype(int)
    return TransitionCorpus(**packed)


def solve_corpus(cell, next_cell, rewards, n_cells, gamma) -> np.ndarray:
    """The corpus fixed point x = mean of r + gamma * x[next cell] per visited
    cell, one row per reward vector in ``rewards``; unvisited cells stay 0."""
    pairs, mult = np.unique(cell * n_cells + next_cell, return_counts=True)
    src, dst = np.divmod(pairs, n_cells)
    cells, starts = np.unique(src, return_index=True)  # src is sorted: one run per cell
    pos = np.full(n_cells, -1)
    pos[cells] = np.arange(cells.size)
    lhs = np.diag(np.add.reduceat(mult, starts).astype(float))
    live = pos[dst] >= 0
    lhs[pos[src[live]], pos[dst[live]]] -= gamma * mult[live]  # pairs are distinct
    rhs = np.array([np.bincount(cell, weights=r)[cells] for r in rewards]).T
    # Gaussian elimination without pivoting (lhs is strictly diagonally
    # dominant), then back substitution: the package's steps, so its rounding
    for i in range(cells.size - 1):
        m = lhs[i + 1:, i] / lhs[i, i]
        lhs[i + 1:, i + 1:] -= np.multiply.outer(m, lhs[i, i + 1:])
        rhs[i + 1:] -= np.multiply.outer(m, rhs[i])
    for i in reversed(range(cells.size)):
        rhs[i] /= lhs[i, i]
        rhs[:i] -= np.multiply.outer(lhs[:i, i], rhs[i])
    x = np.zeros((len(rewards), n_cells))
    x[:, cells] = rhs.T
    return x


def fit_cooperative_q_on_corpus(trajectories, n_states, n_actions, gamma):
    """The Q fit as one solve over the materialized corpus."""
    from mfvuln.qlearn import QModel

    model = QModel(n_states, n_actions, gamma)
    corpus = build_corpus(trajectories)
    shape = model.table.shape
    idx = np.ravel_multi_index((corpus.s, corpus.a), shape)
    idx2 = np.ravel_multi_index((corpus.s2, corpus.a2), shape)
    model.table = solve_corpus(idx, idx2, [corpus.r], model.table.size, gamma)[0].reshape(shape)
    np.add.at(model.visits.ravel(), idx, 1)
    return model


def fit_robust_value_on_corpus(q_model, trajectories, cfg):
    """(base, damp) as one solve over the materialized corpus."""
    corpus = build_corpus(trajectories)
    penalty = q_penalty_per_transition(q_model, corpus, dual_order(cfg.p))
    return solve_corpus(corpus.s, corpus.s2, [corpus.r, penalty], q_model.n_states,
                        q_model.gamma)


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
