"""Mean-field bookkeeping for N-agent systems.

Agents carry integer local states and actions.  The population is summarized
by two empirical distributions,

    mu(s)  = (1/N) sum_i 1[s_i = s]        (mean-field state)
    nu(a)  = (1/N) sum_i 1[a_i = a]        (mean-field action)

and a per-agent corruption budget eps_i in [0, 1].  An agent with budget
eps_i executes the mixture

    pi_hat_i = eps_i * pi_alpha_i + (1 - eps_i) * pi_beta_i

of an adversarial policy pi_alpha and the cooperative policy pi_beta.  The
aggregate budget xi = (1/N) sum_i eps_i controls how far the realized
mean-field action can drift from the cooperative one:

    || pi_hat_i - pi_beta_i ||_p  <=  2^(1/p) * eps_i
    || nu - nu_beta ||_p          <=  2^(1/p) * xi + delta   w.h.p.

with the usual Hoeffding rate 2*exp(-2*N*delta^2) for the second line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

# Integer index into an environment's discrete local state space.
LocalState = int

PROB_TOL = 1e-9


def seed_to_int(seed) -> int:
    """Collapse any accepted seed form (int, tuple, SeedSequence) to 64 bits."""
    if seed is None:
        return 0
    if isinstance(seed, np.random.SeedSequence):
        return int(seed.generate_state(1, np.uint64)[0])
    if isinstance(seed, (tuple, list)):
        return int(np.random.SeedSequence(list(seed)).generate_state(1, np.uint64)[0])
    return int(seed)


def seed_rng(seed=None, salt=None) -> np.random.Generator:
    """Single entry point for RNG construction, so seeding stays uniform.

    A salt keeps streams independent when one seed feeds several consumers.
    """
    if salt is not None:
        salt_int = int.from_bytes(str(salt).encode(), "little") % (2 ** 63)
        seed = np.random.SeedSequence([salt_int, seed_to_int(seed)])
    elif isinstance(seed, (tuple, list)):
        seed = np.random.SeedSequence(list(seed))
    return np.random.default_rng(seed)


def spawn_rngs(seed, n: int):
    """n independent generators derived from one seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def lp_norm(v, p) -> float:
    """l_p norm of a vector, p in [1, inf]."""
    v = np.asarray(v, dtype=float)
    if np.isinf(p):
        return float(np.max(np.abs(v))) if v.size else 0.0
    if p < 1:
        raise InvalidInputError(f"norm order must be >= 1, got {p}")
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


def dual_order(p) -> float:
    """Hoelder conjugate q with 1/p + 1/q = 1; maps 1 <-> inf and 2 <-> 2."""
    if np.isinf(p):
        return 1.0
    p = float(p)
    if p < 1:
        raise InvalidInputError(f"norm order must be >= 1, got {p}")
    if p == 1.0:
        return np.inf
    return p / (p - 1.0)


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


def _check_prob_vector(x, name):
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
        object.__setattr__(self, "probs", _check_prob_vector(self.probs, "action distribution"))

    def __len__(self):
        return self.probs.size


@dataclass(frozen=True)
class _MeanField:
    """Empirical distribution of agent states or actions (``kind``); entries
    are multiples of 1/N.

    The constructor checks everything it is given.  The empirical builders
    check only their indices: bincount / N is a valid distribution of
    multiples of 1/N by construction, so they skip the output checks.
    """

    probs: np.ndarray
    n_agents: int = 0

    def __post_init__(self):
        probs = _check_prob_vector(self.probs, f"mean-field {self.kind}")
        object.__setattr__(self, "probs", probs)
        if self.n_agents:
            counts = self.probs * self.n_agents
            if np.any(np.abs(counts - np.round(counts)) > 1e-6):
                raise InvalidInputError("mean-field entries are not multiples of 1/N")

    @classmethod
    def _histogram(cls, indices, size: int):
        indices = np.asarray(indices, dtype=int)
        if indices.ndim != 1 or indices.size == 0:
            raise InvalidInputError(f"{cls.kind}s must be a non-empty 1-d integer array")
        try:
            counts = np.bincount(indices, minlength=size)   # raises on negatives
            if counts.size > size:
                raise ValueError
        except ValueError:
            raise InvalidInputError(f"{cls.kind} index out of range") from None
        mf = object.__new__(cls)
        object.__setattr__(mf, "probs", counts / indices.size)
        object.__setattr__(mf, "n_agents", indices.size)
        return mf


@dataclass(frozen=True)
class MeanFieldState(_MeanField):
    """Empirical distribution of agent states."""

    kind = "state"


@dataclass(frozen=True)
class MeanFieldAction(_MeanField):
    """Empirical distribution of agent actions."""

    kind = "action"


def empirical_mean_field_state(states, n_states: int) -> MeanFieldState:
    """Histogram of agent states, normalized by the agent count."""
    return MeanFieldState._histogram(states, n_states)


def empirical_mean_field_action(actions, n_actions: int) -> MeanFieldAction:
    return MeanFieldAction._histogram(actions, n_actions)


def mix_policies(pi_alpha: ActionDist, pi_beta: ActionDist, eps: float) -> ActionDist:
    """Per-decision corruption mixture eps*alpha + (1-eps)*beta."""
    if not (0.0 <= eps <= 1.0):
        raise InvalidInputError(f"mixing weight must be in [0, 1], got {eps}")
    a, b = pi_alpha.probs, pi_beta.probs
    if a.shape != b.shape:
        raise InvalidInputError("policy supports differ")
    return ActionDist(eps * a + (1.0 - eps) * b)


def mix_policy_matrix(alpha_mat, beta_mat, eps_vec) -> np.ndarray:
    """Row-wise mixture for N agents at once; rows are action distributions."""
    alpha_mat = np.asarray(alpha_mat, dtype=float)
    beta_mat = np.asarray(beta_mat, dtype=float)
    eps_vec = np.asarray(eps_vec, dtype=float)
    if alpha_mat.shape != beta_mat.shape:
        raise InvalidInputError("policy matrices differ in shape")
    if eps_vec.shape != (alpha_mat.shape[0],):
        raise InvalidInputError("budget vector length mismatch")
    if np.any(eps_vec < 0) or np.any(eps_vec > 1):
        raise InvalidInputError("mixing weights must be in [0, 1]")
    e = eps_vec[:, None]
    return e * alpha_mat + (1.0 - e) * beta_mat


@dataclass(frozen=True)
class BudgetVector:
    """Per-agent corruption budgets eps_i in [0, 1].

    The aggregate xi is recomputed from the entries on every access, never
    cached, so it cannot go stale when a caller builds a modified copy.
    """

    eps: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.eps, dtype=float)
        if e.ndim != 1 or e.size == 0:
            raise InvalidInputError("budget vector must be non-empty and 1-d")
        if np.any(e < 0) or np.any(e > 1):
            raise InvalidInputError("budgets must lie in [0, 1]")
        object.__setattr__(self, "eps", e)

    @property
    def n_agents(self) -> int:
        return self.eps.size

    @property
    def xi(self) -> float:
        return aggregate_budget(self.eps)

    @property
    def attacked_ids(self):
        return np.flatnonzero(self.eps > 0.0)

    def with_agent(self, agent_id: int, eps: float) -> "BudgetVector":
        e = self.eps.copy()
        e[agent_id] = eps
        return BudgetVector(e)

    @staticmethod
    def zeros(n_agents: int) -> "BudgetVector":
        return BudgetVector(np.zeros(n_agents))

    @staticmethod
    def from_set(n_agents: int, agent_ids, eps: float = 1.0) -> "BudgetVector":
        e = np.zeros(n_agents)
        e[list(agent_ids)] = eps
        return BudgetVector(e)


def aggregate_budget(eps_vector) -> float:
    """xi = (1/N) sum_i eps_i."""
    e = np.asarray(eps_vector, dtype=float)
    if e.ndim != 1 or e.size == 0:
        raise InvalidInputError("budget vector must be non-empty and 1-d")
    if np.any(e < 0) or np.any(e > 1):
        raise InvalidInputError("budgets must lie in [0, 1]")
    return float(e.mean())


def check_deviation_bounds(pi_hat: ActionDist, pi_beta: ActionDist, eps: float,
                           p=np.inf, tol: float = 1e-9) -> bool:
    """True iff ||pi_hat - pi_beta||_p <= 2^(1/p) * eps + tol."""
    if not (0.0 <= eps <= 1.0):
        raise InvalidInputError(f"budget must be in [0, 1], got {eps}")
    dist = lp_norm(pi_hat.probs - pi_beta.probs, p)
    return dist <= deviation_constant(p) * eps + tol


def sample_actions(prob_matrix, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row of an (N, A) probability matrix."""
    prob_matrix = np.asarray(prob_matrix, dtype=float)
    cdf = np.cumsum(prob_matrix, axis=1)
    # guard against cumulative rounding leaving the last edge below 1
    cdf[:, -1] = 1.0
    u = rng.random(prob_matrix.shape[0])
    return (u[:, None] < cdf).argmax(axis=1)


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
