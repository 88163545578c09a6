"""Mean-field bookkeeping for N-agent systems.

Agents carry integer local states and actions.  The population is summarized
by its empirical state distribution

    mu(s) = (1/N) sum_i 1[s_i = s]        (mean-field state)

and a per-agent corruption budget eps_i in [0, 1].  An agent with budget
eps_i executes the mixture

    pi_hat_i = eps_i * pi_alpha_i + (1 - eps_i) * pi_beta_i

of an adversarial policy pi_alpha and the cooperative policy pi_beta; the
aggregate budget xi = (1/N) sum_i eps_i is the share of the population's
decisions the adversary controls.  The learners score Q(s, a) and the value
model V(s, eps, xi) = base(s) - (eps + xi + eps*xi) * damp(s): neither takes
mu as an input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

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
class MeanFieldState:
    """Empirical distribution of agent states; entries are multiples of 1/N.

    The constructor checks everything it is given.
    ``empirical_mean_field_state`` checks only its indices: bincount / N is a
    valid distribution of multiples of 1/N by construction, so it skips the
    output checks.
    """

    probs: np.ndarray
    n_agents: int = 0

    def __post_init__(self):
        object.__setattr__(self, "probs", check_prob_vector(self.probs, "mean-field state"))
        if self.n_agents:
            counts = self.probs * self.n_agents
            if np.any(np.abs(counts - np.round(counts)) > 1e-6):
                raise InvalidInputError("mean-field entries are not multiples of 1/N")


def empirical_mean_field_state(states, n_states: int) -> MeanFieldState:
    """Histogram of agent states, normalized by the agent count."""
    states = np.asarray(states, dtype=int)
    if states.ndim != 1 or states.size == 0:
        raise InvalidInputError("states must be a non-empty 1-d integer array")
    try:
        counts = np.bincount(states, minlength=n_states)   # raises on negatives
        if counts.size > n_states:
            raise ValueError
    except ValueError:
        raise InvalidInputError("state index out of range") from None
    mf = object.__new__(MeanFieldState)
    object.__setattr__(mf, "probs", counts / states.size)
    object.__setattr__(mf, "n_agents", states.size)
    return mf


def mix_policy_matrix(alpha_mat, beta_mat, eps_vec) -> np.ndarray:
    """Row-wise mixture for N agents at once; rows are action distributions.

    The matrices may carry a leading batch axis, (B, N, A); the budgets are
    then one (N,) vector for the whole batch or one row per batch entry.
    """
    alpha_mat = np.asarray(alpha_mat, dtype=float)
    beta_mat = np.asarray(beta_mat, dtype=float)
    eps_vec = np.asarray(eps_vec, dtype=float)
    if alpha_mat.shape != beta_mat.shape:
        raise InvalidInputError("policy matrices differ in shape")
    if eps_vec.ndim == 0 or eps_vec.shape != alpha_mat.shape[-1 - eps_vec.ndim:-1]:
        raise InvalidInputError("budget vector length mismatch")
    if np.any(eps_vec < 0) or np.any(eps_vec > 1):
        raise InvalidInputError("mixing weights must be in [0, 1]")
    e = eps_vec[..., None]
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


def sample_actions(prob_matrix, rng) -> np.ndarray:
    """One categorical draw per row of an (N, A) probability matrix.

    A (B, N, A) batch takes a list of B generators, one per (N, A) slice,
    and each slice draws exactly what it would draw alone.
    """
    prob_matrix = np.asarray(prob_matrix, dtype=float)
    cdf = np.cumsum(prob_matrix, axis=-1)
    # guard against cumulative rounding leaving the last edge below 1
    cdf[..., -1] = 1.0
    n = prob_matrix.shape[-2]
    u = rng.random(n) if prob_matrix.ndim == 2 else np.array([r.random(n) for r in rng])
    return (u[..., None] < cdf).argmax(axis=-1)
