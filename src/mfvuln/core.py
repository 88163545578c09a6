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
    return np.random.default_rng(seed)


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


@dataclass(frozen=True)
class MeanFieldState:
    """Empirical distribution of agent states; entries are multiples of 1/N."""

    probs: np.ndarray
    n_agents: int


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
    return MeanFieldState(counts / states.size, states.size)


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
        return float(self.eps.mean())

    @staticmethod
    def zeros(n_agents: int) -> "BudgetVector":
        return BudgetVector(np.zeros(n_agents))

    @staticmethod
    def from_set(n_agents: int, agent_ids, eps: float = 1.0) -> "BudgetVector":
        e = np.zeros(n_agents)
        e[list(agent_ids)] = eps
        return BudgetVector(e)


def pick_categorical(probs, u) -> np.ndarray:
    """The inverse-cdf pick of each row of (..., A) probabilities: the first
    index whose cumulative probability exceeds the uniform draw u (shape (...))."""
    cdf = np.cumsum(probs, axis=-1)
    # guard against cumulative rounding leaving the last edge below 1
    cdf[..., -1] = 1.0
    return (u[..., None] < cdf).argmax(axis=-1)
