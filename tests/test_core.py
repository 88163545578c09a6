"""Mean-field bookkeeping: empirical fields, mixing, norms, budgets, bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfvuln.core import BudgetVector, dual_order, empirical_mean_field_state, seed_rng
from mfvuln.errors import InvalidInputError
from oracles import (ActionDist, NormOrder, attacked_ids, check_deviation_bounds,
                     check_mean_field_deviation, deviation_constant, lp_norm, mix_policies,
                     mix_policy_matrix, sample_actions, with_agent)


def rand_dist(rng, n):
    v = rng.random(n) + 1e-12
    return v / v.sum()


# -- empirical fields ----------------------------------------------------------


def test_mean_field_state_counts():
    mf = empirical_mean_field_state([0, 0, 1, 2], 3)
    assert np.allclose(mf.probs, [0.5, 0.25, 0.25])
    assert mf.n_agents == 4


def test_mean_field_state_degenerate():
    mf = empirical_mean_field_state([1, 1, 1], 2)
    assert np.allclose(mf.probs, [0.0, 1.0])


def test_mean_field_state_unvisited_bin():
    mf = empirical_mean_field_state([0, 1], 3)
    assert np.allclose(mf.probs, [0.5, 0.5, 0.0])


def test_empty_inputs_rejected():
    with pytest.raises(InvalidInputError):
        empirical_mean_field_state([], 3)


def test_out_of_range_index_rejected():
    with pytest.raises(InvalidInputError):
        empirical_mean_field_state([0, 3], 3)
    with pytest.raises(InvalidInputError):
        empirical_mean_field_state([-1], 2)


def test_mean_field_permutation_invariance():
    rng = seed_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        states = rng.integers(0, 6, n)
        a = empirical_mean_field_state(states, 6).probs
        b = empirical_mean_field_state(rng.permutation(states), 6).probs
        assert np.array_equal(a, b)


@st.composite
def index_arrays(draw):
    """(indices, size): a non-empty 1-d int array with every entry in range."""
    size = draw(st.integers(1, 40))
    indices = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=300))
    return np.array(indices, dtype=np.int64), size


@settings(deadline=None)
@given(index_arrays())
def test_builders_equal_normalized_bincount(case):
    indices, size = case
    want = np.bincount(indices, minlength=size) / indices.size
    mf = empirical_mean_field_state(indices, size)
    assert mf.probs.dtype == want.dtype
    assert mf.probs.tobytes() == want.tobytes()
    assert mf.n_agents == indices.size


@settings(deadline=None)
@given(index_arrays(), st.sampled_from(["empty", "2d", "negative", "too-large"]))
def test_builders_reject_malformed_indices(case, defect):
    indices, size = case
    bad = {"empty": indices[:0], "2d": indices[None, :],
           "negative": np.append(indices, -1), "too-large": np.append(indices, size)}[defect]
    with pytest.raises(InvalidInputError):
        empirical_mean_field_state(bad, size)


def test_prob_vector_validation():
    with pytest.raises(InvalidInputError):
        ActionDist(np.array([0.7, 0.7]))
    with pytest.raises(InvalidInputError):
        ActionDist(np.array([1.2, -0.2]))
    with pytest.raises(InvalidInputError):
        ActionDist(np.array([]))


# -- policy mixing ---------------------------------------------------------------


def test_mix_zero_budget_keeps_victim():
    beta = ActionDist(np.array([0.3, 0.7]))
    alpha = ActionDist(np.array([1.0, 0.0]))
    assert np.allclose(mix_policies(alpha, beta, 0.0).probs, [0.3, 0.7])


def test_mix_full_budget_is_takeover():
    alpha = ActionDist(np.array([1.0, 0.0]))
    beta = ActionDist(np.array([0.2, 0.8]))
    assert np.allclose(mix_policies(alpha, beta, 1.0).probs, [1.0, 0.0])


def test_mix_midpoint():
    alpha = ActionDist(np.array([1.0, 0.0]))
    beta = ActionDist(np.array([0.0, 1.0]))
    assert np.allclose(mix_policies(alpha, beta, 0.5).probs, [0.5, 0.5])


def test_mix_rejects_bad_budget():
    d = ActionDist(np.array([0.5, 0.5]))
    for eps in (-0.1, 1.1):
        with pytest.raises(InvalidInputError):
            mix_policies(d, d, eps)


def test_mix_output_is_distribution():
    rng = seed_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        out = mix_policies(ActionDist(rand_dist(rng, n)),
                           ActionDist(rand_dist(rng, n)), float(rng.random()))
        assert np.all(out.probs >= 0)
        assert abs(out.probs.sum() - 1.0) < 1e-9


def test_mix_policy_matrix_shapes():
    rng = seed_rng(6)
    a = np.stack([rand_dist(rng, 3) for _ in range(4)])
    b = np.stack([rand_dist(rng, 3) for _ in range(4)])
    e = rng.random(4)
    out = mix_policy_matrix(a, b, e)
    assert out.shape == (4, 3)
    assert np.allclose(out.sum(axis=1), 1.0)
    with pytest.raises(InvalidInputError):
        mix_policy_matrix(a, b, e[:3])
    with pytest.raises(InvalidInputError):
        mix_policy_matrix(a, b[:, :2], e)


# -- norms and duals ---------------------------------------------------------------


def test_lp_norm_examples():
    assert lp_norm([3, 4], 2) == pytest.approx(5.0)
    assert lp_norm([1, -2], np.inf) == pytest.approx(2.0)
    assert lp_norm([1, -2], 1) == pytest.approx(3.0)


def test_lp_norm_rejects_small_order():
    with pytest.raises(InvalidInputError):
        lp_norm([1, 2], 0.5)


def test_dual_order_pairs():
    assert dual_order(np.inf) == 1.0
    assert dual_order(1.0) == np.inf
    assert dual_order(2.0) == pytest.approx(2.0)


def test_dual_order_involution():
    rng = seed_rng(7)
    for p in [1.0, 2.0, np.inf] + list(1.0 + 9 * rng.random(20)):
        assert dual_order(dual_order(p)) == pytest.approx(p)


def test_norm_order_type():
    assert NormOrder(np.inf).q == 1.0
    assert NormOrder(2.0).q == pytest.approx(2.0)
    with pytest.raises(InvalidInputError):
        NormOrder(0.5)


def test_deviation_constant():
    assert deviation_constant(np.inf) == 1.0
    assert deviation_constant(1) == pytest.approx(2.0)
    assert deviation_constant(2) == pytest.approx(np.sqrt(2.0))


# -- budget arithmetic ---------------------------------------------------------------


def test_aggregate_budget_examples():
    assert BudgetVector(np.array([1, 1, 0, 0])).xi == pytest.approx(0.5)
    assert BudgetVector(np.zeros(5)).xi == 0.0
    assert BudgetVector(np.full(4, 0.5)).xi == pytest.approx(0.5)


def test_aggregate_budget_rejects_out_of_range():
    with pytest.raises(InvalidInputError):
        BudgetVector(np.array([0.5, 1.2]))
    with pytest.raises(InvalidInputError):
        BudgetVector(np.array([-0.1, 0.5]))


def test_aggregate_budget_linearity():
    rng = seed_rng(8)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        e1 = rng.random(n) * 0.5
        e2 = rng.random(n) * 0.5
        assert BudgetVector(e1 + e2).xi == pytest.approx(
            BudgetVector(e1).xi + BudgetVector(e2).xi)


def test_budget_vector_xi_recomputed():
    b = BudgetVector(np.array([1.0, 0.0, 0.0, 0.0]))
    assert b.xi == pytest.approx(0.25)
    b2 = with_agent(b, 1, 1.0)
    assert b2.xi == pytest.approx(0.5)
    assert b.xi == pytest.approx(0.25)  # original untouched
    assert np.array_equal(attacked_ids(b2), [0, 1])


def test_budget_vector_constructors():
    z = BudgetVector.zeros(3)
    assert z.xi == 0.0 and z.n_agents == 3
    s = BudgetVector.from_set(5, [4, 1], eps=0.5)
    assert np.allclose(s.eps, [0, 0.5, 0, 0, 0.5])
    with pytest.raises(InvalidInputError):
        BudgetVector(np.array([1.5]))
    with pytest.raises(InvalidInputError):
        BudgetVector(np.array([]))


# -- deviation bounds ---------------------------------------------------------------


def test_bound_zero_budget():
    beta = ActionDist(np.array([0.4, 0.6]))
    assert check_deviation_bounds(beta, beta, 0.0)


def test_bound_tight_case():
    # disjoint point masses sit exactly on the l1 bound 2 * eps
    alpha = ActionDist(np.array([1.0, 0.0]))
    beta = ActionDist(np.array([0.0, 1.0]))
    mixed = mix_policies(alpha, beta, 1.0)
    assert lp_norm(mixed.probs - beta.probs, 1) == pytest.approx(2.0)
    assert check_deviation_bounds(mixed, beta, 1.0, p=1)


def test_bound_monte_carlo_sweep():
    rng = seed_rng(9)
    for _ in range(2000):
        n = int(rng.integers(2, 6))
        alpha = ActionDist(rand_dist(rng, n))
        beta = ActionDist(rand_dist(rng, n))
        eps = float(rng.random())
        p = rng.choice([1.0, 2.0, np.inf])
        mixed = mix_policies(alpha, beta, eps)
        assert check_deviation_bounds(mixed, beta, eps, p=p)


def test_mean_field_concentration_rate():
    # failure probability of the population bound stays under the
    # sub-gaussian tail 2 exp(-2 N delta^2)
    rng = seed_rng(10)
    n_agents, delta = 100, 0.1
    fails = 0
    draws = 500
    for _ in range(draws):
        alpha = np.stack([rand_dist(rng, 4) for _ in range(n_agents)])
        beta = np.stack([rand_dist(rng, 4) for _ in range(n_agents)])
        eps = rng.random(n_agents) * (rng.random() < 0.5)
        ok = check_mean_field_deviation(alpha, beta, eps, np.inf, delta, rng)
        fails += not ok
    assert fails / draws < 2 * np.exp(-2 * n_agents * delta ** 2)


# -- sampling and seeding -------------------------------------------------------------


def test_sample_actions_deterministic_rows():
    probs = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
    acts = sample_actions(probs, seed_rng(0))
    assert np.array_equal(acts, [1, 0, 2])


def test_sample_actions_frequencies():
    rng = seed_rng(1)
    probs = np.tile([0.2, 0.8], (20000, 1))
    acts = sample_actions(probs, rng)
    assert abs(acts.mean() - 0.8) < 0.02


def test_seed_rng_reproducible_and_salted():
    a = seed_rng(42).random(5)
    b = seed_rng(42).random(5)
    c = seed_rng(42, salt="other-stream").random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    t1 = seed_rng((1, 2)).random(3)
    t2 = seed_rng((1, 2)).random(3)
    assert np.array_equal(t1, t2)
