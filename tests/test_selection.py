"""Attack-set selection against crafted value models and exhaustive search."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfvuln.core import BudgetVector, seed_rng
from mfvuln.envs.base import Snapshot
from mfvuln.envs.vicsek import VicsekConfig, VicsekEnv
from mfvuln.errors import InvalidConfigError, InvalidInputError
from mfvuln.robust import RobustValueModel
from mfvuln.selection import (
    AttackSet,
    load_attack_set,
    predicted_drop,
    save_attack_set,
    select_bruteforce,
    select_degree_centrality,
    select_greedy,
    select_random,
)

import oracles
from oracles import selector_reward, with_agent

GAMMA = 0.95


def value_model(damp_per_state, base_per_state=None):
    damp = np.asarray(damp_per_state, dtype=float)
    model = RobustValueModel(damp.size, 2, GAMMA)
    model.damp[:] = damp
    if base_per_state is not None:
        model.base[:] = np.asarray(base_per_state, dtype=float)
    return model


def drop_of(model, states0, ids, eps=1.0):
    return predicted_drop(model, states0, BudgetVector.from_set(len(states0), list(ids), eps))


# -- pick reward ------------------------------------------------------------------


def test_selector_reward_matches_hand_computation():
    model = value_model([2.0, 5.0, 1.0], base_per_state=[1.0, -1.0, 0.5])
    states0 = np.array([0, 1, 2])
    prev = BudgetVector.zeros(3)
    nxt = with_agent(prev, 1, 0.8)
    got = selector_reward(model, states0, prev, nxt)
    # xi rises to 0.8/3 for everyone; agent 1 additionally gets eps = 0.8
    xi = 0.8 / 3
    w = np.array([xi, 0.8 + xi + 0.8 * xi, xi])
    damp = np.array([2.0, 5.0, 1.0])
    assert got == pytest.approx((w * damp).mean(), abs=1e-12)


def test_selector_reward_warns_on_identical_budgets():
    model = value_model([1.0, 1.0])
    budget = BudgetVector.zeros(2)
    with pytest.warns(UserWarning, match="budgets unchanged"):
        r = selector_reward(model, np.array([0, 1]), budget, budget)
    assert r == 0.0


def test_selector_reward_rejects_mismatched_lengths():
    model = value_model([1.0, 1.0])
    with pytest.raises(InvalidInputError):
        selector_reward(model, np.array([0, 1]), BudgetVector.zeros(2), BudgetVector.zeros(3))


# -- greedy ------------------------------------------------------------------------


def test_greedy_picks_descend_the_damp_ranking():
    damp = np.array([0.5, 3.0, 1.5, 4.0, 0.1])
    model = value_model(damp)
    states0 = np.arange(5)
    mu0 = np.full(5, 0.2)
    attack = select_greedy(model, states0, mu0, 3, eps=1.0)
    assert list(attack.ids) == [3, 1, 2]
    assert attack.method == "greedy" and attack.k == 3
    assert attack.pick_rewards.shape == (3,)


def test_greedy_breaks_ties_toward_low_ids():
    model = value_model([1.0, 1.0, 1.0, 1.0])
    attack = select_greedy(model, np.arange(4), np.full(4, 0.25), 2)
    assert list(attack.ids) == [0, 1]


def test_greedy_total_telescopes_to_the_predicted_drop():
    rng = seed_rng(41)
    damp = rng.random(6) * 3
    model = value_model(damp, base_per_state=rng.normal(size=6))
    states0 = np.arange(6)
    mu0 = np.full(6, 1 / 6)
    for k in (1, 3, 6):
        attack = select_greedy(model, states0, mu0, k, eps=0.7)
        total = drop_of(model, states0, attack.ids, eps=0.7)
        assert attack.predicted_drop == pytest.approx(total, abs=1e-9)
        assert attack.predicted_drop == pytest.approx(attack.pick_rewards.sum(), abs=1e-12)


@st.composite
def random_value_models(draw):
    """A RobustValueModel over random base and damp tables."""
    n_states = draw(st.integers(1, 8))
    table = st.lists(st.floats(-50, 50), min_size=n_states, max_size=n_states)
    base, damp = np.array(draw(table)), np.array(draw(table))
    return value_model(damp, base_per_state=base)


@settings(max_examples=200, deadline=None)
@given(model=random_value_models(), data=st.data())
def test_greedy_pick_rewards_telescope_on_random_value_models(model, data):
    n = data.draw(st.integers(1, 20), label="n_agents")
    states0 = np.array(data.draw(st.lists(st.integers(0, model.n_states - 1),
                                          min_size=n, max_size=n)))
    k = data.draw(st.integers(0, n), label="k")
    eps = data.draw(st.floats(0.01, 1.0), label="eps")
    attack = select_greedy(model, states0, None, k, eps)
    final = drop_of(model, states0, attack.ids, eps)
    extremes = [model.values(states0, np.full(n, e), e) for e in (0.0, 1.0)]
    tol = 1e-9 * (1.0 + max(np.abs(v).max() for v in extremes))
    assert attack.k == k and attack.pick_rewards.size == k
    assert float(np.sum(attack.pick_rewards)) == pytest.approx(final, abs=tol)
    assert attack.predicted_drop == pytest.approx(final, abs=tol)


@st.composite
def tied_value_models(draw):
    """Integer base and damp tables, so many candidates tie exactly."""
    n_states = draw(st.integers(1, 6))
    table = st.lists(st.integers(-3, 3), min_size=n_states, max_size=n_states)
    base = np.array(draw(table), dtype=float)
    damp = np.abs(np.array(draw(table), dtype=float))
    return value_model(damp, base_per_state=base)


@settings(deadline=None, max_examples=150)
@given(tied_value_models(), st.data())
def test_batched_greedy_matches_the_per_candidate_loop(model, data):
    """The ranking equals K rounds of scoring every candidate alone.

    The reference loop counts rewards within 1e-9 * max(1, |best|) as ties,
    which merges real damp gaps once eps * gap / N falls below that, so eps
    is drawn from [1e-3, 1] where the reference itself is right.
    """
    n = data.draw(st.integers(1, 40), label="n_agents")
    states0 = np.array(data.draw(st.lists(st.integers(0, model.n_states - 1),
                                          min_size=n, max_size=n)))
    k = data.draw(st.integers(0, n), label="k")
    eps = data.draw(st.floats(1e-3, 1.0), label="eps")
    got = select_greedy(model, states0, None, k, eps)
    want = oracles.select_greedy(model, states0, k, eps)
    assert list(got.ids) == list(want.ids)
    assert got.pick_rewards.tobytes() == want.pick_rewards.tobytes()
    assert got.predicted_drop == want.predicted_drop


@st.composite
def graded_value_models(draw):
    """Random base tables; damp >= 0 on an integer grid, so damps tie or differ by >= 1."""
    n_states = draw(st.integers(1, 8))
    base = draw(st.lists(st.floats(-50, 50), min_size=n_states, max_size=n_states))
    damp = draw(st.lists(st.integers(0, 50), min_size=n_states, max_size=n_states))
    return value_model(np.array(damp, dtype=float), base_per_state=np.array(base))


@settings(deadline=None, max_examples=300)
@given(graded_value_models(), st.data())
def test_greedy_ids_are_the_stable_ranking_by_damp(model, data):
    """V is modular, so greedy picks agents by descending damp(s0), ties to the
    lowest id, at every budget: there is no tie tolerance to merge small gaps."""
    n = data.draw(st.integers(1, 20), label="n_agents")
    states0 = np.array(data.draw(st.lists(st.integers(0, model.n_states - 1),
                                          min_size=n, max_size=n)))
    k = data.draw(st.integers(0, n), label="k")
    eps = data.draw(st.floats(0.0, 1.0, exclude_min=True), label="eps")
    attack = select_greedy(model, states0, None, k, eps)
    ranking = np.argsort(-model.damp[states0], kind="stable")
    assert list(attack.ids) == list(ranking[:k])


def test_greedy_at_zero_budget_is_refused():
    """At eps 0 greedy once warned and returned k picks of reward 0: an attack set
    that corrupts no one.  An attack set refuses that budget, whatever its size."""
    model = value_model([1.0, 2.0, 0.5])
    for k in (0, 3):
        with pytest.raises(InvalidInputError, match=r"must be in \(0, 1\], got 0.0"):
            select_greedy(model, np.arange(3), None, k, 0.0)


def test_greedy_separates_a_damp_gap_at_tiny_budgets():
    """A reward gap of 5e-10 is a real gap: the larger damp wins."""
    attack = select_greedy(value_model([0.0, 1.0]), np.array([0, 1]), None, 1, 1e-9)
    assert list(attack.ids) == [1]


@settings(deadline=None, max_examples=200)
@given(model=random_value_models(), data=st.data())
def test_greedy_drop_is_the_best_of_every_subset(model, data):
    """No subset of the same size has a larger predicted drop than greedy's."""
    n = data.draw(st.integers(1, 8), label="n_agents")
    states0 = np.array(data.draw(st.lists(st.integers(0, model.n_states - 1),
                                          min_size=n, max_size=n)))
    k = data.draw(st.integers(0, n), label="k")
    eps = data.draw(st.floats(0.0, 1.0, exclude_min=True), label="eps")
    attack = select_greedy(model, states0, None, k, eps)
    extremes = [model.values(states0, np.full(n, e), e) for e in (0.0, 1.0)]
    tol = 1e-9 * (1.0 + max(np.abs(v).max() for v in extremes))
    best = max(drop_of(model, states0, subset, eps)
               for subset in itertools.combinations(range(n), k))
    assert attack.predicted_drop >= best - tol


def test_greedy_is_equivariant_under_agent_relabelling():
    damp = np.array([0.3, 2.2, 0.9, 1.4, 3.1, 0.05])
    model = value_model(damp)
    states0 = np.arange(6)
    mu0 = np.full(6, 1 / 6)
    perm = np.array([4, 2, 0, 5, 1, 3])
    first = select_greedy(model, states0, mu0, 3)
    second = select_greedy(model, states0[perm], mu0, 3)
    assert list(states0[perm][second.ids]) == list(states0[first.ids])


def test_greedy_handles_the_degenerate_sizes():
    model = value_model([1.0, 2.0])
    empty = select_greedy(model, np.arange(2), np.array([0.5, 0.5]), 0)
    assert empty.k == 0 and empty.predicted_drop == 0.0
    both = select_greedy(model, np.arange(2), np.array([0.5, 0.5]), 2)
    assert sorted(both.ids) == [0, 1]
    with pytest.raises(InvalidConfigError):
        select_greedy(model, np.arange(2), np.array([0.5, 0.5]), 3)


def test_greedy_matches_bruteforce_on_random_value_tables():
    rng = seed_rng(43)
    n = 8
    states0 = np.arange(n)
    mu0 = np.full(n, 1 / n)
    for trial in range(20):
        model = value_model(rng.random(n) * 5, base_per_state=rng.normal(size=n))
        k = int(rng.integers(1, 4))
        greedy = select_greedy(model, states0, mu0, k)

        def evaluator(subsets):
            return [-drop_of(model, states0, subset) for subset in subsets]

        brute, table = select_bruteforce(evaluator, n, k)
        assert len(table) == len(list(itertools.combinations(range(n), k)))
        g = drop_of(model, states0, greedy.ids)
        b = drop_of(model, states0, brute.ids)
        assert g == pytest.approx(b, abs=1e-12)


# -- baselines ---------------------------------------------------------------------


def test_random_selection_is_seeded_and_in_range():
    a = select_random(10, 4, seed=5)
    b = select_random(10, 4, seed=5)
    c = select_random(10, 4, seed=6)
    assert np.array_equal(a.ids, b.ids)
    assert a.k == 4 and a.method == "random"
    assert set(a.ids) <= set(range(10))
    assert not np.array_equal(a.ids, c.ids) or True  # different seeds may collide
    with pytest.raises(InvalidConfigError):
        select_random(4, 5, seed=0)


def test_degree_centrality_prefers_the_graph_middle():
    env = VicsekEnv(VicsekConfig(n_agents=3, comm_radius=3.0, seed=0))
    snap = Snapshot(t=0, states=np.zeros(3, dtype=int),
                    pos=np.array([[2.0, 8.0], [4.0, 8.0], [6.0, 8.0]]),
                    headings=np.zeros(3))
    assert list(select_degree_centrality(env, snap, 1).ids) == [1]
    # remaining agents tie at degree 1; the lower id wins
    assert list(select_degree_centrality(env, snap, 2).ids) == [1, 0]


def test_bruteforce_refuses_oversized_enumerations():
    with pytest.raises(InvalidConfigError):
        select_bruteforce(lambda subsets: [0.0] * len(subsets), 30, 15)


def test_bruteforce_returns_the_argmin_and_full_table():
    returns = {(0, 1): 5.0, (0, 2): 3.0, (0, 3): 4.0,
               (1, 2): 6.0, (1, 3): 2.0, (2, 3): 7.0}
    attack, table = select_bruteforce(lambda subsets: [returns[s] for s in subsets], 4, 2)
    assert tuple(attack.ids) == (1, 3)
    assert attack.method == "brute"
    assert len(table) == 6
    assert min(r for _, r in table) == 2.0


# -- attack-set record --------------------------------------------------------------


def test_attack_set_validation():
    with pytest.raises(InvalidInputError):
        AttackSet(np.array([1, 1]), 1.0, "random")
    with pytest.raises(InvalidInputError):
        AttackSet(np.array([-1]), 1.0, "random")
    with pytest.raises(InvalidInputError):
        AttackSet(np.array([0]), 1.5, "random")
    attack = AttackSet(np.array([3, 1]), 0.5, "greedy")
    assert list(attack.ids) == [3, 1]  # selection order preserved
    budgets = attack.budgets(4)
    assert budgets.eps[3] == 0.5 and budgets.eps[0] == 0.0
    with pytest.raises(InvalidInputError):
        attack.budgets(3)


def test_attack_set_roundtrip(tmp_path):
    attack = AttackSet(np.array([2, 0, 5]), 0.75, "greedy",
                       predicted_drop=1.25,
                       pick_rewards=np.array([0.5, 0.5, 0.25]))
    path = tmp_path / "set.att"
    save_attack_set(attack, path)
    loaded = load_attack_set(path)
    assert list(loaded.ids) == [2, 0, 5]
    assert loaded.eps == 0.75 and loaded.method == "greedy"
    assert loaded.predicted_drop == pytest.approx(1.25)
    assert np.allclose(loaded.pick_rewards, [0.5, 0.5, 0.25])
    bare = AttackSet(np.array([1]), 1.0, "random")
    save_attack_set(bare, path)
    loaded = load_attack_set(path)
    assert loaded.predicted_drop is None and loaded.pick_rewards is None
    path.write_text("something else\n")
    with pytest.raises(InvalidInputError):
        load_attack_set(path)


@pytest.mark.parametrize("key", ["method", "eps", "ids", "predicted_drop", "pick_rewards"])
def test_an_attack_set_missing_a_line_it_reads_is_refused_naming_it(tmp_path, key):
    """A record that lost its ids line once loaded as an attack on no agent, and
    a greedy one that lost a score line as an attack with no scores."""
    path = tmp_path / "set.att"
    save_attack_set(AttackSet(np.array([2, 0]), 0.5, "greedy", predicted_drop=0.75,
                              pick_rewards=np.array([0.5, 0.25])), path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith(f"{key} ")))
    with pytest.raises(InvalidInputError) as err:
        load_attack_set(path)
    assert str(path) in str(err.value)


def test_an_attack_set_record_with_a_repeated_id_is_refused_naming_it(tmp_path):
    path = tmp_path / "set.att"
    save_attack_set(AttackSet(np.array([2, 0]), 0.5, "random"), path)
    path.write_text(path.read_text().replace("\nids 2 0\n", "\nids 2 2\n"))
    with pytest.raises(InvalidInputError, match="duplicate ids") as err:
        load_attack_set(path)
    assert str(path) in str(err.value)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(-3, 19), max_size=8))
def test_attack_set_refuses_repeated_then_negative_ids(ids):
    if len(set(ids)) != len(ids):
        with pytest.raises(InvalidInputError, match="duplicate ids"):
            AttackSet(np.array(ids, dtype=int), 0.5, "random")
    elif ids and min(ids) < 0:
        with pytest.raises(InvalidInputError, match="negative ids"):
            AttackSet(np.array(ids, dtype=int), 0.5, "random")
    else:
        assert AttackSet(np.array(ids, dtype=int), 0.5, "random").ids.tolist() == ids
