"""Budget-conditioned value fitting against closed-form and linear-solve oracles."""

import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfvuln.core import dual_order, seed_rng
from mfvuln.envs import make_env
from mfvuln.envs.toy import ToyConfig, ToyMeanFieldEnv
from mfvuln.errors import InvalidConfigError, InvalidInputError
from mfvuln.pipeline import load_experiment_config
from mfvuln.qlearn import (BoltzmannPolicy, QModel, TablePolicy, TrainConfig, Trajectory,
                           UniformPolicy, rollout, rollouts, train_victims)
from mfvuln.robust import (FitConfig, RobustValueModel, _q_norms, fit_cooperative_q,
                           fit_robust_value)
from oracles import (W_MAX, TransitionSample, apply_robust_bellman, build_corpus, lp_norm,
                     fit_cooperative_q_on_corpus, fit_cooperative_q_per_transition,
                     fit_robust_value_on_corpus, fit_robust_value_per_transition,
                     q_penalty_per_transition, regularizer, sample_budgets, sup_norm_diff,
                     worst_case_gap)
from test_envs import scale_env

GAMMA = 0.9
TAXI_YAML = Path(__file__).resolve().parent.parent / "configs" / "taxi.yaml"


def chain_env(horizon=30):
    """Single agent on a 5-state deterministic loop: 0 -> 1 -> 2 -> 3 -> 4 -> 2."""
    cfg = ToyConfig(n_agents=1, block_states=5, n_actions=2, deterministic=True,
                    null_action=False, horizon=horizon, gamma=GAMMA, seed=3)
    env = ToyMeanFieldEnv(cfg)
    pi_act = np.array([1, 0, 1, 0, 0])
    succ = np.array([1, 2, 3, 4, 2])
    env.transitions[:] = 0.0
    for s in range(5):
        env.transitions[s, pi_act[s], succ[s]] = 1.0
        env.transitions[s, 1 - pi_act[s], s] = 1.0  # off-policy action self-loops
    env.rewards[:] = 0.0
    env.rewards[np.arange(5), pi_act] = [0.5, -1.0, 2.0, 0.3, -0.7]
    env.rewards[np.arange(5), 1 - pi_act] = [9.0, 9.0, 9.0, 9.0, 9.0]  # never logged
    env.initial_states = np.array([0])
    table = np.zeros((5, 2))
    table[np.arange(5), pi_act] = 1.0
    return env, TablePolicy(table), pi_act, succ


def chain_solution(env, pi_act, succ):
    """Exact policy value and discounted penalty accumulation by linear solve.

    Only the logged action of each state is visited, so the fitted Q row has a
    single nonzero entry equal to V(s) and the penalty per step is |V(s)|.
    """
    p_pi = np.zeros((5, 5))
    p_pi[np.arange(5), succ] = 1.0
    r_pi = env.rewards[np.arange(5), pi_act]
    v = np.linalg.solve(np.eye(5) - GAMMA * p_pi, r_pi)
    h = np.linalg.solve(np.eye(5) - GAMMA * p_pi, np.abs(v))
    return v, h


def chain_trajectories(env, policy):
    return [rollout(env, policy, (7, k)) for k in range(2)]


# -- regularizer ---------------------------------------------------------------


def test_regularizer_matches_worked_examples():
    assert regularizer(np.array([1.0, -2.0]), 1.0, 1.0, np.inf) == pytest.approx(9.0)
    assert regularizer(np.array([2.0, 2.0]), 0.5, 0.25, np.inf) == pytest.approx(3.5)
    # p = 1 prices the worst single coordinate
    assert regularizer(np.array([1.0, -2.0]), 1.0, 1.0, 1.0) == pytest.approx(6.0)
    assert regularizer(np.array([3.0, -4.0]), 1.0, 1.0, 2.0) == pytest.approx(15.0)


def test_regularizer_rejects_budgets_outside_unit_box():
    for eps, xi in [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.2)]:
        with pytest.raises(InvalidInputError):
            regularizer(np.array([1.0]), eps, xi)


def test_budget_weight_covers_the_unit_square():
    assert RobustValueModel.budget_weight(0.0, 0.0) == 0.0
    assert RobustValueModel.budget_weight(1.0, 1.0) == W_MAX
    rng = seed_rng(5)
    eps, xi = rng.random(50), rng.random(50)
    w = RobustValueModel.budget_weight(eps, xi)
    assert np.allclose(w, eps + xi + eps * xi)
    assert np.all((w >= 0) & (w <= W_MAX))
    with pytest.raises(InvalidInputError):
        RobustValueModel.budget_weight(1.5, 0.0)


def test_value_is_exactly_linear_in_the_budget_weight():
    model = RobustValueModel(4, 3, GAMMA)
    rng = seed_rng(8)
    model.base = rng.normal(size=model.base.shape)
    model.damp = rng.random(model.damp.shape)
    for eps, xi in [(0.0, 0.0), (1.0, 0.0), (0.3, 0.7), (1.0, 1.0)]:
        w = eps + xi + eps * xi
        for s in range(4):
            expect = model.base[s] - w * model.damp[s]
            assert model.value(s, eps, xi) == pytest.approx(expect, abs=1e-12)
    vec = model.values(np.array([0, 2, 3]), np.array([0.2, 0.0, 1.0]), 0.5)
    w = np.array([0.2, 0.0, 1.0]) + 0.5 + np.array([0.2, 0.0, 1.0]) * 0.5
    assert np.allclose(vec, model.base[[0, 2, 3]] - w * model.damp[[0, 2, 3]])


# -- pessimistic backup ----------------------------------------------------------


def _hand_models():
    q = QModel(3, 2, GAMMA)
    q.table[:] = [[1.0, -2.0], [0.5, 0.5], [-1.0, 3.0]]
    v = RobustValueModel(3, 2, GAMMA)
    v.base[:] = [1.0, 2.0, -1.0]
    v.damp[:] = [0.5, 0.0, 1.5]
    return q, v


def test_backup_decomposes_into_reward_bootstrap_and_penalty():
    q, v = _hand_models()
    sample = TransitionSample(s=0, a=1, r=0.25, s_next=2)
    for eps, xi in [(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)]:
        w = eps + xi + eps * xi
        expect = 0.25 + GAMMA * (v.base[2] - w * v.damp[2]) - w * 3.0
        got = apply_robust_bellman(v, q, sample, eps, xi)
        assert got == pytest.approx(expect, abs=1e-12)


def test_backup_contracts_in_the_bootstrap_model():
    rng = seed_rng(13)
    q = QModel(4, 3, GAMMA)
    q.table[:] = rng.normal(size=(4, 3))
    for _ in range(200):
        v1 = RobustValueModel(4, 3, GAMMA)
        v2 = RobustValueModel(4, 3, GAMMA)
        v1.base, v1.damp = rng.normal(size=4), rng.random(4)
        v2.base, v2.damp = rng.normal(size=4), rng.random(4)
        sup = sup_norm_diff(v1, v2)
        s, s2 = rng.integers(4), rng.integers(4)
        eps, xi = rng.random(), rng.random()
        sample = TransitionSample(s=int(s), a=0, r=float(rng.normal()), s_next=int(s2))
        gap = abs(apply_robust_bellman(v1, q, sample, eps, xi)
                  - apply_robust_bellman(v2, q, sample, eps, xi))
        assert gap <= GAMMA * sup + 1e-9


# -- fits against linear-solve oracles -------------------------------------------


def test_fitted_q_matches_policy_evaluation_on_deterministic_chain():
    env, policy, pi_act, succ = chain_env()
    v, _ = chain_solution(env, pi_act, succ)
    trajs = chain_trajectories(env, policy)
    model = fit_cooperative_q(trajs, env.n_states, env.n_actions, GAMMA, FitConfig())
    fitted = model.table[np.arange(5), pi_act]
    assert np.allclose(fitted, v, atol=1e-8)
    # the untaken action of every state is never logged and stays at zero
    assert np.all(model.table[np.arange(5), 1 - pi_act] == 0.0)


def test_fitted_base_and_damp_match_linear_solve_on_deterministic_chain():
    env, policy, pi_act, succ = chain_env()
    v, h = chain_solution(env, pi_act, succ)
    trajs = chain_trajectories(env, policy)
    cfg = FitConfig()
    qmodel = fit_cooperative_q(trajs, env.n_states, env.n_actions, GAMMA, cfg)
    vmodel = fit_robust_value(qmodel, trajs, cfg)
    assert np.allclose(vmodel.base, v, atol=1e-8)
    assert np.allclose(vmodel.damp, h, atol=1e-8)
    for s in range(5):
        assert vmodel.value(s, 0.0, 0.0) == pytest.approx(v[s], abs=1e-8)


def test_fitted_value_is_monotone_in_both_budgets():
    env, policy, _, _ = chain_env()
    trajs = chain_trajectories(env, policy)
    cfg = FitConfig()
    qmodel = fit_cooperative_q(trajs, env.n_states, env.n_actions, GAMMA, cfg)
    vmodel = fit_robust_value(qmodel, trajs, cfg)
    assert np.all(vmodel.damp >= 0.0)
    grid = np.linspace(0.0, 1.0, 5)
    for s in range(5):
        vals = np.array([[vmodel.value(s, e, x) for x in grid] for e in grid])
        assert np.all(np.diff(vals, axis=0) <= 1e-12)  # eps
        assert np.all(np.diff(vals, axis=1) <= 1e-12)  # xi


@settings(max_examples=60, deadline=None)
@given(n_agents=st.integers(1, 4), block_states=st.integers(1, 4), n_actions=st.integers(2, 4),
       shared=st.booleans(), deterministic=st.booleans(), seed=st.integers(0, 10_000),
       episodes=st.integers(1, 4), p=st.sampled_from([1.0, 2.0, np.inf]), data=st.data())
def test_fitted_values_fall_as_any_budget_grows_on_random_toy_corpora(
        n_agents, block_states, n_actions, shared, deterministic, seed, episodes, p, data):
    env = ToyMeanFieldEnv(ToyConfig(n_agents=n_agents, block_states=block_states,
                                    n_actions=n_actions, shared=shared,
                                    deterministic=deterministic, horizon=8, gamma=GAMMA,
                                    seed=seed))
    trajs = [rollout(env, UniformPolicy(n_actions), (seed, k)) for k in range(episodes)]
    cfg = FitConfig(p=p)
    vmodel = fit_robust_value(
        fit_cooperative_q(trajs, env.n_states, env.n_actions, GAMMA, cfg), trajs, cfg)
    assert np.all(vmodel.damp >= 0.0)

    unit = st.floats(0.0, 1.0)
    states = np.array(data.draw(st.lists(st.integers(0, env.n_states - 1),
                                         min_size=n_agents, max_size=n_agents)))
    eps = np.array(data.draw(st.lists(unit, min_size=n_agents, max_size=n_agents)))
    grown = np.minimum(1.0, eps + np.array(data.draw(
        st.lists(unit, min_size=n_agents, max_size=n_agents))))
    xi = data.draw(unit)
    xi_grown = min(1.0, xi + data.draw(unit))
    before = vmodel.values(states, eps, xi)
    assert np.all(vmodel.values(states, grown, xi) <= before)
    assert np.all(vmodel.values(states, eps, xi_grown) <= before)
    assert np.all(vmodel.values(states, grown, xi_grown) <= before)


def test_fitted_q_matches_empirical_fixed_point_with_stochastic_data():
    cfg = ToyConfig(n_agents=2, block_states=2, n_actions=2, deterministic=False,
                    horizon=15, gamma=GAMMA, seed=11)
    env = ToyMeanFieldEnv(cfg)
    policy = UniformPolicy(env.n_actions)
    trajs = [rollout(env, policy, (21, k)) for k in range(5)]
    model = fit_cooperative_q(trajs, env.n_states, env.n_actions, GAMMA, FitConfig())

    corpus = build_corpus(trajs)
    a_count = env.n_actions
    cell = corpus.s * a_count + corpus.a
    cell2 = corpus.s2 * a_count + corpus.a2
    n_cells = env.n_states * a_count
    counts = np.bincount(cell, minlength=n_cells).astype(float)
    visited = counts > 0
    # bootstrap from unvisited cells reads the frozen zero, so they drop out
    gain = np.zeros((n_cells, n_cells))
    np.add.at(gain, (cell, cell2), GAMMA)
    gain[visited] /= counts[visited, None]
    gain[:, ~visited] = 0.0
    b = np.bincount(cell, weights=corpus.r, minlength=n_cells)
    b[visited] /= counts[visited]
    x = np.zeros(n_cells)
    idx = np.where(visited)[0]
    x[idx] = np.linalg.solve(np.eye(idx.size) - gain[np.ix_(idx, idx)], b[idx])
    assert np.allclose(model.table.ravel(), x, atol=1e-8)


# -- the solved fits against the per-transition sweep run to convergence ----------


def assert_fits_match_per_transition(env, trajs, cfg):
    """Table, base and damp within rtol 1e-12 of the converged oracle (atol 1e-12
    of each array's scale, for entries that cancel to near zero), unvisited
    cells exactly zero, visits equal."""
    q = fit_cooperative_q(trajs, env.n_states, env.n_actions, env.gamma, cfg)
    q_ref = fit_cooperative_q_per_transition(trajs, env.n_states, env.n_actions, env.gamma)
    v = fit_robust_value(q, trajs, cfg)
    base_ref, damp_ref = fit_robust_value_per_transition(q, trajs, cfg)
    for got, ref in [(q.table, q_ref.table), (v.base, base_ref), (v.damp, damp_ref)]:
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * max(1.0, np.abs(ref).max()))
    assert np.array_equal(q.visits, q_ref.visits)
    assert np.all(q.table[q.visits == 0] == 0.0)
    seen = np.bincount(build_corpus(trajs).s, minlength=env.n_states) > 0
    assert np.all(v.base[~seen] == 0.0) and np.all(v.damp[~seen] == 0.0)


def random_toy_corpus(n_agents, block_states, n_actions, shared, deterministic, seed,
                      episodes):
    env = ToyMeanFieldEnv(ToyConfig(n_agents=n_agents, block_states=block_states,
                                    n_actions=n_actions, shared=shared,
                                    deterministic=deterministic, horizon=8, gamma=GAMMA,
                                    seed=seed))
    return env, [rollout(env, UniformPolicy(n_actions), (seed, k)) for k in range(episodes)]


toy_corpora = dict(n_agents=st.integers(1, 4), block_states=st.integers(1, 4),
                   n_actions=st.integers(2, 4), shared=st.booleans(),
                   deterministic=st.booleans(), seed=st.integers(0, 10_000),
                   episodes=st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([1.0, 2.0, np.inf]), **toy_corpora)
def test_aggregated_sweep_matches_per_transition_sweep_on_random_toy_corpora(p, **corpus):
    """The solved fits equal the per-transition sweep run to convergence."""
    env, trajs = random_toy_corpus(**corpus)
    assert_fits_match_per_transition(env, trajs, FitConfig(p=p))


@pytest.mark.parametrize("raw", [{"env_name": "taxi", "n_agents": 16, "horizon": 20},
                                 {"env_name": "vicsek", "n_agents": 16, "horizon": 20}])
def test_aggregated_sweep_matches_per_transition_sweep_on_taxi_and_vicsek(raw):
    """The solved fits equal the per-transition sweep run to convergence."""
    env = make_env(raw)
    trajs = [rollout(env, UniformPolicy(env.n_actions), (4, k)) for k in range(6)]
    assert_fits_match_per_transition(env, trajs, FitConfig(p=1.0))


def assert_solves_corpus_equations(cell, next_cell, reward, x, gamma):
    """count[c] * x[c] = R[c] + gamma * sum of x[next cell] over c's transitions,
    within 1e-12 of the summed magnitudes, for every visited cell c; every
    unvisited cell is exactly 0."""
    count = np.bincount(cell, minlength=x.size)
    rhs = np.bincount(cell, weights=reward + gamma * x[next_cell], minlength=x.size)
    scale = np.bincount(cell, weights=np.abs(reward) + gamma * np.abs(x[next_cell]),
                        minlength=x.size)
    seen = count > 0
    assert np.all(np.abs(count * x - rhs)[seen] <= 1e-12 * scale[seen])
    assert np.all(x[~seen] == 0.0)


def linalg_solve_corpus(cell, next_cell, reward, n_cells, gamma):
    """The corpus fixed point by np.linalg.solve of the dense visited-cell system."""
    count = np.bincount(cell, minlength=n_cells)
    seen = np.flatnonzero(count)
    lhs = np.diag(count.astype(float))
    np.add.at(lhs, (cell, next_cell), -gamma)
    x = np.zeros(n_cells)
    x[seen] = np.linalg.solve(lhs[np.ix_(seen, seen)],
                              np.bincount(cell, weights=reward, minlength=n_cells)[seen])
    return x


def refuse_linalg(*args, **kwargs):
    raise AssertionError("the fit called into LAPACK")


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([1.0, 2.0, np.inf]), gamma=st.sampled_from([0.0, GAMMA]),
       **toy_corpora)
@example(p=2.0, gamma=GAMMA, n_agents=1, block_states=1, n_actions=2, shared=False,
         deterministic=True, seed=260, episodes=1)      # one visited state and (state, action)
@example(p=np.inf, gamma=0.0, n_agents=1, block_states=1, n_actions=2, shared=True,
         deterministic=False, seed=1, episodes=2)
def test_fits_solve_the_corpus_bellman_equations_on_random_toy_corpora(p, gamma, **corpus):
    """The elimination solves the corpus equations without LAPACK, agrees with
    np.linalg.solve within 1e-12 of each array's scale and keeps damp >= 0
    exactly, at gamma 0 and on a one-cell corpus too."""
    env, trajs = random_toy_corpus(**corpus)
    cfg = FitConfig(p=p)
    with mock.patch.object(np.linalg, "inv", refuse_linalg), \
            mock.patch.object(np.linalg, "solve", refuse_linalg):
        q = fit_cooperative_q(trajs, env.n_states, env.n_actions, gamma, cfg)
        v = fit_robust_value(q, trajs, cfg)
    assert np.all(v.damp >= 0.0)
    c = build_corpus(trajs)
    idx = np.ravel_multi_index((c.s, c.a), q.table.shape)
    idx2 = np.ravel_multi_index((c.s2, c.a2), q.table.shape)
    penalty = q_penalty_per_transition(q, c, dual_order(p))
    for cell, next_cell, reward, x in [(idx, idx2, c.r, q.table.ravel()),
                                       (c.s, c.s2, c.r, v.base), (c.s, c.s2, penalty, v.damp)]:
        assert_solves_corpus_equations(cell, next_cell, reward, x, gamma)
        ref = linalg_solve_corpus(cell, next_cell, reward, x.size, gamma)
        # relative to the array's scale: a pivoting solve leaves about -1e-16
        # where the exact value, which the elimination gives, is 0
        np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_damp_stays_exactly_zero_where_no_penalty_is_reachable():
    """State 0 of this corpus has an all-zero Q row and leads only back to itself,
    so its exact damp is 0; a pivoting solve left -3.3e-15 there."""
    env, trajs = random_toy_corpus(n_agents=1, block_states=4, n_actions=4, shared=False,
                                   deterministic=True, seed=590, episodes=2)
    cfg = FitConfig(p=2.0)
    q = fit_cooperative_q(trajs, env.n_states, env.n_actions, GAMMA, cfg)
    v = fit_robust_value(q, trajs, cfg)
    assert np.all(q.table[0] == 0.0) and v.damp[0] == 0.0
    assert np.all(v.damp >= 0.0)


@pytest.mark.parametrize("raw", [{"env_name": "taxi", "n_agents": 16, "horizon": 20},
                                 {"env_name": "vicsek", "n_agents": 16, "horizon": 20},
                                 {"env_name": "toy", "n_agents": 4, "n_actions": 3}])
@pytest.mark.parametrize("qdual", [1.0, 1.5, 2.0, np.inf])
def test_per_state_penalty_equals_the_per_transition_one_byte_for_byte(raw, qdual):
    env = make_env(raw)
    trajs = [rollout(env, UniformPolicy(env.n_actions), (5, k)) for k in range(3)]
    corpus = build_corpus(trajs)
    q_model = QModel(env.n_states, env.n_actions, env.gamma)
    q_model.table = seed_rng(6, salt="penalty").normal(0, 40, q_model.table.shape)
    got = _q_norms(q_model, qdual)[corpus.s]
    want = q_penalty_per_transition(q_model, corpus, qdual)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# -- streamed fits against the materialized corpus, byte for byte -------------------


def assert_fits_equal_the_corpus_solve(env, trajs, cfg):
    """Table, visits, base and damp equal the solve over the per-transition
    corpus (oracles.build_corpus) in dtype, shape and every byte."""
    q = fit_cooperative_q(trajs, env.n_states, env.n_actions, env.gamma, cfg)
    q_ref = fit_cooperative_q_on_corpus(trajs, env.n_states, env.n_actions, env.gamma)
    v = fit_robust_value(q, trajs, cfg)
    base_ref, damp_ref = fit_robust_value_on_corpus(q, trajs, cfg)
    for got, ref in [(q.table, q_ref.table), (q.visits, q_ref.visits), (v.base, base_ref),
                     (v.damp, damp_ref)]:
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([1.0, 2.0, np.inf]),
       short=st.lists(st.integers(0, 1), max_size=3), data=st.data(), **toy_corpora)
def test_streamed_fits_equal_the_corpus_solve_on_random_toy_corpora(p, short, data, **corpus):
    """Trajectories of 0 and 1 steps, which add no transition, are mixed in."""
    env, trajs = random_toy_corpus(**corpus)
    one_step = ToyMeanFieldEnv(replace(env.config, horizon=1))   # the same tables
    for i, steps in enumerate(short):
        traj = rollout(one_step, UniformPolicy(env.n_actions), (corpus["seed"], 99, i))
        if steps == 0:
            traj = Trajectory(traj.states[:0], traj.actions[:0], traj.rewards[:0],
                              traj.final_states)
        trajs.insert(data.draw(st.integers(0, len(trajs))), traj)
    assert_fits_equal_the_corpus_solve(env, trajs, FitConfig(p=p))


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_streamed_fits_equal_the_corpus_solve_on_the_vicsek_n320_uniform_corpus(p):
    env = scale_env(320)
    trajs = rollouts(env, UniformPolicy(env.n_actions),
                     np.random.SeedSequence((0, 2, 320)).spawn(20))
    assert_fits_equal_the_corpus_solve(env, trajs, FitConfig(p=p))


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_streamed_fits_equal_the_corpus_solve_on_a_taxi_victim_corpus(p):
    env = make_env(load_experiment_config(TAXI_YAML).env)
    [(_, victim, _)] = train_victims(env, TrainConfig(episodes=200, min_margin=None), [0])
    trajs = rollouts(env, victim, np.random.SeedSequence((0, 2)).spawn(80))
    assert_fits_equal_the_corpus_solve(env, trajs, FitConfig(p=p))


# 40 x 7 = 280 cells: a cell index in uint8, or cell * 280 + next cell in uint16,
# wraps, so index arithmetic in the dtype of the trajectories would show
WIDE_CELLS = SimpleNamespace(n_states=40, n_actions=7, gamma=0.95)


def uint8_trajectories(seed, shapes):
    """Uniform random uint8 states and actions on WIDE_CELLS, one trajectory per
    (steps, agents) shape."""
    rng = seed_rng(seed, salt="blocks")
    return [Trajectory(rng.integers(WIDE_CELLS.n_states, size=(steps, agents), dtype=np.uint8),
                       rng.integers(WIDE_CELLS.n_actions, size=(steps, agents), dtype=np.uint8),
                       rng.normal(size=steps),
                       rng.integers(WIDE_CELLS.n_states, size=agents, dtype=np.uint8))
            for steps, agents in shapes]


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([1.0, 2.0, np.inf]), seed=st.integers(0, 10_000),
       shapes=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 5)), min_size=1, max_size=8))
def test_streamed_fits_equal_the_corpus_solve_on_uint8_trajectories(p, seed, shapes):
    """0- and 1-step trajectories add nothing, wherever they fall in the corpus."""
    shapes.append((2, 1))   # at least one transition
    trajs = uint8_trajectories(seed, shapes)
    assert_fits_equal_the_corpus_solve(WIDE_CELLS, trajs, FitConfig(p=p))


@settings(max_examples=20, deadline=None)
@given(p=st.sampled_from([1.0, 2.0, np.inf]), seed=st.integers(0, 10_000),
       shapes=st.lists(st.tuples(st.integers(0, 3),
                                 st.sampled_from([1, 2, 8192, 16383, 16384, 16385])),
                       min_size=1, max_size=6))
def test_streamed_fits_equal_the_corpus_solve_on_wide_uint8_trajectories(p, seed, shapes):
    """Trajectories of one or two transitions per agent, up to 16,385 agents wide."""
    shapes.append((2, 16383))
    trajs = uint8_trajectories(seed, shapes)
    assert_fits_equal_the_corpus_solve(WIDE_CELLS, trajs, FitConfig(p=p))


def synthetic_trajectories(count, n_agents=320, horizon=50, n_states=8, n_actions=5):
    """Uniform random states, actions and rewards; vicsek.yaml's 8 x 5 cells."""
    rng = seed_rng(41, salt="synthetic")

    def trajectory():
        steps = [(rng.integers(n_states, size=n_agents), rng.integers(n_actions, size=n_agents),
                  rng.random()) for _ in range(horizon)]
        states, actions, rewards = (np.array(column) for column in zip(*steps))
        return Trajectory(states, actions, rewards, rng.integers(n_states, size=n_agents))

    return [trajectory() for _ in range(count)]


def traced_fit_peak(trajs) -> int:
    """Peak traced bytes of both fits, with the trajectories already allocated."""
    tracemalloc.start()
    try:
        q = fit_cooperative_q(trajs, 8, 5, 0.95, FitConfig(p=1.0))
        fit_robust_value(q, trajs, FitConfig(p=1.0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fit_memory_does_not_grow_with_the_corpus():
    """Four times the N = 320 trajectories (160,000 -> 640,000 transitions)
    raise the fits' peak by less than 1 MB: they read one trajectory at a time."""
    small = traced_fit_peak(synthetic_trajectories(10))
    large = traced_fit_peak(synthetic_trajectories(40))
    assert large - small < 1_000_000, (small, large)


# -- corpus ----------------------------------------------------------------------


def test_corpus_pairs_consecutive_steps():
    env, policy, _, _ = chain_env()
    traj = rollout(env, policy, 1)
    corpus = build_corpus([traj])
    assert corpus.size == (len(traj.rewards) - 1) * env.n_agents
    assert np.array_equal(corpus.r, traj.rewards[:-1])
    assert np.all(corpus.s2[:-1] == corpus.s[1:])  # single agent chains line up


def test_corpus_requires_two_steps():
    """Both fits refuse a corpus without a transition, as the oracle corpus does."""
    env, policy, _, _ = chain_env(horizon=1)
    traj = rollout(env, policy, 1)
    empty = Trajectory(traj.states[:0], traj.actions[:0], traj.rewards[:0], traj.final_states)
    q = QModel(env.n_states, env.n_actions, GAMMA)
    for trajs in ([traj], [empty, traj], []):
        with pytest.raises(InvalidInputError, match="at least 2 steps"):
            fit_cooperative_q(trajs, env.n_states, env.n_actions, GAMMA, FitConfig())
        with pytest.raises(InvalidInputError, match="at least 2 steps"):
            fit_robust_value(q, trajs, FitConfig())
        with pytest.raises(InvalidInputError, match="at least 2 steps"):
            build_corpus(trajs)


@pytest.mark.parametrize("field, value", [("states", 5), ("states", -1), ("actions", 2),
                                          ("actions", -1)])
def test_fits_refuse_an_out_of_range_state_or_action(field, value):
    env, policy, _, _ = chain_env()
    trajs = chain_trajectories(env, policy)
    q = fit_cooperative_q(trajs, env.n_states, env.n_actions, GAMMA, FitConfig())
    # int64 copies, so -1 is a negative index and not a wrapped uint8
    last = trajs[1]
    trajs[1] = Trajectory(last.states.astype(np.int64), last.actions.astype(np.int64),
                          last.rewards, last.final_states)
    getattr(trajs[1], field)[-1, 0] = value  # the last step is only a next state
    with pytest.raises(ValueError, match="invalid entry"):
        fit_cooperative_q(trajs, env.n_states, env.n_actions, GAMMA, FitConfig())
    if field == "states":
        with pytest.raises(ValueError, match="invalid entry"):
            fit_robust_value(q, trajs, FitConfig())


# -- worst-case gap ---------------------------------------------------------------


def test_worst_case_gap_on_the_two_action_row():
    closed, brute = worst_case_gap(np.array([1.0, -1.0]), 0.5, 0.5, np.inf)
    assert closed == pytest.approx(0.5)
    assert brute == pytest.approx(0.5, abs=1e-12)


def test_worst_case_gap_closed_form_is_tight_for_box_and_crosspolytope():
    rng = seed_rng(17)
    for _ in range(25):
        row = rng.normal(size=rng.integers(1, 5))
        eps, xi = rng.random(), rng.random()
        closed, brute = worst_case_gap(row, eps, xi, np.inf)
        assert brute == pytest.approx(closed, abs=1e-9)
        closed, brute = worst_case_gap(row, eps, xi, 1.0)
        assert brute == pytest.approx(closed, abs=1e-9)


def test_worst_case_gap_is_an_upper_bound_for_intermediate_orders():
    closed, brute = worst_case_gap(np.array([1.0, 1.0]), 1.0, 1.0, 2.0)
    assert brute <= closed + 1e-9
    # spectral norm of diag([1,1]) is 1 while the dual-norm bound is sqrt(2)
    assert closed - brute > 0.2
    closed, brute = worst_case_gap(np.array([3.0]), 1.0, 1.0, 2.0)
    assert brute == pytest.approx(closed, abs=1e-9)


def test_worst_case_gap_validates_inputs():
    with pytest.raises(InvalidInputError):
        worst_case_gap(np.array([]), 0.5, 0.5)
    with pytest.raises(InvalidInputError):
        worst_case_gap(np.array([1.0]), 1.5, 0.5)
    with pytest.raises(InvalidInputError):
        worst_case_gap(np.array([1.0]), 0.5, 0.5, resolution=1)


# -- budget sampling ---------------------------------------------------------------


def test_budget_draws_couple_agent_and_population_budgets():
    rng = seed_rng(23)
    eps, xi = sample_budgets(4000, rng)
    assert eps.shape == xi.shape == (4000,)
    assert np.all((xi >= 0) & (xi < 1))
    assert set(np.unique(eps)) <= {0.0, 1.0}
    assert abs(xi.mean() - 0.5) < 0.05
    assert abs(eps.mean() - 0.5) < 0.05
    # eps ~ Bernoulli(xi) makes the two draws positively dependent
    assert np.corrcoef(eps, xi)[0, 1] > 0.3
    eps2, xi2 = sample_budgets(4000, seed_rng(23))
    assert np.array_equal(eps, eps2) and np.array_equal(xi, xi2)


# -- persistence and config --------------------------------------------------------


def test_value_model_roundtrip_preserves_every_slice(tmp_path):
    model = RobustValueModel(3, 2, GAMMA, p=1.0)
    rng = seed_rng(29)
    model.base = rng.normal(size=model.base.shape)
    model.damp = rng.random(model.damp.shape)
    path = tmp_path / "value.ckpt"
    model.save(path)
    loaded = RobustValueModel.load(path)
    assert loaded.p == 1.0
    assert loaded.base.shape == loaded.damp.shape == (3,)
    for s in range(3):
        for eps, xi in [(0.0, 0.0), (0.7, 0.2), (1.0, 1.0)]:
            assert loaded.value(s, eps, xi) == pytest.approx(
                model.value(s, eps, xi), abs=1e-12)
    assert sup_norm_diff(model, loaded) == pytest.approx(0.0, abs=1e-12)
    path.write_text(path.read_text().replace("n_states 3", "n_states 4"))
    with pytest.raises(InvalidInputError, match="reshape"):
        RobustValueModel.load(path)


def test_value_model_load_rejects_other_checkpoint_kinds(tmp_path):
    q = QModel(2, 2, GAMMA)
    path = tmp_path / "q.ckpt"
    BoltzmannPolicy(q, 0.1).save(path)
    with pytest.raises(InvalidInputError):
        RobustValueModel.load(path)


def test_sup_norm_diff_scans_the_budget_extremes():
    a = RobustValueModel(1, 1, GAMMA)
    b = RobustValueModel(1, 1, GAMMA)
    a.base[:], a.damp[:] = 1.0, 1.0
    b.base[:], b.damp[:] = 0.0, 0.0
    # difference is 1 - 3w in w; extremes at w=0 (1) and w=3 (|1-3|=2)
    assert sup_norm_diff(a, b) == pytest.approx(2.0)
    rng = seed_rng(31)
    for _ in range(20):
        a.base[:], a.damp[:] = rng.normal(), rng.normal()
        b.base[:], b.damp[:] = rng.normal(), rng.normal()
        w = np.linspace(0.0, W_MAX, 401)
        grid = np.abs((a.base[0] - b.base[0]) - w * (a.damp[0] - b.damp[0]))
        assert sup_norm_diff(a, b) == pytest.approx(grid.max(), abs=1e-6)


def test_fit_config_validation():
    for bad in [0.5, np.nan, -np.inf]:
        with pytest.raises(InvalidConfigError):
            FitConfig(p=bad)


def test_norm_penalty_uses_the_dual_order():
    row = np.array([3.0, -4.0])
    assert regularizer(row, 1.0, 0.0, np.inf) == pytest.approx(lp_norm(row, 1.0))
    assert regularizer(row, 1.0, 0.0, 1.0) == pytest.approx(lp_norm(row, np.inf))
    assert regularizer(row, 1.0, 0.0, 2.0) == pytest.approx(lp_norm(row, dual_order(2.0)))
