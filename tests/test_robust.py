"""Budget-conditioned value fitting against closed-form and linear-solve oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfvuln.core import dual_order, lp_norm, seed_rng
from mfvuln.envs import make_env
from mfvuln.envs.toy import ToyConfig, ToyMeanFieldEnv
from mfvuln.errors import InvalidConfigError, InvalidInputError
from mfvuln.qlearn import QModel, TablePolicy, UniformPolicy, rollout
from mfvuln.robust import (FitConfig, RobustValueModel, build_corpus, fit_cooperative_q,
                           fit_robust_value)
from oracles import (W_MAX, TransitionSample, apply_robust_bellman,
                     fit_cooperative_q_per_transition, fit_robust_value_per_transition,
                     regularizer, sample_budgets, sup_norm_diff, worst_case_gap)

GAMMA = 0.9


def chain_env():
    """Single agent on a 5-state deterministic loop: 0 -> 1 -> 2 -> 3 -> 4 -> 2."""
    cfg = ToyConfig(n_agents=1, block_states=5, n_actions=2, deterministic=True,
                    null_action=False, horizon=30, gamma=GAMMA, seed=3)
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
    cfg = FitConfig(sweeps=100, p=p)
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


# -- aggregated sweep against the per-transition sweep ----------------------------


def assert_fits_match_per_transition(env, trajs, cfg):
    """Table, base and damp within rtol 1e-10 of the oracle (atol 1e-10 of each
    array's scale, for entries that cancel to near zero), unvisited cells exactly
    zero, visits equal."""
    q = fit_cooperative_q(trajs, env.n_states, env.n_actions, env.gamma, cfg)
    q_ref = fit_cooperative_q_per_transition(trajs, env.n_states, env.n_actions,
                                             env.gamma, cfg)
    v = fit_robust_value(q, trajs, cfg)
    base_ref, damp_ref = fit_robust_value_per_transition(q, trajs, cfg)
    for got, ref in [(q.table, q_ref.table), (v.base, base_ref), (v.damp, damp_ref)]:
        np.testing.assert_allclose(got, ref, rtol=1e-10,
                                   atol=1e-10 * max(1.0, np.abs(ref).max()))
    assert np.array_equal(q.visits, q_ref.visits)
    assert np.all(q.table[q.visits == 0] == 0.0)
    seen = np.bincount(build_corpus(trajs).s, minlength=env.n_states) > 0
    assert np.all(v.base[~seen] == 0.0) and np.all(v.damp[~seen] == 0.0)


@settings(max_examples=60, deadline=None)
@given(n_agents=st.integers(1, 4), block_states=st.integers(1, 4), n_actions=st.integers(2, 4),
       shared=st.booleans(), deterministic=st.booleans(), seed=st.integers(0, 10_000),
       episodes=st.integers(1, 4), p=st.sampled_from([1.0, 2.0, np.inf]),
       sweeps=st.integers(1, 300))
def test_aggregated_sweep_matches_per_transition_sweep_on_random_toy_corpora(
        n_agents, block_states, n_actions, shared, deterministic, seed, episodes, p, sweeps):
    env = ToyMeanFieldEnv(ToyConfig(n_agents=n_agents, block_states=block_states,
                                    n_actions=n_actions, shared=shared,
                                    deterministic=deterministic, horizon=8, gamma=GAMMA,
                                    seed=seed))
    trajs = [rollout(env, UniformPolicy(n_actions), (seed, k)) for k in range(episodes)]
    assert_fits_match_per_transition(env, trajs, FitConfig(sweeps=sweeps, p=p))


@pytest.mark.parametrize("raw", [{"env_name": "taxi", "n_agents": 16, "horizon": 20},
                                 {"env_name": "vicsek", "n_agents": 16, "horizon": 20}])
def test_aggregated_sweep_matches_per_transition_sweep_on_taxi_and_vicsek(raw):
    env = make_env(raw)
    trajs = [rollout(env, UniformPolicy(env.n_actions), (4, k)) for k in range(6)]
    assert_fits_match_per_transition(env, trajs, FitConfig(p=1.0))


def test_sweeps_stop_at_tol_before_the_sweep_budget_runs_out():
    env, policy, _, _ = chain_env()
    trajs = chain_trajectories(env, policy)

    def fit(**kwargs):
        cfg = FitConfig(**kwargs)
        q = fit_cooperative_q(trajs, env.n_states, env.n_actions, GAMMA, cfg)
        v = fit_robust_value(q, trajs, cfg)
        return q.table.tobytes() + v.base.tobytes() + v.damp.tobytes()

    # a tol of 1e-3 stops the gamma = 0.9 chain after about 100 sweeps, well
    # short of the float fixed point, so any sweep past the stop shows
    assert fit(tol=1e-3, sweeps=200) == fit(tol=1e-3, sweeps=300)
    assert fit(tol=1e-3, sweeps=200) != fit(tol=0.0, sweeps=200)
    # and it stops on the same sweep as the oracle: once no row moves by tol
    assert_fits_match_per_transition(env, trajs, FitConfig(tol=1e-3))


# -- corpus ----------------------------------------------------------------------


def test_corpus_pairs_consecutive_steps():
    env, policy, _, _ = chain_env()
    traj = rollout(env, policy, 1)
    corpus = build_corpus([traj])
    assert corpus.size == (len(traj.steps) - 1) * env.n_agents
    assert np.array_equal(corpus.r, traj.rewards[:-1])
    assert np.all(corpus.s2[:-1] == corpus.s[1:])  # single agent chains line up


def test_corpus_requires_two_steps():
    env, policy, _, _ = chain_env()
    traj = rollout(env, policy, 1, horizon=1)
    with pytest.raises(InvalidInputError):
        build_corpus([traj])


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
    q.save(path)
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
    with pytest.raises(InvalidConfigError):
        FitConfig(sweeps=0).validate()
    for bad in [{"p": 0.5}, {"p": np.nan}, {"p": -np.inf}, {"tol": -1.0}, {"tol": np.nan}]:
        with pytest.raises(InvalidConfigError):
            FitConfig(**bad).validate()


def test_norm_penalty_uses_the_dual_order():
    row = np.array([3.0, -4.0])
    assert regularizer(row, 1.0, 0.0, np.inf) == pytest.approx(lp_norm(row, 1.0))
    assert regularizer(row, 1.0, 0.0, 1.0) == pytest.approx(lp_norm(row, np.inf))
    assert regularizer(row, 1.0, 0.0, 2.0) == pytest.approx(lp_norm(row, dual_order(2.0)))
