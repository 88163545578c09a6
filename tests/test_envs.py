"""Environment dynamics, rewards, graphs, and reproducibility."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfvuln.core import seed_rng
from mfvuln.envs import (TaxiGridEnv, ToyMeanFieldEnv, VicsekEnv, agent_layout, make_env,
                         order_parameter)
from mfvuln.envs.base import build_config, stack_snapshots, torus_sq_pairwise, wrap_angle
from mfvuln.envs.taxi import TaxiConfig
from mfvuln.envs.toy import ToyConfig
from mfvuln.envs.vicsek import VicsekConfig
from mfvuln.errors import InvalidConfigError, InvalidInputError
from mfvuln.pipeline import load_experiment_config
from mfvuln.qlearn import UniformPolicy, rollout

import oracles
from oracles import RulePolicy, rule_action_dists, rule_actions, torus_delta


VICSEK_YAML = Path(__file__).resolve().parent.parent / "configs" / "vicsek.yaml"


def small_vicsek(**kw):
    base = dict(n_agents=6, horizon=10, world_size=10.0, seed=2)
    base.update(kw)
    return VicsekEnv(VicsekConfig(**base))


def small_taxi(**kw):
    base = dict(n_agents=6, horizon=8, seed=2)
    base.update(kw)
    return TaxiGridEnv(TaxiConfig(**base))


# -- construction and dispatch ---------------------------------------------------


def test_make_env_dispatch():
    env = make_env({"env_name": "vicsek", "n_agents": 4})
    assert isinstance(env, VicsekEnv)
    assert isinstance(make_env({"env_name": "taxi"}), TaxiGridEnv)
    assert isinstance(make_env({"env_name": "toy"}), ToyMeanFieldEnv)


def test_make_env_unknown_name():
    with pytest.raises(InvalidConfigError):
        make_env({"env_name": "battle"})
    with pytest.raises(InvalidConfigError):
        make_env({})


def test_unknown_config_key_is_named():
    with pytest.raises(InvalidConfigError, match="wup"):
        make_env({"env_name": "vicsek", "wup": 3})


def test_taxi_capacity_check():
    with pytest.raises(InvalidConfigError):
        TaxiConfig(n_agents=65)


@pytest.mark.parametrize("config_cls", [VicsekConfig, TaxiConfig, ToyConfig])
def test_every_env_config_checks_the_shared_settings(config_cls):
    for bad, message in [({"n_agents": 0}, "n_agents must be >= 1"),
                         ({"horizon": 0}, "horizon must be >= 1"),
                         ({"seed": -1}, "seed must be >= 0"),
                         ({"gamma": 1.0}, "gamma must be in"),
                         ({"env_name": "other"}, "env_name mismatch")]:
        with pytest.raises(InvalidConfigError, match=message):
            build_config(config_cls, {"env_name": config_cls.env_name, **bad})
    # gamma is in [0, 1) on every env, as QModel takes it
    env = make_env({"env_name": config_cls.env_name, "gamma": 0.0})
    assert env.gamma == 0.0


def test_config_bounds():
    with pytest.raises(InvalidConfigError):
        VicsekConfig(n_actions=4)  # even turn sets have no "stay"
    with pytest.raises(InvalidConfigError):
        VicsekConfig(gamma=1.0)
    with pytest.raises(InvalidConfigError):
        TaxiConfig(grid_width=7)
    with pytest.raises(InvalidConfigError):
        ToyConfig(n_actions=1)  # null action needs a second one


# -- determinism --------------------------------------------------------------------


def test_reset_is_deterministic():
    for env in (small_vicsek(), small_taxi()):
        a, b = env.reset(seed=5), env.reset(seed=5)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.pos, b.pos)
    env = small_vicsek()
    assert np.array_equal(env.reset(seed=5).headings, env.reset(seed=5).headings)


def test_layout_fixed_across_episode_seeds():
    # identities persist: the initial placement ignores the reset seed
    env = small_vicsek()
    assert np.array_equal(env.reset(seed=0).pos, env.reset(seed=99).pos)
    taxi = small_taxi()
    assert np.array_equal(taxi.reset(seed=0).states, taxi.reset(seed=99).states)


def test_episode_bit_reproducible():
    for env in (small_vicsek(), small_taxi(),
                ToyMeanFieldEnv(ToyConfig(n_agents=3, horizon=15))):
        pol = UniformPolicy(env.n_actions)
        t1 = rollout(env, pol, seed=someseed())
        t2 = rollout(env, pol, seed=someseed())
        assert np.array_equal(t1.rewards, t2.rewards)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.actions, t2.actions)


def someseed():
    return (12, 34)


# -- step mechanics ----------------------------------------------------------------


def test_step_rejects_bad_action_vectors():
    env = small_vicsek()
    snap = env.reset(seed=0)
    with pytest.raises(InvalidInputError):
        env.step(snap, np.zeros(env.n_agents - 1, dtype=int))
    with pytest.raises(InvalidInputError):
        env.step(snap, np.full(env.n_agents, env.n_actions))


def test_reward_ranges():
    vic, taxi = small_vicsek(), small_taxi()
    for env, lo, hi in ((vic, 0.0, 1.0), (taxi, -1.0, 0.0)):
        snap = env.reset(seed=4)
        rng = seed_rng(4)
        for _ in range(env.horizon):
            res = env.step(snap, rng.integers(0, env.n_actions, env.n_agents))
            assert lo <= res.reward <= hi
            snap = res.snapshot


# -- vicsek specifics ---------------------------------------------------------------


def test_order_parameter_extremes():
    assert order_parameter(np.full(7, 1.3)) == pytest.approx(1.0)
    assert order_parameter([0.0, np.pi]) == pytest.approx(0.0, abs=1e-12)


def test_rule_no_turn_at_alignment():
    # already pointing at the neighbourhood mean: zero-noise rule stays put
    env = small_vicsek()
    snap = env.reset(seed=0)
    snap.headings[:] = 0.7
    snap.states = env._discretize(snap.pos, snap.headings)
    dists = rule_action_dists(env, snap, noise=0.0)
    stay = (env.config.n_actions - 1) // 2
    assert np.all(dists.argmax(axis=1) == stay)
    assert np.allclose(dists[:, stay], 1.0)


def test_rule_isolated_agent_keeps_heading():
    env = small_vicsek(n_agents=2, world_size=40.0, comm_radius=1.0)
    snap = env.reset(seed=0)
    snap.pos = np.array([[5.0, 5.0], [30.0, 30.0]])  # far apart on the torus
    snap.headings = np.array([1.1, -2.0])
    dists = rule_action_dists(env, snap, noise=0.0)
    stay = (env.config.n_actions - 1) // 2
    assert np.allclose(dists[:, stay], 1.0)


def test_rule_two_agents_meet_at_diagonal():
    # headings 0 and pi/2 pull each other to the circular mean pi/4
    env = small_vicsek(n_agents=2, comm_radius=3.0)
    snap = env.reset(seed=0)
    snap.pos = np.array([[5.0, 5.0], [5.5, 5.0]])
    snap.headings = np.array([0.0, np.pi / 2])
    acts = rule_actions(env, snap, seed_rng(0), noise=0.0)
    res = env.step(snap, acts)
    assert np.allclose(res.snapshot.headings, np.pi / 4)
    assert res.reward == pytest.approx(1.0)


def test_rule_alignment_never_regresses():
    # zero noise plus full connectivity: the order parameter is monotone
    env = small_vicsek(n_agents=8, comm_radius=100.0, horizon=25)
    snap = env.reset(seed=6)
    phi = order_parameter(snap.headings)
    policy = RulePolicy(env, noise=0.0)
    rng = seed_rng(6)
    for _ in range(env.horizon):
        acts = rule_actions(env, snap, rng, noise=0.0)
        res = env.step(snap, acts)
        assert res.reward >= phi - 1e-12
        phi = res.reward
        snap = res.snapshot
    assert phi > 0.99


def test_rule_noise_spreads_actions():
    env = small_vicsek()
    snap = env.reset(seed=1)
    dists = rule_action_dists(env, snap, noise=0.4)
    assert np.allclose(dists.sum(axis=1), 1.0)
    assert np.all(dists.max(axis=1) < 1.0)


def test_cluster_layout_sizes_and_split():
    from mfvuln.envs.vicsek import _cluster_sizes
    # geometric weights put two thirds of the flock in the first group
    assert np.array_equal(_cluster_sizes(16, 2), [11, 5])
    assert _cluster_sizes(16, 4).sum() == 16
    env = small_vicsek(n_agents=16, n_clusters=2, world_size=16.0)
    snap = env.reset(seed=0)
    sq = torus_sq_pairwise(snap.pos, 16.0)
    within = sq[:11, :11][np.triu_indices(11, 1)]
    across = sq[:11, 11:]
    assert within.mean() < across.mean()
    assert order_parameter(snap.headings) < 0.9  # clusters disagree initially


def test_observation_graph_geometry():
    env = small_vicsek(n_agents=3, world_size=20.0, comm_radius=1.0)
    snap = env.reset(seed=0)
    snap.pos = np.array([[1.0, 1.0], [1.5, 1.0], [3.0, 1.0]])
    adj = env.observation_graph(snap)
    assert adj[0, 1] and adj[1, 0]          # distance 0.5
    assert not adj[0, 2] and not adj[2, 0]  # distance 2
    snap.pos = np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])
    adj = env.observation_graph(snap)
    assert np.array_equal(adj.sum(axis=1), [1, 2, 1])


def test_observation_graph_symmetric_zero_diagonal():
    for env in (small_vicsek(), small_taxi()):
        snap = env.reset(seed=8)
        adj = env.observation_graph(snap)
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()


def test_toy_observation_graph_is_complete_at_any_radius():
    """Toy configs have no comm_radius: every agent observes every other one."""
    for n_agents in (1, 4):
        env = ToyMeanFieldEnv(ToyConfig(n_agents=n_agents))
        assert np.array_equal(env.observation_graph(env.reset(seed=0)),
                              ~np.eye(n_agents, dtype=bool))


# -- taxi specifics ------------------------------------------------------------------


def test_taxi_uniform_packing():
    env = TaxiGridEnv(TaxiConfig(n_agents=100, grid_width=10, grid_height=10))
    snap = env.reset(seed=0)
    assert np.unique(snap.states).size == 100  # one taxi per cell


def test_taxi_matched_supply_is_max_reward():
    assert TaxiGridEnv.mismatch_reward([2, 0, 1], [2, 0, 1]) == 0.0
    assert TaxiGridEnv.mismatch_reward([0, 0], [0, 0]) == 0.0


def test_taxi_mismatch_normalisation():
    # all supply in the wrong zone: |2-0| + |0-2| over volume 4
    assert TaxiGridEnv.mismatch_reward([2, 0], [0, 2]) == pytest.approx(-1.0)
    assert TaxiGridEnv.mismatch_reward([1, 1], [0, 2]) == pytest.approx(-0.5)


def test_taxi_moves_wrap():
    env = small_taxi(n_agents=1)
    snap = env.reset(seed=0)
    snap.states = np.array([0])
    res = env.step(snap, np.array([2]))  # west from x=0 wraps
    x, y = divmod(int(res.states[0]), env.config.grid_height)
    assert x == env.config.grid_width - 1 and y == 0


def test_taxi_demand_rates_centre_heavy():
    env = small_taxi()
    rates = env.demand_rates
    assert rates.sum() == pytest.approx(env.config.demand_rate * env.n_agents)
    zw, zh = env.config.grid_width // 2, env.config.grid_height // 2
    grid = rates.reshape(zw, zh)
    assert grid.max() == pytest.approx(grid[zw // 2 - 1: zw // 2 + 1,
                                            zh // 2 - 1: zh // 2 + 1].max())


# -- geometry helpers ------------------------------------------------------------------


def test_torus_helpers():
    assert torus_delta(9.0, 10.0) == pytest.approx(-1.0)
    assert torus_delta(-9.0, 10.0) == pytest.approx(1.0)
    pos = np.array([[0.0, 0.0], [9.0, 0.0]])
    assert torus_sq_pairwise(pos, 10.0)[0, 1] == pytest.approx(1.0)
    assert wrap_angle(3 * np.pi) == pytest.approx(-np.pi)


def scale_env(n: int):
    """configs/vicsek.yaml in the benchmark's scale layout: 10 clusters, world 32*sqrt(N/16)."""
    raw = {k: v for k, v in load_experiment_config(VICSEK_YAML).env.items()
           if k != "cluster_sizes"}
    raw.update(n_agents=n, n_clusters=10, world_size=32.0 * np.sqrt(n / 16))
    return make_env(raw)


def reference_env(env):
    """The same env with the modulo-and-complex-sum neighbour kernel."""
    ref = make_env(vars(env.config).copy())
    ref.neighbor_mean_heading = lambda pos, headings: oracles.neighbor_mean_heading(
        ref, pos, headings)
    return ref


@pytest.mark.parametrize("n, episodes", [(16, 4), (64, 2), (320, 1), ("yaml", 4)])
def test_neighbour_kernel_matches_the_modulo_reference(n, episodes):
    env = make_env(load_experiment_config(VICSEK_YAML).env) if n == "yaml" \
        else scale_env(n)
    ref, r = reference_env(env), env.config.comm_radius
    for ep in range(episodes):
        got = rollout(env, UniformPolicy(env.n_actions), (7, ep))
        want = rollout(ref, UniformPolicy(env.n_actions), (7, ep))
        assert got.states.tolist() == want.states.tolist()
        assert got.rewards.tobytes() == want.rewards.tobytes()
    snap = env.reset(seed=3)
    for t in range(10):
        adj = torus_sq_pairwise(snap.pos, env.config.world_size) <= r ** 2
        np.fill_diagonal(adj, True)
        assert np.array_equal(adj, oracles.vicsek_adjacency(env, snap.pos))
        gap = wrap_angle(env.neighbor_mean_heading(snap.pos, snap.headings)
                         - oracles.neighbor_mean_heading(env, snap.pos, snap.headings))
        assert np.abs(gap).max() <= 1e-12
        snap = env.step(snap, seed_rng((3, t)).integers(0, env.n_actions, env.n_agents)).snapshot


def test_neighbour_kernel_gives_the_same_bytes_after_a_call_of_another_size():
    env = scale_env(64)
    snap = env.reset(seed=3)
    first = env.neighbor_mean_heading(snap.pos, snap.headings)
    env.neighbor_mean_heading(snap.pos[:5], snap.headings[:5])
    again = env.neighbor_mean_heading(snap.pos, snap.headings)
    assert again.tobytes() == first.tobytes()
    assert np.abs(wrap_angle(first - oracles.neighbor_mean_heading(
        env, snap.pos, snap.headings))).max() <= 1e-12
    # B = 1, then B = 20 and one episode on its own, then B = 1 again
    batch = stack_snapshots([snap] + [env.reset(seed=s) for s in range(19)])
    before = env.neighbor_mean_heading(snap.pos[None], snap.headings[None])
    twenty = env.neighbor_mean_heading(batch.pos, batch.headings)
    alone = env.neighbor_mean_heading(batch.pos[7], batch.headings[7])
    after = env.neighbor_mean_heading(snap.pos[None], snap.headings[None])
    assert before.shape == after.shape == (1, 64) and twenty.shape == (20, 64)
    assert before.tobytes() == after.tobytes() == first.tobytes() == twenty[0].tobytes()
    assert alone.tobytes() == twenty[7].tobytes()


@pytest.mark.parametrize("n", [200, 289, 320, 353])
def test_row_blocks_sum_as_the_dense_product(n):
    """Large N splits an episode into row blocks (289 = 96 + 96 + 97 folds a
    one-row remainder into the last block); each row's sum keeps its bytes.
    A uniform layout gives every row about 19 neighbours to sum."""
    env = VicsekEnv(VicsekConfig(n_agents=n, world_size=float(np.sqrt(1.5 * n)), seed=n))
    batch = stack_snapshots([env.reset(seed=(13, b)) for b in range(3)])
    for t in range(10):
        means = env.neighbor_mean_heading(batch.pos, batch.headings)
        for b, snap in enumerate(batch.episodes()):
            want = oracles.dense_mean_heading(env, snap.pos, snap.headings)
            assert means[b].tobytes() == want.tobytes()
        actions = seed_rng((13, t)).integers(0, env.n_actions, (3, n))
        batch = env.step_batch(batch, actions).snapshot


LAYOUTS = [16, 64, 320, "yaml"]


def layout_env(layout, seed=None):
    """The benchmark's scale layout at N agents, or configs/vicsek.yaml as it is."""
    env = make_env(load_experiment_config(VICSEK_YAML).env) if layout == "yaml" \
        else scale_env(layout)
    return env if seed is None else make_env({**vars(env.config), "seed": seed})


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_steps_match_the_dense_oracle(env, seeds, action_seed, steps=50):
    """step_batch over all the seeds, and step on each, give the dense oracle's bytes."""
    batch = stack_snapshots([env.reset(seed=s) for s in seeds])
    singles, wants = [env.reset(seed=s) for s in seeds], [env.reset(seed=s) for s in seeds]
    for t in range(steps):
        actions = seed_rng((action_seed, t)).integers(0, env.n_actions,
                                                      (len(seeds), env.n_agents))
        res = env.step_batch(batch, actions)
        assert res.reward.shape == (len(seeds),) and res.snapshot.t == t + 1
        for b, got in enumerate(res.snapshot.episodes()):
            want = oracles.vicsek_step(env, wants[b], actions[b])
            one = env.step(singles[b], actions[b])
            assert type(one.reward) is float and one.snapshot.t == t + 1
            assert same(res.states[b], want.states) and same(one.states, want.states)
            for snap in (got, one.snapshot):
                for name in ("states", "pos", "headings"):
                    assert same(getattr(snap, name), getattr(want.snapshot, name)), name
            assert same(res.reward[b], want.reward) and same(one.reward, want.reward)
            singles[b], wants[b] = one.snapshot, want.snapshot
        batch = res.snapshot
        # the states hide a last-bit change in a row sum; the mean heading shows it
        means = env.neighbor_mean_heading(batch.pos, batch.headings)
        for b, snap in enumerate(wants):
            assert same(means[b], oracles.dense_mean_heading(env, snap.pos, snap.headings))


@pytest.mark.parametrize("batch_size", [1, 3, 20])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_step_and_step_batch_give_the_dense_oracle_bytes(layout, batch_size):
    env = layout_env(layout)
    assert_steps_match_the_dense_oracle(env, [(11, b) for b in range(batch_size)], 12)


@settings(max_examples=8, deadline=None)
@given(layout=st.sampled_from(LAYOUTS), batch_size=st.sampled_from([1, 3, 20]),
       layout_seed=st.integers(0, 2 ** 16), seed=st.integers(0, 2 ** 16),
       action_seed=st.integers(0, 2 ** 16))
def test_step_kernel_matches_the_dense_oracle_on_any_layout(layout, batch_size, layout_seed,
                                                            seed, action_seed):
    env = layout_env(layout, layout_seed)
    assert_steps_match_the_dense_oracle(env, [(seed, b) for b in range(batch_size)],
                                        action_seed)


def test_lattice_pairs_at_comm_radius_across_the_seam_are_neighbours():
    side, r = 12, 5.0
    xy = np.array([(x, y) for x in range(side) for y in range(side)], dtype=float)
    d = np.abs(xy[:, None, :] - xy[None, :, :]).astype(int)
    exact = (np.minimum(d, side - d) ** 2).sum(axis=2)   # integer squared distances
    assert ((exact == r ** 2) & (d.max(axis=2) > side // 2)).sum() > 0   # pairs on the seam
    assert np.array_equal(torus_sq_pairwise(xy, float(side)), exact)
    assert np.array_equal(torus_sq_pairwise(xy, float(side)) <= r ** 2, exact <= 25)
    env = small_vicsek(n_agents=2, world_size=float(side), comm_radius=r)
    # (1, 2) and (10, 10): offsets 3 and 4 across both seams, distance exactly r
    pos = np.array([[1.0, 2.0], [10.0, 10.0]])
    assert torus_sq_pairwise(pos, float(side))[0, 1] == r ** 2
    mean = env.neighbor_mean_heading(pos, np.array([0.0, 1.0]))
    assert mean == pytest.approx([0.5, 0.5])
    far = np.array([[1.0, 2.0], [10.0, 9.5]])
    assert env.neighbor_mean_heading(far, np.array([0.0, 1.0])) == pytest.approx([0.0, 1.0])


def test_taxi_observation_graph_matches_the_modulo_reference():
    """A taxi's position is its cell: no snapshot carries a pos.  A pair is adjacent
    at squared distance <= comm_radius**2, so at comm_radius = fl(sqrt(13)), whose
    square rounds below 13, a pair at squared distance 13 is not."""
    assert np.sqrt(13.0) ** 2 < 13
    envs = [TaxiGridEnv(TaxiConfig(n_agents=24, grid_width=8, grid_height=6, seed=1,
                                   comm_radius=radius))
            for radius in (0.0, 1.0, np.sqrt(2.0), 2.0, 2.5, np.sqrt(5.0), np.sqrt(13.0), 4.0)]
    snap = envs[0].reset(seed=1)
    assert snap.pos is None
    pairs_at_13 = 0
    for t in range(20):
        xy = np.column_stack(np.divmod(snap.states, 6))
        diff = xy[:, None, :] - xy[None, :, :]
        sq = torus_delta(diff[..., 0], 8) ** 2 + torus_delta(diff[..., 1], 6) ** 2
        pairs_at_13 += (sq == 13).sum()
        for env in envs:
            want = sq <= env.config.comm_radius ** 2
            np.fill_diagonal(want, False)
            assert np.array_equal(env.observation_graph(snap), want)
        snap = envs[0].step(snap, seed_rng((1, t)).integers(0, 5, envs[0].n_agents)).snapshot
        assert snap.pos is None
    assert pairs_at_13 > 0


@settings(max_examples=10, deadline=None)
@given(layout=st.sampled_from(LAYOUTS), layout_seed=st.integers(0, 2 ** 16),
       seed=st.integers(0, 2 ** 16))
def test_vicsek_observation_graph_is_the_neighbourhood_without_self(layout, layout_seed, seed):
    """The graph the dc selector ranks by is the neighbour pass's rule, self loops dropped."""
    env = layout_env(layout, layout_seed)
    snap = env.reset(seed=seed)
    for t in range(5):
        want = oracles.vicsek_adjacency(env, snap.pos)
        np.fill_diagonal(want, False)
        assert np.array_equal(env.observation_graph(snap), want)
        snap = env.step(snap, seed_rng((seed, t)).integers(0, env.n_actions, env.n_agents)).snapshot


def test_agent_layout_shapes():
    assert agent_layout(16) == (4, 4)
    assert agent_layout(8) == (2, 4)
    assert agent_layout(7) == (1, 7)
    for n in range(1, 30):
        r, c = agent_layout(n)
        assert r * c == n and r <= c


# -- toy exact solvers -------------------------------------------------------------


def test_toy_policy_value_satisfies_bellman():
    env = ToyMeanFieldEnv(ToyConfig(n_agents=3, seed=4))
    pi = oracles.boltzmann_matrix(oracles.optimal_q(env), 0.2)
    v = oracles.exact_policy_value(env, pi)
    q = oracles.exact_policy_q(env, pi)
    assert np.allclose((pi * q).sum(axis=1), v)
    r_pi = (pi * env.rewards).sum(axis=1)
    p_pi = np.einsum("sa,sat->st", pi, env.transitions)
    assert np.allclose(v, r_pi + env.gamma * p_pi @ v)


def test_toy_worst_case_below_cooperative():
    env = ToyMeanFieldEnv(ToyConfig(n_agents=4, seed=5))
    pi = oracles.boltzmann_matrix(oracles.optimal_q(env), 0.2)
    v_coop = oracles.exact_policy_value(env, pi)
    prev = v_coop
    for eps in (0.25, 0.5, 1.0):
        v = oracles.exact_worst_case_value(env, pi, eps)
        assert np.all(v <= prev + 1e-9)  # non-increasing in the budget
        prev = v
    assert np.allclose(oracles.exact_worst_case_value(env, pi, 0.0), v_coop)


def test_toy_attack_return_decomposes():
    env = ToyMeanFieldEnv(ToyConfig(n_agents=4, seed=6))
    pi = oracles.boltzmann_matrix(oracles.optimal_q(env), 0.2)
    v_coop = oracles.exact_policy_value(env, pi)
    v_adv = oracles.exact_worst_case_value(env, pi, 1.0)
    got = oracles.exact_attack_return(env, pi, [1, 3])
    want = (v_coop[env.initial_states[0]] + v_adv[env.initial_states[1]]
            + v_coop[env.initial_states[2]] + v_adv[env.initial_states[3]]) / 4
    assert got == pytest.approx(want)
    assert oracles.exact_attack_return(env, pi, []) == pytest.approx(
        v_coop[env.initial_states].mean())


def test_toy_exact_value_model_slices():
    env = ToyMeanFieldEnv(ToyConfig(n_agents=3, seed=7))
    pi = oracles.boltzmann_matrix(oracles.optimal_q(env), 0.2)
    model = oracles.exact_value_model(env, pi)
    v0, h = oracles.exact_robust_components(env, pi)
    s = int(env.initial_states[0])
    assert model.value(s, 0.0, 0.0) == pytest.approx(v0[s])
    assert model.value(s, 1.0, 1.0) == pytest.approx(v0[s] - 3.0 * h[s])
    got = model.values(env.initial_states, np.zeros(3), 0.5)
    assert np.allclose(got, v0[env.initial_states] - 0.5 * h[env.initial_states])
    with pytest.raises(InvalidInputError):
        model.value(s, 1.2, 0.0)
