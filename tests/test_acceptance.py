"""End-to-end acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail line per
criterion plus a short printed summary of the measured quantities.  The two
population-scale criteria (prediction correlation and attack ordering) train
real victims and adversaries and take 10-30 s each on two cores; everything else
is oracle-based and fast.
"""

import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from mfvuln.core import BudgetVector, empirical_mean_field_state, seed_rng
from mfvuln.envs.toy import ToyConfig, ToyMeanFieldEnv
from mfvuln.qlearn import QModel, TablePolicy, attacked_returns, evaluate_policy, rollout
from mfvuln.robust import FitConfig, RobustValueModel, fit_cooperative_q, fit_robust_value
from mfvuln.selection import predicted_drop, select_bruteforce, select_greedy, select_random
from mfvuln.pipeline import (Run, correlate_prediction_vs_attack, load_experiment_config,
                             parse_experiment_config, run_pipeline,
                             sample_attack_subsets, stage_fit_value,
                             stage_train_victim)
from oracles import (ActionDist, TransitionSample, apply_robust_bellman,
                     check_deviation_bounds, check_mean_field_deviation, exact_attack_return,
                     exact_value_model, greedy_matrix, mix_policies, optimal_q, pooled_std,
                     sup_norm_diff, worst_case_gap)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

_cache = {}


def experiment(env_name: str):
    """The committed config of an environment: configs/<env_name>.yaml."""
    return load_experiment_config(CONFIGS / f"{env_name}.yaml")


def trained_setups(env_name: str, seeds):
    """Victim + fitted value model per seed, cached across criteria; the first
    stage_train_victim trains the victims not yet cached in one call, as a
    pipeline run trains its seeds'."""
    missing = [seed for seed in seeds if (env_name, seed) not in _cache]
    if missing:
        with tempfile.TemporaryDirectory() as out_dir:
            run = Run(experiment(env_name), out_dir, missing)
            for seed in missing:
                victim = stage_train_victim(run, seed)
                vmodel = stage_fit_value(run, seed)
                snap0 = run.env.reset(seed=seed)
                mu0 = empirical_mean_field_state(snap0.states, run.env.n_states).probs
                _cache[env_name, seed] = (run.env, victim, vmodel, snap0.states, mu0)
    return [_cache[env_name, seed] for seed in seeds]


def trained_setup(env_name: str, seed: int):
    """trained_setups for one seed."""
    return trained_setups(env_name, [seed])[0]


def attack_set_returns(env, victim, attacks, adv_cfg, eps, seed):
    """Victim returns under each attack set, each over adv_cfg.eval_episodes
    episodes; the adversaries train in one batch."""
    budgets = [BudgetVector.from_set(env.n_agents, list(attack.ids), eps) for attack in attacks]
    return attacked_returns(env, victim, budgets, adv_cfg, [seed] * len(budgets),
                            [(seed, 3)] * len(budgets))


# -- criterion 1: contraction -----------------------------------------------------


def test_criterion_1_contraction():
    gamma = 0.9
    n_states, n_actions = 6, 3
    rng = seed_rng(1, salt="acceptance-contraction")
    q_model = QModel(n_states, n_actions, gamma)
    q_model.table[:] = rng.normal(0, 2, q_model.table.shape)

    def random_model():
        vm = RobustValueModel(n_states, n_actions, gamma)
        vm.base[:] = rng.normal(0, 3, vm.base.shape)
        vm.damp[:] = np.abs(rng.normal(0, 1, vm.damp.shape))
        return vm

    start = time.time()
    worst = 0.0
    for _ in range(10_000):
        va, vb = random_model(), random_model()
        sample = TransitionSample(s=int(rng.integers(n_states)),
                                  a=int(rng.integers(n_actions)),
                                  r=float(rng.normal()),
                                  s_next=int(rng.integers(n_states)))
        eps, xi = rng.random(), rng.random()
        ta = apply_robust_bellman(va, q_model, sample, eps, xi)
        tb = apply_robust_bellman(vb, q_model, sample, eps, xi)
        gap = sup_norm_diff(va, vb)
        if gap > 1e-12:
            worst = max(worst, abs(ta - tb) / gap)
    elapsed = time.time() - start
    assert worst <= gamma + 1e-9
    assert elapsed < 10.0
    print(f"\n[criterion 1] PASS contraction factor {worst:.6f} <= "
          f"{gamma} + 1e-9 over 10000 pairs in {elapsed:.1f}s")


# -- criterion 2: deviation bounds ---------------------------------------------------


def test_criterion_2_deviation_bounds():
    rng = seed_rng(2, salt="acceptance-deviation")
    start = time.time()
    violations = 0
    for _ in range(10_000):
        n_actions = int(rng.integers(2, 6))
        alpha = ActionDist(rng.dirichlet(np.ones(n_actions)))
        beta = ActionDist(rng.dirichlet(np.ones(n_actions)))
        eps = float(rng.random())
        p = [1, 2, np.inf][int(rng.integers(3))]
        mixed = mix_policies(alpha, beta, eps)
        if not check_deviation_bounds(mixed, beta, eps, p):
            violations += 1
    assert violations == 0

    n_agents, n_actions, delta = 100, 4, 0.1
    fails = 0
    trials = 2000
    for _ in range(trials):
        alpha = rng.dirichlet(np.ones(n_actions), size=n_agents)
        beta = rng.dirichlet(np.ones(n_actions), size=n_agents)
        eps_vec = rng.random(n_agents)
        if not check_mean_field_deviation(alpha, beta, eps_vec, np.inf, delta, rng):
            fails += 1
    bound = 2 * np.exp(-2 * n_agents * delta ** 2)
    rate = fails / trials
    elapsed = time.time() - start
    assert rate < bound
    assert elapsed < 30.0
    print(f"[criterion 2] PASS 0/10000 policy-deviation violations; "
          f"concentration rate {rate:.4f} < {bound:.4f} in {elapsed:.1f}s")


# -- criterion 3: zero-budget reduction ----------------------------------------------


def test_criterion_3_zero_budget_slice():
    cfg = ToyConfig(n_agents=1, block_states=2, n_actions=2, deterministic=True,
                    null_action=False, horizon=30, gamma=0.9, seed=1)
    env = ToyMeanFieldEnv(cfg)
    env.transitions[:] = 0.0
    env.transitions[0, 0, 1] = 1.0
    env.transitions[1, 1, 0] = 1.0
    env.transitions[0, 1, 0] = 1.0   # off-policy self-loops, never logged
    env.transitions[1, 0, 1] = 1.0
    env.rewards[:] = 7.0
    env.rewards[0, 0] = 1.0
    env.rewards[1, 1] = -0.4
    env.initial_states = np.array([0])
    table = np.zeros((2, 2))
    table[0, 0] = table[1, 1] = 1.0
    victim = TablePolicy(table)

    trajs = [rollout(env, victim, (11, k)) for k in range(2)]
    fcfg = FitConfig()
    q_model = fit_cooperative_q(trajs, 2, 2, 0.9, fcfg)
    vmodel = fit_robust_value(q_model, trajs, fcfg)

    p_pi = np.array([[0.0, 1.0], [1.0, 0.0]])
    r_pi = np.array([1.0, -0.4])
    v_exact = np.linalg.solve(np.eye(2) - 0.9 * p_pi, r_pi)
    worst = max(abs(vmodel.value(s, 0.0, 0.0) - v_exact[s]) for s in (0, 1))
    assert worst <= 1e-3
    print(f"\n[criterion 3] PASS zero-budget slice max error {worst:.2e} <= 1e-3")


# -- criterion 4: closed-form worst case ---------------------------------------------


def test_criterion_4_worst_case_identity():
    rng = seed_rng(4, salt="acceptance-prop6")
    worst_rel = 0.0
    for _ in range(50):
        size = int(rng.integers(1, 5))
        q_row = rng.normal(0, 3, size)
        eps, xi = float(rng.random()), float(rng.random())
        closed, brute = worst_case_gap(q_row, eps, xi, np.inf, resolution=101)
        tol = 0.02 * closed + 1e-6
        assert abs(closed - brute) <= tol
        if closed > 0:
            worst_rel = max(worst_rel, abs(closed - brute) / (closed + 1e-12))
    print(f"\n[criterion 4] PASS 50/50 closed-vs-brute gaps within tolerance "
          f"(worst relative {worst_rel:.2e})")


# -- criterion 5: greedy vs brute force ----------------------------------------------


def test_criterion_5_greedy_matches_bruteforce():
    near, exact_k1 = 0, 0
    trials = 20
    for i in range(trials):
        cfg = ToyConfig(n_agents=6, block_states=2, n_actions=2,
                        deterministic=False, null_action=True, horizon=40,
                        gamma=0.9, seed=100 + i)
        env = ToyMeanFieldEnv(cfg)
        pi = greedy_matrix(optimal_q(env))
        model = exact_value_model(env, pi)
        snap = env.reset(seed=0)
        mu0 = empirical_mean_field_state(snap.states, env.n_states).probs

        def exact_return(subset):
            return exact_attack_return(env, pi, subset, 1.0)

        def exact_returns(subsets):
            return [exact_return(subset) for subset in subsets]

        brute2, _ = select_bruteforce(exact_returns, 6, 2, 1.0)
        greedy2 = select_greedy(model, snap.states, mu0, 2, 1.0)
        ret_brute = exact_return(brute2.ids)
        ret_greedy = exact_return(greedy2.ids)
        if ret_greedy <= ret_brute + 0.05 * abs(ret_brute):
            near += 1

        brute1, _ = select_bruteforce(exact_returns, 6, 1, 1.0)
        greedy1 = select_greedy(model, snap.states, mu0, 1, 1.0)
        if set(brute1.ids) == set(greedy1.ids):
            exact_k1 += 1
    assert near >= 18, f"greedy within 5% of brute in only {near}/20"
    assert exact_k1 >= 19, f"K=1 agreement in only {exact_k1}/20"
    print(f"\n[criterion 5] PASS greedy within 5% of brute {near}/20, "
          f"K=1 exact agreement {exact_k1}/20")


# -- criterion 6: prediction vs attack correlation ------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("env_name", ["vicsek", "taxi"])
def test_criterion_6_prediction_correlation(env_name):
    start = time.time()
    env, victim, vmodel, states0, mu0 = trained_setup(env_name, 0)
    cfg = experiment(env_name)
    subsets = sample_attack_subsets(env.n_agents, 20, seed=0)
    r, rows = correlate_prediction_vs_attack(vmodel, env, victim, subsets, cfg.adversary,
                                             seed=0)
    elapsed = time.time() - start
    assert abs(r) >= 0.8, f"{env_name}: |r|={abs(r):.3f} < 0.8"
    assert elapsed < 1800.0
    print(f"\n[criterion 6] PASS {env_name} pearson r = {r:+.3f} "
          f"(|r| >= 0.8) over 20 subsets in {elapsed:.0f}s")


# -- criterion 7: attack ordering ------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("env_name", ["vicsek", "taxi"])
def test_criterion_7_attack_ordering(env_name):
    seeds = [0, 1, 2, 3, 4]
    ks = (2, 4)
    returns, coop = {}, {}
    adv_cfg = experiment(env_name).adversary
    for seed, (env, victim, vmodel, states0, mu0) in zip(seeds, trained_setups(env_name, seeds)):
        # the seed's four adversaries (greedy and random at each K) train in one batch
        sets = {(k, "greedy"): select_greedy(vmodel, states0, mu0, k, 1.0) for k in ks}
        sets.update({(k, "random"): select_random(env.n_agents, k, seed, 1.0) for k in ks})
        for key, ret in zip(sets, attack_set_returns(env, victim, sets.values(), adv_cfg,
                                                     1.0, seed)):
            returns[(seed,) + key] = ret
        coop[seed] = evaluate_policy(env, victim, adv_cfg.eval_episodes, (seed, 3))
    lines = []
    for k in ks:
        results = {m: [float(returns[seed, k, m].mean()) for seed in seeds]
                   for m in ("greedy", "random")}
        episode_groups = [group for seed in seeds for group in
                          (returns[seed, k, "greedy"], returns[seed, k, "random"], coop[seed])]
        greedy_wins = sum(g < r for g, r in zip(results["greedy"], results["random"]))
        spread = pooled_std(episode_groups)
        assert greedy_wins >= 4, \
            f"{env_name} K={k}: greedy beats random in only {greedy_wins}/5 seeds"
        for method, vals in results.items():
            for seed, val in zip(seeds, vals):
                assert val <= float(coop[seed].mean()) + spread, \
                    f"{env_name} K={k} {method} seed={seed} exceeds coop + 1 pooled std"
        lines.append(f"K={k} greedy {greedy_wins}/5")
    print(f"\n[criterion 7] PASS {env_name} " + "; ".join(lines))


# -- criterion 8: telescoping -----------------------------------------------------------


def test_criterion_8_telescoping():
    rng = seed_rng(8, salt="acceptance-telescope")
    worst = 0.0
    for i in range(50):
        n = 16
        vm = RobustValueModel(n, 2, 0.95)
        vm.base[:] = rng.normal(0, 5, n)
        vm.damp[:] = np.abs(rng.normal(0, 2, n))
        states = rng.integers(n, size=n)
        mu = rng.dirichlet(np.ones(n))
        k = int(rng.integers(1, 9))
        attack = select_greedy(vm, states, mu, k, float(rng.uniform(0.2, 1.0)))
        # the pick rewards against an independent pricing of the final set
        gap = abs(float(np.sum(attack.pick_rewards))
                  - predicted_drop(vm, states, attack.budgets(n)))
        worst = max(worst, gap)
    assert worst < 1e-9
    print(f"\n[criterion 8] PASS telescoping gap {worst:.2e} < 1e-9 over 50 runs")


# -- criterion 9: determinism ------------------------------------------------------------


def test_criterion_9_pipeline_determinism(tmp_path):
    raw = {
        "name": "acceptance-determinism",
        "env": {"env_name": "toy", "n_agents": 4, "block_states": 2,
                "n_actions": 2, "horizon": 6, "seed": 0},
        "victim": {"episodes": 150, "eval_episodes": 6},
        "value": {"rollouts": 10},
        "selection": {"methods": ["greedy", "random", "dc"], "k": 2},
        "adversary": {"episodes": 8, "eval_episodes": 4},
        # 4 agents hold 4 distinct singletons: the default 20 subsets over sizes 1-2 cannot fit
        "correlation": {"n_subsets": 10, "k_max": 3},
        "seeds": [0, 1],
        "out_dir": str(tmp_path / "runs"),
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    out = run_pipeline(str(cfg_path))
    ledger = os.path.join(out, "ledger.csv")
    first = open(ledger, "rb").read()
    run_pipeline(str(cfg_path))
    second = open(ledger, "rb").read()
    assert first == second
    assert len(first.splitlines()) > 1
    print("\n[criterion 9] PASS pipeline rerun left the ledger byte-identical "
          f"({len(first.splitlines()) - 1} rows)")
