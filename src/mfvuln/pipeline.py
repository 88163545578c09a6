"""Experiment harness: strict config, staged pipeline, append-only results.

A run (``Run``) owns one output directory, which holds one experiment.
Three stages execute in order per seed: train the cooperative victim, fit
the budget-conditioned value model on its rollouts, then select attack sets
and train/evaluate adversaries for each configured method.  Every stage
goes through the run: an artifact is reused when its file exists, else
computed and saved, and a stage's ledger rows are written once, so a rerun
with the same config touches nothing and leaves the ledger byte-identical.
The run's seed is passed to every learner as an argument; the learner
sections of a config hold schedules only, so a ``seed`` key there is refused.

The ledger is an append-only CSV keyed by a hash of the config; analysis
helpers (Pearson correlation of predicted vs realized attack damage, and
per-agent vulnerability heatmaps) live here too.
"""

from __future__ import annotations

import csv
import fnmatch
import hashlib
import io
import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass, field, fields as dc_fields, replace
from typing import Optional, Union

import numpy as np
import yaml

from .attack import AdversaryConfig, evaluate_attack, train_adversaries, train_adversary
from .core import BudgetVector, seed_rng
from .envs import make_env
from .envs.base import agent_layout, check_field_types
from .errors import (ConfigParseError, InvalidConfigError, InvalidInputError,
                     StageDependencyError, UndefinedCorrelationError)
from .qlearn import (BoltzmannPolicy, TrainConfig, UniformPolicy,
                     evaluate_policy, rollouts, train_victim, write_atomic)
from .robust import (FitConfig, RobustValueModel, fit_cooperative_q,
                     fit_robust_value)
from .selection import (AttackSet, SelectorRLConfig, load_attack_set,
                        predicted_drop, save_attack_set, select_bruteforce,
                        select_degree_centrality, select_greedy, select_random,
                        select_rl)

FLOAT_FMT = "%.9g"
SELECTION_METHODS = ("greedy", "rl", "random", "dc", "brute")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % value
    return str(value)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _build_section(dc_cls, raw, section: str):
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigParseError(f"config section '{section}' must be a mapping")
    known = {f.name for f in dc_fields(dc_cls)}
    unknown = sorted(set(raw) - known, key=str)
    if unknown:
        raise ConfigParseError(
            f"unknown key '{unknown[0]}' in config section '{section}'")
    check_field_types(dc_cls, raw, ConfigParseError, f"config section '{section}'")
    try:
        obj = dc_cls(**raw)
    except TypeError as exc:
        raise ConfigParseError(f"bad section '{section}': {exc}") from exc
    if hasattr(obj, "validate"):
        obj.validate()
    return obj


@dataclass
class ValueStageConfig(FitConfig):
    # yaml spells the norm order as .inf / 1 / 2; strings also accepted
    p: Union[float, str] = np.inf
    rollouts: int = 80

    def validate(self):
        if isinstance(self.p, str):
            try:
                self.p = np.inf if self.p in ("inf", ".inf") else float(self.p)
            except ValueError:
                raise InvalidConfigError(f"bad norm order: {self.p!r}") from None
        super().validate()
        if self.rollouts < 1:
            raise InvalidConfigError("rollouts must be >= 1")

    def fit_config(self, seed: int) -> FitConfig:
        """The fit settings; ``seed`` is accepted and not used (fits draw nothing)."""
        return FitConfig(p=self.p)


@dataclass
class SelectionStageConfig:
    methods: list = field(default_factory=lambda: ["greedy", "rl", "random", "dc"])
    k: int = 2
    eps: float = 1.0
    rl_episodes: int = 200
    rl_lr: float = 0.05
    rl_gamma: float = 0.95
    brute_cap: int = 3000

    def validate(self):
        unknown = [m for m in self.methods if m not in SELECTION_METHODS]
        if unknown:
            raise InvalidConfigError(f"unknown selection method: {unknown[0]}")
        if not self.methods:
            raise InvalidConfigError("at least one selection method is required")
        if self.k < 0:
            raise InvalidConfigError("k must be >= 0")
        if not (0.0 < self.eps <= 1.0):
            raise InvalidConfigError("eps must be in (0, 1]")
        self.rl_config().validate()

    def rl_config(self) -> SelectorRLConfig:
        return SelectorRLConfig(episodes=self.rl_episodes, lr=self.rl_lr, gamma=self.rl_gamma)


@dataclass
class AdversaryStageConfig(AdversaryConfig):
    eval_episodes: int = 20

    def validate(self):
        super().validate()
        if self.eval_episodes < 1:
            raise InvalidConfigError("eval_episodes must be >= 1")


@dataclass
class CorrelationStageConfig:
    n_subsets: int = 20
    k_min: int = 1
    k_max: int = 0          # 0 means N // 2
    episodes: int = 10
    adv_episodes: int = 150

    def validate(self):
        if self.n_subsets < 10:
            raise InvalidConfigError("correlation needs at least 10 subsets")
        if self.k_min < 1 or (self.k_max and self.k_max < self.k_min):
            raise InvalidConfigError("bad subset size range")
        if self.episodes < 1 or self.adv_episodes < 1:
            raise InvalidConfigError("episode counts must be >= 1")


@dataclass
class HeatmapStageConfig:
    mode: str = "per-agent-eps"

    def validate(self):
        if self.mode not in ("per-agent-eps", "single-adversary-xi"):
            raise InvalidConfigError(f"unknown heatmap mode: {self.mode}")


@dataclass
class ExperimentConfig:
    raw: dict
    name: str
    env: dict
    victim: TrainConfig
    value: ValueStageConfig
    selection: SelectionStageConfig
    adversary: AdversaryStageConfig
    correlation: CorrelationStageConfig
    heatmap: HeatmapStageConfig
    seeds: list
    out_dir: str


_TOP_KEYS = ("name", "env", "victim", "value", "selection", "adversary",
             "correlation", "heatmap", "seeds", "out_dir")


def parse_experiment_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigParseError("config root must be a mapping")
    unknown = sorted(set(raw) - set(_TOP_KEYS), key=str)
    if unknown:
        raise ConfigParseError(f"unknown key '{unknown[0]}' at config top level")
    env_raw = raw.get("env")
    if not isinstance(env_raw, dict) or "env_name" not in env_raw:
        raise ConfigParseError("config section 'env' with an env_name is required")
    seeds = raw.get("seeds", [0])
    if not isinstance(seeds, (list, tuple)) or not seeds \
            or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds):
        raise ConfigParseError("'seeds' must be a non-empty list of integers")
    cfg = ExperimentConfig(
        raw=raw,
        name=str(raw.get("name", "experiment")),
        env=dict(env_raw),
        victim=_build_section(TrainConfig, raw.get("victim"), "victim"),
        value=_build_section(ValueStageConfig, raw.get("value"), "value"),
        selection=_build_section(SelectionStageConfig, raw.get("selection"), "selection"),
        adversary=_build_section(AdversaryStageConfig, raw.get("adversary"), "adversary"),
        correlation=_build_section(CorrelationStageConfig, raw.get("correlation"),
                                   "correlation"),
        heatmap=_build_section(HeatmapStageConfig, raw.get("heatmap"), "heatmap"),
        seeds=list(seeds),
        out_dir=str(raw.get("out_dir", "runs")),
    )
    env = make_env(cfg.env)   # validates the env section before any compute
    if cfg.selection.k > env.n_agents:
        raise InvalidConfigError(
            f"selection k={cfg.selection.k} exceeds population size {env.n_agents}")
    corr = cfg.correlation
    try:
        subset_sizes(env.n_agents, corr.n_subsets, corr.k_min, corr.k_max)
    except InvalidInputError as exc:
        raise InvalidConfigError(f"correlation: {exc}") from None
    return cfg


def load_experiment_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigParseError(f"cannot parse config {path}: {exc}") from exc
    return parse_experiment_config(raw)


def experiment_id(cfg: ExperimentConfig) -> str:
    canon = json.dumps(cfg.raw, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


# -- results ledger --------------------------------------------------------------


class ResultsLedger:
    """Append-only CSV of experiment metrics; rows are never rewritten."""

    COLUMNS = ("experiment_id", "stage", "method", "seed", "metric", "value")

    def __init__(self, path):
        self.path = path
        if not os.path.exists(path):
            write_atomic(path, _csv_text([self.COLUMNS]))

    def append(self, rows):
        """Append (experiment, stage, method, seed, metric, value) rows in one write."""
        text = _csv_text([exp, stage, method, str(seed), metric, _fmt(value)]
                         for exp, stage, method, seed, metric, value in rows)
        with open(self.path, "a", newline="") as fh:
            fh.write(text)

    def rows(self):
        with open(self.path, newline="") as fh:
            return list(csv.DictReader(fh))

    def find(self, experiment: str, stage: str, seed=None,
             method: Optional[str] = None) -> Optional[dict]:
        """First row of a stage, optionally of one seed and method; None if absent."""
        for row in self.rows():
            if row["experiment_id"] != experiment or row["stage"] != stage:
                continue
            if seed is not None and row["seed"] != str(seed):
                continue
            if method is not None and row["method"] != method:
                continue
            return row
        return None

    def has(self, experiment: str, stage: str, seed=None, method: Optional[str] = None) -> bool:
        return self.find(experiment, stage, seed=seed, method=method) is not None


# -- analyses --------------------------------------------------------------------


def pearson(xs, ys) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise InvalidInputError("pearson needs two equal-length vectors")
    if xs.size < 2:
        raise InvalidInputError("pearson needs at least two samples")
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    vx = float(xc @ xc)
    vy = float(yc @ yc)
    if vx <= 0.0 or vy <= 0.0:
        raise UndefinedCorrelationError("zero variance in correlation input")
    r = float(xc @ yc) / np.sqrt(vx * vy)
    return float(np.clip(r, -1.0, 1.0))


def subset_sizes(n_agents: int, n_subsets: int, k_min: int = 1,
                 k_max: Optional[int] = None) -> list:
    """Sizes cycling over [k_min, k_max] (k_max 0 or None: max(k_min, N // 2)),
    refused unless N agents hold that many distinct subsets of each size."""
    k_max = max(k_min, n_agents // 2) if not k_max else k_max
    if k_max > n_agents:
        raise InvalidInputError("k_max exceeds population size")
    sizes = [k_min + (i % (k_max - k_min + 1)) for i in range(n_subsets)]
    for k in range(k_min, k_max + 1):
        if sizes.count(k) > math.comb(n_agents, k):
            raise InvalidInputError(f"{sizes.count(k)} distinct subsets of size {k} "
                                    f"requested, but only C({n_agents}, {k}) exist")
    return sizes


def sample_attack_subsets(n_agents: int, n_subsets: int, seed, eps: float = 1.0,
                          k_min: int = 1, k_max: Optional[int] = None):
    """Distinct random subsets with sizes cycling over [k_min, k_max].

    Cycling sizes guarantees the predicted drops span a real range instead
    of clustering at one subset size.
    """
    rng = seed_rng(seed, salt="attack-subsets")
    subsets, seen = [], set()
    for k in subset_sizes(n_agents, n_subsets, k_min, k_max):
        for _ in range(1000):
            ids = tuple(sorted(rng.choice(n_agents, size=k, replace=False).tolist()))
            if ids not in seen:
                seen.add(ids)
                subsets.append(AttackSet(np.array(ids, dtype=int), eps, "random"))
                break
        else:
            raise InvalidInputError("could not sample enough distinct subsets")
    return subsets


def correlate_prediction_vs_attack(value_model, env, victim_policy, subsets,
                                   adv_cfg: AdversaryConfig, episodes: int, seed,
                                   out_csv=None):
    """Pair predicted drops with realized attacked returns; returns (r, rows).

    Each subset j gets its own adversary, seeded seed + 7919 * j, trained
    against the frozen victim (all of them in one batch); the Pearson
    correlation is between the value model's predicted drop and the realized
    attacked return (damaging subsets should sit low, so a faithful model
    shows strongly negative r).
    """
    if len(subsets) < 10:
        raise InvalidInputError("need at least 10 attack subsets")
    states0 = env.reset(seed=seed).states
    budgets = [attack.budgets(env.n_agents) for attack in subsets]
    adversaries = train_adversaries(env, victim_policy, budgets, adv_cfg,
                                    [seed + 7919 * j for j in range(len(subsets))])
    rows = []
    for j, (budget, (_, adv_policy, _)) in enumerate(zip(budgets, adversaries)):
        returns = evaluate_attack(env, victim_policy, budget, episodes,
                                  seed=(seed, 4, j), adversary_policy=adv_policy)
        rows.append((predicted_drop(value_model, states0, None, budget), float(returns.mean())))
    r = pearson([p for p, _ in rows], [m for _, m in rows])
    if out_csv:
        write_atomic(out_csv, _csv_text([("predicted_drop", "realized_return")]
                                        + [(_fmt(p), _fmt(m)) for p, m in rows]))
    return r, rows


def export_heatmap(value_model, env, snapshot, mode: str, out_csv=None) -> np.ndarray:
    """Per-agent vulnerability grid shaped by the population layout.

    per-agent-eps: drop from fully corrupting each agent alone (eps 0 -> 1,
    xi pinned at 0).  single-adversary-xi: drop every agent suffers when one
    anonymous adversary joins the population (xi 0 -> 1/N).
    """
    states0 = snapshot.states
    n = states0.size
    zero = np.zeros(n)
    v00 = value_model.values(states0, zero, 0.0)
    if mode == "per-agent-eps":
        v1 = value_model.values(states0, np.ones(n), 0.0)
    elif mode == "single-adversary-xi":
        v1 = value_model.values(states0, zero, 1.0 / n)
    else:
        raise InvalidInputError(f"unknown heatmap mode: {mode}")
    drops = v00 - v1
    rows, cols = agent_layout(n)
    grid = drops.reshape(rows, cols)
    if out_csv:
        write_atomic(out_csv, _csv_text([_fmt(v) for v in row] for row in grid))
    return grid


# -- staged pipeline --------------------------------------------------------------


class RunPaths:
    def __init__(self, out_dir):
        self.out_dir = out_dir

    def _p(self, name):
        return os.path.join(self.out_dir, name)

    def ledger(self):
        return self._p("ledger.csv")

    def experiment_id(self):
        return self._p("experiment_id.txt")

    def victim_policy(self, seed):
        return self._p(f"victim_s{seed}.policy")

    def trajectories(self, seed):
        return self._p(f"trajectories_s{seed}.csv")

    def value_model(self, seed):
        return self._p(f"value_s{seed}.robust")

    def attack_set(self, seed, method):
        return self._p(f"attack_{method}_s{seed}.txt")

    def adversary(self, seed, method):
        return self._p(f"adversary_{method}_s{seed}.policy")

    def brute_scores(self, seed):
        return self._p(f"brute_scores_s{seed}.csv")

    def correlation(self, seed):
        return self._p(f"correlation_s{seed}.csv")

    def heatmap(self, seed, mode):
        return self._p(f"heatmap_{mode}_s{seed}.csv")

    def artifacts(self) -> list:
        """Files in out_dir named as above, for any seed and key."""
        names = ("ledger.csv", "victim_s*", "trajectories_s*", "value_s*", "attack_*_s*",
                 "adversary_*_s*", "brute_scores_s*", "correlation_s*", "heatmap_*_s*")
        return [f for f in sorted(os.listdir(self.out_dir))
                if any(fnmatch.fnmatch(f, n) for n in names)]


def write_trajectories_csv(path, trajectories):
    rows = ((ep, st.t, _fmt(st.reward), ";".join(str(s) for s in st.states),
             ";".join(str(a) for a in st.actions))
            for ep, traj in enumerate(trajectories) for st in traj.steps)
    write_atomic(path, _csv_text(itertools.chain(
        [("episode", "t", "reward", "states", "actions")], rows)))


def _save(obj, path, seed):
    obj.save(path)


# RunPaths method naming a stage artifact -> (loader, saver, command that makes it)
ARTIFACTS = {
    "victim_policy": (BoltzmannPolicy.load, _save, "train-victim"),
    "value_model": (RobustValueModel.load, _save, "fit-value"),
    "attack_set": (load_attack_set, save_attack_set, "select"),
    "adversary": (BoltzmannPolicy.load, _save, "attack"),
}


class Run:
    """One experiment in its output directory, and the plumbing its stages share.

    ``artifact`` reuses a stage's file or computes and saves it, and
    ``record`` writes a stage's ledger rows once.  Objects loaded or computed
    are kept for the rest of the run.  Files are not keyed by config, so a
    directory holds one experiment: its id is written to the directory before
    any stage runs, and a directory holding another id is refused.
    """

    def __init__(self, config, out_dir=None, seeds=None):
        if isinstance(config, (str, os.PathLike)):
            config = load_experiment_config(config)
        if out_dir is not None:
            config = replace(config, out_dir=str(out_dir))
        if seeds is not None:
            config = replace(config, seeds=list(seeds))
        self.cfg, self.exp = config, experiment_id(config)
        self.env = make_env(config.env)
        os.makedirs(config.out_dir, exist_ok=True)
        self.paths = RunPaths(config.out_dir)
        id_path = self.paths.experiment_id()
        if not os.path.exists(id_path):
            if self.paths.artifacts():
                raise InvalidConfigError(f"{config.out_dir} holds stage files of an unknown "
                                         "experiment (no experiment_id.txt); use a new out_dir")
            write_atomic(id_path, self.exp + "\n")
        with open(id_path) as fh:
            held = fh.read().strip()
        if held != self.exp:
            raise InvalidConfigError(
                f"{config.out_dir} holds experiment {held}, not {self.exp}; "
                "a changed config needs its own out_dir")
        self.ledger = ResultsLedger(self.paths.ledger())
        self._kept = {}

    def has(self, kind: str, seed: int, *key) -> bool:
        """Whether the file RunPaths.<kind>(seed, *key) is kept or on disk."""
        path = getattr(self.paths, kind)(seed, *key)
        return path in self._kept or os.path.exists(path)

    def artifact(self, kind: str, seed: int, *key, compute=None):
        """The file RunPaths.<kind>(seed, *key): kept, loaded, or computed and saved."""
        path = getattr(self.paths, kind)(seed, *key)
        if path not in self._kept:
            load, save, command = ARTIFACTS[kind]
            if os.path.exists(path):
                self._kept[path] = load(path)
            elif compute is None:
                raise StageDependencyError(f"missing {path}; run {command} first")
            else:
                self._kept[path] = compute()
                save(self._kept[path], path, seed)
        return self._kept[path]

    def record(self, stage: str, seed: int, rows):
        """Append rows() as (method, metric, value) ledger rows unless the stage has them."""
        if not self.ledger.has(self.exp, stage, seed=seed):
            self.ledger.append([(self.exp, stage, method, seed, metric, value)
                                for method, metric, value in rows()])


def stage_train_victim(run: Run, seed: int):
    env, vcfg = run.env, run.cfg.victim
    policy = run.artifact("victim_policy", seed,
                          compute=lambda: train_victim(env, vcfg, seed)[1])

    def rows():
        trained = evaluate_policy(env, policy, vcfg.eval_episodes, seed=(seed, 1))
        uniform = evaluate_policy(env, UniformPolicy(env.n_actions),
                                  vcfg.eval_episodes, seed=(seed, 1))
        return [("mfq", "victim_return", float(trained.mean())),
                ("mfq", "victim_std", float(trained.std(ddof=1))),
                ("uniform", "victim_return", float(uniform.mean()))]

    run.record("victim", seed, rows)
    return policy


def _fit_value(run: Run, seed: int) -> RobustValueModel:
    env, victim = run.env, run.artifact("victim_policy", seed)
    corpus_seeds = np.random.SeedSequence((seed, 2)).spawn(run.cfg.value.rollouts)
    trajs = rollouts(env, victim, corpus_seeds)
    write_trajectories_csv(run.paths.trajectories(seed), trajs)
    fit_cfg = run.cfg.value.fit_config(seed)
    q_model = fit_cooperative_q(trajs, env.n_states, env.n_actions, env.gamma, fit_cfg)
    return fit_robust_value(q_model, trajs, fit_cfg)


def stage_fit_value(run: Run, seed: int):
    env = run.env
    vmodel = run.artifact("value_model", seed, compute=lambda: _fit_value(run, seed))

    def rows():
        v0 = vmodel.values(env.reset(seed=seed).states, np.zeros(env.n_agents), 0.0)
        return [("tabular", "v0_mean", float(v0.mean()))]

    run.record("value", seed, rows)
    return vmodel


def _run_selector(method: str, run: Run, victim_policy, vmodel, states0, seed: int):
    cfg, env, sel = run.cfg, run.env, run.cfg.selection
    if method == "greedy":
        return select_greedy(vmodel, states0, None, sel.k, sel.eps)
    if method == "rl":
        attack, _ = select_rl(vmodel, states0, None, sel.k, sel.rl_config(), sel.eps, seed)
        return attack
    if method == "random":
        return select_random(env.n_agents, sel.k, seed, sel.eps)
    if method == "dc":
        return select_degree_centrality(env, env.reset(seed=seed), sel.k, sel.eps)
    if method == "brute":
        def evaluate_subset(subset):
            budgets = BudgetVector.from_set(env.n_agents, subset, sel.eps)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, adv, _ = train_adversary(env, victim_policy, budgets, cfg.adversary, seed)
                returns = evaluate_attack(env, victim_policy, budgets,
                                          cfg.adversary.eval_episodes,
                                          seed=(seed, 5), adversary_policy=adv)
            return float(returns.mean())

        attack, table = select_bruteforce(evaluate_subset, env.n_agents, sel.k,
                                          sel.eps, cap=sel.brute_cap)
        write_atomic(run.paths.brute_scores(seed), _csv_text(
            [("subset", "victim_return")]
            + [(";".join(str(i) for i in subset), _fmt(ret)) for subset, ret in table]))
        return attack
    raise InvalidConfigError(f"unknown selection method: {method}")


def stage_select(run: Run, seed: int):
    env = run.env
    victim = run.artifact("victim_policy", seed)
    vmodel = run.artifact("value_model", seed)
    states0 = env.reset(seed=seed).states
    attacks = {method: run.artifact(
        "attack_set", seed, method,
        compute=lambda m=method: _run_selector(m, run, victim, vmodel, states0, seed))
        for method in run.cfg.selection.methods}

    def rows():
        return [(method, "predicted_drop",
                 predicted_drop(vmodel, states0, None, attack.budgets(env.n_agents))
                 if attack.predicted_drop is None else attack.predicted_drop)
                for method, attack in attacks.items()]

    run.record("select", seed, rows)
    return attacks


def stage_attack(run: Run, seed: int):
    """Adversaries of every method; those not yet saved train in one batch."""
    env, victim = run.env, run.artifact("victim_policy", seed)
    budgets = {m: run.artifact("attack_set", seed, m).budgets(env.n_agents)
               for m in run.cfg.selection.methods}
    missing = [m for m in budgets if not run.has("adversary", seed, m)]
    trained = dict(zip(missing, train_adversaries(
        env, victim, [budgets[m] for m in missing], run.cfg.adversary, [seed] * len(missing))))
    return {m: run.artifact("adversary", seed, m, compute=lambda m=m: trained[m][1])
            for m in budgets}


def stage_evaluate(run: Run, seed: int):
    env, victim = run.env, run.artifact("victim_policy", seed)
    pairs = {method: (run.artifact("attack_set", seed, method),
                      run.artifact("adversary", seed, method))
             for method in run.cfg.selection.methods}

    def rows():
        episodes = run.cfg.adversary.eval_episodes
        coop = float(evaluate_policy(env, victim, episodes, seed=(seed, 3)).mean())
        out = []
        for method, (attack, adv_policy) in pairs.items():
            returns = evaluate_attack(env, victim, attack.budgets(env.n_agents), episodes,
                                      seed=(seed, 3), adversary_policy=adv_policy)
            out += [(method, "attacked_return", float(returns.mean())),
                    (method, "attacked_std", float(returns.std(ddof=1)) if episodes > 1 else 0.0),
                    (method, "coop_return", coop)]
        return out

    run.record("attack", seed, rows)


def stage_correlate(run: Run, seed: int) -> float:
    """Predicted drop vs realized attacked return over random subsets; returns r.

    Skipped when this experiment's ledger row and the scatter CSV both
    exist: r is read back from the ledger and nothing is trained or written.
    """
    cfg, env = run.cfg, run.env
    row = run.ledger.find(run.exp, "correlate", seed=seed)
    out_csv = run.paths.correlation(seed)
    if row is not None and os.path.exists(out_csv):
        return float(row["value"])
    victim = run.artifact("victim_policy", seed)
    vmodel = run.artifact("value_model", seed)
    subsets = sample_attack_subsets(
        env.n_agents, cfg.correlation.n_subsets, seed, eps=cfg.selection.eps,
        k_min=cfg.correlation.k_min, k_max=cfg.correlation.k_max or None)
    adv_cfg = replace(cfg.adversary, episodes=cfg.correlation.adv_episodes)
    r, _ = correlate_prediction_vs_attack(vmodel, env, victim, subsets, adv_cfg,
                                          cfg.correlation.episodes, seed,
                                          out_csv=out_csv)
    run.record("correlate", seed, lambda: [("subsets", "pearson_r", r)])
    return r


def run_pipeline(config, out_dir=None, seeds=None) -> str:
    """Execute all stages for every seed; returns the results directory."""
    run = Run(config, out_dir, seeds)
    for seed in run.cfg.seeds:
        for stage in (stage_train_victim, stage_fit_value, stage_select,
                      stage_attack, stage_evaluate):
            stage(run, seed)
    return run.cfg.out_dir
