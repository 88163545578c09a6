"""Experiment harness: strict config, staged pipeline, append-only results.

A run (``Run``) owns one output directory, which holds one experiment.
Four stages execute in order per seed: train the victim (the victims the
run's seeds lack train in one lockstep call), fit the budget-conditioned
value model on its rollouts, select an attack set per configured method, and
attack: train each method's adversary and record the victim's returns under
it.  Every stage goes through the run: an artifact is made and saved unless
its file and the files computing it writes all exist, then loaded from its
file, and a stage's ledger rows are written once, so a rerun with the same
config touches nothing and leaves the ledger byte-identical.  Each kind of stage
file is declared once, in ``ARTIFACTS``.
The run's seed is passed to every learner as an argument; the learner
sections of a config hold schedules only, so a ``seed`` key there is refused.

The ledger is an append-only CSV keyed by a hash of the config, appended all
or nothing and refused when torn.  Analysis helpers live here too: the
Pearson correlation of predicted vs realized attack damage, and the
per-agent vulnerability heatmap, damp(s0) on the population's layout grid
(the score greedy selection ranks by).
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
import typing
from dataclasses import dataclass, field, fields as dc_fields, is_dataclass, replace
from typing import Optional, Union

import numpy as np
import yaml

from .attack import AdversaryConfig, attacked_returns, train_adversaries
from .core import BudgetVector, seed_rng
from .envs import make_env
from .envs.base import agent_layout, build_config
from .errors import (ConfigParseError, InvalidConfigError, InvalidInputError, MfvulnError,
                     StageDependencyError, UndefinedCorrelationError)
from .qlearn import (BoltzmannPolicy, TrainConfig, UniformPolicy,
                     evaluate_policy, rollouts, train_victims, write_atomic)
from .robust import (FitConfig, RobustValueModel, fit_cooperative_q,
                     fit_robust_value)
from .selection import (AttackSet, check_brute_force, check_k, load_attack_set,
                        predicted_drop, save_attack_set, select_bruteforce,
                        select_degree_centrality, select_greedy, select_random)

FLOAT_FMT = "%.9g"
SELECTION_METHODS = ("greedy", "random", "dc", "brute")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % value
    return str(value)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


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
    methods: list = field(default_factory=lambda: ["greedy", "random", "dc"])
    k: int = 2
    eps: float = 1.0

    def validate(self):
        unknown = [m for m in self.methods if m not in SELECTION_METHODS]
        if unknown:
            raise InvalidConfigError(f"unknown selection method: {unknown[0]}")
        if not self.methods:
            raise InvalidConfigError("at least one selection method is required")
        repeated = [m for i, m in enumerate(self.methods) if m in self.methods[:i]]
        if repeated:
            raise InvalidConfigError(f"selection method {repeated[0]} is listed twice")
        if not (0.0 < self.eps <= 1.0):
            raise InvalidConfigError("eps must be in (0, 1]")


@dataclass
class CorrelationStageConfig:
    n_subsets: int = 20
    k_min: int = 1
    k_max: int = 0          # 0 means N // 2

    def validate(self):
        if self.n_subsets < 10:
            raise InvalidConfigError("correlation needs at least 10 subsets")
        if self.k_min < 1 or (self.k_max and self.k_max < self.k_min):
            raise InvalidConfigError("bad subset size range")


@dataclass
class ExperimentConfig:
    raw: dict
    name: str
    env: dict
    victim: TrainConfig
    value: ValueStageConfig
    selection: SelectionStageConfig
    adversary: AdversaryConfig
    correlation: CorrelationStageConfig
    seeds: list
    out_dir: str


# the config's top-level keys, and the stage sections built strictly into their classes
_TOP_KEYS = tuple(f.name for f in dc_fields(ExperimentConfig) if f.name != "raw")
_SECTIONS = {name: cls for name, cls in typing.get_type_hints(ExperimentConfig).items()
             if is_dataclass(cls)}


def _checked_seeds(seeds) -> list:
    """The run's seeds as a list: ConfigParseError unless a non-empty list of distinct
    non-negative integers (numpy seeds no generator from a negative one)."""
    if not isinstance(seeds, (list, tuple)) or not seeds \
            or not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in seeds) \
            or len(set(seeds)) != len(seeds):
        raise ConfigParseError(f"'seeds' must be a non-empty list of non-negative integers, "
                               f"none repeated, got {seeds!r}")
    return list(seeds)


def parse_experiment_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigParseError("config root must be a mapping")
    unknown = sorted(set(raw) - set(_TOP_KEYS), key=str)
    if unknown:
        raise ConfigParseError(f"unknown key '{unknown[0]}' at config top level")
    env_raw = raw.get("env")
    if not isinstance(env_raw, dict) or "env_name" not in env_raw:
        raise ConfigParseError("config section 'env' with an env_name is required")
    for key in ("name", "out_dir"):
        if key in raw and not isinstance(raw[key], str):
            raise ConfigParseError(f"'{key}' must be a string, got {raw[key]!r}")
    seeds = _checked_seeds(raw.get("seeds", [0]))
    sections = {name: build_config(cls, raw.get(name), ConfigParseError,
                                   f"config section '{name}'")
                for name, cls in _SECTIONS.items()}
    cfg = ExperimentConfig(raw=raw, name=raw.get("name", "experiment"), env=dict(env_raw),
                           seeds=seeds, out_dir=raw.get("out_dir", "runs"), **sections)
    try:
        env = make_env(cfg.env)   # validates the env section before any compute
        # one episode fits: its start, and its (horizon, n_agents) per-step action uniforms
        env.reset()
        np.empty((env.horizon, env.n_agents))
    except MfvulnError:
        raise
    except (MemoryError, ValueError) as exc:   # numpy refuses a size with a ValueError
        raise InvalidConfigError(f"config section 'env' is too large to run: {exc}") from None
    if env.horizon < 2:
        raise InvalidConfigError(f"env horizon={env.horizon} is below 2: the adversary's "
                                 "SARSA and the value corpus need two steps")
    check_k(env.n_agents, cfg.selection.k)
    if "brute" in cfg.selection.methods:
        check_brute_force(env.n_agents, cfg.selection.k)
    corr = cfg.correlation
    try:
        subset_sizes(env.n_agents, corr.n_subsets, corr.k_min, corr.k_max)
    except InvalidInputError as exc:
        raise InvalidConfigError(f"correlation: {exc}") from None
    return cfg


class _UniqueKeyLoader(yaml.SafeLoader):
    """The safe loader, refusing a key written twice in one mapping (PyYAML keeps the last)."""

    def construct_mapping(self, node, deep=False):
        seen = []   # a list: a key may be unhashable, which the base loader refuses
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=True)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            seen.append(key)
        return super().construct_mapping(node, deep)


def load_experiment_config(path) -> ExperimentConfig:
    """The config of a yaml file; ConfigParseError naming the path if the file
    cannot be read as UTF-8 text, does not parse, or repeats a key in a mapping."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.load(fh, _UniqueKeyLoader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
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
        """Open the ledger at path, creating it if absent.  InvalidInputError
        names a ledger that cannot be read as UTF-8 text, or the line of a torn
        or malformed one: a last line without its newline, a wrong header, a
        row without exactly six fields, or a value that is not a finite number."""
        self.path = path
        if not os.path.exists(path):
            write_atomic(path, _csv_text([self.COLUMNS]))
        self._checked(self._text())

    def _checked(self, text: str) -> str:
        """The ledger text, refused as ``__init__`` says unless it is whole."""
        if not text.endswith("\n"):
            line = text.count("\n") + 1
            raise InvalidInputError(f"ledger {self.path} line {line} is torn: "
                                    "it does not end in a newline")
        reader = csv.reader(io.StringIO(text, newline=""))
        for row in reader:
            if reader.line_num == 1 and tuple(row) != self.COLUMNS:
                raise InvalidInputError(f"ledger {self.path} line 1 is not the header "
                                        f"{','.join(self.COLUMNS)}")
            if len(row) != len(self.COLUMNS):
                raise InvalidInputError(f"ledger {self.path} line {reader.line_num} has "
                                        f"{len(row)} fields, not {len(self.COLUMNS)}")
            try:
                if reader.line_num > 1 and not math.isfinite(float(row[-1])):
                    raise ValueError
            except ValueError:
                raise InvalidInputError(f"ledger {self.path} line {reader.line_num} has "
                                        f"the value {row[-1]!r}, not a finite number") from None
        return text

    def _text(self) -> str:
        try:
            with open(self.path, encoding="utf-8", newline="") as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidInputError(f"cannot read ledger {self.path}: {exc}") from exc

    def append(self, rows):
        """Append (experiment, stage, method, seed, metric, value) rows, all or none:
        the old text and the new rows are written in one write_atomic, and refused
        before it, as a ledger is when opened, if a value is not a finite number."""
        text = _csv_text([exp, stage, method, str(seed), metric, _fmt(value)]
                         for exp, stage, method, seed, metric, value in rows)
        write_atomic(self.path, self._checked(self._text() + text))

    def rows(self):
        return list(csv.DictReader(io.StringIO(self._text(), newline="")))

    def find(self, experiment: str, stage: str, seed) -> Optional[dict]:
        """First row of a stage and seed; None if absent."""
        key = (experiment, stage, str(seed))
        for row in self.rows():
            if (row["experiment_id"], row["stage"], row["seed"]) == key:
                return row
        return None


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
                 k_max: Optional[int] = None):
    """An iterator over n_subsets sizes cycling over [k_min, k_max] (k_max 0 or None:
    max(k_min, N // 2)), refused unless N agents hold that many distinct subsets of
    each size; the check counts each size arithmetically, building nothing."""
    for key, k in (("k_min", k_min), ("k_max", k_max)):
        if k and k > n_agents:
            raise InvalidInputError(f"{key} exceeds population size")
    k_max = max(k_min, n_agents // 2) if not k_max else k_max
    cycles, rest = divmod(n_subsets, k_max - k_min + 1)
    for k in range(k_min, k_max + 1):
        count = cycles + (k - k_min < rest)
        if count > math.comb(n_agents, k):
            raise InvalidInputError(f"{count} distinct subsets of size {k} "
                                    f"requested, but only C({n_agents}, {k}) exist")
    return itertools.islice(itertools.cycle(range(k_min, k_max + 1)), n_subsets)


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
                                   adv_cfg: AdversaryConfig, seed, out_csv=None):
    """Pair predicted drops with realized attacked returns; returns (r, rows).

    Each subset j gets its own adversary, seeded seed + 7919 * j, trained
    against the frozen victim (all of them in one batch) and evaluated over
    adv_cfg.eval_episodes episodes with seed (seed, 4, j); the Pearson
    correlation is between the value model's predicted drop and the realized
    attacked return (damaging subsets should sit low, so a faithful model
    shows strongly negative r).
    """
    if len(subsets) < 10:
        raise InvalidInputError("need at least 10 attack subsets")
    states0 = env.initial_states
    budgets = [attack.budgets(env.n_agents) for attack in subsets]
    returns = attacked_returns(env, victim_policy, budgets, adv_cfg,
                               [seed + 7919 * j for j in range(len(subsets))],
                               [(seed, 4, j) for j in range(len(subsets))])
    rows = [(predicted_drop(value_model, states0, budget), float(ret))
            for budget, ret in zip(budgets, returns.mean(axis=1))]
    r = pearson([p for p, _ in rows], [m for _, m in rows])
    if out_csv:
        write_atomic(out_csv, _csv_text([("predicted_drop", "realized_return")]
                                        + [(_fmt(p), _fmt(m)) for p, m in rows]))
    return r, rows


def export_heatmap(value_model, env, snapshot, mode: str = "per-agent-eps",
                   out_csv=None) -> np.ndarray:
    """Per-agent vulnerability grid: damp(s0) shaped by the population layout.

    Under V = base - w * damp, fully corrupting one agent alone (eps 0 -> 1,
    xi 0) drops its value by damp(s0), the score greedy ranks agents by.
    ``env`` is accepted and not used, and ``mode`` accepts only
    "per-agent-eps"; both stay for the bench's positional call.
    """
    if mode != "per-agent-eps":
        raise InvalidInputError(f"unknown heatmap mode: {mode}")
    states0 = snapshot.states
    grid = value_model.damp[states0].reshape(agent_layout(states0.size))
    if out_csv:
        write_atomic(out_csv, _csv_text([_fmt(v) for v in row] for row in grid))
    return grid


# -- staged pipeline --------------------------------------------------------------


def write_trajectories_csv(path, trajectories):
    rows = ((ep, t, _fmt(reward), ";".join(map(str, states)), ";".join(map(str, actions)))
            for ep, traj in enumerate(trajectories)
            for t, (reward, states, actions) in enumerate(zip(
                traj.rewards.tolist(), traj.states.tolist(), traj.actions.tolist())))
    write_atomic(path, _csv_text(itertools.chain(
        [("episode", "t", "reward", "states", "actions")], rows)))


# The stage files of an out_dir (experiment_id.txt is not one): kind -> (name
# pattern, loader, saver, command that makes it).  A {key} is a selection method.
# Kinds with a loader are the checkpoints Run.artifacts makes and loads; their
# stages write the others.
ARTIFACTS = {
    "ledger": ("ledger.csv", None, None, None),
    "victim_policy": ("victim_s{seed}.policy", BoltzmannPolicy.load, BoltzmannPolicy.save,
                      "train-victim"),
    "trajectories": ("trajectories_s{seed}.csv", None, None, "fit-value"),
    "value_model": ("value_s{seed}.robust", RobustValueModel.load, RobustValueModel.save,
                    "fit-value"),
    "attack_set": ("attack_{key}_s{seed}.txt", load_attack_set, save_attack_set, "select"),
    "adversary": ("adversary_{key}_s{seed}.policy", BoltzmannPolicy.load, BoltzmannPolicy.save,
                  "attack"),
    "brute_scores": ("brute_scores_s{seed}.csv", None, None, "select"),
    "correlation": ("correlation_s{seed}.csv", None, None, "correlate"),
    "heatmap": ("heatmap_per-agent-eps_s{seed}.csv", None, None, "heatmap"),
}


def artifact_path(out_dir, kind: str, seed=None, key=None) -> str:
    """The file of an ARTIFACTS kind in out_dir, for one seed and key."""
    return os.path.join(out_dir, ARTIFACTS[kind][0].format(seed=seed, key=key))


def stage_files(out_dir) -> list:
    """Files in out_dir named by an ARTIFACTS pattern, for any seed and key."""
    globs = [pattern.format(seed="*", key="*") for pattern, *_ in ARTIFACTS.values()]
    return [f for f in sorted(os.listdir(out_dir))
            if any(fnmatch.fnmatch(f, g) for g in globs)]


def _present(path) -> bool:
    """True for a regular file, False for nothing; InvalidInputError naming anything else."""
    if os.path.lexists(path) and not os.path.isfile(path):
        raise InvalidInputError(f"{path} is not a regular file; move it out of the way")
    return os.path.isfile(path)


def _fitting(loaded, path, env, sel, key):
    """A loaded stage artifact; InvalidInputError naming its file unless it fits env,
    and for an attack set unless it is the selection ``sel`` makes by method key."""
    if isinstance(loaded, BoltzmannPolicy):
        fits = loaded.model.table.shape == (env.n_states, env.n_actions)
    elif isinstance(loaded, RobustValueModel):
        fits = (loaded.n_states, loaded.n_actions) == (env.n_states, env.n_actions)
    else:
        fits = (loaded.ids < env.n_agents).all()
        if (loaded.k, loaded.eps, loaded.method) != (sel.k, sel.eps, key):
            raise InvalidInputError(f"{path} holds {loaded.k} ids at eps {loaded.eps!r} by "
                                    f"{loaded.method!r}; the config selects {sel.k} at eps "
                                    f"{sel.eps!r} by {key!r}")
    if not fits:
        raise InvalidInputError(f"{path} does not fit the env: it needs {env.n_states} states, "
                                f"{env.n_actions} actions and agent ids below {env.n_agents}")
    return loaded


class Run:
    """One experiment in its output directory, and the plumbing its stages share.

    ``artifacts`` makes a stage's missing files in one call and loads them all,
    and ``record`` writes a stage's ledger rows once.  Nothing loaded is kept:
    a later use reads the file again.  Files are not keyed by config, so a
    directory holds one experiment: its id is written to the directory before
    any stage runs, and a directory holding another id is refused.
    """

    def __init__(self, config, out_dir=None, seeds=None):
        if isinstance(config, (str, os.PathLike)):
            config = load_experiment_config(config)
        if out_dir is not None:
            config = replace(config, out_dir=str(out_dir))
        if seeds is not None:
            config = replace(config, seeds=_checked_seeds(seeds))
        self.cfg, self.exp = config, experiment_id(config)
        self.env = make_env(config.env)
        id_path = os.path.join(config.out_dir, "experiment_id.txt")
        try:
            os.makedirs(config.out_dir, exist_ok=True)
            if not os.path.exists(id_path):
                if stage_files(config.out_dir):
                    raise InvalidConfigError(
                        f"{config.out_dir} holds stage files of an unknown experiment "
                        "(no experiment_id.txt); use a new out_dir")
                write_atomic(id_path, self.exp + "\n")
            with open(id_path, encoding="utf-8") as fh:
                held = fh.read().strip()
        except (OSError, UnicodeDecodeError) as exc:   # only id_path is decoded
            why = f"cannot read {id_path}: {exc}" if isinstance(exc, UnicodeDecodeError) else exc
            raise InvalidConfigError(f"cannot use {config.out_dir} as the out_dir: {why}") from exc
        if held != self.exp:
            raise InvalidConfigError(
                f"{config.out_dir} holds experiment {held}, not {self.exp}; "
                "a changed config needs its own out_dir")
        self.ledger = ResultsLedger(self.path("ledger"))

    def path(self, kind: str, seed=None, key=None) -> str:
        return artifact_path(self.cfg.out_dir, kind, seed, key)

    def artifact(self, kind: str, seed: int, key=None):
        """The artifact of this kind, seed and key, loaded from its file if it fits the env."""
        path, (_, load, _, command) = self.path(kind, seed, key), ARTIFACTS[kind]
        if not _present(path):
            raise StageDependencyError(f"missing {path}; run {command} first")
        return _fitting(load(path), path, self.env, self.cfg.selection, key)

    def artifacts(self, kind: str, ids, compute, outputs=()) -> list:
        """``artifact`` of each (seed, key) id.  The ids whose file, or an ``outputs`` file
        computing them writes, is missing are first made in one ``compute(missing)`` call
        and saved, so a fresh run works from the saved files as a resumed one does."""
        done = all([_present(path) for path in outputs])
        missing = [i for i in ids if not (_present(self.path(kind, *i)) and done)]
        if missing:
            for (seed, key), made in zip(missing, compute(missing), strict=True):
                ARTIFACTS[kind][2](made, self.path(kind, seed, key))
        return [self.artifact(kind, *i) for i in ids]

    def record(self, stage: str, seed: int, rows, *outputs):
        """Append rows() as (method, metric, value) ledger rows unless the stage has them.

        rows() also runs when one of the stage's ``outputs`` files is missing, to
        write it again.  Returns the value of the stage's first row: computed if
        rows() ran, else read back from the ledger.
        """
        done = all([_present(path) for path in outputs])
        row = self.ledger.find(self.exp, stage, seed)
        if row is not None:
            return float(row["value"]) if done else rows()[0][2]
        made = rows()
        self.ledger.append([(self.exp, stage, method, seed, metric, value)
                            for method, metric, value in made])
        return made[0][2]


def stage_train_victim(run: Run, seed: int):
    """The victim of a seed and its ledger rows.  The victims the run's seeds
    lack train with it, in one call, so a seed whose victim misses its margin
    stops the run before any seed's later stages."""
    env, vcfg = run.env, run.cfg.victim
    policy = run.artifacts(
        "victim_policy", [(s, None) for s in dict.fromkeys([seed, *run.cfg.seeds])],
        lambda missing: [p for _, p, _ in train_victims(env, vcfg, [s for s, _ in missing])])[0]

    def rows():
        episodes = vcfg.eval_episodes
        trained = evaluate_policy(env, policy, episodes, seed=(seed, 1))
        uniform = evaluate_policy(env, UniformPolicy(env.n_actions), episodes, seed=(seed, 1))
        return [("mfq", "victim_return", float(trained.mean())),
                ("mfq", "victim_std", float(trained.std(ddof=1)) if episodes > 1 else 0.0),
                ("uniform", "victim_return", float(uniform.mean()))]

    run.record("victim", seed, rows)
    return policy


def _fit_value(run: Run, seed: int) -> RobustValueModel:
    env, victim = run.env, run.artifact("victim_policy", seed)
    corpus_seeds = np.random.SeedSequence((seed, 2)).spawn(run.cfg.value.rollouts)
    trajs = rollouts(env, victim, corpus_seeds)
    write_trajectories_csv(run.path("trajectories", seed), trajs)
    fit_cfg = run.cfg.value.fit_config(seed)
    q_model = fit_cooperative_q(trajs, env.n_states, env.n_actions, env.gamma, fit_cfg)
    return fit_robust_value(q_model, trajs, fit_cfg)


def stage_fit_value(run: Run, seed: int):
    [vmodel] = run.artifacts("value_model", [(seed, None)], lambda _: [_fit_value(run, seed)],
                             outputs=[run.path("trajectories", seed)])

    def rows():
        v0 = vmodel.values(run.env.initial_states, np.zeros(run.env.n_agents), 0.0)
        return [("tabular", "v0_mean", float(v0.mean()))]

    run.record("value", seed, rows)
    return vmodel


def _run_selector(method: str, run: Run, victim_policy, vmodel, states0, seed: int):
    cfg, env, sel = run.cfg, run.env, run.cfg.selection
    if method == "greedy":
        return select_greedy(vmodel, states0, None, sel.k, sel.eps)
    if method == "random":
        return select_random(env.n_agents, sel.k, seed, sel.eps)
    if method == "dc":
        return select_degree_centrality(env, env.reset(seed=seed), sel.k, sel.eps)
    if method == "brute":
        def evaluate_subsets(subsets):
            budgets = [BudgetVector.from_set(env.n_agents, subset, sel.eps) for subset in subsets]
            return attacked_returns(env, victim_policy, budgets, cfg.adversary,
                                    [seed] * len(budgets), [(seed, 5)] * len(budgets)).mean(axis=1)

        attack, table = select_bruteforce(evaluate_subsets, env.n_agents, sel.k, sel.eps)
        write_atomic(run.path("brute_scores", seed), _csv_text(
            [("subset", "victim_return")]
            + [(";".join(str(i) for i in subset), _fmt(ret)) for subset, ret in table]))
        return attack
    raise InvalidConfigError(f"unknown selection method: {method}")


def stage_select(run: Run, seed: int):
    env = run.env
    victim = run.artifact("victim_policy", seed)
    vmodel = run.artifact("value_model", seed)
    states0 = env.initial_states
    attacks = {method: run.artifacts(
        "attack_set", [(seed, method)],
        lambda _: [_run_selector(method, run, victim, vmodel, states0, seed)],
        outputs=[run.path("brute_scores", seed)] if method == "brute" else [])[0]
        for method in run.cfg.selection.methods}

    def rows():
        return [(method, "predicted_drop",
                 predicted_drop(vmodel, states0, attack.budgets(env.n_agents))
                 if attack.predicted_drop is None else attack.predicted_drop)
                for method, attack in attacks.items()]

    run.record("select", seed, rows)
    return attacks


def stage_attack(run: Run, seed: int):
    """Adversaries of every method and their ledger rows.  Those not yet saved
    train in one batch; each method's rows are the victim's returns under its
    adversary beside the clean baseline, both on draw (seed, 3)."""
    env, victim = run.env, run.artifact("victim_policy", seed)
    ids = [(seed, m) for m in run.cfg.selection.methods]
    budgets = {m: run.artifact("attack_set", s, m).budgets(env.n_agents) for s, m in ids}
    adversaries = dict(zip(budgets, run.artifacts("adversary", ids, lambda missing: [
        adv for _, adv, _ in train_adversaries(env, victim, [budgets[m] for _, m in missing],
                                               run.cfg.adversary, [seed] * len(missing))])))

    def rows():
        episodes = run.cfg.adversary.eval_episodes
        coop = float(evaluate_policy(env, victim, episodes, seed=(seed, 3)).mean())
        out = []
        for method, adversary in adversaries.items():
            returns = evaluate_policy(env, victim, episodes, (seed, 3),
                                      adversary_policy=adversary, budgets=budgets[method])
            out += [(method, "attacked_return", float(returns.mean())),
                    (method, "attacked_std", float(returns.std(ddof=1)) if episodes > 1 else 0.0),
                    (method, "coop_return", coop)]
        return out

    run.record("attack", seed, rows)
    return adversaries


def stage_correlate(run: Run, seed: int) -> float:
    """Predicted drop vs realized attacked return over random subsets; returns r.

    Skipped when this experiment's ledger row and the scatter CSV both
    exist: r is read back from the ledger and nothing is trained or written.
    """
    cfg, env = run.cfg, run.env
    out_csv = run.path("correlation", seed)

    def rows():
        victim = run.artifact("victim_policy", seed)
        vmodel = run.artifact("value_model", seed)
        subsets = sample_attack_subsets(
            env.n_agents, cfg.correlation.n_subsets, seed, eps=cfg.selection.eps,
            k_min=cfg.correlation.k_min, k_max=cfg.correlation.k_max or None)
        r, _ = correlate_prediction_vs_attack(vmodel, env, victim, subsets, cfg.adversary,
                                              seed, out_csv=out_csv)
        return [("subsets", "pearson_r", r)]

    return run.record("correlate", seed, rows, out_csv)


def stage_heatmap(run: Run, seed: int) -> str:
    """The vulnerability grid's CSV, written unless its file exists; returns its path."""
    out_csv = run.path("heatmap", seed)
    if not _present(out_csv):
        export_heatmap(run.artifact("value_model", seed), run.env, run.env.reset(seed=seed),
                       out_csv=out_csv)
    return out_csv


def run_pipeline(config, out_dir=None, seeds=None) -> str:
    """Execute all stages for every seed; returns the results directory."""
    run = Run(config, out_dir, seeds)
    for seed in run.cfg.seeds:
        for stage in (stage_train_victim, stage_fit_value, stage_select, stage_attack):
            stage(run, seed)
    return run.cfg.out_dir
