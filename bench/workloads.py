"""Workload process of the mfvuln benchmark; bench/run.py starts one per pass.

    python3 bench/workloads.py setup  --workload W --seed N
    python3 bench/workloads.py run    --workload W --seed N --work DIR --result FILE [--trace FILE]
    python3 bench/workloads.py golden --work DIR --result FILE

``setup`` and ``run`` print ``ready`` on stdout as soon as mfvuln is
imported, the workload's config parsed and its environments built; the
parent times process start to that line (``setup_s``).  ``run`` then drives
the workload through mfvuln's public entry points, checks the outputs and
writes a JSON result.  With ``--trace`` it first wraps mfvuln's public
functions and methods (bench/tracing.py), and writes the spans to the
given file afterwards.  ``golden`` reruns the toy experiment and compares
it byte for byte with the committed ``runs/toy/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import io
import json
import math
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402

# (agents, uniform rollouts) per vicsek-scale leg; sized so the three legs
# take about as long as one taxi pipeline call.  N=16 is the unscaled
# config, the comparison point for the larger legs.
SCALE_LEGS = ((16, 40), (64, 40), (320, 20))
SCALE_CLUSTERS = 10
MATCH_TOL = 1e-9


class Checks:
    """Correctness checks of one pass; each failure is one failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not OpenBLAS."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cli(args, checks: Checks) -> int:
    """Run one mfvuln command in-process; its stdout is not the benchmark's."""
    from mfvuln.cli import main
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(args)
    except Exception:
        traceback.print_exc()
        rc = None
    checks.check(rc == 0, f"mfvuln {' '.join(args)} exited {rc}")
    return rc


def artifact_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


# -- taxi-experiment ---------------------------------------------------------


def taxi_setup(seed: int):
    import mfvuln.cli  # noqa: F401  (the entry point the workload drives)
    from mfvuln.envs import make_env
    from mfvuln.pipeline import load_experiment_config
    cfg = load_experiment_config(ROOT / "configs" / "taxi.yaml")
    make_env(cfg.env)
    return cfg


def taxi_run(cfg, seed: int, work: Path, span, checks: Checks):
    """pipeline, correlate, heatmap on a fresh out dir, then all three again."""
    out = work / "taxi"
    common = ["--config", str(ROOT / "configs" / "taxi.yaml"), "--seed", str(seed),
              "--out", str(out)]
    timings = {}
    start = time.perf_counter()
    for command in ("pipeline", "correlate", "heatmap"):
        t = time.perf_counter()
        with span(f"bench.{command}"):
            cli([command] + common, checks)
        timings[f"{command}_s"] = time.perf_counter() - t
    first_ledger = (out / "ledger.csv").read_bytes()
    t = time.perf_counter()
    with span("bench.rerun"):
        for command in ("pipeline", "correlate", "heatmap"):
            cli([command] + common, checks)
    timings["rerun_s"] = time.perf_counter() - t
    timings["wall_s"] = time.perf_counter() - start
    checks.check((out / "ledger.csv").read_bytes() == first_ledger,
                 "second pass changed ledger.csv")
    return timings, taxi_checks(cfg, seed, out, checks), artifact_bytes(out)


def taxi_checks(cfg, seed: int, out: Path, checks: Checks) -> dict:
    from mfvuln.selection import load_attack_set
    with open(out / "ledger.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["seed"] == str(seed)]
    ledger = {}
    for r in rows:
        ledger.setdefault((r["stage"], r["method"], r["metric"]), []).append(float(r["value"]))
    expected = [("victim", "mfq", "victim_return"), ("victim", "mfq", "victim_std"),
                ("victim", "uniform", "victim_return"), ("value", "tabular", "v0_mean"),
                ("correlate", "subsets", "pearson_r")]
    for method in cfg.selection.methods:
        expected.append(("select", method, "predicted_drop"))
        expected += [("attack", method, m)
                     for m in ("attacked_return", "attacked_std", "coop_return")]
    for key in expected:
        values = ledger.get(key, [])
        checks.check(len(values) == 1 and math.isfinite(values[0]),
                     f"ledger row {key} missing, repeated or not finite: {values}")

    def value(key):
        return ledger.get(key, [math.nan])[0]

    victim = value(("victim", "mfq", "victim_return"))
    uniform = value(("victim", "uniform", "victim_return"))
    checks.check(victim > uniform, f"victim {victim} does not beat uniform {uniform}")
    greedy = load_attack_set(out / f"attack_greedy_s{seed}.txt")
    picks = float(np.sum(greedy.pick_rewards))
    checks.check(abs(greedy.predicted_drop - picks) <= MATCH_TOL,
                 f"greedy predicted_drop {greedy.predicted_drop} != sum of picks {picks}")
    with open(out / f"correlation_s{seed}.csv", newline="") as fh:
        n_rows = len(list(csv.reader(fh))) - 1
    checks.check(n_rows == cfg.correlation.n_subsets,
                 f"correlation csv has {n_rows} rows, expected {cfg.correlation.n_subsets}")
    r = value(("correlate", "subsets", "pearson_r"))
    checks.check(-1.0 <= r <= 1.0, f"pearson r {r} outside [-1, 1]")
    return {"victim_return": victim, "uniform_return": uniform, "pearson_r": r,
            "greedy_predicted_drop": greedy.predicted_drop}


# -- vicsek-scale ------------------------------------------------------------


def scale_setup(seed: int):
    """vicsek.yaml re-clustered into SCALE_CLUSTERS groups, world grown as sqrt(N)."""
    from mfvuln.envs import make_env
    from mfvuln.pipeline import load_experiment_config
    cfg = load_experiment_config(ROOT / "configs" / "vicsek.yaml")
    envs = {}
    for n, _ in SCALE_LEGS:
        raw = {k: v for k, v in cfg.env.items() if k != "cluster_sizes"}
        raw.update(n_agents=n, n_clusters=SCALE_CLUSTERS, seed=seed,
                   world_size=cfg.env["world_size"] * math.sqrt(n / cfg.env["n_agents"]))
        envs[n] = make_env(raw)
    return cfg, envs


def scale_run(setup, seed: int, work: Path, span, checks: Checks):
    """Per leg: uniform rollout corpus, value fit, greedy k = N/10, heatmap."""
    from mfvuln.core import empirical_mean_field_state
    from mfvuln.pipeline import export_heatmap
    from mfvuln.qlearn import UniformPolicy, rollout
    from mfvuln.robust import fit_cooperative_q, fit_robust_value
    from mfvuln.selection import select_greedy
    cfg, envs = setup
    fit_cfg = cfg.value.fit_config(seed)
    info, agent_steps, corpus_s = {}, 0, 0.0
    start = time.perf_counter()
    for n, rollouts in SCALE_LEGS:
        env = envs[n]
        with span(f"bench.leg.n{n}"):
            seeds = np.random.SeedSequence((seed, 2, n)).spawn(rollouts)
            t = time.perf_counter()
            with span("bench.corpus"):
                trajs = [rollout(env, UniformPolicy(env.n_actions), s) for s in seeds]
            corpus_s += time.perf_counter() - t
            q_model = fit_cooperative_q(trajs, env.n_states, env.n_actions, env.gamma,
                                        fit_cfg)
            vmodel = fit_robust_value(q_model, trajs, fit_cfg)
            snap0 = env.reset(seed=seed)
            mu0 = empirical_mean_field_state(snap0.states, env.n_states).probs
            attack = select_greedy(vmodel, snap0.states, mu0, n // 10, cfg.selection.eps)
            grid = export_heatmap(vmodel, env, snap0, "per-agent-eps",
                                  out_csv=work / f"heatmap_n{n}.csv")
        steps = sum(len(tr.steps) for tr in trajs)
        agent_steps += n * steps
        checks.check(steps == rollouts * env.horizon,
                     f"n{n}: corpus has {steps} steps, expected {rollouts * env.horizon}")
        checks.check(bool(np.all(vmodel.damp >= 0)), f"n{n}: negative damp")
        checks.check(bool(np.all(np.isfinite(vmodel.base))),
                     f"n{n}: zero-budget values not finite")
        picks = float(np.sum(attack.pick_rewards))
        checks.check(attack.ids.size == n // 10
                     and abs(attack.predicted_drop - picks) <= MATCH_TOL,
                     f"n{n}: greedy predicted_drop {attack.predicted_drop} != sum of "
                     f"picks {picks}")
        checks.check(grid.size == n and bool(np.all(np.isfinite(grid))),
                     f"n{n}: heatmap not {n} finite values")
        info[f"n{n}.greedy_predicted_drop"] = attack.predicted_drop
    timings = {"wall_s": time.perf_counter() - start,
               "agent_steps_per_s": agent_steps / corpus_s}
    return timings, info, artifact_bytes(work)


WORKLOADS = {
    "taxi-experiment": (taxi_setup, taxi_run),
    "vicsek-scale": (scale_setup, scale_run),
}


# -- golden toy check ----------------------------------------------------------


def golden(work: Path) -> dict:
    """pipeline, correlate, heatmap on configs/toy.yaml must reproduce runs/toy/."""
    checks = Checks()
    out = work / "toy"
    common = ["--config", str(ROOT / "configs" / "toy.yaml"), "--out", str(out)]
    for command in ("pipeline", "correlate", "heatmap"):
        cli([command] + common, checks)
    fixture = ROOT / "runs" / "toy"
    want = sorted(p.name for p in fixture.iterdir())
    got = sorted(p.name for p in out.iterdir())
    checks.check(got == want, f"toy run wrote {got}, fixture has {want}")
    for name in want:
        produced = out / name
        checks.check(produced.is_file()
                     and produced.read_bytes() == (fixture / name).read_bytes(),
                     f"runs/toy/{name} differs")
    return {"attempted": checks.attempted, "failures": checks.failures, "files": len(want)}


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run", "golden"))
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--work", type=Path)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--trace", type=Path, default=None, help="write spans here")
    args = ap.parse_args(argv)

    if args.mode == "golden":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = golden(args.work)
        args.result.write_text(json.dumps(result))
        return 0

    setup_fn, run_fn = WORKLOADS[args.workload]
    setup = setup_fn(args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        def count_corpus(call_args, call_kwargs):
            trajectories = call_args[1]   # fit_robust_value(q_model, trajectories, cfg)
            tracer.counts["robust.corpus.transitions"] += layers.transitions(trajectories)

        tracer.probe("robust.fit_robust_value", count_corpus)
        tracer.install()
        span = tracer.span
    else:
        def span(name):
            return contextlib.nullcontext()
    checks = Checks()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        timings, info, n_bytes = run_fn(setup, args.seed, args.work, span, checks)
    result = {
        "timings": timings, "info": info, "artifact_bytes": n_bytes,
        "attempted": checks.attempted, "failures": checks.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
        "rl_fallbacks": sum("has not converged" in str(w.message) for w in caught),
    }
    if tracer:
        result["layers"] = layers.layer_metrics(tracer, timings)
        tracer.dump(args.trace)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
