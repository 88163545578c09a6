"""Command-line front end over the staged experiment pipeline."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .envs import make_env
from .errors import MfvulnError
from .pipeline import (ResultsLedger, RunPaths, experiment_id, export_heatmap,
                       load_experiment_config, load_value_model, load_victim,
                       run_pipeline, stage_attack, stage_correlate, stage_evaluate,
                       stage_fit_value, stage_select, stage_train_victim)

COMMANDS = ("train-victim", "fit-value", "select", "attack", "evaluate",
            "correlate", "heatmap", "pipeline")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfvuln",
        description="Vulnerable-agent identification for mean-field MARL: "
                    "train victims, fit budget-conditioned values, select and "
                    "attack agents, analyze the results.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config (yaml)")
        p.add_argument("--seed", type=int, default=None,
                       help="run only this seed instead of the config's list")
        p.add_argument("--out", default=None, help="override the output directory")
        if name == "heatmap":
            p.add_argument("--mode", default=None,
                           choices=["per-agent-eps", "single-adversary-xi"],
                           help="override the configured heatmap mode")
    return parser


def _prepare(args):
    cfg = load_experiment_config(args.config)
    if args.out is not None:
        cfg = replace(cfg, out_dir=str(args.out))
    if args.seed is not None:
        cfg = replace(cfg, seeds=[args.seed])
    os.makedirs(cfg.out_dir, exist_ok=True)
    env = make_env(cfg.env)
    paths = RunPaths(cfg.out_dir)
    ledger = ResultsLedger(paths.ledger())
    return cfg, env, paths, ledger, experiment_id(cfg)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "pipeline":
            cfg = load_experiment_config(args.config)
            out = run_pipeline(cfg,
                               out_dir=args.out,
                               seeds=None if args.seed is None else [args.seed])
            print(f"pipeline complete: {out}")
            return 0

        cfg, env, paths, ledger, exp = _prepare(args)
        for seed in cfg.seeds:
            if args.command == "train-victim":
                stage_train_victim(cfg, env, seed, paths, ledger, exp)
                print(f"victim ready: {paths.victim_policy(seed)}")
            elif args.command == "fit-value":
                stage_fit_value(cfg, env, None, seed, paths, ledger, exp)
                print(f"value model ready: {paths.value_model(seed)}")
            elif args.command == "select":
                victim = load_victim(paths, seed)
                vmodel = load_value_model(paths, seed)
                attacks = stage_select(cfg, env, victim, vmodel, seed, paths,
                                       ledger, exp)
                for method, attack in attacks.items():
                    print(f"seed {seed} {method}: agents "
                          f"{' '.join(str(i) for i in attack.ids)}")
            elif args.command == "attack":
                victim = load_victim(paths, seed)
                stage_attack(cfg, env, victim, seed, paths, ledger, exp)
                print(f"adversaries ready for seed {seed}")
            elif args.command == "evaluate":
                victim = load_victim(paths, seed)
                stage_evaluate(cfg, env, victim, seed, paths, ledger, exp)
                print(f"evaluation rows appended for seed {seed}")
            elif args.command == "correlate":
                r = stage_correlate(cfg, env, seed, paths, ledger, exp)
                print(f"seed {seed} pearson r = {r:.6f} "
                      f"({paths.correlation(seed)})")
            elif args.command == "heatmap":
                vmodel = load_value_model(paths, seed)
                mode = args.mode or cfg.heatmap.mode
                snap0 = env.reset(seed=seed)
                out_csv = paths.heatmap(seed, mode)
                export_heatmap(vmodel, env, snap0, mode, out_csv=out_csv)
                print(f"heatmap written: {out_csv}")
        return 0
    except MfvulnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
