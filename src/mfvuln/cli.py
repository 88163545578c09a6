"""Command-line front end over the staged experiment pipeline."""

from __future__ import annotations

import argparse
import sys

from .errors import MfvulnError
from .pipeline import (Run, export_heatmap, run_pipeline, stage_attack,
                       stage_correlate, stage_evaluate, stage_fit_value,
                       stage_select, stage_train_victim, train_missing_victims)

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


def _run_command(args, run: Run, seed: int) -> str:
    """Run one command's stage for one seed; returns the line to print."""
    paths = run.paths
    if args.command == "train-victim":
        stage_train_victim(run, seed)
        return f"victim ready: {paths.victim_policy(seed)}"
    if args.command == "fit-value":
        stage_fit_value(run, seed)
        return f"value model ready: {paths.value_model(seed)}"
    if args.command == "select":
        attacks = stage_select(run, seed)
        return f"seed {seed} agents: " + "; ".join(
            f"{method} {' '.join(str(i) for i in attack.ids)}"
            for method, attack in attacks.items())
    if args.command == "attack":
        stage_attack(run, seed)
        return f"adversaries ready for seed {seed}"
    if args.command == "evaluate":
        stage_evaluate(run, seed)
        return f"evaluation rows recorded for seed {seed}"
    if args.command == "correlate":
        r = stage_correlate(run, seed)
        return f"seed {seed} pearson r = {r:.6f} ({paths.correlation(seed)})"
    mode = args.mode or run.cfg.heatmap.mode
    out_csv = paths.heatmap(seed, mode)
    export_heatmap(run.artifact("value_model", seed), run.env,
                   run.env.reset(seed=seed), mode, out_csv=out_csv)
    return f"heatmap written: {out_csv}"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    seeds = None if args.seed is None else [args.seed]
    try:
        if args.command == "pipeline":
            print(f"pipeline complete: {run_pipeline(args.config, args.out, seeds)}")
            return 0
        run = Run(args.config, args.out, seeds)
        if args.command == "train-victim":
            train_missing_victims(run, run.cfg.seeds)
        for seed in run.cfg.seeds:
            print(_run_command(args, run, seed))
        return 0
    except MfvulnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
