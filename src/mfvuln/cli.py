"""Command-line front end over the staged experiment pipeline."""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .errors import MfvulnError

# command -> (the pipeline stage it runs for each seed, the line it prints from the
# run, the seed and the stage's result).  A stage is looked up by name when the
# command runs, so a stage patched or wrapped after import is the one called.
COMMANDS = {
    "train-victim": ("stage_train_victim",
                     lambda run, seed, _: f"victim ready: {run.path('victim_policy', seed)}"),
    "fit-value": ("stage_fit_value",
                  lambda run, seed, _: f"value model ready: {run.path('value_model', seed)}"),
    "select": ("stage_select", lambda run, seed, attacks: f"seed {seed} agents: " + "; ".join(
        f"{method} {' '.join(str(i) for i in attack.ids)}" for method, attack in attacks.items())),
    "attack": ("stage_attack", lambda run, seed, _: f"adversaries ready for seed {seed}"),
    "correlate": ("stage_correlate", lambda run, seed, r:
                  f"seed {seed} pearson r = {r:.6f} ({run.path('correlation', seed)})"),
    "heatmap": ("stage_heatmap", lambda run, seed, out_csv: f"heatmap written: {out_csv}"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfvuln",
        description="Vulnerable-agent identification for mean-field MARL: "
                    "train victims, fit budget-conditioned values, select and "
                    "attack agents, analyze the results.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*COMMANDS, "pipeline"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config (yaml)")
        p.add_argument("--seed", type=int, default=None,
                       help="run only this seed instead of the config's list")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    seeds = None if args.seed is None else [args.seed]
    try:
        if args.command == "pipeline":
            print(f"pipeline complete: {pipeline.run_pipeline(args.config, args.out, seeds)}")
            return 0
        run = pipeline.Run(args.config, args.out, seeds)
        stage, line = COMMANDS[args.command]
        for seed in run.cfg.seeds:
            print(line(run, seed, getattr(pipeline, stage)(run, seed)))
        return 0
    except MfvulnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
