"""mfvuln benchmark: end-to-end timings per workload, per-layer spans when traced.

    python3 bench/run.py --workload taxi-experiment [--seed 0] [--seconds 10] [--trace 0|1]

Run it from anywhere inside a checkout; it works on the checkout it sits
in, builds nothing and needs no install (mfvuln is imported from ``src/``).
Each run:

1. reruns the toy experiment and compares it with the committed
   ``runs/toy/`` byte for byte (untimed; a mismatch is a failed operation);
2. times ``setup_s`` (process start to config parsed and env built) in a
   few fresh processes;
3. runs the workload in a fresh process, pass after pass until
   ``--seconds`` have gone (at least one pass), checking every pass's
   outputs.  With ``--trace 1`` it runs one untraced and one traced pass
   instead, and reports the traced per-layer metrics;
4. prints the machine, every metric by name and unit, informational
   science outputs, and last a JSON line with ``correct``, ``attempted``,
   ``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or
   its per-layer metrics when traced).

Results and spans are kept in ``.bench_out/`` of the checkout.
Workloads, metrics and the layer -> end-to-end predictions are described
in bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "workloads.py"
OUT = ROOT / ".bench_out"
WORKLOADS = ("taxi-experiment", "vicsek-scale")
NEEDED = ("src/mfvuln/cli.py", "configs/toy.yaml", "configs/taxi.yaml",
          "configs/vicsek.yaml", "runs/toy/ledger.csv")
# phase timings only some workloads have (see README.md)
PHASES = ("pipeline_s", "correlate_s", "rerun_s", "agent_steps_per_s")
SETUP_PROBES = 7
DEADLINE_S = 175.0


class BenchError(Exception):
    pass


def worker(mode, deadline: float, *args):
    """Run bench/workloads.py in a fresh process; returns (seconds to 'ready', result).

    The result is None for ``setup``.  Any failure to finish cleanly raises
    BenchError: then there is no trustworthy result to print.
    """
    result = OUT / f"result-{mode}.json"
    result.unlink(missing_ok=True)
    argv = [sys.executable, str(WORKER), mode, *args]
    if mode != "setup":
        argv += ["--result", str(result)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = "" if mode == "golden" else proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(argv[1:])} did not finish in time") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited {proc.returncode}")
    if mode == "golden":
        return None, json.loads(result.read_text())
    if first.strip() != "ready":
        raise BenchError(f"{mode} process never reported ready")
    return ready, (json.loads(result.read_text()) if mode == "run" else None)


def run_pass(workload, seed, deadline, trace_file=None):
    work = OUT / f"work-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    args = ["--workload", workload, "--seed", str(seed), "--work", str(work)]
    if trace_file is not None:
        args += ["--trace", str(trace_file)]
    try:
        return worker("run", deadline, *args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def machine(blas_threads) -> dict:
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "blas_threads": blas_threads,
            "commit": commit, "src_sha256": digest.hexdigest()[:16]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="minimum measuring time; whole passes are repeated to fill it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an mfvuln checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    try:
        shutil.rmtree(OUT / "work-golden", ignore_errors=True)
        _, gold = worker("golden", deadline, "--work", str(OUT / "work-golden"))
        shutil.rmtree(OUT / "work-golden", ignore_errors=True)
        setups = [worker("setup", deadline, "--workload", args.workload,
                         "--seed", str(args.seed))[0]
                  for _ in range(SETUP_PROBES)]
        passes = []
        start = time.perf_counter()
        while True:
            ready, res = run_pass(args.workload, args.seed, deadline)
            setups.append(ready)
            passes.append(res)
            if args.trace or time.perf_counter() - start >= args.seconds:
                break
        traced = None
        if args.trace:
            spans = OUT / f"spans-{args.workload}-s{args.seed}.npz"
            _, traced = run_pass(args.workload, args.seed, deadline, spans)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def median(key):
        return statistics.median(p["timings"][key] for p in passes)

    everything = passes + ([traced] if traced else [])
    attempted = gold["attempted"] + sum(p["attempted"] for p in everything)
    failures = gold["failures"] + [f for p in everything for f in p["failures"]]
    e2e = {"setup_s": statistics.median(setups), "wall_s": median("wall_s"),
           "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}
    # workload-specific phase timings: printed always, bounded through wall_s
    phases = {k: median(k) for k in PHASES if k in passes[0]["timings"]}
    phases["error_rate"] = len(failures) / attempted

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["error_rate"] = "ratio"
    info = machine(passes[0]["blas_threads"])
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"golden runs/toy: {gold['files']} files, "
          f"{len(gold['failures'])} failed checks")
    print(f"passes {len(passes)}; setup samples {len(setups)}")
    for name, value in {**e2e, **phases}.items():
        print(f"e2e {name} = {value:.6g} {units[name]}")
    for name, value in passes[0]["info"].items():
        print(f"info {name} = {value:.9g}")
    for failure in failures:
        print(f"FAILED {failure}")

    if traced:
        layers = dict(traced["layers"])
        layers.update({k: phases.get(k, 0.0) for k in PHASES})
        layers["selection.rl.fallbacks"] = traced["rl_fallbacks"]
        layers["pipeline.artifact_bytes"] = traced["artifact_bytes"]
        layers["trace.overhead_pct"] = 100.0 * (
            traced["timings"]["wall_s"] / passes[0]["timings"]["wall_s"] - 1.0)
        for name in (m["name"] for m in spec["per_layer"]):
            print(f"layer {name} = {layers[name]:.6g} {units[name]}")
        reported = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    else:
        reported = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": info, "golden": gold, "setup_samples": setups,
              "passes": passes, "traced": traced, "failures": failures}
    (OUT / f"record-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
