"""Golden run: the toy experiment reproduces the committed runs/toy/ byte for byte.

A refactor that keeps behaviour passes this unchanged.  A deliberate change
of behaviour regenerates runs/toy/ (pipeline, correlate and heatmap on
configs/toy.yaml into an empty directory) in the same commit and says so.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mfvuln import pipeline
from mfvuln.cli import main
from mfvuln.pipeline import ResultsLedger

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "toy.yaml"
FIXTURE = ROOT / "runs" / "toy"
COMMANDS = ("pipeline", "correlate", "heatmap")


def run_toy(out, commands=COMMANDS):
    for command in commands:
        assert main([command, "--config", str(CONFIG), "--out", str(out)]) == 0


def correlate_rows(out):
    return [r for r in ResultsLedger(str(out / "ledger.csv")).rows()
            if r["stage"] == "correlate"]


def finished_copy(tmp_path):
    out = tmp_path / "toy"
    shutil.copytree(FIXTURE, out)
    [row] = correlate_rows(out)
    line = f"seed 0 pearson r = {float(row['value']):.6f} ({out / 'correlation_s0.csv'})\n"
    return out, line


def assert_matches_fixture(out):
    want = sorted(p.name for p in FIXTURE.iterdir())
    assert len(want) == 16
    assert sorted(p.name for p in out.iterdir()) == want
    differ = [name for name in want
              if (out / name).read_bytes() != (FIXTURE / name).read_bytes()]
    assert differ == []


def test_toy_run_reproduces_committed_fixture(tmp_path):
    out = tmp_path / "toy"
    run_toy(out)
    assert_matches_fixture(out)


@pytest.mark.parametrize("target, call", [("fit_robust_value", 1), ("select_random", 1),
                                          ("attacked_returns", 1)])
def test_interrupted_run_resumes_to_the_fixture(tmp_path, monkeypatch, target, call):
    """A run killed inside a stage and rerun ends with the uninterrupted files.

    The first ``attacked_returns`` call of a pipeline run is brute-force
    selection scoring its subsets.
    """
    real, calls = getattr(pipeline, target), []

    def interrupt(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    out = tmp_path / "toy"
    with monkeypatch.context() as m:
        m.setattr(pipeline, target, interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_toy(out, ["pipeline"])
    run_toy(out)
    assert_matches_fixture(out)


def test_correlate_rerun_trains_and_writes_nothing(tmp_path, monkeypatch, capsys):
    out, line = finished_copy(tmp_path)

    def no_training(*args, **kwargs):
        raise AssertionError("a finished correlation was trained again")

    monkeypatch.setattr("mfvuln.pipeline.attacked_returns", no_training)
    run_toy(out, ["correlate"])
    assert capsys.readouterr().out == line
    for name in ("ledger.csv", "correlation_s0.csv"):
        assert (out / name).read_bytes() == (FIXTURE / name).read_bytes()


def test_correlate_trains_through_the_patched_trainer(tmp_path, monkeypatch):
    """The patch above guards something: an unfinished correlation calls it."""
    out, _ = finished_copy(tmp_path)
    (out / "correlation_s0.csv").unlink()
    calls = []

    def no_training(*args, **kwargs):
        calls.append(None)
        raise AssertionError("trained")

    monkeypatch.setattr("mfvuln.pipeline.attacked_returns", no_training)
    with pytest.raises(AssertionError, match="trained"):
        run_toy(out, ["correlate"])
    assert len(calls) == 1


def test_attack_stage_trains_only_missing_adversaries_in_one_batch(tmp_path, monkeypatch):
    out, _ = finished_copy(tmp_path)
    for method in ("dc", "random"):
        (out / f"adversary_{method}_s0.policy").unlink()
    real, batches = pipeline.train_adversaries, []

    def record(env, victim, budgets, cfg, seeds):
        batches.append(len(budgets))
        return real(env, victim, budgets, cfg, seeds)

    monkeypatch.setattr(pipeline, "train_adversaries", record)
    run_toy(out, ["pipeline"])
    assert batches == [2]
    assert_matches_fixture(out)


def test_attack_records_the_rows_of_a_run_stopped_after_its_adversaries(tmp_path,
                                                                        monkeypatch):
    """A run stopped after its adversaries were saved, before the attack rows:
    ``attack`` records the rows from the saved adversaries and trains none."""
    real = pipeline.evaluate_policy

    def interrupt(*args, **kwargs):
        if kwargs.get("adversary_policy") is not None:   # the attack stage scoring an attack
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    def no_training(env, victim, budgets, cfg, seeds):
        assert not budgets, "a saved adversary was trained again"
        return []

    out = tmp_path / "toy"
    with monkeypatch.context() as m:
        m.setattr(pipeline, "evaluate_policy", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_toy(out, ["pipeline"])
    assert all((out / f"adversary_{method}_s0.policy").exists()
               for method in ("greedy", "random", "dc", "brute"))
    assert {r["stage"] for r in ResultsLedger(str(out / "ledger.csv")).rows()} \
        == {"victim", "value", "select"}
    with monkeypatch.context() as m:
        m.setattr(pipeline, "train_adversaries", no_training)
        run_toy(out, ["attack"])
    run_toy(out, ["correlate", "heatmap"])
    assert_matches_fixture(out)


def test_attack_retrains_only_a_deleted_adversary_and_appends_nothing(tmp_path, monkeypatch):
    out, _ = finished_copy(tmp_path)
    (out / "adversary_dc_s0.policy").unlink()
    ledger_inode = (out / "ledger.csv").stat().st_ino
    real, batches = pipeline.train_adversaries, []

    def record(env, victim, budgets, cfg, seeds):
        batches.append(len(budgets))
        return real(env, victim, budgets, cfg, seeds)

    monkeypatch.setattr(pipeline, "train_adversaries", record)
    run_toy(out, ["attack"])
    assert batches == [1]
    assert_matches_fixture(out)
    # write_atomic replaces the file, so an append of no rows would show
    assert (out / "ledger.csv").stat().st_ino == ledger_inode


def test_correlate_rebuilds_a_missing_csv_once(tmp_path, capsys):
    out, line = finished_copy(tmp_path)
    (out / "correlation_s0.csv").unlink()
    run_toy(out, ["correlate"])
    assert capsys.readouterr().out == line
    assert (out / "correlation_s0.csv").read_bytes() \
        == (FIXTURE / "correlation_s0.csv").read_bytes()
    assert len(correlate_rows(out)) == 1
    assert (out / "ledger.csv").read_bytes() == (FIXTURE / "ledger.csv").read_bytes()


@pytest.mark.parametrize("deleted, rebuilt", [
    ((), {"rollouts": 0, "attacked_returns": 0}),
    (("trajectories_s0.csv", "brute_scores_s0.csv"), {"rollouts": 1, "attacked_returns": 1})])
def test_pipeline_rebuilds_deleted_stage_csvs_and_nothing_else(tmp_path, monkeypatch,
                                                               deleted, rebuilt):
    """A stage CSV deleted from a finished run is written again, by computing the
    artifact that writes it (the value model's corpus, brute force's scores)."""
    out, _ = finished_copy(tmp_path)
    for name in deleted:
        (out / name).unlink()
    calls = dict.fromkeys(rebuilt, 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(pipeline, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, counted)
    run_toy(out, ["pipeline"])
    assert calls == rebuilt
    assert_matches_fixture(out)


def test_a_toy_run_never_imports_numpy_ma(tmp_path):
    """np.unique without counts imports numpy.ma, 1.5 MB of RSS no stage needs.

    A fresh process, since any earlier test may have imported it already; some
    numpy versions load numpy.ma at ``import numpy``, and then there is nothing to check.
    """
    script = f"""
import sys
import numpy
preloaded = "numpy.ma" in sys.modules
from mfvuln.cli import main
for command in {list(COMMANDS)!r}:
    assert main([command, "--config", {str(CONFIG)!r}, "--out", {str(tmp_path / "toy")!r}]) == 0
print("preloaded" if preloaded else "loaded" if "numpy.ma" in sys.modules else "absent")
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] in ("preloaded", "absent")
